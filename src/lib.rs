//! # SkinnerDB-rs
//!
//! A Rust reproduction of *"SkinnerDB: Regret-Bounded Query Evaluation
//! via Reinforcement Learning"* (Trummer et al., SIGMOD 2019).
//!
//! SkinnerDB maintains no data statistics and no cost or cardinality
//! models. It slices query execution into many small time slices,
//! executes a possibly different join order in each slice, measures
//! progress, and uses the UCT algorithm to converge onto near-optimal
//! left-deep join orders *while the query runs* — with formal regret
//! bounds relative to the optimal join order.
//!
//! Start with the repository docs: `README.md` (crate map, quick start,
//! paper mapping) and `ARCHITECTURE.md` (the slice → reward → UCT loop,
//! `OrderPlan` plan-time specialization, and the parallel
//! pre-processing on the shared worker pool).
//!
//! ## Quick start
//!
//! ```
//! use skinnerdb::prelude::*;
//!
//! // 1. Build a catalog.
//! let mut catalog = Catalog::new();
//! catalog.register(Table::new(
//!     "users",
//!     Schema::new([
//!         ColumnDef::new("id", ValueType::Int),
//!         ColumnDef::new("age", ValueType::Int),
//!     ]),
//!     vec![
//!         Column::from_ints(vec![1, 2, 3]),
//!         Column::from_ints(vec![25, 35, 45]),
//!     ],
//! ).unwrap());
//! catalog.register(Table::new(
//!     "orders",
//!     Schema::new([
//!         ColumnDef::new("user_id", ValueType::Int),
//!         ColumnDef::new("amount", ValueType::Int),
//!     ]),
//!     vec![
//!         Column::from_ints(vec![1, 1, 3]),
//!         Column::from_ints(vec![10, 20, 30]),
//!     ],
//! ).unwrap());
//!
//! // 2. Parse SQL.
//! let query = parse(
//!     "SELECT u.age, SUM(o.amount) AS total \
//!      FROM users u, orders o \
//!      WHERE u.id = o.user_id AND u.age > 20 \
//!      GROUP BY u.age ORDER BY total DESC",
//!     &catalog,
//!     &UdfRegistry::new(),
//! ).unwrap();
//!
//! // 3. Execute with Skinner-C (regret-bounded, learning join orders
//! //    during execution).
//! let db = SkinnerDB::skinner_c(SkinnerCConfig::default());
//! let result = db.execute(&query);
//! assert_eq!(result.table.num_rows(), 2);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`storage`] | column store, catalog, join indexes (offset array for dense keys, hash map otherwise), the record codec |
//! | [`query`] | expressions, UDFs, SQL parser, join graphs |
//! | [`uct`] | the UCT bandit-tree learner |
//! | [`engine`] | Skinner-C: parallel pre-processing, single-threaded multi-way join on one compiled kernel per join order (the generic kernel as its oracle), progress sharing (§4.5) |
//! | [`codegen`] | per-query compiled join kernels (§6): shape keys, one runtime-arity kernel per join order of one or more tables |
//! | [`simdb`] | simulated traditional engines + optimizer + C_out oracle |
//! | [`core`] | Skinner-G/H, pyramid timeouts, post-processing, facade |
//! | [`baselines`] | Eddies, re-optimizer |
//! | [`workloads`] | JOB-like, TPC-H dbgen-lite, torture + NULL/string + wide/Float benchmarks |
//! | [`knowledge`] | cross-query knowledge store: fingerprinted selectivity/join-edge statistics seeding cold UCT trees |
//! | [`service`] | concurrent query service: sessions, core-budget admission, cross-query learning cache, `skinner-repl` |
//!
//! (`crates/bench` asserts the paper's claims on work counters;
//! `crates/vendor` holds offline dependency shims.)

#![forbid(unsafe_code)]

pub use skinner_baselines as baselines;
pub use skinner_codegen as codegen;
pub use skinner_core as core;
pub use skinner_engine as engine;
pub use skinner_knowledge as knowledge;
pub use skinner_query as query;
pub use skinner_service as service;
pub use skinner_simdb as simdb;
pub use skinner_storage as storage;
pub use skinner_uct as uct;
pub use skinner_workloads as workloads;

/// Common imports for applications.
pub mod prelude {
    pub use skinner_core::{postprocess, run_engine, QueryResult, ResultTable, SkinnerDB, Variant};
    pub use skinner_engine::{SkinnerC, SkinnerCConfig, SkinnerOutcome};
    pub use skinner_query::{parse, AggFunc, Expr, Query, QueryBuilder, Udf, UdfRegistry};
    pub use skinner_service::{QueryService, ServiceConfig, Session};
    pub use skinner_simdb::exec::ExecOptions;
    pub use skinner_simdb::{AdaptiveEngine, ColEngine, Engine, RowEngine};
    pub use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, Value, ValueType};
}
