//! # skinner-service
//!
//! The front door to the SkinnerDB engine: a concurrent query service
//! with **cross-query learning reuse**.
//!
//! The paper's engine learns a near-optimal join order while a single
//! query runs, then throws that knowledge away. Serving real traffic
//! means the same query *templates* arrive over and over (with varying
//! constants), so this crate keeps the learned state alive between
//! executions and shares the machine between sessions:
//!
//! * [`QueryService`] — owns a [`Catalog`](skinner_storage::Catalog) and
//!   [`UdfRegistry`](skinner_query::UdfRegistry); accepts SQL from any
//!   number of concurrent [`Session`]s. Admission is FIFO-fair over one
//!   shared [`CoreBudget`]: `SkinnerCConfig.threads` is the *total* core
//!   budget, split between concurrent queries and each query's parallel
//!   filter scans (an idle service gives one query everything; a busy
//!   one runs queries side by side). The join phase itself runs on the
//!   query's own thread, as in the paper. Per-query timeouts and
//!   [`CancelToken`]s stop the engine cooperatively at slice boundaries.
//! * [`LearningCache`] — maps normalized query templates
//!   ([`TemplateKey`](skinner_query::TemplateKey): join graph +
//!   predicate shape, constants stripped) to the terminal UCT tree
//!   snapshot and bound-order set of the last execution. A repeated
//!   template **warm-starts**: the learner resumes from its priors and
//!   converges in measurably fewer slices (the `wire_warm` workload of
//!   `benchmark/` reports the warm-start ratio). Catalog mutations bump a
//!   version that invalidates stale entries — warm answers are always
//!   byte-for-byte equal to cold ones.
//! * Knowledge priors — when the exact-template cache misses, the
//!   service consults a cross-query
//!   [`KnowledgeStore`](skinner_knowledge::KnowledgeStore) of observed
//!   selectivities and join-edge rewards (keyed by coarse fingerprints
//!   that recur across templates) and seeds the cold UCT tree with
//!   optimistic arm priors: first-ever runs of *new* templates converge
//!   faster, with results provably identical to cold runs.
//! * Streaming delivery — `LIMIT` queries push their row target into
//!   the join phase (the engine's limit-aware `ResultSink` stops the
//!   slice loop once enough deduped rows exist), and
//!   [`Session::execute_streaming`] hands rows to a callback instead of
//!   forcing callers to hold the full table.
//! * [`repl`] — the in-process SQL shell behind the `skinner-repl`
//!   binary. Network clients go through `skinner-serve` (`skinner-net`).
//! * [`cli`] — the one command-line flag parser of the `skinner-*`
//!   binaries.
//!
//! ```
//! use skinner_query::UdfRegistry;
//! use skinner_service::{QueryService, ServiceConfig};
//! use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};
//!
//! let mut catalog = Catalog::new();
//! catalog.register(Table::new(
//!     "t",
//!     Schema::new([ColumnDef::new("x", ValueType::Int)]),
//!     vec![Column::from_ints(vec![1, 2, 3])],
//! ).unwrap());
//!
//! let service = QueryService::new(catalog, UdfRegistry::new(), ServiceConfig::default());
//! let mut session = service.session();
//! let result = session.execute("SELECT COUNT(*) AS n FROM t").unwrap();
//! assert_eq!(result.table.num_rows(), 1);
//! // Repeat the template: served warm from the learning cache.
//! let again = session.execute("SELECT COUNT(*) AS n FROM t").unwrap();
//! assert!(again.stats.cache_hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod cli;
pub mod persist;
pub mod repl;
pub mod service;

pub use budget::CoreBudget;
pub use cache::{CacheStats, LearningCache};
pub use persist::{knowledge_path, CachePersister, LoadReport, Persisted, WarmStart};
pub use service::{
    CancelToken, ConnectionGuard, ExecuteOptions, QueryService, ServiceConfig, ServiceError,
    ServiceStats, Session,
};
