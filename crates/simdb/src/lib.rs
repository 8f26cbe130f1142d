//! # skinner-simdb
//!
//! Simulated "traditional" database engines, standing in for the external
//! systems of the SkinnerDB paper's evaluation (Postgres, MonetDB, and the
//! commercial "ComDB"; see DESIGN.md §3 for the substitution argument).
//!
//! The crate provides:
//!
//! * [`stats`] — `ANALYZE`-style table statistics (row counts, distinct
//!   counts, min/max),
//! * [`estimator`] — textbook cardinality estimation under the
//!   independence assumption with System-R-style default selectivities;
//!   *deliberately* misleadable by correlation and UDFs, exactly like the
//!   optimizers the paper stresses,
//! * [`optimizer`] — Selinger-style dynamic programming over left-deep
//!   join orders minimizing estimated C_out,
//! * [`exec`] — a shared left-deep executor with hash/nested-loop joins,
//!   deadlines, batch ranges and intermediate-cardinality accounting,
//! * [`engine`] — the three engine personalities:
//!   [`RowEngine`] (Postgres-like: row-at-a-time,
//!   materializes intermediate tuples as values, interprets predicates),
//!   [`ColEngine`] (MonetDB-like: vectorized,
//!   late-materialized row-id intermediates, compiled predicates), and
//!   [`AdaptiveEngine`]
//!   (ComDB-like: re-optimizes mid-query when observed cardinalities
//!   diverge from estimates),
//! * [`optimal`] — the true-C_out oracle computing certified-optimal
//!   left-deep orders by branch-and-bound over *measured* cardinalities
//!   (the "Optimal" rows of Tables 3/4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod estimator;
pub mod exec;
pub mod optimal;
pub mod optimizer;
pub mod stats;

pub use engine::{AdaptiveEngine, ColEngine, Engine, RowEngine};
pub use estimator::Estimator;
pub use exec::{ExecOptions, ExecOutcome, Prefiltered};
pub use optimal::{optimal_order, OptimalResult};
pub use optimizer::choose_order;
pub use stats::{analyze, StatsCatalog, TableStats};
