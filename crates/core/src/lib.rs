//! # skinner-core
//!
//! The SkinnerDB facade: regret-bounded query evaluation in all three
//! variants of the paper, plus the shared post-processor.
//!
//! * [`SkinnerC`](skinner_engine::SkinnerC) (re-exported) — the custom
//!   engine (§4.5), wrapped here with post-processing.
//! * [`SkinnerG`] (§4.3, Algorithm 1) — join order learning on top of a
//!   *generic* engine treated as a black box with forced join orders,
//!   batches, and timeouts allocated by the [`pyramid`] scheme.
//! * [`SkinnerH`] (§4.4) — the hybrid: alternates doubling-timeout runs
//!   of the engine's own optimizer plan with Skinner-G learning slices.
//! * [`postprocess`](mod@postprocess) — grouping, aggregation, sorting,
//!   DISTINCT, LIMIT (§3: "post-processing involves grouping,
//!   aggregation, and sorting").
//! * [`MinMaxFold`] — a global MIN/MAX folded while Skinner-C's join
//!   runs, in place of a deduplicated result set and post-processing.
//!
//! The [`SkinnerDB`] type bundles a variant choice with post-processing
//! behind one `execute(query) -> QueryResult` call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fold;
pub mod postprocess;
pub mod pyramid;
pub mod result;
pub mod skinner_db;
pub mod skinner_g;
pub mod skinner_h;

pub use fold::MinMaxFold;
pub use postprocess::{postprocess, project_tuple};
pub use pyramid::PyramidTimeouts;
pub use result::ResultTable;
pub use skinner_db::{run_engine, QueryResult, RunStats, SkinnerDB, Variant};
pub use skinner_g::{GOutcome, SkinnerG, SkinnerGConfig, SkinnerGSession};
pub use skinner_h::{HOutcome, PlanSource, SkinnerH, SkinnerHConfig};
