//! # skinner-engine
//!
//! Skinner-C: the customized execution engine of the SkinnerDB paper
//! (§4.5, Algorithms 2 and 3).
//!
//! A traditional engine executes one optimizer-chosen join order as a
//! pipeline of binary joins. Skinner-C instead runs the query in thousands
//! of tiny time slices, each executing a possibly different left-deep join
//! order chosen by UCT, and merges the result tuples. Making that cheap
//! requires three properties the paper calls out:
//!
//! 1. **Minimal switch overhead** — execution state is one tuple index per
//!    base table, so backup/restore copies a tiny vector.
//! 2. **No lost progress** — a depth-first *multi-way* join
//!    ([`multiway`]) keeps at most one in-flight intermediate tuple, so
//!    interrupting at any point loses nothing.
//! 3. **Progress sharing** — per-table offsets exclude fully-processed
//!    tuples for *every* order, and a progress trie ([`progress`])
//!    fast-forwards orders that share a prefix with a more advanced order.
//!
//! The main entry point is [`SkinnerC`], Algorithm 3: choose order via
//! UCT → restore state → run the multi-way join for a fixed step budget →
//! compute a progress-based reward → update UCT → back up state.
//!
//! Each chosen order is bound once into an
//! [`OrderPlan`](prepare::OrderPlan) (typed slices, direct index
//! references) and runs on its compiled kernel from [`skinner_codegen`]
//! (one loop over the whole order at any arity, a single table included;
//! posting-list cursors, elided index-implied predicates). The generic
//! reference kernel is the differential oracle; the two emit identical
//! tuples in identical order (see `ARCHITECTURE.md`).
//!
//! As in the paper's implementation, only pre-processing runs in
//! parallel: the per-table filter scans ([`prepare`]) are morsels on
//! the persistent [`WorkerPool`]. Every join slice runs on the calling
//! thread, so the worker count changes pre-processing wall time and
//! nothing else — not the tuples, their order, the steps, the slices or
//! the learned order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod multiway;
pub mod prepare;
pub mod progress;
pub mod reward;
pub mod skinner_c;

pub use metrics::ExecMetrics;
pub use multiway::{Collector, ContinueResult, MultiwayJoin, ResultSink};
pub use prepare::PreparedQuery;
pub use progress::ProgressTracker;
pub use skinner_c::{
    OrderPolicy, RunOptions, SkinnerC, SkinnerCConfig, SkinnerOutcome, StopReason,
};
// The codegen tier's public surface, re-exported for drivers that
// compile kernels or share a cross-query kernel cache.
pub use skinner_codegen::{
    CompiledKernel, JumpKind, KernelCache, KernelCacheStats, KernelJump, KernelKey, KernelPosition,
};
// The persistent morsel pool (it runs the filter scans) and its
// schedule-perturbation test layer, re-exported so drivers and test
// harnesses need no direct dependency.
pub use skinner_pool::{schedule, WorkerPool};

// The fault-injection registry lives in `skinner-storage` (the record
// codec checks its I/O sites); re-exported so every site keeps its path.
pub use skinner_storage::failpoints;
