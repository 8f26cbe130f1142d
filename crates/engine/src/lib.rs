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
//! Each chosen order executes on one of **three tiers** (see
//! `ARCHITECTURE.md`): the generic reference kernel (differential
//! oracle), the plan-bound kernel ([`OrderPlan`](prepare::OrderPlan):
//! typed slices, direct index references), or — for supported shapes —
//! a compiled kernel from [`skinner_codegen`] (one loop over the whole
//! order at any arity, posting-list cursors, elided index-implied
//! predicates). Tier selection is per order with automatic fallback;
//! all tiers produce byte-for-byte identical results.
//!
//! Beyond the paper's implementation, the join phase can run each slice
//! across multiple workers by offset-range partitioning of the
//! left-most table ([`partition`]): the remaining driver range splits
//! into disjoint chunk morsels executed on a persistent work-stealing
//! [`WorkerPool`] (no threads are spawned per slice), and the per-chunk
//! cursors fold back into one slice cursor, so the learned-order
//! semantics — and the regret analysis — are unchanged by the worker
//! count, the pool size, and the steal order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod multiway;
pub mod partition;
pub mod prepare;
pub mod progress;
pub mod reward;
pub mod skinner_c;

pub use metrics::ExecMetrics;
pub use multiway::{Collector, ContinueResult, LimitSink, MultiwayJoin, ResultSink};
pub use partition::PartitionSpec;
pub use prepare::PreparedQuery;
// The codegen tier's public surface, re-exported for drivers that
// compile kernels or share a cross-query kernel cache.
pub use progress::ProgressTracker;
pub use reward::RewardKind;
pub use skinner_c::{
    LearnedState, OrderPolicy, RunOptions, SkinnerC, SkinnerCConfig, SkinnerOutcome, StopReason,
};
pub use skinner_codegen::{
    CompiledKernel, JumpKind, KernelCache, KernelCacheStats, KernelJump, KernelKey, KernelPosition,
    DEFAULT_KERNEL_CACHE_CAPACITY,
};
// The persistent morsel pool and its schedule-perturbation test layer,
// re-exported so drivers and test harnesses need no direct dependency.
pub use skinner_pool::{schedule, WorkerPool};

// The fault-injection registry lives in `skinner-storage` (the record
// codec checks its I/O sites); re-exported so every site keeps its path.
pub use skinner_storage::failpoints;
