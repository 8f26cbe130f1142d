//! # skinner-codegen
//!
//! Per-query specialized join kernels: the reproduction's stand-in for
//! Skinner-C's per-query code generation (§6 of Trummer et al., SIGMOD
//! 2019).
//!
//! The paper compiles each query into a specialized execution loop so
//! that the millions of per-tuple steps the regret-bounded executor
//! takes are branch-free. This crate is the safe-Rust analogue, one
//! layer above the engine's plan-time binding:
//!
//! * [`KernelKey`] — the *shape* of a (query, order) pair: per-position
//!   key-column kind (whose count is the table count) and a
//!   predicate-shape fingerprint.
//! * [`CompiledKernel`] — a bound order compiled into one DFS loop over
//!   the whole order (see [`kernel`]): any arity of
//!   [`MIN_KERNEL_TABLES`] or more, posting-list cursors instead of
//!   per-advance index probes, and elision of index-implied equality
//!   predicates.
//! * [`KernelCache`] — memoizes shape resolutions across slices, orders,
//!   queries, and service sessions, so repeated shapes (including warm
//!   service-layer templates) skip kernel-construction analysis. The
//!   cache is byte-accounted and LRU-bounded, so a long-lived server
//!   seeing unbounded shape diversity stays within budget.
//!
//! The engine (`skinner-engine`) selects between three execution tiers
//! per join order — generic reference kernel → plan-bound kernel →
//! compiled kernel. Every multi-table jump shape compiles: integer and
//! float keys, fused composite keys ([`KernelJump::FusedEq`]), and
//! string/nullable keys ([`KernelJump::KeyEq`], with an explicit
//! null-reject), at any order length — the compiled kernel's cursor
//! covers the whole order, so every time slice stops at its step budget.
//! All tiers speak the [`ResultSink`] protocol defined here and produce
//! byte-for-byte identical results; the differential properties in the
//! workspace's `tests/property.rs` and `tests/fuzz_differential.rs`
//! enforce that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod kernel;
pub mod key;
pub mod sink;

pub use cache::{KernelCache, KernelCacheStats, DEFAULT_KERNEL_CACHE_CAPACITY};
pub use kernel::{CompiledKernel, KernelJump, KernelPosition};
pub use key::{JumpKind, KernelKey, MIN_KERNEL_TABLES};
pub use sink::{ContinueResult, ResultSink};
