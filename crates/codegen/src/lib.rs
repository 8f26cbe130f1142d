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
//!   the whole order (see [`kernel`]): any arity from one table up,
//!   posting-list cursors instead of per-advance index probes, and
//!   elision of index-implied equality predicates.
//! * [`KernelCache`] — memoizes shape resolutions across slices, orders,
//!   queries, and service sessions. The cache is byte-accounted and
//!   LRU-bounded, so a long-lived server seeing unbounded shape
//!   diversity stays within budget. Every non-empty shape compiles, so
//!   the memo saves nothing; it is kept only for `benchmark/`, whose
//!   ROADMAP item 2 `[benchmark]` commit removes it.
//!
//! The engine (`skinner-engine`) runs every join order on a compiled
//! kernel; its generic reference kernel is the differential oracle.
//! Every jump shape compiles: integer and float keys, fused composite
//! keys ([`KernelJump::FusedEq`]), and string/nullable keys
//! ([`KernelJump::KeyEq`], with an explicit null-reject), at any order
//! length — the compiled kernel's cursor covers the whole order, so
//! every time slice stops at its step budget. Both kernels speak the
//! [`ResultSink`] protocol defined here and emit identical tuples in
//! identical order; the differential properties in the workspace's
//! `tests/property.rs` and `tests/fuzz_differential.rs` enforce that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod kernel;
pub mod key;
pub mod sink;

pub use cache::{KernelCache, KernelCacheStats, DEFAULT_KERNEL_CACHE_CAPACITY};
pub use kernel::{CompiledKernel, KernelJump, KernelPosition, KernelScratch};
pub use key::{JumpKind, KernelKey, MIN_KERNEL_TABLES};
pub use sink::{ContinueResult, ResultSink};
