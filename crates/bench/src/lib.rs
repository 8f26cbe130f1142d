//! # skinner-bench
//!
//! The SkinnerDB paper's evaluation claims, asserted as deterministic
//! tests on work counters (`tests/paper_claims.rs`; see the crate's
//! README for the claim-to-test table). The end-to-end timings live in
//! the repository's `benchmark/` package.
//!
//! The library holds one helper: [`upsert_bench_json`], which writes
//! one section of a `BENCH_*.json` record file (`skinner-load
//! --bench-json` uses it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

pub use report::upsert_bench_json;
