//! # skinner-workloads
//!
//! Deterministic workload generators reproducing the paper's benchmark
//! suite (with documented substitutions — see DESIGN.md §3):
//!
//! * [`job`] — a synthetic stand-in for the Join Order Benchmark over
//!   IMDB: ten correlated, Zipf-skewed tables and 33 query templates of
//!   3–8 joins. The real JOB's difficulty comes from correlated real
//!   data breaking the independence assumption; the generator injects the
//!   same pathologies synthetically.
//! * [`tpch`] — dbgen-lite: the eight TPC-H tables at a configurable
//!   scale factor, plus SPJA forms of Q2, Q3, Q5, Q7, Q8, Q9, Q10, Q11,
//!   Q18, Q21 and their UDF variants (every unary predicate wrapped in an
//!   opaque, semantically identical UDF — the paper's TPC-UDF).
//! * [`torture`] — the appendix micro-benchmarks: UDF torture
//!   (chain/star, one empty-result "good" predicate among always-true
//!   ones), correlation torture (skewed, correlated chains with the
//!   selective join at parameterized position `m`), and the trivial
//!   optimization benchmark (all non-Cartesian plans equivalent).
//! * [`nulls`] — NULL-heavy, string-join stress: nullable
//!   dictionary-encoded string keys exercising the compiled kernel's
//!   `KeyEq` jumps (hash-verified string keys, NULL semantics through
//!   joins, indexes and aggregates).
//! * [`wide`] — wide-schema stress: dozen-plus-column tables,
//!   high-cardinality string dictionaries, and non-nullable **Float**
//!   join keys exercising the compiled kernel's `FloatEq` posting
//!   cursors.
//! * [`correlated`] — JOB-shaped link tables with **composite**
//!   `(movie_id, person_id)` join keys (the compiled kernel's fused
//!   `FusedEq` jumps) and `DATE` columns with TPC-H-style date-range
//!   predicates.
//!
//! All generators are seeded and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlated;
pub mod job;
pub mod nulls;
pub mod torture;
pub mod tpch;
pub mod util;
pub mod wide;

use skinner_query::Query;

/// A benchmark query with a stable identifier.
pub struct NamedQuery {
    /// Identifier (e.g. `"q07"`, `"chain-6"`).
    pub id: String,
    /// The resolved query.
    pub query: Query,
}

impl NamedQuery {
    /// Convenience constructor.
    pub fn new(id: impl Into<String>, query: Query) -> NamedQuery {
        NamedQuery {
            id: id.into(),
            query,
        }
    }
}
