//! Skinner-H: the hybrid of traditional optimization and learning (§4.4).
//!
//! "We iteratively execute the query using the plan chosen by the
//! traditional query optimizer, using a timeout of 2^i [...]. In between
//! two traditional optimizer invocations, we execute the learning based
//! algorithm [...] for the same amount of time. We save the state of the
//! UCT search trees between different invocations."
//!
//! Theorem 5.8: compared to pure traditional execution, the hybrid's
//! regret is bounded (≤ 4/5 · n); Theorem 5.7 keeps the learning regret
//! bound within a constant factor. Skinner-H therefore trades a bounded
//! constant overhead on easy queries for robustness on hard ones —
//! exactly the Figure 12 / Figure 9 trade-off.

use skinner_query::Query;
use skinner_simdb::exec::ExecOptions;
use skinner_simdb::Engine;
use skinner_storage::RowId;
use std::time::{Duration, Instant};

use crate::skinner_g::SkinnerGSession;

/// Which execution path produced the final result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// The engine's own optimizer plan finished first.
    Traditional,
    /// The learned (Skinner-G) execution finished first.
    Learned,
}

/// Base timeout for the first traditional invocation (doubles each
/// round).
const BASE_TIMEOUT: Duration = Duration::from_millis(2);
/// Hard cap on doubling rounds (2^30 × base ≈ forever).
const MAX_ROUNDS: u32 = 40;

/// Outcome of a Skinner-H run.
#[derive(Debug)]
pub(crate) struct HOutcome {
    /// Result tuples, flat row-major (stride = num tables, FROM order).
    pub(crate) tuples: Vec<RowId>,
    /// Result tuple count.
    pub(crate) result_count: u64,
    /// Which path finished.
    pub(crate) source: PlanSource,
    /// Traditional-plan attempts (timed out + the final one, if any).
    pub(crate) traditional_attempts: u32,
    /// Learning iterations executed.
    pub(crate) learning_iterations: u64,
    /// Total wall time.
    pub(crate) wall: Duration,
}

/// Run Skinner-H on `engine` to completion.
pub(crate) fn run(engine: &dyn Engine, query: &Query) -> HOutcome {
    run_from(engine, query, BASE_TIMEOUT)
}

/// [`run`], the first traditional invocation timing out after
/// `base_timeout`.
fn run_from(engine: &dyn Engine, query: &Query, base_timeout: Duration) -> HOutcome {
    let start = Instant::now();
    let mut session = SkinnerGSession::new(engine, query);
    let mut traditional_attempts = 0u32;
    let mut learning_iterations = 0u64;

    for round in 0..MAX_ROUNDS {
        let timeout = base_timeout * 2u32.saturating_pow(round);

        // Phase 1: the traditional optimizer plan under a timeout.
        traditional_attempts += 1;
        let opts = ExecOptions {
            deadline: Some(Instant::now() + timeout),
            ..Default::default()
        };
        let out = engine.execute(query, &opts);
        if out.completed() {
            return HOutcome {
                tuples: out.tuples,
                result_count: out.result_count,
                source: PlanSource::Traditional,
                traditional_attempts,
                learning_iterations,
                wall: start.elapsed(),
            };
        }

        // Phase 2: learning for (at least) the same amount of time.
        // UCT trees, batch offsets and partial results persist inside
        // the session across rounds.
        let learn_deadline = Instant::now() + timeout;
        while !session.finished() && Instant::now() < learn_deadline {
            session.step();
            learning_iterations += 1;
        }
        if session.finished() {
            let out = session.outcome();
            return HOutcome {
                tuples: out.tuples,
                result_count: out.result_count,
                source: PlanSource::Learned,
                traditional_attempts,
                learning_iterations,
                wall: start.elapsed(),
            };
        }
    }

    // Safety valve: run the learning side to completion.
    while !session.finished() {
        session.step();
        learning_iterations += 1;
    }
    let out = session.outcome();
    HOutcome {
        tuples: out.tuples,
        result_count: out.result_count,
        source: PlanSource::Learned,
        traditional_attempts,
        learning_iterations,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::QueryBuilder;
    use skinner_simdb::ColEngine;
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mk = |name: &str, keys: Vec<i64>| {
            Table::new(
                name,
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints(keys)],
            )
            .unwrap()
        };
        cat.register(mk("a", (0..50).map(|i| i % 5).collect()));
        cat.register(mk("b", (0..30).map(|i| i % 5).collect()));
        cat
    }

    fn query(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        qb.filter(j);
        qb.select_col("a.k").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn easy_query_finishes_via_traditional() {
        let cat = catalog();
        let q = query(&cat);
        let engine = ColEngine::new();
        let expected = engine.execute(&q, &ExecOptions::default()).result_count;
        let out = run_from(&engine, &q, Duration::from_millis(50));
        assert_eq!(out.result_count, expected);
        assert_eq!(out.source, PlanSource::Traditional);
        assert_eq!(out.traditional_attempts, 1);
    }

    #[test]
    fn tiny_timeouts_still_terminate_correctly() {
        let cat = catalog();
        let q = query(&cat);
        let engine = ColEngine::new();
        let expected = engine.execute(&q, &ExecOptions::default()).result_count;
        // With a 0ns base timeout the traditional path always times out in
        // round 0; doubling eventually lets one of the two paths finish.
        let out = run_from(&engine, &q, Duration::from_nanos(1));
        assert_eq!(out.result_count, expected);
        assert!(out.traditional_attempts >= 1);
    }
}
