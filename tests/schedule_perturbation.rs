//! Schedule-perturbation harness: the loom-in-spirit leg of the pool
//! correctness argument.
//!
//! `skinner_pool::schedule` injects seeded yields/sleeps at worker-loop
//! decision points and seeds the push-slot / steal-victim choices, so a
//! fixed seed reshapes which worker runs which morsel and in what
//! interleaving — an *adversarial* schedule, repeatable across runs.
//! The pool runs Skinner-C's pre-processing: one filter morsel per
//! granted worker, each taking table after table. These tests drive the
//! engine across ≥3 fixed adversarial seeds and every pool size
//! (1/2/4/8 workers, `threads: 4` held fixed) and assert the full
//! outcome is byte-identical to a sequential (`threads: 1`) run's:
//!
//! * the flat tuple arena, in emission order (NOT set-compared — the
//!   join phase is single-threaded, so even tuple order must be
//!   schedule-independent),
//! * slice and step counts, the learned final order, and the distinct
//!   result count.
//!
//! CI additionally exports `SKINNER_SCHED_SEED` to run the *entire*
//! differential suite under each fixed seed; when that variable is set
//! here, it replaces the built-in seed list so the CI leg pins exactly
//! one schedule per invocation.

use skinnerdb::engine::{schedule, RunOptions, SkinnerC, SkinnerCConfig, StopReason, WorkerPool};
use skinnerdb::prelude::*;
use skinnerdb::query::{compile_predicates, TableSet};
use std::sync::{Arc, OnceLock};

/// Pool configurations every case must agree across. The filter fan-out
/// (`threads` in the engine config) stays fixed, so these differ only
/// in scheduling freedom: 1 worker serializes all morsels, 8 workers
/// maximize concurrent steals.
const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Three fixed adversarial seeds (plus whatever `SKINNER_SCHED_SEED`
/// pins in CI). Chosen arbitrarily but FIXED: failures must replay.
const DEFAULT_SEEDS: [u64; 3] = [0x5EED_0001, 0xDEAD_BEEF_CAFE, 0x0BAD_5CED_0003];

fn seeds() -> Vec<u64> {
    match std::env::var("SKINNER_SCHED_SEED") {
        Ok(s) => vec![s.parse().expect("SKINNER_SCHED_SEED must be a u64")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

fn shared_pool(workers: usize) -> Arc<WorkerPool> {
    static POOLS: OnceLock<Vec<Arc<WorkerPool>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| POOL_SIZES.iter().map(|&w| WorkerPool::new(w)).collect());
    pools[POOL_SIZES
        .iter()
        .position(|&w| w == workers)
        .expect("known size")]
    .clone()
}

/// Deterministic mixed-shape cases: composite fused keys + dates
/// (fallback tier), NULL-heavy keys, and a wide star — one apiece from
/// each workload generator, fixed seeds.
/// Each gets an `IS NOT NULL` filter on every table's first column, so
/// pre-processing scans every table.
fn cases() -> Vec<(&'static str, Catalog, Query)> {
    let (c1, q1) = skinnerdb::workloads::correlated::generate_case(11);
    let (c2, q2) = skinnerdb::workloads::nulls::generate_case(23);
    let (c3, q3) = skinnerdb::workloads::wide::generate_case(37);
    let scan_all = |mut q: Query| {
        for t in 0..q.num_tables() {
            q.predicates.push(Expr::IsNull {
                expr: Box::new(Expr::col(t, 0)),
                negated: true,
            });
        }
        q
    };
    vec![
        ("correlated", c1, scan_all(q1)),
        ("nulls", c2, scan_all(q2)),
        ("wide", c3, scan_all(q3)),
    ]
}

#[test]
fn engine_outcomes_identical_across_pools_and_seeds() {
    for (name, _cat, q) in cases() {
        // Column-engine truth for the distinct count, independent of
        // any pool machinery.
        let truth = ColEngine::new()
            .execute(
                &q,
                &ExecOptions {
                    count_only: true,
                    ..Default::default()
                },
            )
            .result_count;

        // The sequential reference: every filter scan on this thread.
        let engine = |threads| {
            SkinnerC::new(SkinnerCConfig {
                budget: 24,
                threads,
                ..Default::default()
            })
        };
        let reference = engine(1).run(&q);
        assert_eq!(reference.stop, StopReason::Completed);
        assert_eq!(
            reference.result_count, truth,
            "[{name}] engine vs column oracle"
        );
        // Vacuity guard: at least two tables have a unary filter, so
        // pre-processing spreads at least two scans over the pool.
        let scanned: TableSet = compile_predicates(&q)
            .iter()
            .map(|p| p.tables())
            .filter(|ts| ts.len() == 1)
            .fold(TableSet::EMPTY, |all, ts| all.union(ts));
        assert!(
            scanned.len() >= 2,
            "[{name}] {} filtered table(s) — perturbation test is vacuous",
            scanned.len()
        );

        for seed in seeds() {
            let run = |workers: usize| {
                schedule::set_seed(seed);
                let out = engine(4).run_with(
                    &q,
                    &RunOptions {
                        pool: Some(shared_pool(workers)),
                        ..Default::default()
                    },
                );
                schedule::clear();
                out
            };
            for &workers in &POOL_SIZES {
                let got = run(workers);
                assert_eq!(
                    got.metrics.table_cards, reference.metrics.table_cards,
                    "[{name}] filtered cardinalities diverged: pool {workers} (seed {seed:#x})"
                );
                assert_eq!(
                    got.tuples, reference.tuples,
                    "[{name}] tuple arena diverged: pool {workers} (seed {seed:#x})"
                );
                assert_eq!(got.result_count, reference.result_count);
                assert_eq!(
                    got.final_order, reference.final_order,
                    "[{name}] learned order diverged: pool {workers} (seed {seed:#x})"
                );
                assert_eq!(
                    (got.metrics.slices, got.metrics.steps),
                    (reference.metrics.slices, reference.metrics.steps),
                    "[{name}] slice/step counts diverged: pool {workers} (seed {seed:#x})"
                );
            }
        }
    }
}
