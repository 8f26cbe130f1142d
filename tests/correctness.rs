//! Cross-crate integration tests: every execution strategy must produce
//! the same results on the same queries (Theorems 5.1–5.3).

use skinnerdb::baselines::{Eddy, Reoptimizer};
use skinnerdb::prelude::*;
use skinnerdb::workloads::{job, torture, tpch};
use std::sync::Arc;

/// Sorted result-count ground truth via the column engine.
fn ground_truth(query: &Query) -> ResultTable {
    run_engine(&ColEngine::new(), query, &ExecOptions::default()).table
}

fn rows_match(a: &ResultTable, b: &ResultTable, ctx: &str) {
    // Exact for ints/strings; tolerant for float aggregates (summation
    // order differs across plans).
    assert_eq!(a.num_rows(), b.num_rows(), "{ctx}: row count");
    for (ra, rb) in a.canonical_rows().iter().zip(b.canonical_rows().iter()) {
        for (x, y) in ra.iter().zip(rb.iter()) {
            match (x, y) {
                (Value::Float(fx), Value::Float(fy)) => {
                    assert!(
                        (fx - fy).abs() <= 1e-9 * fx.abs().max(fy.abs()).max(1.0),
                        "{ctx}: {fx} vs {fy}"
                    );
                }
                _ => assert_eq!(x, y, "{ctx}"),
            }
        }
    }
}

#[test]
fn job_queries_all_strategies_agree() {
    let wl = job::generate(0.05, 11);
    let engine = Arc::new(ColEngine::new());
    // A representative slice of the workload (full sweep lives in the
    // bench harness).
    for nq in wl.queries.iter().step_by(5) {
        let truth = ground_truth(&nq.query);
        let c = SkinnerDB::skinner_c(SkinnerCConfig::default()).execute(&nq.query);
        rows_match(&c.table, &truth, &format!("{} skinner-c", nq.id));
        let g = SkinnerDB::skinner_g(engine.clone()).execute(&nq.query);
        rows_match(&g.table, &truth, &format!("{} skinner-g", nq.id));
        let h = SkinnerDB::skinner_h(engine.clone()).execute(&nq.query);
        rows_match(&h.table, &truth, &format!("{} skinner-h", nq.id));
    }
}

#[test]
fn job_row_and_col_engines_agree() {
    let wl = job::generate(0.04, 3);
    let row = RowEngine::new();
    let col = ColEngine::new();
    for nq in wl.queries.iter().step_by(7) {
        let a = run_engine(&row, &nq.query, &ExecOptions::default()).table;
        let b = run_engine(&col, &nq.query, &ExecOptions::default()).table;
        rows_match(&a, &b, &nq.id);
    }
}

#[test]
fn tpch_skinner_c_matches_engines() {
    let cat = tpch::generate(0.002, 5);
    for nq in tpch::queries(&cat, false, 0) {
        let truth = ground_truth(&nq.query);
        let c = SkinnerDB::skinner_c(SkinnerCConfig::default()).execute(&nq.query);
        rows_match(&c.table, &truth, &nq.id);
    }
}

#[test]
fn tpch_udf_variant_matches_plain() {
    let cat = tpch::generate(0.002, 5);
    let plain = tpch::queries(&cat, false, 0);
    let udf = tpch::queries(&cat, true, 25);
    let db = SkinnerDB::skinner_c(SkinnerCConfig::default());
    for (p, u) in plain.iter().zip(&udf) {
        let a = db.execute(&p.query);
        let b = db.execute(&u.query);
        rows_match(&a.table, &b.table, &p.id);
    }
}

#[test]
fn torture_cases_all_strategies_agree() {
    use torture::{correlation_torture, trivial_optimization, udf_torture, Shape};
    let cases = vec![
        udf_torture(Shape::Chain, 5, 20, 1, 0),
        udf_torture(Shape::Star, 4, 16, 2, 0),
        correlation_torture(4, 400, 1, 4),
        trivial_optimization(5, 64, 0),
    ];
    for case in cases {
        let q = &case.query.query;
        let truth = ground_truth(q);
        let c = SkinnerDB::skinner_c(SkinnerCConfig::default()).execute(q);
        rows_match(&c.table, &truth, &case.query.id);
        // Eddy and reoptimizer report join counts, not post-processed
        // tables; compare the raw result count via COUNT(*) queries.
        let eddy = Eddy::new().run(q);
        let reopt = Reoptimizer.run(q, &ExecOptions::default());
        let engine_raw = ColEngine::new().execute(q, &ExecOptions::default());
        assert_eq!(
            eddy.result_count, engine_raw.result_count,
            "{}",
            case.query.id
        );
        assert_eq!(
            reopt.result_count, engine_raw.result_count,
            "{}",
            case.query.id
        );
    }
}

#[test]
fn sql_end_to_end_through_skinner_c() {
    let wl = job::generate(0.05, 9);
    let q = parse(
        "SELECT t.kind_id, COUNT(*) AS n, MIN(t.production_year) AS first \
         FROM title t, movie_companies mc \
         WHERE t.id = mc.movie_id AND mc.company_type_id = 1 \
         GROUP BY t.kind_id ORDER BY n DESC",
        &wl.catalog,
        &UdfRegistry::new(),
    )
    .expect("valid SQL");
    let skinner = SkinnerDB::skinner_c(SkinnerCConfig::default()).execute(&q);
    let truth = ground_truth(&q);
    rows_match(&skinner.table, &truth, "sql-e2e");
    // ORDER BY n DESC: counts must be non-increasing.
    let counts: Vec<i64> = skinner
        .table
        .rows
        .iter()
        .map(|r| r[1].as_int().expect("count"))
        .collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn forced_orders_timeouts_and_batches_compose() {
    // Exercises the Skinner-G building blocks directly against an engine.
    let wl = job::generate(0.03, 2);
    let nq = &wl.queries[0];
    let engine = ColEngine::new();
    let m = nq.query.num_tables();
    // Execute in two batches over the first table's filtered rows and
    // verify the union matches the full run.
    let full = engine.execute(&nq.query, &ExecOptions::default());
    let mut merged = 0u64;
    for (lo, hi) in [(0usize, 50usize), (50, usize::MAX)] {
        let mut ranges = vec![0..usize::MAX; m];
        ranges[0] = lo..hi;
        let out = engine.execute(
            &nq.query,
            &ExecOptions {
                join_order: Some((0..m).collect()),
                ranges: Some(ranges),
                ..Default::default()
            },
        );
        assert!(out.completed());
        merged += out.result_count;
    }
    assert_eq!(merged, full.result_count);
}
