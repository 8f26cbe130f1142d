//! Service-level integration tests:
//!
//! * **Concurrent-session stress** — N OS threads hammer the service
//!   with repeated templates; every result must be identical to serial
//!   execution, the core budget must never be exceeded, and the cache
//!   must end up warm.
//! * **Cache correctness** — warm-started answers are byte-for-byte
//!   equal to cold ones, including after catalog-invalidating updates.
//!
//! `SKINNER_TEST_THREADS` (default 4) sets the service's total core
//! budget, so CI exercises the admission path with a multi-core budget.

use skinner_core::ResultTable;
use skinner_engine::SkinnerCConfig;
use skinner_service::{QueryService, ServiceConfig};
use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};
use std::sync::Arc;

fn env_threads() -> usize {
    std::env::var("SKINNER_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// A three-table catalog with enough rows that queries take multiple
/// slices (so admission, warm starts, and interleavings all matter).
fn catalog(seed: u64) -> Catalog {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let mk = |name: &str, n: usize, keys: u64, rng: &mut SmallRng| {
        let k: Vec<i64> = (0..n).map(|_| rng.gen_range(0..keys) as i64).collect();
        let v: Vec<i64> = (0..n).map(|i| i as i64).collect();
        Table::new(
            name,
            Schema::new([
                ColumnDef::new("k", ValueType::Int),
                ColumnDef::new("v", ValueType::Int),
            ]),
            vec![Column::from_ints(k), Column::from_ints(v)],
        )
        .unwrap()
    };
    cat.register(mk("r", 256, 32, &mut rng));
    cat.register(mk("s", 512, 32, &mut rng));
    cat.register(mk("u", 128, 32, &mut rng));
    cat
}

fn service(seed: u64) -> Arc<QueryService> {
    QueryService::new(
        catalog(seed),
        skinner_query::UdfRegistry::new(),
        ServiceConfig {
            engine: SkinnerCConfig {
                budget: 200,
                threads: env_threads(),
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

/// Query templates (varying constants per iteration).
fn sql(template: usize, constant: i64) -> String {
    match template {
        0 => format!("SELECT COUNT(*) AS n FROM r, s WHERE r.k = s.k AND r.v < {constant}"),
        1 => format!(
            "SELECT r.k AS k, COUNT(*) AS n FROM r, s, u \
             WHERE r.k = s.k AND s.k = u.k AND u.v < {constant} \
             GROUP BY r.k ORDER BY k"
        ),
        _ => format!(
            "SELECT MIN(s.v) AS lo, MAX(s.v) AS hi FROM s, u WHERE s.k = u.k AND s.v > {constant}"
        ),
    }
}

#[test]
fn concurrent_sessions_match_serial_execution() {
    const SESSIONS: usize = 4;
    const QUERIES_PER_SESSION: usize = 12;

    // Serial ground truth on a service of its own (cold and warm runs
    // both happen here too — results must be constant regardless).
    let serial = service(7);
    let mut expected: Vec<Vec<ResultTable>> = Vec::new();
    {
        let mut session = serial.session();
        for worker in 0..SESSIONS {
            let mut per_worker = Vec::new();
            for i in 0..QUERIES_PER_SESSION {
                let q = sql(i % 3, 10 + (worker * QUERIES_PER_SESSION + i) as i64);
                per_worker.push(session.execute(&q).expect("serial query").table);
            }
            expected.push(per_worker);
        }
    }

    // The same queries, now from 4 concurrent sessions.
    let svc = service(7);
    let mut handles = Vec::new();
    for worker in 0..SESSIONS {
        let svc = svc.clone();
        handles.push(std::thread::spawn(move || {
            let mut session = svc.session();
            let mut tables = Vec::new();
            for i in 0..QUERIES_PER_SESSION {
                let q = sql(i % 3, 10 + (worker * QUERIES_PER_SESSION + i) as i64);
                tables.push(session.execute(&q).expect("concurrent query").table);
            }
            tables
        }));
    }
    for (worker, h) in handles.into_iter().enumerate() {
        let got = h.join().expect("session thread");
        for (i, (g, e)) in got.iter().zip(&expected[worker]).enumerate() {
            assert!(
                g.same_rows(e),
                "worker {worker} query {i}: concurrent result diverged from serial"
            );
        }
    }

    let stats = svc.stats();
    assert_eq!(stats.queries, (SESSIONS * QUERIES_PER_SESSION) as u64);
    // 3 templates across 48 executions: the cache must be doing work.
    assert_eq!(svc.learning_cache().len(), 3);
    assert!(
        stats.cache.hits >= (SESSIONS * QUERIES_PER_SESSION - 3 * SESSIONS) as u64,
        "cache barely hit: {:?}",
        stats.cache
    );
    assert!(stats.warm_starts > 0, "no warm starts under repetition");
}

#[test]
fn warm_answers_equal_cold_answers() {
    // The learning cache must never change answers — only convergence
    // speed. Run each template cold on a fresh service, then repeatedly
    // on a shared one; all answers must match exactly (canonical rows,
    // i.e. byte-for-byte modulo row order, which grouped/sorted queries
    // pin down anyway).
    let shared = service(21);
    let mut session = shared.session();
    for template in 0..3 {
        for round in 0..4 {
            let q = sql(template, 25);
            let cold = {
                let fresh = service(21);
                let mut s = fresh.session();
                s.execute(&q).expect("cold").table
            };
            let warm = session.execute(&q).expect("warm");
            assert!(
                warm.table.same_rows(&cold),
                "template {template} round {round}: warm result differs from cold"
            );
            // The first execution runs cold; every repeat hits the
            // cache and warm-starts from its snapshot.
            assert_eq!(warm.stats.cache_hit, round > 0, "round {round}");
            assert_eq!(warm.stats.warm_start, round > 0, "round {round}");
        }
    }
}

#[test]
fn warm_answers_survive_catalog_invalidation() {
    let svc = service(33);
    let mut session = svc.session();
    let q = sql(0, 40);
    let before = session.execute(&q).expect("before update");
    assert!(session.execute(&q).expect("warm repeat").stats.cache_hit);

    // Replace table "s": different rows, same schema. The cached entry
    // for the template is now stale and must be invalidated, and the
    // fresh answer must match a cold service over the *new* catalog.
    let new_s = {
        let k: Vec<i64> = (0..300).map(|i| i % 16).collect();
        let v: Vec<i64> = (0..300).collect();
        Table::new(
            "s",
            Schema::new([
                ColumnDef::new("k", ValueType::Int),
                ColumnDef::new("v", ValueType::Int),
            ]),
            vec![Column::from_ints(k), Column::from_ints(v)],
        )
        .unwrap()
    };
    svc.register_table(new_s.clone());

    let after = session.execute(&q).expect("after update");
    assert!(
        !after.stats.cache_hit,
        "stale learning served across a catalog update"
    );
    assert!(
        !after.table.same_rows(&before.table),
        "sanity: the update should change the answer"
    );

    // Cold oracle over the updated catalog.
    let mut oracle_cat = catalog(33);
    oracle_cat.register(new_s);
    let oracle = QueryService::new(
        oracle_cat,
        skinner_query::UdfRegistry::new(),
        ServiceConfig {
            engine: SkinnerCConfig {
                budget: 200,
                threads: env_threads(),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let expected = oracle.session().execute(&q).expect("oracle").table;
    assert!(after.table.same_rows(&expected));

    // And the template re-warms against the new catalog version.
    assert!(session.execute(&q).expect("re-warm").stats.cache_hit);
}

/// Two link tables sharing a composite `(a, b)` key: the engine joins
/// them through a fused composite index (see
/// `skinner_engine::prepare::CompositeKeyGroup`).
fn composite_catalog(seed: u64) -> Catalog {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let mut mk = |name: &str, n: usize| {
        let a: Vec<i64> = (0..n).map(|_| rng.gen_range(0..12)).collect();
        let b: Vec<i64> = (0..n).map(|_| rng.gen_range(0..12)).collect();
        let v: Vec<i64> = (0..n).map(|i| i as i64).collect();
        Table::new(
            name,
            Schema::new([
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::new("b", ValueType::Int),
                ColumnDef::new("v", ValueType::Int),
            ]),
            vec![
                Column::from_ints(a),
                Column::from_ints(b),
                Column::from_ints(v),
            ],
        )
        .unwrap()
    };
    let l1 = mk("l1", 300);
    let l2 = mk("l2", 400);
    let l3 = mk("l3", 150);
    cat.register(l1);
    cat.register(l2);
    cat.register(l3);
    cat
}

fn composite_service(seed: u64) -> Arc<QueryService> {
    QueryService::new(
        composite_catalog(seed),
        skinner_query::UdfRegistry::new(),
        ServiceConfig {
            engine: SkinnerCConfig {
                budget: 200,
                threads: env_threads(),
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn composite_template_warm_survives_catalog_invalidation() {
    // A composite-key template: l1 ⋈ l2 on (a, b), l2 ⋈ l3 on a. After
    // a catalog update to ONE table of the template, the cached learning
    // must be invalidated and the warm-path answer must equal a cold
    // service's answer over the new catalog byte for byte.
    let sql = "SELECT l1.v AS v, COUNT(*) AS n FROM l1, l2, l3 \
               WHERE l1.a = l2.a AND l1.b = l2.b AND l2.a = l3.a AND l3.v < 60 \
               GROUP BY l1.v ORDER BY v";

    let svc = composite_service(91);
    let mut session = svc.session();
    let cold = session.execute(sql).expect("cold");
    assert!(!cold.stats.cache_hit);
    let warm = session.execute(sql).expect("warm");
    assert!(warm.stats.cache_hit, "composite template must cache");
    assert!(
        warm.table.same_rows(&cold.table),
        "warm composite answer differs from cold"
    );

    // Replace l2 (a table inside the composite group). Same schema,
    // different rows.
    let new_l2 = {
        let a: Vec<i64> = (0..350).map(|i| i % 7).collect();
        let b: Vec<i64> = (0..350).map(|i| (i / 2) % 9).collect();
        let v: Vec<i64> = (0..350).collect();
        Table::new(
            "l2",
            Schema::new([
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::new("b", ValueType::Int),
                ColumnDef::new("v", ValueType::Int),
            ]),
            vec![
                Column::from_ints(a),
                Column::from_ints(b),
                Column::from_ints(v),
            ],
        )
        .unwrap()
    };
    svc.register_table(new_l2.clone());

    let after = session.execute(sql).expect("after update");
    assert!(
        !after.stats.cache_hit,
        "stale composite learning served across a catalog update"
    );

    // Cold oracle over the updated catalog — byte-for-byte equality
    // (canonical rows; the GROUP BY/ORDER BY pins row order anyway).
    let mut oracle_cat = composite_catalog(91);
    oracle_cat.register(new_l2);
    let oracle_svc = QueryService::new(
        oracle_cat,
        skinner_query::UdfRegistry::new(),
        ServiceConfig {
            engine: SkinnerCConfig {
                budget: 200,
                threads: env_threads(),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let expected = oracle_svc.session().execute(sql).expect("oracle");
    assert!(
        after.table.same_rows(&expected.table),
        "post-invalidation composite answer differs from cold oracle"
    );

    // Re-warms against the new catalog version, still byte-for-byte.
    let rewarm = session.execute(sql).expect("re-warm");
    assert!(rewarm.stats.cache_hit);
    assert!(rewarm.table.same_rows(&expected.table));

    // Updating a table OUTSIDE the template must keep the entry warm.
    let unrelated = Table::new(
        "zz_unrelated",
        Schema::new([ColumnDef::new("x", ValueType::Int)]),
        vec![Column::from_ints(vec![1, 2, 3])],
    )
    .unwrap();
    svc.register_table(unrelated);
    assert!(
        session.execute(sql).expect("still warm").stats.cache_hit,
        "unrelated catalog update must not invalidate the composite template"
    );
}

/// Template 2 answered by nested loops over the catalog: `(MIN(s.v),
/// MAX(s.v))` over `s ⋈ u` on `k` with `s.v > constant`.
fn min_max_oracle(cat: &Catalog, constant: i64) -> Vec<skinner_storage::Value> {
    use skinner_storage::Value;
    let ints = |table: &str, col: usize| -> Vec<i64> {
        let t = cat.get(table).expect("table");
        (0..t.num_rows())
            .map(|r| t.column(col).get(r).as_int().expect("int"))
            .collect()
    };
    let (sk, sv, uk) = (ints("s", 0), ints("s", 1), ints("u", 0));
    let hits: Vec<i64> = sk
        .iter()
        .zip(&sv)
        .filter(|&(k, &v)| v > constant && uk.contains(k))
        .map(|(_, &v)| v)
        .collect();
    let wrap = |v: Option<&i64>| v.map_or(Value::Null, |&v| Value::Int(v));
    vec![wrap(hits.iter().min()), wrap(hits.iter().max())]
}

#[test]
fn global_min_max_folds_cold_warm_and_streamed() {
    // Template 2 is a global MIN/MAX: the service folds it while the
    // join runs instead of deduplicating tuples. Cold, warm (learning
    // cache hit) and streamed answers must all equal the oracle — the
    // last constant empties the join, which yields one row of NULLs.
    let svc = service(41);
    let cat = catalog(41);
    let mut session = svc.session();
    for constant in [25, 400, 10_000] {
        let q = sql(2, constant);
        let want = vec![min_max_oracle(&cat, constant)];
        let cold = session.execute(&q).expect("cold");
        assert_eq!(cold.table.rows, want, "cold, constant {constant}");
        let m = cold.stats.metrics.as_ref().expect("metrics");
        assert_eq!(m.result_bytes, 0, "a fold stores no tuples");
        let warm = session.execute(&q).expect("warm");
        assert!(warm.stats.cache_hit);
        assert_eq!(warm.table.rows, want, "warm, constant {constant}");
        let mut streamed = Vec::new();
        session
            .execute_streaming(&q, &Default::default(), |row| {
                streamed.push(row.to_vec());
                true
            })
            .expect("streamed");
        assert_eq!(streamed, want, "streamed, constant {constant}");
    }
}

#[test]
fn global_min_max_needs_no_result_memory() {
    // A fold builds no tuple arena, so a byte budget far below any
    // arena cannot trip it — while the GROUP BY template still does
    // (see the two tests below).
    use skinner_service::ExecuteOptions;
    let svc = service(43);
    let opts = ExecuteOptions {
        max_result_bytes: Some(64),
        ..Default::default()
    };
    let r = svc
        .session()
        .execute_with(&sql(2, 25), &opts)
        .expect("no arena, no trip");
    assert_eq!(r.table.rows, vec![min_max_oracle(&catalog(43), 25)]);
    assert_eq!(svc.stats().memory_exceeded, 0);
}

#[test]
fn memory_budget_fails_cleanly_without_limit() {
    use skinner_service::{ExecuteOptions, ServiceError};
    let svc = service(71);
    let mut session = svc.session();
    let sql = sql(1, 100); // multi-table GROUP BY: no LIMIT pushdown
    let opts = ExecuteOptions {
        max_result_bytes: Some(64), // absurdly small: must trip
        ..Default::default()
    };
    let err = session.execute_with(&sql, &opts).expect_err("budget trips");
    assert!(matches!(err, ServiceError::MemoryExceeded), "{err:?}");
    assert_eq!(svc.stats().memory_exceeded, 1);
    // No leaks: the same session answers the uncapped query correctly.
    assert_eq!(svc.stats().queries_in_flight, 0);
    let clean = session.execute(&sql).expect("uncapped run");
    let oracle = service(71).session().execute(&sql).expect("oracle");
    assert!(clean.table.same_rows(&oracle.table));
}

#[test]
fn memory_budget_keeps_streamed_prefix_under_limit() {
    use skinner_engine::StopReason;
    use skinner_service::ExecuteOptions;
    let svc = service(73);
    // LIMIT pushdown active (plain projection): a tripped byte budget
    // keeps the already-delivered prefix instead of failing.
    let sql = "SELECT r.v AS v FROM r, s WHERE r.k = s.k LIMIT 5000";
    let full = service(73)
        .session()
        .execute("SELECT r.v AS v FROM r, s WHERE r.k = s.k")
        .expect("full result");
    let opts = ExecuteOptions {
        max_result_bytes: Some(256),
        ..Default::default()
    };
    let capped = svc
        .session()
        .execute_with(sql, &opts)
        .expect("prefix kept, not an error");
    assert_eq!(capped.stats.stop, Some(StopReason::MemoryExceeded));
    assert!(
        (capped.table.num_rows() as u64) < full.table.num_rows() as u64,
        "cap did not bite"
    );
    assert!(capped.table.num_rows() > 0, "prefix empty");
    // Every prefix row is a row of the full result.
    for row in &capped.table.rows {
        assert!(full.table.rows.contains(row), "phantom row {row:?}");
    }
    assert_eq!(svc.stats().memory_exceeded, 1);
}

#[test]
fn service_default_memory_budget_applies() {
    use skinner_service::ServiceError;
    let svc = QueryService::new(
        catalog(79),
        skinner_query::UdfRegistry::new(),
        ServiceConfig {
            engine: SkinnerCConfig {
                budget: 200,
                threads: env_threads(),
                ..Default::default()
            },
            max_result_bytes: Some(64),
            ..Default::default()
        },
    );
    let err = svc
        .session()
        .execute(&sql(1, 100))
        .expect_err("service-wide cap trips");
    assert!(matches!(err, ServiceError::MemoryExceeded), "{err:?}");
    // A per-query override can raise the cap back up.
    let opts = skinner_service::ExecuteOptions {
        max_result_bytes: Some(usize::MAX),
        ..Default::default()
    };
    svc.session()
        .execute_with(&sql(1, 100), &opts)
        .expect("override lifts the cap");
}
