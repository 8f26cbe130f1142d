//! Fault-injection tests: the service must stay **available and
//! correct** under injected panics and I/O errors.
//!
//! Each test arms a named failpoint (see `skinner_engine::failpoints`),
//! provokes the fault through the public service API, and then checks
//! the three recovery invariants:
//!
//! 1. the fault surfaces as a clean error (`ServiceError::Internal` /
//!    `io::Error`), never a crash or a hang;
//! 2. no resource leaks: the core budget returns to full, the in-flight
//!    gauge returns to zero;
//! 3. the very next query on the same service answers **byte-for-byte**
//!    what an unfaulted service answers.
//!
//! Failpoints are process-global, so these tests serialize behind one
//! mutex (this file is its own test binary — other test binaries are
//! separate processes and unaffected).

use skinner_engine::failpoints;
use skinner_engine::SkinnerCConfig;
use skinner_service::{QueryService, ServiceConfig, ServiceError};
use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes the tests in this binary (failpoints are process-global).
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn catalog(seed: u64) -> Catalog {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let mut mk = |name: &str, n: usize, keys: u64| {
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
    let (r, s, u) = (mk("r", 256, 32), mk("s", 512, 32), mk("u", 128, 32));
    cat.register(r);
    cat.register(s);
    cat.register(u);
    cat
}

fn service(seed: u64, threads: usize) -> Arc<QueryService> {
    QueryService::new(
        catalog(seed),
        skinner_query::UdfRegistry::new(),
        ServiceConfig {
            engine: SkinnerCConfig {
                budget: 200,
                threads,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

const SQL: &str = "SELECT COUNT(*) AS n FROM r, s, u WHERE r.k = s.k AND s.k = u.k";

/// The unfaulted ground truth for [`SQL`] over `catalog(seed)`.
fn baseline(seed: u64, threads: usize) -> skinner_core::ResultTable {
    let svc = service(seed, threads);
    svc.session().execute(SQL).expect("baseline").table
}

/// Assert the post-fault invariants: budget whole, gauge zero, next
/// query byte-for-byte correct.
fn assert_recovered(svc: &Arc<QueryService>, expected: &skinner_core::ResultTable) {
    assert_eq!(
        svc.core_budget().available(),
        svc.core_budget().total(),
        "core budget leaked permits across the fault"
    );
    assert_eq!(svc.stats().queries_in_flight, 0, "in-flight gauge leaked");
    let after = svc.session().execute(SQL).expect("post-fault query").table;
    assert_eq!(&after, expected, "post-fault answer diverged");
}

#[test]
fn panic_mid_slice_is_isolated() {
    let _g = gate();
    failpoints::reset();
    let expected = baseline(11, 1);
    let svc = service(11, 1);
    failpoints::config("engine.slice", "panic");
    let err = svc.session().execute(SQL).expect_err("injected panic");
    failpoints::reset();
    match err {
        ServiceError::Internal(msg) => {
            assert!(
                msg.contains("injected failpoint panic"),
                "payload lost: {msg}"
            )
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(svc.stats().panicked, 1);
    assert_recovered(&svc, &expected);
}

#[test]
fn panic_in_filter_worker_is_isolated() {
    let _g = gate();
    failpoints::reset();
    let expected = baseline(13, 4);
    let svc = service(13, 4);
    failpoints::config("prepare.scan", "panic");
    // Filters that keep every row, so pre-processing runs one filter
    // morsel per table.
    let result = svc
        .session()
        .execute(&format!("{SQL} AND r.v >= 0 AND s.v >= 0 AND u.v >= 0"));
    failpoints::reset();
    // The filter morsel's panic joins its siblings, unwinds out of
    // pre-processing, and is caught at the service boundary.
    match result {
        Err(ServiceError::Internal(_)) => {}
        Ok(_) => panic!("filter failpoint never fired"),
        Err(other) => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(svc.stats().panicked, 1);
    assert_recovered(&svc, &expected);
}

#[test]
fn panic_under_budget_lock_recovers() {
    let _g = gate();
    failpoints::reset();
    let expected = baseline(17, 2);
    let svc = service(17, 2);
    failpoints::config("budget.acquire", "panic");
    let err = svc.session().execute(SQL).expect_err("injected panic");
    failpoints::reset();
    assert!(matches!(err, ServiceError::Internal(_)), "{err:?}");
    // The failpoint fired while the budget mutex was held: the mutex is
    // poisoned but no permits were taken, so recovery must be total.
    assert_recovered(&svc, &expected);
}

#[test]
fn repeated_faults_do_not_wedge_the_service() {
    let _g = gate();
    failpoints::reset();
    let expected = baseline(19, 2);
    let svc = service(19, 2);
    // Panic on every third query, five times over.
    for round in 0..15 {
        if round % 3 == 0 {
            failpoints::config("engine.slice", "panic");
            let err = svc.session().execute(SQL).expect_err("injected panic");
            assert!(matches!(err, ServiceError::Internal(_)), "{err:?}");
        } else {
            let r = svc.session().execute(SQL).expect("healthy round").table;
            assert_eq!(r, expected, "round {round} diverged");
        }
    }
    failpoints::reset();
    assert_eq!(svc.stats().panicked, 5);
    assert_recovered(&svc, &expected);
}

#[test]
fn transient_persist_write_errors_are_retried() {
    let _g = gate();
    failpoints::reset();
    let dir = std::env::temp_dir().join(format!("skinner-faults-retry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.bin");
    let svc = service(23, 1);
    svc.session().execute(SQL).expect("populate cache");

    // Two transient failures, third attempt lands.
    failpoints::config("persist.write", "err*2");
    let n = svc
        .save_learning_cache_with_retry(&path, 3, Duration::from_millis(1))
        .expect("retry should outlast two transient errors");
    failpoints::reset();
    assert!(n >= 1);

    // Persistent failure exhausts the attempts and surfaces cleanly…
    failpoints::config("persist.write", "err*10");
    let err = svc
        .save_learning_cache_with_retry(&path, 3, Duration::from_millis(1))
        .expect_err("all attempts failed");
    failpoints::reset();
    assert!(err.to_string().contains("injected"), "{err}");
    // …and the service keeps serving.
    svc.session().execute(SQL).expect("service still up");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_rename_leaves_previous_file_intact() {
    let _g = gate();
    failpoints::reset();
    let dir = std::env::temp_dir().join(format!("skinner-faults-rename-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.bin");
    let svc = service(29, 1);
    svc.session().execute(SQL).expect("populate cache");
    let n = svc.save_learning_cache(&path).expect("clean save");
    let before = std::fs::read(&path).unwrap();

    // The atomic-write protocol fails *before* the rename: the
    // published file must be byte-identical to the previous save.
    failpoints::config("persist.rename", "err");
    svc.session().execute(SQL).expect("more learning");
    let err = svc
        .save_learning_cache(&path)
        .expect_err("injected rename error");
    failpoints::reset();
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), before, "torn publish");

    // And the surviving file still loads completely.
    let fresh = service(29, 1);
    let report = fresh.load_learning_cache(&path).expect("load");
    assert_eq!(report.loaded, n);
    assert_eq!(report.corrupt, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_error_fails_load_but_not_the_service() {
    let _g = gate();
    failpoints::reset();
    let svc = service(31, 1);
    failpoints::config("persist.read", "err");
    let err = svc
        .load_learning_cache(std::path::Path::new("/nonexistent/skinner.bin"))
        .expect_err("injected read error");
    failpoints::reset();
    assert!(err.to_string().contains("injected"), "{err}");
    svc.session().execute(SQL).expect("service still up");
}
