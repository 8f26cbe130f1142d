//! Pool stress: the persistent morsel pool under concurrent sessions,
//! cancels, timeouts and mid-morsel panics.
//!
//! The pool is service-wide and long-lived, so the failure modes worth
//! testing are *systemic*: a wedged queue (a morsel lost ⇒ its batch
//! never completes ⇒ the submitting query hangs forever), dead workers
//! that never come back (pool capacity decays to zero over a long
//! uptime), and leaked admission permits (the core budget drains until
//! every query serializes). Each test provokes one storm through the
//! public API and asserts the recovery invariants:
//!
//! 1. every session returns — `Ok` or a clean error — within the
//!    harness deadline (no wedge);
//! 2. the pool is back to full strength: `live_workers == workers`,
//!    with panicked workers replaced, not merely buried;
//! 3. `CoreBudget::available()` equals the initial total and the
//!    in-flight gauge is zero (no permit leaks);
//! 4. the very next query answers byte-for-byte what an unfaulted
//!    service answers.
//!
//! Failpoints are process-global, so these tests serialize behind one
//! mutex (this file is its own test binary — other binaries are
//! separate processes).

use skinner_engine::failpoints;
use skinner_engine::SkinnerCConfig;
use skinner_service::{CancelToken, ExecuteOptions, QueryService, ServiceConfig, ServiceError};
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

/// Every table carries a (true) unary filter, so pre-processing has
/// three filter scans to run as pool morsels.
const SQL: &str = "SELECT COUNT(*) AS n FROM r, s, u \
    WHERE r.k = s.k AND s.k = u.k AND r.v >= 0 AND s.v >= 0 AND u.v >= 0";

/// Post-storm invariants: pool at full strength, budget whole, gauge
/// zero, next query byte-for-byte correct.
fn assert_recovered(svc: &Arc<QueryService>, expected: &skinner_core::ResultTable) {
    let pool = svc.worker_pool();
    assert_eq!(
        pool.live_workers(),
        pool.workers(),
        "pool not at full strength — panicked workers were not replaced"
    );
    assert_eq!(
        svc.core_budget().available(),
        svc.core_budget().total(),
        "core budget leaked permits across the storm"
    );
    assert_eq!(svc.stats().queries_in_flight, 0, "in-flight gauge leaked");
    let after = svc.session().execute(SQL).expect("post-storm query").table;
    assert_eq!(&after, expected, "post-storm answer diverged");
}

#[test]
fn concurrent_sessions_with_morsel_panics_never_wedge_the_pool() {
    let _g = gate();
    failpoints::reset();
    let expected = service(41, 4)
        .session()
        .execute(SQL)
        .expect("baseline")
        .table;
    let svc = service(41, 4);

    // ---- Phase 1: deterministic mid-morsel panics, contention-free.
    //
    // A panicked execution never stores learning, so the template stays
    // *cold* and every retry gets the full grant. Its pre-processing
    // runs one filter morsel per scanned table (three, under a 4-permit
    // grant) and ALL of them hit the armed site — sibling morsels keep
    // running after one panics (join-then-propagate) — so the 8 armed
    // fires fail a few executions, then the next execution finds the
    // site disarmed and completes.
    failpoints::config("prepare.scan", "panic*8");
    let mut internals = 0usize;
    loop {
        match svc.session().execute(SQL) {
            Err(ServiceError::Internal(msg)) => {
                assert!(
                    msg.contains("injected failpoint panic"),
                    "panic payload lost: {msg}"
                );
                internals += 1;
                assert!(internals <= 8, "more failures than armed fires");
            }
            Ok(out) => {
                assert_eq!(out.table, expected);
                break;
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    failpoints::reset();
    assert!(
        internals >= 1,
        "pre-processing never reached the morsel failpoint"
    );
    assert_eq!(svc.stats().panicked as usize, internals);
    assert!(
        svc.worker_pool().task_panics() as usize >= internals,
        "morsel panics must be caught at the pool task boundary"
    );

    // ---- Phase 2: concurrent chaos — cancels, timeouts, plain
    // sessions, with more panics armed. Whether each panic fires on a
    // pool worker depends on adaptive admission (a converged warm
    // template scans on its own thread), so this phase asserts
    // *recovery*, not fire counts.
    failpoints::config("prepare.scan", "panic@2*4");
    let sessions = 12;
    let mut outcomes = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..sessions {
            let svc = Arc::clone(&svc);
            handles.push(scope.spawn(move || {
                let mut session = svc.session();
                match i % 4 {
                    // Cancelled mid-run: raise the token from a sibling
                    // thread while the query executes.
                    0 => {
                        let token = CancelToken::new();
                        let raiser = token.clone();
                        let t = scope.spawn(move || {
                            std::thread::sleep(Duration::from_micros(200));
                            raiser.cancel();
                        });
                        let r = session.execute_with(
                            SQL,
                            &ExecuteOptions {
                                cancel: Some(token),
                                ..Default::default()
                            },
                        );
                        t.join().unwrap();
                        r
                    }
                    // Timed out (checked at the first slice boundary).
                    1 => session.execute_with(
                        SQL,
                        &ExecuteOptions {
                            timeout: Some(Duration::ZERO),
                            ..Default::default()
                        },
                    ),
                    // Plain execution racing the panics above.
                    _ => session.execute(SQL),
                }
            }));
        }
        for h in handles {
            // `join` returning at all IS the no-wedge assertion: a lost
            // morsel would leave its batch incomplete and the session
            // blocked in `run_batch_mut` forever.
            outcomes.push(h.join().expect("session thread itself panicked"));
        }
    });
    failpoints::reset();

    for r in &outcomes {
        match r {
            Ok(out) => assert_eq!(out.table, expected, "storm survivor returned wrong answer"),
            Err(ServiceError::Cancelled) | Err(ServiceError::TimedOut) => {}
            Err(ServiceError::Internal(msg)) => assert!(
                msg.contains("injected failpoint panic"),
                "unexpected panic payload: {msg}"
            ),
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_recovered(&svc, &expected);
}

#[test]
fn cancel_storm_releases_every_permit() {
    let _g = gate();
    failpoints::reset();
    let expected = service(43, 4)
        .session()
        .execute(SQL)
        .expect("baseline")
        .table;
    let svc = service(43, 4);

    for round in 0..24 {
        let token = CancelToken::new();
        if round % 2 == 0 {
            // Pre-raised: the admission path must release its grant
            // without ever submitting morsels.
            token.cancel();
        }
        let raiser = token.clone();
        let svc2 = Arc::clone(&svc);
        let runner = std::thread::spawn(move || {
            svc2.session().execute_with(
                SQL,
                &ExecuteOptions {
                    cancel: Some(token),
                    ..Default::default()
                },
            )
        });
        raiser.cancel();
        match runner.join().expect("runner panicked") {
            Ok(out) => assert_eq!(out.table, expected),
            Err(ServiceError::Cancelled) => {}
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_recovered(&svc, &expected);
}

#[test]
fn timeout_storm_under_contention_releases_every_permit() {
    let _g = gate();
    failpoints::reset();
    let expected = service(47, 4)
        .session()
        .execute(SQL)
        .expect("baseline")
        .table;
    let svc = service(47, 4);

    // More sessions than budget permits, every one on a tiny deadline:
    // some time out *queued* (admission path), some time out mid-run
    // (slice boundary). Either way the grant must come back.
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..16 {
            let svc = Arc::clone(&svc);
            handles.push(scope.spawn(move || {
                svc.session().execute_with(
                    SQL,
                    &ExecuteOptions {
                        timeout: Some(Duration::from_micros(50 * i as u64)),
                        ..Default::default()
                    },
                )
            }));
        }
        for h in handles {
            match h.join().expect("session thread panicked") {
                Ok(out) => assert_eq!(out.table, expected),
                Err(ServiceError::TimedOut) => {}
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
    });
    assert_recovered(&svc, &expected);
}
