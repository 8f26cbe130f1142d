//! The three workloads that call `SkinnerDB::execute` in-process:
//! single-threaded, every execution cold.

use crate::layers::{self, QueryRun};
use crate::report::{end_to_end, Metric, Pass, Report, SETUP_REPS};
use crate::trace::Trace;
use crate::util::{median, ratio};
use crate::wire;
use crate::workloads::{self, InProc, InProcKind};
use skinner_core::{run_engine, RunStats, SkinnerDB};
use skinner_engine::SkinnerCConfig;
use skinner_simdb::{ColEngine, Engine, ExecOptions, RowEngine};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One execution as the pass loop saw it.
struct Observed {
    wall: Duration,
    stats: RunStats,
    /// The execution's `join` span, when the pass was traced.
    join_span: Option<usize>,
}

/// Execute every query of `wl` once, cold, and check each result against
/// the oracle. Verification happens between executions and is not timed;
/// recording spans into `trace`, when given, is.
fn run_pass(db: &SkinnerDB, wl: &InProc, mut trace: Option<&mut Trace>) -> (Pass, Vec<Observed>) {
    let mut pass = Pass {
        wall_s: 0.0,
        latencies: Vec::with_capacity(wl.cases.len()),
        correct: 0,
    };
    let mut observed = Vec::with_capacity(wl.cases.len());
    for (i, case) in wl.cases.iter().enumerate() {
        let start = Instant::now();
        let result = db.execute(&case.query);
        let wall = start.elapsed();
        let join_span = trace
            .as_deref_mut()
            .map(|t| layers::record_query(t, None, start, wall, &result.stats));
        pass.wall_s += start.elapsed().as_secs_f64();
        pass.latencies.push((i, wall.as_secs_f64() * 1e3));
        if case.expected.matches(result.table.rows) {
            pass.correct += 1;
        } else {
            eprintln!("mismatch: {} differs from the oracle", case.id);
        }
        observed.push(Observed {
            wall,
            stats: result.stats,
            join_span,
        });
    }
    (pass, observed)
}

/// Checks and bookkeeping shared by every pass of a run: failures, and
/// the exact counts that must repeat from pass to pass.
struct Ledger {
    attempted: u64,
    failed: u64,
    counts: Option<BTreeMap<&'static str, u64>>,
    deterministic: bool,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            attempted: 0,
            failed: 0,
            counts: None,
            deterministic: true,
        }
    }

    /// Count failures, and hold the determinism guard: with one thread
    /// and fixed inputs, slices, steps, compiled orders and result tuples
    /// must come out the same on every pass.
    fn record(&mut self, pass: &Pass, observed: &[Observed]) {
        self.attempted += observed.len() as u64;
        self.failed += observed.len() as u64 - pass.correct;
        let stats: Vec<&RunStats> = observed.iter().map(|o| &o.stats).collect();
        let counts = layers::exact_counts(&stats);
        match &self.counts {
            None => self.counts = Some(counts),
            Some(first) if *first != counts => {
                eprintln!("determinism guard: {counts:?} differs from the first pass's {first:?}");
                self.deterministic = false;
            }
            Some(_) => {}
        }
    }

    fn notes(&self, notes: &mut Vec<String>) {
        if let Some(counts) = &self.counts {
            let listed: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
            notes.push(format!(
                "exact counts per pass ({}): {}",
                if self.deterministic {
                    "identical on every pass"
                } else {
                    "NOT REPEATING"
                },
                listed.join(" ")
            ));
        }
    }
}

fn database() -> SkinnerDB {
    // Paper defaults: budget 500, w = 1e-6, one thread.
    SkinnerDB::skinner_c(SkinnerCConfig::default())
}

/// Set-up: generate the inputs, compute the oracle's rows, and run one
/// untimed warm-up pass (which the oracle also checks).
fn set_up(kind: InProcKind, seed: u64, db: &SkinnerDB, ledger: &mut Ledger) -> InProc {
    let wl = workloads::build(kind, seed);
    let (pass, observed) = run_pass(db, &wl, None);
    ledger.record(&pass, &observed);
    wl
}

/// The timed run: end-to-end metrics, tracing off.
pub fn run_timed(kind: InProcKind, seed: u64, seconds: f64) -> Report {
    let db = database();
    let mut ledger = Ledger::new();
    let mut setup_s = Vec::new();
    let mut wl = None;
    for _ in 0..SETUP_REPS {
        drop(wl.take()); // one workload in memory at a time, as in a single set-up
        let start = Instant::now();
        wl = Some(set_up(kind, seed, &db, &mut ledger));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let wl = wl.expect("at least one set-up");

    let mut passes = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds {
        let (pass, observed) = run_pass(&db, &wl, None);
        ledger.record(&pass, &observed);
        passes.push(pass);
    }

    let mut notes = Vec::new();
    let metrics = end_to_end(&setup_s, &passes, wl.cases.len(), &mut notes);
    ledger.notes(&mut notes);
    Report {
        correct: ledger.failed == 0 && ledger.deterministic,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes,
    }
}

/// Table 1's comparators: the simulated Postgres-like and MonetDB-like
/// engines, each with its own optimizer, over the same queries. A
/// reference beside the per-layer numbers, not one of them.
fn simdb_reference(wl: &InProc, notes: &mut Vec<String>) {
    let engines: [(&str, Box<dyn Engine>); 2] = [
        ("simdb.pg_total_s", Box::new(RowEngine::new())),
        ("simdb.monet_total_s", Box::new(ColEngine::new())),
    ];
    for (name, engine) in engines {
        let start = Instant::now();
        for case in &wl.cases {
            let opts = ExecOptions {
                deadline: Some(Instant::now() + Duration::from_secs(3)),
                ..Default::default()
            };
            std::hint::black_box(run_engine(engine.as_ref(), &case.query, &opts));
        }
        notes.push(format!(
            "reference {name} = {} s (not gated)",
            start.elapsed().as_secs_f64()
        ));
    }
}

/// The traced run: per-layer metrics. Half the window alternates plain
/// passes with passes whose spans are recorded, which yields the tracing
/// overhead; the replays and the service/wire probe follow.
pub fn run_traced(kind: InProcKind, seed: u64, seconds: f64, trace: &mut Trace) -> Report {
    let db = database();
    let mut ledger = Ledger::new();
    let wl = set_up(kind, seed, &db, &mut ledger);

    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last_traced: Vec<Observed> = Vec::new();
    let window = Instant::now();
    while plain_s.len() < 2 || window.elapsed().as_secs_f64() < seconds / 2.0 {
        let (pass, observed) = run_pass(&db, &wl, None);
        ledger.record(&pass, &observed);
        plain_s.push(pass.wall_s);
        trace.clear();
        let (pass, observed) = run_pass(&db, &wl, Some(trace));
        ledger.record(&pass, &observed);
        traced_s.push(pass.wall_s);
        last_traced = observed;
    }

    let runs: Vec<QueryRun<'_>> = last_traced
        .into_iter()
        .zip(&wl.cases)
        .map(|(o, case)| QueryRun {
            query: &case.query,
            wall: o.wall,
            stats: o.stats,
            join_span: o.join_span.expect("traced pass"),
        })
        .collect();
    let mut metrics: Vec<Metric> = layers::engine_layers(&runs, 1, trace);
    metrics.extend(wire::probe_layers(&wl.probe_catalog, &wl.probe_sql, trace));
    metrics.push((
        "trace.overhead_ratio",
        ratio(median(&traced_s), median(&plain_s)),
        "ratio",
    ));

    let mut notes = vec![format!(
        "samples: {} plain and {} traced passes",
        plain_s.len(),
        traced_s.len()
    )];
    ledger.notes(&mut notes);
    if kind == InProcKind::JobCold {
        simdb_reference(&wl, &mut notes);
    }
    Report {
        correct: ledger.failed == 0 && ledger.deterministic,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes,
    }
}
