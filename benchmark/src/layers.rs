//! Per-layer attribution of the engine, measured from outside.
//!
//! Counts come from the `ExecMetrics`/`RunStats` values the engine
//! returns. Times the engine does not report are measured by *replay*:
//! the benchmark re-runs one layer's public API on the inputs the run
//! recorded (the final join order, the distinct orders, the slice count)
//! and times that alone. Nothing under `crates/` is instrumented; the
//! in-program spans of a later change replace the replays without
//! renaming a metric.

use crate::report::Metric;
use crate::trace::{Source, Trace};
use crate::util::ratio;
use skinner_codegen::MIN_KERNEL_TABLES;
use skinner_core::RunStats;
use skinner_engine::multiway::{CountingSink, ResultSet};
use skinner_engine::{ExecMetrics, MultiwayJoin, PreparedQuery, ProgressTracker, ResultSink};
use skinner_engine::{SkinnerCConfig, StopReason};
use skinner_knowledge::{observe, KnowledgeConfig, KnowledgeStore};
use skinner_query::{Query, TableId};
use skinner_storage::HashIndex;
use skinner_uct::{JoinOrderSpace, UctConfig, UctTree};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One observed execution of one query.
pub struct QueryRun<'a> {
    pub query: &'a Query,
    /// Wall time of the call, timed by the benchmark.
    pub wall: Duration,
    /// What the call returned.
    pub stats: RunStats,
    /// The run's `join` span, which the replays subdivide.
    pub join_span: usize,
}

/// Record `query ⊃ {prepare, join, postprocess}` for one execution that
/// started at `start` and took `wall`: the outer span timed by the
/// benchmark, the inner ones from the times the call returned. Returns
/// the `join` span.
pub fn record_query(
    trace: &mut Trace,
    parent: Option<usize>,
    start: Instant,
    wall: Duration,
    stats: &RunStats,
) -> usize {
    let request = match parent {
        Some(p) => trace.spans[p].request,
        None => trace.new_request(),
    };
    let at = trace.offset(start);
    let span = trace.span(parent, request, "query", at, wall, Source::Timed);
    let (pre, join) = stats
        .metrics
        .as_ref()
        .map_or_else(Default::default, |m| (m.preprocess_time, m.join_time));
    let parts = [
        ("prepare", pre),
        ("join", join),
        ("postprocess", stats.postprocess),
    ];
    trace.children_in_sequence(span, Source::Returned, &parts)[1]
}

/// Run `order` from scratch to exhaustion into `sink`, on the tier the
/// engine would pick for it; returns the steps taken and the time.
fn replay_order<R: ResultSink>(
    pq: &PreparedQuery,
    order: &[TableId],
    sink: &mut R,
) -> (u64, Duration) {
    let plan = pq.plan_order(order);
    let kernel = (order.len() >= MIN_KERNEL_TABLES)
        .then(|| plan.compile_kernel(None))
        .flatten();
    let mut join = MultiwayJoin::new(pq);
    let offsets = vec![0u32; order.len()];
    let mut state = offsets.clone();
    let start = Instant::now();
    let (_, steps) = match &kernel {
        Some(k) if k.num_tables() == order.len() => {
            join.continue_join_compiled(k, &offsets, &mut state, u64::MAX, sink)
        }
        Some(k) => join.continue_join_split(k, &plan, &offsets, &mut state, u64::MAX, sink),
        None => join.continue_join(order, &plan, &offsets, &mut state, u64::MAX, sink),
    };
    (steps, start.elapsed())
}

#[derive(Default)]
struct Sums {
    queries: f64,
    wall: f64,
    pre: f64,
    join: f64,
    post: f64,
    slices: f64,
    nonbest_slices: f64,
    steps: f64,
    tuples: f64,
    attempts: f64,
    uct_nodes: f64,
    tracker_nodes: f64,
    tracker_bytes: f64,
    index_bytes: f64,
    result_bytes: f64,
    codegen_orders: f64,
    fallback_orders: f64,
    codegen_slices: f64,
    base_rows: f64,
    // replays
    prepare_s: f64,
    index_build_s: f64,
    index_rows: f64,
    bind_s: f64,
    bound_orders: f64,
    kernel_s: f64,
    replay_steps: f64,
    completed_steps: f64,
    completed_replay_steps: f64,
    insert_s: f64,
    replay_attempts: f64,
    uct_s: f64,
    progress_s: f64,
    replayed_slices: f64,
    knowledge_seed_s: f64,
    knowledge_record_s: f64,
}

/// Replays of one query's layers; adds their times and counts to `sums`.
fn replay_query(run: &QueryRun<'_>, m: &ExecMetrics, sums: &mut Sums) {
    let query = run.query;
    let cfg = SkinnerCConfig::default();
    let final_order = run.stats.final_order.as_deref().unwrap_or(&[]);

    // engine::prepare, timed directly.
    let t = Instant::now();
    let pq = PreparedQuery::new(query, cfg.use_indexes, 1);
    sums.prepare_s += t.elapsed().as_secs_f64();
    sums.base_rows += query
        .tables
        .iter()
        .map(|b| b.table.num_rows() as f64)
        .sum::<f64>();

    // storage: the hash indexes pre-processing built, rebuilt one by one.
    let mut keys: Vec<(TableId, usize)> = pq.indexes.keys().copied().collect();
    keys.sort_unstable();
    for (t_id, col) in keys {
        let t = Instant::now();
        let index = HashIndex::build(pq.tables[t_id].column(col), Some(&pq.filtered[t_id]));
        sums.index_build_s += t.elapsed().as_secs_f64();
        sums.index_rows += pq.filtered[t_id].len() as f64;
        std::hint::black_box(index);
    }

    if m.slices == 0 || final_order.len() != query.num_tables() {
        return; // a table filtered to nothing: no join phase to replay
    }

    // codegen: bind + compile every distinct order the run selected.
    let mut orders: Vec<&Vec<TableId>> = m.order_selections.keys().collect();
    orders.sort_unstable();
    for order in &orders {
        let t = Instant::now();
        let plan = pq.plan_order(order);
        let kernel = (order.len() >= MIN_KERNEL_TABLES).then(|| plan.compile_kernel(None));
        sums.bind_s += t.elapsed().as_secs_f64();
        std::hint::black_box((plan, kernel));
    }
    sums.bound_orders += orders.len() as f64;

    // engine::multiway: the final order from scratch, first counting
    // only (the kernel alone), then into a real result set (kernel +
    // result insertion).
    let mut counting = CountingSink::default();
    let (steps, kernel_time) = replay_order(&pq, final_order, &mut counting);
    let mut results = ResultSet::new();
    let (_, insert_time) = replay_order(&pq, final_order, &mut results);
    sums.kernel_s += kernel_time.as_secs_f64();
    sums.replay_steps += steps as f64;
    sums.insert_s += insert_time.saturating_sub(kernel_time).as_secs_f64();
    sums.replay_attempts += counting.attempts as f64;
    if run.stats.stop == Some(StopReason::Completed) {
        // Regret in steps compares like with like only when the run,
        // too, went to exhaustion (no LIMIT stop).
        sums.completed_steps += m.steps as f64;
        sums.completed_replay_steps += steps as f64;
    }

    // uct: choose + update once per slice on a fresh tree. The reward
    // favours the run's final order, so the tree converges as it did.
    let space = JoinOrderSpace::new(query);
    let mut tree = UctTree::new(
        space,
        UctConfig {
            exploration: cfg.exploration,
            seed: cfg.seed,
        },
    );
    let t = Instant::now();
    for _ in 0..m.slices {
        let order = tree.choose();
        let reward = if order == final_order { 0.5 } else { 0.05 };
        tree.update(&order, reward);
    }
    sums.uct_s += t.elapsed().as_secs_f64();

    // engine::progress: restore + backup once per slice, cycling through
    // the distinct orders with an advancing cursor.
    let tables = query.num_tables();
    let mut tracker = ProgressTracker::new(tables);
    let offsets = vec![0u32; tables];
    let mut state = vec![0u32; tables];
    let t = Instant::now();
    for i in 0..m.slices as usize {
        let order = orders[i % orders.len()];
        tracker.restore_into(order, &offsets, &mut state);
        state[order[tables - 1]] += 1;
        tracker.backup(order, &state);
    }
    sums.progress_s += t.elapsed().as_secs_f64();
    sums.replayed_slices += m.slices as f64;
}

/// Per-layer metrics of the engine for `runs`, which cover `passes`
/// passes over the workload (counts and bytes are reported per pass) —
/// plus, under each run's `join` span in `trace`, the child spans of the
/// layers inside the join phase.
pub fn engine_layers(runs: &[QueryRun<'_>], passes: usize, trace: &mut Trace) -> Vec<Metric> {
    let per_pass = |sum: f64| sum / passes as f64;
    let mut sums = Sums::default();
    let mut knowledge = KnowledgeStore::new(KnowledgeConfig::default());
    let mut joins: Vec<(usize, f64, f64, f64)> = Vec::new(); // span, slices, steps, attempts

    for run in runs {
        let Some(m) = run.stats.metrics.as_ref() else {
            continue;
        };
        let (pre, join) = (m.preprocess_time, m.join_time);
        sums.queries += 1.0;
        sums.wall += run.wall.as_secs_f64();
        sums.pre += pre.as_secs_f64();
        sums.join += join.as_secs_f64();
        sums.post += run.stats.postprocess.as_secs_f64();
        sums.slices += m.slices as f64;
        let on_final = run
            .stats
            .final_order
            .as_ref()
            .and_then(|o| m.order_selections.get(o))
            .copied()
            .unwrap_or(0);
        sums.nonbest_slices += (m.slices - on_final.min(m.slices)) as f64;
        sums.steps += m.steps as f64;
        sums.tuples += m.result_tuples as f64;
        sums.attempts += m.result_attempts as f64;
        sums.uct_nodes += m.uct_nodes as f64;
        sums.tracker_nodes += m.tracker_nodes as f64;
        sums.tracker_bytes += m.tracker_bytes as f64;
        sums.index_bytes += m.index_bytes as f64;
        sums.result_bytes += m.result_bytes as f64;
        sums.codegen_orders += m.codegen_orders as f64;
        sums.fallback_orders += m.fallback_orders as f64;
        sums.codegen_slices += m.codegen_slices as f64;

        joins.push((
            run.join_span,
            m.slices as f64,
            m.steps as f64,
            m.result_attempts as f64,
        ));

        replay_query(run, m, &mut sums);

        // knowledge: record what this run observed, then ask for priors.
        let deps: Vec<(String, u64)> = run
            .query
            .tables
            .iter()
            .map(|b| (b.table.name().to_string(), 0))
            .collect();
        let t = Instant::now();
        knowledge.record(&observe(run.query, &deps, m));
        sums.knowledge_record_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(knowledge.seed(run.query, &deps));
        sums.knowledge_seed_s += t.elapsed().as_secs_f64();
    }

    let kernel_ns_per_step = ratio(sums.kernel_s * 1e9, sums.replay_steps);
    let insert_ns_per_tuple = ratio(sums.insert_s * 1e9, sums.replay_attempts);
    let uct_ns = ratio(sums.uct_s * 1e9, sums.replayed_slices);
    let progress_ns = ratio(sums.progress_s * 1e9, sums.replayed_slices);
    let bind_us = ratio(sums.bind_s * 1e6, sums.bound_orders);
    let kernel_s = sums.steps * kernel_ns_per_step / 1e9;
    let insert_s = sums.attempts * insert_ns_per_tuple / 1e9;

    // join ⊃ {kernel, result_insert, uct, progress, bind_compile}: each
    // run's counts times the unit costs the replays measured.
    let secs = |ns: f64| Duration::from_secs_f64(ns.max(0.0) / 1e9);
    for (span, slices, steps, attempts) in joins {
        let orders = ratio(sums.bound_orders * slices, sums.slices);
        let parts = [
            ("kernel", secs(steps * kernel_ns_per_step)),
            ("result_insert", secs(attempts * insert_ns_per_tuple)),
            ("uct", secs(slices * uct_ns)),
            ("progress", secs(slices * progress_ns)),
            ("bind_compile", secs(orders * bind_us * 1e3)),
        ];
        trace.children_in_sequence(span, Source::Replay, &parts);
    }

    let (tables, edges) = knowledge.len();
    vec![
        (
            "storage.index_build_ns_per_row",
            ratio(sums.index_build_s * 1e9, sums.index_rows),
            "ns",
        ),
        ("prepare.index_bytes", per_pass(sums.index_bytes), "bytes"),
        ("prepare.time_share", ratio(sums.pre, sums.wall), "ratio"),
        (
            "prepare.ns_per_base_row",
            ratio(sums.prepare_s * 1e9, sums.base_rows),
            "ns",
        ),
        ("uct.slices", per_pass(sums.slices), "count"),
        (
            "uct.nonbest_slice_ratio",
            ratio(sums.nonbest_slices, sums.slices),
            "ratio",
        ),
        (
            "uct.regret_steps_ratio",
            ratio(sums.completed_steps, sums.completed_replay_steps),
            "ratio",
        ),
        ("uct.choose_update_ns", uct_ns, "ns"),
        ("uct.nodes", per_pass(sums.uct_nodes), "count"),
        ("progress.backup_restore_ns", progress_ns, "ns"),
        ("progress.nodes", per_pass(sums.tracker_nodes), "count"),
        ("progress.bytes", per_pass(sums.tracker_bytes), "bytes"),
        ("codegen.orders", per_pass(sums.codegen_orders), "count"),
        (
            "codegen.fallback_orders",
            per_pass(sums.fallback_orders),
            "count",
        ),
        (
            "codegen.compiled_slice_ratio",
            ratio(sums.codegen_slices, sums.slices),
            "ratio",
        ),
        ("codegen.bind_compile_us_per_order", bind_us, "us"),
        ("multiway.steps", per_pass(sums.steps), "count"),
        (
            "multiway.ns_per_step",
            ratio(sums.join * 1e9, sums.steps),
            "ns",
        ),
        ("multiway.kernel_ns_per_step", kernel_ns_per_step, "ns"),
        (
            "multiway.result_insert_ns_per_tuple",
            insert_ns_per_tuple,
            "ns",
        ),
        (
            "multiway.dup_ratio",
            1.0 - ratio(sums.tuples, sums.attempts).min(1.0),
            "ratio",
        ),
        (
            "multiway.result_bytes",
            per_pass(sums.result_bytes),
            "bytes",
        ),
        (
            "skinner_c.join_time_share",
            ratio(sums.join, sums.wall),
            "ratio",
        ),
        (
            "skinner_c.slice_overhead_ns",
            ratio((sums.join - kernel_s - insert_s) * 1e9, sums.slices),
            "ns",
        ),
        (
            "postprocess.time_share",
            ratio(sums.post, sums.wall),
            "ratio",
        ),
        (
            "postprocess.ns_per_tuple",
            ratio(sums.post * 1e9, sums.tuples),
            "ns",
        ),
        (
            "core.unattributed_share",
            1.0 - ratio(sums.pre + sums.join + sums.post, sums.wall),
            "ratio",
        ),
        (
            "knowledge.seed_us",
            ratio(sums.knowledge_seed_s * 1e6, sums.queries),
            "us",
        ),
        (
            "knowledge.record_us",
            ratio(sums.knowledge_record_s * 1e6, sums.queries),
            "us",
        ),
        ("knowledge.entries", (tables + edges) as f64, "count"),
    ]
}

/// The exact counts of one pass that must repeat for a fixed seed:
/// slices, steps, compiled orders and result tuples.
pub fn exact_counts(stats: &[&RunStats]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::from([
        ("uct.slices", 0),
        ("multiway.steps", 0),
        ("codegen.orders", 0),
        ("result_tuples", 0),
    ]);
    for s in stats {
        let m = s.metrics.as_ref().expect("Skinner-C metrics");
        *counts.get_mut("uct.slices").expect("key") += m.slices;
        *counts.get_mut("multiway.steps").expect("key") += m.steps;
        *counts.get_mut("codegen.orders").expect("key") += m.codegen_orders as u64;
        *counts.get_mut("result_tuples").expect("key") += s.result_count;
    }
    counts
}
