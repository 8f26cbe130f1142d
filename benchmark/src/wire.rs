//! `wire_warm`, and the measurement of the layers above the engine
//! (parser, service, wire) that every traced run shares.
//!
//! `wire_warm` is a closed loop: two `NetClient` connections each send
//! their next query only when the previous reply is complete, like two
//! driver sessions. An open-loop rate sweep on a 2-core host would
//! measure the scheduler; `skinner-load` remains the tool for that.

use crate::layers::{self, QueryRun};
use crate::report::{end_to_end, latencies_of, Metric, Pass, Report, SETUP_REPS};
use crate::trace::{Source, Trace};
use crate::util::{median, ratio, Expected, Rng};
use crate::workloads::{wire_catalog, wire_sql, STREAM_TEMPLATE, WIRE_TEMPLATES, WIRE_VARIANTS};
use skinner_core::{run_engine, RunStats};
use skinner_engine::SkinnerCConfig;
use skinner_net::{
    ClientError, FrameType, Message, NetClient, NetServer, QueryOutcome, ServerConfig,
};
use skinner_query::{parse, UdfRegistry};
use skinner_service::{ExecuteOptions, QueryService, ServiceConfig};
use skinner_simdb::{ColEngine, ExecOptions};
use skinner_storage::{Catalog, Value};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections of `wire_warm`, and the service's core budget.
pub const CONNECTIONS: usize = 2;
/// Repetitions per SQL text in the probe's timings.
const PROBE_REPS: usize = 5;
/// Rows per `RowBatch` in the codec replay (the server's default).
const BATCH_ROWS: usize = 256;

/// A query service behind a TCP server on a loopback port.
pub struct Stack {
    pub service: Arc<QueryService>,
    server: NetServer,
    addr: String,
}

impl Stack {
    pub fn start(catalog: Catalog) -> Stack {
        let service = QueryService::new(
            catalog,
            UdfRegistry::new(),
            ServiceConfig {
                engine: SkinnerCConfig {
                    threads: CONNECTIONS,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let server = NetServer::spawn(service.clone(), listener, ServerConfig::default())
            .expect("spawn the server");
        let addr = server.addr().to_string();
        Stack {
            service,
            server,
            addr,
        }
    }

    pub fn connect(&self, name: &str) -> NetClient {
        NetClient::connect(self.addr.as_str(), name).expect("connect to the loopback server")
    }

    /// Drain and join the server's threads.
    pub fn stop(self) {
        self.server.shutdown().expect("server shutdown");
    }
}

/// The oracle's rows for `sql`: parsed here, executed by the simulated
/// column engine without the `LIMIT`, which `Expected` then applies as
/// "any k of these rows".
fn oracle(sql: &str, catalog: &Catalog) -> Expected {
    let mut query = parse(sql, catalog, &UdfRegistry::new()).expect("wire template parses");
    let limit = query.limit.take();
    let rows = run_engine(&ColEngine::new(), &query, &ExecOptions::default())
        .table
        .rows;
    let stops_early = limit.filter(|&k| k < rows.len());
    Expected::new(rows, stops_early)
}

/// One wire execution as a client saw it.
struct WireObserved {
    template: usize,
    variant: usize,
    start: Instant,
    wall: Duration,
    outcome: Result<QueryOutcome, ClientError>,
}

/// What a client thread is told at the start of a pass.
struct PassOrder {
    /// Templates in the order they are handed out.
    order: Arc<Vec<usize>>,
    /// The next position of `order` to hand out, shared by the clients.
    next: Arc<AtomicUsize>,
    pass_no: usize,
}

/// One connection and the thread that drives it, for the whole run: a
/// closed loop that takes the next template whenever its reply is
/// complete.
struct ClientThread {
    orders: Sender<PassOrder>,
    observed: Receiver<Vec<WireObserved>>,
    thread: JoinHandle<()>,
}

impl ClientThread {
    fn spawn(mut client: NetClient) -> ClientThread {
        let (orders, inbox) = channel::<PassOrder>();
        let (outbox, observed) = channel();
        let thread = std::thread::spawn(move || {
            // Ends when the workload drops its sender.
            for PassOrder {
                order,
                next,
                pass_no,
            } in inbox
            {
                let mut mine = Vec::new();
                while let Some(&template) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let variant = (pass_no + template) % WIRE_VARIANTS;
                    let sql = wire_sql(template, variant);
                    let start = Instant::now();
                    let outcome = client.query(&sql, 0);
                    mine.push(WireObserved {
                        template,
                        variant,
                        start,
                        wall: start.elapsed(),
                        outcome,
                    });
                }
                if outbox.send(mine).is_err() {
                    break;
                }
            }
            let _ = client.goodbye();
        });
        ClientThread {
            orders,
            observed,
            thread,
        }
    }
}

/// Everything `wire_warm` needs between set-up and the timed passes.
struct WireWorkload {
    stack: Stack,
    clients: Vec<ClientThread>,
    /// `expected[template][variant]`.
    expected: Vec<Vec<Expected>>,
    /// Draws, per pass, the order templates are handed to the clients in:
    /// which small query shares the cores with the big stream decides its
    /// latency, and a run should see many such pairings.
    rng: Rng,
    /// The next pass's number, which rotates the constants.
    pass_no: usize,
    /// Rows each template's latest reply carried.
    rows: Vec<u64>,
    warmed: Warmed,
}

/// What the probe needs to know about a stack's cold start.
#[derive(Clone, Copy, Default)]
pub struct Warmed {
    cold_pass_s: f64,
    spawned_after_cold: u64,
    busy: u64,
}

#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    busy: u64,
}

impl WireWorkload {
    /// One closed-loop pass: the client threads take templates from a
    /// shared counter until none are left. Results are verified after the
    /// pass, outside its wall time.
    fn pass(&mut self, ledger: &mut Ledger) -> (Pass, Vec<WireObserved>) {
        let mut order: Vec<usize> = (0..WIRE_TEMPLATES.len()).collect();
        self.rng.shuffle(&mut order);
        self.pass_in_order(order, ledger)
    }

    /// A pass over exactly the templates of `order`.
    fn pass_in_order(
        &mut self,
        order: Vec<usize>,
        ledger: &mut Ledger,
    ) -> (Pass, Vec<WireObserved>) {
        let (order, next) = (Arc::new(order), Arc::new(AtomicUsize::new(0)));
        let start = Instant::now();
        for client in &self.clients {
            let order = PassOrder {
                order: order.clone(),
                next: next.clone(),
                pass_no: self.pass_no,
            };
            client.orders.send(order).expect("client thread alive");
        }
        let mut observed: Vec<WireObserved> = self
            .clients
            .iter()
            .flat_map(|c| c.observed.recv().expect("client thread alive"))
            .collect();
        self.pass_no += 1;
        let wall_s = start.elapsed().as_secs_f64();

        let mut pass = Pass {
            wall_s,
            latencies: Vec::with_capacity(observed.len()),
            correct: 0,
        };
        for o in &mut observed {
            pass.latencies
                .push((o.template, o.wall.as_secs_f64() * 1e3));
            ledger.attempted += 1;
            let ok = match &mut o.outcome {
                Ok(outcome) => {
                    self.rows[o.template] = outcome.summary.rows;
                    self.expected[o.template][o.variant].matches(std::mem::take(&mut outcome.rows))
                }
                Err(e) => {
                    if matches!(e, ClientError::Busy { .. }) {
                        ledger.busy += 1;
                    }
                    eprintln!("{}: {e}", WIRE_TEMPLATES[o.template].0);
                    false
                }
            };
            if ok {
                pass.correct += 1;
            } else {
                ledger.failed += 1;
                eprintln!(
                    "failed: {} variant {}",
                    WIRE_TEMPLATES[o.template].0, o.variant
                );
            }
        }
        (pass, observed)
    }

    fn stop(self) {
        for client in self.clients {
            drop(client.orders); // ends the thread's loop; it says goodbye
            client.thread.join().expect("client thread");
        }
        self.stack.stop();
    }
}

/// Set-up of `wire_warm`: data, oracle rows, service and server start,
/// connections, the cold pass (every template's first execution), one
/// warm pass and the surge.
fn set_up(seed: u64, ledger: &mut Ledger) -> WireWorkload {
    let catalog = wire_catalog();
    let expected = (0..WIRE_TEMPLATES.len())
        .map(|t| {
            (0..WIRE_VARIANTS)
                .map(|v| oracle(&wire_sql(t, v), &catalog))
                .collect()
        })
        .collect();
    let stack = Stack::start(catalog);
    let clients = (0..CONNECTIONS)
        .map(|c| ClientThread::spawn(stack.connect(&format!("benchmark/{c}"))))
        .collect();
    let mut wl = WireWorkload {
        stack,
        clients,
        expected,
        rng: Rng::new(!seed),
        pass_no: 0,
        rows: vec![0; WIRE_TEMPLATES.len()],
        warmed: Warmed::default(),
    };
    let (cold, _) = wl.pass(ledger);
    wl.warmed = Warmed {
        cold_pass_s: cold.wall_s,
        spawned_after_cold: wl.stack.service.worker_pool().spawned(),
        busy: 0,
    };
    wl.pass(ledger);
    // Every connection pulls the 100 k-row stream at once, twice. Two big
    // replies in flight are the workload's memory high-water mark; reached
    // here on purpose, `peak_rss_mb` does not depend on whether some timed
    // pass happens to align them (probed: 43–64 MiB by chance, 73–79 MiB
    // forced).
    wl.pass_in_order(vec![STREAM_TEMPLATE; 2 * CONNECTIONS], ledger);
    wl
}

fn require_two_cores() -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < CONNECTIONS {
        // Two clients and the server's threads on one core would publish
        // queueing noise as latency.
        return Err(format!(
            "invalid run: wire_warm drives {CONNECTIONS} connections and needs as many cores; this host has {cores}"
        ));
    }
    Ok(())
}

/// The timed run of `wire_warm`: end-to-end metrics, tracing off.
pub fn run_timed(seed: u64, seconds: f64) -> Result<Report, String> {
    require_two_cores()?;
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::new();
    let mut wl: Option<WireWorkload> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = wl.take() {
            previous.stop();
        }
        let start = Instant::now();
        wl = Some(set_up(seed, &mut ledger));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut wl = wl.expect("at least one set-up");

    let mut passes = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds {
        passes.push(wl.pass(&mut ledger).0);
    }
    let mut notes = Vec::new();
    let metrics = end_to_end(&setup_s, &passes, WIRE_TEMPLATES.len(), &mut notes);
    for (t, template) in WIRE_TEMPLATES.iter().enumerate() {
        notes.push(format!(
            "template {}: {} rows, median {} ms",
            template.0,
            wl.rows[t],
            median(&latencies_of(&passes, t))
        ));
    }
    wl.stop();
    Ok(Report {
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes,
    })
}

/// The traced run of `wire_warm`: per-layer metrics.
pub fn run_traced(seed: u64, seconds: f64, trace: &mut Trace) -> Result<Report, String> {
    require_two_cores()?;
    let mut ledger = Ledger::default();
    let mut wl = set_up(seed, &mut ledger);

    // Alternate plain passes with passes whose client-side spans are
    // recorded: wire (timed) ⊃ service (the time the reply's summary
    // returned).
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut wire_spans: Vec<(usize, Duration, u64)> = Vec::new(); // span, served, rows
    let window = Instant::now();
    while plain_s.len() < 2 || window.elapsed().as_secs_f64() < seconds / 2.0 {
        plain_s.push(wl.pass(&mut ledger).0.wall_s);
        let (pass, observed) = wl.pass(&mut ledger);
        let recording = Instant::now();
        trace.clear();
        wire_spans.clear();
        for o in &observed {
            if let Ok(outcome) = &o.outcome {
                wire_spans.push(record_wire(trace, o.start, o.wall, outcome));
            }
        }
        traced_s.push(pass.wall_s + recording.elapsed().as_secs_f64());
    }
    wl.warmed.busy = ledger.busy;

    // The engine's layers, from one idle local session on the same warm
    // service: one pass per constant set, so counts are per pass.
    let catalog = wl.stack.service.catalog();
    let sqls: Vec<String> = (0..WIRE_VARIANTS)
        .flat_map(|v| (0..WIRE_TEMPLATES.len()).map(move |t| wire_sql(t, v)))
        .collect();
    let queries: Vec<_> = sqls
        .iter()
        .map(|sql| parse(sql, &catalog, &UdfRegistry::new()).expect("wire template parses"))
        .collect();
    let mut session = wl.stack.service.session();
    let mut runs = Vec::new();
    for (sql, query) in sqls.iter().zip(&queries) {
        let (wall, stats, join_span) = session_execute(&mut session, sql, trace);
        runs.push(QueryRun {
            query,
            wall,
            stats,
            join_span,
        });
    }
    let mut metrics: Vec<Metric> = layers::engine_layers(&runs, WIRE_VARIANTS, trace);

    let probe_sql: Vec<String> = (0..WIRE_TEMPLATES.len()).map(|t| wire_sql(t, 0)).collect();
    let probed = probe(&wl.stack, &probe_sql, wl.warmed, trace);
    codec_children(trace, &wire_spans, &probed);
    metrics.extend(probed);
    metrics.push((
        "trace.overhead_ratio",
        ratio(median(&traced_s), median(&plain_s)),
        "ratio",
    ));
    wl.stop();

    Ok(Report {
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes: vec![format!(
            "samples: {} plain and {} traced passes, {} local-session executions",
            plain_s.len(),
            traced_s.len(),
            runs.len()
        )],
    })
}

/// Record `wire ⊃ service` for one reply: the outer span timed by the
/// client, the inner one the server-side time the reply's summary returned.
/// Returns the `wire` span, the served time and the reply's row count.
fn record_wire(
    trace: &mut Trace,
    start: Instant,
    wall: Duration,
    outcome: &QueryOutcome,
) -> (usize, Duration, u64) {
    let request = trace.new_request();
    let at = trace.offset(start);
    let span = trace.span(None, request, "wire", at, wall, Source::Timed);
    let served = Duration::from_nanos(outcome.summary.total_nanos);
    trace.span(Some(span), request, "service", at, served, Source::Returned);
    (span, served, outcome.summary.rows)
}

/// Execute `sql` on a local session and record
/// `session ⊃ query ⊃ {prepare, join, postprocess}`.
fn session_execute(
    session: &mut skinner_service::Session,
    sql: &str,
    trace: &mut Trace,
) -> (Duration, RunStats, usize) {
    let start = Instant::now();
    let result = session.execute(sql).expect("local session executes");
    let wall = start.elapsed();
    let stats = result.stats;
    let request = trace.new_request();
    let at = trace.offset(start);
    let span = trace.span(None, request, "session", at, wall, Source::Timed);
    let inner = stats.join_phase + stats.postprocess;
    let join_span = layers::record_query(trace, Some(span), start, inner, &stats);
    (wall, stats, join_span)
}

/// Under every recorded `wire` span, after its `service` child, the
/// encode and decode time its row count costs at the probe's measured
/// per-row rates.
fn codec_children(trace: &mut Trace, wire_spans: &[(usize, Duration, u64)], probed: &[Metric]) {
    let rate = |name: &str| probed.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let (encode, decode) = (rate("net.encode_ns_per_row"), rate("net.decode_ns_per_row"));
    for &(span, served, rows) in wire_spans {
        let cost = |ns_per_row: f64| Duration::from_secs_f64(rows as f64 * ns_per_row / 1e9);
        let (request, at) = (trace.spans[span].request, trace.spans[span].start + served);
        trace.span(
            Some(span),
            request,
            "encode",
            at,
            cost(encode),
            Source::Replay,
        );
        let at = at + cost(encode);
        trace.span(
            Some(span),
            request,
            "decode",
            at,
            cost(decode),
            Source::Replay,
        );
    }
}

/// The layers above the engine, measured on `stack` with the SQL texts
/// `sqls`: parser, service, wire codec and transport, pool. The stack
/// must already have served every text at least once.
fn probe(stack: &Stack, sqls: &[String], warmed: Warmed, trace: &mut Trace) -> Vec<Metric> {
    // Counters first, before the probe's own executions dilute them.
    let stats = stack.service.stats();
    let pool_spawns = stack.service.worker_pool().spawned() - warmed.spawned_after_cold;
    let catalog = stack.service.catalog();
    let udfs = UdfRegistry::new();

    // query: parse each text repeatedly; the median text's median.
    let parse_us: Vec<f64> = sqls
        .iter()
        .map(|sql| {
            let samples: Vec<f64> = (0..4 * PROBE_REPS)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(parse(sql, &catalog, &udfs).expect("probe SQL parses"));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&samples)
        })
        .collect();

    // service: what Session::execute adds around the join phase and
    // post-processing (parse, template key, cache lookup, admission,
    // statistics), on one idle session.
    let mut session = stack.service.session();
    let mut overhead_us = Vec::new();
    let mut result_rows: Vec<Vec<Vec<Value>>> = Vec::new();
    for sql in sqls {
        for rep in 0..PROBE_REPS {
            let start = Instant::now();
            let result = session.execute(sql).expect("probe SQL executes");
            let wall = start.elapsed();
            let inner = result.stats.join_phase + result.stats.postprocess;
            overhead_us.push(wall.saturating_sub(inner).as_secs_f64() * 1e6);
            if rep == 0 {
                result_rows.push(result.table.rows);
            }
        }
    }

    // net: the same text over one idle connection against the streaming
    // session call the server itself makes.
    let mut client = stack.connect("benchmark/probe");
    let mut busy = warmed.busy;
    let mut wire_overhead_us = Vec::new();
    for sql in sqls {
        let (mut over_wire, mut streamed) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_REPS {
            let start = Instant::now();
            let outcome = client.query(sql, 0);
            let wall = start.elapsed();
            match outcome {
                Ok(outcome) => {
                    record_wire(trace, start, wall, &outcome);
                    over_wire.push(wall.as_secs_f64() * 1e6);
                }
                Err(ClientError::Busy { .. }) => busy += 1,
                Err(e) => eprintln!("probe query failed: {e}"),
            }
            let start = Instant::now();
            let mut rows = 0u64;
            session
                .execute_streaming(sql, &ExecuteOptions::default(), |row| {
                    rows += row.len() as u64;
                    true
                })
                .expect("probe SQL streams");
            std::hint::black_box(rows);
            streamed.push(start.elapsed().as_secs_f64() * 1e6);
        }
        wire_overhead_us.push(median(&over_wire) - median(&streamed));
    }

    // net codec: encode and decode the result rows as the server's
    // RowBatch frames.
    let (mut encode_s, mut decode_s, mut bytes, mut rows) = (0.0, 0.0, 0usize, 0usize);
    for table in &result_rows {
        for batch in table.chunks(BATCH_ROWS) {
            // A middle batch: rows only, no header and no summary.
            let message = Message::RowBatch {
                id: 1,
                flags: 0,
                columns: Vec::new(),
                rows: batch.to_vec(),
                summary: None,
            };
            let t = Instant::now();
            let payload = message.encode();
            encode_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let decoded = Message::decode(FrameType::RowBatch, &payload);
            decode_s += t.elapsed().as_secs_f64();
            assert!(decoded.is_some(), "RowBatch round-trips");
            bytes += payload.len();
            rows += batch.len();
        }
    }

    let protocol_errors = client
        .stats()
        .ok()
        .and_then(|s| s.get("net_protocol_errors"))
        .unwrap_or(0);
    let _ = client.goodbye();

    let lookups = (stats.cache.hits + stats.cache.misses) as f64;
    let resolutions = (stats.kernels.hits + stats.kernels.misses) as f64;
    vec![
        ("query.parse_us", median(&parse_us), "us"),
        (
            "service.kernel_cache_hit_ratio",
            ratio(stats.kernels.hits as f64, resolutions),
            "ratio",
        ),
        ("service.overhead_us", median(&overhead_us), "us"),
        (
            "service.cache_hit_ratio",
            ratio(stats.cache.hits as f64, lookups),
            "ratio",
        ),
        (
            "service.warm_start_ratio",
            ratio(stats.warm_starts as f64, stats.queries as f64),
            "ratio",
        ),
        ("service.prior_seeded", stats.prior_seeded as f64, "count"),
        ("service.cold_pass_s", warmed.cold_pass_s, "s"),
        ("net.wire_overhead_us", median(&wire_overhead_us), "us"),
        (
            "net.encode_ns_per_row",
            ratio(encode_s * 1e9, rows as f64),
            "ns",
        ),
        (
            "net.decode_ns_per_row",
            ratio(decode_s * 1e9, rows as f64),
            "ns",
        ),
        (
            "net.bytes_per_row",
            ratio(bytes as f64, rows as f64),
            "bytes",
        ),
        ("net.busy", busy as f64, "count"),
        ("net.protocol_errors", protocol_errors as f64, "count"),
        (
            "pool.thread_spawns_after_warmup",
            pool_spawns as f64,
            "count",
        ),
    ]
}

/// For the in-process workloads' traced runs: the layers their own
/// passes never cross, measured on a service and server started over the
/// workload's catalog, serving `sqls`.
pub fn probe_layers(catalog: &Catalog, sqls: &[String], trace: &mut Trace) -> Vec<Metric> {
    let stack = Stack::start(catalog.clone());
    let mut client = stack.connect("benchmark/warm");
    let mut pass = || {
        let start = Instant::now();
        for sql in sqls {
            client
                .query(sql, 0)
                .expect("probe SQL executes over the wire");
        }
        start.elapsed().as_secs_f64()
    };
    let cold_pass_s = pass();
    let warmed = Warmed {
        cold_pass_s,
        spawned_after_cold: stack.service.worker_pool().spawned(),
        busy: 0,
    };
    for _ in 0..2 {
        pass();
    }
    let _ = client.goodbye();
    let metrics = probe(&stack, sqls, warmed, trace);
    stack.stop();
    metrics
}
