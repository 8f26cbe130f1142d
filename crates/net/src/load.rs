//! Open-loop load harness: tail latency under fixed arrival rates.
//!
//! A *closed* loop (send, wait, send) self-throttles when the server
//! slows down, hiding exactly the tail the measurement is after
//! (coordinated omission). This harness is **open-loop**: arrival `k`
//! is scheduled at `t0 + k/rate` regardless of how previous requests
//! fared, arrivals are assigned round-robin to a fixed set of
//! connections, and latency is measured **from the scheduled arrival
//! time** — a request stuck behind a slow predecessor on its
//! connection pays that queueing delay in its recorded latency, as a
//! real client would.
//!
//! Results are verified against direct (in-process) execution: the
//! engine's row *order* follows the join orders it learned, which a
//! warm start changes, so rows are compared as sorted canonical
//! encodings ([`crate::proto::encode_row`]).

use crate::client::{ClientError, NetClient};
use crate::proto::encode_row;
use skinner_service::QueryService;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One query template the harness cycles through.
#[derive(Debug, Clone)]
pub struct Template {
    /// Short name (reported per-template).
    pub(crate) name: String,
    /// The SQL text.
    pub(crate) sql: String,
}

/// The four serving templates over the synthetic JOB catalog
/// (`skinner_workloads::job`): two aggregates, one warm-template
/// repeat, one streaming row query. Constants are fixed so repeated
/// arrivals exercise the learning cache the way real template traffic
/// does. The `LIMIT` is far above any plausible result size at serving
/// scales — it exercises the pushdown path without making the result
/// set nondeterministic.
pub fn job_templates() -> Vec<Template> {
    let t = |name: &str, sql: &str| Template {
        name: name.to_string(),
        sql: sql.to_string(),
    };
    vec![
        t(
            "companies-agg",
            "SELECT COUNT(*) AS n FROM title t, movie_companies mc, company_name cn \
             WHERE t.id = mc.movie_id AND mc.company_id = cn.id \
             AND cn.country_code = 'us' AND t.production_year > 1960",
        ),
        t(
            "info-band-min",
            "SELECT MIN(mi.info_val) AS lo FROM title t, movie_info mi, info_type it \
             WHERE t.id = mi.movie_id AND mi.info_type_id = it.id \
             AND it.id = 5 AND mi.info_val < 560",
        ),
        t(
            "keyword-min-year",
            "SELECT MIN(t.production_year) AS y FROM title t, movie_keyword mk, keyword k \
             WHERE t.id = mk.movie_id AND mk.keyword_id = k.id \
             AND k.bucket = 7 AND t.votes > 100",
        ),
        t(
            "popular-stream",
            "SELECT t.id AS id, t.production_year AS year \
             FROM title t, movie_companies mc \
             WHERE t.id = mc.movie_id AND mc.company_type_id = 2 AND t.votes > 2000 \
             LIMIT 1000000",
        ),
    ]
}

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections (arrivals are assigned round-robin).
    pub connections: usize,
    /// Target arrival rate, queries/second across all connections.
    pub rate: f64,
    /// Total arrivals to schedule.
    pub requests: usize,
    /// Per-query timeout sent to the server; `0` = server default.
    pub timeout_ms: u64,
    /// Templates cycled per arrival index.
    pub templates: Vec<Template>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            connections: 32,
            rate: 50.0,
            requests: 256,
            timeout_ms: 30_000,
            templates: job_templates(),
        }
    }
}

/// Latency distribution over completed requests, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst observed.
    pub max: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
}

/// Compute the summary from raw latencies (any order).
pub(crate) fn summarize(mut lat: Vec<Duration>) -> LatencySummary {
    if lat.is_empty() {
        return LatencySummary::default();
    }
    lat.sort_unstable();
    let pick = |q: f64| lat[((lat.len() - 1) as f64 * q).round() as usize];
    let total: Duration = lat.iter().sum();
    LatencySummary {
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
        max: *lat.last().unwrap(),
        mean: total / lat.len() as u32,
    }
}

/// What one open-loop run observed.
#[derive(Debug, Clone, Default)]
pub struct LoadOutcome {
    /// Arrivals actually issued to a connection.
    pub issued: usize,
    /// Queries answered with a complete result.
    pub completed: usize,
    /// Queries refused with `Busy{Queries}`.
    pub busy: usize,
    /// Connections refused with `Busy{Connections}` (their arrivals are
    /// not issued).
    pub rejected_connections: usize,
    /// Server-side query failures, including timeouts.
    pub errors: usize,
    /// Of `errors`, the timeouts specifically.
    pub timeouts: usize,
    /// Protocol violations observed by either side (must be zero on a
    /// healthy run).
    pub protocol_errors: usize,
    /// Transport failures.
    pub io_errors: usize,
    /// Latency distribution of completed queries (scheduled arrival →
    /// last byte of the result).
    pub latency: LatencySummary,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Completed queries per wall-clock second.
    pub throughput_qps: f64,
}

/// Run the open-loop load against `addr` (see the module docs).
pub fn run_open_loop(addr: &str, cfg: &LoadConfig) -> LoadOutcome {
    let conns = cfg.connections.max(1);
    let start = Instant::now();
    // Connections handshake before t0 so arrival 0 is not taxed with
    // connect latency.
    let t0 = start + Duration::from_millis(50);

    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.to_string();
            let cfg = cfg.clone();
            std::thread::spawn(move || worker(&addr, &cfg, c, t0))
        })
        .collect();

    let mut out = LoadOutcome::default();
    let mut latencies = Vec::with_capacity(cfg.requests);
    for w in workers {
        let part = w.join().expect("load worker panicked");
        out.issued += part.issued;
        out.completed += part.completed;
        out.busy += part.busy;
        out.rejected_connections += part.rejected_connections;
        out.errors += part.errors;
        out.timeouts += part.timeouts;
        out.protocol_errors += part.protocol_errors;
        out.io_errors += part.io_errors;
        latencies.extend(part.latencies);
    }
    out.wall = start.elapsed();
    out.latency = summarize(latencies);
    out.throughput_qps = out.completed as f64 / out.wall.as_secs_f64().max(1e-9);
    out
}

#[derive(Default)]
struct WorkerOutcome {
    issued: usize,
    completed: usize,
    busy: usize,
    rejected_connections: usize,
    errors: usize,
    timeouts: usize,
    protocol_errors: usize,
    io_errors: usize,
    latencies: Vec<Duration>,
}

fn worker(addr: &str, cfg: &LoadConfig, index: usize, t0: Instant) -> WorkerOutcome {
    let mut out = WorkerOutcome::default();
    let conns = cfg.connections.max(1);
    let mut client = match NetClient::connect(addr, &format!("skinner-load/{index}")) {
        Ok(c) => c,
        Err(ClientError::Busy { .. }) => {
            out.rejected_connections = 1;
            return out;
        }
        Err(_) => {
            out.io_errors = 1;
            return out;
        }
    };
    for k in (index..cfg.requests).step_by(conns) {
        let scheduled = t0 + Duration::from_secs_f64(k as f64 / cfg.rate.max(1e-9));
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let template = &cfg.templates[k % cfg.templates.len()];
        out.issued += 1;
        match client.query(&template.sql, cfg.timeout_ms) {
            Ok(_) => {
                out.completed += 1;
                // Open-loop latency: scheduled arrival → completion,
                // queueing delay included.
                out.latencies.push(scheduled.elapsed());
            }
            Err(ClientError::Busy { .. }) => out.busy += 1,
            Err(ClientError::Remote { code, .. }) => {
                out.errors += 1;
                if code == crate::proto::ErrorCode::TimedOut {
                    out.timeouts += 1;
                }
            }
            Err(ClientError::Protocol(_)) => {
                out.protocol_errors += 1;
                return out; // the stream cannot be trusted past this
            }
            Err(ClientError::Io(_)) => {
                out.io_errors += 1;
                return out;
            }
        }
    }
    let _ = client.goodbye();
    out
}

/// Verify that the server at `addr` answers each template
/// byte-identically (modulo row order) to direct in-process execution
/// against `local` — which must hold the *same* catalog (same
/// generator scale and seed). Returns the per-template failure
/// description on mismatch.
pub fn verify_against_local(
    addr: &str,
    local: &Arc<QueryService>,
    templates: &[Template],
) -> Result<(), String> {
    let mut client = NetClient::connect(addr, "skinner-load/verify")
        .map_err(|e| format!("verify connect: {e}"))?;
    let mut session = local.session();
    for t in templates {
        let remote = client
            .query(&t.sql, 0)
            .map_err(|e| format!("{}: remote execution failed: {e}", t.name))?;
        let direct = session
            .execute(&t.sql)
            .map_err(|e| format!("{}: local execution failed: {e}", t.name))?;
        let local_cols: Vec<String> = direct.table.columns.clone();
        if remote.columns != local_cols {
            return Err(format!(
                "{}: column mismatch: remote {:?} vs local {:?}",
                t.name, remote.columns, local_cols
            ));
        }
        let mut remote_rows: Vec<Vec<u8>> = remote.rows.iter().map(|r| encode_row(r)).collect();
        let mut local_rows: Vec<Vec<u8>> =
            direct.table.rows.iter().map(|r| encode_row(r)).collect();
        remote_rows.sort_unstable();
        local_rows.sort_unstable();
        if remote_rows != local_rows {
            return Err(format!(
                "{}: result mismatch: {} remote rows vs {} local rows (or differing content)",
                t.name,
                remote_rows.len(),
                local_rows.len()
            ));
        }
    }
    let _ = client.goodbye();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_percentiles() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = summarize(lat);
        assert_eq!(s.p50, Duration::from_millis(51));
        assert_eq!(s.p95, Duration::from_millis(95));
        assert_eq!(s.p99, Duration::from_millis(99));
        assert_eq!(s.max, Duration::from_millis(100));
        assert_eq!(s.mean, Duration::from_micros(50_500));
    }

    #[test]
    fn summarize_empty_is_zero() {
        let s = summarize(Vec::new());
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);
    }

    #[test]
    fn templates_are_distinct_and_cover_aggregate_and_streaming() {
        let ts = job_templates();
        assert_eq!(ts.len(), 4);
        let names: std::collections::HashSet<&str> = ts.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), 4);
        assert!(
            ts.iter().any(|t| t.sql.contains("LIMIT")),
            "streaming shape"
        );
        assert!(
            ts.iter().any(|t| t.sql.contains("COUNT")),
            "aggregate shape"
        );
    }
}
