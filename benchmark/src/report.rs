//! What a run reports, and how the end-to-end metrics are computed from
//! the timed passes — the same way on every workload.

use crate::util::{json_number, json_string, median, peak_rss_mb, quantile};

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Name, value and unit of one reported metric.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of one run of one workload.
pub struct Report {
    /// Every executed query returned the oracle's rows and every exact
    /// count repeated.
    pub correct: bool,
    /// Query executions checked against the oracle (warm-up included).
    pub attempted: u64,
    /// Of those: errors, refusals, timeouts and wrong results.
    pub failed: u64,
    /// The metrics of the run's mode: end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Lines for the reader: sample counts, exact counts, self times.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line JSON object the driver reads.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One timed pass: every query of the workload executed once.
pub struct Pass {
    /// Seconds the pass took, verification excluded.
    pub wall_s: f64,
    /// `(query, latency in ms)` of every execution.
    pub latencies: Vec<(usize, f64)>,
    /// Executions that returned the oracle's rows.
    pub correct: u64,
}

/// Every latency (ms) `passes` recorded for query `q`.
pub fn latencies_of(passes: &[Pass], q: usize) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.latencies.iter().filter(move |l| l.0 == q).map(|l| l.1))
        .collect()
}

/// The end-to-end metrics of `passes` over a workload of `queries`
/// queries, after set-ups that took `setup_s` seconds each.
pub fn end_to_end(
    setup_s: &[f64],
    passes: &[Pass],
    queries: usize,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let pooled: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().map(|&(_, ms)| ms))
        .collect();
    // The paper's "max time": the slowest query, each query taken at its
    // median over the passes so that one noisy execution does not decide.
    let slowest = (0..queries)
        .map(|q| median(&latencies_of(passes, q)))
        .fold(0.0, f64::max);
    let correct: u64 = passes.iter().map(|p| p.correct).sum();
    notes.push(format!(
        "samples: {} timed passes, {} query latencies ({} beyond p90), {} set-ups",
        passes.len(),
        pooled.len(),
        pooled.len() / 10,
        setup_s.len()
    ));
    vec![
        ("setup_s", median(setup_s), "s"),
        ("total_s", median(&walls), "s"),
        ("query_p50_ms", quantile(&pooled, 0.5), "ms"),
        ("query_p90_ms", quantile(&pooled, 0.9), "ms"),
        ("slowest_query_ms", slowest, "ms"),
        (
            "queries_per_s",
            correct as f64 / walls.iter().sum::<f64>().max(1e-9),
            "1/s",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}
