//! Small helpers shared by every workload: the seeded generator, order
//! statistics, result comparison and the host record.

use skinner_net::proto::put_value;
use skinner_storage::Value;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;

/// SplitMix64: the benchmark's only source of randomness, so that the
/// same `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (nearest rank on the sorted sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work has no ratio).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Sort rows into the canonical order `ResultTable::canonical_rows` uses,
/// in place.
pub fn sort_canonical(rows: &mut [Vec<Value>]) {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = x
                .sql_cmp(y)
                .unwrap_or_else(|| x.is_null().cmp(&y.is_null()));
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

fn cell_eq(x: &Value, y: &Value) -> bool {
    match (x, y) {
        // Float aggregates depend on summation order, which differs
        // between the oracle's plan and Skinner-C's slices.
        (Value::Float(a), Value::Float(b)) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
        _ => x == y,
    }
}

fn row_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| cell_eq(x, y))
}

/// SipHash of a row's wire encoding (`skinner_net::proto::put_value`).
fn row_hash(row: &[Value], buf: &mut Vec<u8>) -> u64 {
    buf.clear();
    for cell in row {
        put_value(buf, cell);
    }
    let mut hasher = DefaultHasher::new();
    hasher.write(buf);
    hasher.finish()
}

fn sorted_hashes(rows: &[Vec<Value>]) -> Vec<u64> {
    let mut buf = Vec::new();
    let mut hashes: Vec<u64> = rows.iter().map(|row| row_hash(row, &mut buf)).collect();
    hashes.sort_unstable();
    hashes
}

/// Oracle rows in the form they are compared in.
enum Rows {
    /// Canonically sorted rows: kept whenever a cell is a float, which
    /// must compare with a tolerance.
    Exact(Vec<Vec<Value>>),
    /// Sorted hashes of the rows, for everything else. The 100 k-row
    /// streams would otherwise be held three times over by the benchmark
    /// itself and drown the program's memory in `peak_rss_mb`.
    Hashed(Vec<u64>),
}

/// The rows a query must return, computed once in set-up by the oracle.
pub struct Expected {
    /// The oracle's rows, without the query's `LIMIT`.
    rows: Rows,
    /// `Some(k)`: the query has `LIMIT k`, so any `min(k, |rows|)` rows
    /// drawn from `rows` are correct.
    limit: Option<usize>,
}

/// Is sorted `actual` equal to sorted `full` — or, under `limit`, a
/// sub-multiset of it with exactly the size the limit allows?
fn agree<T>(actual: &[T], full: &[T], limit: Option<usize>, eq: impl Fn(&T, &T) -> bool) -> bool {
    match limit {
        None => actual.len() == full.len() && actual.iter().zip(full).all(|(a, f)| eq(a, f)),
        Some(k) => {
            // Merge: every actual row must find a partner further along.
            let mut rest = full.iter();
            actual.len() == k.min(full.len())
                && actual.iter().all(|a| rest.by_ref().any(|f| eq(a, f)))
        }
    }
}

impl Expected {
    pub fn new(mut rows: Vec<Vec<Value>>, limit: Option<usize>) -> Expected {
        let has_float = rows.iter().flatten().any(|v| matches!(v, Value::Float(_)));
        let rows = if has_float {
            sort_canonical(&mut rows);
            Rows::Exact(rows)
        } else {
            Rows::Hashed(sorted_hashes(&rows))
        };
        Expected { rows, limit }
    }

    /// Does `actual` (any order) match the oracle?
    pub fn matches(&self, mut actual: Vec<Vec<Value>>) -> bool {
        match &self.rows {
            Rows::Exact(full) => {
                sort_canonical(&mut actual);
                agree(&actual, full, self.limit, |a, f| row_eq(a, f))
            }
            Rows::Hashed(full) => agree(&sorted_hashes(&actual), full, self.limit, |a, f| a == f),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What the numbers depend on besides the code: cores, load threads,
/// compiler and commit. Printed with every run and stored in the trace.
pub fn host_record(load_threads: usize) -> BTreeMap<&'static str, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rec = BTreeMap::new();
    rec.insert("host_cores", cores.to_string());
    rec.insert("load_threads", load_threads.to_string());
    rec.insert(
        "rustc",
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    );
    // The driver's checkout is not a git repository; say so instead of
    // failing.
    rec.insert(
        "git_commit",
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "not-a-git-checkout".into()),
    );
    rec
}

/// A JSON number: every digit of the measurement, never NaN or infinity
/// (which JSON cannot carry).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
