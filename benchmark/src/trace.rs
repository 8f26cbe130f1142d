//! Spans recorded by the benchmark around the calls it makes into each
//! layer. They stay in memory during the run and are written out once at
//! exit; a layer's self time is its spans' duration minus the part their
//! child spans cover.

use crate::util::{json_number, json_string};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// How a span's interval was obtained.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a call.
    Timed,
    /// Reported by the program in the value the call returned.
    Returned,
    /// Estimated: a count from the run times the unit cost a replay of
    /// that layer's public API measured.
    Replay,
}

pub struct Span {
    pub parent: Option<usize>,
    /// Spans of one query execution share this.
    pub request: usize,
    pub name: &'static str,
    pub start: Duration,
    pub len: Duration,
    pub source: Source,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    requests: usize,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    /// Drop every span recorded so far. The traced passes call this so
    /// that the trace holds one complete pass, whose `join` spans all
    /// carry the replayed children, rather than many without.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.requests = 0;
    }

    /// Offset of `at` from the start of the trace.
    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.epoch)
    }

    pub fn new_request(&mut self) -> usize {
        self.requests += 1;
        self.requests
    }

    /// Record a span; returns its id for use as a parent.
    pub fn span(
        &mut self,
        parent: Option<usize>,
        request: usize,
        name: &'static str,
        start: Duration,
        len: Duration,
        source: Source,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            parent,
            request,
            name,
            start,
            len,
            source,
        });
        id
    }

    /// Children laid end to end from the parent's start, in the order
    /// given: the layout of spans whose lengths are known but whose
    /// start times are not (returned or replayed durations).
    pub fn children_in_sequence(
        &mut self,
        parent: usize,
        source: Source,
        parts: &[(&'static str, Duration)],
    ) -> Vec<usize> {
        let (request, mut at) = (self.spans[parent].request, self.spans[parent].start);
        parts
            .iter()
            .map(|&(name, len)| {
                let id = self.span(Some(parent), request, name, at, len, source);
                at += len;
                id
            })
            .collect()
    }

    /// Total and self seconds per span name. Child time is clamped to
    /// the parent's length: replay estimates may overshoot it.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.len;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let entry = out.entry(s.name).or_default();
            entry.0 += s.len.as_secs_f64();
            entry.1 += s.len.saturating_sub(children).as_secs_f64();
        }
        out
    }

    /// Write the spans, the host record and the metrics as one JSON file.
    pub fn write(
        &self,
        path: &std::path::Path,
        header: &BTreeMap<&'static str, String>,
        metrics: &[crate::report::Metric],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(f, "{{")?;
        for (k, v) in header {
            write!(f, "{}: {}, ", json_string(k), json_string(v))?;
        }
        write!(f, "\"metrics\": {{")?;
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                f,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )?;
        }
        writeln!(f, "}},\n\"spans\": [")?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let source = match s.source {
                Source::Timed => "timed",
                Source::Returned => "returned",
                Source::Replay => "replay",
            };
            writeln!(
                f,
                "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"source\": \"{source}\"}}{sep}",
                s.request,
                json_string(s.name),
                s.start.as_nanos(),
                (s.start + s.len).as_nanos(),
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}
