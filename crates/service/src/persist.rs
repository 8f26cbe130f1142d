//! Crash-safe persistence of the learning cache.
//!
//! SkinnerDB's accumulated learning — the per-template UCT snapshots —
//! is only an asset if it survives restarts.
//! This module serializes the [`LearningCache`](crate::cache::LearningCache)
//! to one checksummed record file ([`skinner_storage::codec`]: atomic
//! save, tolerant load) and loads it back on startup so a restarted
//! service starts warm. Records whose table versions no longer match the
//! live catalog are dropped as stale; corruption costs some warm starts,
//! never availability or correctness.
//!
//! # Payload
//!
//! ```text
//! magic "SKLC", format version 2; one record per cache entry:
//! payload: template canonical string
//!          table deps        (name, version)*
//!          snapshot          rounds + nodes (visits, reward bits,
//!                            actions, children; u64::MAX = unexpanded)
//! ```
//!
//! A file of another version (version 1 records also held join orders)
//! loads nothing and reports `format_mismatch`: the service starts cold
//! and its next flush writes version 2.
//!
//! Fault-injection sites: `persist.read`, `persist.write`,
//! `persist.fsync`, `persist.rename` (see
//! [`skinner_engine::failpoints`]).

use crate::cache::TableDeps;
use crate::service::QueryService;
use skinner_query::{TableId, TemplateKey};
pub use skinner_storage::codec::LoadReport;
use skinner_storage::codec::{put_f64, put_str, put_u32, put_u64, Cursor, RecordFile};
use skinner_uct::{SnapshotNode, TreeSnapshot};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The learning-cache file: magic "SKinner Learning Cache", format
/// version 2 (bump on any change to the bytes), payloads capped at
/// 64 MiB.
const FILE: RecordFile = RecordFile {
    magic: *b"SKLC",
    version: 2,
    max_record_bytes: 64 << 20,
    sites: "persist",
};

/// One learning-cache entry, as saved and as loaded.
#[derive(Debug, Clone)]
pub struct PersistRecord {
    /// The template key (round-tripped via its canonical string).
    pub key: TemplateKey,
    /// Per-table versions the snapshot was learned against.
    pub deps: TableDeps,
    /// The template's UCT tree, the whole of its learned state.
    pub snapshot: TreeSnapshot<TableId>,
}

fn encode_record(r: &PersistRecord) -> Vec<u8> {
    let mut p = Vec::with_capacity(256);
    put_str(&mut p, r.key.canonical());
    put_u32(&mut p, r.deps.len() as u32);
    for (name, version) in &r.deps {
        put_str(&mut p, name);
        put_u64(&mut p, *version);
    }
    let (nodes, rounds) = r.snapshot.to_parts();
    put_u64(&mut p, rounds);
    put_u32(&mut p, nodes.len() as u32);
    for n in &nodes {
        put_u64(&mut p, n.visits);
        put_f64(&mut p, n.reward_sum);
        put_u32(&mut p, n.actions.len() as u32);
        for &a in &n.actions {
            put_u64(&mut p, a as u64);
        }
        for &c in &n.children {
            put_u64(&mut p, c as u64);
        }
    }
    p
}

fn encode_entries(entries: &[PersistRecord]) -> Vec<Vec<u8>> {
    entries.iter().map(encode_record).collect()
}

fn decode_record(payload: &[u8]) -> Option<PersistRecord> {
    let mut c = Cursor::new(payload);
    let key = TemplateKey::from_canonical(c.str()?);
    // A dep is a name (≥ 4 bytes) and a version (8 bytes).
    let n_deps = c.count(12)?;
    let deps = (0..n_deps)
        .map(|_| Some((c.str()?, c.u64()?)))
        .collect::<Option<_>>()?;
    let rounds = c.u64()?;
    // visits + reward + action count = 20 bytes minimum per node.
    let n_nodes = c.count(20)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let visits = c.u64()?;
        let reward_sum = c.f64()?;
        // Each action costs 16 bytes: its id and its child slot.
        let n_actions = c.count(16)?;
        let actions = (0..n_actions)
            .map(|_| usize::try_from(c.u64()?).ok())
            .collect::<Option<_>>()?;
        let children = (0..n_actions)
            .map(|_| match c.u64()? {
                u64::MAX => Some(usize::MAX),
                raw => usize::try_from(raw).ok(),
            })
            .collect::<Option<_>>()?;
        nodes.push(SnapshotNode {
            visits,
            reward_sum,
            actions,
            children,
        });
    }
    if !c.done() {
        return None;
    }
    // `from_parts` re-validates the tree, so a record that passes its
    // checksum but encodes a malformed or non-finite tree is still
    // rejected here.
    let snapshot = TreeSnapshot::from_parts(nodes, rounds)?;
    Some(PersistRecord {
        key,
        deps,
        snapshot,
    })
}

/// Serialize `entries` to `path` atomically (see
/// [`RecordFile::save`]). Returns the record count written.
pub fn save_entries(path: &Path, entries: &[PersistRecord]) -> io::Result<usize> {
    FILE.save(path, &encode_entries(entries))?;
    Ok(entries.len())
}

/// Read every decodable record from `path`; corruption degrades as
/// [`RecordFile::load`] describes, and a missing file is a fresh start.
pub fn load_entries(path: &Path) -> io::Result<(Vec<PersistRecord>, LoadReport)> {
    FILE.load(path, decode_record)
}

// ---------------------------------------------------------------------
// Service integration
// ---------------------------------------------------------------------

impl QueryService {
    /// Persist the learning cache to `path` (atomic write; see module
    /// docs). Returns the number of entries written.
    pub fn save_learning_cache(&self, path: &Path) -> io::Result<usize> {
        save_entries(path, &self.learning_cache().export())
    }

    /// [`save_learning_cache`](Self::save_learning_cache) with bounded
    /// retry + exponential backoff for transient I/O errors.
    pub fn save_learning_cache_with_retry(
        &self,
        path: &Path,
        attempts: u32,
        backoff: Duration,
    ) -> io::Result<usize> {
        let entries = self.learning_cache().export();
        FILE.save_with_retry(path, &encode_entries(&entries), attempts, backoff)?;
        Ok(entries.len())
    }

    /// Warm-start the learning cache from `path`. Records whose table
    /// versions no longer match the live catalog (or whose tables are
    /// gone) are skipped as `stale`; corrupt/truncated data degrades per
    /// the module docs. Entries are seeded without counting as stores.
    pub fn load_learning_cache(&self, path: &Path) -> io::Result<LoadReport> {
        let (records, mut report) = load_entries(path)?;
        for r in records {
            if !self.deps_are_current(&r.deps) {
                report.loaded -= 1;
                report.stale += 1;
                continue;
            }
            self.learning_cache().seed(r.key, r.deps, r.snapshot);
        }
        Ok(report)
    }

    /// Persist the knowledge store to `path` (its own record file, see
    /// [`skinner_knowledge::persist`]). Returns the number of entries
    /// written.
    pub fn save_knowledge(&self, path: &Path) -> io::Result<usize> {
        skinner_knowledge::persist::save(&self.knowledge(), path)
    }

    /// Warm-start the knowledge store from `path`, keeping only entries
    /// whose catalog versions still match the live catalog (others are
    /// reported `stale`); corruption degrades exactly like the learning
    /// cache's loader.
    pub fn load_knowledge(&self, path: &Path) -> io::Result<LoadReport> {
        let mut store = self.knowledge();
        skinner_knowledge::persist::load_with(&mut store, path, |name, version| {
            self.table_is_current(name, version)
        })
    }

    /// Warm-start from a `--cache` location: the learning cache from
    /// `cache_path` and the knowledge store from its [`knowledge_path`]
    /// sibling — the two files a [`CachePersister`] on the same path
    /// writes. Load both before starting that persister; otherwise its
    /// first flush overwrites a file that was never read.
    pub fn warm_start(&self, cache_path: &Path) -> WarmStart {
        WarmStart {
            learning: self.load_learning_cache(cache_path),
            knowledge: self.load_knowledge(&knowledge_path(cache_path)),
        }
    }

    /// Save to a `--cache` location: the learning cache to `cache_path`
    /// (retried on transient I/O errors) and the knowledge store to its
    /// [`knowledge_path`] sibling — the two files
    /// [`warm_start`](Self::warm_start) reads.
    pub fn persist(&self, cache_path: &Path) -> Persisted {
        Persisted {
            learning: self.save_learning_cache_with_retry(cache_path, 3, Duration::from_millis(50)),
            knowledge: self.save_knowledge(&knowledge_path(cache_path)),
        }
    }
}

/// What [`QueryService::warm_start`] loaded from each file.
#[derive(Debug)]
pub struct WarmStart {
    /// The learning-cache file's report.
    pub learning: io::Result<LoadReport>,
    /// The knowledge-store file's report.
    pub knowledge: io::Result<LoadReport>,
}

impl WarmStart {
    /// Report both loads on stderr, one line each, every line starting
    /// with `prefix`: `learning cache warm start: N loaded, N corrupt,
    /// N stale`, then the same for `knowledge` (or `… load failed: …`).
    pub fn log(&self, prefix: &str) {
        for (what, report) in [
            ("learning cache", &self.learning),
            ("knowledge", &self.knowledge),
        ] {
            match report {
                Ok(r) => eprintln!(
                    "{prefix}{what} warm start: {} loaded, {} corrupt, {} stale{}{}",
                    r.loaded,
                    r.corrupt,
                    r.stale,
                    if r.truncated { " (truncated tail)" } else { "" },
                    if r.format_mismatch {
                        " (format mismatch)"
                    } else {
                        ""
                    },
                ),
                Err(e) => eprintln!("{prefix}{what} load failed: {e}"),
            }
        }
    }
}

/// What [`QueryService::persist`] wrote to each file: entry counts.
#[derive(Debug)]
pub struct Persisted {
    /// The learning-cache file's save.
    pub learning: io::Result<usize>,
    /// The knowledge-store file's save.
    pub knowledge: io::Result<usize>,
}

impl Persisted {
    /// Report both saves on stderr, one line each, every line starting
    /// with `prefix`: `persisted N learning-cache entries`, then
    /// `persisted N knowledge entries` (or `… save failed: …`).
    pub fn log(&self, prefix: &str) {
        self.report(prefix, true);
    }

    fn report(&self, prefix: &str, successes: bool) {
        for (what, saved) in [
            ("learning-cache", &self.learning),
            ("knowledge", &self.knowledge),
        ] {
            match saved {
                Ok(n) if successes => eprintln!("{prefix}persisted {n} {what} entries"),
                Ok(_) => {}
                Err(e) => eprintln!("{prefix}{what} save failed: {e}"),
            }
        }
    }
}

/// The knowledge store's on-disk sibling of a learning-cache file:
/// `<cache path>.knowledge`. Keeping the two formats in separate files
/// lets each keep its own magic, version and corruption domain while
/// operators still manage a single `--cache` location.
pub fn knowledge_path(cache_path: &Path) -> std::path::PathBuf {
    let mut name = cache_path.file_name().unwrap_or_default().to_os_string();
    name.push(".knowledge");
    cache_path.with_file_name(name)
}

/// Background persister: periodically [persists](QueryService::persist)
/// the service's learning cache and knowledge store, and once more on
/// [`shutdown`](CachePersister::shutdown). Dropping without `shutdown`
/// stops the thread and makes a best-effort final flush.
#[derive(Debug)]
pub struct CachePersister {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    service: Arc<QueryService>,
    path: std::path::PathBuf,
}

impl CachePersister {
    /// Flush every `interval` until shutdown. Flush errors are reported
    /// to stderr and retried at the next tick — a sick disk must not
    /// take the query path down.
    pub fn start(
        service: Arc<QueryService>,
        path: impl Into<std::path::PathBuf>,
        interval: Duration,
    ) -> CachePersister {
        let path = path.into();
        let stop = Arc::new(AtomicBool::new(false));
        let (svc, p, st) = (service.clone(), path.clone(), stop.clone());
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(50).min(interval);
            let mut since_flush = Duration::ZERO;
            while !st.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                since_flush += tick;
                if since_flush >= interval {
                    since_flush = Duration::ZERO;
                    svc.persist(&p).report("skinner: periodic flush: ", false);
                }
            }
        });
        CachePersister {
            stop,
            handle: Some(handle),
            service,
            path,
        }
    }

    /// Stop the background thread and write a final flush of both
    /// files, returning what each save wrote.
    pub fn shutdown(mut self) -> Persisted {
        self.halt();
        self.service.persist(&self.path)
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CachePersister {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.halt();
            self.service
                .persist(&self.path)
                .report("skinner: final flush: ", false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_uct::{SearchSpace, UctConfig, UctTree};

    struct Perms {
        n: usize,
    }

    impl SearchSpace for Perms {
        type Action = usize;
        fn actions(&self, path: &[usize]) -> Vec<usize> {
            (0..self.n).filter(|t| !path.contains(t)).collect()
        }
        fn depth(&self) -> usize {
            self.n
        }
    }

    fn entry(name: &str, seed_rounds: usize) -> PersistRecord {
        let mut tree = UctTree::new(Perms { n: 3 }, UctConfig::default());
        for _ in 0..seed_rounds {
            let p = tree.choose();
            let r = if p[0] == 1 { 0.9 } else { 0.2 };
            tree.update(&p, r);
        }
        PersistRecord {
            key: TemplateKey::from_canonical(format!("[{name}]|{name}.x=?")),
            deps: vec![(name.to_string(), 3)],
            snapshot: tree.snapshot(),
        }
    }

    #[test]
    fn record_round_trips() {
        let e = entry("t", 50);
        let r = decode_record(&encode_record(&e)).expect("decode");
        assert_eq!(r.key, e.key);
        assert_eq!(r.deps, e.deps);
        assert_eq!(r.snapshot.to_parts(), e.snapshot.to_parts());
    }

    #[test]
    fn truncated_or_padded_payload_is_rejected() {
        let mut payload = encode_record(&entry("t", 20));
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_none(), "cut at {cut}");
        }
        payload.push(0);
        assert!(decode_record(&payload).is_none(), "trailing byte");
    }
}
