//! Crash-safe persistence of the learning cache.
//!
//! SkinnerDB's accumulated learning — the per-template UCT snapshots
//! and planned join orders — is only an asset if it survives restarts.
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
//! magic "SKLC", format version 1; one record per cache entry:
//! payload: template canonical string
//!          table deps        (name, version)*
//!          best order        table ids
//!          planned orders    id lists
//!          snapshot          rounds + nodes (visits, reward bits,
//!                            actions, children; u64::MAX = unexpanded)
//! ```
//!
//! Fault-injection sites: `persist.read`, `persist.write`,
//! `persist.fsync`, `persist.rename` (see
//! [`skinner_engine::failpoints`]).

use crate::cache::TableDeps;
use crate::service::QueryService;
use skinner_engine::LearnedState;
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
/// version 1 (bump on any change to the bytes), payloads capped at
/// 64 MiB.
const FILE: RecordFile = RecordFile {
    magic: *b"SKLC",
    version: 1,
    max_record_bytes: 64 << 20,
    sites: "persist",
};

/// One persisted cache entry.
#[derive(Debug, Clone)]
pub struct PersistRecord {
    /// The template key (round-tripped via its canonical string).
    pub key: TemplateKey,
    /// Per-table versions the learning was captured against.
    pub deps: TableDeps,
    /// The learned state itself.
    pub learning: LearnedState,
}

type Entry = (TemplateKey, TableDeps, LearnedState);

fn put_ids(out: &mut Vec<u8>, ids: &[TableId]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u64(out, id as u64);
    }
}

fn encode_record((key, deps, learning): &Entry) -> Vec<u8> {
    let mut p = Vec::with_capacity(256);
    put_str(&mut p, key.canonical());
    put_u32(&mut p, deps.len() as u32);
    for (name, version) in deps {
        put_str(&mut p, name);
        put_u64(&mut p, *version);
    }
    put_ids(&mut p, &learning.best_order);
    put_u32(&mut p, learning.planned_orders.len() as u32);
    for order in &learning.planned_orders {
        put_ids(&mut p, order);
    }
    let (nodes, rounds) = learning.snapshot.to_parts();
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

fn encode_entries(entries: &[Entry]) -> Vec<Vec<u8>> {
    entries.iter().map(encode_record).collect()
}

fn get_ids(c: &mut Cursor<'_>) -> Option<Vec<TableId>> {
    let n = c.count(8)?;
    (0..n).map(|_| usize::try_from(c.u64()?).ok()).collect()
}

fn decode_record(payload: &[u8]) -> Option<PersistRecord> {
    let mut c = Cursor::new(payload);
    let key = TemplateKey::from_canonical(c.str()?);
    // A dep is a name (≥ 4 bytes) and a version (8 bytes).
    let n_deps = c.count(12)?;
    let deps = (0..n_deps)
        .map(|_| Some((c.str()?, c.u64()?)))
        .collect::<Option<_>>()?;
    let best_order = get_ids(&mut c)?;
    let n_orders = c.count(4)?;
    let planned_orders = (0..n_orders)
        .map(|_| get_ids(&mut c))
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
        learning: LearnedState {
            snapshot,
            best_order,
            planned_orders,
        },
    })
}

/// Serialize `entries` to `path` atomically (see
/// [`RecordFile::save`]). Returns the record count written.
pub fn save_entries(
    path: &Path,
    entries: &[(TemplateKey, TableDeps, LearnedState)],
) -> io::Result<usize> {
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
            self.learning_cache().seed(r.key, r.deps, r.learning);
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

/// The knowledge store's on-disk sibling of a learning-cache file:
/// `<cache path>.knowledge`. Keeping the two formats in separate files
/// lets each keep its own magic, version and corruption domain while
/// operators still manage a single `--cache` location.
pub fn knowledge_path(cache_path: &Path) -> std::path::PathBuf {
    let mut name = cache_path.file_name().unwrap_or_default().to_os_string();
    name.push(".knowledge");
    cache_path.with_file_name(name)
}

/// Background persister: periodically flushes the service's learning
/// cache to disk (atomic + retried) — and the knowledge store to the
/// [`knowledge_path`] sibling — and once more on
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
                    if let Err(e) =
                        svc.save_learning_cache_with_retry(&p, 3, Duration::from_millis(50))
                    {
                        eprintln!("skinner: periodic cache flush failed: {e}");
                    }
                    if let Err(e) = svc.save_knowledge(&knowledge_path(&p)) {
                        eprintln!("skinner: periodic knowledge flush failed: {e}");
                    }
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

    /// Stop the background thread and write a final flush (retried).
    /// Returns the entry count of the final learning-cache flush; the
    /// knowledge store flushes alongside (a knowledge flush error is
    /// reported but does not fail the cache flush).
    pub fn shutdown(mut self) -> io::Result<usize> {
        self.halt();
        if let Err(e) = self.service.save_knowledge(&knowledge_path(&self.path)) {
            eprintln!("skinner: final knowledge flush failed: {e}");
        }
        self.service
            .save_learning_cache_with_retry(&self.path, 3, Duration::from_millis(50))
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
            if let Err(e) = self.service.save_learning_cache_with_retry(
                &self.path,
                3,
                Duration::from_millis(50),
            ) {
                eprintln!("skinner: final cache flush failed: {e}");
            }
            if let Err(e) = self.service.save_knowledge(&knowledge_path(&self.path)) {
                eprintln!("skinner: final knowledge flush failed: {e}");
            }
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

    fn learned(seed_rounds: usize) -> LearnedState {
        let mut tree = UctTree::new(Perms { n: 3 }, UctConfig::default());
        for _ in 0..seed_rounds {
            let p = tree.choose();
            let r = if p[0] == 1 { 0.9 } else { 0.2 };
            tree.update(&p, r);
        }
        LearnedState {
            best_order: tree.best_path(),
            snapshot: tree.snapshot(),
            planned_orders: vec![vec![0, 1, 2], vec![1, 0, 2]],
        }
    }

    fn entry(name: &str, rounds: usize) -> Entry {
        (
            TemplateKey::from_canonical(format!("[{name}]|{name}.x=?")),
            vec![(name.to_string(), 3)],
            learned(rounds),
        )
    }

    #[test]
    fn record_round_trips() {
        let e = entry("t", 50);
        let r = decode_record(&encode_record(&e)).expect("decode");
        let (key, deps, learning) = e;
        assert_eq!(r.key, key);
        assert_eq!(r.deps, deps);
        assert_eq!(r.learning.best_order, learning.best_order);
        assert_eq!(r.learning.planned_orders, learning.planned_orders);
        assert_eq!(r.learning.snapshot.to_parts(), learning.snapshot.to_parts());
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
