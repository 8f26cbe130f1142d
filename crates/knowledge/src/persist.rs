//! Crash-safe persistence of the knowledge store: one checksummed
//! record file ([`skinner_storage::codec`]: atomic save, tolerant load)
//! with the learning cache's durability contract, applied to the
//! knowledge store's (much smaller) entries. Corruption costs some
//! priors, never availability.
//!
//! ```text
//! magic "SKKS", format version 1; one record per entry:
//! payload: tag u8 (0 = table entry, 1 = edge entry, 2 = reward scale)
//!          fingerprint string (empty for the scale record)
//!          table: name, version, sel_sum bits, count
//!          edge : deps (name, version)*, fwd share sum bits + count,
//!                 rev share sum bits + count
//!          scale: ln(per-run mean reward) sum bits, run count
//! ```
//!
//! Fault-injection sites: `knowledge.read`, `knowledge.write`,
//! `knowledge.fsync`, `knowledge.rename` (see
//! [`skinner_engine::failpoints`]).

use crate::store::{EdgeStat, KnowledgeStore, TableStat};
pub use skinner_storage::codec::LoadReport as KnowledgeLoadReport;
use skinner_storage::codec::{put_f64, put_str, put_u32, put_u64, put_u8, Cursor, RecordFile};
use std::io;
use std::path::Path;

/// The knowledge-store file: magic "SKinner Knowledge Store", format
/// version 1 (bump on any change to the bytes), payloads capped at
/// 1 MiB.
const FILE: RecordFile = RecordFile {
    magic: *b"SKKS",
    version: 1,
    max_record_bytes: 1 << 20,
    sites: "knowledge",
};

const TAG_TABLE: u8 = 0;
const TAG_EDGE: u8 = 1;
const TAG_SCALE: u8 = 2;

fn encode_table(fingerprint: &str, s: &TableStat) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    put_u8(&mut p, TAG_TABLE);
    put_str(&mut p, fingerprint);
    put_str(&mut p, &s.name);
    put_u64(&mut p, s.version);
    put_f64(&mut p, s.sel_sum);
    put_u64(&mut p, s.count);
    p
}

fn encode_edge(fingerprint: &str, s: &EdgeStat) -> Vec<u8> {
    let mut p = Vec::with_capacity(96);
    put_u8(&mut p, TAG_EDGE);
    put_str(&mut p, fingerprint);
    put_u32(&mut p, s.deps.len() as u32);
    for (name, version) in &s.deps {
        put_str(&mut p, name);
        put_u64(&mut p, *version);
    }
    put_f64(&mut p, s.fwd.0);
    put_u64(&mut p, s.fwd.1);
    put_f64(&mut p, s.rev.0);
    put_u64(&mut p, s.rev.1);
    p
}

fn encode_scale(sum: f64, runs: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    put_u8(&mut p, TAG_SCALE);
    put_str(&mut p, "");
    put_f64(&mut p, sum);
    put_u64(&mut p, runs);
    p
}

/// One decoded entry.
#[derive(Debug, Clone)]
enum Decoded {
    Table(String, TableStat),
    Edge(String, EdgeStat),
    Scale(f64, u64),
}

fn decode_record(payload: &[u8]) -> Option<Decoded> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    let fingerprint = c.str()?;
    let decoded = match tag {
        TAG_TABLE => {
            let name = c.str()?;
            let version = c.u64()?;
            let sel_sum = c.f64()?;
            let count = c.u64()?;
            if !sel_sum.is_finite() || sel_sum < 0.0 {
                return None;
            }
            Decoded::Table(
                fingerprint,
                TableStat {
                    name,
                    version,
                    sel_sum,
                    count,
                },
            )
        }
        TAG_EDGE => {
            // A dep is a name (≥ 4 bytes) and a version (8 bytes).
            let n_deps = c.count(12)?;
            let deps = (0..n_deps)
                .map(|_| Some((c.str()?, c.u64()?)))
                .collect::<Option<_>>()?;
            let fwd = (c.f64()?, c.u64()?);
            let rev = (c.f64()?, c.u64()?);
            if !fwd.0.is_finite() || !rev.0.is_finite() {
                return None;
            }
            Decoded::Edge(fingerprint, EdgeStat { deps, fwd, rev })
        }
        TAG_SCALE => {
            // A log-sum: negative for sub-1.0 per-run means.
            let sum = c.f64()?;
            let runs = c.u64()?;
            if !sum.is_finite() {
                return None;
            }
            Decoded::Scale(sum, runs)
        }
        _ => return None,
    };
    c.done().then_some(decoded)
}

/// Serialize the store to `path` atomically (see [`RecordFile::save`]).
/// Returns the entry count written; the reward-scale record rides along
/// uncounted.
pub fn save(store: &KnowledgeStore, path: &Path) -> io::Result<usize> {
    let (tables, edges) = store.export();
    let (scale_sum, scale_runs) = store.scale_raw();
    let mut payloads = Vec::with_capacity(1 + tables.len() + edges.len());
    if scale_runs > 0 {
        payloads.push(encode_scale(scale_sum, scale_runs));
    }
    payloads.extend(tables.iter().map(|(fp, s)| encode_table(fp, s)));
    payloads.extend(edges.iter().map(|(fp, s)| encode_edge(fp, s)));
    FILE.save(path, &payloads)?;
    Ok(tables.len() + edges.len())
}

/// Load every decodable entry from `path` into `store`, keeping only
/// entries whose every `(table, version)` dependency satisfies
/// `is_current` (the others count as `stale`). Corruption degrades as
/// [`RecordFile::load`] describes; a missing file is a fresh start.
pub fn load_with(
    store: &mut KnowledgeStore,
    path: &Path,
    is_current: impl Fn(&str, u64) -> bool,
) -> io::Result<KnowledgeLoadReport> {
    let (records, mut report) = FILE.load(path, decode_record)?;
    for record in records {
        match record {
            Decoded::Table(fp, s) if is_current(&s.name, s.version) => {
                store.seed_table_entry(fp, s)
            }
            Decoded::Edge(fp, s) if s.deps.iter().all(|(n, v)| is_current(n, *v)) => {
                store.seed_edge_entry(fp, s)
            }
            Decoded::Scale(sum, runs) => {
                // Calibration, not an entry: merged, never counted.
                store.seed_scale_entry(sum, runs);
                report.loaded -= 1;
            }
            Decoded::Table(..) | Decoded::Edge(..) => {
                report.loaded -= 1;
                report.stale += 1;
            }
        }
    }
    Ok(report)
}

/// [`load_with`] accepting every catalog version (offline tools).
pub fn load(store: &mut KnowledgeStore, path: &Path) -> io::Result<KnowledgeLoadReport> {
    load_with(store, path, |_, _| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{EdgeObs, KnowledgeConfig, Observation, TableObs};

    fn sample() -> KnowledgeStore {
        let mut store = KnowledgeStore::default();
        store.seed_table_entry(
            "tbl:a|(c1Lt?)".into(),
            TableStat {
                name: "a".into(),
                version: 3,
                sel_sum: 0.5,
                count: 2,
            },
        );
        store.seed_table_entry(
            "tbl:b|".into(),
            TableStat {
                name: "b".into(),
                version: 1,
                sel_sum: 1.5,
                count: 2,
            },
        );
        store.seed_edge_entry(
            "edge:a(c0)~b(c0)|single".into(),
            EdgeStat {
                deps: vec![("a".into(), 3), ("b".into(), 1)],
                fwd: (3.0, 5),
                rev: (0.5, 4),
            },
        );
        store
    }

    fn dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trips_and_missing_file_is_fresh() {
        let d = dir("skinner_knowledge_rt");
        let path = d.join("knowledge.bin");
        let store = sample();
        assert_eq!(save(&store, &path).unwrap(), 3);

        let mut back = KnowledgeStore::default();
        let report = load(&mut back, &path).unwrap();
        assert_eq!(report.loaded, 3);
        assert_eq!(report.corrupt, 0);
        assert_eq!(back.export(), store.export());

        let mut fresh = KnowledgeStore::default();
        let none = load(&mut fresh, &d.join("absent.bin")).unwrap();
        assert_eq!(none, KnowledgeLoadReport::default());
        assert!(fresh.is_empty());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn reward_scale_round_trips_and_merges() {
        let d = dir("skinner_knowledge_scale");
        let path = d.join("knowledge.bin");
        let mut store = sample();
        store.seed_scale_entry(5.0 * 0.1f64.ln(), 5);
        // The scale record rides along without counting as an entry.
        assert_eq!(save(&store, &path).unwrap(), 3);

        let mut back = KnowledgeStore::default();
        back.seed_scale_entry(5.0 * 0.4f64.ln(), 5);
        let report = load(&mut back, &path).unwrap();
        assert_eq!(report.loaded, 3);
        // Log-sum accumulators merge; the geometric mean of five 0.1
        // runs and five 0.4 runs is sqrt(0.1 * 0.4) = 0.2, scaled by
        // the conservative 1/16 calibration factor.
        assert_eq!(back.scale_raw().1, 10);
        assert!((back.reward_scale() - 0.2 / 16.0).abs() < 1e-12);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn stale_versions_are_filtered_at_load() {
        let d = dir("skinner_knowledge_stale");
        let path = d.join("knowledge.bin");
        save(&sample(), &path).unwrap();
        let mut back = KnowledgeStore::default();
        // Table `a` was re-registered since the save: its selectivity
        // entry and the a~b edge are stale, b's entry survives.
        let report = load_with(&mut back, &path, |name, version| {
            (name, version) != ("a", 3)
        })
        .unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.stale, 2);
        assert_eq!(back.len(), (1, 0));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn saturated_counts_load_and_keep_accumulating() {
        // A checksum-valid file may carry counts at u64::MAX. Merging the
        // scale, folding another run into the entries and evicting among
        // them at capacity must saturate, not overflow.
        let d = dir("skinner_knowledge_saturated");
        let path = d.join("knowledge.bin");
        let deps = vec![("a".to_string(), 3), ("b".to_string(), 1)];
        let mut store = KnowledgeStore::default();
        store.seed_table_entry(
            "tbl:a|".into(),
            TableStat {
                name: "a".into(),
                version: 3,
                sel_sum: 0.5,
                count: u64::MAX,
            },
        );
        store.seed_edge_entry(
            "edge:a~b".into(),
            EdgeStat {
                deps: deps.clone(),
                fwd: (1.0, u64::MAX),
                rev: (1.0, u64::MAX),
            },
        );
        store.seed_scale_entry(-1.0, u64::MAX);
        save(&store, &path).unwrap();

        let mut back = KnowledgeStore::new(KnowledgeConfig {
            capacity: 1,
            ..KnowledgeConfig::default()
        });
        back.seed_scale_entry(-1.0, 1);
        assert_eq!(load(&mut back, &path).unwrap().loaded, 2);
        let edge = |fingerprint: &str| EdgeObs {
            fingerprint: fingerprint.into(),
            deps: deps.clone(),
            fwd: (1.0, 3),
            rev: (0.5, 2),
        };
        back.record(&Observation {
            tables: vec![TableObs {
                fingerprint: "tbl:a|".into(),
                name: "a".into(),
                version: 3,
                filtered: 1,
                base: 2,
            }],
            edges: vec![edge("edge:a~b")],
        });
        let (tables, edges) = back.export();
        assert_eq!(tables[0].1.count, u64::MAX);
        assert_eq!((edges[0].1.fwd.1, edges[0].1.rev.1), (u64::MAX, u64::MAX));
        assert_eq!(back.scale_raw().1, u64::MAX);

        back.record(&Observation {
            tables: vec![],
            edges: vec![edge("edge:b~a")],
        });
        assert_eq!(back.len(), (1, 1));
        assert_eq!(back.stats().evicted, 1);
        std::fs::remove_dir_all(&d).ok();
    }
}
