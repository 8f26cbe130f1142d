//! Learning-cache persistence: a restarted service starts warm, and
//! every corruption mode degrades (fewer warm starts) instead of
//! failing (no service, wrong answers).
//!
//! "Restart" here is two `QueryService` instances over identically
//! constructed catalogs — the second loads what the first saved and
//! must (a) serve its first repeat of a persisted template as a cache
//! hit with a warm start, and (b) answer byte-for-byte what the first
//! service answered.

use skinner_engine::SkinnerCConfig;
use skinner_service::{knowledge_path, CachePersister, QueryService, ServiceConfig};
use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn catalog(seed: u64) -> Catalog {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let mut mk = |name: &str, n: usize, keys: u64| {
        let k: Vec<i64> = (0..n).map(|_| rng.gen_range(0..keys) as i64).collect();
        let v: Vec<i64> = (0..n).map(|i| i as i64).collect();
        Table::new(
            name,
            Schema::new([
                ColumnDef::new("k", ValueType::Int),
                ColumnDef::new("v", ValueType::Int),
            ]),
            vec![Column::from_ints(k), Column::from_ints(v)],
        )
        .unwrap()
    };
    let (r, s, u) = (mk("r", 256, 32), mk("s", 512, 32), mk("u", 128, 32));
    cat.register(r);
    cat.register(s);
    cat.register(u);
    cat
}

fn service(seed: u64) -> Arc<QueryService> {
    QueryService::new(
        catalog(seed),
        skinner_query::UdfRegistry::new(),
        ServiceConfig {
            engine: SkinnerCConfig {
                budget: 200,
                threads: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

const SQL_A: &str = "SELECT COUNT(*) AS n FROM r, s, u WHERE r.k = s.k AND s.k = u.k";
const SQL_B: &str = "SELECT MIN(s.v) AS lo, MAX(s.v) AS hi FROM s, u WHERE s.k = u.k";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skinner-persistence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn restarted_service_starts_warm() {
    let path = tmp("warm.bin");
    let first = service(41);
    let expected_a = first.session().execute(SQL_A).expect("first run").table;
    let expected_b = first.session().execute(SQL_B).expect("first run").table;
    let n = first.save_learning_cache(&path).expect("save");
    assert_eq!(n, 2, "both templates persisted");

    // "Restart": a fresh service over the same data, warm-started from
    // the file. Its *first* execution of each template must already be
    // a cache hit with a warm start, and the answers must match.
    let second = service(41);
    let report = second.load_learning_cache(&path).expect("load");
    assert_eq!(report.loaded, 2);
    assert_eq!(report.corrupt, 0);
    assert_eq!(report.stale, 0);
    assert!(!report.truncated);

    let a = second.session().execute(SQL_A).expect("warm run");
    assert!(a.stats.cache_hit, "persisted entry not served as a hit");
    assert!(a.stats.warm_start, "persisted snapshot not warm-starting");
    assert_eq!(a.table, expected_a);
    let b = second.session().execute(SQL_B).expect("warm run");
    assert!(b.stats.cache_hit);
    assert_eq!(b.table, expected_b);
    std::fs::remove_file(&path).ok();
}

#[test]
fn warm_start_keeps_knowledge_across_persister_restarts() {
    // A server restarted on the same `--cache` path warm-starts both
    // files, runs a persister on that path, and flushes at shutdown. The
    // knowledge it loaded must survive into the next restart: a
    // persister started over an unloaded store would overwrite the
    // knowledge file with nothing.
    let path = tmp("restarts.bin");
    let first = service(45);
    first.session().execute(SQL_A).expect("run");
    let persister = CachePersister::start(first.clone(), &path, Duration::from_secs(3600));
    assert_eq!(persister.shutdown().expect("flush"), 1);

    let mut knowledge = Vec::new();
    for _restart in 0..2 {
        let svc = service(45);
        let warm = svc.warm_start(&path);
        let (learning, known) = (warm.learning.expect("load"), warm.knowledge.expect("load"));
        assert_eq!(
            (learning.loaded, learning.corrupt, learning.stale),
            (1, 0, 0)
        );
        assert!(known.loaded > 0, "knowledge store was not persisted");
        knowledge.push(known.loaded);
        CachePersister::start(svc, &path, Duration::from_secs(3600))
            .shutdown()
            .expect("flush");
    }
    assert_eq!(knowledge[0], knowledge[1], "a restart lost knowledge");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(knowledge_path(&path)).ok();
}

#[test]
fn stale_entries_are_skipped_on_load() {
    let path = tmp("stale.bin");
    let first = service(43);
    first.session().execute(SQL_A).expect("run"); // touches r, s, u
    first.session().execute(SQL_B).expect("run"); // touches s, u
    first.save_learning_cache(&path).expect("save");

    // The restarted service has a *different* `r` (data changed across
    // the restart): entries depending on r must be dropped as stale,
    // the s/u-only entry must survive.
    let second = service(43);
    second.register_table(
        Table::new(
            "r",
            Schema::new([
                ColumnDef::new("k", ValueType::Int),
                ColumnDef::new("v", ValueType::Int),
            ]),
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_ints(vec![10, 20, 30]),
            ],
        )
        .unwrap(),
    );
    let report = second.load_learning_cache(&path).expect("load");
    assert_eq!(report.loaded, 1, "s/u template survives");
    assert_eq!(report.stale, 1, "r-dependent template dropped");

    // The stale template runs cold — and correct for the *new* data.
    let a = second.session().execute(SQL_A).expect("cold run");
    assert!(!a.stats.cache_hit, "stale learning must not be served");
    let b = second.session().execute(SQL_B).expect("warm run");
    assert!(b.stats.cache_hit);
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_file_keeps_the_complete_prefix() {
    let path = tmp("truncated.bin");
    let first = service(47);
    first.session().execute(SQL_A).expect("run");
    first.session().execute(SQL_B).expect("run");
    first.save_learning_cache(&path).expect("save");

    // Tear the file mid-way through the second record (what a crash
    // during a non-atomic write would leave; the atomic protocol makes
    // this unreachable in practice, but the loader defends anyway).
    let bytes = std::fs::read(&path).unwrap();
    let first_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let cut = 8 + 12 + first_len + 20;
    assert!(cut < bytes.len(), "need two records to tear the second");
    std::fs::write(&path, &bytes[..cut]).unwrap();

    let second = service(47);
    let report = second.load_learning_cache(&path).expect("load");
    assert_eq!(report.loaded, 1);
    assert!(report.truncated);
    // Still correct, still serving; one template warm, one cold.
    let warm_hits: usize = [SQL_A, SQL_B]
        .iter()
        .filter(|sql| {
            second
                .session()
                .execute(sql)
                .expect("post-truncation run")
                .stats
                .cache_hit
        })
        .count();
    assert_eq!(warm_hits, 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_and_foreign_files_load_empty_not_fatal() {
    let path = tmp("garbage.bin");
    std::fs::write(&path, b"this is not a skinner cache file at all").unwrap();
    let svc = service(53);
    let report = svc.load_learning_cache(&path).expect("load");
    assert_eq!(report.loaded, 0);
    assert!(report.format_mismatch);
    svc.session().execute(SQL_A).expect("service serves cold");

    // Empty file: same story.
    std::fs::write(&path, b"").unwrap();
    let report = svc.load_learning_cache(&path).expect("load");
    assert_eq!(report.loaded, 0);
    assert!(report.format_mismatch);
    std::fs::remove_file(&path).ok();
}

#[test]
fn save_load_save_is_stable() {
    // A second generation of save/load (including entries that were
    // themselves loaded from disk) round-trips identically.
    let p1 = tmp("gen1.bin");
    let p2 = tmp("gen2.bin");
    let first = service(59);
    let expected = first.session().execute(SQL_A).expect("run").table;
    first.save_learning_cache(&p1).expect("save gen1");

    let second = service(59);
    second.load_learning_cache(&p1).expect("load gen1");
    second.save_learning_cache(&p2).expect("save gen2");

    let third = service(59);
    let report = third.load_learning_cache(&p2).expect("load gen2");
    assert_eq!(report.loaded, 1);
    let a = third.session().execute(SQL_A).expect("run");
    assert!(a.stats.cache_hit && a.stats.warm_start);
    assert_eq!(a.table, expected);
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
}
