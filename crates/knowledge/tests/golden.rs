//! Golden bytes of the knowledge-store file (`SKKS`): one reward-scale,
//! one table and one edge record, pinned byte for byte. Saving the store
//! must produce exactly these bytes, and loading these bytes must give
//! the store back — so a refactor of the encoder cannot move the
//! on-disk format unnoticed.

use skinner_knowledge::persist::{load, save};
use skinner_knowledge::{EdgeStat, KnowledgeLoadReport, KnowledgeStore, TableStat};

const SKKS: &[u8] =
    b"SKKS\x01\x00\x00\x00\x15\x00\x00\x00\x0d?\x83\xcdcP\xe6:\x02\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x04\xc0\x02\x00\x00\x00\x00\x00\x00\x00/\x00\x00\x00\xcb\xfd\x8b\
    \xdd\x8f\xe9\x8c\x9d\x00\x0d\x00\x00\x00tbl:a|(c1Lt?)\x01\x00\x00\x00a\x03\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xd0?\x02\x00\x00\x00\x00\x00\x00\x00Z\
    \x00\x00\x00\\B\"\xba\x1ftT\xe6\x01\x17\x00\x00\x00edge:a(c0)~b(c0)|single\x02\x00\
    \x00\x00\x01\x00\x00\x00a\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00b\x01\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf8?\x04\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\xe0?\x02\x00\x00\x00\x00\x00\x00\x00";

fn store() -> KnowledgeStore {
    let mut store = KnowledgeStore::default();
    store.seed_scale_entry(-2.5, 2);
    store.seed_table_entry(
        "tbl:a|(c1Lt?)".into(),
        TableStat {
            name: "a".into(),
            version: 3,
            sel_sum: 0.25,
            count: 2,
        },
    );
    store.seed_edge_entry(
        "edge:a(c0)~b(c0)|single".into(),
        EdgeStat {
            deps: vec![("a".into(), 3), ("b".into(), 1)],
            fwd: (1.5, 4),
            rev: (0.5, 2),
        },
    );
    store
}

#[test]
fn skks_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("skinner_golden_skks_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("knowledge.bin");

    assert_eq!(save(&store(), &path).unwrap(), 2);
    assert_eq!(std::fs::read(&path).unwrap(), SKKS, "encoded bytes moved");

    std::fs::write(&path, SKKS).unwrap();
    let mut back = KnowledgeStore::default();
    let report = load(&mut back, &path).unwrap();
    assert_eq!(
        report,
        KnowledgeLoadReport {
            loaded: 2,
            ..Default::default()
        }
    );
    assert_eq!(back.export(), store().export());
    assert_eq!(back.scale_raw(), store().scale_raw());
    std::fs::remove_dir_all(&dir).ok();
}
