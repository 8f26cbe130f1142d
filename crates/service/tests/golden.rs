//! Golden bytes of the learning-cache file (`SKLC`): a fixed two-record
//! file pinned byte for byte. Saving the records must produce exactly
//! these bytes, and loading these bytes must give the records back — so
//! a refactor of the encoder cannot move the on-disk format unnoticed.
//! A deliberate format change bumps the format version and re-pins; the
//! previous version's bytes stay as a fixture that must load nothing.

use skinner_query::TemplateKey;
use skinner_service::persist::{load_entries, save_entries, PersistRecord};
use skinner_service::LoadReport;
use skinner_uct::{SnapshotNode, TreeSnapshot};

const SKLC: &[u8] =
    b"SKLC\x02\x00\x00\x00\x93\x00\x00\x00\xf4P\x5c\xd2\x15\x03\xc4\xe0\x0d\x00\x00\x00[\
    r,s]|r.k=s.k\x02\x00\x00\x00\x01\x00\x00\x00r\x01\x00\x00\x00\x00\x00\x00\x00\x01\
    \x00\x00\x00s\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x02\
    \x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf4?\x02\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\
    \x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x02\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\xe0?\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\xff\
    \xff\xff\xff\xff\xff\xff\xffN\x00\x00\x00]\x01\xc9L\xb3K\xf2\xbf\x09\x00\x00\x00[u]|\
    u.v<?\x01\x00\x00\x00\x01\x00\x00\x00u\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\
    \xff\xff\xff";

/// The same two templates in format version 1, whose records also held
/// a best order and the planned orders.
const SKLC_V1: &[u8] =
    b"SKLC\x01\x00\x00\x00\xd3\x00\x00\x00\x99\xb4\xaa\xe8\xf0[*\xb6\x0d\x00\x00\x00[r,s]|\
    r.k=s.k\x02\x00\x00\x00\x01\x00\x00\x00r\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\
    \x00s\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
    \x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\
    \x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf4?\x02\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\
    \x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x02\x00\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\xe0?\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\xff\xff\
    \xff\xff\xff\xff\xff\xff^\x00\x00\x004^/\x80\x98\x83\x86z\x09\x00\x00\x00[u]|u.v<?\
    \x01\x00\x00\x00\x01\x00\x00\x00u\x07\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\
    \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff";

fn entries() -> Vec<PersistRecord> {
    let two_arms = TreeSnapshot::from_parts(
        vec![
            SnapshotNode {
                visits: 3,
                reward_sum: 1.25,
                actions: vec![0, 1],
                children: vec![1, usize::MAX],
            },
            SnapshotNode {
                visits: 2,
                reward_sum: 0.5,
                actions: vec![1],
                children: vec![usize::MAX],
            },
        ],
        3,
    )
    .unwrap();
    let one_arm = TreeSnapshot::from_parts(
        vec![SnapshotNode {
            visits: 0,
            reward_sum: 0.0,
            actions: vec![0],
            children: vec![usize::MAX],
        }],
        0,
    )
    .unwrap();
    vec![
        PersistRecord {
            key: TemplateKey::from_canonical("[r,s]|r.k=s.k".into()),
            deps: vec![("r".into(), 1), ("s".into(), 2)],
            snapshot: two_arms,
        },
        PersistRecord {
            key: TemplateKey::from_canonical("[u]|u.v<?".into()),
            deps: vec![("u".into(), 7)],
            snapshot: one_arm,
        },
    ]
}

#[test]
fn sklc_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("skinner_golden_sklc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.bin");

    assert_eq!(save_entries(&path, &entries()).unwrap(), 2);
    assert_eq!(std::fs::read(&path).unwrap(), SKLC, "encoded bytes moved");

    std::fs::write(&path, SKLC).unwrap();
    let (records, report) = load_entries(&path).unwrap();
    assert_eq!(
        report,
        LoadReport {
            loaded: 2,
            ..Default::default()
        }
    );
    for (r, e) in records.iter().zip(entries()) {
        assert_eq!(r.key, e.key);
        assert_eq!(r.deps, e.deps);
        assert_eq!(r.snapshot.to_parts(), e.snapshot.to_parts());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sklc_v1_file_loads_nothing() {
    let dir = std::env::temp_dir().join(format!("skinner_golden_sklc_v1_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.bin");

    // A version-1 file is a foreign format: nothing loads and the report
    // says why, so a service starts cold instead of misreading records.
    std::fs::write(&path, SKLC_V1).unwrap();
    let (records, report) = load_entries(&path).unwrap();
    assert!(records.is_empty());
    assert_eq!(
        report,
        LoadReport {
            format_mismatch: true,
            ..Default::default()
        }
    );
    std::fs::remove_dir_all(&dir).ok();
}
