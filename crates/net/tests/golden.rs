//! Golden bytes of the wire protocol (`SKNF`): one frame per frame type,
//! including a `RowBatch` carrying every `Value` tag, pinned byte for
//! byte. Encoding the messages must produce exactly these bytes, and
//! decoding these bytes must give the messages back — so a refactor of
//! the codec cannot move the wire format unnoticed.

use skinner_net::frame::{read_frame, write_frame};
use skinner_net::proto::{BATCH_FIRST, BATCH_LAST};
use skinner_net::{BatchSummary, BusyScope, ErrorCode, Message, WireStats, PROTOCOL_VERSION};
use skinner_storage::Value;

const SKNF: &[u8] =
    b"SKNF\x01\x0e\x00\x00\x00>\xb0\x0a\xbd\x96@\xad\x84\x01\x00\x00\x00\x06\x00\x00\x00go\
    ldenSKNF\x02\x15\x00\x00\x00\x1c\x80\xa6\xf4b~\xc7>\x01\x00\x00\x00\x05\x00\x00\x00s\
    erve\x02\x00\x00\x00\x00\x00\x00\x00SKNF\x03\x08\x00\x00\x00*\xd4c\xb4\xe3G\xcbu\x02\
    \x03\x00\x00\x00capSKNF\x04\x1c\x00\x00\x00\xfcm\x9d\xae\x05.g\x0c\x07\x00\x00\x00\
    \x00\x00\x00\x00\x08\x00\x00\x00SELECT\x201\xfa\x00\x00\x00\x00\x00\x00\x00SKNF\x05\
    \x08\x00\x00\x00\x13J\xee\x11\x02Li:\x07\x00\x00\x00\x00\x00\x00\x00SKNF\x06o\x00\
    \x00\x003\x9a\xe9\x95O#\xf2\xf2\x07\x00\x00\x00\x00\x00\x00\x00\x03\x03\x00\x00\x00\
    \x01\x00\x00\x00a\x01\x00\x00\x00b\x01\x00\x00\x00c\x02\x00\x00\x00\x03\x00\x00\x00\
    \x00\x01\xfd\xff\xff\xff\xff\xff\xff\xff\x02\x00\x00\x00\x00\x00\x00\x04@\x03\x00\
    \x00\x00\x03\x03\x00\x00\x00h\xc3\xa9\x04'F\x00\x00\x00\x00\x00\x00\x05\xfc\xff\xff\
    \xff\xff\xff\xff\xff\x02\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\
    \x01\x00@\xe2\x01\x00\x00\x00\x00\x00SKNF\x07\x10\x00\x00\x00^\x0c=\x0c\x93\xca\x0b\
    \xdd\x07\x00\x00\x00\x00\x00\x00\x00\x01\x03\x00\x00\x00badSKNF\x08\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00SKNF\x09\x17\x00\x00\x00\xd9\xf4~\xca\x82\xce\x15\
    \xe6\x01\x00\x00\x00\x07\x00\x00\x00queries*\x00\x00\x00\x00\x00\x00\x00SKNF\x0a\x07\
    \x00\x00\x00T*\x88\x9c\xe6\x80\xc4\x84\x03\x00\x00\x00byeSKNF\x0b\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00";

fn messages() -> Vec<Message> {
    vec![
        Message::Hello {
            version: PROTOCOL_VERSION,
            client: "golden".into(),
        },
        Message::Welcome {
            version: PROTOCOL_VERSION,
            server: "serve".into(),
            core_budget: 2,
        },
        Message::Busy {
            scope: BusyScope::Queries,
            message: "cap".into(),
        },
        Message::Query {
            id: 7,
            sql: "SELECT 1".into(),
            timeout_ms: 250,
        },
        Message::Cancel { id: 7 },
        Message::RowBatch {
            id: 7,
            flags: BATCH_FIRST | BATCH_LAST,
            columns: vec!["a".into(), "b".into(), "c".into()],
            rows: vec![
                vec![Value::Null, Value::Int(-3), Value::Float(2.5)],
                vec![Value::str("hé"), Value::Date(17959), Value::Interval(-4)],
            ],
            summary: Some(BatchSummary {
                rows: 2,
                slices: 5,
                cache_hit: true,
                warm_start: false,
                total_nanos: 123_456,
            }),
        },
        Message::Error {
            id: 7,
            code: ErrorCode::Parse,
            message: "bad".into(),
        },
        Message::StatsRequest,
        Message::Stats(WireStats {
            counters: vec![("queries".into(), 42)],
        }),
        Message::Goodbye {
            reason: "bye".into(),
        },
        Message::Shutdown,
    ]
}

#[test]
fn sknf_bytes_are_pinned() {
    let mut encoded = Vec::new();
    for m in messages() {
        write_frame(&mut encoded, m.frame_type(), &m.encode()).unwrap();
    }
    assert_eq!(encoded, SKNF, "encoded bytes moved");

    let mut r = SKNF;
    for want in messages() {
        let (ty, payload) = read_frame(&mut r).unwrap().expect("a frame");
        assert_eq!(ty, want.frame_type());
        assert_eq!(Message::decode(ty, &payload), Some(want));
    }
    assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
}
