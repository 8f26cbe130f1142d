//! Message payloads of the wire protocol: the typed layer above
//! [`frame`](crate::frame).
//!
//! Encoders and decoders use the shared record codec
//! ([`skinner_storage::codec`]): every decoder runs over its
//! bounds-checked cursor, where *any* overrun, hostile count or trailing
//! garbage makes the whole payload invalid — a frame that passed its
//! checksum but decodes wrong is a protocol violation, not a guess.
//! Result cells are the codec's tagged [`Value`] cells ([`put_value`]).

use crate::frame::FrameType;
pub use skinner_storage::codec::put_value;
use skinner_storage::codec::{get_value, put_str, put_u32, put_u64, put_u8, Cursor};
use skinner_storage::Value;

/// Encode one whole row — the canonical per-row byte form the load
/// harness sorts and compares for result verification (the engine's
/// row *order* follows the join orders it learned, so a warm-started
/// run emits rows in a different order than a cold one; the row
/// *multiset* is the same).
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 9);
    for v in row {
        put_value(&mut out, v);
    }
    out
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// What admission refused (carried by a `Busy` frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BusyScope {
    /// The server's connection cap is reached; the connection closes
    /// after this frame.
    Connections = 1,
    /// The server's in-flight query cap is reached; the connection
    /// stays open — retry later.
    Queries = 2,
}

impl BusyScope {
    fn from_u8(v: u8) -> Option<BusyScope> {
        Some(match v {
            1 => BusyScope::Connections,
            2 => BusyScope::Queries,
            _ => return None,
        })
    }
}

/// Error classes carried by an `Error` frame (the wire projection of
/// `ServiceError`, plus protocol-level violations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// SQL failed to parse or validate.
    Parse = 1,
    /// The query was cancelled.
    Cancelled = 2,
    /// The query timed out.
    TimedOut = 3,
    /// The result-memory budget tripped.
    Memory = 4,
    /// Isolated execution panic or other internal failure.
    Internal = 5,
    /// The client violated the protocol (bad frame, bad sequence).
    Protocol = 6,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Parse,
            2 => ErrorCode::Cancelled,
            3 => ErrorCode::TimedOut,
            4 => ErrorCode::Memory,
            5 => ErrorCode::Internal,
            6 => ErrorCode::Protocol,
            _ => return None,
        })
    }
}

/// RowBatch flag: this is the first batch of the result (it carries the
/// column names).
pub const BATCH_FIRST: u8 = 1;
/// RowBatch flag: this is the last batch (it carries the summary; the
/// query is complete).
pub const BATCH_LAST: u8 = 2;

/// Execution summary carried by the final `RowBatch` of a query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchSummary {
    /// Total rows delivered for the query.
    pub rows: u64,
    /// Join-phase slices executed.
    pub slices: u64,
    /// Served from the learning cache?
    pub cache_hit: bool,
    /// Warm-started the learner?
    pub warm_start: bool,
    /// Total server-side execution time in nanoseconds.
    pub total_nanos: u64,
}

/// Service counters carried by a `Stats` frame — encoded as named
/// `(key, u64)` pairs so the set can grow without a version bump
/// (unknown keys are data, not errors).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Counter name/value pairs, in server order.
    pub counters: Vec<(String, u64)>,
}

impl WireStats {
    /// Value of counter `name`, if the server sent it.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// One protocol message (the typed payload of one frame).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: must be the first frame on a connection.
    Hello {
        /// Client's protocol version ([`crate::frame::PROTOCOL_VERSION`]).
        version: u32,
        /// Free-form client identification (shown in diagnostics).
        client: String,
    },
    /// Server → client: handshake accepted.
    Welcome {
        /// Server's protocol version.
        version: u32,
        /// Free-form server identification.
        server: String,
        /// The service's total core budget (for client-side sizing).
        core_budget: u64,
    },
    /// Server → client: admission refused.
    Busy {
        /// What was refused.
        scope: BusyScope,
        /// Human-readable explanation.
        message: String,
    },
    /// Client → server: execute `sql`.
    Query {
        /// Client-chosen id; echoed on every response frame.
        id: u64,
        /// The SQL text.
        sql: String,
        /// Per-query timeout in milliseconds; `0` = server default.
        timeout_ms: u64,
    },
    /// Client → server: cancel the in-flight query `id`.
    Cancel {
        /// The id from the `Query` frame.
        id: u64,
    },
    /// Server → client: a batch of result rows for query `id`.
    RowBatch {
        /// The id from the `Query` frame.
        id: u64,
        /// [`BATCH_FIRST`] | [`BATCH_LAST`].
        flags: u8,
        /// Column names; present iff `flags & BATCH_FIRST`.
        columns: Vec<String>,
        /// The rows of this batch.
        rows: Vec<Vec<Value>>,
        /// Execution summary; present iff `flags & BATCH_LAST`.
        summary: Option<BatchSummary>,
    },
    /// Server → client: the query (or the protocol) failed.
    Error {
        /// The offending query id (`0` for connection-level errors).
        id: u64,
        /// Error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server: request service counters.
    StatsRequest,
    /// Server → client: service counters.
    Stats(WireStats),
    /// Either direction: orderly close (the peer should expect no
    /// further frames).
    Goodbye {
        /// Why the connection is closing.
        reason: String,
    },
    /// Client → server: drain and shut the whole server down.
    Shutdown,
}

impl Message {
    /// The frame type this message travels as.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Message::Hello { .. } => FrameType::Hello,
            Message::Welcome { .. } => FrameType::Welcome,
            Message::Busy { .. } => FrameType::Busy,
            Message::Query { .. } => FrameType::Query,
            Message::Cancel { .. } => FrameType::Cancel,
            Message::RowBatch { .. } => FrameType::RowBatch,
            Message::Error { .. } => FrameType::Error,
            Message::StatsRequest => FrameType::StatsRequest,
            Message::Stats(_) => FrameType::Stats,
            Message::Goodbye { .. } => FrameType::Goodbye,
            Message::Shutdown => FrameType::Shutdown,
        }
    }

    /// Encode the payload bytes (framing is the caller's job).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(64);
        match self {
            Message::Hello { version, client } => {
                put_u32(&mut p, *version);
                put_str(&mut p, client);
            }
            Message::Welcome {
                version,
                server,
                core_budget,
            } => {
                put_u32(&mut p, *version);
                put_str(&mut p, server);
                put_u64(&mut p, *core_budget);
            }
            Message::Busy { scope, message } => {
                put_u8(&mut p, *scope as u8);
                put_str(&mut p, message);
            }
            Message::Query {
                id,
                sql,
                timeout_ms,
            } => {
                put_u64(&mut p, *id);
                put_str(&mut p, sql);
                put_u64(&mut p, *timeout_ms);
            }
            Message::Cancel { id } => put_u64(&mut p, *id),
            Message::RowBatch {
                id,
                flags,
                columns,
                rows,
                summary,
            } => {
                put_u64(&mut p, *id);
                put_u8(&mut p, *flags);
                if *flags & BATCH_FIRST != 0 {
                    put_u32(&mut p, columns.len() as u32);
                    for c in columns {
                        put_str(&mut p, c);
                    }
                }
                put_u32(&mut p, rows.len() as u32);
                for row in rows {
                    put_u32(&mut p, row.len() as u32);
                    for v in row {
                        put_value(&mut p, v);
                    }
                }
                if *flags & BATCH_LAST != 0 {
                    let s = summary.unwrap_or_default();
                    put_u64(&mut p, s.rows);
                    put_u64(&mut p, s.slices);
                    put_u8(&mut p, s.cache_hit as u8);
                    put_u8(&mut p, s.warm_start as u8);
                    put_u64(&mut p, s.total_nanos);
                }
            }
            Message::Error { id, code, message } => {
                put_u64(&mut p, *id);
                put_u8(&mut p, *code as u8);
                put_str(&mut p, message);
            }
            Message::StatsRequest | Message::Shutdown => {}
            Message::Stats(stats) => {
                put_u32(&mut p, stats.counters.len() as u32);
                for (k, v) in &stats.counters {
                    put_str(&mut p, k);
                    put_u64(&mut p, *v);
                }
            }
            Message::Goodbye { reason } => put_str(&mut p, reason),
        }
        p
    }

    /// Decode a payload for frame type `ty`. `None` = protocol
    /// violation (undecodable or trailing garbage).
    pub fn decode(ty: FrameType, payload: &[u8]) -> Option<Message> {
        let mut c = Cursor::new(payload);
        let msg = match ty {
            FrameType::Hello => Message::Hello {
                version: c.u32()?,
                client: c.str()?,
            },
            FrameType::Welcome => Message::Welcome {
                version: c.u32()?,
                server: c.str()?,
                core_budget: c.u64()?,
            },
            FrameType::Busy => Message::Busy {
                scope: BusyScope::from_u8(c.u8()?)?,
                message: c.str()?,
            },
            FrameType::Query => Message::Query {
                id: c.u64()?,
                sql: c.str()?,
                timeout_ms: c.u64()?,
            },
            FrameType::Cancel => Message::Cancel { id: c.u64()? },
            FrameType::RowBatch => {
                let id = c.u64()?;
                let flags = c.u8()?;
                let mut columns = Vec::new();
                if flags & BATCH_FIRST != 0 {
                    // Each column name costs ≥ 4 bytes on the wire.
                    let n = c.count(4)?;
                    for _ in 0..n {
                        columns.push(c.str()?);
                    }
                }
                // Each row costs ≥ 4 bytes (its cell count), each cell
                // ≥ 1 (its tag).
                let n_rows = c.count(4)?;
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let n_cells = c.count(1)?;
                    let mut row = Vec::with_capacity(n_cells);
                    for _ in 0..n_cells {
                        row.push(get_value(&mut c)?);
                    }
                    rows.push(row);
                }
                let summary = if flags & BATCH_LAST != 0 {
                    Some(BatchSummary {
                        rows: c.u64()?,
                        slices: c.u64()?,
                        cache_hit: c.u8()? != 0,
                        warm_start: c.u8()? != 0,
                        total_nanos: c.u64()?,
                    })
                } else {
                    None
                };
                Message::RowBatch {
                    id,
                    flags,
                    columns,
                    rows,
                    summary,
                }
            }
            FrameType::Error => Message::Error {
                id: c.u64()?,
                code: ErrorCode::from_u8(c.u8()?)?,
                message: c.str()?,
            },
            FrameType::StatsRequest => Message::StatsRequest,
            FrameType::Stats => {
                // Each pair costs ≥ 12 bytes on the wire.
                let n = c.count(12)?;
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = c.str()?;
                    let v = c.u64()?;
                    counters.push((k, v));
                }
                Message::Stats(WireStats { counters })
            }
            FrameType::Goodbye => Message::Goodbye { reason: c.str()? },
            FrameType::Shutdown => Message::Shutdown,
        };
        // Trailing garbage inside a checksummed frame is a violation,
        // not padding.
        c.done().then_some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PROTOCOL_VERSION;

    fn round_trip(msg: Message) {
        let ty = msg.frame_type();
        let payload = msg.encode();
        let back = Message::decode(ty, &payload).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(Message::Hello {
            version: PROTOCOL_VERSION,
            client: "skinner-load/0.1".into(),
        });
        round_trip(Message::Welcome {
            version: PROTOCOL_VERSION,
            server: "skinner-serve/0.1".into(),
            core_budget: 4,
        });
        round_trip(Message::Busy {
            scope: BusyScope::Connections,
            message: "connection cap reached".into(),
        });
        round_trip(Message::Query {
            id: 7,
            sql: "SELECT COUNT(*) AS n FROM t".into(),
            timeout_ms: 2500,
        });
        round_trip(Message::Cancel { id: 7 });
        round_trip(Message::RowBatch {
            id: 7,
            flags: BATCH_FIRST | BATCH_LAST,
            columns: vec!["n".into(), "s".into()],
            rows: vec![
                vec![Value::Int(-3), Value::str("héllo")],
                vec![Value::Null, Value::Float(2.5)],
                vec![Value::Date(17959), Value::Interval(-4)],
            ],
            summary: Some(BatchSummary {
                rows: 3,
                slices: 12,
                cache_hit: true,
                warm_start: false,
                total_nanos: 1_234_567,
            }),
        });
        round_trip(Message::RowBatch {
            id: 8,
            flags: 0,
            columns: vec![],
            rows: vec![vec![Value::Int(1)]],
            summary: None,
        });
        round_trip(Message::Error {
            id: 7,
            code: ErrorCode::Parse,
            message: "unknown table".into(),
        });
        round_trip(Message::StatsRequest);
        round_trip(Message::Stats(WireStats {
            counters: vec![("queries".into(), 42), ("connections_open".into(), 3)],
        }));
        round_trip(Message::Goodbye {
            reason: "client done".into(),
        });
        round_trip(Message::Shutdown);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let msg = Message::Cancel { id: 1 };
        let mut payload = msg.encode();
        payload.push(0);
        assert!(Message::decode(FrameType::Cancel, &payload).is_none());
    }

    #[test]
    fn truncated_payload_rejected() {
        let payload = Message::Query {
            id: 1,
            sql: "SELECT 1".into(),
            timeout_ms: 0,
        }
        .encode();
        for cut in 0..payload.len() {
            assert!(
                Message::decode(FrameType::Query, &payload[..cut]).is_none(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn hostile_counts_rejected_without_allocation() {
        // A RowBatch claiming u32::MAX rows in a tiny payload must fail
        // fast on the count bound, not attempt the allocation.
        let mut p = Vec::new();
        put_u64(&mut p, 1); // id
        put_u8(&mut p, 0); // flags
        put_u32(&mut p, u32::MAX); // rows
        assert!(Message::decode(FrameType::RowBatch, &p).is_none());
    }

    #[test]
    fn wire_stats_lookup() {
        let s = WireStats {
            counters: vec![("a".into(), 1), ("b".into(), 2)],
        };
        assert_eq!(s.get("b"), Some(2));
        assert_eq!(s.get("c"), None);
    }

    #[test]
    fn encode_row_is_order_sensitive_and_value_faithful() {
        let a = encode_row(&[Value::Int(1), Value::str("x")]);
        let b = encode_row(&[Value::str("x"), Value::Int(1)]);
        assert_ne!(a, b);
        let c = encode_row(&[Value::Int(1), Value::str("x")]);
        assert_eq!(a, c);
    }
}
