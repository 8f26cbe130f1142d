//! The framing layer of the wire protocol: length-prefixed, checksummed
//! frames over any `Read`/`Write` byte stream.
//!
//! After a fixed magic and a type byte, a frame is one record of the
//! shared codec ([`skinner_storage::codec`], as the learning cache and
//! the knowledge store write them): a `u32` length prefix bounded
//! against absurd allocations and an `FxHasher` checksum over the
//! payload — a corrupted or truncated frame is *detected*, never
//! silently mis-parsed.
//!
//! # Frame layout
//!
//! ```text
//! magic "SKNF" (4) | type u8 (1) | payload len u32 LE (4)
//! | payload checksum u64 LE (8) | payload
//! ```
//!
//! The 17-byte header is read as a unit; the checksum covers the
//! payload only (the header fields are self-validating: magic, known
//! type, bounded length).
//!
//! # Error taxonomy of [`read_frame`]
//!
//! | condition | result |
//! |-----------|--------|
//! | EOF at a frame boundary | `Ok(None)` (clean close) |
//! | `WouldBlock` with **zero** bytes read | `Err(WouldBlock)` (idle poll — caller re-checks shutdown and retries) |
//! | `WouldBlock`/`TimedOut` **mid-frame** | `Err(TimedOut, "stalled mid-frame")` (a peer that went silent holding half a frame) |
//! | bad magic / unknown type / oversized length / checksum mismatch / EOF mid-frame | `Err(InvalidData)` (protocol violation — the stream cannot be resynced) |
//!
//! The zero-bytes `WouldBlock` distinction relies on reads against a
//! socket with a read timeout returning `WouldBlock` (Linux semantics;
//! both error kinds are handled identically once any header byte has
//! arrived, so the distinction only sharpens diagnostics).
//!
//! Fault-injection sites: `net.read`, `net.write` (see
//! [`skinner_engine::failpoints`]).

use skinner_engine::failpoints;
pub use skinner_storage::codec::checksum;
use skinner_storage::codec::put_record;
use std::io::{self, Read, Write};

/// Frame magic: "SKinner Net Frame".
pub const MAGIC: [u8; 4] = *b"SKNF";

/// Protocol version carried in Hello/Welcome; bump on any wire change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a single frame's payload (a corrupt or hostile length
/// prefix must not trigger absurd allocations).
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Fixed header size: magic (4) + type (1) + len (4) + checksum (8).
pub const HEADER_BYTES: usize = 17;

/// Frame (= message) types. The discriminants are the on-wire tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: protocol version + client name; must be first.
    Hello = 1,
    /// Server → client: handshake accepted.
    Welcome = 2,
    /// Server → client: admission refused (connection or query cap).
    Busy = 3,
    /// Client → server: execute SQL.
    Query = 4,
    /// Client → server: cancel an in-flight query by id.
    Cancel = 5,
    /// Server → client: a batch of result rows.
    RowBatch = 6,
    /// Server → client: query or protocol error.
    Error = 7,
    /// Client → server: request service counters.
    StatsRequest = 8,
    /// Server → client: service counters.
    Stats = 9,
    /// Either direction: orderly close.
    Goodbye = 10,
    /// Client → server: request graceful server shutdown (drain + flush).
    Shutdown = 11,
}

impl FrameType {
    /// Decode an on-wire tag.
    pub fn from_u8(tag: u8) -> Option<FrameType> {
        Some(match tag {
            1 => FrameType::Hello,
            2 => FrameType::Welcome,
            3 => FrameType::Busy,
            4 => FrameType::Query,
            5 => FrameType::Cancel,
            6 => FrameType::RowBatch,
            7 => FrameType::Error,
            8 => FrameType::StatsRequest,
            9 => FrameType::Stats,
            10 => FrameType::Goodbye,
            11 => FrameType::Shutdown,
            _ => return None,
        })
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write one frame. The frame is assembled in one buffer and written
/// with a single `write_all`, so a concurrent reader never observes a
/// torn header (within one stream, writes are still caller-serialized).
pub fn write_frame(w: &mut impl Write, ty: FrameType, payload: &[u8]) -> io::Result<()> {
    failpoints::io_check("net.write")?;
    if payload.len() > MAX_FRAME_BYTES {
        return Err(bad(format!("frame payload too large: {}", payload.len())));
    }
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(ty as u8);
    put_record(&mut buf, payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Fill `buf` completely. `partial` reports whether any bytes of the
/// current frame were already consumed (it decides the stall taxonomy,
/// see the module docs).
fn read_full(r: &mut impl Read, buf: &mut [u8], mut partial: bool) -> io::Result<Option<()>> {
    let mut read = 0;
    while read < buf.len() {
        match r.read(&mut buf[read..]) {
            Ok(0) => {
                if partial {
                    return Err(bad("stream ended mid-frame"));
                }
                return Ok(None);
            }
            Ok(n) => {
                read += n;
                partial = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if partial {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
                // Idle poll tick: nothing read, caller re-checks
                // shutdown and calls again.
                return Err(io::Error::new(io::ErrorKind::WouldBlock, e));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(()))
}

/// Read one frame (see the module docs for the error taxonomy).
/// `Ok(None)` is a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(FrameType, Vec<u8>)>> {
    failpoints::io_check("net.read")?;
    let mut header = [0u8; HEADER_BYTES];
    if read_full(r, &mut header, false)?.is_none() {
        return Ok(None);
    }
    if header[..4] != MAGIC {
        return Err(bad("bad frame magic"));
    }
    let ty = FrameType::from_u8(header[4]).ok_or_else(|| bad("unknown frame type"))?;
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(bad(format!("frame length {len} exceeds limit")));
    }
    let want = u64::from_le_bytes(header[9..17].try_into().unwrap());
    let mut payload = vec![0u8; len];
    if read_full(r, &mut payload, true)?.is_none() {
        return Err(bad("stream ended mid-frame"));
    }
    if checksum(&payload) != want {
        return Err(bad("frame checksum mismatch"));
    }
    Ok(Some((ty, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Query, b"SELECT 1").unwrap();
        write_frame(&mut buf, FrameType::Goodbye, b"").unwrap();
        let mut r = &buf[..];
        let (ty, p) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(ty, FrameType::Query);
        assert_eq!(p, b"SELECT 1");
        let (ty, p) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(ty, FrameType::Goodbye);
        assert!(p.is_empty());
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Hello, b"x").unwrap();
        buf[0] = b'X';
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Hello, b"x").unwrap();
        buf[4] = 200;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Hello, b"x").unwrap();
        buf[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds limit"));
    }

    #[test]
    fn checksum_mismatch_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Query, b"SELECT 1").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncated_header_and_payload_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Query, b"SELECT 1").unwrap();
        // Cut inside the header.
        let err = read_frame(&mut &buf[..9]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Cut inside the payload.
        let err = read_frame(&mut &buf[..HEADER_BYTES + 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
