//! Records on disk and on the wire: the one codec behind the learning
//! cache (`SKLC`), the knowledge store (`SKKS`) and the wire protocol
//! (`SKNF`).
//!
//! All three formats follow one defensive convention, written once here:
//!
//! * integers are little-endian, strings `u32`-length-prefixed UTF-8;
//! * a payload travels as `len u32 | checksum u64 | payload`
//!   ([`put_record`]), its length is bounded before anything is
//!   allocated for it, and its FxHasher [`checksum`] is verified before
//!   it is parsed;
//! * payloads decode over a bounds-checked [`Cursor`]: any overrun, an
//!   item count the remaining bytes cannot hold ([`Cursor::count`]) or a
//!   trailing byte ([`Cursor::done`]) makes the payload invalid — it is
//!   rejected, never guessed at.
//!
//! Result cells ([`put_value`]/[`get_value`]) carry a 1-byte tag: `0`
//! NULL, `1` Int, `2` Float (IEEE bits), `3` Str, `4` Date, `5` Interval.
//!
//! # Record files
//!
//! ```text
//! header : magic (4 bytes) | format version u32
//! record : payload len u32 | FxHasher checksum of payload u64 | payload
//! ```
//!
//! [`RecordFile::save`] is atomic: the file is assembled in a `.tmp`
//! sibling, fsynced, renamed over the target, and the directory is
//! fsynced, so a crash leaves the old file or the new one, never a torn
//! mix. [`RecordFile::load`] still defends in depth: a record with a bad
//! checksum or an undecodable payload is skipped (the length prefix keeps
//! framing intact), a torn tail or an over-long length stops the scan,
//! and a foreign magic or version loads nothing. Every degraded path is
//! counted in one [`LoadReport`]; corruption costs learned state, never
//! availability or correctness.

use crate::failpoints;
use crate::hash::FxHasher;
use crate::value::Value;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

// ---------------------------------------------------------------------
// Encoding. The release profile has no LTO: these helpers are called
// from other crates on the `RowBatch` path, so they must be `#[inline]`.
// ---------------------------------------------------------------------

/// Append one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE bits.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `u32`-length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The FxHasher checksum of a payload.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(payload);
    h.finish()
}

/// Append one checksummed record: `len u32 | checksum u64 | payload`.
pub fn put_record(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u64(out, checksum(payload));
    out.extend_from_slice(payload);
}

/// Append one result cell: its tag, then its value.
#[inline]
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Int(i) => {
            put_u8(out, 1);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            put_u8(out, 2);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            put_u8(out, 3);
            put_str(out, s);
        }
        Value::Date(d) => {
            put_u8(out, 4);
            put_u64(out, *d as u64);
        }
        Value::Interval(d) => {
            put_u8(out, 5);
            put_u64(out, *d as u64);
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over one payload. Every getter
/// returns `None` on overrun, so a decoder is a chain of `?`.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A little-endian two's-complement `i64`.
    #[inline]
    pub(crate) fn i64(&mut self) -> Option<i64> {
        Some(self.u64()? as i64)
    }

    /// An `f64` from its IEEE bits.
    #[inline]
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// A `u32` item count, rejected when the remaining bytes cannot hold
    /// that many items of at least `min_item_bytes` each — a hostile
    /// count fails here instead of driving an allocation.
    #[inline]
    pub fn count(&mut self, min_item_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n <= (self.buf.len() - self.pos) / min_item_bytes).then_some(n)
    }

    /// True once every byte was consumed. Decoders require it: trailing
    /// bytes inside a checksummed payload are corruption, not padding.
    #[inline]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Read one result cell written by [`put_value`].
#[inline]
pub fn get_value(c: &mut Cursor<'_>) -> Option<Value> {
    Some(match c.u8()? {
        0 => Value::Null,
        1 => Value::Int(c.i64()?),
        2 => Value::Float(c.f64()?),
        3 => Value::str(c.str()?),
        4 => Value::Date(c.i64()?),
        5 => Value::Interval(c.i64()?),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Record files
// ---------------------------------------------------------------------

/// What a load pass observed. Every degraded path is counted, so
/// operators can tell "clean start" from "survived corruption".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records decoded and kept.
    pub loaded: usize,
    /// Records skipped: checksum mismatch or undecodable payload.
    pub corrupt: usize,
    /// Records skipped because the catalog versions they were learned
    /// against no longer match (set by the caller's filter, not here).
    pub stale: usize,
    /// True if the file ended mid-record (torn tail after a crash).
    pub truncated: bool,
    /// True if the file had a foreign magic or format version (nothing
    /// was loaded from it).
    pub format_mismatch: bool,
}

/// One checksummed record-file format (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct RecordFile {
    /// File magic.
    pub magic: [u8; 4],
    /// Format version; bump on any change to the bytes (older files then
    /// load nothing).
    pub version: u32,
    /// Upper bound on one record's payload. A longer length prefix is
    /// indistinguishable from a torn tail and stops the scan.
    pub max_record_bytes: usize,
    /// Failpoint site prefix: saving checks `<sites>.write`,
    /// `<sites>.fsync` and `<sites>.rename`, loading `<sites>.read`.
    pub sites: &'static str,
}

impl RecordFile {
    /// Write `payloads` to `path` atomically: assemble in `path.tmp`,
    /// fsync, rename over `path`, fsync the directory. A crash at any
    /// point leaves the previous file (or no file) intact.
    pub fn save(&self, path: &Path, payloads: &[Vec<u8>]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(8 + payloads.iter().map(|p| 12 + p.len()).sum::<usize>());
        buf.extend_from_slice(&self.magic);
        put_u32(&mut buf, self.version);
        for p in payloads {
            put_record(&mut buf, p);
        }
        let tmp = tmp_path(path);
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        failpoints::io_check(&self.site("write"))?;
        f.write_all(&buf)?;
        failpoints::io_check(&self.site("fsync"))?;
        f.sync_all()?;
        drop(f);
        failpoints::io_check(&self.site("rename"))?;
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directory fsync is advisory on
        // some filesystems; failure here cannot un-rename, so best-effort.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// [`save`](Self::save) with bounded retry and exponential backoff —
    /// a persister must neither give up on the first transient `EIO` nor
    /// retry forever. `attempts` is clamped ≥ 1; the delay starts at
    /// `backoff` and doubles after each failure. Returns the last error.
    pub fn save_with_retry(
        &self,
        path: &Path,
        payloads: &[Vec<u8>],
        attempts: u32,
        backoff: Duration,
    ) -> io::Result<()> {
        let mut delay = backoff;
        for _ in 1..attempts.max(1) {
            if self.save(path, payloads).is_ok() {
                return Ok(());
            }
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        self.save(path, payloads)
    }

    /// Read `path` and `decode` every checksum-verified payload, in file
    /// order; a payload `decode` rejects counts as corrupt. Degradation,
    /// not failure (see the module docs). A missing file is `Ok` with an
    /// empty load — a fresh start; only an I/O error reading the file
    /// itself is an `Err`.
    pub fn load<T>(
        &self,
        path: &Path,
        mut decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> io::Result<(Vec<T>, LoadReport)> {
        let mut report = LoadReport::default();
        failpoints::io_check(&self.site("read"))?;
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), report)),
            Err(e) => return Err(e),
        };
        let mut c = Cursor::new(&buf);
        if c.take(4) != Some(&self.magic[..]) || c.u32() != Some(self.version) {
            report.format_mismatch = true;
            return Ok((Vec::new(), report));
        }
        let mut records = Vec::new();
        while !c.done() {
            let payload = match (c.u32(), c.u64()) {
                (Some(len), Some(want)) if len as usize <= self.max_record_bytes => {
                    c.take(len as usize).map(|p| (p, want))
                }
                _ => None,
            };
            let Some((payload, want)) = payload else {
                // A corrupt length cannot be resynced past.
                report.truncated = true;
                break;
            };
            let decoded = if checksum(payload) == want {
                decode(payload)
            } else {
                None
            };
            match decoded {
                Some(r) => {
                    records.push(r);
                    report.loaded += 1;
                }
                None => report.corrupt += 1,
            }
        }
        Ok((records, report))
    }

    fn site(&self, op: &str) -> String {
        format!("{}.{op}", self.sites)
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: RecordFile = RecordFile {
        magic: *b"TEST",
        version: 3,
        max_record_bytes: 64,
        sites: "codec_test",
    };

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("skinner_codec_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn payloads() -> Vec<Vec<u8>> {
        vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
    }

    fn load(path: &Path) -> (Vec<Vec<u8>>, LoadReport) {
        FILE.load(path, |p| Some(p.to_vec())).unwrap()
    }

    /// Byte offset of record `i`'s header in a file of [`payloads`].
    fn record_at(i: usize) -> usize {
        8 + payloads()[..i].iter().map(|p| 12 + p.len()).sum::<usize>()
    }

    #[test]
    fn file_round_trips_and_missing_file_is_fresh() {
        let d = dir("rt");
        let path = d.join("records.bin");
        FILE.save(&path, &payloads()).unwrap();
        assert!(!tmp_path(&path).exists(), "atomic save leaves no tmp");
        let (records, report) = load(&path);
        assert_eq!(records, payloads());
        assert_eq!(
            report,
            LoadReport {
                loaded: 3,
                ..Default::default()
            }
        );

        let (none, fresh) = load(&d.join("absent.bin"));
        assert!(none.is_empty());
        assert_eq!(fresh, LoadReport::default());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn corrupt_record_is_skipped_others_survive() {
        let d = dir("corrupt");
        let path = d.join("records.bin");
        FILE.save(&path, &payloads()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte of the second payload: its checksum fails, the
        // length prefix keeps the third record reachable.
        bytes[record_at(1) + 12 + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (records, report) = load(&path);
        assert_eq!(records, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
        assert_eq!((report.loaded, report.corrupt), (2, 1));
        assert!(!report.truncated);

        // A checksum-valid payload the decoder rejects is corrupt too.
        FILE.save(&path, &payloads()).unwrap();
        let (kept, report) = FILE.load(&path, |p| (p != b"beta").then_some(())).unwrap();
        assert_eq!((kept.len(), report.loaded, report.corrupt), (2, 2, 1));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_tail_keeps_complete_prefix() {
        let d = dir("torn");
        let path = d.join("records.bin");
        FILE.save(&path, &payloads()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the third record's header, then inside its payload.
        for cut in [record_at(2) + 7, record_at(2) + 14] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (records, report) = load(&path);
            assert_eq!(records, payloads()[..2]);
            assert!(report.truncated);
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn oversized_length_stops_the_scan() {
        let d = dir("oversized");
        let path = d.join("records.bin");
        FILE.save(&path, &payloads()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = record_at(1);
        bytes[at..at + 4].copy_from_slice(&(FILE.max_record_bytes as u32 + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (records, report) = load(&path);
        assert_eq!(records, payloads()[..1]);
        assert!(report.truncated);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn foreign_header_loads_nothing() {
        let d = dir("magic");
        let path = d.join("records.bin");
        FILE.save(&path, &payloads()).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Foreign magic, foreign version, and a file shorter than a header.
        for (at, byte) in [(0, b'X'), (4, 9)] {
            let mut bytes = good.clone();
            bytes[at] = byte;
            std::fs::write(&path, &bytes).unwrap();
            let (records, report) = load(&path);
            assert!(records.is_empty());
            assert!(report.format_mismatch);
        }
        std::fs::write(&path, b"TEST").unwrap();
        assert!(load(&path).1.format_mismatch);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn cursor_rejects_overrun_hostile_counts_and_leftovers() {
        let mut p = Vec::new();
        put_u32(&mut p, 2);
        put_u64(&mut p, 7);
        put_u64(&mut p, 8);
        let mut c = Cursor::new(&p);
        assert_eq!(c.count(8), Some(2));
        assert_eq!((c.u64(), c.u64()), (Some(7), Some(8)));
        assert!(c.done());
        assert_eq!(c.u8(), None, "overrun");

        // The same count needs 24 bytes per item: rejected up front.
        assert_eq!(Cursor::new(&p).count(24), None);
        let mut c = Cursor::new(&p);
        c.u32();
        assert!(!c.done(), "unread bytes remain");
        assert_eq!(Cursor::new(&p[..3]).u32(), None);
    }

    #[test]
    fn values_round_trip_and_bad_tags_are_rejected() {
        let values = [
            Value::Null,
            Value::Int(-3),
            Value::Float(2.5),
            Value::str("hé"),
            Value::Date(17959),
            Value::Interval(-4),
        ];
        let mut p = Vec::new();
        for v in &values {
            put_value(&mut p, v);
        }
        let mut c = Cursor::new(&p);
        for v in &values {
            assert_eq!(get_value(&mut c).as_ref(), Some(v));
        }
        assert!(c.done());
        assert_eq!(get_value(&mut Cursor::new(&[6])), None);
    }
}
