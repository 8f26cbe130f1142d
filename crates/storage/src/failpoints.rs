//! # Fault-injection points
//!
//! A tiny failpoint registry used by the robustness test suites to
//! inject deterministic faults — panics, I/O errors, cancellations —
//! at named sites inside the engine, the service layer and the record
//! codec. It lives in `skinner-storage` (std only) so the
//! [`codec`](crate::codec) can check its I/O sites; `skinner-engine`
//! re-exports it as `skinner_engine::failpoints`.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** A site check is one `Relaxed` atomic load
//!    when no failpoint has ever been armed (the common case: every
//!    production process and every test that doesn't inject faults).
//!    Sites sit at slice boundaries and I/O calls, never in per-tuple
//!    loops, so even the armed path (one mutex lock) is negligible.
//! 2. **Deterministic.** A failpoint fires after a configured number of
//!    hits (`@skip`) and a configured number of times (`*times`), so a
//!    test can say "panic on the third slice" and get exactly that.
//! 3. **Scopeable.** The registry is process-global, which would let a
//!    failpoint armed by one test leak into a concurrently running test
//!    in the same binary. Tests that share a process either serialize
//!    behind a mutex or arm with [`config_for_current_thread`], which
//!    only fires on the arming thread.
//!
//! ## Spec grammar
//!
//! `kind[@skip][*times]` where `kind` is `panic`, `err`, or `cancel`;
//! `@skip` passes through the first *skip* hits; `*times` fires at most
//! *times* times (default 1). Examples: `panic` (panic on first hit),
//! `cancel@3` (cancel on the 4th hit), `err*2` (I/O error on the first
//! two hits).
//!
//! The environment variable `SKINNER_FAILPOINTS` arms sites at process
//! start: `site=spec;site=spec`, e.g.
//! `SKINNER_FAILPOINTS="engine.slice=panic@2;persist.write=err*3"`.
//!
//! ## Known sites
//!
//! | site | layer | effect |
//! |------|-------|--------|
//! | `engine.slice` | slice loop top | `panic` aborts the query mid-run |
//! | `engine.cancel` | slice loop top | `cancel` stops the query as if the client cancelled |
//! | `prepare.scan` | pre-processing filter morsel | `panic` inside a pool worker (or the submitting thread) |
//! | `budget.acquire` | service admission | `panic` while the budget lock is held (poisons it) |
//! | `persist.write` / `persist.fsync` / `persist.rename` / `persist.read` | learning-cache persistence I/O | `err` surfaces as `std::io::Error`, `panic` aborts mid-write |
//! | `knowledge.write` / `knowledge.fsync` / `knowledge.rename` / `knowledge.read` | knowledge-store persistence I/O | as `persist.*` |
//! | `net.read` / `net.write` | wire-protocol framing (`skinner-net`) | `err` surfaces as a transport failure; the connection unwinds, the server survives |

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::ThreadId;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic with a message naming the site.
    Panic,
    /// Report an injected `std::io::Error` (for I/O sites).
    IoError,
    /// Behave as if the operation was cancelled (for sites that
    /// understand cooperative cancellation).
    Cancel,
}

#[derive(Debug, Clone)]
struct Site {
    fault: Fault,
    /// Hits to pass through before firing.
    skip: u64,
    /// Remaining fires; the site disarms at 0.
    remaining: u64,
    /// Hits observed so far.
    hits: u64,
    /// When set, only hits from this thread count or fire.
    thread: Option<ThreadId>,
}

/// `true` the moment any site is armed; cleared when the registry
/// empties. The only cost a disarmed process pays.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var("SKINNER_FAILPOINTS") {
            for part in spec.split(';') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                match part.split_once('=') {
                    Some((site, spec)) => match parse_spec(spec) {
                        Some(s) => {
                            map.insert(site.trim().to_string(), s);
                        }
                        None => eprintln!("skinner: ignoring bad failpoint spec {part:?}"),
                    },
                    None => eprintln!("skinner: ignoring bad failpoint entry {part:?}"),
                }
            }
        }
        if !map.is_empty() {
            ACTIVE.store(true, Ordering::Relaxed);
        }
        Mutex::new(map)
    })
}

fn parse_spec(spec: &str) -> Option<Site> {
    let spec = spec.trim();
    let (head, times) = match spec.split_once('*') {
        Some((h, t)) => (h, t.parse().ok()?),
        None => (spec, 1u64),
    };
    let (kind, skip) = match head.split_once('@') {
        Some((k, s)) => (k, s.parse().ok()?),
        None => (head, 0u64),
    };
    let fault = match kind.trim() {
        "panic" => Fault::Panic,
        "err" => Fault::IoError,
        "cancel" => Fault::Cancel,
        _ => return None,
    };
    Some(Site {
        fault,
        skip,
        remaining: times,
        hits: 0,
        thread: None,
    })
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<String, Site>> {
    // A panic injected while the registry lock is held (it never is,
    // but belt and braces) must not wedge every later site check.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

fn insert(site: &str, spec: &str, thread: Option<ThreadId>) {
    let mut parsed =
        parse_spec(spec).unwrap_or_else(|| panic!("bad failpoint spec {spec:?} for site {site:?}"));
    parsed.thread = thread;
    lock().insert(site.to_string(), parsed);
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Arm `site` with `spec` (see module docs for the grammar) for all
/// threads. Panics on a malformed spec — failpoints are test plumbing,
/// and a typo should fail loudly.
pub fn config(site: &str, spec: &str) {
    insert(site, spec, None);
}

/// Arm `site` with `spec`, firing only for hits from the calling
/// thread. Lets a test inject faults into code running on its own
/// thread without perturbing concurrently running tests in the same
/// process.
pub fn config_for_current_thread(site: &str, spec: &str) {
    insert(site, spec, Some(std::thread::current().id()));
}

/// Disarm `site` (no-op if not armed).
pub fn clear(site: &str) {
    let mut map = lock();
    map.remove(site);
    if map.is_empty() {
        ACTIVE.store(false, Ordering::Relaxed);
    }
}

/// Disarm every site.
pub fn reset() {
    let mut map = lock();
    map.clear();
    ACTIVE.store(false, Ordering::Relaxed);
}

/// Record a hit at `site` and return the fault to inject, if any.
///
/// This is the primitive the named sites call; sites that only make
/// sense for one fault kind ignore the others. Costs one relaxed
/// atomic load when nothing is armed.
pub fn check(site: &str) -> Option<Fault> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let mut map = lock();
    let s = map.get_mut(site)?;
    if let Some(t) = s.thread {
        if t != std::thread::current().id() {
            return None;
        }
    }
    s.hits += 1;
    if s.hits <= s.skip || s.remaining == 0 {
        return None;
    }
    s.remaining -= 1;
    let fault = s.fault;
    if s.remaining == 0 {
        map.remove(site);
        if map.is_empty() {
            ACTIVE.store(false, Ordering::Relaxed);
        }
    }
    Some(fault)
}

/// Site helper for plain code paths: panics if a `panic` fault fires
/// at `site`; other fault kinds are ignored.
pub fn fire(site: &str) {
    if check(site) == Some(Fault::Panic) {
        panic!("injected failpoint panic at {site}");
    }
}

/// Site helper for I/O paths: returns an injected error if an `err`
/// fault fires, panics on a `panic` fault, and otherwise succeeds.
pub fn io_check(site: &str) -> std::io::Result<()> {
    match check(site) {
        Some(Fault::IoError) => Err(std::io::Error::other(format!(
            "injected failpoint I/O error at {site}"
        ))),
        Some(Fault::Panic) => panic!("injected failpoint panic at {site}"),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global; serialize these tests.
    static GATE: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disarmed_site_is_silent() {
        let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        assert_eq!(check("nope"), None);
        fire("nope");
        io_check("nope").unwrap();
    }

    #[test]
    fn skip_and_times_are_honored() {
        let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        config("t.site", "cancel@2*2");
        assert_eq!(check("t.site"), None);
        assert_eq!(check("t.site"), None);
        assert_eq!(check("t.site"), Some(Fault::Cancel));
        assert_eq!(check("t.site"), Some(Fault::Cancel));
        // Exhausted and auto-disarmed.
        assert_eq!(check("t.site"), None);
        reset();
    }

    #[test]
    fn io_error_and_panic_helpers() {
        let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        config("t.io", "err");
        assert!(io_check("t.io").is_err());
        assert!(io_check("t.io").is_ok(), "err*1 must disarm after firing");

        config("t.panic", "panic");
        let r = std::panic::catch_unwind(|| fire("t.panic"));
        assert!(r.is_err(), "panic failpoint must panic");
        reset();
    }

    #[test]
    fn thread_scoped_arm_only_fires_locally() {
        let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        config_for_current_thread("t.local", "cancel*100");
        let other = std::thread::spawn(|| check("t.local"));
        assert_eq!(other.join().unwrap(), None, "foreign thread must not fire");
        assert_eq!(check("t.local"), Some(Fault::Cancel));
        reset();
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(parse_spec("explode").is_none());
        assert!(parse_spec("panic@x").is_none());
        assert!(parse_spec("err*").is_none());
        assert!(parse_spec("panic@1*3").is_some());
    }
}
