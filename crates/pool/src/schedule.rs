//! # Seeded schedule perturbation (loom-in-spirit, hand-rolled)
//!
//! Correctness of parallel pre-processing must not depend on *which*
//! worker runs *which* morsel in *what* order — every table's filtered
//! positions have to come out the same under any steal order. This module makes that
//! claim testable without crates.io: when armed with a seed, the pool's
//! scheduling decision points consult a deterministic mixing function
//! of `(seed, global step counter, site tag)` to
//!
//! - inject yields and micro-sleeps before polling, before executing a
//!   morsel, and on the submitter-helps path ([`point`]), shaking up
//!   which thread wins each race; and
//! - replace round-robin batch distribution and rotation-order steal
//!   victims with seeded choices ([`pick`]), so morsels land on and
//!   migrate between workers in adversarial patterns.
//!
//! Unlike loom this does not enumerate interleavings exhaustively — it
//! perturbs real threads — so it is a fuzzer for schedules, not a model
//! checker: each seed explores a different family of interleavings, and
//! the differential suites assert byte-identical outcomes under every
//! seed. Seeds come from [`set_seed`] (tests) or the
//! `SKINNER_SCHED_SEED` environment variable (CI runs the suite under
//! several fixed seeds so failures reproduce).
//!
//! When no seed is armed every hook is a single relaxed atomic load —
//! production pays nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Programmatic seed, when [`set_seed`] was called.
static ARMED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);
/// Global decision counter: every consult advances it, so two runs with
/// the same seed still diverge once thread timing differs — the point
/// is adversarial variety, not replay.
static STEP: AtomicU64 = AtomicU64::new(0);

/// `SKINNER_SCHED_SEED`, parsed once.
fn env_seed() -> Option<u64> {
    static ENV: OnceLock<Option<u64>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SKINNER_SCHED_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
    })
}

/// Arm schedule perturbation with `seed` for the whole process.
pub fn set_seed(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm the programmatic seed ([`set_seed`]). An environment seed
/// (`SKINNER_SCHED_SEED`) stays in force — CI arms whole test binaries
/// that way.
pub fn clear() {
    ARMED.store(false, Ordering::Relaxed);
}

/// The active seed, if any.
pub fn current() -> Option<u64> {
    if ARMED.load(Ordering::Relaxed) {
        Some(SEED.load(Ordering::Relaxed))
    } else {
        env_seed()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn next(tag: u64) -> Option<u64> {
    let seed = current()?;
    let step = STEP.fetch_add(1, Ordering::Relaxed);
    Some(splitmix64(
        seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag,
    ))
}

/// A scheduling decision point: when armed, sometimes yield the CPU or
/// sleep a few microseconds so a different thread wins the next race.
/// `tag` distinguishes call sites so they perturb independently.
pub fn point(tag: u64) {
    let Some(h) = next(tag) else { return };
    match h % 8 {
        0 => std::thread::yield_now(),
        1 => {
            std::thread::yield_now();
            std::thread::yield_now();
        }
        2 => std::thread::sleep(std::time::Duration::from_micros((h >> 8) % 40)),
        _ => {}
    }
}

/// A seeded choice among `n` alternatives (batch-distribution slot,
/// steal victim); `None` when perturbation is off, letting the caller
/// use its deterministic default.
pub fn pick(n: usize) -> Option<usize> {
    debug_assert!(n > 0);
    next(0x71C7).map(|h| (h % n as u64) as usize)
}

/// Serializes the unit tests that arm or clear the process-global seed:
/// the test harness runs them on parallel threads.
#[cfg(test)]
pub(crate) static TEST_SEED_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_SEED_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn seed_arms_and_clears() {
        let _seed = seed_lock();
        clear();
        set_seed(42);
        assert_eq!(current(), Some(42));
        assert!(pick(8).is_some());
        point(1); // must not hang or panic
        clear();
        // Off (unless the environment armed the whole process).
        if env_seed().is_none() {
            assert_eq!(current(), None);
            assert_eq!(pick(8), None);
        }
    }

    #[test]
    fn picks_stay_in_range() {
        let _seed = seed_lock();
        set_seed(0xA11CE);
        for n in 1..16 {
            for _ in 0..64 {
                let p = pick(n).expect("armed");
                assert!(p < n);
            }
        }
        clear();
    }
}
