//! The shared core budget: one pool of worker permits for the whole
//! service, so *concurrent queries* and each query's *pre-processing
//! fan-out* (its filter scans as pool morsels) draw from the same
//! budget (`SkinnerCConfig.threads` semantics lifted to the service
//! level). A query holds its grant for its whole join phase, which runs
//! on one thread; the grant's size only sets how many filter morsels
//! pre-processing may run at once.
//!
//! Admission policy: FIFO tickets (strict arrival-order fairness — no
//! query can be starved by later arrivals) with proportional grants.
//! The query at the head of the queue is granted
//! `max(1, available / (1 + queued_behind))` permits: an idle service
//! hands a single query the whole budget (maximal pre-processing
//! fan-out), a busy service degrades every query toward one worker
//! each (maximal inter-query concurrency). Grants release on drop.
//!
//! Waiters can give up: [`CoreBudget::acquire_with`] honors a deadline
//! and a cancel flag *while queued*, abandoning the ticket so the line
//! keeps moving — a per-query timeout therefore covers admission wait,
//! not just execution.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct State {
    /// Unused permits.
    available: usize,
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Ticket currently allowed to acquire (FIFO head).
    now_serving: u64,
    /// Tickets whose holders gave up while queued (timeout/cancel);
    /// skipped when the line reaches them.
    abandoned: HashSet<u64>,
}

impl State {
    /// Advance `now_serving` past abandoned tickets.
    fn skip_abandoned(&mut self) {
        while self.abandoned.remove(&self.now_serving) {
            self.now_serving += 1;
        }
    }
}

/// Why an [`CoreBudget::acquire_with`] wait ended without a grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The deadline passed while queued.
    TimedOut,
    /// The cancel flag was raised while queued.
    Cancelled,
}

/// A FIFO-fair counting semaphore over `total` worker permits.
#[derive(Debug)]
pub struct CoreBudget {
    total: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl CoreBudget {
    /// Budget of `total` worker permits (clamped to ≥ 1).
    pub fn new(total: usize) -> CoreBudget {
        let total = total.max(1);
        CoreBudget {
            total,
            state: Mutex::new(State {
                available: total,
                next_ticket: 0,
                now_serving: 0,
                abandoned: HashSet::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// The total permit count.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Unused permits right now (introspection/tests; racy by nature).
    pub fn available(&self) -> usize {
        self.lock_state().available
    }

    /// Lock the state, recovering from poisoning. The accounting is
    /// transactional — every mutation below completes while the guard is
    /// held or not at all (no panics between related updates except the
    /// deliberate `budget.acquire` failpoint, which fires before any
    /// mutation) — so a poisoned guard's state is still consistent and
    /// panicking every later acquire would turn one crashed query into a
    /// dead service.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block (FIFO) until at least one permit is free, then take a
    /// proportional share of the free permits. The grant returns its
    /// permits when dropped.
    pub fn acquire(&self) -> CoreGrant<'_> {
        match self.acquire_with(None, None) {
            Ok(grant) => grant,
            // Infallible without a deadline or cancel flag.
            Err(_) => unreachable!("uninterruptible acquire cannot fail"),
        }
    }

    /// [`acquire`](CoreBudget::acquire), but give up if `deadline`
    /// passes or `cancel` is raised *while still queued* — the ticket is
    /// abandoned so later arrivals are not blocked behind a dead waiter.
    pub fn acquire_with(
        &self,
        deadline: Option<Instant>,
        cancel: Option<&AtomicBool>,
    ) -> Result<CoreGrant<'_>, AdmissionError> {
        self.acquire_limited(usize::MAX, deadline, cancel)
    }

    /// [`acquire_with`](CoreBudget::acquire_with) capped at
    /// `max_workers` permits — the pool-admission half of adaptive core
    /// grants. A grant is `min(proportional share, max_workers)`, so a
    /// query that needs no fan-out (a cached warm template whose best
    /// order converged) takes one permit and leaves the rest of the pool
    /// to cold queries, instead of hoarding an idle service's whole
    /// budget.
    pub fn acquire_limited(
        &self,
        max_workers: usize,
        deadline: Option<Instant>,
        cancel: Option<&AtomicBool>,
    ) -> Result<CoreGrant<'_>, AdmissionError> {
        let mut st = self.lock_state();
        // Fault-injection site: panics *while the budget lock is held*
        // and before any state mutation — the poison-recovery and
        // panic-isolation paths must keep the service serving.
        skinner_engine::failpoints::fire("budget.acquire");
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        loop {
            st.skip_abandoned();
            if st.now_serving == ticket && st.available > 0 {
                break;
            }
            if let Some(cancel) = cancel {
                if cancel.load(Ordering::Relaxed) {
                    self.abandon(st, ticket);
                    return Err(AdmissionError::Cancelled);
                }
            }
            st = match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        self.abandon(st, ticket);
                        return Err(AdmissionError::TimedOut);
                    }
                    self.cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                // No deadline but a cancel flag: poll it. Cancellation
                // has no wakeup path into this condvar, so a bounded
                // sleep keeps responsiveness without busy-waiting.
                None if cancel.is_some() => {
                    self.cv
                        .wait_timeout(st, Duration::from_millis(20))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
        }
        let queued_behind = (ticket + 1..st.next_ticket)
            .filter(|t| !st.abandoned.contains(t))
            .count();
        let threads = (st.available / (1 + queued_behind))
            .max(1)
            .min(max_workers.max(1));
        st.available -= threads;
        st.now_serving += 1;
        st.skip_abandoned();
        drop(st);
        // Wake the next ticket holder (it may be admissible already if
        // permits remain).
        self.cv.notify_all();
        Ok(CoreGrant {
            budget: self,
            threads,
        })
    }

    /// Drop out of the queue: if we are at the head, pass headship on;
    /// otherwise leave a marker for the line to skip us.
    fn abandon(&self, mut st: MutexGuard<'_, State>, ticket: u64) {
        if st.now_serving == ticket {
            st.now_serving += 1;
            st.skip_abandoned();
        } else {
            st.abandoned.insert(ticket);
        }
        drop(st);
        self.cv.notify_all();
    }

    fn release(&self, n: usize) {
        let mut st = self.lock_state();
        st.available += n;
        debug_assert!(st.available <= self.total);
        drop(st);
        self.cv.notify_all();
    }
}

/// Worker permits granted to one query execution; released on drop.
#[derive(Debug)]
pub struct CoreGrant<'a> {
    budget: &'a CoreBudget,
    threads: usize,
}

impl CoreGrant<'_> {
    /// Number of worker threads this query may use (feeds
    /// `SkinnerCConfig.threads`).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for CoreGrant<'_> {
    fn drop(&mut self) {
        self.budget.release(self.threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn idle_service_grants_everything() {
        let b = CoreBudget::new(4);
        let g = b.acquire();
        assert_eq!(g.threads(), 4);
        drop(g);
        let g = b.acquire();
        assert_eq!(g.threads(), 4);
    }

    #[test]
    fn zero_clamps_to_one() {
        let b = CoreBudget::new(0);
        assert_eq!(b.total(), 1);
        assert_eq!(b.acquire().threads(), 1);
    }

    #[test]
    fn grants_never_exceed_total_under_contention() {
        let b = Arc::new(CoreBudget::new(4));
        let in_use = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let b = b.clone();
            let in_use = in_use.clone();
            let max_seen = max_seen.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let g = b.acquire();
                    let now = in_use.fetch_add(g.threads(), Ordering::SeqCst) + g.threads();
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    in_use.fetch_sub(g.threads(), Ordering::SeqCst);
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        assert!(
            max_seen.load(Ordering::SeqCst) <= 4,
            "budget exceeded: {} permits in use",
            max_seen.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn queued_waiter_times_out_and_line_moves() {
        let b = Arc::new(CoreBudget::new(1));
        let holder = b.acquire(); // budget fully taken
                                  // Waiter 1: tiny deadline — must time out while queued.
        let deadline = Instant::now() + Duration::from_millis(30);
        let b1 = b.clone();
        let t1 = std::thread::spawn(move || b1.acquire_with(Some(deadline), None).err());
        assert_eq!(t1.join().expect("waiter"), Some(AdmissionError::TimedOut));
        // Waiter 2 queued *behind* the abandoned ticket must still be
        // served once the holder releases.
        let b2 = b.clone();
        let t2 = std::thread::spawn(move || b2.acquire_with(None, None).map(|g| g.threads()));
        std::thread::sleep(Duration::from_millis(20));
        drop(holder);
        assert_eq!(t2.join().expect("waiter").expect("grant"), 1);
    }

    #[test]
    fn queued_waiter_cancels() {
        let b = Arc::new(CoreBudget::new(1));
        let holder = b.acquire();
        let cancel = Arc::new(AtomicBool::new(false));
        let (b1, c1) = (b.clone(), cancel.clone());
        let t1 = std::thread::spawn(move || b1.acquire_with(None, Some(&c1)).err());
        std::thread::sleep(Duration::from_millis(10));
        cancel.store(true, Ordering::Relaxed);
        assert_eq!(t1.join().expect("waiter"), Some(AdmissionError::Cancelled));
        drop(holder);
        // The budget is healthy afterwards.
        assert_eq!(b.acquire().threads(), 1);
    }

    #[test]
    fn panicking_holder_releases_grant() {
        let b = Arc::new(CoreBudget::new(3));
        let b2 = b.clone();
        let r = std::thread::spawn(move || {
            let _g = b2.acquire();
            panic!("query died mid-execution");
        })
        .join();
        assert!(r.is_err());
        assert_eq!(b.available(), 3, "panicked holder leaked its grant");
        assert_eq!(b.acquire().threads(), 3);
    }

    #[test]
    fn poisoned_budget_lock_recovers() {
        // Panic *inside* acquire while the state mutex is held (the
        // `budget.acquire` failpoint fires under the lock): the mutex is
        // poisoned, and every later acquire must recover rather than
        // propagate the poison forever.
        skinner_engine::failpoints::config_for_current_thread("budget.acquire", "panic");
        let b = CoreBudget::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = b.acquire();
        }));
        assert!(r.is_err(), "failpoint must panic");
        let g = b.acquire();
        assert_eq!(g.threads(), 2);
        assert_eq!(b.total(), 2);
    }

    #[test]
    fn limited_grant_leaves_permits_for_others() {
        let b = CoreBudget::new(4);
        // A warm query on an idle service takes 1 permit, not all 4.
        let g = b
            .acquire_limited(1, None, None)
            .expect("uncontended acquire");
        assert_eq!(g.threads(), 1);
        assert_eq!(b.available(), 3);
        // A cold query admitted concurrently still gets the rest.
        let g2 = b.acquire_limited(usize::MAX, None, None).expect("acquire");
        assert_eq!(g2.threads(), 3);
        drop(g);
        drop(g2);
        assert_eq!(b.available(), 4);
        // A zero cap clamps to one permit rather than granting nothing.
        assert_eq!(b.acquire_limited(0, None, None).unwrap().threads(), 1);
    }

    #[test]
    fn contended_grants_shrink() {
        // With a waiter queued behind, the head's grant leaves room.
        let b = Arc::new(CoreBudget::new(4));
        let first = b.acquire(); // takes all 4
        let b2 = b.clone();
        let waiter = std::thread::spawn(move || {
            let g = b2.acquire();
            let t = g.threads();
            drop(g);
            t
        });
        // Let the waiter queue up, then free the permits.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(first);
        let granted = waiter.join().expect("waiter");
        assert!((1..=4).contains(&granted));
    }
}
