//! The accept/drain/shutdown core of the TCP server.
//!
//! A listening server is three concerns glued together:
//!
//! 1. **Accept** — poll a nonblocking listener, tolerate per-accept
//!    errors (`EMFILE`, `ECONNABORTED`, a failed `try_clone` — one bad
//!    connection must never take the server down), and hand each new
//!    stream to a connection handler that may spawn a thread.
//! 2. **Park** — between accept attempts the loop parks on a
//!    [`ShutdownFlag`]'s condvar with a bounded timeout, so idle CPU
//!    stays near zero *and* a shutdown request wakes the loop
//!    immediately instead of waiting out a sleep.
//! 3. **Drain** — when the flag is raised the loop stops accepting,
//!    then joins every connection thread it spawned, so in-flight work
//!    finishes before the caller flushes caches and exits.
//!
//! [`serve_accept_loop`] implements all three.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A raisable, waitable shutdown signal shared between the accept
/// loop, connection handlers, and external controllers (admin
/// `Shutdown` frames, the embedding binary).
///
/// Unlike a bare `AtomicBool`, raising the flag *notifies* a condvar,
/// so a loop parked in [`wait_timeout`](ShutdownFlag::wait_timeout)
/// wakes immediately — shutdown latency is bounded by in-flight work,
/// not by a polling interval.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    inner: Arc<ShutdownInner>,
}

#[derive(Debug, Default)]
struct ShutdownInner {
    raised: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl ShutdownFlag {
    /// A fresh, un-raised flag.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Raise the flag and wake every parked waiter.
    pub fn raise(&self) {
        self.inner.raised.store(true, Ordering::Release);
        // Taking the lock before notifying closes the race with a
        // waiter that checked the flag but has not yet parked.
        let _g = self
            .inner
            .lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.inner.cv.notify_all();
    }

    /// True once raised (never resets).
    pub fn is_raised(&self) -> bool {
        self.inner.raised.load(Ordering::Acquire)
    }

    /// Park for up to `timeout`, waking early if the flag is raised.
    /// Returns [`is_raised`](ShutdownFlag::is_raised) on exit.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        if self.is_raised() {
            return true;
        }
        let g = self
            .inner
            .lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if self.is_raised() {
            return true;
        }
        let _g = self
            .inner
            .cv
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.is_raised()
    }
}

/// How often the accept loop wakes to re-poll the listener when idle.
/// Shutdown does NOT wait for this: raising the [`ShutdownFlag`]
/// notifies the park immediately. New connections are discovered with
/// at most this much latency, which is the price of a dependency-free
/// nonblocking listener (no `poll(2)` binding without `libc`).
const ACCEPT_POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Run the accept/drain/shutdown loop over `listener` until `shutdown`
/// is raised (see the module docs).
///
/// `on_conn` is called for every accepted stream; it either handles the
/// connection inline (reject, redirect) and returns `None`, or spawns a
/// connection thread and returns its handle for the drain phase.
/// Finished handles are reaped opportunistically so a long-lived server
/// does not accumulate one dead handle per past connection.
///
/// Per-accept errors are logged to stderr (prefixed with `label`) and
/// never abort the loop; only a listener that cannot be switched to
/// nonblocking mode fails the call.
pub(crate) fn serve_accept_loop(
    listener: &TcpListener,
    shutdown: &ShutdownFlag,
    label: &str,
    mut on_conn: impl FnMut(TcpStream) -> Option<JoinHandle<()>>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.is_raised() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                conns.retain(|h| !h.is_finished());
                if let Some(handle) = on_conn(stream) {
                    conns.push(handle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                shutdown.wait_timeout(ACCEPT_POLL_INTERVAL);
            }
            Err(e) => {
                // One bad accept (EMFILE, ECONNABORTED, ...) must not
                // take the server down; log and keep listening.
                eprintln!("{label}: accept error: {e}");
                shutdown.wait_timeout(ACCEPT_POLL_INTERVAL);
            }
        }
    }
    // Drain: connection handlers observe the shutdown flag between
    // requests (their reads are timeout-bounded), finish their
    // in-flight query, say goodbye, and exit.
    for handle in conns {
        let _ = handle.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn raise_wakes_parked_waiter_immediately() {
        let flag = ShutdownFlag::new();
        let f = flag.clone();
        let waiter = std::thread::spawn(move || {
            let start = Instant::now();
            // Far longer than the test will take: only a notify can
            // return early.
            assert!(f.wait_timeout(Duration::from_secs(30)));
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        flag.raise();
        let waited = waiter.join().expect("waiter");
        assert!(
            waited < Duration::from_secs(5),
            "park did not wake on raise: {waited:?}"
        );
    }

    #[test]
    fn raised_flag_short_circuits() {
        let flag = ShutdownFlag::new();
        flag.raise();
        let start = Instant::now();
        assert!(flag.wait_timeout(Duration::from_secs(30)));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(flag.is_raised());
    }

    #[test]
    fn unraised_wait_times_out_false() {
        let flag = ShutdownFlag::new();
        assert!(!flag.wait_timeout(Duration::from_millis(10)));
        assert!(!flag.is_raised());
    }

    #[test]
    fn tcp_accept_loop_accepts_and_drains() {
        use std::io::{Read, Write};
        use std::sync::atomic::AtomicUsize;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = ShutdownFlag::new();
        let served = Arc::new(AtomicUsize::new(0));

        let (sd, sv) = (shutdown.clone(), served.clone());
        let server = std::thread::spawn(move || {
            serve_accept_loop(&listener, &sd, "test", |mut stream| {
                let sv = sv.clone();
                Some(std::thread::spawn(move || {
                    let mut buf = [0u8; 4];
                    stream.read_exact(&mut buf).expect("read");
                    stream.write_all(&buf).expect("write");
                    sv.fetch_add(1, Ordering::SeqCst);
                }))
            })
            .expect("accept loop");
        });

        for _ in 0..3 {
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(b"ping").expect("send");
            let mut buf = [0u8; 4];
            c.read_exact(&mut buf).expect("echo");
            assert_eq!(&buf, b"ping");
        }
        shutdown.raise();
        server.join().expect("server thread");
        // Drain joined every connection thread before returning.
        assert_eq!(served.load(Ordering::SeqCst), 3);
    }
}
