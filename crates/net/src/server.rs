//! The TCP server: [`QueryService`] behind the binary wire protocol.
//!
//! # Per-connection architecture
//!
//! Each accepted connection gets **two** threads:
//!
//! * a **reader** that parses frames off the socket. `Cancel` frames it
//!   handles *itself* — it raises the [`CancelToken`] of the matching
//!   in-flight query through a shared slot, which is the whole point of
//!   a separate reader: cancellation must land while the executor is
//!   busy inside the engine. Every other frame is forwarded over a
//!   channel.
//! * an **executor** that owns the write half: it runs queries through
//!   one [`Session`], streams result rows out in bounded
//!   [`RowBatch`](crate::proto::Message::RowBatch) frames, and answers
//!   stats/goodbye/shutdown frames.
//!
//! # Backpressure and deadlines
//!
//! Admission is two-layered, and both refusals are *typed* (a `Busy`
//! frame), never a silent drop:
//!
//! * **connection cap** — checked at accept on the accept-loop thread;
//!   an over-cap client gets `Busy{Connections}` and is closed.
//! * **in-flight query cap** — checked per `Query` frame; an over-cap
//!   query gets `Busy{Queries}` and the connection stays usable.
//!
//! Reads carry a poll timeout (so shutdown is observed within
//! `READ_POLL`); writes carry [`ServerConfig::write_timeout`], so a
//! client that stops draining its socket stalls only its own
//! connection. Row delivery happens *after* the join phase released its
//! core grant, so a stalled client can never pin the core budget.
//!
//! # Shutdown
//!
//! Raising the [`ShutdownFlag`] (an admin `Shutdown` frame, or
//! [`NetServer::shutdown`] from the embedding binary) stops the accept
//! loop; each executor notices at its next poll tick, finishes its
//! in-flight query, sends `Goodbye`, and exits; the accept loop joins
//! every connection thread before returning — the caller can then flush
//! caches knowing nothing is in flight.

use crate::frame::{read_frame, write_frame, PROTOCOL_VERSION};
use crate::listener::{serve_accept_loop, ShutdownFlag};
use crate::proto::{
    BatchSummary, BusyScope, ErrorCode, Message, WireStats, BATCH_FIRST, BATCH_LAST,
};
use skinner_service::{CancelToken, ExecuteOptions, QueryService, ServiceError, Session};
use skinner_storage::Value;
use std::cell::RefCell;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read-poll granularity: how long a blocked read waits before the
/// reader/executor re-checks shutdown. Bounds shutdown latency for an
/// idle connection.
pub(crate) const READ_POLL: Duration = Duration::from_millis(100);

/// How long the executor waits on its frame channel per poll tick.
const EXEC_POLL: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently open connections; further clients get
    /// `Busy{Connections}` and are closed.
    pub max_conns: usize,
    /// Maximum concurrently executing queries across all connections;
    /// `0` = bounded only by core-budget queueing. Further queries get
    /// `Busy{Queries}`.
    pub max_inflight: usize,
    /// Per-connection write deadline (a client that stops reading its
    /// socket kills only its own connection).
    pub write_timeout: Duration,
    /// How long a fresh connection may take to send its `Hello`.
    pub hello_timeout: Duration,
    /// Rows per `RowBatch` frame.
    pub batch_rows: usize,
    /// Server identification string sent in `Welcome`.
    pub server_name: String,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_conns: 64,
            max_inflight: 0,
            write_timeout: Duration::from_secs(10),
            hello_timeout: Duration::from_secs(5),
            batch_rows: 256,
            server_name: "skinner-serve".to_string(),
        }
    }
}

/// Shared per-server state threaded into every connection.
struct ServerState {
    service: Arc<QueryService>,
    cfg: ServerConfig,
    shutdown: ShutdownFlag,
    /// Queries currently executing through this server (the wire-level
    /// in-flight cap; the service's own gauge also counts non-network
    /// sessions).
    inflight: AtomicUsize,
    /// Protocol violations observed (bad frames, bad sequences) —
    /// exported as `net_protocol_errors` in the `Stats` frame.
    protocol_errors: AtomicU64,
}

/// A running TCP server. Dropping the handle shuts it down (raise +
/// drain + join); prefer [`shutdown`](NetServer::shutdown) or
/// [`join`](NetServer::join) to observe the result.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl NetServer {
    /// Serve `service` on `listener` in a background thread.
    pub fn spawn(
        service: Arc<QueryService>,
        listener: TcpListener,
        cfg: ServerConfig,
    ) -> io::Result<NetServer> {
        let addr = listener.local_addr()?;
        let shutdown = ShutdownFlag::new();
        let state = Arc::new(ServerState {
            service,
            cfg,
            shutdown: shutdown.clone(),
            inflight: AtomicUsize::new(0),
            protocol_errors: AtomicU64::new(0),
        });
        let handle = std::thread::spawn(move || accept_loop(&state, &listener));
        Ok(NetServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the server has drained and exited (an admin
    /// `Shutdown` frame must stop it).
    pub fn join(mut self) -> io::Result<()> {
        self.join_inner()
    }

    /// Raise shutdown, drain in-flight connections, and join.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown.raise();
        self.join_inner()
    }

    fn join_inner(&mut self) -> io::Result<()> {
        match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("server thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown.raise();
            let _ = self.join_inner();
        }
    }
}

fn accept_loop(state: &Arc<ServerState>, listener: &TcpListener) -> io::Result<()> {
    serve_accept_loop(listener, &state.shutdown, "skinner-serve", |stream| {
        // Count the connection *before* the cap check: only this thread
        // increments the gauge, so the check is an exact upper bound.
        let guard = state.service.connection_opened();
        let open = state.service.stats().connections_open as usize;
        if open > state.cfg.max_conns {
            drop(guard);
            state.service.connection_rejected();
            reject_connection(state, stream);
            return None;
        }
        let state = state.clone();
        Some(std::thread::spawn(move || {
            let _guard = guard;
            if let Err(e) = serve_connection(&state, stream) {
                // Connection-level I/O failures are per-client noise,
                // not server errors.
                if e.kind() != io::ErrorKind::BrokenPipe {
                    eprintln!("skinner-serve: connection error: {e}");
                }
            }
        }))
    })
}

/// Answer an over-cap connection with a typed `Busy` frame, then close.
fn reject_connection(state: &ServerState, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(state.cfg.write_timeout));
    let busy = Message::Busy {
        scope: BusyScope::Connections,
        message: format!("connection cap {} reached", state.cfg.max_conns),
    };
    let _ = write_frame(&mut stream, busy.frame_type(), &busy.encode());
    let _ = stream.shutdown(Shutdown::Both);
}

/// What the reader thread hands the executor.
enum ReadEvent {
    Msg(Message),
    /// Clean EOF at a frame boundary.
    Eof,
    /// Undecodable or out-of-sequence bytes; the stream cannot be
    /// resynced.
    Protocol(String),
    /// Transport failure (including a mid-frame stall).
    Io(io::Error),
}

/// RAII wire-level in-flight counter (kept accurate on every exit path
/// out of query handling).
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn write_msg(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    write_frame(w, msg.frame_type(), &msg.encode())
}

/// Handle one accepted connection to completion (handshake, then the
/// reader/executor pair). Returns when the client leaves, violates the
/// protocol, the transport dies, or the server drains.
fn serve_connection(state: &Arc<ServerState>, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(state.cfg.write_timeout))?;

    if !handshake(state, &mut stream)? {
        return Ok(());
    }

    // The cancel slot: the reader raises the token of the query the
    // executor is currently running, if the ids match.
    let current: Arc<Mutex<Option<(u64, CancelToken)>>> = Arc::new(Mutex::new(None));
    let (tx, rx) = mpsc::channel::<ReadEvent>();
    let reader_stream = stream.try_clone()?;
    let reader_slot = current.clone();
    let reader = std::thread::spawn(move || read_loop(reader_stream, &tx, &reader_slot));

    let mut session = state.service.session();
    let result = executor_loop(state, &mut stream, &rx, &current, &mut session);

    // Unblock the reader (its blocking read fails once the socket is
    // shut down) and reap it before the connection guard drops.
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
    result
}

/// Await the `Hello`, answer `Welcome`. `Ok(false)` = the connection
/// ended (protocol violation, timeout, version mismatch) and was
/// answered as well as possible.
fn handshake(state: &Arc<ServerState>, stream: &mut TcpStream) -> io::Result<bool> {
    let deadline = Instant::now() + state.cfg.hello_timeout;
    let first = loop {
        match read_frame(stream) {
            Ok(frame) => break frame,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if state.shutdown.is_raised() || Instant::now() >= deadline {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Garbage before Hello: name the violation, then close.
                protocol_error(state, stream, 0, &format!("expected Hello: {e}"));
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
    };
    let hello = first.and_then(|(ty, payload)| Message::decode(ty, &payload));
    match hello {
        Some(Message::Hello { version, .. }) if version == PROTOCOL_VERSION => {}
        Some(Message::Hello { version, .. }) => {
            protocol_error(
                state,
                stream,
                0,
                &format!(
                    "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                ),
            );
            return Ok(false);
        }
        Some(_) | None => {
            protocol_error(state, stream, 0, "first frame must be Hello");
            return Ok(false);
        }
    }
    let welcome = Message::Welcome {
        version: PROTOCOL_VERSION,
        server: state.cfg.server_name.clone(),
        core_budget: state.service.core_budget().total() as u64,
    };
    write_msg(stream, &welcome)?;
    Ok(true)
}

/// Count and best-effort report a protocol violation.
fn protocol_error(state: &ServerState, stream: &mut TcpStream, id: u64, msg: &str) {
    state.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let err = Message::Error {
        id,
        code: ErrorCode::Protocol,
        message: msg.to_string(),
    };
    let _ = write_msg(stream, &err);
}

/// The reader half: frames in, cancel handling, everything else
/// forwarded. Exits on EOF, protocol violation, transport failure, or
/// a hung-up executor.
fn read_loop(
    mut stream: TcpStream,
    tx: &mpsc::Sender<ReadEvent>,
    slot: &Mutex<Option<(u64, CancelToken)>>,
) {
    loop {
        let event = match read_frame(&mut stream) {
            Ok(Some((ty, payload))) => match Message::decode(ty, &payload) {
                Some(Message::Cancel { id }) => {
                    let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Some((current_id, token)) = guard.as_ref() {
                        if *current_id == id {
                            token.cancel();
                        }
                    }
                    continue;
                }
                Some(msg) => ReadEvent::Msg(msg),
                None => ReadEvent::Protocol(format!("undecodable {ty:?} payload")),
            },
            Ok(None) => ReadEvent::Eof,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => ReadEvent::Protocol(e.to_string()),
            Err(e) => ReadEvent::Io(e),
        };
        let terminal = !matches!(event, ReadEvent::Msg(_));
        if tx.send(event).is_err() || terminal {
            return;
        }
    }
}

/// The executor half: owns the write side, runs queries, polls
/// shutdown.
fn executor_loop(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    rx: &mpsc::Receiver<ReadEvent>,
    current: &Mutex<Option<(u64, CancelToken)>>,
    session: &mut Session,
) -> io::Result<()> {
    loop {
        let event = match rx.recv_timeout(EXEC_POLL) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => {
                if state.shutdown.is_raised() {
                    let bye = Message::Goodbye {
                        reason: "server shutting down".to_string(),
                    };
                    let _ = write_msg(stream, &bye);
                    return Ok(());
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        };
        match event {
            ReadEvent::Msg(Message::Query {
                id,
                sql,
                timeout_ms,
            }) => {
                handle_query(state, stream, current, session, id, &sql, timeout_ms)?;
            }
            ReadEvent::Msg(Message::StatsRequest) => {
                let stats = Message::Stats(wire_stats(state));
                write_msg(stream, &stats)?;
            }
            ReadEvent::Msg(Message::Goodbye { .. }) => {
                let bye = Message::Goodbye {
                    reason: "bye".to_string(),
                };
                let _ = write_msg(stream, &bye);
                return Ok(());
            }
            ReadEvent::Msg(Message::Shutdown) => {
                state.shutdown.raise();
                let bye = Message::Goodbye {
                    reason: "server draining".to_string(),
                };
                let _ = write_msg(stream, &bye);
                return Ok(());
            }
            ReadEvent::Msg(other) => {
                // Server-bound frames only; anything else is a sequence
                // violation and the stream is closed.
                protocol_error(
                    state,
                    stream,
                    0,
                    &format!("unexpected {:?} frame", other.frame_type()),
                );
                return Ok(());
            }
            ReadEvent::Eof => return Ok(()),
            ReadEvent::Protocol(msg) => {
                protocol_error(state, stream, 0, &msg);
                return Ok(());
            }
            ReadEvent::Io(e) => {
                return if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
                ) {
                    Ok(())
                } else {
                    Err(e)
                };
            }
        }
    }
}

/// Execute one query, streaming rows in bounded batches. An `Err`
/// means the *transport* failed (the connection dies); query failures
/// are answered in-band with an `Error` frame.
fn handle_query(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    current: &Mutex<Option<(u64, CancelToken)>>,
    session: &mut Session,
    id: u64,
    sql: &str,
    timeout_ms: u64,
) -> io::Result<()> {
    // Wire-level in-flight cap (the second backpressure layer; the
    // connection stays open so the client can retry).
    let n = state.inflight.fetch_add(1, Ordering::Relaxed);
    let _inflight = InflightGuard(&state.inflight);
    if state.cfg.max_inflight > 0 && n >= state.cfg.max_inflight {
        let busy = Message::Busy {
            scope: BusyScope::Queries,
            message: format!("in-flight query cap {} reached", state.cfg.max_inflight),
        };
        return write_msg(stream, &busy);
    }

    let token = CancelToken::new();
    *current.lock().unwrap_or_else(PoisonError::into_inner) = Some((id, token.clone()));
    let opts = ExecuteOptions {
        timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        cancel: Some(token),
        ..Default::default()
    };

    // Shared between the schema and row callbacks (both borrow it
    // immutably; the borrow-checker cannot see they never overlap).
    let columns: RefCell<Vec<String>> = RefCell::new(Vec::new());
    let mut batch: Vec<Vec<Value>> = Vec::new();
    let mut sent_first = false;
    let mut rows_delivered: u64 = 0;
    let mut write_err: Option<io::Error> = None;
    let batch_rows = state.cfg.batch_rows.max(1);

    let result = {
        let columns = &columns;
        let batch = &mut batch;
        let sent_first = &mut sent_first;
        let write_err = &mut write_err;
        let rows_delivered = &mut rows_delivered;
        // Two mutable borrows of `stream` cannot coexist, so the row
        // callback writes through a fresh raw handle — safe because the
        // executor thread is the only writer and `session` never
        // touches the stream.
        let mut out = stream.try_clone()?;
        session.execute_streaming_with_schema(
            sql,
            &opts,
            |cols| *columns.borrow_mut() = cols.to_vec(),
            |row| {
                batch.push(row.to_vec());
                *rows_delivered += 1;
                if batch.len() >= batch_rows {
                    let msg = Message::RowBatch {
                        id,
                        flags: if *sent_first { 0 } else { BATCH_FIRST },
                        columns: if *sent_first {
                            Vec::new()
                        } else {
                            columns.borrow().clone()
                        },
                        rows: std::mem::take(batch),
                        summary: None,
                    };
                    if let Err(e) = write_msg(&mut out, &msg) {
                        // Stop delivery; the transport error aborts the
                        // connection after the engine unwinds cleanly.
                        *write_err = Some(e);
                        return false;
                    }
                    *sent_first = true;
                }
                true
            },
        )
    };
    *current.lock().unwrap_or_else(PoisonError::into_inner) = None;

    if let Some(e) = write_err {
        return Err(e);
    }
    match result {
        Ok(stats) => {
            let summary = BatchSummary {
                rows: rows_delivered,
                slices: stats.slices,
                cache_hit: stats.cache_hit,
                warm_start: stats.warm_start,
                total_nanos: stats.total.as_nanos() as u64,
            };
            let last = Message::RowBatch {
                id,
                flags: BATCH_LAST | if sent_first { 0 } else { BATCH_FIRST },
                columns: if sent_first {
                    Vec::new()
                } else {
                    columns.into_inner()
                },
                rows: batch,
                summary: Some(summary),
            };
            write_msg(stream, &last)
        }
        Err(e) => {
            let code = match &e {
                ServiceError::Parse(_) => ErrorCode::Parse,
                ServiceError::Cancelled => ErrorCode::Cancelled,
                ServiceError::TimedOut => ErrorCode::TimedOut,
                ServiceError::MemoryExceeded => ErrorCode::Memory,
                ServiceError::Internal(_) => ErrorCode::Internal,
            };
            let err = Message::Error {
                id,
                code,
                message: e.to_string(),
            };
            write_msg(stream, &err)
        }
    }
}

/// Service + server counters for the `Stats` frame.
fn wire_stats(state: &ServerState) -> WireStats {
    let st = state.service.stats();
    let budget = state.service.core_budget();
    let pool = state.service.worker_pool();
    WireStats {
        counters: vec![
            ("queries".into(), st.queries),
            ("warm_starts".into(), st.warm_starts),
            ("prior_seeded".into(), st.prior_seeded),
            ("limit_pushdowns".into(), st.limit_pushdowns),
            ("cancelled".into(), st.cancelled),
            ("timed_out".into(), st.timed_out),
            ("memory_exceeded".into(), st.memory_exceeded),
            ("panicked".into(), st.panicked),
            ("queries_in_flight".into(), st.queries_in_flight),
            ("connections_open".into(), st.connections_open),
            ("connections_rejected".into(), st.connections_rejected),
            ("cache_hits".into(), st.cache.hits),
            ("cache_misses".into(), st.cache.misses),
            ("cache_stale_hits".into(), st.cache.stale_hits),
            ("knowledge_records".into(), st.knowledge.records),
            ("knowledge_seeded".into(), st.knowledge.seeded),
            ("kernel_cache_hits".into(), st.kernels.hits),
            ("kernel_cache_misses".into(), st.kernels.misses),
            ("kernel_cache_evicted".into(), st.kernels.evicted),
            ("codegen_orders".into(), st.codegen_orders),
            ("fallback_orders".into(), st.fallback_orders),
            ("codegen_slices".into(), st.codegen_slices),
            ("core_total".into(), budget.total() as u64),
            ("core_available".into(), budget.available() as u64),
            ("pool_workers".into(), pool.workers() as u64),
            ("pool_live_workers".into(), pool.live_workers() as u64),
            (
                "net_protocol_errors".into(),
                state.protocol_errors.load(Ordering::Relaxed),
            ),
        ],
    }
}
