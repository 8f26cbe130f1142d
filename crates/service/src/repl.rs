//! `skinner-repl` front ends: an interactive SQL shell and a
//! line-protocol server over a local Unix socket (`--serve`).
//!
//! Both front ends share one command handler: a line is either a
//! backslash command (`\tables`, `\stats`, `\cache`, `\quit`) or SQL
//! submitted to the [`QueryService`].
//!
//! # Line protocol (`--serve` mode)
//!
//! One request per line; every response ends with a single terminator
//! line starting with `;; `, so scripts can delimit responses without
//! counting rows:
//!
//! ```text
//! → SELECT COUNT(*) AS n FROM t
//! ← n
//! ← 42
//! ← ;; ok 1 rows
//! → SELECT nope
//! ← ;; err expected FROM ...
//! ```
//!
//! Data lines are tab-separated with `\\`, `\t`, `\n`, `\r` escapes
//! inside cells; a data line that would begin with `;;` (or `\`) is
//! prefixed with one `\`, which clients strip. The terminator is
//! therefore unspoofable by result values.

use crate::listener::{serve_accept_loop, ShutdownFlag};
use crate::persist::CachePersister;
use crate::service::{QueryService, ServiceError, Session};
use skinner_core::{QueryResult, RunStats};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

/// Outcome of handling one input line.
pub enum Response {
    /// A query result (table + stats).
    Result(Box<QueryResult>),
    /// Informational text (backslash commands), pre-formatted lines.
    Message(Vec<String>),
    /// An error to report to the client.
    Error(String),
    /// The client asked to end the session.
    Quit,
    /// The client asked the whole server to shut down gracefully
    /// (flushing the persisted learning cache before exit).
    Shutdown,
    /// Blank input; nothing to do.
    Empty,
}

/// Handle one line of input against `session`.
pub fn handle_line(session: &mut Session, line: &str) -> Response {
    let line = line.trim();
    match line {
        "" => Response::Empty,
        "\\quit" | "\\q" | "exit" => Response::Quit,
        "\\shutdown" => Response::Shutdown,
        "\\tables" => {
            let catalog = session.service().catalog();
            let mut lines = Vec::new();
            for name in catalog.table_names() {
                let t = catalog.get(name).expect("listed table");
                let cols: Vec<String> = t
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| format!("{} {}", c.name, c.ty))
                    .collect();
                lines.push(format!(
                    "{name} ({}) — {} rows",
                    cols.join(", "),
                    t.num_rows()
                ));
            }
            Response::Message(lines)
        }
        "\\stats" => {
            let st = session.service().stats();
            Response::Message(vec![
                format!("queries: {}", st.queries),
                format!(
                    "learning cache: {} hits, {} misses ({} stale), {} invalidated",
                    st.cache.hits, st.cache.misses, st.cache.stale_hits, st.cache.invalidated
                ),
                format!(
                    "knowledge: {} records, {} seeded, {} without priors, {} invalidated",
                    st.knowledge.records,
                    st.knowledge.seeded,
                    st.knowledge.no_priors,
                    st.knowledge.invalidated
                ),
                format!(
                    "kernel cache: {} hits, {} misses, {} evicted",
                    st.kernels.hits, st.kernels.misses, st.kernels.evicted
                ),
                format!(
                    "codegen: {} orders compiled, {} fallbacks, {} slices",
                    st.codegen_orders, st.fallback_orders, st.codegen_slices
                ),
                format!(
                    "warm starts: {}, prior-seeded: {}",
                    st.warm_starts, st.prior_seeded
                ),
                format!("limit pushdowns: {}", st.limit_pushdowns),
                format!("cancelled: {}, timed out: {}", st.cancelled, st.timed_out),
                format!(
                    "memory exceeded: {}, panicked: {}, in flight: {}",
                    st.memory_exceeded, st.panicked, st.queries_in_flight
                ),
                format!(
                    "connections: {} open, {} rejected",
                    st.connections_open, st.connections_rejected
                ),
            ])
        }
        "\\cache" => {
            let cache = session.service().learning_cache();
            let (ktables, kedges, kbytes) = {
                let k = session.service().knowledge();
                let (t, e) = k.len();
                (t, e, k.approx_bytes())
            };
            Response::Message(vec![
                format!(
                    "{} templates cached (~{} bytes of learned state)",
                    cache.len(),
                    cache.approx_bytes()
                ),
                format!(
                    "knowledge: {ktables} table entries, {kedges} edge entries \
                     (~{kbytes} bytes)"
                ),
            ])
        }
        sql => match session.execute(sql) {
            Ok(result) => Response::Result(Box::new(result)),
            Err(e @ ServiceError::Parse(_)) => Response::Error(e.to_string()),
            Err(e) => Response::Error(e.to_string()),
        },
    }
}

fn stats_suffix(stats: &RunStats) -> String {
    let mut flags = Vec::new();
    if stats.warm_start {
        flags.push("warm");
    }
    if stats.prior_seeded {
        flags.push("prior-seeded");
    }
    if matches!(stats.stop, Some(skinner_engine::StopReason::RowTarget)) {
        flags.push("limit-pushdown");
    }
    let flags = if flags.is_empty() {
        String::new()
    } else {
        format!(" [{}]", flags.join(", "))
    };
    format!(
        "({} rows in {:?}; {} time slices, join order {:?}{flags})",
        stats.result_count,
        stats.total,
        stats.slices,
        stats.final_order.as_deref().unwrap_or(&[]),
    )
}

/// The interactive / piped-stdin shell: prompt, pretty tables, stats
/// line per query. Returns when input ends or the client quits.
pub fn run_shell(
    service: &Arc<QueryService>,
    input: impl BufRead,
    out: &mut impl Write,
    prompt: bool,
) -> std::io::Result<()> {
    let mut session = service.session();
    if prompt {
        write!(out, "skinner> ")?;
        out.flush()?;
    }
    for line in input.lines() {
        let line = line?;
        match handle_line(&mut session, &line) {
            Response::Quit | Response::Shutdown => break,
            Response::Empty => {}
            Response::Message(lines) => {
                for l in lines {
                    writeln!(out, "{l}")?;
                }
            }
            Response::Error(e) => writeln!(out, "error: {e}")?,
            Response::Result(r) => {
                write!(out, "{}", r.table)?;
                let mut stats = r.stats;
                // The shell reports output rows (post LIMIT), not join tuples.
                stats.result_count = r.table.num_rows() as u64;
                writeln!(out, "{}", stats_suffix(&stats))?;
            }
        }
        if prompt {
            write!(out, "skinner> ")?;
            out.flush()?;
        }
    }
    if prompt {
        writeln!(out)?;
    }
    Ok(())
}

/// Escape one protocol cell: the framing characters (tab = cell
/// separator, newline/CR = line separator) and backslash itself become
/// two-character escapes, so a cell can never span or split lines.
fn escape_cell(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

/// Join escaped cells into one protocol data line. A line that would
/// collide with the `;;` terminator prefix is emitted with a leading
/// backslash (clients strip one leading `\` from data lines).
fn protocol_line(cells: impl IntoIterator<Item = String>) -> String {
    let line = cells
        .into_iter()
        .map(|c| escape_cell(&c))
        .collect::<Vec<_>>()
        .join("\t");
    if line.starts_with(";;") || line.starts_with('\\') {
        format!("\\{line}")
    } else {
        line
    }
}

/// Write one line-protocol response for `response`.
pub fn write_protocol_response(out: &mut impl Write, response: &Response) -> std::io::Result<()> {
    match response {
        Response::Empty => writeln!(out, ";; ok 0 rows")?,
        Response::Quit => writeln!(out, ";; bye")?,
        Response::Shutdown => writeln!(out, ";; bye shutdown")?,
        Response::Message(lines) => {
            for l in lines {
                writeln!(out, "{}", protocol_line([l.clone()]))?;
            }
            writeln!(out, ";; ok {} rows", lines.len())?;
        }
        Response::Error(e) => writeln!(out, ";; err {}", e.replace(['\n', '\r'], " "))?,
        Response::Result(r) => {
            writeln!(out, "{}", protocol_line(r.table.columns.iter().cloned()))?;
            for row in &r.table.rows {
                writeln!(out, "{}", protocol_line(row.iter().map(|v| v.to_string())))?;
            }
            writeln!(out, ";; ok {} rows", r.table.num_rows())?;
        }
    }
    out.flush()
}

/// Serve the line protocol to one connected client (one session per
/// connection). Returns when the client disconnects or sends `\quit`
/// (`Ok(false)`), or requests a server shutdown via `\shutdown`
/// (`Ok(true)`).
pub fn serve_connection(
    service: &Arc<QueryService>,
    reader: impl BufRead,
    writer: impl Write,
) -> std::io::Result<bool> {
    serve_connection_until(service, reader, writer, None)
}

/// [`serve_connection`], draining on `shutdown`: when the flag is
/// raised the loop finishes the request it is reading (timeout-bounded
/// reads return `WouldBlock`, under which the partial line is kept and
/// re-polled) and exits instead of waiting for more input. `None`
/// serves until EOF/`\quit` exactly like [`serve_connection`].
pub fn serve_connection_until(
    service: &Arc<QueryService>,
    mut reader: impl BufRead,
    mut writer: impl Write,
    shutdown: Option<&ShutdownFlag>,
) -> std::io::Result<bool> {
    let mut session = service.session();
    let mut line = String::new();
    loop {
        // `read_line` only returns Ok on a complete line (or EOF); a
        // timeout mid-line keeps the bytes read so far in `line` and
        // the next call appends the rest — so shutdown polling never
        // tears a request.
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(false),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.is_some_and(ShutdownFlag::is_raised) {
                    return Ok(false);
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let response = handle_line(&mut session, &line);
        line.clear();
        write_protocol_response(&mut writer, &response)?;
        match response {
            Response::Quit => return Ok(false),
            Response::Shutdown => return Ok(true),
            _ => {}
        }
    }
}

/// Knobs for [`serve_unix_with`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Learning-cache persistence file: loaded (warm start) before the
    /// socket binds, flushed periodically and once more at shutdown.
    /// `None` disables persistence.
    pub cache_path: Option<std::path::PathBuf>,
    /// Background flush interval when `cache_path` is set.
    pub persist_interval: Duration,
    /// Externally visible shutdown signal; raising it (or a client's
    /// `\shutdown`) drains the accept loop and flushes the cache.
    pub shutdown: ShutdownFlag,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            cache_path: None,
            persist_interval: Duration::from_secs(30),
            shutdown: ShutdownFlag::new(),
        }
    }
}

/// Removes the bound socket file when dropped, so *every* exit path —
/// clean `\shutdown` drain, an accept-loop error, a panic unwinding
/// through the server — cleans up, not just the happy path. (A SIGKILL
/// still leaks the file; the next bind removes stale leftovers.)
#[cfg(unix)]
struct SocketFileGuard(std::path::PathBuf);

#[cfg(unix)]
impl Drop for SocketFileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// How long a draining Unix connection may go without input before it
/// re-checks the shutdown flag (bounds shutdown latency for idle
/// clients).
#[cfg(unix)]
const UNIX_READ_POLL: Duration = Duration::from_millis(100);

/// Accept loop for `--serve`: line protocol over a Unix domain socket,
/// one thread (and one service session) per connection; concurrency
/// across connections is bounded by the service's core budget, not by
/// the thread count. Built on the shared
/// [`serve_accept_loop`] core:
/// failed accepts are logged and dropped (never fatal), the idle loop
/// parks on the shutdown flag's condvar (near-zero idle CPU, immediate
/// wake on shutdown), and shutdown *drains* — every connection thread
/// is joined after it finishes its in-flight request. Returns when
/// `opts.shutdown` is raised or a client sends `\shutdown`, after a
/// final learning-cache flush (when persistence is configured).
#[cfg(unix)]
pub fn serve_unix_with(
    service: Arc<QueryService>,
    path: &std::path::Path,
    opts: ServeOptions,
) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    let persister = opts.cache_path.as_ref().map(|cache| {
        service.warm_start(cache).log("skinner-repl: ");
        CachePersister::start(service.clone(), cache.clone(), opts.persist_interval)
    });

    // A stale socket file from a previous run would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    // Guard, not a trailing remove_file: early exits (bind-adjacent
    // errors, panics, SIGTERM-style teardown that unwinds) must clean
    // the socket file up too.
    let _socket_guard = SocketFileGuard(path.to_path_buf());
    let shutdown = opts.shutdown;
    serve_accept_loop(&listener, &shutdown, "skinner-repl", |stream| {
        // The accepted socket inherits the listener's nonblocking mode;
        // the per-connection loop wants timeout-bounded blocking reads
        // (so it can poll the shutdown flag without busy-waiting).
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(UNIX_READ_POLL));
        let service = service.clone();
        let shutdown = shutdown.clone();
        Some(std::thread::spawn(move || {
            let _conn = service.connection_opened();
            let reader = match stream.try_clone() {
                Ok(r) => BufReader::new(r),
                Err(e) => {
                    eprintln!("skinner-repl: dropping connection (clone failed): {e}");
                    return;
                }
            };
            match serve_connection_until(&service, reader, stream, Some(&shutdown)) {
                Ok(true) => shutdown.raise(),
                Ok(false) => {}
                Err(e) => eprintln!("skinner-repl: connection error: {e}"),
            }
        }))
    })?;
    if let Some(p) = persister {
        match p.shutdown() {
            Ok(n) => eprintln!("skinner-repl: persisted {n} learning-cache entries"),
            Err(e) => eprintln!("skinner-repl: final cache flush failed: {e}"),
        }
        let (tables, edges) = service.knowledge().len();
        eprintln!(
            "skinner-repl: persisted knowledge: {tables} table entries, {edges} edge entries"
        );
    }
    Ok(())
}

/// [`serve_unix_with`] with default options: no persistence, runs until
/// a client sends `\shutdown` (kept for API compatibility and tests).
#[cfg(unix)]
pub fn serve_unix(service: Arc<QueryService>, path: &std::path::Path) -> std::io::Result<()> {
    serve_unix_with(service, path, ServeOptions::default())
}

/// A ready-made demo service over the synthetic JOB-like catalog (what
/// `skinner-repl` serves by default).
pub fn demo_service(scale: f64, seed: u64, threads: usize) -> Arc<QueryService> {
    use crate::service::ServiceConfig;
    use skinner_engine::SkinnerCConfig;
    let wl = skinner_workloads::job::generate(scale, seed);
    QueryService::new(
        wl.catalog,
        skinner_query::UdfRegistry::new(),
        ServiceConfig {
            engine: SkinnerCConfig {
                threads,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn service() -> Arc<QueryService> {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                Schema::new([ColumnDef::new("x", ValueType::Int)]),
                vec![Column::from_ints(vec![1, 2, 3])],
            )
            .unwrap(),
        );
        QueryService::over(cat)
    }

    #[test]
    fn shell_runs_script() {
        let svc = service();
        let script = "\\tables\nSELECT COUNT(*) AS n FROM t\nbad sql\n\\quit\n";
        let mut out = Vec::new();
        run_shell(&svc, script.as_bytes(), &mut out, false).expect("shell");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("t (x INT) — 3 rows"), "tables: {text}");
        assert!(text.contains("(1 rows in"), "stats line: {text}");
        assert!(text.contains("error:"), "error surfaced: {text}");
    }

    #[test]
    fn protocol_responses_are_delimited() {
        let svc = service();
        let script = "SELECT x FROM t\nnonsense\n\\stats\n\\quit\n";
        let mut out = Vec::new();
        serve_connection(&svc, script.as_bytes(), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains(";; ok 3 rows"), "{text}");
        assert!(text.contains(";; err"), "{text}");
        assert!(text.contains(";; bye"), "{text}");
        // Every response block is terminated.
        assert_eq!(text.matches(";; ").count(), 4, "{text}");
    }

    #[test]
    fn protocol_escapes_framing_characters() {
        // String values containing tabs, newlines, and terminator-like
        // prefixes must not break or spoof the line protocol.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "s",
                Schema::new([ColumnDef::new("x", ValueType::Str)]),
                vec![Column::from_strs(["a\nb", "c\td", ";; ok 9 rows", "\\raw"])],
            )
            .unwrap(),
        );
        let svc = QueryService::over(cat);
        let mut out = Vec::new();
        serve_connection(&svc, "SELECT s.x FROM s\n".as_bytes(), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        // Header + 4 data lines + terminator: exactly 6 protocol lines.
        assert_eq!(lines.len(), 6, "{text}");
        assert_eq!(lines[1], "a\\nb");
        assert_eq!(lines[2], "c\\td");
        assert_eq!(lines[3], "\\;; ok 9 rows");
        assert_eq!(lines[4], "\\\\\\raw");
        assert_eq!(lines[5], ";; ok 4 rows");
        // Only the real terminator starts with ";;".
        assert_eq!(lines.iter().filter(|l| l.starts_with(";;")).count(), 1);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_roundtrip() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;
        let svc = service();
        let path =
            std::env::temp_dir().join(format!("skinner-repl-test-{}.sock", std::process::id()));
        let p = path.clone();
        std::thread::spawn(move || {
            let _ = serve_unix(svc, &p);
        });
        // The listener needs a moment to bind.
        let mut stream = None;
        for _ in 0..100 {
            match UnixStream::connect(&path) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let mut stream = stream.expect("connect to repl socket");
        writeln!(stream, "SELECT COUNT(*) AS n FROM t").expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            let done = line.starts_with(";; ");
            lines.push(line.trim_end().to_string());
            if done {
                break;
            }
        }
        assert_eq!(lines, vec!["n", "3", ";; ok 1 rows"]);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn shutdown_command_drains_server_and_flushes_cache() {
        use std::io::Write;
        use std::os::unix::net::UnixStream;
        let dir =
            std::env::temp_dir().join(format!("skinner-repl-shutdown-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("repl.sock");
        let cache = dir.join("cache.bin");
        let svc = service();
        let opts = ServeOptions {
            cache_path: Some(cache.clone()),
            persist_interval: Duration::from_secs(3600),
            ..Default::default()
        };
        let (s, p) = (svc.clone(), sock.clone());
        let server = std::thread::spawn(move || serve_unix_with(s, &p, opts));
        let mut stream = None;
        for _ in 0..200 {
            match UnixStream::connect(&sock) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        let mut stream = stream.expect("connect");
        // Run a query (populates the learning cache), then shut down.
        writeln!(stream, "SELECT COUNT(*) AS n FROM t").expect("send");
        writeln!(stream, "\\shutdown").expect("send");
        server
            .join()
            .expect("server thread")
            .expect("serve_unix_with");
        // Shutdown flushed the cache and removed the socket file.
        assert!(cache.exists(), "cache not persisted on shutdown");
        assert!(!sock.exists(), "socket file left behind");
        let (records, report) = crate::persist::load_entries(&cache).unwrap();
        assert_eq!(report.corrupt, 0);
        assert!(!records.is_empty(), "no learning persisted");
        std::fs::remove_dir_all(&dir).ok();
    }
}
