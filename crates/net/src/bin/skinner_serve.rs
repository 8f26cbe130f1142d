//! `skinner-serve` — the SkinnerDB TCP server.
//!
//! ```text
//! skinner-serve [--listen ADDR] [--job SCALE] [--seed N] [--threads N]
//!               [--max-conns N] [--max-inflight N]
//!               [--cache FILE] [--persist-secs N]
//! ```
//!
//! Serves the binary wire protocol (see `skinner_net::proto`) over the
//! synthetic JOB-like IMDB catalog. Shutdown is protocol-driven: a
//! client sends a `Shutdown` frame (e.g. `skinner-load --shutdown`),
//! the server stops accepting, drains in-flight connections, flushes
//! the learning cache and knowledge store, and exits — printing
//! post-drain resource accounting so operators (and CI) can confirm
//! nothing leaked. `--cache FILE` warm-starts both from `FILE` and
//! `FILE.knowledge` before serving.

use skinner_net::{NetServer, ServerConfig};
use skinner_service::{cli, repl, CachePersister};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "skinner-serve [--listen ADDR] [--job SCALE] [--seed N] [--threads N]\n\
                     \x20             [--max-conns N] [--max-inflight N]\n\
                     \x20             [--cache FILE] [--persist-secs N]";

fn main() {
    let (listen, scale, seed, threads, max_conns, max_inflight, cache, persist_secs) =
        cli::parse_or_exit(
            USAGE,
            "TCP server for the SkinnerDB binary wire protocol over a synthetic\n\
             IMDB catalog. Stop it with `skinner-load --addr ADDR --shutdown`.",
            &[
                "--listen",
                "--job",
                "--seed",
                "--threads",
                "--max-conns",
                "--max-inflight",
                "--cache",
                "--persist-secs",
            ],
            &[],
            |flags| {
                Ok((
                    flags.get("--listen", "127.0.0.1:5433".to_string())?,
                    flags.get("--job", 0.05)?,
                    flags.get("--seed", 42u64)?,
                    flags.threads()?,
                    flags.get("--max-conns", 64usize)?.max(1),
                    flags.get("--max-inflight", 0usize)?,
                    flags.value("--cache").map(PathBuf::from),
                    flags.get("--persist-secs", 30u64)?.max(1),
                ))
            },
        );

    let service = repl::demo_service(scale, seed, threads);

    // Warm-start from the persisted learning cache and knowledge store,
    // then keep flushing both in the background (and once more after
    // the drain).
    let persister = cache.as_ref().map(|path| {
        service.warm_start(path).log("skinner-serve: ");
        CachePersister::start(
            service.clone(),
            path.clone(),
            Duration::from_secs(persist_secs),
        )
    });

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("skinner-serve: cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    let cfg = ServerConfig {
        max_conns,
        max_inflight,
        ..Default::default()
    };
    let server = match NetServer::spawn(service.clone(), listener, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("skinner-serve: spawn failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "skinner-serve: listening on {} (threads={threads}, max-conns={max_conns})",
        server.addr()
    );

    // Block until a client's Shutdown frame raises the flag and the
    // drain completes.
    if let Err(e) = server.join() {
        eprintln!("skinner-serve: server error: {e}");
    }

    if let Some(p) = persister {
        p.shutdown().log("skinner-serve: ");
    }

    // Post-drain accounting: every core grant and worker-pool slot must
    // be back (CI greps these lines).
    let st = service.stats();
    let budget = service.core_budget();
    let pool = service.worker_pool();
    println!(
        "skinner-serve: drained: {} queries served, {} connections rejected, {} in flight",
        st.queries, st.connections_rejected, st.queries_in_flight
    );
    println!(
        "skinner-serve: core budget {}/{} available; workers {}/{} live",
        budget.available(),
        budget.total(),
        pool.live_workers(),
        pool.workers()
    );
    let clean = st.queries_in_flight == 0
        && st.connections_open == 0
        && budget.available() == budget.total()
        && pool.live_workers() == pool.workers();
    if clean {
        println!("skinner-serve: clean shutdown");
    } else {
        println!("skinner-serve: UNCLEAN shutdown (leaked resources above)");
        std::process::exit(1);
    }
}
