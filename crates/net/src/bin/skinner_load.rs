//! `skinner-load` — open-loop load generator for `skinner-serve`.
//!
//! ```text
//! skinner-load [--addr ADDR] [--conns N] [--rate QPS] [--requests N]
//!              [--timeout-ms N] [--job SCALE] [--seed N]
//!              [--verify] [--bench-json FILE] [--shutdown]
//! ```
//!
//! Schedules `--requests` arrivals at a fixed `--rate` across
//! `--conns` connections cycling the four JOB serving templates,
//! and reports p50/p95/p99/max latency (measured from *scheduled*
//! arrival time — no coordinated omission), throughput, and every
//! refusal/error class.
//!
//! `--verify` rebuilds the server's catalog locally (same `--job`
//! scale and `--seed`) and checks each template's wire result is
//! byte-identical (modulo row order) to direct in-process execution.
//! `--bench-json FILE` upserts a `net_serving` section. `--shutdown`
//! sends the server a `Shutdown` frame after the run (graceful drain).

use skinner_bench::upsert_bench_json;
use skinner_net::load::{self, LoadConfig};
use skinner_net::NetClient;
use skinner_service::cli;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "skinner-load [--addr ADDR] [--conns N] [--rate QPS] [--requests N]\n\
                     \x20            [--timeout-ms N] [--job SCALE] [--seed N]\n\
                     \x20            [--verify] [--bench-json FILE] [--shutdown]";

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let (addr, conns, rate, requests, timeout_ms, scale, seed, verify, bench_json, shutdown) =
        cli::parse_or_exit(
            USAGE,
            "Open-loop load generator for skinner-serve (tail latency, backpressure).",
            &[
                "--addr",
                "--conns",
                "--rate",
                "--requests",
                "--timeout-ms",
                "--job",
                "--seed",
                "--bench-json",
            ],
            &["--verify", "--shutdown"],
            |flags| {
                Ok((
                    flags.get("--addr", "127.0.0.1:5433".to_string())?,
                    flags.get("--conns", 32usize)?.max(1),
                    flags.get("--rate", 50.0)?,
                    flags.get("--requests", 256usize)?.max(1),
                    flags.get("--timeout-ms", 30_000u64)?,
                    flags.get("--job", 0.05)?,
                    flags.get("--seed", 42u64)?,
                    flags.switch("--verify"),
                    flags.value("--bench-json").map(PathBuf::from),
                    flags.switch("--shutdown"),
                ))
            },
        );

    let cfg = LoadConfig {
        connections: conns,
        rate,
        requests,
        timeout_ms,
        templates: load::job_templates(),
    };
    println!(
        "skinner-load: {requests} arrivals at {rate}/s over {conns} connections x {} templates against {addr}",
        cfg.templates.len()
    );
    let out = load::run_open_loop(&addr, &cfg);

    println!(
        "skinner-load: issued {} | completed {} | busy {} | rejected-conns {} | errors {} (timeouts {}) | protocol errors {} | io errors {}",
        out.issued,
        out.completed,
        out.busy,
        out.rejected_connections,
        out.errors,
        out.timeouts,
        out.protocol_errors,
        out.io_errors
    );
    println!(
        "skinner-load: latency p50 {:.2} ms | p95 {:.2} ms | p99 {:.2} ms | max {:.2} ms | mean {:.2} ms",
        ms(out.latency.p50),
        ms(out.latency.p95),
        ms(out.latency.p99),
        ms(out.latency.max),
        ms(out.latency.mean)
    );
    println!(
        "skinner-load: throughput {:.1} queries/s over {:.2} s",
        out.throughput_qps,
        out.wall.as_secs_f64()
    );

    let mut verified = false;
    if verify {
        println!("skinner-load: verifying templates against direct in-process execution (scale {scale}, seed {seed})");
        let local = skinner_service::repl::demo_service(scale, seed, 1);
        match load::verify_against_local(&addr, &local, &cfg.templates) {
            Ok(()) => {
                verified = true;
                println!(
                    "skinner-load: verification OK: all templates byte-identical (sorted rows)"
                );
            }
            Err(e) => {
                eprintln!("skinner-load: verification FAILED: {e}");
            }
        }
    }

    if let Some(path) = &bench_json {
        let json = format!(
            "{{\n    \"connections\": {},\n    \"templates\": {},\n    \"rate_qps\": {:.1},\n    \"requests\": {},\n    \"completed\": {},\n    \"busy\": {},\n    \"rejected_connections\": {},\n    \"errors\": {},\n    \"protocol_errors\": {},\n    \"p50_ms\": {:.3},\n    \"p95_ms\": {:.3},\n    \"p99_ms\": {:.3},\n    \"max_ms\": {:.3},\n    \"mean_ms\": {:.3},\n    \"throughput_qps\": {:.2},\n    \"verified\": {}\n  }}",
            conns,
            cfg.templates.len(),
            rate,
            requests,
            out.completed,
            out.busy,
            out.rejected_connections,
            out.errors,
            out.protocol_errors,
            ms(out.latency.p50),
            ms(out.latency.p95),
            ms(out.latency.p99),
            ms(out.latency.max),
            ms(out.latency.mean),
            out.throughput_qps,
            verified
        );
        match upsert_bench_json(path, "net_serving", &json) {
            Ok(()) => println!(
                "skinner-load: wrote net_serving section to {}",
                path.display()
            ),
            Err(e) => eprintln!("skinner-load: bench-json write failed: {e}"),
        }
    }

    if shutdown {
        match NetClient::connect(&addr as &str, "skinner-load/admin") {
            Ok(client) => match client.shutdown_server() {
                Ok(()) => println!("skinner-load: server acknowledged shutdown"),
                Err(e) => eprintln!("skinner-load: shutdown request failed: {e}"),
            },
            Err(e) => eprintln!("skinner-load: shutdown connect failed: {e}"),
        }
    }

    let failed = out.protocol_errors > 0 || out.io_errors > 0 || (verify && !verified);
    if failed {
        std::process::exit(1);
    }
}
