//! One end-to-end benchmark for the SkinnerDB reproduction.
//!
//! ```text
//! skinner-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs it for the given
//! number of seconds, checks every result against an oracle, prints each
//! metric by name with its unit, and ends with one JSON line for the
//! driver. `--trace 0` reports the end-to-end metrics with all tracing
//! off; `--trace 1` reports the per-layer metrics and writes
//! `benchmark/out/trace-<workload>.json`. See `README.md`.

mod inproc;
mod layers;
mod report;
mod trace;
mod util;
mod wire;
mod workloads;

use report::Report;
use std::process::ExitCode;
use trace::Trace;
use workloads::InProcKind;

/// The seed runs use when none is given, and the seed kept out of
/// development so that a claim can be checked on inputs nobody tuned for.
const DEFAULT_SEED: u64 = 42;
const HELD_OUT_SEED: u64 = 1337;

const WORKLOADS: [&str; 4] = ["job_cold", "tpch_prep", "torture_slices", "wire_warm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})"
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn run(args: &Args, trace: &mut Trace) -> Result<Report, String> {
    let kind = match args.workload.as_str() {
        "job_cold" => InProcKind::JobCold,
        "tpch_prep" => InProcKind::TpchPrep,
        "torture_slices" => InProcKind::TortureSlices,
        _ if args.trace => return wire::run_traced(args.seed, args.seconds, trace),
        _ => return wire::run_timed(args.seed, args.seconds),
    };
    Ok(if args.trace {
        inproc::run_traced(kind, args.seed, args.seconds, trace)
    } else {
        inproc::run_timed(kind, args.seed, args.seconds)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("skinner-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let load_threads = if args.workload == "wire_warm" {
        wire::CONNECTIONS
    } else {
        1
    };
    let mut header = util::host_record(load_threads);
    header.insert("workload", args.workload.clone());
    header.insert("seed", args.seed.to_string());
    header.insert("seconds", args.seconds.to_string());
    header.insert("traced", args.trace.to_string());
    let listed: Vec<String> = header.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("run: {}", listed.join(" "));

    let mut trace = Trace::new();
    let report = match run(&args, &mut trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("skinner-benchmark: {e}");
            return ExitCode::from(3);
        }
    };

    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "fail_ratio = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    if args.trace {
        for (name, (total, own)) in trace.self_times() {
            println!("span {name}: total {total:.6} s, self {own:.6} s");
        }
        let path =
            std::path::Path::new("benchmark/out").join(format!("trace-{}.json", args.workload));
        match trace.write(&path, &header, &report.metrics) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                trace.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("skinner-benchmark: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
