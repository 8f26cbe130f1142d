//! `skinner-repl` — the SkinnerDB SQL shell.
//!
//! ```text
//! skinner-repl [--job SCALE] [--seed N] [--threads N] [--cache FILE]
//! ```
//!
//! * An interactive SQL shell (or a script runner when stdin is piped)
//!   over the synthetic JOB-like IMDB catalog. Commands: `\tables`,
//!   `\stats`, `\cache`, `\quit`.
//! * `--threads N`: the service's total core budget (default
//!   `SKINNER_THREADS`, else 1).
//! * `--cache FILE`: crash-safe learning-cache persistence — loaded at
//!   startup (warm start) and saved at exit, so learned join orders
//!   survive restarts.
//!
//! Scripts and network clients that need a server use `skinner-serve`.
//!
//! ```sh
//! echo 'SELECT COUNT(*) AS n FROM title t' | skinner-repl
//! ```

use skinner_service::{cli, repl};
use std::io::BufReader;
use std::path::PathBuf;

const USAGE: &str = "skinner-repl [--job SCALE] [--seed N] [--threads N] [--cache FILE]";

fn main() {
    let (scale, seed, threads, cache) = cli::parse_or_exit(
        USAGE,
        "Interactive SQL shell over a synthetic IMDB catalog.\n\
         Commands: \\tables \\stats \\cache \\quit",
        &["--job", "--seed", "--threads", "--cache"],
        &[],
        |flags| {
            Ok((
                flags.get("--job", 0.05)?,
                flags.get("--seed", 42u64)?,
                flags.threads()?,
                flags.value("--cache").map(PathBuf::from),
            ))
        },
    );

    let service = repl::demo_service(scale, seed, threads);
    println!(
        "SkinnerDB SQL shell over a synthetic IMDB (scale={scale}, threads={threads}; \
         \\tables \\stats \\cache \\quit)"
    );
    if let Some(cache) = &cache {
        service.warm_start(cache).log("");
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    if let Err(e) = repl::run_shell(&service, BufReader::new(stdin.lock()), &mut stdout, true) {
        eprintln!("shell error: {e}");
        std::process::exit(1);
    }
    if let Some(cache) = &cache {
        service.persist(cache).log("");
    }
}
