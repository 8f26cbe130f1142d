//! Compare every execution strategy on one correlated query: the two
//! simulated traditional engines, the adaptive engine, Eddies, the
//! re-optimizer, and all three Skinner variants.
//!
//! ```sh
//! cargo run --release --example engine_shootout
//! ```

use skinnerdb::baselines::{Eddy, Reoptimizer};
use skinnerdb::prelude::*;
use skinnerdb::workloads::torture::correlation_torture;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Correlation-torture case: 5-table chain, the selective join hides
    // at position 1; all edges look statistically identical.
    let case = correlation_torture(5, 4000, 1, 8);
    let query = &case.query.query;
    println!("correlation torture: {}\n", query.sketch());

    let mut report: Vec<(String, std::time::Duration, u64)> = Vec::new();

    // Traditional engines.
    for (name, engine) in [
        (
            "RowEngine (PgSim)",
            Box::new(RowEngine::new()) as Box<dyn Engine>,
        ),
        ("ColEngine (MonetSim)", Box::new(ColEngine::new())),
        ("AdaptiveEngine (ComSim)", Box::new(AdaptiveEngine::new())),
    ] {
        let t = Instant::now();
        let out = engine.execute(query, &ExecOptions::default());
        report.push((name.to_string(), t.elapsed(), out.result_count));
    }

    // Baselines.
    let t = Instant::now();
    let out = Eddy::new().run(query);
    report.push(("Eddy".into(), t.elapsed(), out.result_count));
    let t = Instant::now();
    let out = Reoptimizer.run(query, &ExecOptions::default());
    report.push(("Reoptimizer".into(), t.elapsed(), out.result_count));

    // Skinner variants.
    let t = Instant::now();
    let out = SkinnerDB::skinner_c(SkinnerCConfig::default()).execute(query);
    report.push(("Skinner-C".into(), t.elapsed(), out.stats.result_count));
    let engine = Arc::new(ColEngine::new());
    let t = Instant::now();
    let out = SkinnerDB::skinner_g(engine.clone()).execute(query);
    report.push(("Skinner-G(MDB)".into(), t.elapsed(), out.stats.result_count));
    let t = Instant::now();
    let out = SkinnerDB::skinner_h(engine).execute(query);
    report.push(("Skinner-H(MDB)".into(), t.elapsed(), out.stats.result_count));

    println!("{:<24} {:>12} {:>10}", "strategy", "time", "results");
    println!("{}", "-".repeat(48));
    let expect = report[0].2;
    for (name, time, count) in &report {
        assert_eq!(*count, expect, "{name} disagrees on the result");
        println!("{name:<24} {time:>12?} {count:>10}");
    }
    println!("\nall strategies agree on the result ({expect} tuples)");
}
