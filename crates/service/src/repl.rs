//! The `skinner-repl` shell: an interactive (or piped-stdin) SQL shell
//! over an in-process [`QueryService`].
//!
//! A line is either a backslash command (`\tables`, `\stats`, `\cache`,
//! `\quit`) or SQL submitted to the service. Network clients use
//! `skinner-serve` and its wire protocol instead.

use crate::service::QueryService;
use skinner_core::RunStats;
use std::io::{BufRead, Write};
use std::sync::Arc;

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

/// `\tables`: one line per table with its schema and row count.
fn write_tables(service: &QueryService, out: &mut impl Write) -> std::io::Result<()> {
    let catalog = service.catalog();
    for name in catalog.table_names() {
        let t = catalog.get(name).expect("listed table");
        let cols: Vec<String> = t
            .schema()
            .columns()
            .iter()
            .map(|c| format!("{} {}", c.name, c.ty))
            .collect();
        writeln!(out, "{name} ({}) — {} rows", cols.join(", "), t.num_rows())?;
    }
    Ok(())
}

/// `\stats`: the service counters.
fn write_stats(service: &QueryService, out: &mut impl Write) -> std::io::Result<()> {
    let st = service.stats();
    writeln!(out, "queries: {}", st.queries)?;
    writeln!(
        out,
        "learning cache: {} hits, {} misses ({} stale), {} invalidated",
        st.cache.hits, st.cache.misses, st.cache.stale_hits, st.cache.invalidated
    )?;
    writeln!(
        out,
        "knowledge: {} records, {} seeded, {} without priors, {} invalidated",
        st.knowledge.records, st.knowledge.seeded, st.knowledge.no_priors, st.knowledge.invalidated
    )?;
    writeln!(
        out,
        "kernel cache: {} hits, {} misses, {} evicted",
        st.kernels.hits, st.kernels.misses, st.kernels.evicted
    )?;
    writeln!(
        out,
        "codegen: {} orders compiled, {} fallbacks, {} slices",
        st.codegen_orders, st.fallback_orders, st.codegen_slices
    )?;
    writeln!(
        out,
        "warm starts: {}, prior-seeded: {}",
        st.warm_starts, st.prior_seeded
    )?;
    writeln!(out, "limit pushdowns: {}", st.limit_pushdowns)?;
    writeln!(
        out,
        "cancelled: {}, timed out: {}",
        st.cancelled, st.timed_out
    )?;
    writeln!(
        out,
        "memory exceeded: {}, panicked: {}, in flight: {}",
        st.memory_exceeded, st.panicked, st.queries_in_flight
    )
}

/// `\cache`: learning-cache and knowledge-store sizes.
fn write_cache(service: &QueryService, out: &mut impl Write) -> std::io::Result<()> {
    let cache = service.learning_cache();
    writeln!(
        out,
        "{} templates cached (~{} bytes of learned state)",
        cache.len(),
        cache.approx_bytes()
    )?;
    let knowledge = service.knowledge();
    let (tables, edges) = knowledge.len();
    writeln!(
        out,
        "knowledge: {tables} table entries, {edges} edge entries (~{} bytes)",
        knowledge.approx_bytes()
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
        match line?.trim() {
            "" => {}
            "\\quit" | "\\q" | "exit" => break,
            "\\tables" => write_tables(service, out)?,
            "\\stats" => write_stats(service, out)?,
            "\\cache" => write_cache(service, out)?,
            sql => match session.execute(sql) {
                Ok(r) => {
                    write!(out, "{}", r.table)?;
                    let mut stats = r.stats;
                    // The shell reports output rows (post LIMIT), not join tuples.
                    stats.result_count = r.table.num_rows() as u64;
                    writeln!(out, "{}", stats_suffix(&stats))?;
                }
                Err(e) => writeln!(out, "error: {e}")?,
            },
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

/// A ready-made demo service over the synthetic JOB-like catalog (what
/// `skinner-repl` and `skinner-serve` serve).
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
        QueryService::new(
            cat,
            skinner_query::UdfRegistry::new(),
            crate::service::ServiceConfig::default(),
        )
    }

    #[test]
    fn shell_runs_script() {
        let svc = service();
        let script = "\\tables\nSELECT COUNT(*) AS n FROM t\nSELECT COUNT(*) AS n FROM t\n\
                      bad sql\n\\stats\n\\cache\n\\quit\nSELECT x FROM t\n";
        let mut out = Vec::new();
        run_shell(&svc, script.as_bytes(), &mut out, false).expect("shell");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("t (x INT) — 3 rows"), "tables: {text}");
        assert!(text.contains("(1 rows in"), "stats line: {text}");
        assert!(text.contains("error:"), "error surfaced: {text}");
        // \stats: the repeated template was a cache hit and a warm start.
        assert!(text.contains("\nqueries: 2\n"), "stats: {text}");
        assert!(text.contains("learning cache: 1 hits, 1 misses"), "{text}");
        assert!(text.contains("warm starts: 1, prior-seeded: 0"), "{text}");
        assert!(text.contains("in flight: 0\n"), "{text}");
        // An in-process shell has no connections to report.
        assert!(!text.contains("connections"), "{text}");
        // \cache: the one template's learning and the knowledge store.
        assert!(text.contains("\n1 templates cached (~"), "cache: {text}");
        assert!(text.contains(" edge entries (~"), "cache: {text}");
        // \quit ends the script: the 3-row query after it never runs.
        assert!(!text.contains("(3 rows in"), "ran past \\quit: {text}");
        assert_eq!(svc.stats().queries, 2);
    }
}
