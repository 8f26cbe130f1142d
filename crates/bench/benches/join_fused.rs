//! Criterion bench: the compiled fused-key kernel vs. the plan-bound
//! composite path on correlated-key link chains of 2..=6 tables.
//!
//! Every join predicate here is a *composite*: two correlated key
//! columns per table pair, where neither component alone separates
//! groups (each single column matches ~25-30 rows) but the fused pair
//! is nearly unique. Preprocessing fuses the pair into one content-hash
//! key vector plus a composite hash index, and the codegen tier
//! compiles that into `FusedEq` posting-list cursors — the combination
//! this bench prices against the plan-bound composite probe
//! (per-advance hash probe + binary search + residual re-check).
//!
//! Run with `cargo bench --bench join_fused`. Mean ns per full join and
//! the speedup ratios are merged into `BENCH_join.json` (repo root)
//! under the `codegen_fused` key. The acceptance bar is ≥ 1.4× over the
//! plan-bound composite path on the 4-table chain.

use criterion::{BenchmarkId, Criterion};
use skinner_engine::multiway::CountingSink;
use skinner_engine::{JumpKind, MultiwayJoin, PreparedQuery};
use skinner_query::{Query, QueryBuilder};
use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

const ROWS: usize = 2048;
/// Distinct (k1, k2) pairs; each pair matches ~4 rows per table, so an
/// established fused-key posting cursor amortizes over several
/// advances — the regime the compiled kernel targets (the plan-bound
/// path re-probes the composite index on every advance).
const GROUPS: i64 = 512;
const MIN_TABLES: usize = 2;
const MAX_TABLES: usize = 6;

/// Link chain of `m` tables joined on correlated composite keys:
/// t0.(k1,k2) = t1.(k1,k2), ..., t{m-2}.(k1,k2) = t{m-1}.(k1,k2).
///
/// Both components derive from one hidden group id `g < 512`:
/// `k1 = g mod 64`, `k2 = g mod 89`. Since lcm(64, 89) > 512 the pair
/// determines `g` (the fused key partitions into 512 groups of ~4
/// rows), while each component alone is coarse (64 resp. 89 distinct
/// values) — the regime where the composite index matters and no
/// single-column jump can replace it.
fn composite_chain(m: usize) -> (Catalog, Query) {
    let mut cat = Catalog::new();
    let group = |i: i64| i.wrapping_mul(2654435761).rem_euclid(GROUPS);
    for t in 0..m {
        cat.register(
            Table::new(
                format!("t{t}"),
                Schema::new([
                    ColumnDef::new("k1", ValueType::Int),
                    ColumnDef::new("k2", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints((0..ROWS as i64).map(|i| group(i).rem_euclid(64)).collect()),
                    Column::from_ints((0..ROWS as i64).map(|i| group(i).rem_euclid(89)).collect()),
                    Column::from_ints((0..ROWS as i64).collect()),
                ],
            )
            .unwrap(),
        );
    }
    let q = {
        let mut qb = QueryBuilder::new(&cat);
        for t in 0..m {
            qb.table(&format!("t{t}")).unwrap();
        }
        for t in 0..m - 1 {
            for k in ["k1", "k2"] {
                let j = qb
                    .col(&format!("t{t}.{k}"))
                    .unwrap()
                    .eq(qb.col(&format!("t{}.{k}", t + 1)).unwrap());
                qb.filter(j);
            }
        }
        qb.select_col("t0.v").unwrap();
        qb.build().unwrap()
    };
    (cat, q)
}

fn bench_fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_fused");
    // The small-arity joins finish in ~100µs, where scheduler noise on a
    // loaded host dominates a 12-sample mean; more samples tighten it.
    group.sample_size(24);
    for m in MIN_TABLES..=MAX_TABLES {
        let (_cat, q) = composite_chain(m);
        let pq = PreparedQuery::new(&q, true, 1);
        let order: Vec<usize> = (0..m).collect();
        let plan = pq.plan_order(&order);
        let kernel = plan.compile_kernel(None).expect("composite chains compile");
        assert!(
            kernel.key().jumps()[1..]
                .iter()
                .all(|&k| k == JumpKind::Fused),
            "m={m}: every jump must be a fused-key posting cursor"
        );
        let offsets = vec![0u32; m];

        // Both configurations must emit the same tuples before we
        // time them.
        let attempts = |run: &mut dyn FnMut(&mut CountingSink)| {
            let mut sink = CountingSink::default();
            run(&mut sink);
            sink.attempts
        };
        let mut join = MultiwayJoin::new(&pq);
        let a_fused = attempts(&mut |s| {
            let mut state = offsets.clone();
            join.continue_join_compiled(&kernel, &offsets, &mut state, u64::MAX, s);
        });
        let a_bound = attempts(&mut |s| {
            let mut state = offsets.clone();
            join.continue_join(&order, &plan, &offsets, &mut state, u64::MAX, s);
        });
        assert_eq!(a_fused, a_bound, "m={m}: fused/bound tuple mismatch");
        assert!(a_fused > 0, "m={m}: empty join benches nothing");

        group.bench_with_input(BenchmarkId::new("fused", format!("m{m}")), &m, |b, _| {
            let mut join = MultiwayJoin::new(&pq);
            b.iter(|| {
                let mut state = offsets.clone();
                let mut sink = CountingSink::default();
                join.continue_join_compiled(&kernel, &offsets, &mut state, u64::MAX, &mut sink);
                criterion::black_box(sink.attempts)
            })
        });
        group.bench_with_input(BenchmarkId::new("bound", format!("m{m}")), &m, |b, _| {
            let mut join = MultiwayJoin::new(&pq);
            b.iter(|| {
                let mut state = offsets.clone();
                let mut sink = CountingSink::default();
                join.continue_join(&order, &plan, &offsets, &mut state, u64::MAX, &mut sink);
                criterion::black_box(sink.attempts)
            })
        });
    }
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_fused(&mut criterion);

    let get = |name: &str| -> f64 {
        criterion
            .results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
            .expect("bench result")
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut section = String::from("{\n");
    section.push_str(&format!(
        "    \"workload\": \"correlated composite-key chains m=2..6, {ROWS} rows/table, {GROUPS} fused groups, full join to exhaustion, counting sink\",\n"
    ));
    section.push_str(&format!("    \"host_cores\": {cores},\n"));
    if cores == 1 {
        section.push_str(
            "    \"note\": \"1-core host: kernels are single-threaded so the tier ratios hold, but absolute times and the noise floor do not transfer to multi-core hosts\",\n",
        );
    }
    section.push_str("    \"mean_ns\": {\n");
    let mut names = Vec::new();
    for m in MIN_TABLES..=MAX_TABLES {
        for tier in ["fused", "bound"] {
            names.push(format!("join_fused/{tier}/m{m}"));
        }
    }
    for (i, n) in names.iter().enumerate() {
        section.push_str(&format!(
            "      \"{n}\": {:.0}{}\n",
            get(n),
            if i + 1 < names.len() { "," } else { "" }
        ));
    }
    section.push_str("    },\n");
    section.push_str("    \"speedup_vs_bound\": { ");
    for m in MIN_TABLES..=MAX_TABLES {
        let sp = get(&format!("join_fused/bound/m{m}")) / get(&format!("join_fused/fused/m{m}"));
        section.push_str(&format!(
            "\"m{m}\": {sp:.2}{}",
            if m < MAX_TABLES { ", " } else { "" }
        ));
        println!("m{m}: fused {sp:.2}x over bound");
    }
    section.push_str(" }\n  }");
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_join.json"
    ));
    skinner_bench::upsert_bench_json(path, "codegen_fused", &section)
        .expect("write BENCH_join.json");
}
