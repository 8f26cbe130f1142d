//! Wide-schema + Float-keyed workload stress.
//!
//! The other workloads join narrow tables on integer (or string) keys.
//! This one stresses three axes the engine's specialization layers must
//! survive together (ROADMAP workload-breadth item):
//!
//! * **Wide schemas** — tables carry a dozen-plus columns, so plan-time
//!   binding must keep the inner loop independent of schema width (only
//!   the touched columns matter).
//! * **High-cardinality string dictionaries** — hundreds of distinct
//!   dictionary codes behind equality and `IN`-style filters.
//! * **Float join keys** — non-nullable `f64` key columns, exercising
//!   the compiled kernel's `FloatEq` posting cursors (bit-pattern keys, full predicate
//!   re-verification; the generators only emit non-negative exact
//!   binary fractions, so bit-pattern equality coincides with IEEE
//!   equality).
//!
//! All generators are seeded and deterministic. [`generate_case`]
//! produces small randomized single-query cases for the differential
//! property tests in `tests/property.rs`.

use crate::NamedQuery;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skinner_query::{AggFunc, Expr, Query, QueryBuilder};
use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

/// A generated wide-schema workload.
pub struct WideWorkload {
    /// The catalog (wide, Float-keyed tables).
    pub catalog: Catalog,
    /// The benchmark queries.
    pub queries: Vec<NamedQuery>,
}

/// Base table sizes at `scale = 1.0`.
const READINGS: usize = 6_000;
const SENSORS: usize = 1_200;
const SITES: usize = 300;

/// Distinct strings in the high-cardinality dictionaries.
const DICT: usize = 400;

fn sz(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(8)
}

/// An exact-binary-fraction float key for id `v` (quarters are exactly
/// representable, so equality survives the bit-pattern round trip).
fn fkey(v: i64) -> f64 {
    v as f64 * 0.25
}

/// A wide table: a non-nullable Float key column `key`, then `extra`
/// filler columns cycling int / float / high-cardinality string, with a
/// labeled int column `val` and string column `tag` in the middle.
fn wide_table(
    name: &str,
    n: usize,
    extra: usize,
    rng: &mut SmallRng,
    key_of: impl Fn(usize, &mut SmallRng) -> i64,
) -> Table {
    let mut defs = vec![ColumnDef::new("key", ValueType::Float)];
    let mut cols = Vec::new();
    let keys: Vec<f64> = (0..n).map(|i| fkey(key_of(i, rng))).collect();
    cols.push(Column::from_floats(keys));
    defs.push(ColumnDef::new("val", ValueType::Int));
    let vals: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1_000)).collect();
    cols.push(Column::from_ints(vals));
    defs.push(ColumnDef::new("tag", ValueType::Str));
    let tags: Vec<String> = (0..n)
        .map(|_| format!("item-{:04}", rng.gen_range(0..DICT)))
        .collect();
    cols.push(Column::from_strs(tags.iter().map(String::as_str)));
    for c in 0..extra {
        match c % 3 {
            0 => {
                defs.push(ColumnDef::new(format!("i{c}"), ValueType::Int));
                cols.push(Column::from_ints(
                    (0..n).map(|_| rng.gen_range(0..50)).collect(),
                ));
            }
            1 => {
                defs.push(ColumnDef::new(format!("f{c}"), ValueType::Float));
                cols.push(Column::from_floats(
                    (0..n).map(|_| rng.gen_range(0..200) as f64 * 0.5).collect(),
                ));
            }
            _ => {
                defs.push(ColumnDef::new(format!("s{c}"), ValueType::Str));
                let ss: Vec<String> = (0..n)
                    .map(|_| format!("w-{:03}", rng.gen_range(0..DICT / 2)))
                    .collect();
                cols.push(Column::from_strs(ss.iter().map(String::as_str)));
            }
        }
    }
    Table::new(name, Schema::new(defs), cols).expect("wide table")
}

/// Generate the workload. `scale` multiplies table sizes; `seed` fixes
/// data and query constants.
pub fn generate(scale: f64, seed: u64) -> WideWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_readings = sz(READINGS, scale);
    let n_sensors = sz(SENSORS, scale);
    let n_sites = sz(SITES, scale);

    let mut catalog = Catalog::new();
    // sites: key = site id (dense).
    catalog.register(wide_table("sites", n_sites, 12, &mut rng, |i, _| i as i64));
    // sensors: key = owning site (skewed), plus 14 filler columns.
    catalog.register(wide_table("sensors", n_sensors, 14, &mut rng, {
        let n_sites = n_sites as i64;
        move |_, r| r.gen_range(0..n_sites).min(r.gen_range(0..n_sites))
    }));
    // readings: key = site of the reading (uniform), 16 filler columns.
    catalog.register(wide_table("readings", n_readings, 16, &mut rng, {
        let n_sites = n_sites as i64;
        move |_, r| r.gen_range(0..n_sites)
    }));

    let queries = queries(&catalog);
    WideWorkload { catalog, queries }
}

/// The benchmark queries over a generated catalog.
fn queries(catalog: &Catalog) -> Vec<NamedQuery> {
    let mut out = Vec::new();

    // w01: two-way float-keyed join + high-cardinality tag filter.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("sensors").expect("sensors");
    qb.table("sites").expect("sites");
    let j = qb
        .col("sensors.key")
        .expect("col")
        .eq(qb.col("sites.key").expect("col"));
    qb.filter(j);
    qb.filter(qb.col("sites.tag").expect("col").like("item-0%"));
    qb.select_agg(AggFunc::Count, None, "n");
    out.push(NamedQuery::new("w01-float-join", qb.build().expect("q")));

    // w02: three-way float chain with a float range filter.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("readings").expect("readings");
    qb.table("sensors").expect("sensors");
    qb.table("sites").expect("sites");
    let j1 = qb
        .col("readings.key")
        .expect("col")
        .eq(qb.col("sensors.key").expect("col"));
    let j2 = qb
        .col("sensors.key")
        .expect("col")
        .eq(qb.col("sites.key").expect("col"));
    qb.filter(j1);
    qb.filter(j2);
    let f = qb.col("readings.key").expect("col").lt(Expr::lit(8.0));
    qb.filter(f);
    qb.select_agg(AggFunc::Count, None, "n");
    qb.select_agg(
        AggFunc::Max,
        Some(qb.col("readings.val").expect("col")),
        "vmax",
    );
    out.push(NamedQuery::new("w02-float-chain", qb.build().expect("q")));

    // w03: wide projection through a join (schema width on the output
    // path, not just the join path).
    let mut qb = QueryBuilder::new(catalog);
    qb.table("sensors").expect("sensors");
    qb.table("sites").expect("sites");
    let j = qb
        .col("sensors.key")
        .expect("col")
        .eq(qb.col("sites.key").expect("col"));
    qb.filter(j);
    let f = qb.col("sensors.val").expect("col").lt(Expr::lit(40));
    qb.filter(f);
    qb.select_col("sensors.val").expect("col");
    qb.select_col("sensors.tag").expect("col");
    qb.select_col("sites.tag").expect("col");
    qb.select_col("sites.val").expect("col");
    out.push(NamedQuery::new("w03-wide-project", qb.build().expect("q")));

    out
}

/// A small randomized (catalog, query) case for property tests: a chain
/// of 2–4 wide tables joined on non-nullable **Float** keys drawn from a
/// small space (dense matches), with one random unary filter over a
/// float, int, or high-cardinality string column.
pub fn generate_case(seed: u64) -> (Catalog, Query) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = rng.gen_range(2..5);
    let rows = rng.gen_range(4..24);
    let key_space = rng.gen_range(2..6) as i64;

    let mut cat = Catalog::new();
    for t in 0..m {
        let n = rows + rng.gen_range(0..8);
        let extra = rng.gen_range(6..12);
        let table = wide_table(&format!("t{t}"), n, extra, &mut rng, {
            move |_, r| r.gen_range(0..key_space)
        });
        cat.register(table);
    }

    let mut qb = QueryBuilder::new(&cat);
    for t in 0..m {
        qb.table(&format!("t{t}")).expect("table");
    }
    for t in 0..m - 1 {
        let j = qb
            .col(&format!("t{t}.key"))
            .expect("col")
            .eq(qb.col(&format!("t{}.key", t + 1)).expect("col"));
        qb.filter(j);
    }
    let ft = rng.gen_range(0..m);
    let unary = match rng.gen_range(0..3) {
        0 => qb
            .col(&format!("t{ft}.key"))
            .expect("col")
            .le(Expr::lit(fkey(rng.gen_range(0..key_space)))),
        1 => qb
            .col(&format!("t{ft}.val"))
            .expect("col")
            .lt(Expr::lit(rng.gen_range(100..1_000i64))),
        _ => qb
            .col(&format!("t{ft}.tag"))
            .expect("col")
            .like(format!("item-{}%", rng.gen_range(0..4))),
    };
    qb.filter(unary);
    qb.select_col("t0.val").expect("select");
    (cat.clone(), qb.build().expect("case query"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_core::SkinnerDB;
    use skinner_engine::{PreparedQuery, SkinnerCConfig};
    use skinner_simdb::exec::ExecOptions;
    use skinner_simdb::{ColEngine, Engine};

    #[test]
    fn workload_is_deterministic_and_wide() {
        let a = generate(0.02, 7);
        let b = generate(0.02, 7);
        assert_eq!(a.queries.len(), 3);
        for (qa, qb_) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.id, qb_.id);
        }
        for name in ["sites", "sensors", "readings"] {
            let t = a.catalog.get(name).expect("table");
            assert!(t.schema().len() >= 12, "{name} not wide");
            assert_eq!(t.column(0).value_type(), ValueType::Float);
            assert!(!t.column(0).nullable());
        }
        let ta = a.catalog.get("sites").expect("sites");
        let tb = b.catalog.get("sites").expect("sites");
        assert_eq!(ta.num_rows(), tb.num_rows());
    }

    #[test]
    fn all_queries_match_engine_baseline() {
        let wl = generate(0.02, 11);
        let col = ColEngine::new();
        for nq in &wl.queries {
            let truth = col
                .execute(
                    &nq.query,
                    &ExecOptions {
                        count_only: true,
                        ..Default::default()
                    },
                )
                .result_count;
            let out = SkinnerDB::skinner_c(SkinnerCConfig {
                budget: 64,
                ..Default::default()
            })
            .execute(&nq.query);
            assert_eq!(out.stats.result_count, truth, "{} diverged", nq.id);
        }
    }

    #[test]
    fn generated_cases_take_float_jumps_in_the_codegen_tier() {
        // The property-test generator must actually exercise FloatEq
        // posting cursors: float key columns, compiled kernels.
        let mut saw_float = false;
        for seed in 0..10 {
            let (cat, q) = generate_case(seed);
            for t in 0..q.num_tables() {
                let table = cat.get(&format!("t{t}")).expect("table");
                assert_eq!(table.column(0).value_type(), ValueType::Float);
            }
            let pq = PreparedQuery::new(&q, true, 1);
            let order: Vec<usize> = (0..q.num_tables()).collect();
            let kernel = pq
                .plan_order(&order)
                .compile_kernel(None)
                .expect("compiles");
            assert_eq!(kernel.num_tables(), q.num_tables());
            saw_float |= kernel
                .positions()
                .iter()
                .any(|p| matches!(p.jump, skinner_engine::KernelJump::FloatEq { .. }));
        }
        assert!(saw_float, "no FloatEq jump in 10 seeds");
    }
}
