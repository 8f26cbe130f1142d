//! Correlated multi-column join keys + date-filtered queries (the
//! JOB-link-table workload-breadth item).
//!
//! The Join Order Benchmark's hardest tables are *link* tables —
//! `cast_info`, `movie_companies` — keyed by `(movie_id, person_id)`
//! style pairs whose components are individually non-selective but
//! jointly near-unique. A single-column hash jump enumerates every row
//! matching one component and rejects the rest per tuple; the engine's
//! composite indexes (see `skinner_engine::prepare::CompositeKeyGroup`)
//! jump straight to rows matching the fused pair. This workload builds
//! that shape deliberately:
//!
//! * `movie(id, release DATE, kind)` and `person(id, grp)` — entity
//!   tables with a [`ValueType::Date`] column for TPC-H-style date-range
//!   predicates (`release >= DATE '…' AND release < DATE '…' + INTERVAL
//!   '…' DAY`).
//! * `appearance(movie_id, person_id, role)` and
//!   `award(movie_id, person_id, won DATE)` — two link tables sharing
//!   the composite `(movie_id, person_id)` key, with correlated
//!   components (popular movies attract popular people), so the
//!   single-column fallback pays a real fan-out cost.
//!
//! The composite-key joins bind `FusedEq` posting cursors in the compiled
//! kernel (hash-derived, so the driving conjuncts are always
//! re-verified) — these queries exercise the composite and compiled wins
//! *composed*, every order on the compiled kernel, as the tests below
//! assert.
//!
//! All generators are seeded and deterministic. [`generate_case`]
//! produces small randomized single-query cases for the differential
//! property tests and the fuzz harness.

use crate::NamedQuery;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skinner_query::{AggFunc, Expr, Query, QueryBuilder};
use skinner_storage::{days_from_ymd, Catalog, Column, ColumnDef, Schema, Table, Value, ValueType};

/// A generated correlated link-table workload.
pub struct CorrelatedWorkload {
    /// The catalog (entity + link tables).
    pub catalog: Catalog,
    /// The benchmark queries.
    pub queries: Vec<NamedQuery>,
}

/// Base table sizes at `scale = 1.0`.
const MOVIES: usize = 600;
const PEOPLE: usize = 900;
const APPEARANCES: usize = 5_000;
const AWARDS: usize = 1_200;

fn sz(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(8)
}

/// Zipf-ish skewed id: the minimum of two uniform draws concentrates
/// mass on small ids, correlating link rows on popular entities.
fn skewed(rng: &mut SmallRng, n: i64) -> i64 {
    rng.gen_range(0..n).min(rng.gen_range(0..n))
}

/// Generate the workload. `scale` multiplies table sizes; `seed` fixes
/// data and query constants.
pub fn generate(scale: f64, seed: u64) -> CorrelatedWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_movies = sz(MOVIES, scale);
    let n_people = sz(PEOPLE, scale);
    let n_app = sz(APPEARANCES, scale);
    let n_awards = sz(AWARDS, scale);
    let epoch = days_from_ymd(1990, 1, 1);
    let span = days_from_ymd(2010, 1, 1) - epoch;

    let mut catalog = Catalog::new();

    // movie(id INT, release DATE, kind TEXT)
    catalog.register(
        Table::new(
            "movie",
            Schema::new([
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("release", ValueType::Date),
                ColumnDef::new("kind", ValueType::Str),
            ]),
            vec![
                Column::from_ints((0..n_movies as i64).collect()),
                Column::from_dates(
                    (0..n_movies)
                        .map(|_| epoch + rng.gen_range(0..span))
                        .collect(),
                ),
                Column::from_strs(
                    (0..n_movies)
                        .map(|_| ["feature", "short", "series"][rng.gen_range(0..3)])
                        .collect::<Vec<_>>(),
                ),
            ],
        )
        .expect("movie"),
    );

    // person(id INT, grp INT)
    catalog.register(
        Table::new(
            "person",
            Schema::new([
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("grp", ValueType::Int),
            ]),
            vec![
                Column::from_ints((0..n_people as i64).collect()),
                Column::from_ints((0..n_people).map(|_| rng.gen_range(0..8)).collect()),
            ],
        )
        .expect("person"),
    );

    // appearance(movie_id INT, person_id INT, role TEXT): the big link
    // table; components skewed toward popular movies/people.
    let app_pairs: Vec<(i64, i64)> = (0..n_app)
        .map(|_| {
            (
                skewed(&mut rng, n_movies as i64),
                skewed(&mut rng, n_people as i64),
            )
        })
        .collect();
    catalog.register(
        Table::new(
            "appearance",
            Schema::new([
                ColumnDef::new("movie_id", ValueType::Int),
                ColumnDef::new("person_id", ValueType::Int),
                ColumnDef::new("role", ValueType::Str),
            ]),
            vec![
                Column::from_ints(app_pairs.iter().map(|&(m, _)| m).collect()),
                Column::from_ints(app_pairs.iter().map(|&(_, p)| p).collect()),
                Column::from_strs(
                    (0..n_app)
                        .map(|_| ["actor", "director", "writer", "crew"][rng.gen_range(0..4)])
                        .collect::<Vec<_>>(),
                ),
            ],
        )
        .expect("appearance"),
    );

    // award(movie_id INT, person_id INT, won DATE): the second link
    // table. Most rows reuse appearance pairs so the composite join has
    // real matches; the rest are noise pairs.
    let award_pairs: Vec<(i64, i64)> = (0..n_awards)
        .map(|_| {
            if rng.gen_range(0..4) > 0 && !app_pairs.is_empty() {
                app_pairs[rng.gen_range(0..app_pairs.len())]
            } else {
                (
                    rng.gen_range(0..n_movies as i64),
                    rng.gen_range(0..n_people as i64),
                )
            }
        })
        .collect();
    catalog.register(
        Table::new(
            "award",
            Schema::new([
                ColumnDef::new("movie_id", ValueType::Int),
                ColumnDef::new("person_id", ValueType::Int),
                ColumnDef::new("won", ValueType::Date),
            ]),
            vec![
                Column::from_ints(award_pairs.iter().map(|&(m, _)| m).collect()),
                Column::from_ints(award_pairs.iter().map(|&(_, p)| p).collect()),
                Column::from_dates(
                    (0..n_awards)
                        .map(|_| epoch + rng.gen_range(0..span))
                        .collect(),
                ),
            ],
        )
        .expect("award"),
    );

    let queries = queries(&catalog, epoch, span);
    CorrelatedWorkload { catalog, queries }
}

/// The benchmark queries over a generated catalog.
fn queries(catalog: &Catalog, epoch: i64, span: i64) -> Vec<NamedQuery> {
    let mut out = Vec::new();

    // c01: the pure composite-key join — appearance ⋈ award on the
    // (movie_id, person_id) pair.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("appearance").expect("appearance");
    qb.table("award").expect("award");
    let j1 = qb
        .col("appearance.movie_id")
        .expect("col")
        .eq(qb.col("award.movie_id").expect("col"));
    let j2 = qb
        .col("appearance.person_id")
        .expect("col")
        .eq(qb.col("award.person_id").expect("col"));
    qb.filter(j1);
    qb.filter(j2);
    qb.select_agg(AggFunc::Count, None, "n");
    out.push(NamedQuery::new(
        "c01-composite-join",
        qb.build().expect("q"),
    ));

    // c02: composite join + single-key chain to movie, filtered by a
    // date range written as DATE + INTERVAL arithmetic.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("movie").expect("movie");
    qb.table("appearance").expect("appearance");
    qb.table("award").expect("award");
    let j0 = qb
        .col("movie.id")
        .expect("col")
        .eq(qb.col("appearance.movie_id").expect("col"));
    let j1 = qb
        .col("appearance.movie_id")
        .expect("col")
        .eq(qb.col("award.movie_id").expect("col"));
    let j2 = qb
        .col("appearance.person_id")
        .expect("col")
        .eq(qb.col("award.person_id").expect("col"));
    qb.filter(j0);
    qb.filter(j1);
    qb.filter(j2);
    let lo = epoch + span / 4;
    qb.filter(
        qb.col("movie.release")
            .expect("col")
            .ge(Expr::Literal(Value::Date(lo))),
    );
    qb.filter(
        qb.col("movie.release")
            .expect("col")
            .lt(Expr::Literal(Value::Date(lo)).add(Expr::Literal(Value::Interval(span / 2)))),
    );
    qb.select_agg(AggFunc::Count, None, "n");
    out.push(NamedQuery::new(
        "c02-composite-dates",
        qb.build().expect("q"),
    ));

    // c03: date-on-date join predicate (award won on the release date
    // window) plus group rollup — Date columns as first-class join and
    // grouping citizens.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("movie").expect("movie");
    qb.table("award").expect("award");
    let j = qb
        .col("movie.id")
        .expect("col")
        .eq(qb.col("award.movie_id").expect("col"));
    qb.filter(j);
    qb.filter(
        qb.col("award.won")
            .expect("col")
            .ge(qb.col("movie.release").expect("col")),
    );
    let kind = qb.col("movie.kind").expect("col");
    qb.select_expr(kind.clone(), "kind");
    qb.select_agg(AggFunc::Count, None, "n");
    qb.group_by(kind);
    qb.order_by("kind", true);
    out.push(NamedQuery::new("c03-date-rollup", qb.build().expect("q")));

    out
}

/// A small randomized (catalog, query) case for property tests: a chain
/// of link tables where every adjacent pair joins on a **two-column**
/// composite key with correlated, individually non-selective components,
/// plus a date column and one random unary filter (date comparison,
/// date-range via interval arithmetic, or an int comparison).
pub fn generate_case(seed: u64) -> (Catalog, Query) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = rng.gen_range(2..4);
    let rows = rng.gen_range(6..28);
    let k1_space = rng.gen_range(2..5) as i64;
    let k2_space = rng.gen_range(2..5) as i64;
    let epoch = days_from_ymd(2000, 1, 1);

    let mut cat = Catalog::new();
    for t in 0..m {
        let n = rows + rng.gen_range(0..8);
        cat.register(
            Table::new(
                format!("t{t}"),
                Schema::new([
                    ColumnDef::new("k1", ValueType::Int),
                    ColumnDef::new("k2", ValueType::Int),
                    ColumnDef::new("day", ValueType::Date),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints((0..n).map(|_| skewed(&mut rng, k1_space)).collect()),
                    Column::from_ints((0..n).map(|_| skewed(&mut rng, k2_space)).collect()),
                    Column::from_dates((0..n).map(|_| epoch + rng.gen_range(0..120)).collect()),
                    Column::from_ints((0..n).map(|_| rng.gen_range(0..20)).collect()),
                ],
            )
            .expect("case table"),
        );
    }

    let mut qb = QueryBuilder::new(&cat);
    for t in 0..m {
        qb.table(&format!("t{t}")).expect("table");
    }
    for t in 0..m - 1 {
        let j1 = qb
            .col(&format!("t{t}.k1"))
            .expect("col")
            .eq(qb.col(&format!("t{}.k1", t + 1)).expect("col"));
        let j2 = qb
            .col(&format!("t{t}.k2"))
            .expect("col")
            .eq(qb.col(&format!("t{}.k2", t + 1)).expect("col"));
        qb.filter(j1);
        qb.filter(j2);
    }
    let ft = rng.gen_range(0..m);
    let unary = match rng.gen_range(0..3) {
        0 => qb
            .col(&format!("t{ft}.day"))
            .expect("col")
            .lt(Expr::Literal(Value::Date(epoch + rng.gen_range(1..120)))),
        1 => qb
            .col(&format!("t{ft}.day"))
            .expect("col")
            .ge(Expr::Literal(Value::Date(epoch))
                .add(Expr::Literal(Value::Interval(rng.gen_range(0..90))))),
        _ => qb
            .col(&format!("t{ft}.v"))
            .expect("col")
            .lt(Expr::lit(rng.gen_range(1..20i64))),
    };
    qb.filter(unary);
    qb.select_col("t0.v").expect("select");
    (cat.clone(), qb.build().expect("case query"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_core::SkinnerDB;
    use skinner_engine::multiway::{ContinueResult, ResultSet};
    use skinner_engine::{MultiwayJoin, PreparedQuery, SkinnerC, SkinnerCConfig};
    use skinner_simdb::exec::ExecOptions;
    use skinner_simdb::{ColEngine, Engine};

    /// The c01 composite join rewritten so only a **single-column** jump
    /// exists: the `person_id` equality becomes a `<= AND >=` residual pair,
    /// which no index accelerates but which is semantically identical.
    /// This is the pre-composite execution shape — the baseline the
    /// step-count test below measures the fused composite jump against.
    fn single_key_variant(catalog: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(catalog);
        qb.table("appearance").expect("appearance");
        qb.table("award").expect("award");
        let j1 = qb
            .col("appearance.movie_id")
            .expect("col")
            .eq(qb.col("award.movie_id").expect("col"));
        let le = qb
            .col("appearance.person_id")
            .expect("col")
            .le(qb.col("award.person_id").expect("col"));
        let ge = qb
            .col("appearance.person_id")
            .expect("col")
            .ge(qb.col("award.person_id").expect("col"));
        qb.filter(j1);
        qb.filter(le);
        qb.filter(ge);
        qb.select_agg(AggFunc::Count, None, "n");
        qb.build().expect("single-key variant")
    }

    #[test]
    fn workload_is_deterministic_and_composite() {
        let a = generate(0.05, 13);
        let b = generate(0.05, 13);
        assert_eq!(a.queries.len(), 3);
        for (qa, qb_) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.id, qb_.id);
        }
        let ta = a.catalog.get("appearance").expect("appearance");
        let tb = b.catalog.get("appearance").expect("appearance");
        assert_eq!(ta.num_rows(), tb.num_rows());
        // The composite queries really have a composite key group.
        let q = &a.queries[0].query;
        assert_eq!(q.composite_key_groups().len(), 1);
        // And Date columns exist where claimed.
        assert_eq!(
            a.catalog
                .get("movie")
                .expect("movie")
                .column(1)
                .value_type(),
            ValueType::Date
        );
    }

    #[test]
    fn all_queries_match_engine_baseline() {
        let wl = generate(0.04, 29);
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

    /// The acceptance criterion: a composite-key join produces identical
    /// results across three tiers — the generic reference kernel, the
    /// compiled kernel with its fused composite jump, sliced, and the
    /// Skinner-C engine switching orders on compiled kernels.
    #[test]
    fn composite_join_identical_across_three_tiers() {
        let wl = generate(0.03, 41);
        let q = &wl.queries[0].query; // c01: pure composite join
        let m = q.num_tables();
        let order: Vec<usize> = (0..m).collect();
        let pq = PreparedQuery::new(q, true, 1);
        assert!(!pq.composites.is_empty(), "composite group must exist");

        // Tier 1: generic reference kernel, one shot.
        let spec = pq.plan_spec(&order);
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; m];
        let mut state = offsets.clone();
        let mut rs_generic = ResultSet::new();
        join.continue_join_generic(
            &order,
            &spec,
            &offsets,
            &mut state,
            u64::MAX,
            &mut rs_generic,
        );

        // Tier 2: the compiled kernel (the composite fused jump), sliced.
        let kernel = pq.plan_order(&order).compile_kernel(None).unwrap();
        let mut state = offsets.clone();
        let mut rs_compiled = ResultSet::new();
        loop {
            let (res, _) =
                join.continue_join_compiled(&kernel, &offsets, &mut state, 64, &mut rs_compiled);
            if res == ContinueResult::Exhausted {
                break;
            }
        }

        // Tier 3: the engine, every order on the codegen tier.
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 64,
            ..Default::default()
        })
        .run(q);
        assert_eq!(
            out.metrics.fallback_orders, 0,
            "composite orders must compile, not fall back"
        );
        assert!(out.metrics.codegen_orders > 0);
        assert_eq!(out.metrics.codegen_slices, out.metrics.slices);

        let mut a: Vec<Vec<u32>> = rs_generic.iter().map(|t| t.to_vec()).collect();
        let mut b: Vec<Vec<u32>> = rs_compiled.iter().map(|t| t.to_vec()).collect();
        let mut c: Vec<Vec<u32>> = out.tuples.chunks_exact(m).map(|t| t.to_vec()).collect();
        a.sort();
        b.sort();
        c.sort();
        assert_eq!(a, b, "generic vs compiled divergence");
        assert_eq!(a, c, "generic vs engine divergence");
        assert!(!a.is_empty(), "composite join must produce matches");
    }

    /// Acceptance criterion: the whole correlated workload runs with
    /// zero codegen fallbacks — every order of every query compiles.
    #[test]
    fn workload_runs_entirely_on_codegen_tier() {
        let wl = generate(0.03, 7);
        for nq in &wl.queries {
            let out = SkinnerC::new(SkinnerCConfig {
                budget: 64,
                ..Default::default()
            })
            .run(&nq.query);
            assert_eq!(out.metrics.fallback_orders, 0, "{} fell back", nq.id);
            assert!(out.metrics.codegen_orders > 0, "{} never compiled", nq.id);
        }
    }

    #[test]
    fn composite_beats_single_column_enumeration() {
        // The point of the composite index: the fused jump enumerates
        // only rows matching *both* components. Measure kernel steps on
        // the same query with composite machinery (normal prepare) vs a
        // deliberately single-key plan (drop one conjunct from the
        // group so only a single-column jump exists, then re-add the
        // second conjunct as a residual filter — semantically identical).
        let wl = generate(0.06, 57);
        let q = &wl.queries[0].query;
        let pq = PreparedQuery::new(q, true, 1);
        let order = vec![0usize, 1];

        let steps = |pq: &PreparedQuery| {
            let kernel = pq.plan_order(&order).compile_kernel(None).unwrap();
            let mut join = MultiwayJoin::new(pq);
            let offsets = vec![0u32; 2];
            let mut state = offsets.clone();
            let mut rs = ResultSet::new();
            join.continue_join_compiled(&kernel, &offsets, &mut state, u64::MAX, &mut rs)
                .1
        };
        let steps_with = steps(&pq);
        // Single-column baseline: the pre-composite execution shape
        // (jump on movie_id only, person_id as a residual check).
        let single_q = single_key_variant(&wl.catalog);
        let pq_single = PreparedQuery::new(&single_q, true, 1);
        assert!(pq_single.composites.is_empty());
        let steps_without = steps(&pq_single);
        assert!(
            steps_with * 3 < steps_without * 2,
            "composite jump should cut kernel steps by at least a third \
             (with {steps_with}, without {steps_without})"
        );
    }

    #[test]
    fn generated_cases_have_composite_groups_and_dates() {
        let mut saw_multi_table = false;
        for seed in 0..10 {
            let (cat, q) = generate_case(seed);
            assert!(q.num_tables() >= 2);
            saw_multi_table |= q.num_tables() > 2;
            assert_eq!(q.composite_key_groups().len(), q.num_tables() - 1);
            for t in 0..q.num_tables() {
                let table = cat.get(&format!("t{t}")).expect("table");
                assert_eq!(table.column(2).value_type(), ValueType::Date);
            }
        }
        assert!(saw_multi_table, "no 3-table case in 10 seeds");
    }
}
