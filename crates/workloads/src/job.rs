//! Synthetic Join Order Benchmark (JOB-like) over an IMDB-style schema.
//!
//! The real JOB runs 113 queries over the 3.6 GB IMDB snapshot; its
//! difficulty comes from *correlated, skewed* real data that breaks the
//! independence assumption ("How good are query optimizers, really?",
//! Leis et al., VLDB 2015). This generator plants those pathologies
//! synthetically:
//!
//! * **Skew** — foreign keys are Zipf-distributed (a few blockbuster
//!   movies account for most companies, cast entries, keywords).
//! * **Correlation** — `production_year` correlates with `kind_id`;
//!   `movie_info.info_val` correlates with both its `info_type_id` and
//!   the movie's year; company country correlates with company id;
//!   `cast_info.role_id` correlates with the person's gender. Conjuncts
//!   over these columns break the independence assumption.
//!
//! Measured, the planted pathologies barely mislead the simulated
//! optimizer: summed over the 33 queries, the join orders it picks take
//! 1.19×, 1.06×, 1.06×, 1.05× and 1.02× the steps of the optimal orders
//! at scales 0.3, 1.0, 1.5, 2.0 and 2.5. It is off by more than 2.3×
//! only on queries whose optimal order takes under 23 000 steps. Real
//! IMDB data misleads estimates by orders of magnitude; this data does
//! not.
//!
//! 33 query templates (one per JOB template family shape) join 3–8
//! tables with MIN aggregates: most queries are easy, and a handful of
//! heavy 4-table joins dominate the run time.

use crate::util::zipf;
use crate::NamedQuery;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skinner_query::{AggFunc, Expr, QueryBuilder};
use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

/// A generated JOB-like workload.
pub struct JobWorkload {
    /// The IMDB-like catalog.
    pub catalog: Catalog,
    /// 33 benchmark queries.
    pub queries: Vec<NamedQuery>,
}

/// Base table sizes at `scale = 1.0`.
const TITLES: usize = 12_000;
const COMPANIES: usize = 2_500;
const MOVIE_COMPANIES: usize = 30_000;
const INFO_TYPES: usize = 40;
const MOVIE_INFO: usize = 36_000;
const MOVIE_INFO_IDX: usize = 15_000;
const NAMES: usize = 10_000;
const CAST_INFO: usize = 45_000;
const KEYWORDS: usize = 3_000;
const MOVIE_KEYWORD: usize = 30_000;

const KINDS: i64 = 7;
const COUNTRIES: [&str; 8] = ["us", "de", "fr", "jp", "uk", "in", "it", "ca"];

fn sz(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(8)
}

/// Generate the workload. `scale` multiplies all table sizes; `seed`
/// fixes both data and query constants.
pub fn generate(scale: f64, seed: u64) -> JobWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut catalog = Catalog::new();

    // -- title -------------------------------------------------------
    let n_title = sz(TITLES, scale);
    let mut kind_id = Vec::with_capacity(n_title);
    let mut year = Vec::with_capacity(n_title);
    let mut votes = Vec::with_capacity(n_title);
    for m in 0..n_title {
        let k = rng.gen_range(0..KINDS);
        // correlation: kind determines the plausible year range
        let base_year = 1930 + k * 12;
        let y = base_year + rng.gen_range(0..30);
        kind_id.push(k);
        year.push(y);
        // votes decay with id: low-id movies are the popular ones — the
        // same movies the Zipf-distributed foreign keys concentrate on.
        // A votes filter therefore selects exactly the high-fanout hub
        // rows, which is what makes bad join orders catastrophic.
        let v = (100_000.0 / (1.0 + m as f64)) as i64 + rng.gen_range(0..50i64);
        votes.push(v);
    }
    catalog.register(
        Table::new(
            "title",
            Schema::new([
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("kind_id", ValueType::Int),
                ColumnDef::new("production_year", ValueType::Int),
                ColumnDef::new("votes", ValueType::Int),
            ]),
            vec![
                Column::from_ints((0..n_title as i64).collect()),
                Column::from_ints(kind_id),
                Column::from_ints(year.clone()),
                Column::from_ints(votes),
            ],
        )
        .expect("title schema"),
    );

    // -- company_name --------------------------------------------------
    let n_comp = sz(COMPANIES, scale);
    let country: Vec<&str> = (0..n_comp)
        .map(|i| {
            // correlation: country clusters by id range
            let bucket = (i * COUNTRIES.len()) / n_comp;
            COUNTRIES[bucket.min(COUNTRIES.len() - 1)]
        })
        .collect();
    catalog.register(
        Table::new(
            "company_name",
            Schema::new([
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("country_code", ValueType::Str),
            ]),
            vec![
                Column::from_ints((0..n_comp as i64).collect()),
                Column::from_strs(country),
            ],
        )
        .expect("company_name schema"),
    );

    // -- movie_companies -----------------------------------------------
    let n_mc = sz(MOVIE_COMPANIES, scale);
    let mut mc_movie = Vec::with_capacity(n_mc);
    let mut mc_comp = Vec::with_capacity(n_mc);
    let mut mc_type = Vec::with_capacity(n_mc);
    for _ in 0..n_mc {
        let movie = zipf(&mut rng, n_title, 1.1) as i64;
        mc_movie.push(movie);
        // correlation: popular (low-id) movies use low-id companies
        let comp = if movie < (n_title / 10) as i64 {
            rng.gen_range(0..(n_comp as i64 / 4).max(1))
        } else {
            rng.gen_range(0..n_comp as i64)
        };
        mc_comp.push(comp);
        mc_type.push(rng.gen_range(0..4i64));
    }
    catalog.register(
        Table::new(
            "movie_companies",
            Schema::new([
                ColumnDef::new("movie_id", ValueType::Int),
                ColumnDef::new("company_id", ValueType::Int),
                ColumnDef::new("company_type_id", ValueType::Int),
            ]),
            vec![
                Column::from_ints(mc_movie),
                Column::from_ints(mc_comp),
                Column::from_ints(mc_type),
            ],
        )
        .expect("movie_companies schema"),
    );

    // -- info_type ------------------------------------------------------
    let n_it = INFO_TYPES;
    let it_names: Vec<String> = (0..n_it).map(|i| format!("info{i}")).collect();
    catalog.register(
        Table::new(
            "info_type",
            Schema::new([
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("info", ValueType::Str),
            ]),
            vec![
                Column::from_ints((0..n_it as i64).collect()),
                Column::from_strs(&it_names),
            ],
        )
        .expect("info_type schema"),
    );

    // -- movie_info / movie_info_idx ------------------------------------
    let gen_info = |rng: &mut SmallRng, n: usize| {
        let mut movie = Vec::with_capacity(n);
        let mut ty = Vec::with_capacity(n);
        let mut val = Vec::with_capacity(n);
        for _ in 0..n {
            let m = zipf(rng, n_title, 1.05);
            let t = rng.gen_range(0..n_it as i64);
            // correlation: value depends on info type AND the movie's year
            let v = t * 100 + (year[m] - 1930) / 3 + rng.gen_range(0..5);
            movie.push(m as i64);
            ty.push(t);
            val.push(v);
        }
        (movie, ty, val)
    };
    let (mi_m, mi_t, mi_v) = gen_info(&mut rng, sz(MOVIE_INFO, scale));
    catalog.register(
        Table::new(
            "movie_info",
            Schema::new([
                ColumnDef::new("movie_id", ValueType::Int),
                ColumnDef::new("info_type_id", ValueType::Int),
                ColumnDef::new("info_val", ValueType::Int),
            ]),
            vec![
                Column::from_ints(mi_m),
                Column::from_ints(mi_t),
                Column::from_ints(mi_v),
            ],
        )
        .expect("movie_info schema"),
    );
    let (mx_m, mx_t, mx_v) = gen_info(&mut rng, sz(MOVIE_INFO_IDX, scale));
    catalog.register(
        Table::new(
            "movie_info_idx",
            Schema::new([
                ColumnDef::new("movie_id", ValueType::Int),
                ColumnDef::new("info_type_id", ValueType::Int),
                ColumnDef::new("info_val", ValueType::Int),
            ]),
            vec![
                Column::from_ints(mx_m),
                Column::from_ints(mx_t),
                Column::from_ints(mx_v),
            ],
        )
        .expect("movie_info_idx schema"),
    );

    // -- name / cast_info -----------------------------------------------
    let n_name = sz(NAMES, scale);
    let gender: Vec<&str> = (0..n_name)
        .map(|_| if rng.gen_bool(0.45) { "f" } else { "m" })
        .collect();
    let gender_flags: Vec<bool> = gender.iter().map(|g| *g == "f").collect();
    catalog.register(
        Table::new(
            "name",
            Schema::new([
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("gender", ValueType::Str),
            ]),
            vec![
                Column::from_ints((0..n_name as i64).collect()),
                Column::from_strs(gender),
            ],
        )
        .expect("name schema"),
    );
    let n_ci = sz(CAST_INFO, scale);
    let mut ci_movie = Vec::with_capacity(n_ci);
    let mut ci_person = Vec::with_capacity(n_ci);
    let mut ci_role = Vec::with_capacity(n_ci);
    for _ in 0..n_ci {
        let p = zipf(&mut rng, n_name, 1.2);
        ci_movie.push(zipf(&mut rng, n_title, 1.05) as i64);
        ci_person.push(p as i64);
        // correlation: role depends on gender
        let r = if gender_flags[p] {
            rng.gen_range(0..3i64)
        } else {
            rng.gen_range(2..6i64)
        };
        ci_role.push(r);
    }
    catalog.register(
        Table::new(
            "cast_info",
            Schema::new([
                ColumnDef::new("movie_id", ValueType::Int),
                ColumnDef::new("person_id", ValueType::Int),
                ColumnDef::new("role_id", ValueType::Int),
            ]),
            vec![
                Column::from_ints(ci_movie),
                Column::from_ints(ci_person),
                Column::from_ints(ci_role),
            ],
        )
        .expect("cast_info schema"),
    );

    // -- keyword / movie_keyword -----------------------------------------
    let n_kw = sz(KEYWORDS, scale);
    catalog.register(
        Table::new(
            "keyword",
            Schema::new([
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("bucket", ValueType::Int),
            ]),
            vec![
                Column::from_ints((0..n_kw as i64).collect()),
                Column::from_ints((0..n_kw as i64).map(|i| i % 50).collect()),
            ],
        )
        .expect("keyword schema"),
    );
    let n_mk = sz(MOVIE_KEYWORD, scale);
    let mut mk_movie = Vec::with_capacity(n_mk);
    let mut mk_kw = Vec::with_capacity(n_mk);
    for _ in 0..n_mk {
        mk_movie.push(zipf(&mut rng, n_title, 1.1) as i64);
        mk_kw.push(zipf(&mut rng, n_kw, 1.4) as i64);
    }
    catalog.register(
        Table::new(
            "movie_keyword",
            Schema::new([
                ColumnDef::new("movie_id", ValueType::Int),
                ColumnDef::new("keyword_id", ValueType::Int),
            ]),
            vec![Column::from_ints(mk_movie), Column::from_ints(mk_kw)],
        )
        .expect("movie_keyword schema"),
    );

    let queries = build_queries(&catalog, &mut rng);
    JobWorkload { catalog, queries }
}

/// 33 templates over the schema. Constants vary with the RNG so each
/// seed yields a distinct but structurally identical workload.
fn build_queries(catalog: &Catalog, rng: &mut SmallRng) -> Vec<NamedQuery> {
    let mut queries = Vec::new();
    let mut add = |id: String, q: skinner_query::Query| {
        queries.push(NamedQuery::new(id, q));
    };

    for template in 0..33 {
        let mut qb = QueryBuilder::new(catalog);
        let id = format!("job-{:02}", template + 1);
        // Template families cycle through join shapes of growing size;
        // constants are drawn fresh each time.
        let kind = rng.gen_range(0..KINDS);
        let year_lo = 1930 + rng.gen_range(0..60);
        let country = COUNTRIES[rng.gen_range(0..COUNTRIES.len())];
        let it = rng.gen_range(0..INFO_TYPES as i64);
        match template % 6 {
            0 => {
                // 3-way: title ⋈ movie_companies ⋈ company_name
                qb.table_as("title", "t").unwrap();
                qb.table_as("movie_companies", "mc").unwrap();
                qb.table_as("company_name", "cn").unwrap();
                let j1 = qb.col("t.id").unwrap().eq(qb.col("mc.movie_id").unwrap());
                let j2 = qb
                    .col("mc.company_id")
                    .unwrap()
                    .eq(qb.col("cn.id").unwrap());
                qb.filter(j1);
                qb.filter(j2);
                let f1 = qb.col("cn.country_code").unwrap().eq(Expr::lit(country));
                // correlated pair: kind + year (independence fails here)
                let f2 = qb.col("t.kind_id").unwrap().eq(Expr::lit(kind));
                let f3 = qb.col("t.production_year").unwrap().gt(Expr::lit(year_lo));
                qb.filter(f1);
                qb.filter(f2);
                qb.filter(f3);
                let y = qb.col("t.production_year").unwrap();
                qb.select_agg(AggFunc::Min, Some(y), "min_year");
            }
            1 => {
                // 4-way: title ⋈ movie_info ⋈ info_type, + movie_keyword
                qb.table_as("title", "t").unwrap();
                qb.table_as("movie_info", "mi").unwrap();
                qb.table_as("info_type", "it").unwrap();
                qb.table_as("movie_keyword", "mk").unwrap();
                let j1 = qb.col("t.id").unwrap().eq(qb.col("mi.movie_id").unwrap());
                let j2 = qb
                    .col("mi.info_type_id")
                    .unwrap()
                    .eq(qb.col("it.id").unwrap());
                let j3 = qb.col("t.id").unwrap().eq(qb.col("mk.movie_id").unwrap());
                qb.filter(j1);
                qb.filter(j2);
                qb.filter(j3);
                let f1 = qb.col("it.id").unwrap().eq(Expr::lit(it));
                // correlated: info_val range implied by info type
                let f2 = qb.col("mi.info_val").unwrap().ge(Expr::lit(it * 100));
                let f3 = qb.col("mi.info_val").unwrap().lt(Expr::lit(it * 100 + 40));
                qb.filter(f1);
                qb.filter(f2);
                qb.filter(f3);
                let v = qb.col("mi.info_val").unwrap();
                qb.select_agg(AggFunc::Min, Some(v), "min_val");
            }
            2 => {
                // 5-way star around title
                qb.table_as("title", "t").unwrap();
                qb.table_as("movie_companies", "mc").unwrap();
                qb.table_as("company_name", "cn").unwrap();
                qb.table_as("movie_keyword", "mk").unwrap();
                qb.table_as("keyword", "k").unwrap();
                for (a, b) in [
                    ("t.id", "mc.movie_id"),
                    ("mc.company_id", "cn.id"),
                    ("t.id", "mk.movie_id"),
                    ("mk.keyword_id", "k.id"),
                ] {
                    let j = qb.col(a).unwrap().eq(qb.col(b).unwrap());
                    qb.filter(j);
                }
                let f1 = qb.col("cn.country_code").unwrap().eq(Expr::lit(country));
                let f2 = qb
                    .col("k.bucket")
                    .unwrap()
                    .eq(Expr::lit(rng.gen_range(0..50i64)));
                let f3 = qb.col("t.votes").unwrap().gt(Expr::lit(80));
                let f3b = qb.col("t.votes").unwrap().lt(Expr::lit(400));
                qb.filter(f3b);
                let f4 = qb.col("mc.company_type_id").unwrap().eq(Expr::lit(0));
                qb.filter(f1);
                qb.filter(f2);
                qb.filter(f3);
                qb.filter(f4);
                let y = qb.col("t.production_year").unwrap();
                qb.select_agg(AggFunc::Min, Some(y), "min_year");
            }
            3 => {
                // 6-way: cast chain
                qb.table_as("title", "t").unwrap();
                qb.table_as("cast_info", "ci").unwrap();
                qb.table_as("name", "n").unwrap();
                qb.table_as("movie_companies", "mc").unwrap();
                qb.table_as("company_name", "cn").unwrap();
                qb.table_as("movie_keyword", "mk").unwrap();
                for (a, b) in [
                    ("t.id", "ci.movie_id"),
                    ("ci.person_id", "n.id"),
                    ("t.id", "mc.movie_id"),
                    ("mc.company_id", "cn.id"),
                    ("t.id", "mk.movie_id"),
                    // transitive closure, as real JOB queries spell out —
                    // these adjacencies let bad plans join skewed fact
                    // tables directly (the catastrophic shape)
                    ("ci.movie_id", "mc.movie_id"),
                    ("mc.movie_id", "mk.movie_id"),
                ] {
                    let j = qb.col(a).unwrap().eq(qb.col(b).unwrap());
                    qb.filter(j);
                }
                // correlated pair: gender + role; every m:n fact table
                // carries a fanout-cutting filter (as real JOB queries
                // do), so results stay small while *unfiltered prefixes*
                // of bad join orders still explode
                let n_kw = catalog.get("keyword").expect("keyword").num_rows() as i64;
                let f1 = qb.col("n.gender").unwrap().eq(Expr::lit("f"));
                let f2 = qb.col("ci.role_id").unwrap().le(Expr::lit(0));
                let f3 = qb.col("t.kind_id").unwrap().eq(Expr::lit(kind));
                let f4 = qb.col("t.votes").unwrap().gt(Expr::lit(60));
                let f4b = qb.col("t.votes").unwrap().lt(Expr::lit(300));
                qb.filter(f4b);
                let f5 = qb.col("mc.company_type_id").unwrap().eq(Expr::lit(1));
                let f6 = qb.col("mk.keyword_id").unwrap().gt(Expr::lit(n_kw / 2));
                qb.filter(f1);
                qb.filter(f2);
                qb.filter(f3);
                qb.filter(f4);
                qb.filter(f5);
                qb.filter(f6);
                let y = qb.col("t.production_year").unwrap();
                qb.select_agg(AggFunc::Min, Some(y), "min_year");
            }
            4 => {
                // 7-way: two info branches + companies
                qb.table_as("title", "t").unwrap();
                qb.table_as("movie_info", "mi").unwrap();
                qb.table_as("movie_info_idx", "mx").unwrap();
                qb.table_as("info_type", "it1").unwrap();
                qb.table_as("info_type", "it2").unwrap();
                qb.table_as("movie_companies", "mc").unwrap();
                qb.table_as("company_name", "cn").unwrap();
                for (a, b) in [
                    ("t.id", "mi.movie_id"),
                    ("t.id", "mx.movie_id"),
                    ("mi.info_type_id", "it1.id"),
                    ("mx.info_type_id", "it2.id"),
                    ("t.id", "mc.movie_id"),
                    ("mc.company_id", "cn.id"),
                    // transitive closure (see the 6-way template)
                    ("mi.movie_id", "mx.movie_id"),
                    ("mx.movie_id", "mc.movie_id"),
                ] {
                    let j = qb.col(a).unwrap().eq(qb.col(b).unwrap());
                    qb.filter(j);
                }
                let f1 = qb.col("it1.id").unwrap().eq(Expr::lit(it));
                let f2 = qb
                    .col("it2.id")
                    .unwrap()
                    .eq(Expr::lit((it + 7) % INFO_TYPES as i64));
                // correlated year/kind trap
                let f3 = qb.col("t.kind_id").unwrap().eq(Expr::lit(kind));
                let f4 = qb
                    .col("t.production_year")
                    .unwrap()
                    .lt(Expr::lit(1930 + kind * 12 + 15));
                // narrow correlated value band keeps the result small
                let f5 = qb.col("mi.info_val").unwrap().lt(Expr::lit(it * 100 + 15));
                let f6 = qb.col("mc.company_type_id").unwrap().eq(Expr::lit(2));
                qb.filter(f1);
                qb.filter(f2);
                qb.filter(f3);
                qb.filter(f4);
                qb.filter(f5);
                qb.filter(f6);
                let v = qb.col("mx.info_val").unwrap();
                qb.select_agg(AggFunc::Min, Some(v), "min_val");
            }
            _ => {
                // 8-way: the heavy template (the "catastrophic" family)
                qb.table_as("title", "t").unwrap();
                qb.table_as("cast_info", "ci").unwrap();
                qb.table_as("name", "n").unwrap();
                qb.table_as("movie_info", "mi").unwrap();
                qb.table_as("info_type", "it").unwrap();
                qb.table_as("movie_keyword", "mk").unwrap();
                qb.table_as("keyword", "k").unwrap();
                qb.table_as("movie_companies", "mc").unwrap();
                for (a, b) in [
                    ("t.id", "ci.movie_id"),
                    ("ci.person_id", "n.id"),
                    ("t.id", "mi.movie_id"),
                    ("mi.info_type_id", "it.id"),
                    ("t.id", "mk.movie_id"),
                    ("mk.keyword_id", "k.id"),
                    ("t.id", "mc.movie_id"),
                    // transitive closure (see the 6-way template)
                    ("ci.movie_id", "mi.movie_id"),
                    ("mi.movie_id", "mk.movie_id"),
                    ("mk.movie_id", "mc.movie_id"),
                ] {
                    let j = qb.col(a).unwrap().eq(qb.col(b).unwrap());
                    qb.filter(j);
                }
                // The trap: kind/year look independent (each ~1/7, ~1/2)
                // but are perfectly correlated, so `title` filters to far
                // more rows than estimated and must NOT be joined late.
                let f1 = qb.col("t.kind_id").unwrap().eq(Expr::lit(kind));
                let f2 = qb
                    .col("t.production_year")
                    .unwrap()
                    .ge(Expr::lit(1930 + kind * 12));
                let band = rng.gen_range(0..20i64) * 100;
                let f3 = qb.col("mi.info_val").unwrap().ge(Expr::lit(band));
                let f4 = qb.col("mi.info_val").unwrap().lt(Expr::lit(band + 110));
                let f5 = qb.col("t.votes").unwrap().gt(Expr::lit(60));
                let f5b = qb.col("t.votes").unwrap().lt(Expr::lit(200));
                qb.filter(f5b);
                let f6 = qb
                    .col("k.bucket")
                    .unwrap()
                    .eq(Expr::lit(rng.gen_range(0..50i64)));
                let f7 = qb.col("ci.role_id").unwrap().eq(Expr::lit(0));
                let f8 = qb.col("mc.company_type_id").unwrap().eq(Expr::lit(3));
                qb.filter(f1);
                qb.filter(f2);
                qb.filter(f3);
                qb.filter(f4);
                qb.filter(f5);
                qb.filter(f6);
                qb.filter(f7);
                qb.filter(f8);
                let y = qb.col("t.production_year").unwrap();
                qb.select_agg(AggFunc::Min, Some(y), "min_year");
            }
        }
        add(id, qb.build().expect("template query builds"));
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_33_valid_queries() {
        let wl = generate(0.05, 42);
        assert_eq!(wl.queries.len(), 33);
        for nq in &wl.queries {
            assert!(nq.query.validate().is_ok(), "{} invalid", nq.id);
            assert!(nq.query.num_tables() >= 3, "{} too small", nq.id);
            assert!(nq.query.join_predicates().count() >= 2);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(0.05, 7);
        let b = generate(0.05, 7);
        assert_eq!(
            a.catalog.get("title").unwrap().num_rows(),
            b.catalog.get("title").unwrap().num_rows()
        );
        let ta = a.catalog.get("cast_info").unwrap();
        let tb = b.catalog.get("cast_info").unwrap();
        for c in 0..ta.schema().len() {
            for r in [0usize, 5, 100] {
                assert_eq!(ta.column(c).get(r), tb.column(c).get(r));
            }
        }
    }

    #[test]
    fn correlations_present() {
        let wl = generate(0.1, 1);
        // kind_id determines year range: year ∈ [1930+k*12, 1930+k*12+30)
        let t = wl.catalog.get("title").unwrap();
        for r in 0..t.num_rows() {
            let k = t.column(1).int(r);
            let y = t.column(2).int(r);
            assert!(y >= 1930 + k * 12 && y < 1930 + k * 12 + 30);
        }
    }

    #[test]
    fn sizes_scale() {
        let small = generate(0.02, 3);
        let big = generate(0.1, 3);
        assert!(
            big.catalog.get("title").unwrap().num_rows()
                > 3 * small.catalog.get("title").unwrap().num_rows()
        );
    }
}
