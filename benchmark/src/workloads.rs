//! The benchmark's inputs: every table, query and expected result is
//! made here from `--seed`, and nothing else reaches the program.
//!
//! Sizes are fixed so that one pass (every query of the workload once)
//! takes 0.4–1.1 s on the 2-core reference host and a run holds at least
//! 15 timed passes; `README.md` records how they were probed.

use crate::util::{Expected, Rng};
use skinner_core::run_engine;
use skinner_query::Query;
use skinner_simdb::{ColEngine, ExecOptions};
use skinner_storage::Catalog;
use skinner_workloads::torture::{self, Shape, TortureCase};
use skinner_workloads::{job, tpch, NamedQuery};

/// JOB-like scale for `job_cold` and `wire_warm`.
pub const JOB_SCALE: f64 = 1.5;
/// The JOB-like tables and query constants are one fixed data set, as the
/// join order benchmark's IMDB snapshot is; `--seed` decides the order the
/// queries are issued in. Both alternatives were measured and rejected:
/// the generator's Zipf hubs make `total_s` differ by 3x between generator
/// seeds, and even the same rows in another physical order move it by
/// ±20 %, because the learner takes another path. Either would bury every
/// bound in input variance.
pub const JOB_DATA_SEED: u64 = 42;
/// TPC-H scale factor for `tpch_prep` (300 000 lineitem rows).
pub const TPCH_SF: f64 = 0.05;
/// Work units burned per TPC-UDF predicate call.
pub const TPCH_UDF_COST: u32 = 20;
/// Rows per table of the trivial-optimization cases. Steps, and so
/// slices, grow with the square of this.
pub const TRIVIAL_ROWS: usize = 1300;
/// Rows per table of the UDF-torture cases with at most 8 tables.
pub const UDF_ROWS: usize = 100;
/// Rows per table of the 10-table UDF-torture cases: one prefix tuple of
/// the compiled 6-table prefix expands `rows^4` suffix steps, so 100 rows
/// would make a single unlucky slice take minutes.
pub const UDF_ROWS_10T: usize = 24;
/// Rows per table and fan-out of the correlation-torture cases.
pub const CORR_ROWS: usize = 1000;
pub const CORR_FANOUT: usize = 10;

/// The three workloads that call the engine in-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InProcKind {
    JobCold,
    TpchPrep,
    TortureSlices,
}

/// One query with the rows it must return.
pub struct Case {
    pub id: String,
    pub query: Query,
    pub expected: Expected,
}

/// An in-process workload, ready to run.
pub struct InProc {
    /// The queries, in the order the seed drew for this run.
    pub cases: Vec<Case>,
    /// A catalog of this workload and SQL over it, for the traced run's
    /// measurement of the layers the workload itself does not cross
    /// (parser, service, wire).
    pub probe_catalog: Catalog,
    pub probe_sql: Vec<String>,
}

/// The JOB-like catalog `wire_warm` serves.
pub fn wire_catalog() -> Catalog {
    job::generate(JOB_SCALE, JOB_DATA_SEED).catalog
}

/// Expected rows through the simulated column engine — a separate
/// optimizer, executor and join algorithm from Skinner-C; only the
/// post-processor is shared. `order` forces the join order where the
/// engine's own optimizer would walk into the trap the query sets.
fn case(nq: NamedQuery, order: Option<Vec<usize>>) -> Case {
    let opts = ExecOptions {
        join_order: order,
        ..Default::default()
    };
    let result = run_engine(&ColEngine::new(), &nq.query, &opts);
    Case {
        id: nq.id,
        query: nq.query,
        expected: Expected::new(result.table.rows, None),
    }
}

/// A connected join order of an `m`-table chain that starts with the
/// edge `(a, a + 1)`.
fn chain_order_from(m: usize, a: usize) -> Vec<usize> {
    (a..m).chain((0..a).rev()).collect()
}

fn torture_inputs() -> InProc {
    let mut cases = Vec::new();
    // `order` is the oracle's join order; it starts at the empty edge.
    let mut add = |t: TortureCase, order: Vec<usize>| -> Catalog {
        cases.push(case(t.query, Some(order)));
        t.catalog
    };
    let probe_catalog = add(
        torture::trivial_optimization(6, TRIVIAL_ROWS, 0),
        (0..6).collect(),
    );
    add(
        torture::trivial_optimization(8, TRIVIAL_ROWS, 0),
        (0..8).collect(),
    );
    for m in [6usize, 8, 10] {
        // The empty ("good") edge sits mid-graph, where neither a
        // left-to-right nor a right-to-left default order meets it first.
        let good = m / 2 - 1;
        let rows = if m > 8 { UDF_ROWS_10T } else { UDF_ROWS };
        add(
            torture::udf_torture(Shape::Chain, m, rows, good, 0),
            chain_order_from(m, good),
        );
        add(
            torture::udf_torture(Shape::Star, m, rows, good, 0),
            [0, good + 1]
                .into_iter()
                .chain((1..m).filter(|&t| t != good + 1))
                .collect(),
        );
        add(
            torture::correlation_torture(m, CORR_ROWS, good, CORR_FANOUT),
            chain_order_from(m, good),
        );
    }
    InProc {
        cases,
        probe_catalog,
        probe_sql: vec![
            "SELECT COUNT(*) AS n FROM t0, t1, t2 WHERE t0.id = t1.id AND t1.id = t2.id".into(),
            "SELECT t0.id AS id, t1.v AS v FROM t0, t1 WHERE t0.id = t1.id AND t0.v < 6".into(),
        ],
    }
}

/// SQL the wire tier serves over the JOB-like catalog: the four
/// templates of `skinner_net::load::job_templates`, a ≥ 100 k-row stream,
/// a `LIMIT` that stops the join early, and two joins of five and six
/// tables. `{a}`/`{b}` are constants that rotate between executions, so
/// the template key repeats while the constants do not.
pub const WIRE_TEMPLATES: [(&str, &str, [&str; 3], [&str; 3]); 8] = [
    (
        "companies-agg",
        "SELECT COUNT(*) AS n FROM title t, movie_companies mc, company_name cn \
         WHERE t.id = mc.movie_id AND mc.company_id = cn.id \
         AND cn.country_code = '{a}' AND t.production_year > {b}",
        ["us", "de", "fr"],
        ["1960", "1950", "1970"],
    ),
    (
        "info-band-min",
        "SELECT MIN(mi.info_val) AS lo FROM title t, movie_info mi, info_type it \
         WHERE t.id = mi.movie_id AND mi.info_type_id = it.id \
         AND it.id = {a} AND mi.info_val < {b}",
        ["5", "9", "17"],
        ["560", "960", "1760"],
    ),
    (
        "keyword-min-year",
        "SELECT MIN(t.production_year) AS y FROM title t, movie_keyword mk, keyword k \
         WHERE t.id = mk.movie_id AND mk.keyword_id = k.id \
         AND k.bucket = {a} AND t.votes > {b}",
        ["7", "19", "33"],
        ["100", "80", "120"],
    ),
    (
        "popular-stream",
        "SELECT t.id AS id, t.production_year AS year \
         FROM title t, movie_companies mc \
         WHERE t.id = mc.movie_id AND mc.company_type_id = {a} AND t.votes > {b} \
         LIMIT 1000000",
        ["2", "1", "3"],
        ["2000", "1500", "2500"],
    ),
    (
        "keyword-stream-100k",
        "SELECT mk.keyword_id AS kw, mc.company_id AS co \
         FROM movie_keyword mk, movie_companies mc \
         WHERE mk.movie_id = mc.movie_id AND mc.company_type_id = {a} AND mk.movie_id > {b}",
        ["0", "1", "2"],
        ["40", "45", "40"],
    ),
    (
        "cast-limit-pushdown",
        "SELECT ci.person_id AS person, t.id AS movie FROM title t, cast_info ci \
         WHERE t.id = ci.movie_id AND ci.role_id = {a} AND t.votes > {b} LIMIT 200",
        ["0", "1", "2"],
        ["50", "60", "70"],
    ),
    (
        "five-table-star",
        "SELECT MIN(t.production_year) AS y \
         FROM title t, movie_companies mc, company_name cn, movie_keyword mk, keyword k \
         WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mk.movie_id \
         AND mk.keyword_id = k.id AND cn.country_code = '{a}' AND k.bucket = {b} \
         AND t.votes > 80 AND t.votes < 400 AND mc.company_type_id = 0",
        ["us", "de", "jp"],
        ["11", "23", "41"],
    ),
    (
        "six-table-cast",
        "SELECT COUNT(*) AS n \
         FROM title t, cast_info ci, name n, movie_companies mc, company_name cn, movie_keyword mk \
         WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.id = mc.movie_id \
         AND mc.company_id = cn.id AND t.id = mk.movie_id AND n.gender = '{a}' \
         AND ci.role_id <= 0 AND t.kind_id = {b} AND t.votes > 60 AND t.votes < 300 \
         AND mc.company_type_id = 1",
        ["f", "m", "f"],
        ["3", "4", "5"],
    ),
];

/// Index of the 100 k-row stream among `WIRE_TEMPLATES`.
pub const STREAM_TEMPLATE: usize = 4;

/// Constant rotations per wire template.
pub const WIRE_VARIANTS: usize = 3;

/// The SQL text of wire template `t` with constant set `v`.
pub fn wire_sql(t: usize, v: usize) -> String {
    let (_, sql, a, b) = WIRE_TEMPLATES[t];
    sql.replace("{a}", a[v]).replace("{b}", b[v])
}

/// Build the in-process workload `kind` for `seed`: the tables and
/// queries, the oracle's expected rows for every query, and the order the
/// seed draws for them. `tpch_prep` also draws every value from the seed;
/// see `JOB_DATA_SEED` for why `job_cold` does not.
pub fn build(kind: InProcKind, seed: u64) -> InProc {
    let mut wl = match kind {
        InProcKind::JobCold => {
            let base = job::generate(JOB_SCALE, JOB_DATA_SEED);
            InProc {
                cases: base.queries.into_iter().map(|nq| case(nq, None)).collect(),
                probe_catalog: base.catalog,
                probe_sql: (0..WIRE_TEMPLATES.len()).map(|t| wire_sql(t, 0)).collect(),
            }
        }
        InProcKind::TpchPrep => {
            let catalog = tpch::generate(TPCH_SF, seed);
            let mut queries = tpch::queries(&catalog, false, 0);
            queries.extend(
                tpch::queries(&catalog, true, TPCH_UDF_COST)
                    .into_iter()
                    .map(|nq| NamedQuery::new(format!("udf-{}", nq.id), nq.query)),
            );
            InProc {
                cases: queries.into_iter().map(|nq| case(nq, None)).collect(),
                probe_catalog: catalog,
                probe_sql: vec![
                    "SELECT COUNT(*) AS n FROM orders o, customer c \
                     WHERE o.custkey = c.custkey AND c.mktsegment = 'BUILDING'"
                        .into(),
                    "SELECT s.suppkey AS supp, n.name AS nation FROM supplier s, nation n \
                     WHERE s.nationkey = n.nationkey AND s.acctbal > 5000.0"
                        .into(),
                ],
            }
        }
        // The torture generators take no seed: their tables are fixed by
        // the sizes above.
        InProcKind::TortureSlices => torture_inputs(),
    };
    Rng::new(seed).shuffle(&mut wl.cases);
    wl
}
