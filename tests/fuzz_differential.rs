//! Randomized differential fuzz harness over the full type/key surface.
//!
//! A generator draws arbitrary small schemas — mixed Int / Float / Str /
//! Date columns, nullable or not — chained by equality joins whose keys
//! are **one or two columns wide** (two-column keys exercise the
//! composite fused-key machinery end to end), plus a random unary
//! filter. Every case is executed by every kernel tier and compared:
//!
//! * the generic reference kernel (one shot) is the oracle,
//! * the compiled kernel runs in small slices on **every** shape —
//!   integer, float, fused composite, string and nullable keys, at any
//!   order length, as one kernel whose slices stop at their step budget,
//! * the full Skinner-C engine (heavy order switching) is checked
//!   against the vectorized column engine,
//! * a global MIN/MAX, folded while the join runs, is checked against
//!   the column engine and against post-processed distinct tuples, with
//!   the learner's slices, steps and final order unchanged.
//!
//! Threads parallelize pre-processing only: with a counting UDF filter
//! on every table, a run at `threads: 1` and one whose filter scans are
//! `SKINNER_TEST_THREADS` pool morsels — on pools of 1/2/4/8 workers
//! under a seeded steal-schedule perturbation (`skinner_pool::schedule`)
//! — must agree byte for byte: tuples in emission order, steps, slices,
//! learned orders and UDF calls.
//!
//! Case counts honor `PROPTEST_CASES` (the nightly CI profile runs 256;
//! the default is 64). On failure the vendored proptest shim prints no
//! shrink — re-run with `PROPTEST_SEED` to replay.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skinnerdb::engine::multiway::{ContinueResult, ResultSet};
use skinnerdb::engine::{
    schedule, KernelJump, MultiwayJoin, PreparedQuery, SkinnerC, SkinnerCConfig, WorkerPool,
};
use skinnerdb::prelude::*;
use skinnerdb::query::{JoinGraph, TableSet};
use skinnerdb::storage::{days_from_ymd, ColumnBuilder};
use std::sync::{Arc, OnceLock};

/// Shared pools of 1/2/4/8 workers, created once per test binary —
/// per-case pool construction would spawn thousands of threads for
/// nothing, and sharing them across cases is exactly the production
/// shape (one pool, many queries).
fn shared_pool(workers: usize) -> Arc<WorkerPool> {
    static POOLS: OnceLock<Vec<Arc<WorkerPool>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| POOL_SIZES.iter().map(|&w| WorkerPool::new(w)).collect());
    pools[POOL_SIZES
        .iter()
        .position(|&w| w == workers)
        .expect("known size")]
    .clone()
}

/// The pool configurations every parallel pre-processing run must agree
/// across.
const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Component types a join key column can take.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyType {
    Int,
    Float,
    Str,
    Date,
}

impl KeyType {
    fn pick(rng: &mut SmallRng) -> KeyType {
        [KeyType::Int, KeyType::Float, KeyType::Str, KeyType::Date][rng.gen_range(0..4)]
    }

    fn value_type(self) -> ValueType {
        match self {
            KeyType::Int => ValueType::Int,
            KeyType::Float => ValueType::Float,
            KeyType::Str => ValueType::Str,
            KeyType::Date => ValueType::Date,
        }
    }

    /// A key value for logical id `v` (small spaces ⇒ real join hits).
    /// Floats are exact binary fractions so bit-pattern keys coincide
    /// with IEEE equality; dates are days near an epoch.
    fn value(self, v: i64) -> Value {
        match self {
            KeyType::Int => Value::Int(v),
            KeyType::Float => Value::Float(v as f64 * 0.25),
            KeyType::Str => Value::str(format!("key-{v}")),
            KeyType::Date => Value::Date(days_from_ymd(2001, 6, 1) + v),
        }
    }
}

/// One chain edge: the paired key columns joining table `t` to `t+1`.
#[derive(Debug, Clone)]
struct Edge {
    /// 1 or 2 key components; each holds the (left-table, right-table)
    /// column types — usually equal, occasionally mixed.
    types: Vec<(KeyType, KeyType)>,
}

/// Build one key (or value) column of `n` rows: ids drawn from
/// `0..space`, each row NULL with probability `null_pct`%.
fn gen_column(
    rng: &mut SmallRng,
    ty: KeyType,
    n: usize,
    space: i64,
    null_pct: u32,
) -> skinnerdb::storage::Column {
    let mut b = ColumnBuilder::new(ty.value_type());
    for _ in 0..n {
        if rng.gen_range(0..100) < null_pct {
            b.push(&Value::Null);
        } else {
            b.push(&ty.value(rng.gen_range(0..space)));
        }
    }
    b.finish()
}

/// A generated case: catalog + chain query over 2..=4 tables with 1–2
/// column join keys of mixed types and one random unary filter.
fn arb_fuzz_case() -> impl Strategy<Value = (Catalog, Query)> {
    (any::<u64>(),).prop_map(|(seed,)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = rng.gen_range(2..5usize);
        let base_rows = rng.gen_range(4..22usize);
        let space = rng.gen_range(2..6i64);
        // Nullable keys bind KeyEq jumps (with NULL-reject); keep the probability mixed so both the
        // exact-int and hash-key jump paths appear.
        let null_pct = [0, 0, 10, 30][rng.gen_range(0..4)];

        // One edge per adjacent pair, each 1 or 2 components wide. Each
        // component usually joins identically-typed columns, but ~1 in 5
        // components pairs *different* types on the two sides —
        // covering the cross-type surface (Int = Float is true under
        // numeric widening, so key-based acceleration must be refused
        // there; Date vs Int and number vs string are NULL under the
        // lattice).
        let edges: Vec<Edge> = (0..m - 1)
            .map(|_| Edge {
                types: (0..rng.gen_range(1..3usize))
                    .map(|_| {
                        let left = KeyType::pick(&mut rng);
                        let right = if rng.gen_range(0..5) == 0 {
                            KeyType::pick(&mut rng)
                        } else {
                            left
                        };
                        (left, right)
                    })
                    .collect(),
            })
            .collect();

        let mut cat = Catalog::new();
        for t in 0..m {
            let n = base_rows + rng.gen_range(0..8);
            let mut defs = Vec::new();
            let mut cols = Vec::new();
            // Left-edge key columns (joining to table t-1): the edge's
            // right-side types.
            if t > 0 {
                for (i, &(_, kt)) in edges[t - 1].types.iter().enumerate() {
                    defs.push(ColumnDef::new(format!("lk{i}"), kt.value_type()));
                    cols.push(gen_column(&mut rng, kt, n, space, null_pct));
                }
            }
            // Right-edge key columns (joining to table t+1): the edge's
            // left-side types.
            if t < m - 1 {
                for (i, &(kt, _)) in edges[t].types.iter().enumerate() {
                    defs.push(ColumnDef::new(format!("rk{i}"), kt.value_type()));
                    cols.push(gen_column(&mut rng, kt, n, space, null_pct));
                }
            }
            // A value column for filters and projection.
            defs.push(ColumnDef::new("v", ValueType::Int));
            cols.push(gen_column(&mut rng, KeyType::Int, n, 20, 10));
            cat.register(Table::new(format!("t{t}"), Schema::new(defs), cols).expect("table"));
        }

        let mut qb = QueryBuilder::new(&cat);
        for t in 0..m {
            qb.table(&format!("t{t}")).expect("table");
        }
        for (t, edge) in edges.iter().enumerate() {
            for i in 0..edge.types.len() {
                let j = qb
                    .col(&format!("t{t}.rk{i}"))
                    .expect("col")
                    .eq(qb.col(&format!("t{}.lk{i}", t + 1)).expect("col"));
                qb.filter(j);
            }
        }
        // One random unary filter.
        let ft = rng.gen_range(0..m);
        let unary = match rng.gen_range(0..3) {
            0 => qb
                .col(&format!("t{ft}.v"))
                .expect("col")
                .lt(Expr::lit(rng.gen_range(1..20i64))),
            1 => Expr::IsNull {
                expr: Box::new(qb.col(&format!("t{ft}.v")).expect("col")),
                negated: true,
            },
            _ => {
                // A typed comparison on one of the table's key columns,
                // when it has any (fall back to v otherwise).
                let name = if ft > 0 {
                    format!("t{ft}.lk0")
                } else if ft < m - 1 {
                    format!("t{ft}.rk0")
                } else {
                    format!("t{ft}.v")
                };
                let col = qb.col(&name).expect("col");
                if name.ends_with('v') {
                    col.lt(Expr::lit(rng.gen_range(1..20i64)))
                } else {
                    let kt = if ft > 0 {
                        edges[ft - 1].types[0].1
                    } else {
                        edges[ft].types[0].0
                    };
                    match kt {
                        KeyType::Str => col.like(format!("key-{}%", rng.gen_range(0..space))),
                        other => col.le(Expr::Literal(other.value(rng.gen_range(0..space)))),
                    }
                }
            }
        };
        qb.filter(unary);
        qb.select_col("t0.v").expect("select");
        (cat.clone(), qb.build().expect("fuzz query"))
    })
}

/// A random valid (connected) join order for the query.
fn random_valid_order(q: &Query, seed: u64) -> Vec<usize> {
    let graph = JoinGraph::from_query(q);
    let m = q.num_tables();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order = Vec::with_capacity(m);
    let mut chosen = TableSet::EMPTY;
    while order.len() < m {
        let elig: Vec<usize> = graph.eligible_next(chosen).iter().collect();
        let t = elig[rng.gen_range(0..elig.len())];
        order.push(t);
        chosen.insert(t);
    }
    order
}

/// A global MIN/MAX variant of a fuzz case: one to three MIN/MAX items,
/// each over a bare column of any FROM table (Int, Float, Str, Date, all
/// possibly NULL) or a computed expression (sums, and quotients that can
/// be NULL, infinite or NaN); one case in five adds an unsatisfiable
/// filter (an empty join), and LIMIT is none, 0 or 1.
fn min_max_variant(q: &Query, seed: u64) -> Query {
    use skinnerdb::query::{Agg, BinOp, SelectItem};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut q = q.clone();
    let m = q.num_tables();
    // Every table's last column is `v`, drawn from 0..20.
    let widths: Vec<usize> = q.tables.iter().map(|b| b.table.schema().len()).collect();
    let any_col = |rng: &mut SmallRng| {
        let t = rng.gen_range(0..m);
        Expr::col(t, rng.gen_range(0..widths[t]))
    };
    // `v < k` as 0.0 or 1.0.
    let flag = |rng: &mut SmallRng| {
        let t = rng.gen_range(0..m);
        Expr::col(t, widths[t] - 1)
            .lt(Expr::lit(rng.gen_range(0..20i64)))
            .mul(Expr::lit(1.0))
    };
    let quotient = |left: Expr, right: Expr| Expr::Binary {
        op: BinOp::Div,
        left: Box::new(left),
        right: Box::new(right),
    };
    q.select = (0..rng.gen_range(1..4usize))
        .map(|i| {
            let arg = match rng.gen_range(0..5) {
                0 => any_col(&mut rng).add(any_col(&mut rng)),
                1 => quotient(any_col(&mut rng), any_col(&mut rng)),
                // NaN (0/0) next to numbers and infinities (1/0): an
                // extremum that must not depend on the emission order.
                2 => quotient(flag(&mut rng), flag(&mut rng)),
                _ => any_col(&mut rng),
            };
            let func = if rng.gen_range(0..2) == 0 {
                AggFunc::Min
            } else {
                AggFunc::Max
            };
            SelectItem::Agg {
                agg: Agg {
                    func,
                    arg: Some(arg),
                },
                name: format!("a{i}"),
            }
        })
        .collect();
    if rng.gen_range(0..5) == 0 {
        let t = rng.gen_range(0..m);
        q.predicates
            .push(Expr::col(t, widths[t] - 1).lt(Expr::lit(-1)));
    }
    q.limit = [None, None, Some(0), Some(1)][rng.gen_range(0..4)];
    q
}

fn sorted_tuples(rs: &ResultSet) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
    out.sort();
    out
}

/// `SKINNER_TEST_THREADS`, or `default` when unset.
fn env_threads(default: usize) -> usize {
    std::env::var("SKINNER_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A fuzz case with one more unary filter on every table: a counting
/// UDF over the table's `v` column that drops `v % 4 == seed % 4`. Every
/// table is then scanned in pre-processing, so threads fan the scans
/// out; the UDF's call count is the scans' work.
fn with_udf_filters(q: &Query, seed: u64) -> (Query, Arc<Udf>) {
    let drop = (seed % 4) as i64;
    let udf = Udf::new("keep", move |args| {
        Value::from(args[0].as_int().is_none_or(|v| v % 4 != drop))
    });
    let mut q = q.clone();
    for t in 0..q.num_tables() {
        let v = q.tables[t].table.schema().len() - 1;
        q.predicates.push(Expr::Udf {
            udf: Arc::clone(&udf),
            args: vec![Expr::col(t, v)],
        });
    }
    (q, udf)
}

proptest! {
    // Default 64 cases; `PROPTEST_CASES=256` is the nightly CI profile.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn fuzz_kernels_agree_across_tiers(
        (_cat, q) in arb_fuzz_case(),
        oseed in any::<u64>(),
        budget in 3u64..48,
    ) {
        let m = q.num_tables();
        let order = random_valid_order(&q, oseed);
        let budget = budget.max(4 * m as u64);

        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            let spec = pq.plan_spec(&order);
            let plan = pq.plan_order(&order);
            let offsets = vec![0u32; m];

            // Oracle: generic reference kernel, one shot.
            let mut join = MultiwayJoin::new(&pq);
            let mut state = offsets.clone();
            let mut rs_generic = ResultSet::new();
            join.continue_join_generic(
                &order, &spec, &offsets, &mut state, u64::MAX, &mut rs_generic,
            );
            let oracle = sorted_tuples(&rs_generic);

            // The compiled kernel, sliced: every shape compiles (fused
            // composite, string, and nullable keys included).
            let kernel = plan.compile_kernel(None).expect("non-empty order");
            let mut state = offsets.clone();
            let mut rs = ResultSet::new();
            let mut slices = 0u64;
            loop {
                slices += 1;
                prop_assert!(slices < 5_000_000, "no termination");
                let (res, _) = join.continue_join_compiled(
                    &kernel, &offsets, &mut state, budget, &mut rs,
                );
                if res == ContinueResult::Exhausted {
                    break;
                }
            }
            prop_assert_eq!(
                &sorted_tuples(&rs), &oracle,
                "codegen/generic divergence: order {:?} indexes {}", order, indexes
            );
        }
    }

    #[test]
    fn fuzz_threads_change_only_preprocessing(
        (_cat, q) in arb_fuzz_case(),
        seed in any::<u64>(),
        sched_seed in any::<u64>(),
    ) {
        // The join phase is single-threaded, so `threads` may change
        // pre-processing wall time and nothing else. A run whose filter
        // scans are `SKINNER_TEST_THREADS` (default 4) pool morsels must
        // match the `threads: 1` run byte for byte — tuples in emission
        // order, steps, slices, learned orders, UDF calls — on pools of
        // 1/2/4/8 workers under a seeded adversarial yield/steal
        // schedule: each morsel writes only the selection vectors of
        // the tables it scans, so who runs what cannot matter.
        use skinnerdb::engine::RunOptions;
        let (q, udf) = with_udf_filters(&q, seed);
        let outcome = |threads, pool: Option<Arc<WorkerPool>>| {
            let calls = udf.call_count();
            let out = SkinnerC::new(SkinnerCConfig { budget: 16, threads, ..Default::default() })
                .run_with(&q, &RunOptions { pool, ..Default::default() });
            let mut selections: Vec<(Vec<usize>, u64)> =
                out.metrics.order_selections.into_iter().collect();
            selections.sort();
            let work = (out.metrics.steps, out.metrics.slices, udf.call_count() - calls);
            (out.tuples, work, out.final_order, selections)
        };
        let sequential = outcome(1, None);
        let threads = env_threads(4);
        for &workers in &POOL_SIZES {
            schedule::set_seed(sched_seed);
            let parallel = outcome(threads, Some(shared_pool(workers)));
            schedule::clear();
            prop_assert_eq!(
                &parallel, &sequential,
                "threads {} on a pool of {} workers diverged (seed {})",
                threads, workers, sched_seed
            );
        }
    }

    #[test]
    fn fuzz_engine_matches_column_oracle((_cat, q) in arb_fuzz_case()) {
        // End to end: Skinner-C under heavy order switching (tiny
        // slices) against the vectorized column engine, composite keys,
        // dates, NULLs and all.
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        let engine = SkinnerC::new(SkinnerCConfig {
            budget: 16,
            threads: env_threads(1),
            ..Default::default()
        });
        let out = engine.run(&q);
        prop_assert_eq!(out.result_count, truth);
        // Again on the same tables: every unfiltered table's join index
        // now comes from the table's memo instead of a fresh build, and
        // the run must not notice.
        let again = engine.run(&q);
        let sorted = |t: &[u32]| {
            let mut rows: Vec<Vec<u32>> = t.chunks(q.num_tables()).map(<[u32]>::to_vec).collect();
            rows.sort_unstable();
            rows
        };
        prop_assert_eq!(sorted(&again.tuples), sorted(&out.tuples));
        prop_assert_eq!(again.metrics.slices, out.metrics.slices);
        prop_assert_eq!(again.metrics.steps, out.metrics.steps);
        prop_assert_eq!(&again.final_order, &out.final_order);
        // Metrics vacuity guard: with codegen on (the default), every
        // executed multi-table order must have compiled — the counters
        // prove the codegen tier actually ran, not just that results
        // happened to agree.
        if out.metrics.slices > 0 {
            prop_assert_eq!(out.metrics.fallback_orders, 0);
            prop_assert!(out.metrics.codegen_orders > 0);
            prop_assert_eq!(out.metrics.codegen_slices, out.metrics.slices);
        }
    }

    #[test]
    fn fuzz_interrupted_run_resumes_to_identical_tuples((_cat, q) in arb_fuzz_case()) {
        // Interrupted-execution differential: cancel an execution
        // mid-run (injected at a slice boundary via the `engine.cancel`
        // failpoint), then resume from its captured learning. The
        // interrupted run's tuples must be a prefix-subset of the
        // uninterrupted result, and the resumed run's tuple set must
        // equal it exactly — suspension at slice boundaries loses no
        // tuples and fabricates none.
        use skinnerdb::engine::failpoints;
        use skinnerdb::engine::{RunOptions, StopReason};

        let config = SkinnerCConfig { budget: 16, threads: 1, ..Default::default() };
        let engine = SkinnerC::new(config);
        let full = engine.run_with(&q, &RunOptions {
            capture_learning: true,
            ..Default::default()
        });
        prop_assert_eq!(full.stop, StopReason::Completed);
        let mut full_tuples: Vec<&[u32]> = full.tuples.chunks(full.num_tables.max(1)).collect();
        full_tuples.sort();

        // Need at least two slices to interrupt strictly mid-run.
        if full.metrics.slices >= 2 {
            // The engine is seeded, so the re-run repeats the first
            // run's slice sequence deterministically; fire the
            // cooperative cancel halfway through (thread-scoped: the
            // slice loop runs on this test thread, and other proptest
            // threads are unaffected).
            let k = full.metrics.slices / 2;
            failpoints::config_for_current_thread(
                "engine.cancel",
                &format!("cancel@{k}"),
            );
            let interrupted = engine.run_with(&q, &RunOptions {
                capture_learning: true,
                ..Default::default()
            });
            failpoints::clear("engine.cancel");
            prop_assert_eq!(interrupted.stop, StopReason::Cancelled);
            let mut partial: Vec<&[u32]> =
                interrupted.tuples.chunks(interrupted.num_tables.max(1)).collect();
            partial.sort();
            prop_assert!(partial.len() <= full_tuples.len());
            for t in &partial {
                prop_assert!(
                    full_tuples.binary_search(t).is_ok(),
                    "interrupted run fabricated tuple {:?}", t
                );
            }

            // Resume: warm-start from the interrupted run's learning and
            // run to completion. The tuple set must equal the
            // uninterrupted run's byte for byte.
            let learning = interrupted.learning.expect("capture_learning set");
            let resumed = engine.run_with(&q, &RunOptions {
                prior: Some(&learning.snapshot),
                planned_orders: &learning.planned_orders,
                ..Default::default()
            });
            prop_assert_eq!(resumed.stop, StopReason::Completed);
            let mut resumed_tuples: Vec<&[u32]> =
                resumed.tuples.chunks(resumed.num_tables.max(1)).collect();
            resumed_tuples.sort();
            prop_assert_eq!(
                resumed_tuples, full_tuples,
                "resumed run diverged from uninterrupted run"
            );
        }
    }

    #[test]
    fn fuzz_prior_seeded_matches_cold(
        (_cat, q) in arb_fuzz_case(),
    ) {
        // Knowledge-prior differential: run cold, feed the run's observed
        // selectivities and join-edge rewards through the knowledge store
        // (fingerprint extraction → record → seed), then re-run the same
        // query with the seeded arm priors. Optimistic initialization
        // only reorders exploration — it never prunes an arm — so the
        // prior-seeded run must produce the exact tuple set of the cold
        // run, at any thread count (via SKINNER_TEST_THREADS).
        use skinnerdb::engine::{RunOptions, StopReason};
        use skinnerdb::knowledge::{observe, KnowledgeConfig, KnowledgeStore};

        let engine = SkinnerC::new(SkinnerCConfig {
            budget: 16,
            threads: env_threads(1),
            ..Default::default()
        });
        let cold = engine.run_with(&q, &RunOptions::default());
        prop_assert_eq!(cold.stop, StopReason::Completed);
        let mut cold_tuples: Vec<&[u32]> = cold.tuples.chunks(cold.num_tables.max(1)).collect();
        cold_tuples.sort();

        // Record the cold run's observation under the live table
        // versions, then seed priors for the very same query — the
        // strongest-signal case (every fingerprint matches).
        let deps: Vec<(String, u64)> = (0..q.num_tables())
            .map(|t| (q.tables[t].table.name().to_string(), 1))
            .collect();
        let mut store = KnowledgeStore::new(KnowledgeConfig::default());
        store.record(&observe(&q, &deps, &cold.metrics));
        let priors = store.seed(&q, &deps);
        prop_assert!(priors.is_some(), "multi-table run must yield priors");

        let seeded = engine.run_with(&q, &RunOptions {
            arm_priors: priors.as_ref(),
            ..Default::default()
        });
        prop_assert_eq!(seeded.stop, StopReason::Completed);
        // Runs that short-circuit in pre-processing (a filter emptied a
        // table) never build a tree; whenever the join phase ran, the
        // offered priors must actually have seeded it.
        if seeded.metrics.slices > 0 {
            prop_assert!(
                seeded.metrics.prior_seeded_nodes > 0,
                "priors offered but tree not seeded"
            );
        }
        let mut seeded_tuples: Vec<&[u32]> =
            seeded.tuples.chunks(seeded.num_tables.max(1)).collect();
        seeded_tuples.sort();
        prop_assert_eq!(
            seeded_tuples, cold_tuples,
            "prior-seeded run diverged from cold run"
        );
    }

    #[test]
    fn fuzz_min_max_fold_matches_oracle(
        (_cat, q) in arb_fuzz_case(),
        seed in any::<u64>(),
    ) {
        // A global MIN/MAX folds emitted tuples, duplicates included,
        // instead of deduplicating them into a ResultSet. Its answer must
        // equal both the column engine's and Skinner-C's own distinct
        // tuples post-processed; and since the learner reads only
        // cursors, the folded run must take the very slices, steps and
        // final order of the deduplicating run. At one thread and at
        // SKINNER_TEST_THREADS (default 4).
        use skinnerdb::engine::RunOptions;
        let q = min_max_variant(&q, seed);
        prop_assert!(q.folds_into_min_max());
        let oracle = run_engine(&ColEngine::new(), &q, &ExecOptions::default()).table;
        for threads in [1, env_threads(4)] {
            let config = SkinnerCConfig { budget: 16, threads, ..Default::default() };
            let folded = SkinnerDB::skinner_c(config).execute(&q);
            let deduped = SkinnerC::new(config).run_with(&q, &RunOptions::default());
            prop_assert_eq!(&folded.table, &oracle, "fold vs column engine, threads {}", threads);
            prop_assert_eq!(
                &folded.table, &postprocess(&q, &deduped.tuples),
                "fold vs post-processed tuples, threads {}", threads
            );
            // A MIN or MAX may not depend on the order tuples arrive in.
            let reversed: Vec<u32> =
                deduped.tuples.chunks(q.num_tables()).rev().flatten().copied().collect();
            prop_assert_eq!(
                &folded.table, &postprocess(&q, &reversed),
                "fold vs reversed tuples, threads {}", threads
            );
            let m = folded.stats.metrics.as_ref().expect("Skinner-C metrics");
            prop_assert_eq!(m.slices, deduped.metrics.slices, "threads {}", threads);
            prop_assert_eq!(m.steps, deduped.metrics.steps, "threads {}", threads);
            prop_assert_eq!(
                folded.stats.final_order.as_ref(), Some(&deduped.final_order),
                "threads {}", threads
            );
            prop_assert_eq!(m.result_bytes, 0);
            // The fold counts emissions: at least the distinct tuples.
            prop_assert_eq!(m.result_attempts, deduped.metrics.result_attempts);
            prop_assert!(folded.stats.result_count >= deduped.result_count);
        }
    }

    #[test]
    fn fuzz_composite_cases_compile_and_agree(seed in any::<u64>()) {
        // The correlated-workload generator (always 2-column composite
        // keys + dates): every plan — fused composite jumps included —
        // must compile to the codegen tier, and the engine answer must
        // match the column oracle with zero fallbacks (the composite
        // and compilation wins compose).
        let (_cat, q) = skinnerdb::workloads::correlated::generate_case(seed);
        let m = q.num_tables();
        let pq = PreparedQuery::new(&q, true, 1);
        // Chain queries: enumerate every valid order via the join graph.
        let graph = JoinGraph::from_query(&q);
        let mut orders: Vec<Vec<usize>> = Vec::new();
        fn rec(
            graph: &JoinGraph,
            m: usize,
            prefix: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if prefix.len() == m {
                out.push(prefix.clone());
                return;
            }
            let chosen: TableSet = prefix.iter().copied().collect();
            for t in graph.eligible_next(chosen).iter() {
                prefix.push(t);
                rec(graph, m, prefix, out);
                prefix.pop();
            }
        }
        rec(&graph, m, &mut Vec::new(), &mut orders);
        let mut saw_fused = false;
        for order in &orders {
            let plan = pq.plan_order(order);
            saw_fused |= plan
                .positions
                .iter()
                .any(|p| matches!(p.jump, KernelJump::FusedEq { .. }));
        }

        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16,
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
        // Metrics vacuity guard: when the join phase ran, the codegen
        // tier must actually have carried it — fused keys included.
        if out.metrics.slices > 0 {
            prop_assert_eq!(out.metrics.fallback_orders, 0);
            prop_assert!(out.metrics.codegen_orders > 0);
            prop_assert_eq!(out.metrics.codegen_slices, out.metrics.slices);
        }
        prop_assert!(saw_fused || !orders.is_empty());
    }

    #[test]
    fn fuzz_long_orders_compile_whole_and_slices_stay_bounded(
        seed in any::<u64>(),
        budget in 6u64..64,
    ) {
        // Arity 7..=9: one compiled kernel must cover every position,
        // agree with the generic oracle byte-for-byte through many
        // suspend/resume cycles (small budgets) — and no slice may run
        // past its step budget, the unit of the paper's regret bound.
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = rng.gen_range(7..10usize);
        let space = rng.gen_range(2..4i64);
        let null_pct = [0, 10, 25][rng.gen_range(0..3)];
        let mut cat = Catalog::new();
        let mut types = Vec::new();
        for t in 0..m {
            let n = rng.gen_range(3..8usize);
            let mut defs = Vec::new();
            let mut cols = Vec::new();
            if t > 0 {
                let kt = types[t - 1];
                defs.push(ColumnDef::new("lk", KeyType::value_type(kt)));
                cols.push(gen_column(&mut rng, kt, n, space, null_pct));
            }
            if t < m - 1 {
                let kt = KeyType::pick(&mut rng);
                types.push(kt);
                defs.push(ColumnDef::new("rk", KeyType::value_type(kt)));
                cols.push(gen_column(&mut rng, kt, n, space, null_pct));
            }
            defs.push(ColumnDef::new("v", ValueType::Int));
            cols.push(gen_column(&mut rng, KeyType::Int, n, 20, 0));
            cat.register(Table::new(format!("t{t}"), Schema::new(defs), cols).expect("table"));
        }
        let mut qb = QueryBuilder::new(&cat);
        for t in 0..m {
            qb.table(&format!("t{t}")).expect("table");
        }
        for t in 0..m - 1 {
            let j = qb
                .col(&format!("t{t}.rk"))
                .expect("col")
                .eq(qb.col(&format!("t{}.lk", t + 1)).expect("col"));
            qb.filter(j);
        }
        qb.select_col("t0.v").expect("select");
        let q = qb.build().expect("long chain");

        let order = random_valid_order(&q, seed ^ 0x5917);
        let budget = budget.max(4 * m as u64);
        let pq = PreparedQuery::new(&q, true, 1);
        let spec = pq.plan_spec(&order);
        let plan = pq.plan_order(&order);
        let offsets = vec![0u32; m];

        // Oracle: generic reference kernel, one shot.
        let mut join = MultiwayJoin::new(&pq);
        let mut state = offsets.clone();
        let mut rs_generic = ResultSet::new();
        join.continue_join_generic(&order, &spec, &offsets, &mut state, u64::MAX, &mut rs_generic);
        let oracle = sorted_tuples(&rs_generic);

        let kernel = plan.compile_kernel(None).expect("non-empty order");
        prop_assert_eq!(kernel.num_tables(), m);

        let run_compiled = || -> (Vec<Vec<u32>>, u64) {
            let mut join = MultiwayJoin::new(&pq);
            let mut state = offsets.clone();
            let mut rs = ResultSet::new();
            let mut max_steps = 0u64;
            let mut slices = 0u64;
            loop {
                slices += 1;
                assert!(slices < 5_000_000, "no termination");
                let (res, steps) = join.continue_join_compiled(
                    &kernel, &offsets, &mut state, budget, &mut rs,
                );
                max_steps = max_steps.max(steps);
                if res == ContinueResult::Exhausted {
                    break;
                }
            }
            (sorted_tuples(&rs), max_steps)
        };
        let (tuples, max_steps) = run_compiled();
        prop_assert_eq!(
            &tuples, &oracle,
            "codegen/generic divergence: order {:?}", order
        );
        prop_assert!(
            max_steps <= budget,
            "a slice took {} steps, budget {} (order {:?})",
            max_steps, budget, order
        );

        // End to end through the engine (SKINNER_TEST_THREADS), with the
        // metrics vacuity guard: long orders count as codegen, never
        // fallback.
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16,
            threads: env_threads(1),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
        if out.metrics.slices > 0 {
            prop_assert_eq!(out.metrics.fallback_orders, 0);
            prop_assert!(out.metrics.codegen_orders > 0);
            prop_assert_eq!(out.metrics.codegen_slices, out.metrics.slices);
        }
    }
}

/// The long-order slice bound as a fixed regression: a 10-table UDF star
/// (100 rows per table, hub first) whose always-false edge joins the
/// leaf placed last. Every proper prefix of the order joins in full, so
/// a kernel that ran any part of the order to exhaustion inside one
/// slice would take on the order of 100^4 steps; one slice must stop at
/// its budget.
#[test]
fn ten_table_udf_star_slice_stops_at_budget() {
    use skinnerdb::workloads::torture::{udf_torture, Shape};
    let m = 10;
    let case = udf_torture(Shape::Star, m, 100, m - 2, 0);
    let pq = PreparedQuery::new(&case.query.query, true, 1);
    let order: Vec<usize> = (0..m).collect();
    let plan = pq.plan_order(&order);
    let kernel = plan.compile_kernel(None).expect("UDF star compiles");
    assert_eq!(kernel.num_tables(), m);
    let budget = 500;
    let mut join = MultiwayJoin::new(&pq);
    let offsets = vec![0u32; m];
    let mut state = offsets.clone();
    let mut rs = ResultSet::new();
    let (res, steps) = join.continue_join_compiled(&kernel, &offsets, &mut state, budget, &mut rs);
    assert_eq!(res, ContinueResult::BudgetSpent);
    assert!(steps <= budget, "{steps} steps in one slice");
    assert!(rs.is_empty());
}
