//! Property-based tests over the core invariants:
//!
//! * Skinner-C produces exactly the same result set as a direct engine
//!   on arbitrary generated schemas/queries (Theorem 5.3),
//! * every valid join order yields the same multi-way join result,
//! * the compiled kernel, run in small slices, emits exactly the tuples
//!   of the generic reference kernel, in the same order, for random
//!   catalogs, orders and budgets — single-table orders included, under
//!   offset floors and into a LIMIT sink,
//! * a compiled kernel calling bound UDF join predicates takes exactly
//!   the steps, UDF calls and tuples of one interpreting them,
//! * the progress tracker never loses results under arbitrary
//!   slice/order interleavings,
//! * the pyramid timeout scheme keeps its Lemma 5.4/5.5 guarantees for
//!   arbitrary iteration counts,
//! * a join index answers `probe` and `next_ge` like a `BTreeMap` oracle
//!   in both its layouts (dense offset array, hash map), over Int and
//!   Date, nullable, filtered, empty and single-key columns.
//!
//! `SKINNER_TEST_THREADS` (default 1) sets the Skinner-C worker count for
//! the end-to-end properties, so CI can run the whole suite once with
//! parallel pre-processing.

use proptest::prelude::*;
use skinnerdb::core::PyramidTimeouts;
use skinnerdb::engine::multiway::{ContinueResult, ResultSet, ResultSink};
use skinnerdb::engine::{CompiledKernel, MultiwayJoin, PreparedQuery, SkinnerC, SkinnerCConfig};
use skinnerdb::prelude::*;
use skinnerdb::query::{compile_predicates, BoundPred, JoinGraph, TableSet};
use skinnerdb::storage::{ColumnBuilder, HashIndex};
use std::sync::Arc;

/// Skinner-C worker threads for the end-to-end properties (CI runs the
/// suite a second time with `SKINNER_TEST_THREADS=4` to exercise
/// parallel pre-processing everywhere).
fn env_threads() -> usize {
    std::env::var("SKINNER_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Generate a random chain query over `m` tables with random small data.
fn arb_chain_case() -> impl Strategy<Value = (Catalog, Query)> {
    (2usize..5, 1usize..24, 2i64..6, any::<u64>()).prop_map(|(m, rows, key_space, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cat = Catalog::new();
        for t in 0..m {
            let keys: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..key_space)).collect();
            let vals: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..10)).collect();
            cat.register(
                Table::new(
                    format!("t{t}"),
                    Schema::new([
                        ColumnDef::new("k", ValueType::Int),
                        ColumnDef::new("v", ValueType::Int),
                    ]),
                    vec![Column::from_ints(keys), Column::from_ints(vals)],
                )
                .expect("table"),
            );
        }
        let mut qb = QueryBuilder::new(&cat);
        for t in 0..m {
            qb.table(&format!("t{t}")).expect("register table");
        }
        for t in 0..m - 1 {
            let j = qb
                .col(&format!("t{t}.k"))
                .expect("col")
                .eq(qb.col(&format!("t{}.k", t + 1)).expect("col"));
            qb.filter(j);
        }
        // a random unary filter on a random table
        let ft = rng.gen_range(0..m);
        let f = qb
            .col(&format!("t{ft}.v"))
            .expect("col")
            .lt(Expr::lit(rng.gen_range(1..11i64)));
        qb.filter(f);
        qb.select_col("t0.v").expect("select");
        let q = qb.build().expect("query");
        (cat, q)
    })
}

/// Random tables (1–3, 0–40 rows each) with a nullable Int column `i`,
/// two Int columns `j` and `k`, a NaN-bearing Float column `f` and a
/// string column `s`. Each table gets 1–4 random unary conjuncts, over
/// every compiled shape plus LIKE and a UDF; consecutive tables join on
/// `j`.
fn unary_filter_case(seed: u64) -> Query {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = rng.gen_range(1..4usize);
    let mut cat = Catalog::new();
    for t in 0..m {
        let rows = rng.gen_range(0..41usize);
        let mut i = ColumnBuilder::new(ValueType::Int);
        for _ in 0..rows {
            let v = if rng.gen_bool(0.25) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0..10))
            };
            i.push(&v);
        }
        let ints = |rng: &mut SmallRng| (0..rows).map(|_| rng.gen_range(0..10)).collect();
        let (j, k) = (ints(&mut rng), ints(&mut rng));
        let f = (0..rows)
            .map(|_| {
                if rng.gen_bool(0.15) {
                    f64::NAN
                } else {
                    f64::from(rng.gen_range(0..20)) / 2.0
                }
            })
            .collect();
        let s: Vec<&str> = (0..rows)
            .map(|_| ["a", "b", "ab", "ba", "é"][rng.gen_range(0..5)])
            .collect();
        cat.register(
            Table::new(
                format!("t{t}"),
                Schema::new([
                    ColumnDef::new("i", ValueType::Int),
                    ColumnDef::new("j", ValueType::Int),
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("f", ValueType::Float),
                    ColumnDef::new("s", ValueType::Str),
                ]),
                vec![
                    i.finish(),
                    Column::from_ints(j),
                    Column::from_ints(k),
                    Column::from_floats(f),
                    Column::from_strs(s),
                ],
            )
            .expect("table"),
        );
    }
    let odd = Udf::new("odd", |args| {
        Value::from(args[0].as_int().is_some_and(|v| v % 2 == 1))
    });
    let mut qb = QueryBuilder::new(&cat);
    for t in 0..m {
        qb.table(&format!("t{t}")).expect("register table");
    }
    for t in 0..m {
        // Columns by index: i, j, k, f, s.
        let [i, j, k, f, s] = [0, 1, 2, 3, 4].map(|c| Expr::col(t, c));
        for _ in 0..rng.gen_range(1..5) {
            let op = rng.gen_range(0..6);
            let cmp = |a: Expr, b: Expr| match op {
                0 => a.eq(b),
                1 => a.ne(b),
                2 => a.lt(b),
                3 => a.le(b),
                4 => a.gt(b),
                _ => a.ge(b),
            };
            let int = Expr::lit(rng.gen_range(0..10i64));
            let half = Expr::lit(f64::from(rng.gen_range(0..20)) / 2.0);
            let word = Expr::lit(["a", "ab", "é", "absent"][rng.gen_range(0..4)]);
            let list = (0..3).map(|_| Value::Int(rng.gen_range(0..10))).collect();
            let conjunct = match rng.gen_range(0..10) {
                0 => cmp(i.clone(), int),
                1 => cmp(j.clone(), int),
                2 => cmp(f.clone(), half),
                3 => cmp(f.clone(), int),
                4 => s.clone().eq(word),
                5 => s.clone().ne(word),
                6 => j.clone().in_list(list),
                7 => cmp(j.clone(), k.clone()),
                8 => s
                    .clone()
                    .like(["a%", "%b", "_", "%a%"][rng.gen_range(0..4)]),
                _ => Expr::Udf {
                    udf: Arc::clone(&odd),
                    args: vec![k.clone()],
                },
            };
            qb.filter(conjunct);
        }
    }
    for t in 1..m {
        let j = qb
            .col(&format!("t{}.j", t - 1))
            .expect("col")
            .eq(qb.col(&format!("t{t}.j")).expect("col"));
        qb.filter(j);
    }
    qb.select_col("t0.j").expect("select");
    qb.build().expect("query")
}

/// A random chain of 2–4 tables (0–8 rows each) with a row id `r`, an
/// Int column `j`, a nullable Int `i` and a nullable string `s`. Each
/// edge is `j = j`, a two-column UDF, or both; the UDFs are SQL equality
/// on `i`, a NULL-returning UDF on `i` and string equality on `s`, with
/// random argument order. Returns the query and its three UDFs.
fn udf_join_case(seed: u64) -> (Query, [Arc<Udf>; 3]) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = rng.gen_range(2..5usize);
    let mut cat = Catalog::new();
    for t in 0..m {
        let rows = rng.gen_range(0..9usize);
        let mut i = ColumnBuilder::new(ValueType::Int);
        let mut s = ColumnBuilder::new(ValueType::Str);
        for _ in 0..rows {
            i.push(&if rng.gen_bool(0.25) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0..4))
            });
            s.push(&if rng.gen_bool(0.2) {
                Value::Null
            } else {
                Value::from(["a", "b", "ab"][rng.gen_range(0..3)])
            });
        }
        let j = (0..rows).map(|_| rng.gen_range(0..3)).collect();
        cat.register(
            Table::new(
                format!("t{t}"),
                Schema::new([
                    ColumnDef::new("r", ValueType::Int),
                    ColumnDef::new("j", ValueType::Int),
                    ColumnDef::new("i", ValueType::Int),
                    ColumnDef::new("s", ValueType::Str),
                ]),
                vec![
                    Column::from_ints((0..rows as i64).collect()),
                    Column::from_ints(j),
                    i.finish(),
                    s.finish(),
                ],
            )
            .expect("table"),
        );
    }
    let udfs = [
        Udf::new("ueq", |a| Value::from(a[0].sql_eq(&a[1]) == Some(true))),
        // NULL unless both are non-NULL with an even sum; then the first
        // argument, so 0 is false and argument order matters.
        Udf::new("unull", |a| match (a[0].as_int(), a[1].as_int()) {
            (Some(x), Some(y)) if (x + y) % 2 == 0 => Value::Int(x),
            _ => Value::Null,
        }),
        Udf::new("useq", |a| match (a[0].as_str(), a[1].as_str()) {
            (Some(x), Some(y)) => Value::from(x == y),
            _ => Value::Null,
        }),
    ];
    let mut qb = QueryBuilder::new(&cat);
    for t in 0..m {
        qb.table(&format!("t{t}")).expect("register table");
        qb.select_col(&format!("t{t}.r")).expect("select");
    }
    for t in 1..m {
        let kind = rng.gen_range(0..3);
        if kind != 1 {
            let j = Expr::col(t - 1, 1).eq(Expr::col(t, 1));
            qb.filter(j);
        }
        if kind != 0 {
            let u = rng.gen_range(0..3);
            let c = if u == 2 { 3 } else { 2 };
            let mut args = vec![Expr::col(t - 1, c), Expr::col(t, c)];
            if rng.gen_bool(0.5) {
                args.reverse();
            }
            qb.filter(Expr::Udf {
                udf: Arc::clone(&udfs[u]),
                args,
            });
        }
    }
    (qb.build().expect("query"), udfs)
}

/// The tuples `order` emits on the generic reference kernel, one shot
/// from the floors `offsets`, in emit order.
fn generic_emits(pq: &PreparedQuery, order: &[usize], offsets: &[u32]) -> Vec<Vec<u32>> {
    let spec = pq.plan_spec(order);
    let mut state = offsets.to_vec();
    let mut rs = ResultSet::new();
    MultiwayJoin::new(pq).continue_join_generic(
        order,
        &spec,
        offsets,
        &mut state,
        u64::MAX,
        &mut rs,
    );
    rs.iter().map(<[u32]>::to_vec).collect()
}

/// The tuples `order` emits on its compiled kernel, resumed in
/// `budget`-step slices from zero floors until exhausted, in emit order.
fn compiled_emits(pq: &PreparedQuery, order: &[usize], budget: u64) -> Vec<Vec<u32>> {
    let kernel = pq
        .plan_order(order)
        .compile_kernel(None)
        .expect("non-empty order");
    let mut join = MultiwayJoin::new(pq);
    let offsets = vec![0u32; order.len()];
    let mut state = offsets.clone();
    let mut rs = ResultSet::new();
    let mut slices = 0u64;
    loop {
        slices += 1;
        assert!(slices < 5_000_000, "no termination");
        let (res, _) = join.continue_join_compiled(&kernel, &offsets, &mut state, budget, &mut rs);
        if res == ContinueResult::Exhausted {
            break;
        }
    }
    rs.iter().map(<[u32]>::to_vec).collect()
}

/// A sink that reports full at `limit` distinct tuples, as the engine's
/// LIMIT pushdown does.
struct LimitSink {
    rs: ResultSet,
    limit: usize,
}

impl ResultSink for LimitSink {
    fn insert(&mut self, tuple: &[u32]) -> bool {
        ResultSink::insert(&mut self.rs, tuple)
    }

    fn is_full(&self) -> bool {
        self.rs.len() >= self.limit
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skinner_c_matches_engine((_cat, q) in arb_chain_case()) {
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16, // tiny slices: maximal order switching
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
    }

    #[test]
    fn all_valid_orders_same_result((_cat, q) in arb_chain_case()) {
        let pq = PreparedQuery::new(&q, true, 1);
        prop_assume!(!pq.any_empty());
        let graph = JoinGraph::from_query(&q);
        let m = q.num_tables();
        // enumerate valid orders (chain ⇒ at most 2^(m-1) ≤ 16)
        let mut orders = Vec::new();
        fn rec(graph: &JoinGraph, m: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
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
        // Each order's count on its compiled kernel and on the generic
        // oracle.
        let mut counts = Vec::new();
        for order in &orders {
            counts.push(compiled_emits(&pq, order, u64::MAX).len());
            counts.push(generic_emits(&pq, order, &vec![0u32; m]).len());
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "counts {:?}", counts);
    }

    #[test]
    fn specialized_kernel_matches_generic_eval(
        (cat, _q) in arb_chain_case(),
        fseed in any::<u64>(),
        budget in 1u64..8,
    ) {
        // Single-table orders: the compiled kernel (a one-position scan)
        // must emit exactly the generic reference kernel's tuples, in the
        // same order — sliced at a budget that divides the filtered
        // cardinality exactly, under an offset floor, and into a LIMIT
        // sink. (Multi-table orders: `sliced_join_matches_generic`.)
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(fseed);
        let mut qb = QueryBuilder::new(&cat);
        qb.table("t0").expect("register table");
        let f = qb.col("t0.v").expect("col").lt(Expr::lit(rng.gen_range(0..11i64)));
        qb.filter(f);
        qb.select_col("t0.v").expect("select");
        let q = qb.build().expect("query");
        let pq = PreparedQuery::new(&q, true, 1);
        let card = pq.cards[0];
        prop_assume!(card > 0);
        let order = [0usize];
        let spec = pq.plan_spec(&order);
        let kernel = pq.plan_order(&order).compile_kernel(None).expect("one table compiles");
        let mut join = MultiwayJoin::new(&pq);
        let all = generic_emits(&pq, &order, &[0]);
        prop_assert_eq!(all.len(), card as usize);

        // Sliced at a budget `b` dividing the cardinality: every slice
        // emits `b` rows, the one ending on the last row included. The
        // compiled kernel spends one more step to see exhaustion, in a
        // slice of its own that emits nothing; the generic kernel sees it
        // on the last row's step.
        let card64 = u64::from(card);
        let b = (1..=budget.min(card64)).rev().find(|&d| card64.is_multiple_of(d)).expect("1 divides");
        let full = card64 / b;
        let mut slice_ends = |compiled: bool| {
            let (mut state, mut rs, mut ends) = (vec![0u32], ResultSet::new(), Vec::new());
            loop {
                let before = rs.len() as u64;
                let (res, steps) = if compiled {
                    join.continue_join_compiled(&kernel, &[0], &mut state, b, &mut rs)
                } else {
                    join.continue_join_generic(&order, &spec, &[0], &mut state, b, &mut rs)
                };
                ends.push((res, steps, rs.len() as u64 - before));
                if res == ContinueResult::Exhausted || ends.len() as u64 > full + 1 {
                    break;
                }
            }
            (ends, rs.iter().map(<[u32]>::to_vec).collect::<Vec<_>>())
        };
        let spent = (ContinueResult::BudgetSpent, b, b);
        let (ends, emitted) = slice_ends(true);
        let mut want = vec![spent; full as usize];
        want.push((ContinueResult::Exhausted, 0, 0));
        prop_assert_eq!(ends, want, "compiled slices, budget {}", b);
        prop_assert_eq!(&emitted, &all);
        let (ends, emitted) = slice_ends(false);
        let mut want = vec![spent; full as usize - 1];
        want.push((ContinueResult::Exhausted, b, b));
        prop_assert_eq!(ends, want, "generic slices, budget {}", b);
        prop_assert_eq!(&emitted, &all);

        // Under an offset floor: only the rows from the floor on.
        let floor = rng.gen_range(0..card + 1);
        let mut state = vec![floor];
        let mut rs = ResultSet::new();
        let (res, _) =
            join.continue_join_compiled(&kernel, &[floor], &mut state, u64::MAX, &mut rs);
        prop_assert_eq!(res, ContinueResult::Exhausted);
        let emitted: Vec<Vec<u32>> = rs.iter().map(<[u32]>::to_vec).collect();
        prop_assert_eq!(&emitted, &generic_emits(&pq, &order, &[floor]));
        prop_assert_eq!(&emitted[..], &all[floor as usize..]);

        // Into a LIMIT sink: the slice suspends on the `limit`-th tuple,
        // which is the generic kernel's `limit`-th.
        let limit = rng.gen_range(1..card as usize + 1);
        let mut sink = LimitSink { rs: ResultSet::new(), limit };
        let mut state = vec![0u32];
        let (res, _) =
            join.continue_join_compiled(&kernel, &[0], &mut state, u64::MAX, &mut sink);
        prop_assert_eq!(res, ContinueResult::BudgetSpent);
        let emitted: Vec<Vec<u32>> = sink.rs.iter().map(<[u32]>::to_vec).collect();
        prop_assert_eq!(&emitted[..], &all[..limit]);
    }

    #[test]
    fn sliced_join_matches_generic(
        (_cat, q) in arb_chain_case(),
        oseed in any::<u64>(),
        budget in 3u64..48,
    ) {
        // The compiled kernel, run in small slices so budget
        // exhaustion hits mid-enumeration constantly, must produce
        // exactly the result set of the generic reference kernel run in
        // one shot — for random catalogs, random valid orders and random
        // budgets, with and without hash indexes.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let graph = JoinGraph::from_query(&q);
        let m = q.num_tables();
        let mut rng = SmallRng::seed_from_u64(oseed);
        let mut order: Vec<usize> = Vec::with_capacity(m);
        let mut chosen = TableSet::EMPTY;
        while order.len() < m {
            let elig: Vec<usize> = graph.eligible_next(chosen).iter().collect();
            let t = elig[rng.gen_range(0..elig.len())];
            order.push(t);
            chosen.insert(t);
        }
        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            prop_assume!(!pq.any_empty());
            let budget = budget.max(4 * m as u64);
            // The compiled kernel in `budget`-sized slices to exhaustion
            // against the generic oracle, one shot.
            let mut sequential = compiled_emits(&pq, &order, budget);
            sequential.sort();
            let mut oracle = generic_emits(&pq, &order, &vec![0u32; m]);
            oracle.sort();
            prop_assert_eq!(
                &sequential, &oracle,
                "sliced/generic divergence: order {:?} indexes {}", order, indexes
            );
        }
    }

    #[test]
    fn codegen_matches_bound_and_generic(
        (_cat, q) in arb_chain_case(),
        oseed in any::<u64>(),
        budget in 3u64..48,
    ) {
        // Differential test for the codegen tier: the compiled kernel
        // (runtime arity, posting-list cursors, elided index-implied
        // equality predicates), bound from the order's plan and run in
        // small slices, must emit byte-for-byte the result sequence of
        // the generic reference kernel — for random catalogs, random
        // valid orders, with and without hash indexes.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let graph = JoinGraph::from_query(&q);
        let m = q.num_tables();
        let mut rng = SmallRng::seed_from_u64(oseed);
        let mut order: Vec<usize> = Vec::with_capacity(m);
        let mut chosen = TableSet::EMPTY;
        while order.len() < m {
            let elig: Vec<usize> = graph.eligible_next(chosen).iter().collect();
            let t = elig[rng.gen_range(0..elig.len())];
            order.push(t);
            chosen.insert(t);
        }
        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            prop_assume!(!pq.any_empty());
            let budget = budget.max(4 * m as u64);
            // Byte-for-byte including emit order.
            prop_assert_eq!(
                compiled_emits(&pq, &order, budget),
                generic_emits(&pq, &order, &vec![0u32; m]),
                "codegen/generic divergence: order {:?} indexes {}", order, indexes
            );
        }
    }

    #[test]
    fn wide_float_joins_match_engine(seed in any::<u64>()) {
        // Wide schemas + Float join keys (the codegen tier's FloatEq
        // posting cursors): Skinner-C under heavy order switching must
        // agree with a direct engine execution.
        let (_cat, q) = skinnerdb::workloads::wide::generate_case(seed);
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16, // tiny slices: maximal order switching
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
    }

    #[test]
    fn wide_float_kernels_agree(seed in any::<u64>(), budget in 3u64..48) {
        // Differential: compiled (sliced) vs generic (one shot) on wide
        // Float-keyed chains, byte for byte, with and without hash
        // indexes.
        let (_cat, q) = skinnerdb::workloads::wide::generate_case(seed);
        let m = q.num_tables();
        let order: Vec<usize> = (0..m).collect();
        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            prop_assume!(!pq.any_empty());
            let budget = budget.max(4 * m as u64);
            prop_assert_eq!(
                compiled_emits(&pq, &order, budget),
                generic_emits(&pq, &order, &vec![0u32; m]),
                "codegen/generic divergence, indexes {}", indexes
            );
        }
    }

    #[test]
    fn null_string_codegen_compiles_everywhere(seed in any::<u64>()) {
        // String/nullable key columns bind KeyEq posting cursors
        // (content-hash keys with NULL-reject, predicates always
        // re-verified) — and the same query *without* indexes is a pure
        // scan (generic predicate evaluation, three-valued logic and
        // all). Both must agree with the oracle.
        let (_cat, q) = skinnerdb::workloads::nulls::generate_case(seed);
        let m = q.num_tables();
        let order: Vec<usize> = (0..m).collect();
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;

        // End-to-end with codegen enabled: every order compiles and the
        // answer is still exact.
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16,
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
        // (An empty-filtered table short-circuits before any order is
        // bound; only runs that actually joined exercise the counters.)
        if out.metrics.slices > 0 {
            prop_assert_eq!(out.metrics.fallback_orders, 0, "no fallback remains");
            prop_assert!(out.metrics.codegen_orders > 0);
            prop_assert_eq!(out.metrics.codegen_slices, out.metrics.slices);
        }

        // Scan mode (no indexes): the compiled kernel must agree with
        // the generic oracle.
        let pq = PreparedQuery::new(&q, false, 1);
        prop_assume!(!pq.any_empty());
        prop_assert_eq!(
            compiled_emits(&pq, &order, u64::MAX),
            generic_emits(&pq, &order, &vec![0u32; m]),
            "scan-mode codegen divergence"
        );
    }

    #[test]
    fn null_string_joins_match_engine(seed in any::<u64>()) {
        // NULL-heavy, string-keyed chains (KeyEq jumps:
        // hash-verified string join keys, NULL equality semantics):
        // Skinner-C under heavy order switching must agree with a direct
        // engine execution.
        let (_cat, q) = skinnerdb::workloads::nulls::generate_case(seed);
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16, // tiny slices: maximal order switching
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
    }

    #[test]
    fn null_string_kernels_agree(seed in any::<u64>(), budget in 3u64..48) {
        // Differential: the compiled kernel (sliced) vs the generic
        // reference kernel (one shot) on nullable string-keyed chains,
        // with and without hash indexes (indexes skip NULL keys; the
        // no-index path must filter them through predicate evaluation).
        let (_cat, q) = skinnerdb::workloads::nulls::generate_case(seed);
        let m = q.num_tables();
        let order: Vec<usize> = (0..m).collect();
        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            prop_assume!(!pq.any_empty());
            let budget = budget.max(4 * m as u64);
            let mut a = generic_emits(&pq, &order, &vec![0u32; m]);
            let mut b = compiled_emits(&pq, &order, budget);
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "kernel divergence on NULL/string case, indexes {}", indexes);
        }
    }

    #[test]
    fn limit_pushdown_prefix_is_sound(
        (_cat, q) in arb_chain_case(),
        limit in 1usize..12,
    ) {
        // LIMIT pushdown must return exactly `min(limit, |result|)` rows,
        // each a member of the full result.
        let full = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 32,
            threads: env_threads(),
            ..Default::default()
        })
        .execute(&q);
        let mut limited_q = q.clone();
        limited_q.limit = Some(limit);
        prop_assert_eq!(limited_q.join_limit(), Some(limit as u64));
        let limited = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 32,
            threads: env_threads(),
            ..Default::default()
        })
        .execute(&limited_q);
        prop_assert_eq!(
            limited.table.num_rows(),
            limit.min(full.table.num_rows())
        );
        for row in &limited.table.rows {
            prop_assert!(
                full.table.rows.contains(row),
                "LIMIT row not in the full result"
            );
        }
    }

    #[test]
    fn random_policy_interleavings_lose_nothing(
        (_cat, q) in arb_chain_case(),
        budget in 4u64..64,
        seed in any::<u64>(),
    ) {
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        // Random policy = adversarial order interleaving for the
        // progress tracker and offset machinery.
        let out = SkinnerC::new(SkinnerCConfig {
            budget,
            seed,
            policy: skinnerdb::engine::OrderPolicy::Random,
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
    }

    #[test]
    fn column_at_a_time_filters_match_row_at_a_time(seed in any::<u64>()) {
        // Pre-processing filters each table a column at a time; the
        // reference evaluates every unary conjunct row by row with
        // short-circuit `all`, as the filter step used to. Multiple
        // filtered tables with threads > 1 spread the scans over workers.
        let q = unary_filter_case(seed);
        let tables: Vec<_> = q.tables.iter().map(|b| b.table.clone()).collect();
        let preds = compile_predicates(&q);
        let m = tables.len();
        let mut rows = vec![0u32; m];
        let want: Vec<Vec<u32>> = (0..m)
            .map(|t| {
                let unary: Vec<_> = preds
                    .iter()
                    .filter(|p| p.tables().len() == 1 && p.tables().contains(t))
                    .collect();
                (0..tables[t].num_rows() as u32)
                    .filter(|&r| {
                        rows[t] = r;
                        unary.iter().all(|p| p.eval(&rows, &tables))
                    })
                    .collect()
            })
            .collect();
        for threads in [1, 2, env_threads()] {
            let pq = PreparedQuery::new(&q, true, threads);
            prop_assert_eq!(&pq.filtered, &want, "threads {}", threads);
        }
    }

    #[test]
    fn bound_udf_join_edges_match_interpreted(seed in any::<u64>(), oseed in any::<u64>()) {
        // UDF join predicates bind to `BoundPred::Udf`. Skinner-C must
        // return the column engine's rows, and for sampled orders a
        // kernel compiled from the plan as is must take exactly the
        // slices, steps, UDF calls and tuples of the same kernel with
        // every bound UDF swapped back to the interpreter, at budgets 1,
        // 7 and unbounded.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (q, udfs) = udf_join_case(seed);
        let truth = run_engine(&ColEngine::new(), &q, &ExecOptions::default()).table;
        let got = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 16,
            threads: env_threads(),
            ..Default::default()
        })
        .execute(&q)
        .table;
        prop_assert!(
            got.same_rows(&truth),
            "{} vs {} rows",
            got.num_rows(),
            truth.num_rows()
        );

        let calls = || udfs.iter().map(|u| u.call_count()).sum::<u64>();
        let graph = JoinGraph::from_query(&q);
        let m = q.num_tables();
        let mut rng = SmallRng::seed_from_u64(oseed);
        for _ in 0..3 {
            let mut order: Vec<usize> = Vec::with_capacity(m);
            let mut chosen = TableSet::EMPTY;
            while order.len() < m {
                let elig: Vec<usize> = graph.eligible_next(chosen).iter().collect();
                let t = elig[rng.gen_range(0..elig.len())];
                order.push(t);
                chosen.insert(t);
            }
            for indexes in [true, false] {
                let pq = PreparedQuery::new(&q, indexes, 1);
                if pq.any_empty() {
                    continue;
                }
                let plan = pq.plan_order(&order);
                let spec = pq.plan_spec(&order);
                let mut interpreted = plan.clone();
                let mut swapped = 0;
                for (pos, spec) in interpreted.positions.iter_mut().zip(&spec.positions) {
                    // Elision drops only an exact integer equality, so the
                    // bound UDF predicates keep the order of the
                    // position's applicable UDF conjuncts.
                    let udf_preds = spec
                        .applicable
                        .iter()
                        .map(|&pi| &pq.join_preds[pi])
                        .filter(|p| matches!(p.expr(), Expr::Udf { .. }));
                    let bound_udfs = pos
                        .preds
                        .iter_mut()
                        .filter(|p| matches!(p, BoundPred::Udf { .. }));
                    for (p, pred) in bound_udfs.zip(udf_preds) {
                        *p = BoundPred::Generic {
                            pred,
                            tables: &pq.tables,
                        };
                        swapped += 1;
                    }
                }
                let udf_edges = pq
                    .join_preds
                    .iter()
                    .filter(|p| matches!(p.expr(), Expr::Udf { .. }))
                    .count();
                prop_assert_eq!(swapped, udf_edges, "every UDF edge binds");
                let kernels = [&plan, &interpreted]
                    .map(|p| p.compile_kernel(None).expect("chains compile"));
                let run = |kernel: &CompiledKernel<'_>, budget: u64| {
                    let mut join = MultiwayJoin::new(&pq);
                    let offsets = vec![0u32; m];
                    let mut state = offsets.clone();
                    let mut rs = ResultSet::new();
                    let before = calls();
                    let mut slices = Vec::new();
                    // Below the order length a sequential slice never
                    // advances (each re-walks the same prefix): compare
                    // the first 64 slices.
                    let cap = if budget < m as u64 { 64 } else { usize::MAX };
                    while slices.len() < cap {
                        let (res, steps) = join.continue_join_compiled(
                            kernel, &offsets, &mut state, budget, &mut rs,
                        );
                        slices.push((res, steps, state.clone()));
                        if res == ContinueResult::Exhausted {
                            break;
                        }
                    }
                    let tuples: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
                    (slices, tuples, calls() - before)
                };
                for budget in [1, 7, u64::MAX] {
                    let bound = run(&kernels[0], budget);
                    let generic = run(&kernels[1], budget);
                    prop_assert_eq!(
                        bound, generic,
                        "order {:?} indexes {} budget {}",
                        order, indexes, budget
                    );
                }
            }
        }
    }

    #[test]
    fn join_index_matches_btreemap_oracle(seed in any::<u64>()) {
        use rand::rngs::SmallRng;
        use rand::{Rng, RngCore, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows = rng.gen_range(0..41usize);
        // Key shapes on both sides of the 2n rule: dense (from a base
        // that may be negative or at either end of i64), a single key,
        // sparse, and sparse with the i64 extremes.
        let shape = rng.gen_range(0..4);
        let base = [0, -1_000, i64::MIN, i64::MAX - 64][rng.gen_range(0..4)];
        let width = rng.gen_range(1..rows as i64 + 2);
        let single = rng.next_u64() as i64;
        let keys: Vec<Option<i64>> = (0..rows)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    return None;
                }
                Some(match shape {
                    0 => base + rng.gen_range(0..width),
                    1 => single,
                    2 => rng.next_u64() as i64,
                    _ => [i64::MIN, i64::MAX, 0][rng.gen_range(0..3)],
                })
            })
            .collect();
        // Without a NULL the column is non-nullable and is read as a raw
        // slice; with one it goes through `from_keys`.
        let ty = if rng.gen_bool(0.5) { ValueType::Int } else { ValueType::Date };
        let nulls = keys.contains(&None);
        let col = if nulls {
            let mut b = ColumnBuilder::new(ty);
            for k in &keys {
                b.push(&match (k, ty) {
                    (None, _) => Value::Null,
                    (Some(k), ValueType::Int) => Value::Int(*k),
                    (Some(k), _) => Value::Date(*k),
                });
            }
            b.finish()
        } else {
            let vals = keys.iter().flatten().copied().collect();
            if ty == ValueType::Int { Column::from_ints(vals) } else { Column::from_dates(vals) }
        };
        prop_assert_eq!(col.nullable(), nulls);
        let positions: Option<Vec<u32>> = rng
            .gen_bool(0.5)
            .then(|| (0..rows as u32).filter(|_| rng.gen_bool(0.6)).collect());
        let entries: Vec<Option<i64>> = match &positions {
            Some(p) => p.iter().map(|&r| keys[r as usize]).collect(),
            None => keys.clone(),
        };
        let mut oracle: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (i, k) in entries.iter().enumerate() {
            if let Some(k) = k {
                oracle.entry(*k).or_default().push(i as u32);
            }
        }

        let built = HashIndex::build(&col, positions.as_deref());
        let from_keys = HashIndex::from_keys(&entries);
        for idx in [&built, &from_keys] {
            prop_assert_eq!(idx.len(), entries.iter().flatten().count());
            prop_assert_eq!(idx.is_empty(), oracle.is_empty());
            prop_assert_eq!(idx.distinct_keys(), oracle.len());
            for (&k, list) in &oracle {
                prop_assert_eq!(idx.probe(k), list.as_slice());
                for min in 0..entries.len() as u32 + 2 {
                    prop_assert_eq!(idx.next_ge(k, min), list.iter().copied().find(|&p| p >= min));
                }
            }
            let (lo, hi) = (oracle.keys().next(), oracle.keys().next_back());
            let edges = [
                lo.and_then(|k| k.checked_sub(1)),
                hi.and_then(|k| k.checked_add(1)),
                Some(i64::MIN),
                Some(i64::MAX),
                Some(single),
            ];
            for k in edges.into_iter().flatten() {
                let want = oracle.get(&k).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(idx.probe(k), want);
                prop_assert_eq!(idx.next_ge(k, 0), want.first().copied());
            }
            // The holes inside a dense span.
            if let (Some(&lo), Some(&hi)) = (lo, hi) {
                for k in (lo..=hi).take(2 * rows + 2) {
                    let want = oracle.get(&k).map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(idx.probe(k), want);
                }
            }
        }
    }

    #[test]
    fn pyramid_invariants(iters in 1usize..3000) {
        let mut p = PyramidTimeouts::new();
        for _ in 0..iters {
            p.next_timeout();
        }
        // Lemma 5.5: used levels balanced within factor two.
        let used: Vec<u64> = p.per_level().iter().copied().filter(|&x| x > 0).collect();
        let max = *used.iter().max().expect("nonempty");
        let min = *used.iter().min().expect("nonempty");
        prop_assert!(max <= 2 * min);
        // Lemma 5.4: level count logarithmic in total time.
        let bound = (p.total() as f64).log2().ceil() as usize + 1;
        prop_assert!(p.levels() <= bound);
    }

    #[test]
    fn postprocess_limit_distinct(limit in 1usize..10) {
        // LIMIT must clamp and DISTINCT must dedup on arbitrary inputs.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                Schema::new([ColumnDef::new("x", ValueType::Int)]),
                vec![Column::from_ints((0..40).map(|i| i % 4).collect())],
            )
            .expect("table"),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("t").expect("table");
        qb.select_col("t.x").expect("col");
        qb.distinct();
        qb.limit(limit);
        let q = qb.build().expect("query");
        let r = SkinnerDB::skinner_c(SkinnerCConfig::default()).execute(&q);
        prop_assert_eq!(r.table.num_rows(), limit.min(4));
    }
}
