//! Shared left-deep plan execution with deadlines and batch ranges.
//!
//! Both simulated engines execute a join order as a pipeline of binary
//! joins with fully materialized intermediate results — the traditional
//! architecture the paper contrasts with Skinner-C's multi-way join. The
//! executor supports:
//!
//! * **forced join orders** (what Skinner-G/H use via "optimizer hints"),
//! * **deadlines** — execution aborts (discarding intermediates, like a
//!   cancelled SQL statement) once a timeout expires,
//! * **batch ranges** — restricting each table to a slice of its filtered
//!   tuples, which is how Algorithm 1 processes "one batch of the
//!   left-most table joined with the remaining tables",
//! * **C_out accounting** — the accumulated intermediate-result
//!   cardinality reported in Tables 1–4.

use skinner_query::{compile_predicates, CompiledPred, Query, TableId, TupleContext};
use skinner_storage::table::TableRef;
use skinner_storage::{FxHashMap, RowId};
use std::ops::Range;
use std::time::Instant;

/// How many candidate tuples are processed between deadline checks.
const DEADLINE_CHECK_INTERVAL: u64 = 4096;

/// Safety cap on materialized intermediate tuples; a plan that exceeds it
/// reports `blown = true` (treated as a timeout by callers). This models a
/// real system running out of workspace memory on a catastrophic plan.
pub(crate) const DEFAULT_MAX_INTERMEDIATE: u64 = 40_000_000;

/// Options controlling one engine invocation.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Force this left-deep join order (indices into the query's FROM
    /// list). `None` lets the engine's own optimizer choose.
    pub join_order: Option<Vec<TableId>>,
    /// Abort when this instant passes.
    pub deadline: Option<Instant>,
    /// Restrict each table to a range of its *filtered* positions
    /// (`ranges[t]`). Used by Skinner-G to execute single batches.
    pub ranges: Option<Vec<Range<usize>>>,
    /// Skip collecting result tuples; only count them.
    pub count_only: bool,
    /// Override the intermediate-tuple safety cap.
    pub max_intermediate: Option<u64>,
}

/// Result of one engine invocation.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Result tuples as base-table row ids, row-major with stride
    /// `query.num_tables()` and slot order = FROM-list order (not join
    /// order). Empty if `count_only` or if the run timed out.
    pub tuples: Vec<RowId>,
    /// Number of result tuples produced.
    pub result_count: u64,
    /// Accumulated intermediate-result cardinality (C_out): sum of the
    /// sizes of every join step's output, including the final one.
    pub intermediate_cardinality: u64,
    /// The join order that was executed.
    pub join_order: Vec<TableId>,
    /// True if the deadline expired before completion (tuples discarded).
    pub(crate) timed_out: bool,
    /// True if the intermediate-size safety cap was hit.
    pub(crate) blown: bool,
    /// Output cardinality of each completed join step (step 0 = the
    /// filtered left-most table). Used by re-optimizing baselines to
    /// calibrate estimates against observations.
    pub step_cards: Vec<u64>,
}

impl ExecOutcome {
    /// Completed successfully (no timeout, no blow-up)?
    pub fn completed(&self) -> bool {
        !self.timed_out && !self.blown
    }
}

/// Per-query filtered base tables: for each table, the base row ids that
/// survive its unary predicates.
#[derive(Debug, Clone)]
pub struct Prefiltered {
    /// `positions[t]` = surviving base row ids of table `t`, ascending.
    pub(crate) positions: Vec<Vec<RowId>>,
}

impl Prefiltered {
    /// Apply all unary predicates of `query` using compiled evaluation.
    pub fn compute(query: &Query, preds: &[CompiledPred]) -> Prefiltered {
        let tables: Vec<TableRef> = query.tables.iter().map(|b| b.table.clone()).collect();
        let m = tables.len();
        let mut positions = Vec::with_capacity(m);
        let mut rows = vec![0u32; m];
        for (t, table) in tables.iter().enumerate() {
            let unary: Vec<&CompiledPred> = preds
                .iter()
                .filter(|p| p.tables() == skinner_query::TableSet::single(t))
                .collect();
            let mut keep = Vec::new();
            for r in 0..table.num_rows() as u32 {
                rows[t] = r;
                if unary.iter().all(|p| p.eval(&rows, &tables)) {
                    keep.push(r);
                }
            }
            positions.push(keep);
        }
        Prefiltered { positions }
    }

    /// Apply unary predicates with the *generic interpreter* (row-engine
    /// path; same results, higher per-tuple cost).
    pub(crate) fn compute_interpreted(query: &Query) -> Prefiltered {
        let tables: Vec<TableRef> = query.tables.iter().map(|b| b.table.clone()).collect();
        let m = tables.len();
        let mut positions = Vec::with_capacity(m);
        let mut rows = vec![0u32; m];
        for (t, table) in tables.iter().enumerate() {
            let unary: Vec<&skinner_query::Expr> = query.unary_predicates(t).collect();
            let mut keep = Vec::new();
            for r in 0..table.num_rows() as u32 {
                rows[t] = r;
                let ctx = TupleContext {
                    rows: &rows,
                    tables: &tables,
                };
                if unary.iter().all(|p| p.eval_predicate(&ctx)) {
                    keep.push(r);
                }
            }
            positions.push(keep);
        }
        Prefiltered { positions }
    }

    /// Filtered cardinality of table `t`.
    pub fn card(&self, t: TableId) -> usize {
        self.positions[t].len()
    }
}

/// Predicate evaluation mode: the engine personality knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Interpreted expression trees + per-tuple value materialization
    /// (row engine).
    Interpreted,
    /// Compiled typed fast paths, late materialization (column engine).
    Compiled,
}

/// Join-step plan derived for one position of the join order.
struct StepPlan {
    /// The table joined at this step.
    table: TableId,
    /// Equi-join keys: pairs (column of `table`, column of an earlier
    /// table with its table id).
    hash_keys: Vec<(usize, TableId, usize)>,
    /// Indices (into the compiled predicate list) of conjuncts newly
    /// applicable at this step.
    applicable: Vec<usize>,
}

fn plan_steps(query: &Query, order: &[TableId], preds: &[CompiledPred]) -> Vec<StepPlan> {
    use skinner_query::TableSet;
    let mut joined = TableSet::EMPTY;
    let mut steps = Vec::with_capacity(order.len());
    for (i, &t) in order.iter().enumerate() {
        let mut with_t = joined;
        with_t.insert(t);
        let mut applicable = Vec::new();
        let mut hash_keys = Vec::new();
        for (pi, p) in preds.iter().enumerate() {
            let ts = p.tables();
            // Newly applicable: all referenced tables now joined, and `t`
            // among them (unary predicates of `t` were already applied by
            // the pre-filter, so skip single-table conjuncts).
            if ts.len() >= 2 && ts.contains(t) && ts.is_subset_of(with_t) {
                applicable.push(pi);
                if i > 0 {
                    if let Some((a, b)) = p.expr().as_equi_join() {
                        let (tc, oc) = if a.table == t { (a, b) } else { (b, a) };
                        // Key-convention guard (see
                        // `Column::join_key_compatible`): an Int = Float
                        // equality is true under numeric widening while
                        // the join-key conventions differ, so hashing it
                        // would drop matches; keep it a residual check.
                        if tc.table == t
                            && joined.contains(oc.table)
                            && query.tables[t]
                                .table
                                .column(tc.column)
                                .join_key_compatible(query.tables[oc.table].table.column(oc.column))
                        {
                            hash_keys.push((tc.column, oc.table, oc.column));
                        }
                    }
                }
            }
        }
        steps.push(StepPlan {
            table: t,
            hash_keys,
            applicable,
        });
        joined = with_t;
    }
    steps
}

/// Columnar intermediate: parallel row-id vectors, one per joined table
/// (indexed positionally by join-order step).
struct Intermediate {
    tables: Vec<TableId>,
    cols: Vec<Vec<RowId>>,
    len: usize,
}

/// Internal bookkeeping for deadline checks and the tuple cap.
struct Budget {
    deadline: Option<Instant>,
    counter: u64,
    max_intermediate: u64,
    produced: u64,
    timed_out: bool,
    blown: bool,
}

impl Budget {
    #[inline]
    fn tick(&mut self) -> bool {
        self.counter += 1;
        if self.counter.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.timed_out = true;
                    return false;
                }
            }
        }
        true
    }

    #[inline]
    fn produce(&mut self) -> bool {
        self.produced += 1;
        if self.produced > self.max_intermediate {
            self.blown = true;
            return false;
        }
        true
    }
}

/// Execute `order` over pre-filtered inputs. This is the engine-agnostic
/// core; `mode` selects interpreted vs. compiled predicate evaluation and
/// `materialize_rows` simulates the row-store behaviour of constructing
/// value tuples for every intermediate row (the §4.5 contrast).
#[allow(clippy::too_many_arguments)]
pub fn run_left_deep(
    query: &Query,
    pre: &Prefiltered,
    order: &[TableId],
    mode: EvalMode,
    opts: &ExecOptions,
    materialize_rows: bool,
) -> ExecOutcome {
    let tables: Vec<TableRef> = query.tables.iter().map(|b| b.table.clone()).collect();
    let m = tables.len();
    debug_assert_eq!(order.len(), m, "join order arity mismatch");
    let preds = compile_predicates(query);
    let steps = plan_steps(query, order, &preds);

    let mut budget = Budget {
        deadline: opts.deadline,
        counter: 0,
        max_intermediate: opts.max_intermediate.unwrap_or(DEFAULT_MAX_INTERMEDIATE),
        produced: 0,
        timed_out: false,
        blown: false,
    };

    let range_of = |t: TableId| -> &[RowId] {
        let all = &pre.positions[t];
        match &opts.ranges {
            Some(rs) => {
                let r = rs[t].clone();
                &all[r.start.min(all.len())..r.end.min(all.len())]
            }
            None => all,
        }
    };

    // Seed: the left-most table's (range-restricted) filtered rows.
    let first = order[0];
    let mut inter = Intermediate {
        tables: vec![first],
        cols: vec![range_of(first).to_vec()],
        len: range_of(first).len(),
    };
    let mut cout = inter.len as u64;
    let mut step_cards: Vec<u64> = vec![inter.len as u64];

    // Row-engine value materialization buffer (built and dropped per
    // intermediate tuple to model tuple construction cost).
    let mut scratch_rows = vec![0u32; m];

    for step in steps.iter().skip(1) {
        let t = step.table;
        let t_rows = range_of(t);

        // Build side: hash the new table on its equi-key columns.
        let build: Option<FxHashMap<u64, Vec<RowId>>> = if !step.hash_keys.is_empty() {
            let mut map: FxHashMap<u64, Vec<RowId>> =
                FxHashMap::with_capacity_and_hasher(t_rows.len(), Default::default());
            let cols: Vec<_> = step
                .hash_keys
                .iter()
                .map(|(tc, _, _)| tables[t].column(*tc))
                .collect();
            'rows: for &r in t_rows {
                let mut key = 0xcbf29ce484222325u64;
                for col in &cols {
                    match col.join_key(r as usize) {
                        Some(k) => {
                            key = skinner_storage::hash::hash_u64(key ^ k as u64);
                        }
                        None => continue 'rows, // NULL never joins
                    }
                }
                map.entry(key).or_default().push(r);
            }
            Some(map)
        } else {
            None
        };
        let probe_cols: Vec<_> = step
            .hash_keys
            .iter()
            .map(|(_, ot, oc)| (*ot, tables[*ot].column(*oc)))
            .collect();

        let applicable: Vec<&CompiledPred> = step.applicable.iter().map(|&i| &preds[i]).collect();

        let mut out_cols: Vec<Vec<RowId>> = vec![Vec::new(); inter.cols.len() + 1];
        let mut out_len = 0usize;

        'outer: for row in 0..inter.len {
            // Reconstruct the tuple's row ids.
            for (slot, &tt) in inter.tables.iter().enumerate() {
                scratch_rows[tt] = inter.cols[slot][row];
            }
            if materialize_rows {
                // Row-store behaviour: materialize the intermediate tuple
                // as actual values (paper §4.5: "intermediate results that
                // consist of actual tuples").
                let mut vals = Vec::with_capacity(inter.tables.len() * 2);
                for &tt in &inter.tables {
                    let tb = &tables[tt];
                    for c in 0..tb.schema().len() {
                        vals.push(tb.column(c).get(scratch_rows[tt] as usize));
                    }
                }
                std::hint::black_box(&vals);
            }

            let candidates: &[RowId] = match &build {
                Some(map) => {
                    let mut key = 0xcbf29ce484222325u64;
                    let mut null = false;
                    for (ot, col) in &probe_cols {
                        match col.join_key(scratch_rows[*ot] as usize) {
                            Some(k) => {
                                key = skinner_storage::hash::hash_u64(key ^ k as u64);
                            }
                            None => {
                                null = true;
                                break;
                            }
                        }
                    }
                    if null {
                        continue 'outer;
                    }
                    map.get(&key).map_or(&[], Vec::as_slice)
                }
                None => t_rows,
            };

            for &cand in candidates {
                if !budget.tick() {
                    break 'outer;
                }
                scratch_rows[t] = cand;
                let ok = match mode {
                    EvalMode::Compiled => applicable.iter().all(|p| p.eval(&scratch_rows, &tables)),
                    EvalMode::Interpreted => {
                        let ctx = TupleContext {
                            rows: &scratch_rows,
                            tables: &tables,
                        };
                        applicable.iter().all(|p| p.expr().eval_predicate(&ctx))
                    }
                };
                if ok {
                    if !budget.produce() {
                        break 'outer;
                    }
                    for (slot, &tt) in inter.tables.iter().enumerate() {
                        out_cols[slot].push(scratch_rows[tt]);
                    }
                    out_cols[inter.tables.len()].push(cand);
                    out_len += 1;
                }
            }
        }

        if budget.timed_out || budget.blown {
            return ExecOutcome {
                tuples: Vec::new(),
                result_count: 0,
                intermediate_cardinality: cout + out_len as u64,
                join_order: order.to_vec(),
                timed_out: budget.timed_out,
                blown: budget.blown,
                step_cards,
            };
        }

        let mut new_tables = inter.tables.clone();
        new_tables.push(t);
        inter = Intermediate {
            tables: new_tables,
            cols: out_cols,
            len: out_len,
        };
        cout += out_len as u64;
        step_cards.push(out_len as u64);

        if inter.len == 0 {
            break; // empty intermediate: result is empty
        }
    }

    // Assemble final tuples in FROM-list slot order.
    let result_count = inter.len as u64;
    let tuples = if opts.count_only || inter.len == 0 {
        Vec::new()
    } else {
        let mut out = vec![0u32; inter.len * m];
        for (slot, &tt) in inter.tables.iter().enumerate() {
            let col = &inter.cols[slot];
            for (row, &rid) in col.iter().enumerate() {
                out[row * m + tt] = rid;
            }
        }
        out
    };

    ExecOutcome {
        tuples,
        result_count,
        intermediate_cardinality: cout,
        join_order: order.to_vec(),
        timed_out: false,
        blown: false,
        step_cards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The result tuples of a run over [`three_way`]'s three tables.
    fn tuples(out: &ExecOutcome) -> Vec<Vec<u32>> {
        out.tuples.chunks_exact(3).map(|t| t.to_vec()).collect()
    }
    use skinner_query::{Expr, QueryBuilder};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "a",
                Schema::new([
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 3, 4]),
                    Column::from_ints(vec![10, 20, 30, 40]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "b",
                Schema::new([
                    ColumnDef::new("a_id", ValueType::Int),
                    ColumnDef::new("w", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 1, 3, 5]),
                    Column::from_ints(vec![7, 8, 9, 6]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "c",
                Schema::new([ColumnDef::new("w", ValueType::Int)]),
                vec![Column::from_ints(vec![7, 9, 9])],
            )
            .unwrap(),
        );
        cat
    }

    fn three_way(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        qb.table("c").unwrap();
        let j1 = qb.col("a.id").unwrap().eq(qb.col("b.a_id").unwrap());
        let j2 = qb.col("b.w").unwrap().eq(qb.col("c.w").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("a.v").unwrap();
        qb.build().unwrap()
    }

    fn run(q: &Query, order: Vec<usize>, mode: EvalMode) -> ExecOutcome {
        let preds = compile_predicates(q);
        let pre = Prefiltered::compute(q, &preds);
        run_left_deep(
            q,
            &pre,
            &order,
            mode,
            &ExecOptions::default(),
            mode == EvalMode::Interpreted,
        )
    }

    #[test]
    fn three_way_join_result() {
        let cat = catalog();
        let q = three_way(&cat);
        // expected: a.id=b.a_id → (1,b0),(1,b1),(3,b2); b.w=c.w → b0.w=7→c0, b2.w=9→c1,c2
        // result tuples: (a1,b0,c0), (a3,b2,c1), (a3,b2,c2)
        let out = run(&q, vec![0, 1, 2], EvalMode::Compiled);
        assert_eq!(out.result_count, 3);
        assert_eq!(tuples(&out).len(), 3);
        // every order must give the same result set
        for order in [vec![2usize, 1, 0], vec![1usize, 0, 2], vec![1usize, 2, 0]] {
            let o2 = run(&q, order.clone(), EvalMode::Compiled);
            assert_eq!(o2.result_count, 3, "order {order:?}");
            let mut s1 = tuples(&out);
            let mut s2 = tuples(&o2);
            s1.sort();
            s2.sort();
            assert_eq!(s1, s2, "order {order:?}");
        }
    }

    #[test]
    fn interpreted_matches_compiled() {
        let cat = catalog();
        let q = three_way(&cat);
        let a = run(&q, vec![0, 1, 2], EvalMode::Compiled);
        let b = run(&q, vec![0, 1, 2], EvalMode::Interpreted);
        assert_eq!(a.result_count, b.result_count);
        assert_eq!(a.intermediate_cardinality, b.intermediate_cardinality);
    }

    #[test]
    fn unary_filters_applied() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.id").unwrap().eq(qb.col("b.a_id").unwrap());
        let f = qb.col("a.v").unwrap().ge(Expr::lit(30));
        qb.filter(j);
        qb.filter(f);
        qb.select_col("a.v").unwrap();
        let q = qb.build().unwrap();
        let out = run(&q, vec![0, 1], EvalMode::Compiled);
        // only a.id=3 survives filter and matches b
        assert_eq!(out.result_count, 1);
    }

    #[test]
    fn cout_accumulates_per_step() {
        let cat = catalog();
        let q = three_way(&cat);
        let out = run(&q, vec![0, 1, 2], EvalMode::Compiled);
        // step sizes: |a|=4, |a⋈b|=3, |a⋈b⋈c|=3 → cout = 4+3+3 = 10
        assert_eq!(out.intermediate_cardinality, 10);
        // a bad order (c first: c=3, c⋈b=3, full=3 → 9; note c⋈b via hash)
        let out2 = run(&q, vec![2, 1, 0], EvalMode::Compiled);
        assert_eq!(out2.intermediate_cardinality, 9);
    }

    #[test]
    fn batch_ranges_partition_results() {
        let cat = catalog();
        let q = three_way(&cat);
        // two batches over table a's 4 filtered rows
        let mut all = Vec::new();
        for (lo, hi) in [(0usize, 2usize), (2, 4)] {
            let preds = compile_predicates(&q);
            let pre = Prefiltered::compute(&q, &preds);
            let opts = ExecOptions {
                ranges: Some(vec![lo..hi, 0..usize::MAX, 0..usize::MAX]),
                ..Default::default()
            };
            let out = run_left_deep(&q, &pre, &[0, 1, 2], EvalMode::Compiled, &opts, false);
            assert!(out.completed());
            all.extend(tuples(&out));
        }
        let full = run(&q, vec![0, 1, 2], EvalMode::Compiled);
        let mut expect = tuples(&full);
        all.sort();
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn deadline_in_past_times_out() {
        let cat = catalog();
        let q = three_way(&cat);
        let preds = compile_predicates(&q);
        let pre = Prefiltered::compute(&q, &preds);
        let opts = ExecOptions {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..Default::default()
        };
        // tiny data may finish before the first deadline check; force many
        // candidate checks by using the cross-product-ish order — still may
        // finish. Use max_intermediate=0 to exercise the blown path instead.
        let opts_blown = ExecOptions {
            max_intermediate: Some(0),
            ..Default::default()
        };
        let out = run_left_deep(&q, &pre, &[0, 1, 2], EvalMode::Compiled, &opts_blown, false);
        assert!(out.blown);
        assert!(!out.completed());
        let _ = opts; // deadline path covered in integration tests with larger data
    }

    #[test]
    fn empty_filter_result_short_circuits() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.id").unwrap().eq(qb.col("b.a_id").unwrap());
        let f = qb.col("a.v").unwrap().gt(Expr::lit(1000));
        qb.filter(j);
        qb.filter(f);
        qb.select_col("a.v").unwrap();
        let q = qb.build().unwrap();
        let out = run(&q, vec![0, 1], EvalMode::Compiled);
        assert_eq!(out.result_count, 0);
        assert!(out.completed());
    }

    #[test]
    fn count_only_skips_tuples() {
        let cat = catalog();
        let q = three_way(&cat);
        let preds = compile_predicates(&q);
        let pre = Prefiltered::compute(&q, &preds);
        let opts = ExecOptions {
            count_only: true,
            ..Default::default()
        };
        let out = run_left_deep(&q, &pre, &[0, 1, 2], EvalMode::Compiled, &opts, false);
        assert_eq!(out.result_count, 3);
        assert!(out.tuples.is_empty());
    }

    #[test]
    fn nested_loop_for_non_equi_join() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.id").unwrap().lt(qb.col("b.a_id").unwrap());
        qb.filter(j);
        qb.select_col("a.v").unwrap();
        let q = qb.build().unwrap();
        let out = run(&q, vec![0, 1], EvalMode::Compiled);
        // pairs with a.id < b.a_id: id=1: b=3,5 →2; id=2: b=3,5 →2; id=3: b=5 →1; id=4: b=5 →1
        assert_eq!(out.result_count, 6);
    }
}
