//! True-C_out oracle: certified optimal left-deep join orders.
//!
//! Tables 3/4 of the paper replay "optimal join orders, calculated
//! according to the C_out metric" in each engine. This module computes
//! them by branch-and-bound DFS over the Cartesian-avoiding left-deep
//! space with **measured** (not estimated) intermediate cardinalities:
//! every candidate prefix is actually joined, its output counted, and
//! subtrees are pruned when their accumulated C_out already exceeds the
//! best complete order (plus a subset-memo dominance check).
//!
//! The search carries a tuple budget; if exhausted (pathological data),
//! the best order found so far is returned with `exact = false`.

use skinner_query::{compile_predicates, CompiledPred, JoinGraph, Query, TableId, TableSet};
use skinner_storage::table::TableRef;
use skinner_storage::{FxHashMap, RowId};

use crate::exec::Prefiltered;

/// Outcome of the optimal-order search.
#[derive(Debug, Clone)]
pub struct OptimalResult {
    /// The best left-deep order found.
    pub order: Vec<TableId>,
    /// True if the search completed (the order is certified optimal).
    pub exact: bool,
}

struct Ctx<'a> {
    tables: &'a [TableRef],
    preds: &'a [CompiledPred],
    pre: &'a Prefiltered,
    graph: &'a JoinGraph,
    m: usize,
    best_cout: u64,
    best_order: Vec<TableId>,
    /// subset → least C_out seen when completing that subset.
    memo: FxHashMap<u64, u64>,
    /// Remaining tuple-materialization budget.
    budget: i64,
    exact: bool,
}

/// Columnar prefix intermediate.
struct Inter {
    tables: Vec<TableId>,
    cols: Vec<Vec<RowId>>,
    len: usize,
}

/// Join `inter` with table `t`, aborting once more than `limit` tuples
/// are produced (returns `None` on abort). `budget` is decremented by the
/// number of candidate tuples examined.
fn extend(ctx: &mut Ctx<'_>, inter: &Inter, t: TableId, limit: u64) -> Option<Inter> {
    let joined: TableSet = inter.tables.iter().copied().collect();
    let mut with_t = joined;
    with_t.insert(t);

    // Newly applicable predicates and hash keys (same rule as the
    // executor's planner).
    let mut applicable: Vec<&CompiledPred> = Vec::new();
    let mut hash_keys: Vec<(usize, TableId, usize)> = Vec::new();
    for p in ctx.preds {
        let ts = p.tables();
        if ts.len() >= 2 && ts.contains(t) && ts.is_subset_of(with_t) {
            applicable.push(p);
            if let Some((a, b)) = p.expr().as_equi_join() {
                let (tc, oc) = if a.table == t { (a, b) } else { (b, a) };
                // Same key-convention guard as the executor's planner:
                // Int = Float widening is true with unequal keys.
                if tc.table == t
                    && joined.contains(oc.table)
                    && ctx.tables[t]
                        .column(tc.column)
                        .join_key_compatible(ctx.tables[oc.table].column(oc.column))
                {
                    hash_keys.push((tc.column, oc.table, oc.column));
                }
            }
        }
    }

    let t_rows: &[RowId] = &ctx.pre.positions[t];
    let build: Option<FxHashMap<u64, Vec<RowId>>> = if hash_keys.is_empty() {
        None
    } else {
        let cols: Vec<_> = hash_keys
            .iter()
            .map(|(tc, _, _)| ctx.tables[t].column(*tc))
            .collect();
        let mut map: FxHashMap<u64, Vec<RowId>> = FxHashMap::default();
        'rows: for &r in t_rows {
            let mut key = 0xcbf29ce484222325u64;
            for col in &cols {
                match col.join_key(r as usize) {
                    Some(k) => key = skinner_storage::hash::hash_u64(key ^ k as u64),
                    None => continue 'rows,
                }
            }
            map.entry(key).or_default().push(r);
        }
        Some(map)
    };
    let probe_cols: Vec<_> = hash_keys
        .iter()
        .map(|(_, ot, oc)| (*ot, ctx.tables[*ot].column(*oc)))
        .collect();

    let mut out_cols: Vec<Vec<RowId>> = vec![Vec::new(); inter.cols.len() + 1];
    let mut out_len: u64 = 0;
    let mut rows = vec![0u32; ctx.m];

    for row in 0..inter.len {
        for (slot, &tt) in inter.tables.iter().enumerate() {
            rows[tt] = inter.cols[slot][row];
        }
        let candidates: &[RowId] = match &build {
            Some(map) => {
                let mut key = 0xcbf29ce484222325u64;
                let mut null = false;
                for (ot, col) in &probe_cols {
                    match col.join_key(rows[*ot] as usize) {
                        Some(k) => key = skinner_storage::hash::hash_u64(key ^ k as u64),
                        None => {
                            null = true;
                            break;
                        }
                    }
                }
                if null {
                    continue;
                }
                map.get(&key).map_or(&[], Vec::as_slice)
            }
            None => t_rows,
        };
        ctx.budget -= candidates.len() as i64;
        if ctx.budget < 0 {
            ctx.exact = false;
            return None;
        }
        for &cand in candidates {
            rows[t] = cand;
            if applicable.iter().all(|p| p.eval(&rows, ctx.tables)) {
                out_len += 1;
                if out_len > limit {
                    return None; // prune: already worse than best
                }
                for (slot, &tt) in inter.tables.iter().enumerate() {
                    out_cols[slot].push(rows[tt]);
                }
                out_cols[inter.tables.len()].push(cand);
            }
        }
    }

    let mut tables = inter.tables.clone();
    tables.push(t);
    Some(Inter {
        tables,
        cols: out_cols,
        len: out_len as usize,
    })
}

fn dfs(ctx: &mut Ctx<'_>, inter: &Inter, cout: u64, order: &mut Vec<TableId>) {
    if order.len() == ctx.m {
        if cout < ctx.best_cout {
            ctx.best_cout = cout;
            ctx.best_order = order.clone();
        }
        return;
    }
    let chosen: TableSet = order.iter().copied().collect();
    // Visit children in ascending filtered-cardinality order: cheap
    // extensions first gives tight bounds early.
    let mut children: Vec<TableId> = ctx.graph.eligible_next(chosen).iter().collect();
    children.sort_by_key(|&t| ctx.pre.card(t));
    for t in children {
        if ctx.budget < 0 {
            ctx.exact = false;
            return;
        }
        if cout >= ctx.best_cout {
            return; // bound
        }
        let limit = ctx.best_cout - cout;
        let Some(next) = extend(ctx, inter, t, limit) else {
            continue;
        };
        let next_cout = cout + next.len as u64;
        if next_cout >= ctx.best_cout {
            continue;
        }
        // Subset dominance: another order reaching the same subset with
        // lower or equal C_out makes this branch redundant.
        let mut subset = chosen;
        subset.insert(t);
        match ctx.memo.get(&subset.0) {
            Some(&seen) if seen <= next_cout => continue,
            _ => {
                ctx.memo.insert(subset.0, next_cout);
            }
        }
        order.push(t);
        dfs(ctx, &next, next_cout, order);
        order.pop();
    }
}

/// Compute the C_out-optimal left-deep order for `query`.
///
/// `bound_order`, if given (e.g. the traditional optimizer's or
/// SkinnerDB's final order), seeds the upper bound. `budget` limits the
/// total number of candidate tuples examined during the search.
pub fn optimal_order(query: &Query, bound_order: Option<&[TableId]>, budget: u64) -> OptimalResult {
    let tables: Vec<TableRef> = query.tables.iter().map(|b| b.table.clone()).collect();
    let preds = compile_predicates(query);
    let pre = Prefiltered::compute(query, &preds);
    let graph = JoinGraph::from_query(query);
    let m = query.num_tables();

    let mut ctx = Ctx {
        tables: &tables,
        preds: &preds,
        pre: &pre,
        graph: &graph,
        m,
        best_cout: u64::MAX,
        best_order: (0..m).collect(),
        memo: FxHashMap::default(),
        budget: budget as i64,
        exact: true,
    };

    // Seed the bound by fully evaluating the suggested order (and the
    // identity order as a fallback).
    let seed_orders: Vec<Vec<TableId>> = match bound_order {
        Some(o) => vec![o.to_vec()],
        None => vec![],
    };
    for seed in &seed_orders {
        let mut inter = seed_inter(&pre, seed[0]);
        let mut cout = inter.len as u64;
        let mut feasible = true;
        for &t in &seed[1..] {
            match extend(&mut ctx, &inter, t, u64::MAX) {
                Some(next) => {
                    cout += next.len as u64;
                    inter = next;
                }
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if feasible && cout < ctx.best_cout {
            ctx.best_cout = cout;
            ctx.best_order = seed.clone();
        }
    }

    // Full search from every eligible first table (smallest first).
    let mut firsts: Vec<TableId> = graph.eligible_next(TableSet::EMPTY).iter().collect();
    firsts.sort_by_key(|&t| pre.card(t));
    for t in firsts {
        if ctx.budget < 0 {
            ctx.exact = false;
            break;
        }
        let inter = seed_inter(&pre, t);
        let cout = inter.len as u64;
        if cout >= ctx.best_cout {
            continue;
        }
        ctx.memo.insert(TableSet::single(t).0, cout);
        let mut order = vec![t];
        dfs(&mut ctx, &inter, cout, &mut order);
    }

    OptimalResult {
        order: ctx.best_order,
        exact: ctx.exact,
    }
}

fn seed_inter(pre: &Prefiltered, t: TableId) -> Inter {
    Inter {
        tables: vec![t],
        cols: vec![pre.positions[t].clone()],
        len: pre.positions[t].len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_left_deep, EvalMode, ExecOptions};
    use skinner_query::QueryBuilder;
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mk = |name: &str, keys: Vec<i64>| {
            Table::new(
                name,
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints(keys)],
            )
            .unwrap()
        };
        // selective: joins produce few rows if sel first
        cat.register(mk("sel", vec![0, 1]));
        cat.register(mk("mid", (0..100).map(|i| i % 10).collect()));
        cat.register(mk("big", (0..1000).map(|i| i % 10).collect()));
        cat
    }

    fn chain(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("sel").unwrap();
        qb.table("mid").unwrap();
        qb.table("big").unwrap();
        let j1 = qb.col("sel.k").unwrap().eq(qb.col("mid.k").unwrap());
        let j2 = qb.col("mid.k").unwrap().eq(qb.col("big.k").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("sel.k").unwrap();
        qb.build().unwrap()
    }

    /// C_out of `order`, measured by the executor.
    fn cout_of(q: &Query, order: &[usize]) -> u64 {
        let pre = Prefiltered::compute(q, &compile_predicates(q));
        let opts = ExecOptions {
            count_only: true,
            ..Default::default()
        };
        run_left_deep(q, &pre, order, EvalMode::Compiled, &opts, false).intermediate_cardinality
    }

    /// Exhaustively measure C_out of every valid order via the executor.
    fn brute_force_best(q: &Query) -> (Vec<usize>, u64) {
        let graph = JoinGraph::from_query(q);
        let preds = compile_predicates(q);
        let pre = Prefiltered::compute(q, &preds);
        let mut best = (vec![], u64::MAX);
        fn rec(
            q: &Query,
            graph: &JoinGraph,
            pre: &Prefiltered,
            prefix: &mut Vec<usize>,
            best: &mut (Vec<usize>, u64),
        ) {
            if prefix.len() == q.num_tables() {
                let out = run_left_deep(
                    q,
                    pre,
                    prefix,
                    EvalMode::Compiled,
                    &ExecOptions {
                        count_only: true,
                        ..Default::default()
                    },
                    false,
                );
                if out.intermediate_cardinality < best.1 {
                    *best = (prefix.clone(), out.intermediate_cardinality);
                }
                return;
            }
            let chosen: TableSet = prefix.iter().copied().collect();
            for t in graph.eligible_next(chosen).iter() {
                prefix.push(t);
                rec(q, graph, pre, prefix, best);
                prefix.pop();
            }
        }
        rec(q, &graph, &pre, &mut vec![], &mut best);
        best
    }

    #[test]
    fn oracle_matches_brute_force() {
        let cat = catalog();
        let q = chain(&cat);
        let (bf_order, bf_cout) = brute_force_best(&q);
        let opt = optimal_order(&q, None, 100_000_000);
        assert!(opt.exact);
        assert_eq!(
            cout_of(&q, &opt.order),
            bf_cout,
            "oracle {:?} vs brute {bf_order:?}",
            opt.order
        );
    }

    #[test]
    fn seed_order_tightens_bound() {
        let cat = catalog();
        let q = chain(&cat);
        let base = optimal_order(&q, None, 100_000_000);
        let seeded = optimal_order(&q, Some(&base.order), 100_000_000);
        assert_eq!(cout_of(&q, &base.order), cout_of(&q, &seeded.order));
    }

    #[test]
    fn budget_exhaustion_is_flagged() {
        let cat = catalog();
        let q = chain(&cat);
        let opt = optimal_order(&q, None, 10);
        assert!(!opt.exact);
        assert_eq!(opt.order.len(), 3);
    }
}
