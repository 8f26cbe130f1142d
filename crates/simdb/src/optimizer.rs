//! Selinger-style join-order optimization over estimated cardinalities.
//!
//! Dynamic programming over table subsets, restricted to left-deep orders
//! in the same Cartesian-product-avoiding space that SkinnerDB's UCT
//! search uses (so every competitor optimizes over the same plan space).
//! The cost metric is estimated C_out — the sum of intermediate result
//! cardinalities [Krishnamurthy et al., VLDB'86], which the paper adopts
//! for its analysis (§5) and its "Optimal" baselines (Tables 3/4).

use crate::estimator::Estimator;
use crate::stats::StatsCatalog;
use skinner_query::{JoinGraph, Query, TableId, TableSet};

/// Choose a left-deep join order minimizing *estimated* C_out.
///
/// Uses exact subset DP up to `DP_TABLE_LIMIT` tables and a greedy
/// fallback beyond (the paper's largest query joins 17 tables; real
/// optimizers switch heuristics at a similar point).
pub fn choose_order(query: &Query, stats: &mut StatsCatalog) -> Vec<TableId> {
    let est = Estimator::new(query, stats);
    choose_order_with(query, &est)
}

/// Subset-DP size limit (2^20 subsets ≈ 1M entries).
pub(crate) const DP_TABLE_LIMIT: usize = 20;

/// Like [`choose_order`], with a caller-prepared estimator (the adaptive
/// engine injects corrected cardinalities this way).
pub fn choose_order_with(query: &Query, est: &Estimator) -> Vec<TableId> {
    let m = query.num_tables();
    if m == 1 {
        return vec![0];
    }
    let graph = JoinGraph::from_query(query);
    if m <= DP_TABLE_LIMIT {
        dp_order(&graph, est, m)
    } else {
        greedy_order(&graph, est, m)
    }
}

fn dp_order(graph: &JoinGraph, est: &Estimator, m: usize) -> Vec<TableId> {
    let full = (1u64 << m) - 1;
    // best[s] = (cost, last table added); cost = sum of subset cards over
    // all prefixes (C_out).
    let mut best: Vec<(f64, usize)> = vec![(f64::INFINITY, usize::MAX); (full + 1) as usize];
    for t in 0..m {
        let s = 1u64 << t;
        best[s as usize] = (est.filtered_card(t), t);
    }
    // Iterate subsets in increasing popcount order implicitly: a subset's
    // predecessors are strictly smaller, and we visit s in ascending
    // numeric order which guarantees s\{t} < s.
    for s in 1..=full {
        let (cost_s, _) = best[s as usize];
        if !cost_s.is_finite() {
            continue;
        }
        let set = TableSet(s);
        // Successor rule from the shared join graph.
        for t in graph.eligible_next(set).iter() {
            let ns = s | (1u64 << t);
            let card = est.subset_card(TableSet(ns));
            let cost = cost_s + card;
            if cost < best[ns as usize].0 {
                best[ns as usize] = (cost, t);
            }
        }
    }
    // Reconstruct.
    let mut order = Vec::with_capacity(m);
    let mut s = full;
    while s != 0 {
        let (_, t) = best[s as usize];
        debug_assert!(t != usize::MAX, "DP failed to cover subset {s:b}");
        order.push(t);
        s &= !(1u64 << t);
    }
    order.reverse();
    order
}

/// Greedy fallback: repeatedly append the eligible table minimizing the
/// estimated next intermediate cardinality.
pub(crate) fn greedy_order(graph: &JoinGraph, est: &Estimator, m: usize) -> Vec<TableId> {
    let mut order = Vec::with_capacity(m);
    let mut chosen = TableSet::EMPTY;
    while order.len() < m {
        let mut best: Option<(f64, TableId)> = None;
        for t in graph.eligible_next(chosen).iter() {
            let mut next = chosen;
            next.insert(t);
            let card = if order.is_empty() {
                est.filtered_card(t)
            } else {
                est.subset_card(next)
            };
            if best.is_none_or(|(bc, _)| card < bc) {
                best = Some((card, t));
            }
        }
        let (_, t) = best.expect("no eligible table");
        order.push(t);
        chosen.insert(t);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{Expr, QueryBuilder};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    /// Catalog with a small selective table and two big ones, chained.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mk = |name: &str, n: i64, dup: i64| {
            Table::new(
                name,
                Schema::new([
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints((0..n).map(|i| i / dup).collect()),
                    Column::from_ints((0..n).collect()),
                ],
            )
            .unwrap()
        };
        cat.register(mk("small", 10, 1));
        cat.register(mk("mid", 1000, 10));
        cat.register(mk("big", 5000, 50));
        cat
    }

    fn chain_query(cat: &Catalog) -> Query {
        // small ⋈ mid ⋈ big along k
        let mut qb = QueryBuilder::new(cat);
        qb.table("small").unwrap();
        qb.table("mid").unwrap();
        qb.table("big").unwrap();
        let j1 = qb.col("small.k").unwrap().eq(qb.col("mid.k").unwrap());
        let j2 = qb.col("mid.k").unwrap().eq(qb.col("big.k").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("small.v").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn dp_starts_with_small_table() {
        let cat = catalog();
        let q = chain_query(&cat);
        let mut stats = StatsCatalog::new();
        let order = choose_order(&q, &mut stats);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], 0, "optimizer should start at the small table");
    }

    #[test]
    fn order_respects_join_graph() {
        let cat = catalog();
        let q = chain_query(&cat);
        let mut stats = StatsCatalog::new();
        let order = choose_order(&q, &mut stats);
        // small(0)-mid(1)-big(2) is a chain; 0 then 2 would be Cartesian
        let pos0 = order.iter().position(|&t| t == 0).unwrap();
        let pos1 = order.iter().position(|&t| t == 1).unwrap();
        let pos2 = order.iter().position(|&t| t == 2).unwrap();
        assert!(
            (pos1 < pos0 || pos1 < pos2) || (pos0 == 0 && pos1 == 1),
            "mid must bridge the chain: {order:?} ({pos0},{pos1},{pos2})"
        );
    }

    #[test]
    fn greedy_matches_dp_on_easy_case() {
        let cat = catalog();
        let q = chain_query(&cat);
        let mut stats = StatsCatalog::new();
        let est = Estimator::new(&q, &mut stats);
        let graph = JoinGraph::from_query(&q);
        let g = greedy_order(&graph, &est, 3);
        let d = dp_order(&graph, &est, 3);
        assert_eq!(g, d);
    }

    #[test]
    fn selective_filter_moves_table_first() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("small").unwrap();
        qb.table("mid").unwrap();
        qb.table("big").unwrap();
        let j1 = qb.col("small.k").unwrap().eq(qb.col("mid.k").unwrap());
        let j2 = qb.col("mid.k").unwrap().eq(qb.col("big.k").unwrap());
        // extremely selective filter on big
        let f = qb.col("big.v").unwrap().eq(Expr::lit(17));
        qb.filter(j1);
        qb.filter(j2);
        qb.filter(f);
        qb.select_col("small.v").unwrap();
        let q = qb.build().unwrap();
        let mut stats = StatsCatalog::new();
        let order = choose_order(&q, &mut stats);
        assert_eq!(order[0], 2, "filtered big table should lead: {order:?}");
    }

    #[test]
    fn single_table() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("small").unwrap();
        qb.select_col("small.v").unwrap();
        let q = qb.build().unwrap();
        let mut stats = StatsCatalog::new();
        assert_eq!(choose_order(&q, &mut stats), vec![0]);
    }
}
