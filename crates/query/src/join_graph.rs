//! Join-graph connectivity for Cartesian-product avoidance.
//!
//! §4.2 of the paper: the join-order search space excludes "join orders
//! that introduce Cartesian product joins without need. [...] If at least
//! one of the remaining tables is connected to the [chosen tables] via
//! join predicates, only such tables will be considered. If none of the
//! remaining tables is connected, all remaining tables become eligible."
//! [`JoinGraph::eligible_next`] implements exactly that rule; it is shared
//! by the UCT search space, the traditional optimizer's plan enumeration,
//! and the random-order baseline, so all competitors search the same space.

use crate::expr::TableSet;
use crate::query::Query;
use crate::TableId;

/// Undirected connectivity between the tables of one query, derived from
/// its join predicates (any predicate touching ≥ 2 tables connects every
/// pair of tables it references).
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// adjacency[t] = set of tables sharing a predicate with `t`.
    adjacency: Vec<TableSet>,
}

impl JoinGraph {
    /// Build the join graph of `query`.
    pub fn from_query(query: &Query) -> JoinGraph {
        let n = query.num_tables();
        let mut adjacency = vec![TableSet::EMPTY; n];
        for pred in query.join_predicates() {
            let ts = pred.tables();
            for a in ts.iter() {
                adjacency[a] = adjacency[a].union(ts.minus(TableSet::single(a)));
            }
        }
        JoinGraph { adjacency }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.adjacency.len()
    }

    /// Tables adjacent to `t`.
    pub fn neighbors(&self, t: TableId) -> TableSet {
        self.adjacency[t]
    }

    /// Is `t` connected to any table in `set`?
    pub fn connected(&self, t: TableId, set: TableSet) -> bool {
        !self.adjacency[t].intersect(set).is_empty()
    }

    /// The §4.2 successor rule: given the tables already joined, the
    /// eligible next tables. Connected tables if any exist; otherwise all
    /// remaining tables (the Cartesian product is then unavoidable). For
    /// an empty prefix every table is eligible.
    pub fn eligible_next(&self, chosen: TableSet) -> TableSet {
        let n = self.num_tables();
        let remaining = TableSet::all(n).minus(chosen);
        if chosen.is_empty() {
            return remaining;
        }
        let mut connected = TableSet::EMPTY;
        for t in remaining.iter() {
            if self.connected(t, chosen) {
                connected.insert(t);
            }
        }
        if connected.is_empty() {
            remaining
        } else {
            connected
        }
    }

    /// True if the whole query is connected (no forced Cartesian product).
    pub fn is_connected(&self) -> bool {
        let n = self.num_tables();
        if n <= 1 {
            return true;
        }
        let mut seen = TableSet::single(0);
        let mut frontier = vec![0usize];
        while let Some(t) = frontier.pop() {
            for nb in self.adjacency[t].iter() {
                if !seen.contains(nb) {
                    seen.insert(nb);
                    frontier.push(nb);
                }
            }
        }
        seen.len() == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::{SelectItem, TableBinding};
    use skinner_storage::{Column, ColumnDef, Schema, Table, ValueType};
    use std::sync::Arc;

    /// Count the join orders reachable under the successor rule
    /// (exponential — small graphs only).
    fn count_valid_orders(g: &JoinGraph) -> u64 {
        fn rec(g: &JoinGraph, chosen: TableSet, depth: usize) -> u64 {
            if depth == g.num_tables() {
                return 1;
            }
            let mut total = 0;
            for t in g.eligible_next(chosen).iter() {
                let mut next = chosen;
                next.insert(t);
                total += rec(g, next, depth + 1);
            }
            total
        }
        rec(g, TableSet::EMPTY, 0)
    }

    fn query_with_preds(n: usize, preds: Vec<Expr>) -> Query {
        let tables = (0..n)
            .map(|i| TableBinding {
                alias: format!("t{i}"),
                table: Arc::new(
                    Table::new(
                        format!("t{i}"),
                        Schema::new([ColumnDef::new("id", ValueType::Int)]),
                        vec![Column::from_ints(vec![1])],
                    )
                    .unwrap(),
                ),
            })
            .collect();
        Query {
            tables,
            predicates: preds,
            select: vec![SelectItem::Expr {
                expr: Expr::col(0, 0),
                name: "id".into(),
            }],
            group_by: vec![],
            order_by: vec![],
            distinct: false,
            limit: None,
        }
    }

    fn chain(n: usize) -> Query {
        // t0-t1-t2-...-t(n-1)
        let preds = (0..n - 1)
            .map(|i| Expr::col(i, 0).eq(Expr::col(i + 1, 0)))
            .collect();
        query_with_preds(n, preds)
    }

    fn star(n: usize) -> Query {
        // t0 is the hub
        let preds = (1..n)
            .map(|i| Expr::col(0, 0).eq(Expr::col(i, 0)))
            .collect();
        query_with_preds(n, preds)
    }

    #[test]
    fn chain_adjacency() {
        let g = JoinGraph::from_query(&chain(4));
        assert_eq!(g.neighbors(0), TableSet::single(1));
        assert_eq!(g.neighbors(1), [0usize, 2].into_iter().collect());
        assert!(g.is_connected());
    }

    #[test]
    fn eligible_next_prefers_connected() {
        let g = JoinGraph::from_query(&chain(4));
        // chose t0 → only t1 eligible
        assert_eq!(g.eligible_next(TableSet::single(0)), TableSet::single(1));
        // chose {t0,t1} → only t2
        let chosen: TableSet = [0usize, 1].into_iter().collect();
        assert_eq!(g.eligible_next(chosen), TableSet::single(2));
        // empty prefix → all
        assert_eq!(g.eligible_next(TableSet::EMPTY), TableSet::all(4));
    }

    #[test]
    fn cartesian_fallback_when_disconnected() {
        // two disconnected components: t0-t1 and t2-t3
        let q = query_with_preds(
            4,
            vec![
                Expr::col(0, 0).eq(Expr::col(1, 0)),
                Expr::col(2, 0).eq(Expr::col(3, 0)),
            ],
        );
        let g = JoinGraph::from_query(&q);
        assert!(!g.is_connected());
        // after {t0,t1}, neither t2 nor t3 connects → both eligible
        let chosen: TableSet = [0usize, 1].into_iter().collect();
        let elig = g.eligible_next(chosen);
        assert_eq!(elig, [2usize, 3].into_iter().collect());
    }

    #[test]
    fn chain_order_count() {
        // Valid orders for a chain of n tables = 2^(n-1): each extension
        // adds to either end of the current interval.
        for n in 2..=6 {
            let g = JoinGraph::from_query(&chain(n));
            assert_eq!(count_valid_orders(&g), 1 << (n - 1), "chain n={n}");
        }
    }

    #[test]
    fn star_order_count() {
        // Star: first table is the hub (then (n-1)! orders for spokes) or
        // a spoke (hub must come second, then (n-2)! arrangements).
        // n=4: hub-first 3! = 6, spoke-first 3 * 2! = 6 → 12.
        let g = JoinGraph::from_query(&star(4));
        assert_eq!(count_valid_orders(&g), 12);
    }

    #[test]
    fn multiway_predicate_connects_all_its_tables() {
        // predicate over t0,t1,t2 at once
        let q = query_with_preds(
            3,
            vec![Expr::col(0, 0).add(Expr::col(1, 0)).eq(Expr::col(2, 0))],
        );
        let g = JoinGraph::from_query(&q);
        assert!(g.is_connected());
        assert_eq!(g.neighbors(0), [1usize, 2].into_iter().collect());
    }

    #[test]
    fn single_table_is_connected() {
        let g = JoinGraph::from_query(&query_with_preds(1, vec![]));
        assert!(g.is_connected());
        assert_eq!(g.eligible_next(TableSet::EMPTY), TableSet::single(0));
    }
}
