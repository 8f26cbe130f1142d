//! The join-order search space (paper §4.2).

use crate::tree::SearchSpace;
use skinner_query::{JoinGraph, Query, TableId, TableSet};

/// Search space over left-deep join orders of a query, avoiding Cartesian
/// products unless unavoidable (the §4.2 rule, delegated to
/// [`JoinGraph::eligible_next`]).
#[derive(Debug, Clone)]
pub struct JoinOrderSpace {
    graph: JoinGraph,
    num_tables: usize,
}

impl JoinOrderSpace {
    /// Build the space for `query`.
    pub fn new(query: &Query) -> JoinOrderSpace {
        JoinOrderSpace {
            graph: JoinGraph::from_query(query),
            num_tables: query.num_tables(),
        }
    }

    /// The underlying join graph.
    pub fn graph(&self) -> &JoinGraph {
        &self.graph
    }

    /// Is `order` a valid complete join order in this space?
    pub fn is_valid_order(&self, order: &[TableId]) -> bool {
        if order.len() != self.num_tables {
            return false;
        }
        let mut chosen = TableSet::EMPTY;
        for &t in order {
            if t >= self.num_tables || chosen.contains(t) {
                return false;
            }
            if !self.graph.eligible_next(chosen).contains(t) {
                return false;
            }
            chosen.insert(t);
        }
        true
    }
}

impl SearchSpace for JoinOrderSpace {
    type Action = TableId;

    fn actions(&self, path: &[TableId]) -> Vec<TableId> {
        let chosen: TableSet = path.iter().copied().collect();
        self.graph.eligible_next(chosen).iter().collect()
    }

    fn depth(&self) -> usize {
        self.num_tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{UctConfig, UctTree};
    use skinner_query::{Expr, Query, SelectItem, TableBinding};
    use skinner_storage::{Column, ColumnDef, Schema, Table, ValueType};
    use std::sync::Arc;

    fn chain_query(n: usize) -> Query {
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
        let predicates = (0..n - 1)
            .map(|i| Expr::col(i, 0).eq(Expr::col(i + 1, 0)))
            .collect();
        Query {
            tables,
            predicates,
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

    #[test]
    fn actions_follow_join_graph() {
        let space = JoinOrderSpace::new(&chain_query(4));
        assert_eq!(space.depth(), 4);
        assert_eq!(space.actions(&[]), vec![0, 1, 2, 3]);
        assert_eq!(space.actions(&[0]), vec![1]);
        assert_eq!(space.actions(&[1]), vec![0, 2]);
        assert_eq!(space.actions(&[1, 2]), vec![0, 3]);
    }

    #[test]
    fn validity_check() {
        let space = JoinOrderSpace::new(&chain_query(4));
        assert!(space.is_valid_order(&[0, 1, 2, 3]));
        assert!(space.is_valid_order(&[2, 1, 0, 3]));
        assert!(!space.is_valid_order(&[0, 2, 1, 3])); // 0→2 is a Cartesian jump
        assert!(!space.is_valid_order(&[0, 1, 2])); // incomplete
        assert!(!space.is_valid_order(&[0, 0, 1, 2])); // repeat
    }

    #[test]
    fn uct_over_join_space_yields_valid_orders() {
        let space = JoinOrderSpace::new(&chain_query(5));
        let check = space.clone();
        let mut tree = UctTree::new(space, UctConfig::default());
        for _ in 0..200 {
            let order = tree.choose();
            assert!(check.is_valid_order(&order), "invalid {order:?}");
            // Reward join orders starting at the chain's left end.
            let r = if order[0] == 0 { 1.0 } else { 0.2 };
            tree.update(&order, r);
        }
        assert_eq!(tree.best_path()[0], 0);
    }
}
