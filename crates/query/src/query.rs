//! Resolved SPJ(+aggregation) queries.

use crate::expr::{Expr, TableSet};
use crate::TableId;
use skinner_storage::table::TableRef;

/// One entry of the FROM list: a catalog table bound to an alias.
#[derive(Debug, Clone)]
pub struct TableBinding {
    /// Alias used in expressions (defaults to the table name).
    pub alias: String,
    /// The bound table.
    pub table: TableRef,
}

/// Aggregate functions supported by the post-processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

/// An aggregate call.
#[derive(Debug, Clone)]
pub struct Agg {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument; `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
}

/// One output column of the SELECT clause.
#[derive(Debug, Clone)]
pub enum SelectItem {
    /// Plain expression output.
    Expr {
        /// The expression.
        expr: Expr,
        /// Output column name.
        name: String,
    },
    /// Aggregate output.
    Agg {
        /// The aggregate.
        agg: Agg,
        /// Output column name.
        name: String,
    },
}

impl SelectItem {
    /// Output column name.
    pub fn name(&self) -> &str {
        match self {
            SelectItem::Expr { name, .. } | SelectItem::Agg { name, .. } => name,
        }
    }

    /// True if this item is an aggregate.
    pub fn is_agg(&self) -> bool {
        matches!(self, SelectItem::Agg { .. })
    }
}

/// ORDER BY key: output column plus direction.
#[derive(Debug, Clone)]
pub struct OrderKey {
    /// Index into the SELECT list.
    pub output: usize,
    /// Ascending?
    pub asc: bool,
}

/// One composite-key group as returned by
/// [`Query::composite_key_groups`]: the connected table pair (`a < b`)
/// and the distinct paired `(a-column, b-column)` component pairs in
/// canonical ascending order.
pub type CompositeGroup = ((TableId, TableId), Vec<(usize, usize)>);

/// A fully resolved query: SPJ core plus post-processing clauses.
///
/// `predicates` is the conjunctive normal form of the WHERE clause — each
/// element must hold. Conjuncts referencing a single table are *unary*
/// (applied by the pre-processor); conjuncts referencing two or more are
/// *join predicates* (applied during join processing). This is exactly the
/// split §3 of the paper describes.
#[derive(Debug, Clone)]
pub struct Query {
    /// FROM list; expression [`ColRef`](crate::ColRef)s index into it.
    pub tables: Vec<TableBinding>,
    /// WHERE conjuncts.
    pub predicates: Vec<Expr>,
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// GROUP BY expressions (empty = no grouping; aggregates over the
    /// whole result if any aggregate appears in SELECT).
    pub group_by: Vec<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// DISTINCT flag.
    pub distinct: bool,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

impl Query {
    /// Number of joined tables `m`.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Unary WHERE conjuncts that reference exactly the single table `t`
    /// (applied during pre-processing).
    pub fn unary_predicates(&self, t: TableId) -> impl Iterator<Item = &Expr> {
        let single = TableSet::single(t);
        self.predicates.iter().filter(move |p| p.tables() == single)
    }

    /// WHERE conjuncts referencing ≥ 2 tables (applied during join
    /// processing).
    pub fn join_predicates(&self) -> impl Iterator<Item = &Expr> {
        self.predicates.iter().filter(|p| p.tables().len() >= 2)
    }

    /// Equi-join column pairs among the join predicates (the columns the
    /// pre-processor builds hash indexes on, §4.5).
    pub fn equi_join_pairs(&self) -> Vec<(crate::ColRef, crate::ColRef)> {
        self.join_predicates()
            .filter_map(Expr::as_equi_join)
            .collect()
    }

    /// Composite (multi-column) equi-join key groups: for every pair of
    /// tables connected by **two or more** single-column equality
    /// conjuncts, the paired component columns in canonical order.
    ///
    /// Each entry is `((a, b), pairs)` with `a < b` (table ids) and
    /// `pairs` the distinct `(a-column, b-column)` pairs sorted
    /// ascending — the order both sides must fuse their components in
    /// for composite hash keys to agree (see
    /// [`fused_join_key`](skinner_storage::fused_join_key)). Groups are
    /// returned sorted by table pair, so the result is deterministic
    /// regardless of conjunct order in the WHERE clause.
    pub fn composite_key_groups(&self) -> Vec<CompositeGroup> {
        let mut groups: std::collections::BTreeMap<(TableId, TableId), Vec<(usize, usize)>> =
            std::collections::BTreeMap::new();
        for (ca, cb) in self.equi_join_pairs() {
            let ((ta, cola), (tb, colb)) = if ca.table < cb.table {
                ((ca.table, ca.column), (cb.table, cb.column))
            } else {
                ((cb.table, cb.column), (ca.table, ca.column))
            };
            debug_assert_ne!(ta, tb);
            groups.entry((ta, tb)).or_default().push((cola, colb));
        }
        groups
            .into_iter()
            .filter_map(|(tables, mut pairs)| {
                pairs.sort_unstable();
                pairs.dedup();
                (pairs.len() >= 2).then_some((tables, pairs))
            })
            .collect()
    }

    /// True if any aggregate appears in the SELECT list.
    pub fn has_aggregates(&self) -> bool {
        self.select.iter().any(SelectItem::is_agg)
    }

    /// True iff the query is a global MIN/MAX: a non-empty SELECT list of
    /// only `MIN`/`MAX` aggregates and no GROUP BY.
    ///
    /// Folding a join tuple into a MIN or a MAX twice gives the same
    /// answer as folding it once, so such a query can fold tuples as the
    /// join emits them — duplicates from join-order switches included —
    /// without deduplicating them first. DISTINCT, ORDER BY and LIMIT act
    /// on the single output row and do not change this.
    pub fn folds_into_min_max(&self) -> bool {
        !self.select.is_empty()
            && self.group_by.is_empty()
            && self.select.iter().all(|item| {
                matches!(
                    item,
                    SelectItem::Agg {
                        agg: Agg {
                            func: AggFunc::Min | AggFunc::Max,
                            ..
                        },
                        ..
                    }
                )
            })
    }

    /// The LIMIT that can be pushed into the join phase, if any.
    ///
    /// Each distinct join tuple maps to exactly one output row iff the
    /// query has no aggregates, no GROUP BY (both collapse tuples), no
    /// ORDER BY (any `n` tuples are a valid LIMIT prefix only when the
    /// output order is unconstrained), and no DISTINCT (projection may
    /// collapse distinct join tuples into equal rows). Under those
    /// conditions the join phase may stop as soon as `limit` distinct
    /// tuples exist instead of materializing the full result.
    pub fn join_limit(&self) -> Option<u64> {
        match self.limit {
            Some(n)
                if !self.has_aggregates()
                    && self.group_by.is_empty()
                    && self.order_by.is_empty()
                    && !self.distinct =>
            {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// Structural validation (arity limits, column references in range).
    pub fn validate(&self) -> Result<(), crate::QueryError> {
        use crate::QueryError;
        if self.tables.is_empty() {
            return Err(QueryError::Invalid("query joins zero tables".into()));
        }
        if self.tables.len() > 64 {
            return Err(QueryError::Invalid(format!(
                "query joins {} tables; at most 64 supported",
                self.tables.len()
            )));
        }
        let mut refs = Vec::new();
        for p in &self.predicates {
            p.col_refs(&mut refs);
        }
        for item in &self.select {
            match item {
                SelectItem::Expr { expr, .. } => expr.col_refs(&mut refs),
                SelectItem::Agg { agg, .. } => {
                    if let Some(a) = &agg.arg {
                        a.col_refs(&mut refs);
                    }
                }
            }
        }
        for g in &self.group_by {
            g.col_refs(&mut refs);
        }
        for r in refs {
            let binding = self
                .tables
                .get(r.table)
                .ok_or_else(|| QueryError::Invalid(format!("column ref to table #{}", r.table)))?;
            if r.column >= binding.table.schema().len() {
                return Err(QueryError::Invalid(format!(
                    "column ref {}.#{} out of range",
                    binding.alias, r.column
                )));
            }
        }
        for k in &self.order_by {
            if k.output >= self.select.len() {
                return Err(QueryError::Invalid(format!(
                    "ORDER BY position {} out of range",
                    k.output + 1
                )));
            }
        }
        Ok(())
    }

    /// A one-line human-readable sketch (alias list + predicate count),
    /// used in experiment logs.
    pub fn sketch(&self) -> String {
        let aliases: Vec<&str> = self.tables.iter().map(|t| t.alias.as_str()).collect();
        format!(
            "[{} tables: {}; {} predicates ({} joins)]",
            self.tables.len(),
            aliases.join(","),
            self.predicates.len(),
            self.join_predicates().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use skinner_storage::{Column, ColumnDef, Schema, Table, ValueType};
    use std::sync::Arc;

    fn table(name: &str) -> TableRef {
        Arc::new(
            Table::new(
                name,
                Schema::new([
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 3]),
                    Column::from_ints(vec![10, 20, 30]),
                ],
            )
            .unwrap(),
        )
    }

    fn two_table_query() -> Query {
        Query {
            tables: vec![
                TableBinding {
                    alias: "a".into(),
                    table: table("ta"),
                },
                TableBinding {
                    alias: "b".into(),
                    table: table("tb"),
                },
            ],
            predicates: vec![
                Expr::col(0, 0).eq(Expr::col(1, 0)),
                Expr::col(0, 1).gt(Expr::lit(5)),
            ],
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
    fn predicate_classification() {
        let q = two_table_query();
        assert_eq!(q.unary_predicates(0).count(), 1);
        assert_eq!(q.unary_predicates(1).count(), 0);
        assert_eq!(q.join_predicates().count(), 1);
        assert_eq!(q.equi_join_pairs().len(), 1);
    }

    #[test]
    fn composite_groups_detected_and_canonical() {
        let mut q = two_table_query();
        assert!(
            q.composite_key_groups().is_empty(),
            "one conjunct: no group"
        );
        // Add a second equality on the same pair, written in the
        // opposite table order — the group must still come out with
        // table 0 first and pairs sorted.
        q.predicates.push(Expr::col(1, 1).eq(Expr::col(0, 1)));
        let groups = q.composite_key_groups();
        assert_eq!(groups, vec![((0, 1), vec![(0, 0), (1, 1)])]);
        // Duplicate conjuncts collapse; a group needs two *distinct*
        // column pairs.
        let mut dup = two_table_query();
        dup.predicates.push(Expr::col(0, 0).eq(Expr::col(1, 0)));
        assert!(dup.composite_key_groups().is_empty());
    }

    #[test]
    fn validation_catches_bad_refs() {
        let mut q = two_table_query();
        assert!(q.validate().is_ok());
        q.predicates.push(Expr::col(7, 0).gt(Expr::lit(1)));
        assert!(q.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_order_by() {
        let mut q = two_table_query();
        q.order_by.push(OrderKey {
            output: 3,
            asc: true,
        });
        assert!(q.validate().is_err());
    }

    #[test]
    fn aggregates_flag() {
        let mut q = two_table_query();
        assert!(!q.has_aggregates());
        q.select.push(SelectItem::Agg {
            agg: Agg {
                func: AggFunc::Count,
                arg: None,
            },
            name: "n".into(),
        });
        assert!(q.has_aggregates());
    }

    #[test]
    fn min_max_fold_classification() {
        let agg = |func| SelectItem::Agg {
            agg: Agg {
                func,
                arg: Some(Expr::col(0, 1)),
            },
            name: "x".into(),
        };
        let mut q = two_table_query();
        q.select = vec![agg(AggFunc::Min), agg(AggFunc::Max)];
        assert!(q.folds_into_min_max());
        // DISTINCT, ORDER BY and LIMIT act on the one output row.
        q.distinct = true;
        q.order_by.push(OrderKey {
            output: 0,
            asc: false,
        });
        q.limit = Some(0);
        assert!(q.folds_into_min_max());
        // A duplicate-sensitive aggregate, a plain expression, grouping
        // or an empty SELECT list each need distinct tuples.
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
            q.select = vec![agg(AggFunc::Min), agg(func)];
            assert!(!q.folds_into_min_max(), "{func:?}");
        }
        q.select = two_table_query().select;
        assert!(!q.folds_into_min_max());
        q.select = vec![agg(AggFunc::Max)];
        q.group_by.push(Expr::col(0, 0));
        assert!(!q.folds_into_min_max());
        q.group_by.clear();
        q.select.clear();
        assert!(!q.folds_into_min_max());
    }
}
