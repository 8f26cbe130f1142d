//! Textbook cardinality estimation (deliberately fallible).
//!
//! Selectivities follow the System-R playbook: `1/V(col)` for equality
//! with a constant, linear interpolation between min/max for ranges,
//! `1/max(V(a), V(b))` for equi-joins, magic constants for everything the
//! optimizer cannot see through (UDFs, LIKE, arbitrary expressions).
//! Conjuncts multiply — the *independence assumption*. On correlated or
//! UDF-laden data these estimates are off by orders of magnitude, which is
//! precisely the failure mode SkinnerDB is designed to survive (paper §1,
//! Figures 9/10).

use crate::stats::{StatsCatalog, TableStats};
use skinner_query::{BinOp, Expr, Query, TableId, TableSet};
use skinner_storage::Value;
use std::sync::Arc;

/// Default selectivity for predicates the estimator cannot analyze
/// (UDFs, arbitrary expressions) — the classic System R 1/3.
pub(crate) const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;
/// Default selectivity of a LIKE with a leading wildcard.
pub(crate) const LIKE_CONTAINS_SELECTIVITY: f64 = 0.25;
/// Default selectivity of an anchored LIKE.
pub(crate) const LIKE_PREFIX_SELECTIVITY: f64 = 0.1;
/// Default selectivity of `IS NULL`.
pub(crate) const IS_NULL_SELECTIVITY: f64 = 0.1;

/// Cardinality estimator for one query, backed by coarse statistics.
#[derive(Debug)]
pub struct Estimator {
    /// Estimated rows of each table after unary predicates.
    filtered: Vec<f64>,
    /// Join predicates with their table sets and estimated selectivities.
    join_preds: Vec<(TableSet, f64)>,
    /// Multiplicative corrections per table subset, learned by
    /// re-optimizing baselines from observed cardinalities.
    corrections: skinner_storage::FxHashMap<u64, f64>,
}

impl Estimator {
    /// Build an estimator for `query` (analyzes tables through `stats`).
    pub fn new(query: &Query, stats: &mut StatsCatalog) -> Estimator {
        let table_stats: Vec<Arc<TableStats>> =
            query.tables.iter().map(|b| stats.get(&b.table)).collect();
        let filtered = (0..query.num_tables())
            .map(|t| {
                let base = table_stats[t].rows as f64;
                let sel: f64 = query
                    .unary_predicates(t)
                    .map(|p| selectivity(p, &table_stats))
                    .product();
                (base * sel).max(1.0)
            })
            .collect();
        let join_preds = query
            .join_predicates()
            .map(|p| (p.tables(), selectivity(p, &table_stats)))
            .collect();
        Estimator {
            filtered,
            join_preds,
            corrections: Default::default(),
        }
    }

    /// Estimated post-filter cardinality of table `t`.
    pub(crate) fn filtered_card(&self, t: TableId) -> f64 {
        self.filtered[t]
    }

    /// Estimated cardinality of the join of the table set `s`: product of
    /// filtered cardinalities times the selectivities of all join
    /// predicates fully contained in `s`.
    pub fn subset_card(&self, s: TableSet) -> f64 {
        let mut card: f64 = s.iter().map(|t| self.filtered[t]).product();
        for (ts, sel) in &self.join_preds {
            if ts.is_subset_of(s) && ts.len() >= 2 {
                card *= sel;
            }
        }
        if let Some(&f) = self.corrections.get(&s.0) {
            card *= f;
        }
        card.max(1.0)
    }

    /// Override the filtered cardinality of one table (used by the
    /// adaptive engine after observing true cardinalities).
    pub(crate) fn set_filtered_card(&mut self, t: TableId, card: f64) {
        self.filtered[t] = card.max(1.0);
    }

    /// Register an observed cardinality for subset `s`: future
    /// [`Self::subset_card`] calls return values calibrated so that the
    /// subset estimates `observed` (Wu et al.'s sampling-based
    /// re-optimization applies exactly this kind of correction).
    pub fn correct_subset(&mut self, s: TableSet, observed: f64) {
        self.corrections.remove(&s.0);
        let estimated = self.subset_card(s);
        let factor = (observed.max(1.0)) / estimated.max(1e-9);
        self.corrections.insert(s.0, factor);
    }
}

/// Estimate the selectivity of one conjunct against base-table stats.
pub(crate) fn selectivity(pred: &Expr, stats: &[Arc<TableStats>]) -> f64 {
    estimate(pred, stats).clamp(1e-9, 1.0)
}

fn distinct_of(c: &skinner_query::ColRef, stats: &[Arc<TableStats>]) -> f64 {
    stats[c.table].cols[c.column].distinct.max(1) as f64
}

fn estimate(pred: &Expr, stats: &[Arc<TableStats>]) -> f64 {
    if pred.contains_udf() {
        return DEFAULT_SELECTIVITY;
    }
    match pred {
        Expr::Binary { op, left, right } => match op {
            BinOp::And => estimate(left, stats) * estimate(right, stats),
            BinOp::Or => {
                let a = estimate(left, stats);
                let b = estimate(right, stats);
                (a + b - a * b).min(1.0)
            }
            BinOp::Eq => match (left.as_ref(), right.as_ref()) {
                (Expr::Col(a), Expr::Col(b)) if a.table != b.table => {
                    1.0 / distinct_of(a, stats).max(distinct_of(b, stats))
                }
                (Expr::Col(c), Expr::Literal(_)) | (Expr::Literal(_), Expr::Col(c)) => {
                    1.0 / distinct_of(c, stats)
                }
                _ => DEFAULT_SELECTIVITY,
            },
            BinOp::Ne => {
                let eq = Expr::Binary {
                    op: BinOp::Eq,
                    left: left.clone(),
                    right: right.clone(),
                };
                1.0 - estimate(&eq, stats)
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                range_selectivity(*op, left, right, stats)
            }
            _ => DEFAULT_SELECTIVITY,
        },
        Expr::Unary {
            op: skinner_query::UnOp::Not,
            expr,
        } => 1.0 - estimate(expr, stats),
        Expr::InList { expr, list } => {
            if let Expr::Col(c) = expr.as_ref() {
                (list.len() as f64 / distinct_of(c, stats)).min(1.0)
            } else {
                DEFAULT_SELECTIVITY
            }
        }
        Expr::Like {
            pattern, negated, ..
        } => {
            let s = if pattern.starts_with('%') {
                LIKE_CONTAINS_SELECTIVITY
            } else {
                LIKE_PREFIX_SELECTIVITY
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::IsNull { negated, expr } => {
            let s = if let Expr::Col(c) = expr.as_ref() {
                let cs = &stats[c.table].cols[c.column];
                let rows = stats[c.table].rows.max(1) as f64;
                (cs.nulls as f64 / rows).clamp(0.0, 1.0)
            } else {
                IS_NULL_SELECTIVITY
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

fn range_selectivity(op: BinOp, left: &Expr, right: &Expr, stats: &[Arc<TableStats>]) -> f64 {
    // col <op> const (or flipped): interpolate within [min, max].
    let (col, lit, op) = match (left, right) {
        (Expr::Col(c), Expr::Literal(v)) => (c, v, op),
        (Expr::Literal(v), Expr::Col(c)) => (
            c,
            v,
            match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                o => o,
            },
        ),
        _ => return DEFAULT_SELECTIVITY,
    };
    let cs = &stats[col.table].cols[col.column];
    let (min, max, k) = match (cs.min, cs.max, lit_num(lit)) {
        (Some(mn), Some(mx), Some(k)) if mx > mn => (mn, mx, k),
        _ => return DEFAULT_SELECTIVITY,
    };
    let frac_below = ((k - min) / (max - min)).clamp(0.0, 1.0);
    match op {
        BinOp::Lt | BinOp::Le => frac_below,
        BinOp::Gt | BinOp::Ge => 1.0 - frac_below,
        _ => DEFAULT_SELECTIVITY,
    }
}

fn lit_num(v: &Value) -> Option<f64> {
    v.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{QueryBuilder, SelectItem};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn setup() -> (Catalog, StatsCatalog) {
        let mut cat = Catalog::new();
        // 100 rows, a uniform 0..10, b uniform 0..100
        let a: Vec<i64> = (0..100).map(|i| i % 10).collect();
        let b: Vec<i64> = (0..100).collect();
        cat.register(
            Table::new(
                "t",
                Schema::new([
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::new("b", ValueType::Int),
                ]),
                vec![Column::from_ints(a), Column::from_ints(b)],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "u",
                Schema::new([ColumnDef::new("a", ValueType::Int)]),
                vec![Column::from_ints((0..50).map(|i| i % 5).collect())],
            )
            .unwrap(),
        );
        let stats = StatsCatalog::new();
        (cat, stats)
    }

    fn query(cat: &Catalog, preds: &[&str]) -> Query {
        let mut b = QueryBuilder::new(cat);
        b.table("t").unwrap();
        b.table("u").unwrap();
        for p in preds {
            match *p {
                "eq" => {
                    let e = b.col("t.a").unwrap().eq(b.col("u.a").unwrap());
                    b.filter(e);
                }
                "t.a=3" => {
                    let e = b.col("t.a").unwrap().eq(Expr::lit(3));
                    b.filter(e);
                }
                "t.b<50" => {
                    let e = b.col("t.b").unwrap().lt(Expr::lit(50));
                    b.filter(e);
                }
                other => panic!("unknown pred {other}"),
            }
        }
        b.select_expr(Expr::col(0, 0), "a");
        b.build().unwrap()
    }

    #[test]
    fn equality_selectivity_uses_distinct() {
        let (cat, mut stats) = setup();
        let q = query(&cat, &["t.a=3"]);
        let est = Estimator::new(&q, &mut stats);
        // V(t.a)=10 → 100/10 = 10 rows
        assert!((est.filtered_card(0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let (cat, mut stats) = setup();
        let q = query(&cat, &["t.b<50"]);
        let est = Estimator::new(&q, &mut stats);
        // b in [0,99], k=50 → ~50%
        let card = est.filtered_card(0);
        assert!((45.0..=56.0).contains(&card), "card={card}");
    }

    #[test]
    fn join_selectivity_max_distinct() {
        let (cat, mut stats) = setup();
        let q = query(&cat, &["eq"]);
        let est = Estimator::new(&q, &mut stats);
        let s: TableSet = [0usize, 1].into_iter().collect();
        // 100 * 50 / max(10,5) = 500
        assert!((est.subset_card(s) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn udf_gets_default_selectivity() {
        let (cat, mut stats) = setup();
        let udf = skinner_query::Udf::new("opaque", |_| Value::Int(1));
        let mut b = QueryBuilder::new(&cat);
        b.table("t").unwrap();
        let arg = b.col("t.a").unwrap();
        b.filter(Expr::Udf {
            udf,
            args: vec![arg],
        });
        b.select_expr(Expr::col(0, 0), "a");
        let q = b.build().unwrap();
        let est = Estimator::new(&q, &mut stats);
        assert!((est.filtered_card(0) - 100.0 * DEFAULT_SELECTIVITY).abs() < 1e-6);
    }

    #[test]
    fn correlated_conjuncts_underestimate() {
        // Two perfectly correlated predicates: independence multiplies
        // selectivities, underestimating the true cardinality — the
        // documented failure mode.
        let mut cat = Catalog::new();
        let a: Vec<i64> = (0..1000).map(|i| i % 10).collect();
        let b = a.clone(); // perfectly correlated
        cat.register(
            Table::new(
                "c",
                Schema::new([
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::new("b", ValueType::Int),
                ]),
                vec![Column::from_ints(a), Column::from_ints(b)],
            )
            .unwrap(),
        );
        let mut stats = StatsCatalog::new();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("c").unwrap();
        let pa = qb.col("c.a").unwrap().eq(Expr::lit(3));
        let pb = qb.col("c.b").unwrap().eq(Expr::lit(3));
        qb.filter(pa);
        qb.filter(pb);
        qb.select_expr(Expr::col(0, 0), "a");
        let q = qb.build().unwrap();
        let est = Estimator::new(&q, &mut stats);
        // True: 100 rows. Estimate: 1000 * 1/10 * 1/10 = 10 → 10x off.
        assert!((est.filtered_card(0) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn select_items_do_not_affect_estimates() {
        let (cat, mut stats) = setup();
        let mut q = query(&cat, &["eq"]);
        q.select.push(SelectItem::Expr {
            expr: Expr::col(1, 0),
            name: "x".into(),
        });
        let est = Estimator::new(&q, &mut stats);
        assert!(est.filtered_card(0) > 0.0);
    }
}
