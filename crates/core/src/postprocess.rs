//! Post-processing: projection, aggregation, grouping, sorting (§3).
//!
//! [`postprocess`] materializes the SELECT list on top of distinct join
//! tuples (base row ids per table): plain expression projection,
//! aggregates (COUNT/SUM/MIN/MAX/AVG) with optional GROUP BY, DISTINCT,
//! ORDER BY, LIMIT — covering every query shape in the paper's
//! benchmarks (JOB uses MIN aggregates, TPC-H adds grouping and
//! ordering). Skinner-G/H and the plain engines always hand it their
//! distinct tuples; Skinner-C does too, except for a global MIN/MAX
//! ([`Query::folds_into_min_max`]), which [`MinMaxFold`](crate::MinMaxFold)
//! folds while the join runs with the same accumulators and the same
//! DISTINCT/ORDER BY/LIMIT tail.

use crate::result::ResultTable;
use skinner_query::{Agg, AggFunc, Query, SelectItem, TupleContext};
use skinner_storage::table::TableRef;
use skinner_storage::{FxHashMap, RowId, Value};
use std::cmp::Ordering;

/// Hashable normalization of a `Value` for grouping and DISTINCT.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
    Date(i64),
    Interval(i64),
}

fn key_of(v: &Value) -> Key {
    match v {
        Value::Null => Key::Null,
        Value::Int(i) => Key::Int(*i),
        // Distinct variants: DATE '1970-01-06' must not group with the
        // integer 5 (Value's own equality keeps them apart too).
        Value::Date(d) => Key::Date(*d),
        Value::Interval(d) => Key::Interval(*d),
        // Normalize -0.0/0.0 and NaN payloads.
        Value::Float(f) => {
            if *f == 0.0 {
                Key::Float(0)
            } else if f.is_nan() {
                Key::Float(u64::MAX)
            } else {
                Key::Float(f.to_bits())
            }
        }
        Value::Str(s) => Key::Str(s.to_string()),
    }
}

/// `x` against `y` for MIN/MAX: [`Value::sql_cmp`], except that NaN
/// sorts above every number and equals itself (PostgreSQL's order), so
/// an extremum does not depend on the order rows arrive in.
fn min_max_cmp(x: &Value, y: &Value) -> Option<Ordering> {
    x.sql_cmp(y).or_else(|| {
        let number = |v: &Value| matches!(v, Value::Int(_) | Value::Float(_));
        let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
        (number(x) && number(y)).then(|| nan(x).cmp(&nan(y)))
    })
}

/// Aggregate accumulator.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(u64),
    SumFloat(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg(f64, u64),
}

impl Acc {
    pub(crate) fn new(agg: &Agg) -> Acc {
        match agg.func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::SumFloat(0.0, false),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(0.0, 0),
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) {
        match self {
            Acc::Count(n) => {
                // COUNT(*) counts rows; COUNT(expr) counts non-NULL.
                match v {
                    None => *n += 1,
                    Some(x) if !x.is_null() => *n += 1,
                    _ => {}
                }
            }
            Acc::SumFloat(s, seen) => {
                if let Some(x) = v {
                    if let Some(f) = x.as_f64() {
                        *s += f;
                        *seen = true;
                    }
                }
            }
            Acc::Min(cur) => {
                if let Some(x) = v {
                    if !x.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| min_max_cmp(x, c) == Some(Ordering::Less))
                    {
                        *cur = Some(x.clone());
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(x) = v {
                    if !x.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| min_max_cmp(x, c) == Some(Ordering::Greater))
                    {
                        *cur = Some(x.clone());
                    }
                }
            }
            Acc::Avg(s, n) => {
                if let Some(x) = v {
                    if let Some(f) = x.as_f64() {
                        *s += f;
                        *n += 1;
                    }
                }
            }
        }
    }

    pub(crate) fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n as i64),
            Acc::SumFloat(s, seen) => {
                if *seen {
                    // Integral sums display as integers.
                    if s.fract() == 0.0 && s.abs() < 9e15 {
                        Value::Int(*s as i64)
                    } else {
                        Value::Float(*s)
                    }
                } else {
                    Value::Null
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Avg(s, n) => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(s / *n as f64)
                }
            }
        }
    }
}

/// Materialize the final result from distinct join tuples.
///
/// `tuples` is flat row-major with stride `query.num_tables()`; each slot
/// holds a base row id of the corresponding FROM table.
pub fn postprocess(query: &Query, tuples: &[RowId]) -> ResultTable {
    let tables: Vec<TableRef> = query.tables.iter().map(|b| b.table.clone()).collect();
    let m = query.num_tables().max(1);
    let grouped = query.has_aggregates() || !query.group_by.is_empty();

    let rows: Vec<Vec<Value>> = if grouped {
        aggregate_rows(query, tuples, &tables, m)
    } else {
        tuples
            .chunks_exact(m)
            .map(|tup| project_tuple(query, tup, &tables))
            .collect()
    };
    finish_rows(query, rows)
}

/// Apply DISTINCT, ORDER BY and LIMIT to the output rows and name the
/// columns.
pub(crate) fn finish_rows(query: &Query, mut rows: Vec<Vec<Value>>) -> ResultTable {
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    if query.distinct {
        let mut seen: FxHashMap<Vec<Key>, ()> = FxHashMap::default();
        rows.retain(|row| {
            let k: Vec<Key> = row.iter().map(key_of).collect();
            seen.insert(k, ()).is_none()
        });
    }

    if !query.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for k in &query.order_by {
                let (x, y) = (&a[k.output], &b[k.output]);
                // NULLs last regardless of direction.
                let ord = match (x.is_null(), y.is_null()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => {
                        let o = x.sql_cmp(y).unwrap_or(Ordering::Equal);
                        if k.asc {
                            o
                        } else {
                            o.reverse()
                        }
                    }
                };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }

    ResultTable { columns, rows }
}

/// Project one join tuple (base row ids in FROM order) into an output
/// row of the SELECT list. Only valid for non-aggregated queries — the
/// building block of both full materialization and streaming delivery
/// (`skinner-service` projects tuples one at a time through this when a
/// consumer stops early).
pub fn project_tuple(query: &Query, tup: &[RowId], tables: &[TableRef]) -> Vec<Value> {
    let ctx = TupleContext { rows: tup, tables };
    query
        .select
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, .. } => expr.eval(&ctx),
            SelectItem::Agg { .. } => unreachable!("aggregates go through grouping"),
        })
        .collect()
}

fn aggregate_rows(
    query: &Query,
    tuples: &[RowId],
    tables: &[TableRef],
    m: usize,
) -> Vec<Vec<Value>> {
    // group key → (representative tuple context values for plain exprs,
    // accumulators)
    struct Group {
        first_row: Vec<Value>,
        accs: Vec<Acc>,
    }
    let agg_items: Vec<&Agg> = query
        .select
        .iter()
        .filter_map(|s| match s {
            SelectItem::Agg { agg, .. } => Some(agg),
            _ => None,
        })
        .collect();

    let mut groups: FxHashMap<Vec<Key>, Group> = FxHashMap::default();
    let mut group_order: Vec<Vec<Key>> = Vec::new();

    for tup in tuples.chunks_exact(m) {
        let ctx = TupleContext { rows: tup, tables };
        let gk: Vec<Key> = query
            .group_by
            .iter()
            .map(|e| key_of(&e.eval(&ctx)))
            .collect();
        let group = groups.entry(gk.clone()).or_insert_with(|| {
            group_order.push(gk);
            Group {
                first_row: query
                    .select
                    .iter()
                    .map(|item| match item {
                        SelectItem::Expr { expr, .. } => expr.eval(&ctx),
                        SelectItem::Agg { .. } => Value::Null, // placeholder
                    })
                    .collect(),
                accs: agg_items.iter().map(|a| Acc::new(a)).collect(),
            }
        });
        for (acc, agg) in group.accs.iter_mut().zip(&agg_items) {
            match &agg.arg {
                Some(e) => acc.update(Some(&e.eval(&ctx))),
                None => acc.update(None),
            }
        }
    }

    // Global aggregate over empty input still yields one row.
    if groups.is_empty() && query.group_by.is_empty() && query.has_aggregates() {
        let accs: Vec<Acc> = agg_items.iter().map(|a| Acc::new(a)).collect();
        let mut row = Vec::with_capacity(query.select.len());
        let mut ai = 0;
        for item in &query.select {
            match item {
                SelectItem::Expr { .. } => row.push(Value::Null),
                SelectItem::Agg { .. } => {
                    row.push(accs[ai].finish());
                    ai += 1;
                }
            }
        }
        return vec![row];
    }

    group_order
        .into_iter()
        .map(|gk| {
            let g = &groups[&gk];
            let mut row = Vec::with_capacity(query.select.len());
            let mut ai = 0;
            for (i, item) in query.select.iter().enumerate() {
                match item {
                    SelectItem::Expr { .. } => row.push(g.first_row[i].clone()),
                    SelectItem::Agg { .. } => {
                        row.push(g.accs[ai].finish());
                        ai += 1;
                    }
                }
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{AggFunc, Expr, QueryBuilder};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "sales",
                Schema::new([
                    ColumnDef::new("region", ValueType::Str),
                    ColumnDef::new("amount", ValueType::Int),
                ]),
                vec![
                    Column::from_strs(["east", "west", "east", "west", "east"]),
                    Column::from_ints(vec![10, 20, 30, 40, 50]),
                ],
            )
            .unwrap(),
        );
        cat
    }

    /// Join tuples = all 5 rows of the single table.
    fn all_tuples() -> Vec<RowId> {
        vec![0, 1, 2, 3, 4]
    }

    #[test]
    fn plain_projection() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("sales").unwrap();
        let amt = qb.col("sales.amount").unwrap();
        qb.select_expr(amt.clone().mul(Expr::lit(2)), "double");
        let q = qb.build().unwrap();
        let t = postprocess(&q, &all_tuples());
        assert_eq!(t.columns, vec!["double"]);
        assert_eq!(t.rows[0], vec![Value::Int(20)]);
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn group_by_with_aggregates() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("sales").unwrap();
        let region = qb.col("sales.region").unwrap();
        let amount = qb.col("sales.amount").unwrap();
        qb.select_expr(region.clone(), "region");
        qb.select_agg(AggFunc::Sum, Some(amount.clone()), "total");
        qb.select_agg(AggFunc::Count, None, "n");
        qb.select_agg(AggFunc::Avg, Some(amount.clone()), "avg");
        qb.select_agg(AggFunc::Min, Some(amount.clone()), "lo");
        qb.select_agg(AggFunc::Max, Some(amount), "hi");
        qb.group_by(region);
        qb.order_by("region", true);
        let q = qb.build().unwrap();
        let t = postprocess(&q, &all_tuples());
        assert_eq!(t.num_rows(), 2);
        // east: 10+30+50=90, n=3, avg=30, min=10, max=50
        assert_eq!(
            t.rows[0],
            vec![
                Value::str("east"),
                Value::Int(90),
                Value::Int(3),
                Value::Float(30.0),
                Value::Int(10),
                Value::Int(50)
            ]
        );
        assert_eq!(t.rows[1][1], Value::Int(60));
    }

    #[test]
    fn global_aggregate_empty_input() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("sales").unwrap();
        let amount = qb.col("sales.amount").unwrap();
        qb.select_agg(AggFunc::Count, None, "n");
        qb.select_agg(AggFunc::Sum, Some(amount), "total");
        let q = qb.build().unwrap();
        let t = postprocess(&q, &[]);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.rows[0], vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn distinct_and_limit() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("sales").unwrap();
        qb.select_col("sales.region").unwrap();
        qb.distinct();
        let q = qb.build().unwrap();
        let t = postprocess(&q, &all_tuples());
        assert_eq!(t.num_rows(), 2);

        let mut qb = QueryBuilder::new(&cat);
        qb.table("sales").unwrap();
        qb.select_col("sales.amount").unwrap();
        qb.limit(3);
        let q = qb.build().unwrap();
        let t = postprocess(&q, &all_tuples());
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn order_by_desc_with_nulls_last() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("sales").unwrap();
        qb.select_col("sales.amount").unwrap();
        qb.order_by("amount", false);
        let q = qb.build().unwrap();
        let t = postprocess(&q, &all_tuples());
        let vals: Vec<i64> = t.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![50, 40, 30, 20, 10]);
    }

    #[test]
    fn count_expr_skips_nulls() {
        let mut cat = Catalog::new();
        let mut b = skinner_storage::column::ColumnBuilder::new(ValueType::Int);
        b.push(&Value::Int(1));
        b.push(&Value::Null);
        b.push(&Value::Int(3));
        cat.register(
            Table::new(
                "t",
                Schema::new([ColumnDef::new("x", ValueType::Int)]),
                vec![b.finish()],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("t").unwrap();
        let x = qb.col("t.x").unwrap();
        qb.select_agg(AggFunc::Count, Some(x), "n");
        let q = qb.build().unwrap();
        let t = postprocess(&q, &[0, 1, 2]);
        assert_eq!(t.rows[0], vec![Value::Int(2)]);
    }
}
