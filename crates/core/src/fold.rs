//! A global MIN/MAX folded while the join runs.
//!
//! A query whose SELECT list is only MIN/MAX aggregates with no GROUP BY
//! ([`Query::folds_into_min_max`]) sees the join result only through
//! those aggregates, and folding a tuple into a MIN or a MAX a second
//! time changes nothing. So Skinner-C folds every tuple the kernel emits
//! — re-emissions after join-order switches included — straight into
//! [`MinMaxFold`], with no tuple arena, no dedup table and no
//! post-processing pass over stored tuples.

use crate::postprocess::{finish_rows, Acc};
use crate::result::ResultTable;
use skinner_engine::{Collector, ResultSink};
use skinner_query::{AggFunc, Expr, Query, SelectItem, TableId, TupleContext};
use skinner_storage::table::TableRef;
use skinner_storage::{Column, RowId, Value, ValueType};

/// One MIN or MAX of the SELECT list.
enum Slot<'q> {
    /// A bare column of an i64-backed type (Int, Date, Interval): plain
    /// `i64` comparisons on the column slice, NULL rows skipped.
    Column {
        table: TableId,
        column: &'q Column,
        values: &'q [i64],
        max: bool,
        best: Option<i64>,
        /// The column type's `Value` constructor.
        wrap: fn(i64) -> Value,
    },
    /// Any other argument (Float and Str columns, expressions): evaluated
    /// per tuple and folded by the post-processor's accumulator. `None`
    /// only for an argument-less MIN/MAX, which stays NULL.
    Eval { expr: Option<&'q Expr>, acc: Acc },
}

/// The result sink of a global MIN/MAX query: folds each emitted join
/// tuple into one accumulator per SELECT item. It cannot tell
/// duplicates apart, so its `collected` and `attempts` both count
/// emitted tuples.
pub struct MinMaxFold<'q> {
    query: &'q Query,
    tables: Vec<TableRef>,
    slots: Vec<Slot<'q>>,
    emitted: u64,
}

impl<'q> MinMaxFold<'q> {
    /// Accumulators for `query`'s SELECT list.
    ///
    /// # Panics
    ///
    /// If `query` does not fold ([`Query::folds_into_min_max`]).
    pub fn new(query: &'q Query) -> MinMaxFold<'q> {
        assert!(
            query.folds_into_min_max(),
            "not a global MIN/MAX query: tuples must be deduplicated"
        );
        let slots = query
            .select
            .iter()
            .map(|item| {
                let SelectItem::Agg { agg, .. } = item else {
                    unreachable!("folds_into_min_max admits aggregates only")
                };
                if let Some(Expr::Col(c)) = &agg.arg {
                    let column = query.tables[c.table].table.column(c.column);
                    if let Some(values) = column.i64s() {
                        let wrap: fn(i64) -> Value = match column.value_type() {
                            ValueType::Date => Value::Date,
                            ValueType::Interval => Value::Interval,
                            _ => Value::Int,
                        };
                        return Slot::Column {
                            table: c.table,
                            column,
                            values,
                            max: agg.func == AggFunc::Max,
                            best: None,
                            wrap,
                        };
                    }
                }
                Slot::Eval {
                    expr: agg.arg.as_ref(),
                    acc: Acc::new(agg),
                }
            })
            .collect();
        MinMaxFold {
            query,
            tables: query.tables.iter().map(|b| b.table.clone()).collect(),
            slots,
            emitted: 0,
        }
    }

    /// The query's result: one row of the folded aggregates (NULL where
    /// no non-NULL value was emitted), after DISTINCT, ORDER BY and
    /// LIMIT — identical to post-processing the distinct join tuples.
    pub fn finish(self) -> ResultTable {
        let row = self
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Column { best, wrap, .. } => best.map_or(Value::Null, *wrap),
                Slot::Eval { acc, .. } => acc.finish(),
            })
            .collect();
        finish_rows(self.query, vec![row])
    }
}

impl ResultSink for MinMaxFold<'_> {
    #[inline]
    fn insert(&mut self, tuple: &[RowId]) -> bool {
        self.emitted += 1;
        for slot in &mut self.slots {
            match slot {
                Slot::Column {
                    table,
                    column,
                    values,
                    max,
                    best,
                    ..
                } => {
                    let row = tuple[*table] as usize;
                    if column.is_null(row) {
                        continue;
                    }
                    let v = values[row];
                    let better = match *best {
                        None => true,
                        Some(b) if *max => v > b,
                        Some(b) => v < b,
                    };
                    if better {
                        *best = Some(v);
                    }
                }
                Slot::Eval {
                    expr: Some(expr),
                    acc,
                } => {
                    let ctx = TupleContext {
                        rows: tuple,
                        tables: &self.tables,
                    };
                    acc.update(Some(&expr.eval(&ctx)));
                }
                Slot::Eval { expr: None, .. } => {}
            }
        }
        true
    }
}

impl Collector for MinMaxFold<'_> {
    fn collected(&self) -> usize {
        self.emitted as usize
    }

    fn attempts(&self) -> u64 {
        self.emitted
    }

    fn take_flat(&mut self, _stride: usize) -> Vec<RowId> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postprocess::postprocess;
    use skinner_query::{Expr, QueryBuilder};
    use skinner_storage::{Catalog, ColumnBuilder, ColumnDef, Schema, Table};

    /// One table `t`: a nullable Int, a Date, a Str and a Float column.
    fn catalog() -> Catalog {
        let mut ints = ColumnBuilder::new(ValueType::Int);
        for v in [Value::Int(5), Value::Null, Value::Int(3), Value::Int(9)] {
            ints.push(&v);
        }
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                Schema::new([
                    ColumnDef::new("i", ValueType::Int),
                    ColumnDef::new("d", ValueType::Date),
                    ColumnDef::new("s", ValueType::Str),
                    ColumnDef::new("f", ValueType::Float),
                ]),
                vec![
                    ints.finish(),
                    Column::from_dates(vec![10, 20, 5, 7]),
                    Column::from_strs(["b", "d", "a", "c"]),
                    Column::from_floats(vec![f64::NAN, 2.0, 1.0, 4.0]),
                ],
            )
            .unwrap(),
        );
        cat
    }

    fn query(cat: &Catalog, build: impl FnOnce(&mut QueryBuilder<'_>)) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("t").unwrap();
        build(&mut qb);
        qb.build().unwrap()
    }

    fn fold(q: &Query, tuples: &[RowId]) -> ResultTable {
        let mut fold = MinMaxFold::new(q);
        for row in tuples {
            fold.insert(std::slice::from_ref(row));
        }
        fold.finish()
    }

    #[test]
    fn duplicates_fold_like_distinct_tuples() {
        let cat = catalog();
        let q = query(&cat, |qb| {
            let i = qb.col("t.i").unwrap();
            let d = qb.col("t.d").unwrap();
            let s = qb.col("t.s").unwrap();
            qb.select_agg(AggFunc::Min, Some(i.clone()), "lo");
            qb.select_agg(AggFunc::Max, Some(i.clone()), "hi");
            qb.select_agg(AggFunc::Min, Some(d), "first");
            qb.select_agg(AggFunc::Max, Some(s), "last");
            qb.select_agg(AggFunc::Min, Some(i.mul(Expr::lit(2))), "twice");
        });
        let mut sink = MinMaxFold::new(&q);
        assert!(matches!(sink.slots[0], Slot::Column { .. }));
        assert!(matches!(sink.slots[2], Slot::Column { .. }));
        assert!(matches!(sink.slots[3], Slot::Eval { .. }));
        assert!(matches!(sink.slots[4], Slot::Eval { .. }));
        // Re-emissions, as after a join-order switch.
        for row in [0u32, 1, 2, 3, 2, 0] {
            sink.insert(&[row]);
        }
        assert_eq!((sink.collected(), sink.attempts()), (6, 6));
        assert!(sink.take_flat(1).is_empty());
        assert_eq!(sink.approx_bytes(), 0);
        let folded = sink.finish();
        assert_eq!(folded, postprocess(&q, &[0, 1, 2, 3]));
        assert_eq!(
            folded.rows[0],
            vec![
                Value::Int(3),
                Value::Int(9),
                Value::Date(5),
                Value::str("d"),
                Value::Int(6)
            ]
        );
    }

    #[test]
    fn empty_input_and_limit_zero_match_postprocess() {
        let cat = catalog();
        let q = query(&cat, |qb| {
            let i = qb.col("t.i").unwrap();
            let f = qb.col("t.f").unwrap();
            qb.select_agg(AggFunc::Min, Some(i), "lo");
            qb.select_agg(AggFunc::Max, Some(f), "hi");
        });
        let empty = fold(&q, &[]);
        assert_eq!(empty.rows, vec![vec![Value::Null, Value::Null]]);
        assert_eq!(empty, postprocess(&q, &[]));
        // NULL-only input is empty input to MIN/MAX.
        assert_eq!(fold(&q, &[1]).rows[0][0], Value::Null);

        let q = query(&cat, |qb| {
            let i = qb.col("t.i").unwrap();
            qb.select_agg(AggFunc::Min, Some(i), "lo");
            qb.limit(0);
        });
        assert_eq!(fold(&q, &[0, 2]).num_rows(), 0);
        assert_eq!(fold(&q, &[0, 2]), postprocess(&q, &[0, 2]));
    }

    #[test]
    fn nan_sorts_above_numbers_in_any_arrival_order() {
        let cat = catalog();
        let q = query(&cat, |qb| {
            let f = qb.col("t.f").unwrap();
            qb.select_agg(AggFunc::Min, Some(f.clone()), "lo");
            qb.select_agg(AggFunc::Max, Some(f), "hi");
        });
        // Rows 0, 1, 2 hold NaN, 2.0, 1.0.
        let want = vec![vec![Value::Float(1.0), Value::Float(f64::NAN)]];
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            assert_eq!(postprocess(&q, &perm).rows, want, "postprocess {perm:?}");
            assert_eq!(fold(&q, &perm).rows, want, "fold {perm:?}");
        }
    }
}
