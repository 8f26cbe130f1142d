//! `ANALYZE`-style coarse table statistics.
//!
//! These are exactly the statistics the paper says traditional optimizers
//! "predict cost based on": coarse-grained and blind to correlations. The
//! [`crate::estimator`] consumes them under the independence assumption.

use skinner_storage::table::TableRef;
use skinner_storage::{FxHashMap, FxHashSet, Table, ValueType};
use std::sync::Arc;

/// Per-column statistics.
#[derive(Debug, Clone)]
pub struct ColStats {
    /// Number of distinct non-NULL values.
    pub distinct: u64,
    /// Minimum (numeric columns; dictionary-code-free for strings).
    pub(crate) min: Option<f64>,
    /// Maximum.
    pub(crate) max: Option<f64>,
    /// NULL count.
    pub(crate) nulls: u64,
}

/// Per-table statistics.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count.
    pub(crate) rows: u64,
    /// One entry per schema column.
    pub cols: Vec<ColStats>,
}

/// Scan `table` and compute full statistics (exact distinct counts — the
/// estimator's failures come from the independence assumption, not from
/// sketch error).
pub fn analyze(table: &Table) -> TableStats {
    let rows = table.num_rows() as u64;
    let cols = table
        .columns()
        .iter()
        .map(|col| {
            let mut distinct: FxHashSet<i64> = FxHashSet::default();
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut nulls = 0u64;
            // Date/Interval day counts participate in min/max range
            // statistics like integers (the estimator only needs an
            // ordered numeric domain).
            let numeric = matches!(
                col.value_type(),
                ValueType::Int | ValueType::Float | ValueType::Date | ValueType::Interval
            );
            for r in 0..col.len() {
                match col.join_key(r) {
                    None => nulls += 1,
                    Some(k) => {
                        distinct.insert(k);
                        if numeric {
                            let v = match col.value_type() {
                                ValueType::Int | ValueType::Date | ValueType::Interval => {
                                    col.int(r) as f64
                                }
                                ValueType::Float => col.float(r),
                                ValueType::Str => unreachable!(),
                            };
                            min = min.min(v);
                            max = max.max(v);
                        }
                    }
                }
            }
            ColStats {
                distinct: distinct.len() as u64,
                min: (min.is_finite()).then_some(min),
                max: (max.is_finite()).then_some(max),
                nulls,
            }
        })
        .collect();
    TableStats { rows, cols }
}

/// A cache of analyzed statistics, keyed by table name.
#[derive(Debug, Default, Clone)]
pub struct StatsCatalog {
    map: FxHashMap<String, Arc<TableStats>>,
}

impl StatsCatalog {
    /// Empty catalog (statistics computed lazily via `Self::get`).
    pub fn new() -> StatsCatalog {
        StatsCatalog::default()
    }

    /// Analyze and cache one table.
    pub(crate) fn insert(&mut self, table: &TableRef) -> Arc<TableStats> {
        let stats = Arc::new(analyze(table));
        self.map.insert(table.name().to_string(), stats.clone());
        stats
    }

    /// Fetch cached statistics (analyzing on miss).
    pub(crate) fn get(&mut self, table: &TableRef) -> Arc<TableStats> {
        if let Some(s) = self.map.get(table.name()) {
            return s.clone();
        }
        self.insert(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_storage::column::ColumnBuilder;
    use skinner_storage::{Column, ColumnDef, Schema, Value};

    #[test]
    fn analyze_basic() {
        let t = Table::new(
            "t",
            Schema::new([
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::new("s", ValueType::Str),
            ]),
            vec![
                Column::from_ints(vec![1, 2, 2, 9]),
                Column::from_strs(["x", "y", "x", "x"]),
            ],
        )
        .unwrap();
        let st = analyze(&t);
        assert_eq!(st.rows, 4);
        assert_eq!(st.cols[0].distinct, 3);
        assert_eq!(st.cols[0].min, Some(1.0));
        assert_eq!(st.cols[0].max, Some(9.0));
        assert_eq!(st.cols[1].distinct, 2);
        assert_eq!(st.cols[1].min, None);
    }

    #[test]
    fn analyze_counts_nulls() {
        let mut b = ColumnBuilder::new(ValueType::Int);
        b.push(&Value::Int(1));
        b.push(&Value::Null);
        b.push(&Value::Null);
        let t = Table::new(
            "t",
            Schema::new([ColumnDef::new("a", ValueType::Int)]),
            vec![b.finish()],
        )
        .unwrap();
        let st = analyze(&t);
        assert_eq!(st.cols[0].nulls, 2);
        assert_eq!(st.cols[0].distinct, 1);
    }

    #[test]
    fn stats_catalog_caches() {
        let t: TableRef = Arc::new(
            Table::new(
                "t",
                Schema::new([ColumnDef::new("a", ValueType::Int)]),
                vec![Column::from_ints(vec![1, 2, 3])],
            )
            .unwrap(),
        );
        let mut sc = StatsCatalog::new();
        let a = sc.get(&t);
        let b = sc.get(&t);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(sc.map.contains_key("t"));
        assert!(!sc.map.contains_key("u"));
    }
}
