//! Materialized query results.

use skinner_storage::Value;
use std::fmt;

/// A fully materialized query result: named columns, value rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Output column names (from the SELECT list).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultTable {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Rows sorted canonically (for order-insensitive comparisons in
    /// tests and experiment validation).
    pub fn canonical_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x
                    .sql_cmp(y)
                    .unwrap_or_else(|| x.is_null().cmp(&y.is_null()));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }

    /// True if both results contain the same multiset of rows.
    pub fn same_rows(&self, other: &ResultTable) -> bool {
        self.num_rows() == other.num_rows() && self.canonical_rows() == other.canonical_rows()
    }
}

impl fmt::Display for ResultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in self.rows.iter().take(20) {
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "... ({} rows total)", self.rows.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_rows_order_insensitive() {
        let a = ResultTable {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        };
        let b = ResultTable {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(2)], vec![Value::Int(1)]],
        };
        assert!(a.same_rows(&b));
        let c = ResultTable {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(2)], vec![Value::Int(2)]],
        };
        assert!(!a.same_rows(&c));
    }

    #[test]
    fn display_truncates() {
        let t = ResultTable {
            columns: vec!["v".into()],
            rows: (0..30).map(|i| vec![Value::Int(i)]).collect(),
        };
        let s = t.to_string();
        assert!(s.contains("30 rows total"));
    }
}
