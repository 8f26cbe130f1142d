//! Tables: named collections of equal-length columns.

use crate::column::Column;
use crate::error::StorageError;
use crate::index::HashIndex;
use crate::value::ValueType;
use std::sync::{Arc, OnceLock};

/// A column's name and type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within its table).
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ValueType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            ty,
        }
    }
}

/// Ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(defs: impl IntoIterator<Item = ColumnDef>) -> Schema {
        Schema {
            columns: defs.into_iter().collect(),
        }
    }

    /// Columns in declaration order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

/// An immutable, main-memory resident table.
///
/// Its one piece of interior mutability is a write-once slot per column
/// holding that column's join index over all base rows
/// ([`Table::join_index`]). The index is a pure function of the column,
/// so it never goes stale; it lives and dies with the table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    join_indexes: Box<[OnceLock<Arc<HashIndex>>]>,
}

/// One empty join-index slot per column.
fn empty_slots(columns: usize) -> Box<[OnceLock<Arc<HashIndex>>]> {
    (0..columns).map(|_| OnceLock::new()).collect()
}

impl Table {
    /// Assemble a table; all columns must have equal length and match the
    /// schema's types.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> Result<Table, StorageError> {
        let name = name.into();
        if schema.len() != columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "table {name}: schema has {} columns, got {}",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        for (def, col) in schema.columns().iter().zip(&columns) {
            if col.len() != rows {
                return Err(StorageError::SchemaMismatch(format!(
                    "table {name}: column {} has {} rows, expected {rows}",
                    def.name,
                    col.len()
                )));
            }
            if col.value_type() != def.ty {
                return Err(StorageError::SchemaMismatch(format!(
                    "table {name}: column {} is {}, declared {}",
                    def.name,
                    col.value_type(),
                    def.ty
                )));
            }
        }
        Ok(Table {
            name,
            schema,
            join_indexes: empty_slots(columns.len()),
            columns,
            rows,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The hash index of column `col` over all base rows (postings are
    /// base row ids): `HashIndex::build(self.column(col), None)`, built on
    /// first use and shared by every later caller. Concurrent first calls
    /// build it once; the others wait for that build.
    pub fn join_index(&self, col: usize) -> &Arc<HashIndex> {
        self.join_indexes[col].get_or_init(|| Arc::new(HashIndex::build(&self.columns[col], None)))
    }
}

/// Shared table handle as stored in the catalog.
pub type TableRef = Arc<Table>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::value::Value;

    fn sample() -> Table {
        Table::new(
            "t",
            Schema::new([
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("name", ValueType::Str),
            ]),
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_strs(["a", "b", "c"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.schema().index_of("name"), Some(1));
        assert_eq!(t.column(0).int(2), 3);
        assert_eq!(t.column(1).get(1), Value::str("b"));
    }

    #[test]
    fn rejects_ragged_columns() {
        let err = Table::new(
            "bad",
            Schema::new([
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::new("b", ValueType::Int),
            ]),
            vec![Column::from_ints(vec![1]), Column::from_ints(vec![1, 2])],
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_type_mismatch() {
        let err = Table::new(
            "bad",
            Schema::new([ColumnDef::new("a", ValueType::Str)]),
            vec![Column::from_ints(vec![1])],
        );
        assert!(err.is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        let err = Table::new(
            "bad",
            Schema::new([ColumnDef::new("a", ValueType::Int)]),
            vec![],
        );
        assert!(matches!(err, Err(StorageError::SchemaMismatch(_))));
    }

    #[test]
    fn builder_roundtrip() {
        let mut x = ColumnBuilder::new(ValueType::Int);
        let mut y = ColumnBuilder::new(ValueType::Float);
        for (a, b) in [
            (Value::Int(1), Value::Float(0.5)),
            (Value::Int(2), Value::Null),
        ] {
            x.push(&a);
            y.push(&b);
        }
        let t = Table::new(
            "b",
            Schema::new([
                ColumnDef::new("x", ValueType::Int),
                ColumnDef::new("y", ValueType::Float),
            ]),
            vec![x.finish(), y.finish()],
        )
        .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(1).get(0), Value::Float(0.5));
        assert_eq!(t.column(1).get(1), Value::Null);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("e", Schema::default(), vec![]).unwrap();
        assert_eq!(t.num_rows(), 0);
    }

    fn slots_empty(t: &Table) -> bool {
        t.join_indexes.iter().all(|s| s.get().is_none())
    }

    #[test]
    fn join_index_builds_once() {
        let t = sample();
        assert!(slots_empty(&t));
        let first = Arc::clone(t.join_index(0));
        assert!(Arc::ptr_eq(&first, t.join_index(0)));
        assert!(t.join_indexes[1].get().is_none(), "only the asked column");

        let t = Arc::new(sample());
        let built: Vec<Arc<HashIndex>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| Arc::clone(t.join_index(1))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(built.iter().all(|i| Arc::ptr_eq(i, &built[0])));
        assert!(Arc::ptr_eq(&built[0], t.join_index(1)));
    }

    #[test]
    fn join_index_equals_unfiltered_build() {
        let types = [
            ValueType::Int,
            ValueType::Int,
            ValueType::Str,
            ValueType::Float,
        ];
        let mut b = types.map(ColumnBuilder::new);
        for r in 0..40i64 {
            let n = if r % 3 == 0 {
                Value::Null
            } else {
                Value::Int(r % 5)
            };
            let s = if r % 7 == 0 {
                Value::Null
            } else {
                Value::str(format!("s{}", r % 6))
            };
            let row = [Value::Int(r % 9), n, s, Value::Float((r % 4) as f64 * 0.5)];
            for (b, v) in b.iter_mut().zip(&row) {
                b.push(v);
            }
        }
        let t = Table::new(
            "mixed",
            Schema::new(
                ["i", "n", "s", "f"]
                    .iter()
                    .zip(types)
                    .map(|(n, ty)| ColumnDef::new(*n, ty)),
            ),
            b.map(ColumnBuilder::finish).to_vec(),
        )
        .unwrap();
        for c in 0..t.columns().len() {
            let col = t.column(c);
            let memo = t.join_index(c);
            let fresh = HashIndex::build(col, None);
            assert_eq!(memo.distinct_keys(), fresh.distinct_keys(), "column {c}");
            assert_eq!(memo.len(), fresh.len(), "column {c}");
            for r in 0..t.num_rows() {
                if let Some(k) = col.join_key(r) {
                    assert_eq!(memo.probe(k), fresh.probe(k), "column {c} key {k}");
                    assert!(memo.probe(k).contains(&(r as u32)));
                }
            }
        }
    }

    #[test]
    fn gathered_and_replaced_tables_start_empty() {
        let t = sample();
        t.join_index(0);
        t.join_index(1);
        let mut cat = crate::Catalog::new();
        cat.register(sample());
        let old = cat.get("t").unwrap();
        let old_index = Arc::downgrade(old.join_index(0));
        cat.register(sample());
        let new = cat.get("t").unwrap();
        assert!(slots_empty(&new));
        drop(old);
        assert!(
            old_index.upgrade().is_none(),
            "the old index dies with the replaced table"
        );
    }
}
