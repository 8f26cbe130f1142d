//! Named registry of tables shared between execution engines.

use crate::error::StorageError;
use crate::hash::FxHashMap;
use crate::table::{Table, TableRef};
use std::sync::Arc;

/// A catalog maps table names to shared, immutable tables. Engines clone
/// `Arc`s out of it; data is never copied.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: FxHashMap<String, TableRef>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table under its own name. Replaces any previous table
    /// with the same name and returns the previous entry, if any.
    pub fn register(&mut self, table: Table) -> Option<TableRef> {
        let name = table.name().to_string();
        self.tables.insert(name, Arc::new(table))
    }

    /// Fetch a table by name.
    pub fn get(&self, name: &str) -> Result<TableRef, StorageError> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Iterate over registered tables (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TableRef)> {
        self.tables.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sorted table names (for stable display output).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::{ColumnDef, Schema};
    use crate::value::ValueType;

    fn t(name: &str) -> Table {
        Table::new(
            name,
            Schema::new([ColumnDef::new("id", ValueType::Int)]),
            vec![Column::from_ints(vec![1, 2])],
        )
        .unwrap()
    }

    #[test]
    fn register_and_get() {
        let mut c = Catalog::new();
        assert!(c.register(t("a")).is_none());
        assert!(c.contains("a"));
        assert_eq!(c.get("a").unwrap().num_rows(), 2);
        assert!(c.get("missing").is_err());
    }

    #[test]
    fn replace_returns_previous() {
        let mut c = Catalog::new();
        c.register(t("a"));
        let prev = c.register(t("a"));
        assert!(prev.is_some());
        assert_eq!(c.table_names(), vec!["a"]);
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.register(t("zz"));
        c.register(t("aa"));
        assert_eq!(c.table_names(), vec!["aa", "zz"]);
    }
}
