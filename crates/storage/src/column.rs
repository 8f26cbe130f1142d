//! Typed column vectors with optional validity bitmaps.
//!
//! Columns store data contiguously per type: `i64`, `f64`, or
//! dictionary-encoded strings (`u32` codes into a per-column dictionary).
//! Execution engines access columns through the typed fast paths
//! ([`Column::int`], [`Column::float`], [`Column::str_code`]) and only
//! materialize [`Value`]s at the edges of the system.
//!
//! # Join keys
//!
//! Equality joins and hash indexes operate on a 64-bit *join key*
//! ([`Column::join_key`]): integers map to themselves, floats to their bit
//! pattern, and strings to an FxHash of their bytes. String join keys may
//! collide, so every consumer re-verifies the underlying equality predicate
//! after a probe — hash collisions cost extra checks, never wrong results.

use crate::bitmap::Bitmap;
use crate::hash::FxHashMap;
use crate::value::{Value, ValueType};
use std::hash::Hasher;
use std::sync::Arc;

/// Per-column string dictionary: code → string, string → code.
#[derive(Debug, Default, Clone)]
pub struct StrDict {
    values: Vec<Arc<str>>,
    lookup: FxHashMap<Arc<str>, u32>,
}

impl StrDict {
    /// Intern `s`, returning its (possibly fresh) code.
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.lookup.get(s) {
            return code;
        }
        let code = self.values.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.values.push(arc.clone());
        self.lookup.insert(arc, code);
        code
    }

    /// Look up the code for `s` without interning.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// The string for `code`.
    pub(crate) fn resolve(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }
}

#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str {
        codes: Vec<u32>,
        dict: StrDict,
    },
    /// Days since 1970-01-01 (same physical layout as `Int`; the type
    /// tag keeps the date lattice — dates only compare/join with dates).
    Date(Vec<i64>),
    /// Day spans (same physical layout as `Int`).
    Interval(Vec<i64>),
}

/// A single table column: typed data plus an optional validity bitmap
/// (absent ⇒ no NULLs).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Option<Bitmap>,
}

fn str_key(s: &str) -> i64 {
    let mut h = crate::hash::FxHasher::default();
    h.write(s.as_bytes());
    h.finish() as i64
}

/// The 64-bit join key of a float value: its bit pattern, with `-0.0`
/// normalized to `0.0` first. SQL equality says `-0.0 = 0.0`, so the two
/// must produce equal keys or key-driven probes would skip real matches.
/// (NaN keys need no normalization: NaN never equals anything, so any
/// candidate a NaN key surfaces is rejected by the re-verified
/// predicate.)
#[inline]
pub fn f64_key(x: f64) -> i64 {
    (if x == 0.0 { 0.0f64 } else { x }).to_bits() as i64
}

impl Column {
    /// Build an integer column from raw values (no NULLs).
    pub fn from_ints(v: Vec<i64>) -> Column {
        Column {
            data: ColumnData::Int(v),
            validity: None,
        }
    }

    /// Build a float column from raw values (no NULLs).
    pub fn from_floats(v: Vec<f64>) -> Column {
        Column {
            data: ColumnData::Float(v),
            validity: None,
        }
    }

    /// Build a dictionary-encoded string column (no NULLs).
    pub fn from_strs<S: AsRef<str>>(vals: impl IntoIterator<Item = S>) -> Column {
        let mut dict = StrDict::default();
        let codes = vals.into_iter().map(|s| dict.intern(s.as_ref())).collect();
        Column {
            data: ColumnData::Str { codes, dict },
            validity: None,
        }
    }

    /// Build a date column from day counts (no NULLs; see
    /// [`days_from_ymd`](crate::value::days_from_ymd)).
    pub fn from_dates(v: Vec<i64>) -> Column {
        Column {
            data: ColumnData::Date(v),
            validity: None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) | ColumnData::Date(v) | ColumnData::Interval(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's value type.
    pub fn value_type(&self) -> ValueType {
        match &self.data {
            ColumnData::Int(_) => ValueType::Int,
            ColumnData::Float(_) => ValueType::Float,
            ColumnData::Str { .. } => ValueType::Str,
            ColumnData::Date(_) => ValueType::Date,
            ColumnData::Interval(_) => ValueType::Interval,
        }
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.validity {
            Some(v) => !v.get(i),
            None => false,
        }
    }

    /// True if the column can contain NULLs.
    pub fn nullable(&self) -> bool {
        self.validity.is_some()
    }

    /// Typed access: the `i64` payload at row `i` of an i64-backed column
    /// (`Int`, `Date`, `Interval` — dates/intervals yield their day
    /// counts). Panics on Float/Str columns; NULL rows return an
    /// unspecified placeholder (callers check [`Column::is_null`] first
    /// where it matters).
    #[inline]
    pub fn int(&self, i: usize) -> i64 {
        match &self.data {
            ColumnData::Int(v) | ColumnData::Date(v) | ColumnData::Interval(v) => v[i],
            _ => panic!("column is not i64-backed"),
        }
    }

    /// Typed access: float at row `i`.
    #[inline]
    pub fn float(&self, i: usize) -> f64 {
        match &self.data {
            ColumnData::Float(v) => v[i],
            _ => panic!("column is not FLOAT"),
        }
    }

    /// Typed access: dictionary code at row `i`.
    #[inline]
    pub fn str_code(&self, i: usize) -> u32 {
        match &self.data {
            ColumnData::Str { codes, .. } => codes[i],
            _ => panic!("column is not TEXT"),
        }
    }

    /// The dictionary of a string column.
    pub fn dict(&self) -> Option<&StrDict> {
        match &self.data {
            ColumnData::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// Raw integer slice (fast path for vectorized operators). `None`
    /// for temporal columns — use [`Column::i64s`] when the i64 payload
    /// is wanted regardless of the logical type.
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Raw `i64` payload of any i64-backed column (`Int`, `Date`,
    /// `Interval`). Dates and intervals are exact 64-bit values, so
    /// everything keyed on this slice — hash-index jumps, the compiled
    /// kernels' posting cursors, predicate elision — is as sound for
    /// temporal columns as for plain integers.
    pub fn i64s(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) | ColumnData::Date(v) | ColumnData::Interval(v) => Some(v),
            _ => None,
        }
    }

    /// Raw float slice.
    pub fn floats(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Raw dictionary-code slice of a string column.
    pub fn str_codes(&self) -> Option<&[u32]> {
        match &self.data {
            ColumnData::Str { codes, .. } => Some(codes),
            _ => None,
        }
    }

    /// Materialize the [`Value`] at row `i`.
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str { codes, dict } => Value::Str(dict.resolve(codes[i]).clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Interval(v) => Value::Interval(v[i]),
        }
    }

    /// True when an equality between this column and `other` may be
    /// accelerated by comparing join keys (hash joins, index jumps).
    /// Requires identical value types: a true predicate then implies
    /// equal keys, so no valid match is ever skipped.
    ///
    /// The load-bearing exclusion is `Int` vs `Float`: SQL equality
    /// widens numerically (`2 = 2.0` is true) while the key conventions
    /// differ (value vs bit pattern), so key-based acceleration would
    /// silently drop matches. Mixed pairs whose equality is *never*
    /// true under the type lattice (e.g. `Date` vs `Int`, number vs
    /// string) are excluded too — a jump there would be vacuously sound
    /// but pure wasted work (the probe can only ever feed candidates to
    /// an always-false predicate).
    pub fn join_key_compatible(&self, other: &Column) -> bool {
        self.value_type() == other.value_type()
    }

    /// 64-bit equality join key for row `i` (see module docs; string keys
    /// are hashes and must be re-verified by the caller). NULL rows have
    /// no join key.
    #[inline]
    pub fn join_key(&self, i: usize) -> Option<i64> {
        if self.is_null(i) {
            return None;
        }
        Some(match &self.data {
            ColumnData::Int(v) | ColumnData::Date(v) | ColumnData::Interval(v) => v[i],
            ColumnData::Float(v) => f64_key(v[i]),
            ColumnData::Str { codes, dict } => str_key(dict.resolve(codes[i])),
        })
    }
}

/// Fused composite join key of `row` across `cols`: `None` when any
/// component is NULL (NULL never matches an equality conjunct), otherwise
/// an FxHash combine of the component join keys. Composite keys are
/// *hashes* — like string keys they may collide, so every consumer
/// re-verifies the underlying equality predicates after a probe. The two
/// sides of a composite join group must fuse their columns in the same
/// paired order for equal tuples to produce equal keys.
pub fn fused_join_key<'a>(cols: impl IntoIterator<Item = &'a Column>, row: usize) -> Option<i64> {
    let mut h = crate::hash::FxHasher::default();
    for col in cols {
        h.write_i64(col.join_key(row)?);
    }
    Some(h.finish() as i64)
}

/// Incremental column construction from dynamically typed values.
#[derive(Debug)]
pub struct ColumnBuilder {
    ty: ValueType,
    ints: Vec<i64>,
    floats: Vec<f64>,
    codes: Vec<u32>,
    dict: StrDict,
    nulls: Vec<usize>,
    len: usize,
}

impl ColumnBuilder {
    /// New builder for a column of type `ty`.
    pub fn new(ty: ValueType) -> ColumnBuilder {
        ColumnBuilder {
            ty,
            ints: Vec::new(),
            floats: Vec::new(),
            codes: Vec::new(),
            dict: StrDict::default(),
            nulls: Vec::new(),
            len: 0,
        }
    }

    /// Append a value; NULL and type-mismatched values become NULL.
    pub fn push(&mut self, v: &Value) {
        match (self.ty, v) {
            (ValueType::Int, Value::Int(x))
            | (ValueType::Date, Value::Date(x))
            | (ValueType::Interval, Value::Interval(x)) => self.ints.push(*x),
            (ValueType::Float, Value::Float(x)) => self.floats.push(*x),
            (ValueType::Float, Value::Int(x)) => self.floats.push(*x as f64),
            (ValueType::Str, Value::Str(s)) => {
                let c = self.dict.intern(s);
                self.codes.push(c);
            }
            _ => {
                self.nulls.push(self.len);
                match self.ty {
                    ValueType::Int | ValueType::Date | ValueType::Interval => self.ints.push(0),
                    ValueType::Float => self.floats.push(0.0),
                    ValueType::Str => {
                        let c = self.dict.intern("");
                        self.codes.push(c);
                    }
                }
            }
        }
        self.len += 1;
    }

    /// Finish construction.
    pub fn finish(self) -> Column {
        let data = match self.ty {
            ValueType::Int => ColumnData::Int(self.ints),
            ValueType::Float => ColumnData::Float(self.floats),
            ValueType::Str => ColumnData::Str {
                codes: self.codes,
                dict: self.dict,
            },
            ValueType::Date => ColumnData::Date(self.ints),
            ValueType::Interval => ColumnData::Interval(self.ints),
        };
        let validity = if self.nulls.is_empty() {
            None
        } else {
            let mut v = Bitmap::ones(self.len);
            for i in self.nulls {
                v.set(i, false);
            }
            Some(v)
        };
        Column { data, validity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_roundtrip() {
        let c = Column::from_ints(vec![3, 1, 4]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_type(), ValueType::Int);
        assert_eq!(c.int(1), 1);
        assert_eq!(c.get(2), Value::Int(4));
        assert_eq!(c.join_key(0), Some(3));
    }

    #[test]
    fn str_column_dictionary() {
        let c = Column::from_strs(["a", "b", "a", "c"]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.str_code(0), c.str_code(2));
        assert_ne!(c.str_code(0), c.str_code(1));
        assert_eq!(c.get(3), Value::str("c"));
        assert_eq!(c.dict().unwrap().code_of("c"), Some(c.str_code(3)));
    }

    #[test]
    fn str_join_keys_cross_column_consistent() {
        // Two columns with *different* dictionaries must produce equal join
        // keys for equal strings (keys are content hashes, not codes).
        let a = Column::from_strs(["x", "y"]);
        let b = Column::from_strs(["y", "x"]);
        assert_eq!(a.join_key(0), b.join_key(1));
        assert_eq!(a.join_key(1), b.join_key(0));
        assert_ne!(a.join_key(0), a.join_key(1));
    }

    #[test]
    fn builder_with_nulls() {
        let mut b = ColumnBuilder::new(ValueType::Int);
        b.push(&Value::Int(1));
        b.push(&Value::Null);
        b.push(&Value::Int(3));
        let c = b.finish();
        assert!(!c.is_null(0));
        assert!(c.is_null(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.join_key(1), None);
        assert_eq!(c.get(2), Value::Int(3));
    }

    #[test]
    fn builder_widens_int_to_float() {
        let mut b = ColumnBuilder::new(ValueType::Float);
        b.push(&Value::Int(2));
        b.push(&Value::Float(0.5));
        let c = b.finish();
        assert_eq!(c.float(0), 2.0);
        assert_eq!(c.float(1), 0.5);
    }

    #[test]
    fn date_column_roundtrip_and_keys() {
        use crate::value::days_from_ymd;
        let days: Vec<i64> = [(2019, 3, 4), (2020, 2, 29), (1969, 12, 31)]
            .iter()
            .map(|&(y, m, d)| days_from_ymd(y, m, d))
            .collect();
        let c = Column::from_dates(days.clone());
        assert_eq!(c.value_type(), ValueType::Date);
        assert_eq!(c.get(0), Value::Date(days[0]));
        assert_eq!(c.int(1), days[1]);
        assert_eq!(c.i64s(), Some(days.as_slice()));
        assert_eq!(c.ints(), None, "dates are not plain ints");
        // Join keys are the exact day counts.
        assert_eq!(c.join_key(2), Some(days[2]));
        // Builder path with NULLs.
        let mut b = ColumnBuilder::new(ValueType::Date);
        b.push(&Value::Date(days[0]));
        b.push(&Value::Null);
        let d = b.finish();
        assert!(d.is_null(1));
        assert_eq!(d.join_key(1), None);
        assert_eq!(d.get(0), Value::Date(days[0]));
        // Intervals share the representation but not the type.
        let iv = Column {
            data: ColumnData::Interval(vec![90, 30]),
            validity: None,
        };
        assert_eq!(iv.value_type(), ValueType::Interval);
        assert_eq!(iv.get(0), Value::Interval(90));
    }

    #[test]
    fn fused_keys_consistent_across_tables() {
        // Equal (k1, k2) component values must fuse to equal keys even
        // when they live in different columns/tables.
        let a1 = Column::from_ints(vec![1, 2, 3]);
        let a2 = Column::from_ints(vec![10, 20, 30]);
        let b1 = Column::from_ints(vec![3, 1]);
        let b2 = Column::from_ints(vec![30, 10]);
        let ka = fused_join_key([&a1, &a2], 2);
        let kb = fused_join_key([&b1, &b2], 0);
        assert!(ka.is_some());
        assert_eq!(ka, kb);
        assert_ne!(ka, fused_join_key([&b1, &b2], 1));
        // Component order matters (the paired fuse order is canonical).
        assert_ne!(fused_join_key([&a1, &a2], 0), fused_join_key([&a2, &a1], 0));
        // A NULL component kills the key.
        let mut nb = ColumnBuilder::new(ValueType::Int);
        nb.push(&Value::Null);
        let n = nb.finish();
        assert_eq!(fused_join_key([&a1, &n], 0), None);
        // Mixed-type components fuse fine (string hash + int).
        let s = Column::from_strs(["x", "y"]);
        let s2 = Column::from_strs(["y", "x"]);
        let i1 = Column::from_ints(vec![7, 8]);
        let i2 = Column::from_ints(vec![8, 7]);
        assert_eq!(fused_join_key([&s, &i1], 1), fused_join_key([&s2, &i2], 0));
    }
}
