//! # skinner-storage
//!
//! In-memory column-store substrate for SkinnerDB-rs.
//!
//! SkinnerDB's custom execution engine (the paper's Skinner-C, §4.5)
//! assumes "a column store architecture (allowing quick access to selected
//! columns) and a main-memory resident data set". This crate provides that
//! substrate:
//!
//! * [`Value`] / [`ValueType`] — the scalar type system (64-bit integers,
//!   64-bit floats, dictionary-encoded strings, NULL),
//! * [`Column`] — typed, contiguous column vectors with optional validity
//!   bitmaps,
//! * [`Table`] / [`Schema`] — named collections of equal-length columns,
//!   each column with a write-once slot for its base-row join index,
//! * [`Catalog`] — a named registry of tables shared between engines,
//! * [`index::HashIndex`] — value → sorted-posting-list join indexes that
//!   support the "jump to the next tuple index ≥ i that satisfies the
//!   equality predicate" probe used by the multi-way join (§4.5): an
//!   offset array indexed by `key − min` when the keys span at most
//!   twice as many values as there are rows, a hash map otherwise,
//! * [`hash`] — a vendored FxHash-style hasher used on all hot paths
//!   (row-id sets, result dedup, index probes),
//! * [`codec`] — the one little-endian, checksummed record codec shared
//!   by the learning cache, the knowledge store and the wire protocol,
//! * [`failpoints`] — the fault-injection registry the codec's I/O sites
//!   (and the engine's and service's) check.
//!
//! The crate is deliberately free of query semantics: predicates and
//! expressions live in `skinner-query`, execution in `skinner-engine` and
//! `skinner-simdb`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod catalog;
pub mod codec;
pub mod column;
pub mod error;
pub mod failpoints;
pub mod hash;
pub mod index;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use column::{f64_key, fused_join_key, Column, ColumnBuilder};
pub use error::StorageError;
pub use hash::{FxHashMap, FxHashSet};
pub use index::HashIndex;
pub use table::{ColumnDef, Schema, Table};
pub use value::{days_from_ymd, parse_date, Value, ValueType};

/// Row identifier within a single table (32 bits: tables in this system are
/// main-memory resident and comfortably below 4 B rows).
pub type RowId = u32;
