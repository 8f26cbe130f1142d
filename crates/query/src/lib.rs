//! # skinner-query
//!
//! The query and expression layer of SkinnerDB-rs.
//!
//! SkinnerDB evaluates select-project-join (SPJ) queries with aggregation,
//! grouping and sorting handled in a post-processing step (§4 of the
//! paper), and explicitly supports *user-defined function* predicates —
//! black boxes that no optimizer statistics can see through, which is one
//! of the paper's headline scenarios (TPC-H with UDFs, the UDF torture
//! benchmark).
//!
//! This crate defines:
//!
//! * [`Expr`] — scalar expressions over table columns, including
//!   [`Udf`] black-box predicates with per-call cost hints,
//! * [`Query`] — a resolved SPJ(+aggregation) query over a catalog,
//! * [`JoinGraph`] — connectivity structure driving the §4.2 rule that
//!   join orders avoid Cartesian products unless unavoidable,
//! * [`QueryBuilder`] — a typed fluent API for constructing queries,
//! * [`parse`] — a small SQL dialect covering every query
//!   shape used in the paper's evaluation,
//! * [`TemplateKey`] — normalized query-template fingerprints
//!   (constants stripped) keying the service layer's cross-query
//!   learning cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod compile;
pub mod error;
pub mod expr;
pub mod fingerprint;
pub mod join_graph;
pub mod parser;
pub mod query;
pub mod template;
pub mod udf;

pub use builder::QueryBuilder;
pub use compile::{compile_predicates, BoundPred, CompiledPred, TupleContext, UdfArg};
pub use error::QueryError;
pub use expr::{BinOp, ColRef, Expr, RowContext, TableSet, UnOp};
pub use fingerprint::{join_edges, table_fingerprint, JoinEdge};
pub use join_graph::JoinGraph;
pub use parser::parse;
pub use query::{Agg, AggFunc, OrderKey, Query, SelectItem, TableBinding};
pub use template::TemplateKey;
pub use udf::{Udf, UdfRegistry};

/// Index of a table within a query's FROM list.
pub type TableId = usize;
