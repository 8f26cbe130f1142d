//! Query-template normalization for cross-query learning reuse.
//!
//! SkinnerDB's learned join-order knowledge (the UCT tree, the set of
//! bound order plans) depends on the *shape* of a query — which tables
//! are joined, how they connect, which predicate forms filter them — but
//! not on the literal constants. Skinner-C's own design caches per-query
//! learning (§6 discusses per-query-template compiled code); the service
//! layer generalizes that across executions: two queries with the same
//! [`TemplateKey`] can share a learning-cache entry, so a repeated
//! template warm-starts instead of re-exploring from scratch.
//!
//! Normalization rules:
//!
//! * **Tables** — catalog table names in FROM order (aliases are
//!   irrelevant; FROM order matters because [`TableId`](crate::TableId)s
//!   index into it and the learned orders are sequences of those ids).
//! * **Predicates** — each WHERE conjunct is rendered structurally with
//!   every literal constant replaced by `?` (`IN` lists collapse to one
//!   `?`, `LIKE` patterns and `BETWEEN` bounds are stripped the same
//!   way); the rendered conjuncts are sorted so conjunct order does not
//!   split templates.
//! * **Everything else is ignored** — SELECT list, GROUP BY, ORDER BY,
//!   DISTINCT and LIMIT do not affect join-order learning, so queries
//!   differing only there deliberately share a template.
//!
//! Sharing across different constants is a heuristic: constants change
//! selectivities, so a warm-started UCT tree may begin from priors that
//! are slightly wrong for the new constants. That is safe — the tree
//! keeps learning during execution and corrects itself — and it is the
//! entire point of regret-bounded evaluation that bad priors cost
//! bounded extra slices, never wrong results.

use crate::expr::Expr;
use crate::query::Query;
use std::fmt;
use std::hash::Hash;

/// Normalized identity of a query template: join graph + predicate
/// shape, constants stripped. Cheap to hash and compare; the canonical
/// string is kept for logging and cache introspection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    canonical: String,
}

impl TemplateKey {
    /// Compute the template key of `query`.
    pub fn of(query: &Query) -> TemplateKey {
        let tables: Vec<&str> = query.tables.iter().map(|b| b.table.name()).collect();
        let mut preds: Vec<String> = query.predicates.iter().map(shape_of).collect();
        preds.sort_unstable();
        TemplateKey {
            canonical: format!("[{}]|{}", tables.join(","), preds.join("&")),
        }
    }

    /// Reconstruct a key from a stored canonical form (the learning
    /// cache's persistence format round-trips keys as their canonical
    /// strings). The string is trusted as-is: a mangled form simply
    /// names a template no live query will ever hash to, so the worst a
    /// corrupt record can do is occupy a cache slot until eviction.
    pub fn from_canonical(canonical: String) -> TemplateKey {
        TemplateKey { canonical }
    }

    /// The canonical normalized form (for logs and cache dumps).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }
}

impl fmt::Display for TemplateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical)
    }
}

/// Render the structural shape of one predicate expression, replacing
/// every constant with `?`.
fn shape_of(e: &Expr) -> String {
    let mut out = String::new();
    render(e, &mut out);
    out
}

fn render(e: &Expr, out: &mut String) {
    match e {
        Expr::Literal(_) => out.push('?'),
        Expr::Col(c) => {
            out.push('t');
            out.push_str(&c.table.to_string());
            out.push('.');
            out.push('c');
            out.push_str(&c.column.to_string());
        }
        Expr::Binary { op, left, right } => {
            out.push('(');
            render(left, out);
            out.push_str(&format!("{op:?}"));
            render(right, out);
            out.push(')');
        }
        Expr::Unary { op, expr } => {
            out.push_str(&format!("{op:?}("));
            render(expr, out);
            out.push(')');
        }
        Expr::Udf { udf, args } => {
            out.push_str(&udf.name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(a, out);
            }
            out.push(')');
        }
        Expr::InList { expr, .. } => {
            render(expr, out);
            // List contents and length are constants: strip both.
            out.push_str(" in(?)");
        }
        Expr::Like { expr, negated, .. } => {
            render(expr, out);
            out.push_str(if *negated { " !like ?" } else { " like ?" });
        }
        Expr::IsNull { expr, negated } => {
            render(expr, out);
            out.push_str(if *negated { " notnull" } else { " isnull" });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, Value, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            cat.register(
                Table::new(
                    name,
                    Schema::new([
                        ColumnDef::new("k", ValueType::Int),
                        ColumnDef::new("v", ValueType::Int),
                    ]),
                    vec![
                        Column::from_ints(vec![1, 2, 3]),
                        Column::from_ints(vec![10, 20, 30]),
                    ],
                )
                .unwrap(),
            );
        }
        cat
    }

    fn query(cat: &Catalog, threshold: i64, flip: bool) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        let f = qb.col("a.v").unwrap().lt(Expr::lit(threshold));
        // Conjunct order must not matter.
        if flip {
            qb.filter(f);
            qb.filter(j);
        } else {
            qb.filter(j);
            qb.filter(f);
        }
        qb.select_col("a.v").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn constants_and_conjunct_order_stripped() {
        let cat = catalog();
        let a = TemplateKey::of(&query(&cat, 5, false));
        let b = TemplateKey::of(&query(&cat, 9_999, true));
        assert_eq!(a, b);
        assert!(a.canonical().contains('?'));
        assert!(!a.canonical().contains("9999"));
    }

    #[test]
    fn different_join_shapes_split_templates() {
        let cat = catalog();
        let base = TemplateKey::of(&query(&cat, 5, false));

        // Different comparison operator → different template.
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        let f = qb.col("a.v").unwrap().gt(Expr::lit(5));
        qb.filter(j);
        qb.filter(f);
        qb.select_col("a.v").unwrap();
        let other = TemplateKey::of(&qb.build().unwrap());
        assert_ne!(base, other);

        // Different FROM list → different template.
        let mut qb = QueryBuilder::new(&cat);
        qb.table("b").unwrap();
        qb.table("a").unwrap();
        let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        qb.filter(j);
        qb.select_col("a.v").unwrap();
        let swapped = TemplateKey::of(&qb.build().unwrap());
        assert_ne!(base, swapped);
    }

    #[test]
    fn select_and_limit_do_not_split_templates() {
        let cat = catalog();
        let mut q1 = query(&cat, 5, false);
        let mut q2 = query(&cat, 5, false);
        q1.limit = Some(3);
        q2.distinct = true;
        assert_eq!(TemplateKey::of(&q1), TemplateKey::of(&q2));
    }

    #[test]
    fn in_list_length_stripped() {
        let cat = catalog();
        let mk = |vals: Vec<i64>| {
            let mut qb = QueryBuilder::new(&cat);
            qb.table("a").unwrap();
            qb.table("b").unwrap();
            let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
            let f = qb
                .col("a.v")
                .unwrap()
                .in_list(vals.into_iter().map(Value::Int).collect());
            qb.filter(j);
            qb.filter(f);
            qb.select_col("a.v").unwrap();
            TemplateKey::of(&qb.build().unwrap())
        };
        assert_eq!(mk(vec![1]), mk(vec![1, 2, 3, 4]));
    }
}
