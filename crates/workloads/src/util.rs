//! Generator utilities: skewed distributions and UDF wrapping.

use rand::rngs::SmallRng;
use rand::Rng;
use skinner_query::{ColRef, Expr, RowContext, Udf};
use skinner_storage::Value;

/// Sample from a Zipf-like distribution over `0..n` with exponent `s`
/// (inverse-CDF approximation; deterministic given the RNG).
pub(crate) fn zipf(rng: &mut SmallRng, n: usize, s: f64) -> usize {
    debug_assert!(n > 0);
    // Inverse transform on the continuous approximation of the Zipf CDF.
    let u: f64 = rng.gen_range(0.0..1.0);
    if (s - 1.0).abs() < 1e-9 {
        let h = (n as f64).ln();
        return ((u * h).exp() - 1.0).clamp(0.0, (n - 1) as f64) as usize;
    }
    let e = 1.0 - s;
    let h_n = ((n as f64).powf(e) - 1.0) / e;
    let x = (1.0 + u * h_n * e).powf(1.0 / e) - 1.0;
    (x.clamp(0.0, (n - 1) as f64)) as usize
}

/// Wrap a (single- or multi-table) predicate expression into an opaque
/// UDF call with identical semantics. The optimizer sees a black box with
/// default selectivity; execution burns `cost` work units per call — the
/// paper's recipe for the TPC-UDF variant and the torture benchmarks.
pub(crate) fn wrap_predicate_as_udf(name: &str, expr: &Expr, cost: u32) -> Expr {
    let mut refs: Vec<ColRef> = Vec::new();
    expr.col_refs(&mut refs);
    refs.sort_by_key(|c| (c.table, c.column));
    refs.dedup();

    struct ArgsCtx<'a> {
        refs: &'a [ColRef],
        args: &'a [Value],
    }
    impl RowContext for ArgsCtx<'_> {
        fn value(&self, col: ColRef) -> Value {
            let i = self
                .refs
                .iter()
                .position(|r| *r == col)
                .expect("column captured by UDF wrapper");
            self.args[i].clone()
        }
    }

    let inner = expr.clone();
    let captured = refs.clone();
    let udf = Udf::with_cost(name, cost, move |args: &[Value]| {
        let ctx = ArgsCtx {
            refs: &captured,
            args,
        };
        Value::from(inner.eval_predicate(&ctx))
    });
    Expr::Udf {
        udf,
        args: refs.into_iter().map(Expr::Col).collect(),
    }
}

/// Always-true black-box join predicate between two columns ("bad"
/// predicate of the UDF torture benchmark).
pub(crate) fn udf_always_true(name: &str, a: ColRef, b: ColRef, cost: u32) -> Expr {
    Expr::Udf {
        udf: Udf::with_cost(name, cost, |_| Value::Int(1)),
        args: vec![Expr::Col(a), Expr::Col(b)],
    }
}

/// Never-true black-box join predicate ("good" predicate: the join
/// result is empty, so starting with this edge finishes instantly).
pub(crate) fn udf_always_false(name: &str, a: ColRef, b: ColRef, cost: u32) -> Expr {
    Expr::Udf {
        udf: Udf::with_cost(name, cost, |_| Value::Int(0)),
        args: vec![Expr::Col(a), Expr::Col(b)],
    }
}

/// Equality as an opaque UDF (trivial-optimization benchmark: "UDF
/// equality predicates").
pub(crate) fn udf_equality(name: &str, a: ColRef, b: ColRef, cost: u32) -> Expr {
    Expr::Udf {
        udf: Udf::with_cost(name, cost, |args: &[Value]| {
            Value::from(args[0].sql_eq(&args[1]) == Some(true))
        }),
        args: vec![Expr::Col(a), Expr::Col(b)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use skinner_query::TupleContext;
    use skinner_storage::{Column, ColumnDef, Schema, Table, ValueType};
    use std::sync::Arc;

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100;
        let mut counts = vec![0usize; n];
        for _ in 0..20_000 {
            let v = zipf(&mut rng, n, 1.2);
            assert!(v < n);
            counts[v] += 1;
        }
        // heavy head: rank 0 much more frequent than rank 50
        assert!(counts[0] > 10 * counts[50].max(1), "{:?}", &counts[..5]);
    }

    #[test]
    fn wrapped_udf_matches_original() {
        let t = Arc::new(
            Table::new(
                "t",
                Schema::new([ColumnDef::new("x", ValueType::Int)]),
                vec![Column::from_ints(vec![1, 5, 9])],
            )
            .unwrap(),
        );
        let tables = vec![t];
        let orig = Expr::col(0, 0).gt(Expr::lit(4));
        let wrapped = wrap_predicate_as_udf("w", &orig, 10);
        assert!(wrapped.contains_udf());
        for r in 0..3u32 {
            let rows = [r];
            let ctx = TupleContext {
                rows: &rows,
                tables: &tables,
            };
            assert_eq!(
                orig.eval_predicate(&ctx),
                wrapped.eval_predicate(&ctx),
                "row {r}"
            );
        }
    }

    #[test]
    fn udf_constants() {
        let a = ColRef {
            table: 0,
            column: 0,
        };
        let b = ColRef {
            table: 1,
            column: 0,
        };
        let t = udf_always_true("t", a, b, 0);
        let f = udf_always_false("f", a, b, 0);
        // evaluate with a dummy context
        let ctx = |_c: ColRef| Value::Int(7);
        assert!(t.eval_predicate(&ctx));
        assert!(!f.eval_predicate(&ctx));
        let eq = udf_equality("e", a, b, 0);
        assert!(eq.eval_predicate(&ctx));
    }
}
