//! Sampling-based query re-optimization (Wu et al., SIGMOD 2016).
//!
//! Before committing to a plan, the re-optimizer *validates* the
//! optimizer's cardinality estimates: it executes the candidate plan on a
//! sample of the left-most table, compares the measured per-step
//! cardinalities against the estimates (scaled by the sampling fraction),
//! installs correction factors for the mis-estimated prefixes, and
//! re-optimizes. The loop stops when the plan is stable or after a
//! bounded number of rounds; the final plan executes in full.
//!
//! This repairs *moderate* misestimates well. It inherits the weakness
//! the paper points out for all optimizer-repair methods: when the
//! initial plan is catastrophically wrong (black-box UDFs, extreme
//! correlation), sampling along that plan is itself expensive and the
//! correction signal arrives late (Figures 9/10).

use skinner_query::{compile_predicates, Query, TableSet};
use skinner_simdb::estimator::Estimator;
use skinner_simdb::exec::{run_left_deep, EvalMode, ExecOptions, ExecOutcome, Prefiltered};
use skinner_simdb::optimizer::choose_order_with;
use skinner_simdb::stats::StatsCatalog;

/// Fraction of the left-most table sampled per validation run.
const SAMPLE_FRACTION: f64 = 0.05;
/// Maximum validate/re-optimize rounds.
const MAX_ROUNDS: usize = 3;
/// Estimate/measurement ratio beyond which a step counts as
/// mis-estimated.
const TOLERANCE: f64 = 4.0;

/// The sampling-based re-optimizer.
pub struct Reoptimizer;

impl Reoptimizer {
    /// Optimize (with sampling validation), then execute fully.
    /// `opts.join_order` is ignored — choosing the order is the point.
    pub fn run(&self, query: &Query, opts: &ExecOptions) -> ExecOutcome {
        let mut stats = StatsCatalog::new();
        let mut est = Estimator::new(query, &mut stats);
        let preds = compile_predicates(query);
        let pre = Prefiltered::compute(query, &preds);
        let m = query.num_tables();

        let mut order = choose_order_with(query, &est);
        for _round in 0..MAX_ROUNDS {
            let first = order[0];
            let total = pre.card(first);
            let sample = ((total as f64 * SAMPLE_FRACTION).ceil() as usize).clamp(1, total.max(1));
            if total == 0 {
                break;
            }
            let mut ranges = vec![0..usize::MAX; m];
            ranges[first] = 0..sample;
            let sample_opts = ExecOptions {
                join_order: Some(order.clone()),
                ranges: Some(ranges),
                count_only: true,
                deadline: opts.deadline,
                ..Default::default()
            };
            let probe = run_left_deep(query, &pre, &order, EvalMode::Compiled, &sample_opts, false);
            if !probe.completed() {
                break; // deadline hit during sampling: fall through
            }
            // Scale measured step cardinalities up by the sample fraction
            // and install corrections where the estimate is off.
            let scale = total as f64 / sample as f64;
            let mut prefix = TableSet::EMPTY;
            let mut corrected = false;
            for (i, &t) in order.iter().enumerate() {
                prefix.insert(t);
                if i == 0 {
                    continue; // base cardinality is exact
                }
                let measured = probe.step_cards.get(i).copied().unwrap_or(0) as f64 * scale;
                let estimated = est.subset_card(prefix);
                let ratio = (measured.max(1.0) / estimated.max(1.0))
                    .max(estimated.max(1.0) / measured.max(1.0));
                if ratio > TOLERANCE {
                    est.correct_subset(prefix, measured);
                    corrected = true;
                }
            }
            if !corrected {
                break; // estimates validated: plan is trustworthy
            }
            let new_order = choose_order_with(query, &est);
            if new_order == order {
                break; // plan stable under corrected estimates
            }
            order = new_order;
        }

        let final_opts = ExecOptions {
            join_order: Some(order.clone()),
            ..opts.clone()
        };
        run_left_deep(query, &pre, &order, EvalMode::Compiled, &final_opts, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::QueryBuilder;
    use skinner_simdb::{ColEngine, Engine};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    /// Catalog with a correlation trap: the estimator believes `big`
    /// filters to few rows (two correlated predicates), but it actually
    /// keeps many. Sampling reveals the join blow-up.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let n = 2000i64;
        let a: Vec<i64> = (0..n).map(|i| i % 10).collect();
        cat.register(
            Table::new(
                "big",
                Schema::new([
                    ColumnDef::new("x", ValueType::Int),
                    ColumnDef::new("y", ValueType::Int),
                    ColumnDef::new("k", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(a.clone()),
                    Column::from_ints(a.clone()), // perfectly correlated
                    Column::from_ints((0..n).map(|i| i % 50).collect()),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "dim",
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints((0..50).collect())],
            )
            .unwrap(),
        );
        cat
    }

    fn query(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("big").unwrap();
        qb.table("dim").unwrap();
        let j = qb.col("big.k").unwrap().eq(qb.col("dim.k").unwrap());
        let f1 = qb.col("big.x").unwrap().eq(skinner_query::Expr::lit(3));
        let f2 = qb.col("big.y").unwrap().eq(skinner_query::Expr::lit(3));
        qb.filter(j);
        qb.filter(f1);
        qb.filter(f2);
        qb.select_col("big.k").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn reoptimizer_is_correct() {
        let cat = catalog();
        let q = query(&cat);
        let expected = ColEngine::new()
            .execute(&q, &ExecOptions::default())
            .result_count;
        let out = Reoptimizer.run(&q, &ExecOptions::default());
        assert!(out.completed());
        assert_eq!(out.result_count, expected);
    }

    #[test]
    fn corrections_change_estimates() {
        let cat = catalog();
        let q = query(&cat);
        let mut stats = StatsCatalog::new();
        let mut est = Estimator::new(&q, &mut stats);
        let s: TableSet = [0usize, 1].into_iter().collect();
        let before = est.subset_card(s);
        est.correct_subset(s, before * 10.0);
        let after = est.subset_card(s);
        assert!((after / before - 10.0).abs() < 0.01, "{before} -> {after}");
        // idempotent recalibration
        est.correct_subset(s, before * 10.0);
        assert!((est.subset_card(s) / before - 10.0).abs() < 0.01);
    }
}
