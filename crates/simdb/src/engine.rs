//! Engine personalities: the simulated Postgres / MonetDB / ComDB.
//!
//! All three share the left-deep executor ([`crate::exec`]) and the
//! Selinger optimizer ([`crate::optimizer`]). They differ in exactly the
//! dimensions the paper's experiments exercise:
//!
//! * [`RowEngine`] ("PgSim") — row-at-a-time interpretation: generic
//!   expression-tree evaluation and per-tuple value materialization. High
//!   per-tuple cost, like a classic row store.
//! * [`ColEngine`] ("MonetSim") — vectorized: compiled typed predicates,
//!   late-materialized row-id intermediates. Low per-tuple cost, fragile
//!   optimizer — the MonetDB profile of Figure 6.
//! * [`AdaptiveEngine`] ("ComSim") — ColEngine execution plus mid-query
//!   re-optimization: runs under a cardinality envelope derived from its
//!   own estimates and replans with corrected statistics when execution
//!   blows through it (up to a bounded number of restarts, whose wasted
//!   work is charged to the query like any real re-optimizer).

use crate::exec::{run_left_deep, EvalMode, ExecOptions, ExecOutcome, Prefiltered};
use crate::optimizer::{choose_order, choose_order_with};
use crate::stats::StatsCatalog;
use skinner_query::{compile_predicates, Query, TableId};
use std::sync::Mutex;

/// A black-box SQL execution engine, as Skinner-G/H sees it: execute a
/// query (optionally with a forced join order, deadline and batch ranges)
/// and report the outcome.
pub trait Engine: Send + Sync {
    /// Engine display name.
    fn name(&self) -> &str;

    /// The join order this engine's own optimizer picks.
    fn plan(&self, query: &Query) -> Vec<TableId>;

    /// Execute `query` under `opts`.
    fn execute(&self, query: &Query, opts: &ExecOptions) -> ExecOutcome;
}

// ---------------------------------------------------------------------------
// RowEngine
// ---------------------------------------------------------------------------

/// Postgres-like row store (see module docs).
pub struct RowEngine {
    stats: Mutex<StatsCatalog>,
}

impl Default for RowEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RowEngine {
    /// New engine with cold statistics.
    pub fn new() -> RowEngine {
        RowEngine {
            stats: Mutex::new(StatsCatalog::new()),
        }
    }
}

impl Engine for RowEngine {
    fn name(&self) -> &str {
        "PgSim"
    }

    fn plan(&self, query: &Query) -> Vec<TableId> {
        choose_order(query, &mut self.stats.lock().expect("stats lock"))
    }

    fn execute(&self, query: &Query, opts: &ExecOptions) -> ExecOutcome {
        let order = opts.join_order.clone().unwrap_or_else(|| self.plan(query));
        let pre = Prefiltered::compute_interpreted(query);
        run_left_deep(query, &pre, &order, EvalMode::Interpreted, opts, true)
    }
}

// ---------------------------------------------------------------------------
// ColEngine
// ---------------------------------------------------------------------------

/// MonetDB-like vectorized column store (see module docs).
pub struct ColEngine {
    stats: Mutex<StatsCatalog>,
}

impl Default for ColEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ColEngine {
    /// Column engine with an empty statistics cache.
    pub fn new() -> ColEngine {
        ColEngine {
            stats: Mutex::new(StatsCatalog::new()),
        }
    }
}

impl Engine for ColEngine {
    fn name(&self) -> &str {
        "MonetSim"
    }

    fn plan(&self, query: &Query) -> Vec<TableId> {
        choose_order(query, &mut self.stats.lock().expect("stats lock"))
    }

    fn execute(&self, query: &Query, opts: &ExecOptions) -> ExecOutcome {
        let order = opts.join_order.clone().unwrap_or_else(|| self.plan(query));
        let preds = compile_predicates(query);
        let pre = Prefiltered::compute(query, &preds);
        run_left_deep(query, &pre, &order, EvalMode::Compiled, opts, false)
    }
}

// ---------------------------------------------------------------------------
// AdaptiveEngine
// ---------------------------------------------------------------------------

/// ComDB-like engine with mid-query re-optimization (see module docs).
pub struct AdaptiveEngine {
    stats: Mutex<StatsCatalog>,
    /// Cardinality envelope: replan when execution produces more than
    /// `envelope_factor ×` the estimated total intermediate volume.
    pub(crate) envelope_factor: f64,
    /// Maximum number of replans before running uncapped.
    pub(crate) max_replans: usize,
}

impl Default for AdaptiveEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveEngine {
    /// Engine with default envelope (8×) and 2 replans.
    pub fn new() -> AdaptiveEngine {
        AdaptiveEngine {
            stats: Mutex::new(StatsCatalog::new()),
            envelope_factor: 8.0,
            max_replans: 2,
        }
    }
}

impl Engine for AdaptiveEngine {
    fn name(&self) -> &str {
        "ComSim"
    }

    fn plan(&self, query: &Query) -> Vec<TableId> {
        choose_order(query, &mut self.stats.lock().expect("stats lock"))
    }

    fn execute(&self, query: &Query, opts: &ExecOptions) -> ExecOutcome {
        use crate::estimator::Estimator;
        use skinner_query::TableSet;

        if let Some(order) = &opts.join_order {
            // Forced order: behave like the column engine.
            let preds = compile_predicates(query);
            let pre = Prefiltered::compute(query, &preds);
            return run_left_deep(query, &pre, order, EvalMode::Compiled, opts, false);
        }

        let mut est = {
            let mut stats = self.stats.lock().expect("stats lock");
            Estimator::new(query, &mut stats)
        };
        let preds = compile_predicates(query);
        let pre = Prefiltered::compute(query, &preds);
        let full = TableSet::all(query.num_tables());
        let mut wasted_cout: u64 = 0;

        for attempt in 0..=self.max_replans {
            let order = choose_order_with(query, &est);
            let estimate = est.subset_card(full).max(1.0);
            let cap = if attempt < self.max_replans {
                Some(((estimate * self.envelope_factor) as u64).max(100_000))
            } else {
                None // final attempt runs to completion
            };
            let mut sub = opts.clone();
            sub.max_intermediate = cap.or(opts.max_intermediate);
            let mut out = run_left_deep(query, &pre, &order, EvalMode::Compiled, &sub, false);
            if out.timed_out {
                out.intermediate_cardinality += wasted_cout;
                return out;
            }
            if !out.blown {
                out.intermediate_cardinality += wasted_cout;
                return out;
            }
            // Envelope blown: charge the wasted work and inflate the
            // estimates (every table's filtered cardinality scaled up, a
            // crude but effective correction that demotes the failing
            // plan's early tables).
            wasted_cout += out.intermediate_cardinality;
            for t in 0..query.num_tables() {
                let measured = pre.card(t) as f64;
                est.set_filtered_card(t, measured);
            }
            // Penalize the prefix the failed plan started with so the
            // replan explores a different shape.
            est.set_filtered_card(order[0], (pre.card(order[0]) as f64) * 4.0);
        }
        unreachable!("final attempt always returns");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::QueryBuilder;
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mk = |name: &str, keys: Vec<i64>| {
            Table::new(
                name,
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints(keys)],
            )
            .unwrap()
        };
        cat.register(mk("a", (0..200).map(|i| i % 20).collect()));
        cat.register(mk("b", (0..300).map(|i| i % 20).collect()));
        cat.register(mk("c", (0..100).map(|i| i % 20).collect()));
        cat
    }

    fn query(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        qb.table("c").unwrap();
        let j1 = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        let j2 = qb.col("b.k").unwrap().eq(qb.col("c.k").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("a.k").unwrap();
        qb.build().unwrap()
    }

    fn expected_count(cat: &Catalog) -> u64 {
        // every key 0..20 appears 10× in a, 15× in b, 5× in c → 20 * 10*15*5
        let _ = cat;
        20 * 10 * 15 * 5
    }

    #[test]
    fn engines_agree_on_result_count() {
        let cat = catalog();
        let q = query(&cat);
        let expected = expected_count(&cat);
        for engine in [
            Box::new(RowEngine::new()) as Box<dyn Engine>,
            Box::new(ColEngine::new()),
            Box::new(AdaptiveEngine::new()),
        ] {
            let out = engine.execute(&q, &ExecOptions::default());
            assert!(out.completed(), "{} did not complete", engine.name());
            assert_eq!(out.result_count, expected, "{} wrong count", engine.name());
        }
    }

    #[test]
    fn forced_order_is_respected() {
        let cat = catalog();
        let q = query(&cat);
        let opts = ExecOptions {
            join_order: Some(vec![2, 1, 0]),
            ..Default::default()
        };
        let out = ColEngine::new().execute(&q, &opts);
        assert_eq!(out.join_order, vec![2, 1, 0]);
        assert_eq!(out.result_count, expected_count(&cat));
    }

    #[test]
    fn plan_is_valid_order() {
        let cat = catalog();
        let q = query(&cat);
        let plan = ColEngine::new().plan(&q);
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}
