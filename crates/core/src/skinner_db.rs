//! The unified SkinnerDB facade.
//!
//! Bundles a variant (Skinner-C / Skinner-G / Skinner-H) with the shared
//! post-processor behind one `execute` call, and provides [`run_engine`]
//! to run a plain simulated engine end-to-end for baseline comparisons.

use crate::fold::MinMaxFold;
use crate::postprocess::postprocess;
use crate::result::ResultTable;
use crate::skinner_h::PlanSource;
use crate::{skinner_g, skinner_h};
use skinner_engine::{
    ExecMetrics, RunOptions, SkinnerC, SkinnerCConfig, SkinnerOutcome, StopReason,
};
use skinner_query::{Query, TableId};
use skinner_simdb::exec::ExecOptions;
use skinner_simdb::Engine;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which SkinnerDB variant executes the join phase.
pub enum Variant {
    /// Skinner-C: the customized execution engine (§4.5).
    C(SkinnerCConfig),
    /// Skinner-G on top of a generic engine (§4.3).
    G(Arc<dyn Engine>),
    /// Skinner-H hybrid on top of a generic engine (§4.4).
    H(Arc<dyn Engine>),
}

/// Statistics of one query execution.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// End-to-end wall time.
    pub total: Duration,
    /// Join-phase wall time (incl. pre-processing).
    pub join_phase: Duration,
    /// Post-processing wall time.
    pub postprocess: Duration,
    /// Distinct join result tuples (before post-processing). A
    /// Skinner-C run that folded a global MIN/MAX counts emitted tuples
    /// instead, duplicates included (see [`MinMaxFold`]).
    pub result_count: u64,
    /// Time slices (C) or engine invocations (G/H).
    pub slices: u64,
    /// Final/learned join order, when available.
    pub final_order: Option<Vec<TableId>>,
    /// Which path finished (H only).
    pub plan_source: Option<PlanSource>,
    /// Measured intermediate-result cardinality (engines only; Skinner-C
    /// has no materialized intermediates by construction).
    pub cout: Option<u64>,
    /// Why the Skinner-C join phase stopped (C only): `Completed`, or
    /// `RowTarget` when LIMIT pushdown ended the join early.
    pub stop: Option<StopReason>,
    /// Served through the service layer's template cache (the query's
    /// normalized template had a live cache entry).
    pub cache_hit: bool,
    /// The execution warm-started from cached learned state (UCT tree
    /// snapshot + pre-bound orders) instead of exploring from scratch.
    pub warm_start: bool,
    /// The execution had no exact-template cache entry but its cold UCT
    /// tree was seeded with cross-query knowledge priors (mutually
    /// exclusive with `warm_start`).
    pub prior_seeded: bool,
    /// Detailed Skinner-C metrics (C only).
    pub metrics: Option<ExecMetrics>,
}

/// A materialized result plus execution statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result table.
    pub table: ResultTable,
    /// Execution statistics.
    pub stats: RunStats,
}

impl QueryResult {
    /// Build the result table with `post` after a join phase that
    /// started at `start`: `post`'s time becomes `stats.postprocess`,
    /// the time since `start` becomes `stats.total`.
    pub fn finish(
        start: Instant,
        mut stats: RunStats,
        post: impl FnOnce() -> ResultTable,
    ) -> QueryResult {
        let post_start = Instant::now();
        let table = post();
        stats.postprocess = post_start.elapsed();
        stats.total = start.elapsed();
        QueryResult { table, stats }
    }
}

/// SkinnerDB: regret-bounded query evaluation.
pub struct SkinnerDB {
    variant: Variant,
}

impl Default for SkinnerDB {
    fn default() -> Self {
        SkinnerDB::skinner_c(SkinnerCConfig::default())
    }
}

impl SkinnerDB {
    /// Skinner-C instance.
    pub fn skinner_c(cfg: SkinnerCConfig) -> SkinnerDB {
        SkinnerDB {
            variant: Variant::C(cfg),
        }
    }

    /// Skinner-G instance over `engine`.
    pub fn skinner_g(engine: Arc<dyn Engine>) -> SkinnerDB {
        SkinnerDB {
            variant: Variant::G(engine),
        }
    }

    /// Skinner-H instance over `engine`.
    pub fn skinner_h(engine: Arc<dyn Engine>) -> SkinnerDB {
        SkinnerDB {
            variant: Variant::H(engine),
        }
    }

    /// Execute `query` end to end (join phase + post-processing).
    ///
    /// Skinner-C folds a global MIN/MAX ([`Query::folds_into_min_max`])
    /// into a [`MinMaxFold`] while the join runs; every other query, and
    /// every query on Skinner-G/H, is post-processed from its distinct
    /// join tuples.
    pub fn execute(&self, query: &Query) -> QueryResult {
        let start = Instant::now();
        let (tuples, stats) = match &self.variant {
            Variant::C(cfg) => {
                // LIMIT pushdown: when each distinct join tuple maps to
                // exactly one output row, the join phase stops as soon as
                // `limit` tuples exist instead of materializing fully.
                let opts = RunOptions {
                    target_rows: query.join_limit(),
                    ..Default::default()
                };
                let engine = SkinnerC::new(*cfg);
                if query.folds_into_min_max() {
                    let mut fold = MinMaxFold::new(query);
                    let out = engine.run_into(query, &opts, &mut fold);
                    return QueryResult::finish(start, c_stats(out), || fold.finish());
                }
                let mut out = engine.run_with(query, &opts);
                (std::mem::take(&mut out.tuples), c_stats(out))
            }
            Variant::G(engine) => {
                let out = skinner_g::run(engine.as_ref(), query);
                let stats = RunStats {
                    join_phase: out.wall,
                    result_count: out.result_count,
                    slices: out.iterations,
                    ..Default::default()
                };
                (out.tuples, stats)
            }
            Variant::H(engine) => {
                let out = skinner_h::run(engine.as_ref(), query);
                let stats = RunStats {
                    join_phase: out.wall,
                    result_count: out.result_count,
                    slices: out.learning_iterations + out.traditional_attempts as u64,
                    plan_source: Some(out.source),
                    ..Default::default()
                };
                (out.tuples, stats)
            }
        };
        QueryResult::finish(start, stats, || postprocess(query, &tuples))
    }
}

/// The statistics of a Skinner-C join phase.
fn c_stats(out: SkinnerOutcome) -> RunStats {
    RunStats {
        join_phase: out.metrics.preprocess_time + out.metrics.join_time,
        result_count: out.result_count,
        slices: out.metrics.slices,
        final_order: Some(out.final_order),
        stop: Some(out.stop),
        metrics: Some(out.metrics),
        ..Default::default()
    }
}

/// Run a plain engine end to end (its own optimizer, full execution,
/// shared post-processing). The baseline path for every experiment.
pub fn run_engine(engine: &dyn Engine, query: &Query, opts: &ExecOptions) -> QueryResult {
    let start = Instant::now();
    let out = engine.execute(query, opts);
    let stats = RunStats {
        join_phase: start.elapsed(),
        result_count: out.result_count,
        slices: 1,
        final_order: Some(out.join_order),
        cout: Some(out.intermediate_cardinality),
        ..Default::default()
    };
    QueryResult::finish(start, stats, || postprocess(query, &out.tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{AggFunc, QueryBuilder};
    use skinner_simdb::{ColEngine, RowEngine};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, Value, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mk = |name: &str, keys: Vec<i64>, vals: Vec<i64>| {
            Table::new(
                name,
                Schema::new([
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![Column::from_ints(keys), Column::from_ints(vals)],
            )
            .unwrap()
        };
        cat.register(mk("a", (0..40).map(|i| i % 4).collect(), (0..40).collect()));
        cat.register(mk(
            "b",
            (0..20).map(|i| i % 4).collect(),
            (100..120).collect(),
        ));
        cat
    }

    fn agg_query(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        qb.filter(j);
        let k = qb.col("a.k").unwrap();
        qb.select_expr(k.clone(), "k");
        qb.select_agg(AggFunc::Count, None, "n");
        qb.group_by(k);
        qb.order_by("k", true);
        qb.build().unwrap()
    }

    #[test]
    fn all_variants_agree_with_engine_baseline() {
        let cat = catalog();
        let q = agg_query(&cat);
        let col = Arc::new(ColEngine::new());
        let baseline = run_engine(col.as_ref(), &q, &ExecOptions::default());
        assert_eq!(baseline.table.num_rows(), 4);
        // each key: 10 a-rows × 5 b-rows = 50
        assert_eq!(baseline.table.rows[0][1], Value::Int(50));

        let c = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .execute(&q);
        assert!(c.table.same_rows(&baseline.table), "Skinner-C mismatch");
        assert!(c.stats.final_order.is_some());

        let g = SkinnerDB::skinner_g(col.clone()).execute(&q);
        assert!(g.table.same_rows(&baseline.table), "Skinner-G mismatch");

        let h = SkinnerDB::skinner_h(col).execute(&q);
        assert!(h.table.same_rows(&baseline.table), "Skinner-H mismatch");
        assert!(h.stats.plan_source.is_some());
    }

    #[test]
    fn parallel_skinner_c_matches_sequential_end_to_end() {
        // Full pipeline (pre-process → join → post-process): parallel
        // pre-processing must be invisible to the result table and to
        // the join phase's work.
        let cat = catalog();
        let q = agg_query(&cat);
        let seq = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .execute(&q);
        let par = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 50,
            threads: 4,
            ..Default::default()
        })
        .execute(&q);
        assert!(par.table.same_rows(&seq.table), "parallel mismatch");
        let m = par.stats.metrics.as_ref().expect("C metrics");
        let seq_m = seq.stats.metrics.as_ref().expect("C metrics");
        assert!(m.steps > 0);
        assert_eq!((m.slices, m.steps), (seq_m.slices, seq_m.steps));
    }

    #[test]
    fn limit_pushdown_stops_join_early() {
        let cat = catalog();
        // Plain projection + LIMIT: eligible for pushdown.
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        qb.filter(j);
        qb.select_col("a.v").unwrap();
        qb.limit(5);
        let q = qb.build().unwrap();
        assert_eq!(q.join_limit(), Some(5));
        let r = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 16,
            ..Default::default()
        })
        .execute(&q);
        assert_eq!(r.table.num_rows(), 5);
        assert_eq!(r.stats.stop, Some(StopReason::RowTarget));
        // 200 total join tuples exist; the join phase stopped well short.
        assert!(r.stats.result_count < 200);

        // Aggregation disables pushdown: the full join must run.
        let q = agg_query(&cat);
        assert_eq!(q.join_limit(), None);
        let r = SkinnerDB::skinner_c(SkinnerCConfig::default()).execute(&q);
        assert_eq!(r.stats.stop, Some(StopReason::Completed));
        assert_eq!(r.stats.result_count, 200);
    }

    #[test]
    fn global_min_max_folds_without_a_result_set() {
        let cat = catalog();
        // `cut` 0 filters `a` to nothing: the join phase never starts.
        for cut in [30, 0] {
            let mut qb = QueryBuilder::new(&cat);
            qb.table("a").unwrap();
            qb.table("b").unwrap();
            let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
            let f = qb.col("a.v").unwrap().lt(skinner_query::Expr::lit(cut));
            qb.filter(j);
            qb.filter(f);
            let (av, bv) = (qb.col("a.v").unwrap(), qb.col("b.v").unwrap());
            qb.select_agg(AggFunc::Min, Some(av), "lo");
            qb.select_agg(AggFunc::Max, Some(bv), "hi");
            let q = qb.build().unwrap();
            assert!(q.folds_into_min_max());
            let oracle = run_engine(&ColEngine::new(), &q, &ExecOptions::default());
            let r = SkinnerDB::skinner_c(SkinnerCConfig {
                budget: 16,
                ..Default::default()
            })
            .execute(&q);
            assert_eq!(r.table, oracle.table, "cut {cut}");
            let m = r.stats.metrics.as_ref().expect("C metrics");
            assert_eq!(m.result_bytes, 0);
            // Emitted tuples, duplicates included.
            assert_eq!(r.stats.result_count, m.result_attempts);
            assert!(r.stats.result_count >= oracle.stats.result_count);
        }
    }

    #[test]
    fn row_engine_baseline_matches_col_engine() {
        let cat = catalog();
        let q = agg_query(&cat);
        let a = run_engine(&RowEngine::new(), &q, &ExecOptions::default());
        let b = run_engine(&ColEngine::new(), &q, &ExecOptions::default());
        assert!(a.table.same_rows(&b.table));
        assert!(a.stats.cout.is_some());
    }
}
