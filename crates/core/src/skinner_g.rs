//! Skinner-G: regret-bounded evaluation on a generic engine (§4.3,
//! Algorithm 1).
//!
//! The engine is a black box with an SQL interface ("this approach can be
//! used on top of existing DBMS without changing a single line of their
//! code"). Skinner-G divides each table into `b` batches, and each
//! iteration asks the engine to join *one batch of the left-most table*
//! with the remaining batches of all other tables under a forced join
//! order and a timeout from the [pyramid scheme](crate::pyramid). Success
//! (batch completed before timeout) earns reward 1, failure reward 0; a
//! separate UCT tree is kept per timeout level so that failures at low
//! timeouts don't poison decisions at higher ones.
//!
//! Timed-out invocations lose all their work — intermediate results
//! cannot be recovered from a black-box engine — which is exactly the
//! overhead Skinner-C's custom engine eliminates.

use skinner_query::{compile_predicates, Query};
use skinner_simdb::exec::ExecOptions;
use skinner_simdb::{Engine, Prefiltered};
use skinner_storage::{FxHashMap, RowId};
use skinner_uct::{JoinOrderSpace, UctConfig, UctTree};
use std::time::{Duration, Instant};

use crate::pyramid::PyramidTimeouts;

/// Number of batches `b` per table.
const BATCHES: usize = 10;
/// Atomic time unit: a level-L timeout is `2^L` units. Real deployments
/// use tens of milliseconds to seconds; the simulated engines support
/// much finer units.
const UNIT: Duration = Duration::from_millis(2);
/// UCT exploration weight (paper: √2 for Skinner-G).
const EXPLORATION: f64 = std::f64::consts::SQRT_2;
/// Seed of the per-level UCT trees.
const SEED: u64 = 0x5EED;

/// Final outcome of a Skinner-G run.
#[derive(Debug)]
pub(crate) struct GOutcome {
    /// Result tuples, flat row-major (stride = num tables, FROM order).
    pub(crate) tuples: Vec<RowId>,
    /// Result tuple count.
    pub(crate) result_count: u64,
    /// Engine invocations.
    pub(crate) iterations: u64,
    /// Wall time in the driver loop (includes engine time).
    pub(crate) wall: Duration,
}

/// Resumable Skinner-G execution state (Skinner-H drives this a few
/// iterations at a time and persists it across its own invocations).
pub(crate) struct SkinnerGSession<'e> {
    engine: &'e dyn Engine,
    query: &'e Query,
    batch_size: Vec<usize>,
    num_batches: Vec<usize>,
    /// Completed batches per table (the paper's offset vector `o`).
    offsets: Vec<usize>,
    pyramid: PyramidTimeouts,
    trees: FxHashMap<usize, UctTree<JoinOrderSpace>>,
    space: JoinOrderSpace,
    tuples: Vec<RowId>,
    iterations: u64,
    finished: bool,
    started: Instant,
}

impl<'e> SkinnerGSession<'e> {
    /// Start a session (runs Skinner's pre-processing to size batches).
    pub(crate) fn new(engine: &'e dyn Engine, query: &'e Query) -> SkinnerGSession<'e> {
        let preds = compile_predicates(query);
        let pre = Prefiltered::compute(query, &preds);
        let m = query.num_tables();
        // Filtered cardinality per table (Skinner's own pre-processing).
        let cards: Vec<usize> = (0..m).map(|t| pre.card(t)).collect();
        let batch_size: Vec<usize> = cards.iter().map(|&c| c.div_ceil(BATCHES).max(1)).collect();
        let num_batches: Vec<usize> = cards
            .iter()
            .zip(&batch_size)
            .map(|(&c, &bs)| c.div_ceil(bs))
            .collect();
        SkinnerGSession {
            engine,
            query,
            batch_size,
            num_batches,
            offsets: vec![0; m],
            pyramid: PyramidTimeouts::new(),
            trees: FxHashMap::default(),
            space: JoinOrderSpace::new(query),
            tuples: Vec::new(),
            iterations: 0,
            finished: cards.contains(&0),
            started: Instant::now(),
        }
    }

    /// Has some table been fully processed (query result complete)?
    pub(crate) fn finished(&self) -> bool {
        self.finished
    }

    /// Execute one iteration of Algorithm 1. Returns the wall time spent.
    pub(crate) fn step(&mut self) -> Duration {
        if self.finished {
            return Duration::ZERO;
        }
        let step_start = Instant::now();
        self.iterations += 1;

        // Select timeout level via the pyramid scheme.
        let (level, units) = self.pyramid.next_timeout();
        let timeout = UNIT * units as u32;

        // Per-level UCT tree.
        let space = &self.space;
        let tree = self.trees.entry(level).or_insert_with(|| {
            UctTree::new(
                space.clone(),
                UctConfig {
                    exploration: EXPLORATION,
                    seed: SEED ^ (level as u64).wrapping_mul(0x9e37),
                },
            )
        });
        let order = tree.choose();

        // Batch ranges: one batch of the left-most table, the remaining
        // batches of every other table.
        let t0 = order[0];
        let mut ranges = Vec::with_capacity(self.query.num_tables());
        for t in 0..self.query.num_tables() {
            let lo = self.offsets[t] * self.batch_size[t];
            if t == t0 {
                ranges.push(lo..lo + self.batch_size[t]);
            } else {
                ranges.push(lo..usize::MAX);
            }
        }

        let opts = ExecOptions {
            join_order: Some(order.clone()),
            deadline: Some(Instant::now() + timeout),
            ranges: Some(ranges),
            ..Default::default()
        };
        let out = self.engine.execute(self.query, &opts);

        let reward = if out.completed() { 1.0 } else { 0.0 };
        if out.completed() {
            self.tuples.extend(out.tuples);
            self.offsets[t0] += 1;
            if self.offsets[t0] >= self.num_batches[t0] {
                self.finished = true;
            }
        }
        if let Some(tree) = self.trees.get_mut(&level) {
            tree.update(&order, reward);
        }
        step_start.elapsed()
    }

    /// Finish into an outcome (callable any time; `finished` tells
    /// whether the result is complete).
    pub(crate) fn outcome(self) -> GOutcome {
        let m = self.query.num_tables();
        GOutcome {
            result_count: (self.tuples.len() / m.max(1)) as u64,
            tuples: self.tuples,
            iterations: self.iterations,
            wall: self.started.elapsed(),
        }
    }
}

/// Run Skinner-G on `engine` to completion (Algorithm 1's outer loop).
pub(crate) fn run(engine: &dyn Engine, query: &Query) -> GOutcome {
    let mut session = SkinnerGSession::new(engine, query);
    while !session.finished() {
        session.step();
    }
    session.outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::QueryBuilder;
    use skinner_simdb::{ColEngine, RowEngine};
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
        cat.register(mk("a", (0..60).map(|i| i % 6).collect()));
        cat.register(mk("b", (0..40).map(|i| i % 6).collect()));
        cat.register(mk("c", (0..20).map(|i| i % 6).collect()));
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

    fn expected(cat: &Catalog, q: &Query) -> u64 {
        let _ = cat;
        let out = ColEngine::new().execute(q, &ExecOptions::default());
        out.result_count
    }

    #[test]
    fn skinner_g_complete_and_correct_on_col_engine() {
        let cat = catalog();
        let q = query(&cat);
        let want = expected(&cat, &q);
        let engine = ColEngine::new();
        let out = run(&engine, &q);
        assert_eq!(out.result_count, want);
        assert!(out.iterations > 0);
        // Theorem 5.1: no duplicates across batches.
        let mut set = std::collections::HashSet::new();
        for t in out.tuples.chunks_exact(3) {
            assert!(set.insert(t.to_vec()), "duplicate tuple {t:?}");
        }
    }

    #[test]
    fn skinner_g_on_row_engine() {
        let cat = catalog();
        let q = query(&cat);
        let want = expected(&cat, &q);
        let engine = RowEngine::new();
        let out = run(&engine, &q);
        assert_eq!(out.result_count, want);
    }

    #[test]
    fn session_is_resumable() {
        let cat = catalog();
        let q = query(&cat);
        let want = expected(&cat, &q);
        let engine = ColEngine::new();
        let mut session = SkinnerGSession::new(&engine, &q);
        // drive manually in small bursts
        let mut bursts = 0;
        while !session.finished() {
            for _ in 0..3 {
                if session.finished() {
                    break;
                }
                session.step();
            }
            bursts += 1;
            assert!(bursts < 10_000, "non-terminating");
        }
        let out = session.outcome();
        assert_eq!(out.result_count, want);
    }

    #[test]
    fn empty_table_finishes_immediately() {
        let mut cat = catalog();
        cat.register(
            Table::new(
                "empty",
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints(vec![])],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.table("empty").unwrap();
        let j = qb.col("a.k").unwrap().eq(qb.col("empty.k").unwrap());
        qb.filter(j);
        qb.select_col("a.k").unwrap();
        let q = qb.build().unwrap();
        let engine = ColEngine::new();
        let out = run(&engine, &q);
        assert_eq!(out.result_count, 0);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn best_order_available_after_steps() {
        let cat = catalog();
        let q = query(&cat);
        let engine = ColEngine::new();
        let mut session = SkinnerGSession::new(&engine, &q);
        assert!(session.trees.is_empty());
        session.step();
        let tree = session
            .trees
            .values_mut()
            .next()
            .expect("tree after first step");
        let mut sorted = tree.best_path();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}
