//! Skinner-C main loop (Algorithm 3).
//!
//! ```text
//! while not finished:
//!     j ← UctChoice(T)
//!     s ← RestoreState(j, o, S); s_prior ← s
//!     finished ← ContinueJoin(q, j, o, b, s, R)
//!     RewardUpdate(T, j, Reward(s − s_prior, j))
//!     ⟨o, S⟩ ← BackupState(j, s, o, S)
//! ```
//!
//! `Reward` is the slice's progress through the candidates the compiled
//! kernel visits ([`crate::reward`]). Join orders are chosen by UCT with
//! a very small exploration weight (`w = 1e-6`; the fine-grained reward
//! makes exploitation safe), or — for the Table 5 ablation — uniformly
//! at random.

use crate::metrics::ExecMetrics;
use crate::multiway::{Collector, ContinueResult, LimitSink, MultiwayJoin, ResultSet};
use crate::prepare::PreparedQuery;
use crate::progress::ProgressTracker;
use crate::reward::slice_reward;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skinner_codegen::{CompiledKernel, KernelCache};
use skinner_pool::WorkerPool;
use skinner_query::{Query, TableId};
use skinner_storage::{FxHashMap, RowId};
use skinner_uct::{ArmPriors, JoinOrderSpace, SearchSpace, TreeSnapshot, UctConfig, UctTree};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Join-order selection policy (Table 5 compares Original=UCT against
/// Random).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// UCT learning (the SkinnerDB default).
    #[default]
    Uct,
    /// Uniform random valid order each slice (ablation baseline).
    Random,
}

/// Configuration of the Skinner-C engine.
#[derive(Debug, Clone, Copy)]
pub struct SkinnerCConfig {
    /// Step budget `b` per time slice (paper default: 500 outer-loop
    /// iterations, i.e. thousands of join-order switches per second).
    pub budget: u64,
    /// UCT exploration weight `w` (paper: 1e-6 for Skinner-C, whose
    /// fine-grained progress reward needs little forced exploration).
    pub exploration: f64,
    /// Build hash indexes on equi-join columns during pre-processing
    /// (Table 6 ablation).
    pub use_indexes: bool,
    /// Pre-processing fan-out: the per-table filter scans run as at most
    /// `threads` morsels on the worker pool (Table 2, as in the paper's
    /// implementation). The join phase is single-threaded, as in the
    /// paper, so this changes pre-processing wall time only — tuples,
    /// steps, slices and the learned order are the same at any value.
    pub threads: usize,
    /// Order selection policy (UCT, or uniform random for the Table 5
    /// ablation).
    pub policy: OrderPolicy,
    /// RNG seed (UCT tie-breaking / random policy).
    pub seed: u64,
}

impl Default for SkinnerCConfig {
    fn default() -> Self {
        SkinnerCConfig {
            budget: 500,
            exploration: 1e-6,
            use_indexes: true,
            threads: 1,
            policy: OrderPolicy::Uct,
            seed: 0x5EED,
        }
    }
}

/// Why a Skinner-C run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// The join ran to completion: the result set is the full distinct
    /// join result.
    #[default]
    Completed,
    /// [`RunOptions::target_rows`] distinct tuples were produced (LIMIT
    /// pushdown). The result is a valid LIMIT prefix, not the full join.
    RowTarget,
    /// [`RunOptions::cancel`] was raised between slices. The result is
    /// partial and must be discarded.
    Cancelled,
    /// [`RunOptions::deadline`] passed between slices. The result is
    /// partial and must be discarded.
    DeadlineExceeded,
    /// [`RunOptions::max_result_bytes`] was exceeded at a slice
    /// boundary. The result is a valid distinct prefix of the join —
    /// usable when a LIMIT made a prefix acceptable, otherwise the
    /// caller should fail the query cleanly instead of letting the
    /// arena grow until the OS kills the process.
    MemoryExceeded,
}

/// Per-run controls beyond the engine configuration: cross-execution
/// learning state in and out, cooperative cancellation, and sink-driven
/// early exit. `RunOptions::default()` reproduces the plain
/// [`SkinnerC::run`] behaviour exactly.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Warm-start the UCT tree from a prior execution of the same query
    /// template (see `skinner_query::TemplateKey`). Ignored when the
    /// snapshot does not match this query's join-order space.
    pub prior: Option<&'a TreeSnapshot<TableId>>,
    /// Seed a *cold* UCT tree with cross-query knowledge priors
    /// (optimistic arm initialization, see `skinner_uct::ArmPriors`).
    /// Only consulted when `prior` is absent — an exact-template
    /// snapshot always beats coarse cross-template knowledge. Priors
    /// shift exploration order without pruning, so results are
    /// identical to a cold run's.
    pub arm_priors: Option<&'a ArmPriors<TableId>>,
    /// Join orders to pre-bind into the plan cache (the orders a prior
    /// execution materialized). Non-permutations are skipped.
    pub planned_orders: &'a [Vec<TableId>],
    /// Cooperative cancel flag, checked at every slice boundary.
    pub cancel: Option<&'a AtomicBool>,
    /// Wall-clock deadline, checked at every slice boundary.
    pub deadline: Option<Instant>,
    /// Stop once this many distinct join tuples exist (LIMIT pushdown —
    /// callers must check `Query::join_limit` eligibility first). The
    /// kernel suspends mid-slice on reaching the target.
    pub target_rows: Option<u64>,
    /// Cap on result-materialization bytes (flat tuple arena + dedup
    /// table), checked at every slice boundary like `cancel` and
    /// `deadline`. Exceeding it stops the run with
    /// [`StopReason::MemoryExceeded`]; the tuples produced so far are a
    /// valid distinct prefix. `None` (the default) is unbounded. The cap
    /// counts what the run's sink holds
    /// ([`ResultSink::approx_bytes`](crate::ResultSink::approx_bytes)): a
    /// sink that folds tuples instead of storing them (a global MIN/MAX,
    /// see `SkinnerC::run_into`) holds no arena and never trips.
    pub max_result_bytes: Option<usize>,
    /// Capture a [`LearnedState`] in the outcome for the learning cache.
    pub capture_learning: bool,
    /// Cross-query kernel cache (see `skinner-codegen`): memoizes
    /// kernel-shape resolutions so repeated shapes — including the
    /// pre-bound orders of a warm service-layer template — skip
    /// kernel-construction analysis. `None` resolves shapes locally.
    pub kernel_cache: Option<&'a KernelCache>,
    /// Worker pool executing the pre-processing filter morsels. The
    /// service wires its budget-sized pool here so every query shares
    /// one set of persistent threads; `None` uses the process-wide
    /// global pool. Irrelevant when `threads <= 1` (pre-processing then
    /// runs on the calling thread and never touches a pool).
    pub pool: Option<Arc<WorkerPool>>,
}

/// Learned join-order state captured from one execution, reusable by a
/// later execution of the same query template.
#[derive(Debug, Clone)]
pub struct LearnedState {
    /// The UCT tree at termination.
    pub snapshot: TreeSnapshot<TableId>,
    /// The most-visited (recommended) join order.
    pub best_order: Vec<TableId>,
    /// Every order that was bound into the plan cache.
    pub planned_orders: Vec<Vec<TableId>>,
}

/// Result of a Skinner-C join phase.
#[derive(Debug)]
pub struct SkinnerOutcome {
    /// Distinct result tuples, flat row-major (stride = num tables, slots
    /// in FROM order; values are base row ids). Empty for a run into a
    /// sink that keeps no tuples ([`SkinnerC::run_into`]).
    pub tuples: Vec<RowId>,
    /// Number of query tables (stride).
    pub num_tables: usize,
    /// Distinct result count; for a run into a folding sink, the number
    /// of emitted tuples (duplicates included — such a sink cannot tell
    /// them apart).
    pub result_count: u64,
    /// The most-visited join order at termination (replayed in other
    /// engines for Tables 3/4).
    pub final_order: Vec<TableId>,
    /// Why the run ended ([`StopReason::Completed`] unless a
    /// [`RunOptions`] control fired).
    pub stop: StopReason,
    /// Learned state for the cross-query cache (present iff
    /// [`RunOptions::capture_learning`] was set).
    pub learning: Option<LearnedState>,
    /// Execution metrics.
    pub metrics: ExecMetrics,
}

/// The Skinner-C engine: regret-bounded evaluation of one SPJ query.
pub struct SkinnerC {
    config: SkinnerCConfig,
}

impl Default for SkinnerC {
    fn default() -> Self {
        SkinnerC::new(SkinnerCConfig::default())
    }
}

impl SkinnerC {
    /// Engine with the given configuration.
    pub fn new(config: SkinnerCConfig) -> SkinnerC {
        SkinnerC { config }
    }

    /// Execute the join phase of `query` (pre-processing included;
    /// post-processing is the caller's job — see `skinner-core`).
    ///
    /// # Examples
    ///
    /// ```
    /// use skinner_engine::{SkinnerC, SkinnerCConfig};
    /// use skinner_query::QueryBuilder;
    /// use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};
    ///
    /// let mut cat = Catalog::new();
    /// cat.register(Table::new(
    ///     "a",
    ///     Schema::new([ColumnDef::new("id", ValueType::Int)]),
    ///     vec![Column::from_ints(vec![1, 2, 3])],
    /// ).unwrap());
    /// cat.register(Table::new(
    ///     "b",
    ///     Schema::new([ColumnDef::new("a_id", ValueType::Int)]),
    ///     vec![Column::from_ints(vec![1, 1, 3])],
    /// ).unwrap());
    ///
    /// let mut qb = QueryBuilder::new(&cat);
    /// qb.table("a").unwrap();
    /// qb.table("b").unwrap();
    /// let join = qb.col("a.id").unwrap().eq(qb.col("b.a_id").unwrap());
    /// qb.filter(join);
    /// qb.select_col("a.id").unwrap();
    /// let query = qb.build().unwrap();
    ///
    /// // Paper defaults. `threads: 4` would spread the filter scans
    /// // over 4 pool morsels; the join phase is single-threaded.
    /// let out = SkinnerC::new(SkinnerCConfig::default()).run(&query);
    /// assert_eq!(out.result_count, 3);
    /// assert_eq!(out.num_tables, 2);
    /// ```
    pub fn run(&self, query: &Query) -> SkinnerOutcome {
        self.run_with(query, &RunOptions::default())
    }

    /// [`run`](SkinnerC::run) with per-run controls: UCT warm start and
    /// plan pre-binding from a prior execution of the same template,
    /// cooperative cancel / deadline checks at slice boundaries, a
    /// distinct-tuple target for LIMIT pushdown, and capture of the
    /// learned state for the service layer's cross-query cache.
    pub fn run_with(&self, query: &Query, opts: &RunOptions<'_>) -> SkinnerOutcome {
        self.run_into(query, opts, &mut ResultSet::new())
    }

    /// [`run_with`](SkinnerC::run_with), collecting every emitted tuple
    /// into `sink` instead of a fresh [`ResultSet`]. The learner reads
    /// only cursors (see [`crate::reward`]), so slices, steps and the
    /// learned order do not depend on the sink; the outcome's
    /// `result_count`, `tuples` and result metrics are whatever the sink
    /// reports. A sink that folds tuples without deduplicating them
    /// (a global MIN/MAX) reports emitted tuples, not distinct ones.
    pub fn run_into<S: Collector>(
        &self,
        query: &Query,
        opts: &RunOptions<'_>,
        sink: &mut S,
    ) -> SkinnerOutcome {
        let cfg = &self.config;
        let m = query.num_tables();
        // Pool-reuse accounting: the per-run delta of pool thread spawns
        // must be 0 after the pool's one-time warm-up. Both counters are
        // snapshotted so panic-driven worker replacements — which on a
        // shared pool may belong to a *concurrent* query — can be netted
        // out of this run's delta: a run that gets past pre-processing
        // hosted no panicking morsel of its own (a panic would have
        // unwound past us). The metric remains approximate under
        // concurrency — a racing query's pool warm-up is
        // indistinguishable from ours — but is exact for a private pool
        // and in steady state.
        let pool = opts
            .pool
            .clone()
            .or_else(|| (cfg.threads > 1).then(WorkerPool::global));
        let pool_counts = || {
            pool.as_ref()
                .map_or((0, 0), |p| (p.spawned(), p.replaced()))
        };
        let (spawned, replaced) = pool_counts();
        let pq = PreparedQuery::prepare(query, cfg.use_indexes, cfg.threads, pool.as_ref());
        let (spawned_after, replaced_after) = pool_counts();
        let mut metrics = ExecMetrics {
            thread_spawns: (spawned_after - spawned).saturating_sub(replaced_after - replaced),
            preprocess_time: pq.preprocess_time,
            index_bytes: pq.index_bytes(),
            // Selectivity observations for the knowledge store: how many
            // rows of each table survived its unary predicates.
            table_cards: (0..m)
                .map(|t| (pq.cards[t] as u64, query.tables[t].table.num_rows() as u64))
                .collect(),
            ..Default::default()
        };

        if pq.any_empty() || m == 0 {
            return SkinnerOutcome {
                tuples: Vec::new(),
                num_tables: m,
                result_count: 0,
                final_order: (0..m).collect(),
                stop: StopReason::Completed,
                learning: None,
                metrics,
            };
        }

        let join_start = Instant::now();
        let space = JoinOrderSpace::new(query);
        let uct_config = UctConfig {
            exploration: cfg.exploration,
            seed: cfg.seed,
        };
        let mut tree = match (opts.prior, opts.arm_priors) {
            (Some(snapshot), _) => UctTree::with_snapshot(space.clone(), uct_config, snapshot),
            (None, Some(priors)) => UctTree::with_priors(space.clone(), uct_config, priors),
            (None, None) => UctTree::new(space.clone(), uct_config),
        };
        // > 1 means the prior was actually adopted (a mismatched
        // snapshot — or an empty/invalid prior table — falls back to
        // the cold single-node tree).
        metrics.warm_start_nodes = match opts.prior {
            Some(_) if tree.num_nodes() > 1 => tree.num_nodes(),
            _ => 0,
        };
        metrics.prior_seeded_nodes = match (opts.prior, opts.arm_priors) {
            (None, Some(_)) if tree.num_nodes() > 1 => tree.num_nodes() - 1,
            _ => 0,
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
        let mut tracker = ProgressTracker::new(m);
        let mut offsets = vec![0u32; m];
        let mut join = MultiwayJoin::new(&pq);
        // Per-order execution state: the compiled kernel. Bound once per
        // order, reused across every slice.
        let mut plan_cache: FxHashMap<Vec<TableId>, CompiledKernel<'_>> = FxHashMap::default();
        for order in opts.planned_orders {
            if is_permutation(order, m) && !plan_cache.contains_key(order.as_slice()) {
                plan_cache.insert(
                    order.clone(),
                    bind_order(&pq, opts.kernel_cache, order, &mut metrics),
                );
            }
        }

        // Scratch cursor and progress rows owned by the run loop, reused
        // across slices.
        let mut state = vec![0u32; m];
        let mut rows: Vec<RowId> = vec![0; m];

        // Equi-joined table pairs (canonical a < b) for directed
        // precedence-reward capture; `pos` is per-slice scratch mapping
        // table → position in the chosen order.
        let mut edge_pairs: Vec<(TableId, TableId)> = query
            .equi_join_pairs()
            .iter()
            .map(|(ca, cb)| {
                if ca.table < cb.table {
                    (ca.table, cb.table)
                } else {
                    (cb.table, ca.table)
                }
            })
            .collect();
        edge_pairs.sort_unstable();
        edge_pairs.dedup();
        let mut pos = vec![0usize; m];

        // A budget below the walk-down depth could live-lock (the re-walk
        // repeats without advancing); clamp well above it.
        let budget = cfg.budget.max(4 * m as u64);

        let mut finished = false;
        let mut stop = StopReason::Completed;
        while !finished {
            // Cooperative interruption, checked at slice granularity
            // (a slice is bounded by the step budget, so these fire
            // promptly without a hot-loop cost).
            if let Some(cancel) = opts.cancel {
                if cancel.load(Ordering::Relaxed) {
                    stop = StopReason::Cancelled;
                    break;
                }
            }
            if let Some(deadline) = opts.deadline {
                if Instant::now() >= deadline {
                    stop = StopReason::DeadlineExceeded;
                    break;
                }
            }
            // Fault-injection sites (no-ops unless a test armed them):
            // `engine.slice` panics mid-run; `engine.cancel` acts as a
            // client cancellation raised at this slice boundary.
            crate::failpoints::fire("engine.slice");
            if crate::failpoints::check("engine.cancel") == Some(crate::failpoints::Fault::Cancel) {
                stop = StopReason::Cancelled;
                break;
            }

            metrics.slices += 1;
            let order = match cfg.policy {
                OrderPolicy::Uct => tree.choose(),
                OrderPolicy::Random => random_order(&space, &mut rng),
            };
            // Look up by slice first: cloning the order `Vec` only on the
            // first sighting, not on the thousands of cache hits.
            if !plan_cache.contains_key(order.as_slice()) {
                plan_cache.insert(
                    order.clone(),
                    bind_order(&pq, opts.kernel_cache, &order, &mut metrics),
                );
            }
            let kernel = &plan_cache[order.as_slice()];

            tracker.restore_into(&order, &offsets, &mut state);
            let before = kernel.progress(&state, &mut rows);

            metrics.codegen_slices += 1;
            let (res, steps) = match opts.target_rows {
                Some(target) => {
                    let mut limited = LimitSink::new(&mut *sink, target);
                    join.continue_join_compiled(kernel, &offsets, &mut state, budget, &mut limited)
                }
                None => join.continue_join_compiled(kernel, &offsets, &mut state, budget, sink),
            };
            metrics.steps += steps;

            if res == ContinueResult::Exhausted {
                // Left-most table completely processed ⇒ result complete.
                let t0 = order[0];
                offsets[t0] = pq.cards[t0];
                state[t0] = pq.cards[t0];
                finished = true;
            } else {
                // Tuples before the left-most cursor are fully expanded.
                let t0 = order[0];
                offsets[t0] = offsets[t0].max(state[t0]);
            }

            if cfg.policy == OrderPolicy::Uct {
                let after = kernel.progress(&state, &mut rows);
                let r = slice_reward(before, after);
                tree.update(&order, r);
                // Knowledge capture: credit this slice's reward to the
                // precedence direction each join edge ran under.
                for (i, &t) in order.iter().enumerate() {
                    pos[t] = i;
                }
                for &(a, b) in &edge_pairs {
                    let key = if pos[a] < pos[b] { (a, b) } else { (b, a) };
                    let e = metrics.edge_rewards.entry(key).or_insert((0.0, 0));
                    e.0 += r;
                    e.1 += 1;
                }
            }
            tracker.backup(&order, &state);
            *metrics.order_selections.entry(order).or_insert(0) += 1;

            // LIMIT pushdown: enough distinct tuples exist — a complete
            // join result is no longer needed.
            if !finished {
                if let Some(target) = opts.target_rows {
                    if sink.collected() as u64 >= target {
                        stop = StopReason::RowTarget;
                        finished = true;
                    }
                }
            }

            // Memory budget, checked after the LIMIT test so a run that
            // reaches its row target in the same slice reports the
            // stronger outcome. Like cancellation, a trip leaves a valid
            // distinct prefix; one slice can overshoot the cap by at
            // most its own emissions, which the step budget bounds.
            if !finished {
                if let Some(cap) = opts.max_result_bytes {
                    if sink.approx_bytes() > cap {
                        stop = StopReason::MemoryExceeded;
                        finished = true;
                    }
                }
            }
        }

        metrics.join_time = join_start.elapsed();
        metrics.uct_nodes = tree.num_nodes();
        metrics.uct_bytes = tree.approx_bytes();
        metrics.tracker_nodes = tracker.num_nodes();
        metrics.tracker_bytes = tracker.approx_bytes();
        metrics.result_tuples = sink.collected();
        metrics.result_bytes = sink.approx_bytes();
        metrics.result_attempts = sink.attempts();

        let final_order = match cfg.policy {
            OrderPolicy::Uct => tree.best_path(),
            OrderPolicy::Random => {
                // Most-selected order under random policy.
                metrics
                    .top_orders(1)
                    .first()
                    .map(|(o, _)| o.clone())
                    .unwrap_or_else(|| (0..m).collect())
            }
        };

        let learning = if opts.capture_learning {
            Some(LearnedState {
                snapshot: tree.snapshot(),
                best_order: final_order.clone(),
                planned_orders: plan_cache.keys().cloned().collect(),
            })
        } else {
            None
        };

        let result_count = sink.collected() as u64;
        SkinnerOutcome {
            tuples: sink.take_flat(m),
            num_tables: m,
            result_count,
            final_order,
            stop,
            learning,
            metrics,
        }
    }
}

/// Bind one join order and compile it (counted into the metrics). Every
/// non-empty order compiles, whatever its length and key types.
fn bind_order<'p>(
    pq: &'p PreparedQuery,
    kernel_cache: Option<&KernelCache>,
    order: &[TableId],
    metrics: &mut ExecMetrics,
) -> CompiledKernel<'p> {
    metrics.codegen_orders += 1;
    pq.plan_order(order)
        .compile_kernel(kernel_cache)
        .expect("a join order is never empty")
}

/// Is `order` a permutation of `0..m`? Guards plan pre-binding against
/// stale cached orders from a differently-shaped query.
fn is_permutation(order: &[TableId], m: usize) -> bool {
    if order.len() != m || m > 64 {
        return false;
    }
    let mut seen = 0u64;
    for &t in order {
        if t >= m || seen >> t & 1 == 1 {
            return false;
        }
        seen |= 1 << t;
    }
    true
}

fn random_order(space: &JoinOrderSpace, rng: &mut SmallRng) -> Vec<TableId> {
    let mut path = Vec::with_capacity(space.depth());
    while path.len() < space.depth() {
        let actions = space.actions(&path);
        path.push(actions[rng.gen_range(0..actions.len())]);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{Expr, QueryBuilder};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn fk_catalog(n: usize) -> Catalog {
        // chain of tables t0 ← t1 ← t2 ... joined on k, each with n rows
        let mut cat = Catalog::new();
        for t in 0..4 {
            cat.register(
                Table::new(
                    format!("t{t}"),
                    Schema::new([
                        ColumnDef::new("k", ValueType::Int),
                        ColumnDef::new("v", ValueType::Int),
                    ]),
                    vec![
                        Column::from_ints((0..n as i64).map(|i| i % 16).collect()),
                        Column::from_ints((0..n as i64).collect()),
                    ],
                )
                .unwrap(),
            );
        }
        cat
    }

    fn chain_query(cat: &Catalog, tables: usize) -> Query {
        let mut qb = QueryBuilder::new(cat);
        for t in 0..tables {
            qb.table(&format!("t{t}")).unwrap();
        }
        for t in 0..tables - 1 {
            let j = qb
                .col(&format!("t{t}.k"))
                .unwrap()
                .eq(qb.col(&format!("t{}.k", t + 1)).unwrap());
            qb.filter(j);
        }
        qb.select_col("t0.v").unwrap();
        qb.build().unwrap()
    }

    /// Ground truth: the generic reference kernel run to completion
    /// under one order.
    fn ground_truth(q: &Query) -> u64 {
        let order: Vec<usize> = (0..q.num_tables()).collect();
        generic_tuples(q, &order, u64::MAX).len() as u64
    }

    #[test]
    fn skinner_c_produces_complete_result() {
        let cat = fk_catalog(64);
        let q = chain_query(&cat, 3);
        let expected = ground_truth(&q);
        assert!(expected > 0);
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .run(&q);
        assert_eq!(out.result_count, expected);
        assert!(out.metrics.slices > 1, "should need multiple slices");
        assert_eq!(out.tuples.len() as u64, expected * 3);
    }

    #[test]
    fn random_policy_also_correct() {
        let cat = fk_catalog(48);
        let q = chain_query(&cat, 3);
        let expected = ground_truth(&q);
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 50,
            policy: OrderPolicy::Random,
            ..Default::default()
        })
        .run(&q);
        assert_eq!(out.result_count, expected);
    }

    #[test]
    fn no_indexes_still_correct() {
        let cat = fk_catalog(32);
        let q = chain_query(&cat, 3);
        let expected = ground_truth(&q);
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 100,
            use_indexes: false,
            ..Default::default()
        })
        .run(&q);
        assert_eq!(out.result_count, expected);
    }

    #[test]
    fn empty_result_handled() {
        let cat = fk_catalog(16);
        let mut qb = QueryBuilder::new(&cat);
        qb.table("t0").unwrap();
        qb.table("t1").unwrap();
        let j = qb.col("t0.k").unwrap().eq(qb.col("t1.k").unwrap());
        let f = qb.col("t0.v").unwrap().gt(Expr::lit(10_000));
        qb.filter(j);
        qb.filter(f);
        qb.select_col("t0.v").unwrap();
        let q = qb.build().unwrap();
        let out = SkinnerC::default().run(&q);
        assert_eq!(out.result_count, 0);
    }

    #[test]
    fn four_table_join_correct() {
        let cat = fk_catalog(24);
        let q = chain_query(&cat, 4);
        let expected = ground_truth(&q);
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 200,
            ..Default::default()
        })
        .run(&q);
        assert_eq!(out.result_count, expected);
        // final order is a valid permutation
        let mut o = out.final_order.clone();
        o.sort_unstable();
        assert_eq!(o, vec![0, 1, 2, 3]);
    }

    /// `chain_query` with a unary filter on every table, so
    /// pre-processing has one filter scan per table to spread.
    fn filtered_chain_query(cat: &Catalog, tables: usize) -> Query {
        let mut qb = QueryBuilder::new(cat);
        for t in 0..tables {
            qb.table(&format!("t{t}")).unwrap();
            let f = qb.col(&format!("t{t}.v")).unwrap().ge(Expr::lit(t as i64));
            qb.filter(f);
        }
        for t in 0..tables - 1 {
            let j = qb
                .col(&format!("t{t}.k"))
                .unwrap()
                .eq(qb.col(&format!("t{}.k", t + 1)).unwrap());
            qb.filter(j);
        }
        qb.select_col("t0.v").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn pool_reuse_means_zero_spawns_after_warmup() {
        // The acceptance criterion for the persistent pool: after the
        // pool's one-time warm-up, pre-processing spreads its filter
        // scans over pooled workers with zero OS thread spawns.
        let cat = fk_catalog(64);
        let q = filtered_chain_query(&cat, 4);
        let pool = WorkerPool::new(4);
        let run = |pool: &Arc<WorkerPool>| {
            SkinnerC::new(SkinnerCConfig {
                budget: 200,
                threads: 4,
                ..Default::default()
            })
            .run_with(
                &q,
                &RunOptions {
                    pool: Some(pool.clone()),
                    ..Default::default()
                },
            )
        };
        let warm = run(&pool);
        // The private pool spawned its 4 workers at construction, before
        // the first run — even run one sees zero spawns.
        assert_eq!(warm.metrics.thread_spawns, 0, "warm-up run spawned");
        let steady = run(&pool);
        assert!(steady.metrics.slices > 0);
        assert_eq!(
            steady.metrics.thread_spawns, 0,
            "steady-state run must reuse pooled workers"
        );
        assert_eq!(pool.spawned(), 4, "only the construction-time spawns");
    }

    #[test]
    fn parallel_matches_sequential_outcome() {
        // Threads spread only the filter scans: the join phase, and so
        // the whole outcome, is identical to the sequential run's.
        let cat = fk_catalog(48);
        let q = filtered_chain_query(&cat, 3);
        let run = |threads| {
            SkinnerC::new(SkinnerCConfig {
                budget: 64,
                threads,
                ..Default::default()
            })
            .run(&q)
        };
        let seq = run(1);
        assert!(seq.result_count > 0);
        for threads in [2, 3] {
            let par = run(threads);
            assert_eq!(par.tuples, seq.tuples, "threads {threads}");
            assert_eq!(par.final_order, seq.final_order);
            assert_eq!(par.metrics.slices, seq.metrics.slices);
            assert_eq!(par.metrics.steps, seq.metrics.steps);
            assert_eq!(par.metrics.order_selections, seq.metrics.order_selections);
        }
    }

    #[test]
    fn metrics_populated() {
        let cat = fk_catalog(64);
        let q = chain_query(&cat, 3);
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 25,
            ..Default::default()
        })
        .run(&q);
        let m = &out.metrics;
        assert!(m.slices > 0);
        assert!(m.steps > 0);
        assert!(m.uct_nodes > 0);
        assert!(m.tracker_nodes > 0);
        assert!(m.uct_bytes + m.tracker_bytes + m.result_bytes + m.index_bytes > 0);
        assert!(m.top_k_share(100) > 0.99);
        assert_eq!(m.result_tuples as u64, out.result_count);
    }

    /// The sorted distinct tuples of `q` from the generic reference
    /// kernel alone: `order` resumed slice by slice (`budget` steps) until
    /// exhausted.
    fn generic_tuples(q: &Query, order: &[TableId], budget: u64) -> Vec<Vec<RowId>> {
        let pq = PreparedQuery::new(q, true, 1);
        let spec = pq.plan_spec(order);
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; q.num_tables()];
        let mut state = offsets.clone();
        let mut rs = ResultSet::new();
        while join
            .continue_join_generic(order, &spec, &offsets, &mut state, budget, &mut rs)
            .0
            != ContinueResult::Exhausted
        {}
        let mut tuples: Vec<Vec<RowId>> = rs.iter().map(<[RowId]>::to_vec).collect();
        tuples.sort();
        tuples
    }

    /// Skinner-C's distinct tuples, sorted (stride = the query's tables).
    fn sorted_tuples(out: &SkinnerOutcome) -> Vec<Vec<RowId>> {
        let mut tuples: Vec<Vec<RowId>> = out
            .tuples
            .chunks_exact(out.num_tables)
            .map(<[RowId]>::to_vec)
            .collect();
        tuples.sort();
        tuples
    }

    #[test]
    fn codegen_tier_runs_and_agrees_with_generic() {
        let cat = fk_catalog(64);
        let q = chain_query(&cat, 4);
        let expected = ground_truth(&q);
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 64,
            ..Default::default()
        })
        .run(&q);
        assert_eq!(out.result_count, expected);
        // Int FK chain: every order compiles.
        assert!(out.metrics.codegen_orders > 0);
        assert_eq!(out.metrics.fallback_orders, 0);
        assert_eq!(out.metrics.codegen_slices, out.metrics.slices);
        // Same distinct tuples as the generic kernel over the learned
        // order.
        assert_eq!(
            sorted_tuples(&out),
            generic_tuples(&q, &out.final_order, 64)
        );
    }

    #[test]
    fn string_keyed_join_compiles_and_stays_correct() {
        // String join keys bind to the KeyEq jump (content-hash posting
        // cursors, re-verified): the codegen tier carries every slice and
        // the answer is unchanged.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "s1",
                Schema::new([ColumnDef::new("k", ValueType::Str)]),
                vec![Column::from_strs(["a", "b", "c", "a"])],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "s2",
                Schema::new([ColumnDef::new("k", ValueType::Str)]),
                vec![Column::from_strs(["b", "a", "a"])],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("s1").unwrap();
        qb.table("s2").unwrap();
        let j = qb.col("s1.k").unwrap().eq(qb.col("s2.k").unwrap());
        qb.filter(j);
        qb.select_col("s1.k").unwrap();
        let q = qb.build().unwrap();
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16,
            ..Default::default()
        })
        .run(&q);
        // a⋈a: 2×2, b⋈b: 1×1.
        assert_eq!(out.result_count, 5);
        assert!(out.metrics.codegen_orders > 0, "string keys must compile");
        assert_eq!(out.metrics.fallback_orders, 0, "no fallback remains");
        assert_eq!(out.metrics.codegen_slices, out.metrics.slices);
    }

    /// Seven int-keyed tables chained on `k` (each key twice per table).
    fn seven_table_chain() -> (Catalog, Query) {
        let mut cat = Catalog::new();
        for t in 0..7 {
            cat.register(
                Table::new(
                    format!("c{t}"),
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints((0..6).map(|i| i % 3).collect())],
                )
                .unwrap(),
            );
        }
        let mut qb = QueryBuilder::new(&cat);
        for t in 0..7 {
            qb.table(&format!("c{t}")).unwrap();
        }
        for t in 0..6 {
            let j = qb
                .col(&format!("c{t}.k"))
                .unwrap()
                .eq(qb.col(&format!("c{}.k", t + 1)).unwrap());
            qb.filter(j);
        }
        qb.select_col("c0.k").unwrap();
        let q = qb.build().unwrap();
        (cat, q)
    }

    #[test]
    fn seven_table_chain_compiles_whole_order_and_stays_correct() {
        // One compiled kernel covers all seven positions, and its slices
        // stop at the budget; counted as a codegen order.
        let (_cat, q) = seven_table_chain();
        let pq = PreparedQuery::new(&q, true, 1);
        let order: Vec<usize> = (0..7).collect();
        let plan = pq.plan_order(&order);
        let kernel = plan.compile_kernel(None).expect("long order compiles");
        assert_eq!(kernel.num_tables(), 7);
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; 7];
        let mut state = offsets.clone();
        let mut rs = ResultSet::new();
        loop {
            let (res, steps) =
                join.continue_join_compiled(&kernel, &offsets, &mut state, 40, &mut rs);
            assert!(steps <= 40, "slice took {steps} steps");
            if res == ContinueResult::Exhausted {
                break;
            }
        }
        // Each key appears twice per table; 3 keys × 2^7 combinations.
        assert_eq!(rs.len(), 3 * 128);

        let out = SkinnerC::new(SkinnerCConfig {
            budget: 200,
            ..Default::default()
        })
        .run(&q);
        assert_eq!(out.result_count, 3 * 128);
        assert!(out.metrics.codegen_orders > 0, "long orders must compile");
        assert_eq!(out.metrics.fallback_orders, 0);
        assert_eq!(out.metrics.codegen_slices, out.metrics.slices);
    }

    #[test]
    fn seven_table_chain_compiled_agrees_with_generic() {
        // The whole-order kernel checked against the generic kernel on
        // the same 7-table query, with a budget small enough to force
        // many suspend/resume cycles on both.
        let (_cat, q) = seven_table_chain();
        let compiled = SkinnerC::new(SkinnerCConfig {
            budget: 64,
            ..Default::default()
        })
        .run(&q);
        assert_eq!(compiled.result_count, 3 * 128);
        let generic = generic_tuples(&q, &compiled.final_order, 64);
        assert_eq!(generic.len(), 3 * 128);
        assert_eq!(sorted_tuples(&compiled), generic);
        assert_eq!(compiled.metrics.fallback_orders, 0);
        assert_eq!(compiled.metrics.codegen_slices, compiled.metrics.slices);
    }

    #[test]
    fn kernel_cache_hits_across_runs() {
        let cache = KernelCache::new();
        let cat = fk_catalog(32);
        let q = chain_query(&cat, 3);
        let opts = || RunOptions {
            kernel_cache: Some(&cache),
            ..Default::default()
        };
        let cfg = SkinnerCConfig {
            budget: 50,
            ..Default::default()
        };
        let first = SkinnerC::new(cfg).run_with(&q, &opts());
        let misses_after_first = cache.stats().misses;
        assert!(misses_after_first > 0, "first run must analyze shapes");
        let second = SkinnerC::new(cfg).run_with(&q, &opts());
        assert_eq!(first.result_count, second.result_count);
        let stats = cache.stats();
        assert_eq!(
            stats.misses, misses_after_first,
            "second run must not re-analyze"
        );
        assert!(stats.hits > 0);
    }

    #[test]
    fn row_target_stops_early_with_valid_prefix() {
        let cat = fk_catalog(64);
        let q = chain_query(&cat, 3);
        let expected = ground_truth(&q);
        assert!(expected > 10);
        let full = SkinnerC::new(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .run(&q);
        let limited = SkinnerC::new(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .run_with(
            &q,
            &RunOptions {
                target_rows: Some(10),
                ..Default::default()
            },
        );
        assert_eq!(limited.stop, StopReason::RowTarget);
        assert!(limited.result_count >= 10);
        assert!(limited.result_count < expected);
        assert!(limited.metrics.steps < full.metrics.steps);
        // Every produced tuple is a member of the full result.
        let all: std::collections::HashSet<&[u32]> = full.tuples.chunks_exact(3).collect();
        for t in limited.tuples.chunks_exact(3) {
            assert!(all.contains(t), "tuple {t:?} not in the full result");
        }
    }

    #[test]
    fn row_target_beyond_result_completes() {
        let cat = fk_catalog(32);
        let q = chain_query(&cat, 3);
        let expected = ground_truth(&q);
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .run_with(
            &q,
            &RunOptions {
                target_rows: Some(expected + 1_000),
                ..Default::default()
            },
        );
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.result_count, expected);
    }

    #[test]
    fn memory_budget_stops_with_valid_prefix() {
        let cat = fk_catalog(64);
        let q = chain_query(&cat, 3);
        let full = SkinnerC::new(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .run(&q);
        assert!(full.metrics.result_bytes > 64);
        // A cap far below the full arena must trip at a slice boundary.
        let capped = SkinnerC::new(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .run_with(
            &q,
            &RunOptions {
                max_result_bytes: Some(64),
                ..Default::default()
            },
        );
        assert_eq!(capped.stop, StopReason::MemoryExceeded);
        assert!(capped.result_count < full.result_count);
        // Every produced tuple is a member of the full result.
        let all: std::collections::HashSet<&[u32]> = full.tuples.chunks_exact(3).collect();
        for t in capped.tuples.chunks_exact(3) {
            assert!(all.contains(t), "tuple {t:?} not in the full result");
        }
        // A generous cap never fires.
        let roomy = SkinnerC::new(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .run_with(
            &q,
            &RunOptions {
                max_result_bytes: Some(full.metrics.result_bytes * 4 + (1 << 20)),
                ..Default::default()
            },
        );
        assert_eq!(roomy.stop, StopReason::Completed);
        assert_eq!(roomy.result_count, full.result_count);
    }

    #[test]
    fn cancel_flag_interrupts() {
        use std::sync::atomic::AtomicBool;
        let cat = fk_catalog(64);
        let q = chain_query(&cat, 4);
        let cancel = AtomicBool::new(true); // pre-raised: stop before slice 1
        let out = SkinnerC::default().run_with(
            &q,
            &RunOptions {
                cancel: Some(&cancel),
                ..Default::default()
            },
        );
        assert_eq!(out.stop, StopReason::Cancelled);
        assert_eq!(out.metrics.slices, 0);
    }

    #[test]
    fn deadline_interrupts() {
        let cat = fk_catalog(64);
        let q = chain_query(&cat, 4);
        let out = SkinnerC::default().run_with(
            &q,
            &RunOptions {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..Default::default()
            },
        );
        assert_eq!(out.stop, StopReason::DeadlineExceeded);
    }

    /// A 3-table chain where join-order quality differs sharply: `wide`
    /// (4 rows) fans out 1024× into `mid` (4096 rows), while `sel`
    /// (256 rows) joins `mid` 1:1 — so sel-first orders cost ~10× fewer
    /// steps than wide-first ones. This is the shape where learned-order
    /// reuse pays.
    fn skewed_catalog() -> (Catalog, Query) {
        let n_mid = 4096i64;
        let n_sel = 256i64;
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "wide",
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints(vec![0, 1, 2, 3])],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "mid",
                Schema::new([
                    ColumnDef::new("ka", ValueType::Int),
                    ColumnDef::new("kb", ValueType::Int),
                ]),
                vec![
                    Column::from_ints((0..n_mid).map(|i| i % 4).collect()),
                    Column::from_ints((0..n_mid).collect()),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "sel",
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints((0..n_sel).collect())],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("wide").unwrap();
        qb.table("mid").unwrap();
        qb.table("sel").unwrap();
        let j1 = qb.col("wide.k").unwrap().eq(qb.col("mid.ka").unwrap());
        let j2 = qb.col("mid.kb").unwrap().eq(qb.col("sel.k").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("mid.kb").unwrap();
        let q = qb.build().unwrap();
        (cat, q)
    }

    #[test]
    fn warm_start_resumes_learning_in_fewer_slices() {
        let (_cat, q) = skewed_catalog();
        let expected = ground_truth(&q);
        assert_eq!(expected, 256);
        let cfg = SkinnerCConfig {
            budget: 200,
            ..Default::default()
        };
        let cold = SkinnerC::new(cfg).run_with(
            &q,
            &RunOptions {
                capture_learning: true,
                ..Default::default()
            },
        );
        assert_eq!(cold.result_count, expected);
        let learned = cold.learning.expect("learning captured");
        assert!(learned.snapshot.num_nodes() > 1);
        assert!(!learned.planned_orders.is_empty());
        assert_eq!(learned.best_order, cold.final_order);

        let warm = SkinnerC::new(cfg).run_with(
            &q,
            &RunOptions {
                prior: Some(&learned.snapshot),
                planned_orders: &learned.planned_orders,
                capture_learning: true,
                ..Default::default()
            },
        );
        assert_eq!(warm.result_count, expected, "warm result differs");
        assert_eq!(warm.metrics.warm_start_nodes, learned.snapshot.num_nodes());
        assert!(
            warm.metrics.slices < cold.metrics.slices,
            "warm start should converge in fewer slices (warm {} vs cold {})",
            warm.metrics.slices,
            cold.metrics.slices
        );
        // Learning keeps accumulating across executions.
        let relearned = warm.learning.expect("learning captured");
        assert!(relearned.snapshot.rounds() > learned.snapshot.rounds());
    }

    #[test]
    fn prior_seeded_run_matches_cold_and_converges_faster() {
        use skinner_uct::{ArmPriors, PriorEntry};
        let (_cat, q) = skewed_catalog();
        let expected = ground_truth(&q);
        let cfg = SkinnerCConfig {
            budget: 200,
            ..Default::default()
        };
        let cold = SkinnerC::new(cfg).run(&q);
        assert_eq!(cold.result_count, expected);
        // Cold runs carry the observations the knowledge store learns
        // from: per-table cardinalities and directed edge rewards.
        assert_eq!(cold.metrics.table_cards.len(), 3);
        assert!(cold
            .metrics
            .table_cards
            .iter()
            .all(|&(f, b)| f <= b && b > 0));
        assert!(!cold.metrics.edge_rewards.is_empty());
        // Each slice credits one direction of each of the 2 join edges.
        let total: u64 = cold.metrics.edge_rewards.values().map(|&(_, n)| n).sum();
        assert_eq!(total, 2 * cold.metrics.slices);

        // Knowledge-style priors: sel (id 2) first is the good order.
        let priors = ArmPriors {
            entries: vec![
                PriorEntry {
                    prefix: vec![2],
                    estimate: 0.9,
                },
                PriorEntry {
                    prefix: vec![1],
                    estimate: 0.1,
                },
                PriorEntry {
                    prefix: vec![0],
                    estimate: 0.05,
                },
            ],
            weight: 16,
        };
        let seeded = SkinnerC::new(cfg).run_with(
            &q,
            &RunOptions {
                arm_priors: Some(&priors),
                ..Default::default()
            },
        );
        assert_eq!(seeded.result_count, expected, "seeded result differs");
        assert!(seeded.metrics.prior_seeded_nodes > 0);
        assert_eq!(seeded.metrics.warm_start_nodes, 0);
        // Identical tuples modulo row order: priors shift exploration
        // order only, they never change what the join produces.
        let mut a: Vec<&[u32]> = cold.tuples.chunks_exact(1).collect();
        let mut b: Vec<&[u32]> = seeded.tuples.chunks_exact(1).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(
            seeded.metrics.slices < cold.metrics.slices,
            "priors should converge in fewer slices (seeded {} vs cold {})",
            seeded.metrics.slices,
            cold.metrics.slices
        );

        // An exact-template snapshot beats coarse priors when both are
        // offered; the run counts as a warm start, not a seeded one.
        let cap = SkinnerC::new(cfg).run_with(
            &q,
            &RunOptions {
                capture_learning: true,
                ..Default::default()
            },
        );
        let learned = cap.learning.expect("learning captured");
        let both = SkinnerC::new(cfg).run_with(
            &q,
            &RunOptions {
                prior: Some(&learned.snapshot),
                arm_priors: Some(&priors),
                ..Default::default()
            },
        );
        assert_eq!(both.result_count, expected);
        assert!(both.metrics.warm_start_nodes > 0);
        assert_eq!(both.metrics.prior_seeded_nodes, 0);
    }

    #[test]
    fn bogus_planned_orders_are_skipped() {
        let cat = fk_catalog(32);
        let q = chain_query(&cat, 3);
        let expected = ground_truth(&q);
        // Stale orders from a different template: wrong arity, out-of-
        // range ids, duplicates. None may panic or corrupt the run.
        let stale = vec![vec![0usize, 1], vec![0, 1, 7], vec![0, 0, 1], vec![2, 1, 0]];
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 50,
            ..Default::default()
        })
        .run_with(
            &q,
            &RunOptions {
                planned_orders: &stale,
                ..Default::default()
            },
        );
        assert_eq!(out.result_count, expected);
    }

    #[test]
    fn single_table_query() {
        let cat = fk_catalog(16);
        let mut qb = QueryBuilder::new(&cat);
        qb.table("t0").unwrap();
        let f = qb.col("t0.v").unwrap().lt(Expr::lit(5));
        qb.filter(f);
        qb.select_col("t0.v").unwrap();
        let q = qb.build().unwrap();
        let out = SkinnerC::default().run(&q);
        assert_eq!(out.result_count, 5);
        // The one-table order runs on its compiled one-position kernel.
        assert_eq!(out.metrics.codegen_orders, 1);
        assert_eq!(out.metrics.codegen_slices, out.metrics.slices);
    }
}
