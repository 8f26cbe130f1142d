//! The knowledge store: observation capture, accumulation, and prior
//! seeding.
//!
//! Three moving parts, in execution order:
//!
//! 1. [`observe`] — after a run, pair the query's coarse fingerprints
//!    with what the engine measured: per-table survivor counts and
//!    directed per-edge reward sums.
//! 2. [`KnowledgeStore::record`] — fold an [`Observation`] into the
//!    store, resetting any entry whose catalog versions moved.
//! 3. [`KnowledgeStore::seed`] — before a cold run, translate matching
//!    entries back into the query's local [`TableId`] space as an
//!    [`ArmPriors`] table (root arms from precedence + selectivity
//!    signals, depth-1 arms from directed edge *shares* — scale-free
//!    preferences, see [`KnowledgeStore::seed`]).
//!
//! Seeding is *optimistic initialization only*: every estimate lands in
//! `[0, 1]`, unknown arms inherit the best known estimate, and no arm is
//! ever removed — so UCT's regret-bound exploration guarantee (and the
//! result set) is untouched; only the order of exploration shifts.

use skinner_engine::ExecMetrics;
use skinner_query::{join_edges, table_fingerprint, Query, TableId};
use skinner_storage::FxHashMap;
use skinner_uct::{ArmPriors, PriorEntry};

/// Tuning knobs for a [`KnowledgeStore`].
#[derive(Debug, Clone, Copy)]
pub struct KnowledgeConfig {
    /// Upper bound on entries per map (tables and edges separately).
    /// At capacity, inserting a new key evicts the least-observed entry.
    pub capacity: usize,
    /// Virtual visit count per seeded arm — how strongly priors bias
    /// early exploration before real rewards wash them out. Keep this
    /// *small*: Skinner-C's near-greedy UCB1 means every extra virtual
    /// visit is inertia the engine must grind through real slices to
    /// overcome when a prior is wrong, and the cost compounds across
    /// tree levels (a root arm's mean is dragged by unexplored depth-1
    /// arms beneath it). At `1`, priors order the first trial of each
    /// arm and one real slice per arm already outvotes them — they
    /// steer exploration without ever out-shouting measurements.
    pub prior_weight: u64,
}

impl Default for KnowledgeConfig {
    fn default() -> Self {
        KnowledgeConfig {
            capacity: 4096,
            prior_weight: 1,
        }
    }
}

/// Accumulated selectivity statistics for one table fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStat {
    /// Catalog table name (also embedded in the fingerprint).
    pub name: String,
    /// Catalog version of the table the statistics were learned on.
    pub version: u64,
    /// Sum of observed selectivities (`filtered / base` per run).
    pub sel_sum: f64,
    /// Number of runs folded in.
    pub count: u64,
}

impl TableStat {
    /// Mean observed selectivity in `[0, 1]`.
    pub fn mean_selectivity(&self) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        (self.sel_sum / self.count as f64).clamp(0.0, 1.0)
    }
}

/// Accumulated directed statistics for one join-edge fingerprint.
///
/// `fwd` covers slices where the fingerprint's first-listed side
/// preceded the second in the chosen join order; `rev` the opposite
/// direction. Each pair holds `(share_sum, slice_count)`: every
/// recorded run contributes **one normalized vote** — its within-run
/// directed reward share, `fwd_rewards / (fwd_rewards + rev_rewards)`
/// — split between `fwd.0` and `rev.0`. Normalizing per run keeps
/// queries with large absolute rewards (reward scale varies by orders
/// of magnitude with data size) from drowning out everyone else's
/// evidence in the cross-template aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeStat {
    /// `(table name, version)` of both sides, in fingerprint order.
    pub deps: Vec<(String, u64)>,
    /// First-listed side earlier: `(share_sum, slice_count)`.
    pub fwd: (f64, u64),
    /// Second-listed side earlier: `(share_sum, slice_count)`.
    pub rev: (f64, u64),
}

/// One run's knowledge extract for a single table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableObs {
    /// Cross-template key (see [`table_fingerprint`]).
    pub fingerprint: String,
    /// Catalog table name.
    pub name: String,
    /// Catalog version of the table at run time.
    pub version: u64,
    /// Rows surviving the table's unary predicates.
    pub filtered: u64,
    /// Base row count.
    pub base: u64,
}

/// One run's knowledge extract for a single join edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeObs {
    /// Cross-template key (see [`join_edges`]).
    pub fingerprint: String,
    /// `(table name, version)` of both sides, in fingerprint order.
    pub deps: Vec<(String, u64)>,
    /// First-listed side earlier: `(reward_sum, slice_count)`.
    pub fwd: (f64, u64),
    /// Second-listed side earlier: `(reward_sum, slice_count)`.
    pub rev: (f64, u64),
}

/// Everything one finished run teaches the store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observation {
    /// Per-table selectivity observations.
    pub tables: Vec<TableObs>,
    /// Per-edge directed reward observations.
    pub edges: Vec<EdgeObs>,
}

/// Build an [`Observation`] from a finished run: `deps` carries the
/// live `(table name, catalog version)` pairs the run executed against,
/// `metrics` the engine's measurements. Tables the metrics did not
/// cover (or with zero base rows) and edges that earned no slices are
/// omitted.
pub fn observe(query: &Query, deps: &[(String, u64)], metrics: &ExecMetrics) -> Observation {
    let version_of = |name: &str| -> Option<u64> {
        deps.iter()
            .find(|(n, _)| n == name)
            .map(|&(_, version)| version)
    };
    let mut obs = Observation::default();
    for (t, &(filtered, base)) in metrics.table_cards.iter().enumerate() {
        if base == 0 {
            continue;
        }
        let name = query.tables[t].table.name().to_string();
        let Some(version) = version_of(&name) else {
            continue;
        };
        obs.tables.push(TableObs {
            fingerprint: table_fingerprint(query, t),
            name,
            version,
            filtered,
            base,
        });
    }
    for edge in join_edges(query) {
        let fwd = *metrics
            .edge_rewards
            .get(&(edge.a, edge.b))
            .unwrap_or(&(0.0, 0));
        let rev = *metrics
            .edge_rewards
            .get(&(edge.b, edge.a))
            .unwrap_or(&(0.0, 0));
        if fwd.1 + rev.1 == 0 {
            continue;
        }
        let dep = |t: TableId| -> Option<(String, u64)> {
            let name = query.tables[t].table.name().to_string();
            version_of(&name).map(|v| (name, v))
        };
        let (Some(da), Some(db)) = (dep(edge.a), dep(edge.b)) else {
            continue;
        };
        obs.edges.push(EdgeObs {
            fingerprint: edge.fingerprint,
            deps: vec![da, db],
            fwd,
            rev,
        });
    }
    obs
}

/// Operational counters of a [`KnowledgeStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnowledgeStats {
    /// Observations folded in via [`KnowledgeStore::record`].
    pub records: u64,
    /// [`KnowledgeStore::seed`] calls that produced a prior table.
    pub seeded: u64,
    /// [`KnowledgeStore::seed`] calls with nothing to offer.
    pub no_priors: u64,
    /// Entries evicted by the capacity bound.
    pub evicted: u64,
    /// Entries dropped by [`KnowledgeStore::invalidate_table`].
    pub invalidated: u64,
    /// Entries whose statistics were reset because their catalog
    /// versions moved between observations.
    pub reset: u64,
}

/// Sorted `(fingerprint, stat)` snapshots of both maps, as returned by
/// [`KnowledgeStore::export`].
pub type KnowledgeExport = (Vec<(String, TableStat)>, Vec<(String, EdgeStat)>);

/// Cross-query knowledge, keyed by the coarse fingerprints of
/// [`skinner_query::fingerprint`].
#[derive(Debug, Default)]
pub struct KnowledgeStore {
    config: KnowledgeConfig,
    tables: FxHashMap<String, TableStat>,
    edges: FxHashMap<String, EdgeStat>,
    /// Reward-scale calibration: `(sum of ln(per-run mean slice
    /// reward), run count)` — a geometric-mean accumulator. Priors are
    /// preferences in `[0, 1]`; the engine's actual per-slice rewards
    /// live one or two orders of magnitude lower, and near-greedy UCB1
    /// would have to grind every prior-scale estimate down to reward
    /// scale before real differences matter. Seeding multiplies
    /// estimates by the learned scale so they start *at or below* where
    /// good orders actually pay: a confirmed good arm then defends its
    /// rank from the first real slice, while an over-praised arm's
    /// measured mean falls under the next prior after a slice or two.
    /// The geometric mean (not arithmetic) keeps a few trivial
    /// near-reward-1.0 runs from inflating the calibration above the
    /// rewards of every non-trivial query.
    scale: (f64, u64),
    stats: KnowledgeStats,
}

impl KnowledgeStore {
    /// An empty store with the given knobs.
    pub fn new(config: KnowledgeConfig) -> KnowledgeStore {
        KnowledgeStore {
            config,
            ..KnowledgeStore::default()
        }
    }

    /// Fold one run's observations in. An entry whose stored catalog
    /// version differs from the observation's is reset first (the old
    /// statistics described different data).
    pub fn record(&mut self, obs: &Observation) {
        self.stats.records += 1;
        let run_reward: f64 = obs.edges.iter().map(|e| e.fwd.0 + e.rev.0).sum();
        let run_slices: u64 = obs.edges.iter().map(|e| e.fwd.1 + e.rev.1).sum();
        if run_slices > 0 && run_reward > 0.0 {
            self.scale.0 += (run_reward / run_slices as f64).ln();
            self.scale.1 = self.scale.1.saturating_add(1);
        }
        for t in &obs.tables {
            if t.base == 0 {
                continue;
            }
            let sel = t.filtered as f64 / t.base as f64;
            if !self.tables.contains_key(&t.fingerprint)
                && !evict_if_full(
                    &mut self.tables,
                    self.config.capacity,
                    &mut self.stats.evicted,
                    |s| s.count,
                )
            {
                continue;
            }
            let entry = self
                .tables
                .entry(t.fingerprint.clone())
                .or_insert_with(|| TableStat {
                    name: t.name.clone(),
                    version: t.version,
                    sel_sum: 0.0,
                    count: 0,
                });
            if entry.version != t.version {
                self.stats.reset += 1;
                entry.version = t.version;
                entry.sel_sum = 0.0;
                entry.count = 0;
            }
            entry.sel_sum += sel;
            entry.count = entry.count.saturating_add(1);
        }
        for e in &obs.edges {
            let total = e.fwd.0 + e.rev.0;
            if e.fwd.1 + e.rev.1 == 0 || total.is_nan() || total <= 0.0 {
                // A run with no reward on this edge carries no direction
                // signal — don't let it dilute other runs' votes.
                continue;
            }
            if !self.edges.contains_key(&e.fingerprint)
                && !evict_if_full(
                    &mut self.edges,
                    self.config.capacity,
                    &mut self.stats.evicted,
                    edge_weight,
                )
            {
                continue;
            }
            let entry = self
                .edges
                .entry(e.fingerprint.clone())
                .or_insert_with(|| EdgeStat {
                    deps: e.deps.clone(),
                    fwd: (0.0, 0),
                    rev: (0.0, 0),
                });
            if entry.deps != e.deps {
                self.stats.reset += 1;
                entry.deps = e.deps.clone();
                entry.fwd = (0.0, 0);
                entry.rev = (0.0, 0);
            }
            // One normalized vote per run: the within-run directed
            // reward share. Raw sums would let whichever query happens
            // to have the largest reward scale own the aggregate.
            let share = (e.fwd.0 / total).clamp(0.0, 1.0);
            entry.fwd.0 += share;
            entry.fwd.1 = entry.fwd.1.saturating_add(e.fwd.1);
            entry.rev.0 += 1.0 - share;
            entry.rev.1 = entry.rev.1.saturating_add(e.rev.1);
        }
    }

    /// Assemble arm priors for a cold run of `query`, or `None` when the
    /// store knows nothing applicable. `deps` carries the live
    /// `(table name, catalog version)` pairs; entries learned against
    /// other versions are skipped (never returned stale).
    ///
    /// Every estimate is a **scale-free preference in `[0, 1]`**, not a
    /// predicted reward — raw reward magnitudes differ by orders of
    /// magnitude between queries (per-slice progress shrinks with data
    /// size), so absolute means transfer badly. An edge's directed
    /// *share* — the mean over recorded runs of each run's
    /// `fwd_rewards / (fwd_rewards + rev_rewards)` — is dimensionless
    /// and weights each direction by the fraction of progress it
    /// produced within its own run (UCT's exploitation concentrates
    /// slices on good orders, so the winning direction dominates each
    /// run's sum). Root arms get the mean of every available signal
    /// for placing that table first —
    /// incident-edge shares and `1 - selectivity`, both `[0, 1]` — and
    /// depth-1 arms get the directed share of the corresponding edge.
    ///
    /// Before returning, every signal is **cubed** and then multiplied
    /// by the learned [`reward_scale`](Self::reward_scale). Cubing
    /// sharpens the preference distribution: under near-greedy UCB the
    /// seeded top arm's mean converges to its *real* per-slice reward
    /// (typically a little under the scale) within a few slices, and
    /// any runner-up whose prior sits above that trajectory keeps
    /// getting re-tried until ground down — multiple wasted slices per
    /// arm, where a cold tree pays exactly one. Cubing pushes
    /// runners-up (share ≲ 0.8 → ≲ 0.5 of scale) safely below the
    /// leader's trajectory while keeping their relative order, so a
    /// correct ranking runs greedy from the first slice and a wrong one
    /// degrades into ordered exploration at about one slice per
    /// mis-ranked arm.
    pub fn seed(&mut self, query: &Query, deps: &[(String, u64)]) -> Option<ArmPriors<TableId>> {
        let m = query.num_tables();
        if m < 2 {
            self.stats.no_priors += 1;
            return None;
        }
        let current = |name: &str, version: u64| -> bool {
            deps.iter().any(|(n, v)| n == name && *v == version)
        };
        let mut entries: Vec<PriorEntry<TableId>> = Vec::new();
        // Signals for placing table t first, collected per table.
        let mut first_signals: Vec<Vec<f64>> = vec![Vec::new(); m];
        for edge in join_edges(query) {
            let Some(stat) = self.edges.get(&edge.fingerprint) else {
                continue;
            };
            if !stat.deps.iter().all(|(n, v)| current(n, *v)) {
                continue;
            }
            let total = stat.fwd.0 + stat.rev.0;
            if total.is_nan() || total <= 0.0 {
                // Only zero-reward slices recorded: no direction signal.
                continue;
            }
            let share = (stat.fwd.0 / total).clamp(0.0, 1.0);
            first_signals[edge.a].push(share);
            entries.push(PriorEntry {
                prefix: vec![edge.a, edge.b],
                estimate: share,
            });
            first_signals[edge.b].push(1.0 - share);
            entries.push(PriorEntry {
                prefix: vec![edge.b, edge.a],
                estimate: 1.0 - share,
            });
        }
        for (t, signals) in first_signals.iter_mut().enumerate() {
            if let Some(stat) = self.tables.get(&table_fingerprint(query, t)) {
                if stat.count > 0 && current(&stat.name, stat.version) {
                    signals.push(1.0 - stat.mean_selectivity());
                }
            }
            if !signals.is_empty() {
                entries.push(PriorEntry {
                    prefix: vec![t],
                    estimate: signals.iter().sum::<f64>() / signals.len() as f64,
                });
            }
        }
        if entries.is_empty() {
            self.stats.no_priors += 1;
            return None;
        }
        let scale = self.reward_scale();
        for e in &mut entries {
            e.estimate = e.estimate.powi(3) * scale;
        }
        self.stats.seeded += 1;
        Some(ArmPriors {
            entries,
            weight: self.config.prior_weight,
        })
    }

    /// Calibration factor applied to every seeded estimate: a
    /// *sixteenth* of the learned geometric-mean per-slice reward
    /// across recorded runs, in `(0, 1]`. `1.0` until the first
    /// rewarding run is recorded.
    ///
    /// Deliberately far below real reward levels, because the costs of
    /// mis-calibration are asymmetric under near-greedy UCB1. Priors
    /// *above* a good arm's real reward cause washout ping-pong: the
    /// confirmed good arm's measured mean sinks below the untried arms'
    /// inflated priors and every arm must be ground down — several
    /// wasted slices per arm — before selection stabilizes. Priors
    /// *below* real rewards act as a pure *ordering* signal: they only
    /// decide which arm is tried first, and the first real slice of any
    /// usable arm immediately out-earns every remaining prior and locks
    /// in. Empirically the waste curve is monotone in the factor (a
    /// correctly-ranked 5-table seeded run goes from pure-greedy zero
    /// waste at 1/16 through growing ping-pong at 1/4, 1/2, 1x), so the
    /// factor sits deep on the safe side while still leaving the cubed
    /// shares numerically distinct.
    pub fn reward_scale(&self) -> f64 {
        if self.scale.1 == 0 {
            return 1.0;
        }
        ((1.0 / 16.0) * (self.scale.0 / self.scale.1 as f64).exp()).clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// Drop every entry that depends on `name` (called when the table is
    /// re-registered — its data, and thus everything learned from it, is
    /// gone). Returns the number of entries dropped.
    pub fn invalidate_table(&mut self, name: &str) -> usize {
        let before = self.tables.len() + self.edges.len();
        self.tables.retain(|_, s| s.name != name);
        self.edges
            .retain(|_, s| s.deps.iter().all(|(n, _)| n != name));
        let dropped = before - self.tables.len() - self.edges.len();
        self.stats.invalidated += dropped as u64;
        dropped
    }

    /// Remove everything, keeping counters.
    pub fn clear(&mut self) {
        self.tables.clear();
        self.edges.clear();
    }

    /// Operational counters.
    pub fn stats(&self) -> KnowledgeStats {
        self.stats
    }

    /// `(table entries, edge entries)`.
    pub fn len(&self) -> (usize, usize) {
        (self.tables.len(), self.edges.len())
    }

    /// True when the store holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.edges.is_empty()
    }

    /// Rough memory footprint of the stored entries.
    pub fn approx_bytes(&self) -> usize {
        let table_bytes: usize = self
            .tables
            .iter()
            .map(|(k, s)| k.len() + s.name.len() + 48)
            .sum();
        let edge_bytes: usize = self
            .edges
            .iter()
            .map(|(k, s)| k.len() + s.deps.iter().map(|(n, _)| n.len() + 16).sum::<usize>() + 48)
            .sum();
        table_bytes + edge_bytes
    }

    /// Snapshot every entry (persistence export).
    pub fn export(&self) -> KnowledgeExport {
        let mut tables: Vec<(String, TableStat)> = self
            .tables
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut edges: Vec<(String, EdgeStat)> = self
            .edges
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        tables.sort_by(|a, b| a.0.cmp(&b.0));
        edges.sort_by(|a, b| a.0.cmp(&b.0));
        (tables, edges)
    }

    /// Raw reward-scale accumulator `(sum of ln(per-run mean), run
    /// count)` (persistence export).
    pub fn scale_raw(&self) -> (f64, u64) {
        self.scale
    }

    /// Merge a persisted reward-scale accumulator (persistence import).
    /// Log-sums are negative for sub-1.0 rewards; only non-finite
    /// values are rejected.
    pub fn seed_scale_entry(&mut self, sum: f64, runs: u64) {
        if sum.is_finite() {
            self.scale.0 += sum;
            self.scale.1 = self.scale.1.saturating_add(runs);
        }
    }

    /// Insert an entry directly (persistence import). Does not count as
    /// a record; respects the capacity bound.
    pub fn seed_table_entry(&mut self, fingerprint: String, stat: TableStat) {
        if self.tables.contains_key(&fingerprint)
            || evict_if_full(
                &mut self.tables,
                self.config.capacity,
                &mut self.stats.evicted,
                |s| s.count,
            )
        {
            self.tables.insert(fingerprint, stat);
        }
    }

    /// Insert an edge entry directly (persistence import). Does not
    /// count as a record; respects the capacity bound.
    pub fn seed_edge_entry(&mut self, fingerprint: String, stat: EdgeStat) {
        if self.edges.contains_key(&fingerprint)
            || evict_if_full(
                &mut self.edges,
                self.config.capacity,
                &mut self.stats.evicted,
                edge_weight,
            )
        {
            self.edges.insert(fingerprint, stat);
        }
    }
}

/// Eviction weight of an edge entry: its slices in both directions.
/// Loaded counts may sit at `u64::MAX`, so the sum saturates like every
/// count update does.
fn edge_weight(s: &EdgeStat) -> u64 {
    s.fwd.1.saturating_add(s.rev.1)
}

/// Make room for one new entry: evict the least-observed entry when the
/// map is at `capacity`. Returns false (insert must be skipped) only in
/// the degenerate `capacity == 0` configuration.
fn evict_if_full<V>(
    map: &mut FxHashMap<String, V>,
    capacity: usize,
    evicted: &mut u64,
    weight: impl Fn(&V) -> u64,
) -> bool {
    if capacity == 0 {
        return false;
    }
    while map.len() >= capacity {
        let victim = map
            .iter()
            .min_by_key(|(k, v)| (weight(v), (*k).clone()))
            .map(|(k, _)| k.clone());
        match victim {
            Some(k) => {
                map.remove(&k);
                *evicted += 1;
            }
            None => break,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::QueryBuilder;
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["a", "b", "c"] {
            cat.register(
                Table::new(
                    name,
                    Schema::new([
                        ColumnDef::new("k", ValueType::Int),
                        ColumnDef::new("v", ValueType::Int),
                    ]),
                    vec![
                        Column::from_ints(vec![1, 2, 3, 4]),
                        Column::from_ints(vec![10, 20, 30, 40]),
                    ],
                )
                .unwrap(),
            );
        }
        cat
    }

    /// a ⋈ b on k, joined FROM-first or FROM-second.
    fn two_way(cat: &Catalog, swap: bool) -> Query {
        let mut qb = QueryBuilder::new(cat);
        if swap {
            qb.table("b").unwrap();
            qb.table("a").unwrap();
        } else {
            qb.table("a").unwrap();
            qb.table("b").unwrap();
        }
        let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        qb.filter(j);
        qb.select_col("a.v").unwrap();
        qb.build().unwrap()
    }

    fn deps() -> Vec<(String, u64)> {
        vec![("a".into(), 1), ("b".into(), 1), ("c".into(), 1)]
    }

    fn metrics_for(q: &Query, a_first_reward: f64, b_first_reward: f64) -> ExecMetrics {
        let ta = (0..q.num_tables())
            .find(|&t| q.tables[t].table.name() == "a")
            .unwrap();
        let tb = (0..q.num_tables())
            .find(|&t| q.tables[t].table.name() == "b")
            .unwrap();
        let mut m = ExecMetrics {
            table_cards: vec![(1, 4); q.num_tables()],
            ..ExecMetrics::default()
        };
        m.edge_rewards.insert((ta, tb), (a_first_reward * 4.0, 4));
        m.edge_rewards.insert((tb, ta), (b_first_reward * 4.0, 4));
        m
    }

    #[test]
    fn observations_transfer_across_from_order() {
        let cat = catalog();
        let q1 = two_way(&cat, false);
        let mut store = KnowledgeStore::default();
        store.record(&observe(&q1, &deps(), &metrics_for(&q1, 0.8, 0.2)));
        assert_eq!(store.len(), (2, 1));

        // A FROM-swapped query maps the same knowledge back into its own
        // TableId space: "a first" stays the rewarding arm.
        let q2 = two_way(&cat, true);
        let priors = store.seed(&q2, &deps()).expect("knowledge applies");
        assert!(priors.weight > 0);
        let ta = 1; // "a" is FROM-second in q2
        let root = |t: TableId| {
            priors
                .entries
                .iter()
                .find(|e| e.prefix == vec![t])
                .map(|e| e.estimate)
        };
        let (ra, rb) = (root(ta).unwrap(), root(1 - ta).unwrap());
        assert!(
            ra > rb,
            "a-first must carry the higher prior ({ra} vs {rb})"
        );
        // Depth-1 entries carry the directed edge share, cubed (the
        // sharpening exponent) and calibrated to the learned reward
        // scale (both directions rewarded a mean of 0.5 per slice here;
        // the conservative factor is a sixteenth of that).
        assert!((store.reward_scale() - 0.5 / 16.0).abs() < 1e-9);
        let d1 = priors
            .entries
            .iter()
            .find(|e| e.prefix == vec![ta, 1 - ta])
            .unwrap();
        assert!((d1.estimate - 0.8f64.powi(3) * store.reward_scale()).abs() < 1e-9);
        assert_eq!(store.stats().seeded, 1);
    }

    #[test]
    fn version_mismatch_skips_and_resets() {
        let cat = catalog();
        let q = two_way(&cat, false);
        let mut store = KnowledgeStore::default();
        store.record(&observe(&q, &deps(), &metrics_for(&q, 0.9, 0.1)));
        // Seeding after both tables were re-registered finds nothing:
        // every entry was learned against the old versions.
        let bumped = vec![("a".to_string(), 2), ("b".to_string(), 2)];
        assert!(store.seed(&q, &bumped).is_none());
        assert_eq!(store.stats().no_priors, 1);
        // Recording against the new version resets the stale entry
        // in place rather than blending incompatible statistics.
        store.record(&observe(&q, &bumped, &metrics_for(&q, 0.3, 0.7)));
        assert!(store.stats().reset > 0);
        let priors = store.seed(&q, &bumped).expect("fresh stats apply");
        let d1 = priors
            .entries
            .iter()
            .find(|e| e.prefix.len() == 2 && e.prefix[0] == 0)
            .unwrap();
        assert!(
            (d1.estimate - 0.3f64.powi(3) * store.reward_scale()).abs() < 1e-9,
            "{}",
            d1.estimate
        );
    }

    #[test]
    fn invalidate_table_drops_only_dependents() {
        let cat = catalog();
        let qab = two_way(&cat, false);
        let mut qb = QueryBuilder::new(&cat);
        qb.table("b").unwrap();
        qb.table("c").unwrap();
        let j = qb.col("b.k").unwrap().eq(qb.col("c.k").unwrap());
        qb.filter(j);
        qb.select_col("b.v").unwrap();
        let qbc = qb.build().unwrap();

        let mut store = KnowledgeStore::default();
        store.record(&observe(&qab, &deps(), &metrics_for(&qab, 0.8, 0.2)));
        let mut m = ExecMetrics {
            table_cards: vec![(2, 4), (2, 4)],
            ..ExecMetrics::default()
        };
        m.edge_rewards.insert((0, 1), (1.0, 2));
        store.record(&observe(&qbc, &deps(), &m));
        // `tbl:b|` is shared by both queries — that's the transfer.
        let (t, e) = store.len();
        assert_eq!((t, e), (3, 2));

        // Dropping `a` keeps the b⋈c knowledge intact.
        let dropped = store.invalidate_table("a");
        assert_eq!(dropped, 2, "a's table entry and the a~b edge");
        assert!(store.seed(&qbc, &deps()).is_some());
        assert_eq!(store.stats().invalidated, 2);
        // The a⋈b query retains only b's selectivity signal: no edge
        // knowledge and no root prior for `a` itself.
        let p = store.seed(&qab, &deps()).unwrap();
        assert!(p.entries.iter().all(|e| e.prefix.len() == 1));
        assert!(p.entries.iter().all(|e| e.prefix != vec![0]));
    }

    #[test]
    fn capacity_evicts_least_observed() {
        let cat = catalog();
        let q = two_way(&cat, false);
        let mut store = KnowledgeStore::new(KnowledgeConfig {
            capacity: 1,
            prior_weight: 8,
        });
        store.record(&observe(&q, &deps(), &metrics_for(&q, 0.8, 0.2)));
        let (t, e) = store.len();
        assert!(t <= 1 && e <= 1, "capacity must bound both maps");
        assert!(store.stats().evicted > 0);
        assert!(store.approx_bytes() > 0);

        // capacity == 0 disables the store without panicking.
        let mut off = KnowledgeStore::new(KnowledgeConfig {
            capacity: 0,
            prior_weight: 8,
        });
        off.record(&observe(&q, &deps(), &metrics_for(&q, 0.8, 0.2)));
        assert!(off.is_empty());
    }

    #[test]
    fn single_table_and_unknown_queries_yield_none() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.select_col("a.v").unwrap();
        let single = qb.build().unwrap();
        let mut store = KnowledgeStore::default();
        assert!(store.seed(&single, &deps()).is_none());
        let q = two_way(&cat, false);
        assert!(store.seed(&q, &deps()).is_none(), "empty store");
        assert_eq!(store.stats().no_priors, 2);
    }
}
