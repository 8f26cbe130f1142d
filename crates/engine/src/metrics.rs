//! Execution metrics collected by Skinner-C.
//!
//! These feed the paper's analysis figures: the share of slices spent in
//! the top-k join orders (Fig. 7b) and the memory footprint of the
//! auxiliary data structures (Fig. 8).

use skinner_query::TableId;
use skinner_storage::FxHashMap;
use std::time::Duration;

/// Metrics for one Skinner-C query execution.
#[derive(Debug, Default, Clone)]
pub struct ExecMetrics {
    /// Number of time slices executed.
    pub slices: u64,
    /// Total multi-way-join steps across slices (the tuples-examined
    /// analogue of the paper's per-slice accounting).
    pub steps: u64,
    /// OS threads the worker pool spawned while this run's filter scans
    /// ran on it, net of panic-driven worker replacements (which a run
    /// that completes normally never caused — its own panic would have
    /// aborted it). The pool is persistent, so after its one-time
    /// warm-up this is 0 for every run; non-zero means pool warm-up
    /// (first parallel pre-processing on that pool). 0 when
    /// pre-processing ran on the calling thread alone. On a pool shared
    /// across concurrent queries the attribution is approximate: a
    /// racing query's warm-up spawns land in whichever run's delta
    /// observes them. Exact for a private pool and in steady state.
    pub thread_spawns: u64,
    /// UCT nodes adopted from a prior execution's snapshot at run start
    /// (0 = cold start; see `RunOptions::prior`).
    pub warm_start_nodes: usize,
    /// UCT nodes materialized from cross-query knowledge priors at run
    /// start (see `RunOptions::arm_priors`). Mutually exclusive with
    /// `warm_start_nodes`: an exact-template snapshot always wins over
    /// coarse priors, so at most one of the two is non-zero.
    pub prior_seeded_nodes: usize,
    /// Per-table `(filtered_rows, base_rows)` observed after
    /// pre-processing, indexed by `TableId` — the selectivity
    /// observations the knowledge store learns from.
    pub table_cards: Vec<(u64, u64)>,
    /// Directed join-edge reward statistics: for every equi-joined table
    /// pair `(a, b)` of the query, the slices whose chosen order placed
    /// `a` before `b` accumulate `(reward_sum, count)` under key
    /// `(a, b)` (and vice versa under `(b, a)`), so the knowledge store
    /// can compare the two precedence directions of each edge.
    pub edge_rewards: FxHashMap<(TableId, TableId), (f64, u64)>,
    /// Join orders compiled to the codegen tier (one specialized kernel
    /// over the whole order, at any length): every bound order.
    pub codegen_orders: usize,
    /// Always 0: every join order runs on a compiled kernel. Kept only
    /// for `benchmark/`, whose ROADMAP item 2 `[benchmark]` commit
    /// removes it.
    pub fallback_orders: usize,
    /// Slices executed on a compiled kernel: always every slice. Kept
    /// only for `benchmark/`, whose ROADMAP item 2 `[benchmark]` commit
    /// removes it.
    pub codegen_slices: u64,
    /// Wall time in pre-processing.
    pub preprocess_time: Duration,
    /// Wall time in the join phase.
    pub join_time: Duration,
    /// Wall time in post-processing (set by the caller).
    pub postprocess_time: Duration,
    /// Selection count per join order (Fig. 7b).
    pub order_selections: FxHashMap<Vec<TableId>, u64>,
    /// Final UCT tree node count (Fig. 8a).
    pub uct_nodes: usize,
    /// Final UCT tree bytes.
    pub uct_bytes: usize,
    /// Progress-trie node count (Fig. 8b).
    pub tracker_nodes: usize,
    /// Progress-trie bytes.
    pub tracker_bytes: usize,
    /// Distinct result tuples (Fig. 8c). A run that folds a global
    /// MIN/MAX instead of deduplicating (`SkinnerC::run_into`) reports
    /// emitted tuples here, duplicates included, like `result_attempts`.
    pub result_tuples: usize,
    /// Result-set bytes (0 when the run folded instead of storing).
    pub result_bytes: usize,
    /// Hash-index bytes.
    pub index_bytes: usize,
    /// Result-tuple insert attempts (duplicates included).
    pub result_attempts: u64,
}

impl ExecMetrics {
    /// The `k` most-selected join orders with their selection share.
    pub fn top_orders(&self, k: usize) -> Vec<(Vec<TableId>, f64)> {
        let total: u64 = self.order_selections.values().sum();
        let mut entries: Vec<(Vec<TableId>, u64)> = self
            .order_selections
            .iter()
            .map(|(o, &c)| (o.clone(), c))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries
            .into_iter()
            .take(k)
            .map(|(o, c)| (o, c as f64 / total.max(1) as f64))
            .collect()
    }

    /// Cumulative selection share of the top-k orders (Fig. 7b's y-axis).
    pub fn top_k_share(&self, k: usize) -> f64 {
        self.top_orders(k).iter().map(|(_, s)| s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_orders_ranking() {
        let mut m = ExecMetrics::default();
        m.order_selections.insert(vec![0, 1], 70);
        m.order_selections.insert(vec![1, 0], 20);
        m.order_selections.insert(vec![0, 2], 10);
        let top = m.top_orders(2);
        assert_eq!(top[0].0, vec![0, 1]);
        assert!((top[0].1 - 0.7).abs() < 1e-9);
        assert!((m.top_k_share(2) - 0.9).abs() < 1e-9);
        assert!((m.top_k_share(10) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = ExecMetrics::default();
        assert_eq!(m.top_k_share(3), 0.0);
    }
}
