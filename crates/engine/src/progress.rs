//! Progress tracking and sharing across join orders (paper §4.5).
//!
//! # Cursor semantics
//!
//! The execution state of a join order is a *cursor*: one filtered-table
//! position per table, read in join-order sequence. The multi-way join
//! enumerates tuple combinations in lexicographic cursor order, so
//! "everything strictly lex-below the cursor has been fully expanded into
//! result tuples" is an invariant the tracker can rely on.
//!
//! Progress is shared through two mechanisms, both from the paper:
//!
//! * **Offsets** — `offset[t]` tuples of table `t` are *fully joined*:
//!   every result tuple containing them was emitted. All join orders skip
//!   below-offset positions everywhere. Offsets advance whenever a slice
//!   moves the left-most table's cursor (tuple-granularity sharing).
//! * **Prefix fast-forward** — a trie over join-order prefixes stores, at
//!   each prefix node, the lexicographically maximal cursor projection
//!   ever backed up through that node. Restoring an order walks its
//!   prefix path and may adopt `(prefix cursor, offsets...)` — resuming
//!   from the most advanced sibling rather than from scratch. Re-emission
//!   at the adoption boundary is possible and harmless: the result set
//!   dedups tuple-index vectors (Theorem 5.3's argument).

use skinner_query::TableId;
use skinner_storage::FxHashMap;

/// Sentinel for absent child in the trie.
const NO_NODE: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    children: FxHashMap<TableId, usize>,
    /// Lex-max cursor projection for this prefix (length = node depth).
    cursor: Vec<u32>,
}

/// Trie over join-order prefixes storing shared progress.
#[derive(Debug)]
pub struct ProgressTracker {
    nodes: Vec<Node>,
    num_tables: usize,
}

impl ProgressTracker {
    /// Tracker for an `m`-table query.
    pub fn new(num_tables: usize) -> ProgressTracker {
        ProgressTracker {
            nodes: vec![Node {
                children: FxHashMap::default(),
                cursor: Vec::new(),
            }],
            num_tables,
        }
    }

    /// Number of trie nodes (Figure 8b).
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap footprint in bytes (Figure 8d).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + n.cursor.len() * 4
                    + n.children.len() * (std::mem::size_of::<(TableId, usize)>() + 8)
            })
            .sum()
    }

    /// Back up the state of `order` (cursor indexed **by table id**).
    ///
    /// Every prefix node along the order's path raises its stored cursor
    /// to the lex-max of itself and this state's projection.
    pub fn backup(&mut self, order: &[TableId], state_by_table: &[u32]) {
        let mut node = 0usize;
        let mut proj: Vec<u32> = Vec::with_capacity(order.len());
        for &t in order {
            proj.push(state_by_table[t]);
            let next = self.nodes[node]
                .children
                .get(&t)
                .copied()
                .unwrap_or(NO_NODE);
            let next = if next == NO_NODE {
                let id = self.nodes.len();
                self.nodes.push(Node {
                    children: FxHashMap::default(),
                    cursor: proj.clone(),
                });
                self.nodes[node].children.insert(t, id);
                id
            } else {
                if lex_less(&self.nodes[next].cursor, &proj) {
                    self.nodes[next].cursor.clear();
                    self.nodes[next].cursor.extend_from_slice(&proj);
                }
                next
            };
            node = next;
        }
    }

    /// Restore the most advanced safe state for `order`, given the
    /// current global `offsets` (indexed by table id), into `out`
    /// (indexed by table id): positions of tables not in any shared
    /// prefix start at their offsets. The caller owns `out`, so the
    /// per-slice driver loop reuses one scratch cursor.
    pub fn restore_into(&self, order: &[TableId], offsets: &[u32], out: &mut [u32]) {
        let m = self.num_tables;
        debug_assert_eq!(order.len(), m);
        debug_assert_eq!(out.len(), m);
        // Order-position scratch on the stack (queries are capped at 64
        // tables by the `TableSet` bitset), keeping the per-slice restore
        // allocation-free.
        assert!(m <= 64, "more tables than TableSet supports");
        let mut best_buf = [0u32; 64];
        let mut candidate_buf = [0u32; 64];
        // Baseline: fresh start at the offsets.
        let best = &mut best_buf[..m];
        for (b, &t) in best.iter_mut().zip(order) {
            *b = offsets[t];
        }

        // Walk the trie along the order's path; every visited node's
        // cursor yields a candidate (cursor prefix clamped to offsets,
        // offsets below). Deeper candidates dominate shallower ones only
        // sometimes, so compare them all lexicographically.
        let mut node = 0usize;
        let candidate = &mut candidate_buf[..m];
        candidate.copy_from_slice(best);
        for (depth, &t) in order.iter().enumerate() {
            match self.nodes[node].children.get(&t) {
                Some(&next) => {
                    let cursor = &self.nodes[next].cursor;
                    // candidate = cursor, except: once an offset overtakes
                    // a cursor coordinate, that coordinate rises to the
                    // offset and everything deeper resets to offsets
                    // (below-offset tuples are globally complete, but the
                    // raised coordinate's own combinations are not — they
                    // must be rescanned from the floors).
                    let mut clamped = false;
                    for (i, &ot) in order.iter().enumerate() {
                        candidate[i] = if i > depth || clamped {
                            offsets[ot]
                        } else if offsets[ot] > cursor[i] {
                            clamped = true;
                            offsets[ot]
                        } else {
                            cursor[i]
                        };
                    }
                    if lex_less(best, candidate) {
                        best.copy_from_slice(candidate);
                    }
                    node = next;
                }
                None => break,
            }
        }

        // Re-index by table.
        for (i, &t) in order.iter().enumerate() {
            out[t] = best[i];
        }
    }
}

/// Is `a` lexicographically strictly less than `b`? Shorter prefixes are
/// compared on their common length, ties broken toward the longer vector.
fn lex_less(a: &[u32], b: &[u32]) -> bool {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    a.len() < b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn restore(tr: &ProgressTracker, order: &[TableId], offsets: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; tr.num_tables];
        tr.restore_into(order, offsets, &mut out);
        out
    }

    #[test]
    fn restore_without_backup_is_offsets() {
        let tr = ProgressTracker::new(3);
        let s = restore(&tr, &[0, 1, 2], &[5, 6, 7]);
        assert_eq!(s, vec![5, 6, 7]);
        let s = restore(&tr, &[2, 0, 1], &[5, 6, 7]);
        assert_eq!(s, vec![5, 6, 7]);
    }

    #[test]
    fn exact_roundtrip() {
        let mut tr = ProgressTracker::new(3);
        tr.backup(&[0, 1, 2], &[4, 9, 2]);
        let s = restore(&tr, &[0, 1, 2], &[0, 0, 0]);
        assert_eq!(s, vec![4, 9, 2]);
    }

    #[test]
    fn prefix_sharing_fast_forwards_sibling() {
        let mut tr = ProgressTracker::new(3);
        // Order A = [0,1,2] got far: cursor by table = [7, 3, 5]
        tr.backup(&[0, 1, 2], &[7, 3, 5]);
        // Order B = [0,1,2]'s sibling [0,2,1] shares prefix [0]:
        // adopt position 7 for table 0, offsets elsewhere.
        let s = restore(&tr, &[0, 2, 1], &[0, 0, 0]);
        assert_eq!(s[0], 7);
        assert_eq!(s[1], 0);
        assert_eq!(s[2], 0);
    }

    #[test]
    fn deeper_shared_prefix_wins() {
        let mut tr = ProgressTracker::new(3);
        tr.backup(&[0, 1, 2], &[7, 3, 5]);
        // same first two tables, different last → shares prefix [0,1]
        let s = restore(&tr, &[0, 1, 2], &[0, 0, 0]);
        assert_eq!(s, vec![7, 3, 5]);
    }

    #[test]
    fn offsets_clamp_restored_state() {
        let mut tr = ProgressTracker::new(2);
        tr.backup(&[0, 1], &[2, 4]);
        // offset for table 0 advanced past the stored cursor
        let s = restore(&tr, &[0, 1], &[6, 0]);
        assert!(s[0] >= 6, "below-offset tuples are globally complete");
    }

    #[test]
    fn lex_max_kept_across_backups() {
        let mut tr = ProgressTracker::new(2);
        tr.backup(&[0, 1], &[3, 9]);
        tr.backup(&[0, 1], &[3, 2]); // behind: must not regress
        let s = restore(&tr, &[0, 1], &[0, 0]);
        assert_eq!(s, vec![3, 9]);
        tr.backup(&[0, 1], &[4, 0]); // ahead on first coordinate
        let s = restore(&tr, &[0, 1], &[0, 0]);
        assert_eq!(s, vec![4, 0]);
    }

    #[test]
    fn unrelated_orders_do_not_interfere() {
        let mut tr = ProgressTracker::new(3);
        tr.backup(&[1, 0, 2], &[8, 8, 8]);
        // order starting with table 2 shares no prefix
        let s = restore(&tr, &[2, 1, 0], &[1, 1, 1]);
        assert_eq!(s, vec![1, 1, 1]);
    }

    #[test]
    fn node_count_grows_with_prefixes() {
        let mut tr = ProgressTracker::new(3);
        assert_eq!(tr.num_nodes(), 1);
        tr.backup(&[0, 1, 2], &[1, 1, 1]);
        assert_eq!(tr.num_nodes(), 4); // root + 3 path nodes
        tr.backup(&[0, 2, 1], &[1, 1, 1]);
        assert_eq!(tr.num_nodes(), 6); // shares the [0] node
        assert!(tr.approx_bytes() > 0);
    }

    #[test]
    fn lex_less_prefix_rule() {
        assert!(lex_less(&[1, 2], &[1, 2, 0]));
        assert!(!lex_less(&[1, 2, 0], &[1, 2]));
        assert!(lex_less(&[1, 2], &[1, 3]));
        assert!(!lex_less(&[2], &[1, 9]));
    }
}
