//! Progress-based reward calculation (paper §4.5).
//!
//! The reward for a time slice measures "how quickly execution proceeds
//! using the chosen join order". The paper sums tuple index deltas,
//! "scaling each one down by the product of cardinality values of its
//! associated table and the preceding tables in the current join order".
//! Read over the candidates the join kernel visits, that is the cursor's
//! progress `Σ_i rank_i / Π_{q ≤ i} |cands_q|`
//! ([`CompiledKernel::progress`](skinner_codegen::CompiledKernel::progress)):
//! `cands_i` is the candidate sequence position `i` walks for the
//! predecessor tuple — a scan's filtered table or an index jump's posting
//! list — and `rank_i` is the cursor's rank within it. On an order of
//! scans this is the cursor's row position scaled by cardinalities. Below
//! an index jump, a row position would divide one posting's worth of work
//! by the whole table's cardinality, so a slice that advances one posting
//! under a one-row left-most table would earn almost nothing.
//!
//! The reward is the progress made across the slice, clamped to the
//! `[0, 1]` range UCT expects.

/// The reward of a slice that took the cursor's progress from `before`
/// to `after`.
pub(crate) fn slice_reward(before: f64, after: f64) -> f64 {
    (after - before).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::PreparedQuery;
    use skinner_query::{Query, QueryBuilder};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    /// The cross product of tables with `cards` rows, whose compiled
    /// kernels scan at every position.
    fn cross_product(cards: &[usize]) -> Query {
        let mut cat = Catalog::new();
        for (t, &n) in cards.iter().enumerate() {
            cat.register(
                Table::new(
                    format!("t{t}"),
                    Schema::new([ColumnDef::new("v", ValueType::Int)]),
                    vec![Column::from_ints((0..n as i64).collect())],
                )
                .unwrap(),
            );
        }
        let mut qb = QueryBuilder::new(&cat);
        for t in 0..cards.len() {
            qb.table(&format!("t{t}")).unwrap();
        }
        qb.build().unwrap()
    }

    /// Progress of each cursor in `states` on the identity order's
    /// compiled kernel over tables of `cards` rows.
    fn progress(cards: &[usize], states: &[[u32; 2]]) -> Vec<f64> {
        let q = cross_product(cards);
        let pq = PreparedQuery::new(&q, true, 1);
        let order: Vec<usize> = (0..cards.len()).collect();
        let plan = pq.plan_order(&order);
        let kernel = plan.compile_kernel(None).expect("scans compile");
        let mut rows = vec![0; cards.len()];
        states
            .iter()
            .map(|s| kernel.progress(s, &mut rows))
            .collect()
    }

    #[test]
    fn fractional_bounds() {
        let f = progress(&[10, 10], &[[0, 0], [9, 9], [10, 0]]);
        assert_eq!(f[0], 0.0);
        assert!(f[1] < 1.0 && f[1] > 0.98);
        assert_eq!(f[2], 1.0);
    }

    #[test]
    fn lexicographic_monotone() {
        // A cursor advancing lexicographically must increase progress.
        let states: Vec<[u32; 2]> = (0..5).flat_map(|a| (0..7).map(move |b| [a, b])).collect();
        let f = progress(&[5, 7], &states);
        for (i, w) in f.windows(2).enumerate() {
            assert!(w[1] > w[0], "{:?}", states[i + 1]);
        }
    }

    #[test]
    fn deeper_tables_weigh_less() {
        let f = progress(&[10, 100], &[[1, 0], [0, 99]]);
        assert!(f[0] > f[1]);
    }

    #[test]
    fn reward_is_the_progress_made() {
        assert!((slice_reward(0.25, 0.5) - 0.25).abs() < 1e-12);
        assert_eq!(slice_reward(0.0, 1.0), 1.0);
    }

    #[test]
    fn reward_clamped_nonnegative() {
        // Restored coordinates need not name a candidate, and the resume
        // re-walk moves them to one, so a slice can read lower after than
        // before; the clamp keeps UCT's [0, 1] contract.
        assert_eq!(slice_reward(0.4, 0.3), 0.0);
    }

    #[test]
    fn zero_card_guard() {
        // A position with no candidates ends the walk: no division by 0.
        assert_eq!(progress(&[3, 0], &[[1, 0]]), vec![1.0 / 3.0]);
    }
}
