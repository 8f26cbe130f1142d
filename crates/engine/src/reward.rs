//! Progress-based reward calculation (paper §4.5).
//!
//! The reward for a time slice measures "how quickly execution proceeds
//! using the chosen join order". The paper's refined reward sums tuple
//! index deltas, "scaling each one down by the product of cardinality
//! values of its associated table and the preceding tables in the current
//! join order" — equivalently, the cursor's fractional position in the
//! lexicographic enumeration space, differenced across the slice. The
//! simple variant (progress in the left-most table only) matches the
//! formal analysis of §5.

use skinner_query::TableId;

/// Which reward function feeds the UCT tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RewardKind {
    /// Fractional progress of the whole cursor (the paper's refinement;
    /// default).
    #[default]
    ScaledDeltas,
    /// Left-most table progress only (used by the §5 analysis).
    LeftmostProgress,
}

/// Fractional position of `state` (indexed by table) in the enumeration
/// space of `order`: `Σ_i s[j_i] / Π_{q ≤ i} |R_{j_q}|`, a value in
/// `[0, 1]`.
pub fn fractional_position(order: &[TableId], state: &[u32], cards: &[u32]) -> f64 {
    let mut denom = 1.0f64;
    let mut f = 0.0f64;
    for &t in order {
        let card = cards[t].max(1) as f64;
        denom *= card;
        f += state[t] as f64 / denom;
    }
    f
}

/// Compute the slice reward given cursors before and after.
pub fn reward(
    kind: RewardKind,
    order: &[TableId],
    before: &[u32],
    after: &[u32],
    cards: &[u32],
) -> f64 {
    let r = match kind {
        RewardKind::ScaledDeltas => {
            fractional_position(order, after, cards) - fractional_position(order, before, cards)
        }
        RewardKind::LeftmostProgress => {
            let t = order[0];
            (after[t] as f64 - before[t] as f64) / cards[t].max(1) as f64
        }
    };
    r.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractional_bounds() {
        let order = [0usize, 1];
        let cards = [10u32, 10];
        assert_eq!(fractional_position(&order, &[0, 0], &cards), 0.0);
        let f = fractional_position(&order, &[9, 9], &cards);
        assert!(f < 1.0 && f > 0.98);
    }

    #[test]
    fn lexicographic_monotone() {
        // Cursor advancing lexicographically must increase the fraction.
        let order = [0usize, 1, 2];
        let cards = [4u32, 4, 4];
        let mut prev = -1.0;
        for a in 0..4u32 {
            for b in 0..4u32 {
                for c in 0..4u32 {
                    let f = fractional_position(&order, &[a, b, c], &cards);
                    assert!(f > prev, "({a},{b},{c})");
                    prev = f;
                }
            }
        }
    }

    #[test]
    fn deeper_tables_weigh_less() {
        let order = [0usize, 1];
        let cards = [10u32, 100];
        let shallow = fractional_position(&order, &[1, 0], &cards);
        let deep = fractional_position(&order, &[0, 99], &cards);
        assert!(shallow > deep);
    }

    #[test]
    fn reward_kinds() {
        let order = [1usize, 0];
        let cards = [100u32, 10];
        let before = [0u32, 2];
        let after = [50u32, 3];
        // leftmost table is table 1 (cards 10): delta 1/10
        let r = reward(
            RewardKind::LeftmostProgress,
            &order,
            &before,
            &after,
            &cards,
        );
        assert!((r - 0.1).abs() < 1e-9);
        let r2 = reward(RewardKind::ScaledDeltas, &order, &before, &after, &cards);
        assert!(r2 > 0.1, "scaled reward also counts deep progress: {r2}");
    }

    #[test]
    fn reward_clamped_nonnegative() {
        // Deep coordinates reset on backtrack can make naive deltas
        // negative; the clamp keeps UCT's [0,1] contract.
        let order = [0usize, 1];
        let cards = [10u32, 10];
        let r = reward(RewardKind::ScaledDeltas, &order, &[3, 9], &[3, 0], &cards);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn zero_card_guard() {
        let order = [0usize];
        let cards = [0u32];
        let f = fractional_position(&order, &[0], &cards);
        assert!(f.is_finite());
    }
}
