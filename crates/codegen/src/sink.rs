//! The kernel-facing result sink and slice outcome.
//!
//! These types used to live in `skinner-engine`'s multiway-join module;
//! they moved here because both join kernels — the engine's generic
//! reference kernel and the compiled kernel of this crate — speak the
//! same two-item protocol: *push result tuples into a monomorphized
//! sink* and *report how the slice ended*. The engine re-exports both
//! under their old paths.

use skinner_storage::RowId;

/// Why a join time slice ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContinueResult {
    /// The left-most table's tuples are exhausted: the join (under this
    /// order, with current offsets) is complete.
    Exhausted,
    /// The step budget ran out mid-search; the cursor state holds the
    /// exact resume point.
    BudgetSpent,
}

/// Destination of result tuples for the join kernels. Monomorphized, so
/// alternative sinks (counting, limit-aware, folding) cost nothing
/// on the hot path.
pub trait ResultSink {
    /// Insert a tuple (base row ids in FROM order); false if duplicate.
    fn insert(&mut self, tuple: &[RowId]) -> bool;

    /// True once the sink needs no more tuples (e.g. a LIMIT target was
    /// reached). Kernels consult this on entry and after each insert and
    /// suspend the slice early — the cursor state is identical to a budget
    /// exhaustion, so resumption and progress tracking are unaffected.
    /// Default: never full (statically false for the plain sinks, so the
    /// check monomorphizes away on the hot path).
    #[inline]
    fn is_full(&self) -> bool {
        false
    }

    /// Bytes of result storage this sink currently holds (arena +
    /// dedup structures for materializing sinks). Drivers enforcing a
    /// memory budget read this at slice boundaries; sinks that don't
    /// materialize report 0.
    #[inline]
    fn approx_bytes(&self) -> usize {
        0
    }
}
