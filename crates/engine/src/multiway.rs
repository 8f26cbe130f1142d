//! Depth-first multi-way join with O(1) intermediate state (Algorithm 2),
//! executed by an *order-specialized* kernel.
//!
//! The engine fixes one tuple per predecessor table before considering
//! tuples of the successor table — a depth-first search over tuple
//! combinations (Figure 5 of the paper). The *only* execution state is the
//! cursor: one filtered-table position per table. Each slice resumes by
//! walking down from position 0, re-verifying the restored coordinates'
//! predicates (O(m) work), then continues the lexicographic scan.
//!
//! # One compiled kernel, one oracle
//!
//! SkinnerDB's regret bounds only pay off if per-tuple overhead is tiny;
//! the paper's Skinner-C compiles each query into specialized code (§6).
//! Our safe-Rust analogue is *plan-time binding*: an [`OrderPlan`]
//! resolves every indirection once per (query, order) into the compiled
//! positions of a `skinner-codegen` kernel —
//!
//! * predicates are [`BoundPred`](skinner_query::BoundPred)s holding raw
//!   typed column slices and an accepted-ordering bitmask, so a predicate
//!   eval is slice reads plus one AND, with no table/column re-resolution
//!   and no operator dispatch;
//! * index jumps hold a direct [`HashIndex`](skinner_storage::HashIndex)
//!   reference and the key column in its physical representation, and
//!   walk a posting-list cursor (the §4.5 extension for equality
//!   predicates: jump to the next position whose key matches);
//! * per-position cardinalities and filtered-position slices are cached
//!   in the plan, so the inner loop never touches the prepared query.
//!
//! Every join order, a single table included, runs on that kernel
//! ([`MultiwayJoin::continue_join_compiled`]). The executor owns the
//! reusable `rows` and kernel scratch, and [`ResultSet`] stores tuples in
//! one flat arena with an open-addressing dedup table — a result insert
//! (including duplicate attempts from order switches) allocates nothing
//! in the steady state.
//!
//! The pre-specialization interpreted kernel survives as
//! [`MultiwayJoin::continue_join_generic`]: it re-resolves columns through
//! [`CompiledPred::eval`](skinner_query::CompiledPred::eval) and probes
//! the index map per advance. It is the differential-testing oracle.
//! Vectorized join kernels and a JIT are parked in ROADMAP.md until a
//! profile asks for them.

use crate::prepare::{OrderPlan, OrderSpec, PreparedQuery};
use skinner_codegen::{CompiledKernel, KernelScratch};
// The sink protocol moved to `skinner-codegen` (every execution tier
// speaks it); re-exported here under the historical paths.
pub use skinner_codegen::{ContinueResult, ResultSink};
use skinner_query::TableId;
use skinner_storage::hash::FxHasher;
use skinner_storage::RowId;
use std::hash::Hasher;

const EMPTY_SLOT: u32 = u32::MAX;

impl ResultSink for ResultSet {
    #[inline]
    fn insert(&mut self, tuple: &[RowId]) -> bool {
        ResultSet::insert(self, tuple)
    }

    #[inline]
    fn approx_bytes(&self) -> usize {
        ResultSet::approx_bytes(self)
    }
}

/// A sink a whole Skinner-C run collects into (see
/// `SkinnerC::run_into`): the driver reads its size for LIMIT pushdown
/// and the run's metrics, and takes its tuples at the end.
pub trait Collector: ResultSink {
    /// Tuples collected: distinct tuples for a deduplicating set, every
    /// emitted tuple for a sink that cannot tell duplicates apart.
    fn collected(&self) -> usize;

    /// Insert attempts so far, duplicates included.
    fn attempts(&self) -> u64;

    /// Take the flat row-major tuple arena (`stride` row ids per tuple),
    /// leaving the collector empty. Sinks that keep no tuples return an
    /// empty vector.
    fn take_flat(&mut self, stride: usize) -> Vec<RowId>;
}

impl Collector for ResultSet {
    fn collected(&self) -> usize {
        self.len
    }

    fn attempts(&self) -> u64 {
        self.attempts
    }

    fn take_flat(&mut self, stride: usize) -> Vec<RowId> {
        std::mem::take(self).into_flat(stride)
    }
}

/// A sink that only counts insert attempts — for kernel micro-benchmarks
/// and completion probes that don't need the tuples.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Number of inserts observed (duplicates included).
    pub attempts: u64,
}

impl ResultSink for CountingSink {
    #[inline]
    fn insert(&mut self, _tuple: &[RowId]) -> bool {
        self.attempts += 1;
        true
    }
}

/// The LIMIT-pushdown sink: delegates to a [`Collector`] (a
/// [`ResultSet`] in practice) and reports fullness once `target`
/// *distinct* tuples exist, which suspends the
/// running slice (see [`ResultSink::is_full`]). Used by the Skinner-C
/// driver when [`Query::join_limit`](skinner_query::Query::join_limit)
/// allows the join phase to stop early instead of materializing the
/// full result.
pub(crate) struct LimitSink<'a, C: Collector> {
    inner: &'a mut C,
    target: u64,
}

impl<'a, C: Collector> LimitSink<'a, C> {
    /// Wrap `inner`, reporting full at `target` distinct tuples.
    pub(crate) fn new(inner: &'a mut C, target: u64) -> LimitSink<'a, C> {
        LimitSink { inner, target }
    }

    /// True once the target is reached.
    pub(crate) fn full(&self) -> bool {
        self.inner.collected() as u64 >= self.target
    }
}

impl<C: Collector> ResultSink for LimitSink<'_, C> {
    #[inline]
    fn insert(&mut self, tuple: &[RowId]) -> bool {
        self.inner.insert(tuple)
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.full()
    }

    #[inline]
    fn approx_bytes(&self) -> usize {
        ResultSink::approx_bytes(self.inner)
    }
}

/// Deduplicating result set over tuple-index vectors (paper: "we add
/// tuple index vectors into a result set, avoiding duplicate entries").
///
/// Tuples live contiguously in one flat arena (`stride` row ids per
/// tuple); deduplication goes through an open-addressing table of tuple
/// indices hashed with the vendored Fx hasher. Duplicate inserts —
/// the common case around join-order switches — touch no allocator at
/// all, and `ResultSet::into_flat` is a move of the arena, not a copy.
#[derive(Debug, Default)]
pub struct ResultSet {
    /// Row ids of distinct tuples, concatenated (`len * stride` entries).
    data: Vec<RowId>,
    /// Tuple width; 0 until the first insert fixes it.
    stride: usize,
    /// Open-addressing slots: tuple index into `data`, or `EMPTY_SLOT`.
    slots: Vec<u32>,
    /// Full hash per stored tuple: early-out on probe collisions and
    /// rehash-free growth.
    hashes: Vec<u64>,
    /// Number of distinct tuples.
    len: usize,
    /// Total insert attempts (including duplicates from order switches).
    pub(crate) attempts: u64,
}

#[inline(always)]
fn hash_tuple(tuple: &[RowId]) -> u64 {
    // Pack row-id pairs into 64-bit words: half the mix rounds of
    // hashing each id separately.
    let mut h = FxHasher::default();
    let mut chunks = tuple.chunks_exact(2);
    for pair in &mut chunks {
        h.write_u64((pair[0] as u64) << 32 | pair[1] as u64);
    }
    if let [last] = chunks.remainder() {
        h.write_u32(*last);
    }
    h.finish()
}

impl ResultSet {
    /// Empty set.
    pub fn new() -> ResultSet {
        ResultSet::default()
    }

    /// Insert a tuple (base row ids in FROM order); false if duplicate.
    #[inline]
    pub(crate) fn insert(&mut self, tuple: &[RowId]) -> bool {
        self.attempts += 1;
        if self.stride == 0 {
            assert!(!tuple.is_empty(), "zero-width result tuple");
            self.stride = tuple.len();
            self.slots = vec![EMPTY_SLOT; 1024];
        }
        debug_assert_eq!(tuple.len(), self.stride);
        // Grow at 1/2 load, before probing, so the probe loop always
        // finds an empty slot quickly: plain linear probing clusters
        // badly past ~60% occupancy (slots are 4 bytes, doubling is
        // cheap relative to the tuple arena).
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let h = hash_tuple(tuple);
        // Fold the high half in: the multiply-based Fx hash mixes mostly
        // upward, and linear probing clusters badly on weak low bits.
        let mut idx = (h ^ (h >> 32)) as usize & mask;
        loop {
            let slot = self.slots[idx];
            if slot == EMPTY_SLOT {
                self.slots[idx] = self.len as u32;
                self.data.extend_from_slice(tuple);
                self.hashes.push(h);
                self.len += 1;
                return true;
            }
            let start = slot as usize * self.stride;
            if self.hashes[slot as usize] == h && &self.data[start..start + self.stride] == tuple {
                return false;
            }
            idx = (idx + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        // 4x growth: slots are only 4 bytes each, and quartering the
        // number of rehash rounds matters more than slot memory.
        let new_cap = (self.slots.len() * 4).max(1024);
        let mask = new_cap - 1;
        let mut slots = vec![EMPTY_SLOT; new_cap];
        for (t, &h) in self.hashes.iter().enumerate() {
            let mut idx = (h ^ (h >> 32)) as usize & mask;
            while slots[idx] != EMPTY_SLOT {
                idx = (idx + 1) & mask;
            }
            slots[idx] = t as u32;
        }
        self.slots = slots;
    }

    /// Number of distinct result tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no results.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate distinct tuples (insertion order).
    pub fn iter(&self) -> impl Iterator<Item = &[RowId]> {
        self.data.chunks_exact(self.stride.max(1))
    }

    /// Take the flat row-major tuple arena — a move, not a copy.
    /// `stride` is validated against the width fixed by the first insert
    /// (a mismatch is a caller bug that would silently misalign tuples).
    pub(crate) fn into_flat(self, stride: usize) -> Vec<RowId> {
        assert!(
            self.data.is_empty() || stride == self.stride,
            "stride {stride} != result set stride {}",
            self.stride
        );
        self.data
    }

    /// Approximate heap footprint in bytes (Figure 8c).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<RowId>()
            + self.slots.len() * std::mem::size_of::<u32>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
    }
}

/// One multi-way join executor bound to a prepared query. Owns the
/// per-tuple scratch buffers, reused across time slices. Every slice runs
/// on the calling thread, as in the paper's Skinner-C.
pub struct MultiwayJoin<'a> {
    pq: &'a PreparedQuery,
    /// Current base row per table (slots beyond the active depth are
    /// stale but never read: predicates at position i only touch tables
    /// joined at positions 0..=i).
    rows: Vec<RowId>,
    /// The compiled kernel's candidate cursors and UDF call tallies.
    kernel_scratch: KernelScratch<'a>,
}

impl<'a> MultiwayJoin<'a> {
    /// Bind to a prepared query.
    pub fn new(pq: &'a PreparedQuery) -> MultiwayJoin<'a> {
        MultiwayJoin {
            pq,
            rows: vec![0; pq.num_tables()],
            kernel_scratch: KernelScratch::default(),
        }
    }

    /// Compile `plan` and run it for one slice, as
    /// [`continue_join_compiled`](MultiwayJoin::continue_join_compiled)
    /// does; the order is read from `plan`. Kept only for `benchmark/`,
    /// whose ROADMAP item 2 `[benchmark]` commit removes it.
    pub fn continue_join<R: ResultSink>(
        &mut self,
        _order: &[TableId],
        plan: &OrderPlan<'_>,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        results: &mut R,
    ) -> (ContinueResult, u64) {
        let kernel = plan
            .compile_kernel(None)
            .expect("a join order is never empty");
        let mut scratch = KernelScratch::default();
        kernel.run(
            offsets,
            state,
            budget,
            &mut self.rows,
            &mut scratch,
            results,
        )
    }

    /// Execute a compiled kernel (see `skinner-codegen`) from cursor
    /// `state` (indexed by table id, filtered positions) for at most
    /// `budget` outer-loop steps. `offsets` are the global per-table
    /// floors. Result tuples are inserted into `results`. The caller
    /// guarantees `kernel` was compiled from this prepared query.
    ///
    /// Returns the slice outcome and the number of steps consumed.
    pub fn continue_join_compiled<R: ResultSink>(
        &mut self,
        kernel: &CompiledKernel<'a>,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        results: &mut R,
    ) -> (ContinueResult, u64) {
        debug_assert_eq!(kernel.num_tables(), self.pq.num_tables());
        kernel.run(
            offsets,
            state,
            budget,
            &mut self.rows,
            &mut self.kernel_scratch,
            results,
        )
    }

    /// Forwards to [`continue_join_compiled`](MultiwayJoin::continue_join_compiled);
    /// `plan` is unused. Every compiled kernel covers its whole order, so
    /// the branch of `benchmark/src/layers.rs` that calls this is never
    /// taken. Kept only for `benchmark/`, whose ROADMAP item 2
    /// `[benchmark]` commit removes it.
    pub fn continue_join_split<R: ResultSink>(
        &mut self,
        kernel: &CompiledKernel<'a>,
        _plan: &OrderPlan<'_>,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        results: &mut R,
    ) -> (ContinueResult, u64) {
        self.continue_join_compiled(kernel, offsets, state, budget, results)
    }

    /// The pre-specialization reference kernel: identical join semantics,
    /// but every predicate eval re-resolves its columns through
    /// [`CompiledPred::eval`](skinner_query::CompiledPred::eval) and
    /// every index jump probes the `(table, column)` index map. Kept as
    /// the differential-testing oracle.
    #[allow(clippy::too_many_arguments)]
    pub fn continue_join_generic<R: ResultSink>(
        &mut self,
        order: &[TableId],
        spec: &OrderSpec,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        results: &mut R,
    ) -> (ContinueResult, u64) {
        let pq = self.pq;
        let m = order.len();
        let cards = &pq.cards;
        let tables = &pq.tables;
        let preds = &pq.join_preds;
        let rows = &mut self.rows;

        let mut i = 0usize;
        let mut steps: u64 = 0;

        if state[order[0]] >= cards[order[0]] {
            return (ContinueResult::Exhausted, 0);
        }

        loop {
            steps += 1;
            if steps > budget {
                return (ContinueResult::BudgetSpent, steps - 1);
            }
            let t = order[i];
            if state[t] >= cards[t] {
                match next_tuple_generic(pq, spec, offsets, state, &mut i, rows, true) {
                    true => continue,
                    false => return (ContinueResult::Exhausted, steps),
                }
            }
            rows[t] = pq.base_row(t, state[t]);
            let ok = spec.positions[i]
                .applicable
                .iter()
                .all(|&pi| preds[pi].eval(rows, tables));
            if ok {
                if i + 1 == m {
                    results.insert(rows);
                    if !next_tuple_generic(pq, spec, offsets, state, &mut i, rows, false) {
                        return (ContinueResult::Exhausted, steps);
                    }
                } else {
                    i += 1;
                }
            } else if !next_tuple_generic(pq, spec, offsets, state, &mut i, rows, false) {
                return (ContinueResult::Exhausted, steps);
            }
        }
    }
}

/// Generic-kernel advance: per-jump `(table, column)` map probe and
/// column re-resolution, as before plan-time specialization. Composite
/// jumps re-derive the fused key from the raw component columns on every
/// advance (the oracle deliberately shares no precomputed key vector
/// with the specialized kernels).
#[allow(clippy::too_many_arguments)]
fn next_tuple_generic(
    pq: &PreparedQuery,
    spec: &OrderSpec,
    offsets: &[u32],
    state: &mut [u32],
    i: &mut usize,
    rows: &[RowId],
    mut skip_advance: bool,
) -> bool {
    use crate::prepare::JumpSpec;
    use skinner_storage::fused_join_key;
    loop {
        let pos = &spec.positions[*i];
        let t = pos.table;
        if !skip_advance || state[t] < pq.cards[t] {
            state[t] = match &pos.jump {
                Some(jump) if !skip_advance => {
                    let (key, index) = match jump {
                        JumpSpec::Single {
                            index_col,
                            src_table,
                            src_col,
                            ..
                        } => (
                            pq.tables[*src_table]
                                .column(*src_col)
                                .join_key(rows[*src_table] as usize),
                            &*pq.indexes[&(t, *index_col)],
                        ),
                        JumpSpec::Composite {
                            group, src_is_a, ..
                        } => {
                            let sides = pq.composites[*group].sides(*src_is_a);
                            let key = fused_join_key(
                                sides
                                    .src_cols
                                    .iter()
                                    .map(|&c| pq.tables[sides.src_table].column(c)),
                                rows[sides.src_table] as usize,
                            );
                            (key, sides.index)
                        }
                    };
                    match key {
                        Some(k) => index.next_ge(k, state[t] + 1).unwrap_or(pq.cards[t]),
                        None => pq.cards[t],
                    }
                }
                _ => state[t].saturating_add(1),
            };
        }
        skip_advance = false;
        if state[t] < pq.cards[t] {
            return true;
        }
        if *i == 0 {
            return false;
        }
        state[t] = offsets[t];
        *i -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::PreparedQuery;
    use skinner_query::{Expr, Query, QueryBuilder};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "a",
                Schema::new([
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 3, 4]),
                    Column::from_ints(vec![10, 20, 30, 40]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "b",
                Schema::new([
                    ColumnDef::new("a_id", ValueType::Int),
                    ColumnDef::new("w", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 1, 3, 5]),
                    Column::from_ints(vec![7, 8, 9, 6]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "c",
                Schema::new([ColumnDef::new("w", ValueType::Int)]),
                vec![Column::from_ints(vec![7, 9, 9])],
            )
            .unwrap(),
        );
        cat
    }

    fn three_way(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        qb.table("c").unwrap();
        let j1 = qb.col("a.id").unwrap().eq(qb.col("b.a_id").unwrap());
        let j2 = qb.col("b.w").unwrap().eq(qb.col("c.w").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("a.v").unwrap();
        qb.build().unwrap()
    }

    /// Run one order to completion in a single giant slice of its
    /// compiled kernel.
    fn run_order(q: &Query, order: &[usize], indexes: bool) -> Vec<Vec<u32>> {
        let pq = PreparedQuery::new(q, indexes, 1);
        let kernel = pq
            .plan_order(order)
            .compile_kernel(None)
            .expect("non-empty order");
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; pq.num_tables()];
        let mut state = offsets.clone();
        let mut rs = ResultSet::new();
        let (res, _) =
            join.continue_join_compiled(&kernel, &offsets, &mut state, u64::MAX, &mut rs);
        assert_eq!(res, ContinueResult::Exhausted);
        let mut out: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
        out.sort();
        out
    }

    /// Same, through the generic reference kernel.
    fn run_order_generic(q: &Query, order: &[usize], indexes: bool) -> Vec<Vec<u32>> {
        let pq = PreparedQuery::new(q, indexes, 1);
        let spec = pq.plan_spec(order);
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; pq.num_tables()];
        let mut state = offsets.clone();
        let mut rs = ResultSet::new();
        let (res, _) =
            join.continue_join_generic(order, &spec, &offsets, &mut state, u64::MAX, &mut rs);
        assert_eq!(res, ContinueResult::Exhausted);
        let mut out: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
        out.sort();
        out
    }

    #[test]
    fn all_orders_same_result() {
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order_generic(&q, &[0, 1, 2], true);
        assert_eq!(expected.len(), 3);
        for order in [
            vec![0usize, 1, 2],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 1, 0],
        ] {
            assert_eq!(run_order(&q, &order, true), expected, "order {order:?}");
            assert_eq!(run_order(&q, &order, false), expected, "no-index {order:?}");
        }
    }

    #[test]
    fn generic_kernel_matches_specialized() {
        let cat = catalog();
        let q = three_way(&cat);
        for order in [vec![0usize, 1, 2], vec![1, 0, 2], vec![2, 1, 0]] {
            for indexes in [true, false] {
                assert_eq!(
                    run_order(&q, &order, indexes),
                    run_order_generic(&q, &order, indexes),
                    "kernels disagree on order {order:?} indexes {indexes}"
                );
            }
        }
    }

    #[test]
    fn compiled_kernel_slicing_preserves_results() {
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order_generic(&q, &[0, 1, 2], true);
        let pq = PreparedQuery::new(&q, true, 1);
        let plan = pq.plan_order(&[0, 1, 2]);
        let kernel = plan.compile_kernel(None).expect("supported shape");
        // The string-free int chain elides its jump predicates entirely.
        assert!(kernel.positions()[1..].iter().all(|p| p.elided));
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; 3];
        let mut state = vec![0u32; 3];
        let mut rs = ResultSet::new();
        let mut slices = 0;
        loop {
            slices += 1;
            assert!(slices < 10_000, "no termination");
            let (res, steps) =
                join.continue_join_compiled(&kernel, &offsets, &mut state, 12, &mut rs);
            assert!(steps <= 12);
            if res == ContinueResult::Exhausted {
                break;
            }
        }
        let mut got: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
        got.sort();
        assert_eq!(got, expected);
        assert!(slices > 1, "test should actually slice");
    }

    #[test]
    fn matches_expected_tuples() {
        let cat = catalog();
        let q = three_way(&cat);
        let got = run_order(&q, &[0, 1, 2], true);
        // (a.id=1, b row0 w=7, c row0), (a.id=3, b row2 w=9, c rows 1,2)
        let expected = vec![vec![0u32, 0, 0], vec![2, 2, 1], vec![2, 2, 2]];
        assert_eq!(got, expected);
    }

    #[test]
    fn slicing_preserves_results() {
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order_generic(&q, &[0, 1, 2], true);
        // run the same order in 3-step slices with state persistence
        let pq = PreparedQuery::new(&q, true, 1);
        let kernel = pq.plan_order(&[0, 1, 2]).compile_kernel(None).unwrap();
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; 3];
        let mut state = vec![0u32; 3];
        let mut rs = ResultSet::new();
        let mut slices = 0;
        loop {
            slices += 1;
            assert!(slices < 10_000, "no termination");
            let (res, steps) =
                join.continue_join_compiled(&kernel, &offsets, &mut state, 3, &mut rs);
            assert!(steps <= 3);
            if res == ContinueResult::Exhausted {
                break;
            }
        }
        let mut got: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
        got.sort();
        assert_eq!(got, expected);
        assert!(slices > 1, "test should actually slice");
    }

    #[test]
    fn switching_orders_with_offsets_preserves_results() {
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order_generic(&q, &[0, 1, 2], true);
        let pq = PreparedQuery::new(&q, true, 1);
        let mut join = MultiwayJoin::new(&pq);
        let orders: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 1, 0]];
        let kernels: Vec<_> = orders
            .iter()
            .map(|o| pq.plan_order(o).compile_kernel(None).unwrap())
            .collect();
        let tracker = &mut crate::progress::ProgressTracker::new(3);
        let mut offsets = vec![0u32; 3];
        let mut rs = ResultSet::new();
        let mut done = false;
        let mut round = 0usize;
        while !done {
            round += 1;
            assert!(round < 100_000, "no termination");
            let which = round % orders.len();
            let order = &orders[which];
            let mut state = vec![0u32; 3];
            tracker.restore_into(order, &offsets, &mut state);
            let (res, _) =
                join.continue_join_compiled(&kernels[which], &offsets, &mut state, 5, &mut rs);
            // offset advance for the left-most table
            let t0 = order[0];
            if res == ContinueResult::Exhausted {
                offsets[t0] = pq.cards[t0];
                done = true;
            } else {
                offsets[t0] = offsets[t0].max(state[t0]);
                tracker.backup(order, &state);
            }
        }
        let mut got: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn unary_only_single_table() {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                Schema::new([ColumnDef::new("x", ValueType::Int)]),
                vec![Column::from_ints(vec![1, 5, 9, 5])],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("t").unwrap();
        let f = qb.col("t.x").unwrap().eq(Expr::lit(5));
        qb.filter(f);
        qb.select_col("t.x").unwrap();
        let q = qb.build().unwrap();
        let got = run_order(&q, &[0], true);
        assert_eq!(got, vec![vec![1u32], vec![3u32]]);
        assert_eq!(run_order_generic(&q, &[0], true), got);
    }

    #[test]
    fn offsets_exclude_tuples() {
        let cat = catalog();
        let q = three_way(&cat);
        let pq = PreparedQuery::new(&q, true, 1);
        let kernel = pq.plan_order(&[0, 1, 2]).compile_kernel(None).unwrap();
        let mut join = MultiwayJoin::new(&pq);
        // offset past a.id=1 (filtered position 0) excludes its result
        let offsets = vec![1u32, 0, 0];
        let mut state = vec![1u32, 0, 0];
        let mut rs = ResultSet::new();
        let (res, _) =
            join.continue_join_compiled(&kernel, &offsets, &mut state, u64::MAX, &mut rs);
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(rs.len(), 2); // only the a.id=3 tuples
    }

    #[test]
    fn negative_zero_float_join_matches_positive_zero() {
        // SQL says -0.0 = 0.0; the bit patterns differ, so join keys
        // normalize -0.0 to 0.0 — a key-driven jump must surface the
        // match on every tier.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "fa",
                Schema::new([ColumnDef::new("k", ValueType::Float)]),
                vec![Column::from_floats(vec![-0.0, 1.5])],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "fc",
                Schema::new([ColumnDef::new("k", ValueType::Float)]),
                vec![Column::from_floats(vec![0.0, 2.5, -0.0])],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("fa").unwrap();
        qb.table("fc").unwrap();
        let j = qb.col("fa.k").unwrap().eq(qb.col("fc.k").unwrap());
        qb.filter(j);
        qb.select_col("fa.k").unwrap();
        let q = qb.build().unwrap();
        let expected = vec![vec![0u32, 0], vec![0, 2]];
        for order in [[0usize, 1], [1usize, 0]] {
            for indexes in [true, false] {
                assert_eq!(
                    run_order_generic(&q, &order, indexes),
                    expected,
                    "generic: order {order:?} indexes {indexes}"
                );
                assert_eq!(
                    run_order(&q, &order, indexes),
                    expected,
                    "compiled: order {order:?} indexes {indexes}"
                );
            }
        }
    }

    #[test]
    fn cross_type_int_float_join_matches_widened_equality() {
        // ia.k = fb.k with Int vs Float columns: 2 = 2.0 and 3 = 3.0
        // are true under numeric widening. Every kernel must find both
        // matches, with and without indexes (the planner refuses the
        // cross-convention jump, so the indexed run scans + verifies).
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "ia",
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints(vec![1, 2, 3])],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "fb",
                Schema::new([ColumnDef::new("k", ValueType::Float)]),
                vec![Column::from_floats(vec![2.0, 3.0, 9.5])],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("ia").unwrap();
        qb.table("fb").unwrap();
        let j = qb.col("ia.k").unwrap().eq(qb.col("fb.k").unwrap());
        qb.filter(j);
        qb.select_col("ia.k").unwrap();
        let q = qb.build().unwrap();
        let expected = vec![vec![1u32, 0], vec![2, 1]];
        for order in [[0usize, 1], [1usize, 0]] {
            for indexes in [true, false] {
                assert_eq!(
                    run_order_generic(&q, &order, indexes),
                    expected,
                    "generic: order {order:?} indexes {indexes}"
                );
                assert_eq!(
                    run_order(&q, &order, indexes),
                    expected,
                    "compiled: order {order:?} indexes {indexes}"
                );
            }
        }
    }

    #[test]
    fn limit_suspension_at_exact_total_terminates() {
        // Drive a sliced LIMIT loop to the *exact* full result count:
        // every suspension on a full sink must still advance the
        // cursor, or the loop would repeat the same slice forever.
        let n = 40usize;
        let mut cat = Catalog::new();
        for name in ["q1", "q2"] {
            cat.register(
                Table::new(
                    name,
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints((0..n as i64).map(|i| i % 5).collect())],
                )
                .unwrap(),
            );
        }
        let mut qb = QueryBuilder::new(&cat);
        qb.table("q1").unwrap();
        qb.table("q2").unwrap();
        let j = qb.col("q1.k").unwrap().eq(qb.col("q2.k").unwrap());
        qb.filter(j);
        qb.select_col("q1.k").unwrap();
        let q = qb.build().unwrap();

        let pq = PreparedQuery::new(&q, true, 1);
        let kernel = pq.plan_order(&[0, 1]).compile_kernel(None).unwrap();
        let total = {
            let mut join = MultiwayJoin::new(&pq);
            let offsets = vec![0u32; 2];
            let mut state = offsets.clone();
            let mut rs = ResultSet::new();
            join.continue_join_compiled(&kernel, &offsets, &mut state, u64::MAX, &mut rs);
            rs.len() as u64
        };
        assert!(total > 10);

        // Targets below the total suspend mid-slice and resume; the
        // exact total suspends on the last tuple.
        for target in [1, total / 2, total] {
            let mut join = MultiwayJoin::new(&pq);
            let offsets = vec![0u32; 2];
            let mut state = offsets.clone();
            let mut rs = ResultSet::new();
            let mut slices = 0u64;
            loop {
                slices += 1;
                assert!(
                    slices < 100_000,
                    "target {target}: LIMIT loop did not terminate"
                );
                let mut sink = LimitSink::new(&mut rs, target);
                let (res, _) =
                    join.continue_join_compiled(&kernel, &offsets, &mut state, 64, &mut sink);
                if res == ContinueResult::Exhausted || rs.len() as u64 >= target {
                    break;
                }
            }
            assert_eq!(rs.len() as u64, target);
        }
    }

    #[test]
    fn limit_end_to_end_stops_early() {
        // Through the Skinner-C driver: one giant-budget slice must stop
        // as soon as the LIMIT is met, with a valid prefix.
        let n = 120usize;
        let mut cat = Catalog::new();
        for name in ["p1", "p2"] {
            cat.register(
                Table::new(
                    name,
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints((0..n as i64).map(|i| i % 4).collect())],
                )
                .unwrap(),
            );
        }
        let mut qb = QueryBuilder::new(&cat);
        qb.table("p1").unwrap();
        qb.table("p2").unwrap();
        let j = qb.col("p1.k").unwrap().eq(qb.col("p2.k").unwrap());
        qb.filter(j);
        qb.select_col("p1.k").unwrap();
        let q = qb.build().unwrap();

        use crate::skinner_c::{RunOptions, SkinnerC, SkinnerCConfig, StopReason};
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 100_000,
            ..Default::default()
        })
        .run_with(
            &q,
            &RunOptions {
                target_rows: Some(10),
                ..Default::default()
            },
        );
        assert_eq!(out.stop, StopReason::RowTarget);
        assert!(out.result_count >= 10);
        // The giant budget would have enumerated the full join (~3600
        // distinct tuples) without the mid-slice stop.
        assert!(
            out.metrics.steps < 2_000,
            "steps {} — LIMIT did not stop early",
            out.metrics.steps
        );
    }

    #[test]
    fn composite_join_all_kernels_and_orders_agree() {
        // Two link tables joined on a two-column composite key plus a
        // third table chained on one of the components: the composite
        // jump, the single-column jump and the scan path all in one
        // query. Both kernels (generic / compiled, one-shot / sliced)
        // must produce the same tuple set, with and without indexes.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "e1",
                Schema::new([
                    ColumnDef::new("m", ValueType::Int),
                    ColumnDef::new("p", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 1, 2, 2, 3, 3]),
                    Column::from_ints(vec![7, 8, 7, 8, 7, 9]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "e2",
                Schema::new([
                    ColumnDef::new("m", ValueType::Int),
                    ColumnDef::new("p", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![2, 1, 3, 1, 2]),
                    Column::from_ints(vec![7, 7, 9, 8, 5]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "m",
                Schema::new([ColumnDef::new("id", ValueType::Int)]),
                vec![Column::from_ints(vec![1, 2, 3, 4])],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("e1").unwrap();
        qb.table("e2").unwrap();
        qb.table("m").unwrap();
        let j1 = qb.col("e1.m").unwrap().eq(qb.col("e2.m").unwrap());
        let j2 = qb.col("e1.p").unwrap().eq(qb.col("e2.p").unwrap());
        let j3 = qb.col("e1.m").unwrap().eq(qb.col("m.id").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.filter(j3);
        qb.select_col("e1.m").unwrap();
        let q = qb.build().unwrap();

        // The composite machinery is actually in play.
        let pq = PreparedQuery::new(&q, true, 1);
        assert_eq!(pq.composites.len(), 1);

        let expected = run_order_generic(&q, &[0, 1, 2], true);
        assert_eq!(expected.len(), 4); // (1,7) (1,8) (2,7) (3,9) pairs
        for order in [
            vec![0usize, 1, 2],
            vec![1, 0, 2],
            vec![2, 0, 1],
            vec![1, 2, 0],
        ] {
            for indexes in [true, false] {
                assert_eq!(
                    run_order_generic(&q, &order, indexes),
                    expected,
                    "generic diverged: order {order:?} indexes {indexes}"
                );
                assert_eq!(
                    run_order(&q, &order, indexes),
                    expected,
                    "compiled diverged: order {order:?} indexes {indexes}"
                );
            }
        }

        // Sliced execution resumes composite cursors losslessly.
        let kernel = pq.plan_order(&[1, 0, 2]).compile_kernel(None).unwrap();
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; 3];
        let mut state = offsets.clone();
        let mut rs = ResultSet::new();
        let mut slices = 0;
        loop {
            slices += 1;
            assert!(slices < 10_000, "no termination");
            let (res, _) = join.continue_join_compiled(&kernel, &offsets, &mut state, 12, &mut rs);
            if res == ContinueResult::Exhausted {
                break;
            }
        }
        let mut got: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
        got.sort();
        assert_eq!(got, expected);
        assert!(slices > 1, "test should actually slice");
    }

    #[test]
    fn result_set_dedups_across_orders() {
        let mut rs = ResultSet::new();
        assert!(rs.insert(&[1, 2, 3]));
        assert!(!rs.insert(&[1, 2, 3]));
        assert!(rs.insert(&[1, 2, 4]));
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.attempts, 3);
        let flat = rs.into_flat(3);
        assert_eq!(flat.len(), 6);
    }

    #[test]
    fn result_set_grows_past_initial_capacity() {
        let mut rs = ResultSet::new();
        for i in 0..10_000u32 {
            assert!(rs.insert(&[i, i ^ 0xABCD]));
            assert!(!rs.insert(&[i, i ^ 0xABCD]));
        }
        assert_eq!(rs.len(), 10_000);
        assert_eq!(rs.attempts, 20_000);
        // every tuple retrievable and distinct
        let mut seen = std::collections::HashSet::new();
        for t in rs.iter() {
            assert_eq!(t.len(), 2);
            assert!(seen.insert(t.to_vec()));
        }
        let flat = rs.into_flat(2);
        assert_eq!(flat.len(), 20_000);
    }
}
