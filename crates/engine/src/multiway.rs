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
//! # Bound-plan architecture
//!
//! SkinnerDB's regret bounds only pay off if per-tuple overhead is tiny;
//! the paper's Skinner-C compiles each query into specialized code (§6).
//! Our safe-Rust analogue is *plan-time binding*: an [`OrderPlan`]
//! resolves every indirection once per (query, order) —
//!
//! * predicates are [`BoundPred`](skinner_query::BoundPred)s holding raw
//!   typed column slices and an accepted-ordering bitmask, so a predicate
//!   eval is slice reads plus one AND, with no table/column re-resolution
//!   and no operator dispatch;
//! * index jumps hold a direct [`HashIndex`](skinner_storage::HashIndex)
//!   reference and a specialized key-column accessor, so a tuple advance
//!   probes the index without the former `(table, column)` map lookup
//!   (the §4.5 extension for equality predicates: jump to the next
//!   position whose key matches, via `next_ge`);
//! * per-position cardinalities and filtered-position slices are cached
//!   in the plan, so the inner loop never touches the prepared query.
//!
//! The executor itself owns a reusable `rows` scratch buffer, and
//! [`ResultSet`] stores tuples in one flat arena with an open-addressing
//! dedup table — a result insert (including duplicate attempts from order
//! switches) allocates nothing in the steady state.
//!
//! The pre-refactor interpreted kernel survives as
//! [`MultiwayJoin::continue_join_generic`]: it re-resolves columns through
//! [`CompiledPred::eval`](skinner_query::CompiledPred::eval) and probes
//! the index map per advance. It is the differential-testing oracle and
//! the baseline that `benches/join_inner_loop.rs` measures the
//! specialized kernel against. Remaining distance to the paper's design:
//! true per-query code generation (§6) would fuse the per-position
//! predicate loops into straight-line code; a JIT or macro-generated
//! kernel per join-order shape is future work.

use crate::partition::{fold_outcomes, ChunkOutcome, PartitionSpec, WorkerScratch};
use crate::prepare::{BoundPosition, OrderPlan, OrderSpec, PreparedQuery};
use skinner_codegen::CompiledKernel;
// The sink protocol moved to `skinner-codegen` (every execution tier
// speaks it); re-exported here under the historical paths.
pub use skinner_codegen::{ContinueResult, ResultSink};
use skinner_pool::WorkerPool;
use skinner_query::TableId;
use skinner_storage::hash::FxHasher;
use skinner_storage::RowId;
use std::hash::Hasher;
use std::sync::Arc;

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
///
/// Partitioned slices honor the target mid-chunk too: the slice driver
/// reads [`ResultSink::remaining_capacity`] once per slice and threads a
/// shared emitted-tuple counter through every chunk worker, so workers
/// suspend as soon as the slice-wide emission count covers the remaining
/// capacity (conservatively — re-emissions of earlier slices' tuples
/// count too, and the driver re-checks the deduped total afterwards).
pub struct LimitSink<'a, C: Collector> {
    inner: &'a mut C,
    target: u64,
}

impl<'a, C: Collector> LimitSink<'a, C> {
    /// Wrap `inner`, reporting full at `target` distinct tuples.
    pub fn new(inner: &'a mut C, target: u64) -> LimitSink<'a, C> {
        LimitSink { inner, target }
    }

    /// True once the target is reached.
    pub fn full(&self) -> bool {
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
    fn remaining_capacity(&self) -> Option<u64> {
        Some(self.target.saturating_sub(self.inner.collected() as u64))
    }

    #[inline]
    fn approx_bytes(&self) -> usize {
        ResultSink::approx_bytes(self.inner)
    }
}

/// Per-worker sink of the partitioned join: appends tuples to a flat
/// shard buffer. No dedup — chunks are disjoint in the left-most
/// coordinate, so one slice can never emit a tuple from two chunks; the
/// cross-slice dedup happens when shards merge into the caller's sink.
///
/// When the caller's sink has a row target (`quota`), every worker
/// counts its emissions into one shared counter and reports full once
/// the slice-wide total reaches the target — so a partitioned LIMIT
/// query stops **mid-chunk**, not merely at the next slice boundary.
/// The shared count is an upper bound on new distinct tuples (a worker
/// may re-emit a tuple an earlier slice already produced), which can
/// only suspend the slice *early*; the driver re-checks the real deduped
/// count and continues if the target is not actually met.
struct ShardSink<'a> {
    out: &'a mut Vec<RowId>,
    /// Shared emitted-tuple counter and the slice-wide target, when the
    /// caller's sink is limit-aware.
    quota: Option<(&'a std::sync::atomic::AtomicU64, u64)>,
}

impl ResultSink for ShardSink<'_> {
    #[inline]
    fn insert(&mut self, tuple: &[RowId]) -> bool {
        self.out.extend_from_slice(tuple);
        if let Some((counter, _)) = self.quota {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        true
    }

    #[inline]
    fn is_full(&self) -> bool {
        match self.quota {
            Some((counter, target)) => counter.load(std::sync::atomic::Ordering::Relaxed) >= target,
            None => false,
        }
    }

    #[inline]
    fn approx_bytes(&self) -> usize {
        self.out.capacity() * std::mem::size_of::<RowId>()
    }
}

/// Deduplicating result set over tuple-index vectors (paper: "we add
/// tuple index vectors into a result set, avoiding duplicate entries").
///
/// Tuples live contiguously in one flat arena (`stride` row ids per
/// tuple); deduplication goes through an open-addressing table of tuple
/// indices hashed with the vendored Fx hasher. Duplicate inserts —
/// the common case around join-order switches — touch no allocator at
/// all, and [`ResultSet::into_flat`] is a move of the arena, not a copy.
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
    pub attempts: u64,
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
    pub fn insert(&mut self, tuple: &[RowId]) -> bool {
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
    pub fn into_flat(self, stride: usize) -> Vec<RowId> {
        assert!(
            self.data.is_empty() || stride == self.stride,
            "stride {stride} != result set stride {}",
            self.stride
        );
        self.data
    }

    /// Approximate heap footprint in bytes (Figure 8c).
    pub fn approx_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<RowId>()
            + self.slots.len() * std::mem::size_of::<u32>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
    }
}

/// One multi-way join executor bound to a prepared query. Owns the
/// per-tuple scratch buffer (and, when parallel, one scratch set per
/// worker), reused across time slices.
pub struct MultiwayJoin<'a> {
    pq: &'a PreparedQuery,
    /// Current base row per table (slots beyond the active depth are
    /// stale but never read: predicates at position i only touch tables
    /// joined at positions 0..=i).
    rows: Vec<RowId>,
    /// Worker threads for the partitioned join path; 1 = sequential.
    threads: usize,
    /// The persistent morsel pool executing partitioned slices; `None`
    /// when sequential (`threads <= 1`), so a single-threaded join never
    /// touches the pool.
    pool: Option<Arc<WorkerPool>>,
    /// Per-morsel owned task state (rows / cursor / chunk bound / result
    /// shard), lazily sized and reused across slices.
    scratch: Vec<WorkerScratch>,
    /// Kernel invocations so far: one per sequential slice, one per
    /// chunk of a partitioned slice (metrics accounting).
    chunks_run: u64,
}

impl<'a> MultiwayJoin<'a> {
    /// Bind to a prepared query (sequential execution).
    pub fn new(pq: &'a PreparedQuery) -> MultiwayJoin<'a> {
        MultiwayJoin::with_threads(pq, 1)
    }

    /// Bind to a prepared query with a fan-out of `threads` morsels per
    /// slice, executed on the process-wide shared
    /// [`WorkerPool`].
    ///
    /// With `threads > 1`, [`continue_join`](MultiwayJoin::continue_join)
    /// splits each slice's remaining left-most range into contiguous
    /// offset chunks (morsels) and runs one kernel per chunk on the
    /// persistent pool (see [`crate::partition`]) — no threads are
    /// spawned per slice. `threads <= 1` is exactly the sequential
    /// kernel, with no pool involvement at all.
    pub fn with_threads(pq: &'a PreparedQuery, threads: usize) -> MultiwayJoin<'a> {
        MultiwayJoin::with_pool(pq, threads, None)
    }

    /// [`with_threads`](MultiwayJoin::with_threads), but running morsels
    /// on a specific pool (the service wires its budget-sized pool here;
    /// tests wire differently-sized pools to prove schedule
    /// independence). `None` falls back to the shared global pool.
    ///
    /// `threads` fixes the chunk *fan-out* per slice; the pool's worker
    /// count is independent — results (tuples and folded cursors) are
    /// identical for any pool size and any steal order, because each
    /// morsel is deterministic given its chunk bounds and budget.
    pub fn with_pool(
        pq: &'a PreparedQuery,
        threads: usize,
        pool: Option<Arc<WorkerPool>>,
    ) -> MultiwayJoin<'a> {
        let threads = threads.max(1);
        MultiwayJoin {
            pq,
            rows: vec![0; pq.num_tables()],
            threads,
            pool: (threads > 1).then(|| pool.unwrap_or_else(WorkerPool::global)),
            scratch: Vec::new(),
            chunks_run: 0,
        }
    }

    /// The configured morsel fan-out per slice.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total OS threads ever spawned by the attached pool (0 when
    /// sequential). The slice driver records the per-run delta as
    /// `ExecMetrics::thread_spawns`: zero after warm-up proves pool
    /// reuse.
    pub fn pool_spawned(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.spawned())
    }

    /// Workers of the attached pool retired after hosting a panicking
    /// morsel and replaced by fresh threads (0 when sequential). The
    /// slice driver subtracts the per-run delta of this from the spawn
    /// delta so another query's panic-driven replacement on a shared
    /// pool is not billed to this run's `thread_spawns`.
    pub fn pool_replaced(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.replaced())
    }

    /// Kernel invocations so far: one per sequential slice, one per chunk
    /// of a partitioned slice. Equals the slice count when sequential;
    /// the excess over the slice count is work fanned out to workers.
    pub fn chunks_run(&self) -> u64 {
        self.chunks_run
    }

    /// Execute the bound `plan` from cursor `state` (indexed by table id,
    /// filtered positions) for at most `budget` outer-loop steps.
    /// `offsets` are the global per-table floors. Result tuples are
    /// inserted into `results`.
    ///
    /// With more than one configured worker thread the slice runs
    /// partitioned: the remaining left-most range is split into
    /// contiguous offset chunks, each chunk runs the same kernel on its
    /// own worker with a private cursor and result shard, shards merge in
    /// chunk (= lexicographic) order, and the per-chunk cursors fold back
    /// into `state` (first non-exhausted chunk — see
    /// [`crate::partition`]). The folded cursor satisfies the same
    /// invariant as a sequential cursor, so progress tracking, offsets,
    /// and rewards are oblivious to the worker count.
    ///
    /// Returns the slice outcome and the number of steps consumed.
    /// When partitioned, steps are summed across workers and may exceed
    /// `budget`: each chunk's share is clamped up to the livelock floor
    /// (4·m steps), so a tiny budget with many chunks can consume up to
    /// `chunks · 4·m` steps.
    pub fn continue_join<R: ResultSink>(
        &mut self,
        order: &[TableId],
        plan: &OrderPlan<'_>,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        results: &mut R,
    ) -> (ContinueResult, u64) {
        let positions = plan.positions.as_slice();
        let m = positions.len();
        debug_assert_eq!(order.len(), m);
        debug_assert!(order.iter().zip(positions).all(|(&t, p)| p.table == t));
        let t0 = positions[0].table;
        let end0 = positions[0].card;

        // Immediate exhaustion (restored past the end).
        if state[t0] >= end0 {
            return (ContinueResult::Exhausted, 0);
        }

        if self.threads > 1 {
            let spec = PartitionSpec::split(state[t0], end0, self.threads);
            if spec.len() > 1 {
                let run_chunk = |state: &mut [u32],
                                 chunk_budget: u64,
                                 hi: u32,
                                 rows: &mut [RowId],
                                 sink: &mut ShardSink<'_>| {
                    run_plan_kernel(positions, offsets, state, chunk_budget, hi, rows, sink)
                };
                return self.continue_join_partitioned(
                    m, t0, end0, &spec, offsets, state, budget, results, run_chunk,
                );
            }
        }
        self.chunks_run += 1;
        run_plan_kernel(
            positions,
            offsets,
            state,
            budget,
            end0,
            &mut self.rows,
            results,
        )
    }

    /// Execute a *compiled* kernel (the codegen tier — see
    /// `skinner-codegen`) from cursor `state`, with the same slice
    /// semantics, partitioning behaviour, and cursor contract as
    /// [`continue_join`](MultiwayJoin::continue_join): with more than
    /// one configured worker thread the remaining left-most range splits
    /// into offset chunks and every chunk runs the compiled kernel on
    /// its own worker. The caller guarantees `kernel` was compiled from
    /// the same prepared query and order as the plan it replaces.
    pub fn continue_join_compiled<R: ResultSink>(
        &mut self,
        kernel: &CompiledKernel<'_>,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        results: &mut R,
    ) -> (ContinueResult, u64) {
        let m = kernel.num_tables();
        debug_assert_eq!(m, self.pq.num_tables());
        let t0 = kernel.table0();
        let end0 = kernel.card0();

        // Immediate exhaustion (restored past the end).
        if state[t0] >= end0 {
            return (ContinueResult::Exhausted, 0);
        }

        if self.threads > 1 {
            let spec = PartitionSpec::split(state[t0], end0, self.threads);
            if spec.len() > 1 {
                let run_chunk = |state: &mut [u32],
                                 chunk_budget: u64,
                                 hi: u32,
                                 rows: &mut [RowId],
                                 sink: &mut ShardSink<'_>| {
                    kernel.run(offsets, state, chunk_budget, hi, rows, sink)
                };
                return self.continue_join_partitioned(
                    m, t0, end0, &spec, offsets, state, budget, results, run_chunk,
                );
            }
        }
        self.chunks_run += 1;
        kernel.run(offsets, state, budget, end0, &mut self.rows, results)
    }

    /// Forwards to [`continue_join_compiled`](MultiwayJoin::continue_join_compiled);
    /// `plan` is unused. Kept only for callers that still branch on
    /// `kernel.num_tables() < order.len()`, such as the replay in
    /// `benchmark/src/layers.rs`. Every compiled kernel covers its whole
    /// order, so that branch is never taken.
    pub fn continue_join_split<R: ResultSink>(
        &mut self,
        kernel: &CompiledKernel<'_>,
        _plan: &OrderPlan<'_>,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        results: &mut R,
    ) -> (ContinueResult, u64) {
        self.continue_join_compiled(kernel, offsets, state, budget, results)
    }

    /// The parallel slice, shared by the plan-bound and compiled tiers:
    /// one `run_chunk` invocation per offset chunk (morsel) on the
    /// persistent worker pool, then a deterministic merge + cursor fold.
    /// `run_chunk` executes one chunk's kernel `(state, chunk_budget,
    /// hi, rows, shard)` with the left-most coordinate bounded by `hi`.
    ///
    /// Each morsel's state is owned by its [`WorkerScratch`] (cursor,
    /// chunk bound, shard, outcome slot), so any pool worker may execute
    /// any morsel in any steal order; the merge below runs on this
    /// thread in chunk order, after every morsel has completed, which is
    /// what keeps results and folded cursors independent of the
    /// schedule.
    #[allow(clippy::too_many_arguments)]
    fn continue_join_partitioned<R, K>(
        &mut self,
        m: usize,
        t0: TableId,
        end0: u32,
        spec: &PartitionSpec,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        results: &mut R,
        run_chunk: K,
    ) -> (ContinueResult, u64)
    where
        R: ResultSink,
        K: Fn(&mut [u32], u64, u32, &mut [RowId], &mut ShardSink<'_>) -> (ContinueResult, u64)
            + Sync,
    {
        let n = spec.len();
        self.chunks_run += n as u64;
        if self.scratch.len() < n {
            self.scratch.resize_with(n, WorkerScratch::default);
        }
        let scratch = &mut self.scratch[..n];
        // Same livelock clamp as the slice driver: a chunk budget below
        // the walk-down depth would re-verify restored coordinates
        // forever without advancing the folded cursor.
        let chunk_budget = (budget / n as u64).max(4 * m as u64);
        // Shared row-target counter: when the caller's sink is
        // limit-aware (LIMIT pushdown), workers count emissions into it
        // and stop mid-chunk once the slice-wide total covers the
        // remaining capacity (see `ShardSink`).
        let target = results.remaining_capacity();
        let emitted = std::sync::atomic::AtomicU64::new(0);

        for (k, (ws, &(lo, hi))) in scratch.iter_mut().zip(&spec.chunks).enumerate() {
            ws.reset(m);
            ws.hi = hi;
            if k == 0 {
                // The first chunk resumes the restored cursor exactly
                // (its deep coordinates may be mid-range).
                ws.state.copy_from_slice(state);
            } else {
                // Later chunks start fresh: left-most at the chunk's
                // lower bound, deeper coordinates at the offset
                // floors.
                ws.state.copy_from_slice(offsets);
                ws.state[t0] = lo;
            }
        }
        let pool = self
            .pool
            .as_ref()
            .expect("partitioned slice without a pool")
            .clone();
        let emitted = &emitted;
        pool.run_batch_mut(scratch, |_k, ws| {
            // Fault-injection site: a panic here is caught by the pool,
            // re-raised on this (submitting) thread after the sibling
            // morsels complete, and propagates to the slice driver —
            // exactly the path the service's panic isolation must
            // cover. The hosting pool worker is retired and replaced.
            crate::failpoints::fire("partition.chunk");
            let mut sink = ShardSink {
                out: &mut ws.out,
                quota: target.map(|t| (emitted, t)),
            };
            let (result, steps) =
                run_chunk(&mut ws.state, chunk_budget, ws.hi, &mut ws.rows, &mut sink);
            ws.outcome = Some(ChunkOutcome { result, steps });
        });

        // Merge shards in chunk order — chunks are ascending in the
        // left-most coordinate, so this is the sequential emit order.
        for ws in scratch.iter() {
            for tuple in ws.out.chunks_exact(m) {
                results.insert(tuple);
            }
        }

        let (res, steps) = fold_outcomes(scratch, state);
        if res == ContinueResult::Exhausted {
            // Mirror the sequential end state: left-most cursor at the
            // end, deeper coordinates back at their floors (the order's
            // positions cover every table exactly once).
            state.copy_from_slice(&offsets[..state.len()]);
            state[t0] = end0;
        }
        (res, steps)
    }

    /// The pre-specialization reference kernel: identical join semantics,
    /// but every predicate eval re-resolves its columns through
    /// [`CompiledPred::eval`](skinner_query::CompiledPred::eval) and
    /// every index jump probes the `(table, column)` index map. Kept as
    /// the differential-testing oracle and the baseline for the
    /// `join_inner_loop` benchmark.
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

/// The order-specialized inner loop, shared by the sequential path and
/// every parallel worker. Executes bound `positions` from cursor `state`
/// for at most `budget` steps, with the *left-most* coordinate bounded by
/// `end0` instead of the full filtered cardinality — that single bound is
/// what turns the kernel into a chunk worker (sequential callers pass
/// `positions[0].card`).
#[allow(clippy::too_many_arguments)]
fn run_plan_kernel<R: ResultSink>(
    positions: &[BoundPosition<'_>],
    offsets: &[u32],
    state: &mut [u32],
    budget: u64,
    end0: u32,
    rows: &mut [RowId],
    results: &mut R,
) -> (ContinueResult, u64) {
    let m = positions.len();
    let mut i = 0usize;
    let mut steps: u64 = 0;

    // Immediate exhaustion (restored past the end).
    if state[positions[0].table] >= end0 {
        return (ContinueResult::Exhausted, 0);
    }

    loop {
        steps += 1;
        if steps > budget {
            return (ContinueResult::BudgetSpent, steps - 1);
        }
        // Poll the sink per step too, not only after inserts: a
        // partitioned LIMIT worker whose chunk holds no matches must
        // still observe the shared quota tripping and stop scanning.
        // For plain sinks `is_full` is statically false, so this
        // monomorphizes away.
        if results.is_full() {
            return (ContinueResult::BudgetSpent, steps - 1);
        }
        let pos = &positions[i];
        let t = pos.table;
        let s = state[t];
        let bound = if i == 0 { end0 } else { pos.card };
        if s >= bound {
            // Restored coordinate beyond the end: backtrack.
            match next_tuple(positions, offsets, state, &mut i, rows, end0, true) {
                true => continue,
                false => return (ContinueResult::Exhausted, steps),
            }
        }
        rows[t] = pos.base[s as usize];
        let ok = pos.preds.iter().all(|p| p.eval(rows));
        if ok {
            if i + 1 == m {
                results.insert(rows);
                if !next_tuple(positions, offsets, state, &mut i, rows, end0, false) {
                    return (ContinueResult::Exhausted, steps);
                }
                if results.is_full() {
                    // Sink-driven early exit (LIMIT pushdown): suspend as
                    // if the budget ran out. The cursor was advanced past
                    // the emitted tuple *first*, so a resumed slice always
                    // makes progress — a suspend on re-emission of an
                    // earlier slice's tuple (the shared quota counter of
                    // the partitioned path counts those) can never repeat
                    // the same cursor forever.
                    return (ContinueResult::BudgetSpent, steps);
                }
            } else {
                i += 1;
            }
        } else if !next_tuple(positions, offsets, state, &mut i, rows, end0, false) {
            return (ContinueResult::Exhausted, steps);
        }
    }
}

/// Advance the cursor at position `i` of the bound plan (with index
/// jumps where available), backtracking on exhaustion. Returns false
/// when the left-most table reaches `end0` (this kernel's share of the
/// join is complete). `skip_advance` is used when the current coordinate
/// is already past the end.
#[inline]
#[allow(clippy::too_many_arguments)]
fn next_tuple(
    positions: &[BoundPosition<'_>],
    offsets: &[u32],
    state: &mut [u32],
    i: &mut usize,
    rows: &[RowId],
    end0: u32,
    mut skip_advance: bool,
) -> bool {
    loop {
        let pos = &positions[*i];
        let t = pos.table;
        let bound = if *i == 0 { end0 } else { pos.card };
        if !skip_advance || state[t] < bound {
            state[t] = match &pos.jump {
                Some(jump) if !skip_advance => {
                    // Jump to the next position matching the equality
                    // key of the current predecessor tuple.
                    match jump.key.key(rows[jump.src_table]) {
                        Some(k) => jump.index.next_ge(k, state[t] + 1).unwrap_or(pos.card),
                        None => pos.card,
                    }
                }
                _ => state[t].saturating_add(1),
            };
        }
        skip_advance = false;
        if state[t] < bound {
            return true;
        }
        if *i == 0 {
            return false;
        }
        state[t] = offsets[t];
        *i -= 1;
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
                            &pq.indexes[&(t, *index_col)],
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

    /// Run one order to completion in a single giant slice.
    fn run_order(q: &Query, order: &[usize], indexes: bool) -> Vec<Vec<u32>> {
        run_order_threads(q, order, indexes, 1)
    }

    /// Same, with `threads` join workers.
    fn run_order_threads(
        q: &Query,
        order: &[usize],
        indexes: bool,
        threads: usize,
    ) -> Vec<Vec<u32>> {
        let pq = PreparedQuery::new(q, indexes, 1);
        let plan = pq.plan_order(order);
        let mut join = MultiwayJoin::with_threads(&pq, threads);
        let offsets = vec![0u32; pq.num_tables()];
        let mut state = offsets.clone();
        let mut rs = ResultSet::new();
        let (res, _) = join.continue_join(order, &plan, &offsets, &mut state, u64::MAX, &mut rs);
        assert_eq!(res, ContinueResult::Exhausted);
        let mut out: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
        out.sort();
        out
    }

    /// Same, through the compiled (codegen-tier) kernel.
    fn run_order_compiled(
        q: &Query,
        order: &[usize],
        indexes: bool,
        threads: usize,
    ) -> Vec<Vec<u32>> {
        let pq = PreparedQuery::new(q, indexes, 1);
        let plan = pq.plan_order(order);
        let kernel = plan.compile_kernel(None).expect("supported shape");
        let mut join = MultiwayJoin::with_threads(&pq, threads);
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
        let expected = run_order(&q, &[0, 1, 2], true);
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
    fn compiled_kernel_matches_specialized_all_orders() {
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order(&q, &[0, 1, 2], true);
        for order in [vec![0usize, 1, 2], vec![1, 0, 2], vec![2, 1, 0]] {
            for indexes in [true, false] {
                for threads in [1, 3] {
                    assert_eq!(
                        run_order_compiled(&q, &order, indexes, threads),
                        expected,
                        "codegen divergence: order {order:?} indexes {indexes} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_kernel_slicing_preserves_results() {
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order(&q, &[0, 1, 2], true);
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
        let expected = run_order(&q, &[0, 1, 2], true);
        // run the same order in 1-step slices with state persistence
        let pq = PreparedQuery::new(&q, true, 1);
        let plan = pq.plan_order(&[0, 1, 2]);
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; 3];
        let mut state = vec![0u32; 3];
        let mut rs = ResultSet::new();
        let mut slices = 0;
        loop {
            slices += 1;
            assert!(slices < 10_000, "no termination");
            let (res, steps) =
                join.continue_join(&[0, 1, 2], &plan, &offsets, &mut state, 3, &mut rs);
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
        let expected = run_order(&q, &[0, 1, 2], true);
        let pq = PreparedQuery::new(&q, true, 1);
        let mut join = MultiwayJoin::new(&pq);
        let orders: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 1, 0]];
        let plans: Vec<_> = orders.iter().map(|o| pq.plan_order(o)).collect();
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
            let mut state = tracker.restore(order, &offsets);
            let (res, _) =
                join.continue_join(order, &plans[which], &offsets, &mut state, 5, &mut rs);
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
    }

    #[test]
    fn offsets_exclude_tuples() {
        let cat = catalog();
        let q = three_way(&cat);
        let pq = PreparedQuery::new(&q, true, 1);
        let plan = pq.plan_order(&[0, 1, 2]);
        let mut join = MultiwayJoin::new(&pq);
        // offset past a.id=1 (filtered position 0) excludes its result
        let offsets = vec![1u32, 0, 0];
        let mut state = vec![1u32, 0, 0];
        let mut rs = ResultSet::new();
        let (res, _) =
            join.continue_join(&[0, 1, 2], &plan, &offsets, &mut state, u64::MAX, &mut rs);
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(rs.len(), 2); // only the a.id=3 tuples
    }

    #[test]
    fn parallel_matches_sequential_all_orders() {
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order(&q, &[0, 1, 2], true);
        for order in [vec![0usize, 1, 2], vec![1, 0, 2], vec![2, 1, 0]] {
            for indexes in [true, false] {
                for threads in [2, 3, 4] {
                    assert_eq!(
                        run_order_threads(&q, &order, indexes, threads),
                        expected,
                        "order {order:?} indexes {indexes} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_left_table_smaller_than_chunk_count() {
        // "a" filters to 4 rows; 16 requested workers collapse to 4
        // single-row chunks — still the full, correct result.
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order(&q, &[0, 1, 2], true);
        assert_eq!(run_order_threads(&q, &[0, 1, 2], true, 16), expected);
        // single-row left-most range: sequential fallback inside the
        // dispatcher (one chunk)
        let pq = PreparedQuery::new(&q, true, 1);
        let plan = pq.plan_order(&[0, 1, 2]);
        let mut join = MultiwayJoin::with_threads(&pq, 8);
        let offsets = vec![3u32, 0, 0]; // only the last "a" row remains
        let mut state = offsets.clone();
        let mut rs = ResultSet::new();
        let (res, _) =
            join.continue_join(&[0, 1, 2], &plan, &offsets, &mut state, u64::MAX, &mut rs);
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(rs.len(), 0); // a.id=4 joins nothing
    }

    #[test]
    fn threads_one_takes_sequential_path() {
        let cat = catalog();
        let q = three_way(&cat);
        let pq = PreparedQuery::new(&q, true, 1);
        let plan = pq.plan_order(&[0, 1, 2]);
        let offsets = vec![0u32; 3];
        // Identical budget-by-budget behaviour: outcome, steps, cursor,
        // and results must match between `new` and `with_threads(1)`.
        for budget in [1u64, 3, 7, 1000] {
            let mut a = MultiwayJoin::new(&pq);
            let mut b = MultiwayJoin::with_threads(&pq, 1);
            let mut sa = offsets.clone();
            let mut sb = offsets.clone();
            let mut ra = ResultSet::new();
            let mut rb = ResultSet::new();
            let (resa, stepsa) =
                a.continue_join(&[0, 1, 2], &plan, &offsets, &mut sa, budget, &mut ra);
            let (resb, stepsb) =
                b.continue_join(&[0, 1, 2], &plan, &offsets, &mut sb, budget, &mut rb);
            assert_eq!(resa, resb);
            assert_eq!(stepsa, stepsb);
            assert_eq!(sa, sb);
            let ta: Vec<Vec<u32>> = ra.iter().map(|t| t.to_vec()).collect();
            let tb: Vec<Vec<u32>> = rb.iter().map(|t| t.to_vec()).collect();
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn parallel_mid_chunk_budget_exhaustion_restores() {
        // Tiny budgets force every slice to stop mid-chunk; the folded
        // cursor must restore losslessly so slicing converges on the
        // full result.
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order(&q, &[0, 1, 2], true);
        let pq = PreparedQuery::new(&q, true, 1);
        let plan = pq.plan_order(&[0, 1, 2]);
        let mut join = MultiwayJoin::with_threads(&pq, 4);
        let offsets = vec![0u32; 3];
        let mut state = vec![0u32; 3];
        let mut rs = ResultSet::new();
        let mut slices = 0;
        loop {
            slices += 1;
            assert!(slices < 10_000, "no termination");
            let before = state.clone();
            let (res, _) = join.continue_join(&[0, 1, 2], &plan, &offsets, &mut state, 3, &mut rs);
            if res == ContinueResult::Exhausted {
                break;
            }
            // The folded cursor never regresses lexicographically in
            // order position (order == table id here).
            assert!(state >= before, "cursor regressed: {before:?} -> {state:?}");
        }
        let mut got: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn parallel_switching_orders_with_offsets_preserves_results() {
        // The switching-orders driver loop, now with partitioned slices:
        // tracker round-trips of folded cursors across three orders.
        let cat = catalog();
        let q = three_way(&cat);
        let expected = run_order(&q, &[0, 1, 2], true);
        let pq = PreparedQuery::new(&q, true, 1);
        let mut join = MultiwayJoin::with_threads(&pq, 3);
        let orders: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 1, 0]];
        let plans: Vec<_> = orders.iter().map(|o| pq.plan_order(o)).collect();
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
            let mut state = tracker.restore(order, &offsets);
            let (res, _) =
                join.continue_join(order, &plans[which], &offsets, &mut state, 5, &mut rs);
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
                    run_order_threads(&q, &order, indexes, 1),
                    expected,
                    "bound: order {order:?} indexes {indexes}"
                );
                assert_eq!(
                    run_order_compiled(&q, &order, indexes, 1),
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
                for threads in [1, 3] {
                    assert_eq!(
                        run_order_threads(&q, &order, indexes, threads),
                        expected,
                        "bound: order {order:?} indexes {indexes} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn partitioned_limit_stops_mid_chunk() {
        // A fat cross-ish join (every key matches) whose full
        // enumeration costs tens of thousands of steps. One partitioned
        // slice with an effectively unbounded budget must stop almost
        // immediately once the shared row-target counter covers the
        // LIMIT — the pre-fix behaviour ran every chunk to completion.
        let n = 200usize;
        let mut cat = Catalog::new();
        for name in ["big1", "big2"] {
            cat.register(
                Table::new(
                    name,
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints(vec![1; n])],
                )
                .unwrap(),
            );
        }
        let mut qb = QueryBuilder::new(&cat);
        qb.table("big1").unwrap();
        qb.table("big2").unwrap();
        let j = qb.col("big1.k").unwrap().eq(qb.col("big2.k").unwrap());
        qb.filter(j);
        qb.select_col("big1.k").unwrap();
        let q = qb.build().unwrap();

        let pq = PreparedQuery::new(&q, true, 1);
        let plan = pq.plan_order(&[0, 1]);
        let offsets = vec![0u32; 2];
        let target = 16u64;

        let run_one_slice = |threads: usize| -> (u64, usize) {
            let mut join = MultiwayJoin::with_threads(&pq, threads);
            let mut state = offsets.clone();
            let mut rs = ResultSet::new();
            let mut sink = LimitSink::new(&mut rs, target);
            let (res, steps) = join.continue_join(
                &[0, 1],
                &plan,
                &offsets,
                &mut state,
                u64::MAX / 2,
                &mut sink,
            );
            assert_eq!(res, ContinueResult::BudgetSpent, "threads {threads}");
            (steps, rs.len())
        };

        let full_steps = (n * n) as u64; // ballpark of full enumeration
        for threads in [2, 4] {
            let (steps, produced) = run_one_slice(threads);
            assert!(
                produced as u64 >= target,
                "threads {threads}: produced {produced} < target {target}"
            );
            assert!(
                steps < full_steps / 10,
                "threads {threads}: {steps} steps — workers did not stop mid-chunk"
            );
        }
    }

    #[test]
    fn partitioned_limit_quota_suspension_terminates() {
        // Adversarial quota scenario: drive a partitioned LIMIT loop to
        // the *exact* full result count. Near the end every slice's
        // remaining capacity is tiny, and the quota counter trips on
        // re-emissions of tuples earlier slices already merged — each
        // suspension must still advance the folded cursor, or the loop
        // would repeat the same slice forever.
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
        let total = {
            let plan = pq.plan_order(&[0, 1]);
            let mut join = MultiwayJoin::new(&pq);
            let offsets = vec![0u32; 2];
            let mut state = offsets.clone();
            let mut rs = ResultSet::new();
            join.continue_join(&[0, 1], &plan, &offsets, &mut state, u64::MAX, &mut rs);
            rs.len() as u64
        };
        assert!(total > 10);

        for threads in [2, 4] {
            let plan = pq.plan_order(&[0, 1]);
            let mut join = MultiwayJoin::with_threads(&pq, threads);
            let offsets = vec![0u32; 2];
            let mut state = offsets.clone();
            let mut rs = ResultSet::new();
            let mut slices = 0u64;
            loop {
                slices += 1;
                assert!(
                    slices < 100_000,
                    "threads {threads}: partitioned LIMIT loop did not terminate"
                );
                let mut sink = LimitSink::new(&mut rs, total);
                let (res, _) =
                    join.continue_join(&[0, 1], &plan, &offsets, &mut state, 64, &mut sink);
                if res == ContinueResult::Exhausted || rs.len() as u64 >= total {
                    break;
                }
            }
            assert_eq!(rs.len() as u64, total, "threads {threads}");
        }
    }

    #[test]
    fn partitioned_limit_end_to_end_counts_match() {
        // Same shape through the Skinner-C driver: partitioned LIMIT
        // runs must produce a valid prefix and never fewer rows than the
        // sequential path would.
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
            threads: 4,
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
        // distinct tuples) without the mid-chunk stop.
        assert!(
            out.metrics.steps < 2_000,
            "steps {} — partitioned LIMIT did not stop early",
            out.metrics.steps
        );
    }

    #[test]
    fn composite_join_all_kernels_and_orders_agree() {
        // Two link tables joined on a two-column composite key plus a
        // third table chained on one of the components: the composite
        // jump, the single-column jump and the scan path all in one
        // query. Every kernel (generic / plan-bound, sequential /
        // partitioned / sliced) must produce the same tuple set, with
        // and without indexes.
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
                for threads in [1, 3] {
                    assert_eq!(
                        run_order_threads(&q, &order, indexes, threads),
                        expected,
                        "bound diverged: order {order:?} indexes {indexes} threads {threads}"
                    );
                }
            }
        }

        // Sliced execution resumes composite cursors losslessly.
        let plan = pq.plan_order(&[1, 0, 2]);
        let mut join = MultiwayJoin::new(&pq);
        let offsets = vec![0u32; 3];
        let mut state = offsets.clone();
        let mut rs = ResultSet::new();
        let mut slices = 0;
        loop {
            slices += 1;
            assert!(slices < 10_000, "no termination");
            let (res, _) = join.continue_join(&[1, 0, 2], &plan, &offsets, &mut state, 12, &mut rs);
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
