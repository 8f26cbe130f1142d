//! The compiled join kernel: one straight-line DFS loop per join order,
//! specialized on the order's shape.
//!
//! The plan-bound kernel in `skinner-engine` already resolves every
//! table/column/index indirection at plan time, but its inner loop is
//! still one generic routine: each tuple advance re-dispatches on
//! `Option<BoundJump>` and the `KeyCol` variant, and each index jump
//! re-probes the hash map and binary-searches the posting list. The
//! kernel here goes the rest of the way to the paper's §6 compilation:
//!
//! * **Whole orders of any arity** — one kernel covers every position of
//!   an order of [`MIN_KERNEL_TABLES`](crate::MIN_KERNEL_TABLES) or more tables; its candidate
//!   cursors are sized to the order at run time. The cursor it persists
//!   therefore covers the whole order, and every slice stops at its step
//!   budget — the unit the paper's regret bound counts.
//! * **Jump dispatch only on descent** — descending into a position
//!   matches its jump kind once to establish a candidate cursor; every
//!   later advance at that position is dispatch-free (it only branches
//!   on whether the cursor walks postings or scans).
//! * **Postings cursors** — descending into an index-driven position
//!   probes the hash index **once** for the current predecessor key and
//!   then walks the sorted posting list with a cursor; every subsequent
//!   advance is `list[idx++]` instead of probe + binary search.
//! * **Equality-predicate elision** — integer join keys are exact (the
//!   join key *is* the value), so candidates drawn from the posting list
//!   provably satisfy the driving equality predicate; the kernel
//!   evaluates only the remaining predicates. Float keys match by bit
//!   pattern, which over-approximates IEEE equality on NaN, so float
//!   positions keep full re-verification (exactly like the bound
//!   kernel's float jumps). Fused composite keys and string/nullable
//!   keys ([`KernelJump::FusedEq`], [`KernelJump::KeyEq`]) are
//!   hash-derived, so they are **never** elided: the posting cursor only
//!   narrows the candidate set, and every driving conjunct is
//!   re-verified. NULL keys (`None`) reject outright — no candidates —
//!   which is exactly the plan-bound kernel's `None => pos.card`
//!   null-reject, so three-valued equality is preserved.
//!
//! Soundness relative to the plan-bound kernel: both enumerate the same
//! depth-first candidate sequence — the posting-list cursor yields
//! exactly the positions `next_ge` would visit (postings are sorted
//! ascending, and candidates the bound kernel visits but rejects on the
//! jump predicate are precisely the non-postings the cursor skips) — so
//! accepted tuples, their order, and the suspend/resume cursor contract
//! are identical. The differential properties in `tests/property.rs`
//! check this byte for byte.

use crate::key::{JumpKind, KernelKey};
use crate::sink::{ContinueResult, ResultSink};
use skinner_query::BoundPred;
use skinner_storage::{Column, HashIndex, RowId};

/// The tuple-advance source at one compiled position.
#[derive(Debug, Clone, Copy)]
pub enum KernelJump<'a> {
    /// No index: candidates are consecutive filtered positions.
    Scan,
    /// Integer-keyed posting-list cursor. `keys` is the predecessor
    /// table's raw key column, `src` the predecessor's table id.
    IntEq {
        /// Predecessor key column (non-nullable `i64`).
        keys: &'a [i64],
        /// Predecessor table id (indexes `rows`).
        src: usize,
        /// This position's hash index (postings = filtered positions).
        index: &'a HashIndex,
    },
    /// Float-keyed posting-list cursor (bit-pattern keys; predicates are
    /// always re-verified).
    FloatEq {
        /// Predecessor key column (non-nullable `f64`).
        keys: &'a [f64],
        /// Predecessor table id (indexes `rows`).
        src: usize,
        /// This position's hash index (postings = filtered positions).
        index: &'a HashIndex,
    },
    /// Fused composite-key posting-list cursor: the key is read from a
    /// precomputed per-base-row `Option<i64>` vector (an FxHash combine
    /// of the component join keys) and probes the composite index. Keys
    /// are hashes, so the group's conjuncts are always re-verified
    /// (never elided); `None` (a NULL component) yields no candidates.
    FusedEq {
        /// Predecessor fused keys per base row (`None` = NULL component).
        keys: &'a [Option<i64>],
        /// Predecessor table id (indexes `rows`).
        src: usize,
        /// This position's composite hash index (filtered positions).
        index: &'a HashIndex,
    },
    /// String/nullable-keyed posting-list cursor: the key is
    /// `Column::join_key` of the predecessor row (a content hash for
    /// strings, `None` for NULL). Hash keys are never elided — the
    /// driving equality is re-verified, which also rejects hash
    /// collisions; `None` yields no candidates (three-valued equality).
    KeyEq {
        /// Predecessor key column (string or nullable).
        col: &'a Column,
        /// Predecessor table id (indexes `rows`).
        src: usize,
        /// This position's hash index (postings = filtered positions).
        index: &'a HashIndex,
    },
}

impl KernelJump<'_> {
    /// The shape-level kind of this jump.
    pub fn kind(&self) -> JumpKind {
        match self {
            KernelJump::Scan => JumpKind::Scan,
            KernelJump::IntEq { .. } => JumpKind::Int,
            KernelJump::FloatEq { .. } => JumpKind::Float,
            KernelJump::FusedEq { .. } => JumpKind::Fused,
            KernelJump::KeyEq { .. } => JumpKind::Key,
        }
    }
}

/// One fully compiled join-order position.
#[derive(Debug, Clone)]
pub struct KernelPosition<'a> {
    /// The table joined at this position (indexes `rows` and `state`).
    pub table: usize,
    /// Filtered cardinality of the table.
    pub card: u32,
    /// Filtered positions → base row ids.
    pub base: &'a [RowId],
    /// Predicates to evaluate per candidate. When `elided` is set, the
    /// equality predicate driving an [`KernelJump::IntEq`] jump has been
    /// removed (the posting list already guarantees it).
    pub preds: Vec<BoundPred<'a>>,
    /// Candidate source.
    pub jump: KernelJump<'a>,
    /// True when the jump-driving equality predicate was elided from
    /// `preds`.
    pub elided: bool,
}

/// A join order compiled into a specialized kernel: one position per
/// join-order position. Borrows the prepared query's column slices and
/// indexes (same lifetime discipline as the engine's bound `OrderPlan`);
/// build one per (query, order) and reuse it across every time slice and
/// every partitioned chunk.
#[derive(Debug, Clone)]
pub struct CompiledKernel<'a> {
    key: KernelKey,
    positions: Vec<KernelPosition<'a>>,
}

impl<'a> CompiledKernel<'a> {
    /// Assemble a kernel from compiled positions, one per join-order
    /// position. Returns `None` when the shape has no compiled kernel
    /// (see [`KernelKey::supported`]: fewer than [`MIN_KERNEL_TABLES`](crate::MIN_KERNEL_TABLES)
    /// tables, or a reserved [`JumpKind::Other`] position).
    pub fn new(key: KernelKey, positions: Vec<KernelPosition<'a>>) -> Option<CompiledKernel<'a>> {
        debug_assert_eq!(key.tables(), positions.len());
        key.supported().then_some(CompiledKernel { key, positions })
    }

    /// The shape key this kernel was compiled for.
    pub fn key(&self) -> &KernelKey {
        &self.key
    }

    /// Number of join-order positions.
    pub fn num_tables(&self) -> usize {
        self.positions.len()
    }

    /// The compiled positions (introspection and tests).
    pub fn positions(&self) -> &[KernelPosition<'a>] {
        &self.positions
    }

    /// The left-most table's id.
    pub fn table0(&self) -> usize {
        self.positions[0].table
    }

    /// The left-most table's filtered cardinality (the `end0` a
    /// sequential caller passes to [`run`](CompiledKernel::run)).
    pub fn card0(&self) -> u32 {
        self.positions[0].card
    }

    /// Execute the compiled kernel from cursor `state` (indexed by table
    /// id, filtered positions) for at most `budget` outer-loop steps,
    /// with the left-most coordinate bounded by `end0` (sequential
    /// callers pass [`card0`](CompiledKernel::card0); partitioned chunk
    /// workers pass their chunk's upper bound). Result tuples go to
    /// `results`; `offsets` are the global per-table floors; `rows` is
    /// the caller's per-table base-row scratch. Semantics — including
    /// the suspend/resume cursor contract and emit order — match the
    /// engine's plan-bound kernel exactly.
    pub fn run<R: ResultSink>(
        &self,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        end0: u32,
        rows: &mut [RowId],
        results: &mut R,
    ) -> (ContinueResult, u64) {
        run_kernel(&self.positions, offsets, state, budget, end0, rows, results)
    }
}

/// Candidate cursor at one position: either a posting-list walk
/// (`list`/`idx`, `postings` set) or a consecutive scan (`scan`).
#[derive(Clone, Copy)]
struct CandCur<'a> {
    list: &'a [u32],
    idx: u32,
    scan: u32,
    postings: bool,
}

impl CandCur<'_> {
    const EMPTY: CandCur<'static> = CandCur {
        list: &[],
        idx: 0,
        scan: 0,
        postings: false,
    };
}

#[inline(always)]
fn begin_postings<'a>(index: &'a HashIndex, key: i64, min: u32, card: u32) -> (CandCur<'a>, u32) {
    let list = index.probe(key);
    let idx = list.partition_point(|&p| p < min) as u32;
    let first = list.get(idx as usize).copied().unwrap_or(card);
    (
        CandCur {
            list,
            idx: idx + 1,
            scan: 0,
            postings: true,
        },
        first,
    )
}

/// Posting-cursor establish for hash-derived keys (fused composite keys,
/// string/nullable join keys): a `Some` key probes like any other
/// posting jump; a `None` key is a NULL and yields **no** candidates —
/// the same null-reject as the plan-bound kernel's `None => pos.card`
/// (three-valued equality: NULL never matches, not even NULL).
#[inline(always)]
fn begin_keyed<'a>(
    index: &'a HashIndex,
    key: Option<i64>,
    min: u32,
    card: u32,
) -> (CandCur<'a>, u32) {
    match key {
        Some(k) => begin_postings(index, k, min, card),
        None => (
            CandCur {
                postings: true,
                ..CandCur::EMPTY
            },
            card,
        ),
    }
}

/// Establish the candidate sequence at `pos` with minimum candidate
/// `min` — the one jump-kind match per descent. Returns the cursor and
/// the first candidate (`card` when there is none).
#[inline(always)]
fn begin<'a>(pos: &KernelPosition<'a>, rows: &[RowId], min: u32) -> (CandCur<'a>, u32) {
    match pos.jump {
        KernelJump::Scan => (
            CandCur {
                scan: min.saturating_add(1),
                ..CandCur::EMPTY
            },
            min,
        ),
        KernelJump::IntEq { keys, src, index } => {
            begin_postings(index, keys[rows[src] as usize], min, pos.card)
        }
        KernelJump::FloatEq { keys, src, index } => {
            let key = skinner_storage::f64_key(keys[rows[src] as usize]);
            begin_postings(index, key, min, pos.card)
        }
        KernelJump::FusedEq { keys, src, index } => {
            begin_keyed(index, keys[rows[src] as usize], min, pos.card)
        }
        KernelJump::KeyEq { col, src, index } => {
            begin_keyed(index, col.join_key(rows[src] as usize), min, pos.card)
        }
    }
}

/// The next candidate at `pos` (`card` when exhausted). Dispatch-free:
/// it branches only on the cursor's postings flag.
#[inline(always)]
fn next(pos: &KernelPosition<'_>, cur: &mut CandCur<'_>) -> u32 {
    if cur.postings {
        let c = cur.list.get(cur.idx as usize).copied().unwrap_or(pos.card);
        cur.idx += 1;
        c
    } else {
        let c = cur.scan;
        cur.scan = c.saturating_add(1);
        c
    }
}

/// The compiled DFS join loop over a whole join order, monomorphized
/// per sink.
///
/// Cursor contract (identical to the engine's plan-bound kernel): on
/// entry `state` holds restored per-table coordinates; on `BudgetSpent`
/// it holds the exact resume point (the not-yet-evaluated candidate at
/// the active position, floors below it); on `Exhausted` the left-most
/// coordinate is at or past `end0`.
fn run_kernel<R: ResultSink>(
    positions: &[KernelPosition<'_>],
    offsets: &[u32],
    state: &mut [u32],
    budget: u64,
    end0: u32,
    rows: &mut [RowId],
    results: &mut R,
) -> (ContinueResult, u64) {
    let m = positions.len();
    let t0 = positions[0].table;
    if state[t0] >= end0 {
        return (ContinueResult::Exhausted, 0);
    }
    let mut curs = vec![CandCur::EMPTY; m];
    let mut i = 0usize;
    let mut steps = 0u64;
    // Establish position 0 at the restored coordinate; deeper positions
    // are established as the walk-down descends (each `begin` re-probes
    // with the by-then-current predecessor tuple — the O(m) re-walk the
    // suspend/resume contract requires).
    (curs[0], state[t0]) = begin(&positions[0], rows, state[t0]);
    loop {
        steps += 1;
        if steps > budget {
            return (ContinueResult::BudgetSpent, steps - 1);
        }
        // Per-step sink poll (see the plan-bound kernel): lets a
        // partitioned LIMIT worker with a match-free chunk observe the
        // shared quota; statically false for plain sinks.
        if results.is_full() {
            return (ContinueResult::BudgetSpent, steps - 1);
        }
        let pos = &positions[i];
        let t = pos.table;
        let bound = if i == 0 { end0 } else { pos.card };
        let s = state[t];
        if s >= bound {
            // Candidates exhausted here: reset to the floor, backtrack,
            // advance the predecessor.
            if i == 0 {
                return (ContinueResult::Exhausted, steps);
            }
            state[t] = offsets[t];
            i -= 1;
            let prev = &positions[i];
            state[prev.table] = next(prev, &mut curs[i]);
            continue;
        }
        rows[t] = pos.base[s as usize];
        if pos.preds.iter().all(|p| p.eval(rows)) {
            if i + 1 == m {
                results.insert(rows);
                // Advance past the emitted tuple *before* any sink-driven
                // early exit (LIMIT pushdown), so a resumed slice always
                // makes progress even when the suspension was triggered
                // by a re-emission of an earlier slice's tuple (the
                // partitioned path's shared quota counter counts those).
                state[t] = next(pos, &mut curs[i]);
                if results.is_full() {
                    return (ContinueResult::BudgetSpent, steps);
                }
            } else {
                i += 1;
                let nxt = &positions[i];
                (curs[i], state[nxt.table]) = begin(nxt, rows, state[nxt.table]);
            }
        } else {
            state[t] = next(pos, &mut curs[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::JumpKind;
    use skinner_query::{CompiledPred, Expr};
    use skinner_storage::table::TableRef;
    use skinner_storage::{Column, ColumnDef, Schema, Table, ValueType};
    use std::sync::Arc;

    /// A deduplicating sink collecting tuples in first-emit order (the
    /// engine's real `ResultSet` dedups too: a resume after a sink-full
    /// suspension legitimately re-offers the last tuple).
    #[derive(Default)]
    struct Collect {
        tuples: Vec<Vec<RowId>>,
        full_at: Option<usize>,
    }

    impl ResultSink for Collect {
        fn insert(&mut self, tuple: &[RowId]) -> bool {
            if self.tuples.iter().any(|t| t == tuple) {
                return false;
            }
            self.tuples.push(tuple.to_vec());
            true
        }
        fn is_full(&self) -> bool {
            self.full_at.is_some_and(|n| self.tuples.len() >= n)
        }
    }

    /// Two int-keyed tables, every row filtered in (identity base maps).
    fn tables() -> Vec<TableRef> {
        vec![
            Arc::new(
                Table::new(
                    "a",
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints(vec![1, 2, 3, 2])],
                )
                .unwrap(),
            ),
            Arc::new(
                Table::new(
                    "b",
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints(vec![2, 1, 2, 9])],
                )
                .unwrap(),
            ),
        ]
    }

    fn base(n: usize) -> Vec<RowId> {
        (0..n as u32).collect()
    }

    /// Build the 2-table kernel `a ⋈ b on k`, int jump at position 1
    /// with the equality elided.
    fn int_join_kernel<'a>(
        ts: &'a [TableRef],
        b0: &'a [RowId],
        b1: &'a [RowId],
        idx: &'a HashIndex,
        elide: bool,
        pred: &'a CompiledPred,
    ) -> CompiledKernel<'a> {
        let keys = ts[0].column(0).ints().unwrap();
        let preds1: Vec<BoundPred<'a>> = if elide { vec![] } else { vec![pred.bind(ts)] };
        let positions = vec![
            KernelPosition {
                table: 0,
                card: 4,
                base: b0,
                preds: vec![],
                jump: KernelJump::Scan,
                elided: false,
            },
            KernelPosition {
                table: 1,
                card: 4,
                base: b1,
                preds: preds1,
                jump: KernelJump::IntEq {
                    keys,
                    src: 0,
                    index: idx,
                },
                elided: elide,
            },
        ];
        let key = KernelKey::new(
            positions
                .iter()
                .map(|p| (p.jump.kind(), p.preds.as_slice(), p.elided)),
        );
        CompiledKernel::new(key, positions).expect("supported")
    }

    #[test]
    fn int_chain_join_with_and_without_elision() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let expected = vec![vec![0, 1], vec![1, 0], vec![1, 2], vec![3, 0], vec![3, 2]];
        for elide in [true, false] {
            let k = int_join_kernel(&ts, &b0, &b1, &idx, elide, &pred);
            let offsets = vec![0u32; 2];
            let mut state = vec![0u32; 2];
            let mut rows = vec![0u32; 2];
            let mut out = Collect::default();
            let (res, _) = k.run(
                &offsets,
                &mut state,
                u64::MAX,
                k.card0(),
                &mut rows,
                &mut out,
            );
            assert_eq!(res, ContinueResult::Exhausted);
            assert_eq!(out.tuples, expected, "elide {elide}");
        }
    }

    #[test]
    fn slicing_resumes_exactly() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let k = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        let offsets = vec![0u32; 2];
        let mut one_shot = Collect::default();
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let (_, total_steps) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut one_shot,
        );

        // Budgets at or above the livelock clamp (4·m, like the slice
        // driver enforces) but well below the one-shot step count, so
        // every run genuinely slices and resumes.
        for budget in 8..14u64 {
            assert!(total_steps > budget, "workload too small to slice");
            let mut sliced = Collect::default();
            let mut state = vec![0u32; 2];
            let mut slices = 0;
            loop {
                slices += 1;
                assert!(slices < 1000, "no termination at budget {budget}");
                let (res, steps) = k.run(
                    &offsets,
                    &mut state,
                    budget,
                    k.card0(),
                    &mut rows,
                    &mut sliced,
                );
                assert!(steps <= budget);
                if res == ContinueResult::Exhausted {
                    break;
                }
            }
            assert_eq!(sliced.tuples, one_shot.tuples, "budget {budget}");
            assert!(slices > 1);
        }
    }

    #[test]
    fn offsets_floor_excludes_and_end0_bounds() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let k = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        // Floor a past its first row: tuple [0,1] disappears.
        let offsets = vec![1u32, 0];
        let mut state = offsets.clone();
        let mut rows = vec![0u32; 2];
        let mut out = Collect::default();
        k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(
            out.tuples,
            vec![vec![1, 0], vec![1, 2], vec![3, 0], vec![3, 2]]
        );
        // Chunk bound end0 = 2: only a-rows 1 (a-row 0 floored out).
        let offsets = vec![0u32, 0];
        let mut state = vec![1u32, 0];
        let mut out = Collect::default();
        let (res, _) = k.run(&offsets, &mut state, u64::MAX, 2, &mut rows, &mut out);
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(out.tuples, vec![vec![1, 0], vec![1, 2]]);
    }

    #[test]
    fn full_sink_suspends_with_resumable_cursor() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let k = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        let offsets = vec![0u32; 2];
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut out = Collect {
            full_at: Some(2),
            ..Default::default()
        };
        let (res, _) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(res, ContinueResult::BudgetSpent);
        assert_eq!(out.tuples.len(), 2);
        // Resuming without the limit completes the remaining three.
        out.full_at = None;
        let (res, _) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(out.tuples.len(), 5);
    }

    #[test]
    fn scan_class_matches_int_chain() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let indexed = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        // Same join compiled as a pure scan (no index available).
        let positions = vec![
            KernelPosition {
                table: 0,
                card: 4,
                base: &b0,
                preds: vec![],
                jump: KernelJump::Scan,
                elided: false,
            },
            KernelPosition {
                table: 1,
                card: 4,
                base: &b1,
                preds: vec![pred.bind(&ts)],
                jump: KernelJump::Scan,
                elided: false,
            },
        ];
        let key = KernelKey::new(
            positions
                .iter()
                .map(|p| (p.jump.kind(), p.preds.as_slice(), p.elided)),
        );
        let scan = CompiledKernel::new(key, positions).expect("supported");
        let offsets = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut run = |k: &CompiledKernel<'_>| {
            let mut state = vec![0u32; 2];
            let mut out = Collect::default();
            k.run(
                &offsets,
                &mut state,
                u64::MAX,
                k.card0(),
                &mut rows,
                &mut out,
            );
            out.tuples
        };
        assert_eq!(run(&scan), run(&indexed));
    }

    #[test]
    fn float_keys_take_mixed_class_and_reverify() {
        let ts: Vec<TableRef> = vec![
            Arc::new(
                Table::new(
                    "a",
                    Schema::new([ColumnDef::new("k", ValueType::Float)]),
                    vec![Column::from_floats(vec![0.5, 1.5, 2.5])],
                )
                .unwrap(),
            ),
            Arc::new(
                Table::new(
                    "b",
                    Schema::new([ColumnDef::new("k", ValueType::Float)]),
                    vec![Column::from_floats(vec![1.5, 0.5, 1.5])],
                )
                .unwrap(),
            ),
        ];
        let (b0, b1) = (base(3), base(3));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let keys = ts[0].column(0).floats().unwrap();
        let positions = vec![
            KernelPosition {
                table: 0,
                card: 3,
                base: &b0,
                preds: vec![],
                jump: KernelJump::Scan,
                elided: false,
            },
            KernelPosition {
                table: 1,
                card: 3,
                base: &b1,
                preds: vec![pred.bind(&ts)],
                jump: KernelJump::FloatEq {
                    keys,
                    src: 0,
                    index: &idx,
                },
                elided: false,
            },
        ];
        let key = KernelKey::new(
            positions
                .iter()
                .map(|p| (p.jump.kind(), p.preds.as_slice(), p.elided)),
        );
        let k = CompiledKernel::new(key, positions).expect("supported");
        assert_eq!(k.key().jump(1), JumpKind::Float);
        let offsets = vec![0u32; 2];
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut out = Collect::default();
        let (res, _) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(out.tuples, vec![vec![0, 1], vec![1, 0], vec![1, 2]]);
    }

    /// Build the 2-table fused-key kernel over precomputed key vectors:
    /// src keys (per base row of table 0) drive a composite index over
    /// table 1's filtered positions. `None` keys are NULL components.
    fn fused_kernel<'a>(
        src_keys: &'a [Option<i64>],
        idx: &'a HashIndex,
        b0: &'a [RowId],
        b1: &'a [RowId],
    ) -> CompiledKernel<'a> {
        let positions = vec![
            KernelPosition {
                table: 0,
                card: b0.len() as u32,
                base: b0,
                preds: vec![],
                jump: KernelJump::Scan,
                elided: false,
            },
            KernelPosition {
                table: 1,
                card: b1.len() as u32,
                base: b1,
                preds: vec![],
                jump: KernelJump::FusedEq {
                    keys: src_keys,
                    src: 0,
                    index: idx,
                },
                elided: false,
            },
        ];
        let key = KernelKey::new(
            positions
                .iter()
                .map(|p| (p.jump.kind(), p.preds.as_slice(), p.elided)),
        );
        CompiledKernel::new(key, positions).expect("fused shapes compile")
    }

    #[test]
    fn fused_chain_joins_and_rejects_null_components() {
        // Source fused keys per base row; row 1 has a NULL component.
        let src_keys = vec![Some(10i64), None, Some(20)];
        // Probed side's fused keys per filtered position.
        let probe_keys = vec![Some(20i64), Some(10), Some(10), None];
        let idx = HashIndex::from_keys(&probe_keys);
        let (b0, b1) = (base(3), base(4));
        let k = fused_kernel(&src_keys, &idx, &b0, &b1);
        assert_eq!(k.key().jump(1), JumpKind::Fused);
        let offsets = vec![0u32; 2];
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut out = Collect::default();
        let (res, _) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(res, ContinueResult::Exhausted);
        // Row 1 (NULL component) matches nothing; NULL postings (probe
        // row 3) are never enumerated.
        assert_eq!(out.tuples, vec![vec![0, 1], vec![0, 2], vec![2, 0]]);
    }

    #[test]
    fn string_key_chain_joins_and_rejects_nulls() {
        use skinner_storage::{ColumnBuilder, Value};
        let mut b = ColumnBuilder::new(ValueType::Str);
        for v in [Value::str("x"), Value::Null, Value::str("y")] {
            b.push(&v);
        }
        let a_col = b.finish(); // ["x", NULL, "y"]
        let b_col = Column::from_strs(["y", "x", "z", "x"]);
        let (b0, b1) = (base(3), base(4));
        let idx = HashIndex::build(&b_col, Some(&b1));
        let positions = vec![
            KernelPosition {
                table: 0,
                card: 3,
                base: &b0,
                preds: vec![],
                jump: KernelJump::Scan,
                elided: false,
            },
            KernelPosition {
                table: 1,
                card: 4,
                base: &b1,
                preds: vec![],
                jump: KernelJump::KeyEq {
                    col: &a_col,
                    src: 0,
                    index: &idx,
                },
                elided: false,
            },
        ];
        let key = KernelKey::new(
            positions
                .iter()
                .map(|p| (p.jump.kind(), p.preds.as_slice(), p.elided)),
        );
        let k = CompiledKernel::new(key, positions).expect("string keys compile");
        assert_eq!(k.key().jump(1), JumpKind::Key);
        let offsets = vec![0u32; 2];
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut out = Collect::default();
        let (res, _) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(res, ContinueResult::Exhausted);
        // "x" matches probe rows 1 and 3, NULL matches nothing (not even
        // another NULL), "y" matches probe row 0.
        assert_eq!(out.tuples, vec![vec![0, 1], vec![0, 3], vec![2, 0]]);
    }

    /// A pure-scan kernel with one position per base slice (no
    /// predicates: a cross product).
    fn scan_kernel<'a>(bases: &'a [Vec<RowId>]) -> CompiledKernel<'a> {
        let positions: Vec<KernelPosition<'a>> = bases
            .iter()
            .enumerate()
            .map(|(t, b)| KernelPosition {
                table: t,
                card: b.len() as u32,
                base: b,
                preds: vec![],
                jump: KernelJump::Scan,
                elided: false,
            })
            .collect();
        let key = KernelKey::new(positions.iter().map(|p| (p.jump.kind(), &[][..], false)));
        CompiledKernel::new(key, positions).expect("scan shapes compile")
    }

    #[test]
    fn long_orders_compile_whole_and_slice_within_budget() {
        // Nine tables: one kernel covers every position, and every
        // slice stops at its budget while resuming exactly.
        let bases: Vec<Vec<RowId>> = (0..9).map(|_| base(2)).collect();
        let k = scan_kernel(&bases);
        assert_eq!(k.num_tables(), 9);
        let offsets = vec![0u32; 9];
        let mut rows = vec![0u32; 9];
        let mut one_shot = Collect::default();
        let mut state = offsets.clone();
        k.run(&offsets, &mut state, u64::MAX, 2, &mut rows, &mut one_shot);
        assert_eq!(one_shot.tuples.len(), 512);
        let budget = 4 * 9;
        let mut sliced = Collect::default();
        let mut state = offsets.clone();
        loop {
            let (res, steps) = k.run(&offsets, &mut state, budget, 2, &mut rows, &mut sliced);
            assert!(steps <= budget, "slice took {steps} > {budget} steps");
            if res == ContinueResult::Exhausted {
                break;
            }
        }
        assert_eq!(sliced.tuples, one_shot.tuples);

        // An empty last table: nothing joins, yet one slice still stops
        // at exactly its budget instead of enumerating the prefixes.
        let mut bases: Vec<Vec<RowId>> = (0..10).map(|_| base(4)).collect();
        bases[9].clear();
        let k = scan_kernel(&bases);
        let offsets = vec![0u32; 10];
        let mut state = offsets.clone();
        let mut rows = vec![0u32; 10];
        let mut out = Collect::default();
        let (res, steps) = k.run(&offsets, &mut state, 500, 4, &mut rows, &mut out);
        assert_eq!((res, steps), (ContinueResult::BudgetSpent, 500));
        assert!(out.tuples.is_empty());
    }

    #[test]
    fn unsupported_shapes_refuse_to_build() {
        let ts = tables();
        let b0 = base(4);
        let one = vec![KernelPosition {
            table: 0,
            card: 4,
            base: &b0,
            preds: vec![],
            jump: KernelJump::Scan,
            elided: false,
        }];
        let key = KernelKey::new(
            one.iter()
                .map(|p| (p.jump.kind(), p.preds.as_slice(), false)),
        );
        assert!(CompiledKernel::new(key, one).is_none());
        let _ = ts;
    }
}
