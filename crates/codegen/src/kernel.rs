//! The compiled join kernel: one straight-line DFS loop per join order,
//! specialized on the order's shape.
//!
//! The engine binds each chosen order once into compiled positions
//! (typed key slices, direct index references, the jump decided), and
//! every order — a single table included — runs here. The kernel is the
//! safe-Rust stand-in for the paper's §6 compilation:
//!
//! * **Whole orders of any arity** — one kernel covers every position of
//!   an order; its candidate cursors are sized to the order at run time.
//!   The cursor it persists therefore covers the whole order, and every
//!   slice stops at its step budget — the unit the paper's regret bound
//!   counts.
//! * **Jump dispatch only on descent** — descending into a position
//!   matches its jump kind once to establish a candidate cursor; every
//!   later advance at that position is dispatch-free (it only branches
//!   on whether the cursor walks postings or scans).
//! * **Postings cursors** — descending into an index-driven position
//!   probes the join index **once** for the current predecessor key (an
//!   offset-array lookup for dense keys, a hash-map lookup otherwise)
//!   and then walks the sorted posting list with a cursor; every
//!   subsequent advance is `list[idx++]` instead of probe + binary
//!   search.
//! * **Equality-predicate elision** — integer join keys are exact (the
//!   join key *is* the value), so candidates drawn from the posting list
//!   provably satisfy the driving equality predicate; the kernel
//!   evaluates only the remaining predicates. Float keys match by bit
//!   pattern, which over-approximates IEEE equality on NaN, so float
//!   positions keep full re-verification. Fused composite keys and
//!   string/nullable keys ([`KernelJump::FusedEq`], [`KernelJump::KeyEq`])
//!   are hash-derived, so they are **never** elided: the posting cursor
//!   only narrows the candidate set, and every driving conjunct is
//!   re-verified. NULL keys (`None`) reject outright — no candidates —
//!   so three-valued equality is preserved.
//!
//! Soundness relative to the engine's generic reference kernel
//! (`MultiwayJoin::continue_join_generic`), which re-resolves every
//! predicate and advances an index-driven position by `next_ge` on the
//! `(table, column)` index map: both enumerate the same depth-first
//! candidate sequence — the posting-list cursor yields exactly the
//! positions `next_ge` visits, because postings are sorted ascending —
//! so accepted tuples and their emit order are identical. The only
//! difference is step accounting: the generic kernel backtracks inside
//! an advance, while this kernel spends one step on each exhausted
//! position, the left-most one included. The differential properties in
//! `tests/property.rs` check the tuples byte for byte.

use crate::key::{JumpKind, KernelKey};
use crate::sink::{ContinueResult, ResultSink};
use skinner_query::{BoundPred, Udf};
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
/// build one per (query, order) and reuse it across every time slice.
#[derive(Debug, Clone)]
pub struct CompiledKernel<'a> {
    key: KernelKey,
    positions: Vec<KernelPosition<'a>>,
    /// The UDF of every bound [`BoundPred::Udf`] predicate, in position
    /// and predicate order: one call-tally slot each.
    udfs: Vec<&'a Udf>,
    /// Per position, the tally slot of its first bound UDF predicate, or
    /// [`NO_UDF`] when it has none.
    udf_slot: Vec<u32>,
}

/// `udf_slot` of a position without a bound UDF predicate.
const NO_UDF: u32 = u32::MAX;

/// Scratch a kernel reuses across slices: one candidate cursor per
/// position and one call tally per bound UDF predicate. The caller owns
/// it (the engine's `MultiwayJoin`, beside its `rows`), so a slice
/// allocates nothing once the scratch has grown to the longest order.
#[derive(Default)]
pub struct KernelScratch<'a> {
    curs: Vec<CandCur<'a>>,
    /// All zero between slices: a slice's tallies are folded into their
    /// UDFs' counts and reset before it returns.
    udf_calls: Vec<u64>,
}

impl<'a> CompiledKernel<'a> {
    /// Assemble a kernel from compiled positions, one per join-order
    /// position (at least one).
    pub fn new(positions: Vec<KernelPosition<'a>>) -> CompiledKernel<'a> {
        debug_assert!(!positions.is_empty(), "an empty order has no kernel");
        let key = KernelKey::of(&positions);
        let mut udfs = Vec::new();
        let udf_slot = positions
            .iter()
            .map(|pos| {
                let first = udfs.len();
                udfs.extend(pos.preds.iter().filter_map(|p| match p {
                    BoundPred::Udf { udf, .. } => Some(*udf),
                    _ => None,
                }));
                if udfs.len() == first {
                    NO_UDF
                } else {
                    first as u32
                }
            })
            .collect();
        CompiledKernel {
            key,
            positions,
            udfs,
            udf_slot,
        }
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

    /// Execute the compiled kernel from cursor `state` (indexed by table
    /// id, filtered positions) for at most `budget` outer-loop steps.
    /// Result tuples go to `results`; `offsets` are the global per-table
    /// floors; `rows` is the caller's per-table base-row scratch and
    /// `scratch` its cursor and tally scratch. Emit order matches the
    /// engine's generic reference kernel exactly.
    ///
    /// Bound UDF predicates are called uncounted and tallied per slot;
    /// each UDF's [`Udf::call_count`] gets its slice's calls in one add
    /// when the slice returns or unwinds, so it is exact at every slice
    /// boundary. A kernel without bound UDF predicates runs the step loop
    /// with no tallying code at all.
    pub fn run<R: ResultSink>(
        &self,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        rows: &mut [RowId],
        scratch: &mut KernelScratch<'a>,
        results: &mut R,
    ) -> (ContinueResult, u64) {
        let m = self.positions.len();
        if scratch.curs.len() < m {
            scratch.curs.resize(m, CandCur::EMPTY);
        }
        let curs = &mut scratch.curs[..m];
        let (positions, slots) = (&self.positions[..], &self.udf_slot[..]);
        if self.udfs.is_empty() {
            return run_kernel::<R, false>(
                positions,
                slots,
                offsets,
                state,
                budget,
                rows,
                curs,
                &mut [],
                results,
            );
        }
        if scratch.udf_calls.len() < self.udfs.len() {
            scratch.udf_calls.resize(self.udfs.len(), 0);
        }
        let tally = SliceTally {
            udfs: &self.udfs,
            calls: &mut scratch.udf_calls[..self.udfs.len()],
        };
        run_kernel::<R, true>(
            positions,
            slots,
            offsets,
            state,
            budget,
            rows,
            curs,
            tally.calls,
            results,
        )
    }

    /// How far cursor `state` (indexed by table id) has come through this
    /// order's depth-first enumeration, a value in `[0, 1]`:
    /// `Σ_i rank_i / Π_{q ≤ i} |cands_q|`, where `cands_i` is the
    /// candidate sequence position `i` walks for the predecessor tuple
    /// the cursor names and `rank_i` is the cursor's rank within it. A
    /// scan's candidates are the table's filtered positions, so on an
    /// all-scan order this is the cursor's row position scaled by the
    /// cardinalities. The walk stops at the first position with no
    /// candidates or with its cursor at or past the cardinality. Costs
    /// one index probe per position; `rows` is the caller's per-table
    /// base-row scratch.
    pub fn progress(&self, state: &[u32], rows: &mut [RowId]) -> f64 {
        let mut denom = 1.0f64;
        let mut f = 0.0f64;
        for pos in &self.positions {
            let s = state[pos.table];
            let (rank, len) = match probe(pos, rows) {
                None => (s.min(pos.card), pos.card),
                Some(list) => (list.partition_point(|&p| p < s) as u32, list.len() as u32),
            };
            if len == 0 {
                break;
            }
            denom *= len as f64;
            f += rank as f64 / denom;
            if s >= pos.card {
                break;
            }
            rows[pos.table] = pos.base[s as usize];
        }
        f
    }
}

/// A slice's bound-UDF call tallies, folded into their UDFs' counts and
/// reset when dropped: on return or on unwind.
struct SliceTally<'s, 'a> {
    udfs: &'s [&'a Udf],
    calls: &'s mut [u64],
}

impl Drop for SliceTally<'_, '_> {
    fn drop(&mut self) {
        for (udf, n) in self.udfs.iter().zip(self.calls.iter_mut()) {
            if *n > 0 {
                udf.add_calls(*n);
                *n = 0;
            }
        }
    }
}

/// A position's predicates in order, short-circuiting like `all`, with
/// each bound UDF predicate called uncounted and tallied in the next slot
/// of `calls`. A predicate after a rejecting one is neither called nor
/// tallied.
#[inline(always)]
fn eval_tallied(preds: &[BoundPred<'_>], rows: &[RowId], calls: &mut [u64]) -> bool {
    let mut slot = 0;
    for p in preds {
        let pass = match p {
            BoundPred::Udf { .. } => {
                calls[slot] += 1;
                slot += 1;
                p.eval_uncounted(rows)
            }
            _ => p.eval(rows),
        };
        if !pass {
            return false;
        }
    }
    true
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

/// The candidate sequence position `pos` walks for the predecessor
/// tuple in `rows` — the one jump-kind match, shared by the kernel's
/// descent and [`CompiledKernel::progress`]. `None` for a scan
/// (consecutive filtered positions); otherwise the sorted posting list
/// for the predecessor's key. A NULL fused or string key (`None`) yields
/// **no** candidates (three-valued equality: NULL never matches, not
/// even NULL).
#[inline(always)]
fn probe<'a>(pos: &KernelPosition<'a>, rows: &[RowId]) -> Option<&'a [u32]> {
    Some(match pos.jump {
        KernelJump::Scan => return None,
        KernelJump::IntEq { keys, src, index } => index.probe(keys[rows[src] as usize]),
        KernelJump::FloatEq { keys, src, index } => {
            index.probe(skinner_storage::f64_key(keys[rows[src] as usize]))
        }
        KernelJump::FusedEq { keys, src, index } => {
            keys[rows[src] as usize].map_or(&[][..], |k| index.probe(k))
        }
        KernelJump::KeyEq { col, src, index } => col
            .join_key(rows[src] as usize)
            .map_or(&[][..], |k| index.probe(k)),
    })
}

/// Establish the candidate sequence at `pos` with minimum candidate
/// `min`, once per descent. Returns the cursor and the first candidate
/// (`card` when there is none).
#[inline(always)]
fn begin<'a>(pos: &KernelPosition<'a>, rows: &[RowId], min: u32) -> (CandCur<'a>, u32) {
    match probe(pos, rows) {
        None => (
            CandCur {
                scan: min.saturating_add(1),
                ..CandCur::EMPTY
            },
            min,
        ),
        Some(list) => {
            let idx = list.partition_point(|&p| p < min) as u32;
            let first = list.get(idx as usize).copied().unwrap_or(pos.card);
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
/// per sink and on whether any position tallies bound UDF calls
/// (`TALLY`). `slots` and `calls` are read only when `TALLY` is set, so
/// the `false` instance is the plain predicate loop.
///
/// Cursor contract: on entry `state` holds restored per-table
/// coordinates; on `BudgetSpent`
/// it holds the exact resume point (the not-yet-evaluated candidate at
/// the active position, floors below it); on `Exhausted` the left-most
/// coordinate is at or past its cardinality.
#[allow(clippy::too_many_arguments)]
fn run_kernel<'a, R: ResultSink, const TALLY: bool>(
    positions: &[KernelPosition<'a>],
    slots: &[u32],
    offsets: &[u32],
    state: &mut [u32],
    budget: u64,
    rows: &mut [RowId],
    curs: &mut [CandCur<'a>],
    calls: &mut [u64],
    results: &mut R,
) -> (ContinueResult, u64) {
    let m = positions.len();
    let t0 = positions[0].table;
    if state[t0] >= positions[0].card {
        return (ContinueResult::Exhausted, 0);
    }
    // A sink fills only on insert, and every insert is checked below, so
    // one check on entry covers a slice that starts on a full sink.
    if results.is_full() {
        return (ContinueResult::BudgetSpent, 0);
    }
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
        let pos = &positions[i];
        let t = pos.table;
        let s = state[t];
        if s >= pos.card {
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
        let pass = if TALLY && slots[i] != NO_UDF {
            eval_tallied(&pos.preds, rows, &mut calls[slots[i] as usize..])
        } else {
            pos.preds.iter().all(|p| p.eval(rows))
        };
        if pass {
            if i + 1 == m {
                results.insert(rows);
                // Advance past the emitted tuple *before* any sink-driven
                // early exit (LIMIT pushdown), so a resumed slice always
                // makes progress.
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

    /// [`CompiledKernel::run`] with a fresh scratch.
    fn run_fresh<R: ResultSink>(
        k: &CompiledKernel<'_>,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        rows: &mut [RowId],
        results: &mut R,
    ) -> (ContinueResult, u64) {
        k.run(
            offsets,
            state,
            budget,
            rows,
            &mut KernelScratch::default(),
            results,
        )
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
                preds: preds1,
                jump: KernelJump::IntEq {
                    keys,
                    src: 0,
                    index: idx,
                },
                elided: elide,
            },
        ];
        CompiledKernel::new(positions)
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
            let (res, _) = run_fresh(&k, &offsets, &mut state, u64::MAX, &mut rows, &mut out);
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
        // One scratch across every run, as the engine reuses it: a slice
        // never reads a cursor an earlier slice left behind.
        let mut scratch = KernelScratch::default();
        let (_, total_steps) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            &mut rows,
            &mut scratch,
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
                    &mut rows,
                    &mut scratch,
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
    fn offsets_floor_excludes_and_cursor_past_end_exhausts() {
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
        run_fresh(&k, &offsets, &mut state, u64::MAX, &mut rows, &mut out);
        assert_eq!(
            out.tuples,
            vec![vec![1, 0], vec![1, 2], vec![3, 0], vec![3, 2]]
        );
        // A cursor restored past the left-most cardinality is complete:
        // no step, no tuple.
        let offsets = vec![0u32, 0];
        let mut state = vec![4u32, 0];
        let mut out = Collect::default();
        let (res, steps) = run_fresh(&k, &offsets, &mut state, u64::MAX, &mut rows, &mut out);
        assert_eq!((res, steps), (ContinueResult::Exhausted, 0));
        assert!(out.tuples.is_empty());
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
        let (res, _) = run_fresh(&k, &offsets, &mut state, u64::MAX, &mut rows, &mut out);
        assert_eq!(res, ContinueResult::BudgetSpent);
        assert_eq!(out.tuples.len(), 2);
        // Resuming without the limit completes the remaining three.
        out.full_at = None;
        let (res, _) = run_fresh(&k, &offsets, &mut state, u64::MAX, &mut rows, &mut out);
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
        let scan = CompiledKernel::new(positions);
        let offsets = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut run = |k: &CompiledKernel<'_>| {
            let mut state = vec![0u32; 2];
            let mut out = Collect::default();
            run_fresh(k, &offsets, &mut state, u64::MAX, &mut rows, &mut out);
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
        let k = CompiledKernel::new(positions);
        assert_eq!(k.key().jumps()[1], JumpKind::Float);
        let offsets = vec![0u32; 2];
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut out = Collect::default();
        let (res, _) = run_fresh(&k, &offsets, &mut state, u64::MAX, &mut rows, &mut out);
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
        CompiledKernel::new(positions)
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
        assert_eq!(k.key().jumps()[1], JumpKind::Fused);
        let offsets = vec![0u32; 2];
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut out = Collect::default();
        let (res, _) = run_fresh(&k, &offsets, &mut state, u64::MAX, &mut rows, &mut out);
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
        let k = CompiledKernel::new(positions);
        assert_eq!(k.key().jumps()[1], JumpKind::Key);
        let offsets = vec![0u32; 2];
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut out = Collect::default();
        let (res, _) = run_fresh(&k, &offsets, &mut state, u64::MAX, &mut rows, &mut out);
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
        CompiledKernel::new(positions)
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
        run_fresh(&k, &offsets, &mut state, u64::MAX, &mut rows, &mut one_shot);
        assert_eq!(one_shot.tuples.len(), 512);
        let budget = 4 * 9;
        let mut sliced = Collect::default();
        let mut state = offsets.clone();
        loop {
            let (res, steps) = run_fresh(&k, &offsets, &mut state, budget, &mut rows, &mut sliced);
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
        let (res, steps) = run_fresh(&k, &offsets, &mut state, 500, &mut rows, &mut out);
        assert_eq!((res, steps), (ContinueResult::BudgetSpent, 500));
        assert!(out.tuples.is_empty());
    }

    #[test]
    fn scan_progress_is_the_row_position_scaled_by_cardinalities() {
        // On an all-scan order, candidates are the filtered positions:
        // progress is `Σ s_i / Π_{q ≤ i} card_q` at every cursor.
        let bases: Vec<Vec<RowId>> = [3, 2, 4].iter().map(|&n| base(n)).collect();
        let k = scan_kernel(&bases);
        let mut rows = vec![0u32; 3];
        for a in 0..3u32 {
            for b in 0..2u32 {
                for c in 0..4u32 {
                    let want = a as f64 / 3.0 + b as f64 / 6.0 + c as f64 / 24.0;
                    let got = k.progress(&[a, b, c], &mut rows);
                    assert!((got - want).abs() < 1e-12, "({a},{b},{c}): {got} vs {want}");
                }
            }
        }
        assert_eq!(k.progress(&[3, 0, 0], &mut rows), 1.0);
    }

    #[test]
    fn int_progress_increases_along_the_emit_sequence() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let k = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut out = Collect::default();
        run_fresh(&k, &[0, 0], &mut state, u64::MAX, &mut rows, &mut out);
        assert_eq!(out.tuples.len(), 5);
        // Base maps are identities, so each emitted tuple is the cursor
        // that names it.
        let mut prev = -1.0;
        for t in &out.tuples {
            let p = k.progress(t, &mut rows);
            assert!(p > prev, "{t:?}: {p} after {prev}");
            prev = p;
        }
        assert!(prev < 1.0);
        assert_eq!(k.progress(&state, &mut rows), 1.0, "exhausted cursor");
    }

    #[test]
    fn one_posting_under_a_one_row_leftmost_table_earns_progress() {
        // The left-most table has one row (key 7); two of the 100 rows
        // of the second table match it. Advancing the second position by
        // one posting is half the order's work, however many rows lie
        // between the two postings.
        let ts: Vec<TableRef> = vec![
            Arc::new(
                Table::new(
                    "a",
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints(vec![7])],
                )
                .unwrap(),
            ),
            Arc::new(
                Table::new(
                    "b",
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints(
                        (0..100)
                            .map(|i| if i == 10 || i == 90 { 7 } else { 0 })
                            .collect(),
                    )],
                )
                .unwrap(),
            ),
        ];
        let (b0, b1) = (base(1), base(100));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let k = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        let mut rows = vec![0u32; 2];
        let before = k.progress(&[0, 10], &mut rows);
        let after = k.progress(&[0, 90], &mut rows);
        assert_eq!(before, 0.0);
        assert!(after - before > 0.0);
        assert_eq!(after - before, 0.5);
    }

    /// The scan ⋈ scan kernel over [`tables`] whose second position
    /// carries `preds`.
    fn scan_pair_kernel<'a>(
        b0: &'a [RowId],
        b1: &'a [RowId],
        preds: Vec<BoundPred<'a>>,
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
                preds,
                jump: KernelJump::Scan,
                elided: false,
            },
        ];
        CompiledKernel::new(positions)
    }

    /// `odd(b.k)`, which rejects rows 0 and 2 of `b`, and `lt(a.k, b.k)`.
    fn udf_pair(ts: &[TableRef]) -> [CompiledPred; 2] {
        use skinner_storage::Value;
        let odd = Udf::new("odd", |a| Value::from(a[0].as_int().unwrap() % 2 == 1));
        let lt = Udf::new("lt", |a| Value::from(a[0].as_int() < a[1].as_int()));
        [
            Expr::Udf {
                udf: odd,
                args: vec![Expr::col(1, 0)],
            },
            Expr::Udf {
                udf: lt,
                args: vec![Expr::col(0, 0), Expr::col(1, 0)],
            },
        ]
        .map(|e| CompiledPred::compile(&e, ts))
    }

    fn udf_of(p: &CompiledPred) -> Arc<Udf> {
        match p.expr() {
            Expr::Udf { udf, .. } => Arc::clone(udf),
            e => panic!("not a UDF: {e:?}"),
        }
    }

    #[test]
    fn tallied_udf_calls_match_per_call_counting_at_every_slice() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let cps = udf_pair(&ts);
        let udfs = [udf_of(&cps[0]), udf_of(&cps[1])];
        let bound: Vec<BoundPred<'_>> = cps.iter().map(|p| p.bind(&ts)).collect();
        assert!(bound.iter().all(|p| matches!(p, BoundPred::Udf { .. })));
        let generic = cps
            .iter()
            .map(|pred| BoundPred::Generic { pred, tables: &ts })
            .collect();
        let tallied = scan_pair_kernel(&b0, &b1, bound);
        let counted = scan_pair_kernel(&b0, &b1, generic);
        let calls = || udfs.each_ref().map(|u| u.call_count());
        let offsets = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut scratch = KernelScratch::default();

        // One pass: `odd` sees all 16 pairs, `lt` only the 8 it passes.
        let before = calls();
        let (res, total) = tallied.run(
            &offsets,
            &mut [0, 0],
            u64::MAX,
            &mut rows,
            &mut scratch,
            &mut Collect::default(),
        );
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(calls(), [before[0] + 16, before[1] + 8]);

        for budget in 1..=total {
            let (mut st, mut sc) = (vec![0u32; 2], vec![0u32; 2]);
            let (mut out_t, mut out_c) = (Collect::default(), Collect::default());
            // Budgets below the livelock clamp repeat one slice forever.
            for _ in 0..64 {
                let c0 = calls();
                let rt = tallied.run(
                    &offsets,
                    &mut st,
                    budget,
                    &mut rows,
                    &mut scratch,
                    &mut out_t,
                );
                let c1 = calls();
                let rc = run_fresh(&counted, &offsets, &mut sc, budget, &mut rows, &mut out_c);
                let c2 = calls();
                assert_eq!((rt, &st), (rc, &sc), "budget {budget}");
                for u in 0..2 {
                    assert_eq!(c1[u] - c0[u], c2[u] - c1[u], "budget {budget}, udf {u}");
                }
                if rt.0 == ContinueResult::Exhausted {
                    break;
                }
            }
            assert_eq!(out_t.tuples, out_c.tuples, "budget {budget}");
        }
    }

    #[test]
    fn a_panicking_udf_leaves_exact_counts() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicU64, Ordering};
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        // `odd(b.k)` that panics on its 7th call.
        let seen = Arc::new(AtomicU64::new(0));
        let boom = {
            let seen = Arc::clone(&seen);
            Udf::new("boom", move |a| {
                assert_ne!(seen.fetch_add(1, Ordering::Relaxed) + 1, 7, "7th call");
                skinner_storage::Value::from(a[0].as_int().unwrap() % 2 == 1)
            })
        };
        let pred = CompiledPred::compile(
            &Expr::Udf {
                udf: Arc::clone(&boom),
                args: vec![Expr::col(1, 0)],
            },
            &ts,
        );
        let k = scan_pair_kernel(&b0, &b1, vec![pred.bind(&ts)]);
        let offsets = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut scratch = KernelScratch::default();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            k.run(
                &offsets,
                &mut [0, 0],
                u64::MAX,
                &mut rows,
                &mut scratch,
                &mut Collect::default(),
            )
        }));
        assert!(unwound.is_err());
        assert_eq!(boom.call_count(), 7);
        // The unwind reset the tally: a full pass adds exactly its 16.
        k.run(
            &offsets,
            &mut [0, 0],
            u64::MAX,
            &mut rows,
            &mut scratch,
            &mut Collect::default(),
        );
        assert_eq!(boom.call_count(), 7 + 16);
    }
}
