//! Pre-processing (paper §3, §4.5): unary filtering, hash indexing, and
//! plan-time binding of join orders.
//!
//! "Here, we filter base tables via unary predicates [...] we create hash
//! tables on all columns subject to equality predicates during
//! pre-processing. [...] those overheads are typically small as only
//! tuples satisfying all unary predicates are hashed."
//!
//! The prepared query holds, per table, the *filtered positions* (base
//! row ids surviving unary predicates); all Skinner-C state lives in this
//! filtered position space. A table with unary predicates is filtered a
//! column at a time: each conjunct, bound once to its column slice,
//! compacts a selection vector of base row ids in conjunct order
//! ([`BoundPred::select`]), so a UDF sees only rows that passed the
//! conjuncts before it. Those tables are scanned as at most `threads`
//! morsels on the persistent [`WorkerPool`] (Table 2 — the only
//! parallelism the paper's implementation has); every other table keeps
//! all its rows.
//!
//! For such an unfiltered table the paper's "only tuples satisfying all
//! unary predicates are hashed" saves nothing: its join index covers every
//! base row and so does not depend on the query. It is the table's own
//! [`Table::join_index`](skinner_storage::Table::join_index), built on the
//! first query that joins on the column and shared by every later one;
//! replacing the table in the catalog frees it. Indexes over filtered
//! tables, and composite indexes, are built per query.
//!
//! # Two plan layers
//!
//! Planning one join order happens in two steps:
//!
//! 1. [`PreparedQuery::plan_spec`] derives the *logical* [`OrderSpec`]:
//!    per position, which join conjuncts become applicable (indices into
//!    `join_preds`) and which equality predicate can drive a hash-index
//!    jump ([`JumpSpec`], as `(table, column)` ids).
//! 2. [`PreparedQuery::plan_order`] *binds* that spec into an
//!    [`OrderPlan`]: each position caches its filtered cardinality and
//!    base-row slice, each predicate is specialized into a [`BoundPred`]
//!    over raw typed column slices, and each jump holds a direct
//!    [`HashIndex`] reference plus a [`KeyCol`] accessor specialized to
//!    the key column's representation.
//!
//! The bound plan is what the multi-way join kernel executes: the
//! closest safe-Rust stand-in for the paper's §6 per-query code
//! generation. Orders are bound once and cached across time slices, so
//! the thousands of join-order switches per second never re-resolve a
//! table, column, or index; [`OrderPlan::compile_kernel`] turns a bound
//! plan into the compiled kernel.

use skinner_codegen::{
    CompiledKernel, JumpKind, KernelCache, KernelJump, KernelKey, KernelPosition,
};
use skinner_pool::WorkerPool;
use skinner_query::{compile_predicates, BoundPred, CompiledPred, Query, TableId, TableSet};
use skinner_storage::table::TableRef;
use skinner_storage::{fused_join_key, Column, FxHashMap, HashIndex, RowId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One composite (multi-column) equi-join key group, materialized at
/// prepare time: a pair of tables connected by two or more equality
/// conjuncts. Both sides get a *fused* key per base row — an FxHash
/// combine of the component join keys in canonical pair order (see
/// [`fused_join_key`]) — and a composite hash index over their filtered
/// positions. Fused keys are hashes, so a composite jump never implies
/// its driving predicates: the kernel re-verifies every group conjunct,
/// exactly as it does for string keys. Correlated component columns are
/// where this pays: a single-column jump enumerates every row matching
/// one component and rejects the rest per tuple, while the composite
/// index jumps straight to rows matching the whole key.
pub struct CompositeKeyGroup {
    /// The connected tables, `a < b`.
    pub tables: (TableId, TableId),
    /// Paired component columns (`cols.0[i]` of side `a` joins
    /// `cols.1[i]` of side `b`), sorted canonically.
    pub cols: (Vec<usize>, Vec<usize>),
    /// Indices into `join_preds` of the group's equality conjuncts.
    pub preds: Vec<usize>,
    /// Fused keys per **base row** of each side (`None` = a NULL
    /// component; such rows never match).
    pub keys: (Vec<Option<i64>>, Vec<Option<i64>>),
    /// Composite indexes over each side's **filtered positions**.
    pub indexes: (HashIndex, HashIndex),
}

/// One direction of a composite jump: the earlier (key-providing) side
/// and the later (indexed, probed) side, resolved from `src_is_a`. The
/// single source of truth for side selection — the bound plan, the
/// generic oracle, and the jump heuristic all go through it.
pub struct CompositeSides<'a> {
    /// The earlier table providing the key tuple.
    pub src_table: TableId,
    /// The source side's fused keys per base row.
    pub src_keys: &'a [Option<i64>],
    /// The source side's component columns (paired order).
    pub src_cols: &'a [usize],
    /// The probed side's composite index (filtered positions).
    pub index: &'a HashIndex,
    /// The probed side's component columns (paired order).
    pub index_cols: &'a [usize],
}

impl CompositeKeyGroup {
    /// Resolve the jump direction: `src_is_a` means the group's `a` side
    /// provides the key and the `b` side is probed.
    pub fn sides(&self, src_is_a: bool) -> CompositeSides<'_> {
        if src_is_a {
            CompositeSides {
                src_table: self.tables.0,
                src_keys: &self.keys.0,
                src_cols: &self.cols.0,
                index: &self.indexes.1,
                index_cols: &self.cols.1,
            }
        } else {
            CompositeSides {
                src_table: self.tables.1,
                src_keys: &self.keys.1,
                src_cols: &self.cols.1,
                index: &self.indexes.0,
                index_cols: &self.cols.0,
            }
        }
    }
}

/// A query after pre-processing, ready for multi-way join execution.
pub struct PreparedQuery {
    /// The query's tables in FROM order.
    pub tables: Vec<TableRef>,
    /// Filtered positions: `filtered[t][pos]` = base row id.
    pub filtered: Vec<Vec<RowId>>,
    /// Filtered cardinalities (`filtered[t].len()` cached as u32).
    pub cards: Vec<u32>,
    /// Compiled join conjuncts (tables ≥ 2); unary conjuncts are consumed
    /// by the filter step.
    pub join_preds: Vec<CompiledPred>,
    /// Hash indexes on equi-join columns, keyed by `(table, column)`;
    /// postings are filtered positions. An unfiltered table's entry is
    /// the table's own [`Table::join_index`](skinner_storage::Table::join_index),
    /// shared with every other query over that table.
    pub indexes: FxHashMap<(TableId, usize), Arc<HashIndex>>,
    /// Composite key groups (empty unless indexes were built and some
    /// table pair is connected by ≥ 2 equality conjuncts).
    pub composites: Vec<CompositeKeyGroup>,
    /// Wall time spent pre-processing.
    pub preprocess_time: std::time::Duration,
}

impl PreparedQuery {
    /// Run pre-processing for `query`.
    ///
    /// `build_indexes` corresponds to the "indexes" feature of Table 6;
    /// `threads > 1` spreads the per-table filter scans over at most
    /// `threads` morsels on the process-wide [`WorkerPool::global`], the
    /// calling thread helping. A scan evaluates one conjunct at a time
    /// over the rows the earlier ones kept.
    pub fn new(query: &Query, build_indexes: bool, threads: usize) -> PreparedQuery {
        PreparedQuery::prepare(query, build_indexes, threads, None)
    }

    /// [`new`](PreparedQuery::new), running the filter morsels on `pool`
    /// (`None`: the global pool). With `threads <= 1`, or at most one
    /// table to scan, every scan runs on the calling thread and no pool
    /// is touched.
    pub(crate) fn prepare(
        query: &Query,
        build_indexes: bool,
        threads: usize,
        pool: Option<&Arc<WorkerPool>>,
    ) -> PreparedQuery {
        let start = std::time::Instant::now();
        let tables: Vec<TableRef> = query.tables.iter().map(|b| b.table.clone()).collect();
        let m = tables.len();
        let all_preds = compile_predicates(query);

        // Partition conjuncts into unary (per table) and join predicates.
        let mut unary: Vec<Vec<&CompiledPred>> = vec![Vec::new(); m];
        let mut join_preds = Vec::new();
        for p in &all_preds {
            let ts = p.tables();
            if ts.len() == 1 {
                unary[ts.iter().next().expect("singleton set")].push(p);
            } else if ts.len() >= 2 {
                join_preds.push(p.clone());
            }
            // 0-table predicates (constant folding) are rare; treat a
            // constant-false conjunct as filtering everything.
        }
        let const_false = all_preds
            .iter()
            .any(|p| p.tables().is_empty() && !p.eval(&vec![0u32; m], &tables));
        // Tables whose filtered positions are their base rows.
        let keeps_all: Vec<bool> = unary.iter().map(|u| u.is_empty() && !const_false).collect();

        // Scan the tables that have unary conjuncts as at most `threads`
        // morsels, each taking the next unscanned table until none is
        // left; the rest keep every row (or none, under a constant-false
        // conjunct).
        let mut filtered: Vec<Vec<RowId>> = (0..m)
            .map(|t| {
                if keeps_all[t] {
                    (0..tables[t].num_rows() as RowId).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let scans: Vec<usize> = (0..m)
            .filter(|&t| !const_false && !unary[t].is_empty())
            .collect();
        let next = AtomicUsize::new(0);
        // Each table is filtered a column at a time: the first conjunct
        // scans every row into a selection vector, each later one
        // compacts it, in conjunct order — so conjunct k sees exactly the
        // rows that passed conjuncts 0..k, as under row-at-a-time `all`.
        let scan = |_morsel: usize, done: &mut Vec<(usize, Vec<RowId>)>| {
            // Fault-injection site: a panic here is caught by the pool,
            // re-raised on the submitting thread after the sibling
            // morsels complete, and the hosting worker is replaced.
            crate::failpoints::fire("prepare.scan");
            let mut rows = vec![0u32; m];
            while let Some(&t) = scans.get(next.fetch_add(1, Ordering::Relaxed)) {
                let n = tables[t].num_rows();
                let keep = unary[t].iter().fold(None, |sel, p| {
                    Some(p.bind(&tables).select(t, n, sel, &mut rows))
                });
                done.push((t, keep.expect("a scanned table has a unary conjunct")));
            }
        };
        let mut morsels = vec![Vec::new(); threads.min(scans.len()).max(1)];
        match (morsels.len(), pool) {
            (1, _) => scan(0, &mut morsels[0]),
            (_, Some(pool)) => pool.run_batch_mut(&mut morsels, scan),
            (_, None) => WorkerPool::global().run_batch_mut(&mut morsels, scan),
        }
        for (t, keep) in morsels.into_iter().flatten() {
            filtered[t] = keep;
        }

        let cards: Vec<u32> = filtered.iter().map(|f| f.len() as u32).collect();

        // Hash indexes over every column used by an equi-join predicate.
        // An unfiltered table's index covers all base rows, so it is the
        // table's own, built once and shared across queries.
        let mut indexes = FxHashMap::default();
        if build_indexes {
            for (a, b) in query.equi_join_pairs() {
                for c in [a, b] {
                    indexes.entry((c.table, c.column)).or_insert_with(|| {
                        let table = &tables[c.table];
                        if keeps_all[c.table] {
                            Arc::clone(table.join_index(c.column))
                        } else {
                            let positions = Some(filtered[c.table].as_slice());
                            Arc::new(HashIndex::build(table.column(c.column), positions))
                        }
                    });
                }
            }
        }

        // Composite key groups: fused keys + composite indexes for every
        // table pair connected by ≥ 2 equality conjuncts.
        let mut composites = Vec::new();
        if build_indexes {
            for ((ta, tb), mut pairs) in query.composite_key_groups() {
                // Key-convention guard, as for single jumps: drop
                // component pairs whose equality cannot be accelerated
                // by key comparison (Int vs Float widening); they stay
                // residual predicates. A group needs ≥ 2 sound pairs.
                pairs.retain(|&(ca, cb)| {
                    tables[ta]
                        .column(ca)
                        .join_key_compatible(tables[tb].column(cb))
                });
                if pairs.len() < 2 {
                    continue;
                }
                let cols_a: Vec<usize> = pairs.iter().map(|&(a, _)| a).collect();
                let cols_b: Vec<usize> = pairs.iter().map(|&(_, b)| b).collect();
                // Map the group's conjuncts to join_preds indices.
                let preds: Vec<usize> = join_preds
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        p.expr().as_equi_join().is_some_and(|(x, y)| {
                            let ((xa, ca), (xb, cb)) = if x.table < y.table {
                                ((x.table, x.column), (y.table, y.column))
                            } else {
                                ((y.table, y.column), (x.table, x.column))
                            };
                            xa == ta && xb == tb && pairs.contains(&(ca, cb))
                        })
                    })
                    .map(|(pi, _)| pi)
                    .collect();
                // Fused keys are only ever read for rows that survived
                // the unary filters (indexes cover filtered positions;
                // source lookups hold filtered base ids), so hash only
                // those — on a selectively filtered link table this is
                // most of the prepare cost.
                let fuse_side = |t: TableId, cols: &[usize]| -> Vec<Option<i64>> {
                    let mut keys = vec![None; tables[t].num_rows()];
                    for &r in &filtered[t] {
                        keys[r as usize] =
                            fused_join_key(cols.iter().map(|&c| tables[t].column(c)), r as usize);
                    }
                    keys
                };
                let keys_a = fuse_side(ta, &cols_a);
                let keys_b = fuse_side(tb, &cols_b);
                // An unfiltered side's positions are its base rows, so its
                // key vector already is the one to index.
                let index_of = |t: TableId, keys: &[Option<i64>]| {
                    if keeps_all[t] {
                        return HashIndex::from_keys(keys);
                    }
                    let filtered_keys: Vec<Option<i64>> =
                        filtered[t].iter().map(|&r| keys[r as usize]).collect();
                    HashIndex::from_keys(&filtered_keys)
                };
                let idx_a = index_of(ta, &keys_a);
                let idx_b = index_of(tb, &keys_b);
                composites.push(CompositeKeyGroup {
                    tables: (ta, tb),
                    cols: (cols_a, cols_b),
                    preds,
                    keys: (keys_a, keys_b),
                    indexes: (idx_a, idx_b),
                });
            }
        }

        PreparedQuery {
            tables,
            filtered,
            cards,
            join_preds,
            indexes,
            composites,
            preprocess_time: start.elapsed(),
        }
    }

    /// Number of joined tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// True if some table filtered down to zero tuples (empty result).
    pub fn any_empty(&self) -> bool {
        self.cards.contains(&0)
    }

    /// Map a filtered position of table `t` to its base row id.
    #[inline]
    pub fn base_row(&self, t: TableId, pos: u32) -> RowId {
        self.filtered[t][pos as usize]
    }

    /// Approximate bytes held by the hash indexes (single-column and
    /// composite, including the fused key vectors).
    pub fn index_bytes(&self) -> usize {
        let single: usize = self.indexes.values().map(|i| i.approx_bytes()).sum();
        let composite: usize = self
            .composites
            .iter()
            .map(|g| {
                g.indexes.0.approx_bytes()
                    + g.indexes.1.approx_bytes()
                    + (g.keys.0.len() + g.keys.1.len()) * std::mem::size_of::<Option<i64>>()
            })
            .sum();
        single + composite
    }

    /// The per-position applicable predicates and jump index for one join
    /// order, as *indices* into the prepared query (see [`OrderSpec`]).
    /// The execution engines use the fully bound [`plan_order`] instead;
    /// this logical layer drives the generic reference kernel and plan
    /// introspection.
    ///
    /// [`plan_order`]: PreparedQuery::plan_order
    pub fn plan_spec(&self, order: &[TableId]) -> OrderSpec {
        let m = order.len();
        let mut joined = TableSet::EMPTY;
        let mut positions = Vec::with_capacity(m);
        for (i, &t) in order.iter().enumerate() {
            let mut with_t = joined;
            with_t.insert(t);
            let applicable: Vec<usize> = self
                .join_preds
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    let ts = p.tables();
                    ts.contains(t) && ts.is_subset_of(with_t)
                })
                .map(|(pi, _)| pi)
                .collect();
            let mut jump = None;
            if i > 0 {
                // Composite jumps first: a fused multi-column key
                // enumerates only rows matching *all* conjuncts of the
                // group — but only when the pair is genuinely more
                // selective than its best single component. When one
                // component alone partitions the table just as finely
                // (a near-unique id), the single-column jump wins: it
                // keeps exact keys, predicate elision, and the codegen
                // tier, which fused (hashed) keys forfeit.
                for (gi, g) in self.composites.iter().enumerate() {
                    let src_is_a = if g.tables.0 == t && joined.contains(g.tables.1) {
                        false // src = b side
                    } else if g.tables.1 == t && joined.contains(g.tables.0) {
                        true // src = a side
                    } else {
                        continue;
                    };
                    let sides = g.sides(src_is_a);
                    let best_single = sides
                        .index_cols
                        .iter()
                        .filter_map(|&c| self.indexes.get(&(t, c)).map(|i| i.distinct_keys()))
                        .max()
                        .unwrap_or(0);
                    if sides.index.distinct_keys() <= best_single {
                        continue; // a single component is as selective
                    }
                    // The group's conjuncts all connect exactly {a, b},
                    // so they become applicable precisely here.
                    let preds: Vec<usize> = g
                        .preds
                        .iter()
                        .filter_map(|pi| applicable.iter().position(|x| x == pi))
                        .collect();
                    if preds.len() == g.preds.len() && !preds.is_empty() {
                        jump = Some(JumpSpec::Composite {
                            group: gi,
                            src_is_a,
                            preds,
                        });
                        break;
                    }
                }
                // Otherwise the first applicable single-column equality
                // with an index drives the jump, as before.
                if jump.is_none() {
                    for (k, &pi) in applicable.iter().enumerate() {
                        if let Some((a, b)) = self.join_preds[pi].expr().as_equi_join() {
                            let (tc, oc) = if a.table == t { (a, b) } else { (b, a) };
                            if tc.table == t
                                && joined.contains(oc.table)
                                && self.indexes.contains_key(&(t, tc.column))
                                // Key-convention guard: an Int = Float
                                // equality is true under numeric widening
                                // while the key conventions differ — a
                                // key-driven jump would skip real matches.
                                && self.tables[t]
                                    .column(tc.column)
                                    .join_key_compatible(self.tables[oc.table].column(oc.column))
                            {
                                jump = Some(JumpSpec::Single {
                                    index_col: tc.column,
                                    src_table: oc.table,
                                    src_col: oc.column,
                                    pred: k,
                                });
                                break;
                            }
                        }
                    }
                }
            }
            positions.push(PositionPlan {
                table: t,
                applicable,
                jump,
            });
            joined = with_t;
        }
        OrderSpec { positions }
    }

    /// Compile one join order into a fully *bound* execution plan: every
    /// table/column/index indirection is resolved now, at plan time, so
    /// the multi-way join's inner loop touches only raw slices and direct
    /// index references. This is the plan-time specialization that stands
    /// in for the paper's per-query code generation (§6).
    pub fn plan_order(&self, order: &[TableId]) -> OrderPlan<'_> {
        let spec = self.plan_spec(order);
        let positions = spec
            .positions
            .iter()
            .map(|p| {
                let t = p.table;
                let preds = p
                    .applicable
                    .iter()
                    .map(|&pi| self.join_preds[pi].bind(&self.tables))
                    .collect();
                let jump = p.jump.as_ref().map(|j| match j {
                    JumpSpec::Single {
                        index_col,
                        src_table,
                        src_col,
                        pred,
                    } => {
                        let src = self.tables[*src_table].column(*src_col);
                        BoundJump {
                            index: &self.indexes[&(t, *index_col)],
                            src_table: *src_table,
                            key: KeyCol::bind(src),
                            pred: *pred,
                        }
                    }
                    JumpSpec::Composite {
                        group,
                        src_is_a,
                        preds,
                    } => {
                        // The index lives on this position's table; the
                        // key vector on the earlier (source) side.
                        let sides = self.composites[*group].sides(*src_is_a);
                        BoundJump {
                            index: sides.index,
                            src_table: sides.src_table,
                            key: KeyCol::Fused(sides.src_keys),
                            // Fused keys are hashes: no conjunct is ever
                            // implied, so this drives no elision (the
                            // compiled jump re-verifies the whole group).
                            pred: preds[0],
                        }
                    }
                });
                BoundPosition {
                    table: t,
                    card: self.cards[t],
                    base: &self.filtered[t],
                    preds,
                    jump,
                }
            })
            .collect();
        OrderPlan { positions }
    }
}

/// Join-key source for an index jump, specialized at plan time to the
/// key column's physical representation.
#[derive(Debug, Clone, Copy)]
pub enum KeyCol<'a> {
    /// Non-nullable i64-backed column (`Int`, `Date`, `Interval`): the
    /// key is the exact value itself.
    Int(&'a [i64]),
    /// Non-nullable float column: the key is the value's bit pattern.
    Float(&'a [f64]),
    /// Fused composite key vector precomputed per base row (see
    /// [`CompositeKeyGroup`]); `None` entries are NULL components. Keys
    /// are hashes, so the driving conjuncts are always re-verified.
    Fused(&'a [Option<i64>]),
    /// Strings and nullable columns: fall back to [`Column::join_key`].
    Other(&'a Column),
}

impl<'a> KeyCol<'a> {
    /// Choose the fastest representation for `col`.
    pub fn bind(col: &'a Column) -> KeyCol<'a> {
        if col.nullable() {
            return KeyCol::Other(col);
        }
        if let Some(i64s) = col.i64s() {
            KeyCol::Int(i64s)
        } else if let Some(floats) = col.floats() {
            KeyCol::Float(floats)
        } else {
            KeyCol::Other(col)
        }
    }

    /// The 64-bit join key of `row` (`None` for NULL).
    #[inline(always)]
    pub fn key(&self, row: RowId) -> Option<i64> {
        match self {
            KeyCol::Int(v) => Some(v[row as usize]),
            KeyCol::Float(v) => Some(skinner_storage::f64_key(v[row as usize])),
            KeyCol::Fused(v) => v[row as usize],
            KeyCol::Other(col) => col.join_key(row as usize),
        }
    }
}

/// Bound equality-predicate jump at one join-order position: a direct
/// reference to the hash index plus the specialized key-column source —
/// no `(table, column)` map probe per tuple advance.
#[derive(Debug, Clone, Copy)]
pub struct BoundJump<'a> {
    /// The position table's hash index on the jump column.
    pub index: &'a HashIndex,
    /// Earlier table providing the key tuple.
    pub src_table: TableId,
    /// Key-column accessor, specialized to the column's representation.
    pub key: KeyCol<'a>,
    /// Index (within this position's `preds`) of the equality conjunct
    /// that drives the jump — the predicate a compiled kernel may elide
    /// when the index provably implies it.
    pub pred: usize,
}

/// One fully bound position of an [`OrderPlan`]: the table's filtered
/// cardinality and base-row slice, the newly applicable predicates bound
/// to raw column slices, and the optional index jump.
#[derive(Debug, Clone)]
pub struct BoundPosition<'a> {
    /// The table joined at this position.
    pub table: TableId,
    /// Filtered cardinality of the table (cached from `cards`).
    pub card: u32,
    /// Filtered positions → base row ids (cached from `filtered`).
    pub base: &'a [RowId],
    /// Predicates newly applicable at this position, bound to slices.
    pub preds: Vec<BoundPred<'a>>,
    /// Hash-index jump, if an equi predicate connects to earlier tables.
    pub jump: Option<BoundJump<'a>>,
}

/// Fully bound per-order execution plan, borrowing the prepared query.
/// Produced once per (query, order) by [`PreparedQuery::plan_order`] and
/// cached across time slices.
#[derive(Debug, Clone)]
pub struct OrderPlan<'a> {
    /// One entry per join-order position.
    pub positions: Vec<BoundPosition<'a>>,
}

impl<'a> OrderPlan<'a> {
    /// The shape key of this plan (see `skinner-codegen`): table count,
    /// per-position key-column kind, predicate-shape fingerprint. Two
    /// plans with equal keys execute on the same compiled kernel
    /// instance, so the key is what the cross-query
    /// [`KernelCache`] memoizes.
    pub fn kernel_key(&self) -> KernelKey {
        KernelKey::new(self.positions.iter().map(|p| {
            let kind = match &p.jump {
                None => JumpKind::Scan,
                Some(j) => match j.key {
                    KeyCol::Int(_) => JumpKind::Int,
                    KeyCol::Float(_) => JumpKind::Float,
                    // Hash-derived keys: compiled, never elided.
                    KeyCol::Fused(_) => JumpKind::Fused,
                    KeyCol::Other(_) => JumpKind::Key,
                },
            };
            let elided = kind == JumpKind::Int
                && p.jump
                    .as_ref()
                    .is_some_and(|j| p.preds[j.pred].is_exact_int_eq());
            (kind, p.preds.as_slice(), elided)
        }))
    }

    /// Compile this plan into a specialized kernel (the codegen
    /// execution tier) covering every position of the order, or `None`
    /// when the shape has no compiled kernel — a single-table order, or
    /// a reserved [`JumpKind::Other`] position (no current binder
    /// produces one) — in which case the caller keeps executing the
    /// plan-bound kernel.
    ///
    /// Every multi-table jump shape compiles, at any order length:
    /// integer and float keys, fused composite keys, and string/nullable
    /// keys (hash-driven posting cursors with an explicit null-reject;
    /// never elided, so every driving conjunct is re-verified).
    ///
    /// `cache` (when given) memoizes the shape resolution across
    /// queries: a hit skips the support analysis. The returned kernel
    /// borrows the same prepared-query data as the plan itself.
    pub fn compile_kernel(&self, cache: Option<&KernelCache>) -> Option<CompiledKernel<'a>> {
        let key = self.kernel_key();
        let supported = match cache {
            Some(cache) => cache.resolve(&key, || key.supported()),
            None => key.supported(),
        };
        if !supported {
            return None;
        }
        let positions = self
            .positions
            .iter()
            .map(|p| {
                let (jump, elided) = match &p.jump {
                    None => (KernelJump::Scan, false),
                    Some(j) => match j.key {
                        KeyCol::Int(keys) => (
                            KernelJump::IntEq {
                                keys,
                                src: j.src_table,
                                index: j.index,
                            },
                            p.preds[j.pred].is_exact_int_eq(),
                        ),
                        KeyCol::Float(keys) => (
                            KernelJump::FloatEq {
                                keys,
                                src: j.src_table,
                                index: j.index,
                            },
                            false,
                        ),
                        // Hash-derived keys: compiled posting cursors
                        // with full residual re-verification (a fused
                        // or content-hash key narrows candidates, never
                        // proves the conjunct) and NULL-reject begin.
                        KeyCol::Fused(keys) => (
                            KernelJump::FusedEq {
                                keys,
                                src: j.src_table,
                                index: j.index,
                            },
                            false,
                        ),
                        KeyCol::Other(col) => (
                            KernelJump::KeyEq {
                                col,
                                src: j.src_table,
                                index: j.index,
                            },
                            false,
                        ),
                    },
                };
                let preds = match (&p.jump, elided) {
                    (Some(j), true) => p
                        .preds
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != j.pred)
                        .map(|(_, p)| *p)
                        .collect(),
                    _ => p.preds.clone(),
                };
                KernelPosition {
                    table: p.table,
                    card: p.card,
                    base: p.base,
                    preds,
                    jump,
                    elided,
                }
            })
            .collect();
        CompiledKernel::new(key, positions)
    }
}

/// Equality-predicate jump at one join-order position (§4.5: "jump
/// directly to the next highest tuple index that satisfies at least all
/// applicable equality predicates"), as logical indices.
#[derive(Debug, Clone)]
pub enum JumpSpec {
    /// One equality conjunct drives the jump through a single-column
    /// hash index.
    Single {
        /// Indexed column of the position's table.
        index_col: usize,
        /// Earlier table providing the key.
        src_table: TableId,
        /// Key column in the earlier table.
        src_col: usize,
        /// Index of the driving equality conjunct within this position's
        /// applicable-predicate list.
        pred: usize,
    },
    /// A composite key group drives the jump: the fused multi-column key
    /// of the earlier table probes the composite index of this
    /// position's table, satisfying *all* of the group's conjuncts at
    /// once (modulo hash collisions, which the re-verified predicates
    /// reject).
    Composite {
        /// Index into [`PreparedQuery::composites`].
        group: usize,
        /// True when the earlier (key-providing) table is the group's
        /// `a` side, i.e. this position's table is side `b`.
        src_is_a: bool,
        /// Indices of the group's conjuncts within this position's
        /// applicable-predicate list.
        preds: Vec<usize>,
    },
}

impl JumpSpec {
    /// The earlier table providing the jump key, given the prepared
    /// query the spec was planned against.
    pub fn src_table(&self, pq: &PreparedQuery) -> TableId {
        match self {
            JumpSpec::Single { src_table, .. } => *src_table,
            JumpSpec::Composite {
                group, src_is_a, ..
            } => pq.composites[*group].sides(*src_is_a).src_table,
        }
    }
}

/// Per-position logical plan for one join order (indices into the
/// prepared query, not yet bound to storage).
#[derive(Debug, Clone)]
pub struct PositionPlan {
    /// The table joined at this position.
    pub table: TableId,
    /// Indices into `join_preds` newly applicable at this position.
    pub applicable: Vec<usize>,
    /// Hash-index jump, if an equi predicate connects to earlier tables.
    pub jump: Option<JumpSpec>,
}

/// Logical per-order plan: what [`PreparedQuery::plan_order`] binds into
/// an [`OrderPlan`]. Used directly by the generic reference kernel.
#[derive(Debug, Clone)]
pub struct OrderSpec {
    /// One entry per join-order position.
    pub positions: Vec<PositionPlan>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{Expr, QueryBuilder, Udf};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, Value, ValueType};

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
                Schema::new([ColumnDef::new("a_id", ValueType::Int)]),
                vec![Column::from_ints(vec![1, 3, 3, 7])],
            )
            .unwrap(),
        );
        cat
    }

    fn query(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.id").unwrap().eq(qb.col("b.a_id").unwrap());
        let f = qb.col("a.v").unwrap().ge(Expr::lit(20));
        qb.filter(j);
        qb.filter(f);
        qb.select_col("a.v").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn filtering_and_cards() {
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        assert_eq!(p.cards, vec![3, 4]); // a.v>=20 keeps rows 1,2,3
        assert_eq!(p.filtered[0], vec![1, 2, 3]);
        assert!(!p.any_empty());
        assert_eq!(p.base_row(0, 0), 1);
    }

    #[test]
    fn parallel_filter_matches_serial() {
        let cat = catalog();
        let q = query(&cat);
        let serial = PreparedQuery::new(&q, true, 1);
        let parallel = PreparedQuery::new(&q, true, 4);
        assert_eq!(serial.filtered, parallel.filtered);
    }

    #[test]
    fn filter_workers_respect_thread_grant() {
        let mut cat = Catalog::new();
        for name in ["t0", "t1", "t2", "t3"] {
            cat.register(
                Table::new(
                    name,
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints((0..64).collect())],
                )
                .unwrap(),
            );
        }
        let seen = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let record = Arc::clone(&seen);
        let udf = Udf::new("note_thread", move |args| {
            record.lock().unwrap().insert(std::thread::current().id());
            Value::from(args[0].as_int().is_some_and(|k| k % 2 == 0))
        });
        let mut qb = QueryBuilder::new(&cat);
        for name in ["t0", "t1", "t2", "t3"] {
            qb.table(name).unwrap();
            let k = qb.col(&format!("{name}.k")).unwrap();
            qb.filter(Expr::Udf {
                udf: Arc::clone(&udf),
                args: vec![k],
            });
        }
        for (a, b) in [("t0", "t1"), ("t1", "t2"), ("t2", "t3")] {
            let j = qb
                .col(&format!("{a}.k"))
                .unwrap()
                .eq(qb.col(&format!("{b}.k")).unwrap());
            qb.filter(j);
        }
        qb.select_col("t0.k").unwrap();
        let q = qb.build().unwrap();

        let serial = PreparedQuery::new(&q, true, 1);
        seen.lock().unwrap().clear();
        let parallel = PreparedQuery::new(&q, true, 2);
        let workers = seen.lock().unwrap().len();
        assert!(
            (1..=2).contains(&workers),
            "4 filtered tables on a 2-thread grant ran on {workers} threads"
        );
        assert_eq!(serial.filtered, parallel.filtered);
        assert_eq!(parallel.cards, vec![32; 4]);
        assert_eq!(udf.call_count(), 2 * 4 * 64);
    }

    #[test]
    fn udf_filter_runs_only_on_rows_passing_earlier_conjuncts() {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints((0..64).collect())],
            )
            .unwrap(),
        );
        let udf = Udf::new("even", |args| {
            Value::from(args[0].as_int().is_some_and(|k| k % 2 == 0))
        });
        let mut qb = QueryBuilder::new(&cat);
        qb.table("t").unwrap();
        let k = qb.col("t.k").unwrap();
        // [fast, UDF, fast], in this conjunct order.
        qb.filter(k.clone().lt(Expr::lit(40)));
        qb.filter(Expr::Udf {
            udf: Arc::clone(&udf),
            args: vec![k.clone()],
        });
        qb.filter(k.ge(Expr::lit(10)));
        qb.select_col("t.k").unwrap();
        let q = qb.build().unwrap();
        for threads in [1, 2] {
            let before = udf.call_count();
            let p = PreparedQuery::new(&q, true, threads);
            assert_eq!(p.filtered[0], (10..40).step_by(2).collect::<Vec<RowId>>());
            // Row at a time, the UDF sees exactly the 40 rows with k < 40.
            assert_eq!(udf.call_count() - before, 40);
        }
    }

    #[test]
    fn unfiltered_tables_share_their_join_index() {
        let cat = catalog();
        let q = query(&cat);
        let p1 = PreparedQuery::new(&q, true, 1);
        let p2 = PreparedQuery::new(&q, true, 1);
        // b has no unary conjunct: both queries hold b's own index.
        let b = &p1.tables[1];
        assert!(Arc::ptr_eq(&p1.indexes[&(1, 0)], &p2.indexes[&(1, 0)]));
        assert!(Arc::ptr_eq(&p1.indexes[&(1, 0)], b.join_index(0)));
        // a is filtered (a.v >= 20): each query builds its own.
        let a = &p1.tables[0];
        assert!(!Arc::ptr_eq(&p1.indexes[&(0, 0)], &p2.indexes[&(0, 0)]));
        assert!(!Arc::ptr_eq(&p1.indexes[&(0, 0)], a.join_index(0)));

        // Planning is unchanged against indexes rebuilt per query.
        let mut rebuilt = PreparedQuery::new(&q, true, 1);
        for (&(t, c), index) in rebuilt.indexes.iter_mut() {
            let positions = Some(rebuilt.filtered[t].as_slice());
            *index = Arc::new(HashIndex::build(rebuilt.tables[t].column(c), positions));
        }
        for order in [[0usize, 1], [1usize, 0]] {
            assert_eq!(
                format!("{:?}", p1.plan_spec(&order)),
                format!("{:?}", rebuilt.plan_spec(&order))
            );
        }
        for key in [1, 3, 7, 9] {
            assert_eq!(
                p1.indexes[&(1, 0)].probe(key),
                rebuilt.indexes[&(1, 0)].probe(key)
            );
        }
    }

    #[test]
    fn indexes_on_equi_columns() {
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        assert!(p.indexes.contains_key(&(0, 0)));
        assert!(p.indexes.contains_key(&(1, 0)));
        assert_eq!(p.indexes.len(), 2);
        assert!(p.index_bytes() > 0);
        // postings are filtered positions: a.id=3 is base row 2, which is
        // filtered position 1 (filter keeps base rows [1,2,3])
        let idx = &p.indexes[&(0, 0)];
        assert_eq!(idx.probe(3), &[1]);
        // disabled indexes
        let p2 = PreparedQuery::new(&q, false, 1);
        assert!(p2.indexes.is_empty());
    }

    #[test]
    fn order_plan_applicable_and_jump() {
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        let spec = p.plan_spec(&[0, 1]);
        assert!(spec.positions[0].applicable.is_empty());
        assert_eq!(spec.positions[1].applicable, vec![0]);
        let jump = spec.positions[1].jump.clone().expect("jump expected");
        let JumpSpec::Single {
            index_col,
            src_table,
            src_col,
            ..
        } = jump
        else {
            panic!("expected single-column jump");
        };
        assert_eq!(index_col, 0);
        assert_eq!(src_table, 0);
        assert_eq!(src_col, 0);
        // reversed order jumps through a's index
        let spec = p.plan_spec(&[1, 0]);
        let jump = spec.positions[1].jump.as_ref().expect("jump expected");
        assert_eq!(jump.src_table(&p), 1);
    }

    #[test]
    fn bound_plan_captures_slices_and_index() {
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        let plan = p.plan_order(&[0, 1]);
        assert_eq!(plan.positions.len(), 2);
        assert_eq!(plan.positions[0].table, 0);
        assert_eq!(plan.positions[0].card, 3);
        assert_eq!(plan.positions[0].base, &[1, 2, 3]);
        assert!(plan.positions[0].preds.is_empty());
        assert!(plan.positions[0].jump.is_none());
        let pos1 = &plan.positions[1];
        assert_eq!(pos1.table, 1);
        assert_eq!(pos1.card, 4);
        assert_eq!(pos1.preds.len(), 1);
        let jump = pos1.jump.as_ref().expect("bound jump");
        assert_eq!(jump.src_table, 0);
        // key source is a's id column — non-nullable INT slice
        assert_eq!(jump.key.key(0), Some(1));
        assert_eq!(jump.key.key(3), Some(4));
        // the bound index is b's index: base row of b with a_id=3 is row 1
        assert_eq!(jump.index.probe(3), &[1, 2]);
        // no indexes ⇒ no jumps in the bound plan either
        let p2 = PreparedQuery::new(&q, false, 1);
        let plan2 = p2.plan_order(&[0, 1]);
        assert!(plan2.positions[1].jump.is_none());
    }

    fn composite_catalog() -> Catalog {
        let mut cat = Catalog::new();
        // l1 and l2 share a two-column key (x, y); single components
        // collide heavily (x repeats, y repeats) but pairs are selective.
        cat.register(
            Table::new(
                "l1",
                Schema::new([
                    ColumnDef::new("x", ValueType::Int),
                    ColumnDef::new("y", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 1, 2, 2]),
                    Column::from_ints(vec![10, 20, 10, 20]),
                    Column::from_ints(vec![0, 1, 2, 3]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "l2",
                Schema::new([
                    ColumnDef::new("x", ValueType::Int),
                    ColumnDef::new("y", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 1, 1]),
                    Column::from_ints(vec![10, 20, 20, 10]),
                ],
            )
            .unwrap(),
        );
        cat
    }

    fn composite_query(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("l1").unwrap();
        qb.table("l2").unwrap();
        let j1 = qb.col("l1.x").unwrap().eq(qb.col("l2.x").unwrap());
        let j2 = qb.col("l1.y").unwrap().eq(qb.col("l2.y").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("l1.v").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn composite_group_prepared_and_planned() {
        let cat = composite_catalog();
        let q = composite_query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        assert_eq!(p.composites.len(), 1);
        let g = &p.composites[0];
        assert_eq!(g.tables, (0, 1));
        assert_eq!(g.cols, (vec![0, 1], vec![0, 1]));
        assert_eq!(g.preds.len(), 2);
        // l1 row 0 = (1, 10) matches l2 filtered positions 0 and 3.
        let key = g.keys.0[0].expect("non-null fused key");
        assert_eq!(g.indexes.1.probe(key), &[0, 3]);
        // l1's (2, 10) pair (row 2) matches nothing in l2, though each
        // component occurs there — the fused key must separate them.
        let key = g.keys.0[2].expect("non-null fused key");
        assert_eq!(g.indexes.1.probe(key), &[] as &[u32]);

        // Both directions plan a composite jump at position 1.
        for order in [[0usize, 1], [1usize, 0]] {
            let spec = p.plan_spec(&order);
            match spec.positions[1].jump.as_ref().expect("jump") {
                JumpSpec::Composite { group, preds, .. } => {
                    assert_eq!(*group, 0);
                    assert_eq!(preds.len(), 2);
                }
                other => panic!("expected composite jump, got {other:?}"),
            }
            // The bound plan carries the fused key source and composite
            // index — and the shape compiles: fused keys drive a
            // posting-cursor jump (re-verified, never elided).
            let plan = p.plan_order(&order);
            let bound = plan.positions[1].jump.as_ref().expect("bound jump");
            assert!(matches!(bound.key, KeyCol::Fused(_)));
            assert!(plan.kernel_key().supported());
            let kernel = plan.compile_kernel(None).expect("fused shape compiles");
            assert_eq!(kernel.positions()[1].jump.kind(), JumpKind::Fused);
            assert_eq!(kernel.num_tables(), 2);
        }

        // Without indexes there is no composite machinery at all.
        let p2 = PreparedQuery::new(&q, false, 1);
        assert!(p2.composites.is_empty());
        assert!(p2.plan_spec(&[0, 1]).positions[1].jump.is_none());
        // index_bytes accounts for the composite structures.
        assert!(p.index_bytes() > p2.index_bytes());
    }

    #[test]
    fn unique_single_component_outranks_composite() {
        // (id, grp) group where id alone is unique: the composite fused
        // key partitions no finer than id, so the planner must keep the
        // single-column Int jump — exact keys, elision, codegen tier.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "u1",
                Schema::new([
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("grp", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 3, 4]),
                    Column::from_ints(vec![0, 0, 1, 1]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "u2",
                Schema::new([
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("grp", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![3, 1, 2]),
                    Column::from_ints(vec![1, 0, 0]),
                ],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("u1").unwrap();
        qb.table("u2").unwrap();
        let j1 = qb.col("u1.id").unwrap().eq(qb.col("u2.id").unwrap());
        let j2 = qb.col("u1.grp").unwrap().eq(qb.col("u2.grp").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("u1.id").unwrap();
        let q = qb.build().unwrap();
        let p = PreparedQuery::new(&q, true, 1);
        assert_eq!(p.composites.len(), 1, "the group itself still exists");
        let plan = p.plan_order(&[0, 1]);
        let jump = plan.positions[1].jump.as_ref().expect("jump");
        assert!(
            matches!(jump.key, KeyCol::Int(_)),
            "unique component must keep the exact single-column jump"
        );
        assert!(
            plan.kernel_key().supported(),
            "single jump keeps the codegen tier"
        );
    }

    #[test]
    fn cross_type_int_float_join_gets_no_jump() {
        // `2 = 2.0` is true under numeric widening, but Int and Float
        // key conventions differ (value vs bit pattern) — a key-driven
        // jump would skip the match. The planner must refuse the jump
        // (and any composite group containing such a pair) and fall
        // back to scan + predicate.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "ia",
                Schema::new([
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("k2", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 3]),
                    Column::from_ints(vec![7, 8, 9]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "fb",
                Schema::new([
                    ColumnDef::new("k", ValueType::Float),
                    ColumnDef::new("k2", ValueType::Int),
                ]),
                vec![
                    Column::from_floats(vec![2.0, 3.0, 9.5]),
                    Column::from_ints(vec![8, 9, 7]),
                ],
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
        let p = PreparedQuery::new(&q, true, 1);
        for order in [[0usize, 1], [1usize, 0]] {
            assert!(
                p.plan_spec(&order).positions[1].jump.is_none(),
                "cross-convention pair must not drive a jump"
            );
        }
        // A mixed composite group keeps only its sound pairs: here the
        // Int=Float pair drops out, leaving one pair — no group.
        let mut qb = QueryBuilder::new(&cat);
        qb.table("ia").unwrap();
        qb.table("fb").unwrap();
        let j1 = qb.col("ia.k").unwrap().eq(qb.col("fb.k").unwrap());
        let j2 = qb.col("ia.k2").unwrap().eq(qb.col("fb.k2").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("ia.k").unwrap();
        let q2 = qb.build().unwrap();
        assert_eq!(q2.composite_key_groups().len(), 1, "structurally a group");
        let p2 = PreparedQuery::new(&q2, true, 1);
        assert!(p2.composites.is_empty(), "unsound pair must not fuse");
        // The surviving Int=Int conjunct still drives a single jump.
        assert!(matches!(
            p2.plan_spec(&[0, 1]).positions[1].jump,
            Some(JumpSpec::Single { .. })
        ));
    }

    #[test]
    fn single_column_joins_unaffected_by_composite_detection() {
        // A query with one equality conjunct per pair must keep its
        // single-column jump exactly as before.
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        assert!(p.composites.is_empty());
        let spec = p.plan_spec(&[0, 1]);
        assert!(matches!(
            spec.positions[1].jump,
            Some(JumpSpec::Single { .. })
        ));
    }

    #[test]
    fn empty_filter_flags_empty() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.id").unwrap().eq(qb.col("b.a_id").unwrap());
        let f = qb.col("a.v").unwrap().gt(Expr::lit(999));
        qb.filter(j);
        qb.filter(f);
        qb.select_col("a.v").unwrap();
        let q = qb.build().unwrap();
        let p = PreparedQuery::new(&q, true, 1);
        assert!(p.any_empty());
    }
}
