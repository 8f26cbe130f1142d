//! Predicate compilation: typed fast paths over tuple-index rows.
//!
//! Execution engines identify a candidate result tuple by one base-table
//! row id per joined table (`rows: &[u32]`, indexed by [`TableId`]). A
//! [`CompiledPred`] evaluates one WHERE conjunct against such a tuple.
//! Common shapes (integer column vs. constant, integer column vs. integer
//! column, dictionary-code string equality, IN lists) compile to direct
//! typed column accesses, and a UDF called on bare columns binds its
//! argument columns once ([`BoundPred::Udf`]); everything else falls back
//! to the generic [`Expr::eval`] interpreter.
//!
//! The *vectorized* column engine and Skinner-C use compiled predicates;
//! the simulated row engine deliberately uses only the generic interpreter,
//! reproducing the per-tuple overhead gap between MonetDB and Postgres
//! that the paper's experiments exhibit.

use crate::expr::{BinOp, ColRef, Expr, RowContext};
use crate::query::Query;
use crate::udf::Udf;
use crate::TableId;
use skinner_storage::table::TableRef;
use skinner_storage::{Column, FxHashSet, RowId, Value};
use std::cmp::Ordering;

/// Row context reading values straight out of base tables at the row ids
/// in `rows` (one per query table; slots for not-yet-joined tables are
/// unused).
pub struct TupleContext<'a> {
    /// Base-table row id per query table.
    pub rows: &'a [u32],
    /// The query's tables.
    pub tables: &'a [TableRef],
}

impl RowContext for TupleContext<'_> {
    fn value(&self, col: ColRef) -> Value {
        self.tables[col.table]
            .column(col.column)
            .get(self.rows[col.table] as usize)
    }
}

#[derive(Debug, Clone)]
enum Fast {
    /// `int_col <op> k`
    IntCmpConst {
        t: TableId,
        c: usize,
        op: BinOp,
        k: i64,
    },
    /// `float_col <op> k`
    FloatCmpConst {
        t: TableId,
        c: usize,
        op: BinOp,
        k: f64,
    },
    /// `str_col = 'lit'` as a dictionary-code comparison; `None` code
    /// means the literal does not occur in the dictionary (always false).
    StrEqCode {
        t: TableId,
        c: usize,
        code: Option<u32>,
        negated: bool,
    },
    /// `int_col <op> int_col` across tables.
    IntCmpInt {
        t1: TableId,
        c1: usize,
        op: BinOp,
        t2: TableId,
        c2: usize,
    },
    /// `int_col IN (k1, k2, ...)`.
    IntInList {
        t: TableId,
        c: usize,
        set: FxHashSet<i64>,
    },
    /// Anything else: interpret the expression tree.
    Generic,
}

/// One WHERE conjunct compiled against a fixed table list.
#[derive(Debug, Clone)]
pub struct CompiledPred {
    fast: Fast,
    expr: Expr,
    tables: crate::expr::TableSet,
}

/// Fold literal-only *arithmetic* subtrees into their values: a binary
/// `+ - * / %` (or unary negation) whose operands folded to literals is
/// evaluated now, once, instead of per tuple. Arithmetic evaluation is
/// context-free and deterministic (division by zero folds to NULL, same
/// as at runtime), so semantics are unchanged. Comparisons and logic are
/// left alone — their three-valued edge cases stay in one place, the
/// interpreter.
fn fold_consts(e: Expr) -> Expr {
    match e {
        Expr::Binary { op, left, right } => {
            let left = Box::new(fold_consts(*left));
            let right = Box::new(fold_consts(*right));
            let arithmetic = matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
            );
            if arithmetic {
                if let (Expr::Literal(_), Expr::Literal(_)) = (left.as_ref(), right.as_ref()) {
                    let folded = Expr::Binary { op, left, right };
                    let v = folded.eval(&|_: crate::ColRef| Value::Null);
                    return Expr::Literal(v);
                }
            }
            Expr::Binary { op, left, right }
        }
        Expr::Unary { op, expr } => {
            let expr = Box::new(fold_consts(*expr));
            if op == crate::expr::UnOp::Neg {
                if let Expr::Literal(_) = expr.as_ref() {
                    let folded = Expr::Unary { op, expr };
                    let v = folded.eval(&|_: crate::ColRef| Value::Null);
                    return Expr::Literal(v);
                }
            }
            Expr::Unary { op, expr }
        }
        Expr::InList { expr, list } => Expr::InList {
            expr: Box::new(fold_consts(*expr)),
            list,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(fold_consts(*expr)),
            pattern,
            negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(fold_consts(*expr)),
            negated,
        },
        Expr::Udf { udf, args } => Expr::Udf {
            udf,
            args: args.into_iter().map(fold_consts).collect(),
        },
        other => other,
    }
}

fn cmp_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => false,
    }
}

impl CompiledPred {
    /// Compile `expr` for evaluation against `tables`. Literal-only
    /// arithmetic subtrees are folded first (`DATE '…' + INTERVAL '…'`
    /// becomes one date constant), so date-arithmetic comparisons reach
    /// the same typed fast paths as plain constants.
    pub fn compile(expr: &Expr, tables: &[TableRef]) -> CompiledPred {
        let folded = fold_consts(expr.clone());
        let fast = Self::try_fast(&folded, tables).unwrap_or(Fast::Generic);
        CompiledPred {
            fast,
            expr: folded,
            tables: expr.tables(),
        }
    }

    fn try_fast(expr: &Expr, tables: &[TableRef]) -> Option<Fast> {
        use skinner_storage::ValueType;
        match expr {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                match (left.as_ref(), right.as_ref()) {
                    (Expr::Col(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Col(c)) => {
                        // Normalize literal-on-left to column-on-left.
                        let op = if matches!(left.as_ref(), Expr::Literal(_)) {
                            flip(*op)
                        } else {
                            *op
                        };
                        let col = tables[c.table].column(c.column);
                        if col.nullable() {
                            return None; // generic path handles 3VL
                        }
                        match (col.value_type(), v) {
                            // Date/Interval constants reuse the i64 fast
                            // path: days are exact 64-bit payloads, and
                            // the type lattice was already enforced by
                            // this (column type, literal type) match.
                            (ValueType::Int, Value::Int(k))
                            | (ValueType::Date, Value::Date(k))
                            | (ValueType::Interval, Value::Interval(k)) => {
                                Some(Fast::IntCmpConst {
                                    t: c.table,
                                    c: c.column,
                                    op,
                                    k: *k,
                                })
                            }
                            (ValueType::Float, Value::Float(k)) => Some(Fast::FloatCmpConst {
                                t: c.table,
                                c: c.column,
                                op,
                                k: *k,
                            }),
                            (ValueType::Float, Value::Int(k)) => Some(Fast::FloatCmpConst {
                                t: c.table,
                                c: c.column,
                                op,
                                k: *k as f64,
                            }),
                            (ValueType::Str, Value::Str(s))
                                if op == BinOp::Eq || op == BinOp::Ne =>
                            {
                                Some(Fast::StrEqCode {
                                    t: c.table,
                                    c: c.column,
                                    code: col.dict().and_then(|d| d.code_of(s)),
                                    negated: op == BinOp::Ne,
                                })
                            }
                            _ => None,
                        }
                    }
                    (Expr::Col(a), Expr::Col(b)) => {
                        let ca = tables[a.table].column(a.column);
                        let cb = tables[b.table].column(b.column);
                        if ca.nullable() || cb.nullable() {
                            return None;
                        }
                        // Same-type i64-backed pairs (Int=Int, Date=Date,
                        // Interval=Interval) compare exactly on the raw
                        // payload; mixed pairs stay generic (the lattice
                        // makes them NULL, which the interpreter handles).
                        let same_i64 = ca.value_type() == cb.value_type()
                            && matches!(
                                ca.value_type(),
                                ValueType::Int | ValueType::Date | ValueType::Interval
                            );
                        if same_i64 {
                            Some(Fast::IntCmpInt {
                                t1: a.table,
                                c1: a.column,
                                op: *op,
                                t2: b.table,
                                c2: b.column,
                            })
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            Expr::InList { expr, list } => {
                if let Expr::Col(c) = expr.as_ref() {
                    let col = tables[c.table].column(c.column);
                    if col.nullable() || col.value_type() != ValueType::Int {
                        return None;
                    }
                    let mut set = FxHashSet::default();
                    for v in list {
                        set.insert(v.as_int()?);
                    }
                    Some(Fast::IntInList {
                        t: c.table,
                        c: c.column,
                        set,
                    })
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Tables referenced by the conjunct.
    pub fn tables(&self) -> crate::expr::TableSet {
        self.tables
    }

    /// The original expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Evaluate against the tuple `rows` (SQL WHERE semantics: NULL is
    /// false).
    #[inline]
    pub fn eval(&self, rows: &[u32], tables: &[TableRef]) -> bool {
        match &self.fast {
            Fast::IntCmpConst { t, c, op, k } => {
                let v = tables[*t].column(*c).int(rows[*t] as usize);
                cmp_matches(*op, v.cmp(k))
            }
            Fast::FloatCmpConst { t, c, op, k } => {
                let v = tables[*t].column(*c).float(rows[*t] as usize);
                v.partial_cmp(k).is_some_and(|o| cmp_matches(*op, o))
            }
            Fast::StrEqCode {
                t,
                c,
                code,
                negated,
            } => {
                let v = tables[*t].column(*c).str_code(rows[*t] as usize);
                let eq = *code == Some(v);
                eq != *negated
            }
            Fast::IntCmpInt { t1, c1, op, t2, c2 } => {
                let a = tables[*t1].column(*c1).int(rows[*t1] as usize);
                let b = tables[*t2].column(*c2).int(rows[*t2] as usize);
                cmp_matches(*op, a.cmp(&b))
            }
            Fast::IntInList { t, c, set } => {
                set.contains(&tables[*t].column(*c).int(rows[*t] as usize))
            }
            Fast::Generic => {
                let ctx = TupleContext { rows, tables };
                self.expr.eval_predicate(&ctx)
            }
        }
    }

    /// Bind this conjunct to `tables` for repeated evaluation: resolve
    /// table/column indirections *once*, capturing raw typed column
    /// slices, so the per-tuple hot path touches only `rows` and flat
    /// memory. A UDF call on one or two bare columns binds those columns
    /// and calls the UDF directly; the generic fallback (LIKE, NULLs,
    /// nested expressions, …) keeps interpreter semantics unchanged.
    pub fn bind<'a>(&'a self, tables: &'a [TableRef]) -> BoundPred<'a> {
        match &self.fast {
            Fast::IntCmpConst { t, c, op, k } => BoundPred::IntCmpConst {
                col: tables[*t].column(*c).i64s().expect("i64 fast path"),
                t: *t,
                mask: op_mask(*op),
                k: *k,
            },
            Fast::FloatCmpConst { t, c, op, k } => BoundPred::FloatCmpConst {
                col: tables[*t].column(*c).floats().expect("FLOAT fast path"),
                t: *t,
                mask: op_mask(*op),
                k: *k,
            },
            Fast::StrEqCode {
                t,
                c,
                code,
                negated,
            } => BoundPred::StrEqCode {
                codes: tables[*t].column(*c).str_codes().expect("TEXT fast path"),
                t: *t,
                code: *code,
                negated: *negated,
            },
            Fast::IntCmpInt { t1, c1, op, t2, c2 } => BoundPred::IntCmpInt {
                a: tables[*t1].column(*c1).i64s().expect("i64 fast path"),
                ta: *t1,
                b: tables[*t2].column(*c2).i64s().expect("i64 fast path"),
                tb: *t2,
                mask: op_mask(*op),
            },
            Fast::IntInList { t, c, set } => BoundPred::IntInList {
                col: tables[*t].column(*c).i64s().expect("i64 fast path"),
                t: *t,
                set,
            },
            Fast::Generic => self
                .bind_udf(tables)
                .unwrap_or(BoundPred::Generic { pred: self, tables }),
        }
    }

    /// `udf(col)` or `udf(col, col)` as [`BoundPred::Udf`]; `None` for
    /// any other expression, including a UDF with another arity or an
    /// argument that is not a bare column.
    fn bind_udf<'a>(&'a self, tables: &'a [TableRef]) -> Option<BoundPred<'a>> {
        let Expr::Udf { udf, args } = &self.expr else {
            return None;
        };
        let col = |e: &Expr| match e {
            Expr::Col(c) => {
                let col = tables[c.table].column(c.column);
                let arg = match col.ints() {
                    Some(v) if !col.nullable() => UdfArg::Int(v),
                    _ => UdfArg::Col(col),
                };
                Some((arg, c.table))
            }
            _ => None,
        };
        let (a, b) = match args.as_slice() {
            [a] => (col(a)?, None),
            [a, b] => (col(a)?, Some(col(b)?)),
            _ => return None,
        };
        Some(BoundPred::Udf { udf, a, b })
    }
}

/// Comparison-outcome bitmask: plan-time specialization of a [`BinOp`]
/// into the set of accepted [`Ordering`]s, so the per-tuple test is a
/// single AND instead of an operator dispatch.
const ORD_LT: u8 = 1;
const ORD_EQ: u8 = 2;
const ORD_GT: u8 = 4;

fn op_mask(op: BinOp) -> u8 {
    match op {
        BinOp::Eq => ORD_EQ,
        BinOp::Ne => ORD_LT | ORD_GT,
        BinOp::Lt => ORD_LT,
        BinOp::Le => ORD_LT | ORD_EQ,
        BinOp::Gt => ORD_GT,
        BinOp::Ge => ORD_GT | ORD_EQ,
        _ => 0,
    }
}

#[inline(always)]
fn ord_bit(ord: Ordering) -> u8 {
    match ord {
        Ordering::Less => ORD_LT,
        Ordering::Equal => ORD_EQ,
        Ordering::Greater => ORD_GT,
    }
}

/// An argument column of a [`BoundPred::Udf`].
#[derive(Debug, Clone, Copy)]
pub enum UdfArg<'a> {
    /// A non-nullable `INT` column's raw values.
    Int(&'a [i64]),
    /// Any other column, read with [`Column::get`].
    Col(&'a Column),
}

impl UdfArg<'_> {
    #[inline(always)]
    fn get(self, row: u32) -> Value {
        match self {
            UdfArg::Int(v) => Value::Int(v[row as usize]),
            UdfArg::Col(c) => c.get(row as usize),
        }
    }
}

/// A [`CompiledPred`] bound to a fixed table list: every table/column
/// indirection resolved at plan time into raw typed slices. This is what
/// the order-specialized multi-way join kernel evaluates per tuple —
/// the closest safe-Rust analogue of the paper's per-query code
/// generation (§6 of Trummer et al., SIGMOD 2019).
#[derive(Debug, Clone, Copy)]
pub enum BoundPred<'a> {
    /// `int_col <op> k` over a raw `i64` slice.
    IntCmpConst {
        /// Column data.
        col: &'a [i64],
        /// Owning table (selects the row id from `rows`).
        t: TableId,
        /// Accepted-ordering bitmask (see `op_mask`).
        mask: u8,
        /// Constant operand.
        k: i64,
    },
    /// `float_col <op> k` over a raw `f64` slice.
    FloatCmpConst {
        /// Column data.
        col: &'a [f64],
        /// Owning table.
        t: TableId,
        /// Accepted-ordering bitmask.
        mask: u8,
        /// Constant operand.
        k: f64,
    },
    /// `str_col = 'lit'` as a dictionary-code comparison over the raw
    /// code slice; `None` code means the literal is not in the dictionary.
    StrEqCode {
        /// Dictionary codes.
        codes: &'a [u32],
        /// Owning table.
        t: TableId,
        /// Code of the literal, if interned.
        code: Option<u32>,
        /// True for `!=`.
        negated: bool,
    },
    /// `int_col <op> int_col` across tables, both as raw slices.
    IntCmpInt {
        /// Left column data.
        a: &'a [i64],
        /// Left table.
        ta: TableId,
        /// Right column data.
        b: &'a [i64],
        /// Right table.
        tb: TableId,
        /// Accepted-ordering bitmask.
        mask: u8,
    },
    /// `int_col IN (...)` over a raw slice and the compiled constant set.
    IntInList {
        /// Column data.
        col: &'a [i64],
        /// Owning table.
        t: TableId,
        /// The IN-list constants.
        set: &'a FxHashSet<i64>,
    },
    /// `udf(col)` or `udf(col, col)`: the argument columns resolved
    /// once; each evaluation reads their values and calls the UDF once,
    /// exactly as the interpreter would.
    Udf {
        /// The UDF.
        udf: &'a Udf,
        /// First argument column and its table.
        a: (UdfArg<'a>, TableId),
        /// Second argument column and its table, for a binary UDF.
        b: Option<(UdfArg<'a>, TableId)>,
    },
    /// Anything else (LIKE, nullable columns, nested expressions, …):
    /// the generic interpreter, unchanged semantics.
    Generic {
        /// The compiled conjunct.
        pred: &'a CompiledPred,
        /// The query's tables.
        tables: &'a [TableRef],
    },
}

impl BoundPred<'_> {
    /// Structural variant tag, used by the kernel compiler's shape
    /// fingerprints (`skinner-codegen`'s `KernelKey`): two predicates
    /// with equal tags compile to the same inner-loop code.
    pub fn shape_tag(&self) -> u8 {
        match self {
            BoundPred::IntCmpConst { mask, .. } => 0x10 | mask,
            BoundPred::FloatCmpConst { mask, .. } => 0x20 | mask,
            BoundPred::StrEqCode { negated, .. } => 0x30 | u8::from(*negated),
            BoundPred::IntCmpInt { mask, .. } => 0x40 | mask,
            BoundPred::IntInList { .. } => 0x50,
            BoundPred::Generic { .. } => 0x60,
            BoundPred::Udf { .. } => 0x70,
        }
    }

    /// True for an exact integer equality between two non-nullable `i64`
    /// columns — the only predicate shape a hash-index jump fully
    /// implies (integer join keys are the values themselves), and
    /// therefore the only one the kernel compiler may elide.
    pub fn is_exact_int_eq(&self) -> bool {
        matches!(self, BoundPred::IntCmpInt { mask, .. } if *mask == ORD_EQ)
    }

    /// Evaluate against the tuple `rows` (SQL WHERE semantics: NULL is
    /// false). Matches [`CompiledPred::eval`] exactly.
    #[inline(always)]
    pub fn eval(&self, rows: &[u32]) -> bool {
        match self {
            BoundPred::IntCmpConst { col, t, mask, k } => {
                mask & ord_bit(col[rows[*t] as usize].cmp(k)) != 0
            }
            BoundPred::FloatCmpConst { col, t, mask, k } => {
                match col[rows[*t] as usize].partial_cmp(k) {
                    Some(ord) => mask & ord_bit(ord) != 0,
                    None => false,
                }
            }
            BoundPred::StrEqCode {
                codes,
                t,
                code,
                negated,
            } => {
                let eq = *code == Some(codes[rows[*t] as usize]);
                eq != *negated
            }
            BoundPred::IntCmpInt { a, ta, b, tb, mask } => {
                let va = a[rows[*ta] as usize];
                let vb = b[rows[*tb] as usize];
                mask & ord_bit(va.cmp(&vb)) != 0
            }
            BoundPred::IntInList { col, t, set } => set.contains(&col[rows[*t] as usize]),
            // Out of line: a loop that never meets a UDF carries no UDF
            // code.
            BoundPred::Udf { udf, a, b } => udf_counted(udf, *a, *b, rows),
            BoundPred::Generic { pred, tables } => pred.eval(rows, tables),
        }
    }

    /// [`Self::eval`], except that a `Udf` predicate calls
    /// `Udf::call_uncounted`: the caller tallies the call and adds it
    /// with [`Udf::add_calls`]. Every other variant counts as `eval` does.
    #[inline(always)]
    pub fn eval_uncounted(&self, rows: &[u32]) -> bool {
        match self {
            BoundPred::Udf { udf, a, b } => udf_holds(udf, *a, *b, rows),
            _ => self.eval(rows),
        }
    }

    /// Filter rows of table `t` (`n` rows) by this unary conjunct, a
    /// column at a time: `sel` is the selection vector of base row ids
    /// that passed the earlier conjuncts (`None` scans `0..n`), and the
    /// rows that also pass this one are returned in order, compacted in
    /// place. The variant is matched once; constant comparisons and IN
    /// lists then run one loop over their raw slice, while `IntCmpInt`,
    /// `Udf` and `Generic` call [`Self::eval`] on the surviving rows
    /// only — so a UDF is called exactly as often as under row-at-a-time
    /// short-circuit evaluation. A `Udf` scan tallies its calls locally
    /// and adds them once, when it returns or unwinds. `rows` is a
    /// scratch tuple with one slot per query table.
    pub fn select(
        &self,
        t: TableId,
        n: usize,
        sel: Option<Vec<RowId>>,
        rows: &mut [u32],
    ) -> Vec<RowId> {
        match *self {
            BoundPred::IntCmpConst { col, mask, k, .. } => {
                compact(n, sel, |r| mask & ord_bit(col[r].cmp(&k)) != 0)
            }
            BoundPred::FloatCmpConst { col, mask, k, .. } => compact(n, sel, |r| {
                col[r]
                    .partial_cmp(&k)
                    .is_some_and(|ord| mask & ord_bit(ord) != 0)
            }),
            BoundPred::StrEqCode {
                codes,
                code,
                negated,
                ..
            } => match code {
                Some(code) => compact(n, sel, |r| (codes[r] == code) != negated),
                // A literal absent from the dictionary equals no row.
                None => compact(n, sel, |_| negated),
            },
            BoundPred::IntInList { col, set, .. } => compact(n, sel, |r| set.contains(&col[r])),
            BoundPred::Udf { udf, .. } => {
                let mut tally = CallTally { udf, calls: 0 };
                compact(n, sel, |r| {
                    tally.calls += 1;
                    rows[t] = r as u32;
                    self.eval_uncounted(rows)
                })
            }
            BoundPred::IntCmpInt { .. } | BoundPred::Generic { .. } => compact(n, sel, |r| {
                rows[t] = r as u32;
                self.eval(rows)
            }),
        }
    }
}

/// Call `udf` on the argument values of tuple `rows`, uncounted: true
/// when the result is truthy and not NULL.
#[inline(always)]
fn udf_holds(
    udf: &Udf,
    a: (UdfArg<'_>, TableId),
    b: Option<(UdfArg<'_>, TableId)>,
    rows: &[u32],
) -> bool {
    let arg = |(col, t): (UdfArg<'_>, TableId)| col.get(rows[t]);
    let v = match b {
        None => udf.call_uncounted(&[arg(a)]),
        Some(b) => udf.call_uncounted(&[arg(a), arg(b)]),
    };
    !v.is_null() && v.is_truthy()
}

/// [`udf_holds`], counting the call.
#[inline(never)]
fn udf_counted(
    udf: &Udf,
    a: (UdfArg<'_>, TableId),
    b: Option<(UdfArg<'_>, TableId)>,
    rows: &[u32],
) -> bool {
    udf.add_calls(1);
    udf_holds(udf, a, b, rows)
}

/// Calls of one UDF made with [`Udf::call_uncounted`], added to its count
/// when dropped: on return or on unwind.
struct CallTally<'a> {
    udf: &'a Udf,
    calls: u64,
}

impl Drop for CallTally<'_> {
    fn drop(&mut self) {
        self.udf.add_calls(self.calls);
    }
}

/// Keep the rows of `sel` (or of `0..n` when `None`) that satisfy
/// `keep`, in order: each row is written to the next output slot and the
/// slot is claimed only when it passes, so the loop has no data-dependent
/// branch.
#[inline(always)]
fn compact(n: usize, sel: Option<Vec<RowId>>, mut keep: impl FnMut(usize) -> bool) -> Vec<RowId> {
    let (mut out, len) = match sel {
        // A first scan writes survivors only; `0..n` is never built.
        None => {
            let mut out = vec![0; n];
            let mut len = 0;
            for r in 0..n {
                out[len] = r as RowId;
                len += usize::from(keep(r));
            }
            (out, len)
        }
        Some(mut sel) => {
            let mut len = 0;
            for i in 0..sel.len() {
                let r = sel[i];
                sel[len] = r;
                len += usize::from(keep(r as usize));
            }
            (sel, len)
        }
    };
    out.truncate(len);
    out
}

/// Compile every WHERE conjunct of `query`.
pub fn compile_predicates(query: &Query) -> Vec<CompiledPred> {
    let tables: Vec<TableRef> = query.tables.iter().map(|b| b.table.clone()).collect();
    query
        .predicates
        .iter()
        .map(|p| CompiledPred::compile(p, &tables))
        .collect()
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if the conjunct compiled to a fast path (not the interpreter).
    fn is_fast(p: &CompiledPred) -> bool {
        !matches!(p.fast, Fast::Generic)
    }
    use skinner_storage::{Column, ColumnDef, Schema, Table, ValueType};
    use std::sync::Arc;

    fn tables() -> Vec<TableRef> {
        vec![
            Arc::new(
                Table::new(
                    "a",
                    Schema::new([
                        ColumnDef::new("x", ValueType::Int),
                        ColumnDef::new("s", ValueType::Str),
                        ColumnDef::new("f", ValueType::Float),
                    ]),
                    vec![
                        Column::from_ints(vec![1, 5, 9]),
                        Column::from_strs(["p", "q", "r"]),
                        Column::from_floats(vec![0.5, 1.5, 2.5]),
                    ],
                )
                .unwrap(),
            ),
            Arc::new(
                Table::new(
                    "b",
                    Schema::new([ColumnDef::new("y", ValueType::Int)]),
                    vec![Column::from_ints(vec![5, 9, 1])],
                )
                .unwrap(),
            ),
        ]
    }

    #[test]
    fn int_cmp_const_fast() {
        let ts = tables();
        let p = CompiledPred::compile(&Expr::col(0, 0).ge(Expr::lit(5)), &ts);
        assert!(is_fast(&p));
        assert!(!p.eval(&[0, 0], &ts));
        assert!(p.eval(&[1, 0], &ts));
        assert!(p.eval(&[2, 0], &ts));
    }

    #[test]
    fn literal_on_left_flips() {
        let ts = tables();
        // 5 <= a.x  ≡  a.x >= 5
        let p = CompiledPred::compile(&Expr::lit(5).le(Expr::col(0, 0)), &ts);
        assert!(is_fast(&p));
        assert!(!p.eval(&[0, 0], &ts));
        assert!(p.eval(&[1, 0], &ts));
    }

    #[test]
    fn str_eq_code_fast() {
        let ts = tables();
        let p = CompiledPred::compile(&Expr::col(0, 1).eq(Expr::lit("q")), &ts);
        assert!(is_fast(&p));
        assert!(!p.eval(&[0, 0], &ts));
        assert!(p.eval(&[1, 0], &ts));
        // literal not in dictionary → always false
        let p = CompiledPred::compile(&Expr::col(0, 1).eq(Expr::lit("zz")), &ts);
        assert!(is_fast(&p));
        assert!(!p.eval(&[0, 0], &ts));
        // NE variant
        let p = CompiledPred::compile(&Expr::col(0, 1).ne(Expr::lit("q")), &ts);
        assert!(p.eval(&[0, 0], &ts));
        assert!(!p.eval(&[1, 0], &ts));
    }

    #[test]
    fn int_cmp_int_join_fast() {
        let ts = tables();
        let p = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        assert!(is_fast(&p));
        assert!(p.eval(&[1, 0], &ts)); // a.x=5, b.y=5
        assert!(!p.eval(&[0, 0], &ts)); // 1 vs 5
        assert!(p.eval(&[0, 2], &ts)); // 1 vs 1
    }

    #[test]
    fn in_list_fast() {
        let ts = tables();
        let p = CompiledPred::compile(
            &Expr::col(0, 0).in_list(vec![Value::Int(1), Value::Int(9)]),
            &ts,
        );
        assert!(is_fast(&p));
        assert!(p.eval(&[0, 0], &ts));
        assert!(!p.eval(&[1, 0], &ts));
        assert!(p.eval(&[2, 0], &ts));
    }

    #[test]
    fn float_cmp_fast_and_int_widening() {
        let ts = tables();
        let p = CompiledPred::compile(&Expr::col(0, 2).gt(Expr::lit(1)), &ts);
        assert!(is_fast(&p));
        assert!(!p.eval(&[0, 0], &ts));
        assert!(p.eval(&[1, 0], &ts));
    }

    fn date_tables() -> Vec<TableRef> {
        vec![
            Arc::new(
                Table::new(
                    "o",
                    Schema::new([ColumnDef::new("day", ValueType::Date)]),
                    vec![Column::from_dates(vec![100, 150, 220])],
                )
                .unwrap(),
            ),
            Arc::new(
                Table::new(
                    "s",
                    Schema::new([ColumnDef::new("day", ValueType::Date)]),
                    vec![Column::from_dates(vec![150, 100, 150])],
                )
                .unwrap(),
            ),
        ]
    }

    #[test]
    fn date_const_and_date_arithmetic_fast_paths() {
        let ts = date_tables();
        // Plain date constant.
        let p = CompiledPred::compile(&Expr::col(0, 0).lt(Expr::Literal(Value::Date(151))), &ts);
        assert!(is_fast(&p));
        assert!(p.eval(&[0, 0], &ts));
        assert!(p.eval(&[1, 0], &ts));
        assert!(!p.eval(&[2, 0], &ts));
        // DATE + INTERVAL folds to a date constant and stays fast.
        let arith = Expr::col(0, 0)
            .lt(Expr::Literal(Value::Date(120)).add(Expr::Literal(Value::Interval(31))));
        let p = CompiledPred::compile(&arith, &ts);
        assert!(is_fast(&p), "folded date arithmetic must hit a fast path");
        assert!(p.eval(&[0, 0], &ts));
        assert!(p.eval(&[1, 0], &ts)); // 150 < 151
        assert!(!p.eval(&[2, 0], &ts));
        // Date = Date across tables is the exact i64 path (elidable).
        let j = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        assert!(is_fast(&j));
        assert!(j.bind(&ts).is_exact_int_eq());
        assert!(j.eval(&[1, 0], &ts)); // 150 = 150
        assert!(!j.eval(&[0, 0], &ts));
        // Mixed Date vs Int literal stays generic (lattice: always NULL).
        let mixed = CompiledPred::compile(&Expr::col(0, 0).lt(Expr::lit(999)), &ts);
        assert!(!is_fast(&mixed));
        assert!(!mixed.eval(&[0, 0], &ts));
        // Bound evaluation matches compiled evaluation on every row pair.
        for e in [
            Expr::col(0, 0).lt(Expr::Literal(Value::Date(151))),
            Expr::col(0, 0).eq(Expr::col(1, 0)),
            arith,
        ] {
            let p = CompiledPred::compile(&e, &ts);
            let b = p.bind(&ts);
            for a in 0..3u32 {
                for c in 0..3u32 {
                    assert_eq!(b.eval(&[a, c]), p.eval(&[a, c], &ts), "{e:?} [{a},{c}]");
                }
            }
        }
    }

    #[test]
    fn const_fold_preserves_division_by_zero() {
        let ts = tables();
        // (4 / 0) folds to NULL; the comparison is then NULL → false.
        let div = Expr::Binary {
            op: BinOp::Div,
            left: Box::new(Expr::lit(4)),
            right: Box::new(Expr::lit(0)),
        };
        let e = Expr::col(0, 0).lt(div);
        let p = CompiledPred::compile(&e, &ts);
        assert!(!p.eval(&[0, 0], &ts));
        let ctx = TupleContext {
            rows: &[0, 0],
            tables: &ts,
        };
        assert_eq!(p.eval(&[0, 0], &ts), e.eval_predicate(&ctx));
    }

    #[test]
    fn generic_fallback_matches_interpreter() {
        let ts = tables();
        // LIKE is not fast-pathed
        let e = Expr::col(0, 1).like("q%");
        let p = CompiledPred::compile(&e, &ts);
        assert!(!is_fast(&p));
        assert!(p.eval(&[1, 0], &ts));
        assert!(!p.eval(&[0, 0], &ts));
    }

    #[test]
    fn bound_agrees_with_compiled_eval() {
        let ts = tables();
        let preds = vec![
            Expr::col(0, 0).lt(Expr::lit(6)),
            Expr::col(0, 0).eq(Expr::col(1, 0)),
            Expr::col(0, 1).eq(Expr::lit("p")),
            Expr::col(0, 1).ne(Expr::lit("zz")),
            Expr::col(0, 2).le(Expr::lit(1.5)),
            Expr::col(0, 0).in_list(vec![Value::Int(1), Value::Int(9)]),
            Expr::col(0, 1).like("q%"), // generic fallback
        ];
        for e in preds {
            let p = CompiledPred::compile(&e, &ts);
            let bound = p.bind(&ts);
            for a in 0..3u32 {
                for b in 0..3u32 {
                    let rows = [a, b];
                    assert_eq!(
                        bound.eval(&rows),
                        p.eval(&rows, &ts),
                        "bound/eval disagreement on {e:?} rows {rows:?}"
                    );
                }
            }
        }
    }

    /// One 8-row table with a column per fast-path shape, a NaN-bearing
    /// float column and a nullable int column.
    fn select_tables() -> Vec<TableRef> {
        let mut nullable = skinner_storage::ColumnBuilder::new(ValueType::Int);
        for v in [
            Some(3),
            None,
            Some(7),
            Some(1),
            None,
            Some(5),
            Some(3),
            Some(9),
        ] {
            nullable.push(&v.map_or(Value::Null, Value::Int));
        }
        vec![Arc::new(
            Table::new(
                "t",
                Schema::new([
                    ColumnDef::new("x", ValueType::Int),
                    ColumnDef::new("y", ValueType::Int),
                    ColumnDef::new("f", ValueType::Float),
                    ColumnDef::new("s", ValueType::Str),
                    ColumnDef::new("n", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![4, 1, 5, 5, 9, 2, 5, 7]),
                    Column::from_ints(vec![4, 3, 2, 5, 9, 8, 6, 7]),
                    Column::from_floats(vec![0.5, f64::NAN, 2.0, 5.0, -1.0, f64::NAN, 2.5, 2.0]),
                    Column::from_strs(["p", "q", "pq", "q", "r", "p", "qq", "q"]),
                    nullable.finish(),
                ],
            )
            .unwrap(),
        )]
    }

    #[test]
    fn a_panicking_udf_filter_scan_leaves_exact_counts() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let ts = select_tables();
        // `x` is 4, 1, 5, …: the third call panics.
        let udf = Udf::new("boom", |a| {
            assert_ne!(a[0], Value::Int(5), "third row");
            Value::Int(1)
        });
        let p = CompiledPred::compile(
            &Expr::Udf {
                udf: Arc::clone(&udf),
                args: vec![Expr::col(0, 0)],
            },
            &ts,
        );
        let bound = p.bind(&ts);
        let scan = catch_unwind(AssertUnwindSafe(|| bound.select(0, 8, None, &mut [0])));
        assert!(scan.is_err());
        assert_eq!(udf.call_count(), 3);
    }

    #[test]
    fn select_matches_row_at_a_time_eval() {
        let ts = select_tables();
        let mut exprs = Vec::new();
        // Int column, float column, float column against an Int literal.
        for (c, k) in [(0, Expr::lit(5)), (2, Expr::lit(2.0)), (2, Expr::lit(2))] {
            exprs.extend([
                Expr::col(0, c).eq(k.clone()),
                Expr::col(0, c).ne(k.clone()),
                Expr::col(0, c).lt(k.clone()),
                Expr::col(0, c).le(k.clone()),
                Expr::col(0, c).gt(k.clone()),
                Expr::col(0, c).ge(k.clone()),
            ]);
        }
        exprs.extend([
            Expr::col(0, 3).eq(Expr::lit("q")),
            Expr::col(0, 3).ne(Expr::lit("q")),
            Expr::col(0, 3).eq(Expr::lit("absent")),
            Expr::col(0, 3).ne(Expr::lit("absent")),
            Expr::col(0, 0).in_list(vec![Value::Int(5), Value::Int(9), Value::Int(42)]),
            Expr::col(0, 0).lt(Expr::col(0, 1)),
            Expr::col(0, 0).eq(Expr::col(0, 1)),
            Expr::col(0, 3).like("q%"),
            Expr::col(0, 4).ge(Expr::lit(3)),
            Expr::Udf {
                udf: Udf::new("odd", |a| {
                    Value::from(a[0].as_int().is_some_and(|v| v % 2 == 1))
                }),
                args: vec![Expr::col(0, 4)],
            },
        ]);
        let n = 8;
        let given: Vec<RowId> = vec![0, 2, 3, 4, 5, 7];
        let mut rows = [0u32];
        for e in &exprs {
            let p = CompiledPred::compile(e, &ts);
            let bound = p.bind(&ts);
            let truth = |r: &RowId| p.eval(&[*r], &ts);
            let full: Vec<RowId> = (0..n as RowId).filter(truth).collect();
            assert_eq!(
                bound.select(0, n, None, &mut rows),
                full,
                "full scan of {e:?}"
            );
            let over_given: Vec<RowId> = given.iter().copied().filter(truth).collect();
            let selected = bound.select(0, n, Some(given.clone()), &mut rows);
            assert_eq!(selected, over_given, "selection of {e:?}");
        }
        // Every BoundPred variant was covered, and the six masks of each
        // constant comparison.
        let bound: Vec<_> = exprs
            .iter()
            .map(|e| CompiledPred::compile(e, &ts))
            .collect();
        let tags: FxHashSet<u8> = bound.iter().map(|p| p.bind(&ts).shape_tag()).collect();
        for base in [0x10, 0x20] {
            let masks = tags.iter().filter(|&&t| t & 0xf0 == base).count();
            assert_eq!(masks, 6, "comparison masks of shape {base:#x}");
        }
        for tag in [0x30, 0x31, 0x40 | ORD_LT, 0x40 | ORD_EQ, 0x50, 0x60, 0x70] {
            assert!(tags.contains(&tag), "shape {tag:#x} untested");
        }
    }

    #[test]
    fn select_drops_nan_and_null() {
        let ts = select_tables();
        let mut rows = [0u32];
        // NaN compares unordered: not even `!=` holds.
        let ne = CompiledPred::compile(&Expr::col(0, 2).ne(Expr::lit(2.0)), &ts);
        assert!(is_fast(&ne));
        assert_eq!(ne.bind(&ts).select(0, 8, None, &mut rows), vec![0, 3, 4, 6]);
        // NULL >= 3 is NULL, which filters the row out.
        let ge = CompiledPred::compile(&Expr::col(0, 4).ge(Expr::lit(3)), &ts);
        assert!(!is_fast(&ge));
        assert_eq!(
            ge.bind(&ts).select(0, 8, None, &mut rows),
            vec![0, 2, 5, 6, 7]
        );
        // An absent literal: `=` keeps nothing, `!=` keeps the selection.
        let eq = CompiledPred::compile(&Expr::col(0, 3).eq(Expr::lit("zz")), &ts);
        assert!(eq.bind(&ts).select(0, 8, None, &mut rows).is_empty());
        let ne = CompiledPred::compile(&Expr::col(0, 3).ne(Expr::lit("zz")), &ts);
        assert_eq!(
            ne.bind(&ts).select(0, 8, Some(vec![1, 6]), &mut rows),
            vec![1, 6]
        );
    }

    #[test]
    fn shape_tags_and_exact_int_eq() {
        let ts = tables();
        let bindp = |e: &Expr| CompiledPred::compile(e, &ts);
        let eq = bindp(&Expr::col(0, 0).eq(Expr::col(1, 0)));
        let lt = bindp(&Expr::col(0, 0).lt(Expr::col(1, 0)));
        let konst = bindp(&Expr::col(0, 0).eq(Expr::lit(5)));
        let like = bindp(&Expr::col(0, 1).like("q%"));
        assert!(eq.bind(&ts).is_exact_int_eq());
        assert!(!lt.bind(&ts).is_exact_int_eq());
        assert!(!konst.bind(&ts).is_exact_int_eq());
        assert!(!like.bind(&ts).is_exact_int_eq());
        // Tags separate shapes but ignore constants.
        let konst2 = bindp(&Expr::col(0, 0).eq(Expr::lit(99)));
        assert_eq!(konst.bind(&ts).shape_tag(), konst2.bind(&ts).shape_tag());
        assert_ne!(eq.bind(&ts).shape_tag(), lt.bind(&ts).shape_tag());
        assert_ne!(eq.bind(&ts).shape_tag(), konst.bind(&ts).shape_tag());
        assert_ne!(konst.bind(&ts).shape_tag(), like.bind(&ts).shape_tag());
    }

    #[test]
    fn fast_and_generic_agree_on_all_rows() {
        let ts = tables();
        let preds = vec![
            Expr::col(0, 0).lt(Expr::lit(6)),
            Expr::col(0, 0).eq(Expr::col(1, 0)),
            Expr::col(0, 1).eq(Expr::lit("p")),
            Expr::col(0, 2).le(Expr::lit(1.5)),
        ];
        for e in preds {
            let p = CompiledPred::compile(&e, &ts);
            for a in 0..3u32 {
                for b in 0..3u32 {
                    let rows = [a, b];
                    let ctx = TupleContext {
                        rows: &rows,
                        tables: &ts,
                    };
                    assert_eq!(
                        p.eval(&rows, &ts),
                        e.eval_predicate(&ctx),
                        "disagreement on {e:?} rows {rows:?}"
                    );
                }
            }
        }
    }

    /// Two six-row tables with an Int, a nullable Int (NULL rows), a
    /// NaN-bearing Float, a Str (with empty strings) and a Date column;
    /// the second table holds the rows of the first in reverse.
    fn udf_tables() -> Vec<TableRef> {
        let table = |name: &str, rev: bool| {
            let rows: Vec<usize> = if rev {
                (0..6).rev().collect()
            } else {
                (0..6).collect()
            };
            let ints = [3, 0, 7, -1, 2, 5];
            let nulls = [Some(1), None, Some(0), Some(4), None, Some(2)];
            let floats = [0.0, f64::NAN, 1.5, -2.0, f64::NAN, 0.5];
            let strs = ["", "a", "b", "a", "", "c"];
            let dates = [0, 10, 20, 10, 5, 0];
            let mut nullable = skinner_storage::ColumnBuilder::new(ValueType::Int);
            for &r in &rows {
                nullable.push(&nulls[r].map_or(Value::Null, Value::Int));
            }
            Arc::new(
                Table::new(
                    name,
                    Schema::new([
                        ColumnDef::new("i", ValueType::Int),
                        ColumnDef::new("n", ValueType::Int),
                        ColumnDef::new("f", ValueType::Float),
                        ColumnDef::new("s", ValueType::Str),
                        ColumnDef::new("d", ValueType::Date),
                    ]),
                    vec![
                        Column::from_ints(rows.iter().map(|&r| ints[r]).collect()),
                        nullable.finish(),
                        Column::from_floats(rows.iter().map(|&r| floats[r]).collect()),
                        Column::from_strs(rows.iter().map(|&r| strs[r])),
                        Column::from_dates(rows.iter().map(|&r| dates[r]).collect()),
                    ],
                )
                .unwrap(),
            )
        };
        vec![table("a", false), table("b", true)]
    }

    #[test]
    fn bound_udf_matches_interpreter() {
        let ts = udf_tables();
        // Results covering every truthiness case: the argument itself
        // (Int 0, NULL, NaN, 0.0, "", dates), constants, and SQL equality.
        let unary = [
            Udf::new("first", |a| a[0].clone()),
            Udf::new("null", |_| Value::Null),
            Udf::new("zero", |_| Value::Int(0)),
            Udf::new("two", |_| Value::Int(2)),
            Udf::new("fzero", |_| Value::Float(0.0)),
            Udf::new("empty", |_| Value::from("")),
        ];
        let binary = [
            Udf::new("eq", |a| {
                a[0].sql_eq(&a[1]).map_or(Value::Null, Value::from)
            }),
            Udf::new("second", |a| a[1].clone()),
            Udf::new("zero2", |_| Value::Int(0)),
        ];
        let mut cases = Vec::new();
        for udf in &unary {
            for c in 0..5 {
                cases.push((udf, vec![Expr::col(0, c)]));
            }
        }
        for udf in &binary {
            for (c1, c2, t2) in
                (0..5).flat_map(|c1| (0..5).flat_map(move |c2| [(c1, c2, 0), (c1, c2, 1)]))
            {
                cases.push((udf, vec![Expr::col(0, c1), Expr::col(t2, c2)]));
            }
        }
        let mut outcomes = FxHashSet::default();
        for (udf, args) in cases {
            let e = Expr::Udf {
                udf: Arc::clone(udf),
                args,
            };
            let p = CompiledPred::compile(&e, &ts);
            let bound = p.bind(&ts);
            assert!(matches!(bound, BoundPred::Udf { .. }), "{e:?}");
            let generic = BoundPred::Generic {
                pred: &p,
                tables: &ts,
            };
            for a in 0..6u32 {
                for b in 0..6u32 {
                    let rows = [a, b];
                    let calls = udf.call_count();
                    let got = bound.eval(&rows);
                    assert_eq!(udf.call_count(), calls + 1, "{e:?} {rows:?}");
                    let want = generic.eval(&rows);
                    assert_eq!(udf.call_count(), calls + 2, "{e:?} {rows:?}");
                    assert_eq!(got, want, "{e:?} {rows:?}");
                    outcomes.insert((udf.name.clone(), got));
                }
            }
        }
        // The argument-dependent UDFs produced both outcomes.
        for name in ["first", "eq", "second"] {
            assert!(outcomes.contains(&(name.into(), true)), "{name}");
            assert!(outcomes.contains(&(name.into(), false)), "{name}");
        }
    }

    #[test]
    fn only_udf_calls_on_bare_columns_bind() {
        let ts = udf_tables();
        let udf = Udf::new("u", |_| Value::Int(1));
        let call = |args: Vec<Expr>| Expr::Udf {
            udf: Arc::clone(&udf),
            args,
        };
        let tag = |e: &Expr| CompiledPred::compile(e, &ts).bind(&ts).shape_tag();
        for e in [
            call(vec![Expr::col(0, 0)]),
            call(vec![Expr::col(0, 3), Expr::col(1, 1)]),
        ] {
            assert_eq!(tag(&e), 0x70, "{e:?} binds");
        }
        for e in [
            call(vec![Expr::col(0, 0).add(Expr::lit(1))]),
            call(vec![Expr::col(0, 0)]).not(),
            call(vec![Expr::lit(1), Expr::col(0, 0)]),
            call(vec![]),
            call(vec![Expr::col(0, 0), Expr::col(0, 1), Expr::col(1, 0)]),
        ] {
            assert_eq!(tag(&e), 0x60, "{e:?} stays generic");
        }
    }
}
