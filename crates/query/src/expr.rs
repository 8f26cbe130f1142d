//! Scalar expressions over query tables.

use crate::udf::Udf;
use crate::TableId;
use skinner_storage::Value;
use std::fmt;
use std::sync::Arc;

/// A reference to one column of one query table (both resolved to
/// indices: `table` into the query's FROM list, `column` into the table's
/// schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// FROM-list position of the table.
    pub table: TableId,
    /// Schema position of the column.
    pub column: usize,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Is this a comparison producing a boolean?
    pub(crate) fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical negation (`NOT`).
    Not,
    /// Arithmetic negation (`-`).
    Neg,
}

/// The set of query tables an expression references, as a bitmask.
/// Queries are limited to 64 tables (the paper's largest query joins 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TableSet(pub u64);

impl TableSet {
    /// Empty set.
    pub const EMPTY: TableSet = TableSet(0);

    /// Singleton set.
    pub fn single(t: TableId) -> TableSet {
        debug_assert!(t < 64);
        TableSet(1 << t)
    }

    /// Set of all tables `0..n`.
    pub fn all(n: usize) -> TableSet {
        debug_assert!(n <= 64);
        if n == 64 {
            TableSet(!0)
        } else {
            TableSet((1u64 << n) - 1)
        }
    }

    /// Membership test.
    pub fn contains(self, t: TableId) -> bool {
        self.0 >> t & 1 == 1
    }

    /// Insert a table.
    pub fn insert(&mut self, t: TableId) {
        self.0 |= 1 << t;
    }

    /// Union.
    pub fn union(self, other: TableSet) -> TableSet {
        TableSet(self.0 | other.0)
    }

    /// Intersection.
    pub(crate) fn intersect(self, other: TableSet) -> TableSet {
        TableSet(self.0 & other.0)
    }

    /// Difference `self \ other`.
    pub(crate) fn minus(self, other: TableSet) -> TableSet {
        TableSet(self.0 & !other.0)
    }

    /// Is this a subset of `other`?
    pub fn is_subset_of(self, other: TableSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Number of tables in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = TableId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let t = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(t)
            }
        })
    }
}

impl fmt::Display for TableSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<TableId> for TableSet {
    fn from_iter<I: IntoIterator<Item = TableId>>(iter: I) -> Self {
        let mut s = TableSet::EMPTY;
        for t in iter {
            s.insert(t);
        }
        s
    }
}

/// A scalar expression tree.
#[derive(Clone)]
pub enum Expr {
    /// Constant.
    Literal(Value),
    /// Column reference.
    Col(ColRef),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Black-box user-defined function call.
    Udf {
        /// Shared UDF definition.
        udf: Arc<Udf>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// Constant list.
        list: Vec<Value>,
    },
    /// `expr LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// String expression.
        expr: Box<Expr>,
        /// SQL LIKE pattern.
        pattern: String,
        /// Negated (`NOT LIKE`).
        negated: bool,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negated (`IS NOT NULL`).
        negated: bool,
    },
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v:?}"),
            Expr::Col(c) => write!(f, "t{}.c{}", c.table, c.column),
            Expr::Binary { op, left, right } => write!(f, "({left:?} {op:?} {right:?})"),
            Expr::Unary { op, expr } => write!(f, "({op:?} {expr:?})"),
            Expr::Udf { udf, args } => write!(f, "{}({args:?})", udf.name),
            Expr::InList { expr, list } => write!(f, "({expr:?} IN {list:?})"),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr:?} {}LIKE {pattern:?})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::IsNull { expr, negated } => write!(
                f,
                "({expr:?} IS {}NULL)",
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

/// Row-valued evaluation context: maps a column reference to the value of
/// the current candidate tuple.
pub trait RowContext {
    /// Value of `col` in the current row combination.
    fn value(&self, col: ColRef) -> Value;
}

impl<F: Fn(ColRef) -> Value> RowContext for F {
    fn value(&self, col: ColRef) -> Value {
        self(col)
    }
}

/// SQL LIKE matcher supporting `%` (any run) and `_` (any single
/// Unicode scalar). A `%` in the pattern is always a wildcard, also where
/// the text holds a `%`.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    // Iterative two-pointer algorithm with backtracking on the last `%`,
    // over byte offsets of char boundaries, so it allocates nothing.
    let (mut si, mut pi) = (0usize, 0usize);
    // After a `%`: the pattern offset past it, and the text offset where
    // the rest of the pattern is being tried.
    let mut star: Option<(usize, usize)> = None;
    while let Some(c) = s[si..].chars().next() {
        match pattern[pi..].chars().next() {
            Some('%') => {
                pi += 1;
                star = Some((pi, si));
            }
            Some(p) if p == '_' || p == c => {
                si += c.len_utf8();
                pi += p.len_utf8();
            }
            _ => {
                // Let the last `%` absorb one more char and retry.
                let Some((star_p, star_s)) = star else {
                    return false;
                };
                let absorbed = s[star_s..].chars().next().map_or(0, char::len_utf8);
                si = star_s + absorbed;
                pi = star_p;
                star = Some((star_p, si));
            }
        }
    }
    pattern[pi..].bytes().all(|b| b == b'%')
}

fn bool_val(b: bool) -> Value {
    Value::Int(b as i64)
}

impl Expr {
    /// Shorthand: literal expression.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand: column expression.
    pub fn col(table: TableId, column: usize) -> Expr {
        Expr::Col(ColRef { table, column })
    }

    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(rhs),
        }
    }

    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }
    /// `self <> rhs`
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }
    /// `self AND rhs`
    pub(crate) fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }
    /// `self OR rhs`
    pub(crate) fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }
    /// `self + rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }
    /// `self - rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }
    /// `self * rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }
    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(self),
        }
    }
    /// `self IN (list)`
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
        }
    }
    /// `self LIKE pattern`
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
            negated: false,
        }
    }

    /// Set of query tables this expression references.
    pub fn tables(&self) -> TableSet {
        let mut s = TableSet::EMPTY;
        self.collect_tables(&mut s);
        s
    }

    fn collect_tables(&self, s: &mut TableSet) {
        match self {
            Expr::Literal(_) => {}
            Expr::Col(c) => s.insert(c.table),
            Expr::Binary { left, right, .. } => {
                left.collect_tables(s);
                right.collect_tables(s);
            }
            Expr::Unary { expr, .. } => expr.collect_tables(s),
            Expr::Udf { args, .. } => {
                for a in args {
                    a.collect_tables(s);
                }
            }
            Expr::InList { expr, .. } => expr.collect_tables(s),
            Expr::Like { expr, .. } => expr.collect_tables(s),
            Expr::IsNull { expr, .. } => expr.collect_tables(s),
        }
    }

    /// Collect all column references.
    pub fn col_refs(&self, out: &mut Vec<ColRef>) {
        match self {
            Expr::Literal(_) => {}
            Expr::Col(c) => out.push(*c),
            Expr::Binary { left, right, .. } => {
                left.col_refs(out);
                right.col_refs(out);
            }
            Expr::Unary { expr, .. } => expr.col_refs(out),
            Expr::Udf { args, .. } => {
                for a in args {
                    a.col_refs(out);
                }
            }
            Expr::InList { expr, .. } => expr.col_refs(out),
            Expr::Like { expr, .. } => expr.col_refs(out),
            Expr::IsNull { expr, .. } => expr.col_refs(out),
        }
    }

    /// If this conjunct is an equality between single columns of two
    /// *different* tables, return the pair — the shape hash indexes and
    /// hash joins accelerate.
    pub fn as_equi_join(&self) -> Option<(ColRef, ColRef)> {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = self
        {
            if let (Expr::Col(a), Expr::Col(b)) = (left.as_ref(), right.as_ref()) {
                if a.table != b.table {
                    return Some((*a, *b));
                }
            }
        }
        None
    }

    /// Does the expression contain a UDF call anywhere?
    pub fn contains_udf(&self) -> bool {
        match self {
            Expr::Udf { .. } => true,
            Expr::Literal(_) | Expr::Col(_) => false,
            Expr::Binary { left, right, .. } => left.contains_udf() || right.contains_udf(),
            Expr::Unary { expr, .. }
            | Expr::InList { expr, .. }
            | Expr::Like { expr, .. }
            | Expr::IsNull { expr, .. } => expr.contains_udf(),
        }
    }

    /// Evaluate against a row context, with SQL three-valued logic for
    /// comparisons (NULL-producing comparisons yield `Value::Null`).
    pub fn eval(&self, ctx: &impl RowContext) -> Value {
        match self {
            Expr::Literal(v) => v.clone(),
            Expr::Col(c) => ctx.value(*c),
            Expr::Binary { op, left, right } => {
                // Short-circuit logical operators.
                match op {
                    BinOp::And => {
                        let l = left.eval(ctx);
                        if !l.is_null() && !l.is_truthy() {
                            return bool_val(false);
                        }
                        let r = right.eval(ctx);
                        if !r.is_null() && !r.is_truthy() {
                            return bool_val(false);
                        }
                        if l.is_null() || r.is_null() {
                            return Value::Null;
                        }
                        bool_val(true)
                    }
                    BinOp::Or => {
                        let l = left.eval(ctx);
                        if !l.is_null() && l.is_truthy() {
                            return bool_val(true);
                        }
                        let r = right.eval(ctx);
                        if !r.is_null() && r.is_truthy() {
                            return bool_val(true);
                        }
                        if l.is_null() || r.is_null() {
                            return Value::Null;
                        }
                        bool_val(false)
                    }
                    _ => {
                        let l = left.eval(ctx);
                        let r = right.eval(ctx);
                        eval_binary(*op, &l, &r)
                    }
                }
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval(ctx);
                match op {
                    UnOp::Not => {
                        if v.is_null() {
                            Value::Null
                        } else {
                            bool_val(!v.is_truthy())
                        }
                    }
                    UnOp::Neg => match v {
                        Value::Int(i) => Value::Int(-i),
                        Value::Float(f) => Value::Float(-f),
                        Value::Interval(d) => Value::Interval(-d),
                        _ => Value::Null,
                    },
                }
            }
            // Up to two arguments live on the stack: UDF predicates run
            // per row and per kernel step, and a `Vec` would put a heap
            // allocation on every call.
            Expr::Udf { udf, args } => match args.as_slice() {
                [] => udf.call(&[]),
                [a] => udf.call(&[a.eval(ctx)]),
                [a, b] => udf.call(&[a.eval(ctx), b.eval(ctx)]),
                _ => {
                    let vals: Vec<Value> = args.iter().map(|a| a.eval(ctx)).collect();
                    udf.call(&vals)
                }
            },
            Expr::InList { expr, list } => {
                let v = expr.eval(ctx);
                if v.is_null() {
                    return Value::Null;
                }
                bool_val(list.iter().any(|x| v.sql_eq(x) == Some(true)))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(ctx);
                match v.as_str() {
                    Some(s) => bool_val(like_match(s, pattern) != *negated),
                    None => Value::Null,
                }
            }
            Expr::IsNull { expr, negated } => bool_val(expr.eval(ctx).is_null() != *negated),
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    pub fn eval_predicate(&self, ctx: &impl RowContext) -> bool {
        let v = self.eval(ctx);
        !v.is_null() && v.is_truthy()
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Value {
    use std::cmp::Ordering;
    if op.is_comparison() {
        return match l.sql_cmp(r) {
            None => Value::Null,
            Some(ord) => bool_val(match op {
                BinOp::Eq => ord == Ordering::Equal,
                BinOp::Ne => ord != Ordering::Equal,
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            }),
        };
    }
    // Temporal arithmetic (the date/interval lattice): dates shift by
    // intervals, date differences are intervals, intervals add among
    // themselves and scale by integers. Anything else temporal is NULL.
    match (l, r) {
        (Value::Date(a), Value::Interval(b)) => {
            return match op {
                BinOp::Add => Value::Date(a.wrapping_add(*b)),
                BinOp::Sub => Value::Date(a.wrapping_sub(*b)),
                _ => Value::Null,
            }
        }
        (Value::Interval(a), Value::Date(b)) => {
            return match op {
                BinOp::Add => Value::Date(b.wrapping_add(*a)),
                _ => Value::Null,
            }
        }
        (Value::Date(a), Value::Date(b)) => {
            return match op {
                BinOp::Sub => Value::Interval(a.wrapping_sub(*b)),
                _ => Value::Null,
            }
        }
        (Value::Interval(a), Value::Interval(b)) => {
            return match op {
                BinOp::Add => Value::Interval(a.wrapping_add(*b)),
                BinOp::Sub => Value::Interval(a.wrapping_sub(*b)),
                _ => Value::Null,
            }
        }
        (Value::Interval(a), Value::Int(b)) | (Value::Int(b), Value::Interval(a)) => {
            return match op {
                BinOp::Mul => Value::Interval(a.wrapping_mul(*b)),
                _ => Value::Null,
            }
        }
        (Value::Date(_), _)
        | (_, Value::Date(_))
        | (Value::Interval(_), _)
        | (_, Value::Interval(_)) => return Value::Null,
        _ => {}
    }
    // Arithmetic: int op int stays int (except /), otherwise widen to f64.
    match (l, r) {
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Int(a), Value::Int(b)) => match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_div(*b))
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_rem(*b))
                }
            }
            _ => Value::Null,
        },
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Value::Null,
            };
            match op {
                BinOp::Add => Value::Float(a + b),
                BinOp::Sub => Value::Float(a - b),
                BinOp::Mul => Value::Float(a * b),
                BinOp::Div => Value::Float(a / b),
                BinOp::Mod => Value::Float(a % b),
                _ => Value::Null,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(vals: Vec<Value>) -> impl RowContext {
        move |c: ColRef| vals[c.column].clone()
    }

    #[test]
    fn table_set_ops() {
        let a: TableSet = [0usize, 2, 5].into_iter().collect();
        assert_eq!(a.len(), 3);
        assert!(a.contains(2));
        assert!(!a.contains(1));
        let b = TableSet::single(2);
        assert!(b.is_subset_of(a));
        assert_eq!(a.minus(b).len(), 2);
        assert_eq!(a.intersect(b), b);
        assert_eq!(TableSet::all(3).0, 0b111);
        let members: Vec<_> = a.iter().collect();
        assert_eq!(members, vec![0, 2, 5]);
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::col(0, 0).add(Expr::lit(3)).gt(Expr::lit(10));
        let c = ctx(vec![Value::Int(8)]);
        assert_eq!(e.eval(&c), Value::Int(1));
        let c = ctx(vec![Value::Int(7)]);
        assert_eq!(e.eval(&c), Value::Int(0));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::lit(4).bin(BinOp::Div, Expr::lit(0));
        assert_eq!(e.eval(&ctx(vec![])), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        // NULL AND false = false; NULL AND true = NULL; NULL OR true = true
        let null = Expr::Literal(Value::Null);
        let t = Expr::lit(1);
        let f = Expr::lit(0);
        assert_eq!(
            null.clone().and(f.clone()).eval(&ctx(vec![])),
            Value::Int(0)
        );
        assert_eq!(null.clone().and(t.clone()).eval(&ctx(vec![])), Value::Null);
        assert_eq!(null.clone().or(t).eval(&ctx(vec![])), Value::Int(1));
        assert_eq!(null.clone().or(f).eval(&ctx(vec![])), Value::Null);
        assert_eq!(null.not().eval(&ctx(vec![])), Value::Null);
    }

    #[test]
    fn null_comparison_filtered_by_predicate() {
        let e = Expr::col(0, 0).eq(Expr::lit(1));
        let c = ctx(vec![Value::Null]);
        assert_eq!(e.eval(&c), Value::Null);
        assert!(!e.eval_predicate(&c));
    }

    #[test]
    fn in_list() {
        let e = Expr::col(0, 0).in_list(vec![Value::Int(1), Value::Int(3)]);
        assert!(e.eval_predicate(&ctx(vec![Value::Int(3)])));
        assert!(!e.eval_predicate(&ctx(vec![Value::Int(2)])));
        assert!(!e.eval_predicate(&ctx(vec![Value::Null])));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_lo"));
        assert!(!like_match("hello", "Hello"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%%"));
        assert!(like_match("a%b", "a%b"));
        // `%` stays a wildcard where the text itself holds a `%`.
        assert!(like_match("%a", "%"));
        assert!(like_match("50%", "%0%"));
        // `_` is one Unicode scalar, not one byte.
        assert!(like_match("héllo", "h_llo"));
        assert!(!like_match("héllo", "h__llo"));
        assert!(like_match("日本語", "_本%"));
        assert!(like_match("日本語", "%語"));
        assert!(!like_match("日本語", "%本"));
    }

    #[test]
    fn like_expr_negation() {
        let e = Expr::Like {
            expr: Box::new(Expr::col(0, 0)),
            pattern: "a%".into(),
            negated: true,
        };
        assert!(!e.eval_predicate(&ctx(vec![Value::str("abc")])));
        assert!(e.eval_predicate(&ctx(vec![Value::str("xyz")])));
    }

    #[test]
    fn equi_join_detection() {
        let e = Expr::col(0, 1).eq(Expr::col(2, 0));
        let (a, b) = e.as_equi_join().unwrap();
        assert_eq!((a.table, a.column), (0, 1));
        assert_eq!((b.table, b.column), (2, 0));
        // same table: not a join
        assert!(Expr::col(1, 0).eq(Expr::col(1, 1)).as_equi_join().is_none());
        // non-eq: not a join
        assert!(Expr::col(0, 0).lt(Expr::col(1, 0)).as_equi_join().is_none());
    }

    #[test]
    fn tables_collection() {
        let e = Expr::col(0, 0)
            .eq(Expr::col(3, 1))
            .and(Expr::col(1, 0).gt(Expr::lit(5)));
        let s = e.tables();
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(1) && s.contains(3));
    }

    #[test]
    fn date_interval_arithmetic() {
        let d = |days: i64| Expr::Literal(Value::Date(days));
        let iv = |days: i64| Expr::Literal(Value::Interval(days));
        let empty = ctx(vec![]);
        assert_eq!(d(100).add(iv(30)).eval(&empty), Value::Date(130));
        assert_eq!(d(100).sub(iv(30)).eval(&empty), Value::Date(70));
        assert_eq!(iv(30).add(d(100)).eval(&empty), Value::Date(130));
        assert_eq!(d(130).sub(d(100)).eval(&empty), Value::Interval(30));
        assert_eq!(iv(30).add(iv(12)).eval(&empty), Value::Interval(42));
        assert_eq!(iv(30).mul(Expr::lit(3)).eval(&empty), Value::Interval(90));
        assert_eq!(Expr::lit(3).mul(iv(30)).eval(&empty), Value::Interval(90));
        // Off-lattice combinations are NULL, not panics.
        assert_eq!(d(100).add(d(1)).eval(&empty), Value::Null);
        assert_eq!(d(100).add(Expr::lit(1)).eval(&empty), Value::Null);
        assert_eq!(d(100).mul(iv(2)).eval(&empty), Value::Null);
        assert_eq!(iv(5).add(Expr::lit(0.5)).eval(&empty), Value::Null);
        // Comparisons go through sql_cmp: date < date works, date < int
        // is NULL (filtered by predicates).
        assert!(d(1).lt(d(2)).eval_predicate(&empty));
        assert!(!d(1).lt(Expr::lit(2)).eval_predicate(&empty));
        // A date shifted by an interval compares as a date.
        assert!(d(100).lt(d(80).add(iv(30))).eval_predicate(&empty));
        // Negated interval.
        let neg = Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(iv(7)),
        };
        assert_eq!(neg.eval(&empty), Value::Interval(-7));
    }

    #[test]
    fn is_null_expr() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::col(0, 0)),
            negated: false,
        };
        assert!(e.eval_predicate(&ctx(vec![Value::Null])));
        assert!(!e.eval_predicate(&ctx(vec![Value::Int(1)])));
    }
}
