//! User-defined functions: black-box predicates and scalar functions.
//!
//! UDF predicates "may hide complex code, invocations of external
//! services, or even calls to human crowd workers" (paper appendix) and
//! must be treated as opaque by any optimizer. They are the scenario where
//! SkinnerDB's learn-during-execution approach shines (Figure 9, the
//! TPC-H/UDF variant in Figure 13/Table 7).
//!
//! A [`Udf`] carries an optional `cost_hint`: an abstract amount of extra
//! work per invocation that `Udf::call` actually performs (a checked
//! arithmetic spin loop), so that expensive predicates are expensive for
//! *every* engine in the benchmark suite, uniformly.
//!
//! Every UDF counts its invocations ([`Udf::call_count`]), an
//! engine-independent effort metric that tests read. `Udf::call` counts
//! each call. The hot loops — the compiled join kernel and a bound
//! predicate's filter scan — call `Udf::call_uncounted`, tally the calls
//! in a plain local counter, and add the tally once with
//! [`Udf::add_calls`] when the slice or scan returns or unwinds. So the
//! count is exact whenever no kernel slice or filter scan is running.

use skinner_storage::Value;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type UdfFn = dyn Fn(&[Value]) -> Value + Send + Sync;

/// A named, opaque scalar function.
pub struct Udf {
    /// Function name as referenced from SQL.
    pub(crate) name: String,
    /// Abstract per-invocation cost (work units burned by `Udf::call`).
    pub(crate) cost_hint: u32,
    func: Box<UdfFn>,
    calls: AtomicU64,
}

impl fmt::Debug for Udf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Udf")
            .field("name", &self.name)
            .field("cost_hint", &self.cost_hint)
            .field("calls", &self.calls.load(Ordering::Relaxed))
            .finish()
    }
}

impl Udf {
    /// Define a UDF with zero extra cost.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> Arc<Udf> {
        Udf::with_cost(name, 0, f)
    }

    /// Define a UDF that burns `cost_hint` abstract work units per call.
    pub fn with_cost(
        name: impl Into<String>,
        cost_hint: u32,
        f: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> Arc<Udf> {
        Arc::new(Udf {
            name: name.into(),
            cost_hint,
            func: Box::new(f),
            calls: AtomicU64::new(0),
        })
    }

    /// Invoke the UDF (counts the call and burns `cost_hint` work units).
    pub(crate) fn call(&self, args: &[Value]) -> Value {
        self.add_calls(1);
        self.call_uncounted(args)
    }

    /// Invoke the UDF without counting the call: the caller tallies its
    /// calls and adds them with [`Udf::add_calls`] (see the module doc).
    /// Inlined into the hot loops; the cost burn stays out of line.
    #[inline]
    pub(crate) fn call_uncounted(&self, args: &[Value]) -> Value {
        if self.cost_hint > 0 {
            burn(self.cost_hint);
        }
        (self.func)(args)
    }

    /// Add `n` invocations made with `Udf::call_uncounted` to the count.
    #[inline]
    pub fn add_calls(&self, n: u64) {
        self.calls.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of invocations so far. Exact whenever no compiled kernel
    /// slice or filter scan that calls this UDF is running: both add
    /// their tally when they return, and also when a call unwinds.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Burn `cost` deterministic work units, so expensive UDFs cost
/// wall-clock time in every engine; `black_box` prevents removal.
#[inline(never)]
fn burn(cost: u32) {
    let mut acc = 0u64;
    for i in 0..cost {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
    }
    std::hint::black_box(acc);
}

/// A registry resolving UDF names for the SQL parser.
#[derive(Default, Clone)]
pub struct UdfRegistry {
    udfs: Vec<Arc<Udf>>,
}

impl fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UdfRegistry({} udfs)", self.udfs.len())
    }
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Register a UDF (later registrations shadow earlier ones by name).
    pub fn register(&mut self, udf: Arc<Udf>) {
        self.udfs.push(udf);
    }

    /// Resolve a UDF by (case-insensitive) name.
    pub(crate) fn get(&self, name: &str) -> Option<Arc<Udf>> {
        self.udfs
            .iter()
            .rev()
            .find(|u| u.name.eq_ignore_ascii_case(name))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ColRef, Expr};

    #[test]
    fn call_and_count() {
        let u = Udf::new("is_even", |args| {
            Value::from(args[0].as_int().is_some_and(|i| i % 2 == 0))
        });
        assert_eq!(u.call(&[Value::Int(4)]), Value::Int(1));
        assert_eq!(u.call(&[Value::Int(5)]), Value::Int(0));
        assert_eq!(u.call_count(), 2);

        // Through `Expr::eval`, for every argument count: arguments
        // arrive in order and each evaluation is exactly one call.
        let digits = Udf::new("digits", |args| {
            Value::Int(args.iter().fold(0, |acc, a| acc * 10 + a.as_int().unwrap()))
        });
        let ctx = |c: ColRef| Value::Int(c.column as i64 + 1);
        for (arity, want) in [(0, 0), (1, 1), (2, 12), (3, 123), (4, 1234)] {
            let e = Expr::Udf {
                udf: Arc::clone(&digits),
                args: (0..arity).map(|c| Expr::col(0, c)).collect(),
            };
            assert_eq!(e.eval(&ctx), Value::Int(want), "{arity} arguments");
            assert_eq!(digits.call_count(), arity as u64 + 1);
        }
        // A UDF argument is its own call, evaluated before the outer one.
        let nested = Expr::Udf {
            udf: Arc::clone(&digits),
            args: vec![
                Expr::Udf {
                    udf: Arc::clone(&digits),
                    args: vec![Expr::col(0, 1), Expr::col(0, 2)],
                },
                Expr::col(0, 0),
            ],
        };
        assert_eq!(nested.eval(&ctx), Value::Int(231));
        assert_eq!(digits.call_count(), 7);
    }

    #[test]
    fn cost_hint_burns_work() {
        let u = Udf::with_cost("slow", 1000, |_| Value::Int(1));
        assert_eq!(u.call(&[]), Value::Int(1));
        assert_eq!(u.cost_hint, 1000);
    }

    #[test]
    fn registry_lookup_case_insensitive_and_shadowing() {
        let mut r = UdfRegistry::new();
        r.register(Udf::new("f", |_| Value::Int(1)));
        r.register(Udf::new("F", |_| Value::Int(2)));
        assert_eq!(r.get("f").unwrap().call(&[]), Value::Int(2));
        assert!(r.get("g").is_none());
        assert_eq!(r.udfs.iter().map(|u| u.call_count()).sum::<u64>(), 1);
    }
}
