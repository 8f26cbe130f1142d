//! Scalar values and their types.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The type of a column or scalar value.
///
/// The temporal types form a small lattice on top of a single physical
/// representation: a [`Date`](ValueType::Date) is a day count since
/// 1970-01-01 and an [`Interval`](ValueType::Interval) is a day span,
/// both stored as `i64`. Dates compare and join only with dates,
/// intervals only with intervals; arithmetic mixes them
/// (`Date - Date → Interval`, `Date ± Interval → Date`,
/// `Interval ± Interval → Interval`, `Interval × Int → Interval`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Dictionary-encoded UTF-8 string.
    Str,
    /// Calendar date (days since 1970-01-01, proleptic Gregorian).
    Date,
    /// Day interval (a span of whole days).
    Interval,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "INT"),
            ValueType::Float => write!(f, "FLOAT"),
            ValueType::Str => write!(f, "TEXT"),
            ValueType::Date => write!(f, "DATE"),
            ValueType::Interval => write!(f, "INTERVAL"),
        }
    }
}

/// Days since 1970-01-01 for a proleptic-Gregorian `(year, month, day)`
/// (Howard Hinnant's `days_from_civil`). Months are 1..=12, days 1..=31;
/// out-of-range inputs wrap arithmetically rather than erroring (callers
/// validate at parse time via [`parse_date`]).
pub fn days_from_ymd(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_ymd`]: `(year, month, day)` for a day count.
pub(crate) fn ymd_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Parse an ISO `YYYY-MM-DD` date into a day count, validating the
/// calendar (month 1..=12, day within the month's length).
pub fn parse_date(s: &str) -> Option<i64> {
    let mut it = s.splitn(3, '-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || d == 0 {
        return None;
    }
    let days = days_from_ymd(y, m, d);
    // Round-trip check rejects out-of-range days (e.g. Feb 30).
    (ymd_from_days(days) == (y, m, d)).then_some(days)
}

/// A dynamically typed scalar value.
///
/// Values only materialize at the *edges* of the system: predicate
/// constants, UDF arguments, and final result rows. The execution engines
/// work on raw column vectors and tuple indices (§4.5 of the paper:
/// "we describe tuples simply by an array of tuple indices").
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string (shared; rows referencing the same dictionary entry
    /// share one allocation).
    Str(Arc<str>),
    /// Calendar date as days since 1970-01-01.
    Date(i64),
    /// Interval as a span of whole days.
    Interval(i64),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric content widened to `f64` (ints convert losslessly up to
    /// 2^53; fine for the benchmark data volumes in this system).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL truthiness: NULL and zero are false.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Date(_) => true,
            Value::Interval(d) => *d != 0,
        }
    }

    /// Three-valued-logic equality: NULL compared to anything is `None`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Three-valued-logic comparison. Numeric types compare numerically
    /// (Int vs Float widens); strings compare lexicographically; dates
    /// compare only with dates and intervals only with intervals; any
    /// other mixed comparison yields `None` (treated as NULL).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Date(a), Value::Date(b)) | (Value::Interval(a), Value::Interval(b)) => {
                Some(a.cmp(b))
            }
            (Value::Date(_), _)
            | (_, Value::Date(_))
            | (Value::Interval(_), _)
            | (_, Value::Interval(_)) => None,
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(days) => {
                let (y, m, d) = ymd_from_days(*days);
                write!(f, "{y:04}-{m:02}-{d:02}")
            }
            Value::Interval(d) => write!(f, "{d} days"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Int(v as i64)
    }
}

/// Equality used by tests and result comparison: NULL == NULL here
/// (unlike SQL three-valued logic, which is available via [`Value::sql_eq`]).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Date(a), Value::Date(b)) | (Value::Interval(a), Value::Interval(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

impl Eq for Value {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_strings() {
        assert_eq!(
            Value::str("abc").sql_cmp(&Value::str("abd")),
            Some(Ordering::Less)
        );
        // string vs number is NULL, not a panic
        assert_eq!(Value::str("1").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(!Value::str("").is_truthy());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }

    #[test]
    fn eq_nan_and_cross_type() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::str("3"));
    }

    #[test]
    fn civil_date_roundtrip() {
        assert_eq!(days_from_ymd(1970, 1, 1), 0);
        assert_eq!(days_from_ymd(1970, 1, 2), 1);
        assert_eq!(days_from_ymd(1969, 12, 31), -1);
        assert_eq!(days_from_ymd(2000, 3, 1), 11017);
        for days in [-1_000_000, -1, 0, 1, 59, 60, 365, 11017, 1_000_000] {
            let (y, m, d) = ymd_from_days(days);
            assert_eq!(days_from_ymd(y, m, d), days, "roundtrip {days}");
        }
        // Leap-year rules: 2000 is a leap year, 1900 is not.
        assert_eq!(
            days_from_ymd(2000, 3, 1) - days_from_ymd(2000, 2, 28),
            2,
            "2000 has Feb 29"
        );
        assert_eq!(
            days_from_ymd(1900, 3, 1) - days_from_ymd(1900, 2, 28),
            1,
            "1900 has no Feb 29"
        );
    }

    #[test]
    fn parse_date_validates() {
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("2019-03-04"), Some(days_from_ymd(2019, 3, 4)));
        assert_eq!(parse_date("2019-02-29"), None); // not a leap year
        assert_eq!(parse_date("2020-02-29"), Some(days_from_ymd(2020, 2, 29)));
        assert_eq!(parse_date("2019-13-01"), None);
        assert_eq!(parse_date("2019-00-01"), None);
        assert_eq!(parse_date("2019-01-00"), None);
        assert_eq!(parse_date("garbage"), None);
    }

    #[test]
    fn date_interval_lattice() {
        let a = Value::Date(days_from_ymd(2019, 3, 4));
        let b = Value::Date(days_from_ymd(2019, 3, 14));
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less));
        assert_eq!(a.sql_eq(&a.clone()), Some(true));
        // Dates never compare with numbers or strings.
        assert_eq!(a.sql_cmp(&Value::Int(17959)), None);
        assert_eq!(a.sql_cmp(&Value::str("2019-03-04")), None);
        // Intervals compare only with intervals.
        assert_eq!(
            Value::Interval(3).sql_cmp(&Value::Interval(10)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Interval(3).sql_cmp(&Value::Int(3)), None);
        assert_eq!(a.sql_cmp(&Value::Interval(3)), None);
        // Display.
        assert_eq!(a.to_string(), "2019-03-04");
        assert_eq!(Value::Interval(90).to_string(), "90 days");
        // Type tags.
        assert_eq!(ValueType::Date.to_string(), "DATE");
    }
}
