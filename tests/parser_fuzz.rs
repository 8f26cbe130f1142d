//! The SQL parser never panics: arbitrary input against the JOB-like
//! catalog returns `Ok` or `Err`.
//!
//! Three generators feed `skinner_query::parse`: arbitrary byte strings
//! (decoded as lossy UTF-8), random sequences of SQL keywords, catalog
//! identifiers (bare and qualified), numbers, string quotes, operators
//! and parentheses, and valid JOB-like queries with tokens dropped,
//! repeated or replaced by random ones. The first covers the tokenizer;
//! the others reach deeper into the grammar. A panic is reported with
//! the input that caused it.
//!
//! Case counts honor `PROPTEST_CASES` (default 64); each case parses
//! [`INPUTS_PER_CASE`] inputs. Re-run a failure with `PROPTEST_SEED`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skinnerdb::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

const INPUTS_PER_CASE: usize = 64;

/// Keywords the parser knows, plus some it does not.
const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "AS", "ON", "GROUP", "BY", "ORDER", "ASC",
    "DESC", "LIMIT", "DISTINCT", "COUNT", "MIN", "MAX", "SUM", "AVG", "IN", "BETWEEN", "LIKE",
    "IS", "NULL", "TRUE", "FALSE", "DATE", "INTERVAL", "DAY", "DAYS", "JOIN", "HAVING", "UNION",
    "OFFSET", "CASE",
];

/// Numbers, including ones that overflow or do not parse.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "-1",
    "42",
    "3.5",
    "-0.0",
    "1e3",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "99999999999999999999999",
    "1.",
    ".5",
    "1e999",
    "0x10",
    "1..2",
];

/// Quotes, string literals (closed and not) and date strings.
const STRINGS: &[&str] = &[
    "'",
    "''",
    "'''",
    "'us'",
    "'f'",
    "'abc",
    "'%a%'",
    "'2020-01-01'",
    "'2020-13-45'",
    "'\u{e9}'",
    "\"",
    "\"t\"",
];

const SYMBOLS: &[&str] = &[
    "(", ")", "((", "))", ",", ".", ";", "*", "=", "<", "<=", ">", ">=", "<>", "!=", "!", "+", "-",
    "/", "%", "||",
];

/// Table names, their aliases and column names of the JOB-like catalog,
/// bare and qualified.
fn identifiers(catalog: &Catalog) -> Vec<String> {
    let mut out = vec!["t".into(), "mc".into(), "x".into(), "_".into()];
    for (name, table) in catalog.iter() {
        out.push(name.to_string());
        for col in table.schema().columns() {
            out.push(col.name.clone());
            out.push(format!("{name}.{}", col.name));
            out.push(format!("t.{}", col.name));
        }
    }
    out
}

fn catalog() -> &'static (Catalog, Vec<String>) {
    static CATALOG: OnceLock<(Catalog, Vec<String>)> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let catalog = skinnerdb::workloads::job::generate(0.01, 42).catalog;
        let ids = identifiers(&catalog);
        (catalog, ids)
    })
}

fn random_bytes(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..48usize);
    let bytes: Vec<u8> = (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            // Printable ASCII is where the tokenizer branches.
            0..=2 => rng.gen_range(0x20..0x7Fu8),
            _ => rng.gen_range(0..256u32) as u8,
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Valid queries over the JOB-like catalog, the seeds of mutation.
const VALID: &[&str] = &[
    "SELECT MIN(t.production_year) AS y FROM title t, movie_companies mc, company_name cn \
     WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND cn.country_code = 'us' \
     AND t.kind_id IN (1, 2) AND t.votes BETWEEN 10 AND 100",
    "SELECT n.gender, COUNT(*) AS c FROM title t, cast_info ci, name n \
     WHERE ci.movie_id = t.id AND ci.person_id = n.id AND NOT (n.gender = 'f' OR t.votes < 5) \
     GROUP BY n.gender ORDER BY c DESC LIMIT 3",
    "SELECT DISTINCT k.bucket FROM keyword k, movie_keyword mk \
     WHERE mk.keyword_id = k.id AND k.bucket IS NOT NULL AND k.id <> 7 LIMIT 5",
];

/// One random token.
fn token(rng: &mut SmallRng, ids: &[String]) -> String {
    let words = match rng.gen_range(0..6u32) {
        0 => KEYWORDS,
        1 | 2 => return ids[rng.gen_range(0..ids.len())].clone(),
        3 => NUMBERS,
        4 => STRINGS,
        _ => SYMBOLS,
    };
    words[rng.gen_range(0..words.len())].to_string()
}

fn random_tokens(rng: &mut SmallRng, ids: &[String]) -> String {
    let len = rng.gen_range(0..24usize);
    // Most statements start like a query, so the parser gets past it.
    let mut tokens: Vec<String> = Vec::new();
    if rng.gen_bool(0.8) {
        tokens.push("SELECT".into());
    }
    tokens.extend((0..len).map(|_| token(rng, ids)));
    // Sometimes glue tokens together, for the tokenizer.
    let mut sql = String::new();
    for t in tokens {
        sql.push_str(&t);
        if rng.gen_bool(0.8) {
            sql.push(' ');
        }
    }
    sql
}

fn mutated_query(rng: &mut SmallRng, ids: &[String]) -> String {
    let mut tokens: Vec<String> = VALID[rng.gen_range(0..VALID.len())]
        .split_whitespace()
        .map(String::from)
        .collect();
    for _ in 0..rng.gen_range(1..4u32) {
        let i = rng.gen_range(0..tokens.len());
        match rng.gen_range(0..3u32) {
            0 if tokens.len() > 1 => {
                tokens.remove(i);
            }
            1 => tokens.insert(i, tokens[i].clone()),
            _ => tokens[i] = token(rng, ids),
        }
    }
    tokens.join(" ")
}

proptest! {
    #[test]
    fn parse_never_panics(seed in any::<u64>()) {
        let (catalog, ids) = catalog();
        let udfs = UdfRegistry::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..INPUTS_PER_CASE {
            let sql = match rng.gen_range(0..3u32) {
                0 => random_bytes(&mut rng),
                1 => random_tokens(&mut rng, ids),
                _ => mutated_query(&mut rng, ids),
            };
            let parsed = catch_unwind(AssertUnwindSafe(|| parse(&sql, catalog, &udfs)));
            prop_assert!(parsed.is_ok(), "parse panicked on {sql:?}");
        }
    }
}
