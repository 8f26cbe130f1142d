//! Quickstart: build a catalog, run SQL through every SkinnerDB variant.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use skinnerdb::prelude::*;
use std::sync::Arc;

fn main() {
    // --- 1. Build a small catalog -------------------------------------
    let mut catalog = Catalog::new();
    catalog
        .register(
            Table::new(
                "users",
                Schema::new([
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("name", ValueType::Str),
                    ColumnDef::new("age", ValueType::Int),
                ]),
                vec![
                    Column::from_ints((0..1000).collect()),
                    Column::from_strs((0..1000).map(|i| format!("user{i}"))),
                    Column::from_ints((0..1000).map(|i| 18 + i % 60).collect()),
                ],
            )
            .expect("users table"),
        )
        .is_none()
        .then_some(())
        .expect("fresh catalog");
    catalog.register(
        Table::new(
            "orders",
            Schema::new([
                ColumnDef::new("user_id", ValueType::Int),
                ColumnDef::new("amount", ValueType::Float),
                ColumnDef::new("status", ValueType::Str),
            ]),
            vec![
                Column::from_ints((0..5000).map(|i| (i * 7) % 1000).collect()),
                Column::from_floats((0..5000).map(|i| (i % 500) as f64 / 10.0).collect()),
                Column::from_strs((0..5000).map(|i| if i % 5 == 0 { "open" } else { "done" })),
            ],
        )
        .expect("orders table"),
    );

    // --- 2. Parse a SQL query -----------------------------------------
    let sql = "SELECT u.age, COUNT(*) AS n, SUM(o.amount) AS total \
               FROM users u, orders o \
               WHERE u.id = o.user_id AND o.status = 'open' AND u.age BETWEEN 30 AND 40 \
               GROUP BY u.age ORDER BY total DESC LIMIT 5";
    let query = parse(sql, &catalog, &UdfRegistry::new()).expect("valid SQL");
    println!("query: {sql}\n");

    // --- 3. Execute with Skinner-C --------------------------------------
    let db = SkinnerDB::skinner_c(SkinnerCConfig::default());
    let result = db.execute(&query);
    println!(
        "Skinner-C ({} slices, learned order {:?}):",
        result.stats.slices,
        result.stats.final_order.as_deref().unwrap_or(&[])
    );
    println!("{}", result.table);

    // --- 4. The same query through Skinner-G and Skinner-H --------------
    let engine = Arc::new(ColEngine::new());
    for (label, db) in [
        (
            "Skinner-G(columnar engine)",
            SkinnerDB::skinner_g(engine.clone()),
        ),
        (
            "Skinner-H(columnar engine)",
            SkinnerDB::skinner_h(engine.clone()),
        ),
    ] {
        let r = db.execute(&query);
        assert!(r.table.same_rows(&result.table), "{label} result mismatch");
        println!("{label}: identical result in {:?}", r.stats.total);
    }

    // --- 5. And directly on a traditional engine for comparison ---------
    let r = run_engine(engine.as_ref(), &query, &ExecOptions::default());
    assert!(r.table.same_rows(&result.table));
    println!(
        "traditional engine: identical result in {:?} (C_out = {})",
        r.stats.total,
        r.stats.cout.unwrap_or(0)
    );
}
