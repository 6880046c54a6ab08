//! Table 1 of the paper, executed: SPIDER's candidate elimination on the
//! three-column example relation.
//!
//! The paper walks through columns A = {w, x, y, z}, B = {x, z},
//! C = {w, x, z}: sorting produces duplicate-free value lists, then the
//! synchronized sweep intersects candidate sets group by group until only
//! the valid INDs remain — B ⊆ A, B ⊆ C, C ⊆ A.
//!
//! Run with: `cargo run --release --example spider_walkthrough`

use muds_core::{profile, Algorithm, ProfilerConfig};
use muds_ind::{format_inds, spider};
use muds_table::Table;

fn main() {
    let table = Table::from_rows(
        "table1",
        &["A", "B", "C"],
        &[
            vec!["w", "z", "x"],
            vec!["w", "x", "x"],
            vec!["x", "z", "w"],
            vec!["y", "z", "z"],
            vec!["z", "z", "z"],
        ],
    )
    .expect("valid table");

    println!("sorted duplicate-free value lists (phase 1):");
    for (i, col) in table.columns().iter().enumerate() {
        println!("  {}: {:?}", table.column_names()[i], col.sorted_distinct_values());
    }

    // SPIDER publishes its work counters into the installed registry.
    let metrics = muds_obs::Metrics::new();
    let guard = metrics.install();
    let inds = spider(&table);
    drop(guard);
    let groups = metrics.drain_snapshot().counter("spider.groups_formed");
    println!("\ncomparison phase: {groups} value groups processed");
    println!("\nsurviving unary INDs (paper: B ⊆ A, B ⊆ C, C ⊆ A):");
    for line in format_inds(&inds, &table.column_names()) {
        println!("  {line}");
    }

    // The same INDs come out of the full holistic pipeline, where SPIDER
    // runs during the shared input scan.
    let result = profile(&table, Algorithm::Muds, &ProfilerConfig::default());
    assert_eq!(result.inds, inds);
    println!("\n(confirmed identical through the holistic MUDS pipeline)");
}
