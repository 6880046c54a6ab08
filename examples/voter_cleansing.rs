//! Data-cleansing scenario: profiling an ncvoter-like registration table
//! and comparing the holistic algorithms on it — the dataset family the
//! paper uses for its MUDS phase analysis (Figure 8).
//!
//! A cleansing pipeline uses the metadata to define integrity rules: UCCs
//! become uniqueness constraints, FD chains (precinct → municipality →
//! county → district) become consistency checks, and violations after
//! future inserts indicate dirty data.
//!
//! Run with: `cargo run --release --example voter_cleansing`

use muds_core::{profile, Algorithm, ProfilerConfig};
use muds_datagen::ncvoter_like;

fn main() {
    let table = ncvoter_like(2_000, 12);
    let names = table.column_names();
    println!(
        "profiling {:?} ({} rows x {} columns)\n",
        table.name(),
        table.num_rows(),
        table.num_columns()
    );

    // All three pipelines; the holistic ones share scan + PLIs.
    let config = ProfilerConfig::default();
    let seq = profile(&table, Algorithm::Baseline, &config);
    let hfun = profile(&table, Algorithm::HolisticFun, &config);
    let report = profile(&table, Algorithm::Muds, &config);

    assert_eq!(seq.fds.to_sorted_vec(), hfun.fds.to_sorted_vec());
    assert_eq!(hfun.fds.to_sorted_vec(), report.fds.to_sorted_vec());

    println!("uniqueness constraints to enforce (minimal UCCs):");
    for ucc in report.minimal_uccs.iter().take(8) {
        let cols: Vec<&str> = ucc.iter().map(|c| names[c]).collect();
        println!("  UNIQUE ({})", cols.join(", "));
    }
    if report.minimal_uccs.len() > 8 {
        println!("  ... and {} more", report.minimal_uccs.len() - 8);
    }

    println!("\njurisdiction consistency rules (FD chain):");
    for fd in report.fds.to_sorted_vec() {
        if fd.lhs.cardinality() == 1 {
            let src = fd.lhs.min_col().expect("single column");
            if names[src] == "precinct" || names[src] == "municipality" || names[src] == "county" {
                println!("  CHECK: {} determines {}", names[src], names[fd.rhs]);
            }
        }
    }

    println!("\nruntime comparison on this table:");
    println!("  sequential baseline : {:?}", seq.total_time());
    println!("  Holistic FUN        : {:?}", hfun.total_time());
    println!("  MUDS                : {:?}", report.total_time());
    println!("\nMUDS phase breakdown:");
    for phase in &report.phases {
        println!("  {:<28} {:?}", phase.name, phase.duration);
    }
}
