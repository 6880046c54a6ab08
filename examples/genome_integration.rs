//! Data-integration scenario from the paper's introduction: genome-style
//! datasets from different sources need to be linked, which requires
//! knowing keys (UCCs), join candidates (INDs), and redundancies (FDs) *at
//! the same time* — the motivating case for holistic profiling.
//!
//! This example profiles a generated uniprot-like protein table, then uses
//! the discovered metadata the way an integration pipeline would:
//! * minimal UCCs → candidate record identifiers for linkage;
//! * INDs → columns that can serve as foreign-key join paths;
//! * FDs → annotation columns derivable from others (safe to drop when
//!   normalizing).
//!
//! Run with: `cargo run --release --example genome_integration`

use muds_core::{profile, Algorithm, ProfilerConfig};
use muds_datagen::uniprot_like;

fn main() {
    let table = uniprot_like(5_000, 10);
    let names = table.column_names();
    println!(
        "profiling {:?} ({} rows x {} columns)...\n",
        table.name(),
        table.num_rows(),
        table.num_columns()
    );

    let report = profile(&table, Algorithm::Muds, &ProfilerConfig::default());

    println!("candidate record identifiers (minimal UCCs):");
    for ucc in &report.minimal_uccs {
        let cols: Vec<&str> = ucc.iter().map(|c| names[c]).collect();
        println!("  {{{}}}", cols.join(", "));
    }

    println!("\njoin-path candidates (inclusion dependencies):");
    if report.inds.is_empty() {
        println!("  (none)");
    }
    for ind in &report.inds {
        println!("  {} values all appear in {}", names[ind.dependent], names[ind.referenced]);
    }

    // Columns functionally determined by a single other column are
    // denormalization artifacts: list them with their source.
    println!("\nderivable annotation columns (single-column FDs):");
    let mut any = false;
    for fd in report.fds.to_sorted_vec() {
        if fd.lhs.cardinality() == 1 && !report.minimal_uccs.iter().any(|u| u.is_subset_of(&fd.lhs))
        {
            let src = fd.lhs.min_col().expect("single column");
            println!("  {} is determined by {}", names[fd.rhs], names[src]);
            any = true;
        }
    }
    if !any {
        println!("  (none)");
    }

    println!(
        "\ndiscovered {} INDs, {} minimal UCCs, {} minimal FDs in {:?}",
        report.inds.len(),
        report.minimal_uccs.len(),
        report.fds.len(),
        report.total_time()
    );
}
