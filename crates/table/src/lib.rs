//! Relational table substrate for holistic data profiling.
//!
//! Provides the input representation shared by every algorithm in the
//! workspace: a column-oriented, dictionary-encoded [`Table`] plus CSV I/O.
//! The dictionary encoding is the paper's "shared data structure" (§3): it
//! simultaneously feeds PLI construction (UCC/FD discovery) and SPIDER's
//! sorted duplicate-free value lists (IND discovery), so the input is read
//! and decoded exactly once for all three tasks.

mod column;
mod csv;
mod delta;
mod error;
mod fingerprint;
mod table;

pub use column::Column;
pub use csv::{
    parse_csv_records, table_from_csv, table_from_csv_bytes, table_from_csv_file, table_to_csv,
    table_to_csv_file, CsvOptions, CsvRecord,
};
pub use delta::{DeltaOutcome, TableDelta};
pub use error::TableError;
pub use fingerprint::{fingerprint, Fingerprint};
pub use table::{Table, MAX_COLUMNS};
