//! Holistic data profiling: the MUDS algorithm and its competitors.
//!
//! This crate is the reproduction of the core contribution of *"Holistic
//! Data Profiling: Simultaneous Discovery of Various Metadata"* (Ehrlich et
//! al., EDBT 2016): algorithms that discover unary inclusion dependencies,
//! minimal unique column combinations, and minimal functional dependencies
//! **in one execution**, sharing I/O, data structures, and pruning
//! information across the three tasks.
//!
//! # Quick start
//!
//! ```
//! use muds_core::{profile, Algorithm, ProfilerConfig};
//! use muds_table::Table;
//!
//! let table = Table::from_rows(
//!     "people",
//!     &["id", "dept", "dept_head"],
//!     &[
//!         vec!["1", "cs", "dijkstra"],
//!         vec!["2", "cs", "dijkstra"],
//!         vec!["3", "ee", "shannon"],
//!     ],
//! ).unwrap();
//! let result = profile(&table, Algorithm::Muds, &ProfilerConfig::default());
//! // dept → dept_head is a minimal FD; id is the key.
//! assert!(result.fds.len() >= 2);
//! assert_eq!(result.minimal_uccs.len(), 1);
//! ```
//!
//! # Entry points
//!
//! * [`profile`] / [`profile_csv`] — Metanome-style uniform runner over any
//!   [`Algorithm`].
//! * [`muds`] — MUDS itself, under a [`MudsConfig`].
//! * [`holistic_fun`] — the §3.2 holistic baseline.
//! * [`baseline`] / [`baseline_csv`] — the sequential SPIDER → DUCC → FUN
//!   execution.
//!
//! The direct entry points return the bare [`Dependencies`]; their phase
//! timings and work counters land in the ambient `muds-obs` registry,
//! which [`profile`] drains into [`ProfileResult::phases`] and
//! [`ProfileResult::metrics`].

mod baseline;
mod holistic_fun;
mod incremental;
mod muds;
mod profiler;
mod serialize;

pub use baseline::{baseline, baseline_csv};
pub use holistic_fun::holistic_fun;
pub use incremental::{apply_incremental, IncrementalOutcome};
pub use muds::{muds, MudsConfig};
/// The JSON codec lives in `muds-obs`; re-exported for the wire format's
/// callers.
pub use muds_obs::json;
pub use profiler::{
    profile, profile_csv, Algorithm, Dependencies, Phase, ProfileResult, ProfilerConfig,
};
pub use serialize::{profile_from_json, profile_to_json, ProfilePayload};
// Re-exported so downstream layers (CLI, serve, check) consume the stats
// types without a direct muds-stats dependency.
pub use muds_stats::{
    detect_format, ColumnStats, FkCandidate, IdentifierCandidate, NumericStats, SemanticType,
    StatsProfile, ValueFormat, STATS_SCHEMA_VERSION,
};
