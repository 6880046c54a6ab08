//! Lattice machinery for holistic data profiling.
//!
//! This crate provides the search-space data structures shared by every
//! discovery algorithm in the workspace (the reproduction of *"Holistic
//! Data Profiling: Simultaneous Discovery of Various Metadata"*, EDBT 2016):
//!
//! * [`ColumnSet`] — a 256-bit column-index bitset; nodes of the attribute
//!   lattice (Figure 1 of the paper).
//! * [`SetTrie`] — the prefix tree of §5.4 with subset and superset
//!   (connector look-up) queries, plus the [`MinimalSetFamily`] /
//!   [`MaximalSetFamily`] antichain maintainers built on it.
//! * [`minimal_hitting_sets`] — MMCS hypergraph dualization, the basis of
//!   DUCC's "hole" detection.
//! * [`find_minimal_positives`] — the generic DUCC-style random walk over a
//!   [`MonotoneOracle`], reused by MUDS' per-right-hand-side sub-lattice
//!   traversal (§5.2).
//! * [`apriori_gen`] — level-wise candidate generation for TANE, FUN and
//!   the level-wise UCC baseline.

mod column_set;
mod hitting_set;
mod level;
mod set_trie;
mod walk;

pub use column_set::{ColumnIter, ColumnSet, MAX_COLUMNS};
pub use hitting_set::{complement_family, minimal_hitting_sets};
pub use level::{apriori_gen, first_level};
pub use set_trie::{MaximalSetFamily, MinimalSetFamily, SetTrie};
pub use walk::{find_minimal_positives, MonotoneOracle, WalkResult};
