//! Unique column combination discovery.
//!
//! [`ducc`] is the paper's UCC algorithm (§2.2): a random-walk lattice
//! traversal with two-sided pruning and hole filling via the hitting-set
//! duality. [`apriori_uccs`] is the level-wise column-based baseline and
//! [`naive_minimal_uccs`] the exponential testing oracle.

mod apriori;
mod ducc;
mod naive;

pub use apriori::apriori_uccs;
pub use ducc::{ducc, DuccResult};
pub use naive::{is_unique, naive_minimal_uccs};
