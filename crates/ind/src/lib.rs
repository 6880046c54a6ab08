//! Unary inclusion dependency discovery.
//!
//! [`spider`] is the paper's IND algorithm of choice (§2.1); the holistic
//! pipelines run it while the input is being read, sharing I/O and the
//! sorted dictionaries produced for PLI construction. [`inverted_index_inds`]
//! is the De Marchi baseline and [`naive_inds`] the quadratic testing oracle.

mod inverted;
mod naive;
mod nary;
mod spider;
mod types;

pub use inverted::inverted_index_inds;
pub use naive::naive_inds;
pub use nary::{nary_ind_holds, nary_inds, NaryInd};
pub use spider::spider;
pub use types::{format_inds, Ind};
