//! Position list indexes (stripped partitions) and the shared PLI cache.
//!
//! The partition machinery behind UCC and FD discovery: see [`Pli`] for the
//! data structure and refinement checks, and [`PliCache`] for the memoized
//! provider shared across the holistic algorithm's tasks (§3 of the paper).

mod agree;
mod cache;
mod pli;
mod witness;

pub use agree::{agree_sets, maximal_sets};
pub use cache::PliCache;
pub use pli::{Pli, RowId};
pub use witness::AppendProbe;
