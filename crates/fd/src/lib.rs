//! Functional dependency discovery.
//!
//! [`tane`] and [`fun`] are the two classic level-wise algorithms the paper
//! evaluates (§2.3, §6.3); FUN doubles as **Holistic FUN** (§3.2) because it
//! reports the minimal UCCs it necessarily traverses. [`naive_minimal_fds`]
//! is the exponential testing oracle. The MUDS FD phases live in
//! `muds-core`, built on the same [`FdSet`] representation.

mod approximate;
mod depminer;
mod fun;
mod naive;
mod tane;
mod types;

pub use approximate::{approximate_fds, g3_error};
pub use depminer::{agree_set_uccs, depminer_fds};
pub use fun::{fun, FunResult};
pub use naive::{holds, naive_minimal_fds};
pub use tane::{tane, TaneResult};
pub use types::{Fd, FdSet};
