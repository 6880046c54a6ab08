//! `muds-serve`: a long-running profiling daemon.
//!
//! The batch pipeline (`mudsprof profile`) pays the full cost of reading,
//! encoding, and profiling a dataset on every invocation. This crate turns
//! the profiler into a *service* with three ideas layered on top of the
//! existing algorithms:
//!
//! 1. **Dataset registry** ([`Registry`]) — datasets register once (from a
//!    server-side path or an uploaded CSV body) and are stored
//!    content-addressed by [`muds_table::Fingerprint`]: identical data is
//!    stored once, whatever it is named.
//! 2. **Result cache** ([`ResultCache`]) — profiling results are cached
//!    under `(fingerprint, algorithm, config)` with an LRU byte budget and
//!    single-flight dedup: N concurrent identical requests cost exactly one
//!    profiling run.
//! 3. **Job scheduler** ([`Scheduler`]) — a bounded queue in front of a
//!    fixed worker pool, with explicit backpressure (429), queued-job
//!    expiry, and graceful shutdown that drains in-flight work.
//!
//! The HTTP surface (std-only HTTP/1.1, [`http`]) is documented on
//! [`server`]. Start one with:
//!
//! ```no_run
//! use muds_serve::{ServeConfig, Server};
//! let server = Server::bind(ServeConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run().unwrap();
//! ```

// The daemon's only front end is an epoll reactor.
#[cfg(not(target_os = "linux"))]
compile_error!("muds-serve requires Linux: its front end is an epoll reactor");

pub mod cache;
pub mod http;
pub mod metrics;
pub mod persist;
mod reactor;
pub mod registry;
pub mod scheduler;
pub mod server;
mod sync;

pub use cache::{Begin, CacheKey, Flight, ResultCache};
pub use metrics::ServeMetrics;
pub use persist::{Persist, Recovered};
pub use registry::{DatasetInfo, Registry};
pub use scheduler::{JobRecord, JobSpec, JobStatus, QueueFull, Scheduler};
pub use server::{ServeConfig, Server, ServerState};
