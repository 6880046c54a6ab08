//! Concurrent job scheduler: a bounded queue in front of a fixed pool of
//! worker threads that execute profiling runs.
//!
//! Backpressure is explicit: [`Scheduler::submit`] fails immediately when
//! the queue is full, which the HTTP layer turns into `429 Too Many
//! Requests` + `Retry-After`. Each job carries a deadline; a job whose
//! deadline passes *while still queued* is cancelled without running
//! (its flight resolves with an error, so waiters fail fast instead of
//! paying for a computation nobody is waiting on). Jobs already running are
//! never killed — a client that stops waiting gets `202 Accepted`, the run
//! completes detached, and the result lands in the cache for the retry.
//!
//! Job-level concurrency is the daemon's only parallelism: each worker
//! runs its jobs inside [`rayon::run_inline`], so a job's per-column and
//! lattice fan-outs run on the worker itself instead of multiplying
//! `--workers` by freshly spawned threads on the same cores. Results are
//! unchanged (the fan-outs are order-preserving for any thread count).
//! Because the ambient `muds-obs` registry is thread-local and workers
//! install none, every `profile()` call gets a private registry — job
//! metrics never bleed into each other or into the server counters.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use muds_core::{profile, profile_to_json, Algorithm, ProfilerConfig};
use muds_table::Table;

use crate::cache::{CacheKey, Flight, ResultCache};
use crate::metrics::ServeMetrics;
use crate::sync::{cond_wait, lock};

/// Everything a worker needs to run one profiling job.
pub struct JobSpec {
    /// Dataset name for the response document.
    pub dataset: String,
    pub table: Arc<Table>,
    pub algorithm: Algorithm,
    pub config: ProfilerConfig,
    pub key: CacheKey,
    /// Trace id of the request that submitted this job (propagated
    /// `X-Muds-Trace` or server-minted), surfaced by `GET /jobs/:id`.
    pub trace: String,
}

/// Lifecycle of a job, as reported by `GET /jobs/:id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    Queued,
    Running,
    Done,
    /// Deadline passed while the job was still queued; it never ran.
    Expired,
    Failed(String),
}

impl JobStatus {
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Expired => "expired",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// Public view of a job's bookkeeping.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub id: u64,
    pub dataset: String,
    pub algorithm: Algorithm,
    pub status: JobStatus,
    /// Trace id of the submitting request.
    pub trace: String,
}

struct Job {
    id: u64,
    spec: JobSpec,
    flight: Arc<Flight>,
    deadline: Option<Instant>,
}

struct Inner {
    queue: VecDeque<Job>,
    jobs: HashMap<u64, JobRecord>,
    /// Finished job ids, oldest first, for bounded record retention.
    finished: VecDeque<u64>,
    next_id: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    wake: Condvar,
    queue_capacity: usize,
    shutdown: AtomicBool,
    cache: Arc<ResultCache>,
    metrics: Arc<ServeMetrics>,
}

/// How many finished job records `GET /jobs/:id` can still see.
const FINISHED_RETENTION: usize = 1024;

/// Returned by [`Scheduler::submit`] when the queue is at capacity.
#[derive(Debug)]
pub struct QueueFull;

/// The scheduler. Dropping it does *not* stop workers; call
/// [`Scheduler::shutdown`] to drain and join.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns `workers` worker threads over a queue of `queue_capacity`.
    /// Fails with the OS error if a worker thread cannot be spawned;
    /// already-spawned workers are shut down before returning.
    pub fn new(
        workers: usize,
        queue_capacity: usize,
        cache: Arc<ResultCache>,
        metrics: Arc<ServeMetrics>,
    ) -> std::io::Result<Scheduler> {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                finished: VecDeque::new(),
                next_id: 0,
            }),
            wake: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            shutdown: AtomicBool::new(false),
            cache,
            metrics,
        });
        let mut handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("muds-serve-worker-{i}"))
                .spawn(move || rayon::run_inline(|| worker_loop(worker_shared)));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    shared.shutdown.store(true, Ordering::Release);
                    shared.wake.notify_all();
                    for handle in handles {
                        // lint:allow(swallowed-result): already unwinding
                        // from the spawn error; a worker panic here must
                        // not mask it.
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Scheduler { shared, workers: Mutex::new(handles) })
    }

    /// Enqueues a job. Fails with [`QueueFull`] (→ 429) when the queue is
    /// at capacity or the scheduler is shutting down.
    pub fn submit(
        &self,
        spec: JobSpec,
        flight: Arc<Flight>,
        deadline: Option<Instant>,
    ) -> Result<u64, QueueFull> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            self.shared.metrics.jobs_rejected.inc();
            return Err(QueueFull);
        }
        let mut inner = lock(&self.shared.inner);
        if inner.queue.len() >= self.shared.queue_capacity {
            self.shared.metrics.jobs_rejected.inc();
            return Err(QueueFull);
        }
        inner.next_id += 1;
        let id = inner.next_id;
        flight.set_job_id(id);
        inner.jobs.insert(
            id,
            JobRecord {
                id,
                dataset: spec.dataset.clone(),
                algorithm: spec.algorithm,
                status: JobStatus::Queued,
                trace: spec.trace.clone(),
            },
        );
        inner.queue.push_back(Job { id, spec, flight, deadline });
        self.shared.metrics.jobs_submitted.inc();
        self.shared.metrics.queue_depth.set(inner.queue.len() as i64);
        drop(inner);
        self.shared.wake.notify_one();
        Ok(id)
    }

    /// Bookkeeping for a job id, if still retained.
    pub fn status(&self, id: u64) -> Option<JobRecord> {
        lock(&self.shared.inner).jobs.get(&id).cloned()
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.inner).queue.len()
    }

    /// Earliest deadline among queued jobs — the moment the queue is next
    /// guaranteed to free a slot (that job either starts or expires).
    /// `None` when the queue is empty or holds only deadline-less jobs.
    pub fn earliest_deadline(&self) -> Option<Instant> {
        lock(&self.shared.inner).queue.iter().filter_map(|j| j.deadline).min()
    }

    /// Stops accepting new jobs, drains everything already queued, and
    /// joins the workers. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for handle in handles {
            // lint:allow(swallowed-result): a worker that panicked already
            // printed its panic; shutdown must still join the rest.
            let _ = handle.join();
        }
    }
}

/// `Retry-After` seconds until `deadline`, clamped to at least 1.
///
/// Whole-second truncation means a deadline under a second away (or
/// already past) would otherwise render as `Retry-After: 0`, which many
/// clients treat as "retry immediately" — turning backpressure into a
/// busy-loop against a full queue. The clamp keeps the header honest.
pub fn retry_after_secs(deadline: Option<Instant>) -> u64 {
    match deadline {
        Some(deadline) => deadline.saturating_duration_since(Instant::now()).as_secs().max(1),
        None => 1,
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut inner = lock(&shared.inner);
            loop {
                if let Some(job) = inner.queue.pop_front() {
                    shared.metrics.queue_depth.set(inner.queue.len() as i64);
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                inner = cond_wait(&shared.wake, inner);
            }
        };
        run_job(&shared, job);
    }
}

fn finish(shared: &Shared, id: u64, status: JobStatus) {
    let mut inner = lock(&shared.inner);
    if let Some(record) = inner.jobs.get_mut(&id) {
        record.status = status;
    }
    inner.finished.push_back(id);
    while inner.finished.len() > FINISHED_RETENTION {
        if let Some(old) = inner.finished.pop_front() {
            inner.jobs.remove(&old);
        }
    }
}

fn run_job(shared: &Shared, job: Job) {
    let Job { id, spec, flight, deadline } = job;
    if let Some(deadline) = deadline {
        if Instant::now() >= deadline {
            shared.metrics.jobs_expired.inc();
            // Bookkeeping first: anyone woken by the flight must already
            // see the final job status.
            finish(shared, id, JobStatus::Expired);
            shared.cache.abort(&spec.key, &flight, "job expired before it could run");
            return;
        }
    }
    {
        let mut inner = lock(&shared.inner);
        if let Some(record) = inner.jobs.get_mut(&id) {
            record.status = JobStatus::Running;
        }
    }
    shared.metrics.jobs_running.add(1);
    let started = Instant::now();
    // No ambient registry on this thread: profile() installs a fresh one,
    // so the result's metrics snapshot covers exactly this run.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let result = profile(&spec.table, spec.algorithm, &spec.config);
        let columns = spec.table.column_names();
        profile_to_json(&result, &spec.dataset, &columns)
    }));
    shared.metrics.jobs_running.add(-1);
    match outcome {
        Ok(json) => {
            shared.metrics.job_latency_us.record_duration(started.elapsed());
            shared.metrics.jobs_completed.inc();
            finish(shared, id, JobStatus::Done);
            shared.cache.complete(&spec.key, &flight, Arc::new(json));
        }
        Err(panic) => {
            let message = panic_message(panic);
            shared.metrics.jobs_failed.inc();
            finish(shared, id, JobStatus::Failed(message.clone()));
            shared.cache.abort(&spec.key, &flight, &format!("profiling panicked: {message}"));
        }
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Begin;
    use muds_table::fingerprint;
    use std::time::Duration;

    fn sample_table() -> Arc<Table> {
        Arc::new(
            Table::from_rows(
                "jobs",
                &["id", "grp", "val"],
                &[
                    vec!["1", "a", "x"],
                    vec!["2", "a", "x"],
                    vec!["3", "b", "y"],
                    vec!["4", "b", "z"],
                ],
            )
            .unwrap(),
        )
    }

    fn spec_for(table: &Arc<Table>, algorithm: Algorithm) -> JobSpec {
        let config = ProfilerConfig::default();
        JobSpec {
            dataset: "jobs".into(),
            table: Arc::clone(table),
            algorithm,
            config: config.clone(),
            key: CacheKey {
                fingerprint: fingerprint(table),
                algorithm,
                config: config.cache_key(),
            },
            trace: "t-test".into(),
        }
    }

    fn harness(workers: usize, queue: usize) -> (Scheduler, Arc<ResultCache>, Arc<ServeMetrics>) {
        let metrics = Arc::new(ServeMetrics::new());
        let cache = Arc::new(ResultCache::new(1 << 20, Arc::clone(&metrics)));
        let scheduler = Scheduler::new(workers, queue, Arc::clone(&cache), Arc::clone(&metrics))
            .expect("spawn workers");
        (scheduler, cache, metrics)
    }

    #[test]
    fn jobs_execute_and_results_land_in_the_cache() {
        let (scheduler, cache, metrics) = harness(2, 8);
        let table = sample_table();
        let spec = spec_for(&table, Algorithm::Muds);
        let key = spec.key.clone();
        let flight = match cache.begin(&key) {
            Begin::Leader(f) => f,
            _ => panic!("fresh key leads"),
        };
        let id = scheduler.submit(spec, Arc::clone(&flight), None).unwrap();
        let json = flight.wait(Duration::from_secs(30)).expect("completes").expect("succeeds");
        assert!(json.contains("\"algorithm\":\"MUDS\""));
        assert!(matches!(cache.begin(&key), Begin::Hit(_)));
        let record = scheduler.status(id).unwrap();
        assert_eq!(record.status, JobStatus::Done);
        assert_eq!(record.trace, "t-test", "job record keeps the submitting trace id");
        assert_eq!(metrics.jobs_completed.get(), 1);
        assert_eq!(metrics.job_latency_us.snapshot().count, 1);
        scheduler.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        // Zero... capacity 1 with no workers started yet is racy; instead
        // saturate a capacity-1 queue behind a single worker stuck on a
        // long-deadline job by submitting before workers can drain: use a
        // scheduler with 1 worker and fill the queue synchronously.
        let (scheduler, cache, metrics) = harness(1, 1);
        let table = sample_table();
        let mut accepted = 0;
        let mut rejected = 0;
        // Submit many jobs back-to-back; with one worker and a queue of
        // one, at least one must bounce (the worker cannot drain a queue
        // faster than the submit loop fills it for every submission).
        for i in 0..32 {
            let mut spec = spec_for(&table, Algorithm::Baseline);
            spec.key.config = format!("variant-{i}");
            let flight = match cache.begin(&spec.key) {
                Begin::Leader(f) => f,
                _ => panic!("distinct keys lead"),
            };
            match scheduler.submit(spec, Arc::clone(&flight), None) {
                Ok(_) => accepted += 1,
                Err(QueueFull) => {
                    cache.abort(
                        &CacheKey {
                            fingerprint: fingerprint(&table),
                            algorithm: Algorithm::Baseline,
                            config: format!("variant-{i}"),
                        },
                        &flight,
                        "rejected",
                    );
                    rejected += 1;
                }
            }
        }
        assert!(accepted >= 1);
        assert!(rejected >= 1, "a capacity-1 queue must reject under a burst");
        assert_eq!(metrics.jobs_rejected.get(), rejected);
        scheduler.shutdown();
    }

    #[test]
    fn queued_jobs_past_their_deadline_expire_without_running() {
        let (scheduler, cache, metrics) = harness(1, 8);
        let table = sample_table();
        let spec = spec_for(&table, Algorithm::Tane);
        let key = spec.key.clone();
        let flight = match cache.begin(&key) {
            Begin::Leader(f) => f,
            _ => panic!("fresh key leads"),
        };
        // Deadline already in the past: the worker must expire it.
        let id = scheduler
            .submit(spec, Arc::clone(&flight), Some(Instant::now() - Duration::from_millis(1)))
            .unwrap();
        let outcome = flight.wait(Duration::from_secs(10)).expect("resolves");
        assert!(outcome.is_err(), "expired jobs resolve their flight with an error");
        assert_eq!(scheduler.status(id).unwrap().status, JobStatus::Expired);
        assert_eq!(metrics.jobs_expired.get(), 1);
        assert_eq!(metrics.jobs_completed.get(), 0);
        // Nothing cached: the key leads again.
        assert!(matches!(cache.begin(&key), Begin::Leader(_)));
        scheduler.shutdown();
    }

    /// The 0-second boundary: deadlines under a second away (including
    /// ones already in the past) must clamp up to 1, never truncate to 0.
    #[test]
    fn retry_after_never_rounds_down_to_zero() {
        let now = Instant::now();
        assert_eq!(retry_after_secs(None), 1);
        assert_eq!(retry_after_secs(Some(now - Duration::from_secs(5))), 1, "past deadline");
        assert_eq!(retry_after_secs(Some(now)), 1, "deadline right now");
        assert_eq!(retry_after_secs(Some(now + Duration::from_millis(300))), 1, "sub-second");
        assert_eq!(retry_after_secs(Some(now + Duration::from_millis(999))), 1, "just under 1s");
        let far = retry_after_secs(Some(now + Duration::from_secs(30)));
        assert!((29..=30).contains(&far), "whole seconds for far deadlines, got {far}");
    }

    #[test]
    fn earliest_deadline_tracks_the_queue_front() {
        // One worker pinned on a running job, two queued behind it with
        // staggered deadlines: the earlier one is reported.
        let (scheduler, cache, _metrics) = harness(1, 8);
        let table = sample_table();
        let submit = |alg: Algorithm, tag: &str, deadline: Option<Instant>| {
            let mut spec = spec_for(&table, alg);
            spec.key.config = tag.to_string();
            let flight = match cache.begin(&spec.key) {
                Begin::Leader(f) => f,
                _ => panic!("distinct keys lead"),
            };
            scheduler.submit(spec, flight, deadline).unwrap();
        };
        let near = Instant::now() + Duration::from_secs(60);
        let far = Instant::now() + Duration::from_secs(120);
        submit(Algorithm::Muds, "running", None);
        submit(Algorithm::Baseline, "q-far", Some(far));
        submit(Algorithm::Tane, "q-near", Some(near));
        // Both deadline jobs may still be queued, or the worker may have
        // drained some; the reported deadline is never later than `far`.
        if let Some(d) = scheduler.earliest_deadline() {
            assert!(d <= far);
        }
        scheduler.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let (scheduler, cache, metrics) = harness(2, 16);
        let table = sample_table();
        let mut flights = Vec::new();
        for alg in Algorithm::ALL {
            let spec = spec_for(&table, alg);
            let flight = match cache.begin(&spec.key) {
                Begin::Leader(f) => f,
                _ => panic!("distinct keys lead"),
            };
            scheduler.submit(spec, Arc::clone(&flight), None).unwrap();
            flights.push(flight);
        }
        scheduler.shutdown();
        for flight in &flights {
            let outcome = flight.wait(Duration::from_millis(1)).expect("drained before join");
            assert!(outcome.is_ok());
        }
        assert_eq!(metrics.jobs_completed.get(), 4);
        assert_eq!(scheduler.queue_depth(), 0);
    }
}
