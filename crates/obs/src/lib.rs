//! `muds-obs` — zero-dependency instrumentation for the MUDS profiler.
//!
//! Three pieces:
//!
//! * a [`Metrics`] registry of named monotonic [`Counter`]s and [`Gauge`]s.
//!   Counter handles are sharded atomics behind the scenes, so hot paths
//!   fetch a handle once at construction and pay one relaxed atomic add per
//!   event — from any thread, without contending on a single cache line;
//! * RAII [`SpanTimer`]s that nest into a phase tree ([`SpanNode`]),
//!   replacing flat phase lists with a hierarchy that mirrors the actual
//!   call structure;
//! * a pluggable [`EventSink`] ([`JsonlSink`] for `--trace`, no sink for
//!   zero overhead) that streams span and counter events.
//!
//! It also hosts the workspace's one JSON codec ([`json`]), shared by the
//! wire formats, the serving layer, the bench reports and the linter.
//!
//! Instrumented library code does not take a `&Metrics` parameter through
//! every signature. Instead a `Metrics` is *installed* as the thread-local
//! ambient registry ([`Metrics::install`]); library code calls the free
//! functions [`counter`], [`add`], [`span`], … which resolve against the
//! ambient registry, or degrade to no-ops (detached cells, pure timers)
//! when none is installed. This keeps `muds-pli`/`muds-lattice`/… APIs
//! unchanged while still letting `mudsprof` observe everything.
//!
//! # Threading model
//!
//! A registry is shared state: `Metrics` is `Send + Sync` and cheap to
//! clone (shared `Arc`). [`Counter`]s are *sharded* — eight cache-line
//! padded atomics, with each thread writing one shard chosen by a
//! thread-local index — so concurrent increments from the parallel
//! execution layer neither race nor serialize on one line; [`Counter::get`]
//! sums the shards. [`Gauge`]s are single atomics ([`Gauge::set_max`] uses
//! `fetch_max`). Because counter adds are commutative and the profiler's
//! parallel sections perform a fixed multiset of increments regardless of
//! thread count, drained counter totals are deterministic for any
//! `--threads N`.
//!
//! The *ambient* registry stays thread-local: worker threads spawned by the
//! parallel layer start with no ambient registry and must explicitly
//! [`Metrics::install`] a handle captured from the spawning thread if they
//! want the free functions to resolve (hot paths instead capture handles
//! up front, which work from any thread).
//!
//! Span entry/exit and [`Metrics::drain_snapshot`] are intended for the
//! coordinating thread: spans form one tree per registry, and draining
//! resets counters non-atomically with respect to concurrent writers, so
//! callers drain only at quiescent points (end of a run).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub mod alloc;
pub mod json;
pub mod rss;
mod sink;
mod snapshot;

pub use rss::{RssSample, RssSampler};
pub use sink::{Event, EventSink, JsonlSink};
pub use snapshot::{flatten_phases, HistogramSnapshot, MetricsSnapshot, SpanNode};

/// Number of shards per counter. Eight padded lines bound the memory cost
/// per counter while spreading writers enough for the profiler's depth-1
/// parallelism (worker counts are typically ≤ core count).
const COUNTER_SHARDS: usize = 8;

/// One cache-line padded counter shard.
///
/// Shard atomics use `Ordering::Relaxed` throughout: each shard is an
/// independent monotonic sum and no other data is published through it,
/// so cross-variable ordering buys nothing. [`Counter::get`] is exact
/// only once writers are quiescent — the pool join that ends a profiling
/// phase provides the happens-before edge that flushes all shard writes
/// before the drain reads them.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CounterShard(AtomicU64);

/// The shard this thread writes. Assigned round-robin on first use.
fn shard_index() -> usize {
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    SHARD.with(|slot| {
        let mut idx = slot.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            slot.set(idx);
        }
        idx
    })
}

/// Locks ignoring poisoning: a panicking phase must not wedge the registry
/// (the data is counters and span names, always in a usable state).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Monotonic counter handle. Cloning shares the underlying shards; adds
/// are safe (and non-contending) from any thread.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<[CounterShard; COUNTER_SHARDS]>);

impl Counter {
    /// Fresh counter detached from any registry (used when no ambient
    /// `Metrics` is installed; increments are simply dropped on the floor
    /// when the shards are never read).
    pub fn detached() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        self.0[shard_index()].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sum over all shards. Exact once writers are quiescent.
    pub fn get(&self) -> u64 {
        self.0.iter().fold(0u64, |acc, shard| acc.wrapping_add(shard.0.load(Ordering::Relaxed)))
    }

    /// Zeroes all shards (drain path; callers ensure writers are quiescent).
    fn reset(&self) {
        for shard in self.0.iter() {
            shard.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Last-value gauge handle. Cloning shares the underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn detached() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Sets the gauge to `max(current, value)` — handy for high-water
    /// marks like lattice levels. Atomic, so racing raisers keep the max.
    #[inline]
    pub fn set_max(&self, value: i64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` atomically — for up/down quantities
    /// maintained from several threads (e.g. jobs currently running),
    /// where racing `set(get() ± 1)` pairs would lose updates.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets. Bucket 0 counts zero values;
/// bucket `i` (i ≥ 1) counts values in `[2^(i-1), 2^i)`; the top bucket
/// absorbs everything beyond.
const HISTOGRAM_BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Log₂-bucketed value histogram — the latency-distribution counterpart of
/// [`Counter`]. Cloning shares the underlying buckets; recording is safe
/// from any thread. Quantiles come out of the drained
/// [`HistogramSnapshot`], resolved to the upper edge of the bucket the
/// quantile falls in (a ≤2× over-estimate by construction, which is the
/// right bias for latency SLO reporting).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Fresh histogram detached from any registry (recordings vanish when
    /// the buckets are never read).
    pub fn detached() -> Self {
        Self::default()
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 { 0 } else { (u64::BITS - value.leading_zeros()) as usize }
            .min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation (for latency: in nanoseconds).
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a [`Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Copies the current state out. Exact once writers are quiescent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Zeroes everything (drain path; callers ensure writers are
    /// quiescent).
    fn reset(&self) {
        for b in self.0.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
    }
}

/// A span that has been opened but not yet closed.
struct OpenSpan {
    name: String,
    start: Instant,
    children: Vec<SpanNode>,
}

struct MetricsInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// LIFO stack of currently open spans; index 0 is the outermost.
    open: Mutex<Vec<OpenSpan>>,
    /// Completed top-level spans.
    roots: Mutex<Vec<SpanNode>>,
    sink: Mutex<Option<Box<dyn EventSink>>>,
}

/// Registry of counters, gauges, and spans. Cheap to clone (shared
/// reference) and `Send + Sync`: counter/gauge handles may be exercised
/// from any thread, while the span tree and [`Metrics::drain_snapshot`]
/// belong to the coordinating thread (see the module docs).
#[derive(Clone)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            inner: Arc::new(MetricsInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                open: Mutex::new(Vec::new()),
                roots: Mutex::new(Vec::new()),
                sink: Mutex::new(None),
            }),
        }
    }

    /// Returns the named counter, creating it (at zero) on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = lock(&self.inner.counters);
        if let Some(c) = counters.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        counters.insert(name.to_string(), c.clone());
        c
    }

    /// Returns the named gauge, creating it (at zero) on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = lock(&self.inner.gauges);
        if let Some(g) = gauges.get(name) {
            return g.clone();
        }
        let g = Gauge::default();
        gauges.insert(name.to_string(), g.clone());
        g
    }

    /// Returns the named histogram, creating it (empty) on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut histograms = lock(&self.inner.histograms);
        if let Some(h) = histograms.get(name) {
            return h.clone();
        }
        let h = Histogram::default();
        histograms.insert(name.to_string(), h.clone());
        h
    }

    /// Adds `delta` to the named counter and publishes the bulk add to the
    /// sink (this is the end-of-phase flush path, not the per-event hot
    /// path — hot paths hold a [`Counter`] handle and never hit the map).
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
        if delta > 0 {
            self.emit(&Event::CounterAdd { name, delta });
        }
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, value: i64) {
        self.gauge(name).set(value);
    }

    /// Installs `sink` as the event receiver for this registry.
    pub fn set_sink(&self, sink: Box<dyn EventSink>) {
        *lock(&self.inner.sink) = Some(sink);
    }

    fn emit(&self, event: &Event<'_>) {
        if let Some(sink) = lock(&self.inner.sink).as_mut() {
            sink.emit(event);
        }
    }

    /// Opens a nested timed span. Close it with [`SpanTimer::stop`] (to get
    /// the measured duration back) or by dropping it.
    pub fn span(&self, name: impl Into<String>) -> SpanTimer {
        let name = name.into();
        let depth = {
            let mut open = lock(&self.inner.open);
            open.push(OpenSpan { name: name.clone(), start: Instant::now(), children: Vec::new() });
            open.len() - 1
        };
        self.emit(&Event::SpanStart { name: &name, depth });
        SpanTimer { metrics: Some(self.clone()), depth, start: Instant::now(), name }
    }

    /// Closes the span opened at `depth`, force-closing any deeper spans
    /// left open (non-LIFO drops), and returns its measured duration.
    fn close_span(&self, depth: usize, elapsed: Duration) -> Duration {
        loop {
            let top = {
                let mut open = lock(&self.inner.open);
                if open.len() <= depth {
                    return elapsed; // already closed (defensive; shouldn't happen)
                }
                let straggler = open.len() - 1 > depth;
                let Some(mut span) = open.pop() else { return elapsed };
                let duration = if straggler { span.start.elapsed() } else { elapsed };
                let node = SpanNode {
                    name: std::mem::take(&mut span.name),
                    duration,
                    children: std::mem::take(&mut span.children),
                };
                let at = open.len();
                match open.last_mut() {
                    Some(parent) => parent.children.push(node.clone()),
                    None => lock(&self.inner.roots).push(node.clone()),
                }
                (node, at, straggler)
            };
            let (node, at, straggler) = top;
            self.emit(&Event::SpanEnd { name: &node.name, depth: at, duration: node.duration });
            if !straggler {
                return node.duration;
            }
        }
    }

    /// Takes a snapshot of every counter, gauge, and completed root span,
    /// then resets the registry (counters/gauges to zero, span tree
    /// cleared) so consecutive runs under one registry — e.g. the four
    /// algorithms of `mudsprof compare` — get independent snapshots. The
    /// snapshot is also published to the sink, which is then flushed.
    ///
    /// Call at quiescent points only: the read-then-reset of each counter
    /// is not atomic with respect to concurrent `add`s.
    pub fn drain_snapshot(&self) -> MetricsSnapshot {
        // Close any spans left open (e.g. a panicking phase unwound past
        // its timer) so they still show up.
        loop {
            let open = lock(&self.inner.open);
            let Some(top) = open.last() else { break };
            let depth = open.len() - 1;
            let elapsed = top.start.elapsed();
            drop(open);
            self.close_span(depth, elapsed);
        }
        let mut snapshot = MetricsSnapshot::default();
        for (name, counter) in lock(&self.inner.counters).iter() {
            snapshot.counters.insert(name.clone(), counter.get());
            counter.reset();
        }
        for (name, gauge) in lock(&self.inner.gauges).iter() {
            snapshot.gauges.insert(name.clone(), gauge.get());
            gauge.set(0);
        }
        for (name, histogram) in lock(&self.inner.histograms).iter() {
            snapshot.histograms.insert(name.clone(), histogram.snapshot());
            histogram.reset();
        }
        snapshot.spans = std::mem::take(&mut *lock(&self.inner.roots));
        self.emit(&Event::Snapshot { snapshot: &snapshot });
        if let Some(sink) = lock(&self.inner.sink).as_mut() {
            sink.flush();
        }
        snapshot
    }

    /// Installs this registry as the thread-local ambient one; the free
    /// functions ([`counter`], [`add`], [`span`], …) resolve against it
    /// until the returned guard drops. Worker threads inherit nothing:
    /// code running on a spawned thread installs a captured handle itself
    /// if it needs the free functions there.
    pub fn install(&self) -> AmbientGuard {
        AMBIENT.with(|stack| stack.borrow_mut().push(self.clone()));
        AmbientGuard { _priv: () }
    }

    /// The innermost installed registry on this thread, if any.
    pub fn current() -> Option<Metrics> {
        AMBIENT.with(|stack| stack.borrow().last().cloned())
    }
}

thread_local! {
    static AMBIENT: RefCell<Vec<Metrics>> = const { RefCell::new(Vec::new()) };
}

/// Reverts [`Metrics::install`] on drop.
pub struct AmbientGuard {
    _priv: (),
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// RAII timer for one span. Always measures wall time, even with no
/// registry attached, so callers can feed legacy timing structs from the
/// value returned by [`SpanTimer::stop`].
pub struct SpanTimer {
    metrics: Option<Metrics>,
    name: String,
    depth: usize,
    start: Instant,
}

impl SpanTimer {
    /// Timer with no registry: measures but records nowhere.
    fn detached(name: String) -> Self {
        SpanTimer { metrics: None, name, depth: 0, start: Instant::now() }
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stops the timer, records the span, and returns the measured
    /// duration.
    pub fn stop(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        match self.metrics.take() {
            Some(metrics) => metrics.close_span(self.depth, elapsed),
            None => elapsed,
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if self.metrics.is_some() {
            self.finish();
        }
    }
}

// ---------------------------------------------------------------------------
// Free functions against the ambient registry.
// ---------------------------------------------------------------------------

/// Handle to `name` in the ambient registry, or a detached counter whose
/// increments vanish when none is installed. Fetch once, increment often.
pub fn counter(name: &str) -> Counter {
    match Metrics::current() {
        Some(m) => m.counter(name),
        None => Counter::detached(),
    }
}

/// Handle to `name` in the ambient registry, or a detached gauge.
pub fn gauge(name: &str) -> Gauge {
    match Metrics::current() {
        Some(m) => m.gauge(name),
        None => Gauge::detached(),
    }
}

/// Handle to `name` in the ambient registry, or a detached histogram
/// whose recordings vanish when none is installed.
pub fn histogram(name: &str) -> Histogram {
    match Metrics::current() {
        Some(m) => m.histogram(name),
        None => Histogram::detached(),
    }
}

/// Bulk-adds `delta` to the ambient counter `name` (no-op without an
/// ambient registry). This is the end-of-phase flush entry point.
pub fn add(name: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    if let Some(m) = Metrics::current() {
        m.add(name, delta);
    }
}

/// Sets the ambient gauge `name` (no-op without an ambient registry).
pub fn gauge_set(name: &str, value: i64) {
    if let Some(m) = Metrics::current() {
        m.gauge_set(name, value);
    }
}

/// Raises the ambient gauge `name` to at least `value`.
pub fn gauge_max(name: &str, value: i64) {
    if let Some(m) = Metrics::current() {
        m.gauge(name).set_max(value);
    }
}

/// Opens a span in the ambient registry; without one, returns a detached
/// timer that still measures wall time.
pub fn span(name: impl Into<String>) -> SpanTimer {
    let name = name.into();
    match Metrics::current() {
        Some(m) => m.span(name),
        None => SpanTimer::detached(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_through_handles() {
        let metrics = Metrics::new();
        let a = metrics.counter("x");
        let b = metrics.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(metrics.counter("x").get(), 5);
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let metrics = Metrics::new();
        let c = metrics.counter("shared");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let handle = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        handle.inc();
                    }
                });
            }
        });
        c.add(5);
        assert_eq!(metrics.counter("shared").get(), 4005);
    }

    #[test]
    fn gauges_track_last_value_and_max() {
        let metrics = Metrics::new();
        let g = metrics.gauge("level");
        g.set(3);
        g.set_max(2); // lower: ignored
        assert_eq!(g.get(), 3);
        g.set_max(9);
        assert_eq!(metrics.gauge("level").get(), 9);
    }

    #[test]
    fn gauge_max_is_atomic_across_threads() {
        let metrics = Metrics::new();
        let g = metrics.gauge("peak");
        std::thread::scope(|s| {
            for t in 1..=8i64 {
                let handle = g.clone();
                s.spawn(move || handle.set_max(t * 10));
            }
        });
        assert_eq!(g.get(), 80);
    }

    #[test]
    fn histograms_record_and_drain() {
        let metrics = Metrics::new();
        let h = metrics.histogram("job.latency");
        h.record(0);
        h.record(3);
        h.record(1000);
        metrics.histogram("job.latency").record_duration(Duration::from_nanos(5));
        let snap = metrics.drain_snapshot();
        let hs = snap.histogram("job.latency");
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 1008);
        assert!(hs.p99() >= 512, "1000ns value lands in the [512,1024) bucket");
        // Drained: next snapshot is empty.
        assert_eq!(metrics.drain_snapshot().histogram("job.latency").count, 0);
        // Missing histogram is the empty default.
        assert_eq!(snap.histogram("nope"), HistogramSnapshot::default());
    }

    #[test]
    fn histograms_aggregate_across_threads() {
        let metrics = Metrics::new();
        let h = metrics.histogram("shared");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let handle = h.clone();
                s.spawn(move || {
                    for v in 0..100u64 {
                        handle.record(v);
                    }
                });
            }
        });
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.histogram("shared").count, 400);
        // Ambient free function resolves like counters do.
        let _guard = metrics.install();
        histogram("ambient").record(7);
        assert_eq!(metrics.drain_snapshot().histogram("ambient").count, 1);
        // Detached histogram drops recordings silently.
        Histogram::detached().record(1);
    }

    #[test]
    fn spans_nest_into_a_tree() {
        let metrics = Metrics::new();
        let outer = metrics.span("outer");
        let inner = metrics.span("inner");
        let inner_d = inner.stop();
        let outer_d = outer.stop();
        assert!(outer_d >= inner_d);

        let snap = metrics.drain_snapshot();
        assert_eq!(snap.spans.len(), 1);
        let root = &snap.spans[0];
        assert_eq!(root.name, "outer");
        let kids: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, ["inner"]);
    }

    #[test]
    fn dropped_spans_are_recorded() {
        let metrics = Metrics::new();
        {
            let _outer = metrics.span("outer");
            let _inner = metrics.span("inner");
            // Both dropped here, inner first (reverse declaration order).
        }
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].children.len(), 1);
        assert_eq!(snap.spans[0].children[0].name, "inner");
    }

    #[test]
    fn non_lifo_stop_closes_stragglers() {
        let metrics = Metrics::new();
        let outer = metrics.span("outer");
        let _inner = metrics.span("inner"); // never explicitly stopped
        std::mem::forget(_inner); // simulate a leaked child timer
        outer.stop();
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].children.len(), 1, "straggler folded into parent");
    }

    #[test]
    fn drain_resets_counters_and_spans() {
        let metrics = Metrics::new();
        metrics.add("n", 2);
        metrics.span("p").stop();
        let first = metrics.drain_snapshot();
        assert_eq!(first.counter("n"), 2);
        assert_eq!(first.spans.len(), 1);

        let second = metrics.drain_snapshot();
        assert_eq!(second.counter("n"), 0, "counters reset by drain");
        assert!(second.spans.is_empty(), "span tree cleared by drain");
    }

    #[test]
    fn ambient_install_scopes_free_functions() {
        add("orphan", 10); // no registry installed: dropped
        let metrics = Metrics::new();
        {
            let _guard = metrics.install();
            add("seen", 3);
            let c = counter("seen");
            c.inc();
            gauge_max("depth", 4);
            span("phase").stop();
        }
        add("after", 1); // guard dropped: dropped again
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.counter("seen"), 4);
        assert_eq!(snap.counter("orphan"), 0);
        assert_eq!(snap.counter("after"), 0);
        assert_eq!(snap.gauge("depth"), 4);
        assert_eq!(snap.spans.len(), 1);
    }

    #[test]
    fn ambient_registry_is_per_thread_until_installed() {
        let metrics = Metrics::new();
        let _guard = metrics.install();
        let from_worker = std::thread::scope(|s| {
            let m = metrics.clone();
            s.spawn(move || {
                // A fresh thread has no ambient registry…
                assert!(Metrics::current().is_none());
                add("lost", 7); // …so this is dropped.
                                // …until it installs a captured handle.
                let _g = m.install();
                add("kept", 2);
                Metrics::current().is_some()
            })
            .join()
            .unwrap()
        });
        assert!(from_worker);
        let snap = metrics.drain_snapshot();
        assert_eq!(snap.counter("lost"), 0);
        assert_eq!(snap.counter("kept"), 2);
    }

    #[test]
    fn nested_installs_shadow_outer_registry() {
        let outer = Metrics::new();
        let inner = Metrics::new();
        let _g1 = outer.install();
        {
            let _g2 = inner.install();
            add("n", 1);
        }
        add("n", 10);
        assert_eq!(inner.drain_snapshot().counter("n"), 1);
        assert_eq!(outer.drain_snapshot().counter("n"), 10);
    }

    /// Sink that appends JSONL lines to a shared buffer the test keeps.
    struct SharedSink(Arc<Mutex<Vec<String>>>);

    impl EventSink for SharedSink {
        fn emit(&mut self, event: &Event<'_>) {
            self.0.lock().unwrap().push(event.to_json());
        }
    }

    #[test]
    fn sink_receives_span_counter_and_snapshot_events() {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let metrics = Metrics::new();
        metrics.set_sink(Box::new(SharedSink(Arc::clone(&lines))));
        metrics.span("root").stop();
        metrics.add("c", 5);
        metrics.drain_snapshot();

        let lines = lines.lock().unwrap();
        assert!(lines[0].contains("\"type\":\"span_start\""));
        assert!(lines[0].contains("\"root\""));
        assert!(lines[1].contains("\"type\":\"span_end\""));
        assert!(lines[2].contains("\"type\":\"counter\"") && lines[2].contains("\"delta\":5"));
        assert!(lines[3].contains("\"type\":\"snapshot\""));
        assert!(lines[3].contains("\"c\":5"));
    }
}
