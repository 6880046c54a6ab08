//! The four workloads and [`run`], which runs one of them.
//!
//! A run is one process and one workload: set up several times (the median
//! is `setup_s`), measure the workload's operation loop for the requested
//! time, check every output, and report. Each workload defines one
//! operation:
//!
//! * `batch_rows`, `batch_wide` — one round: `profile_csv` from CSV text
//!   to result for all four algorithms, rotating which goes first;
//! * `serve_mix` — one HTTP request from one of two keep-alive clients;
//! * `delta_stream` — one append or delete through `apply_incremental`.
//!
//! With `trace` set, the run instead replays the workload's input layer by
//! layer (see [`crate::ledger`]) and compares traced with untraced
//! operations; end-to-end numbers only ever come from untraced runs.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use muds_core::json::{parse_json, JsonValue};
use muds_core::{
    apply_incremental, profile, profile_csv, profile_from_json, Algorithm, ProfileResult,
    ProfilerConfig,
};
use muds_serve::{ServeConfig, Server, ServerState};
use muds_table::{table_to_csv, CsvOptions, Table, TableDelta};

use crate::http::{self, Client};
use crate::inputs::{digest, result_digest, row_strings, shuffled, Mix, Rng, Shape, TableSpec};
use crate::ledger::{self, LedgerInput};
use crate::sample::{highest_tail, median};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

/// Setups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Seed streams (see [`Rng::new`]).
const ROWS_STREAM: u64 = 1;
const SCRIPT_STREAM: u64 = 2;
pub(crate) const LEDGER_STREAM: u64 = 3;
const KEYS_STREAM: u64 = 4;

/// The tables each workload profiles, with the digest of their dependency
/// set at full scale. Row order never changes a digest, so every seed must
/// reproduce these; a mismatch fails the run.
const BATCH_ROWS: (TableSpec, u64) =
    (TableSpec { shape: Shape::Ncvoter, rows: 50_000, cols: 10 }, 0x81378b3247ddff44);
const BATCH_WIDE: (TableSpec, u64) =
    (TableSpec { shape: Shape::Ionosphere, rows: 351, cols: 14 }, 0xb14ba46e08181913);
const SERVE_DATASETS: [(TableSpec, u64); 8] = [
    (TableSpec { shape: Shape::Ionosphere, rows: 351, cols: 8 }, 0x02d01ee16e1b2364),
    (TableSpec { shape: Shape::Ionosphere, rows: 351, cols: 10 }, 0x825bd7f62d760e04),
    (TableSpec { shape: Shape::Uniprot, rows: 2_000, cols: 8 }, 0xe167386b6b497b6a),
    (TableSpec { shape: Shape::Uniprot, rows: 5_000, cols: 10 }, 0xb9b11063bc258108),
    (TableSpec { shape: Shape::Uniprot, rows: 1_000, cols: 13 }, 0x534f2ce562d09d3b),
    (TableSpec { shape: Shape::Ncvoter, rows: 3_000, cols: 12 }, 0x2b517d27375e271b),
    (TableSpec { shape: Shape::Ncvoter, rows: 5_000, cols: 9 }, 0xad04ece9870431fe),
    (TableSpec { shape: Shape::Ncvoter, rows: 4_000, cols: 13 }, 0xcd94b64e811531b5),
];
/// The rows of the serve workload's append targets, split evenly between
/// the clients (see [`AppendTarget::generate`]).
const SERVE_APPEND: TableSpec = TableSpec { shape: Shape::Ncvoter, rows: 12_000, cols: 8 };
/// The delta workload's table: the first five sixths of the rows are the
/// base (its digest is pinned), the rest feed the appends.
const DELTA_TABLE: (TableSpec, u64) =
    (TableSpec { shape: Shape::Uniprot, rows: 60_000, cols: 10 }, 0x0e7d68cde8983ad8);

/// Serve script per block of fifty requests: cache hits, misses, appends.
const SERVE_MIX: [usize; 3] = [45, 4, 1];
/// Rows per serve append.
const APPEND_ROWS: usize = 5;
/// Load threads (and keep-alive connections) driving the daemon.
const CLIENTS: usize = 2;
/// Daemon scheduler workers.
const SERVE_WORKERS: usize = 2;
/// Algorithms behind the warmed cache keys.
const HIT_ALGORITHMS: [&str; 2] = ["muds", "holistic-fun"];

/// Delta script: appends and deletes per block of ten (a delete costs
/// about thirty appends), rows per delta, and how many deltas pass between
/// from-scratch checks of the carried result.
const DELTA_MIX: [usize; 2] = [7, 3];
const DELTA_ROWS: (usize, usize) = (1, 20);
const CHECK_EVERY: u64 = 250;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Divides every row count (smoke tests); 1 is the benchmark.
    pub scale: usize,
}

impl Config {
    /// Where a traced run writes its spans, relative to the working
    /// directory (the checkout root).
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(format!(
            ".bench_build/mudsbench/{}-seed{}.trace.jsonl",
            self.workload, self.seed
        ))
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for counts and single measurements).
    pub samples: usize,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Informational lines: thread count, per-class medians, tails.
    pub notes: Vec<String>,
    /// Why the run is not correct.
    pub errors: Vec<String>,
}

/// What one measured loop observed.
#[derive(Debug, Default)]
struct Window {
    /// Latency of every operation, in ms.
    ops_ms: Vec<f64>,
    /// Latencies by operation class (algorithm, request kind, delta kind).
    classes: Vec<(&'static str, Vec<f64>)>,
    attempted: u64,
    failed: u64,
    /// Time the operations kept the system busy: the denominator of
    /// `ops_per_s`.
    busy: Duration,
    /// CPU spent on untimed checks inside the loop.
    check_cpu: Duration,
    errors: Vec<String>,
}

impl Window {
    fn class(&mut self, name: &'static str) -> &mut Vec<f64> {
        let at = match self.classes.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.classes.push((name, Vec::new()));
                self.classes.len() - 1
            }
        };
        &mut self.classes[at].1
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }

    fn absorb(&mut self, other: Window) {
        self.ops_ms.extend(other.ops_ms);
        for (name, samples) in other.classes {
            self.class(name).extend(samples);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.check_cpu += other.check_cpu;
        self.errors.extend(other.errors);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process CPU time, user plus system, over all threads.
fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    Duration::from_millis(ticks * 10)
}

/// A workload after setup.
trait Workload {
    /// Runs operations until `duration` has passed (at least one). With a
    /// tracer, every operation is traced under span `parent`.
    fn window(&mut self, duration: Duration, tracer: Option<&mut Tracer>, parent: u64) -> Window;
    /// Checks what can only be checked after the loop.
    fn verify(&mut self) -> Result<(), String>;
    /// The table the traced run's ledger replays.
    fn ledger_input(&self) -> LedgerInput;
}

/// The rows of the delta workload's table that form its base.
fn delta_base_rows(table: &Table) -> usize {
    table.num_rows() * 5 / 6
}

/// The expected digest for a pinned table (or, with `delta_base`, its
/// delta base): the pin at full scale, else the digest of a MUDS profile
/// in generator order.
fn expected(spec: &TableSpec, pin: u64, delta_base: bool, scale: usize) -> u64 {
    if scale == 1 {
        return pin;
    }
    let mut table = spec.generate(scale);
    if delta_base {
        table = table.take_rows(delta_base_rows(&table));
    }
    result_digest(&profile(&table, Algorithm::Muds, &ProfilerConfig::default()))
}

/// Runs one workload as `config` says.
pub fn run(config: &Config) -> Result<Report, String> {
    let def = spec::workload(&config.workload)
        .ok_or_else(|| format!("unknown workload {:?}", config.workload))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| format!("cannot size the worker pool: {e:?}"))?;
    let pins = pins(def.name, config.scale);
    let mut tracer = Tracer::new(&format!("mb-{}-{}", def.name, config.seed));
    let root = tracer.open(&format!("mudsbench.{}", def.name), 0);

    let mut setups = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let reps = if config.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        drop(workload.take());
        let span = tracer.open("setup", root.id);
        let timer = muds_obs::span("setup");
        workload = Some(setup(def.name, config, &pins)?);
        setups.push(timer.stop().as_secs_f64());
        tracer.close(span);
    }
    let mut workload = workload.ok_or("no setup ran")?;
    let duration = Duration::from_secs_f64(config.seconds.max(0.0));
    let mut report = Report {
        notes: vec![format!("threads {threads} (rayon pool and nproc)")],
        ..Report::default()
    };

    let window = if config.trace {
        traced(&mut *workload, config, duration, &mut tracer, root.id, &mut report)?
    } else {
        let cpu_before = cpu_time();
        let window = workload.window(duration, None, 0);
        let cpu = cpu_time().saturating_sub(cpu_before).saturating_sub(window.check_cpu);
        end_to_end(&window, cpu, &setups, &mut report)?;
        window
    };
    if let Err(e) = workload.verify() {
        report.errors.push(e);
    }
    drop(workload);
    tracer.close(root);
    if config.trace {
        let path = config.trace_path();
        let lines = tracer.write(&path)?;
        report.notes.push(format!("trace {} ({lines} lines)", path.display()));
    }
    report.attempted = window.attempted;
    report.failed = window.failed;
    report.errors.extend(window.errors);
    report.correct = report.errors.is_empty() && report.failed == 0;
    Ok(report)
}

/// The expected digests of the workload's pinned tables, in order.
fn pins(workload: &str, scale: usize) -> Vec<u64> {
    match workload {
        "batch_rows" => vec![expected(&BATCH_ROWS.0, BATCH_ROWS.1, false, scale)],
        "batch_wide" => vec![expected(&BATCH_WIDE.0, BATCH_WIDE.1, false, scale)],
        "serve_mix" => {
            SERVE_DATASETS.iter().map(|(s, pin)| expected(s, *pin, false, scale)).collect()
        }
        _ => vec![expected(&DELTA_TABLE.0, DELTA_TABLE.1, true, scale)],
    }
}

fn setup(workload: &str, config: &Config, pins: &[u64]) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "batch_rows" => Box::new(Batch::setup(&BATCH_ROWS.0, pins[0], config)?),
        "batch_wide" => Box::new(Batch::setup(&BATCH_WIDE.0, pins[0], config)?),
        "serve_mix" => Box::new(Serve::setup(pins, config)?),
        _ => Box::new(Delta::setup(pins[0], config)?),
    })
}

/// Turns an untraced window into the end-to-end metrics.
fn end_to_end(
    window: &Window,
    cpu: Duration,
    setups: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let ops = window.ops_ms.len();
    let p50 = median(&window.ops_ms).ok_or("the measured loop completed no operation")?;
    let busy = window.busy.as_secs_f64().max(f64::MIN_POSITIVE);
    let values = [
        ("op_p50_ms", p50, ops),
        ("ops_per_s", ops as f64 / busy, ops),
        ("cpu_per_op_ms", ms(cpu) / ops as f64, ops),
        ("setup_s", median(setups).unwrap_or(0.0), setups.len()),
    ];
    for def in &END_TO_END {
        let &(_, value, samples) = values
            .iter()
            .find(|(n, ..)| *n == def.name)
            .ok_or("end-to-end metric without a value")?;
        report.metrics.push(Metric { name: def.name, value, unit: def.unit, samples });
    }
    if let Some((p, tail)) = highest_tail(&window.ops_ms) {
        report.notes.push(format!("op_p{p}_ms {tail} ms n={ops}"));
    }
    for (class, samples) in &window.classes {
        if let Some(p50) = median(samples) {
            report.notes.push(format!("{class}_p50_ms {p50} ms n={}", samples.len()));
        }
        if let Some((p, tail)) = highest_tail(samples) {
            report.notes.push(format!("{class}_p{p}_ms {tail} ms n={}", samples.len()));
        }
    }
    Ok(())
}

/// The traced run: the layer ledger, then untraced and traced windows in
/// turn for `obs.trace_overhead_frac`.
fn traced(
    workload: &mut dyn Workload,
    config: &Config,
    duration: Duration,
    tracer: &mut Tracer,
    root: u64,
    report: &mut Report,
) -> Result<Window, String> {
    let span = tracer.open("ledger", root);
    let mut values = ledger::run(&workload.ledger_input(), config.seed, tracer, span.id)?;
    tracer.close(span);

    let mut total = Window::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for turn in 0..4 {
        let plain = turn % 2 == 0;
        let span = tracer.open(if plain { "probe.untraced" } else { "probe.traced" }, root);
        let window = if plain {
            workload.window(duration / 4, None, 0)
        } else {
            workload.window(duration / 4, Some(&mut *tracer), span.id)
        };
        tracer.close(span);
        let samples = if plain { &mut plain_ms } else { &mut traced_ms };
        samples.extend_from_slice(&window.ops_ms);
        total.absorb(window);
    }
    let (Some(plain), Some(traced)) = (median(&plain_ms), median(&traced_ms)) else {
        return Err("the overhead probe completed no operation".to_string());
    };
    values.insert("obs.trace_overhead_frac", traced / plain - 1.0);
    let rss = muds_obs::rss::lifetime_peak_rss_bytes().ok_or("peak RSS is unavailable")?;
    values.insert("peak_rss_mb", rss as f64 / (1024.0 * 1024.0));
    for def in &PER_LAYER {
        let value =
            *values.get(def.name).ok_or_else(|| format!("ledger did not measure {}", def.name))?;
        report.metrics.push(Metric { name: def.name, value, unit: def.unit, samples: 0 });
    }
    Ok(total)
}

// ---------------------------------------------------------------------------
// batch_rows, batch_wide
// ---------------------------------------------------------------------------

/// One seeded CSV document, profiled by all four algorithms per round.
struct Batch {
    name: String,
    csv: String,
    expected: u64,
    round: usize,
}

impl Batch {
    fn setup(spec: &TableSpec, expected: u64, config: &Config) -> Result<Batch, String> {
        let table = shuffled(&spec.generate(config.scale), &mut Rng::new(config.seed, ROWS_STREAM));
        let csv = table_to_csv(&table, &CsvOptions::default());
        let mut batch = Batch { name: table.name().to_string(), csv, expected, round: 0 };
        // One untimed warm-up round, checked like every other.
        let warm = batch.window(Duration::ZERO, None, 0);
        match warm.errors.into_iter().next() {
            Some(error) => Err(error),
            None => Ok(batch),
        }
    }

    fn round(&mut self, w: &mut Window, mut tracer: Option<&mut Tracer>, parent: u64) {
        let config = ProfilerConfig::default();
        let options = CsvOptions::default();
        let mut round = Duration::ZERO;
        for k in 0..Algorithm::ALL.len() {
            let algorithm = Algorithm::ALL[(self.round + k) % Algorithm::ALL.len()];
            let call = || profile_csv(&self.name, &self.csv, &options, algorithm, &config);
            let (result, took) = match tracer.as_deref_mut() {
                None => {
                    let timer = muds_obs::span(algorithm.name());
                    let result = call();
                    (result, timer.stop())
                }
                Some(tracer) => {
                    let span = tracer.open(algorithm.name(), parent);
                    let result = tracer.with_program_events(span.id, call);
                    (result, tracer.close(span))
                }
            };
            w.attempted += 1;
            match result {
                Ok(r) if result_digest(&r) == self.expected => {}
                Ok(r) => w.fail(format!(
                    "{} on {}: dependency digest {:016x}, expected {:016x}",
                    algorithm.name(),
                    self.name,
                    result_digest(&r),
                    self.expected
                )),
                Err(e) => w.fail(format!("{} on {}: {e}", algorithm.name(), self.name)),
            }
            w.class(algorithm.name()).push(ms(took));
            round += took;
        }
        self.round += 1;
        w.ops_ms.push(ms(round));
        w.busy += round;
    }
}

impl Workload for Batch {
    fn window(
        &mut self,
        duration: Duration,
        mut tracer: Option<&mut Tracer>,
        parent: u64,
    ) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        loop {
            self.round(&mut w, tracer.as_deref_mut(), parent);
            if start.elapsed() >= duration {
                return w;
            }
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn ledger_input(&self) -> LedgerInput {
        LedgerInput { name: self.name.clone(), csv: self.csv.clone(), expected: self.expected }
    }
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// One registered dataset.
struct Dataset {
    name: String,
    csv: String,
    expected: u64,
}

/// A warmed cache key: its request bytes and the body it must return.
struct HitKey {
    dataset: usize,
    algorithm: &'static str,
    request: Vec<u8>,
    body: Vec<u8>,
}

/// An embedded daemon with registered datasets and warmed cache keys.
struct Serve {
    addr: SocketAddr,
    state: Arc<ServerState>,
    server: Option<JoinHandle<std::io::Result<()>>>,
    seed: u64,
    datasets: Vec<Dataset>,
    keys: Vec<HitKey>,
    script: Script,
    /// One append target per client, by client.
    targets: Vec<AppendTarget>,
    /// Miss bodies to check after the loop: dataset index and body.
    misses: Vec<(usize, Vec<u8>)>,
    /// Windows run so far; each draws fresh script streams and miss seeds.
    windows: u64,
}

/// The dataset one client appends to. No cache key of the hit set reads
/// it, and no other client writes it: the registry rebinds a name last
/// writer wins, so two clients appending to one name could lose an append.
struct AppendTarget {
    name: String,
    header: Vec<String>,
    header_line: String,
    base: Vec<Vec<String>>,
    /// CSV lines and rows the client may append, in order.
    reserve: Vec<(String, Vec<String>)>,
    /// Reserve rows appended so far.
    used: usize,
}

/// What one load thread observed.
#[derive(Default)]
struct ClientLog {
    window: Window,
    misses: Vec<(usize, Vec<u8>)>,
    appended: usize,
    /// Traced requests: name, trace id, start and end offsets.
    spans: Vec<(&'static str, String, Duration, Duration)>,
}

/// What one load thread works from.
struct Load<'a> {
    serve: &'a Serve,
    client: usize,
    target: &'a AppendTarget,
    /// The tracer's start, when requests are traced.
    origin: Option<Instant>,
}

/// One scripted serve request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    /// A warmed key, by index.
    Hit(usize),
    /// A dataset and an index into [`HIT_ALGORITHMS`], under a fresh seed.
    Miss(usize, usize),
    Append,
}

/// The serve request script: kinds from [`SERVE_MIX`], hit keys by
/// Zipf(1) over a seeded ranking of the keys.
#[derive(Debug, Clone, Default)]
struct Script {
    /// Cumulative Zipf weights by rank, and the key at each rank.
    zipf: Vec<f64>,
    rank: Vec<usize>,
    datasets: usize,
}

impl Script {
    fn new(keys: usize, datasets: usize, rng: &mut Rng) -> Script {
        let mut total = 0.0;
        let mut zipf: Vec<f64> = (1..=keys)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        zipf.iter_mut().for_each(|w| *w /= total);
        Script { zipf, rank: rng.permutation(keys), datasets }
    }

    fn draw(&self, mix: &mut Mix, rng: &mut Rng) -> Draw {
        match mix.next(rng) {
            0 => {
                let u = rng.unit();
                Draw::Hit(self.rank[self.zipf.partition_point(|&c| c < u).min(self.zipf.len() - 1)])
            }
            1 => Draw::Miss(rng.below(self.datasets), rng.below(HIT_ALGORITHMS.len())),
            _ => Draw::Append,
        }
    }
}

impl Serve {
    fn setup(pins: &[u64], config: &Config) -> Result<Serve, String> {
        let mut rng = Rng::new(config.seed, ROWS_STREAM);
        let datasets: Vec<Dataset> = SERVE_DATASETS
            .iter()
            .zip(pins)
            .enumerate()
            .map(|(i, ((spec, _), &expected))| Dataset {
                name: format!("d{i}"),
                csv: table_to_csv(
                    &shuffled(&spec.generate(config.scale), &mut rng),
                    &CsvOptions::default(),
                ),
                expected,
            })
            .collect();
        let targets = AppendTarget::generate(&mut rng, config.scale);

        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: SERVE_WORKERS,
            // Room for every miss of a run: evicting a warmed key would turn
            // a scripted hit into a miss.
            cache_capacity: 1 << 30,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("daemon address: {e}"))?;
        let state = server.state();
        let mut serve = Serve {
            addr,
            state,
            server: Some(std::thread::spawn(move || server.run())),
            seed: config.seed,
            datasets,
            keys: Vec::new(),
            script: Script::default(),
            targets,
            misses: Vec::new(),
            windows: 0,
        };

        let mut client = Client::connect(addr)?;
        let csv_header = [("Content-Type", "text/csv")];
        let uploads = serve
            .datasets
            .iter()
            .map(|d| (d.name.clone(), d.csv.clone()))
            .chain(serve.targets.iter().map(|t| (t.name.clone(), t.base_csv())));
        for (name, csv) in uploads {
            let path = format!("/datasets?name={name}");
            let r = client.send(&http::request("POST", &path, &csv_header, csv.as_bytes()))?;
            if r.status != 201 {
                return Err(format!("registering {name}: status {}", r.status));
            }
        }
        for (dataset, d) in serve.datasets.iter().enumerate() {
            for algorithm in HIT_ALGORITHMS {
                let request = profile_request(&d.name, algorithm, None, None);
                let r = client.send(&request)?;
                if r.status != 200 || r.header("x-cache") != Some("miss") {
                    return Err(format!(
                        "warming {} {algorithm}: status {} {:?}",
                        d.name,
                        r.status,
                        r.header("x-cache")
                    ));
                }
                check_payload(&r.body, &d.name, d.expected)?;
                serve.keys.push(HitKey { dataset, algorithm, request, body: r.body });
            }
        }
        serve.script = Script::new(
            serve.keys.len(),
            serve.datasets.len(),
            &mut Rng::new(config.seed, KEYS_STREAM),
        );
        Ok(serve)
    }

    /// One load thread's closed loop until `deadline`.
    fn client_loop(load: &Load<'_>, mut rng: Rng, deadline: Instant) -> ClientLog {
        let serve = load.serve;
        let mut log = ClientLog::default();
        let mut client = match Client::connect(serve.addr) {
            Ok(client) => client,
            Err(e) => {
                log.window.attempted += 1;
                log.window.fail(e);
                return log;
            }
        };
        let mut mix = Mix::new(&SERVE_MIX);
        for i in 0u64.. {
            if i > 0 && Instant::now() >= deadline {
                break;
            }
            let draw = serve.script.draw(&mut mix, &mut rng);
            let trace = load
                .origin
                .map(|_| format!("mb-{}-{}-{}-{i}", serve.seed, serve.windows, load.client));
            let trace_header = trace.as_deref().map(|t| ("X-Muds-Trace", t));
            let (kind, request, key) = match draw {
                Draw::Hit(key) => {
                    let hit = &serve.keys[key];
                    let request = match trace_header {
                        None => hit.request.clone(),
                        Some(_) => profile_request(
                            &serve.datasets[hit.dataset].name,
                            hit.algorithm,
                            None,
                            trace_header,
                        ),
                    };
                    ("hit", request, Some(key))
                }
                Draw::Miss(dataset, algorithm) => {
                    // A seed no other request used: a new cache key.
                    let seed =
                        1_000_000 * (1 + serve.windows * CLIENTS as u64 + load.client as u64) + i;
                    let name = &serve.datasets[dataset].name;
                    let request =
                        profile_request(name, HIT_ALGORITHMS[algorithm], Some(seed), trace_header);
                    ("miss", request, Some(dataset))
                }
                Draw::Append => {
                    let target = load.target;
                    let from = target.used + log.appended;
                    let Some(rows) = target.reserve.get(from..from + APPEND_ROWS) else {
                        break; // this client's append reserve is used up
                    };
                    let mut body = target.header_line.clone();
                    for (line, _) in rows {
                        body.push('\n');
                        body.push_str(line);
                    }
                    body.push('\n');
                    let path = format!("/datasets/{}/append", target.name);
                    let headers: Vec<(&str, &str)> =
                        [("Content-Type", "text/csv")].into_iter().chain(trace_header).collect();
                    ("append", http::request("POST", &path, &headers, body.as_bytes()), None)
                }
            };
            let start = load.origin.map(|o| o.elapsed());
            let timer = muds_obs::span(kind);
            let response = client.send(&request);
            let took = timer.stop();
            if let (Some(origin), Some(start), Some(trace)) = (load.origin, start, trace.clone()) {
                log.spans.push((kind, trace, start, origin.elapsed()));
            }
            let w = &mut log.window;
            w.attempted += 1;
            w.ops_ms.push(ms(took));
            w.class(kind).push(ms(took));
            let response = match response {
                Ok(r) => r,
                Err(e) => {
                    w.fail(format!("{kind} request: {e}"));
                    break; // the connection is unusable
                }
            };
            if trace.is_some() && response.header("x-muds-trace") != trace.as_deref() {
                w.fail(format!("{kind}: trace id not echoed"));
            }
            let cache = response.header("x-cache");
            match (kind, key) {
                ("hit", Some(key)) => {
                    if response.status != 200
                        || cache != Some("hit")
                        || response.body != serve.keys[key].body
                    {
                        w.fail(format!(
                            "hit on key {key}: status {} x-cache {cache:?} or body differs",
                            response.status
                        ));
                    }
                }
                ("miss", Some(dataset)) => {
                    if response.status != 200 || cache != Some("miss") {
                        w.fail(format!(
                            "miss on d{dataset}: status {} x-cache {cache:?}",
                            response.status
                        ));
                    } else {
                        log.misses.push((dataset, response.body));
                    }
                }
                _ => {
                    log.appended += APPEND_ROWS;
                    let rows = load.target.expected_rows() + log.appended;
                    if let Err(e) = check_append(&response, rows) {
                        w.fail(format!("append to {}: {e}", load.target.name));
                    }
                }
            }
        }
        log
    }
}

/// The script stream of load thread `client` in window `window`.
fn client_stream(window: u64, client: usize) -> u64 {
    SCRIPT_STREAM + 16 * (1 + window * CLIENTS as u64 + client as u64)
}

/// `POST /profile` for `dataset` with `algorithm`; `seed` forces a new
/// cache key.
pub(crate) fn profile_request(
    dataset: &str,
    algorithm: &str,
    seed: Option<u64>,
    trace: Option<(&str, &str)>,
) -> Vec<u8> {
    let seed = seed.map_or(String::new(), |s| format!(",\"seed\":{s}"));
    let body = format!("{{\"dataset\":\"{dataset}\",\"algorithm\":\"{algorithm}\"{seed}}}");
    let headers: Vec<(&str, &str)> =
        [("Content-Type", "application/json")].into_iter().chain(trace).collect();
    http::request("POST", "/profile", &headers, body.as_bytes())
}

/// An append response must report [`APPEND_ROWS`] appended rows and
/// `rows` rows in the dataset afterwards.
fn check_append(response: &http::Response, rows: usize) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!("status {}", response.status));
    }
    let doc = parse_json(&String::from_utf8_lossy(&response.body))
        .map_err(|e| format!("unreadable response: {e}"))?;
    let field = |name| doc.get(name).and_then(JsonValue::as_usize);
    match (field("appended_rows"), field("rows")) {
        (Some(APPEND_ROWS), Some(n)) if n == rows => Ok(()),
        (appended, n) => Err(format!(
            "appended {appended:?} of {APPEND_ROWS} rows, dataset has {n:?} rows, expected {rows}"
        )),
    }
}

/// Checks a profile response body of dataset `name` against `expected`.
fn check_payload(body: &[u8], name: &str, expected: u64) -> Result<(), String> {
    let payload = profile_from_json(&String::from_utf8_lossy(body))
        .map_err(|e| format!("{name}: unreadable payload: {e}"))?;
    let got = digest(&payload.inds, &payload.uccs, &payload.fds);
    if got != expected {
        return Err(format!("{name}: dependency digest {got:016x}, expected {expected:016x}"));
    }
    Ok(())
}

impl AppendTarget {
    /// One target per client, each from its own share of the rows: a sixth
    /// of the share is the registered base, the rest its reserve.
    fn generate(rng: &mut Rng, scale: usize) -> Vec<AppendTarget> {
        let full = SERVE_APPEND.generate(scale);
        let share = full.num_rows() / CLIENTS;
        (0..CLIENTS)
            .map(|client| {
                let first = client * share;
                let base_rows = share / 6;
                let mut base_ids: Vec<usize> = (first..first + base_rows).collect();
                let mut reserve_ids: Vec<usize> = (first + base_rows..first + share).collect();
                rng.shuffle(&mut base_ids);
                rng.shuffle(&mut reserve_ids);
                let reserve = full.select_rows(&reserve_ids);
                let csv = table_to_csv(&reserve, &CsvOptions::default());
                let mut lines = csv.lines();
                let header_line = lines.next().unwrap_or_default().to_string();
                AppendTarget {
                    name: format!("appends{client}"),
                    header: full.column_names().iter().map(|c| c.to_string()).collect(),
                    header_line,
                    base: base_ids.iter().map(|&r| row_strings(&full, r)).collect(),
                    reserve: lines
                        .enumerate()
                        .map(|(r, line)| (line.to_string(), row_strings(&reserve, r)))
                        .collect(),
                    used: 0,
                }
            })
            .collect()
    }

    /// Base rows plus the appended ones: what the daemon must hold.
    fn expected_rows(&self) -> usize {
        self.base.len() + self.used
    }

    /// The local copy of what the daemon must hold.
    fn expected_table(&self) -> Result<Table, String> {
        self.table(self.reserve[..self.used].iter().map(|(_, row)| row.clone()))
    }

    fn table(&self, extra: impl Iterator<Item = Vec<String>>) -> Result<Table, String> {
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self.base.iter().cloned().chain(extra).collect();
        Table::from_rows(self.name.as_str(), &header, &rows)
            .map_err(|e| format!("append target: {e}"))
    }

    fn base_csv(&self) -> String {
        self.table(std::iter::empty())
            .map(|t| table_to_csv(&t, &CsvOptions::default()))
            .unwrap_or_default()
    }
}

impl Workload for Serve {
    fn window(&mut self, duration: Duration, tracer: Option<&mut Tracer>, parent: u64) -> Window {
        let origin = tracer.as_ref().map(|t| t.origin());
        let start = Instant::now();
        let deadline = start + duration;
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let load =
                        Load { serve: &*self, client, target: &self.targets[client], origin };
                    let rng = Rng::new(self.seed, client_stream(self.windows, client));
                    scope.spawn(move || Serve::client_loop(&load, rng, deadline))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
        });
        let mut w = Window { busy: start.elapsed(), ..Window::default() };
        let mut tracer = tracer;
        for (client, log) in logs.into_iter().enumerate() {
            if log.window.attempted == 0 {
                w.fail(format!("client {client} did not run"));
            }
            w.absorb(log.window);
            self.misses.extend(log.misses);
            self.targets[client].used += log.appended;
            if let Some(tracer) = tracer.as_deref_mut() {
                for (name, trace, start, end) in log.spans {
                    tracer.record(name, parent, &trace, start, end);
                }
            }
        }
        self.windows += 1;
        w
    }

    fn verify(&mut self) -> Result<(), String> {
        let bad = self
            .misses
            .iter()
            .filter_map(|(d, body)| {
                let d = &self.datasets[*d];
                check_payload(body, &d.name, d.expected).err()
            })
            .collect::<Vec<_>>();
        if let Some(first) = bad.first() {
            return Err(format!(
                "{} of {} miss payloads are wrong, e.g. {first}",
                bad.len(),
                self.misses.len()
            ));
        }
        // Each append target holds its base plus every row its client
        // appended: the row count must match, and so must the profile.
        let mut client = Client::connect(self.addr)?;
        let listing = client.send(&http::request("GET", "/datasets", &[], b""))?;
        let listing = parse_json(&String::from_utf8_lossy(&listing.body))
            .map_err(|e| format!("unreadable dataset list: {e}"))?;
        let datasets = listing.get("datasets").and_then(JsonValue::as_array).unwrap_or_default();
        for target in &self.targets {
            let rows = datasets
                .iter()
                .find(|d| d.get("name").and_then(JsonValue::as_str) == Some(&target.name))
                .and_then(|d| d.get("rows").and_then(JsonValue::as_usize));
            if rows != Some(target.expected_rows()) {
                return Err(format!(
                    "{} holds {rows:?} rows, expected {} (an append was lost)",
                    target.name,
                    target.expected_rows()
                ));
            }
            let r = client.send(&profile_request(&target.name, "muds", Some(7), None))?;
            if r.status != 200 {
                return Err(format!("final profile of {}: status {}", target.name, r.status));
            }
            let local = target.expected_table()?;
            let config = ProfilerConfig::default();
            let expected = result_digest(&profile(&local, Algorithm::Muds, &config));
            check_payload(&r.body, &target.name, expected)?;
        }
        Ok(())
    }

    fn ledger_input(&self) -> LedgerInput {
        // The largest hit dataset.
        let d = self.datasets.iter().max_by_key(|d| d.csv.len()).expect("serve has datasets");
        LedgerInput { name: d.name.clone(), csv: d.csv.clone(), expected: d.expected }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.state.request_shutdown();
        if let Some(server) = self.server.take() {
            match server.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("mudsbench: daemon stopped with an error: {e}"),
                Err(_) => eprintln!("mudsbench: daemon thread panicked"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// delta_stream
// ---------------------------------------------------------------------------

/// A profiled table carried forward through seeded deltas.
struct Delta {
    base: Table,
    expected: u64,
    table: Table,
    result: ProfileResult,
    /// Rows not in the table: appends take from the front, deleted rows
    /// return at the back, so the script never runs dry.
    reserve: VecDeque<Vec<String>>,
    rng: Rng,
    mix: Mix,
    applied: u64,
}

impl Delta {
    fn setup(expected: u64, config: &Config) -> Result<Delta, String> {
        let full = DELTA_TABLE.0.generate(config.scale);
        let base_rows = delta_base_rows(&full);
        let mut rng = Rng::new(config.seed, ROWS_STREAM);
        let mut base_ids: Vec<usize> = (0..base_rows).collect();
        let mut reserve_ids: Vec<usize> = (base_rows..full.num_rows()).collect();
        rng.shuffle(&mut base_ids);
        rng.shuffle(&mut reserve_ids);
        let base = full.select_rows(&base_ids);
        let result = profile(&base, Algorithm::Muds, &ProfilerConfig::default());
        if result_digest(&result) != expected {
            return Err(format!(
                "delta base: dependency digest {:016x}, expected {expected:016x}",
                result_digest(&result)
            ));
        }
        Ok(Delta {
            table: base.clone(),
            base,
            expected,
            result,
            reserve: reserve_ids.iter().map(|&r| row_strings(&full, r)).collect(),
            rng: Rng::new(config.seed, SCRIPT_STREAM),
            mix: Mix::new(&DELTA_MIX),
            applied: 0,
        })
    }

    /// The next scripted delta, and the rows a delete takes out of the
    /// table (they rejoin the reserve once it applied). An append the
    /// reserve cannot fill becomes a delete.
    fn next_delta(&mut self) -> (TableDelta, Vec<Vec<String>>) {
        let append = self.mix.next(&mut self.rng) == 0;
        let rows = self.rng.range(DELTA_ROWS.0, DELTA_ROWS.1);
        if (append && self.reserve.len() >= rows) || self.table.num_rows() <= rows {
            return (TableDelta::Append { rows: self.reserve.drain(..rows).collect() }, Vec::new());
        }
        let mut ids: Vec<usize> = Vec::with_capacity(rows);
        while ids.len() < rows {
            let id = self.rng.below(self.table.num_rows());
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let removed = ids.iter().map(|&r| row_strings(&self.table, r)).collect();
        (TableDelta::Delete { rows: ids }, removed)
    }

    /// The carried result must equal a from-scratch profile.
    fn check(&self) -> Result<(), String> {
        let scratch = profile(&self.table, Algorithm::Muds, &ProfilerConfig::default());
        if result_digest(&scratch) != result_digest(&self.result) {
            return Err(format!(
                "after {} deltas the carried result differs from a from-scratch profile",
                self.applied
            ));
        }
        Ok(())
    }
}

impl Workload for Delta {
    fn window(
        &mut self,
        duration: Duration,
        mut tracer: Option<&mut Tracer>,
        parent: u64,
    ) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        while w.attempted == 0 || start.elapsed() < duration {
            let (delta, removed) = self.next_delta();
            let (kind, rows) = match &delta {
                TableDelta::Append { rows } => ("append", rows.len()),
                TableDelta::Delete { rows } => ("delete", rows.len()),
            };
            let call = || apply_incremental(&self.result, &self.table, &delta);
            let (outcome, took) = match tracer.as_deref_mut() {
                None => {
                    let timer = muds_obs::span(kind);
                    let outcome = call();
                    (outcome, timer.stop())
                }
                Some(tracer) => {
                    let span = tracer.open(kind, parent);
                    let outcome = tracer.with_program_events(span.id, call);
                    (outcome, tracer.close(span))
                }
            };
            w.attempted += 1;
            w.ops_ms.push(ms(took));
            w.class(kind).push(ms(took));
            w.busy += took;
            match outcome {
                Ok(o) if o.appended_rows + o.deleted_rows == rows => {
                    self.table = o.table;
                    self.result = o.result;
                    self.reserve.extend(removed);
                }
                Ok(o) => {
                    w.fail(format!(
                        "{kind} of {rows} rows changed {} rows",
                        o.appended_rows + o.deleted_rows
                    ));
                    break;
                }
                Err(e) => {
                    w.fail(format!("{kind}: {e}"));
                    break;
                }
            }
            self.applied += 1;
            if self.applied.is_multiple_of(CHECK_EVERY) {
                let cpu = cpu_time();
                if let Err(e) = self.check() {
                    w.fail(e);
                }
                w.check_cpu += cpu_time().saturating_sub(cpu);
            }
        }
        w
    }

    fn verify(&mut self) -> Result<(), String> {
        self.check()
    }

    fn ledger_input(&self) -> LedgerInput {
        LedgerInput {
            name: self.base.name().to_string(),
            csv: table_to_csv(&self.base, &CsvOptions::default()),
            expected: self.expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_script(seed: u64, requests: usize) -> Vec<Draw> {
        let script = Script::new(16, 8, &mut Rng::new(seed, KEYS_STREAM));
        let mut rng = Rng::new(seed, client_stream(0, 0));
        let mut mix = Mix::new(&SERVE_MIX);
        (0..requests).map(|_| script.draw(&mut mix, &mut rng)).collect()
    }

    #[test]
    fn serve_scripts_repeat_per_seed_and_keep_their_mix() {
        let a = serve_script(1, 5000);
        assert_eq!(a, serve_script(1, 5000), "same seed, same script");
        assert_ne!(a, serve_script(2, 5000), "another seed, another script");
        let hits: Vec<usize> =
            a.iter().filter_map(|d| if let Draw::Hit(k) = d { Some(*k) } else { None }).collect();
        assert_eq!(hits.len(), 4500);
        assert_eq!(a.iter().filter(|d| matches!(d, Draw::Miss(..))).count(), 400);
        assert_eq!(a.iter().filter(|d| matches!(d, Draw::Append)).count(), 100);
        // Zipf(1): the top-ranked key takes about 1/H(16) ≈ 30% of the hits.
        let top = Script::new(16, 8, &mut Rng::new(1, KEYS_STREAM)).rank[0];
        let share = hits.iter().filter(|&&k| k == top).count() as f64 / hits.len() as f64;
        assert!((0.25..0.36).contains(&share), "top key share {share}");
    }

    /// A scaled-down run's settings.
    fn small(workload: &str, seed: u64, scale: usize) -> Config {
        Config { workload: workload.to_string(), seed, seconds: 0.0, trace: false, scale }
    }

    fn delta_script(seed: u64) -> Vec<TableDelta> {
        let config = small("delta_stream", seed, 20);
        let expected = pins("delta_stream", config.scale)[0];
        let mut delta = Delta::setup(expected, &config).expect("scaled-down setup");
        (0..30).map(|_| delta.next_delta().0).collect()
    }

    #[test]
    fn delta_scripts_repeat_per_seed() {
        let a = delta_script(4);
        assert_eq!(a, delta_script(4));
        assert_ne!(a, delta_script(5));
        let appends = a.iter().filter(|d| matches!(d, TableDelta::Append { .. })).count();
        assert_eq!(appends, 21, "seven appends in every block of ten");
    }

    #[test]
    fn a_wrong_expected_digest_fails_the_setup() {
        let config = small("batch_wide", 3, 50);
        let right = pins("batch_wide", config.scale)[0];
        assert!(Batch::setup(&BATCH_WIDE.0, right, &config).is_ok());
        let error = Batch::setup(&BATCH_WIDE.0, right ^ 1, &config).err().expect("sabotaged pin");
        assert!(error.contains("digest"), "{error}");

        let config = small("delta_stream", 3, 50);
        let right = pins("delta_stream", config.scale)[0];
        let error = Delta::setup(right ^ 1, &config).err().expect("sabotaged pin");
        assert!(error.contains("digest"), "{error}");
    }

    #[test]
    fn a_lost_append_fails_the_serve_check() {
        let config = small("serve_mix", 3, 50);
        let mut serve = Serve::setup(&pins("serve_mix", config.scale), &config).expect("setup");
        let window = serve.window(Duration::from_millis(300), None, 0);
        assert_eq!(window.failed, 0, "{:?}", window.errors);
        serve.verify().expect("every append arrived");

        // Rebind the first target to its content without the last append,
        // as a lost concurrent update would leave it. Five fewer rows
        // rarely change the dependency set; the row count catches it.
        let target = &serve.targets[0];
        assert!(target.used >= APPEND_ROWS, "the window appended to {}", target.name);
        let kept = target.reserve[..target.used - APPEND_ROWS].iter().map(|(_, r)| r.clone());
        let csv = table_to_csv(&target.table(kept).expect("table"), &CsvOptions::default());
        let path = format!("/datasets?name={}", target.name);
        let headers = [("Content-Type", "text/csv")];
        let mut client = Client::connect(serve.addr).expect("connect");
        let r = client.send(&http::request("POST", &path, &headers, csv.as_bytes())).expect("send");
        assert_eq!(r.status, 201);
        let error = serve.verify().expect_err("a lost append must fail the check");
        assert!(error.contains("rows"), "{error}");
    }

    #[test]
    fn append_responses_are_checked_for_the_row_count() {
        let response = |body: &str| http::Response {
            status: 200,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let ok = response("{\"rows\":105,\"appended_rows\":5,\"deleted_rows\":0}");
        assert_eq!(check_append(&ok, 105), Ok(()));
        assert!(check_append(&ok, 110).is_err(), "a lost earlier append");
        let deduplicated = response("{\"rows\":104,\"appended_rows\":4,\"deleted_rows\":0}");
        assert!(check_append(&deduplicated, 104).is_err());
        assert!(check_append(&response("not json"), 105).is_err());
    }
}
