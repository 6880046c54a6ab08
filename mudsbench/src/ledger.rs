//! The traced run's layer ledger: the workload's input replayed one layer
//! at a time, each call timed from outside by a bench span.
//!
//! Where an end-to-end operation is one `profile_csv` call, the ledger runs
//! its layers separately — CSV parse, dictionary encode, PLI build, PLI
//! intersect and refinement, SPIDER, then `profile(&table)` per algorithm —
//! and adds the layers only other workloads reach: the stats scan, payload
//! serialization, HTTP framing, the result cache, and the delta path. Each
//! value is measured on this workload's own table, so comparing ledgers
//! across workloads shows which layers each workload stresses.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use muds_core::{
    apply_incremental, profile, profile_to_json, Algorithm, IncrementalOutcome, ProfileResult,
    ProfilerConfig,
};
use muds_lattice::{ColumnSet, SetTrie};
use muds_pli::{Pli, PliCache};
use muds_serve::http::{parse_buffered, Framed, Response};
use muds_serve::{Begin, CacheKey, ResultCache, ServeMetrics};
use muds_table::{fingerprint, parse_csv_records, CsvOptions, Table, TableDelta};

use crate::alloc;
use crate::inputs::{result_digest, row_strings, Rng};
use crate::trace::Tracer;
use crate::workloads::profile_request;

/// Repetitions of each sub-microsecond serve-layer call.
const MICRO_REPS: usize = 2000;

/// Rows deleted and appended back by the delta step.
const DELTA_ROWS: usize = 10;

/// What the ledger replays: one table of the workload as CSV text, and the
/// dependency digest every algorithm must reproduce on it.
pub struct LedgerInput {
    pub name: String,
    pub csv: String,
    pub expected: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Mean microseconds per call over `calls` runs of `f`, timed as one bench
/// span: many of these calls take well under a microsecond, so timing each
/// one would mostly measure the clock.
fn per_call_us(
    tracer: &mut Tracer,
    name: &str,
    parent: u64,
    calls: usize,
    f: impl FnMut(usize),
) -> f64 {
    let span = tracer.open(name, parent);
    (0..calls).for_each(f);
    us(tracer.close(span)) / calls.max(1) as f64
}

/// Ledger values by metric name.
type Values = BTreeMap<&'static str, f64>;

/// Runs every ledger step under span `parent` and returns each per-layer
/// metric except `obs.trace_overhead_frac`, which needs the workload's own
/// operation loop.
pub fn run(
    input: &LedgerInput,
    seed: u64,
    tracer: &mut Tracer,
    parent: u64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut v = Values::default();
    let table = ingest(input, tracer, parent, &mut v)?;
    plis(&table, tracer, parent, &mut v);
    let span = tracer.open("ind.spider", parent);
    std::hint::black_box(muds_ind::spider(&table));
    v.insert("ind.spider_ms", ms(tracer.close(span)));
    let muds = algorithms(&table, input.expected, tracer, parent, &mut v)?;
    lattice(&muds, tracer, parent, &mut v);
    let payload = stats_and_payload(&table, &muds, tracer, parent, &mut v);
    serve_layers(&table, &input.name, payload, tracer, parent, &mut v)?;
    delta(&table, &muds, input.expected, seed, tracer, parent, &mut v)?;
    Ok(v)
}

/// CSV parse and dictionary encode, timed and allocation-counted apart —
/// the two halves of `table_from_csv`.
fn ingest(
    input: &LedgerInput,
    tracer: &mut Tracer,
    parent: u64,
    v: &mut Values,
) -> Result<Table, String> {
    let options = CsvOptions::default();
    alloc::set_counting(true);
    let before = alloc::allocated_bytes();
    let span = tracer.open("table.csv_parse", parent);
    let records = parse_csv_records(&input.csv, &options);
    v.insert("table.csv_parse_ms", ms(tracer.close(span)));
    let parsed = alloc::allocated_bytes();
    alloc::set_counting(false);
    let mut rows: Vec<Vec<String>> =
        records.map_err(|e| format!("ledger parse: {e}"))?.into_iter().map(|r| r.fields).collect();
    if rows.is_empty() {
        return Err("ledger input has no header".to_string());
    }
    let header = rows.remove(0);
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    alloc::set_counting(true);
    let before_encode = alloc::allocated_bytes();
    let span = tracer.open("table.dict_encode", parent);
    let table = Table::from_rows(input.name.as_str(), &header, &rows);
    v.insert("table.dict_encode_ms", ms(tracer.close(span)));
    let encoded = alloc::allocated_bytes();
    alloc::set_counting(false);
    v.insert("table.parse_alloc_mb", mb(parsed - before));
    v.insert("table.encode_alloc_mb", mb(encoded - before_encode));
    table.map_err(|e| format!("ledger encode: {e}"))
}

/// PLI construction, per-call intersect and refinement over every column
/// pair, and the cache footprint once every pair is cached.
fn plis(table: &Table, tracer: &mut Tracer, parent: u64, v: &mut Values) {
    let span = tracer.open("pli.build", parent);
    let plis: Vec<Pli> = table.columns().iter().map(Pli::from_column).collect();
    v.insert("pli.build_ms", ms(tracer.close(span)));
    let n = plis.len();
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
    v.insert(
        "pli.intersect_us",
        per_call_us(tracer, "pli.intersect", parent, pairs.len(), |k| {
            let (i, j) = pairs[k];
            std::hint::black_box(plis[i].intersect(&plis[j]));
        }),
    );
    let ordered: Vec<(usize, usize)> =
        (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))).collect();
    v.insert(
        "pli.refines_us",
        per_call_us(tracer, "pli.refines", parent, ordered.len(), |k| {
            let (i, j) = ordered[k];
            std::hint::black_box(plis[i].refines(table.column(j).codes()));
        }),
    );
    let span = tracer.open("pli.cache", parent);
    let mut cache = PliCache::new(table);
    let sets: Vec<ColumnSet> =
        pairs.iter().map(|&(i, j)| ColumnSet::from_indices([i, j])).collect();
    std::hint::black_box(cache.get_many(&sets));
    v.insert("pli.cache_mb", mb(cache.estimated_bytes() as u64));
    tracer.close(span);
}

/// `profile(&table)` for each algorithm under its own registry, checking
/// every result; returns the MUDS result for the later steps.
fn algorithms(
    table: &Table,
    expected: u64,
    tracer: &mut Tracer,
    parent: u64,
    v: &mut Values,
) -> Result<ProfileResult, String> {
    let config = ProfilerConfig::default();
    let mut muds = None;
    for (algorithm, metric) in [
        (Algorithm::Muds, "core.muds_ms"),
        (Algorithm::HolisticFun, "core.hfun_ms"),
        (Algorithm::Tane, "core.tane_ms"),
        (Algorithm::Baseline, "core.baseline_ms"),
    ] {
        let span = tracer.open(metric.trim_end_matches("_ms"), parent);
        let id = span.id;
        let result = tracer.with_program_events(id, || profile(table, algorithm, &config));
        let wall = tracer.close(span);
        v.insert(metric, ms(wall));
        if result_digest(&result) != expected {
            return Err(format!(
                "ledger: {} found other dependencies than expected",
                algorithm.name()
            ));
        }
        let m = &result.metrics;
        match algorithm {
            Algorithm::Muds => {
                let phase = |names: &[&str]| -> f64 {
                    result
                        .phases
                        .iter()
                        .filter(|p| names.contains(&p.name.as_str()))
                        .map(|p| ms(p.duration))
                        .sum()
                };
                v.insert("core.muds.ducc_ms", phase(&["DUCC"]));
                v.insert("core.muds.rz_ms", phase(&["calculate R\\Z"]));
                v.insert(
                    "core.muds.shadowed_ms",
                    phase(&["generate shadowed fd tasks", "minimize shadowed tasks"]),
                );
                v.insert("core.muds.sweep_ms", phase(&["completion sweep"]));
                let attributed = result.total_time().as_secs_f64();
                v.insert(
                    "core.unattributed_frac",
                    1.0 - attributed / wall.as_secs_f64().max(f64::MIN_POSITIVE),
                );
                v.insert("pli.intersects", m.counter("pli.intersects") as f64);
                v.insert("pli.refinement_checks", m.counter("pli.refinement_checks") as f64);
                v.insert("pli.hit_ratio", ratio(m.counter("pli.hits"), m.counter("pli.requests")));
                v.insert("trie.node_probes", m.counter("trie.node_probes") as f64);
                v.insert("walk.oracle_calls", m.counter("walk.oracle_calls") as f64);
                v.insert("walk.nodes_visited", m.counter("walk.nodes_visited") as f64);
                muds = Some(result);
            }
            Algorithm::HolisticFun => {
                let inferred = m.counter("fun.cards_inferred");
                v.insert(
                    "fun.cards_inferred_ratio",
                    ratio(inferred, inferred + m.counter("fun.cards_computed")),
                );
            }
            _ => {}
        }
    }
    muds.ok_or_else(|| "ledger: MUDS did not run".to_string())
}

/// Set-trie subset queries with the discovered FD left-hand sides.
fn lattice(muds: &ProfileResult, tracer: &mut Tracer, parent: u64, v: &mut Values) {
    let lhss: Vec<ColumnSet> = muds.fds.to_sorted_vec().into_iter().map(|fd| fd.lhs).collect();
    let trie = SetTrie::from_sets(lhss.iter().copied());
    v.insert(
        "lattice.trie_subset_us",
        per_call_us(tracer, "lattice.trie_subset", parent, lhss.len(), |k| {
            std::hint::black_box(trie.subsets_of(&lhss[k]));
        }),
    );
}

/// The stats scan and the wire document a cache miss pays for.
fn stats_and_payload(
    table: &Table,
    muds: &ProfileResult,
    tracer: &mut Tracer,
    parent: u64,
    v: &mut Values,
) -> String {
    let uccs: Vec<Vec<usize>> = muds.minimal_uccs.iter().map(|u| u.to_vec()).collect();
    let inds: Vec<(usize, usize)> = muds.inds.iter().map(|i| (i.dependent, i.referenced)).collect();
    let span = tracer.open("stats.scan", parent);
    let stats = muds_stats::compute_stats(table, &uccs, &inds);
    v.insert("stats.scan_ms", ms(tracer.close(span)));
    let mut result = muds.clone();
    result.stats = Some(stats);
    let columns = table.column_names();
    let span = tracer.open("serialize.to_json", parent);
    let payload = profile_to_json(&result, table.name(), &columns);
    v.insert("serialize.to_json_ms", ms(tracer.close(span)));
    v.insert("serialize.payload_kb", payload.len() as f64 / 1024.0);
    payload
}

/// The three layers a cache hit crosses in the daemon: request framing,
/// the result-cache lookup, and response encoding.
fn serve_layers(
    table: &Table,
    name: &str,
    payload: String,
    tracer: &mut Tracer,
    parent: u64,
    v: &mut Values,
) -> Result<(), String> {
    let request = profile_request(name, "muds", None, None);
    if !matches!(parse_buffered(&request, 64 << 20), Ok(Framed::Complete { .. })) {
        return Err("ledger: the daemon's parser rejects the client's request".to_string());
    }
    v.insert(
        "serve.http_parse_us",
        per_call_us(tracer, "serve.http_parse", parent, MICRO_REPS, |_| {
            std::hint::black_box(parse_buffered(&request, 64 << 20).ok());
        }),
    );

    let cache = ResultCache::new(64 << 20, Arc::new(ServeMetrics::new()));
    let key = CacheKey {
        fingerprint: fingerprint(table),
        algorithm: Algorithm::Muds,
        config: ProfilerConfig::default().cache_key(),
    };
    let Begin::Leader(flight) = cache.begin(&key) else {
        return Err("ledger: an empty result cache did not hand out leadership".to_string());
    };
    cache.complete(&key, &flight, Arc::new(payload.clone()));
    let mut misses = 0usize;
    v.insert(
        "serve.cache_lookup_us",
        per_call_us(tracer, "serve.cache_lookup", parent, MICRO_REPS, |_| {
            if !matches!(cache.begin(&key), Begin::Hit(_)) {
                misses += 1;
            }
        }),
    );
    if misses > 0 {
        return Err(format!("ledger: {misses} cache lookups of a cached key missed"));
    }

    let response = Response::json(200, payload).with_header("X-Cache", "hit");
    v.insert(
        "serve.response_encode_us",
        per_call_us(tracer, "serve.response_encode", parent, MICRO_REPS, |_| {
            std::hint::black_box(response.to_bytes(true));
        }),
    );
    Ok(())
}

/// `apply_incremental` under span `name`, with its revalidation time and
/// its (skipped, revalidated) check counts.
fn incremental(
    name: &str,
    old: &ProfileResult,
    table: &Table,
    delta: &TableDelta,
    tracer: &mut Tracer,
    parent: u64,
) -> Result<(IncrementalOutcome, f64, (u64, u64)), String> {
    let span = tracer.open(name, parent);
    let outcome = tracer.with_program_events(span.id, || apply_incremental(old, table, delta));
    tracer.close(span);
    let outcome = outcome.map_err(|e| format!("ledger {name}: {e}"))?;
    let revalidate = outcome.result.phases.iter().find(|p| p.name == "delta revalidate");
    let revalidate_ms = revalidate.map_or(0.0, |p| ms(p.duration));
    let checks = (outcome.skipped, outcome.revalidated);
    Ok((outcome, revalidate_ms, checks))
}

/// The write path: delete [`DELTA_ROWS`] seeded rows, then append them
/// back — table delta, PLI patching, and incremental revalidation in both
/// directions — which must restore the original dependency set.
fn delta(
    table: &Table,
    muds: &ProfileResult,
    expected: u64,
    seed: u64,
    tracer: &mut Tracer,
    parent: u64,
    v: &mut Values,
) -> Result<(), String> {
    let mut ids = Rng::new(seed, crate::workloads::LEDGER_STREAM).permutation(table.num_rows());
    ids.truncate(DELTA_ROWS.min(table.num_rows()));
    let removed: Vec<Vec<String>> = ids.iter().map(|&r| row_strings(table, r)).collect();
    let delete = TableDelta::Delete { rows: ids };
    let (deleted, delete_ms, delete_checks) =
        incremental("core.apply_incremental.delete", muds, table, &delete, tracer, parent)?;
    let append = TableDelta::Append { rows: removed };

    let span = tracer.open("table.apply_delta", parent);
    let outcome = deleted.table.apply_delta(&append);
    v.insert("table.apply_delta_ms", ms(tracer.close(span)));
    let outcome = outcome.map_err(|e| format!("ledger append: {e}"))?;

    let old: Vec<Pli> = deleted.table.columns().iter().map(Pli::from_column).collect();
    let span = tracer.open("pli.apply_append", parent);
    for (c, pli) in old.iter().enumerate() {
        std::hint::black_box(pli.apply_append(outcome.table.column(c).codes()));
    }
    v.insert("pli.apply_append_ms", ms(tracer.close(span)));

    let (restored, append_ms, append_checks) = incremental(
        "core.apply_incremental.append",
        &deleted.result,
        &deleted.table,
        &append,
        tracer,
        parent,
    )?;
    if result_digest(&restored.result) != expected {
        return Err("ledger: deleting and re-appending rows changed the dependency set".to_string());
    }
    v.insert("core.revalidate_ms", delete_ms + append_ms);
    let skipped = delete_checks.0 + append_checks.0;
    v.insert("delta.skip_ratio", ratio(skipped, skipped + delete_checks.1 + append_checks.1));
    Ok(())
}
