//! Pieces every workload shares: repeated set-up, the client-side
//! latency metrics, and the per-layer metrics of the traced run.

use crate::read::{Phase, ReadLedger, RouterLedger, Sample};
use crate::report::Report;
use crate::setup::{self, Served, Stages};
use crate::stats::{beyond, median, windowed_percentile, windowed_rate};
use crate::trace::{self_times_by_name, write_spans as write_span_file, Tracer};
use crate::oracle::{check_classify, check_neighbors, expect, Expect};
use crate::read::Responses;
use crate::traffic::{ReadTraffic, Verb, K};
use aa_util::Json;
use std::collections::HashMap;
use crate::Args;
use aa_core::ClusteredModel;
use aa_serve::ModelState;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Where runs keep their working state and write their spans.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Sets the workload up `SETUPS` times from nothing — each a fresh server
/// process, the earlier ones shut down first — and keeps the last one.
pub fn set_up_repeatedly(workload: &str, durable_root: Option<&Path>) -> Result<(Served, Vec<(f64, Stages)>), String> {
    let mut timings = Vec::new();
    let mut last: Option<Served> = None;
    for i in 0..SETUPS {
        if let Some(previous) = last.take() {
            previous.shutdown()?;
        }
        let root = durable_root.map(|r| r.join(format!("setup{i}")));
        if let Some(root) = &root {
            let _ = std::fs::remove_dir_all(root);
        }
        let (served, setup_s) = setup::start(workload, root.as_deref())?;
        timings.push((setup_s, served.stages));
        last = Some(served);
    }
    Ok((last.expect("at least one set-up"), timings))
}

/// The benchmark's own offline build of the model, checked against the
/// one the server process built.
pub fn own_model(report: &mut Report, log: &[String], served: &Served) -> ClusteredModel {
    let (model, _) = setup::build_model_staged(log);
    report.check(
        "served model equals the benchmark's offline build",
        if model.content_hash() == served.model_hash {
            Ok(format!("{} areas, {} clusters", model.areas.len(), model.cluster_count))
        } else {
            Err(format!("content hash {} vs {}", served.model_hash, model.content_hash()))
        },
    );
    model
}

/// Length of the measured phase; a traced run splits `--seconds` between
/// its untraced and traced phases.
pub fn phase_length(args: &Args) -> Duration {
    let secs = if args.trace { args.seconds / 2.0 } else { args.seconds };
    Duration::from_secs_f64(secs)
}

/// The machine's `(steal, total)` CPU ticks from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of CPU time the host took from this machine since `before`:
/// run-level slowdowns of CPU-bound workloads are reported against it.
pub fn steal_note(before: Option<(u64, u64)>) -> String {
    match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("cpu steal during the run: {:.2}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "cpu steal during the run: unknown".to_string(),
    }
}

/// Extraction-cache hits over lookups across the given servers, from
/// their `stats` verb, with the summed counters for the report.
pub fn cache_hit_share(servers: &[String]) -> Result<(f64, String), String> {
    let mut sums = [0.0f64; 4];
    let keys = ["hits", "misses", "evictions", "invalidations"];
    for addr in servers {
        let stats = Served::ask(addr, "{\"op\":\"stats\"}")?;
        let cache = stats.get("stats").and_then(|s| s.get("cache")).ok_or("stats without a cache block")?;
        for (sum, k) in sums.iter_mut().zip(keys) {
            *sum += cache.get(k).and_then(aa_util::Json::as_f64).unwrap_or(0.0);
        }
    }
    let counters = keys.iter().zip(sums).map(|(k, v)| format!("{k} {v}")).collect::<Vec<_>>().join(", ");
    Ok((sums[0] / (sums[0] + sums[1]).max(1.0), format!("extraction cache: {counters}")))
}

pub fn setup_metrics(report: &mut Report, setups: &[(f64, Stages)], traced: bool) {
    let pick = |f: &dyn Fn(&(f64, Stages)) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.e2e("setup_s", pick(&|s| s.0), "s");
    if traced {
        report.layer("setup.extract_s", pick(&|s| s.1.extract_s), "s");
        report.layer("setup.kernel_build_ms", pick(&|s| s.1.kernel_build_ms), "ms");
        report.layer("setup.dbscan_s", pick(&|s| s.1.dbscan_s), "s");
    }
}

/// Latencies of one verb in one phase, in send order.
fn latencies(samples: &[&Sample], verb: Verb, phase: Phase) -> Vec<f64> {
    let mut picked: Vec<&&Sample> = samples.iter().filter(|s| s.verb == verb && s.phase == phase).collect();
    picked.sort_by_key(|s| s.send_ns);
    picked.iter().map(|s| s.lat_us()).collect()
}

/// Completions per window of the throughput figure.
const RATE_WINDOW: usize = 1_000;

/// A tail percentile with its sample count, named after the percentile.
fn tail_note(report: &mut Report, name: &str, values: &[f64], pct: f64) {
    report.notes.push(format!(
        "{name}: {} samples, {} beyond p{pct}",
        values.len(),
        beyond(values, pct)
    ));
}

/// The gated read metrics every workload reports, plus each verb's
/// percentile-named figures. Tails and throughput are medians over
/// windows of the measured phase (see `stats`).
#[allow(clippy::too_many_arguments)]
pub fn latency_metrics(
    report: &mut Report,
    samples: &[&Sample],
    epoch: Instant,
    start: Instant,
    end: Instant,
    tail: f64,
    peak_rss_mb: f64,
    cache_share: f64,
) {
    let mut done: Vec<u64> = samples.iter().filter(|s| s.phase == Phase::Measured).map(|s| s.recv_ns).collect();
    done.sort_unstable();
    let measured = done.len();
    let secs = end.duration_since(start).as_secs_f64();
    let start_ns = start.duration_since(epoch).as_nanos() as u64;
    let end_ns = end.duration_since(epoch).as_nanos() as u64;
    let classify = latencies(samples, Verb::Classify, Phase::Measured);
    let neighbors = latencies(samples, Verb::Neighbors, Phase::Measured);
    report.e2e("throughput_rps", windowed_rate(start_ns, end_ns, &done, RATE_WINDOW), "1/s");
    report.e2e("classify_p50_us", median(&classify), "us");
    report.e2e("classify_tail_us", windowed_percentile(&classify, tail), "us");
    report.e2e("neighbors_p50_us", median(&neighbors), "us");
    report.e2e("peak_rss_mb", peak_rss_mb, "MB");
    report.e2e_extra(&format!("classify_p{tail}_us"), windowed_percentile(&classify, tail), "us");
    tail_note(report, "classify", &classify, tail);
    if neighbors.len() >= 1_000 {
        report.e2e_extra("neighbors_p99_us", windowed_percentile(&neighbors, 99.0), "us");
        tail_note(report, "neighbors", &neighbors, 99.0);
    } else {
        report.notes.push(format!("neighbors: {} samples, median only", neighbors.len()));
    }
    report.notes.push(format!("measured phase {secs:.3} s, {measured} requests"));
    report.notes.push(format!("extraction-cache hit share {cache_share:.4}"));
}

/// `ModelState::build` over the set-up model (median of three).
pub fn state_build_metric(report: &mut Report, model: &ClusteredModel) {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let m = model.clone();
            let t = Instant::now();
            let state = ModelState::build(m, 0);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(state);
            ms
        })
        .collect();
    report.layer("engine.state_build_ms", median(&times), "ms");
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The read-path layers every workload crosses.
pub fn read_layer_metrics(report: &mut Report, tracers: &[Tracer], ledgers: &[ReadLedger], wire_us: &[f64], cache_share: f64) {
    let selfs = self_times_by_name(tracers);
    let m = |name: &str| selfs.get(name).map_or(f64::NAN, |v| median(v));
    let all = |f: &dyn Fn(&ReadLedger) -> &Vec<f64>| -> Vec<f64> { ledgers.iter().flat_map(|l| f(l).iter().copied()).collect() };
    report.layer("sql.fingerprint_us", m("sql.fingerprint"), "us");
    report.layer("cache.hit_ratio", cache_share, "ratio");
    report.layer("extract.miss_us", m("extract.miss"), "us");
    report.layer("kernel.flatten_us", m("kernel.flatten"), "us");
    report.layer("kernel.pairs_per_query", mean(&all(&|l| &l.kernel_pairs)), "count");
    report.layer("kernel.atoms_per_query", mean(&all(&|l| &l.kernel_atoms)), "count");
    report.layer("index.knn_us", m("index.knn"), "us");
    report.layer("index.evaluated_per_query", mean(&all(&|l| &l.index_evaluated)), "count");
    report.layer("engine.classify_us", m("engine.classify"), "us");
    report.layer("engine.neighbors_us", m("engine.neighbors"), "us");
    report.layer("json.request_parse_us", m("json.request_parse"), "us");
    report.layer("json.response_write_us", m("json.response_write"), "us");
    report.layer("server.wire_us", median(wire_us), "us");
}

/// Untraced wire latency minus the in-process engine time of the same
/// operation (the traced phase's operation at the same stream position).
pub fn wire_minus_engine(samples: &[Sample], ledger: &ReadLedger) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.phase == Phase::Measured)
        .zip(&ledger.engine_us)
        .map(|(s, engine)| s.lat_us() - engine)
        .collect()
}

/// Tracing overhead: traced minus untraced classify median.
pub fn overhead_metric(report: &mut Report, samples: &[&Sample]) {
    let untraced = median(&latencies(samples, Verb::Classify, Phase::Measured));
    let traced = median(&latencies(samples, Verb::Classify, Phase::Traced));
    report.layer("trace.overhead_us", traced - untraced, "us");
}

/// The router's layers (fleet only), and where routed read time goes.
pub fn router_layer_metrics(report: &mut Report, ledgers: &[RouterLedger]) {
    let all = |f: &dyn Fn(&RouterLedger) -> &Vec<f64>| -> Vec<f64> { ledgers.iter().flat_map(|l| f(l).iter().copied()).collect() };
    report.layer_extra("router.handle_us", median(&all(&|l| &l.handle_us)), "us");
    report.layer_extra("router.self_us", median(&all(&|l| &l.self_us)), "us");
    report.layer_extra("router.link_us", median(&all(&|l| &l.link_us)), "us");
    report.layer_extra("router.merge_us", median(&all(&|l| &l.merge_us)), "us");
    let (wire, links, engines) = ledgers
        .iter()
        .flat_map(|l| l.attribution.iter())
        .fold((0.0, 0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    report.layer_extra("router.link_share", links / wire, "ratio");
    report.layer_extra("shard.engine_share", engines / wire, "ratio");
}

/// Writes the traced run's spans next to the benchmark (one file per
/// workload, replaced by its next traced run).
pub fn write_spans(report: &mut Report, args: &Args, tracers: &[Tracer]) {
    let path = out_dir().join(format!("{}.spans.tsv", args.workload));
    match write_span_file(&path, tracers) {
        Ok(n) => report.notes.push(format!("{n} spans written to {}", path.display())),
        Err(e) => report.check("spans written", Err(e.to_string())),
    }
}

/// Every read answer against the brute-force oracle of a model that may
/// have served it: `candidates(sample)` names indices into `models` (one
/// model for a fixed deployment; either side of a reload that overlapped
/// the read on `ingest_mixed`). Also tallies attempted and failed reads.
/// Statements are split between threads, so no oracle answer is computed
/// twice.
pub fn check_reads(
    report: &mut Report,
    samples: &[&Sample],
    responses: &Responses,
    traffic: &ReadTraffic,
    models: &[&ClusteredModel],
    candidates: &(dyn Fn(&Sample) -> Vec<usize> + Sync),
) {
    let parsed: Vec<Option<Json>> = responses.texts.iter().map(|t| Json::parse(t).ok()).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4) as u64;
    let parts: Vec<ReadVerdicts> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|part| {
                let parsed = &parsed;
                scope.spawn(move || {
                    let mine = samples.iter().filter(|s| s.item % threads == part);
                    check_read_part(mine, parsed, traffic, models, candidates)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("checker thread")).collect()
    });
    let mut wrong = Vec::new();
    let mut rejected = 0usize;
    for part in parts {
        for (verb, failed) in part.ops {
            report.op(verb, failed);
        }
        wrong.extend(part.wrong);
        rejected += part.rejected;
    }
    let n = samples.len();
    report.check(
        "answers equal the brute-force scalar oracle",
        match wrong.first() {
            None => Ok(format!(
                "{n} answers; {rejected} are typed extract_failed, and the offline extractor rejects those statements too"
            )),
            Some(w) => Err(format!("{} of {n} wrong; first: {w}", wrong.len())),
        },
    );
}

/// One checker thread's findings.
#[derive(Default)]
struct ReadVerdicts {
    ops: Vec<(Verb, bool)>,
    wrong: Vec<String>,
    rejected: usize,
}

fn check_read_part<'s>(
    samples: impl Iterator<Item = &'s &'s Sample>,
    parsed: &[Option<Json>],
    traffic: &ReadTraffic,
    models: &[&ClusteredModel],
    candidates: &dyn Fn(&Sample) -> Vec<usize>,
) -> ReadVerdicts {
    let mut out = ReadVerdicts::default();
    let mut oracle: HashMap<(usize, u64), Expect> = HashMap::new();
    let mut verdicts: HashMap<(usize, u64, u32), Result<(), String>> = HashMap::new();
    for s in samples {
        let Some(resp) = &parsed[s.resp as usize] else {
            out.ops.push((s.verb, true));
            out.wrong.push(format!("{} on statement {}: unparseable response", s.verb.name(), s.item));
            continue;
        };
        let ok = resp.get("ok") == Some(&Json::Bool(true));
        out.ops.push((s.verb, !ok && resp.get("kind").and_then(Json::as_str) != Some("extract_failed")));
        let mut last_err = String::from("no model was serving");
        let mut passed = false;
        for k in candidates(s) {
            let model = models[k];
            let exp = oracle.entry((k, s.item)).or_insert_with(|| expect(model, traffic.sql(s.item as u32), K));
            let verdict = verdicts.entry((k, s.item, s.resp)).or_insert_with(|| match s.verb {
                Verb::Neighbors => check_neighbors(resp, exp, model),
                _ => check_classify(resp, exp, model),
            });
            match verdict {
                Ok(()) => {
                    passed = true;
                    out.rejected += usize::from(matches!(exp, Expect::Rejected));
                    break;
                }
                Err(e) => last_err = format!("model {k}: {e}"),
            }
        }
        if !passed {
            out.wrong.push(format!("{} on statement {}: {last_err}", s.verb.name(), s.item));
        }
    }
    out
}
