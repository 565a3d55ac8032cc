//! `read_single` and `fleet_read`: the read stream against one server, or
//! through the router in front of three table-signature shards.

use crate::client::WireClient;
use crate::read::{drive_reads, Decompose, FleetLayers, Phase, ReadLayers, Responses, Sample, Until};
use crate::report::Report;
use crate::setup::{self, CACHE, FUEL, SHARDS};
use crate::trace::Tracer;
use crate::traffic::{ReadTraffic, Verb, K};
use crate::{common, Args};
use aa_core::ClusteredModel;
use aa_serve::{ServeEngine, ShardSpec};
use aa_util::Json;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Untimed rounds per connection before measuring: enough to touch
/// nearly every hot statement; the fleet, hundreds of times slower per
/// request, warms with one.
pub const WARM_ROUNDS: u64 = 250;

/// What one reader connection brings back.
struct ConnResult {
    samples: Vec<Sample>,
    responses: Responses,
    measured: (Instant, Instant),
    tracer: Option<Tracer>,
    read_ledger: Option<crate::read::ReadLedger>,
    wire_us: Vec<f64>,
    router_ledger: Option<crate::read::RouterLedger>,
}

pub fn run(args: &Args, fleet: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let ticks = common::cpu_ticks();
    let log = setup::model_log();
    let traffic = ReadTraffic::new(args.seed);
    let (served, setups) = common::set_up_repeatedly(&args.workload, None)?;
    let model = common::own_model(&mut report, &log, &served);
    let front = served.front.clone();
    let backends = served.shards.clone();
    let conns: u64 = if fleet { 2 } else { 1 };
    let phase = common::phase_length(args);
    let shard_engines: Arc<Vec<ServeEngine>> = Arc::new(if fleet && args.trace {
        (0..SHARDS)
            .map(|shard| ServeEngine::new_sharded(model.clone(), CACHE, FUEL, Some(ShardSpec { shard, of: SHARDS })))
            .collect()
    } else {
        Vec::new()
    });
    let epoch = Instant::now();
    let barrier = Barrier::new(conns as usize);
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (traffic, front, barrier, model, backends, shard_engines) =
                    (&traffic, &front, &barrier, &model, &backends, &shard_engines);
                s.spawn(move || -> Result<ConnResult, String> {
                    let mut client = WireClient::connect(front).map_err(|e| e.to_string())?;
                    let mut samples = Vec::new();
                    let mut responses = Responses::default();
                    let mut round = c;
                    let io = |e: std::io::Error| format!("connection {c}: {e}");
                    drive_reads(&mut client, traffic, &mut round, conns, Until::Rounds(if fleet { 1 } else { WARM_ROUNDS }), Phase::Warm, epoch, None, &mut responses, &mut samples).map_err(io)?;
                    barrier.wait();
                    let first_measured = round;
                    let start = Instant::now();
                    drive_reads(&mut client, traffic, &mut round, conns, Until::Deadline(start + phase), Phase::Measured, epoch, None, &mut responses, &mut samples).map_err(io)?;
                    let measured = (start, Instant::now());
                    let mut out = ConnResult { samples, responses, measured, tracer: None, read_ledger: None, wire_us: Vec::new(), router_ledger: None };
                    if args.trace {
                        // The traced replay runs the measured rounds again.
                        let mut round = first_measured;
                        let read = ReadLayers::new(ServeEngine::new(model.clone(), CACHE, FUEL));
                        let mut tracer = Tracer::new(epoch, c as u32);
                        barrier.wait();
                        let deadline = Until::Deadline(Instant::now() + phase);
                        if fleet {
                            let mut layers = FleetLayers::new(read, backends, Arc::clone(shard_engines));
                            drive_reads(&mut client, traffic, &mut round, conns, deadline, Phase::Traced, epoch, Some((&mut tracer, &mut layers as &mut dyn Decompose)), &mut out.responses, &mut out.samples).map_err(io)?;
                            out.read_ledger = Some(layers.read.ledger);
                            out.router_ledger = Some(layers.ledger);
                        } else {
                            let mut layers = read;
                            drive_reads(&mut client, traffic, &mut round, conns, deadline, Phase::Traced, epoch, Some((&mut tracer, &mut layers as &mut dyn Decompose)), &mut out.responses, &mut out.samples).map_err(io)?;
                            out.read_ledger = Some(layers.ledger);
                        }
                        if let Some(ledger) = &out.read_ledger {
                            out.wire_us = common::wire_minus_engine(&out.samples, ledger);
                        }
                        out.tracer = Some(tracer);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_else(|_| Err("reader thread panicked".into()))).collect()
    });
    let peak_rss_mb = served.peak_rss_mb();
    let cache = common::cache_hit_share(if fleet { &backends } else { std::slice::from_ref(&front) });
    served.shutdown()?;
    let (cache, cache_note) = cache?;
    report.notes.push(cache_note);
    report.notes.push(common::steal_note(ticks));
    let results: Vec<ConnResult> = results.into_iter().collect::<Result<_, _>>()?;
    let mut all_samples = Vec::new();
    let mut responses = Responses::default();
    let mut measured = Vec::new();
    let mut tracers = Vec::new();
    let mut read_ledgers = Vec::new();
    let mut router_ledgers = Vec::new();
    let mut wire_us = Vec::new();
    for r in results {
        wire_us.extend(r.wire_us);
        // One response table for all connections.
        all_samples.extend(r.samples.into_iter().map(|mut s| {
            s.resp = responses.intern(&r.responses.texts[s.resp as usize]);
            s
        }));
        measured.push(r.measured);
        tracers.extend(r.tracer);
        read_ledgers.extend(r.read_ledger);
        router_ledgers.extend(r.router_ledger);
    }

    // Metrics.
    let samples: Vec<&Sample> = all_samples.iter().collect();
    let start = measured.iter().map(|m| m.0).min().expect("one connection");
    let end = measured.iter().map(|m| m.1).max().expect("one connection");
    let tail = if fleet { 95.0 } else { 99.0 };
    common::setup_metrics(&mut report, &setups, args.trace);
    common::latency_metrics(&mut report, &samples, epoch, start, end, tail, peak_rss_mb, cache);

    // Correctness.
    common::check_reads(&mut report, &samples, &responses, &traffic, &[&model], &|_| vec![0]);
    if fleet {
        check_routed(&mut report, &samples, &responses, &traffic, &model);
    }

    if args.trace {
        common::state_build_metric(&mut report, &model);
        common::read_layer_metrics(&mut report, &tracers, &read_ledgers, &wire_us, cache);
        common::overhead_metric(&mut report, &samples);
        if fleet {
            common::router_layer_metrics(&mut report, &router_ledgers);
        }
        common::write_spans(&mut report, args, &tracers);
    }
    Ok(report)
}

/// Routed answers against the single-process engine's answers to the
/// same statements (`read_single`'s answers).
fn check_routed(report: &mut Report, samples: &[&Sample], responses: &Responses, traffic: &ReadTraffic, model: &ClusteredModel) {
    let single = ServeEngine::new(model.clone(), CACHE, FUEL);
    let mut answers: HashMap<(Verb, u64), Json> = HashMap::new();
    let mut mismatch = Vec::new();
    for s in samples {
        let resp = Json::parse(&responses.texts[s.resp as usize]).unwrap_or(Json::Null);
        let want = answers.entry((s.verb, s.item)).or_insert_with(|| {
            let sql = traffic.sql(s.item as u32);
            match s.verb {
                Verb::Neighbors => single.neighbors(sql, K),
                _ => single.classify(sql),
            }
        });
        let fields: &[&str] = match s.verb {
            Verb::Neighbors => &["ok", "neighbors"],
            _ => &["ok", "nearest", "distance", "cluster", "kind"],
        };
        if fields.iter().any(|f| resp.get(f) != want.get(f)) {
            mismatch.push(format!("{} on statement {}", s.verb.name(), s.item));
        }
    }
    report.check(
        "routed answers equal the single-process answers",
        match mismatch.first() {
            None => Ok(format!("{} answers", samples.len())),
            Some(m) => Err(format!("{} differ; first: {m}", mismatch.len())),
        },
    );
}
