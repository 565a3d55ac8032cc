//! `ingest_mixed`: one evolving, WAL-backed server. Connection 1 sends
//! keyed ingests in a fixed order (with a share of re-sends of keys
//! already acknowledged) and a `reload` + `ping` after every compaction;
//! connection 2 sends the read stream alongside.

use crate::client::WireClient;
use crate::common;
use crate::oracle::{
    canonical_payload, check_ingest_ledger, check_wal, dbscan_labels, extract_offline, Absorption,
};
use crate::read::{drive_reads, timed_call, Decompose, Phase, ReadLayers, Responses, Sample, Until, NO_RESPONSE};
use crate::report::Report;
use crate::setup::{self, evolve_config, Served, CACHE, DEDUP_WINDOW, FUEL, WINDOW};
use crate::stats::{beyond, median, windowed_percentile};
use crate::trace::{self_times_by_name, Tracer};
use crate::traffic::{IngestSlot, IngestTraffic, ReadOp, ReadTraffic, Verb, COMPACT_EVERY};
use crate::Args;
use aa_core::{AccessArea, AccessRanges, ClusteredModel};
use aa_evolve::IncrementalDbscan;
use aa_serve::{ModelState, ModelStore, Request, SegmentWal, ServeEngine};
use aa_util::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Fresh ingests before measuring: the first compaction and reload, then
/// half a round, so every measured round compacts mid-round.
const WARM_INGESTS: u64 = (COMPACT_EVERY + COMPACT_EVERY / 2) as u64;

/// A generation the server was observed serving.
struct GenEvent {
    /// Reload request sent / answered (0, 0 for the set-up generation).
    send_ns: u64,
    recv_ns: u64,
    generation: u64,
    /// The oracle's own build of the generation (the window's areas,
    /// fresh ranges, the oracle DBSCAN); filled in after the run, or at
    /// once in the traced phase, whose shadow engines follow it.
    model: Option<Arc<ClusteredModel>>,
    /// Absorptions acknowledged when its compaction ran.
    absorbed_at: usize,
}

/// The oracle's build of a published generation: the newest `WINDOW`
/// areas of the set-up areas followed by every absorption so far, their
/// ranges, and the oracle DBSCAN's labels.
fn window_model(initial: &ClusteredModel, absorbed: &[&AccessArea]) -> ClusteredModel {
    let mut stream: Vec<&AccessArea> = initial.areas.iter().collect();
    stream.extend(absorbed.iter().copied());
    let areas: Vec<AccessArea> = stream[stream.len().saturating_sub(WINDOW)..].iter().map(|a| (*a).clone()).collect();
    let mut ranges = AccessRanges::new();
    ranges.observe_all(areas.iter());
    ranges.apply_doubling();
    let labels = dbscan_labels(&areas, &ranges, initial.mode, initial.eps, initial.min_pts);
    ClusteredModel {
        cluster_count: labels.iter().flatten().max().map_or(0, |c| c + 1),
        areas,
        labels,
        ranges,
        eps: initial.eps,
        min_pts: initial.min_pts,
        mode: initial.mode,
    }
}

/// One writer operation, for the checks.
enum WriterOp {
    Fresh { n: u64, resp: Json },
    Resend { target: u64, resp: Json },
    Reload { generation: u64, resp: Json },
    Ping { generation: u64, resp: Json },
}

struct Writer<'a> {
    client: WireClient,
    traffic: &'a IngestTraffic,
    payloads: &'a [Result<String, String>],
    areas: &'a [Option<AccessArea>],
    initial: &'a ClusteredModel,
    events: &'a Mutex<Vec<GenEvent>>,
    /// Build each generation's oracle model as it is installed.
    follow: bool,
    epoch: Instant,
    next_fresh: u64,
    ticks: Vec<Option<u64>>,
    absorptions: Vec<Absorption>,
    /// Pool index of each absorption.
    absorbed_pool: Vec<usize>,
    generation: u64,
    samples: Vec<Sample>,
    ops: Vec<WriterOp>,
    reload_ms: Vec<(Phase, f64)>,
    /// Absorptions acknowledged at the last compaction.
    absorbed_at_compaction: usize,
}

impl<'a> Writer<'a> {
    fn call(&mut self, verb: Verb, item: u64, line: &str, phase: Phase) -> Result<(Json, u64, u64), String> {
        let (resp, send_ns, recv_ns) =
            timed_call(&mut self.client, line, self.epoch).map_err(|e| format!("writer connection: {e}"))?;
        let json = Json::parse(resp).map_err(|e| format!("unparseable response {resp}: {e}"))?;
        self.samples.push(Sample { verb, phase, item, send_ns, recv_ns, resp: NO_RESPONSE });
        Ok((json, send_ns, recv_ns))
    }

    /// One fresh ingest, plus the reload and ping its compaction calls for.
    fn fresh(&mut self, phase: Phase, mut layers: Option<(&mut Tracer, &mut IngestLayers)>) -> Result<(), String> {
        let n = self.next_fresh;
        self.next_fresh += 1;
        let (key, sql) = self.traffic.fresh(n);
        let sql = sql.to_string();
        let line = IngestTraffic::line(&sql, &key);
        let op = self.samples.len() as u64;
        let spans = layers.as_mut().map(|(tr, _)| {
            let root = tr.open(op, None, "op");
            (root, tr.open(op, Some(root), "wire"))
        });
        let (resp, _, _) = self.call(Verb::Ingest, n, &line, phase)?;
        let pool = n as usize % self.traffic.pool.len();
        if let (Some((tr, l)), Some((root, wire))) = (layers.as_mut(), spans) {
            tr.close(wire);
            l.fresh(tr, op, root, &line, &sql, &key, self.payloads[pool].as_ref().ok(), self.areas[pool].as_ref());
            tr.close(root);
        }
        let absorbed = resp.get("absorbed") == Some(&Json::Bool(true));
        let tick = resp.get("tick").and_then(Json::as_f64).map(|t| t as u64);
        self.ticks.push(if absorbed { tick } else { None });
        if let (true, Some(tick), Ok(payload)) = (absorbed, tick, &self.payloads[pool]) {
            self.absorptions.push(Absorption { key, tick, payload: payload.clone() });
            self.absorbed_pool.push(pool);
        }
        let compacted = resp.get("compacted") == Some(&Json::Bool(true));
        self.ops.push(WriterOp::Fresh { n, resp: resp.clone() });
        if compacted {
            self.generation += 1;
            self.absorbed_at_compaction = self.absorptions.len();
            self.reload(phase, layers)?;
        }
        Ok(())
    }

    /// `reload` then `ping`: the time until the new generation answers.
    fn reload(&mut self, phase: Phase, mut layers: Option<(&mut Tracer, &mut IngestLayers)>) -> Result<(), String> {
        let generation = self.generation;
        let op = self.samples.len() as u64;
        let spans = layers.as_mut().map(|(tr, _)| {
            let root = tr.open(op, None, "op");
            (root, tr.open(op, Some(root), "wire"))
        });
        let (resp, send_ns, recv_ns) = self.call(Verb::Reload, generation, "{\"op\":\"reload\"}", phase)?;
        let ping_span = layers.as_mut().zip(spans).map(|((tr, _), (root, wire))| {
            tr.close(wire);
            tr.open(op, Some(root), "wire.ping")
        });
        let (ping, _, ping_recv) = self.call(Verb::Ping, generation, "{\"op\":\"ping\"}", phase)?;
        if let (Some((tr, l)), Some((root, _)), Some(ping_span)) = (layers.as_mut(), spans, ping_span) {
            tr.close(ping_span);
            l.reload(tr, op, root);
            tr.close(root);
        }
        self.reload_ms.push((phase, (ping_recv - send_ns) as f64 / 1e6));
        let served = ping.get("generation").and_then(Json::as_f64).map_or(0, |g| g as u64);
        self.ops.push(WriterOp::Reload { generation, resp });
        self.ops.push(WriterOp::Ping { generation, resp: ping });
        let model = self.follow.then(|| Arc::new(self.model_at(self.absorbed_at_compaction)));
        self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(GenEvent {
            send_ns,
            recv_ns,
            generation: served,
            model,
            absorbed_at: self.absorbed_at_compaction,
        });
        Ok(())
    }

    /// The oracle's model of the generation compacted after `absorbed_at`
    /// absorptions.
    fn model_at(&self, absorbed_at: usize) -> ClusteredModel {
        let absorbed: Vec<&AccessArea> = self.absorbed_pool[..absorbed_at]
            .iter()
            .filter_map(|&p| self.areas[p].as_ref())
            .collect();
        window_model(self.initial, &absorbed)
    }

    fn resend(&mut self, back: usize, phase: Phase, mut layers: Option<(&mut Tracer, &mut IngestLayers)>) -> Result<(), String> {
        let target = self.next_fresh - back as u64;
        let (key, sql) = self.traffic.fresh(target);
        let sql = sql.to_string();
        let line = IngestTraffic::line(&sql, &key);
        let op = self.samples.len() as u64;
        let spans = layers.as_mut().map(|(tr, _)| {
            let root = tr.open(op, None, "op");
            (root, tr.open(op, Some(root), "wire"))
        });
        let (resp, _, _) = self.call(Verb::Ingest, target, &line, phase)?;
        if let (Some((tr, l)), Some((root, wire))) = (layers.as_mut(), spans) {
            tr.close(wire);
            l.resend(tr, op, root, &line, &sql, &key);
            tr.close(root);
        }
        self.ops.push(WriterOp::Resend { target, resp });
        Ok(())
    }

    fn rounds(&mut self, first: &mut u64, until: Until, phase: Phase, mut layers: Option<(&mut Tracer, &mut IngestLayers)>) -> Result<(), String> {
        loop {
            if let Until::Deadline(d) = until {
                if Instant::now() >= d {
                    return Ok(());
                }
            }
            for slot in self.traffic.round(*first, self.next_fresh as usize) {
                let l = layers.as_mut().map(|(t, l)| (&mut **t, &mut **l));
                match slot {
                    IngestSlot::Fresh => self.fresh(phase, l)?,
                    IngestSlot::Resend(back) => self.resend(back, phase, l)?,
                }
            }
            *first += 1;
        }
    }
}

/// The ingest path's layers, replayed in process: a shadow engine with
/// its own window, WAL and store, and the maintainer, WAL and store
/// driven directly.
struct IngestLayers {
    shadow: ServeEngine,
    shadow_keys: BTreeSet<String>,
    maintainer: IncrementalDbscan,
    wal: SegmentWal,
    store: ModelStore,
    distance_evaluated: Vec<f64>,
    wal_bytes: Vec<f64>,
    last_evaluated: u64,
    error: Option<String>,
}

impl IngestLayers {
    fn new(model: &ClusteredModel, generation: u64, root: &Path) -> Result<IngestLayers, String> {
        let _ = std::fs::remove_dir_all(root);
        let shadow_store = ModelStore::open(root.join("shadow-store")).map_err(|e| e.to_string())?;
        let (shadow, _) = ServeEngine::new(model.clone(), CACHE, FUEL)
            .with_store(shadow_store, generation)
            .with_evolve(evolve_config())
            .attach_wal(root.join("shadow-wal"), DEDUP_WINDOW)?;
        let maintainer = IncrementalDbscan::new(model, evolve_config());
        let mut wal = SegmentWal::open(root.join("wal")).map_err(|e| e.to_string())?;
        wal.rotate(&checkpoint(&maintainer)).map_err(|e| e.to_string())?;
        let store = ModelStore::open(root.join("store")).map_err(|e| e.to_string())?;
        // Recovery always has a window-sized generation to load.
        store.publish(model).map_err(|e| e.to_string())?;
        let last_evaluated = maintainer.stats().distance_evaluated;
        Ok(IngestLayers {
            shadow,
            shadow_keys: BTreeSet::new(),
            maintainer,
            wal,
            store,
            distance_evaluated: Vec::new(),
            wal_bytes: Vec::new(),
            last_evaluated,
            error: None,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn fresh(&mut self, tr: &mut Tracer, op: u64, root: usize, line: &str, sql: &str, key: &str, payload: Option<&String>, area: Option<&AccessArea>) {
        let _ = tr.time(op, Some(root), "json.request_parse", || Request::parse_line(line));
        let (resp, _) = tr.time(op, Some(root), "engine.ingest", || self.shadow.ingest(sql, "anon", key));
        self.shadow_keys.insert(key.to_string());
        tr.time(op, Some(root), "json.response_write", || resp.to_string_compact());
        tr.time(op, Some(root), "sql.fingerprint", || aa_sql::fingerprint(sql));
        if resp.get("cache").and_then(Json::as_str) == Some("miss") {
            tr.time(op, Some(root), "extract.miss", || extract_offline(sql).ok());
        }
        let (Some(payload), Some(area)) = (payload, area) else { return };
        let before = self.segment_len();
        let (appended, _) = tr.time(op, Some(root), "wal.append", || self.wal.append("anon", key, payload));
        self.note(appended.map(|_| ()).map_err(|e| e.to_string()));
        self.wal_bytes.push(self.segment_len().saturating_sub(before) as f64);
        tr.time(op, Some(root), "evolve.assign", || self.maintainer.ingest(area.clone()));
        let evaluated = self.maintainer.stats().distance_evaluated;
        self.distance_evaluated.push((evaluated - self.last_evaluated) as f64);
        if self.maintainer.due_for_compaction() {
            let (report, _) = tr.time(op, Some(root), "evolve.compact", || self.maintainer.compact());
            let (published, _) = tr.time(op, Some(root), "store.publish", || self.store.publish(&report.model));
            self.note(published.map(|_| ()).map_err(|e| e.to_string()));
            let cp = checkpoint(&self.maintainer);
            let (rotated, _) = tr.time(op, Some(root), "wal.rotate", || self.wal.rotate(&cp).and_then(|_| self.wal.collect()));
            self.note(rotated.map(|_| ()).map_err(|e| e.to_string()));
        }
        self.last_evaluated = self.maintainer.stats().distance_evaluated;
    }

    fn resend(&mut self, tr: &mut Tracer, op: u64, root: usize, line: &str, sql: &str, key: &str) {
        let _ = tr.time(op, Some(root), "json.request_parse", || Request::parse_line(line));
        // Only keys the shadow has absorbed are re-sends to it.
        if self.shadow_keys.contains(key) {
            tr.time(op, Some(root), "engine.ingest", || self.shadow.ingest(sql, "anon", key));
        }
    }

    fn reload(&mut self, tr: &mut Tracer, op: u64, root: usize) {
        let (recovered, _) = tr.time(op, Some(root), "store.recover", || self.store.recover());
        match recovered.map_err(|e| e.to_string()).and_then(|r| r.loaded.ok_or_else(|| "store empty".to_string())) {
            Ok((generation, model)) => {
                tr.time(op, Some(root), "engine.state_build_reload", || ModelState::build(model, generation));
            }
            Err(e) => self.note(Err(e)),
        }
    }

    /// Keeps the first failure of a replayed call; the run reports it.
    fn note(&mut self, outcome: Result<(), String>) {
        if let (Err(e), None) = (outcome, &self.error) {
            self.error = Some(e);
        }
    }

    fn segment_len(&self) -> u64 {
        self.wal
            .active_segment()
            .and_then(|s| std::fs::metadata(self.wal.path_for(s)).ok())
            .map_or(0, |m| m.len())
    }
}

/// A segment checkpoint the size of the engine's: clock and per-point
/// ticks.
fn checkpoint(m: &IncrementalDbscan) -> Json {
    let cp = m.checkpoint();
    Json::obj([
        ("now".to_string(), Json::Num(cp.now as f64)),
        ("ticks".to_string(), Json::Arr(cp.ticks.iter().map(|&t| Json::Num(t as f64)).collect())),
    ])
}

/// The read decomposition of connection 2, following the server's
/// reloads: the shadow engine swaps to each generation the writer saw
/// installed.
struct FollowingReads<'a> {
    read: ReadLayers,
    events: &'a Mutex<Vec<GenEvent>>,
}

impl Decompose for FollowingReads<'_> {
    fn decompose(&mut self, tr: &mut Tracer, op: u64, root: usize, rop: ReadOp, traffic: &ReadTraffic, wire_us: f64) {
        let latest = {
            let events = self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            events.last().and_then(|e| Some((e.generation, Arc::clone(e.model.as_ref()?))))
        };
        if let Some((generation, model)) = latest {
            if generation > self.read.shadow.current().generation {
                self.read.shadow.swap_model((*model).clone(), generation);
            }
        }
        self.read.decompose(tr, op, root, rop, traffic, wire_us);
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let ticks = common::cpu_ticks();
    let log = setup::model_log();
    let reads = ReadTraffic::new(args.seed);
    let ingests = IngestTraffic::new(args.seed);
    let areas: Vec<Option<AccessArea>> = ingests.pool.iter().map(|s| extract_offline(&s.sql).ok()).collect();
    let payloads: Vec<Result<String, String>> = ingests
        .pool
        .iter()
        .zip(&areas)
        .map(|(s, a)| a.as_ref().map(canonical_payload).ok_or_else(|| format!("offline extractor rejects ingest statement: {}", s.sql)))
        .collect();
    let run_dir: PathBuf = common::out_dir().join(format!("ingest_mixed-{}", std::process::id()));
    let (served, setups) = common::set_up_repeatedly(&args.workload, Some(&run_dir))?;
    let initial = Arc::new(common::own_model(&mut report, &log, &served));
    let front = served.front.clone();
    let first_generation = Served::ask(&front, "{\"op\":\"ping\"}")?
        .get("generation")
        .and_then(Json::as_f64)
        .map_or(0, |g| g as u64);
    let events = Mutex::new(vec![GenEvent {
        send_ns: 0,
        recv_ns: 0,
        generation: first_generation,
        model: Some(Arc::clone(&initial)),
        absorbed_at: 0,
    }]);
    let phase = common::phase_length(args);
    let epoch = Instant::now();
    let barrier = Barrier::new(2);
    let traced = args.trace;
    let trace_root = run_dir.join("traced");

    type WriterOut = (Vec<Sample>, Vec<WriterOp>, Vec<Absorption>, Vec<AccessArea>, Vec<Option<u64>>, Vec<(Phase, f64)>, usize, (Instant, Instant), Option<(Tracer, IngestLayers)>);
    type ReaderOut = (Vec<Sample>, Responses, (Instant, Instant), Option<(Tracer, crate::read::ReadLedger, Vec<f64>)>);
    let (writer, reader): (Result<WriterOut, String>, Result<ReaderOut, String>) = std::thread::scope(|s| {
        let w = s.spawn(|| -> Result<WriterOut, String> {
            let mut wr = Writer {
                client: WireClient::connect(&front).map_err(|e| e.to_string())?,
                traffic: &ingests,
                payloads: &payloads,
                areas: &areas,
                initial: &initial,
                events: &events,
                follow: false,
                epoch,
                next_fresh: 0,
                ticks: Vec::new(),
                absorptions: Vec::new(),
                absorbed_pool: Vec::new(),
                generation: first_generation,
                samples: Vec::new(),
                ops: Vec::new(),
                reload_ms: Vec::new(),
                absorbed_at_compaction: 0,
            };
            for _ in 0..WARM_INGESTS {
                wr.fresh(Phase::Warm, None)?;
            }
            let mut round = 0u64;
            barrier.wait();
            let start = Instant::now();
            wr.rounds(&mut round, Until::Deadline(start + phase), Phase::Measured, None)?;
            let measured = (start, Instant::now());
            let mut layers_out = None;
            if traced {
                wr.follow = true;
                let current = wr.model_at(wr.absorbed_at_compaction);
                let mut layers = IngestLayers::new(&current, wr.generation, &trace_root)?;
                if let Some(last) = events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).last_mut() {
                    last.model = Some(Arc::new(current));
                }
                let mut tracer = Tracer::new(epoch, 1);
                barrier.wait();
                let deadline = Until::Deadline(Instant::now() + phase);
                wr.rounds(&mut round, deadline, Phase::Traced, Some((&mut tracer, &mut layers)))?;
                layers_out = Some((tracer, layers));
            }
            let absorbed: Vec<AccessArea> = wr.absorbed_pool.iter().filter_map(|&p| wr.areas[p].clone()).collect();
            Ok((wr.samples, wr.ops, wr.absorptions, absorbed, wr.ticks, wr.reload_ms, wr.absorbed_at_compaction, measured, layers_out))
        });
        let r = s.spawn(|| -> Result<ReaderOut, String> {
            let mut client = WireClient::connect(&front).map_err(|e| e.to_string())?;
            let mut samples = Vec::new();
            let mut responses = Responses::default();
            let mut round = 0u64;
            let io = |e: std::io::Error| format!("reader connection: {e}");
            drive_reads(&mut client, &reads, &mut round, 1, Until::Rounds(crate::reads::WARM_ROUNDS), Phase::Warm, epoch, None, &mut responses, &mut samples).map_err(io)?;
            barrier.wait();
            let first_measured = round;
            let start = Instant::now();
            drive_reads(&mut client, &reads, &mut round, 1, Until::Deadline(start + phase), Phase::Measured, epoch, None, &mut responses, &mut samples).map_err(io)?;
            let measured = (start, Instant::now());
            let mut ledger = None;
            if traced {
                let mut round = first_measured;
                let mut layers = FollowingReads { read: ReadLayers::new(ServeEngine::new((*initial).clone(), CACHE, FUEL)), events: &events };
                let mut tracer = Tracer::new(epoch, 2);
                barrier.wait();
                let deadline = Until::Deadline(Instant::now() + phase);
                drive_reads(&mut client, &reads, &mut round, 1, deadline, Phase::Traced, epoch, Some((&mut tracer, &mut layers as &mut dyn Decompose)), &mut responses, &mut samples).map_err(io)?;
                let wire_us = common::wire_minus_engine(&samples, &layers.read.ledger);
                ledger = Some((tracer, layers.read.ledger, wire_us));
            }
            Ok((samples, responses, measured, ledger))
        });
        (
            w.join().unwrap_or_else(|_| Err("writer thread panicked".into())),
            r.join().unwrap_or_else(|_| Err("reader thread panicked".into())),
        )
    });
    let peak_rss_mb = served.peak_rss_mb();
    let cache = common::cache_hit_share(std::slice::from_ref(&front));
    let server_stats = Served::ask(&front, "{\"op\":\"stats\"}");
    let (store_dir, wal_dir) = setup::durable_dirs(&run_dir.join(format!("setup{}", common::SETUPS - 1)));
    served.shutdown()?;
    let ((cache, cache_note), server_stats) = (cache?, server_stats?);
    report.notes.push(cache_note);
    report.notes.push(common::steal_note(ticks));
    let (w_samples, w_ops, absorptions, absorbed_areas, ticks, reload_ms, absorbed_at_compaction, w_measured, w_layers) = writer?;
    let (r_samples, r_responses, r_measured, r_ledger) = reader?;
    let mut events = events.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    for e in events.iter_mut().filter(|e| e.model.is_none()) {
        let absorbed: Vec<&AccessArea> = absorbed_areas[..e.absorbed_at].iter().collect();
        e.model = Some(Arc::new(window_model(&initial, &absorbed)));
    }

    // Metrics.
    let samples: Vec<&Sample> = w_samples.iter().chain(&r_samples).collect();
    let start = w_measured.0.min(r_measured.0);
    let end = w_measured.1.max(r_measured.1);
    common::setup_metrics(&mut report, &setups, traced);
    common::latency_metrics(&mut report, &samples, epoch, start, end, 99.0, peak_rss_mb, cache);
    let ingest_lat: Vec<f64> = w_samples.iter().filter(|s| s.verb == Verb::Ingest && s.phase == Phase::Measured).map(|s| s.lat_us()).collect();
    report.e2e_extra("ingest_p50_us", median(&ingest_lat), "us");
    report.e2e_extra("ingest_p99_us", windowed_percentile(&ingest_lat, 99.0), "us");
    let reloads: Vec<f64> = reload_ms.iter().filter(|(p, _)| *p == Phase::Measured).map(|(_, ms)| *ms).collect();
    report.e2e_extra("reload_ms", median(&reloads), "ms");
    // One reload follows every compaction.
    let compacting = reloads.len();
    report.notes.push(format!(
        "ingest: {} samples, {} beyond p99; {compacting} compacting ({:.2}%); {} reloads",
        ingest_lat.len(),
        beyond(&ingest_lat, 99.0),
        100.0 * compacting as f64 / ingest_lat.len().max(1) as f64,
        reloads.len()
    ));

    // Correctness.
    check_writer(&mut report, &w_ops, &absorptions, &ticks, &server_stats);
    check_generations(&mut report, &events, &store_dir);
    // Generation k may serve from its reload's send until the next
    // reload's answer.
    let models: Vec<&ClusteredModel> = events.iter().filter_map(|e| e.model.as_deref()).collect();
    debug_assert_eq!(models.len(), events.len(), "every generation has its oracle model");
    let serving = |s: &Sample| -> Vec<usize> {
        (0..events.len())
            .filter(|&k| events[k].send_ns <= s.recv_ns && s.send_ns <= events.get(k + 1).map_or(u64::MAX, |n| n.recv_ns))
            .collect()
    };
    let read_samples: Vec<&Sample> = r_samples.iter().collect();
    common::check_reads(&mut report, &read_samples, &r_responses, &reads, &models, &serving);
    report.check("wal records equal absorptions", check_wal_dir(&wal_dir, &absorptions, absorbed_at_compaction));

    if traced {
        let mut tracers = Vec::new();
        let mut ledgers = Vec::new();
        let mut ingest_layers = None;
        if let Some((t, l)) = w_layers {
            tracers.push(t);
            ingest_layers = Some(l);
        }
        let mut wire_us = Vec::new();
        if let Some((t, l, w)) = r_ledger {
            tracers.push(t);
            ledgers.push(l);
            wire_us = w;
        }
        common::state_build_metric(&mut report, &initial);
        common::read_layer_metrics(&mut report, &tracers, &ledgers, &wire_us, cache);
        common::overhead_metric(&mut report, &samples);
        if let Some(e) = ingest_layers.as_ref().and_then(|l| l.error.clone()) {
            report.check("traced ingest replay ran cleanly", Err(e));
        }
        ingest_layer_metrics(&mut report, &tracers, ingest_layers.as_ref(), &reload_ms);
        common::write_spans(&mut report, args, &tracers);
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(report)
}

fn ingest_layer_metrics(report: &mut Report, tracers: &[Tracer], layers: Option<&IngestLayers>, reload_ms: &[(Phase, f64)]) {
    let selfs = self_times_by_name(tracers);
    let m = |name: &str| selfs.get(name).map_or(f64::NAN, |v| median(v));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.layer_extra("engine.ingest_us", m("engine.ingest"), "us");
    report.layer_extra("evolve.assign_us", m("evolve.assign"), "us");
    report.layer_extra(
        "evolve.distance_evaluated_per_ingest",
        layers.map_or(f64::NAN, |l| mean(&l.distance_evaluated)),
        "count",
    );
    report.layer_extra("evolve.compact_ms", m("evolve.compact") / 1e3, "ms");
    report.layer_extra("wal.append_us", m("wal.append"), "us");
    report.layer_extra("wal.rotate_us", m("wal.rotate"), "us");
    report.layer_extra("wal.bytes_per_ingest", layers.map_or(f64::NAN, |l| mean(&l.wal_bytes)), "B");
    report.layer_extra("store.publish_ms", m("store.publish") / 1e3, "ms");
    let recover_ms = m("store.recover") / 1e3;
    report.layer_extra("store.recover_ms", recover_ms, "ms");
    report.layer_extra("engine.state_build_reload_ms", m("engine.state_build_reload") / 1e3, "ms");
    // Against the traced half's own reloads: same contention as the
    // replayed recovery (which runs after each reload's ping).
    let traced_reload = median(&reload_ms.iter().filter(|(p, _)| *p == Phase::Traced).map(|(_, ms)| *ms).collect::<Vec<_>>());
    report.layer_extra("store.recover_share_of_reload", recover_ms / traced_reload, "ratio");
}

fn check_writer(report: &mut Report, ops: &[WriterOp], absorptions: &[Absorption], ticks: &[Option<u64>], stats: &Json) {
    let mut sent = 0usize;
    let mut duplicates = 0usize;
    let mut problems: Vec<String> = Vec::new();
    let mut generation_problems: Vec<String> = Vec::new();
    let mut reloads = 0usize;
    for op in ops {
        match op {
            WriterOp::Fresh { n, resp } => {
                sent += 1;
                let ok = resp.get("ok") == Some(&Json::Bool(true));
                report.op(Verb::Ingest, !ok);
                if !(ok && resp.get("owned") == Some(&Json::Bool(true)) && resp.get("absorbed") == Some(&Json::Bool(true))) {
                    problems.push(format!("fresh ingest {n} not absorbed: {}", resp.to_string_compact()));
                }
            }
            WriterOp::Resend { target, resp } => {
                sent += 1;
                let ok = resp.get("ok") == Some(&Json::Bool(true));
                report.op(Verb::Ingest, !ok);
                let tick = resp.get("tick").and_then(Json::as_f64).map(|t| t as u64);
                if resp.get("duplicate") == Some(&Json::Bool(true)) {
                    duplicates += 1;
                }
                let original = ticks.get(*target as usize).copied().flatten();
                if resp.get("duplicate") != Some(&Json::Bool(true)) || tick.is_none() || tick != original {
                    problems.push(format!("re-send of key k{target} (tick {original:?}) answered {}", resp.to_string_compact()));
                }
            }
            WriterOp::Reload { generation, resp } => {
                reloads += 1;
                let ok = resp.get("ok") == Some(&Json::Bool(true));
                report.op(Verb::Reload, !ok);
                let got = resp.get("generation").and_then(Json::as_f64).map(|g| g as u64);
                if got != Some(*generation) || resp.get("changed") != Some(&Json::Bool(true)) {
                    generation_problems.push(format!("reload to generation {generation} answered {}", resp.to_string_compact()));
                }
            }
            WriterOp::Ping { generation, resp } => {
                let ok = resp.get("ok") == Some(&Json::Bool(true));
                report.op(Verb::Ping, !ok);
                let got = resp.get("generation").and_then(Json::as_f64).map(|g| g as u64);
                if got != Some(*generation) {
                    generation_problems.push(format!("ping after reload to {generation} answered {}", resp.to_string_compact()));
                }
            }
        }
    }
    let first_tick = absorptions.first().map_or(0, |a| a.tick);
    let mut outcome = check_ingest_ledger(sent, absorptions, 0, duplicates, first_tick);
    let evolve = stats.get("stats").and_then(|s| s.get("evolve"));
    let count = |k: &str| evolve.and_then(|e| e.get(k)).and_then(Json::as_f64).map(|v| v as usize);
    let (absorbed, deduped) = (count("absorbed"), count("deduped"));
    if outcome.is_ok() && (absorbed != Some(absorptions.len()) || deduped != Some(duplicates)) {
        outcome = Err(format!(
            "server counted {absorbed:?} absorbed / {deduped:?} deduped, client {} / {duplicates}",
            absorptions.len()
        ));
    }
    if let Some(p) = problems.first() {
        outcome = Err(format!("{} wrong ingest answers; first: {p}", problems.len()));
    }
    report.check(
        "absorbed + not-owned + duplicate = ingests sent; re-sends keep their tick",
        outcome.map(|()| format!("{sent} sent = {} absorbed + 0 not-owned + {duplicates} duplicate", absorptions.len())),
    );
    let mut ok_generations = Ok(format!("{reloads} reloads, each answered and pinged by its new generation"));
    if let Some(p) = generation_problems.first() {
        ok_generations = Err(format!("{} problems; first: {p}", generation_problems.len()));
    }
    report.check("after each reload the server serves that generation", ok_generations);
}

/// Every generation installed by a reload: the server's published file
/// holds, byte for byte, the oracle's build of that window (its areas,
/// ranges, and the oracle DBSCAN's labels), under consecutive generation
/// numbers.
fn check_generations(report: &mut Report, events: &[GenEvent], store_dir: &Path) {
    let mut problems = Vec::new();
    let store = ModelStore::open(store_dir);
    for (k, e) in events.iter().enumerate().skip(1) {
        if e.generation != events[0].generation + k as u64 {
            problems.push(format!("reload {k} left generation {} serving", e.generation));
        }
        let Some(model) = &e.model else { continue };
        let published = store
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|s| std::fs::read(s.path_for(e.generation)).map_err(|e| e.to_string()));
        match published {
            Ok(bytes) => {
                let payload = bytes.iter().position(|&b| b == b'\n').map(|i| &bytes[i + 1..]);
                if payload != Some(model.to_canonical_text().as_bytes()) {
                    problems.push(format!("generation {}: published model differs from the oracle's window build", e.generation));
                }
            }
            Err(why) => problems.push(format!("generation {}: {why}", e.generation)),
        }
    }
    report.check(
        "published generations equal the oracle's batch DBSCAN over their window",
        match problems.first() {
            None => Ok(format!("{} generations byte-identical", events.len() - 1)),
            Some(p) => Err(format!("{} problems; first: {p}", problems.len())),
        },
    );
}

fn check_wal_dir(dir: &Path, absorptions: &[Absorption], absorbed_at_compaction: usize) -> Result<String, String> {
    let mut wal = SegmentWal::open(dir).map_err(|e| e.to_string())?;
    let recovery = wal.recover().map_err(|e| e.to_string())?;
    let seg = recovery.loaded.ok_or("no verified wal segment")?;
    if let Some(t) = seg.truncated {
        return Err(format!("wal tail torn: {t}"));
    }
    check_wal(seg.next_seq, &seg.records, absorptions.len(), &absorptions[absorbed_at_compaction..])?;
    let absorbed = seg.checkpoint.get("absorbed").and_then(Json::as_f64).map(|v| v as usize);
    if absorbed != Some(absorbed_at_compaction) {
        return Err(format!("segment checkpoint says {absorbed:?} absorbed, {absorbed_at_compaction} at the last compaction"));
    }
    Ok(format!(
        "sequence {} = absorptions; {} records since the last compaction match",
        seg.next_seq,
        seg.records.len()
    ))
}
