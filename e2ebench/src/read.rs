//! The reader side: closed-loop classify/neighbors over one connection,
//! and the traced decomposition of each read into the layers it crosses.

use crate::client::WireClient;
use crate::oracle::extract_offline;
use crate::trace::Tracer;
use crate::traffic::{ReadOp, ReadTraffic, Verb, K};
use aa_core::AccessArea;
use aa_serve::{ModelState, Request, RetryingClient, RouterEngine, ServeEngine};
use aa_util::Json;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One completed request as the client saw it. Kept small: the response
/// text lives once in the connection's [`Responses`] table, so the
/// client's memory barely grows with throughput.
#[derive(Debug, Clone)]
pub struct Sample {
    pub verb: Verb,
    /// Which part of the run: warm-up, the untraced measurement, or the
    /// traced replay.
    pub phase: Phase,
    /// Read stream statement, or fresh-ingest ordinal.
    pub item: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
    /// Response id in the connection's table (`NO_RESPONSE` when the
    /// caller keeps the parsed response itself).
    pub resp: u32,
}

pub const NO_RESPONSE: u32 = u32::MAX;

impl Sample {
    /// Send → full response line, microseconds.
    pub fn lat_us(&self) -> f64 {
        (self.recv_ns - self.send_ns) as f64 / 1_000.0
    }
}

/// Distinct response lines of one connection, each stored once.
#[derive(Debug, Default)]
pub struct Responses {
    ids: HashMap<String, u32>,
    pub texts: Vec<String>,
}

impl Responses {
    pub fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.texts.len() as u32;
        self.texts.push(text.to_string());
        self.ids.insert(text.to_string(), id);
        id
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warm,
    Measured,
    Traced,
}

/// When a closed loop stops: after a number of rounds, or after the first
/// round that ends past a deadline (runs always hold whole rounds).
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Rounds(u64),
    Deadline(Instant),
}

/// Sends `line`, timing it against `epoch`: the response and the send
/// and receive instants in nanoseconds since `epoch`.
pub fn timed_call<'c>(
    client: &'c mut WireClient,
    line: &str,
    epoch: Instant,
) -> std::io::Result<(&'c str, u64, u64)> {
    let send = Instant::now();
    let resp = client.call(line)?;
    let recv = Instant::now();
    Ok((
        resp,
        send.duration_since(epoch).as_nanos() as u64,
        recv.duration_since(epoch).as_nanos() as u64,
    ))
}

/// The per-operation hook of a traced read: records its layer spans
/// under the operation's root span.
pub trait Decompose {
    fn decompose(&mut self, tr: &mut Tracer, op: u64, root: usize, rop: ReadOp, traffic: &ReadTraffic, wire_us: f64);
}

/// Drives read rounds `first, first + stride, …` over one connection.
/// With a tracer, each operation becomes a root span holding the wire
/// call and the decomposition's layer spans.
#[allow(clippy::too_many_arguments)]
pub fn drive_reads(
    client: &mut WireClient,
    traffic: &ReadTraffic,
    next_round: &mut u64,
    stride: u64,
    until: Until,
    phase: Phase,
    epoch: Instant,
    mut traced: Option<(&mut Tracer, &mut dyn Decompose)>,
    responses: &mut Responses,
    out: &mut Vec<Sample>,
) -> std::io::Result<()> {
    let mut done = 0u64;
    loop {
        match until {
            Until::Rounds(n) if done >= n => return Ok(()),
            Until::Deadline(d) if Instant::now() >= d => return Ok(()),
            _ => {}
        }
        for rop in traffic.round(*next_round) {
            let line = traffic.line(rop);
            let op = out.len() as u64;
            let root = traced.as_mut().map(|(tr, _)| tr.open(op, None, "op"));
            let wire = traced.as_mut().map(|(tr, _)| tr.open(op, root, "wire"));
            let (text, send_ns, recv_ns) = timed_call(client, line, epoch)?;
            let sample = Sample {
                verb: rop.verb,
                phase,
                item: rop.stmt as u64,
                send_ns,
                recv_ns,
                resp: responses.intern(text),
            };
            if let (Some((tr, layers)), Some(root), Some(wire)) = (traced.as_mut(), root, wire) {
                tr.close(wire);
                layers.decompose(tr, op, root, rop, traffic, sample.lat_us());
                tr.close(root);
            }
            out.push(sample);
        }
        *next_round += stride;
        done += 1;
    }
}

/// Layer figures gathered by the read decomposition (all per operation).
/// The traced phase replays the untraced phase's rounds, so operation `i`
/// of both phases is the same request.
#[derive(Debug, Default)]
pub struct ReadLedger {
    pub kernel_pairs: Vec<f64>,
    pub kernel_atoms: Vec<f64>,
    pub index_evaluated: Vec<f64>,
    /// In-process engine time of each decomposed operation, in stream
    /// order, microseconds.
    pub engine_us: Vec<f64>,
}

/// Decomposes a read by replaying it, in process, through a shadow engine
/// that mirrors the server (same model, same cache capacity) and through
/// each layer's public function.
pub struct ReadLayers {
    pub shadow: ServeEngine,
    pub ledger: ReadLedger,
    areas: HashMap<u32, Option<AccessArea>>,
}

impl ReadLayers {
    pub fn new(shadow: ServeEngine) -> ReadLayers {
        ReadLayers {
            shadow,
            ledger: ReadLedger::default(),
            areas: HashMap::new(),
        }
    }
}

/// `PivotIndex::knn` over a serving snapshot, exactly as the engine calls
/// it, with its two distance callbacks timed as aggregate child spans.
pub fn traced_knn(
    tr: &mut Tracer,
    op: u64,
    parent: usize,
    state: &ModelState,
    area: &AccessArea,
    k: usize,
) -> (usize, u64, u64) {
    state.kernel.reset_counters();
    let (flat, _) = tr.time(op, Some(parent), "kernel.flatten", || state.kernel.flatten(area));
    let bound_ns = Cell::new(0u64);
    let bound_calls = Cell::new(0u64);
    let dist_ns = Cell::new(0u64);
    let dist_calls = Cell::new(0u64);
    let knn = tr.open(op, Some(parent), "index.knn");
    let (_, evaluated) = state.index.knn(
        k,
        |i| {
            let t = Instant::now();
            let d = state.kernel.d_tables_to(&flat, state.owned[i]);
            bound_ns.set(bound_ns.get() + t.elapsed().as_nanos() as u64);
            bound_calls.set(bound_calls.get() + 1);
            d
        },
        |i| {
            let t = Instant::now();
            let d = state.kernel.distance_to(&flat, state.owned[i]);
            dist_ns.set(dist_ns.get() + t.elapsed().as_nanos() as u64);
            dist_calls.set(dist_calls.get() + 1);
            d
        },
    );
    tr.close(knn);
    tr.aggregate(op, knn, "kernel.d_tables_to", bound_ns.get(), bound_calls.get());
    tr.aggregate(op, knn, "kernel.distance_to", dist_ns.get(), dist_calls.get());
    let c = state.kernel.counters();
    (evaluated, c.pairs, c.atoms_scanned)
}

impl Decompose for ReadLayers {
    fn decompose(&mut self, tr: &mut Tracer, op: u64, root: usize, rop: ReadOp, traffic: &ReadTraffic, _wire_us: f64) {
        let sql = traffic.sql(rop.stmt);
        let line = traffic.line(rop);
        let _ = tr.time(op, Some(root), "json.request_parse", || Request::parse_line(line));
        let (resp, engine_ns) = match rop.verb {
            Verb::Neighbors => tr.time(op, Some(root), "engine.neighbors", || self.shadow.neighbors(sql, K)),
            _ => tr.time(op, Some(root), "engine.classify", || self.shadow.classify(sql)),
        };
        tr.time(op, Some(root), "json.response_write", || resp.to_string_compact());
        self.ledger.engine_us.push(engine_ns as f64 / 1_000.0);
        tr.time(op, Some(root), "sql.fingerprint", || aa_sql::fingerprint(sql));
        let miss = resp.get("cache").and_then(Json::as_str) == Some("miss");
        let area = if miss || !self.areas.contains_key(&rop.stmt) {
            let (area, _) = if miss {
                tr.time(op, Some(root), "extract.miss", || extract_offline(sql).ok())
            } else {
                (extract_offline(sql).ok(), 0)
            };
            self.areas.insert(rop.stmt, area.clone());
            area
        } else {
            self.areas[&rop.stmt].clone()
        };
        if let Some(area) = area {
            let state = self.shadow.current();
            let k = if rop.verb == Verb::Neighbors { K } else { 1 };
            let (evaluated, pairs, atoms) = traced_knn(tr, op, root, &state, &area, k);
            self.ledger.index_evaluated.push(evaluated as f64);
            self.ledger.kernel_pairs.push(pairs as f64);
            self.ledger.kernel_atoms.push(atoms as f64);
        }
    }
}

/// Router-side figures of the fleet decomposition, microseconds.
#[derive(Debug, Default)]
pub struct RouterLedger {
    pub handle_us: Vec<f64>,
    /// `handle_line` minus the shards' engine time for the same line.
    pub self_us: Vec<f64>,
    /// One link request minus that shard's engine time.
    pub link_us: Vec<f64>,
    pub merge_us: Vec<f64>,
    /// Per operation: wire latency, the links' share, the engines' share.
    pub attribution: Vec<(f64, f64, f64)>,
}

/// Decomposes a routed read: the router's `handle_line` in process over
/// its own links, one `RetryingClient::request` per shard, each shard's
/// engine in process, and the merge — then the same single-model layers
/// as `read_single`.
pub struct FleetLayers {
    pub read: ReadLayers,
    router: RouterEngine,
    links: Vec<RetryingClient>,
    shard_engines: Arc<Vec<ServeEngine>>,
    pub ledger: RouterLedger,
}

impl FleetLayers {
    pub fn new(read: ReadLayers, backends: &[String], shard_engines: Arc<Vec<ServeEngine>>) -> FleetLayers {
        let config = crate::setup::router_config(backends.to_vec());
        let links = backends
            .iter()
            .enumerate()
            .map(|(s, addr)| {
                RetryingClient::new(addr.clone(), config.retries, config.retry_base_ms, config.retry_seed + s as u64)
                    .with_timeout(config.backend_timeout)
                    .with_retry_overloaded(false)
                    .with_quiet(true)
            })
            .collect();
        FleetLayers {
            read,
            router: RouterEngine::new(config),
            links,
            shard_engines,
            ledger: RouterLedger::default(),
        }
    }
}

impl Decompose for FleetLayers {
    fn decompose(&mut self, tr: &mut Tracer, op: u64, root: usize, rop: ReadOp, traffic: &ReadTraffic, wire_us: f64) {
        let sql = traffic.sql(rop.stmt);
        let line = traffic.line(rop);
        let (_, handle_ns) = tr.time(op, Some(root), "router.handle", || self.router.handle_line(line));
        let mut engines_ns = 0u64;
        let mut links_ns = 0u64;
        let mut responses = Vec::new();
        for (s, link) in self.links.iter_mut().enumerate() {
            let (resp, link_ns) = tr.time(op, Some(root), "router.link", || link.request(line));
            let engine = &self.shard_engines[s];
            let (_, engine_ns) = tr.time(op, Some(root), "shard.engine", || match rop.verb {
                Verb::Neighbors => engine.neighbors(sql, K),
                _ => engine.classify(sql),
            });
            engines_ns += engine_ns;
            links_ns += link_ns.saturating_sub(engine_ns);
            self.ledger.link_us.push((link_ns as f64 - engine_ns as f64) / 1_000.0);
            if let Some(json) = resp.ok().and_then(|r| Json::parse(r.trim()).ok()) {
                if json.get("ok") == Some(&Json::Bool(true)) {
                    responses.push(json);
                }
            }
        }
        let (_, merge_ns) = tr.time(op, Some(root), "router.merge", || match rop.verb {
            Verb::Neighbors => {
                let lists: Vec<Vec<Json>> = responses
                    .iter()
                    .filter_map(|j| j.get("neighbors").and_then(Json::as_arr).map(<[Json]>::to_vec))
                    .collect();
                aa_serve::router::neighbors_fields(lists, K)
            }
            _ => {
                let candidates: Vec<(usize, f64, Json)> = responses
                    .iter()
                    .filter_map(|j| {
                        let nearest = j.get("nearest").and_then(Json::as_f64)? as usize;
                        let distance = j.get("distance").and_then(Json::as_f64)?;
                        Some((nearest, distance, j.get("cluster").cloned().unwrap_or(Json::Null)))
                    })
                    .collect();
                aa_serve::router::classify_fields(&candidates)
            }
        });
        self.ledger.handle_us.push(handle_ns as f64 / 1_000.0);
        self.ledger.self_us.push((handle_ns as f64 - engines_ns as f64) / 1_000.0);
        self.ledger.merge_us.push(merge_ns as f64 / 1_000.0);
        self.ledger.attribution.push((wire_us, links_ns as f64 / 1_000.0, engines_ns as f64 / 1_000.0));
        self.read.decompose(tr, op, root, rop, traffic, wire_us);
    }
}
