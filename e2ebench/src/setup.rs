//! Set-up: the offline pipeline over the model log, the serving state,
//! and the servers — everything `setup_s` times, from nothing to every
//! server answering `ping`. The servers run in a process of their own
//! (this binary with `--serve`), so its peak memory is theirs alone.

use crate::client::wait_ready;
use aa_core::{
    AccessArea, AccessRanges, ClusteredModel, DistanceKernel, DistanceMode, LogRunner, NoSchema,
    Pipeline, RunnerConfig,
};
use aa_dbscan::{dbscan, DbscanParams, Label};
use aa_serve::{
    spawn, spawn_router, EvolveConfig, ModelStore, RouterConfig, RouterHandle, ServeEngine,
    ServerConfig, ServerHandle, ShardSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The model log: `build_model(2000, 42, 0.06, 8, Dissimilarity)`'s input,
/// 1,989 extracted areas.
pub const MODEL_LOG_TOTAL: usize = 2_000;
pub const MODEL_LOG_SEED: u64 = 42;
pub const EPS: f64 = 0.06;
pub const MIN_PTS: usize = 8;
pub const MODE: DistanceMode = DistanceMode::Dissimilarity;

/// Extraction-cache capacity of every server (the `serve_areas`
/// default): fewer entries than the read stream's distinct statements.
pub const CACHE: usize = 1_024;
/// Per-request extraction fuel (the `serve_areas` default).
pub const FUEL: Option<u64> = Some(10_000_000);
/// Per-connection admission, far above any closed loop's rate, so no
/// request is refused.
pub const PER_MINUTE: u32 = 100_000_000;
/// Server worker threads (each serves one connection at a time; the
/// traced run opens extra links to the shards).
pub const WORKERS: usize = 6;
/// Router→shard deadline, far above today's per-link stall.
pub const BACKEND_TIMEOUT: Duration = Duration::from_secs(30);
/// Shards behind the router in `fleet_read`.
pub const SHARDS: usize = 3;
/// `ingest_mixed`'s evolving window and idempotency window.
pub const WINDOW: usize = 200;
pub const DEDUP_WINDOW: usize = 4_096;

/// Wall time of the offline pipeline's stages, one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub extract_s: f64,
    pub kernel_build_ms: f64,
    pub dbscan_s: f64,
}

/// The model log's statements (input generation, not timed by set-up).
pub fn model_log() -> Vec<String> {
    aa_skyserver::generate_log(&aa_skyserver::LogConfig {
        total: MODEL_LOG_TOTAL,
        seed: MODEL_LOG_SEED,
        ..aa_skyserver::LogConfig::default()
    })
    .into_iter()
    .map(|e| e.sql)
    .collect()
}

/// `aa_serve::build_model`, stage by stage, so each stage can be timed:
/// extract (with range bootstrap and doubling) → kernel → DBSCAN. The
/// `staged_build_equals_build_model` test pins it to the library.
pub fn build_model_staged(log: &[String]) -> (ClusteredModel, Stages) {
    let t = Instant::now();
    let provider = NoSchema;
    let pipeline = Pipeline::new(&provider);
    let runner = LogRunner::new(&pipeline, RunnerConfig::new());
    let report = runner.run(log).expect("in-memory run cannot fail");
    let areas: Vec<AccessArea> = report.extracted.into_iter().map(|q| q.area).collect();
    let mut ranges = AccessRanges::new();
    ranges.observe_all(areas.iter());
    ranges.apply_doubling();
    let extract_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let kernel = DistanceKernel::build(&areas, &ranges, MODE);
    let kernel_build_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let positions: Vec<usize> = (0..areas.len()).collect();
    let params = DbscanParams { eps: EPS, min_pts: MIN_PTS };
    let result = dbscan(&positions, &params, |a, b| kernel.distance(*a, *b));
    let labels: Vec<Option<usize>> = result.labels.iter().map(Label::cluster).collect();
    let dbscan_s = t.elapsed().as_secs_f64();

    let model = ClusteredModel {
        areas,
        labels,
        cluster_count: result.cluster_count,
        ranges,
        eps: EPS,
        min_pts: MIN_PTS,
        mode: MODE,
    };
    model.validate().expect("constructed model is valid");
    (model, Stages { extract_s, kernel_build_ms, dbscan_s })
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        cache_capacity: CACHE,
        fuel: FUEL,
        per_minute: PER_MINUTE,
        ..ServerConfig::default()
    }
}

pub fn router_config(backends: Vec<String>) -> RouterConfig {
    RouterConfig {
        backends,
        backend_timeout: Some(BACKEND_TIMEOUT),
        // One tenant sends every request; per-tenant shedding would
        // refuse most of them.
        tenant: None,
        ..RouterConfig::default()
    }
}

pub fn evolve_config() -> EvolveConfig {
    EvolveConfig {
        window: WINDOW,
        compact_every: crate::traffic::COMPACT_EVERY,
        ..EvolveConfig::default()
    }
}

/// The servers of one workload, up and answering.
pub enum Deployment {
    Single(ServerHandle),
    Fleet {
        shards: Vec<ServerHandle>,
        router: RouterHandle,
    },
}

impl Deployment {
    /// The address clients dial.
    pub fn front(&self) -> String {
        match self {
            Deployment::Single(h) => h.local_addr().to_string(),
            Deployment::Fleet { router, .. } => router.local_addr().to_string(),
        }
    }

    /// Serves until a client sends `shutdown` (the router forwards it to
    /// its shards), then drains and joins every server thread.
    pub fn wait(self) {
        match self {
            Deployment::Single(h) => {
                h.wait();
            }
            Deployment::Fleet { shards, router } => {
                router.wait();
                for s in shards {
                    s.wait();
                }
            }
        }
    }
}

/// Where `ingest_mixed` keeps one set-up's store and WAL.
pub fn durable_dirs(root: &Path) -> (PathBuf, PathBuf) {
    (root.join("store"), root.join("wal"))
}

/// Builds the model and brings the workload's servers up in this
/// process. `durable` selects `ingest_mixed`'s evolving, WAL-backed server
/// rooted at that directory.
pub fn deploy(log: &[String], fleet: bool, durable: Option<&Path>) -> Result<(Deployment, ClusteredModel, Stages), String> {
    let (model, stages) = build_model_staged(log);
    let deployment = if fleet {
        let mut shards = Vec::new();
        for shard in 0..SHARDS {
            let engine = ServeEngine::new_sharded(
                model.clone(),
                CACHE,
                FUEL,
                Some(ShardSpec { shard, of: SHARDS }),
            );
            shards.push(spawn(engine, server_config()).map_err(|e| e.to_string())?);
        }
        let backends = shards.iter().map(|s| s.local_addr().to_string()).collect();
        let router = spawn_router(router_config(backends)).map_err(|e| e.to_string())?;
        Deployment::Fleet { shards, router }
    } else {
        let mut engine = ServeEngine::new(model.clone(), CACHE, FUEL);
        if let Some(root) = durable {
            let (store_dir, wal_dir) = durable_dirs(root);
            let store = ModelStore::open(&store_dir).map_err(|e| e.to_string())?;
            let generation = store.publish(&model).map_err(|e| e.to_string())?;
            engine = engine
                .with_store(store, generation)
                .with_evolve(evolve_config())
                .attach_wal(&wal_dir, DEDUP_WINDOW)?
                .0;
        }
        Deployment::Single(spawn(engine, server_config()).map_err(|e| e.to_string())?)
    };
    Ok((deployment, model, stages))
}

/// The server process (`--serve`): deploys, prints one `ready` line with
/// its addresses, stage timings and model hash, then serves until a
/// client sends `shutdown`.
pub fn serve_main(workload: &str, dir: Option<&Path>) -> Result<(), String> {
    let log = model_log();
    let (deployment, model, stages) = deploy(&log, workload == "fleet_read", dir)?;
    let shards = match &deployment {
        Deployment::Fleet { shards, .. } => shards.iter().map(|s| s.local_addr().to_string()).collect::<Vec<_>>().join(","),
        Deployment::Single(_) => "-".to_string(),
    };
    println!(
        "ready {} {shards} {} {} {} {}",
        deployment.front(),
        stages.extract_s,
        stages.kernel_build_ms,
        stages.dbscan_s,
        model.content_hash()
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    deployment.wait();
    Ok(())
}

/// A running server process, as the load generator sees it.
pub struct Served {
    child: Child,
    pub front: String,
    pub shards: Vec<String>,
    pub stages: Stages,
    pub model_hash: u64,
}

/// Starts the workload's server process and waits until every server in
/// it answers `ping`; returns it with the elapsed set-up time.
pub fn start(workload: &str, dir: Option<&Path>) -> Result<(Served, f64), String> {
    let t = Instant::now();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--serve", workload]).stdin(Stdio::null()).stdout(Stdio::piped());
    if let Some(dir) = dir {
        cmd.arg("--dir").arg(dir);
    }
    let mut child = cmd.spawn().map_err(|e| format!("cannot start the server process: {e}"))?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| BufReader::new(out).read_line(&mut line));
    let Some((front, shards, stages, model_hash)) = parse_ready(&line) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("server process did not come up ({read:?}): {line:?}"));
    };
    let served = Served { child, front, shards, stages, model_hash };
    for addr in served.shards.iter().chain(std::iter::once(&served.front)) {
        wait_ready(addr, 1_000)?;
    }
    Ok((served, t.elapsed().as_secs_f64()))
}

/// `ready <front> <shards|-> <extract_s> <kernel_build_ms> <dbscan_s> <hash>`.
fn parse_ready(line: &str) -> Option<(String, Vec<String>, Stages, u64)> {
    let f: Vec<&str> = line.split_whitespace().collect();
    if f.len() != 7 || f[0] != "ready" {
        return None;
    }
    let shards = if f[2] == "-" { Vec::new() } else { f[2].split(',').map(str::to_string).collect() };
    let stages = Stages {
        extract_s: f[3].parse().ok()?,
        kernel_build_ms: f[4].parse().ok()?,
        dbscan_s: f[5].parse().ok()?,
    };
    Some((f[1].to_string(), shards, stages, f[6].parse().ok()?))
}

impl Served {
    /// Peak resident memory of the server process.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }

    /// One request on a fresh connection, parsed.
    pub fn ask(addr: &str, line: &str) -> Result<aa_util::Json, String> {
        let mut client = crate::client::WireClient::connect(addr).map_err(|e| e.to_string())?;
        let resp = client.call(line).map_err(|e| e.to_string())?;
        aa_util::Json::parse(resp).map_err(|e| e.to_string())
    }

    /// Asks the servers to shut down and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Served::ask(&self.front, "{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server process exited {status}")),
                Ok(None) if Instant::now() < deadline && asked.is_ok() => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("server process did not shut down ({asked:?}); killed"));
                }
            }
        }
    }
}

impl Drop for Served {
    /// A run that fails part-way still leaves no server process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_build_equals_build_model() {
        let log: Vec<String> = aa_skyserver::generate_log(&aa_skyserver::LogConfig {
            total: 300,
            seed: 11,
            ..aa_skyserver::LogConfig::default()
        })
        .into_iter()
        .map(|e| e.sql)
        .collect();
        let (staged, _) = build_model_staged(&log);
        let library = aa_serve::build_model(300, 11, EPS, MIN_PTS, MODE);
        assert_eq!(staged.to_canonical_text(), library.to_canonical_text());
    }
}
