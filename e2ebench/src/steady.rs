//! Steadiness mode: runs every workload of `BENCHMARK.json` (or the one
//! named by `--workload`) N times (seeds
//! 1..=N, each run its own process, untraced, `run_seconds` long) and
//! prints each end-to-end metric's median, quartiles and spread — the
//! quartile distance as a share of the median — against its bound, so
//! the bounds can be derived again with one command.

use crate::stats::{median, quartiles};
use aa_util::Json;
use std::path::Path;
use std::process::Command;

struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<(String, f64)>,
}

fn load_spec() -> Result<Spec, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let run_seconds = json.get("run_seconds").and_then(Json::as_f64).ok_or("no run_seconds")?;
    let names = |key: &str| -> Vec<&Json> { json.get(key).and_then(Json::as_arr).map(|a| a.iter().collect()).unwrap_or_default() };
    let workloads = names("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let metrics = names("end_to_end")
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect();
    Ok(Spec { run_seconds, workloads, metrics })
}

/// One child run; the parsed last line of its standard output.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited {}: {}", out.status, String::from_utf8_lossy(&out.stderr)));
    }
    Json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}: {last}"))
}

pub fn run(n: usize, only: &str) -> i32 {
    let spec = match load_spec() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("steady: {e}");
            return 1;
        }
    };
    let mut all_within = true;
    println!("{:<13} {:<18} {:>12} {:>12} {:>12} {:>8} {:>7} {:>9}", "workload", "metric", "median", "q1", "q3", "spread", "bound", "spr/bnd");
    for workload in spec.workloads.iter().filter(|w| only.is_empty() || *w == only) {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.metrics.len()];
        let mut failed_shares = Vec::new();
        for seed in 1..=n as u64 {
            let result = match run_once(workload, seed, spec.run_seconds) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("steady: {e}");
                    return 1;
                }
            };
            if result.get("correct") != Some(&Json::Bool(true)) {
                eprintln!("steady: {workload} seed {seed} reported incorrect output");
                all_within = false;
            }
            let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            failed_shares.push(num("failed") / num("attempted"));
            for (i, (name, _)) in spec.metrics.iter().enumerate() {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                values[i].push(v);
            }
        }
        for ((name, bound), vals) in spec.metrics.iter().zip(&values) {
            let med = median(vals);
            let (q1, q3) = quartiles(vals);
            let spread = (q3 - q1) / med;
            // setup_s is judged on its median only; every other spread
            // must stay within its bound.
            if name != "setup_s" && !(spread <= *bound) {
                all_within = false;
            }
            println!(
                "{workload:<13} {name:<18} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound:>7.3} {:>9.3}",
                spread / bound
            );
            let runs: Vec<String> = vals.iter().map(|v| format!("{v:.4}")).collect();
            println!("{:<13} {:<18} runs: {}", "", "", runs.join(" "));
        }
        let lo = failed_shares.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = failed_shares.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!("{workload:<13} failed share min {lo} max {hi}");
        if lo != hi {
            all_within = false;
        }
    }
    if all_within {
        0
    } else {
        1
    }
}
