//! End-to-end serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload read_single|fleet_read|ingest_mixed --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --steady N [--workload W]
//! ```
//!
//! A run sets the workload up three times from the model log, drives its
//! closed loops over loopback TCP, checks every answer against the oracle,
//! and prints its metrics; the last line of standard output is one JSON
//! object. `--trace 1` splits the run into an untraced and a traced phase
//! and prints the per-layer metrics instead. See README.md.

#![forbid(unsafe_code)]

mod client;
mod common;
mod ingest;
mod oracle;
mod pin;
mod read;
mod reads;
mod report;
mod setup;
mod stats;
mod steady;
mod trace;
mod traffic;

pub const WORKLOADS: [&str; 3] = ["read_single", "fleet_read", "ingest_mixed"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--steady N`: the steadiness report over N seeds per workload.
    pub steady: Option<usize>,
    /// `--serve W`: run workload W's servers in this process (the load
    /// generator starts itself this way).
    pub serve: Option<String>,
    /// `--dir D`: the server process's durable state directory.
    pub dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
        serve: None,
        dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?),
            "--serve" => args.serve = Some(value()?),
            "--dir" => args.dir = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let role = args.serve.as_deref().unwrap_or(&args.workload);
    if args.steady.is_none() && !WORKLOADS.contains(&role) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    // The read workloads are request/response ping-pong and run pinned to
    // one CPU; `ingest_mixed` runs work on both connections at once (a
    // reload beside reads) and keeps both CPUs.
    if args.steady.is_none() && args.serve.is_none() && args.workload != "ingest_mixed" {
        if let Some(code) = pin::run_pinned() {
            std::process::exit(code);
        }
    }
    if let Some(n) = args.steady {
        std::process::exit(steady::run(n, &args.workload));
    }
    if let Some(workload) = &args.serve {
        if let Err(e) = setup::serve_main(workload, args.dir.as_deref()) {
            eprintln!("e2ebench server: {e}");
            std::process::exit(1);
        }
        return;
    }
    let result = match args.workload.as_str() {
        "read_single" => reads::run(&args, false),
        "fleet_read" => reads::run(&args, true),
        _ => ingest::run(&args),
    };
    match result {
        Ok(mut report) => {
            let printed = if args.trace { &report.layers } else { &report.e2e };
            let bad: Vec<String> = printed.iter().filter(|m| !m.value.is_finite()).map(|m| m.name.clone()).collect();
            if !bad.is_empty() {
                report.check("every metric measured", Err(format!("no value for {}", bad.join(", "))));
            }
            let header = format!(
                "workload {} seed {} seconds {} trace {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            report.print(&header, args.trace);
        }
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
