//! What one workload run produces, and how it is printed.

use crate::traffic::Verb;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics every workload reports (the gated set).
    pub e2e: Vec<Metric>,
    /// End-to-end metrics only this workload has.
    pub e2e_extra: Vec<Metric>,
    /// Per-layer metrics every workload reports (traced run).
    pub layers: Vec<Metric>,
    /// Per-layer metrics only this workload's layers have (traced run).
    pub layers_extra: Vec<Metric>,
    /// Attempted and failed operations per verb.
    pub ops: BTreeMap<Verb, (u64, u64)>,
    /// Named correctness checks and their outcome.
    pub checks: Vec<(String, Result<String, String>)>,
    pub notes: Vec<String>,
}

fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    list.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.e2e, name, value, unit);
    }
    pub fn e2e_extra(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.e2e_extra, name, value, unit);
    }
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.layers, name, value, unit);
    }
    pub fn layer_extra(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.layers_extra, name, value, unit);
    }

    /// Records one operation's outcome.
    pub fn op(&mut self, verb: Verb, failed: bool) {
        let e = self.ops.entry(verb).or_insert((0, 0));
        e.0 += 1;
        e.1 += u64::from(failed);
    }

    pub fn check(&mut self, name: &str, outcome: Result<String, String>) {
        self.checks.push((name.to_string(), outcome));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|v| v.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|v| v.1).sum()
    }

    /// Human-readable lines, then the one-line JSON result (last line of
    /// standard output): end-to-end metrics untraced, per-layer traced.
    pub fn print(&self, header: &str, traced: bool) {
        println!("{header}");
        let show = |kind: &str, list: &[Metric]| {
            for m in list {
                println!("{kind:<7} {:<40} {:>16.4} {}", m.name, m.value, m.unit);
            }
        };
        show("e2e", &self.e2e);
        show("e2e+", &self.e2e_extra);
        if traced {
            show("layer", &self.layers);
            show("layer+", &self.layers_extra);
        }
        for (verb, (attempted, failed)) in &self.ops {
            println!("ops     {:<10} attempted {attempted:>8} failed {failed:>6}", verb.name());
        }
        for note in &self.notes {
            println!("note    {note}");
        }
        for (name, outcome) in &self.checks {
            match outcome {
                Ok(detail) => println!("check   ok   {name}: {detail}"),
                Err(why) => println!("check   FAIL {name}: {why}"),
            }
        }
        let metrics = if traced { &self.layers } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_num(m.value), m.unit))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            body.join(", ")
        );
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot carry, become 0
/// and fail the run's checks elsewhere).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
