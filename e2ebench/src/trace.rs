//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (never inside the program). Each span carries the
//! operation it belongs to and its parent, so a layer's *self* time is its
//! duration minus the part its children cover. Calls too frequent to keep
//! one span each (the distance callbacks inside an index search) are kept
//! as one aggregate child span per parent whose duration is the sum of
//! the calls and whose `calls` field counts them; the calls never overlap,
//! so the sum is exactly the part of the parent they cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// Operation ordinal (all spans of one request share it).
    pub op: u64,
    pub id: usize,
    /// Parent span id; `None` for an operation's root span.
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub calls: u64,
}

pub struct Tracer {
    epoch: Instant,
    /// Connection tag written out with every span.
    pub conn: u32,
    spans: Vec<Span>,
    open_at: Vec<Option<Instant>>,
}

impl Tracer {
    pub fn new(epoch: Instant, conn: u32) -> Tracer {
        Tracer {
            epoch,
            conn,
            spans: Vec::new(),
            open_at: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns: now.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
            calls: 1,
        });
        self.open_at.push(Some(now));
        id
    }

    /// Closes an open span; returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let started = self.open_at[id].take().expect("span closed twice");
        let dur = started.elapsed().as_nanos() as u64;
        self.spans[id].dur_ns = dur;
        dur
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(op, parent, name);
        let out = f();
        let dur = self.close(id);
        (out, dur)
    }

    /// Records an aggregate child span (see the module docs).
    pub fn aggregate(
        &mut self,
        op: u64,
        parent: usize,
        name: &'static str,
        dur_ns: u64,
        calls: u64,
    ) {
        let start_ns = self.spans[parent].start_ns;
        let id = self.spans.len();
        self.spans.push(Span {
            op,
            id,
            parent: Some(parent),
            name,
            start_ns,
            dur_ns,
            calls,
        });
        self.open_at.push(None);
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns.saturating_sub(*c))
        .collect()
}

/// Self times in microseconds grouped by span name, across tracers.
pub fn self_times_by_name(tracers: &[Tracer]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in tracers {
        for (s, self_ns) in t.spans.iter().zip(self_times(&t.spans)) {
            out.entry(s.name).or_default().push(self_ns as f64 / 1_000.0);
        }
    }
    out
}

/// Writes every span as one tab-separated line:
/// `conn op id parent name start_ns dur_ns self_ns calls`.
pub fn write_spans(path: &Path, tracers: &[Tracer]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "conn\top\tid\tparent\tname\tstart_ns\tdur_ns\tself_ns\tcalls")?;
    let mut n = 0;
    for t in tracers {
        for (s, self_ns) in t.spans.iter().zip(self_times(&t.spans)) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.conn, s.op, s.id, parent, s.name, s.start_ns, s.dur_ns, self_ns, s.calls
            )?;
            n += 1;
        }
    }
    out.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { op: 0, id: 0, parent: None, name: "op", start_ns: 0, dur_ns: 100, calls: 1 },
            Span { op: 0, id: 1, parent: Some(0), name: "a", start_ns: 0, dur_ns: 30, calls: 1 },
            Span { op: 0, id: 2, parent: Some(0), name: "b", start_ns: 40, dur_ns: 50, calls: 1 },
            Span { op: 0, id: 3, parent: Some(2), name: "c", start_ns: 40, dur_ns: 20, calls: 7 },
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
    }
}
