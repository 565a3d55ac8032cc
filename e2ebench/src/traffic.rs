//! Seeded request streams. Everything here is a pure function of the
//! `--seed` argument; the servers only ever see the generated lines.
//!
//! Statements come from the synthetic DR9 log generator
//! (`aa_skyserver::generate_log`), so the stream carries the generator's
//! classes: Table 1 cluster templates, exploratory background, MySQL
//! dialect, and the unparseable error class.

use aa_skyserver::{generate_log, GroundTruth, LogConfig};
use aa_util::{Json, SeededRng};

/// Operations per read round: `ROUND - NEIGHBORS_PER_ROUND` classify and
/// `NEIGHBORS_PER_ROUND` neighbors, in a seeded order.
pub const ROUND: usize = 20;
pub const NEIGHBORS_PER_ROUND: usize = 2;
/// `k` of every neighbors request.
pub const K: usize = 5;
/// Hot statements (humans re-running a query, bots polling one): the
/// repeats that the extraction cache should absorb. A hot statement
/// recurs about every `2 * HOT` reads, inside the cache's reach.
pub const HOT: usize = 384;
/// Cold statements, walked in order: far more distinct statements than
/// the cache holds, so a cold statement has always been evicted by the
/// time it comes round again.
pub const COLD: usize = 3_000;
/// Share of read operations drawn from the hot set.
pub const REPEAT_SHARE: f64 = 0.5;

/// Fresh ingests per ingest round; equal to the compaction cadence, so
/// every round holds exactly one compaction.
pub const COMPACT_EVERY: usize = 40;
/// Re-sends of already-acknowledged keys per ingest round.
pub const RESENDS_PER_ROUND: usize = 2;
/// A re-send picks one of the last this-many acknowledged keys.
pub const RESEND_LOOKBACK: usize = 256;
/// Distinct statements in the ingest pool (wrapped when exhausted).
pub const INGEST_POOL: usize = 3_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verb {
    Classify,
    Neighbors,
    Ingest,
    Reload,
    Ping,
}

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Classify => "classify",
            Verb::Neighbors => "neighbors",
            Verb::Ingest => "ingest",
            Verb::Reload => "reload",
            Verb::Ping => "ping",
        }
    }
}

/// One generated statement and the generator class it came from.
#[derive(Debug, Clone)]
pub struct Statement {
    pub sql: String,
    pub class: &'static str,
}

fn class_of(truth: GroundTruth) -> &'static str {
    match truth {
        GroundTruth::Cluster(_) => "cluster",
        GroundTruth::Background => "background",
        GroundTruth::MySqlDialect => "mysql",
        GroundTruth::Pathological(_) => "error",
    }
}

/// SplitMix64 finaliser over `(seed, tag, index)`: independent streams
/// per purpose and per round from one seed.
pub fn mix(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn statements(total: usize, seed: u64) -> Vec<Statement> {
    let mut log = generate_log(&LogConfig {
        total,
        seed,
        ..LogConfig::default()
    });
    log.truncate(total);
    log.into_iter()
        .map(|e| Statement {
            class: class_of(e.truth),
            sql: e.sql,
        })
        .collect()
}

fn request_line(op: &str, sql: &str, extra: Option<(&str, Json)>) -> String {
    let mut fields = vec![
        ("op".to_string(), Json::Str(op.to_string())),
        ("sql".to_string(), Json::Str(sql.to_string())),
    ];
    if let Some((k, v)) = extra {
        fields.push((k.to_string(), v));
    }
    Json::obj(fields).to_string_compact()
}

/// One read operation: a verb over a pool statement.
#[derive(Debug, Clone, Copy)]
pub struct ReadOp {
    pub verb: Verb,
    pub stmt: u32,
}

/// The classify/neighbors stream shared by every workload's readers.
pub struct ReadTraffic {
    seed: u64,
    /// `HOT` hot statements followed by `COLD` cold ones.
    pub pool: Vec<Statement>,
    classify_lines: Vec<String>,
    neighbors_lines: Vec<String>,
}

impl ReadTraffic {
    pub fn new(seed: u64) -> ReadTraffic {
        let pool = statements(HOT + COLD, mix(seed, 1, 0));
        let classify_lines = pool
            .iter()
            .map(|s| request_line("classify", &s.sql, None))
            .collect();
        let neighbors_lines = pool
            .iter()
            .map(|s| request_line("neighbors", &s.sql, Some(("k", Json::Num(K as f64)))))
            .collect();
        ReadTraffic {
            seed,
            pool,
            classify_lines,
            neighbors_lines,
        }
    }

    /// Round `r`: a pure function of `(seed, r)`, so connections can
    /// split rounds between them and still replay one stream.
    pub fn round(&self, r: u64) -> Vec<ReadOp> {
        let mut rng = SeededRng::seed_from_u64(mix(self.seed, 2, r));
        let mut verbs = vec![Verb::Classify; ROUND];
        for v in verbs.iter_mut().take(NEIGHBORS_PER_ROUND) {
            *v = Verb::Neighbors;
        }
        rng.shuffle(&mut verbs);
        verbs
            .into_iter()
            .enumerate()
            .map(|(j, verb)| {
                let stmt = if rng.gen_bool(REPEAT_SHARE) {
                    rng.gen_range(0..HOT)
                } else {
                    HOT + (r as usize * ROUND + j) % COLD
                };
                ReadOp {
                    verb,
                    stmt: stmt as u32,
                }
            })
            .collect()
    }

    pub fn line(&self, op: ReadOp) -> &str {
        match op.verb {
            Verb::Neighbors => &self.neighbors_lines[op.stmt as usize],
            _ => &self.classify_lines[op.stmt as usize],
        }
    }

    pub fn sql(&self, stmt: u32) -> &str {
        &self.pool[stmt as usize].sql
    }
}

/// The keyed ingest stream of `ingest_mixed`'s writer connection.
pub struct IngestTraffic {
    seed: u64,
    /// Extractable statements only (the generator's error class is left
    /// out, so every fresh ingest is an absorption).
    pub pool: Vec<Statement>,
}

/// One slot of an ingest round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestSlot {
    Fresh,
    /// Re-send the key acknowledged this many fresh ingests ago (1 = the
    /// latest).
    Resend(usize),
}

impl IngestTraffic {
    pub fn new(seed: u64) -> IngestTraffic {
        let pool = statements(INGEST_POOL, mix(seed, 3, 0))
            .into_iter()
            .filter(|s| s.class != "error")
            .collect();
        IngestTraffic { seed, pool }
    }

    /// Fresh ingest `n` (0-based over the whole run): its key and line.
    pub fn fresh(&self, n: u64) -> (String, &str) {
        let key = format!("k{n}");
        (key, &self.pool[n as usize % self.pool.len()].sql)
    }

    pub fn line(sql: &str, key: &str) -> String {
        request_line("ingest", sql, Some(("key", Json::Str(key.to_string()))))
    }

    /// Round `r`'s slots: `COMPACT_EVERY` fresh ingests with
    /// `RESENDS_PER_ROUND` re-sends at seeded positions.
    pub fn round(&self, r: u64, acked: usize) -> Vec<IngestSlot> {
        let mut rng = SeededRng::seed_from_u64(mix(self.seed, 4, r));
        let mut slots = vec![IngestSlot::Fresh; COMPACT_EVERY + RESENDS_PER_ROUND];
        for s in slots.iter_mut().take(RESENDS_PER_ROUND) {
            *s = IngestSlot::Resend(0);
        }
        rng.shuffle(&mut slots);
        for s in slots.iter_mut() {
            if let IngestSlot::Resend(back) = s {
                *back = 1 + rng.gen_range(0..RESEND_LOOKBACK.min(acked.max(1)));
            }
        }
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_pure_functions_of_seed_and_index() {
        let a = ReadTraffic::new(5);
        let b = ReadTraffic::new(5);
        for r in [0, 1, 17] {
            let (x, y) = (a.round(r), b.round(r));
            assert_eq!(x.len(), ROUND);
            assert_eq!(
                x.iter().filter(|o| o.verb == Verb::Neighbors).count(),
                NEIGHBORS_PER_ROUND
            );
            for (p, q) in x.iter().zip(&y) {
                assert_eq!((p.verb, p.stmt), (q.verb, q.stmt));
            }
        }
        assert_ne!(
            ReadTraffic::new(6).round(0).iter().map(|o| o.stmt).collect::<Vec<_>>(),
            a.round(0).iter().map(|o| o.stmt).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ingest_rounds_hold_one_compaction_worth_of_fresh_keys() {
        let t = IngestTraffic::new(9);
        let slots = t.round(3, 1_000);
        assert_eq!(slots.iter().filter(|s| **s == IngestSlot::Fresh).count(), COMPACT_EVERY);
        assert!(slots
            .iter()
            .all(|s| matches!(s, IngestSlot::Fresh) || matches!(s, IngestSlot::Resend(b) if (1..=RESEND_LOOKBACK).contains(b))));
        assert!(t.pool.iter().all(|s| s.class != "error"));
    }
}
