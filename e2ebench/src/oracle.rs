//! The correctness oracle, built apart from the serving path.
//!
//! * Extraction is redone offline with a plain [`Pipeline`] (no cache, no
//!   runner, no fuel).
//! * Nearest area and top-k come from a brute-force scan with the scalar
//!   [`QueryDistance`] over every area of the served model — no kernel, no
//!   pivot index — ordered by `(distance, index)`; distances are compared
//!   with `to_bits`.
//! * A published generation is rebuilt from its window by a textbook
//!   DBSCAN written here, over the scalar distance, and compared with the
//!   published file byte for byte.
//! * The ingest ledger (acknowledgements, re-sends, WAL records) is
//!   balanced against what the client sent.

use aa_core::{AccessArea, AccessRanges, ClusteredModel, DistanceMode, NoSchema, Pipeline, QueryDistance};
use aa_util::{Json, ToJson};

/// Offline extraction of one statement: the area, or the failure message.
pub fn extract_offline(sql: &str) -> Result<AccessArea, String> {
    let provider = NoSchema;
    let pipeline = Pipeline::new(&provider);
    pipeline
        .process(0, sql)
        .map(|q| q.area)
        .map_err(|f| format!("{:?}: {}", f.kind, f.message))
}

/// What the oracle expects for one statement against one model.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The offline extractor rejects the statement: the server must answer
    /// a typed `extract_failed`.
    Rejected,
    /// The `k` nearest areas by `(distance, index)`.
    Ranked(Vec<(usize, f64)>),
}

/// Brute force: the scalar distance from `area` to every model area,
/// sorted by `(distance, index)`, truncated to `k`.
pub fn brute_force(model: &ClusteredModel, area: &AccessArea, k: usize) -> Vec<(usize, f64)> {
    let metric = QueryDistance::with_mode(&model.ranges, model.mode);
    let mut all: Vec<(usize, f64)> = model
        .areas
        .iter()
        .enumerate()
        .map(|(i, a)| (i, metric.distance(area, a)))
        .collect();
    all.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
    all.truncate(k);
    all
}

/// The oracle's expectation for `sql` against `model`.
pub fn expect(model: &ClusteredModel, sql: &str, k: usize) -> Expect {
    match extract_offline(sql) {
        Err(_) => Expect::Rejected,
        Ok(area) => Expect::Ranked(brute_force(model, &area, k)),
    }
}

fn num(resp: &Json, key: &str) -> Option<f64> {
    resp.get(key).and_then(Json::as_f64)
}

fn cluster_json(c: Option<usize>) -> Json {
    c.map_or(Json::Null, |c| Json::Num(c as f64))
}

fn check_rejected(resp: &Json) -> Result<(), String> {
    if resp.get("ok") == Some(&Json::Bool(false))
        && resp.get("kind").and_then(Json::as_str) == Some("extract_failed")
    {
        Ok(())
    } else {
        Err(format!(
            "offline extractor rejects the statement but the server answered {}",
            resp.to_string_compact()
        ))
    }
}

fn check_exact(resp: &Json) -> Result<(), String> {
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("not ok: {}", resp.to_string_compact()));
    }
    for flag in ["degraded", "partial"] {
        if resp.get(flag) == Some(&Json::Bool(true)) {
            return Err(format!("{flag} answer: {}", resp.to_string_compact()));
        }
    }
    Ok(())
}

/// A classify response against the oracle: nearest index, distance bits,
/// and the cluster (the nearest area's label when within eps, else null).
pub fn check_classify(resp: &Json, expect: &Expect, model: &ClusteredModel) -> Result<(), String> {
    let ranked = match expect {
        Expect::Rejected => return check_rejected(resp),
        Expect::Ranked(r) => r,
    };
    check_exact(resp)?;
    let (idx, d) = match ranked.first() {
        Some(&best) => best,
        None => {
            return if resp.get("cluster") == Some(&Json::Null) {
                Ok(())
            } else {
                Err("empty model must classify as noise".into())
            }
        }
    };
    let nearest = num(resp, "nearest").map(|v| v as usize);
    if nearest != Some(idx) {
        return Err(format!("nearest {nearest:?}, oracle {idx}"));
    }
    let got = num(resp, "distance").unwrap_or(f64::NAN);
    if got.to_bits() != d.to_bits() {
        return Err(format!("distance {got:?}, oracle {d:?}"));
    }
    let want = if d <= model.eps { model.labels[idx] } else { None };
    let cluster = resp.get("cluster").cloned().unwrap_or(Json::Null);
    if cluster != cluster_json(want) {
        return Err(format!("cluster {}, oracle {want:?}", cluster.to_string_compact()));
    }
    Ok(())
}

/// A neighbors response against the oracle: every entry's index, distance
/// bits and label, in `(distance, index)` order.
pub fn check_neighbors(resp: &Json, expect: &Expect, model: &ClusteredModel) -> Result<(), String> {
    let ranked = match expect {
        Expect::Rejected => return check_rejected(resp),
        Expect::Ranked(r) => r,
    };
    check_exact(resp)?;
    let list = resp
        .get("neighbors")
        .and_then(Json::as_arr)
        .ok_or("no neighbors array")?;
    if list.len() != ranked.len() {
        return Err(format!("{} neighbors, oracle {}", list.len(), ranked.len()));
    }
    for (pos, (entry, &(idx, d))) in list.iter().zip(ranked).enumerate() {
        let index = num(entry, "index").map(|v| v as usize);
        let got = num(entry, "distance").unwrap_or(f64::NAN);
        let cluster = entry.get("cluster").cloned().unwrap_or(Json::Null);
        if index != Some(idx) || got.to_bits() != d.to_bits() || cluster != cluster_json(model.labels[idx]) {
            return Err(format!(
                "neighbor #{pos}: {} vs oracle (index {idx}, distance {d:?}, cluster {:?})",
                entry.to_string_compact(),
                model.labels[idx]
            ));
        }
    }
    Ok(())
}

/// Textbook DBSCAN over the scalar distance: a point is core when its
/// ε-neighbourhood (itself included) holds at least `min_pts` points;
/// clusters are numbered in the order of their lowest-index core seed; a
/// border point joins the first cluster that reaches it.
pub fn dbscan_labels(
    areas: &[AccessArea],
    ranges: &AccessRanges,
    mode: DistanceMode,
    eps: f64,
    min_pts: usize,
) -> Vec<Option<usize>> {
    let metric = QueryDistance::with_mode(ranges, mode);
    let n = areas.len();
    let neighborhoods: Vec<Vec<usize>> = (0..n)
        .map(|p| (0..n).filter(|&q| metric.distance(&areas[p], &areas[q]) <= eps).collect())
        .collect();
    let core: Vec<bool> = neighborhoods.iter().map(|nb| nb.len() >= min_pts).collect();
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut clusters = 0;
    for seed in 0..n {
        if !core[seed] || labels[seed].is_some() {
            continue;
        }
        let c = clusters;
        clusters += 1;
        labels[seed] = Some(c);
        let mut frontier = vec![seed];
        while let Some(p) = frontier.pop() {
            for &q in &neighborhoods[p] {
                if labels[q].is_none() {
                    labels[q] = Some(c);
                    if core[q] {
                        frontier.push(q);
                    }
                }
            }
        }
    }
    labels
}

/// One acknowledged fresh ingest, as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Absorption {
    pub key: String,
    pub tick: u64,
    /// Canonical JSON of the offline-extracted area.
    pub payload: String,
}

/// The offline area's canonical JSON, the form the WAL journals.
pub fn canonical_payload(area: &AccessArea) -> String {
    area.to_json().to_string_compact()
}

/// Conservation: every ingest sent is answered absorbed, not-owned or
/// duplicate, and absorptions get consecutive ticks.
pub fn check_ingest_ledger(
    sent: usize,
    absorbed: &[Absorption],
    not_owned: usize,
    duplicates: usize,
    first_tick: u64,
) -> Result<(), String> {
    if absorbed.len() + not_owned + duplicates != sent {
        return Err(format!(
            "ingest ledger: {} absorbed + {not_owned} not-owned + {duplicates} duplicate != {sent} sent",
            absorbed.len()
        ));
    }
    for (i, a) in absorbed.iter().enumerate() {
        if a.tick != first_tick + i as u64 {
            return Err(format!("absorption {} ({}) has tick {}, expected {}", i, a.key, a.tick, first_tick + i as u64));
        }
    }
    Ok(())
}

/// WAL records equal absorptions: the log's sequence counter equals the
/// absorptions acknowledged, and the active segment holds exactly the
/// absorptions since the last compaction, in order, with the offline
/// area as payload.
pub fn check_wal(
    next_seq: u64,
    records: &[aa_serve::WalRecord],
    absorbed_total: usize,
    since_compaction: &[Absorption],
) -> Result<(), String> {
    if next_seq != absorbed_total as u64 {
        return Err(format!("wal sequence at {next_seq}, {absorbed_total} absorptions acknowledged"));
    }
    if records.len() != since_compaction.len() {
        return Err(format!(
            "wal active segment holds {} records, {} absorptions since the last compaction",
            records.len(),
            since_compaction.len()
        ));
    }
    for (r, a) in records.iter().zip(since_compaction) {
        if r.key != a.key || r.payload != a.payload {
            return Err(format!("wal record seq {} (key {}) does not match absorption {}", r.seq, r.key, a.key));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ClusteredModel {
        aa_serve::build_model(300, 11, 0.06, 4, DistanceMode::Dissimilarity)
    }

    fn answer(engine: &aa_serve::ServeEngine, sql: &str, neighbors: bool) -> Json {
        if neighbors {
            engine.neighbors(sql, 5)
        } else {
            engine.classify(sql)
        }
    }

    fn set(resp: &mut Json, key: &str, value: Json) {
        if let Json::Obj(fields) = resp {
            for (k, v) in fields.iter_mut() {
                if k == key {
                    *v = value;
                    return;
                }
            }
        }
        panic!("no field {key}");
    }

    #[test]
    fn oracle_accepts_the_engine_and_rejects_each_planted_fault() {
        let m = model();
        let engine = aa_serve::ServeEngine::new(m.clone(), 64, None);
        // A clustered statement and one the extractor rejects.
        let probe = m.labels.iter().position(Option::is_some).expect("clustered area");
        let sql = m.areas[probe].to_intermediate_sql();
        let exp = expect(&m, &sql, 1);
        let good = answer(&engine, &sql, false);
        check_classify(&good, &exp, &m).expect("engine answer passes");
        assert!(good.get("cluster") != Some(&Json::Null));

        // Wrong nearest index.
        let mut bad = good.clone();
        let n = good.get("nearest").and_then(Json::as_f64).unwrap();
        set(&mut bad, "nearest", Json::Num(if n == 0.0 { 1.0 } else { n - 1.0 }));
        assert!(check_classify(&bad, &exp, &m).unwrap_err().contains("nearest"));

        // Wrong cluster.
        let mut bad = good.clone();
        set(&mut bad, "cluster", Json::Null);
        assert!(check_classify(&bad, &exp, &m).unwrap_err().contains("cluster"));

        // Distance off by one ulp.
        let mut bad = good.clone();
        let d = good.get("distance").and_then(Json::as_f64).unwrap();
        set(&mut bad, "distance", Json::Num(f64::from_bits(d.to_bits() + 1)));
        assert!(check_classify(&bad, &exp, &m).unwrap_err().contains("distance"));

        // Reordered neighbors.
        let exp5 = expect(&m, &sql, 5);
        let good = answer(&engine, &sql, true);
        check_neighbors(&good, &exp5, &m).expect("engine neighbors pass");
        let mut bad = good.clone();
        if let Some(Json::Arr(list)) = bad.get("neighbors").cloned().as_mut() {
            let last = list.len() - 1;
            list.swap(0, last);
            set(&mut bad, "neighbors", Json::Arr(list.clone()));
        }
        assert!(check_neighbors(&bad, &exp5, &m).unwrap_err().contains("neighbor #0"));

        // A rejected statement must come back as a typed extract_failed.
        let broken = "SELECT FROM WHERE";
        let exp = expect(&m, broken, 1);
        assert!(matches!(exp, Expect::Rejected));
        check_classify(&engine.classify(broken), &exp, &m).expect("typed rejection passes");
        assert!(check_classify(&engine.classify(&sql), &exp, &m).is_err());
    }

    #[test]
    fn oracle_dbscan_matches_the_offline_build() {
        let m = model();
        let labels = dbscan_labels(&m.areas, &m.ranges, m.mode, m.eps, m.min_pts);
        assert_eq!(labels, m.labels);
        assert_eq!(labels.iter().flatten().max().map_or(0, |c| c + 1), m.cluster_count);
    }

    #[test]
    fn ledger_rejects_a_missing_absorption() {
        let abs: Vec<Absorption> = (0..4)
            .map(|i| Absorption { key: format!("k{i}"), tick: 10 + i, payload: format!("p{i}") })
            .collect();
        check_ingest_ledger(6, &abs, 0, 2, 10).expect("balanced");
        // One absorption acknowledged by the client is missing.
        let missing: Vec<Absorption> = abs.iter().cloned().filter(|a| a.key != "k2").collect();
        assert!(check_ingest_ledger(6, &missing, 0, 2, 10).is_err());
        // Balanced count, but a tick was skipped.
        assert!(check_ingest_ledger(5, &missing, 0, 2, 10).unwrap_err().contains("tick"));
        // The WAL lost a record.
        let records: Vec<aa_serve::WalRecord> = abs
            .iter()
            .enumerate()
            .map(|(i, a)| aa_serve::WalRecord { seq: i as u64, tenant: "anon".into(), key: a.key.clone(), payload: a.payload.clone() })
            .collect();
        check_wal(4, &records, 4, &abs).expect("wal matches");
        assert!(check_wal(4, &records[..3], 4, &abs).is_err());
        assert!(check_wal(3, &records, 4, &abs).is_err());
    }
}
