//! The experiment ledger: an append-only registry of runs.
//!
//! [`record_run`] appends one `{"type":"run",...}` record to
//! `<dir>/ledger.jsonl` describing what ran — command, config, seed,
//! tracked `PLATEAU_*` environment, git revision, final metrics — plus a
//! pointer to the run's [`TimeSeries`](crate::timeseries::TimeSeries)
//! JSONL under `<dir>/runs/<id>.jsonl`. Records only ever append, so
//! `plateau obs runs list|show|compare` can race two initializers
//! recorded days apart.
//!
//! The experiments themselves (training, VQE, classification, the variance
//! scan) write nothing: each returns its [`RunRecord`] fields and series,
//! and the `plateau` CLI, which resolves `--ledger` or `PLATEAU_LEDGER`
//! once, writes the one record per command into the directory it passes.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::json::Json;
use crate::store::{self, now_millis, Record, Store};
use crate::timeseries::TimeSeries;

/// Per-process sequence number, disambiguating runs within one millisecond.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Everything a run contributes to its ledger record. Each experiment
/// (training, VQE solver, classifier, variance scan) returns the fields it
/// knows; [`record_run`] adds the id, timestamp, git revision, and tracked
/// environment itself.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    command: String,
    config: Vec<(String, Json)>,
    seed: Option<u64>,
    metrics: Vec<(String, f64)>,
}

impl RunRecord {
    /// A record for the named experiment kind (e.g. `"train"`, `"vqe"`).
    pub fn new(command: &str) -> RunRecord {
        RunRecord {
            command: command.to_string(),
            config: Vec::new(),
            seed: None,
            metrics: Vec::new(),
        }
    }

    /// Adds one config pair (builder style).
    pub fn config(mut self, key: &str, value: Json) -> RunRecord {
        self.config.push((key.to_string(), value));
        self
    }

    /// Stamps the RNG seed.
    pub fn seed(mut self, seed: u64) -> RunRecord {
        self.seed = Some(seed);
        self
    }

    /// Adds one final metric (builder style). Non-finite values are kept
    /// and serialize as `null`.
    pub fn metric(mut self, name: &str, value: f64) -> RunRecord {
        self.metrics.push((name.to_string(), value));
        self
    }
}

fn next_run_id() -> String {
    // Zero-padded millisecond timestamp first: ids sort chronologically;
    // pid + per-process sequence keep concurrent writers distinct.
    format!(
        "{:013}-{:05}-{:03}",
        now_millis(),
        std::process::id() % 100_000,
        SEQ.fetch_add(1, Relaxed) % 1000
    )
}

/// Appends one run record to `<dir>/ledger.jsonl`, writing the time
/// series (when given) to `<dir>/runs/<id>.jsonl` first so the ledger
/// record never points at a missing file. Returns the run id.
pub fn record_run(dir: &Path, record: &RunRecord, series: Option<&TimeSeries>) -> io::Result<String> {
    let id = next_run_id();

    let series_rel = match series {
        Some(s) => {
            let rel = format!("runs/{id}.jsonl");
            s.write_jsonl(&dir.join(&rel))?;
            Json::str(&rel)
        }
        None => Json::Null,
    };

    let metrics = record.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
    let doc = Record::new("run")
        .field("id", Json::str(&id))
        .ts_unix(1000)
        .field("command", Json::str(&record.command))
        .git()
        .seed(record.seed)
        .config(record.config.clone())
        .env()
        .field("metrics", Json::Obj(metrics.collect()))
        .field("series", series_rel)
        .build();
    store::append(dir, Store::Ledger.file(), &doc)?;
    crate::debug!("ledger: recorded run {id} ({})", record.command);
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "plateau_ledger_{tag}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    /// The directory a `--ledger` value or `PLATEAU_LEDGER` names.
    #[test]
    fn env_switch_and_explicit_dir_parse() {
        assert_eq!(store::parse_dir("/tmp/somewhere"), Some(PathBuf::from("/tmp/somewhere")));
        assert_eq!(store::parse_dir("off"), None);
    }

    #[test]
    fn record_run_appends_and_points_at_series() {
        let dir = temp_dir("append");

        let mut series = TimeSeries::new(vec!["loss"], 8);
        series.push(0.0, &[1.0]);
        series.push(1.0, &[0.5]);
        let rec = RunRecord::new("train")
            .config("qubits", Json::from(4usize))
            .seed(7)
            .metric("final_loss", 0.5);
        let id1 = record_run(&dir, &rec, Some(&series)).unwrap();
        let id2 = record_run(&dir, &RunRecord::new("vqe"), None).unwrap();
        assert_ne!(id1, id2);

        let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "append-only: one line per run");
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("run"));
        assert_eq!(first.get("id").unwrap().as_str(), Some(id1.as_str()));
        assert_eq!(first.get("command").unwrap().as_str(), Some("train"));
        assert_eq!(first.get("seed").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            first.get("config").unwrap().get("qubits").unwrap().as_f64(),
            Some(4.0)
        );
        assert_eq!(
            first.get("metrics").unwrap().get("final_loss").unwrap().as_f64(),
            Some(0.5)
        );
        // The env capture includes the tracked variables.
        for key in ["PLATEAU_THREADS", "PLATEAU_PERF"] {
            assert!(first.get("env").unwrap().get(key).is_some(), "env missing {key}");
        }

        // The series pointer resolves and parses back.
        let rel = first.get("series").unwrap().as_str().unwrap().to_string();
        let back = TimeSeries::read_jsonl(&dir.join(&rel)).unwrap();
        assert_eq!(back.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("series"), Some(&Json::Null));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_ids_sort_chronologically_within_a_process() {
        let a = next_run_id();
        let b = next_run_id();
        assert!(b > a, "{b} !> {a}");
    }
}
