//! The experiment ledger: an append-only registry of runs.
//!
//! Every instrumented experiment (training, VQE, classification, the
//! variance scan) appends exactly one `{"type":"run",...}` record to
//! `<dir>/ledger.jsonl` describing what ran — command, config, seed,
//! tracked `PLATEAU_*` environment, git revision, final metrics — plus a
//! pointer to the run's [`TimeSeries`](crate::timeseries::TimeSeries)
//! JSONL under `<dir>/runs/<id>.jsonl`. The ledger file is only ever
//! opened in append mode (never truncated — unlike the span sink), so
//! records accumulate across processes and `plateau obs runs
//! list|show|compare` can race two initializers recorded days apart.
//!
//! Enablement mirrors the rest of the stack: the `PLATEAU_LEDGER`
//! environment variable (`1`/`true`/`on` → the default `target/obs`
//! directory, any other non-empty value → that directory, unset/`0` →
//! disabled) read lazily on first use, with the programmatic
//! [`set_ledger_dir`] always winning. Disabled is the default, and the
//! disabled path is one mutex-guarded `Option` check per *run* (never
//! per iteration), so nothing in a hot loop ever sees the ledger.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::manifest::{git_describe, TRACKED_ENV};
use crate::timeseries::TimeSeries;

/// `None` = not yet initialized from the environment;
/// `Some(None)` = disabled; `Some(Some(dir))` = enabled.
static DIR: Mutex<Option<Option<PathBuf>>> = Mutex::new(None);

/// Per-process sequence number, disambiguating runs within one millisecond.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// The directory ledger records default to when `PLATEAU_LEDGER` is a
/// bare "on" switch.
pub const DEFAULT_DIR: &str = "target/obs";

fn dir_from_env() -> Option<PathBuf> {
    let raw = std::env::var("PLATEAU_LEDGER").ok()?;
    match raw.trim() {
        "" | "0" | "false" | "off" | "no" => None,
        "1" | "true" | "on" | "yes" => Some(PathBuf::from(DEFAULT_DIR)),
        dir => Some(PathBuf::from(dir)),
    }
}

/// The directory the ledger writes to, or `None` when disabled.
pub fn ledger_dir() -> Option<PathBuf> {
    let mut state = DIR.lock().unwrap_or_else(|p| p.into_inner());
    state.get_or_insert_with(dir_from_env).clone()
}

/// Enables the ledger at `dir` (or disables it with `None`). Wins over
/// `PLATEAU_LEDGER`.
pub fn set_ledger_dir(dir: Option<&Path>) {
    let mut state = DIR.lock().unwrap_or_else(|p| p.into_inner());
    *state = Some(dir.map(PathBuf::from));
}

/// Forgets any programmatic override so the next query re-reads
/// `PLATEAU_LEDGER` (test hook).
pub fn reset_ledger() {
    let mut state = DIR.lock().unwrap_or_else(|p| p.into_inner());
    *state = None;
}

/// Whether [`record_run`] would write anything.
pub fn ledger_enabled() -> bool {
    ledger_dir().is_some()
}

/// Everything a run contributes to its ledger record. Built by the
/// experiment drivers (training loop, VQE solver, classifier, variance
/// scan); the ledger adds the id, timestamp, git revision, and tracked
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

    /// The experiment kind this record describes.
    pub fn command_name(&self) -> &str {
        &self.command
    }
}

fn now_millis() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
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

fn env_json() -> Json {
    Json::Obj(
        TRACKED_ENV
            .iter()
            .map(|&k| {
                let v = std::env::var(k).map_or(Json::Null, Json::str);
                (k.to_string(), v)
            })
            .collect(),
    )
}

/// Appends one run record to `<dir>/ledger.jsonl`, writing the time
/// series (when given) to `<dir>/runs/<id>.jsonl` first so the ledger
/// record never points at a missing file. Returns the run id, or
/// `Ok(None)` when the ledger is disabled.
pub fn record_run(record: &RunRecord, series: Option<&TimeSeries>) -> io::Result<Option<String>> {
    let Some(dir) = ledger_dir() else {
        return Ok(None);
    };
    std::fs::create_dir_all(&dir)?;
    let id = next_run_id();

    let series_rel = match series {
        Some(s) => {
            let rel = format!("runs/{id}.jsonl");
            s.write_jsonl(&dir.join(&rel))?;
            Json::str(&rel)
        }
        None => Json::Null,
    };

    let ts = now_millis() as f64 / 1000.0;
    let doc = Json::Obj(vec![
        ("type".to_string(), Json::str("run")),
        ("id".to_string(), Json::str(&id)),
        ("ts_unix".to_string(), Json::Num(ts)),
        ("command".to_string(), Json::str(&record.command)),
        ("git".to_string(), Json::str(git_describe())),
        (
            "seed".to_string(),
            record.seed.map_or(Json::Null, |s| Json::Num(s as f64)),
        ),
        ("config".to_string(), Json::Obj(record.config.clone())),
        ("env".to_string(), env_json()),
        (
            "metrics".to_string(),
            Json::Obj(
                record
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        ("series".to_string(), series_rel),
    ]);

    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(dir.join("ledger.jsonl"))?;
    // One write call per record keeps concurrent appends line-atomic on
    // POSIX (O_APPEND).
    f.write_all(format!("{doc}\n").as_bytes())?;
    f.flush()?;
    crate::debug!("ledger: recorded run {id} ({})", record.command);
    Ok(Some(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "plateau_ledger_{tag}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn disabled_by_default_and_records_nothing() {
        let _guard = test_lock();
        std::env::remove_var("PLATEAU_LEDGER");
        reset_ledger();
        assert!(!ledger_enabled());
        let id = record_run(&RunRecord::new("train"), None).unwrap();
        assert_eq!(id, None);
    }

    #[test]
    fn env_switch_and_explicit_dir_parse() {
        let _guard = test_lock();
        std::env::set_var("PLATEAU_LEDGER", "1");
        reset_ledger();
        assert_eq!(ledger_dir(), Some(PathBuf::from(DEFAULT_DIR)));
        std::env::set_var("PLATEAU_LEDGER", "/tmp/somewhere");
        reset_ledger();
        assert_eq!(ledger_dir(), Some(PathBuf::from("/tmp/somewhere")));
        std::env::set_var("PLATEAU_LEDGER", "off");
        reset_ledger();
        assert_eq!(ledger_dir(), None);
        std::env::remove_var("PLATEAU_LEDGER");
        reset_ledger();
    }

    #[test]
    fn record_run_appends_and_points_at_series() {
        let _guard = test_lock();
        let dir = temp_dir("append");
        set_ledger_dir(Some(&dir));

        let mut series = TimeSeries::new(vec!["loss"], 8);
        series.push(0.0, &[1.0]);
        series.push(1.0, &[0.5]);
        let rec = RunRecord::new("train")
            .config("qubits", Json::from(4usize))
            .seed(7)
            .metric("final_loss", 0.5);
        let id1 = record_run(&rec, Some(&series)).unwrap().unwrap();
        let id2 = record_run(&RunRecord::new("vqe"), None).unwrap().unwrap();
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
        assert!(first.get("env").unwrap().get("PLATEAU_THREADS").is_some());

        // The series pointer resolves and parses back.
        let rel = first.get("series").unwrap().as_str().unwrap().to_string();
        let back = TimeSeries::read_jsonl(&dir.join(&rel)).unwrap();
        assert_eq!(back.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("series"), Some(&Json::Null));

        set_ledger_dir(None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_ids_sort_chronologically_within_a_process() {
        let a = next_run_id();
        let b = next_run_id();
        assert!(b > a, "{b} !> {a}");
    }
}
