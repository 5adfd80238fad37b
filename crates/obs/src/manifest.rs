//! Run manifests: stamp every CLI/bench invocation with what ran, from
//! which source tree, with which config and seed — then close the run
//! with a final metrics snapshot so each JSONL file is self-contained
//! and runs are comparable after the fact.

use crate::json::Json;
use crate::span::{close_jsonl, jsonl_active, write_jsonl_record};
use crate::store::Record;
use crate::{level_enabled, Level};

/// Builds a `{"type":"manifest",...}` record for `command` (e.g.
/// `"plateau variance"`) with arbitrary config pairs and an optional RNG
/// seed. Exposed separately from [`emit_manifest`] for tests.
pub fn build_manifest(
    command: &str,
    config: Vec<(String, Json)>,
    seed: Option<u64>,
) -> Json {
    Record::new("manifest")
        .field("command", Json::str(command))
        .git()
        .ts_unix(1)
        .seed(seed)
        .config(config)
        .env()
        .cores()
        .build()
}

/// Emits the run manifest: appended to the JSONL sink when one is open,
/// logged to stderr at `debug`. Does nothing (and spawns no `git`
/// subprocess) when neither subscriber is listening.
pub fn emit_manifest(command: &str, config: Vec<(String, Json)>, seed: Option<u64>) {
    let stderr = level_enabled(Level::Debug);
    if !stderr && !jsonl_active() {
        return;
    }
    let manifest = build_manifest(command, config, seed);
    if stderr {
        crate::debug!("manifest: {manifest}");
    }
    write_jsonl_record(&manifest);
}

/// Appends the current metrics snapshot as a `{"type":"metrics",...}`
/// record, if a JSONL sink is open.
pub fn emit_metrics_snapshot() {
    if !jsonl_active() {
        return;
    }
    write_jsonl_record(&crate::metrics::snapshot().to_json());
}

/// Ends the run: writes the final metrics snapshot and flushes/closes the
/// JSONL sink. Safe to call unconditionally (no-op without a sink).
pub fn finish_run() {
    emit_metrics_snapshot();
    close_jsonl();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_log_level, set_metrics_enabled, test_lock};

    #[test]
    fn manifest_shape_and_parseability() {
        let m = build_manifest(
            "plateau variance",
            vec![
                ("qubits".to_string(), Json::str("2,4")),
                ("circuits".to_string(), Json::from(20usize)),
            ],
            Some(42),
        );
        let parsed = Json::parse(&m.to_string()).expect("manifest is valid JSON");
        assert_eq!(parsed.get("type").unwrap().as_str(), Some("manifest"));
        assert_eq!(parsed.get("command").unwrap().as_str(), Some("plateau variance"));
        assert_eq!(parsed.get("seed").unwrap().as_f64(), Some(42.0));
        assert_eq!(
            parsed.get("config").unwrap().get("circuits").unwrap().as_f64(),
            Some(20.0)
        );
        let git = parsed.get("git").unwrap().as_str().unwrap();
        assert!(!git.is_empty());
        assert!(parsed.get("ts_unix").unwrap().as_f64().unwrap() > 0.0);
        // Environment capture: every tracked variable has a key (string or
        // null), and the detected core count is a positive number.
        let env = parsed.get("env").expect("env object");
        for key in [
            "PLATEAU_THREADS",
            "PLATEAU_LOG",
            "PLATEAU_METRICS_OUT",
            "PLATEAU_LEDGER",
            "PLATEAU_PERF",
        ] {
            assert!(env.get(key).is_some(), "manifest env missing {key}");
        }
        assert!(parsed.get("cores").unwrap().as_f64().unwrap_or(0.0) >= 1.0);
    }

    #[test]
    fn finish_run_writes_snapshot_then_closes() {
        let _guard = test_lock();
        set_log_level(crate::Level::Error);
        set_metrics_enabled(true);
        crate::metrics::reset();
        let path = std::env::temp_dir()
            .join(format!("plateau_obs_manifest_{}.jsonl", std::process::id()));
        crate::span::set_jsonl_path(&path).expect("create sink");
        emit_manifest(
            "test finish",
            vec![("k".to_string(), Json::str("v"))],
            None,
        );
        crate::metrics::counter("test.manifest.counter").add(5);
        finish_run();
        assert!(!jsonl_active());
        let text = std::fs::read_to_string(&path).expect("read sink");
        let _ = std::fs::remove_file(&path);
        let records: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("valid JSON line"))
            .collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].get("type").unwrap().as_str(), Some("manifest"));
        assert_eq!(records[0].get("seed"), Some(&Json::Null));
        assert_eq!(records[1].get("type").unwrap().as_str(), Some("metrics"));
        assert_eq!(
            records[1]
                .get("counters")
                .unwrap()
                .get("test.manifest.counter")
                .unwrap()
                .as_f64(),
            Some(5.0)
        );
        crate::metrics::reset();
        set_metrics_enabled(false);
    }
}
