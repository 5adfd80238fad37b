//! End-to-end observability acceptance for the `plateau` binary: the
//! `--log` / `--metrics-out` flags, the run manifest, per-cell spans, and
//! analytic gate-count verification — everything parsed back through the
//! in-repo JSON parser. Also checks that a run with no log flag and no
//! `PLATEAU_LOG` keeps stderr completely silent.

use plateau_obs::json::Json;
use std::process::Command;

fn plateau() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_plateau"));
    // Isolate from the invoking environment.
    cmd.env_remove("PLATEAU_LOG")
        .env_remove("PLATEAU_METRICS")
        .env_remove("PLATEAU_METRICS_OUT");
    cmd
}

#[test]
fn variance_run_emits_manifest_spans_and_exact_gate_counts() {
    let out_path = std::env::temp_dir().join(format!("plateau-cli-obs-{}.jsonl", std::process::id()));
    let output = plateau()
        .args([
            "variance",
            "--qubits",
            "2,3",
            "--circuits",
            "8",
            "--layers",
            "10",
            // Pin the paper's differentiation method: the analytic
            // execution counts below assume two-term parameter shift,
            // and this exercises the --engine flag end to end.
            "--engine",
            "parameter-shift",
            // …resumed from shared prefixes, which the local cost takes
            // (the global cost takes the rank-one backward walk).
            "--cost",
            "local",
            "--log",
            "info",
            "--metrics-out",
        ])
        .arg(&out_path)
        .output()
        .expect("spawn plateau");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    // --log info puts the per-cell progress lines on stderr.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("variance cell"), "stderr was: {stderr}");

    let raw = std::fs::read_to_string(&out_path).expect("metrics sink written");
    std::fs::remove_file(&out_path).ok();
    let records: Vec<Json> = raw
        .lines()
        .map(|l| Json::parse(l).expect("every line is valid JSON"))
        .collect();
    let kind = |r: &Json| r.get("type").and_then(|t| t.as_str().map(String::from));

    // Record 1: the run manifest, stamped with command, git, and config.
    let manifest = &records[0];
    assert_eq!(kind(manifest).as_deref(), Some("manifest"));
    let command = manifest.get("command").unwrap().as_str().unwrap();
    assert!(command.starts_with("plateau variance"), "command: {command}");
    assert!(manifest.get("git").unwrap().as_str().is_some());
    assert_eq!(
        manifest
            .get("config")
            .and_then(|c| c.get("circuits"))
            .and_then(|v| v.as_str()),
        Some("8")
    );

    // One span per (qubit, strategy) cell: 6 paper strategies × 2 counts,
    // each with a positive wall time, plus the enclosing scan span.
    let spans: Vec<&Json> = records.iter().filter(|r| kind(r).as_deref() == Some("span")).collect();
    let cells: Vec<&&Json> = spans
        .iter()
        .filter(|s| s.get("name").unwrap().as_str() == Some("variance_cell"))
        .collect();
    assert_eq!(cells.len(), 12);
    for cell in &cells {
        assert!(cell.get("duration_ns").unwrap().as_f64().unwrap() > 0.0);
        let fields = cell.get("fields").unwrap();
        assert!(fields.get("strategy").unwrap().as_str().is_some());
        assert!(fields.get("q").unwrap().as_f64().is_some());
    }
    assert!(spans.iter().any(|s| s.get("name").unwrap().as_str() == Some("variance_scan")));

    // Final record: the metrics snapshot. Gate counters must match the
    // analytic count: each of the 6 strategies × 8 circuits differentiates
    // θ_last (the last layer's last rotation) by two shift evaluations
    // that share the unshifted prefix before it — walked once, with
    // layers·q − 1 rotations and (layers − 1)(q − 1) CZs — and each run
    // the suffix (1 rotation, q − 1 CZs), for q ∈ {2, 3}.
    let metrics = records.last().unwrap();
    assert_eq!(kind(metrics).as_deref(), Some("metrics"));
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    // Per partial: layers·q + 1 rotations and (layers + 1)(q − 1) CZs.
    let partials: f64 = 6.0 * 8.0; // strategies × circuits, per qubit count
    assert_eq!(counter("sim.gate.rotation"), partials * (21.0 + 31.0));
    assert_eq!(counter("sim.gate.fixed"), partials * (11.0 + 22.0));
    // Circuit executions per gradient engine: the scan differentiates the
    // last parameter by two-term parameter shift only.
    let executions = 6.0 * 2.0 * 8.0 * 2.0; // strategies × qubit counts × circuits × evals
    assert_eq!(counter("grad.executions.parameter_shift"), executions);
    assert_eq!(counter("grad.expectation_evals"), executions);
    assert_eq!(counter("core.variance.cells"), 12.0);
    assert!(counter("par.tasks") >= 6.0 * 8.0 * 2.0);
}

#[test]
fn train_emits_compression_counters_by_default() {
    let out_path =
        std::env::temp_dir().join(format!("plateau-cli-fused-{}.jsonl", std::process::id()));
    let output = plateau()
        .args([
            "train",
            "--qubits",
            "6",
            "--layers",
            "2",
            "--iterations",
            "3",
            "--metrics-out",
        ])
        .arg(&out_path)
        .output()
        .expect("spawn plateau");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let raw = std::fs::read_to_string(&out_path).expect("metrics sink written");
    std::fs::remove_file(&out_path).ok();
    let metrics = raw
        .lines()
        .map(|l| Json::parse(l).expect("valid JSON"))
        .filter(|r| r.get("type").and_then(|t| t.as_str().map(String::from)).as_deref() == Some("metrics"))
        .next_back()
        .expect("metrics snapshot present");
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    // With no flag, every run from |0…0⟩ builds its first rotation layer
    // as one prologue and sweeps each layer's five-CZ chain as one CZ
    // layer, so fewer layer sweeps run than CZ gates. (Exact counts are
    // pinned by unit tests; here we assert the counters are wired end to
    // end through the binary.)
    assert!(counter("sim.gate.prologues") > 0.0);
    assert!(counter("sim.gate.cz_layers") > 0.0);
    assert!(counter("sim.gate.cz_layers") < counter("sim.gate.fixed"));
}

/// The manifest's `env` stamps the tracked variables the process was
/// started with: a set one as its value, an unset one as `null`.
#[test]
fn manifest_env_reflects_set_variables() {
    let out_path =
        std::env::temp_dir().join(format!("plateau-cli-manifest-env-{}.jsonl", std::process::id()));
    let output = plateau()
        .env("PLATEAU_THREADS", "1")
        .env_remove("PLATEAU_PERF")
        .args(["diagram", "--qubits", "2", "--metrics-out"])
        .arg(&out_path)
        .output()
        .expect("spawn plateau");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let raw = std::fs::read_to_string(&out_path).expect("metrics sink written");
    std::fs::remove_file(&out_path).ok();
    let manifest = Json::parse(raw.lines().next().expect("manifest line")).expect("valid JSON");
    assert_eq!(manifest.get("type").and_then(Json::as_str), Some("manifest"));
    let env = manifest.get("env").expect("env object");
    assert_eq!(env.get("PLATEAU_THREADS").and_then(Json::as_str), Some("1"));
    assert_eq!(env.get("PLATEAU_PERF"), Some(&Json::Null));
}

#[test]
fn silent_by_default_with_no_log_flag_or_env() {
    let output = plateau()
        .args(["variance", "--qubits", "2,3", "--circuits", "4", "--layers", "3"])
        .output()
        .expect("spawn plateau");
    assert!(output.status.success());
    assert!(
        output.stderr.is_empty(),
        "expected silent stderr, got: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // stdout still carries the data table.
    assert!(String::from_utf8_lossy(&output.stdout).contains("strategy,"));
}

#[test]
fn bad_log_level_is_rejected() {
    let output = plateau()
        .args(["variance", "--qubits", "2,3", "--circuits", "4", "--layers", "3", "--log", "blah"])
        .output()
        .expect("spawn plateau");
    assert!(!output.status.success());
}
