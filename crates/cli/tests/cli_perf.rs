//! End-to-end acceptance for the perf-ledger read side (`plateau obs perf
//! list|trend|regress`) and the stdout/stderr contract of the listing
//! commands: tables and SVG go to stdout / `--svg`, warnings go to stderr
//! only, and `regress` is a real gate (nonzero exit on an injected
//! slowdown, zero on replayed steady history).

use std::path::PathBuf;
use std::process::Command;

fn plateau() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_plateau"));
    cmd.env_remove("PLATEAU_LOG")
        .env_remove("PLATEAU_METRICS")
        .env_remove("PLATEAU_METRICS_OUT")
        .env_remove("PLATEAU_LEDGER")
        .env_remove("PLATEAU_PERF");
    cmd
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plateau_cli_perf_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Appends synthetic perf records (one per median) for `bench`.
fn record(dir: &PathBuf, bench: &str, medians: &[f64]) {
    std::fs::create_dir_all(dir).unwrap();
    let mut text = String::new();
    for (i, m) in medians.iter().enumerate() {
        text.push_str(&format!(
            "{{\"type\":\"perf\",\"ts_unix\":{},\"bench\":\"{bench}\",\"git\":\"deadbee\",\
             \"config\":{{\"qubits\":10}},\"median_ns\":{m},\"p90_ns\":{},\
             \"peak_bytes\":null,\"cores\":1}}\n",
            1000 + i,
            m * 1.1
        ));
    }
    let path = dir.join("perf.jsonl");
    let prior = std::fs::read_to_string(&path).unwrap_or_default();
    std::fs::write(&path, prior + &text).unwrap();
}

#[test]
fn perf_list_trend_and_regress_gate() {
    let dir = temp_dir("gate");
    // Steady history for two benches.
    record(&dir, "training_step/serial", &[100e6, 102e6, 98e6, 101e6]);
    record(&dir, "training_step/fused", &[40e6, 41e6, 39e6, 40e6]);

    // list: one row per record, header names the directory.
    let output = plateau()
        .args(["obs", "perf", "list", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn obs perf list");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("8 record(s), 2 bench(es)"), "{stdout}");
    assert!(stdout.contains("training_step/serial"), "{stdout}");

    // trend --svg: a table on stdout and a well-formed plot on disk.
    let svg_path = dir.join("trend.svg");
    let output = plateau()
        .args(["obs", "perf", "trend", "--dir"])
        .arg(&dir)
        .arg("--svg")
        .arg(&svg_path)
        .output()
        .expect("spawn obs perf trend");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("slope/run"), "{stdout}");
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(
        svg.starts_with("<svg") || svg.starts_with("<?xml"),
        "svg root: {}",
        &svg[..svg.len().min(60)]
    );
    assert!(svg.trim_end().ends_with("</svg>"));
    assert!(svg.contains("training_step/serial"), "legend names the bench");

    // regress on replayed steady history: clean pass, exit 0.
    let output = plateau()
        .args(["obs", "perf", "regress", "--dir"])
        .arg(&dir)
        .args(["--threshold", "0.5"])
        .output()
        .expect("spawn obs perf regress");
    assert!(
        output.status.success(),
        "steady history must pass: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("# no regressions"), "{stdout}");

    // Inject a 10x slowdown into one bench: regress must exit nonzero and
    // name the offender.
    record(&dir, "training_step/serial", &[1000e6]);
    let output = plateau()
        .args(["obs", "perf", "regress", "--dir"])
        .arg(&dir)
        .args(["--threshold", "0.5"])
        .output()
        .expect("spawn obs perf regress");
    assert!(!output.status.success(), "injected slowdown must fail the gate");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("REGRESSION training_step/serial"), "{stdout}");
    assert!(!stdout.contains("REGRESSION training_step/fused"), "{stdout}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("regression"), "{stderr}");

    // The untouched bench still passes under --bench filtering.
    let output = plateau()
        .args(["obs", "perf", "regress", "--dir"])
        .arg(&dir)
        .args(["--threshold", "0.5", "--bench", "training_step/fused"])
        .output()
        .expect("spawn obs perf regress --bench");
    assert!(output.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn listing_stdout_stays_machine_parseable_with_warnings_on_stderr() {
    // A run ledger whose final line is torn (crashed writer): `obs runs
    // list` must keep stdout strictly table-shaped — the warning goes to
    // stderr, so piping stdout into a parser keeps working.
    let dir = temp_dir("torn");
    std::fs::create_dir_all(&dir).unwrap();
    let mut text = String::new();
    for id in ["run-aaa", "run-bbb"] {
        text.push_str(&format!(
            "{{\"type\":\"run\",\"id\":\"{id}\",\"ts_unix\":1000,\"command\":\"train\",\
             \"git\":\"deadbee\",\"seed\":1,\"config\":{{}},\"metrics\":{{}},\"series\":null}}\n"
        ));
    }
    text.push_str("{\"type\":\"run\",\"id\":\"run-ccc\",\"ts_un");
    std::fs::write(dir.join("ledger.jsonl"), text).unwrap();

    let output = plateau()
        .args(["obs", "runs", "list", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn obs runs list");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    // Warning reaches the user, but on stderr only.
    assert!(stderr.contains("truncated final line"), "stderr: {stderr}");
    assert!(!stdout.contains("truncated final line"), "stdout: {stdout}");

    // Every stdout line is one of: comment, column header, or a row
    // starting with a listed run id — nothing interleaved.
    for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
        let ok = line.starts_with('#')
            || line.starts_with("id ")
            || line.starts_with("run-aaa")
            || line.starts_with("run-bbb");
        assert!(ok, "unexpected stdout line: {line:?}");
    }
    assert!(stdout.contains("2 run(s)"), "{stdout}");

    // Same contract for the perf ledger listing.
    record(&dir, "bench/x", &[10e6, 11e6]);
    let mut perf = std::fs::read_to_string(dir.join("perf.jsonl")).unwrap();
    perf.push_str("{\"type\":\"perf\",\"bench\":\"bench/x\",\"median_n");
    std::fs::write(dir.join("perf.jsonl"), perf).unwrap();
    let output = plateau()
        .args(["obs", "perf", "list", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn obs perf list");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("truncated final line"), "stderr: {stderr}");
    assert!(!stdout.contains("truncated final line"), "stdout: {stdout}");
    assert!(stdout.contains("2 record(s)"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
