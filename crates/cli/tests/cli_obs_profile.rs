//! End-to-end acceptance for the trace profiler: a real `--metrics-out`
//! run produces a trace with span/parent ids that `plateau obs report`
//! summarizes with a self-time ranking and percentiles, `obs flame`
//! renders as a standalone SVG, and `obs diff` passes on identical traces
//! but exits nonzero on an injected slowdown beyond the threshold.

use plateau_obs::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn plateau() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_plateau"));
    cmd.env_remove("PLATEAU_LOG")
        .env_remove("PLATEAU_METRICS")
        .env_remove("PLATEAU_METRICS_OUT");
    cmd
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("plateau-cli-profile-{}-{tag}", std::process::id()))
}

/// Records the shared trace once per test that needs it.
fn record_trace(tag: &str) -> PathBuf {
    let path = tmp(&format!("{tag}.jsonl"));
    let output = plateau()
        .args(["variance", "--qubits", "2,3", "--circuits", "4", "--layers", "5", "--metrics-out"])
        .arg(&path)
        .output()
        .expect("spawn plateau variance");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    path
}

#[test]
fn report_ranks_spans_by_self_time_with_percentiles() {
    let trace = record_trace("report");

    // The raw trace carries monotonic ids and parent links.
    let raw = std::fs::read_to_string(&trace).unwrap();
    let spans: Vec<Json> = raw
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .filter(|r| r.get("type").and_then(Json::as_str) == Some("span"))
        .collect();
    assert!(!spans.is_empty());
    for s in &spans {
        assert!(s.get("id").unwrap().as_f64().unwrap() >= 1.0);
        assert!(s.get("parent").is_some(), "span records carry a parent field");
    }

    let output = plateau()
        .args(["obs", "report", "--top", "5", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn obs report");
    std::fs::remove_file(&trace).ok();
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    for needle in ["variance_cell", "variance_scan", "self%", "p50", "p90", "p99", "total wall"] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    // Cells dominate self time, so they rank above the scan wrapper.
    let cell_at = stdout.find("variance_cell").unwrap();
    let scan_at = stdout.find("variance_scan").unwrap();
    assert!(cell_at < scan_at, "expected variance_cell ranked first:\n{stdout}");
}

#[test]
fn flame_writes_a_standalone_svg_and_collapsed_stacks() {
    let trace = record_trace("flame");
    let svg_path = tmp("flame.svg");
    let collapsed_path = tmp("flame.collapsed");
    let output = plateau()
        .args(["obs", "flame", "--trace"])
        .arg(&trace)
        .arg("--out")
        .arg(&svg_path)
        .arg("--collapsed")
        .arg(&collapsed_path)
        .output()
        .expect("spawn obs flame");
    std::fs::remove_file(&trace).ok();
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let svg = std::fs::read_to_string(&svg_path).unwrap();
    std::fs::remove_file(&svg_path).ok();
    assert!(svg.starts_with("<?xml version=\"1.0\""));
    assert!(svg.trim_end().ends_with("</svg>"));
    assert_eq!(svg.matches("<svg").count(), 1);
    assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    assert!(svg.contains("variance_scan"));
    assert!(!svg.contains("<script"), "SVG must not need JavaScript");

    let collapsed = std::fs::read_to_string(&collapsed_path).unwrap();
    std::fs::remove_file(&collapsed_path).ok();
    assert!(collapsed.contains("variance_scan;variance_cell "), "collapsed: {collapsed}");
}

#[test]
fn diff_passes_on_identical_traces_and_fails_on_injected_slowdown() {
    let trace = record_trace("diff");

    // Identical sides: exit 0, PASS verdict.
    let same = plateau()
        .args(["obs", "diff"])
        .arg(&trace)
        .arg(&trace)
        .args(["--threshold", "0.2"])
        .output()
        .expect("spawn obs diff");
    assert!(same.status.success(), "stderr: {}", String::from_utf8_lossy(&same.stderr));
    assert!(String::from_utf8_lossy(&same.stdout).contains("# PASS"));

    // Inject a 10× slowdown into every variance_cell span and re-diff:
    // the gate must fail with a nonzero exit.
    let slow_path = tmp("diff-slow.jsonl");
    let slowed: String = std::fs::read_to_string(&trace)
        .unwrap()
        .lines()
        .map(|line| {
            let rec = Json::parse(line).unwrap();
            if rec.get("type").and_then(Json::as_str) == Some("span")
                && rec.get("name").and_then(Json::as_str) == Some("variance_cell")
            {
                let ns = rec.get("duration_ns").unwrap().as_f64().unwrap();
                let Json::Obj(fields) = rec else { unreachable!() };
                let patched: Vec<(String, Json)> = fields
                    .into_iter()
                    .map(|(k, v)| {
                        if k == "duration_ns" {
                            (k, Json::Num(ns * 10.0))
                        } else {
                            (k, v)
                        }
                    })
                    .collect();
                format!("{}\n", Json::Obj(patched))
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    std::fs::write(&slow_path, slowed).unwrap();

    let slow = plateau()
        .args(["obs", "diff"])
        .arg(&trace)
        .arg(&slow_path)
        .args(["--threshold", "0.2"])
        .output()
        .expect("spawn obs diff (slow)");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&slow_path).ok();
    assert!(!slow.status.success(), "a 10x slowdown must fail the 20% gate");
    let stdout = String::from_utf8_lossy(&slow.stdout);
    assert!(stdout.contains("REGRESSION"), "stdout: {stdout}");
    assert!(stdout.contains("# FAIL"), "stdout: {stdout}");
}

#[test]
fn obs_usage_errors_are_actionable() {
    // Unknown subcommand.
    let output = plateau().args(["obs", "nonsense"]).output().unwrap();
    assert!(!output.status.success());
    // diff needs exactly two positionals.
    let output = plateau().args(["obs", "diff", "only-one.jsonl"]).output().unwrap();
    assert!(!output.status.success());
    // A non-obs command still rejects stray positionals.
    let output = plateau().args(["variance", "oops"]).output().unwrap();
    assert!(!output.status.success());
    // Missing trace file is an error, not a panic.
    let output = plateau()
        .args(["obs", "report", "--trace", "/nonexistent/trace.jsonl"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot read trace"), "stderr: {stderr}");
}
