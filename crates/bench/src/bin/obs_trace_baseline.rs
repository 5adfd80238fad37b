//! Records the span-trace baseline consumed by the `plateau obs diff` CI
//! regression gate.
//!
//! Runs the canonical gate workload — a paper-strategy variance scan at
//! `--qubits 2,3 --circuits 8 --layers 10`, the same parameters
//! `scripts/ci.sh` uses for its fresh trace — with the JSONL sink enabled,
//! then aggregates the trace and writes a `trace_baseline` document.
//!
//! The workload's ensemble members are distinct random-rotations
//! circuits, each differentiated once. The op list's fused kernels (CZ
//! layers, the prologue) count `sim.gate.*` rather than opening spans, so
//! they leave no trace structure of their own.
//!
//! Usage: `cargo run -p plateau-bench --bin obs_trace_baseline -- \
//!         [benchmarks/OBS_trace_baseline.json]`
//! (default output path shown). Re-record whenever the gate workload or
//! the span instrumentation changes; CI compares structure exactly and
//! wall time within a generous factor, so a faster/slower machine is fine.

use plateau_core::init::InitStrategy;
use plateau_core::variance::{variance_scan, VarianceConfig};
use plateau_obs::analyze::{Analysis, Trace};

/// The gate workload. Keep in lock-step with the `plateau variance`
/// invocation in `scripts/ci.sh`.
fn gate_config() -> VarianceConfig {
    VarianceConfig {
        qubit_counts: vec![2, 3],
        layers: 10,
        n_circuits: 8,
        ..VarianceConfig::default()
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "benchmarks/OBS_trace_baseline.json".to_string());

    let trace_path =
        std::env::temp_dir().join(format!("plateau_obs_baseline_{}.jsonl", std::process::id()));
    plateau_obs::set_log_level(plateau_obs::Level::Warn);
    plateau_obs::init(None, Some(&trace_path)).expect("open trace sink");
    plateau_obs::emit_manifest(
        "plateau-bench obs_trace_baseline (variance --qubits 2,3 --circuits 8 --layers 10)",
        vec![],
        None,
    );
    variance_scan(&gate_config(), &InitStrategy::PAPER_SET).expect("gate workload");
    plateau_obs::finish_run();

    let trace = Trace::read(&trace_path).expect("re-read recorded trace");
    std::fs::remove_file(&trace_path).ok();
    for w in &trace.warnings {
        eprintln!("warning: {w}");
    }
    let analysis = Analysis::of(&trace);
    std::fs::write(&out_path, analysis.to_baseline_json().to_pretty_string())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!(
        "# wrote {out_path}: {} span names, {} spans, total wall {} ns",
        analysis.stats.len(),
        analysis.span_count,
        analysis.total_wall_ns
    );
    print!("{}", analysis.render_report(0));
}
