//! End-to-end acceptance for span-attributed allocation profiling: with a
//! [`CountingAllocator`] installed in this test binary, a span wrapped
//! around one forward pass of the paper's 10-qubit / 5-layer training
//! ansatz must be charged *exactly* the bytes that pass allocates — and
//! `obs flame --by alloc` (both the library call and the `plateau` CLI
//! subprocess) must render that exact count in the top frame's tooltip.

use plateau_core::ansatz::training_ansatz;
use plateau_obs::alloc::{set_profiling, thread_allocated, CountingAllocator};
use plateau_obs::analyze::{Analysis, RankBy, Trace};
use plateau_obs::flame::flamegraph_svg_by;
use std::path::PathBuf;
use std::process::Command;

/// The cli *library* path stays safe; this integration test binary is
/// where the allocator seam gets installed.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("plateau_alloc_profile_{}_{name}", std::process::id()))
}

fn plateau() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_plateau"));
    cmd.env_remove("PLATEAU_LOG")
        .env_remove("PLATEAU_METRICS")
        .env_remove("PLATEAU_METRICS_OUT")
        .env_remove("PLATEAU_LEDGER");
    cmd
}

/// One test function: the span attribution, flame rendering, and CLI
/// checks share global profiler/tracer state, so they must run in one
/// deterministic sequence rather than as parallel `#[test]`s.
#[test]
fn span_alloc_attribution_is_exact_and_flame_by_alloc_renders_it() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_log_level(plateau_obs::Level::Off);
    plateau_obs::set_metrics_enabled(false);

    let trace_path = temp_path("trace.jsonl");
    plateau_obs::span::set_jsonl_path(&trace_path).expect("open trace sink");
    assert!(
        set_profiling(true),
        "counting allocator is installed in this binary; profiling must engage"
    );

    // The paper's training workload: 10 qubits, 5 layers.
    let ansatz = training_ansatz(10, 5).expect("training ansatz");
    let params: Vec<f64> = (0..ansatz.circuit.n_params())
        .map(|i| 0.1 + 0.01 * i as f64)
        .collect();

    // Warm every lazy path (knob caches, span-stack capacity, sink
    // buffer) so first-use allocations are not charged to the measured
    // window below.
    ansatz.circuit.run(&params).expect("warm-up run");
    {
        let _s = plateau_obs::span!("warmup.run");
        ansatz.circuit.run(&params).expect("warm-up span run");
    }

    // Reference measurement: the exact thread-local (bytes, count) cost
    // of one bare forward pass. Measured twice — the serial, unfused
    // simulator must allocate deterministically or exact attribution is
    // meaningless.
    let delta = |f: &dyn Fn()| {
        let (b0, c0) = thread_allocated();
        f();
        let (b1, c1) = thread_allocated();
        (b1 - b0, c1 - c0)
    };
    let run = || {
        ansatz.circuit.run(&params).expect("run");
    };
    let (bytes, count) = delta(&run);
    assert_eq!(
        (bytes, count),
        delta(&run),
        "serial unfused forward pass must allocate deterministically"
    );
    assert!(bytes > 0, "a 10q forward pass allocates its state vector");

    // The same pass wrapped in a span: attribution must charge the span
    // those exact bytes (snapshots close before the record is built, so
    // the span's own JSONL serialization is not counted). The warm-up
    // already set the process high-water mark, so drop it back to the
    // live footprint to give the span a peak of its own to claim.
    plateau_obs::alloc::reset_peak();
    {
        let _s = plateau_obs::span!("ansatz.run");
        run();
    }
    plateau_obs::span::close_jsonl();
    set_profiling(false);

    let trace = Trace::read(&trace_path).expect("trace parses");
    let span = trace
        .spans
        .iter()
        .find(|s| s.name == "ansatz.run")
        .expect("measured span in trace");
    assert_eq!(span.alloc_bytes, bytes, "span must carry the exact byte count");
    assert_eq!(span.alloc_count, count, "span must carry the exact allocation count");
    assert!(span.peak_bytes > 0, "the state vector raises the high-water mark");

    // The analysis ranks by memory and reports the byte columns.
    let mut analysis = Analysis::of(&trace);
    assert!(analysis.has_alloc_data());
    analysis.rank_by(RankBy::Alloc);
    let report = analysis.render_report(10);
    assert!(report.contains("ansatz.run"), "report lists the span:\n{report}");
    assert!(report.contains("self-alloc"), "report shows memory columns:\n{report}");

    // Library-level flame: the leaf span ansatz.run owns 100% of its own
    // bytes, so its tooltip carries the exact measured count.
    let svg = flamegraph_svg_by(&trace, "alloc test", RankBy::Alloc);
    let tooltip = format!("ansatz.run — {bytes} B");
    assert!(
        svg.contains(&tooltip),
        "flame --by alloc must carry the exact byte count {tooltip:?}"
    );

    // CLI-level flame over the same trace: well-formed SVG, same exact
    // top-frame byte count.
    let svg_path = temp_path("flame.svg");
    let output = plateau()
        .args(["obs", "flame", "--trace"])
        .arg(&trace_path)
        .args(["--by", "alloc", "--out"])
        .arg(&svg_path)
        .output()
        .expect("spawn plateau obs flame");
    assert!(
        output.status.success(),
        "obs flame --by alloc failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.starts_with("<svg") || svg.starts_with("<?xml"), "well-formed SVG root");
    assert!(svg.trim_end().ends_with("</svg>"), "well-formed SVG close");
    assert!(
        svg.contains(&tooltip),
        "CLI flame top frame must match the exact-count measurement {tooltip:?}"
    );

    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&svg_path).ok();
}
