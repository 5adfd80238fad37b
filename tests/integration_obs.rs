//! Cross-crate observability integration: exact counter totals through the
//! thread pool, analytic gate-count verification around a variance scan,
//! a JSONL round-trip through the in-repo JSON parser, and the trace
//! profiler pipeline (record → reconstruct → aggregate → diff) against
//! both a live run and the committed golden fixture.
//!
//! The obs registry is process-global, so every test serializes on
//! [`plateau_obs::test_lock`] and works with snapshot *deltas*.

use plateau_core::init::InitStrategy;
use plateau_core::variance::{variance_scan, GradEngineKind, VarianceConfig};
use plateau_obs::analyze::{Analysis, Trace, TraceError};
use plateau_obs::json::Json;

/// Path of the committed golden trace (relative to this crate's manifest,
/// which lives in `crates/core`).
const GOLDEN_TRACE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/golden_trace.jsonl");

fn counter_value(name: &str) -> u64 {
    plateau_obs::snapshot().counter(name).unwrap_or(0)
}

#[test]
fn par_task_counter_is_exact_across_thread_counts() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    for threads in ["1", "4", "8"] {
        std::env::set_var("PLATEAU_THREADS", threads);
        let before = counter_value("par.tasks");
        let batches_before = counter_value("par.batches");
        let out = plateau_par::par_map_indexed(97, |i| i * i);
        assert_eq!(out.len(), 97);
        // Every item is claimed and executed exactly once, regardless of
        // how many workers raced for the queue.
        assert_eq!(counter_value("par.tasks") - before, 97, "threads={threads}");
        assert_eq!(counter_value("par.batches") - batches_before, 1);
        let workers = plateau_obs::snapshot().gauge("par.workers").unwrap();
        assert!(workers >= 1.0 && workers <= threads.parse::<f64>().unwrap());
        // The timing histogram saw the same 97 tasks.
        let hist = plateau_obs::snapshot();
        assert!(hist.histogram("par.task_ns").unwrap().count >= 97);
    }
    std::env::remove_var("PLATEAU_THREADS");
    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn variance_scan_gate_counters_match_analytic_counts() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    plateau_obs::metrics::reset();
    // The analytic per-gate counts below assume gate-by-gate execution;
    // pin fusion off so the suite also passes under PLATEAU_SIM_FUSE=1.
    plateau_sim::set_fuse(false);

    let qubits = [2usize, 3];
    let (circuits, layers) = (4usize, 5usize);
    let cfg = VarianceConfig {
        qubit_counts: qubits.to_vec(),
        layers,
        n_circuits: circuits,
        // The analytic counts below assume the parameter-shift rule; the
        // scan's default engine is Adjoint.
        engine: GradEngineKind::ParameterShift,
        ..VarianceConfig::default()
    };
    variance_scan(&cfg, &[InitStrategy::Random]).unwrap();

    let snap = plateau_obs::snapshot();
    // Each gradient sample is a two-term parameter shift: 2 circuit
    // executions. The variance ansatz applies one rotation per qubit per
    // layer and a CZ chain of (q − 1) fixed gates per layer, and θ_last
    // owns the last layer's last rotation. Both shifted executions share
    // the unshifted prefix before that rotation — walked once: L·q − 1
    // rotations and (L − 1)(q − 1) CZs — and each runs only the suffix:
    // the shifted rotation and the last CZ chain.
    let evals: u64 = 2 * circuits as u64 * qubits.len() as u64;
    let rot: u64 = qubits.iter().map(|&q| (circuits * (layers * q + 1)) as u64).sum();
    let fixed: u64 = qubits.iter().map(|&q| (circuits * (layers + 1) * (q - 1)) as u64).sum();
    assert_eq!(snap.counter("grad.expectation_evals"), Some(evals));
    assert_eq!(snap.counter("grad.executions.parameter_shift"), Some(evals));
    assert_eq!(snap.counter("sim.gate.rotation"), Some(rot));
    assert_eq!(snap.counter("sim.gate.fixed"), Some(fixed));
    assert_eq!(
        snap.counter("core.variance.cells"),
        Some(qubits.len() as u64)
    );
    // Each two-term partial routes its pair of shifted evaluations
    // through one batched-executor scratch: two allocations per *partial*
    // (the prefix state and the work state), one in-place reset (the
    // prefix walk's start); each execution copies the prefix instead.
    assert_eq!(snap.counter("sim.state.allocations"), Some(evals));
    assert_eq!(snap.counter("sim.state.reuses"), Some(evals / 2));

    plateau_sim::reset_fuse();
    plateau_obs::metrics::reset();
    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn sim_parallel_counters_are_exact() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    plateau_obs::metrics::reset();
    std::env::set_var("PLATEAU_THREADS", "2");
    plateau_sim::set_par_threshold(0);

    // On a 6-qubit state every kernel family has plenty of whole blocks,
    // so each parallel dispatch splits into exactly `t` contiguous chunks
    // where `t = worker_count` (1 on a single-core machine, else 2 under
    // the PLATEAU_THREADS=2 cap above).
    let t = plateau_par::worker_count(usize::MAX) as u64;
    use plateau_sim::{RotationGate, State, TwoQubitRotationGate};
    let mut s = State::zero(6);
    s.apply_rotation(RotationGate::Rx, 0, 0.3).unwrap();
    s.apply_cz(0, 1).unwrap();
    s.apply_controlled_rotation(RotationGate::Rz, 1, 0, 0.7).unwrap();
    s.apply_two_qubit_rotation(TwoQubitRotationGate::Rxx, 1, 0, 0.2).unwrap();

    let snap = plateau_obs::snapshot();
    assert_eq!(snap.counter("sim.par.kernels"), Some(4));
    assert_eq!(snap.counter("sim.par.chunks"), Some(4 * t));

    plateau_sim::reset_par_threshold();
    std::env::remove_var("PLATEAU_THREADS");
    plateau_obs::metrics::reset();
    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn adjoint_executes_constant_circuits_per_gradient() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);

    use plateau_core::ansatz::training_ansatz;
    use plateau_core::cost::CostKind;
    use plateau_grad::{Adjoint, GradientEngine, ParameterShift};

    let a = training_ansatz(3, 2).unwrap();
    let obs = CostKind::Global.observable(3);
    let params = vec![0.1; a.circuit.n_params()];

    let adj_before = counter_value("grad.executions.adjoint");
    Adjoint.gradient(&a.circuit, &params, &obs).unwrap();
    // Forward run + backward sweep: 2, independent of the 12 parameters.
    assert_eq!(counter_value("grad.executions.adjoint") - adj_before, 2);

    let shift_before = counter_value("grad.executions.parameter_shift");
    ParameterShift.gradient(&a.circuit, &params, &obs).unwrap();
    // The shift rule pays 2 executions per parameter.
    assert_eq!(
        counter_value("grad.executions.parameter_shift") - shift_before,
        2 * a.circuit.n_params() as u64
    );

    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn parameter_shift_gradient_runs_each_suffix_once_from_a_shared_prefix() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    // The counts below assume gate-by-gate execution; pin fusion off so
    // the suite also passes under PLATEAU_SIM_FUSE=1.
    plateau_sim::set_fuse(false);

    use plateau_core::ansatz::training_ansatz;
    use plateau_core::cost::CostKind;
    use plateau_grad::{GradientEngine, ParameterShift};

    // §IV-D: 10 qubits, 5 layers — N = 145 gates, k = 100 parameters.
    // Per layer, RX·RY on each wire (ops 29l … 29l + 19, one parameter
    // each) then a 9-gate CZ chain.
    let a = training_ansatz(10, 5).unwrap();
    let c = &a.circuit;
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.05 * i as f64 - 1.0).collect();
    let obs = CostKind::Global.observable(10);
    let n = c.ops().len() as u64;
    // Each of θ_i's two shifted runs resumes at θ_i's gate p_i and runs
    // the suffix: Σ 2·(N − p_i) = 15,500 gates.
    let suffixes: u64 = (0..c.n_params())
        .map(|i| 2 * (n - c.op_of_param(i).unwrap() as u64))
        .sum();
    assert_eq!(suffixes, 15_500);
    // The prefix walks: the sweep splits the 100 parameters into 8 chunks
    // of roughly equal suffix cost (≈ 15,500 / 8 each), whose last cuts
    // fall at ops 6, 13, 30, 39, 58, 69, 94 and 135. Each chunk walks its
    // own prefix from |0…0⟩ up to its last cut, so the walks cost
    // 6 + 13 + 30 + 39 + 58 + 69 + 94 + 135 = 444 gates. The plan depends
    // only on the circuit, so the total holds for every thread count.
    let prefix_walks = 444u64;
    let gates = || -> u64 {
        [
            "sim.gate.rotation",
            "sim.gate.fixed",
            "sim.gate.controlled_rotation",
            "sim.gate.two_qubit_rotation",
        ]
        .iter()
        .map(|name| counter_value(name))
        .sum()
    };
    let saved = std::env::var("PLATEAU_THREADS").ok();
    for threads in ["1", "2", "4"] {
        std::env::set_var("PLATEAU_THREADS", threads);
        let (gates_before, execs_before) =
            (gates(), counter_value("grad.executions.parameter_shift"));
        ParameterShift.gradient(c, &params, &obs).unwrap();
        assert_eq!(gates() - gates_before, suffixes + prefix_walks, "threads={threads}");
        // Executions count evaluations, not gates: still 2k.
        assert_eq!(
            counter_value("grad.executions.parameter_shift") - execs_before,
            2 * c.n_params() as u64,
            "threads={threads}"
        );
    }
    match saved {
        Some(v) => std::env::set_var("PLATEAU_THREADS", v),
        None => std::env::remove_var("PLATEAU_THREADS"),
    }

    plateau_sim::reset_fuse();
    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn adjoint_partial_last_sweeps_only_the_tail_after_its_gate() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    // The counts below assume gate-by-gate execution; pin fusion off so
    // the suite also passes under PLATEAU_SIM_FUSE=1.
    plateau_sim::set_fuse(false);

    use plateau_core::ansatz::variance_ansatz;
    use plateau_core::cost::CostKind;
    use plateau_grad::{Adjoint, GradientEngine};
    use plateau_rng::{rngs::StdRng, SeedableRng};

    let (q, layers) = (4usize, 6usize);
    let a = variance_ansatz(q, layers, &mut StdRng::seed_from_u64(7)).unwrap();
    let c = &a.circuit;
    let n = c.n_params();
    let params: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
    let obs = CostKind::Global.observable(q);
    let (ops, k) = (c.ops().len() as u64, c.op_of_param(n - 1).unwrap() as u64);

    let names = [
        "sim.gate.derivative_applications",
        "sim.gate.inverse_applications",
        "grad.gradients.adjoint",
        "grad.executions.adjoint",
    ];
    let before: Vec<u64> = names.iter().map(|name| counter_value(name)).collect();
    Adjoint.partial_last(c, &params, &obs).unwrap();
    let delta: Vec<u64> = names
        .iter()
        .zip(&before)
        .map(|(name, b)| counter_value(name) - b)
        .collect();
    // One tangent, at θ_last's gate (op k of N). φ steps back through
    // ops N−1…k and λ through N−1…k+1; ops 0…k−1 are never revisited.
    // One gradient, two executions, as for a full gradient.
    assert_eq!(delta, [1, 2 * (ops - 1 - k) + 1, 1, 2]);

    plateau_sim::reset_fuse();
    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn fused_run_emits_exact_compression_counters() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    plateau_obs::metrics::reset();
    plateau_sim::set_fuse(true);

    use plateau_core::ansatz::training_ansatz;
    use plateau_core::cost::CostKind;
    use plateau_grad::{expectation, Adjoint, GradientEngine};

    // The paper's training configuration (§IV-D): width 10, depth 5.
    // Per layer the ansatz is RX·RY on each wire plus a CZ chain, so one
    // compile sees layers × (3q − 1) input gates and — per the fusion
    // contract pinned in `plateau_sim::fuse` — emits one merged per-wire
    // block per qubit plus one diagonal CZ-chain superkernel per layer.
    let (q, layers) = (10usize, 5usize);
    let a = training_ansatz(q, layers).unwrap();
    let obs = CostKind::Global.observable(q);
    let params = vec![0.1; a.circuit.n_params()];

    // Two independent entries into the fused hot path, one compile each:
    // a bare cost evaluation and an adjoint gradient.
    expectation(&a.circuit, &params, &obs).unwrap();
    Adjoint.gradient(&a.circuit, &params, &obs).unwrap();

    let snap = plateau_obs::snapshot();
    let compiles = 2u64;
    let gates_in = (layers * (3 * q - 1)) as u64;
    let gates_out = (layers * (q + 1)) as u64;
    assert_eq!(snap.counter("sim.fuse.gates_in"), Some(compiles * gates_in));
    assert_eq!(snap.counter("sim.fuse.gates_out"), Some(compiles * gates_out));
    assert_eq!(
        snap.counter("sim.fuse.superkernels"),
        Some(compiles * layers as u64)
    );
    // Fused segments bypass the per-gate kernels entirely, so the
    // gate-by-gate counters must stay silent.
    assert_eq!(snap.counter("sim.gate.rotation"), None);
    assert_eq!(snap.counter("sim.gate.fixed"), None);

    plateau_sim::reset_fuse();
    plateau_obs::metrics::reset();
    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn jsonl_records_round_trip_through_the_parser() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::metrics::reset();
    let path = std::env::temp_dir().join(format!(
        "plateau-obs-integration-{}.jsonl",
        std::process::id()
    ));
    plateau_obs::init(None, Some(&path)).unwrap();

    plateau_obs::emit_manifest(
        "integration-test",
        vec![("layers".to_string(), Json::str("5"))],
        Some(42),
    );
    {
        let _span = plateau_obs::span!("outer_work", q = 3usize);
        plateau_obs::counter!("test.obs.round_trip").add(7);
        plateau_obs::event!(
            plateau_obs::Level::Warn,
            "synthetic_event",
            grad_norm = 1.5e-5
        );
    }
    plateau_obs::finish_run();
    plateau_obs::set_metrics_enabled(false);

    let raw = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let records: Vec<Json> = raw
        .lines()
        .map(|l| Json::parse(l).expect("every JSONL line parses"))
        .collect();
    assert!(records.len() >= 4, "manifest + event + span + metrics");

    let kind = |r: &Json| r.get("type").and_then(|t| t.as_str().map(String::from));
    let manifest = &records[0];
    assert_eq!(kind(manifest).as_deref(), Some("manifest"));
    assert_eq!(
        manifest.get("command").unwrap().as_str().unwrap(),
        "integration-test"
    );
    assert_eq!(manifest.get("seed").unwrap().as_f64().unwrap(), 42.0);

    let event = records
        .iter()
        .find(|r| kind(r).as_deref() == Some("event"))
        .expect("event record");
    assert_eq!(event.get("name").unwrap().as_str().unwrap(), "synthetic_event");

    let span = records
        .iter()
        .find(|r| kind(r).as_deref() == Some("span"))
        .expect("span record");
    assert_eq!(span.get("name").unwrap().as_str().unwrap(), "outer_work");
    assert!(span.get("duration_ns").unwrap().as_f64().unwrap() >= 0.0);

    let metrics = records
        .iter()
        .find(|r| kind(r).as_deref() == Some("metrics"))
        .expect("metrics snapshot record");
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("test.obs.round_trip"))
            .and_then(|v| v.as_f64()),
        Some(7.0)
    );
}

#[test]
fn live_trace_carries_span_ids_and_reconstructs_exactly() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::metrics::reset();
    // The span forest below is pinned exactly (scan → cells, nothing
    // else); fused kernels add sim.fuse.* spans, so pin fusion off to
    // keep this test meaningful under PLATEAU_SIM_FUSE=1.
    plateau_sim::set_fuse(false);
    let path = std::env::temp_dir().join(format!(
        "plateau-obs-profile-{}.jsonl",
        std::process::id()
    ));
    plateau_obs::init(None, Some(&path)).unwrap();

    let qubits = [2usize, 3];
    let cfg = VarianceConfig {
        qubit_counts: qubits.to_vec(),
        layers: 4,
        n_circuits: 3,
        ..VarianceConfig::default()
    };
    let strategies = [InitStrategy::Random, InitStrategy::He];
    variance_scan(&cfg, &strategies).unwrap();
    plateau_obs::finish_run();
    plateau_obs::set_metrics_enabled(false);

    let trace = Trace::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(trace.warnings.is_empty(), "{:?}", trace.warnings);

    // Every span got a nonzero monotonic id, and every cell's parent link
    // points at the enclosing scan span.
    assert!(trace.spans.iter().all(|s| s.id != 0));
    let scan = trace
        .spans
        .iter()
        .position(|s| s.name == "variance_scan")
        .expect("scan span recorded");
    let cells: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "variance_cell")
        .collect();
    assert_eq!(cells.len(), qubits.len() * strategies.len());
    assert!(cells.iter().all(|c| c.parent == Some(trace.spans[scan].id)));
    assert_eq!(trace.roots, vec![scan]);
    assert_eq!(trace.spans[scan].children.len(), cells.len());

    // Aggregation: the scan's wall time is the whole trace; its self time
    // excludes every cell.
    let a = Analysis::of(&trace);
    assert_eq!(a.span_count, 1 + cells.len() as u64);
    let scan_stats = a.stats.iter().find(|s| s.name == "variance_scan").unwrap();
    assert_eq!(scan_stats.total_ns, trace.total_wall_ns());
    let cell_total: u64 = cells.iter().map(|c| c.duration_ns).sum();
    assert_eq!(
        scan_stats.self_ns,
        scan_stats.total_ns.saturating_sub(cell_total)
    );
    let report = a.render_report(0);
    for needle in ["variance_cell", "p50", "p90", "p99", "self%"] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }
    plateau_sim::reset_fuse();
}

#[test]
fn golden_fixture_analysis_is_pinned() {
    let trace = Trace::read(std::path::Path::new(GOLDEN_TRACE)).unwrap();
    assert!(trace.warnings.is_empty());
    assert_eq!(
        trace.command.as_deref(),
        Some("plateau variance --qubits 2 --circuits 2 --layers 3")
    );
    assert_eq!(trace.git.as_deref(), Some("golden00"));
    assert_eq!(trace.events, 1);
    assert_eq!(trace.total_wall_ns(), 5000);
    assert_eq!(trace.max_depth(), 2);

    let a = Analysis::of(&trace);
    // Ranked by self time: the four cells (4700 ns) beat the scan (300 ns).
    assert_eq!(a.stats[0].name, "variance_cell");
    assert_eq!(a.stats[0].count, 4);
    assert_eq!(a.stats[0].self_ns, 4700);
    assert_eq!((a.stats[0].min_ns, a.stats[0].max_ns), (1000, 1400));
    assert_eq!(a.stats[0].mean_ns, 1175.0);
    assert_eq!(
        (a.stats[0].p50_ns, a.stats[0].p90_ns, a.stats[0].p99_ns),
        (1100, 1400, 1400)
    );
    assert_eq!(a.stats[1].name, "variance_scan");
    assert_eq!(a.stats[1].self_ns, 300);

    // Collapsed stacks and the flamegraph agree with the pinned tree.
    assert_eq!(
        plateau_obs::flame::collapsed_stacks(&trace),
        "variance_scan 300\nvariance_scan;variance_cell 4700\n"
    );
    let svg = plateau_obs::flame::flamegraph_svg(&trace, "golden");
    assert!(svg.starts_with("<?xml"));
    assert!(svg.trim_end().ends_with("</svg>"));
    // Synthetic all + scan + 4 cells.
    assert_eq!(svg.matches("<g>").count(), 6);

    // A trace diffed against its own baseline passes at any threshold.
    let doc = a.to_baseline_json();
    let base = plateau_obs::analyze::baseline_entries(&doc).unwrap();
    let report = plateau_obs::diff::diff_entries(&base, &(&a).into(), 0.01);
    assert_eq!(report.regressions(), 0);
    assert!(report.render().contains("# PASS"));
}

#[test]
fn malformed_trace_files_fail_loudly_but_tolerate_crash_truncation() {
    let dir = std::env::temp_dir();
    let write = |tag: &str, body: &str| {
        let p = dir.join(format!("plateau-obs-bad-{}-{tag}.jsonl", std::process::id()));
        std::fs::write(&p, body).unwrap();
        p
    };
    let ok_line =
        r#"{"type":"span","name":"ok","id":1,"parent":null,"duration_ns":10,"depth":0,"fields":{}}"#;

    // Corruption mid-file is a hard error naming the line.
    let corrupt = write("corrupt", &format!("{ok_line}\nnot json\n{ok_line}\n"));
    match Trace::read(&corrupt) {
        Err(TraceError::Malformed { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // A torn final line (crash mid-write) degrades to a warning.
    let torn = write("torn", &format!("{ok_line}\n{{\"type\":\"span\",\"na"));
    let trace = Trace::read(&torn).unwrap();
    assert_eq!(trace.spans.len(), 1);
    assert!(trace.warnings.iter().any(|w| w.contains("truncated final line")));

    // Empty and span-free traces are distinct, graceful errors.
    let empty = write("empty", "");
    assert!(matches!(Trace::read(&empty), Err(TraceError::Empty(_))));
    let spanless = write("spanless", "{\"type\":\"metrics\",\"counters\":{}}\n");
    assert!(matches!(Trace::read(&spanless), Err(TraceError::Empty(_))));

    for p in [corrupt, torn, empty, spanless] {
        std::fs::remove_file(p).ok();
    }
}
