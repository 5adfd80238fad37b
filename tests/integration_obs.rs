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
    for threads in [1, 4, 8] {
        let before = counter_value("par.tasks");
        let batches_before = counter_value("par.batches");
        let out = plateau_par::with_threads(threads, || {
            plateau_par::par_map_indexed(97, |i| i * i)
        });
        assert_eq!(out.len(), 97);
        // Every item is claimed and executed exactly once, regardless of
        // how many workers raced for the queue.
        assert_eq!(counter_value("par.tasks") - before, 97, "threads={threads}");
        assert_eq!(counter_value("par.batches") - batches_before, 1);
        let workers = plateau_obs::snapshot().gauge("par.workers").unwrap();
        assert!(workers >= 1.0 && workers <= threads as f64);
        // The timing histogram saw the same 97 tasks.
        let hist = plateau_obs::snapshot();
        assert!(hist.histogram("par.task_ns").unwrap().count >= 97);
    }
    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn variance_scan_gate_counters_match_analytic_counts() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    plateau_obs::metrics::reset();

    // Every member of a random-rotations cell is a distinct circuit
    // differentiated once, so its partial walks the op list and the
    // per-gate counters below see every application.
    let qubits = [2usize, 3];
    let (circuits, layers) = (4usize, 5usize);
    let cfg = VarianceConfig {
        qubit_counts: qubits.to_vec(),
        layers,
        n_circuits: circuits,
        // The analytic counts below assume the parameter-shift rule; the
        // scan's default engine is Adjoint.
        engine: GradEngineKind::ParameterShift,
        // …resumed from shared prefixes: the default global cost takes
        // the rank-one walk, pinned in plateau-grad's counter pins.
        cost: plateau_core::cost::CostKind::Local,
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

    plateau_obs::metrics::reset();
    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn sim_parallel_counters_are_exact() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    plateau_obs::metrics::reset();

    // On a 6-qubit forced-chunked state every kernel family has plenty of
    // whole blocks, so each parallel dispatch splits into exactly `t`
    // contiguous chunks where `t = worker_count` (1 on a single-core
    // machine, else 2 under the with_threads(2) cap).
    use plateau_sim::{RotationGate, State, TwoQubitRotationGate};
    let t = plateau_par::with_threads(2, || {
        let mut s = State::zero(6);
        s.set_chunked(true);
        s.apply_rotation(RotationGate::Rx, 0, 0.3).unwrap();
        s.apply_cz(0, 1).unwrap();
        s.apply_controlled_rotation(RotationGate::Rz, 1, 0, 0.7).unwrap();
        s.apply_two_qubit_rotation(TwoQubitRotationGate::Rxx, 1, 0, 0.2).unwrap();
        plateau_par::worker_count(usize::MAX) as u64
    });

    let snap = plateau_obs::snapshot();
    assert_eq!(snap.counter("sim.par.kernels"), Some(4));
    assert_eq!(snap.counter("sim.par.chunks"), Some(4 * t));

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

    use plateau_core::ansatz::training_ansatz;
    use plateau_core::cost::CostKind;
    use plateau_grad::{GradientEngine, ParameterShift};

    // §IV-D: 10 qubits, 5 layers — 145 gates, k = 100 parameters. Per
    // layer l, twenty rotations (RX·RY per wire, one parameter each) at
    // ops 29l … 29l + 19, then the nine-CZ chain, swept as one CZ layer.
    // Runs from |0…0⟩ build layer 0's twenty rotations as one
    // product-state prologue. Gates count once each whichever kernel runs
    // them. (The total, 16,322 gates, is pinned in plateau-grad's counter
    // pins.) The local cost takes the prefix path; the global cost, a
    // rank-one observable, the backward walk pinned beside it there.
    let a = training_ansatz(10, 5).unwrap();
    let c = &a.circuit;
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.05 * i as f64 - 1.0).collect();
    let obs = CostKind::Local.observable(10);
    assert_eq!((c.gate_count(), c.prologue_len()), (145, 20));

    // [rotation, fixed, CZ-layer, prologue] counts of one walk: from
    // |0…0⟩ (the prologue, then ops 20..to) or on from op `from`.
    let mut want = [0u64; 4];
    let walk = |want: &mut [u64; 4], from: usize, to: usize| {
        let from = if from == 0 {
            want[0] += 20;
            want[3] += 1;
            20
        } else {
            from
        };
        for k in from..to {
            want[usize::from(k % 29 >= 20)] += 1;
            want[2] += u64::from(k % 29 == 20);
        }
    };
    // Suffixes. Layer 0's parameters sit inside the prologue, so each of
    // their 40 shifted runs starts from |0…0⟩. θ_i of layer l ≥ 1
    // resumes from the shared prefix at its op 29l + i mod 20.
    for i in 0..c.n_params() {
        let (l, j) = (i / 20, i % 20);
        for _shift in 0..2 {
            walk(&mut want, if l == 0 { 0 } else { 29 * l + j }, 145);
        }
    }
    // Prefix walks. The sweep splits the jobs into 8 chunks of roughly
    // equal suffix cost (cost 145 − cut; 15,880 in all), never splitting
    // a prefix group: the first chunk holds the 40 layer-0 runs, which
    // need no prefix, and the other seven end at ops 29, 30, 38, 48, 69,
    // 93 and 135. Each of those walks its prefix once from |0…0⟩.
    for end in [29, 30, 38, 48, 69, 93, 135] {
        walk(&mut want, 0, end);
    }
    assert_eq!(want, [10_805, 5_517, 613, 47]);

    let names = [
        "sim.gate.rotation",
        "sim.gate.fixed",
        "sim.gate.cz_layers",
        "sim.gate.prologues",
        "grad.executions.parameter_shift",
    ];
    // …plus 2k executions.
    let expected = [want[0], want[1], want[2], want[3], 2 * c.n_params() as u64];
    for threads in [1, 2, 4] {
        let before: Vec<u64> = names.iter().map(|name| counter_value(name)).collect();
        plateau_par::with_threads(threads, || ParameterShift.gradient(c, &params, &obs)).unwrap();
        let delta: Vec<u64> = names
            .iter()
            .zip(&before)
            .map(|(name, b)| counter_value(name) - b)
            .collect();
        assert_eq!(delta, expected, "threads={threads}");
    }

    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn adjoint_partial_last_sweeps_only_the_tail_after_its_gate() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);

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

    plateau_obs::set_metrics_enabled(false);
}

#[test]
fn fused_run_emits_exact_compression_counters() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    plateau_obs::metrics::reset();

    use plateau_core::ansatz::training_ansatz;
    use plateau_core::cost::CostKind;
    use plateau_grad::{expectation_many, BatchExecutor};

    // The paper's training configuration (§IV-D): width 10, depth 5. Per
    // layer the ansatz is RX·RY on each wire plus a nine-CZ chain, which
    // every walk sweeps as one CZ layer; every run from |0…0⟩ builds
    // layer 0's 2q rotations as one product-state prologue.
    let (q, layers) = (10usize, 5u64);
    let a = training_ansatz(q, layers as usize).unwrap();
    let obs = CostKind::Global.observable(q);
    let members = 3u64;
    let sets = vec![vec![0.1; a.circuit.n_params()]; members as usize];

    // Two batched entries: a cost evaluation and an adjoint sweep.
    expectation_many(&a.circuit, &sets, &obs).unwrap();
    BatchExecutor::new(&a.circuit).adjoint_gradient_many(&sets, &obs).unwrap();

    let snap = plateau_obs::snapshot();
    // Two runs from |0…0⟩ per member — the cost evaluation and the
    // adjoint's forward pass — each one prologue and one sweep per layer,
    // counting all 100 rotations and 45 CZs. Each adjoint gradient then
    // steps back through every gate (φ and λ, but for λ at the stop
    // rotation, one tangent each), again one sweep per layer for φ and λ.
    let (rotations, czs) = (2 * q as u64 * layers, (q as u64 - 1) * layers);
    assert_eq!(snap.counter("sim.gate.prologues"), Some(2 * members));
    assert_eq!(snap.counter("sim.gate.rotation"), Some(2 * rotations * members));
    assert_eq!(snap.counter("sim.gate.fixed"), Some(2 * czs * members));
    assert_eq!(snap.counter("sim.gate.cz_layers"), Some(4 * layers * members));
    assert_eq!(
        snap.counter("sim.gate.inverse_applications"),
        Some((2 * (rotations + czs) - 1) * members)
    );
    assert_eq!(
        snap.counter("sim.gate.derivative_applications"),
        Some(rotations * members)
    );

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
