//! CI gate for the batched ensemble engine: sweeping a 200-member
//! parameter ensemble through `BatchExecutor` must be decisively faster
//! than the pre-executor per-circuit loop.
//!
//! The workload is the paper's ensemble configuration — 200 parameter
//! vectors over the 10-qubit / 5-layer RX·RY + CZ-chain training ansatz,
//! the exact shape of one variance-scan cell. The per-circuit loop pays a
//! fresh `2^10` statevector for every member; the executor runs the same
//! op-list kernels and reuses one scratch state per worker.
//!
//! Three variants share the harness: `per_circuit` is the old loop
//! (one `expectation` call per member), `batched_serial` runs inside
//! `plateau_par::with_threads(1, …)`, and `batched` lets the pool size itself from the
//! machine. The headline unit is **circuits/sec** (members ÷ median sweep
//! time). On a multi-core machine the gate fails (exit 1) unless the
//! batched sweep clears `per_circuit × PLATEAU_BATCH_TOL` (default 3.0)
//! in circuits/sec. On a single-core machine the multi-core comparison is
//! vacuous and passes with a note; the serial-batched sweep must still
//! never fall behind the loop it replaced (`PLATEAU_BATCH_SERIAL_TOL`,
//! default 1.10 — scratch reuse cannot lose).
//!
//! Run with `--record` to also write the measurement to
//! `benchmarks/BENCH_batch_throughput.json` (the committed baseline).

use plateau_bench::harness::{black_box, Harness};
use plateau_core::ansatz::training_ansatz;
use plateau_core::cost::CostKind;
use plateau_grad::BatchExecutor;

fn main() {
    if std::env::args().any(|a| a == "--record") {
        std::env::set_var("PLATEAU_BENCH_JSON", "benchmarks/BENCH_batch_throughput.json");
    }

    let (n_qubits, layers, members) = (10usize, 5usize, 200usize);
    let ansatz = training_ansatz(n_qubits, layers).expect("training ansatz");
    let obs = CostKind::Global.observable(n_qubits);
    // Fixed, structured ensemble: parameter values only move amplitudes,
    // not work, so any deterministic spread measures the same thing.
    let sets: Vec<Vec<f64>> = (0..members)
        .map(|m| {
            (0..ansatz.circuit.n_params())
                .map(|p| 0.01 * m as f64 + 0.001 * p as f64)
                .collect()
        })
        .collect();

    println!(
        "# workload: {members}-member ensemble, {n_qubits} qubits, {layers} layers, \
         {} params",
        ansatz.circuit.n_params()
    );

    let mut h = Harness::new("batch_throughput_gate");
    h.config("qubits", plateau_bench::json::Json::from(n_qubits));
    h.config("layers", plateau_bench::json::Json::from(layers));
    h.config("members", plateau_bench::json::Json::from(members));
    h.config(
        "workers",
        plateau_bench::json::Json::from(plateau_par::worker_count(usize::MAX)),
    );
    h.note(
        "per_circuit allocates a fresh 2^10 statevector per member; \
         BatchExecutor runs the same op-list kernels and reuses one scratch \
         state per worker (grad.batch.* counters)",
    );
    let mut group = h.group("ensemble_sweep");
    group.sample_size(10);
    group.bench("per_circuit", || {
        for set in black_box(&sets) {
            plateau_grad::expectation(black_box(&ansatz.circuit), set, &obs).expect("expectation");
        }
    });
    plateau_par::with_threads(1, || {
        group.bench("batched_serial", || {
            BatchExecutor::new(black_box(&ansatz.circuit))
                .expectation_many(black_box(&sets), &obs)
                .expect("batched sweep")
        })
    });
    group.bench("batched", || {
        BatchExecutor::new(black_box(&ansatz.circuit))
            .expectation_many(black_box(&sets), &obs)
            .expect("batched sweep")
    });
    let reports = h.finish();

    let median_of = |id: &str| {
        reports
            .iter()
            .find(|r| r.name == format!("ensemble_sweep/{id}"))
            .unwrap_or_else(|| panic!("missing report {id}"))
            .median_ns
    };
    let throughput = |median_ns: f64| members as f64 / (median_ns / 1e9);
    let per_circuit = median_of("per_circuit");
    let batched_serial = median_of("batched_serial");
    let batched = median_of("batched");
    let workers = plateau_par::worker_count(usize::MAX);
    println!(
        "# per_circuit {:.0} circuits/s vs batched_serial {:.0} circuits/s: x{:.2}",
        throughput(per_circuit),
        throughput(batched_serial),
        per_circuit / batched_serial
    );
    println!(
        "# per_circuit {:.0} circuits/s vs batched {:.0} circuits/s on {workers} worker(s): x{:.2}",
        throughput(per_circuit),
        throughput(batched),
        per_circuit / batched
    );

    // Serial gate: runs on any machine. Compile-once plus scratch reuse
    // must never lose to the loop it replaced.
    let serial_tol: f64 = std::env::var("PLATEAU_BATCH_SERIAL_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.10);
    if batched_serial > per_circuit * serial_tol {
        eprintln!(
            "batch throughput gate FAILED: serial batched sweep {batched_serial:.0} ns \
             is slower than the per-circuit loop {per_circuit:.0} ns x tolerance {serial_tol}"
        );
        std::process::exit(1);
    }
    println!("# batch serial gate passed (required <= x{serial_tol} of per-circuit)");

    if workers < 2 {
        println!(
            "# batch throughput gate skipped: single worker, multi-core \
             speedup not measurable"
        );
        return;
    }
    let tol: f64 = std::env::var("PLATEAU_BATCH_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    if throughput(batched) < throughput(per_circuit) * tol {
        eprintln!(
            "batch throughput gate FAILED: batched sweep at {:.0} circuits/s is less \
             than {tol}x the per-circuit loop's {:.0} circuits/s",
            throughput(batched),
            throughput(per_circuit)
        );
        std::process::exit(1);
    }
    println!("# batch throughput gate passed (required x{tol} circuits/sec)");
}
