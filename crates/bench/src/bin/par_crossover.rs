//! Measures the per-gate threading crossover: the qubit count at which
//! the chunked multi-threaded amplitude kernels start beating the serial
//! loops on this machine.
//!
//! For each register width the same training-ansatz forward run is timed
//! twice — once with `set_par_threshold(usize::MAX)` (serial kernels)
//! and once with `set_par_threshold(0)` (parallel kernels) — and the
//! serial/parallel median ratio is printed. The crossover is the first
//! width where that ratio exceeds 1. The result backs the
//! `DEFAULT_PAR_THRESHOLD` constant in `plateau-sim` and the notes field
//! of `benchmarks/BENCH_sim_parallel.json`.
//!
//! The scan runs 8 to 20 qubits, so it covers the default threshold (17)
//! from both sides. Each width costs about twice the previous one; the
//! scan stops before a width that would take it past a two-minute
//! run-time cap and says where it stopped.
//!
//! ```text
//! cargo run --release -p plateau-bench --bin par_crossover
//! ```

use plateau_bench::harness::{black_box, Harness};
use plateau_core::ansatz::training_ansatz;
use std::time::{Duration, Instant};

/// Wall-clock cap on the whole scan.
const RUN_TIME_CAP: Duration = Duration::from_secs(120);

fn main() {
    let layers = 5usize;
    let workers = plateau_par::worker_count(usize::MAX);
    println!("# per-gate threading crossover scan: {layers} layers, {workers} worker(s)");

    let mut h = Harness::new("par_crossover");
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut widths = Vec::new();
    for n in 8..=20usize {
        if start.elapsed() + 2 * last > RUN_TIME_CAP {
            println!(
                "# stopped before {n} qubits: the next width would pass the {}s run-time cap",
                RUN_TIME_CAP.as_secs()
            );
            break;
        }
        let width_start = Instant::now();
        widths.push(n);
        let ansatz = training_ansatz(n, layers).expect("ansatz");
        let params: Vec<f64> = (0..ansatz.circuit.n_params())
            .map(|i| 0.1 + 0.01 * i as f64)
            .collect();
        let mut group = h.group(&format!("forward_{n}q"));
        group.sample_size(10);
        plateau_sim::set_par_threshold(usize::MAX);
        group.bench("serial", || {
            black_box(ansatz.circuit.run(black_box(&params)).expect("run"))
        });
        plateau_sim::set_par_threshold(0);
        group.bench("parallel", || {
            black_box(ansatz.circuit.run(black_box(&params)).expect("run"))
        });
        plateau_sim::reset_par_threshold();
        last = width_start.elapsed();
    }
    let reports = h.finish();

    println!("\n# {:>6}  {:>12}  {:>12}  {:>8}", "qubits", "serial", "parallel", "ratio");
    let mut crossover = None;
    for &n in &widths {
        let median = |id: &str| {
            reports
                .iter()
                .find(|r| r.name == format!("forward_{n}q/{id}"))
                .expect("report")
                .median_ns
        };
        let (s, p) = (median("serial"), median("parallel"));
        let ratio = s / p;
        println!("# {n:>6}  {s:>10.0}ns  {p:>10.0}ns  {ratio:>7.2}x");
        if ratio > 1.0 && crossover.is_none() {
            crossover = Some(n);
        }
    }
    match crossover {
        Some(n) => println!("# crossover: parallel kernels first win at {n} qubits"),
        None => println!("# crossover: parallel kernels never won on this scan"),
    }
}
