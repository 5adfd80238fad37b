//! Per-layer measurement shared by the workloads: counter deltas read
//! through `plateau_obs::snapshot()`, circuit probes timed around the
//! simulator's public entry points, and the host roofline.

use std::time::Instant;

use plateau_obs::MetricsSnapshot;
use plateau_sim::{compile, Circuit, Op};

use crate::trace::{Open, Tracer};
use crate::{host, stats, Ctx, Report};

/// Sets `metric` to the median duration, in µs, of the spans named `span`.
pub fn set_median_us(report: &mut Report, tracer: &Tracer, metric: &'static str, span: &str) {
    report.set(metric, stats::median(&tracer.durations(span)) / 1e3);
}

/// The program's own counters over a traced phase. Starting switches the
/// metrics registry and allocation profiling on for the rest of the run.
pub struct Counters {
    before: MetricsSnapshot,
}

const GATE_COUNTERS: &[&str] = &[
    "sim.gate.fixed",
    "sim.gate.rotation",
    "sim.gate.controlled_rotation",
    "sim.gate.two_qubit_rotation",
    "sim.gate.inverse_applications",
    "sim.gate.derivative_applications",
];

impl Counters {
    pub fn start() -> Counters {
        plateau_obs::set_metrics_enabled(true);
        plateau_obs::alloc::set_profiling(true);
        Counters {
            before: plateau_obs::snapshot(),
        }
    }

    /// Sets the counter-derived metrics. `ops` is the number of workload
    /// operations in the phase; `fork_join_ns` are the wall times of the
    /// calls that contain the phase's `plateau_par` fork-joins.
    pub fn finish(self, report: &mut Report, ops: f64, fork_join_ns: &[f64]) {
        let after = plateau_obs::snapshot();
        let d = |name: &str| {
            (after.counter(name).unwrap_or(0) - self.before.counter(name).unwrap_or(0)) as f64
        };
        let grads = d("grad.gradients.adjoint") + d("grad.gradients.parameter_shift");
        let per_grad = |x: f64| if grads > 0.0 { x / grads } else { 0.0 };
        let gates: f64 = GATE_COUNTERS.iter().map(|c| d(c)).sum();
        let allocs = d("sim.state.allocations");
        let reuses = d("sim.state.reuses");
        report.set("sim.gate_applications_per_grad", per_grad(gates));
        report.set("sim.state_allocs_per_grad", per_grad(allocs));
        report.set(
            "sim.state_reuse_ratio",
            if allocs + reuses > 0.0 {
                reuses / (allocs + reuses)
            } else {
                0.0
            },
        );
        report.set("sim.par.kernels_per_grad", per_grad(d("sim.par.kernels")));
        report.set(
            "grad.executions_per_gradient",
            per_grad(d("grad.executions.adjoint") + d("grad.executions.parameter_shift")),
        );
        let batches = d("grad.batch.batches");
        report.set(
            "grad.batch.jobs_per_batch",
            if batches > 0.0 {
                d("grad.batch.jobs") / batches
            } else {
                0.0
            },
        );
        report.set("par.batches_per_op", d("par.batches") / ops.max(1.0));

        let task_ns =
            |s: &MetricsSnapshot| s.histogram("par.task_ns").map_or(0.0, |h| h.sum as f64);
        let busy = task_ns(&after) - task_ns(&self.before);
        let workers = after.gauge("par.workers").unwrap_or(1.0).max(1.0);
        let wall = stats::sum(fork_join_ns);
        report.set(
            "par.overhead_frac",
            if busy > 0.0 && wall > 0.0 {
                1.0 - busy / (workers * wall)
            } else {
                0.0
            },
        );
    }
}

/// Which executor a workload's circuits run through at the program's
/// defaults.
#[derive(Clone, Copy)]
pub enum Path {
    /// `Circuit::run`, gate by gate (the library default).
    Raw,
    /// `CompiledCircuit::run` over fused segments (the service default).
    Compiled,
}

/// Complex multiply-adds per amplitude a gate asks for, counted as dense
/// kernels: 2 for a 1-qubit gate, 1 for a controlled 1-qubit rotation, 4
/// for a 2-qubit rotation, 0 for the 2-qubit fixed gates (sign flips and
/// permutations).
fn cmadd_per_amp(op: &Op) -> f64 {
    match op {
        Op::Fixed { qubits, .. } if qubits.len() == 1 => 2.0,
        Op::Fixed { .. } => 0.0,
        Op::Rotation { .. } => 2.0,
        Op::ControlledRotation { .. } => 1.0,
        Op::TwoQubitRotation { .. } => 4.0,
    }
}

/// Kernel, compile and allocation probes over a sample of a workload's
/// circuits.
#[derive(Default)]
pub struct Probes {
    kernel_ns: f64,
    op_amps: f64,
    cmadds: f64,
    /// Peak-equivalent core count the timed kernels could use.
    cores: f64,
    compile_ns: Vec<f64>,
    segments_per_gate: Vec<f64>,
    alloc_bytes: Vec<f64>,
}

impl Probes {
    /// Times one compile and one forward run of `circuit` (through `path`)
    /// inside spans under `parent`.
    pub fn circuit(
        &mut self,
        tr: &Tracer,
        parent: Option<&Open>,
        op: u64,
        circuit: &Circuit,
        params: &[f64],
        path: Path,
    ) {
        let t0 = Instant::now();
        let compiled = tr.span("sim.compile", parent, op, |_| compile(circuit));
        self.compile_ns.push(t0.elapsed().as_nanos() as f64);
        self.segments_per_gate
            .push(compiled.gates_out() as f64 / compiled.gates_in().max(1) as f64);

        let (ops, t) = match path {
            Path::Raw => {
                let t0 = Instant::now();
                let state = tr.span("sim.circuit.run", parent, op, |_| circuit.run(params));
                let t = t0.elapsed().as_nanos() as f64;
                std::hint::black_box(state.expect("forward run"));
                (circuit.gate_count(), t)
            }
            Path::Compiled => {
                let t0 = Instant::now();
                let state = tr.span("sim.compiled.run", parent, op, |_| compiled.run(params));
                let t = t0.elapsed().as_nanos() as f64;
                std::hint::black_box(state.expect("forward run"));
                (compiled.gates_out(), t)
            }
        };
        let amps = (1u64 << circuit.n_qubits()) as f64;
        // Kernels at or above the simulator's parallel threshold are split
        // across the workers; below it they run on one core.
        let cores = if circuit.n_qubits() >= plateau_sim::DEFAULT_PAR_THRESHOLD {
            plateau_par::worker_count(usize::MAX) as f64
        } else {
            1.0
        };
        self.cores = self.cores.max(cores);
        self.kernel_ns += t;
        self.op_amps += ops as f64 * amps;
        self.cmadds += circuit.ops().iter().map(cmadd_per_amp).sum::<f64>() * amps;
    }

    /// Runs `f` (one gradient) and records the bytes it allocated on
    /// every thread.
    pub fn alloc_of<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = plateau_obs::alloc::stats().bytes;
        let out = f();
        self.alloc_bytes
            .push((plateau_obs::alloc::stats().bytes - before) as f64);
        out
    }

    /// Sets the kernel, compile and allocation metrics, measuring the
    /// complex-multiply-add peak in this process for the peak fraction.
    pub fn finish(self, report: &mut Report) {
        let bytes = self.op_amps * 32.0;
        let achieved = self.cmadds / (self.kernel_ns / 1e9);
        let peak = cmadd_peak_per_s() * self.cores.max(1.0);
        report.set("sim.kernel_ns_per_amp", self.kernel_ns / self.op_amps);
        report.set("sim.kernel_ops_per_byte", self.cmadds / bytes);
        report.set("sim.kernel_peak_frac", achieved / peak);
        report.set("sim.fuse.compile_us", stats::median(&self.compile_ns) / 1e3);
        report.set(
            "sim.fuse.segments_per_gate",
            stats::median(&self.segments_per_gate),
        );
        if !self.alloc_bytes.is_empty() {
            report.set(
                "grad.alloc_bytes_per_gradient",
                stats::median(&self.alloc_bytes),
            );
        }
        report.show("roofline cmadd peak", peak / 1e9, "Gcmadd/s");
        report.show("kernel cmadd rate", achieved / 1e9, "Gcmadd/s");
        let triad = triad();
        if triad.roofline_ok {
            let bound = peak.min(triad.bytes_per_s * self.cmadds / bytes);
            report.show("sim.kernel_roofline_frac", achieved / bound, "ratio");
        } else {
            println!(
                "  sim.kernel_roofline_frac: not computed, a {} MiB triad array is below 4x the \
                 {} MiB last-level cache; see sim.kernel_ops_per_byte",
                triad.array_bytes >> 20,
                host::llc_bytes().unwrap_or(0) >> 20
            );
        }
        report.show("triad bandwidth", triad.bytes_per_s / 1e9, "GB/s");
    }
}

/// Complex multiply-adds per second on cache-resident data, per core:
/// sixteen independent chains `acc = acc·z + c` in split re/im arrays, a
/// shape the compiler vectorizes like the simulator's kernels.
pub fn cmadd_peak_per_s() -> f64 {
    const LANES: usize = 16;
    let (zr, zi) = std::hint::black_box((0.999_999_f64, 1e-6_f64));
    let (cr, ci) = std::hint::black_box((1e-9_f64, -1e-9_f64));
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut re = [1.0f64; LANES];
        let mut im = [0.0f64; LANES];
        let iters = 1_000_000u64;
        let t0 = Instant::now();
        for _ in 0..iters {
            for k in 0..LANES {
                let r = re[k] * zr - im[k] * zi + cr;
                let i = re[k] * zi + im[k] * zr + ci;
                re[k] = r;
                im[k] = i;
            }
        }
        let t = t0.elapsed().as_secs_f64();
        std::hint::black_box((re, im));
        best = best.max((iters * LANES as u64) as f64 / t);
    }
    best
}

pub struct Triad {
    pub bytes_per_s: f64,
    pub array_bytes: u64,
    /// Whether each array is at least four times the last-level cache, so
    /// the bandwidth is the memory's and a roofline fraction is valid.
    pub roofline_ok: bool,
}

/// STREAM-style triad `a = b + s·c` over three `f64` arrays, each the
/// smaller of 4× the last-level cache and 64 MiB; 24 bytes per element.
pub fn triad() -> Triad {
    const CAP: u64 = 64 << 20;
    let llc = host::llc_bytes().unwrap_or(CAP);
    let array_bytes = (4 * llc).min(CAP);
    let n = (array_bytes / 8) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = std::hint::black_box(0.5);
    let mut best = 0.0f64;
    for _ in 0..4 {
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        let t = t0.elapsed().as_secs_f64();
        std::hint::black_box(&a);
        best = best.max(24.0 * n as f64 / t);
    }
    Triad {
        bytes_per_s: best,
        array_bytes,
        roofline_ok: array_bytes >= 4 * llc,
    }
}

/// Adam step time (µs) on a parameter vector of length `n`.
pub fn optim_step_us(tr: &Tracer, n: usize) -> f64 {
    use plateau_core::{Adam, Optimizer};
    let mut adam = Adam::new(0.1).expect("valid lr");
    let mut params = vec![0.1; n];
    let grad: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() * 1e-2).collect();
    for k in 0..200 {
        tr.span("core.optim.step", None, 2_000_000 + k, |_| {
            adam.step(&mut params, &grad).expect("adam step")
        });
    }
    std::hint::black_box(&params);
    stats::median(&tr.durations("core.optim.step")) / 1e3
}

/// Fills the per-layer metrics a workload's own path does not produce.
/// Serve-layer metrics come from serving the workload's operations
/// through an in-process server; the optimizer metric from Adam steps
/// at the workload's parameter count.
pub fn fill_missing(ctx: &Ctx, workload: &str, report: &mut Report) {
    if report.get("core.optim_step_us").is_none() {
        let n = match workload {
            "fig5a_cell" => crate::fig5a::QUBITS * crate::fig5a::LAYERS,
            "wide_state" => 2 * crate::wide::QUBITS[0] * crate::wide::LAYERS,
            _ => 2 * crate::train::QUBITS * crate::train::LAYERS,
        };
        report.set("core.optim_step_us", optim_step_us(&ctx.tracer, n));
    }
    if report.get("serve.http_parse_us").is_none() {
        crate::serve::probe(ctx, workload, report);
    }
}
