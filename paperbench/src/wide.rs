//! `wide_state`: adjoint gradients of the training ansatz (Eq. 3, 5
//! layers) at 18 and 20 qubits, one call at a time.
//!
//! A state is 4 MB (18 qubits) or 16 MB (20 qubits), larger than a
//! per-core L2, so kernels stream from L3 or memory; above the simulator's
//! parallel threshold (17 qubits) `sim::parallel` splits each kernel
//! across threads; and the adjoint sweep's per-parameter state copy is a
//! full-state copy. No other workload reaches any of these.
//!
//! - main op: one 18-qubit gradient; alt op: one 20-qubit gradient.

use std::time::Instant;

use plateau_core::init::{FanMode, InitStrategy};
use plateau_core::{training_ansatz, Ansatz, CostKind};
use plateau_grad::{Adjoint, GradientEngine, ParameterShift};
use plateau_rng::{derive_seed, rngs::StdRng, Rng, SeedableRng};
use plateau_sim::Observable;

use crate::calib::{Paired, Shape};
use crate::layers::{self, Counters};
use crate::trace::Tracer;
use crate::{stats, time_setups, Ctx, Report, SETUPS};

pub const QUBITS: [usize; 2] = [18, 20];
pub const LAYERS: usize = 5;
/// Gradient sizes in the order one cycle runs them.
const CYCLE: [usize; 3] = [0, 0, 1];
/// Reference run for both widths: 16 qubits, two 1 MB states per member
/// and one member per core, so beyond L2 like the gradients.
const REF: Shape = Shape {
    qubits: 16,
    layers: LAYERS,
    members: 2,
    parallel: true,
};

struct Inputs {
    ansatz: [Ansatz; 2],
    obs: [Observable; 2],
}

fn inputs() -> Inputs {
    let build = |q| training_ansatz(q, LAYERS).expect("wide ansatz");
    Inputs {
        ansatz: [build(QUBITS[0]), build(QUBITS[1])],
        obs: QUBITS.map(|q| CostKind::Global.observable(q)),
    }
}

/// Parameters for call `i`: the paper strategies in turn, seeded per call.
fn params(a: &Ansatz, seed: u64, salt: u64, i: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x3D, salt, i));
    let strategy = InitStrategy::PAPER_SET[(i % 6) as usize];
    strategy
        .sample_params(&a.shape, FanMode::TensorShape, &mut rng)
        .expect("wide parameters")
}

struct Last {
    size: usize,
    params: Vec<f64>,
    grad: Vec<f64>,
}

struct Timed {
    paired: [Paired; 2],
    last: Vec<Last>,
}

fn timed_gradients(
    ctx: &Ctx,
    tr: &Tracer,
    inp: &Inputs,
    seconds: f64,
    salt: u64,
    probes: &mut layers::Probes,
) -> Timed {
    let mut t = Timed {
        paired: [Paired::new(REF), Paired::new(REF)],
        last: Vec::new(),
    };
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let size = CYCLE[i as usize % CYCLE.len()];
        let a = &inp.ansatz[size];
        let p = params(a, ctx.seed, salt, i);
        let op = salt * 1_000_000 + i;
        let grad = t.paired[size].op(|| {
            probes.alloc_of(|| {
                tr.span("grad.adjoint.gradient", None, op, |_| {
                    Adjoint
                        .gradient(&a.circuit, &p, &inp.obs[size])
                        .expect("adjoint gradient")
                })
            })
        });
        t.last.retain(|l| l.size != size);
        t.last.push(Last {
            size,
            params: p,
            grad,
        });
        i += 1;
    }
    t
}

/// Untimed: parameter-shift partials at the last parameter and two random
/// ones must match the adjoint gradient of the last call at each size.
fn check(ctx: &Ctx, inp: &Inputs, t: &Timed, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 0xC4EC, 3, 0));
    for last in &t.last {
        let a = &inp.ansatz[last.size];
        let n = a.circuit.n_params();
        for idx in [n - 1, rng.gen_range(0..n), rng.gen_range(0..n)] {
            let op = 4_000_000 + idx as u64;
            let ps = ctx.tracer.span("grad.shift.partial", None, op, |_| {
                ParameterShift
                    .partial(&a.circuit, &last.params, &inp.obs[last.size], idx)
                    .expect("shift partial")
            });
            report.check((ps - last.grad[idx]).abs() <= 1e-10, || {
                format!(
                    "wide q={} param {idx}: adjoint {:e} vs parameter-shift {ps:e}",
                    QUBITS[last.size], last.grad[idx]
                )
            });
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let set_up = || {
        let inp = inputs();
        let p = params(&inp.ansatz[0], ctx.seed, u64::MAX, 0);
        std::hint::black_box(inp.ansatz[0].circuit.run(&p).expect("warm-up run"));
        inp
    };
    let (inp, mut setups) = time_setups(SETUPS, set_up);
    let mut probes = layers::Probes::default();

    if !ctx.traced() {
        let t = timed_gradients(ctx, &ctx.tracer, &inp, ctx.seconds, 0, &mut probes);
        let [q18, q20] = &t.paired;
        let q18 = report.set_rel("main_rel", "wide.gradient q=18", q18);
        let q20 = report.set_rel("alt_rel", "wide.gradient q=20", q20);
        let n = q18.len() + q20.len();
        report.ops(n as u64, 0);
        report.set(
            "throughput_rel",
            n as f64 / (stats::sum(&q18) + stats::sum(&q20)),
        );
        report.set("peak_rss_mb", crate::host::peak_rss_mb());
        setups.extend(time_setups(SETUPS, set_up).1);
        report.set("setup_s", stats::median(&setups));
        check(ctx, &inp, &t, &mut report);
        return report;
    }

    let plain = timed_gradients(
        ctx,
        &Tracer::new(false),
        &inp,
        ctx.seconds / 2.0,
        1,
        &mut layers::Probes::default(),
    );
    let counters = Counters::start();
    let traced = timed_gradients(ctx, &ctx.tracer, &inp, ctx.seconds / 2.0, 2, &mut probes);
    let n = (traced.paired[0].ms().len() + traced.paired[1].ms().len()) as f64;
    // Every kernel forks inside `sim::parallel`: the gradient calls are the
    // walls that contain the fork-joins.
    counters.finish(
        &mut report,
        n,
        &ctx.tracer.durations("grad.adjoint.gradient"),
    );
    report.ops(
        (plain.paired[0].ms().len() + plain.paired[1].ms().len()) as u64 + n as u64,
        0,
    );
    report.set(
        "obs.trace_overhead_frac",
        stats::median(&traced.paired[0].ratios()) / stats::median(&plain.paired[0].ratios()) - 1.0,
    );
    report.set(
        "grad.adjoint_us",
        stats::median(&traced.paired[0].ms()) * 1e3,
    );

    let tr = &ctx.tracer;
    for (size, &q) in QUBITS.iter().enumerate() {
        let op = 5_000_000 + size as u64;
        let root = tr.open("wide.probe", None, op);
        let a = tr.span("core.training_ansatz", root.as_ref(), op, |_| {
            training_ansatz(q, LAYERS).expect("ansatz")
        });
        let p = tr.span("core.init.sample_params", root.as_ref(), op, |_| {
            params(&a, ctx.seed, 9, size as u64)
        });
        probes.circuit(tr, root.as_ref(), op, &a.circuit, &p, layers::Path::Raw);
        tr.close(root);
    }
    probes.finish(&mut report);
    layers::set_median_us(
        &mut report,
        tr,
        "core.ansatz_build_us",
        "core.training_ansatz",
    );
    layers::set_median_us(&mut report, tr, "core.init_us", "core.init.sample_params");
    report.set("core.train_overhead_frac", 0.0);
    check(ctx, &inp, &traced, &mut report);
    layers::set_median_us(&mut report, tr, "grad.shift_us", "grad.shift.partial");
    report
}
