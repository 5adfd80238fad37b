//! `train_ivd`: the paper's §IV-D training run.
//!
//! 10 qubits, 5 layers (Eq. 3 ansatz: 145 gates, 100 parameters), global
//! cost, Adam at lr 0.1, 50 iterations per paper strategy, run once with
//! `Adjoint` and once with `ParameterShift` from the same initial
//! parameters, through the program's own training loop
//! (`plateau_core::train_with_engine`). The circuit structure is fixed, so
//! compile-once and the `BatchExecutor` scratch reuse matter here; each
//! parameter-shift step is one `plateau_par` fork-join of 200 short
//! evaluations, while the adjoint path is serial.
//!
//! Iteration times come from the training loop itself: the engine handed
//! to it is a thin wrapper that stamps each gradient call, and iteration
//! `k` runs from gradient call `k` to gradient call `k + 1` (gradient,
//! optimizer step, loss evaluation and bookkeeping).
//!
//! - main op: one parameter-shift iteration (→ `train.shift_step_ms`);
//! - alt op: one adjoint iteration (→ `train.adjoint_step_ms`).

use std::cell::RefCell;
use std::time::Instant;

use plateau_core::init::{FanMode, InitStrategy};
use plateau_core::{training_ansatz, Adam, Ansatz, CostKind, TrainingHistory};
use plateau_grad::{Adjoint, BatchExecutor, GradientEngine, ParameterShift};
use plateau_rng::{derive_seed, rngs::StdRng, SeedableRng};
use plateau_sim::{Circuit, Observable, SimError};

use crate::calib::{Paired, Shape};
use crate::layers::{self, Counters};
use crate::trace::Tracer;
use crate::{reference, stats, time_setups, Ctx, Report, SETUPS};

pub const QUBITS: usize = 10;
pub const LAYERS: usize = 5;
pub const ITERATIONS: usize = 50;
pub const LR: f64 = 0.1;

/// Reference runs, one between every two iterations: a parameter-shift
/// step forks over the cores, an adjoint step is serial.
const SHIFT_REF: Shape = Shape {
    qubits: QUBITS,
    layers: LAYERS,
    members: 40,
    parallel: true,
};
const ADJOINT_REF: Shape = Shape {
    qubits: QUBITS,
    layers: LAYERS,
    members: 4,
    parallel: false,
};

/// One gradient call: the previous iteration's end, the index of the
/// reference run made before this call (if any), and the call's start and
/// end.
struct Call {
    previous_end: Instant,
    reference: Option<usize>,
    start: Instant,
    end: Instant,
}

/// Delegates to an engine and stamps every call. With `paired`, a
/// reference run goes between one iteration's end and the next call's
/// start, outside every iteration.
struct Clocked<'a> {
    inner: &'a dyn GradientEngine,
    calls: RefCell<Vec<Call>>,
    paired: Option<RefCell<&'a mut Paired>>,
}

impl GradientEngine for Clocked<'_> {
    fn gradient(&self, c: &Circuit, p: &[f64], o: &Observable) -> Result<Vec<f64>, SimError> {
        let previous_end = Instant::now();
        let reference = self.paired.as_ref().map(|p| p.borrow_mut().reference());
        let start = Instant::now();
        let g = self.inner.gradient(c, p, o);
        self.calls.borrow_mut().push(Call {
            previous_end,
            reference,
            start,
            end: Instant::now(),
        });
        g
    }
}

/// One training run: the history plus per-iteration
/// `(start, gradient end, end)` stamps.
struct Run {
    history: TrainingHistory,
    iterations: Vec<(Instant, Instant, Instant)>,
}

/// Trains for `iterations` steps. With `paired`, every iteration runs
/// between two reference runs and is recorded there.
fn train_run(
    a: &Ansatz,
    obs: &Observable,
    theta0: Vec<f64>,
    engine: &dyn GradientEngine,
    iterations: usize,
    mut paired: Option<&mut Paired>,
) -> Run {
    let clocked = Clocked {
        inner: engine,
        calls: RefCell::new(Vec::with_capacity(iterations)),
        paired: paired.as_deref_mut().map(RefCell::new),
    };
    let mut adam = Adam::new(LR).expect("valid lr");
    let history =
        plateau_core::train_with_engine(&a.circuit, obs, theta0, &mut adam, iterations, &clocked)
            .expect("training run");
    let end = Instant::now();
    let calls = clocked.calls.into_inner();
    let iterations: Vec<_> = calls
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let next = calls.get(k + 1).map_or(end, |n| n.previous_end);
            (c.start, c.end, next)
        })
        .collect();
    if let Some(paired) = paired {
        paired.reference();
        for (c, ms) in calls.iter().zip(ms(&iterations)) {
            paired.record(c.reference.expect("paired calls run a reference"), ms);
        }
    }
    Run {
        history,
        iterations,
    }
}

fn ms(iters: &[(Instant, Instant, Instant)]) -> impl Iterator<Item = f64> + '_ {
    iters
        .iter()
        .map(|(s, _, e)| e.duration_since(*s).as_secs_f64() * 1e3)
}

/// Initial parameters for strategy `k` of pass `pass`.
pub fn theta0(a: &Ansatz, seed: u64, pass: u64, k: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x7A1, pass, k as u64));
    InitStrategy::PAPER_SET[k]
        .sample_params(&a.shape, FanMode::TensorShape, &mut rng)
        .expect("initial parameters")
}

/// Final adjoint-trained loss of strategy `k` at `seed`, pass 0 — the
/// recorded reference quantity.
pub fn reference_loss(seed: u64, k: usize) -> f64 {
    let a = training_ansatz(QUBITS, LAYERS).expect("ansatz");
    let obs = CostKind::Global.observable(QUBITS);
    train_run(&a, &obs, theta0(&a, seed, 0, k), &Adjoint, ITERATIONS, None)
        .history
        .final_loss()
}

/// Iteration times, each iteration between two reference runs.
struct Timed {
    shift: Paired,
    adjoint: Paired,
    pairs: usize,
}

/// Trains (adjoint, then parameter-shift) pairs, cycling the strategies,
/// until `seconds` have elapsed; checks each pair's final losses agree.
/// (The engines' gradients agree to ~1e-12; fifty Adam steps amplify that
/// to ~1e-8 relative on a plateau, so the trajectory check is 1e-6.)
fn timed_pairs(ctx: &Ctx, tr: &Tracer, seconds: f64, salt: u64, report: &mut Report) -> Timed {
    let a = training_ansatz(QUBITS, LAYERS).expect("ansatz");
    let obs = CostKind::Global.observable(QUBITS);
    let mut t = Timed {
        shift: Paired::new(SHIFT_REF),
        adjoint: Paired::new(ADJOINT_REF),
        pairs: 0,
    };
    let start = Instant::now();
    let mut op = salt * 1_000_000;
    for pass in 0.. {
        for k in 0..InitStrategy::PAPER_SET.len() {
            if start.elapsed().as_secs_f64() >= seconds {
                return t;
            }
            let theta = theta0(&a, ctx.seed, derive_seed(salt, pass, 0, 0), k);
            let adj = train_run(
                &a,
                &obs,
                theta.clone(),
                &Adjoint,
                ITERATIONS,
                Some(&mut t.adjoint),
            );
            let ps = train_run(
                &a,
                &obs,
                theta,
                &ParameterShift,
                ITERATIONS,
                Some(&mut t.shift),
            );
            t.pairs += 1;
            for (name, run) in [("train.adjoint_step", &adj), ("train.shift_step", &ps)] {
                for &(s, g, e) in &run.iterations {
                    let root = tr.record(name, None, op, s, e);
                    tr.record("grad.gradient", Some(root), op, s, g);
                    op += 1;
                }
            }
            let (la, ls) = (adj.history.final_loss(), ps.history.final_loss());
            report.check(stats::rel_diff(la, ls) <= 1e-6, || {
                format!(
                    "train {}: adjoint final loss {la:e} vs parameter-shift {ls:e}",
                    InitStrategy::PAPER_SET[k].name()
                )
            });
        }
    }
    unreachable!("the pass loop only ends by returning")
}

/// Untimed checks: the recorded final losses at the reference seed, and
/// adjoint against parameter-shift gradients at one initial point per
/// strategy (1e-10 absolute).
fn check(ctx: &Ctx, report: &mut Report) {
    let a = training_ansatz(QUBITS, LAYERS).expect("ansatz");
    let obs = CostKind::Global.observable(QUBITS);
    for k in 0..InitStrategy::PAPER_SET.len() {
        let theta = theta0(&a, ctx.seed, u64::MAX - 1, k);
        let adj = Adjoint.gradient(&a.circuit, &theta, &obs).expect("adjoint");
        let ps = ParameterShift
            .gradient(&a.circuit, &theta, &obs)
            .expect("shift");
        let worst = adj
            .iter()
            .zip(&ps)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        report.check(worst <= 1e-10, || {
            format!(
                "train {}: adjoint and parameter-shift gradients differ by {worst:e}",
                InitStrategy::PAPER_SET[k].name()
            )
        });
    }
    for (k, &want) in reference::TRAIN_FINAL_LOSS.iter().enumerate() {
        let got = reference_loss(reference::SEED, k);
        report.check(stats::rel_diff(got, want) <= 1e-9, || {
            format!(
                "train reference {}: final loss {got:e}, recorded {want:e}",
                InitStrategy::PAPER_SET[k].name()
            )
        });
    }
}

fn set_up(ctx: &Ctx) {
    let a = training_ansatz(QUBITS, LAYERS).expect("ansatz");
    let obs = CostKind::Global.observable(QUBITS);
    for engine in [&Adjoint as &dyn GradientEngine, &ParameterShift] {
        train_run(&a, &obs, theta0(&a, ctx.seed, u64::MAX, 0), engine, 2, None);
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let ((), mut setups) = time_setups(SETUPS, || set_up(ctx));

    if !ctx.traced() {
        let t = timed_pairs(ctx, &ctx.tracer, ctx.seconds, 0, &mut report);
        let shift = report.set_rel("main_rel", "train.shift_step", &t.shift);
        let adjoint = report.set_rel("alt_rel", "train.adjoint_step", &t.adjoint);
        let n = shift.len() + adjoint.len();
        report.ops(n as u64, 0);
        report.set(
            "throughput_rel",
            n as f64 / (stats::sum(&shift) + stats::sum(&adjoint)),
        );
        report.set("peak_rss_mb", crate::host::peak_rss_mb());
        setups.extend(time_setups(SETUPS, || set_up(ctx)).1);
        report.set("setup_s", stats::median(&setups));
        report.show("train pairs (strategy runs)", t.pairs as f64, "count");
        check(ctx, &mut report);
        return report;
    }

    let plain = timed_pairs(ctx, &Tracer::new(false), ctx.seconds / 2.0, 1, &mut report);
    let counters = Counters::start();
    let traced = timed_pairs(ctx, &ctx.tracer, ctx.seconds / 2.0, 2, &mut report);
    let iterations = (traced.shift.ms().len() + traced.adjoint.ms().len()) as f64;
    // Parameter-shift gradients are the phase's fork-joins.
    let shift_grads = ctx
        .tracer
        .children_durations("train.shift_step", "grad.gradient");
    let adjoint_grads = ctx
        .tracer
        .children_durations("train.adjoint_step", "grad.gradient");
    counters.finish(&mut report, iterations, &shift_grads);
    report.ops(
        (plain.shift.ms().len() + plain.adjoint.ms().len()) as u64 + iterations as u64,
        0,
    );
    report.set(
        "obs.trace_overhead_frac",
        stats::median(&traced.shift.ratios()) / stats::median(&plain.shift.ratios()) - 1.0,
    );
    report.set("grad.shift_us", stats::median(&shift_grads) / 1e3);
    report.set("grad.adjoint_us", stats::median(&adjoint_grads) / 1e3);

    // Probes on the fixed §IV-D circuit.
    let tr = &ctx.tracer;
    let obs = CostKind::Global.observable(QUBITS);
    let mut probes = layers::Probes::default();
    let mut ex_loss = Vec::new();
    for i in 0..20u64 {
        let op = 3_000_000 + i;
        let root = tr.open("train.probe", None, op);
        let a = tr.span("core.training_ansatz", root.as_ref(), op, |_| {
            training_ansatz(QUBITS, LAYERS).expect("ansatz")
        });
        let theta = tr.span("core.init.sample_params", root.as_ref(), op, |_| {
            theta0(&a, ctx.seed, 7 + i, (i % 6) as usize)
        });
        probes.circuit(tr, root.as_ref(), op, &a.circuit, &theta, layers::Path::Raw);
        probes.alloc_of(|| Adjoint.gradient(&a.circuit, &theta, &obs).expect("adjoint"));
        // The loop keeps one executor for the whole run: time a warm call.
        let mut ex = BatchExecutor::new(&a.circuit);
        ex.expectation(&theta, &obs).expect("loss");
        let t0 = Instant::now();
        tr.span("grad.batch.expectation", root.as_ref(), op, |_| {
            ex.expectation(&theta, &obs).expect("loss")
        });
        ex_loss.push(t0.elapsed().as_nanos() as f64);
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
    report.set(
        "core.optim_step_us",
        layers::optim_step_us(tr, 2 * QUBITS * LAYERS),
    );

    // Loop overhead on the adjoint runs: the share of an iteration that is
    // neither the gradient nor the loss evaluation.
    let adj_steps = tr.durations("train.adjoint_step");
    let loss_ns = stats::median(&ex_loss);
    report.set(
        "core.train_overhead_frac",
        1.0 - (stats::sum(&adjoint_grads) + adj_steps.len() as f64 * loss_ns)
            / stats::sum(&adj_steps),
    );
    report.show("train loss evaluation", loss_ns / 1e3, "us");
    check(ctx, &mut report);
    report
}
