//! `fig5a_cell`: the paper's Fig 5a variance cell.
//!
//! One cell is `variance_scan` with the RandomRotations ansatz (Eq. 2),
//! q = 10, L = 50, 200 circuits, the adjoint engine, and one paper
//! strategy; a pass runs the six strategies. Every ensemble member is a
//! distinct circuit, so gate kernels, the adjoint sweep and the
//! per-member ansatz build carry the work; `plateau_par` forks once per
//! cell and the fusion compiler is never reached.
//!
//! - main op: one q = 10 cell (→ `fig5a.samples_per_s`);
//! - alt op: the same cell at q = 4, where per-member overhead (ansatz
//!   build, parameter draw, allocation) outweighs the kernels.

use std::time::Instant;

use plateau_core::ansatz::variance_ansatz;
use plateau_core::init::{FanMode, InitStrategy};
use plateau_core::variance::{variance_scan, VarianceConfig, VariancePoint};
use plateau_grad::{Adjoint, GradientEngine, ParameterShift};
use plateau_rng::{derive_seed, rngs::StdRng, Rng, SeedableRng};

use crate::calib::{Paired, Shape};
use crate::layers::{self, Counters};
use crate::trace::Tracer;
use crate::{reference, stats, time_setups, Ctx, Report, SETUPS};

pub const QUBITS: usize = 10;
pub const ALT_QUBITS: usize = 4;
pub const LAYERS: usize = 50;
pub const CIRCUITS: usize = 200;

/// Reference runs: members spread over the cores, like a cell's.
const MAIN_REF: Shape = Shape {
    qubits: QUBITS,
    layers: LAYERS,
    members: 40,
    parallel: true,
};
const ALT_REF: Shape = Shape {
    qubits: ALT_QUBITS,
    layers: LAYERS,
    members: CIRCUITS,
    parallel: true,
};

/// The cell configuration `variance_scan` receives.
pub fn config(q: usize, seed: u64, n_circuits: usize) -> VarianceConfig {
    VarianceConfig {
        qubit_counts: vec![q],
        layers: LAYERS,
        n_circuits,
        fan_mode: FanMode::TensorShape,
        seed,
        ..VarianceConfig::default()
    }
}

/// Runs one cell: its variance and gradient samples.
pub fn cell(q: usize, seed: u64, strategy: InitStrategy) -> VariancePoint {
    let mut scan = variance_scan(&config(q, seed, CIRCUITS), &[strategy]).expect("variance cell");
    scan.curves.swap_remove(0).points.swap_remove(0)
}

struct Timed {
    main: Paired,
    alt: Paired,
    /// `(pass seed, strategy, q = 10 gradients)` of the last pass.
    last: Vec<(u64, InitStrategy, Vec<f64>)>,
}

/// Runs cells until `seconds` have elapsed: q = 10 and q = 4 for each
/// strategy in turn, a fresh pass seed per pass.
fn timed_cells(ctx: &Ctx, tr: &Tracer, seconds: f64, salt: u64) -> Timed {
    let mut t = Timed {
        main: Paired::new(MAIN_REF),
        alt: Paired::new(ALT_REF),
        last: Vec::new(),
    };
    let start = Instant::now();
    'passes: for pass in 0.. {
        let pass_seed = derive_seed(ctx.seed, 0xF5A, salt, pass);
        for (k, strategy) in InitStrategy::PAPER_SET.into_iter().enumerate() {
            if start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let op = (pass * 6 + k as u64) * 2;
            let s = tr.open("fig5a.cell", None, op);
            let grads = t.main.op(|| {
                tr.span("core.variance_scan", s.as_ref(), op, |_| {
                    cell(QUBITS, pass_seed, strategy).gradients
                })
            });
            tr.close(s);

            let s = tr.open("fig5a.cell_alt", None, op + 1);
            t.alt.op(|| {
                tr.span("core.variance_scan", s.as_ref(), op + 1, |_| {
                    cell(ALT_QUBITS, pass_seed, strategy)
                })
            });
            tr.close(s);

            t.last.retain(|(_, s, _)| *s != strategy);
            t.last.push((pass_seed, strategy, grads));
        }
    }
    t
}

/// Rebuilds member `i` of a cell the way `variance_scan` derives it.
fn member(q: usize, seed: u64, i: usize) -> plateau_core::Ansatz {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1, q as u64, i as u64));
    variance_ansatz(q, LAYERS, &mut rng).expect("member ansatz")
}

fn member_params(
    q: usize,
    seed: u64,
    strategy: InitStrategy,
    shape: &plateau_core::LayerShape,
    i: usize,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2, q as u64, i as u64));
    strategy
        .sample_params(shape, FanMode::TensorShape, &mut rng)
        .expect("member params")
}

/// Untimed checks: recorded references at the reference seed, and a
/// sample of each last-pass cell recomputed member by member with both
/// exact engines.
fn check(ctx: &Ctx, timed: &Timed, report: &mut Report) {
    for (k, strategy) in InitStrategy::PAPER_SET.into_iter().enumerate() {
        for (q, want) in [
            (QUBITS, reference::FIG5A_Q10[k]),
            (ALT_QUBITS, reference::FIG5A_Q4[k]),
        ] {
            let got = cell(q, reference::SEED, strategy).variance;
            report.check(stats::rel_diff(got, want) <= 1e-9, || {
                format!(
                    "fig5a reference {} q={q}: variance {got:e}, recorded {want:e}",
                    strategy.name()
                )
            });
        }
    }
    let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 0xC4EC, 0, 0));
    let obs = plateau_core::CostKind::Global.observable(QUBITS);
    for (seed, strategy, grads) in &timed.last {
        for _ in 0..3 {
            let i = rng.gen_range(0..CIRCUITS);
            let a = member(QUBITS, *seed, i);
            let params = member_params(QUBITS, *seed, *strategy, &a.shape, i);
            let adj = Adjoint
                .partial_last(&a.circuit, &params, &obs)
                .expect("adjoint");
            let ps = ParameterShift
                .partial_last(&a.circuit, &params, &obs)
                .expect("shift");
            report.check((adj - grads[i]).abs() <= 1e-10, || {
                format!(
                    "fig5a member {i} ({}): cell {:e} vs recomputed {adj:e}",
                    strategy.name(),
                    grads[i]
                )
            });
            report.check((adj - ps).abs() <= 1e-10, || {
                format!(
                    "fig5a member {i} ({}): adjoint {adj:e} vs parameter-shift {ps:e}",
                    strategy.name()
                )
            });
        }
    }
}

fn warm_up(ctx: &Ctx) {
    for (q, n) in [(QUBITS, 20), (ALT_QUBITS, CIRCUITS)] {
        let cfg = config(q, derive_seed(ctx.seed, 0x5E7, q as u64, 0), n);
        variance_scan(&cfg, &[InitStrategy::Random]).expect("warm-up cell");
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let ((), mut setups) = time_setups(SETUPS, || warm_up(ctx));

    if !ctx.traced() {
        let timed = timed_cells(ctx, &ctx.tracer, ctx.seconds, 0);
        let main = report.set_rel("main_rel", "fig5a q=10 cell", &timed.main);
        report.set_rel("alt_rel", "fig5a q=4 cell", &timed.alt);
        let main_ms = timed.main.ms();
        report.ops((main.len() + timed.alt.ms().len()) as u64, 0);
        report.set(
            "throughput_rel",
            (main.len() * CIRCUITS) as f64 / stats::sum(&main),
        );
        report.set("peak_rss_mb", crate::host::peak_rss_mb());
        setups.extend(time_setups(SETUPS, || warm_up(ctx)).1);
        report.set("setup_s", stats::median(&setups));
        report.show(
            "fig5a.samples_per_s",
            (main_ms.len() * CIRCUITS) as f64 / (stats::sum(&main_ms) / 1e3),
            "1/s",
        );
        check(ctx, &timed, &mut report);
        return report;
    }

    // Traced run: a plain half for the overhead baseline, then the same
    // cells with counters, allocation profiling and spans on.
    let plain = timed_cells(ctx, &Tracer::new(false), ctx.seconds / 2.0, 1);
    let counters = Counters::start();
    let traced = timed_cells(ctx, &ctx.tracer, ctx.seconds / 2.0, 2);
    let ops = traced.main.ms().len() + traced.alt.ms().len();
    counters.finish(
        &mut report,
        ops as f64,
        &ctx.tracer.durations("core.variance_scan"),
    );
    report.ops((plain.main.ms().len() + ops) as u64, 0);
    report.set(
        "obs.trace_overhead_frac",
        stats::median(&traced.main.ratios()) / stats::median(&plain.main.ratios()) - 1.0,
    );

    // Member-level probes on a sample of the last pass's members.
    let tr = &ctx.tracer;
    let obs = plateau_core::CostKind::Global.observable(QUBITS);
    let mut probes = layers::Probes::default();
    for (j, (seed, strategy, _)) in traced.last.iter().enumerate() {
        for i in 0..4 {
            let op = 1_000_000 + (j * 4 + i) as u64;
            let root = tr.open("fig5a.member", None, op);
            let a = tr.span("core.variance_ansatz", root.as_ref(), op, |_| {
                member(QUBITS, *seed, i)
            });
            let params = tr.span("core.init.sample_params", root.as_ref(), op, |_| {
                member_params(QUBITS, *seed, *strategy, &a.shape, i)
            });
            probes.circuit(
                tr,
                root.as_ref(),
                op,
                &a.circuit,
                &params,
                layers::Path::Raw,
            );
            probes.alloc_of(|| {
                tr.span("grad.adjoint.partial_last", root.as_ref(), op, |_| {
                    Adjoint
                        .partial_last(&a.circuit, &params, &obs)
                        .expect("adjoint")
                })
            });
            tr.span("grad.shift.partial_last", root.as_ref(), op, |_| {
                ParameterShift
                    .partial_last(&a.circuit, &params, &obs)
                    .expect("shift")
            });
            tr.close(root);
        }
    }
    probes.finish(&mut report);
    layers::set_median_us(
        &mut report,
        tr,
        "core.ansatz_build_us",
        "core.variance_ansatz",
    );
    layers::set_median_us(&mut report, tr, "core.init_us", "core.init.sample_params");
    layers::set_median_us(
        &mut report,
        tr,
        "grad.adjoint_us",
        "grad.adjoint.partial_last",
    );
    layers::set_median_us(&mut report, tr, "grad.shift_us", "grad.shift.partial_last");
    report.set("core.train_overhead_frac", 0.0);
    check(ctx, &traced, &mut report);
    report
}
