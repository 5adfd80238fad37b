//! Cross-engine gradient agreement on the paper's ansätze, including
//! property-based tests: adjoint ≡ parameter-shift ≡ finite differences
//! for arbitrary angles.

use plateau_core::ansatz::{training_ansatz, variance_ansatz};
use plateau_core::cost::CostKind;
use plateau_grad::{Adjoint, FiniteDifference, GradientEngine, ParameterShift};
use plateau_rng::check::{forall, DEFAULT_CASES};
use plateau_rng::rngs::StdRng;
use plateau_rng::{prop_assert, prop_assert_eq, Rng, SeedableRng};

#[test]
fn engines_agree_on_training_ansatz() {
    let ansatz = training_ansatz(4, 3).expect("ansatz");
    let params: Vec<f64> = (0..ansatz.circuit.n_params())
        .map(|i| ((i * 37 % 19) as f64) * 0.3 - 2.0)
        .collect();
    for cost in [CostKind::Global, CostKind::Local] {
        let obs = cost.observable(4);
        let adj = Adjoint.gradient(&ansatz.circuit, &params, &obs).expect("adjoint");
        let shift = ParameterShift
            .gradient(&ansatz.circuit, &params, &obs)
            .expect("shift");
        let fd = FiniteDifference::default()
            .gradient(&ansatz.circuit, &params, &obs)
            .expect("fd");
        for i in 0..params.len() {
            assert!((adj[i] - shift[i]).abs() < 1e-10, "{cost} adj vs shift at {i}");
            assert!((adj[i] - fd[i]).abs() < 1e-6, "{cost} adj vs fd at {i}");
        }
    }
}

#[test]
fn engines_agree_on_random_variance_circuits() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ansatz = variance_ansatz(3, 5, &mut rng).expect("ansatz");
        let params: Vec<f64> = (0..ansatz.circuit.n_params())
            .map(|i| ((seed as f64) + i as f64 * 0.71).sin() * 3.0)
            .collect();
        let obs = CostKind::Global.observable(3);
        let adj = Adjoint.gradient(&ansatz.circuit, &params, &obs).expect("adjoint");
        let shift = ParameterShift
            .gradient(&ansatz.circuit, &params, &obs)
            .expect("shift");
        for (a, s) in adj.iter().zip(shift.iter()) {
            assert!((a - s).abs() < 1e-10, "seed {seed}: {a} vs {s}");
        }
    }
}

#[test]
fn partial_last_is_consistent_across_engines() {
    let mut rng = StdRng::seed_from_u64(9);
    let ansatz = variance_ansatz(4, 6, &mut rng).expect("ansatz");
    let params: Vec<f64> = (0..ansatz.circuit.n_params())
        .map(|i| (i as f64 * 1.3).cos() * 2.0)
        .collect();
    let obs = CostKind::Global.observable(4);
    let a = Adjoint.partial_last(&ansatz.circuit, &params, &obs).expect("adjoint");
    let s = ParameterShift
        .partial_last(&ansatz.circuit, &params, &obs)
        .expect("shift");
    let f = FiniteDifference::default()
        .partial_last(&ansatz.circuit, &params, &obs)
        .expect("fd");
    assert!((a - s).abs() < 1e-10);
    assert!((a - f).abs() < 1e-6);
}

/// For arbitrary angle vectors on a 3-qubit, 2-layer training ansatz,
/// the exact engines agree to near machine precision and the gradient
/// obeys the parameter-shift trigonometric structure (bounded by 1).
#[test]
fn gradients_agree_for_arbitrary_angles() {
    forall(
        0x67726164,
        DEFAULT_CASES,
        |rng| -> Vec<f64> { (0..12).map(|_| rng.gen_range(-6.0..6.0)).collect() },
        |raw| {
            let ansatz = training_ansatz(3, 1).expect("ansatz");
            prop_assert_eq!(ansatz.circuit.n_params(), 6);
            let params: Vec<f64> = raw.iter().copied().take(6).collect();
            let obs = CostKind::Global.observable(3);
            let adj = Adjoint.gradient(&ansatz.circuit, &params, &obs).expect("adjoint");
            let shift = ParameterShift.gradient(&ansatz.circuit, &params, &obs).expect("shift");
            for (a, s) in adj.iter().zip(shift.iter()) {
                prop_assert!((a - s).abs() < 1e-9);
                // Cost is in [0,1]; a single π/2-shift rule bounds |∂C| by 1.
                prop_assert!(a.abs() <= 1.0 + 1e-9);
            }
            Ok(())
        },
    );
}

/// Regression pin for adjoint differentiation over the fused kernels (CZ
/// layers stepped back as one sweep, the prologue forward): on the
/// paper's Fig 5b training configuration (scaled to a debug-build size),
/// the adjoint gradient must match parameter-shift values (each a
/// one-shot `partial`) to 1e-10 for both cost functions.
#[test]
fn fused_adjoint_matches_parameter_shift_on_fig5b_ansatz() {
    let ansatz = training_ansatz(6, 4).expect("ansatz");
    let params: Vec<f64> = (0..ansatz.circuit.n_params())
        .map(|i| ((i * 41 % 23) as f64) * 0.27 - 2.9)
        .collect();
    for cost in [CostKind::Global, CostKind::Local] {
        let obs = cost.observable(6);
        let fused = Adjoint.gradient(&ansatz.circuit, &params, &obs).expect("fused adjoint");
        for (i, f) in fused.iter().enumerate() {
            let shift = ParameterShift
                .partial(&ansatz.circuit, &params, &obs, i)
                .expect("shift");
            assert!(
                (f - shift).abs() < 1e-10,
                "{cost} param {i}: fused {f} vs shift {shift}"
            );
        }
    }
}

/// Adjoint gradients read off the one-run value-and-gradient sweep — the
/// service's `/gradient` path.
struct ValueAndGradient;

impl GradientEngine for ValueAndGradient {
    fn gradient(
        &self,
        circuit: &plateau_sim::Circuit,
        params: &[f64],
        obs: &plateau_sim::Observable,
    ) -> Result<Vec<f64>, plateau_sim::SimError> {
        Ok(plateau_grad::adjoint_value_and_gradient(circuit, params, obs)?.1)
    }
}

/// The paper's headline artifacts — variance-scan curves and the
/// `BarrenPlateauAlarm` event stream during training — must not depend on
/// which entry point runs the fused kernels. The batched executor behind
/// a Training-ansatz cell and a one-shot engine call walk the same op
/// list, as do the adjoint engine and the one-run value-and-gradient
/// sweep. At a fixed seed: same alarm iterations and bit-identical
/// values.
#[test]
fn variance_scan_and_plateau_alarm_are_stable_under_fusion() {
    use plateau_core::init::InitStrategy;
    use plateau_core::optim::GradientDescent;
    use plateau_core::train::{train_with_alarm, BarrenPlateauAlarm};
    use plateau_core::variance::{variance_scan, AnsatzKind, VarianceConfig};
    use plateau_rng::derive_seed;

    let cfg = VarianceConfig {
        qubit_counts: vec![2, 3],
        layers: 4,
        n_circuits: 6,
        seed: 0xf0e5,
        ansatz: AnsatzKind::Training,
        ..VarianceConfig::default()
    };
    let strategies = [InitStrategy::Random, InitStrategy::He];
    let scan = variance_scan(&cfg, &strategies).expect("scan");
    for (s_idx, (curve, strategy)) in scan.curves.iter().zip(&strategies).enumerate() {
        for point in &curve.points {
            // The op-list reference: member i's parameter draw (the
            // documented derive_seed(seed, 2 + strategy, q, i) stream)
            // differentiated by a one-shot adjoint partial.
            let q = point.n_qubits;
            let a = training_ansatz(q, cfg.layers).expect("ansatz");
            let obs = cfg.cost.observable(q);
            let raw: Vec<f64> = (0..cfg.n_circuits)
                .map(|i| {
                    let seed = derive_seed(cfg.seed, 2 + s_idx as u64, q as u64, i as u64);
                    let params = strategy
                        .sample_params(&a.shape, cfg.fan_mode, &mut StdRng::seed_from_u64(seed))
                        .expect("params");
                    Adjoint.partial_last(&a.circuit, &params, &obs).expect("partial")
                })
                .collect();
            assert_eq!(point.gradients.len(), raw.len());
            for (f, r) in point.gradients.iter().zip(&raw) {
                assert_eq!(f.to_bits(), r.to_bits(), "{strategy} q={q}: batched {f} vs one-shot {r}");
            }
            // Same seed → same circuits → identical statistics.
            let (f, r) = (point.variance, plateau_stats::variance(&raw));
            assert_eq!(f.to_bits(), r.to_bits(), "variance drifted: {r} vs {f}");
        }
    }

    let run_training = |engine: &dyn GradientEngine| {
        let ansatz = training_ansatz(4, 3).expect("ansatz");
        let obs = CostKind::Global.observable(4);
        // Angles big enough to wander through flat regions and trip the
        // alarm deterministically.
        let theta0: Vec<f64> = (0..ansatz.circuit.n_params())
            .map(|i| ((i * 13 % 7) as f64) * 0.4 - 1.1)
            .collect();
        let mut opt = GradientDescent::new(0.05).expect("optimizer");
        let alarm = BarrenPlateauAlarm::default();
        train_with_alarm(&ansatz.circuit, &obs, theta0, &mut opt, 12, engine, &alarm)
            .expect("training")
    };
    let raw_hist = run_training(&Adjoint);
    let fused_hist = run_training(&ValueAndGradient);

    // Alarm decisions are thresholded bits: the event stream (which
    // iterations fired) must be *identical*, and so must the norms.
    let raw_alarms = raw_hist.plateau_alarms();
    let fused_alarms = fused_hist.plateau_alarms();
    assert_eq!(
        raw_alarms.iter().map(|a| a.iteration).collect::<Vec<_>>(),
        fused_alarms.iter().map(|a| a.iteration).collect::<Vec<_>>()
    );
    for (r, f) in raw_alarms.iter().zip(fused_alarms) {
        assert_eq!(r.grad_norm.to_bits(), f.grad_norm.to_bits());
    }
    for (r, f) in raw_hist.losses().iter().zip(fused_hist.losses()) {
        assert_eq!(r.to_bits(), f.to_bits());
    }
}

/// Gradients are 2π-periodic in every parameter.
#[test]
fn gradient_is_two_pi_periodic() {
    forall(
        0x706572,
        DEFAULT_CASES,
        |rng| {
            let raw: Vec<f64> = (0..6).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let which = rng.gen_range(0..6usize);
            (raw, which)
        },
        |(raw, which)| {
            let ansatz = training_ansatz(3, 1).expect("ansatz");
            let obs = CostKind::Global.observable(3);
            let params: Vec<f64> = raw.clone();
            let mut shifted = raw.clone();
            shifted[*which] += 2.0 * std::f64::consts::PI;
            let g1 = Adjoint.gradient(&ansatz.circuit, &params, &obs).expect("g1");
            let g2 = Adjoint.gradient(&ansatz.circuit, &shifted, &obs).expect("g2");
            for (a, b) in g1.iter().zip(g2.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
            Ok(())
        },
    );
}
