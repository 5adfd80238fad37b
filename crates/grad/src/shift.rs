//! Parameter-shift differentiation.
//!
//! For a gate `R(θ) = exp(-i θ G / 2)` with `G² = I` (all of RX/RY/RZ and,
//! up to an expectation-invisible global phase, Phase), the derivative of
//! any expectation value obeys the exact two-term rule
//!
//! ```text
//! ∂E/∂θ = ( E(θ + π/2) − E(θ − π/2) ) / 2
//! ```
//!
//! Controlled rotations have generators with *two* spectral gaps, so they
//! need the four-term rule with shifts `π/2` and `3π/2`
//! (the same rule PennyLane uses for CRX/CRY/CRZ).
//!
//! This is the textbook method the paper's PennyLane pipeline exposes; the
//! [`crate::Adjoint`] engine is the fast path and is cross-checked against
//! this one in tests.
//!
//! # Cost
//!
//! Every shifted evaluation is an exact `E(θ ± s·e_i)`, but none restarts
//! from `|0…0⟩`: the gates before `θ_i`'s first gate see the same angles
//! in all of `θ_i`'s shifted circuits, so the batched executor walks the
//! unshifted circuit forward once and each shifted run copies that prefix
//! and applies only the gates from `θ_i`'s gate onward. A gradient over an
//! `N`-gate circuit costs one forward walk per chunk (at most 8) plus
//! `N − p_i` gates per shifted evaluation of `θ_i`, where `p_i` is
//! `θ_i`'s first gate — on the paper's §IV-D ansatz 15,944 gate
//! applications instead of `2k · N` = 29,000 — with results
//! bit-identical to the restart-from-zero evaluation (see
//! [`crate::BatchExecutor`]).
//!
//! A full gradient runs the circuit `2k` times, so it compiles first and
//! walks compiled segments instead of gates (on the §IV-D ansatz, 145
//! gates become 105 segments: each layer's CZ chain is one diagonal
//! superkernel, and the first rotation layer runs as the product-state
//! prologue). A single `partial` runs it two or four times, so
//! it walks the op list — the crate's compile rule, stated in the
//! `engine` module.

use crate::batch::BatchExecutor;
use crate::engine::{Evaluator, GradientEngine};
use plateau_sim::{Circuit, Observable, Op, SimError};
use std::f64::consts::{FRAC_PI_2, SQRT_2};

/// The parameter-shift gradient engine.
///
/// # Examples
///
/// ```
/// use plateau_grad::{GradientEngine, ParameterShift};
/// use plateau_sim::{Circuit, Observable};
///
/// let mut c = Circuit::new(1)?;
/// c.ry(0)?;
/// let obs = Observable::global_cost(1);
/// // C(θ) = sin²(θ/2) → dC/dθ = sin(θ)/2
/// let theta = 0.8f64;
/// let g = ParameterShift.gradient(&c, &[theta], &obs)?;
/// assert!((g[0] - theta.sin() / 2.0).abs() < 1e-12);
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParameterShift;

/// Kind of shift rule a parameter needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShiftRule {
    /// Single-qubit rotation: two-term rule, shift π/2, coefficient 1/2.
    TwoTerm,
    /// Controlled rotation: four-term rule.
    FourTerm,
}

pub(crate) fn rule_for_param(circuit: &Circuit, index: usize) -> Result<ShiftRule, SimError> {
    let op_idx = circuit
        .op_of_param(index)
        .ok_or(SimError::ParamOutOfRange {
            index,
            n_params: circuit.n_params(),
        })?;
    Ok(match &circuit.ops()[op_idx] {
        // Pauli and Pauli-product generators square to the identity →
        // exact two-term rule.
        Op::Rotation { .. } | Op::TwoQubitRotation { .. } => ShiftRule::TwoTerm,
        Op::ControlledRotation { .. } => ShiftRule::FourTerm,
        Op::Fixed { .. } => unreachable!("fixed ops own no parameters"),
    })
}

/// One shifted-circuit evaluation of the parameter-shift sum:
/// contributes `coeff · E(θ with θ[param] += shift)` to `∂E/∂θ[param]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShiftJob {
    pub(crate) param: usize,
    pub(crate) shift: f64,
    pub(crate) coeff: f64,
}

/// Appends the shift jobs for one parameter, **without** counter
/// accounting — the batched executor multiplies one parameter's jobs
/// across a whole ensemble and bumps the counter itself.
pub(crate) fn jobs_for_param(
    circuit: &Circuit,
    index: usize,
    jobs: &mut Vec<ShiftJob>,
) -> Result<(), SimError> {
    match rule_for_param(circuit, index)? {
        ShiftRule::TwoTerm => {
            jobs.push(ShiftJob { param: index, shift: FRAC_PI_2, coeff: 0.5 });
            jobs.push(ShiftJob { param: index, shift: -FRAC_PI_2, coeff: -0.5 });
        }
        ShiftRule::FourTerm => {
            // PennyLane's four-term rule for controlled rotations:
            // c± = (√2 ± 1) / (4√2), shifts π/2 and 3π/2.
            let c1 = (SQRT_2 + 1.0) / (4.0 * SQRT_2);
            let c2 = (SQRT_2 - 1.0) / (4.0 * SQRT_2);
            jobs.push(ShiftJob { param: index, shift: FRAC_PI_2, coeff: c1 });
            jobs.push(ShiftJob { param: index, shift: -FRAC_PI_2, coeff: -c1 });
            jobs.push(ShiftJob { param: index, shift: 3.0 * FRAC_PI_2, coeff: -c2 });
            jobs.push(ShiftJob { param: index, shift: -3.0 * FRAC_PI_2, coeff: c2 });
        }
    }
    Ok(())
}

/// Appends the shift jobs for one parameter and bumps the execution
/// counter by the number of circuit evaluations they will cost.
fn push_jobs(circuit: &Circuit, index: usize, jobs: &mut Vec<ShiftJob>) -> Result<(), SimError> {
    let before = jobs.len();
    jobs_for_param(circuit, index, jobs)?;
    plateau_obs::counter!("grad.executions.parameter_shift").add((jobs.len() - before) as u64);
    Ok(())
}

impl ParameterShift {
    /// The full gradient through `ex`'s evaluator, from a pre-validated
    /// parameter vector.
    pub(crate) fn gradient_with(
        ex: &mut BatchExecutor,
        params: &[f64],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        plateau_obs::counter!("grad.gradients.parameter_shift").inc();
        let n = ex.n_params();
        let mut jobs = Vec::with_capacity(2 * n);
        for i in 0..n {
            push_jobs(ex.circuit(), i, &mut jobs)?;
        }
        // Every job is an independent circuit evaluation, so a gradient
        // with k parameters exposes 2k (4k for controlled rotations)
        // evaluations. The batched executor owns the serial/parallel
        // routing, the per-worker scratch states and the shared prefixes;
        // the jobs travel as (index, shift) pairs against the one base
        // vector — O(k) bytes — instead of 2k materialized copies of
        // `params`. Every route evaluates identical parameter vectors and
        // the fold below runs in job order, so the result does not depend
        // on which path ran.
        let job = |j: usize| (0, jobs[j].param, jobs[j].shift);
        let evals = ex.shifted_sweep(&[params], jobs.len(), job, obs)?;
        let mut grad = vec![0.0; n];
        for (j, e) in jobs.iter().zip(&evals) {
            grad[j.param] += j.coeff * e;
        }
        Ok(grad)
    }

    /// One partial through `ex`'s evaluator, from a pre-validated
    /// parameter vector and index.
    pub(crate) fn partial_with(
        ex: &mut BatchExecutor,
        params: &[f64],
        obs: &Observable,
        index: usize,
    ) -> Result<f64, SimError> {
        let mut jobs = Vec::with_capacity(4);
        push_jobs(ex.circuit(), index, &mut jobs)?;
        let evals = ex.shifted_sweep(&[params], jobs.len(), |j| (0, index, jobs[j].shift), obs)?;
        Ok(jobs
            .iter()
            .zip(&evals)
            .map(|(j, e)| j.coeff * e)
            .sum())
    }
}

impl GradientEngine for ParameterShift {
    /// `2k` (or `4k`) shifted evaluations of one circuit: compiled once,
    /// then swept through [`BatchExecutor`].
    fn gradient(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        circuit.check_params(params)?;
        Self::gradient_with(&mut BatchExecutor::new(circuit), params, obs)
    }

    /// Two (or four) shifted evaluations from one shared prefix walk, on
    /// the op list: too few runs to pay for a compile.
    fn partial(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
        index: usize,
    ) -> Result<f64, SimError> {
        crate::engine::check_index(circuit, index)?;
        circuit.check_params(params)?;
        let mut ex = BatchExecutor::with_evaluator(circuit, Evaluator::Raw(circuit));
        Self::partial_with(&mut ex, params, obs, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{random_case, run_alone, training_shape, RandomCase};
    use plateau_rng::Rng;
    use plateau_sim::RotationGate;

    #[test]
    fn ry_global_cost_analytic() {
        let _guard = plateau_obs::test_lock();
        // C(θ) = sin²(θ/2), C'(θ) = sin(θ)/2.
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        let obs = Observable::global_cost(1);
        for theta in [-2.0f64, -0.3, 0.0, 0.9, 2.4] {
            let g = ParameterShift.gradient(&c, &[theta], &obs).unwrap();
            assert!((g[0] - theta.sin() / 2.0).abs() < 1e-12, "θ={theta}");
        }
    }

    #[test]
    fn rx_then_ry_chain_rule() {
        let _guard = plateau_obs::test_lock();
        // ψ = RY(φ) RX(θ) |0⟩; C = 1 - p0.
        // p0 = |cos(φ/2)cos(θ/2)|² + |sin(φ/2)|²·... compute by finite diff
        // comparison instead (this is the role of FiniteDifference, but do a
        // local 5-point check here for independence).
        let mut c = Circuit::new(1).unwrap();
        c.rx(0).unwrap().ry(0).unwrap();
        let obs = Observable::global_cost(1);
        let params = [0.7, -1.1];
        let g = ParameterShift.gradient(&c, &params, &obs).unwrap();
        let eps = 1e-5;
        for i in 0..2 {
            let mut p = params;
            p[i] += eps;
            let f_plus = crate::engine::expectation(&c, &p, &obs).unwrap();
            p[i] -= 2.0 * eps;
            let f_minus = crate::engine::expectation(&c, &p, &obs).unwrap();
            let fd = (f_plus - f_minus) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-8, "param {i}: {} vs {}", g[i], fd);
        }
    }

    #[test]
    fn entangled_two_qubit_gradient() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(2).unwrap();
        c.ry(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap().rx(0).unwrap();
        let obs = Observable::global_cost(2);
        let params = [0.3, 1.2, -0.5];
        let g = ParameterShift.gradient(&c, &params, &obs).unwrap();
        assert_eq!(g.len(), 3);
        let eps = 1e-5;
        for i in 0..3 {
            let mut p = params;
            p[i] += eps;
            let fp = crate::engine::expectation(&c, &p, &obs).unwrap();
            p[i] -= 2.0 * eps;
            let fm = crate::engine::expectation(&c, &p, &obs).unwrap();
            assert!((g[i] - (fp - fm) / (2.0 * eps)).abs() < 1e-8);
        }
    }

    #[test]
    fn four_term_rule_for_controlled_rotation() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.push_controlled_rotation(RotationGate::Ry, 0, 1).unwrap();
        let obs = Observable::global_cost(2);
        let params = [0.9];
        let g = ParameterShift.gradient(&c, &params, &obs).unwrap();
        let eps = 1e-5;
        let fp = crate::engine::expectation(&c, &[0.9 + eps], &obs).unwrap();
        let fm = crate::engine::expectation(&c, &[0.9 - eps], &obs).unwrap();
        assert!((g[0] - (fp - fm) / (2.0 * eps)).abs() < 1e-8);
    }

    #[test]
    fn partial_last_matches_full_gradient() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap().rz(0).unwrap();
        let obs = Observable::local_cost(2);
        let params = [0.2, 0.4, 0.6];
        let full = ParameterShift.gradient(&c, &params, &obs).unwrap();
        let last = ParameterShift.partial_last(&c, &params, &obs).unwrap();
        assert!((full[2] - last).abs() < 1e-14);
    }

    #[test]
    fn error_paths() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(1).unwrap();
        c.rx(0).unwrap();
        let obs = Observable::global_cost(1);
        assert!(ParameterShift.gradient(&c, &[], &obs).is_err());
        assert!(ParameterShift.partial(&c, &[0.1], &obs, 5).is_err());
        let empty = Circuit::new(1).unwrap();
        assert!(ParameterShift.partial_last(&empty, &[], &obs).is_err());
    }

    /// A [`RandomCase`] plus a shift list (out of op order, with repeated
    /// indices) and an ensemble for the many-member partial.
    #[derive(Debug)]
    struct ShiftCase {
        case: RandomCase,
        shifts: Vec<(usize, f64)>,
        members: Vec<Vec<f64>>,
    }

    fn shift_case(rng: &mut plateau_rng::StdRng) -> ShiftCase {
        let case = random_case(rng);
        let n = case.circuit.n_params();
        let shifts = match n {
            0 => Vec::new(),
            _ => (0..rng.gen_range(0..20usize))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(-4.0..4.0)))
                .collect(),
        };
        // Up to 20 members: more groups than chunks, so chunks hold
        // several bases and must restart the prefix walk for each.
        let members = (0..rng.gen_range(1..21usize))
            .map(|_| (0..n).map(|_| rng.gen_range(-3.2..3.2)).collect())
            .collect();
        ShiftCase { case, shifts, members }
    }

    /// Bit-level equality, with both values in the message.
    fn same(what: &str, got: f64, want: f64) -> Result<(), String> {
        if got.to_bits() == want.to_bits() {
            Ok(())
        } else {
            Err(format!("{what}: {got:e} (bits {:#x}) vs oracle {want:e}", got.to_bits()))
        }
    }

    /// Every shifted-sweep entry point through the executor `ex` against
    /// the per-job oracle: one full `oracle.expectation` per shifted
    /// parameter vector, folded as `Σ coeff · E(θ with θ_i += s)` in job
    /// order.
    fn check_against_oracle(
        what: &str,
        ex: &mut BatchExecutor,
        oracle: &Evaluator,
        sc: &ShiftCase,
    ) -> Result<(), String> {
        let RandomCase { circuit, params, obs } = &sc.case;
        let e = |base: &[f64], i: usize, s: f64| {
            let mut theta = base.to_vec();
            theta[i] += s;
            oracle.expectation(&theta, obs).map_err(|e| e.to_string())
        };
        let err = |e: SimError| format!("{what}: {e}");
        let shifted = ex.expectation_shifted(params, &sc.shifts, obs).map_err(err)?;
        for (&(i, s), got) in sc.shifts.iter().zip(&shifted) {
            same(&format!("{what} expectation_shifted ({i}, {s})"), *got, e(params, i, s)?)?;
        }
        let n = circuit.n_params();
        let grad = ParameterShift::gradient_with(ex, params, obs).map_err(err)?;
        let mut want = vec![0.0; n];
        for i in 0..n {
            let mut jobs = Vec::new();
            jobs_for_param(circuit, i, &mut jobs).map_err(err)?;
            let mut sum = Vec::new();
            for job in &jobs {
                let term = job.coeff * e(params, i, job.shift)?;
                want[i] += term;
                sum.push(term);
            }
            let partial = ParameterShift::partial_with(ex, params, obs, i).map_err(err)?;
            same(&format!("{what} partial {i}"), partial, sum.into_iter().sum())?;
        }
        for (i, (g, w)) in grad.iter().zip(&want).enumerate() {
            same(&format!("{what} gradient[{i}]"), *g, *w)?;
        }
        if n == 0 {
            return match ex.partial_last_many_shift(&sc.members, obs) {
                Err(SimError::ParamOutOfRange { .. }) => Ok(()),
                other => Err(format!("{what}: parameterless partial_last_many gave {other:?}")),
            };
        }
        let many = ex.partial_last_many_shift(&sc.members, obs).map_err(err)?;
        let mut jobs = Vec::new();
        jobs_for_param(circuit, n - 1, &mut jobs).map_err(err)?;
        for (m, (member, got)) in sc.members.iter().zip(&many).enumerate() {
            let mut terms = Vec::new();
            for job in &jobs {
                terms.push(job.coeff * e(member, n - 1, job.shift)?);
            }
            same(&format!("{what} partial_last_many[{m}]"), *got, terms.into_iter().sum())?;
        }
        Ok(())
    }

    /// [`check_against_oracle`] through both evaluator forms.
    fn check_both_forms(sc: &ShiftCase) -> Result<(), String> {
        let c = &sc.case.circuit;
        let mut ex = BatchExecutor::with_evaluator(c, Evaluator::Raw(c));
        check_against_oracle("raw", &mut ex, &Evaluator::Raw(c), sc)?;
        let compiled = plateau_sim::compile(c);
        let mut ex = BatchExecutor::with_evaluator(c, Evaluator::Fused(compiled.clone()));
        check_against_oracle("fused", &mut ex, &Evaluator::Fused(compiled), sc)
    }

    /// The paper's layer shape (RX·RY per wire, then a CZ chain): the
    /// compiled form's product-state prologue absorbs the whole first
    /// rotation layer, so those parameters get an empty prefix and the
    /// rest resume after it.
    fn layered_case() -> ShiftCase {
        let mut c = Circuit::new(3).unwrap();
        for _ in 0..3 {
            for q in 0..3 {
                c.rx(q).unwrap().ry(q).unwrap();
            }
            c.cz(0, 1).unwrap().cz(1, 2).unwrap();
        }
        assert!(plateau_sim::compile(&c).prologue_len() > 0);
        let n = c.n_params();
        ShiftCase {
            case: RandomCase {
                params: (0..n).map(|i| 0.3 * i as f64 - 2.0).collect(),
                obs: Observable::local_cost(3),
                circuit: c,
            },
            shifts: (0..n).rev().map(|i| (i, 0.5 + 0.1 * i as f64)).collect(),
            members: (0..20).map(|m| (0..n).map(|i| 0.1 * (m + i) as f64).collect()).collect(),
        }
    }

    #[test]
    fn shifted_sweeps_match_the_per_job_oracle_bit_for_bit() {
        // Thousands of counted allocations and a process-global thread
        // knob: hold the obs lock so counter-pinning tests never see them.
        let _guard = plateau_obs::test_lock();
        let saved = std::env::var("PLATEAU_THREADS").ok();
        for threads in ["1", "2"] {
            std::env::set_var("PLATEAU_THREADS", threads);
            check_both_forms(&layered_case()).unwrap();
            let cases = plateau_rng::check::cases(48);
            plateau_rng::check::forall(0x5b1f_7e55, cases, shift_case, |sc| {
                check_both_forms(sc)?;
                // And the public engine entry points: the gradient runs
                // the compiled form, a single partial the op list.
                let RandomCase { circuit: c, params, obs } = &sc.case;
                let fused =
                    || BatchExecutor::with_evaluator(c, Evaluator::Fused(plateau_sim::compile(c)));
                let raw = || BatchExecutor::with_evaluator(c, Evaluator::Raw(c));
                let err = |e: SimError| e.to_string();
                let want = ParameterShift::gradient_with(&mut fused(), params, obs).map_err(err)?;
                let grad = ParameterShift.gradient(c, params, obs).map_err(err)?;
                for (i, (g, w)) in grad.iter().zip(&want).enumerate() {
                    same(&format!("ParameterShift.gradient[{i}]"), *g, *w)?;
                    let p = ParameterShift.partial(c, params, obs, i).map_err(err)?;
                    let q = ParameterShift::partial_with(&mut raw(), params, obs, i).map_err(err)?;
                    same(&format!("ParameterShift.partial({i})"), p, q)?;
                }
                Ok(())
            });
        }
        match saved {
            Some(v) => std::env::set_var("PLATEAU_THREADS", v),
            None => std::env::remove_var("PLATEAU_THREADS"),
        }
    }

    /// One parameter-shift gradient of the paper's §IV-D ansatz (10
    /// qubits, 5 layers: N = 145 gates, k = 100 parameters) on the raw op
    /// list, counted through the process-global `sim.gate.*` counters —
    /// so it runs alone, from [`raw_shift_gradient_gate_count_is_pinned`].
    #[test]
    #[ignore = "pins process-global counters; run alone by raw_shift_gradient_gate_count_is_pinned"]
    fn raw_shift_gradient_gate_count() {
        let _guard = plateau_obs::test_lock();
        plateau_obs::set_metrics_enabled(true);
        // Per layer, RX·RY on each wire (ops 29l … 29l + 19, one
        // parameter each) then a 9-gate CZ chain.
        let c = training_shape(10, 5);
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.05 * i as f64 - 1.0).collect();
        let obs = Observable::global_cost(10);
        let n = c.ops().len() as u64;
        // Each of θ_i's two shifted runs resumes at θ_i's gate p_i and
        // runs the suffix: Σ 2·(N − p_i) = 15,500 gates.
        let suffixes: u64 = (0..c.n_params())
            .map(|i| 2 * (n - c.op_of_param(i).unwrap() as u64))
            .sum();
        assert_eq!(suffixes, 15_500);
        // The prefix walks: the sweep splits the 100 parameters into 8
        // chunks of roughly equal suffix cost (≈ 15,500 / 8 each), whose
        // last cuts fall at ops 6, 13, 30, 39, 58, 69, 94 and 135. Each
        // chunk walks its own prefix from |0…0⟩ up to its last cut, so
        // the walks cost 6 + 13 + 30 + 39 + 58 + 69 + 94 + 135 = 444
        // gates. The plan depends only on the circuit, so the total holds
        // for every thread count.
        let prefix_walks = 444u64;
        let count = |name: &str| plateau_obs::snapshot().counter(name).unwrap_or(0);
        let gates = || -> u64 {
            [
                "sim.gate.rotation",
                "sim.gate.fixed",
                "sim.gate.controlled_rotation",
                "sim.gate.two_qubit_rotation",
            ]
            .iter()
            .map(|name| count(name))
            .sum()
        };
        for threads in ["1", "2", "4"] {
            std::env::set_var("PLATEAU_THREADS", threads);
            let (gates_before, execs_before) =
                (gates(), count("grad.executions.parameter_shift"));
            let mut ex = BatchExecutor::with_evaluator(&c, Evaluator::Raw(&c));
            ParameterShift::gradient_with(&mut ex, &params, &obs).unwrap();
            assert_eq!(gates() - gates_before, suffixes + prefix_walks, "threads={threads}");
            // Executions count evaluations, not gates: still 2k.
            assert_eq!(
                count("grad.executions.parameter_shift") - execs_before,
                2 * c.n_params() as u64,
                "threads={threads}"
            );
        }
        // The raw form never compiles.
        assert_eq!(count("sim.fuse.gates_in"), 0);
    }

    #[test]
    fn raw_shift_gradient_gate_count_is_pinned() {
        let _guard = plateau_obs::test_lock();
        run_alone("shift::tests::raw_shift_gradient_gate_count");
    }
}
