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

use crate::engine::GradientEngine;
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
    /// Computes one partial from a pre-validated parameter vector.
    fn partial_impl(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
        index: usize,
    ) -> Result<f64, SimError> {
        let mut jobs = Vec::with_capacity(4);
        push_jobs(circuit, index, &mut jobs)?;
        let shifts: Vec<(usize, f64)> = jobs.iter().map(|j| (j.param, j.shift)).collect();
        let evals =
            crate::batch::BatchExecutor::new(circuit).expectation_shifted(params, &shifts, obs)?;
        Ok(jobs
            .iter()
            .zip(&evals)
            .map(|(j, e)| j.coeff * e)
            .sum())
    }
}

impl GradientEngine for ParameterShift {
    fn gradient(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        circuit.check_params(params)?;
        plateau_obs::counter!("grad.gradients.parameter_shift").inc();
        let n = circuit.n_params();
        let mut jobs = Vec::with_capacity(2 * n);
        for i in 0..n {
            push_jobs(circuit, i, &mut jobs)?;
        }
        // Every job is an independent circuit evaluation, so a gradient
        // with k parameters exposes 2k (4k for controlled rotations)
        // units of work. The batched executor owns the serial/parallel
        // routing and the per-worker scratch states; the jobs travel as
        // (index, shift) pairs against the one base vector — O(k) bytes
        // — instead of 2k materialized copies of `params`. Both routes
        // evaluate identical parameter vectors and the fold below runs
        // in job order, so the result does not depend on which path ran.
        let shifts: Vec<(usize, f64)> = jobs.iter().map(|j| (j.param, j.shift)).collect();
        let evals =
            crate::batch::BatchExecutor::new(circuit).expectation_shifted(params, &shifts, obs)?;
        let mut grad = vec![0.0; n];
        for (j, e) in jobs.iter().zip(&evals) {
            grad[j.param] += j.coeff * e;
        }
        Ok(grad)
    }

    fn partial(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
        index: usize,
    ) -> Result<f64, SimError> {
        crate::engine::check_index(circuit, index)?;
        circuit.check_params(params)?;
        self.partial_impl(circuit, params, obs, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plateau_sim::RotationGate;

    #[test]
    fn ry_global_cost_analytic() {
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
        let mut c = Circuit::new(1).unwrap();
        c.rx(0).unwrap();
        let obs = Observable::global_cost(1);
        assert!(ParameterShift.gradient(&c, &[], &obs).is_err());
        assert!(ParameterShift.partial(&c, &[0.1], &obs, 5).is_err());
        let empty = Circuit::new(1).unwrap();
        assert!(ParameterShift.partial_last(&empty, &[], &obs).is_err());
    }
}
