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
//! `θ_i`'s first gate (`0` when the product-state prologue holds it) —
//! on the paper's §IV-D ansatz under the local cost 16,322 gate
//! applications instead of `2k · N` = 29,000, with each layer's CZ chain
//! one sweep — and with results bit-identical to the restart-from-zero
//! evaluation (see [`crate::BatchExecutor`]).
//!
//! On a rank-one cost — the paper's global cost `I − |0…0⟩⟨0…0|` of both
//! experiments, or the bare projector — the gates *after* `θ_i`'s gate
//! are shared too: each shifted value is the overlap of one shifted gate's
//! output with a bra that one backward walk carries, as in the adjoint
//! method. The §IV-D gradient then costs 335 forward and 279 inverse gate
//! applications — `O(N)` rather than `O(k·N)` — on one thread, and agrees
//! with the restart-from-zero evaluation to rounding (`~1e-16`). The shift
//! rule, its coefficients and the fold below are the same on both paths.

use crate::batch::BatchExecutor;
use crate::engine::{GradientEngine, ParamMap};
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
    map: &ParamMap,
    index: usize,
    jobs: &mut Vec<ShiftJob>,
) -> Result<(), SimError> {
    let op = map.op(index).ok_or(SimError::ParamOutOfRange {
        index,
        n_params: circuit.n_params(),
    })?;
    match &circuit.ops()[op] {
        // Pauli and Pauli-product generators square to the identity →
        // exact two-term rule.
        Op::Rotation { .. } | Op::TwoQubitRotation { .. } => {
            jobs.push(ShiftJob { param: index, shift: FRAC_PI_2, coeff: 0.5 });
            jobs.push(ShiftJob { param: index, shift: -FRAC_PI_2, coeff: -0.5 });
        }
        Op::ControlledRotation { .. } => {
            // PennyLane's four-term rule for controlled rotations:
            // c± = (√2 ± 1) / (4√2), shifts π/2 and 3π/2.
            let c1 = (SQRT_2 + 1.0) / (4.0 * SQRT_2);
            let c2 = (SQRT_2 - 1.0) / (4.0 * SQRT_2);
            jobs.push(ShiftJob { param: index, shift: FRAC_PI_2, coeff: c1 });
            jobs.push(ShiftJob { param: index, shift: -FRAC_PI_2, coeff: -c1 });
            jobs.push(ShiftJob { param: index, shift: 3.0 * FRAC_PI_2, coeff: -c2 });
            jobs.push(ShiftJob { param: index, shift: -3.0 * FRAC_PI_2, coeff: c2 });
        }
        Op::Fixed { .. } => unreachable!("fixed ops own no parameters"),
    }
    Ok(())
}

/// Appends the shift jobs for one parameter and bumps the execution
/// counter by the number of circuit evaluations they will cost.
fn push_jobs(
    circuit: &Circuit,
    map: &ParamMap,
    index: usize,
    jobs: &mut Vec<ShiftJob>,
) -> Result<(), SimError> {
    let before = jobs.len();
    jobs_for_param(circuit, map, index, jobs)?;
    plateau_obs::counter!("grad.executions.parameter_shift").add((jobs.len() - before) as u64);
    Ok(())
}

impl ParameterShift {
    /// The full gradient through `ex`, from a pre-validated parameter
    /// vector.
    pub(crate) fn gradient_with(
        ex: &mut BatchExecutor,
        params: &[f64],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        plateau_obs::counter!("grad.gradients.parameter_shift").inc();
        let n = ex.n_params();
        let map = ParamMap::new(ex.circuit());
        let mut jobs = Vec::with_capacity(2 * n);
        for i in 0..n {
            push_jobs(ex.circuit(), &map, i, &mut jobs)?;
        }
        // Every job is an independent circuit evaluation, so a gradient
        // with k parameters exposes 2k (4k for controlled rotations)
        // evaluations. The batched executor owns the serial/parallel
        // routing, the per-worker scratch states and what the jobs share
        // (prefixes, or on a rank-one cost one backward walk);
        // the jobs travel as (index, shift) pairs against the one base
        // vector — O(k) bytes — instead of 2k materialized copies of
        // `params`. Every route evaluates identical parameter vectors and
        // the fold below runs in job order, so the result does not depend
        // on which path ran.
        let job = |j: usize| (0, jobs[j].param, jobs[j].shift);
        let evals = ex.shifted_sweep(&map, &[params], jobs.len(), job, obs)?;
        let mut grad = vec![0.0; n];
        for (j, e) in jobs.iter().zip(&evals) {
            grad[j.param] += j.coeff * e;
        }
        Ok(grad)
    }

    /// One partial through `ex`, from a pre-validated parameter vector
    /// and index.
    pub(crate) fn partial_with(
        ex: &mut BatchExecutor,
        params: &[f64],
        obs: &Observable,
        index: usize,
    ) -> Result<f64, SimError> {
        let map = ParamMap::new(ex.circuit());
        let mut jobs = Vec::with_capacity(4);
        push_jobs(ex.circuit(), &map, index, &mut jobs)?;
        let job = |j: usize| (0, index, jobs[j].shift);
        let evals = ex.shifted_sweep(&map, &[params], jobs.len(), job, obs)?;
        Ok(jobs
            .iter()
            .zip(&evals)
            .map(|(j, e)| j.coeff * e)
            .sum())
    }
}

impl GradientEngine for ParameterShift {
    /// `2k` (or `4k`) shifted evaluations of one circuit, swept through
    /// [`BatchExecutor`].
    fn gradient(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        circuit.check_params(params)?;
        Self::gradient_with(&mut BatchExecutor::new(circuit), params, obs)
    }

    /// Two (or four) shifted evaluations from one shared prefix walk (on a
    /// rank-one cost, from one backward walk, bit-identical to the
    /// gradient's entry).
    fn partial(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
        index: usize,
    ) -> Result<f64, SimError> {
        crate::engine::check_index(circuit, index)?;
        circuit.check_params(params)?;
        Self::partial_with(&mut BatchExecutor::new(circuit), params, obs, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{random_case, RandomCase};
    use plateau_rng::Rng;
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

    /// A [`RandomCase`] plus a shift list (out of op order, with repeated
    /// indices) and an ensemble for the many-member partial.
    #[derive(Debug)]
    struct ShiftCase {
        case: RandomCase,
        shifts: Vec<(usize, f64)>,
        members: Vec<Vec<f64>>,
    }

    /// A shift case on the prefix path (`rank_one` false: a drawn
    /// rank-one cost becomes the local cost, so the draws are the same) or
    /// on the overlap walk (the global cost or the zero projector).
    fn shift_case(rng: &mut plateau_rng::StdRng, rank_one: bool) -> ShiftCase {
        let mut case = random_case(rng);
        let n = case.circuit.n_qubits();
        if rank_one {
            case.obs = match rng.gen_range(0..2u32) {
                0 => Observable::global_cost(n),
                _ => Observable::zero_projector(n),
            };
        } else if case.obs.rank_one().is_some() {
            case.obs = Observable::local_cost(n);
        }
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

    /// Agreement within rounding, with both values in the message.
    fn close(what: &str, got: f64, want: f64) -> Result<(), String> {
        if (got - want).abs() <= 1e-12 {
            Ok(())
        } else {
            Err(format!("{what}: {got:e} vs oracle {want:e}"))
        }
    }

    /// The per-job oracle: one full [`crate::expectation`] of `base` with
    /// `θ_i += s`.
    fn per_job(case: &RandomCase, base: &[f64], i: usize, s: f64) -> Result<f64, String> {
        let mut theta = base.to_vec();
        theta[i] += s;
        crate::expectation(&case.circuit, &theta, &case.obs).map_err(|e| e.to_string())
    }

    /// Every shifted-sweep entry point through an executor against the
    /// per-job oracle: one full [`crate::expectation`] per shifted
    /// parameter vector, folded as `Σ coeff · E(θ with θ_i += s)` in job
    /// order.
    fn check_against_oracle(sc: &ShiftCase) -> Result<(), String> {
        let what = "executor";
        let RandomCase { circuit, params, obs } = &sc.case;
        let ex = &mut BatchExecutor::new(circuit);
        let e = |base: &[f64], i: usize, s: f64| per_job(&sc.case, base, i, s);
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
            jobs_for_param(circuit, &ParamMap::new(circuit), i, &mut jobs).map_err(err)?;
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
        jobs_for_param(circuit, &ParamMap::new(circuit), n - 1, &mut jobs).map_err(err)?;
        for (m, (member, got)) in sc.members.iter().zip(&many).enumerate() {
            let mut terms = Vec::new();
            for job in &jobs {
                terms.push(job.coeff * e(member, n - 1, job.shift)?);
            }
            same(&format!("{what} partial_last_many[{m}]"), *got, terms.into_iter().sum())?;
        }
        Ok(())
    }

    /// The paper's layer shape (RX·RY per wire, then a CZ chain): the
    /// product-state prologue absorbs the whole first rotation layer, so
    /// those parameters get an empty prefix and the rest resume after it.
    fn layered_case() -> ShiftCase {
        let mut c = Circuit::new(3).unwrap();
        for _ in 0..3 {
            for q in 0..3 {
                c.rx(q).unwrap().ry(q).unwrap();
            }
            c.cz(0, 1).unwrap().cz(1, 2).unwrap();
        }
        assert!(c.prologue_len() > 0);
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
        for threads in [1, 2] {
            plateau_par::with_threads(threads, || {
                check_against_oracle(&layered_case()).unwrap();
                let cases = plateau_rng::check::cases(48);
                let gen = |rng: &mut plateau_rng::StdRng| shift_case(rng, false);
                plateau_rng::check::forall(0x5b1f_7e55, cases, gen, |sc| {
                    check_against_oracle(sc)?;
                    // And the public engine entry points.
                    let RandomCase { circuit: c, params, obs } = &sc.case;
                    let ex = || BatchExecutor::new(c);
                    let err = |e: SimError| e.to_string();
                    let want =
                        ParameterShift::gradient_with(&mut ex(), params, obs).map_err(err)?;
                    let grad = ParameterShift.gradient(c, params, obs).map_err(err)?;
                    for (i, (g, w)) in grad.iter().zip(&want).enumerate() {
                        same(&format!("ParameterShift.gradient[{i}]"), *g, *w)?;
                        let p = ParameterShift.partial(c, params, obs, i).map_err(err)?;
                        let q = ParameterShift::partial_with(&mut ex(), params, obs, i)
                            .map_err(err)?;
                        same(&format!("ParameterShift.partial({i})"), p, q)?;
                    }
                    Ok(())
                });
            });
        }
    }

    /// Every shifted-sweep entry point on a rank-one cost: within `1e-12`
    /// of the per-job oracle, each partial bit-identical to its gradient
    /// entry and each batched ensemble partial to the one-shot partial.
    /// Returns every value computed, for comparison across thread counts.
    fn check_overlap(sc: &ShiftCase) -> Result<Vec<f64>, String> {
        let RandomCase { circuit, params, obs } = &sc.case;
        assert!(obs.rank_one().is_some());
        let ex = &mut BatchExecutor::new(circuit);
        let err = |e: SimError| e.to_string();
        let mut values = ex.expectation_shifted(params, &sc.shifts, obs).map_err(err)?;
        for (&(i, s), got) in sc.shifts.iter().zip(&values) {
            let want = per_job(&sc.case, params, i, s)?;
            close(&format!("expectation_shifted ({i}, {s})"), *got, want)?;
        }
        let n = circuit.n_params();
        let grad = ParameterShift::gradient_with(ex, params, obs).map_err(err)?;
        let map = ParamMap::new(circuit);
        for (i, g) in grad.iter().enumerate() {
            let mut jobs = Vec::new();
            jobs_for_param(circuit, &map, i, &mut jobs).map_err(err)?;
            let mut want = 0.0;
            for job in &jobs {
                want += job.coeff * per_job(&sc.case, params, i, job.shift)?;
            }
            close(&format!("gradient[{i}]"), *g, want)?;
            let p = ParameterShift.partial(circuit, params, obs, i).map_err(err)?;
            same(&format!("partial({i}) vs its gradient entry"), p, *g)?;
        }
        values.extend(&grad);
        if n > 0 {
            let many = ex.partial_last_many_shift(&sc.members, obs).map_err(err)?;
            for (m, (member, got)) in sc.members.iter().zip(&many).enumerate() {
                let one = ParameterShift.partial_last(circuit, member, obs).map_err(err)?;
                same(&format!("partial_last_many[{m}] vs one-shot"), *got, one)?;
            }
            values.extend(many);
        }
        Ok(values)
    }

    #[test]
    fn overlap_sweeps_match_the_per_job_oracle_and_themselves_bit_for_bit() {
        let mut layered = layered_case();
        layered.case.obs = Observable::global_cost(3);
        let across_threads = |sc: &ShiftCase| {
            let base = plateau_par::with_threads(1, || check_overlap(sc))?;
            for threads in [2, 4] {
                let got = plateau_par::with_threads(threads, || check_overlap(sc))?;
                for (k, (g, b)) in got.iter().zip(&base).enumerate() {
                    same(&format!("value {k} at {threads} threads"), *g, *b)?;
                }
            }
            Ok(())
        };
        across_threads(&layered).unwrap();
        let gen = |rng: &mut plateau_rng::StdRng| shift_case(rng, true);
        let cases = plateau_rng::check::cases(48);
        plateau_rng::check::forall(0x0e71_a9b5, cases, gen, across_threads);
    }
}
