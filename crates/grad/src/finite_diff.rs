//! Central finite differences — the model-free oracle the exact engines are
//! validated against in the property-based test suite.

use crate::engine::{expectation, GradientEngine};
use plateau_sim::{Circuit, Observable, SimError};

/// Central-difference gradient engine with step `eps`:
/// `∂E/∂θ ≈ (E(θ+ε) − E(θ−ε)) / 2ε`.
///
/// Truncation error is `O(ε²)`; the default `ε = 1e-6` balances truncation
/// against floating-point cancellation for `f64` cost values of order 1.
///
/// # Examples
///
/// ```
/// use plateau_grad::{FiniteDifference, GradientEngine};
/// use plateau_sim::{Circuit, Observable};
///
/// let mut c = Circuit::new(1)?;
/// c.ry(0)?;
/// let g = FiniteDifference::default()
///     .gradient(&c, &[0.8], &Observable::global_cost(1))?;
/// assert!((g[0] - 0.8f64.sin() / 2.0).abs() < 1e-8);
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiniteDifference {
    eps: f64,
}

impl FiniteDifference {
    /// Creates an engine with a custom step.
    ///
    /// # Panics
    ///
    /// Panics unless `eps` is positive and finite.
    pub fn new(eps: f64) -> FiniteDifference {
        assert!(eps.is_finite() && eps > 0.0, "step must be positive and finite");
        FiniteDifference { eps }
    }

    /// The step size.
    pub fn eps(&self) -> f64 {
        self.eps
    }
}

impl Default for FiniteDifference {
    fn default() -> Self {
        FiniteDifference { eps: 1e-6 }
    }
}

impl GradientEngine for FiniteDifference {
    fn gradient(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        circuit.check_params(params)?;
        plateau_obs::counter!("grad.gradients.finite_diff").inc();
        plateau_obs::counter!("grad.executions.finite_diff").add(2 * params.len() as u64);
        let mut grad = Vec::with_capacity(params.len());
        let mut work = params.to_vec();
        for i in 0..params.len() {
            work[i] = params[i] + self.eps;
            let plus = expectation(circuit, &work, obs)?;
            work[i] = params[i] - self.eps;
            let minus = expectation(circuit, &work, obs)?;
            work[i] = params[i];
            grad.push((plus - minus) / (2.0 * self.eps));
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
        circuit.check_params(params)?;
        if index >= params.len() {
            return Err(SimError::ParamOutOfRange {
                index,
                n_params: params.len(),
            });
        }
        plateau_obs::counter!("grad.executions.finite_diff").add(2);
        let mut work = params.to_vec();
        work[index] = params[index] + self.eps;
        let plus = expectation(circuit, &work, obs)?;
        work[index] = params[index] - self.eps;
        let minus = expectation(circuit, &work, obs)?;
        Ok((plus - minus) / (2.0 * self.eps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_step() {
        assert_eq!(FiniteDifference::default().eps(), 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_step() {
        let _ = FiniteDifference::new(0.0);
    }

    #[test]
    fn approximates_analytic_derivative() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        let obs = Observable::global_cost(1);
        let g = FiniteDifference::default().gradient(&c, &[1.2], &obs).unwrap();
        assert!((g[0] - 1.2f64.sin() / 2.0).abs() < 1e-8);
    }

    #[test]
    fn partial_matches_gradient_entry() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap();
        let obs = Observable::local_cost(2);
        let params = [0.4, -0.9];
        let fd = FiniteDifference::default();
        let full = fd.gradient(&c, &params, &obs).unwrap();
        for i in 0..2 {
            let p = fd.partial(&c, &params, &obs, i).unwrap();
            assert!((full[i] - p).abs() < 1e-12);
        }
        assert!(fd.partial(&c, &params, &obs, 7).is_err());
    }

    #[test]
    fn smaller_step_reduces_truncation_error() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        let obs = Observable::global_cost(1);
        let exact = 0.9f64.sin() / 2.0;
        let coarse = FiniteDifference::new(1e-2).gradient(&c, &[0.9], &obs).unwrap()[0];
        let fine = FiniteDifference::new(1e-5).gradient(&c, &[0.9], &obs).unwrap()[0];
        assert!((fine - exact).abs() < (coarse - exact).abs());
    }
}
