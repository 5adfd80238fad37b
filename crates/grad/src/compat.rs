//! The removed compiled adjoint entry point, a one-line delegation to the
//! op list, kept only until the benchmark drops its calls.

use crate::{Adjoint, GradientEngine};
use plateau_sim::{CompiledCircuit, Observable, SimError};

/// [`Adjoint`]'s `gradient` of the wrapped circuit.
///
/// # Errors
///
/// As [`Adjoint`]'s `gradient`.
///
/// ```
/// use plateau_sim::{compile, Circuit, Observable};
///
/// let mut c = Circuit::new(2)?;
/// c.ry(0)?.ry(1)?.cz(0, 1)?;
/// let obs = Observable::global_cost(2);
/// let g = plateau_grad::adjoint_gradient_compiled(&compile(&c), &[0.3, -0.7], &obs)?;
/// assert_eq!(g.len(), 2);
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
pub fn adjoint_gradient_compiled(
    compiled: &CompiledCircuit<'_>,
    params: &[f64],
    obs: &Observable,
) -> Result<Vec<f64>, SimError> {
    Adjoint.gradient(compiled.0, params, obs)
}
