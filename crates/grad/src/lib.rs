//! # plateau-grad
//!
//! Gradient engines for parameterized quantum circuits, replacing
//! PennyLane's autodiff in the DATE 2024 barren-plateau reproduction.
//!
//! Three interchangeable engines behind [`GradientEngine`]:
//!
//! - [`ParameterShift`] — exact; 2 circuit evaluations per single-qubit
//!   rotation parameter (4 for controlled rotations). The method the
//!   paper's PennyLane pipeline exposes. Full gradients run through
//!   [`BatchExecutor`]: each shifted evaluation resumes from its
//!   parameter's shared unshifted prefix, and chunks of parameters fan
//!   across the `plateau_par` pool — except on a rank-one cost such as
//!   the paper's global cost, where one backward walk shares every
//!   suffix and a gradient costs `O(N)` gate applications.
//! - [`Adjoint`] — exact; one forward pass plus one backward sweep yields
//!   **all** parameters. The workhorse for the 200-circuit ensembles.
//! - [`FiniteDifference`] — approximate oracle used to validate the other
//!   two in property tests.
//!
//! # Examples
//!
//! ```
//! use plateau_grad::{Adjoint, GradientEngine, ParameterShift};
//! use plateau_sim::{Circuit, Observable};
//!
//! let mut c = Circuit::new(2)?;
//! c.rx(0)?.ry(1)?.cz(0, 1)?.ry(0)?;
//! let obs = Observable::global_cost(2);
//! let params = [0.3, -1.0, 0.7];
//!
//! let fast = Adjoint.gradient(&c, &params, &obs)?;
//! let slow = ParameterShift.gradient(&c, &params, &obs)?;
//! for (a, b) in fast.iter().zip(&slow) {
//!     assert!((a - b).abs() < 1e-10);
//! }
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

// Index-based loops are the clearer idiom for the dense numeric kernels
// in this crate; the iterator rewrites clippy suggests obscure the math.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjoint;
mod attribution;
mod batch;
mod compat;
mod engine;
mod finite_diff;
mod fisher;
mod hessian;
mod metric;
mod shift;
#[cfg(test)]
mod testkit;

pub use adjoint::{adjoint_value_and_gradient, Adjoint};
pub use attribution::{layer_grad_stats, layer_grad_variances_into, LayerGradStats};
pub use batch::BatchExecutor;
pub use compat::*;
pub use engine::{expectation, expectation_many, GradientEngine};
pub use finite_diff::FiniteDifference;
pub use fisher::{classical_fisher_information, quantum_fisher_information};
pub use hessian::{hessian, spectral_norm};
pub use metric::{metric_tensor, tangent_state};
pub use shift::ParameterShift;
