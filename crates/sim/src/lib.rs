//! # plateau-sim
//!
//! A dense statevector quantum-circuit simulator — the substrate replacing
//! PennyLane's `default.qubit` device in this reproduction of the DATE 2024
//! barren-plateau initialization paper.
//!
//! Layers:
//!
//! - [`gate`]: gate definitions and matrices ([`FixedGate`],
//!   [`RotationGate`]) including derivative entries for adjoint
//!   differentiation.
//! - [`state`]: the statevector ([`State`]) with index-arithmetic kernels
//!   (general single-qubit, controlled, and a CZ diagonal fast path).
//! - [`circuit`]: the circuit IR ([`Circuit`], [`Op`], [`Param`]) with
//!   sequential free-parameter allocation and forward/inverse execution
//!   in [`Sweep`]s.
//! - [`observable`]: Hermitian cost operators ([`Observable`],
//!   [`PauliString`]) — notably the paper's global cost
//!   `I − |0…0⟩⟨0…0|` and the local cost of Cerezo et al.
//! - [`unitary`]: an independent full-matrix oracle ([`circuit_unitary`])
//!   for cross-validating the kernels.
//! - [`sampling`]: finite-shot measurement for the shot-noise ablation.
//! - [`parallel`]: chunked multi-threaded kernel variants, run by states
//!   of at least [`DEFAULT_PAR_THRESHOLD`] (19) qubits or forced with
//!   [`State::set_chunked`], bitwise identical to the serial loops
//!   regardless of worker count.
//! - [`fuse`]: the op list's fused kernels — each run of CZs as one
//!   [`CzLayer`] sweep, and the leading single-qubit layer of a run from
//!   `|0…0⟩` built as a product state.
//!
//! Qubit ordering is little-endian throughout: qubit `k` is bit `k` of the
//! amplitude index.
//!
//! # Examples
//!
//! Build one layer of the paper's hardware-efficient ansatz and evaluate
//! the global cost:
//!
//! ```
//! use plateau_sim::{Circuit, Observable};
//!
//! let n = 4;
//! let mut c = Circuit::new(n)?;
//! for q in 0..n {
//!     c.rx(q)?;
//!     c.ry(q)?;
//! }
//! for q in 0..n - 1 {
//!     c.cz(q, q + 1)?;
//! }
//!
//! let params = vec![0.1; c.n_params()];
//! let state = c.run(&params)?;
//! let cost = Observable::global_cost(n).expectation(&state)?;
//! assert!(cost > 0.0 && cost < 1.0);
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

// Index-based loops are the clearer idiom for the dense numeric kernels
// in this crate; the iterator rewrites clippy suggests obscure the math.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
mod compat;
pub mod density;
pub mod diagram;
pub mod error;
pub mod fuse;
pub mod gate;
pub mod mixed;
pub mod noise;
pub mod observable;
pub mod parallel;
pub mod passes;
pub mod qasm;
pub mod sampling;
pub mod state;
pub mod unitary;

pub use circuit::{Circuit, Op, Param, Sweep, Sweeps};
pub use compat::*;
pub use density::{meyer_wallach, purity, reduced_density_matrix, von_neumann_entropy};
pub use error::SimError;
pub use fuse::CzLayer;
pub use gate::{FixedGate, RotationGate, TwoQubitRotationGate};
pub use mixed::{amplitude_damping_kraus, depolarizing_kraus, phase_flip_kraus, DensityMatrix};
pub use noise::NoiseModel;
pub use observable::{Observable, Pauli, PauliString};
pub use parallel::DEFAULT_PAR_THRESHOLD;
pub use sampling::{estimate_expectation, estimate_probability, sample_counts, sample_index};
pub use state::{State, MAX_QUBITS};
pub use unitary::{circuit_unitary, op_matrix};
