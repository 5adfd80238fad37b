//! # plateau-core
//!
//! The primary contribution of the DATE 2024 paper *"Alleviating Barren
//! Plateaus in Parameterized Quantum Machine Learning Circuits:
//! Investigating Advanced Parameter Initialization Strategies"*, rebuilt as
//! a Rust library on top of the `plateau-sim`/`plateau-grad` substrate:
//!
//! - [`init`]: the six classical initialization strategies (Random, Xavier
//!   normal/uniform, He, LeCun, Orthogonal) plus extension baselines
//!   (BeInit, Zero), with explicit PQC fan semantics.
//! - [`ansatz`]: the paper's hardware-efficient ansätze — the randomized
//!   variance-analysis circuits (Eq. 2) and the RX·RY + CZ-chain training
//!   circuit (Eq. 3).
//! - [`cost`]: the global identity-learning cost (Eq. 4) and the local
//!   alternative.
//! - [`optim`]: Gradient Descent and Adam (the paper's optimizers, step
//!   0.1) plus Momentum/RMSProp/AdaGrad for ablations.
//! - [`mod@train`]: the 50-iteration training loop behind Fig 5b/5c.
//! - [`variance`]: the 200-circuit gradient-variance harness behind Fig 5a
//!   and the headline improvement percentages.
//! - [`landscape`]: the 2-D cost-surface scanner behind Fig 1.
//!
//! # Examples
//!
//! The paper's experiment in miniature — Xavier initialization keeps
//! gradient variance alive where random initialization kills it:
//!
//! ```
//! use plateau_core::init::InitStrategy;
//! use plateau_core::variance::{variance_scan, VarianceConfig};
//!
//! let cfg = VarianceConfig {
//!     qubit_counts: vec![2, 4, 6],
//!     layers: 20,
//!     n_circuits: 50,
//!     ..VarianceConfig::default()
//! };
//! let scan = variance_scan(&cfg, &[InitStrategy::Random, InitStrategy::XavierNormal])?;
//! let random_rate = scan.curve_of(InitStrategy::Random).unwrap().decay_fit()?.rate;
//! let xavier_rate = scan.curve_of(InitStrategy::XavierNormal).unwrap().decay_fit()?.rate;
//! assert!(xavier_rate.abs() < random_rate.abs()); // shallower plateau
//! # Ok::<(), plateau_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ansatz;
pub mod cost;
pub mod error;
pub mod init;
pub mod landscape;
pub mod mitigation;
pub mod optim;
pub mod qng;
pub mod spsa;
pub mod theory;
pub mod train;
pub mod variance;

pub use analysis::{average_entanglement, expressibility_kl};
pub use ansatz::{training_ansatz, variance_ansatz, Ansatz};
pub use cost::CostKind;
pub use error::CoreError;
pub use init::{FanMode, InitStrategy, LayerShape};
pub use landscape::{landscape_grid, LandscapeConfig, LandscapeGrid};
pub use mitigation::{identity_block_ansatz, identity_block_params, train_layerwise};
pub use optim::{Adam, AdaGrad, GradientDescent, Momentum, Optimizer, RmsProp, Schedule};
pub use qng::{train_qng, QngConfig};
pub use spsa::{train_spsa, SpsaConfig};
pub use theory::{is_two_design_rate, near_identity_gradient_variance, two_design_decay_rate};
pub use train::{
    train, train_instrumented, train_with_engine, DynamicsRecorder, PlateauScore, TrainRun,
    TrainTelemetry, TrainingHistory,
};
pub use variance::{
    variance_scan, AnsatzKind, GradEngineKind, Improvement, StrategyCurve, VarianceConfig,
    VariancePoint, VarianceScan,
};
