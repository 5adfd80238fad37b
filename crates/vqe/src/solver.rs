//! The VQE driver: minimize `⟨ψ(θ)|H|ψ(θ)⟩` with the plateau stack's
//! ansätze, initializers, and optimizers, scored against the exact ground
//! energy.
//!
//! # Examples
//!
//! ```
//! use plateau_core::init::InitStrategy;
//! use plateau_vqe::hamiltonian::transverse_field_ising;
//! use plateau_vqe::solver::{solve, VqeConfig};
//!
//! let h = transverse_field_ising(3, 1.0, 1.0)?;
//! let cfg = VqeConfig {
//!     layers: 3,
//!     iterations: 120,
//!     seed: 3,
//!     ..VqeConfig::default()
//! };
//! let result = solve(&h, InitStrategy::XavierNormal, &cfg)?;
//! assert!(result.relative_error()? < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::hamiltonian::ground_state_energy;
use plateau_core::ansatz::training_ansatz;
use plateau_core::error::CoreError;
use plateau_core::init::{FanMode, InitStrategy};
use plateau_core::optim::Adam;
use plateau_core::train::{
    train_instrumented, BarrenPlateauAlarm, TrainTelemetry, TrainingHistory,
};
use plateau_grad::Adjoint;
use plateau_obs::json::Json;
use plateau_obs::{RunRecord, TimeSeries};
use plateau_sim::Observable;
use plateau_rng::rngs::StdRng;
use plateau_rng::SeedableRng;

/// VQE run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VqeConfig {
    /// HEA layers of the ansatz.
    pub layers: usize,
    /// Adam iterations.
    pub iterations: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Fan convention for the initializer.
    pub fan_mode: FanMode,
    /// RNG seed for the initializer.
    pub seed: u64,
}

impl Default for VqeConfig {
    fn default() -> Self {
        VqeConfig {
            layers: 4,
            iterations: 150,
            learning_rate: 0.1,
            fan_mode: FanMode::TensorShape,
            seed: 0,
        }
    }
}

/// Outcome of a VQE run.
#[derive(Debug, Clone, PartialEq)]
pub struct VqeResult {
    /// The full optimization trajectory (energies, not costs).
    pub history: TrainingHistory,
    /// Exact ground-state energy from dense diagonalization.
    pub exact_energy: f64,
    /// The gradient-dynamics series (energy, gradient norm, BP score,
    /// per-layer variances), one row per iteration.
    pub series: TimeSeries,
}

impl VqeResult {
    /// Final variational energy.
    pub fn energy(&self) -> f64 {
        self.history.final_loss()
    }

    /// Absolute error above the exact ground energy (non-negative up to
    /// optimizer noise, by the variational principle).
    pub fn absolute_error(&self) -> f64 {
        self.energy() - self.exact_energy
    }

    /// Error relative to the spectral scale `|E₀|`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the exact energy is zero
    /// (relative error undefined).
    pub fn relative_error(&self) -> Result<f64, CoreError> {
        if self.exact_energy == 0.0 {
            return Err(CoreError::InvalidConfig(
                "relative error undefined at zero ground energy".into(),
            ));
        }
        Ok(self.absolute_error() / self.exact_energy.abs())
    }

    /// The run's experiment-ledger record: a `"vqe"` run on `n_qubits`
    /// qubits from `strategy` under `config`, with the final, exact and
    /// initial energies as metrics. Its series is [`Self::series`].
    pub fn run_record(&self, n_qubits: usize, strategy: InitStrategy, config: &VqeConfig) -> RunRecord {
        let rec = RunRecord::new("vqe")
            .config("qubits", Json::from(n_qubits))
            .config("layers", Json::from(config.layers))
            .config("iterations", Json::from(config.iterations))
            .config("strategy", Json::str(strategy.name()))
            .seed(config.seed)
            .metric("energy", self.energy())
            .metric("exact_energy", self.exact_energy)
            .metric("abs_error", self.absolute_error())
            .metric("initial_energy", self.history.initial_loss())
            .metric("plateau_alarms", self.history.plateau_alarms().len() as f64);
        match self.history.final_bp_score() {
            Some(bp) => rec.metric("bp_score_final", bp),
            None => rec,
        }
    }
}

/// Runs VQE on `hamiltonian` with the paper's training ansatz and Adam,
/// starting from `strategy`-drawn parameters.
///
/// # Errors
///
/// Propagates ansatz/optimizer/simulation errors as [`CoreError`].
pub fn solve(
    hamiltonian: &Observable,
    strategy: InitStrategy,
    config: &VqeConfig,
) -> Result<VqeResult, CoreError> {
    let n_qubits = hamiltonian.n_qubits();
    let ansatz = training_ansatz(n_qubits, config.layers)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let theta0 = strategy.sample_params(&ansatz.shape, config.fan_mode, &mut rng)?;
    let mut adam = Adam::new(config.learning_rate)?;
    let run = train_instrumented(
        &ansatz.circuit,
        hamiltonian,
        theta0,
        &mut adam,
        config.iterations,
        &Adjoint,
        &BarrenPlateauAlarm::default(),
        TrainTelemetry::for_run(ansatz.shape.params_per_layer()),
    )?;
    Ok(VqeResult {
        history: run.history,
        exact_energy: ground_state_energy(hamiltonian)?,
        series: run.series.expect("telemetry records a series"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::{heisenberg_xxz, transverse_field_ising};

    #[test]
    fn vqe_solves_small_tfim_from_xavier() {
        let h = transverse_field_ising(3, 1.0, 1.0).unwrap();
        let cfg = VqeConfig {
            layers: 3,
            iterations: 150,
            seed: 1,
            ..VqeConfig::default()
        };
        let r = solve(&h, InitStrategy::XavierNormal, &cfg).unwrap();
        assert!(
            r.relative_error().unwrap() < 0.05,
            "energy {} vs exact {}",
            r.energy(),
            r.exact_energy
        );
        // Variational principle: E ≥ E₀ (up to numerical slack).
        assert!(r.absolute_error() > -1e-8);
    }

    #[test]
    fn vqe_on_heisenberg_improves_substantially() {
        let h = heisenberg_xxz(3, 1.0).unwrap();
        let cfg = VqeConfig {
            layers: 4,
            iterations: 200,
            seed: 2,
            ..VqeConfig::default()
        };
        let r = solve(&h, InitStrategy::XavierUniform, &cfg).unwrap();
        assert!(
            r.history.final_loss() < r.history.initial_loss() - 0.5,
            "{} → {}",
            r.history.initial_loss(),
            r.history.final_loss()
        );
        assert!(r.absolute_error() > -1e-8);
    }

    #[test]
    fn relative_error_guard() {
        // A Hamiltonian with zero ground energy: H = I − |0⟩⟨0| scaled…
        // easiest: projector observable has E₀ = 0.
        let h = plateau_sim::Observable::zero_projector(2);
        let cfg = VqeConfig {
            layers: 1,
            iterations: 1,
            ..VqeConfig::default()
        };
        let r = solve(&h, InitStrategy::Zero, &cfg).unwrap();
        assert!(r.relative_error().is_err());
    }

    #[test]
    fn vqe_appends_ledger_record_with_series() {
        let dir =
            std::env::temp_dir().join(format!("plateau_vqe_ledger_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let h = transverse_field_ising(2, 1.0, 1.0).unwrap();
        let cfg = VqeConfig {
            layers: 1,
            iterations: 3,
            ..VqeConfig::default()
        };
        let r = solve(&h, InitStrategy::XavierNormal, &cfg).unwrap();
        let rec = r.run_record(2, InitStrategy::XavierNormal, &cfg);
        plateau_obs::record_run(&dir, &rec, Some(&r.series)).unwrap();

        let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
        let rec = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(rec.get("command").and_then(Json::as_str), Some("vqe"));
        let config = rec.get("config").and_then(Json::as_obj).unwrap();
        let keys: Vec<&str> = config.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["qubits", "layers", "iterations", "strategy"]);
        assert_eq!(
            rec.get("metrics").unwrap().get("exact_energy").unwrap().as_f64(),
            Some(r.exact_energy)
        );
        let rel = rec.get("series").unwrap().as_str().unwrap().to_string();
        let series = plateau_obs::TimeSeries::read_jsonl(&dir.join(rel)).unwrap();
        assert_eq!(series.len(), 3, "one row per iteration");
        assert!(series.columns().iter().any(|c| c == "layer_var_0"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn xavier_start_beats_random_start_at_fixed_budget() {
        // The paper's message transplanted to VQE: at a tight iteration
        // budget on a wider chain, the bounded start reaches lower energy.
        let h = transverse_field_ising(6, 1.0, 1.0).unwrap();
        let cfg = VqeConfig {
            layers: 4,
            iterations: 60,
            seed: 3,
            ..VqeConfig::default()
        };
        let xavier = solve(&h, InitStrategy::XavierNormal, &cfg).unwrap();
        let random = solve(&h, InitStrategy::Random, &cfg).unwrap();
        assert!(
            xavier.energy() < random.energy(),
            "xavier {} should beat random {}",
            xavier.energy(),
            random.energy()
        );
    }
}
