//! A data re-uploading variational classifier (Pérez-Salinas et al. 2020)
//! built on the plateau stack — the "QML circuit" of the paper's title as
//! an end-to-end supervised-learning pipeline.
//!
//! Architecture per layer: an encoding sub-layer `RY(x_{q mod d})` on each
//! qubit (data re-uploaded every layer), trainable `RX·RY` on each qubit,
//! and a CZ entangling chain. The decision function is `⟨Z₀⟩` with class
//! boundary at zero; training minimizes the mean squared error against
//! ±1 targets with exact adjoint gradients, masked so only the trainable
//! weights move (data slots stay pinned to the sample's features).
//!
//! # Examples
//!
//! ```
//! use plateau_core::init::{FanMode, InitStrategy};
//! use plateau_core::optim::Adam;
//! use plateau_qml::classifier::Classifier;
//! use plateau_qml::dataset::gaussian_blobs;
//! use plateau_rng::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(2);
//! let data = gaussian_blobs(60, 0.15, &mut rng);
//! let mut model = Classifier::new(2, 2, 2)?;
//! let w0 = model.init_weights(InitStrategy::XavierNormal, FanMode::TensorShape, &mut rng)?;
//! let mut adam = Adam::new(0.1)?;
//! let trained = model.fit(w0, &data, &mut adam, 40)?;
//! assert!(model.accuracy(&trained.weights, &data)? > 0.9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::dataset::Sample;
use plateau_core::error::CoreError;
use plateau_core::init::{FanMode, InitStrategy, LayerShape};
use plateau_core::optim::Optimizer;
use plateau_core::train::{DynamicsRecorder, PlateauScore, BP_SCORE_WINDOW};
use plateau_grad::BatchExecutor;
use plateau_obs::json::Json;
use plateau_obs::{RunRecord, TimeSeries};
use plateau_sim::{Circuit, Observable, Pauli, PauliString};
use plateau_rng::Rng;

/// A data re-uploading classifier model: fixed architecture, trainable
/// weight vector supplied per call.
#[derive(Debug, Clone)]
pub struct Classifier {
    circuit: Circuit,
    /// `(param index, feature index)` for every encoding slot.
    data_slots: Vec<(usize, usize)>,
    /// Parameter indices of the trainable weights, in order.
    weight_slots: Vec<usize>,
    shape: LayerShape,
    observable: Observable,
    n_features: usize,
}

/// Output of [`Classifier::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// Trained weights (length = [`Classifier::n_weights`]).
    pub weights: Vec<f64>,
    /// Mean-squared-error loss after each epoch (`epochs + 1` entries,
    /// starting with the untrained loss).
    pub losses: Vec<f64>,
    /// The gradient-dynamics series (loss, weight-gradient norm, BP score,
    /// per-layer weight-gradient variances), one row per epoch.
    pub series: TimeSeries,
}

impl Classifier {
    /// Builds the architecture: `layers` re-uploading layers over
    /// `n_qubits` qubits for `n_features`-dimensional inputs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero-sized dimensions.
    pub fn new(n_qubits: usize, layers: usize, n_features: usize) -> Result<Classifier, CoreError> {
        if n_qubits == 0 || layers == 0 || n_features == 0 {
            return Err(CoreError::InvalidConfig(
                "classifier dimensions must be nonzero".into(),
            ));
        }
        let mut circuit = Circuit::new(n_qubits)?;
        let mut data_slots = Vec::new();
        let mut weight_slots = Vec::new();
        for _ in 0..layers {
            // Encoding sub-layer: feature q mod d on qubit q, scaled by π
            // at evaluation time so the full feature range spans a
            // half-turn.
            for q in 0..n_qubits {
                circuit.ry(q)?;
                data_slots.push((circuit.n_params() - 1, q % n_features));
            }
            // Trainable sub-layer.
            for q in 0..n_qubits {
                circuit.rx(q)?;
                weight_slots.push(circuit.n_params() - 1);
                circuit.ry(q)?;
                weight_slots.push(circuit.n_params() - 1);
            }
            for q in 0..n_qubits.saturating_sub(1) {
                circuit.cz(q, q + 1)?;
            }
        }
        let shape = LayerShape::new(n_qubits, 2 * n_qubits, layers)?;
        let observable = Observable::pauli(PauliString::single(n_qubits, 0, Pauli::Z)?)?;
        Ok(Classifier {
            circuit,
            data_slots,
            weight_slots,
            shape,
            observable,
            n_features,
        })
    }

    /// Number of trainable weights.
    pub fn n_weights(&self) -> usize {
        self.weight_slots.len()
    }

    /// The underlying circuit (data slots + weight slots as free params).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Draws initial weights with one of the paper's strategies.
    ///
    /// # Errors
    ///
    /// Propagates sampling errors.
    pub fn init_weights<R: Rng>(
        &self,
        strategy: InitStrategy,
        fan_mode: FanMode,
        rng: &mut R,
    ) -> Result<Vec<f64>, CoreError> {
        strategy.sample_params(&self.shape, fan_mode, rng)
    }

    fn full_params(&self, weights: &[f64], features: &[f64]) -> Result<Vec<f64>, CoreError> {
        if weights.len() != self.weight_slots.len() {
            return Err(CoreError::InvalidConfig(format!(
                "expected {} weights, got {}",
                self.weight_slots.len(),
                weights.len()
            )));
        }
        if features.len() != self.n_features {
            return Err(CoreError::InvalidConfig(format!(
                "expected {} features, got {}",
                self.n_features,
                features.len()
            )));
        }
        let mut params = vec![0.0; self.circuit.n_params()];
        for (slot, feature_idx) in &self.data_slots {
            params[*slot] = std::f64::consts::PI * features[*feature_idx];
        }
        for (w, slot) in weights.iter().zip(self.weight_slots.iter()) {
            params[*slot] = *w;
        }
        Ok(params)
    }

    /// The raw decision value `⟨Z₀⟩ ∈ [−1, 1]` for one sample.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for wrong-length inputs.
    pub fn decision_value(&self, weights: &[f64], features: &[f64]) -> Result<f64, CoreError> {
        let params = self.full_params(weights, features)?;
        let state = self.circuit.run(&params)?;
        Ok(self.observable.expectation(&state)?)
    }

    /// Decision values for a whole dataset through one batched sweep:
    /// every sample's evaluation reuses a per-worker scratch statevector
    /// instead of allocating its own.
    fn decision_values(&self, weights: &[f64], data: &[Sample]) -> Result<Vec<f64>, CoreError> {
        let sets = data
            .iter()
            .map(|s| self.full_params(weights, &s.features))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchExecutor::new(&self.circuit).expectation_many(&sets, &self.observable)?)
    }

    /// Predicted class: `⟨Z₀⟩ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for wrong-length inputs.
    pub fn predict(&self, weights: &[f64], features: &[f64]) -> Result<bool, CoreError> {
        Ok(self.decision_value(weights, features)? > 0.0)
    }

    /// Mean squared error against ±1 targets over a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for wrong-length inputs or an
    /// empty dataset.
    pub fn loss(&self, weights: &[f64], data: &[Sample]) -> Result<f64, CoreError> {
        if data.is_empty() {
            return Err(CoreError::InvalidConfig("dataset must be non-empty".into()));
        }
        let values = self.decision_values(weights, data)?;
        let mut total = 0.0;
        for (sample, value) in data.iter().zip(&values) {
            let target = if sample.label { 1.0 } else { -1.0 };
            total += (value - target) * (value - target);
        }
        Ok(total / data.len() as f64)
    }

    /// Classification accuracy over a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for wrong-length inputs or an
    /// empty dataset.
    pub fn accuracy(&self, weights: &[f64], data: &[Sample]) -> Result<f64, CoreError> {
        if data.is_empty() {
            return Err(CoreError::InvalidConfig("dataset must be non-empty".into()));
        }
        let values = self.decision_values(weights, data)?;
        let correct = data
            .iter()
            .zip(&values)
            .filter(|(sample, value)| (**value > 0.0) == sample.label)
            .count();
        Ok(correct as f64 / data.len() as f64)
    }

    /// Full-batch gradient of the MSE loss with respect to the weights
    /// (adjoint gradients per sample, chain-ruled and masked to weight
    /// slots).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for wrong-length inputs or an
    /// empty dataset.
    pub fn loss_gradient(&self, weights: &[f64], data: &[Sample]) -> Result<Vec<f64>, CoreError> {
        if data.is_empty() {
            return Err(CoreError::InvalidConfig("dataset must be non-empty".into()));
        }
        let sets = data
            .iter()
            .map(|s| self.full_params(weights, &s.features))
            .collect::<Result<Vec<_>, _>>()?;
        // One executor feeds both sweeps; the fold below
        // runs in sample order so the result matches the old
        // sample-at-a-time loop exactly.
        let mut ex = BatchExecutor::new(&self.circuit);
        let values = ex.expectation_many(&sets, &self.observable)?;
        let fulls = ex.adjoint_gradient_many(&sets, &self.observable)?;
        let mut grad = vec![0.0; self.weight_slots.len()];
        for ((sample, value), full) in data.iter().zip(&values).zip(&fulls) {
            let target = if sample.label { 1.0 } else { -1.0 };
            let outer = 2.0 * (value - target);
            for (g, slot) in grad.iter_mut().zip(self.weight_slots.iter()) {
                *g += outer * full[*slot];
            }
        }
        let n = data.len() as f64;
        for g in &mut grad {
            *g /= n;
        }
        Ok(grad)
    }

    /// Trains for `epochs` full-batch steps with the given optimizer.
    ///
    /// # Errors
    ///
    /// Propagates gradient and optimizer errors.
    pub fn fit(
        &self,
        initial_weights: Vec<f64>,
        data: &[Sample],
        optimizer: &mut dyn Optimizer,
        epochs: usize,
    ) -> Result<FitResult, CoreError> {
        let mut weights = initial_weights;
        let mut losses = Vec::with_capacity(epochs + 1);
        losses.push(self.loss(&weights, data)?);

        let mut recorder =
            DynamicsRecorder::new(self.n_weights(), Some(self.shape.params_per_layer()), 0);
        let mut score = PlateauScore::new(BP_SCORE_WINDOW);
        for epoch in 0..epochs {
            let grad = self.loss_gradient(&weights, data)?;
            let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            recorder.push(epoch, losses[epoch], norm, score.observe(&grad), &grad);
            optimizer.step(&mut weights, &grad)?;
            losses.push(self.loss(&weights, data)?);
        }
        Ok(FitResult {
            weights,
            losses,
            series: recorder.finish(),
        })
    }

    /// The experiment-ledger record of `fit`, trained on `samples`
    /// samples: a `"classify"` run with the initial and final loss as
    /// metrics. Its series is [`FitResult::series`].
    pub fn run_record(&self, fit: &FitResult, samples: usize) -> RunRecord {
        RunRecord::new("classify")
            .config("qubits", Json::from(self.circuit.n_qubits()))
            .config("layers", Json::from(self.shape.layers()))
            .config("features", Json::from(self.n_features))
            .config("epochs", Json::from(fit.losses.len() - 1))
            .config("samples", Json::from(samples))
            .metric("initial_loss", fit.losses[0])
            .metric("final_loss", fit.losses[fit.losses.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{gaussian_blobs, train_test_split, two_moons};
    use plateau_core::optim::Adam;
    use plateau_rng::rngs::StdRng;
    use plateau_rng::SeedableRng;

    #[test]
    fn architecture_counts() {
        let m = Classifier::new(3, 2, 2).unwrap();
        // Per layer: 3 data slots + 6 weights; 2 layers.
        assert_eq!(m.n_weights(), 12);
        assert_eq!(m.circuit().n_params(), 18);
        assert!(Classifier::new(0, 1, 1).is_err());
        assert!(Classifier::new(1, 0, 1).is_err());
        assert!(Classifier::new(1, 1, 0).is_err());
    }

    #[test]
    fn decision_is_bounded_and_deterministic() {
        let m = Classifier::new(2, 2, 2).unwrap();
        let w = vec![0.3; m.n_weights()];
        let v1 = m.decision_value(&w, &[0.5, -0.5]).unwrap();
        let v2 = m.decision_value(&w, &[0.5, -0.5]).unwrap();
        assert_eq!(v1, v2);
        assert!(v1.abs() <= 1.0);
        assert!(m.decision_value(&w, &[0.5]).is_err());
        assert!(m.decision_value(&[0.1], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn fit_appends_classify_ledger_record() {
        let dir =
            std::env::temp_dir().join(format!("plateau_qml_ledger_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let m = Classifier::new(2, 1, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let data = gaussian_blobs(6, 0.2, &mut rng);
        let w = vec![0.1; m.n_weights()];
        let mut adam = Adam::new(0.1).unwrap();
        let fitted = m.fit(w, &data, &mut adam, 2).unwrap();
        plateau_obs::record_run(&dir, &m.run_record(&fitted, data.len()), Some(&fitted.series))
            .unwrap();

        let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
        let rec = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(rec.get("command").unwrap().as_str(), Some("classify"));
        let config = rec.get("config").and_then(Json::as_obj).unwrap();
        let keys: Vec<&str> = config.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["qubits", "layers", "features", "epochs", "samples"]);
        assert_eq!(
            rec.get("metrics").unwrap().get("final_loss").unwrap().as_f64(),
            fitted.losses.last().copied()
        );
        let rel = rec.get("series").unwrap().as_str().unwrap().to_string();
        let series = plateau_obs::TimeSeries::read_jsonl(&dir.join(rel)).unwrap();
        assert_eq!(series.len(), 2, "one row per epoch");
        assert!(series.columns().iter().any(|c| c == "layer_var_0"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gradient_matches_finite_difference_of_loss() {
        let m = Classifier::new(2, 1, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let data = gaussian_blobs(8, 0.2, &mut rng);
        let w: Vec<f64> = (0..m.n_weights()).map(|i| 0.2 * i as f64 - 0.3).collect();
        let grad = m.loss_gradient(&w, &data).unwrap();
        let eps = 1e-5;
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let fd = (m.loss(&wp, &data).unwrap() - m.loss(&wm, &data).unwrap()) / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < 1e-7,
                "weight {i}: analytic {} vs fd {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn learns_separable_blobs() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = gaussian_blobs(60, 0.15, &mut rng);
        let m = Classifier::new(2, 2, 2).unwrap();
        let w0 = m
            .init_weights(InitStrategy::XavierNormal, FanMode::TensorShape, &mut rng)
            .unwrap();
        let mut adam = Adam::new(0.1).unwrap();
        let fit = m.fit(w0, &data, &mut adam, 40).unwrap();
        assert!(fit.losses.last().unwrap() < &fit.losses[0]);
        let acc = m.accuracy(&fit.weights, &data).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn learns_two_moons_beyond_linear_baseline() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = two_moons(80, 0.05, &mut rng);
        let (train, test) = train_test_split(data, 0.75);
        let m = Classifier::new(3, 3, 2).unwrap();
        let w0 = m
            .init_weights(InitStrategy::XavierNormal, FanMode::TensorShape, &mut rng)
            .unwrap();
        let mut adam = Adam::new(0.1).unwrap();
        let fit = m.fit(w0, &train, &mut adam, 60).unwrap();
        let train_acc = m.accuracy(&fit.weights, &train).unwrap();
        let test_acc = m.accuracy(&fit.weights, &test).unwrap();
        assert!(train_acc > 0.85, "train accuracy {train_acc}");
        assert!(test_acc > 0.75, "test accuracy {test_acc}");
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let m = Classifier::new(2, 1, 2).unwrap();
        let w = vec![0.0; m.n_weights()];
        assert!(m.loss(&w, &[]).is_err());
        assert!(m.accuracy(&w, &[]).is_err());
        assert!(m.loss_gradient(&w, &[]).is_err());
    }
}
