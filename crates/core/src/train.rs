//! Training loop for the identity-learning task (the paper's §IV-D / §V).
//!
//! Given an ansatz, a cost observable, an initial parameter vector, and an
//! optimizer, [`train`] runs a fixed number of iterations (the paper uses
//! 50) recording the loss trajectory — the data series behind Fig 5b/5c.
//!
//! The loop carries a [`BarrenPlateauAlarm`]: when the gradient norm stays
//! below a threshold for a configurable number of consecutive iterations,
//! a structured `barren_plateau_alarm` warning event is emitted through
//! `plateau-obs` and the occurrence is recorded in
//! [`TrainingHistory::plateau_alarms`].
//!
//! On top of the one-shot alarm sits an *online early-warning score*
//! ([`PlateauScore`]): the OLS slope of the log gradient-component
//! variance over a rolling window. A plateau announces itself as a flat
//! or decaying log-variance trend at tiny norms *before* the alarm's
//! streak completes; the score is recorded per iteration in
//! [`TrainingHistory::bp_scores`], published as the `train.bp_score`
//! gauge, and surfaced once per run as a `bp_early_warning` event.
//!
//! [`train_instrumented`] extends the loop with gradient-dynamics
//! telemetry: a bounded [`TimeSeries`] of loss / gradient norm / BP score
//! / per-layer gradient variances, kept by the [`DynamicsRecorder`] that
//! VQE and the classifier share. It is strictly opt-in: with telemetry off
//! the loop allocates nothing beyond what [`train`] always did. The loop
//! writes nothing to disk; [`TrainingHistory::run_metrics`] gives the
//! final metrics of an experiment-ledger record (see `plateau_obs::ledger`)
//! that the `plateau` CLI writes.
//!
//! # Examples
//!
//! ```
//! use plateau_core::{ansatz::training_ansatz, cost::CostKind, optim::Adam, train::train};
//! use plateau_core::init::{FanMode, InitStrategy};
//! use plateau_rng::{rngs::StdRng, SeedableRng};
//!
//! let a = training_ansatz(4, 2)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let theta0 = InitStrategy::XavierNormal.sample_params(&a.shape, FanMode::Qubits, &mut rng)?;
//! let mut adam = Adam::new(0.1)?;
//! let hist = train(&a.circuit, &CostKind::Global.observable(4), theta0, &mut adam, 30)?;
//! assert_eq!(hist.losses().len(), 31); // initial loss + one per iteration
//! assert!(hist.final_loss() < hist.initial_loss());
//! # Ok::<(), plateau_core::CoreError>(())
//! ```

use crate::error::CoreError;
use crate::optim::Optimizer;
use plateau_grad::{layer_grad_variances_into, Adjoint, BatchExecutor, GradientEngine};
use plateau_obs::{RunRecord, TimeSeries};
use plateau_sim::{Circuit, Observable};

/// One firing of the [`BarrenPlateauAlarm`]: the iteration at which a
/// sub-threshold gradient-norm streak reached the alarm window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateauAlarmEvent {
    /// Zero-based iteration index at which the streak completed.
    pub iteration: usize,
    /// The gradient norm observed at that iteration.
    pub grad_norm: f64,
}

/// Health check for training runs: fires when the gradient norm stays
/// below `threshold` for `window` consecutive iterations — the operational
/// signature of a barren plateau. Each streak fires at most once; the
/// streak resets as soon as the norm recovers.
///
/// A `window` of 0 disables the alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrenPlateauAlarm {
    /// Gradient-norm threshold below which an iteration counts toward the
    /// streak.
    pub threshold: f64,
    /// Number of consecutive sub-threshold iterations required to fire.
    pub window: usize,
}

impl Default for BarrenPlateauAlarm {
    fn default() -> Self {
        BarrenPlateauAlarm {
            threshold: 1e-4,
            window: 8,
        }
    }
}

impl BarrenPlateauAlarm {
    /// Feeds one iteration's gradient norm into the streak counter held in
    /// `streak`. Returns an event exactly when the streak *reaches* the
    /// window — later iterations of the same streak stay silent.
    pub fn observe(
        &self,
        streak: &mut usize,
        iteration: usize,
        grad_norm: f64,
    ) -> Option<PlateauAlarmEvent> {
        if self.window == 0 {
            return None;
        }
        if grad_norm < self.threshold {
            *streak += 1;
            if *streak == self.window {
                return Some(PlateauAlarmEvent { iteration, grad_norm });
            }
        } else {
            *streak = 0;
        }
        None
    }
}

/// Window (in iterations) over which [`PlateauScore`] fits its rolling
/// log-variance slope. Matches the default alarm window so the score
/// matures exactly when the alarm could first fire.
pub const BP_SCORE_WINDOW: usize = 8;

/// Gradient-norm ceiling for the `bp_early_warning` event: the slope test
/// only means "plateau" when gradients are already small (10× the default
/// alarm threshold), not during an ordinary descent whose log-variance
/// also trends down.
pub const BP_WARN_NORM: f64 = 1e-3;

/// Slope ceiling for the `bp_early_warning` event: a healthy escape shows
/// clearly *growing* variance, so anything at or below this weakly
/// positive slope counts as flat-or-decaying.
pub const BP_WARN_SLOPE: f64 = 0.05;

/// Online barren-plateau early-warning score.
///
/// Feeds the population variance of each iteration's gradient components
/// into a rolling window of `ln(variance)` values and reports the OLS
/// slope of that window (via `plateau_stats::fit_line`) — the same
/// log-linear decay fit the paper applies across qubit counts, here
/// applied across iterations of a single run. A near-zero or negative
/// slope at small gradient norms is the operational "heading into a
/// plateau" signature, and unlike [`BarrenPlateauAlarm`]'s binary streak
/// it grades *how fast* the variance is collapsing.
///
/// The window is preallocated: `observe` is allocation-free after
/// construction, fit included.
#[derive(Debug, Clone)]
pub struct PlateauScore {
    window: usize,
    /// Precomputed abscissae `0..window` for the rolling fit.
    xs: Vec<f64>,
    log_vars: Vec<f64>,
}

impl PlateauScore {
    /// Floor applied to the variance before the log, so an exactly-zero
    /// gradient (deep plateau) yields a large-negative but finite value
    /// instead of `-inf` (which would poison the fit).
    const VAR_FLOOR: f64 = 1e-300;

    /// A score with the given rolling window (clamped to at least 2, the
    /// minimum a line fit needs).
    pub fn new(window: usize) -> PlateauScore {
        let window = window.max(2);
        PlateauScore {
            window,
            xs: (0..window).map(|i| i as f64).collect(),
            log_vars: Vec::with_capacity(window),
        }
    }

    /// Feeds one iteration's gradient and returns the current rolling
    /// slope, or `NaN` until the window has filled (or when the gradient
    /// is empty / non-finite).
    pub fn observe(&mut self, gradient: &[f64]) -> f64 {
        if gradient.is_empty() {
            return f64::NAN;
        }
        let n = gradient.len() as f64;
        let mean = gradient.iter().sum::<f64>() / n;
        let var = gradient.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
        if self.log_vars.len() == self.window {
            // O(window) shift within preallocated storage; no realloc.
            self.log_vars.remove(0);
        }
        self.log_vars.push(var.max(Self::VAR_FLOOR).ln());
        if self.log_vars.len() < self.window {
            return f64::NAN;
        }
        match plateau_stats::fit_line(&self.xs, &self.log_vars) {
            Ok(fit) => fit.slope,
            Err(_) => f64::NAN,
        }
    }
}

/// The recorded trajectory of one training run.
///
/// Guaranteed non-empty: every constructor validates that there is at
/// least one loss entry and that `grad_norms` holds exactly one entry per
/// iteration (`losses.len() - 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingHistory {
    pub(crate) losses: Vec<f64>,
    pub(crate) grad_norms: Vec<f64>,
    pub(crate) final_params: Vec<f64>,
    pub(crate) plateau_alarms: Vec<PlateauAlarmEvent>,
    pub(crate) bp_scores: Vec<f64>,
}

impl TrainingHistory {
    /// Builds a history, enforcing the structural invariants that the
    /// accessors rely on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `losses` is empty or when
    /// `grad_norms.len() + 1 != losses.len()`.
    pub fn new(
        losses: Vec<f64>,
        grad_norms: Vec<f64>,
        final_params: Vec<f64>,
    ) -> Result<TrainingHistory, CoreError> {
        if losses.is_empty() {
            return Err(CoreError::InvalidConfig(
                "training history needs at least one loss entry".into(),
            ));
        }
        if grad_norms.len() + 1 != losses.len() {
            return Err(CoreError::InvalidConfig(format!(
                "training history needs one gradient norm per iteration: \
                 {} losses imply {} norms, got {}",
                losses.len(),
                losses.len() - 1,
                grad_norms.len()
            )));
        }
        Ok(TrainingHistory {
            losses,
            grad_norms,
            final_params,
            plateau_alarms: Vec::new(),
            bp_scores: Vec::new(),
        })
    }

    /// Loss before training plus after each iteration
    /// (`iterations + 1` entries).
    pub fn losses(&self) -> &[f64] {
        &self.losses
    }

    /// L2 norm of the gradient at each iteration (`iterations` entries).
    pub fn grad_norms(&self) -> &[f64] {
        &self.grad_norms
    }

    /// Parameters after the final iteration.
    pub fn final_params(&self) -> &[f64] {
        &self.final_params
    }

    /// Barren-plateau alarms raised during the run, in firing order.
    pub fn plateau_alarms(&self) -> &[PlateauAlarmEvent] {
        &self.plateau_alarms
    }

    /// The [`PlateauScore`] at each iteration (`iterations` entries for
    /// histories produced by the training loop; `NaN` until the rolling
    /// window fills). Empty for histories assembled via [`Self::new`].
    pub fn bp_scores(&self) -> &[f64] {
        &self.bp_scores
    }

    /// The most recent mature (finite) early-warning score, or `None`
    /// when the run was shorter than the scoring window.
    pub fn final_bp_score(&self) -> Option<f64> {
        self.bp_scores.iter().rev().copied().find(|s| s.is_finite())
    }

    /// Loss at initialization.
    pub fn initial_loss(&self) -> f64 {
        self.losses[0]
    }

    /// Loss after the final iteration. Total by construction: the
    /// validating constructors reject empty histories.
    pub fn final_loss(&self) -> f64 {
        self.losses[self.losses.len() - 1]
    }

    /// First iteration (1-based) at which the loss drops below `threshold`,
    /// or `None` if it never does. Iteration 0 means "already below at
    /// initialization".
    pub fn iterations_to_reach(&self, threshold: f64) -> Option<usize> {
        self.losses.iter().position(|&l| l < threshold)
    }

    /// Total loss reduction, `initial − final`.
    pub fn improvement(&self) -> f64 {
        self.initial_loss() - self.final_loss()
    }

    /// `run` with the run's final metrics added, in ledger order:
    /// `initial_loss`, `final_loss`, `final_grad_norm`, `plateau_alarms`
    /// and, once the score has matured, `bp_score_final`.
    pub fn run_metrics(&self, run: RunRecord) -> RunRecord {
        let run = run
            .metric("initial_loss", self.initial_loss())
            .metric("final_loss", self.final_loss())
            .metric("final_grad_norm", self.grad_norms.last().copied().unwrap_or(f64::NAN))
            .metric("plateau_alarms", self.plateau_alarms.len() as f64);
        match self.final_bp_score() {
            Some(bp) => run.metric("bp_score_final", bp),
            None => run,
        }
    }
}

/// The gradient-dynamics series of one optimization run, shared by
/// training, VQE and the classifier: one row per step holding the
/// pre-step loss, the gradient norm, the [`PlateauScore`] and, given a
/// layer width, each layer's gradient-component variance
/// (`layer_var_<i>`). Pushing a row allocates only the row itself.
#[derive(Debug)]
pub struct DynamicsRecorder {
    series: TimeSeries,
    params_per_layer: Option<usize>,
    row: Vec<f64>,
    layer_vars: Vec<f64>,
}

impl DynamicsRecorder {
    const DEFAULT_CAPACITY: usize = 256;

    /// A recorder for `n_params` gradient components, with per-layer
    /// columns when `params_per_layer` is set, retaining at most
    /// `capacity` rows (0 → the 256-row default; longer runs are
    /// decimated, never truncated).
    pub fn new(n_params: usize, params_per_layer: Option<usize>, capacity: usize) -> DynamicsRecorder {
        let ppl = params_per_layer.filter(|&p| p > 0);
        let n_layers = ppl.map_or(0, |p| n_params.div_ceil(p));
        let mut columns = vec!["loss".to_string(), "grad_norm".to_string(), "bp_score".to_string()];
        columns.extend((0..n_layers).map(|i| format!("layer_var_{i}")));
        let capacity = if capacity == 0 { Self::DEFAULT_CAPACITY } else { capacity };
        DynamicsRecorder {
            series: TimeSeries::new(columns, capacity),
            params_per_layer: ppl,
            row: Vec::with_capacity(3 + n_layers),
            layer_vars: Vec::with_capacity(n_layers),
        }
    }

    /// Records step `step`: its pre-step `loss`, `grad_norm`, `bp_score`
    /// and the per-layer variances of `grad`.
    pub fn push(&mut self, step: usize, loss: f64, grad_norm: f64, bp_score: f64, grad: &[f64]) {
        self.row.clear();
        self.row.extend_from_slice(&[loss, grad_norm, bp_score]);
        if let Some(p) = self.params_per_layer {
            layer_grad_variances_into(grad, p, &mut self.layer_vars);
            self.row.extend_from_slice(&self.layer_vars);
        }
        self.series.push(step as f64, &self.row);
    }

    /// The recorded series.
    pub fn finish(self) -> TimeSeries {
        self.series
    }
}

/// Trains `circuit` against `observable` for `iterations` steps using the
/// exact adjoint gradient, mutating a copy of `initial_params` with
/// `optimizer`.
///
/// # Errors
///
/// Propagates configuration errors (parameter-count mismatches, optimizer
/// length mismatches) as [`CoreError`].
pub fn train(
    circuit: &Circuit,
    observable: &Observable,
    initial_params: Vec<f64>,
    optimizer: &mut dyn Optimizer,
    iterations: usize,
) -> Result<TrainingHistory, CoreError> {
    train_with_engine(circuit, observable, initial_params, optimizer, iterations, &Adjoint)
}

/// [`train`] with an explicit gradient engine (used by tests to show that
/// the training trajectory is engine-independent, and by the shot-noise
/// ablation). Runs the default [`BarrenPlateauAlarm`].
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`].
pub fn train_with_engine(
    circuit: &Circuit,
    observable: &Observable,
    initial_params: Vec<f64>,
    optimizer: &mut dyn Optimizer,
    iterations: usize,
    engine: &dyn GradientEngine,
) -> Result<TrainingHistory, CoreError> {
    train_with_alarm(
        circuit,
        observable,
        initial_params,
        optimizer,
        iterations,
        engine,
        &BarrenPlateauAlarm::default(),
    )
}

/// [`train_with_engine`] with an explicit [`BarrenPlateauAlarm`]
/// configuration.
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`].
pub fn train_with_alarm(
    circuit: &Circuit,
    observable: &Observable,
    initial_params: Vec<f64>,
    optimizer: &mut dyn Optimizer,
    iterations: usize,
    engine: &dyn GradientEngine,
    alarm: &BarrenPlateauAlarm,
) -> Result<TrainingHistory, CoreError> {
    train_instrumented(
        circuit,
        observable,
        initial_params,
        optimizer,
        iterations,
        engine,
        alarm,
        TrainTelemetry::default(),
    )
    .map(|run| run.history)
}

/// Opt-in telemetry configuration for [`train_instrumented`].
///
/// The default is fully off: no time series, and the training hot loop
/// allocates exactly what [`train`] always did.
#[derive(Debug, Default)]
pub struct TrainTelemetry {
    /// Layer width of the ansatz's parameter vector. When set, the time
    /// series gains one `layer_var_<i>` column per layer carrying that
    /// layer's gradient-component variance — the paper's per-layer
    /// barren-plateau profile, live.
    pub params_per_layer: Option<usize>,
    /// Maximum retained rows in the time series (0 → the 256-row
    /// default). Longer runs are decimated, never truncated.
    pub series_capacity: usize,
    /// Record the time series, returned in [`TrainRun::series`].
    pub record_series: bool,
}

impl TrainTelemetry {
    /// Telemetry that records a series with per-layer attribution at
    /// `params_per_layer`.
    pub fn for_run(params_per_layer: usize) -> TrainTelemetry {
        TrainTelemetry {
            params_per_layer: Some(params_per_layer),
            series_capacity: 0,
            record_series: true,
        }
    }
}

/// Everything [`train_instrumented`] produces: the ordinary history plus
/// the recorded series (when telemetry asked for it).
#[derive(Debug)]
pub struct TrainRun {
    /// The training trajectory, exactly as [`train_with_alarm`] returns.
    pub history: TrainingHistory,
    /// The recorded gradient-dynamics series, when recording was on.
    pub series: Option<TimeSeries>,
}

/// [`train_with_alarm`] plus gradient-dynamics telemetry (see
/// [`TrainTelemetry`]). This is the single real training loop; the
/// simpler entry points delegate here with telemetry off.
///
/// # Errors
///
/// Propagates configuration errors as [`CoreError`].
#[allow(clippy::too_many_arguments)]
pub fn train_instrumented(
    circuit: &Circuit,
    observable: &Observable,
    initial_params: Vec<f64>,
    optimizer: &mut dyn Optimizer,
    iterations: usize,
    engine: &dyn GradientEngine,
    alarm: &BarrenPlateauAlarm,
    telemetry: TrainTelemetry,
) -> Result<TrainRun, CoreError> {
    let mut params = initial_params;
    circuit.check_params(&params)?;

    let _span = plateau_obs::span!("train", iterations = iterations, params = params.len());

    let mut recorder = telemetry.record_series.then(|| {
        DynamicsRecorder::new(params.len(), telemetry.params_per_layer, telemetry.series_capacity)
    });

    let mut losses = Vec::with_capacity(iterations + 1);
    let mut grad_norms = Vec::with_capacity(iterations);
    let mut alarms = Vec::new();
    let mut streak = 0usize;
    let mut score = PlateauScore::new(BP_SCORE_WINDOW);
    let mut bp_scores = Vec::with_capacity(iterations);
    let mut warned = false;
    // One reusable scratch statevector for every loss evaluation across
    // the whole run (the per-iteration gradient still goes through
    // `engine`, whose adjoint path owns its own scratch).
    let mut evaluator = BatchExecutor::new(circuit);
    losses.push(evaluator.expectation(&params, observable)?);

    for it in 0..iterations {
        let grad = engine.gradient(circuit, &params, observable)?;
        let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        plateau_obs::gauge!("train.grad_norm").set(norm);
        grad_norms.push(norm);
        if let Some(event) = alarm.observe(&mut streak, it, norm) {
            plateau_obs::event!(
                plateau_obs::Level::Warn,
                "barren_plateau_alarm",
                iteration = event.iteration,
                grad_norm = event.grad_norm,
                threshold = alarm.threshold,
                window = alarm.window
            );
            alarms.push(event);
        }
        let bp = score.observe(&grad);
        bp_scores.push(bp);
        if bp.is_finite() {
            plateau_obs::gauge!("train.bp_score").set(bp);
            if !warned && norm < BP_WARN_NORM && bp <= BP_WARN_SLOPE {
                warned = true;
                plateau_obs::event!(
                    plateau_obs::Level::Warn,
                    "bp_early_warning",
                    iteration = it,
                    bp_score = bp,
                    grad_norm = norm
                );
            }
        }
        if let Some(recorder) = recorder.as_mut() {
            recorder.push(it, losses[it], norm, bp, &grad);
        }
        optimizer.step(&mut params, &grad)?;
        plateau_obs::counter!("train.optimizer_steps").inc();
        losses.push(evaluator.expectation(&params, observable)?);
    }

    let mut hist = TrainingHistory::new(losses, grad_norms, params)?;
    hist.plateau_alarms = alarms;
    hist.bp_scores = bp_scores;

    Ok(TrainRun {
        history: hist,
        series: recorder.map(DynamicsRecorder::finish),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::training_ansatz;
    use crate::cost::CostKind;
    use crate::init::{FanMode, InitStrategy};
    use crate::optim::{Adam, GradientDescent};
    use plateau_grad::ParameterShift;
    use plateau_rng::rngs::StdRng;
    use plateau_rng::SeedableRng;

    fn setup(n: usize, layers: usize, strategy: InitStrategy, seed: u64) -> (Circuit, Vec<f64>) {
        let a = training_ansatz(n, layers).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let theta = strategy
            .sample_params(&a.shape, FanMode::Qubits, &mut rng)
            .unwrap();
        (a.circuit, theta)
    }

    #[test]
    fn xavier_init_trains_to_low_cost() {
        let (c, theta) = setup(4, 3, InitStrategy::XavierNormal, 0);
        let obs = CostKind::Global.observable(4);
        let mut adam = Adam::new(0.1).unwrap();
        let hist = train(&c, &obs, theta, &mut adam, 50).unwrap();
        assert!(hist.final_loss() < 0.05, "final {}", hist.final_loss());
        assert_eq!(hist.losses().len(), 51);
        assert_eq!(hist.grad_norms().len(), 50);
        assert_eq!(hist.final_params().len(), c.n_params());
    }

    #[test]
    fn gd_also_decreases_cost() {
        let (c, theta) = setup(4, 2, InitStrategy::XavierUniform, 1);
        let obs = CostKind::Global.observable(4);
        let mut gd = GradientDescent::new(0.1).unwrap();
        let hist = train(&c, &obs, theta, &mut gd, 50).unwrap();
        assert!(hist.improvement() > 0.0);
        assert!(hist.final_loss() < hist.initial_loss());
    }

    #[test]
    fn zero_init_stays_at_minimum() {
        let (c, _) = setup(3, 2, InitStrategy::Zero, 2);
        let theta = vec![0.0; c.n_params()];
        let obs = CostKind::Global.observable(3);
        let mut gd = GradientDescent::new(0.1).unwrap();
        let hist = train(&c, &obs, theta, &mut gd, 5).unwrap();
        for l in hist.losses() {
            assert!(l.abs() < 1e-12);
        }
        for g in hist.grad_norms() {
            assert!(g.abs() < 1e-12);
        }
    }

    #[test]
    fn engine_choice_does_not_change_trajectory() {
        let (c, theta) = setup(3, 2, InitStrategy::He, 3);
        let obs = CostKind::Global.observable(3);
        let mut gd1 = GradientDescent::new(0.1).unwrap();
        let h1 = train_with_engine(&c, &obs, theta.clone(), &mut gd1, 10, &Adjoint).unwrap();
        let mut gd2 = GradientDescent::new(0.1).unwrap();
        let h2 = train_with_engine(&c, &obs, theta, &mut gd2, 10, &ParameterShift).unwrap();
        for (a, b) in h1.losses().iter().zip(h2.losses().iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn history_helpers() {
        let hist = TrainingHistory::new(
            vec![0.9, 0.5, 0.2, 0.05],
            vec![1.0, 0.8, 0.3],
            vec![0.0],
        )
        .unwrap();
        assert_eq!(hist.initial_loss(), 0.9);
        assert_eq!(hist.final_loss(), 0.05);
        assert_eq!(hist.iterations_to_reach(0.3), Some(2));
        assert_eq!(hist.iterations_to_reach(0.01), None);
        assert!((hist.improvement() - 0.85).abs() < 1e-12);
        assert!(hist.plateau_alarms().is_empty());
    }

    #[test]
    fn iterations_to_reach_edge_cases() {
        // Threshold already met at initialization → iteration 0.
        let below_at_start =
            TrainingHistory::new(vec![0.01, 0.5], vec![1.0], vec![0.0]).unwrap();
        assert_eq!(below_at_start.iterations_to_reach(0.1), Some(0));
        // Threshold never met → None (including exact equality: strictly
        // below is required).
        let never = TrainingHistory::new(vec![0.5, 0.5, 0.5], vec![1.0, 1.0], vec![0.0]).unwrap();
        assert_eq!(never.iterations_to_reach(0.5), None);
        assert_eq!(never.iterations_to_reach(0.1), None);
        // Single-entry history (zero iterations).
        let single = TrainingHistory::new(vec![0.3], vec![], vec![]).unwrap();
        assert_eq!(single.iterations_to_reach(0.4), Some(0));
        assert_eq!(single.iterations_to_reach(0.2), None);
    }

    #[test]
    fn constructor_enforces_invariants() {
        assert!(TrainingHistory::new(vec![], vec![], vec![]).is_err());
        assert!(TrainingHistory::new(vec![0.5], vec![1.0], vec![]).is_err());
        assert!(TrainingHistory::new(vec![0.5, 0.4], vec![1.0, 0.9], vec![]).is_err());
        assert!(TrainingHistory::new(vec![0.5, 0.4], vec![1.0], vec![]).is_ok());
    }

    #[test]
    fn alarm_fires_once_per_streak_and_resets() {
        let alarm = BarrenPlateauAlarm {
            threshold: 0.1,
            window: 3,
        };
        let mut streak = 0;
        // Two sub-threshold, one recovery, then a full streak of four: the
        // alarm fires exactly once, at the third consecutive low norm.
        let norms = [0.01, 0.02, 0.5, 0.01, 0.01, 0.01, 0.01];
        let mut events = Vec::new();
        for (it, &n) in norms.iter().enumerate() {
            if let Some(e) = alarm.observe(&mut streak, it, n) {
                events.push(e);
            }
        }
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].iteration, 5);
        assert_eq!(events[0].grad_norm, 0.01);
        // window = 0 disables the alarm entirely.
        let off = BarrenPlateauAlarm { threshold: 0.1, window: 0 };
        let mut s = 0;
        assert!(off.observe(&mut s, 0, 0.0).is_none());
    }

    #[test]
    fn plateau_alarm_surfaces_in_history() {
        // Zero-init on the identity learner sits exactly on the plateau:
        // every gradient norm is ~0, so the default window-8 alarm fires at
        // iteration 7 and only once.
        let (c, _) = setup(3, 2, InitStrategy::Zero, 7);
        let theta = vec![0.0; c.n_params()];
        let obs = CostKind::Global.observable(3);
        let mut gd = GradientDescent::new(0.1).unwrap();
        let hist = train(&c, &obs, theta, &mut gd, 12).unwrap();
        assert_eq!(hist.plateau_alarms().len(), 1);
        assert_eq!(hist.plateau_alarms()[0].iteration, 7);
        assert!(hist.plateau_alarms()[0].grad_norm < 1e-4);
        // A healthy run raises no alarm.
        let (c2, theta2) = setup(4, 3, InitStrategy::XavierNormal, 0);
        let obs2 = CostKind::Global.observable(4);
        let mut adam = Adam::new(0.1).unwrap();
        let healthy = train(&c2, &obs2, theta2, &mut adam, 20).unwrap();
        assert!(healthy.plateau_alarms().is_empty());
    }

    #[test]
    fn plateau_score_matures_after_window_and_grades_decay() {
        let mut score = PlateauScore::new(4);
        // Exponentially decaying gradients: variance shrinks each step, so
        // once mature the log-variance slope is clearly negative.
        let mut slopes = Vec::new();
        for it in 0..8 {
            let s = 0.5f64.powi(it);
            slopes.push(score.observe(&[s, -s, 2.0 * s, 0.0]));
        }
        for s in &slopes[..3] {
            assert!(s.is_nan(), "immature window must report NaN, got {s}");
        }
        for s in &slopes[3..] {
            // Var ∝ (0.5^it)² → ln drops by 2·ln 2 per iteration.
            assert!((s - (-2.0 * 2.0f64.ln())).abs() < 1e-9, "slope {s}");
        }
        // A dead-flat (zero) gradient floors instead of producing -inf,
        // and the rolling slope settles at 0 — flat, not escaping.
        let mut dead = PlateauScore::new(3);
        let mut last = f64::NAN;
        for _ in 0..5 {
            last = dead.observe(&[0.0, 0.0]);
        }
        assert_eq!(last, 0.0);
        // Empty gradients never score.
        assert!(PlateauScore::new(2).observe(&[]).is_nan());
    }

    #[test]
    fn bp_scores_surface_in_history() {
        // Zero-init sits on the plateau: scores are NaN until the window
        // fills at iteration BP_SCORE_WINDOW-1, then flat (≈0) — at or
        // below the early-warning slope while norms sit under the norm
        // gate, i.e. the score flags the plateau the alarm also catches.
        let (c, _) = setup(3, 2, InitStrategy::Zero, 8);
        let theta = vec![0.0; c.n_params()];
        let obs = CostKind::Global.observable(3);
        let mut gd = GradientDescent::new(0.1).unwrap();
        let hist = train(&c, &obs, theta, &mut gd, 12).unwrap();
        assert_eq!(hist.bp_scores().len(), 12);
        for s in &hist.bp_scores()[..BP_SCORE_WINDOW - 1] {
            assert!(s.is_nan());
        }
        for (s, n) in hist.bp_scores()[BP_SCORE_WINDOW - 1..]
            .iter()
            .zip(&hist.grad_norms()[BP_SCORE_WINDOW - 1..])
        {
            assert!(s.is_finite());
            assert!(*s <= BP_WARN_SLOPE, "plateau slope {s} not flagged");
            assert!(*n < BP_WARN_NORM);
        }
        assert_eq!(hist.final_bp_score(), Some(hist.bp_scores()[11]));
        // Histories assembled by hand carry no scores.
        let hand = TrainingHistory::new(vec![0.5, 0.4], vec![1.0], vec![]).unwrap();
        assert!(hand.bp_scores().is_empty());
        assert_eq!(hand.final_bp_score(), None);
    }

    #[test]
    fn instrumented_run_records_series_and_ledger_entry() {
        let dir = std::env::temp_dir().join(format!("plateau_train_ledger_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let (c, theta) = setup(3, 2, InitStrategy::XavierNormal, 9);
        let ppl = c.n_params() / 2; // training ansatz: layer-major, 2 layers
        let obs = CostKind::Global.observable(3);
        let mut gd = GradientDescent::new(0.1).unwrap();
        let telemetry = TrainTelemetry::for_run(ppl);
        let run = train_instrumented(&c, &obs, theta, &mut gd, 10, &Adjoint, &Default::default(), telemetry)
            .unwrap();

        let series = run.series.as_ref().expect("series recorded");
        assert_eq!(
            series.columns(),
            ["loss", "grad_norm", "bp_score", "layer_var_0", "layer_var_1"]
        );
        assert_eq!(series.len(), 10);
        let losses = series.column("loss").unwrap();
        // Row i carries the pre-step loss, i.e. history.losses()[i].
        assert_eq!(losses[0].1, run.history.initial_loss());

        // The run's ledger record: the caller's config and seed, then the
        // loop's final metrics in ledger order.
        let rec = run.history.run_metrics(RunRecord::new("train").seed(9));
        let id = plateau_obs::record_run(&dir, &rec, Some(series)).unwrap();
        let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
        let line = plateau_obs::json::Json::parse(text.lines().next().unwrap()).unwrap();
        let metrics = line.get("metrics").and_then(|m| m.as_obj()).unwrap();
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["initial_loss", "final_loss", "final_grad_norm", "plateau_alarms", "bp_score_final"]
        );
        assert_eq!(metrics[1].1.as_f64(), Some(run.history.final_loss()));
        assert!(dir.join("runs").join(format!("{id}.jsonl")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_off_records_nothing() {
        let (c, theta) = setup(2, 1, InitStrategy::Random, 10);
        let obs = CostKind::Global.observable(2);
        let mut gd = GradientDescent::new(0.1).unwrap();
        let run = train_instrumented(
            &c,
            &obs,
            theta,
            &mut gd,
            3,
            &Adjoint,
            &Default::default(),
            TrainTelemetry::default(),
        )
        .unwrap();
        assert!(run.series.is_none());
    }

    #[test]
    fn zero_iterations_records_only_initial_loss() {
        let (c, theta) = setup(2, 1, InitStrategy::Random, 4);
        let obs = CostKind::Global.observable(2);
        let mut gd = GradientDescent::new(0.1).unwrap();
        let hist = train(&c, &obs, theta, &mut gd, 0).unwrap();
        assert_eq!(hist.losses().len(), 1);
        assert!(hist.grad_norms().is_empty());
    }

    #[test]
    fn wrong_param_length_is_error() {
        let (c, _) = setup(2, 1, InitStrategy::Random, 5);
        let obs = CostKind::Global.observable(2);
        let mut gd = GradientDescent::new(0.1).unwrap();
        assert!(train(&c, &obs, vec![0.0; 1], &mut gd, 1).is_err());
    }

    #[test]
    fn local_cost_trains_too() {
        let (c, theta) = setup(4, 2, InitStrategy::LeCun, 6);
        let obs = CostKind::Local.observable(4);
        let mut adam = Adam::new(0.1).unwrap();
        let hist = train(&c, &obs, theta, &mut adam, 40).unwrap();
        assert!(hist.final_loss() < hist.initial_loss());
    }
}
