//! The gradient-variance analysis harness — the paper's central experiment
//! (§IV-C, Fig 5a, and the headline improvement percentages).
//!
//! For each qubit count `q` and each initialization strategy `t`, the
//! harness builds `n_circuits` random HEA circuits (Eq. 2), samples
//! parameters with `t`, computes `∂C/∂θ_last`, and records
//! `V_{q,t} = Var(G_{q,t})`. Fitting `ln V` against `q` gives each
//! strategy's *variance decay rate*; the improvement of strategy `t` over
//! the random baseline is `(|b_random| − |b_t|)/|b_random| · 100`.
//!
//! Ensemble members share their circuit *structure* across strategies
//! (seeded by `(master_seed, q, i)` only), so strategy comparisons are
//! paired and the only varying factor is the parameter distribution.
//!
//! # Examples
//!
//! ```
//! use plateau_core::init::InitStrategy;
//! use plateau_core::variance::{variance_scan, VarianceConfig};
//!
//! let cfg = VarianceConfig {
//!     qubit_counts: vec![2, 4],
//!     layers: 10,
//!     n_circuits: 20,
//!     ..VarianceConfig::default()
//! };
//! let scan = variance_scan(&cfg, &[InitStrategy::Random, InitStrategy::XavierNormal])?;
//! assert_eq!(scan.curves.len(), 2);
//! assert_eq!(scan.curves[0].points.len(), 2);
//! assert!(scan.curves[0].points[0].variance > 0.0);
//! # Ok::<(), plateau_core::CoreError>(())
//! ```

use crate::ansatz::{training_ansatz, variance_ansatz};
use crate::cost::CostKind;
use crate::error::CoreError;
use crate::init::{FanMode, InitStrategy};
use plateau_grad::{Adjoint, BatchExecutor, GradientEngine, ParameterShift};
use plateau_obs::json::Json;
use plateau_obs::{RunRecord, TimeSeries};
use plateau_stats::{decay_improvement_percent, fit_exponential_decay, variance, ExpDecayFit};
use plateau_par::par_map_indexed;
use plateau_rng::{derive_seed, rngs::StdRng, SeedableRng};

/// Which ansatz family the scan ensembles over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnsatzKind {
    /// The paper's Eq. 2: one rotation per qubit per layer, drawn uniformly
    /// from `{RX, RY, RZ}` per ensemble member.
    #[default]
    RandomRotations,
    /// The paper's Eq. 3 training ansatz: RX·RY per qubit per layer
    /// (deterministic structure — ensemble members differ only in their
    /// parameter draw). Used by the fan-mode ablation, where
    /// `params_per_layer = 2·n_qubits` makes the fan conventions diverge.
    Training,
}

/// Gradient engine the scan differentiates with.
///
/// Both engines are exact and agree to ~1e-10 (cross-checked in tests);
/// they differ only in cost profile. [`plateau_grad::Adjoint`] computes
/// the partial in one forward-plus-backward sweep and is the default;
/// [`plateau_grad::ParameterShift`] is the method the paper's PennyLane
/// pipeline exposes (2–4 circuit evaluations per parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradEngineKind {
    /// Adjoint differentiation — the fast default.
    #[default]
    Adjoint,
    /// The textbook parameter-shift rule.
    ParameterShift,
}

/// Configuration of a variance scan.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceConfig {
    /// Qubit counts to sweep (paper: `{2, 4, 6, 8, 10}`).
    pub qubit_counts: Vec<usize>,
    /// Layers per circuit. The paper keeps "substantial depth"; its
    /// motivating figure uses 100 layers, which is this default.
    pub layers: usize,
    /// Ensemble size per `(q, strategy)` cell (paper: 200).
    pub n_circuits: usize,
    /// Cost operator to differentiate.
    pub cost: CostKind,
    /// Fan convention for the initializers.
    pub fan_mode: FanMode,
    /// Ansatz family to ensemble over.
    pub ansatz: AnsatzKind,
    /// Gradient engine that differentiates the last parameter.
    pub engine: GradEngineKind,
    /// Master seed; every circuit and parameter draw derives from it
    /// deterministically, independent of thread scheduling.
    pub seed: u64,
}

impl Default for VarianceConfig {
    fn default() -> Self {
        VarianceConfig {
            qubit_counts: vec![2, 4, 6, 8, 10],
            layers: 100,
            n_circuits: 200,
            cost: CostKind::Global,
            fan_mode: FanMode::Qubits,
            ansatz: AnsatzKind::RandomRotations,
            engine: GradEngineKind::Adjoint,
            seed: 0x706c6174,
        }
    }
}

impl VarianceConfig {
    fn validate(&self) -> Result<(), CoreError> {
        if self.qubit_counts.is_empty() {
            return Err(CoreError::InvalidConfig("qubit_counts must be non-empty".into()));
        }
        if self.qubit_counts.contains(&0) {
            return Err(CoreError::InvalidConfig("qubit counts must be nonzero".into()));
        }
        if self.layers == 0 {
            return Err(CoreError::InvalidConfig("layers must be nonzero".into()));
        }
        if self.n_circuits < 2 {
            return Err(CoreError::InvalidConfig(
                "variance needs at least two circuits per cell".into(),
            ));
        }
        Ok(())
    }
}

/// One `(qubit count, strategy)` cell of the scan.
#[derive(Debug, Clone, PartialEq)]
pub struct VariancePoint {
    /// Qubit count of this cell.
    pub n_qubits: usize,
    /// `Var(∂C/∂θ_last)` over the ensemble.
    pub variance: f64,
    /// The raw gradient samples (length = `n_circuits`), kept for
    /// bootstrap confidence intervals.
    pub gradients: Vec<f64>,
}

/// The variance-vs-qubits curve of one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyCurve {
    /// The initialization strategy.
    pub strategy: InitStrategy,
    /// One point per qubit count, in the order of
    /// [`VarianceConfig::qubit_counts`].
    pub points: Vec<VariancePoint>,
}

impl StrategyCurve {
    /// Fits `Var(q) = A·e^{b·q}` through this curve.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Fit`] when the fit is ill-posed (e.g. fewer
    /// than two qubit counts or a zero variance).
    pub fn decay_fit(&self) -> Result<ExpDecayFit, CoreError> {
        let qs: Vec<f64> = self.points.iter().map(|p| p.n_qubits as f64).collect();
        let vars: Vec<f64> = self.points.iter().map(|p| p.variance).collect();
        Ok(fit_exponential_decay(&qs, &vars)?)
    }

    /// Percentile-bootstrap confidence interval on the decay rate `b`:
    /// each resample redraws the per-cell gradient ensembles (with
    /// replacement), recomputes the cell variances, and refits the
    /// exponential. This propagates the 200-circuit sampling error into
    /// the *slope* — the quantity behind the paper's headline percentages.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero resample budget or
    /// a confidence level outside `(0, 1)`, and [`CoreError::Fit`] when a
    /// resampled fit is ill-posed.
    pub fn decay_rate_ci<R: plateau_rng::Rng>(
        &self,
        resamples: usize,
        level: f64,
        rng: &mut R,
    ) -> Result<plateau_stats::ConfidenceInterval, CoreError> {
        if resamples == 0 {
            return Err(CoreError::InvalidConfig("resamples must be nonzero".into()));
        }
        if !(level > 0.0 && level < 1.0) {
            return Err(CoreError::InvalidConfig("confidence level must be in (0, 1)".into()));
        }
        let estimate = self.decay_fit()?.rate;
        let qs: Vec<f64> = self.points.iter().map(|p| p.n_qubits as f64).collect();
        let mut rates = Vec::with_capacity(resamples);
        for _ in 0..resamples {
            let vars: Vec<f64> = self
                .points
                .iter()
                .map(|p| {
                    let g = &p.gradients;
                    let resampled: Vec<f64> =
                        (0..g.len()).map(|_| g[rng.gen_range(0..g.len())]).collect();
                    variance(&resampled)
                })
                .collect();
            rates.push(fit_exponential_decay(&qs, &vars).map(|f| f.rate)?);
        }
        let alpha = 1.0 - level;
        Ok(plateau_stats::ConfidenceInterval {
            estimate,
            low: plateau_stats::quantile(&rates, alpha / 2.0),
            high: plateau_stats::quantile(&rates, 1.0 - alpha / 2.0),
            level,
        })
    }
}

/// Full result of a variance scan.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceScan {
    /// The configuration that produced this scan.
    pub config: VarianceConfig,
    /// One curve per strategy, in input order.
    pub curves: Vec<StrategyCurve>,
}

/// One row of the improvement table (the paper's headline numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct Improvement {
    /// The strategy being compared against the baseline.
    pub strategy: InitStrategy,
    /// Fitted decay rate `b` of the strategy (negative = decaying).
    pub decay_rate: f64,
    /// R² of the log-linear fit.
    pub r_squared: f64,
    /// `(|b_baseline| − |b|)/|b_baseline| · 100`.
    pub improvement_percent: f64,
}

impl VarianceScan {
    /// The curve of a given strategy, if present.
    pub fn curve_of(&self, strategy: InitStrategy) -> Option<&StrategyCurve> {
        self.curves.iter().find(|c| c.strategy == strategy)
    }

    /// Builds the improvement table relative to `baseline` (the paper uses
    /// [`InitStrategy::Random`]). The baseline itself is excluded.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `baseline` is not in the
    /// scan, or [`CoreError::Fit`] when a decay fit is ill-posed.
    pub fn improvements_vs(&self, baseline: InitStrategy) -> Result<Vec<Improvement>, CoreError> {
        let base_curve = self.curve_of(baseline).ok_or_else(|| {
            CoreError::InvalidConfig(format!("baseline {baseline} not in scan"))
        })?;
        let b_ref = base_curve.decay_fit()?.rate;
        let mut out = Vec::new();
        for curve in &self.curves {
            if curve.strategy == baseline {
                continue;
            }
            let fit = curve.decay_fit()?;
            out.push(Improvement {
                strategy: curve.strategy,
                decay_rate: fit.rate,
                r_squared: fit.r_squared,
                improvement_percent: decay_improvement_percent(b_ref, fit.rate),
            });
        }
        Ok(out)
    }

    /// The scan's experiment-ledger record: a `"variance"` run with the
    /// fitted decay rates as metrics, and a series with `x` = qubit count
    /// and one column per strategy — the exact data behind Fig 5a,
    /// replayable via `plateau obs runs`. A strategy whose fit is
    /// ill-posed contributes no metrics.
    pub fn run_record(&self) -> (RunRecord, TimeSeries) {
        let cfg = &self.config;
        let names = || self.curves.iter().map(|c| c.strategy.name());
        let mut series = TimeSeries::new(names().collect(), cfg.qubit_counts.len());
        for (qi, &q) in cfg.qubit_counts.iter().enumerate() {
            let row: Vec<f64> = self.curves.iter().map(|c| c.points[qi].variance).collect();
            series.push(q as f64, &row);
        }
        let mut run = RunRecord::new("variance")
            .config("qubits", Json::Arr(cfg.qubit_counts.iter().map(|&q| Json::from(q)).collect()))
            .config("layers", Json::from(cfg.layers))
            .config("circuits", Json::from(cfg.n_circuits))
            .config("cost", Json::str(cfg.cost.to_string()))
            .config("ansatz", Json::str(format!("{:?}", cfg.ansatz)))
            .config("engine", Json::str(format!("{:?}", cfg.engine)))
            .config("strategies", Json::Arr(names().map(Json::str).collect()))
            .seed(cfg.seed);
        for curve in &self.curves {
            if let Ok(fit) = curve.decay_fit() {
                let name = curve.strategy.name();
                run = run
                    .metric(&format!("decay_rate_{name}"), fit.rate)
                    .metric(&format!("r_squared_{name}"), fit.r_squared);
            }
        }
        (run, series)
    }
}

/// Computes one [`AnsatzKind::RandomRotations`] gradient sample: build
/// circuit `(q, i)`, draw parameters with `strategy`, differentiate the
/// last parameter. Each member is a distinct circuit run once, so the
/// one-shot engine call walks the op list — compiling it would cost more
/// than the run.
fn gradient_sample(
    config: &VarianceConfig,
    strategy: InitStrategy,
    strategy_idx: usize,
    q: usize,
    i: usize,
) -> Result<f64, CoreError> {
    // Circuit structure depends only on (master, q, i): all strategies see
    // the same random gate pattern for ensemble member i.
    let mut circ_rng = StdRng::seed_from_u64(derive_seed(config.seed, 1, q as u64, i as u64));
    let ansatz = variance_ansatz(q, config.layers, &mut circ_rng)?;

    let mut param_rng = StdRng::seed_from_u64(derive_seed(
        config.seed,
        2 + strategy_idx as u64,
        q as u64,
        i as u64,
    ));
    let params = strategy.sample_params(&ansatz.shape, config.fan_mode, &mut param_rng)?;

    let obs = config.cost.observable(q);
    Ok(match config.engine {
        GradEngineKind::Adjoint => Adjoint.partial_last(&ansatz.circuit, &params, &obs)?,
        GradEngineKind::ParameterShift => {
            ParameterShift.partial_last(&ansatz.circuit, &params, &obs)?
        }
    })
}

/// Computes one cell's gradient ensemble for the [`AnsatzKind::Training`]
/// ansatz, whose circuit structure is *shared* by every ensemble member:
/// members differ only in their parameter draw. That makes the cell a
/// one-structure/many-parameter-vectors sweep — exactly the
/// [`BatchExecutor`] shape — so the ansatz is built once and the whole
/// ensemble runs through the per-worker scratch pool instead of
/// re-deriving circuit and statevector per member.
///
/// Member `i`'s parameters come from the same
/// `derive_seed(seed, 2 + strategy_idx, q, i)` stream as
/// [`gradient_sample`]. Each partial is bit-identical to a one-shot
/// [`Adjoint`] or [`ParameterShift`] `partial_last` (pinned in
/// `tests/integration_gradients.rs`).
fn training_cell_gradients(
    config: &VarianceConfig,
    strategy: InitStrategy,
    strategy_idx: usize,
    q: usize,
) -> Result<Vec<f64>, CoreError> {
    let ansatz = training_ansatz(q, config.layers)?;
    let param_sets: Vec<Vec<f64>> = (0..config.n_circuits)
        .map(|i| {
            let mut param_rng = StdRng::seed_from_u64(derive_seed(
                config.seed,
                2 + strategy_idx as u64,
                q as u64,
                i as u64,
            ));
            strategy.sample_params(&ansatz.shape, config.fan_mode, &mut param_rng)
        })
        .collect::<Result<_, _>>()?;
    let obs = config.cost.observable(q);
    let mut ex = BatchExecutor::new(&ansatz.circuit);
    Ok(match config.engine {
        GradEngineKind::Adjoint => ex.partial_last_many_adjoint(&param_sets, &obs)?,
        GradEngineKind::ParameterShift => ex.partial_last_many_shift(&param_sets, &obs)?,
    })
}

/// Runs the full variance scan for the given strategies.
///
/// Work is parallelized over ensemble members with
/// [`plateau_par::par_map_indexed`]; determinism is guaranteed by
/// per-task seed derivation ([`plateau_rng::derive_seed`]).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for a degenerate configuration and
/// propagates simulation errors.
pub fn variance_scan(
    config: &VarianceConfig,
    strategies: &[InitStrategy],
) -> Result<VarianceScan, CoreError> {
    config.validate()?;
    if strategies.is_empty() {
        return Err(CoreError::InvalidConfig("at least one strategy required".into()));
    }

    let _scan_span = plateau_obs::span!(
        "variance_scan",
        strategies = strategies.len(),
        qubit_counts = config.qubit_counts.len(),
        circuits = config.n_circuits,
        layers = config.layers
    );

    let mut curves = Vec::with_capacity(strategies.len());
    for (s_idx, &strategy) in strategies.iter().enumerate() {
        let mut points = Vec::with_capacity(config.qubit_counts.len());
        for &q in &config.qubit_counts {
            let _cell_span =
                plateau_obs::span!("variance_cell", strategy = strategy.to_string(), q = q);
            plateau_obs::counter!("core.variance.cells").inc();
            // RandomRotations rebuilds a distinct circuit per member, so
            // members fan out whole; the Training ansatz shares one
            // structure across the ensemble and sweeps it batched.
            let gradients: Vec<f64> = match config.ansatz {
                AnsatzKind::RandomRotations => {
                    par_map_indexed(config.n_circuits, |i| {
                        gradient_sample(config, strategy, s_idx, q, i)
                    })
                    .into_iter()
                    .collect::<Result<_, CoreError>>()?
                }
                AnsatzKind::Training => training_cell_gradients(config, strategy, s_idx, q)?,
            };
            let var = variance(&gradients);
            plateau_obs::info!("variance cell {strategy} q={q}: var={var:.3e}");
            points.push(VariancePoint {
                n_qubits: q,
                variance: var,
                gradients,
            });
        }
        curves.push(StrategyCurve { strategy, points });
    }

    Ok(VarianceScan {
        config: config.clone(),
        curves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> VarianceConfig {
        VarianceConfig {
            qubit_counts: vec![2, 4, 6],
            layers: 12,
            n_circuits: 40,
            ..VarianceConfig::default()
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let c = VarianceConfig::default();
        assert_eq!(c.qubit_counts, vec![2, 4, 6, 8, 10]);
        assert_eq!(c.n_circuits, 200);
        assert_eq!(c.cost, CostKind::Global);
        assert_eq!(c.engine, GradEngineKind::Adjoint);
    }

    #[test]
    fn engines_agree_on_seeded_scan_cell() {
        // Same seeded 4-qubit cell, differentiated by both engines: the
        // adjoint sweep and the parameter-shift rule are independent exact
        // methods, so every gradient sample must agree to ~1e-10.
        let adjoint_cfg = VarianceConfig {
            qubit_counts: vec![4],
            layers: 8,
            n_circuits: 12,
            engine: GradEngineKind::Adjoint,
            ..VarianceConfig::default()
        };
        let shift_cfg = VarianceConfig {
            engine: GradEngineKind::ParameterShift,
            ..adjoint_cfg.clone()
        };
        let a = variance_scan(&adjoint_cfg, &[InitStrategy::Random]).unwrap();
        let b = variance_scan(&shift_cfg, &[InitStrategy::Random]).unwrap();
        let ga = &a.curves[0].points[0].gradients;
        let gb = &b.curves[0].points[0].gradients;
        assert_eq!(ga.len(), gb.len());
        for (x, y) in ga.iter().zip(gb) {
            assert!((x - y).abs() < 1e-10, "adjoint {x} vs parameter-shift {y}");
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = small_config();
        c.qubit_counts.clear();
        assert!(variance_scan(&c, &[InitStrategy::Random]).is_err());

        let mut c = small_config();
        c.n_circuits = 1;
        assert!(variance_scan(&c, &[InitStrategy::Random]).is_err());

        let mut c = small_config();
        c.layers = 0;
        assert!(variance_scan(&c, &[InitStrategy::Random]).is_err());

        let mut c = small_config();
        c.qubit_counts = vec![0];
        assert!(variance_scan(&c, &[InitStrategy::Random]).is_err());

        assert!(variance_scan(&small_config(), &[]).is_err());
    }

    #[test]
    fn scan_shape_and_determinism() {
        let cfg = small_config();
        let strategies = [InitStrategy::Random, InitStrategy::XavierNormal];
        let a = variance_scan(&cfg, &strategies).unwrap();
        assert_eq!(a.curves.len(), 2);
        for curve in &a.curves {
            assert_eq!(curve.points.len(), 3);
            for p in &curve.points {
                assert_eq!(p.gradients.len(), 40);
                assert!(p.variance.is_finite());
            }
        }
        // Re-running with the same seed reproduces everything exactly.
        let b = variance_scan(&cfg, &strategies).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn random_variance_decays_with_qubits() {
        let cfg = VarianceConfig {
            qubit_counts: vec![2, 6],
            layers: 30,
            n_circuits: 60,
            ..VarianceConfig::default()
        };
        let scan = variance_scan(&cfg, &[InitStrategy::Random]).unwrap();
        let pts = &scan.curves[0].points;
        assert!(
            pts[0].variance > pts[1].variance,
            "variance should decay: {} vs {}",
            pts[0].variance,
            pts[1].variance
        );
    }

    #[test]
    fn bounded_init_decays_slower_than_random() {
        let cfg = VarianceConfig {
            qubit_counts: vec![2, 4, 6],
            layers: 20,
            n_circuits: 60,
            ..VarianceConfig::default()
        };
        let scan =
            variance_scan(&cfg, &[InitStrategy::Random, InitStrategy::XavierNormal]).unwrap();
        let rand_fit = scan.curve_of(InitStrategy::Random).unwrap().decay_fit().unwrap();
        let xav_fit = scan
            .curve_of(InitStrategy::XavierNormal)
            .unwrap()
            .decay_fit()
            .unwrap();
        assert!(rand_fit.rate < 0.0, "random rate {}", rand_fit.rate);
        assert!(
            xav_fit.rate.abs() < rand_fit.rate.abs(),
            "xavier {} should decay slower than random {}",
            xav_fit.rate,
            rand_fit.rate
        );
    }

    #[test]
    fn improvements_table() {
        let cfg = small_config();
        let scan =
            variance_scan(&cfg, &[InitStrategy::Random, InitStrategy::He]).unwrap();
        let imps = scan.improvements_vs(InitStrategy::Random).unwrap();
        assert_eq!(imps.len(), 1);
        assert_eq!(imps[0].strategy, InitStrategy::He);
        assert!(imps[0].improvement_percent.is_finite());
        // Missing baseline errors out.
        assert!(scan.improvements_vs(InitStrategy::LeCun).is_err());
    }

    #[test]
    fn curve_of_lookup() {
        let cfg = small_config();
        let scan = variance_scan(&cfg, &[InitStrategy::Random]).unwrap();
        assert!(scan.curve_of(InitStrategy::Random).is_some());
        assert!(scan.curve_of(InitStrategy::He).is_none());
    }

    #[test]
    fn seed_changes_results() {
        let cfg = small_config();
        let mut cfg2 = small_config();
        cfg2.seed = cfg.seed + 1;
        let a = variance_scan(&cfg, &[InitStrategy::Random]).unwrap();
        let b = variance_scan(&cfg2, &[InitStrategy::Random]).unwrap();
        assert_ne!(a.curves[0].points[0].gradients, b.curves[0].points[0].gradients);
    }

    #[test]
    fn decay_rate_ci_brackets_the_point_estimate() {
        use plateau_rng::rngs::StdRng;
        use plateau_rng::SeedableRng;
        let cfg = small_config();
        let scan = variance_scan(&cfg, &[InitStrategy::Random]).unwrap();
        let curve = &scan.curves[0];
        let mut rng = StdRng::seed_from_u64(77);
        let ci = curve.decay_rate_ci(200, 0.95, &mut rng).unwrap();
        assert!(ci.low <= ci.estimate && ci.estimate <= ci.high);
        assert!(ci.high - ci.low > 0.0);
        assert!(ci.high - ci.low < 2.0, "CI implausibly wide: {ci:?}");
        // Deterministic under the same seed.
        let mut rng2 = StdRng::seed_from_u64(77);
        assert_eq!(ci, curve.decay_rate_ci(200, 0.95, &mut rng2).unwrap());
        // Validation paths.
        assert!(curve.decay_rate_ci(0, 0.95, &mut rng).is_err());
        assert!(curve.decay_rate_ci(10, 1.5, &mut rng).is_err());
    }

    #[test]
    fn training_ansatz_kind_runs_and_differs_from_random_rotations() {
        let base = VarianceConfig {
            qubit_counts: vec![2, 3],
            layers: 6,
            n_circuits: 12,
            ..VarianceConfig::default()
        };
        let train_cfg = VarianceConfig {
            ansatz: AnsatzKind::Training,
            ..base.clone()
        };
        let a = variance_scan(&base, &[InitStrategy::Random]).unwrap();
        let b = variance_scan(&train_cfg, &[InitStrategy::Random]).unwrap();
        // The training ansatz has 2 params per qubit per layer, so the
        // parameter draws (and hence gradients) differ.
        assert_ne!(
            a.curves[0].points[0].gradients,
            b.curves[0].points[0].gradients
        );
        // And it is deterministic: no per-member structural randomness.
        let b2 = variance_scan(&train_cfg, &[InitStrategy::Random]).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn scan_appends_ledger_record_with_per_strategy_columns() {
        let dir = std::env::temp_dir()
            .join(format!("plateau_variance_ledger_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let cfg = VarianceConfig {
            qubit_counts: vec![2, 3],
            layers: 6,
            n_circuits: 10,
            ..VarianceConfig::default()
        };
        let scan = variance_scan(&cfg, &[InitStrategy::Random, InitStrategy::XavierUniform]).unwrap();
        let (run, series) = scan.run_record();
        plateau_obs::record_run(&dir, &run, Some(&series)).unwrap();

        let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
        let rec = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(rec.get("command").unwrap().as_str(), Some("variance"));
        let strategies = rec.get("config").and_then(|c| c.get("strategies")).unwrap();
        assert_eq!(strategies, &Json::Arr(vec![Json::str("random"), Json::str("xavier_uniform")]));
        assert!(rec.get("metrics").unwrap().get("decay_rate_random").is_some());
        let rel = rec.get("series").unwrap().as_str().unwrap().to_string();
        let series = plateau_obs::TimeSeries::read_jsonl(&dir.join(rel)).unwrap();
        assert_eq!(series.columns(), ["random", "xavier_uniform"]);
        // x is the qubit count, one row per swept width.
        let col = series.column("random").unwrap();
        assert_eq!(col.len(), 2);
        assert_eq!(col[0].0, 2.0);
        assert_eq!(col[1].0, 3.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn splitmix_derivation_spreads_bits() {
        // Adjacent task indices give unrelated seeds.
        let s1 = derive_seed(7, 1, 2, 3);
        let s2 = derive_seed(7, 1, 2, 4);
        assert_ne!(s1, s2);
        assert!((s1 ^ s2).count_ones() > 8);
    }

    #[test]
    fn scan_is_identical_when_forced_sequential() {
        // Thread count must never leak into results: per-task seed
        // derivation makes the parallel and sequential scans bit-equal.
        let cfg = VarianceConfig {
            qubit_counts: vec![2, 3],
            layers: 6,
            n_circuits: 10,
            ..VarianceConfig::default()
        };
        let parallel = variance_scan(&cfg, &[InitStrategy::Random]).unwrap();
        let sequential =
            plateau_par::with_threads(1, || variance_scan(&cfg, &[InitStrategy::Random])).unwrap();
        assert_eq!(parallel, sequential);
    }
}
