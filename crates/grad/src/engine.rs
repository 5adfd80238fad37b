//! The [`GradientEngine`] trait: a uniform interface over the three
//! differentiation strategies so harnesses can swap engines freely.
//!
//! # One execution path
//!
//! Every entry point runs the op list through [`Circuit::run_into`] and
//! [`Circuit::sweeps`] (each CZ run one sweep, runs from `|0…0⟩` starting
//! with the prologue; see `plateau_sim::fuse`). Nothing is compiled, so a
//! distinct circuit run once pays nothing up front, and a batched result
//! is bit-identical to the one-shot call it batches. The backward walks —
//! the adjoint's and the parameter shift's on a rank-one cost — are one
//! routine (`adjoint::walk_back`) with two read-outs.

use plateau_sim::{Circuit, Observable, SimError, State};

/// The observable read-out that ends every evaluation, with its
/// `grad.expectation_evals` accounting.
pub(crate) fn observe(state: &State, obs: &Observable) -> Result<f64, SimError> {
    plateau_obs::counter!("grad.expectation_evals").inc();
    obs.expectation(state)
}

/// Which op reads each parameter, from one pass over the op list.
pub(crate) struct ParamMap {
    /// The first op reading `θ_i`, or the op count when none does.
    first: Vec<usize>,
    n_ops: usize,
    prologue: usize,
    /// The last op reading any parameter (`0` when none does).
    last: usize,
    /// Whether some parameter is read by more than one op.
    shared: bool,
}

impl ParamMap {
    pub(crate) fn new(circuit: &Circuit) -> ParamMap {
        let n_ops = circuit.gate_count();
        let mut map = ParamMap {
            first: vec![n_ops; circuit.n_params()],
            n_ops,
            prologue: circuit.prologue_len(),
            last: 0,
            shared: false,
        };
        for (k, op) in circuit.ops().iter().enumerate() {
            if let Some(i) = op.free_param() {
                if map.first[i] < n_ops {
                    map.shared = true;
                } else {
                    map.first[i] = k;
                }
                map.last = k;
            }
        }
        map
    }

    /// The op reading `θ_i` (its first, when several do), or `None` for an
    /// index no op reads or past the end.
    pub(crate) fn op(&self, i: usize) -> Option<usize> {
        self.first.get(i).copied().filter(|&k| k < self.n_ops)
    }

    /// `θ_i`'s **prefix cut**: the op before which no op reads `θ_i`, so
    /// the state after ops `[0, cut)` is the same for every value of
    /// `θ_i`. That is the first op reading `θ_i`, or `0` when the
    /// product-state prologue holds that op (the prologue runs whole or
    /// not at all). A parameter no op reads gets the op count.
    pub(crate) fn cut(&self, i: usize) -> usize {
        match self.first[i] {
            k if k < self.prologue => 0,
            k => k,
        }
    }

    /// The last op that reads any parameter.
    pub(crate) fn last(&self) -> usize {
        self.last
    }

    /// Whether some parameter is read by more than one op.
    pub(crate) fn shared(&self) -> bool {
        self.shared
    }
}

/// Evaluates the cost `E(θ) = ⟨0|U†(θ) H U(θ)|0⟩` in one run.
///
/// # Errors
///
/// Propagates parameter-count and observable-size mismatches.
///
/// # Examples
///
/// ```
/// use plateau_grad::expectation;
/// use plateau_sim::{Circuit, Observable};
///
/// let mut c = Circuit::new(1)?;
/// c.ry(0)?;
/// let obs = Observable::global_cost(1);
/// // C(θ) = 1 − cos²(θ/2) = sin²(θ/2)
/// let theta = 0.8f64;
/// let c_val = expectation(&c, &[theta], &obs)?;
/// assert!((c_val - (theta / 2.0).sin().powi(2)).abs() < 1e-12);
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
pub fn expectation(circuit: &Circuit, params: &[f64], obs: &Observable) -> Result<f64, SimError> {
    observe(&circuit.run(params)?, obs)
}

/// Minimum batch size before [`expectation_many`] fans out across the
/// thread pool; below this the per-batch thread-spawn overhead dominates
/// the circuit simulations themselves. Two- and four-point parameter-shift
/// partials (the variance scan's inner loop, which already runs inside a
/// `plateau_par` fan-out over circuits) therefore always stay serial and
/// never nest pools.
pub(crate) const MIN_PAR_EVALS: usize = 8;

/// Evaluates the cost for many parameter sets against one circuit —
/// the batched entry point behind [`crate::ParameterShift`]'s parallel
/// gradient and available to harnesses that sweep parameter ensembles.
///
/// Batches of at least 8 evaluations fan out across the [`plateau_par`]
/// scoped pool (sized by [`plateau_par::worker_count`]); smaller batches run
/// serially. Results come back in input order and each evaluation is the
/// same computation as [`expectation`], so the output is bit-identical to
/// it whichever path runs.
///
/// # Errors
///
/// Propagates parameter-count and observable-size mismatches; every
/// parameter set is validated up front, before any circuit runs.
///
/// # Examples
///
/// ```
/// use plateau_grad::{expectation, expectation_many};
/// use plateau_sim::{Circuit, Observable};
///
/// let mut c = Circuit::new(1)?;
/// c.ry(0)?;
/// let obs = Observable::global_cost(1);
/// let sets = vec![vec![0.1], vec![0.2], vec![0.3]];
/// let batch = expectation_many(&c, &sets, &obs)?;
/// for (set, e) in sets.iter().zip(&batch) {
///     assert_eq!(*e, expectation(&c, set, &obs)?);
/// }
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
pub fn expectation_many(
    circuit: &Circuit,
    param_sets: &[Vec<f64>],
    obs: &Observable,
) -> Result<Vec<f64>, SimError> {
    plateau_obs::counter!("grad.expectation_batches").inc();
    plateau_obs::histogram!("grad.batch_size").record(param_sets.len() as u64);
    // One-shot form of the batched engine: route once, evaluate through
    // per-worker scratch states (BatchExecutor owns the serial/parallel
    // decision and the scratch pool).
    crate::batch::BatchExecutor::new(circuit).expectation_many(param_sets, obs)
}

/// Rejects a parameter index past the end of `circuit`'s parameters.
pub(crate) fn check_index(circuit: &Circuit, index: usize) -> Result<(), SimError> {
    if index >= circuit.n_params() {
        return Err(SimError::ParamOutOfRange {
            index,
            n_params: circuit.n_params(),
        });
    }
    Ok(())
}

/// A strategy for computing `∂E/∂θ` of a parameterized circuit against a
/// Hermitian observable.
///
/// Implementations: [`crate::ParameterShift`] (exact, 2 or 4 circuit
/// evaluations per parameter), [`crate::Adjoint`] (exact, one forward plus
/// one backward sweep for *all* parameters, or a shortened sweep for
/// one), [`crate::FiniteDifference`] (approximate; test oracle).
pub trait GradientEngine {
    /// Gradient with respect to every free parameter.
    ///
    /// # Errors
    ///
    /// Propagates parameter-count and observable-size mismatches.
    fn gradient(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError>;

    /// Partial derivative with respect to the single parameter `index`.
    ///
    /// The default implementation computes the full gradient and projects;
    /// engines with a cheaper single-parameter path override this — the
    /// paper's variance analysis differentiates only the *last* parameter,
    /// so this path matters. [`crate::ParameterShift`] runs only
    /// `θ_index`'s 2 or 4 shifted evaluations, each from one shared walk
    /// of the gates before `θ_index`'s gate (on a rank-one cost, from one
    /// backward walk that shares the gates after it); [`crate::Adjoint`] runs one
    /// forward pass plus `N − k` backward steps, where `k` is the earliest
    /// of the circuit's `N` ops owning `θ_index`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParamOutOfRange`] for a bad index, plus
    /// whole-gradient error conditions.
    fn partial(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
        index: usize,
    ) -> Result<f64, SimError> {
        check_index(circuit, index)?;
        Ok(self.gradient(circuit, params, obs)?[index])
    }

    /// Partial derivative with respect to the **last** parameter — the
    /// paper's variance-analysis quantity (§IV-C).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParamOutOfRange`] when the circuit has no free
    /// parameters.
    fn partial_last(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
    ) -> Result<f64, SimError> {
        let n = circuit.n_params();
        if n == 0 {
            return Err(SimError::ParamOutOfRange { index: 0, n_params: 0 });
        }
        self.partial(circuit, params, obs, n - 1)
    }
}
