//! The [`GradientEngine`] trait: a uniform interface over the three
//! differentiation strategies so harnesses can swap engines freely.
//!
//! # When a circuit is compiled
//!
//! Every entry point of this crate follows one fixed rule: **a call that
//! runs the circuit `O(k)` or `O(batch)` times compiles it first; a call
//! that runs it `O(1)` times walks the op list.** There is no knob and no
//! size threshold.
//!
//! - Compiled — everything built on [`crate::BatchExecutor::new`]:
//!   [`crate::ParameterShift`]'s `gradient` (`2k` shifted evaluations),
//!   [`expectation_many`], the executor's ensemble sweeps, and through
//!   them the training loop's loss evaluator and the Training-ansatz
//!   variance cells.
//! - Op list — [`expectation`], [`crate::Adjoint`]'s `gradient` and
//!   `partial`, and [`crate::ParameterShift`]'s `partial` (two or four
//!   shifted evaluations from one shared prefix walk).
//!
//! Why, measured on one thread of a 2-vCPU host (medians over 100
//! random members or 7 rounds, compiled times include the compile):
//!
//! - Compiling pays only when its cost is spread over many runs. A Fig 5a
//!   member (50 layers) is a distinct circuit, differentiated once: at
//!   q = 10 its compile costs 410–420 µs, and its adjoint `partial_last`
//!   takes 580 µs on the op list against 920–935 µs compiled (16–18 µs
//!   against 75–100 µs at q = 4). Its `ParameterShift` `partial_last`
//!   takes 570–590 µs on the op list against 905–995 µs compiled
//!   (17–18 µs against 79–83 µs at q = 4).
//! - One §IV-D parameter-shift gradient (10 qubits, 5 layers, 200
//!   shifted evaluations) takes 9.5–10.3 ms compiled against 9.3–9.9 ms
//!   on the op list; its compile costs 40–45 µs. The two tie since
//!   [`plateau_sim::State::apply_single`] picks a loop by the matrix's
//!   zero pattern (the op list took 21.9–23.3 ms with one dense loop), so
//!   this circuit no longer shows a win for compiling; whether the rule
//!   should change is still open.
//!
//! Because `Adjoint`'s `gradient` and `partial` both walk the op list,
//! `partial(i)` stays bit-identical to `gradient()[i]`. Executor results
//! are bit-identical to the same computation over the compiled form
//! ([`plateau_sim::compile`], then [`plateau_sim::CompiledCircuit::run`]
//! and [`Observable::expectation`], or
//! [`crate::adjoint_gradient_compiled`]); they agree with the op-list
//! results to rounding.

use plateau_sim::{Circuit, CompiledCircuit, Observable, Op, SimError, State};

/// A circuit prepared for evaluation: the raw op list for `O(1)` calls,
/// or the gate-fusion compiler's output for calls that run the circuit
/// many times (see the [module docs](self)). Building the fused form
/// hoists the compile out of evaluation loops — the compile-once/run-many
/// contract that parameter-shift sweeps and batched expectation rely on.
pub(crate) enum Evaluator<'c> {
    /// Gate-by-gate execution of the original circuit.
    Raw(&'c Circuit),
    /// Fused-segment execution of the compiled circuit.
    Fused(CompiledCircuit),
}

impl<'c> Evaluator<'c> {
    /// One cost evaluation `E(θ)` through this form, with the
    /// `grad.expectation_evals` accounting every evaluation carries.
    pub(crate) fn expectation(&self, params: &[f64], obs: &Observable) -> Result<f64, SimError> {
        plateau_obs::counter!("grad.expectation_evals").inc();
        let state = match self {
            Evaluator::Raw(circuit) => circuit.run(params)?,
            Evaluator::Fused(compiled) => compiled.run(params)?,
        };
        obs.expectation(&state)
    }

    /// [`Evaluator::expectation`] into a caller-owned scratch state —
    /// the same arithmetic (and the same `grad.expectation_evals`
    /// accounting) with zero statevector allocation. The scratch is reset
    /// to `|0…0⟩` in place before the run.
    pub(crate) fn expectation_into(
        &self,
        state: &mut State,
        params: &[f64],
        obs: &Observable,
    ) -> Result<f64, SimError> {
        self.run_steps(state, params, 0, self.steps())?;
        self.observe(state, obs)
    }

    /// The observable read-out that ends every evaluation, with its
    /// `grad.expectation_evals` accounting.
    pub(crate) fn observe(&self, state: &State, obs: &Observable) -> Result<f64, SimError> {
        plateau_obs::counter!("grad.expectation_evals").inc();
        obs.expectation(state)
    }

    /// Number of execution steps: ops (raw) or fused segments.
    pub(crate) fn steps(&self) -> usize {
        match self {
            Evaluator::Raw(circuit) => circuit.ops().len(),
            Evaluator::Fused(compiled) => compiled.segments().len(),
        }
    }

    /// Each parameter's **prefix cut**: the step before which no step
    /// reads `θ_i`, so the state after steps `[0, cut)` is the same for
    /// every value of `θ_i`. That is the first step touching `θ_i`, or
    /// `0` when the fused product-state prologue absorbs that step (the
    /// prologue runs whole or not at all). A parameter no step reads gets
    /// [`Self::steps`].
    pub(crate) fn param_cuts(&self, n_params: usize) -> Vec<usize> {
        let mut cuts = vec![self.steps(); n_params];
        let mut claim = |step: usize, op: &Op| {
            if let Some(i) = op.free_param() {
                cuts[i] = cuts[i].min(step);
            }
        };
        match self {
            Evaluator::Raw(circuit) => {
                for (k, op) in circuit.ops().iter().enumerate() {
                    claim(k, op);
                }
            }
            Evaluator::Fused(compiled) => {
                let prologue = compiled.prologue_len();
                for (s, seg) in compiled.segments().iter().enumerate() {
                    let step = if s < prologue { 0 } else { s };
                    for op in seg.ops() {
                        claim(step, op);
                    }
                }
            }
        }
        cuts
    }

    /// Runs steps `[from, to)` on `state` — the one forward walk behind
    /// every evaluation. `from == 0` first resets `state` to `|0…0⟩` in
    /// place (and on the fused form runs the product-state prologue when
    /// `to` reaches past it); `from > 0` continues a state that already
    /// holds steps `[0, from)`. Splitting a run at any prefix cut
    /// ([`Self::param_cuts`]) therefore repeats the whole run's
    /// arithmetic bit for bit. Callers have validated `params`.
    pub(crate) fn run_steps(
        &self,
        state: &mut State,
        params: &[f64],
        from: usize,
        to: usize,
    ) -> Result<(), SimError> {
        match self {
            Evaluator::Raw(circuit) => {
                if from == 0 {
                    state.reset_zero();
                }
                for op in &circuit.ops()[from..to] {
                    op.apply(state, params)?;
                }
            }
            Evaluator::Fused(compiled) => {
                if from == 0 {
                    compiled.run_prefix_into(state, params, to)?;
                } else {
                    for seg in &compiled.segments()[from..to] {
                        seg.apply(state, params)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// One adjoint sweep over the parameters in `wrt`, through whichever
    /// representation this evaluator holds, with the same validation and
    /// counter accounting as [`crate::Adjoint`]'s `gradient` and
    /// `partial` (which sweep the raw form).
    pub(crate) fn adjoint(
        &self,
        params: &[f64],
        obs: &Observable,
        wrt: crate::adjoint::Wrt,
    ) -> Result<Vec<f64>, SimError> {
        match self {
            Evaluator::Raw(circuit) => circuit.check_params(params)?,
            Evaluator::Fused(compiled) => compiled.check_params(params)?,
        }
        crate::adjoint::begin_gradient(self.n_qubits(), obs)?;
        match self {
            Evaluator::Raw(circuit) => crate::adjoint::gradient_raw(circuit, params, obs, wrt),
            Evaluator::Fused(compiled) => {
                crate::adjoint::gradient_fused(compiled, params, obs, wrt)
            }
        }
    }

    /// Register width of the underlying circuit.
    pub(crate) fn n_qubits(&self) -> usize {
        match self {
            Evaluator::Raw(circuit) => circuit.n_qubits(),
            Evaluator::Fused(compiled) => compiled.n_qubits(),
        }
    }
}

/// Evaluates the cost `E(θ) = ⟨0|U†(θ) H U(θ)|0⟩` — one run, so it walks
/// the op list (see the [module docs](self)).
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
    Evaluator::Raw(circuit).expectation(params, obs)
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
/// The circuit is compiled once for the whole batch. Batches of at least
/// 8 evaluations fan out across the [`plateau_par`] scoped pool
/// (respecting `PLATEAU_THREADS`); smaller batches run serially. Results
/// come back in input order and each evaluation is the same computation
/// over the compiled form, so the output is identical whichever path
/// runs — and agrees with [`expectation`] to rounding.
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
/// use plateau_sim::{compile, Circuit, Observable};
///
/// let mut c = Circuit::new(1)?;
/// c.ry(0)?;
/// let obs = Observable::global_cost(1);
/// let sets = vec![vec![0.1], vec![0.2], vec![0.3]];
/// let batch = expectation_many(&c, &sets, &obs)?;
/// let compiled = compile(&c);
/// for (set, e) in sets.iter().zip(&batch) {
///     assert_eq!(*e, obs.expectation(&compiled.run(set)?)?);
///     assert!((e - expectation(&c, set, &obs)?).abs() < 1e-12);
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
    // One-shot form of the batched engine: compile once, route once,
    // evaluate through per-worker scratch states (BatchExecutor owns the
    // serial/parallel decision and the scratch pool).
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
    /// of the gates before `θ_index`'s gate; [`crate::Adjoint`] runs one
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
