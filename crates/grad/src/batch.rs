//! Batched ensemble evaluation: one circuit, many parameter sets.
//!
//! The paper's experiments are ensembles — 200 parameter vectors swept
//! over one circuit per (strategy, qubit-count) cell. [`BatchExecutor`]
//! pays the per-structure costs once:
//!
//! - each worker thread owns one reusable scratch [`plateau_sim::State`]
//!   plus one parameter buffer, reset in place between evaluations;
//!   shifted sweeps add a second state per worker for the shared prefix,
//!   and overlap walks a third for the bra (below) — peak statevector
//!   allocation is `O(workers · 2^n)` regardless of batch size;
//! - shifted evaluations travel as `(param index, shift)` pairs against
//!   one base vector instead of `O(k)` bytes per job.
//!
//! Every evaluation walks the op list exactly as a one-shot call does.
//!
//! # Shifted sweeps share prefixes
//!
//! Both of `θ_i`'s shifted circuits run the same gates, at the same
//! angles, before `θ_i`'s first gate. A shifted sweep therefore orders its
//! jobs by (base vector, prefix cut — that first gate, or `0` when the
//! prologue holds it) and walks the unshifted circuit forward once: each
//! job copies the prefix state into the worker's second scratch state and
//! runs only the shifted gate and the suffix. One gradient costs one
//! forward walk per chunk plus `Σ (N − cut)` over its shifted evaluations
//! instead of `2k · N` gate applications.
//!
//! The unit of parallel work is a **chunk** of consecutive prefix groups:
//! at most `SHIFT_CHUNKS` (8) chunks of roughly equal suffix cost, each
//! walking its own prefix from `|0…0⟩`. The plan depends only on the
//! circuit and the shift list, never on the worker count, so gate counts
//! and results are the same on every host.
//!
//! # Rank-one costs share suffixes instead
//!
//! On the paper's global cost `I − |0…0⟩⟨0…0|` (and the bare projector),
//! an evaluation reads one amplitude: with op `k` the only one reading
//! `θ_i`, `E(θ + δ·e_i) = c0 + c1·|⟨w_k| R_k(θ_i + δ) |φ_{k−1}⟩|²`, where
//! `φ_{k−1}` is the state before op `k` and `w_k = U_{>k}(θ)† |0…0⟩`
//! ([`Observable::rank_one`] gives `(c0, c1)`). The ops after `k` never
//! see the shift, so one backward walk per base — the adjoint's own
//! (`adjoint::walk_back`), with the bra starting at `|0…0⟩` — serves
//! every job: `φ` runs forward to the last parameter's op and steps back
//! from there, and a job at op `k` copies `φ_{k−1}`, applies op `k` at
//! `θ_i + δ` and takes the overlap with `w_k`. A §IV-D gradient then
//! costs 335 forward and 279 inverse gate applications instead of the
//! prefix path's 16,322, in three states (`φ`, `w` and the copy `μ`).
//! Each base is one parallel unit, so a one-base gradient runs serially
//! and an ensemble spreads over its members. A circuit that reads some
//! parameter in two ops keeps the prefix path.
//!
//! # Determinism contract
//!
//! Results are returned in **input order** and are bit-identical to a
//! serial loop of the same one-shot calls — [`crate::expectation`] per
//! set, or [`crate::Adjoint`]'s `gradient` per member — regardless of
//! the worker count and of whether the batch routed serially or in
//! parallel: every evaluation runs the same arithmetic on its own scratch
//! state — a shifted evaluation resumes from prefix bits that equal the
//! full run's at that cut — and all reductions (the observable fold, the
//! shift-rule sum) happen in a fixed order on the ordered results. The
//! property tests in `tests/batch_props.rs` and `shift.rs`, and the
//! `batched-vs-per-circuit` and `shift-vs-per-job` fuzz pairs pin this at
//! tolerance zero.
//!
//! An overlap walk steps `φ` back through inverse gates, so its values
//! match the one-shot [`crate::expectation`] only to rounding (the
//! `overlap-shift-vs-per-job` fuzz pair holds it to `1e-12`; observed
//! `~1e-16`). It is still bit-identical to itself across worker counts,
//! between a batched ensemble partial and the one-shot partial, and
//! between a partial and its gradient entry: `φ` always starts at the
//! last parameter's op and the bra at the end, whichever jobs run.
//!
//! # Routing
//!
//! The serial/parallel decision is made in exactly one place
//! ([`BatchExecutor::route`]): batches of at least `MIN_PAR_EVALS`
//! evaluations fan out across `worker_count(units)` scoped workers;
//! smaller batches run on the caller's thread against the executor's own
//! scratch. Callers never re-derive the predicate.

use std::cmp::Reverse;
use std::ops::Range;

use crate::adjoint::{adjoint, walk_back, Wrt};
use crate::engine::{observe, ParamMap, MIN_PAR_EVALS};
use plateau_obs::{counter, gauge, histogram};
use plateau_sim::{Circuit, Observable, SimError, State};

/// Most chunks a shifted sweep splits into. Fixed, so the chunk plan —
/// and with it every gate count — never depends on the host's cores.
const SHIFT_CHUNKS: usize = 8;

/// Per-worker reusable evaluation scratch: one statevector plus one
/// parameter buffer, both reset in place between evaluations, and the
/// shifted sweeps' extra states, each allocated on first use so plain
/// sweeps never pay for them.
struct Scratch {
    /// The evaluated state; `φ` in an overlap walk.
    state: State,
    /// The unshifted prefix a prefix sweep copies from, or the shifted
    /// copy `μ` of an overlap walk.
    aux: Option<State>,
    /// An overlap walk's bra `w`.
    bra: Option<State>,
    params: Vec<f64>,
}

impl Scratch {
    fn new(n_qubits: usize, n_params: usize) -> Self {
        Scratch {
            state: State::zero(n_qubits),
            aux: None,
            bra: None,
            params: vec![0.0; n_params],
        }
    }
}

/// Puts per-unit results back in job order: unit `u` evaluated the jobs
/// `order[units[u]]`, in that order.
fn scatter(
    n_jobs: usize,
    order: &[usize],
    units: Vec<Range<usize>>,
    per_unit: Vec<Vec<f64>>,
) -> Vec<f64> {
    let mut evals = vec![0.0; n_jobs];
    for (range, values) in units.into_iter().zip(per_unit) {
        for (&j, e) in order[range].iter().zip(values) {
            evals[j] = e;
        }
    }
    evals
}

/// Workers a batch of `n_evals` evaluations in `n_units` units runs on.
fn workers_for(n_evals: usize, n_units: usize) -> usize {
    if n_evals >= MIN_PAR_EVALS {
        plateau_par::worker_count(n_units)
    } else {
        1
    }
}

/// Splits `order` — shifted jobs sorted by prefix group — into at most
/// [`SHIFT_CHUNKS`] ranges of roughly equal suffix cost, cutting only
/// between groups so no chunk walks a group's prefix twice.
fn chunk_plan(
    order: &[usize],
    group: impl Fn(usize) -> (usize, usize),
    cost: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    let total: usize = order.iter().map(|&j| cost(j)).sum();
    let mut chunks = Vec::with_capacity(SHIFT_CHUNKS);
    let (mut start, mut acc) = (0, 0);
    for pos in 0..order.len() {
        acc += cost(order[pos]);
        let last = pos + 1 == order.len();
        let group_ends = last || group(order[pos + 1]) != group(order[pos]);
        let full = chunks.len() + 1 < SHIFT_CHUNKS
            && acc * SHIFT_CHUNKS >= (chunks.len() + 1) * total;
        if last || (group_ends && full) {
            chunks.push(start..pos + 1);
            start = pos + 1;
        }
    }
    chunks
}

/// A circuit structure prepared for sweeping many parameter vectors.
///
/// Every evaluation reuses a pool of per-worker scratch statevectors. See
/// the [module docs](self) for the allocation and determinism contracts.
///
/// # Examples
///
/// Sweep a 200-member ensemble over one ansatz:
///
/// ```
/// use plateau_grad::{expectation, BatchExecutor};
/// use plateau_sim::{Circuit, Observable};
///
/// let mut c = Circuit::new(2)?;
/// c.ry(0)?.ry(1)?.cz(0, 1)?;
/// let obs = Observable::global_cost(2);
///
/// let sets: Vec<Vec<f64>> = (0..200)
///     .map(|m| vec![0.01 * m as f64, -0.02 * m as f64])
///     .collect();
///
/// let mut ex = BatchExecutor::new(&c);
/// let energies = ex.expectation_many(&sets, &obs)?;
/// assert_eq!(energies.len(), 200);
///
/// // Bit-identical to the one-at-a-time loop:
/// for (set, e) in sets.iter().zip(&energies) {
///     assert_eq!(*e, expectation(&c, set, &obs)?);
/// }
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
pub struct BatchExecutor<'c> {
    circuit: &'c Circuit,
    /// The caller-thread scratch, allocated lazily so a batch that routes
    /// parallel never pays for an unused serial statevector.
    scratch: Option<Scratch>,
}

impl<'c> BatchExecutor<'c> {
    /// Prepares `circuit` for batched evaluation. No statevector is
    /// allocated until the first evaluation runs.
    pub fn new(circuit: &'c Circuit) -> Self {
        BatchExecutor {
            circuit,
            scratch: None,
        }
    }

    /// The underlying circuit.
    pub(crate) fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Register width of the underlying circuit.
    pub fn n_qubits(&self) -> usize {
        self.circuit.n_qubits()
    }

    /// Number of free parameters the underlying circuit expects.
    pub fn n_params(&self) -> usize {
        self.circuit.n_params()
    }

    /// Validates every parameter set up front, before any circuit runs.
    fn check_sets(&self, param_sets: &[Vec<f64>]) -> Result<(), SimError> {
        for set in param_sets {
            self.circuit.check_params(set)?;
        }
        Ok(())
    }

    /// One cost evaluation `E(θ)` on the executor's reusable scratch —
    /// [`crate::expectation`]'s arithmetic and `grad.expectation_evals`
    /// accounting, with zero statevector allocation after the first call.
    ///
    /// # Errors
    ///
    /// Propagates parameter-count and observable-size mismatches.
    pub fn expectation(&mut self, params: &[f64], obs: &Observable) -> Result<f64, SimError> {
        self.circuit.check_params(params)?;
        let (n_qubits, n_params) = (self.n_qubits(), self.n_params());
        let scratch = self
            .scratch
            .get_or_insert_with(|| Scratch::new(n_qubits, n_params));
        self.circuit.run_into(&mut scratch.state, params, 0..self.circuit.gate_count())?;
        observe(&scratch.state, obs)
    }

    /// Core batched loop: `n_units` units of work, together `n_evals`
    /// circuit evaluations, each run as `unit(scratch, u)` against a
    /// per-worker scratch holding `states` statevectors. This
    /// is the **single** serial/parallel routing decision for the crate;
    /// results come back in unit order either way.
    fn route<U, F>(
        &mut self,
        n_evals: usize,
        n_units: usize,
        states: usize,
        unit: F,
    ) -> Result<Vec<U>, SimError>
    where
        U: Send,
        F: Fn(&mut Scratch, usize) -> Result<U, SimError> + Sync,
    {
        if n_units == 0 {
            return Ok(Vec::new());
        }
        let workers = workers_for(n_evals, n_units);
        let (n_qubits, n_params) = (self.n_qubits(), self.n_params());
        counter!("grad.batch.batches").inc();
        counter!("grad.batch.jobs").add(n_evals as u64);
        histogram!("grad.batch.size").record(n_evals as u64);
        gauge!("grad.batch.workers").set(workers as f64);
        gauge!("grad.batch.scratch_states").set((workers * states) as f64);
        gauge!("grad.batch.scratch_bytes")
            .set((workers * (states * (16usize << n_qubits) + 8 * n_params)) as f64);
        if workers <= 1 {
            // Serial: reuse the executor's own scratch across the whole
            // batch — one set of states no matter the batch size.
            let scratch = self
                .scratch
                .get_or_insert_with(|| Scratch::new(n_qubits, n_params));
            (0..n_units).map(|u| unit(scratch, u)).collect()
        } else {
            // Parallel: one scratch per worker thread, initialized on that
            // worker, reused for every unit it claims. Results are
            // returned in unit order by `par_map_scratch` regardless of
            // which worker ran which unit.
            plateau_par::par_map_scratch(
                n_units,
                || Scratch::new(n_qubits, n_params),
                |scratch, u| unit(scratch, u),
            )
            .into_iter()
            .collect()
        }
    }

    /// Evaluates the cost for many parameter sets against this circuit,
    /// in input order. Bit-identical to a serial loop of
    /// [`crate::expectation`] (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Propagates parameter-count and observable-size mismatches; every
    /// parameter set is validated up front, before any circuit runs.
    pub fn expectation_many(
        &mut self,
        param_sets: &[Vec<f64>],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        self.check_sets(param_sets)?;
        let n = param_sets.len();
        let circuit = self.circuit;
        self.route(n, n, 1, |scratch, j| {
            scratch.params.copy_from_slice(&param_sets[j]);
            circuit.run_into(&mut scratch.state, &scratch.params, 0..circuit.gate_count())?;
            observe(&scratch.state, obs)
        })
    }

    /// Evaluates the cost at `base` with one coordinate shifted per job:
    /// job `j` evaluates `E(base with base[idx_j] += delta_j)` where
    /// `(idx_j, delta_j) = shifts[j]`. This is the parameter-shift rule's
    /// evaluation pattern expressed in `O(k)` bytes — no per-job copy of
    /// the full vector ever exists outside the per-worker buffers.
    ///
    /// Cost: one forward walk of the unshifted circuit per chunk of
    /// shifts (at most 8) plus, per shift, only the gates from `θ_idx`'s
    /// first gate onward — the prefix before it is shared and copied, not
    /// re-run. On a rank-one cost ([`Observable::rank_one`]) one backward
    /// walk serves every shift instead, one gate per shift (see the
    /// [module docs](self)). Shifts may come in any order and repeat
    /// indices; results are in input order, bit-identical to one
    /// [`crate::expectation`] per job for the local cost and Pauli sums,
    /// and equal to it within rounding for the rank-one costs.
    ///
    /// # Errors
    ///
    /// Propagates parameter-count mismatches on `base`, returns
    /// [`SimError::ParamOutOfRange`] for a shift index past the end, and
    /// propagates observable-size mismatches from evaluation.
    pub fn expectation_shifted(
        &mut self,
        base: &[f64],
        shifts: &[(usize, f64)],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        self.circuit.check_params(base)?;
        let n = self.n_params();
        for &(idx, _) in shifts {
            if idx >= n {
                return Err(SimError::ParamOutOfRange { index: idx, n_params: n });
            }
        }
        let map = ParamMap::new(self.circuit);
        let job = |j: usize| (0, shifts[j].0, shifts[j].1);
        self.shifted_sweep(&map, &[base], shifts.len(), job, obs)
    }

    /// The shifted-evaluation sweep behind every parameter-shift entry
    /// point: job `j` evaluates `E(bases[m] with θ_i += δ)` for
    /// `(m, i, δ) = job(j)`, returned in job order. On a rank-one cost
    /// whose parameters are each read by one op, each base's jobs share
    /// one backward walk ([`Self::overlap_sweep`]); otherwise jobs sharing
    /// a base and a prefix cut share one walk of the unshifted prefix
    /// ([`Self::prefix_sweep`]). See the [module docs](self). Callers
    /// have validated every base and index, and built `map` from this
    /// executor's circuit.
    pub(crate) fn shifted_sweep<J>(
        &mut self,
        map: &ParamMap,
        bases: &[&[f64]],
        n_jobs: usize,
        job: J,
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError>
    where
        J: Fn(usize) -> (usize, usize, f64) + Sync,
    {
        match obs.rank_one() {
            Some(form) if !map.shared() => self.overlap_sweep(map, bases, n_jobs, job, obs, form),
            _ => self.prefix_sweep(map, bases, n_jobs, job, obs),
        }
    }

    /// Shifted evaluations resumed from shared prefixes: jobs ordered by
    /// (base, prefix cut), chunks of such groups the parallel units.
    fn prefix_sweep<J>(
        &mut self,
        map: &ParamMap,
        bases: &[&[f64]],
        n_jobs: usize,
        job: J,
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError>
    where
        J: Fn(usize) -> (usize, usize, f64) + Sync,
    {
        let circuit = self.circuit;
        let steps = circuit.gate_count();
        let group = |j: usize| {
            let (m, i, _) = job(j);
            (m, map.cut(i))
        };
        let mut order: Vec<usize> = (0..n_jobs).collect();
        order.sort_unstable_by_key(|&j| (group(j), j));
        let chunks = chunk_plan(&order, group, |j| steps - group(j).1);
        let n_qubits = self.n_qubits();
        let per_chunk = self.route(n_jobs, chunks.len(), 2, |scratch, c| {
            let Scratch { state, aux: prefix, params, .. } = scratch;
            // The (base, cut) the prefix state currently holds.
            let mut held = None;
            let mut out = Vec::with_capacity(chunks[c].len());
            for &j in &order[chunks[c].clone()] {
                let (m, i, delta) = job(j);
                let cut = map.cut(i);
                params.copy_from_slice(bases[m]);
                params[i] += delta;
                if cut == 0 {
                    circuit.run_into(state, params, 0..steps)?;
                } else {
                    let prefix = prefix.get_or_insert_with(|| State::zero(n_qubits));
                    if held != Some((m, cut)) {
                        // Extend the prefix within one base (groups are in
                        // cut order); restart from |0…0⟩ for a new base.
                        let from = match held {
                            Some((hm, hc)) if hm == m => hc,
                            _ => 0,
                        };
                        circuit.run_into(prefix, bases[m], from..cut)?;
                        held = Some((m, cut));
                    }
                    state.copy_from(prefix);
                    circuit.run_into(state, params, cut..steps)?;
                }
                out.push(observe(state, obs)?);
            }
            Ok(out)
        })?;
        Ok(scatter(n_jobs, &order, chunks, per_chunk))
    }

    /// Shifted evaluations of a rank-one cost `c0 + c1·|0…0⟩⟨0…0|`, one
    /// backward walk per base. With op `k` the only one reading `θ_i`,
    ///
    /// ```text
    /// E(θ + δ·e_i) = c0 + c1·|⟨w_k| R_k(θ_i + δ) |φ_{k−1}⟩|²,   w_k = U_{>k}(θ)† |0…0⟩
    /// ```
    ///
    /// so [`walk_back`] carries `φ` down from the last parameter's op and
    /// the bra `w` from `|0…0⟩`, and each job at op `k` copies `φ_{k−1}`,
    /// applies op `k` at `θ_i + δ` and takes the overlap with `w`. A job
    /// whose parameter no op reads evaluates the unshifted circuit.
    fn overlap_sweep<J>(
        &mut self,
        map: &ParamMap,
        bases: &[&[f64]],
        n_jobs: usize,
        job: J,
        obs: &Observable,
        (c0, c1): (f64, f64),
    ) -> Result<Vec<f64>, SimError>
    where
        J: Fn(usize) -> (usize, usize, f64) + Sync,
    {
        let circuit = self.circuit;
        let n_ops = circuit.gate_count();
        let op_of = |j: usize| map.op(job(j).1).unwrap_or(n_ops);
        // By base, then latest op first: the order the walk meets them.
        let mut order: Vec<usize> = (0..n_jobs).collect();
        order.sort_unstable_by_key(|&j| (job(j).0, Reverse(op_of(j)), j));
        let mut units: Vec<Range<usize>> = Vec::new();
        for (pos, &j) in order.iter().enumerate() {
            match units.last_mut() {
                Some(unit) if job(order[unit.start]).0 == job(j).0 => unit.end = pos + 1,
                _ => units.push(pos..pos + 1),
            }
        }
        let n_qubits = self.n_qubits();
        let per_unit = self.route(n_jobs, units.len(), 3, |scratch, u| {
            let Scratch { state: phi, aux, bra, params } = scratch;
            let jobs = &order[units[u].clone()];
            let base = bases[job(jobs[0]).0];
            let mu = aux.get_or_insert_with(|| State::zero(n_qubits));
            let mut out = Vec::with_capacity(jobs.len());
            let unread = jobs.iter().take_while(|&&j| op_of(j) == n_ops).count();
            for _ in 0..unread {
                circuit.run_into(mu, base, 0..n_ops)?;
                out.push(observe(mu, obs)?);
            }
            let Some(&earliest) = jobs.last().filter(|_| unread < jobs.len()) else {
                return Ok(out);
            };
            // φ starts before the last parameter's op whichever jobs run,
            // so a partial repeats its gradient entry's arithmetic.
            let phi_end = map.last();
            circuit.run_into(phi, base, 0..phi_end)?;
            let bra = bra.get_or_insert_with(|| State::zero(n_qubits));
            bra.reset_zero();
            params.copy_from_slice(base);
            let mut next = unread;
            walk_back(circuit, base, op_of(earliest), phi_end, phi, bra, |k, phi, bra| {
                while let Some(&j) = jobs.get(next).filter(|&&j| op_of(j) == k) {
                    let (_, i, delta) = job(j);
                    mu.copy_from(phi);
                    params[i] = base[i] + delta;
                    circuit.ops()[k].apply(mu, params)?;
                    params[i] = base[i];
                    counter!("grad.expectation_evals").inc();
                    out.push(c0 + c1 * bra.inner(mu)?.norm_sqr());
                    next += 1;
                }
                Ok(())
            })?;
            Ok(out)
        })?;
        Ok(scatter(n_jobs, &order, units, per_unit))
    }

    /// One full adjoint gradient per parameter set, in input order — the
    /// same computation (and the same counter accounting) as calling
    /// [`crate::Adjoint`]'s `gradient` once per member.
    ///
    /// # Errors
    ///
    /// Propagates parameter-count and observable-size mismatches; every
    /// parameter set is validated up front, before any circuit runs.
    pub fn adjoint_gradient_many(
        &mut self,
        param_sets: &[Vec<f64>],
        obs: &Observable,
    ) -> Result<Vec<Vec<f64>>, SimError> {
        self.adjoint_many(param_sets, obs, Wrt::All)
    }

    /// Adjoint partial `∂E/∂θ_last` for every parameter set, in input
    /// order — the variance scan's quantity, one ensemble at a time. Each
    /// member is bit-identical to the last entry of [`crate::Adjoint`]'s
    /// `gradient`: the backward sweep ends at `θ_last`'s gate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParamOutOfRange`] when the circuit has no free
    /// parameters, plus [`Self::adjoint_gradient_many`]'s conditions.
    pub fn partial_last_many_adjoint(
        &mut self,
        param_sets: &[Vec<f64>],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        let n = self.n_params();
        if n == 0 {
            return Err(SimError::ParamOutOfRange { index: 0, n_params: 0 });
        }
        Ok(self
            .adjoint_many(param_sets, obs, Wrt::One(n - 1))?
            .into_iter()
            .map(|g| g[0])
            .collect())
    }

    /// One adjoint sweep over the parameters in `wrt` per parameter set,
    /// in input order, routed like every other batch (the adjoint keeps
    /// its own states, so the scratch goes unused).
    fn adjoint_many(
        &mut self,
        param_sets: &[Vec<f64>],
        obs: &Observable,
        wrt: Wrt,
    ) -> Result<Vec<Vec<f64>>, SimError> {
        self.check_sets(param_sets)?;
        let (circuit, n) = (self.circuit, param_sets.len());
        self.route(n, n, 0, |_, j| adjoint(circuit, &param_sets[j], obs, wrt, None))
    }

    /// Parameter-shift partial `∂E/∂θ_last` for every parameter set, in
    /// input order — per member, the shift rule's sum of 2 or 4
    /// evaluations folded in job order, with the whole ensemble's shifted
    /// evaluations flattened into one batch so they share the scratch
    /// pool and one routing decision.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParamOutOfRange`] when the circuit has no free
    /// parameters; propagates parameter-count and observable-size
    /// mismatches.
    pub fn partial_last_many_shift(
        &mut self,
        param_sets: &[Vec<f64>],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        let n = self.n_params();
        if n == 0 {
            return Err(SimError::ParamOutOfRange { index: 0, n_params: 0 });
        }
        self.check_sets(param_sets)?;
        let map = ParamMap::new(self.circuit);
        let mut proto = Vec::with_capacity(4);
        crate::shift::jobs_for_param(self.circuit, &map, n - 1, &mut proto)?;
        let t = proto.len();
        let members = param_sets.len();
        counter!("grad.executions.parameter_shift").add((t * members) as u64);
        let bases: Vec<&[f64]> = param_sets.iter().map(Vec::as_slice).collect();
        let evals = self.shifted_sweep(
            &map,
            &bases,
            t * members,
            |j| (j / t, n - 1, proto[j % t].shift),
            obs,
        )?;
        // Fold each member's evaluations in job (k) order — the same
        // order `ParameterShift::partial_with` sums in, so each partial
        // is bit-identical to the one-member path.
        Ok((0..members)
            .map(|m| {
                proto
                    .iter()
                    .zip(&evals[m * t..(m + 1) * t])
                    .map(|(job, e)| job.coeff * e)
                    .sum()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::training_shape as ansatz;
    use crate::{Adjoint, GradientEngine};

    /// The executor's oracle: one full one-shot run.
    fn one_shot(c: &Circuit, params: &[f64], obs: &Observable) -> f64 {
        crate::expectation(c, params, obs).unwrap()
    }

    fn sets(n_params: usize, members: usize) -> Vec<Vec<f64>> {
        (0..members)
            .map(|m| {
                (0..n_params)
                    .map(|p| 0.1 * (m as f64 + 1.0) + 0.01 * p as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batched_matches_serial_expectation_loop() {
        let c = ansatz(3, 2);
        let obs = Observable::global_cost(3);
        // Straddle MIN_PAR_EVALS on both sides.
        for members in [1usize, 5, 8, 20] {
            let sets = sets(c.n_params(), members);
            let batch = BatchExecutor::new(&c).expectation_many(&sets, &obs).unwrap();
            for (set, e) in sets.iter().zip(&batch) {
                assert_eq!(*e, one_shot(&c, set, &obs));
            }
        }
    }

    #[test]
    fn shifted_matches_manual_copies() {
        let c = ansatz(2, 2);
        let obs = Observable::local_cost(2);
        let base: Vec<f64> = (0..c.n_params()).map(|p| 0.2 + 0.05 * p as f64).collect();
        let shifts: Vec<(usize, f64)> = (0..c.n_params())
            .flat_map(|p| [(p, std::f64::consts::FRAC_PI_2), (p, -std::f64::consts::FRAC_PI_2)])
            .collect();
        let batch = BatchExecutor::new(&c)
            .expectation_shifted(&base, &shifts, &obs)
            .unwrap();
        for (&(idx, delta), e) in shifts.iter().zip(&batch) {
            let mut p = base.clone();
            p[idx] += delta;
            assert_eq!(*e, one_shot(&c, &p, &obs));
        }
    }

    #[test]
    fn adjoint_many_matches_per_member_engine() {
        let c = ansatz(3, 2);
        let obs = Observable::global_cost(3);
        let sets = sets(c.n_params(), 10);
        let many = BatchExecutor::new(&c)
            .adjoint_gradient_many(&sets, &obs)
            .unwrap();
        for (set, g) in sets.iter().zip(&many) {
            let one = Adjoint.gradient(&c, set, &obs).unwrap();
            assert_eq!(*g, one);
        }
    }

    #[test]
    fn partial_last_many_match_engines() {
        let c = ansatz(2, 3);
        let obs = Observable::global_cost(2);
        let sets = sets(c.n_params(), 9);
        let adj = BatchExecutor::new(&c)
            .partial_last_many_adjoint(&sets, &obs)
            .unwrap();
        let shf = BatchExecutor::new(&c)
            .partial_last_many_shift(&sets, &obs)
            .unwrap();
        let last = c.n_params() - 1;
        let mut jobs = Vec::new();
        crate::shift::jobs_for_param(&c, &ParamMap::new(&c), last, &mut jobs).unwrap();
        for (i, set) in sets.iter().enumerate() {
            let grad = Adjoint.gradient(&c, set, &obs).unwrap();
            assert_eq!(adj[i], grad[last]);
            let terms: Vec<f64> = jobs
                .iter()
                .map(|job| {
                    let mut p = set.clone();
                    p[last] += job.shift;
                    job.coeff * one_shot(&c, &p, &obs)
                })
                .collect();
            assert_eq!(shf[i], terms.into_iter().sum::<f64>());
        }
    }

    #[test]
    fn chunk_plan_balances_suffix_cost_and_never_splits_a_group() {
        // 40 jobs in 20 groups of two (one per prefix cut 0, 3, 6, …),
        // suffix cost 60 − cut each.
        let group = |j: usize| (0, 3 * (j / 2));
        let cost = |j: usize| 60 - group(j).1;
        let order: Vec<usize> = (0..40).collect();
        let chunks = chunk_plan(&order, group, cost);
        assert_eq!(chunks.len(), SHIFT_CHUNKS);
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, 40);
        let total: usize = order.iter().map(|&j| cost(j)).sum();
        for (a, b) in chunks.iter().zip(&chunks[1..]) {
            assert_eq!(a.end, b.start, "chunks tile the jobs");
            assert_ne!(group(a.end - 1), group(b.start), "a group spans two chunks");
        }
        for chunk in &chunks {
            let share: usize = chunk.clone().map(|p| cost(order[p])).sum();
            // Within one group (≤ 2 · 60) of an equal share.
            assert!(share.abs_diff(total / SHIFT_CHUNKS) <= 120, "{chunks:?}");
        }
        // Fewer groups than chunks: one chunk per group.
        assert_eq!(chunk_plan(&order[..6], group, cost), [0..2, 2..4, 4..6]);
        assert!(chunk_plan(&[], group, cost).is_empty());
    }

    #[test]
    fn empty_batches_and_error_paths() {
        let c = ansatz(2, 1);
        let obs = Observable::global_cost(2);
        let mut ex = BatchExecutor::new(&c);
        assert!(ex.expectation_many(&[], &obs).unwrap().is_empty());
        assert!(ex.adjoint_gradient_many(&[], &obs).unwrap().is_empty());
        // Wrong-arity member rejected before anything runs.
        assert!(ex.expectation_many(&[vec![0.0]], &obs).is_err());
        // Shift index out of range.
        let base = vec![0.0; c.n_params()];
        assert!(ex
            .expectation_shifted(&base, &[(c.n_params(), 0.1)], &obs)
            .is_err());
        // No-parameter circuit has no "last" partial.
        let bare = Circuit::new(1).unwrap();
        let obs1 = Observable::global_cost(1);
        assert!(BatchExecutor::new(&bare)
            .partial_last_many_adjoint(&[], &obs1)
            .is_err());
        assert!(BatchExecutor::new(&bare)
            .partial_last_many_shift(&[], &obs1)
            .is_err());
    }
}
