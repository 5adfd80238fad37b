//! Batched ensemble evaluation: compile once, sweep many parameter sets.
//!
//! The paper's experiments are ensembles — 200 independently-initialized
//! parameter vectors swept over one circuit structure per (strategy,
//! qubit-count) cell. Before this module, every evaluation in such a sweep
//! re-derived everything from scratch: a fresh `2^n` statevector per run,
//! a fresh compile per run when fusion was on, and a materialized copy of
//! the full parameter vector per shifted evaluation. [`BatchExecutor`]
//! owns all three costs once:
//!
//! - the circuit is compiled a single time (when `PLATEAU_SIM_FUSE` is
//!   on) and reused for every member of the batch;
//! - each worker thread owns one reusable scratch [`plateau_sim::State`]
//!   plus one parameter buffer, reset in place between evaluations;
//!   shifted sweeps add a second state per worker for the shared prefix
//!   (below) — peak statevector allocation is `O(workers · 2^n)`
//!   regardless of batch size;
//! - shifted evaluations travel as `(param index, shift)` pairs against
//!   one base vector instead of `O(k)` bytes per job.
//!
//! # Shifted sweeps share prefixes
//!
//! Both of `θ_i`'s shifted circuits run the same gates, at the same
//! angles, before `θ_i`'s first gate. A shifted sweep therefore orders its
//! jobs by (base vector, prefix cut — that first gate, or first fused
//! segment) and walks the unshifted circuit forward once: each job copies
//! the prefix state into the worker's second scratch state and runs only
//! the shifted gate and the suffix. One gradient costs one forward walk
//! per chunk plus `Σ (N − cut)` over its shifted evaluations instead of
//! `2k · N` gate applications.
//!
//! The unit of parallel work is a **chunk** of consecutive prefix groups:
//! at most `SHIFT_CHUNKS` (8) chunks of roughly equal suffix cost, each
//! walking its own prefix from `|0…0⟩`. The plan depends only on the
//! circuit and the shift list, never on the worker count, so gate counts
//! and results are the same on every host.
//!
//! # Determinism contract
//!
//! Results are returned in **input order** and are bit-identical to a
//! serial loop of [`crate::expectation`] over the same sets, regardless
//! of `PLATEAU_THREADS` and of whether the batch routed serially or in
//! parallel: every evaluation runs the same arithmetic on its own scratch
//! state — a shifted evaluation resumes from prefix bits that equal the
//! full run's at that cut — and all reductions (the observable fold, the
//! shift-rule sum) happen in a fixed order on the ordered results. The
//! property tests in `tests/batch_props.rs` and `shift.rs`, and the
//! `batched-vs-per-circuit` and `shift-vs-per-job` fuzz pairs pin this at
//! tolerance zero.
//!
//! # Routing
//!
//! The serial/parallel decision is made in exactly one place
//! ([`BatchExecutor::route`]): batches of at least `MIN_PAR_EVALS`
//! evaluations fan out across `worker_count(units)` scoped workers;
//! smaller batches run on the caller's thread against the executor's own
//! scratch. Callers never re-derive the predicate.

use std::ops::Range;

use crate::adjoint::Wrt;
use crate::engine::{Evaluator, MIN_PAR_EVALS};
use plateau_obs::{counter, gauge, histogram};
use plateau_sim::{Circuit, Observable, SimError, State};

/// Most chunks a shifted sweep splits into. Fixed, so the chunk plan —
/// and with it every gate count — never depends on the host's cores.
const SHIFT_CHUNKS: usize = 8;

/// Per-worker reusable evaluation scratch: one statevector plus one
/// parameter buffer, both reset in place between evaluations, and the
/// shifted sweeps' prefix state.
struct Scratch {
    state: State,
    /// The unshifted prefix a shifted sweep copies from, allocated on
    /// first use so plain sweeps never pay for it.
    prefix: Option<State>,
    params: Vec<f64>,
}

impl Scratch {
    fn new(n_qubits: usize, n_params: usize) -> Self {
        Scratch {
            state: State::zero(n_qubits),
            prefix: None,
            params: vec![0.0; n_params],
        }
    }
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
/// Construction compiles the circuit once (when gate fusion is enabled);
/// every subsequent evaluation reuses that compilation plus a pool of
/// per-worker scratch statevectors. See the [module docs](self) for the
/// allocation and determinism contracts.
///
/// # Examples
///
/// Sweep a 200-member ensemble over one ansatz:
///
/// ```
/// use plateau_grad::BatchExecutor;
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
///     assert_eq!(*e, plateau_grad::expectation(&c, set, &obs)?);
/// }
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
pub struct BatchExecutor<'c> {
    circuit: &'c Circuit,
    ev: Evaluator<'c>,
    /// The caller-thread scratch, allocated lazily so a batch that routes
    /// parallel never pays for an unused serial statevector.
    scratch: Option<Scratch>,
}

impl<'c> BatchExecutor<'c> {
    /// Prepares `circuit` for batched evaluation, compiling it once when
    /// the `PLATEAU_SIM_FUSE` knob is on. No statevector is allocated
    /// until the first evaluation runs.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_evaluator(circuit, Evaluator::new(circuit))
    }

    /// An executor over an explicit evaluator form — how tests drive the
    /// raw and fused paths without touching the global fusion knob.
    pub(crate) fn with_evaluator(circuit: &'c Circuit, ev: Evaluator<'c>) -> Self {
        BatchExecutor {
            circuit,
            ev,
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
    /// the same computation (and the same `grad.expectation_evals`
    /// accounting) as [`crate::expectation`], with zero statevector
    /// allocation after the first call.
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
        self.ev.expectation_into(&mut scratch.state, params, obs)
    }

    /// Core batched loop: `n_units` units of work, together `n_evals`
    /// circuit evaluations, each run as `unit(evaluator, scratch, u)`
    /// against a per-worker scratch holding `states` statevectors. This
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
        F: Fn(&Evaluator<'c>, &mut Scratch, usize) -> Result<U, SimError> + Sync,
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
        let ev = &self.ev;
        if workers <= 1 {
            // Serial: reuse the executor's own scratch across the whole
            // batch — one set of states no matter the batch size.
            let scratch = self
                .scratch
                .get_or_insert_with(|| Scratch::new(n_qubits, n_params));
            (0..n_units).map(|u| unit(ev, scratch, u)).collect()
        } else {
            // Parallel: one scratch per worker thread, initialized on that
            // worker, reused for every unit it claims. Results are
            // returned in unit order by `par_map_scratch` regardless of
            // which worker ran which unit.
            plateau_par::par_map_scratch(
                n_units,
                || Scratch::new(n_qubits, n_params),
                |scratch, u| unit(ev, scratch, u),
            )
            .into_iter()
            .collect()
        }
    }

    /// Evaluates the cost for many parameter sets against this circuit,
    /// in input order. Bit-identical to a serial [`crate::expectation`]
    /// loop over the same sets (see the [module docs](self)).
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
        self.route(n, n, 1, |ev, scratch, j| {
            scratch.params.copy_from_slice(&param_sets[j]);
            ev.expectation_into(&mut scratch.state, &scratch.params, obs)
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
    /// first gate (or fused segment) onward — the prefix before it is
    /// shared and copied, not re-run. Shifts may come in any order and
    /// repeat indices; results are in input order and bit-identical to
    /// one [`crate::expectation`] per job.
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
        self.shifted_sweep(&[base], shifts.len(), |j| (0, shifts[j].0, shifts[j].1), obs)
    }

    /// The shifted-evaluation sweep behind every parameter-shift entry
    /// point: job `j` evaluates `E(bases[m] with θ_i += δ)` for
    /// `(m, i, δ) = job(j)`, returned in job order. Jobs sharing a base
    /// and a prefix cut share one walk of the unshifted prefix; chunks of
    /// such groups are the parallel units (see the [module docs](self)).
    /// Callers have validated every base and index.
    pub(crate) fn shifted_sweep<J>(
        &mut self,
        bases: &[&[f64]],
        n_jobs: usize,
        job: J,
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError>
    where
        J: Fn(usize) -> (usize, usize, f64) + Sync,
    {
        let steps = self.ev.steps();
        let cuts = self.ev.param_cuts(self.n_params());
        let group = |j: usize| {
            let (m, i, _) = job(j);
            (m, cuts[i])
        };
        let mut order: Vec<usize> = (0..n_jobs).collect();
        order.sort_unstable_by_key(|&j| (group(j), j));
        let chunks = chunk_plan(&order, group, |j| steps - group(j).1);
        let n_qubits = self.n_qubits();
        let per_chunk = self.route(n_jobs, chunks.len(), 2, |ev, scratch, c| {
            let Scratch { state, prefix, params } = scratch;
            // The (base, cut) the prefix state currently holds.
            let mut held = None;
            let mut out = Vec::with_capacity(chunks[c].len());
            for &j in &order[chunks[c].clone()] {
                let (m, i, delta) = job(j);
                let cut = cuts[i];
                params.copy_from_slice(bases[m]);
                params[i] += delta;
                if cut == 0 {
                    ev.run_steps(state, params, 0, steps)?;
                } else {
                    let prefix = prefix.get_or_insert_with(|| State::zero(n_qubits));
                    if held != Some((m, cut)) {
                        // Extend the prefix within one base (groups are in
                        // cut order); restart from |0…0⟩ for a new base.
                        let from = match held {
                            Some((hm, hc)) if hm == m => hc,
                            _ => 0,
                        };
                        ev.run_steps(prefix, bases[m], from, cut)?;
                        held = Some((m, cut));
                    }
                    state.copy_from(prefix);
                    ev.run_steps(state, params, cut, steps)?;
                }
                out.push(ev.observe(state, obs)?);
            }
            Ok(out)
        })?;
        let mut evals = vec![0.0; n_jobs];
        for (range, values) in chunks.into_iter().zip(per_chunk) {
            for (&j, e) in order[range].iter().zip(values) {
                evals[j] = e;
            }
        }
        Ok(evals)
    }

    /// One full adjoint gradient per parameter set, in input order — the
    /// same computation (and the same counter accounting) as calling
    /// [`crate::Adjoint::gradient`](crate::Adjoint) once per member,
    /// minus the per-member compile when fusion is on.
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
    /// member is bit-identical to [`crate::Adjoint`]'s `partial_last`: the
    /// backward sweep ends at `θ_last`'s gate.
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
    /// in input order.
    fn adjoint_many(
        &mut self,
        param_sets: &[Vec<f64>],
        obs: &Observable,
        wrt: Wrt,
    ) -> Result<Vec<Vec<f64>>, SimError> {
        self.check_sets(param_sets)?;
        let n_jobs = param_sets.len();
        if n_jobs == 0 {
            return Ok(Vec::new());
        }
        let workers = workers_for(n_jobs, n_jobs);
        counter!("grad.batch.batches").inc();
        counter!("grad.batch.jobs").add(n_jobs as u64);
        histogram!("grad.batch.size").record(n_jobs as u64);
        gauge!("grad.batch.workers").set(workers as f64);
        let ev = &self.ev;
        if workers <= 1 {
            param_sets
                .iter()
                .map(|set| ev.adjoint(set, obs, wrt))
                .collect()
        } else {
            plateau_par::par_map_indexed(n_jobs, |j| ev.adjoint(&param_sets[j], obs, wrt))
                .into_iter()
                .collect()
        }
    }

    /// Parameter-shift partial `∂E/∂θ_last` for every parameter set, in
    /// input order — bit-identical per member to
    /// [`crate::ParameterShift`]'s `partial_last`, but with the whole
    /// ensemble's shifted evaluations (2 or 4 per member) flattened into
    /// one batch so they share the scratch pool and one routing decision.
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
        let mut proto = Vec::with_capacity(4);
        crate::shift::jobs_for_param(self.circuit, n - 1, &mut proto)?;
        let t = proto.len();
        let members = param_sets.len();
        counter!("grad.executions.parameter_shift").add((t * members) as u64);
        let bases: Vec<&[f64]> = param_sets.iter().map(Vec::as_slice).collect();
        let evals = self.shifted_sweep(
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
    use crate::engine::expectation;
    use crate::GradientEngine;

    fn ansatz(n: usize, layers: usize) -> Circuit {
        let mut c = Circuit::new(n).unwrap();
        for _ in 0..layers {
            for q in 0..n {
                c.rx(q).unwrap().ry(q).unwrap();
            }
            for q in 0..n.saturating_sub(1) {
                c.cz(q, q + 1).unwrap();
            }
        }
        c
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
        let _guard = plateau_obs::test_lock();
        let c = ansatz(3, 2);
        let obs = Observable::global_cost(3);
        // Straddle MIN_PAR_EVALS on both sides.
        for members in [1usize, 5, 8, 20] {
            let sets = sets(c.n_params(), members);
            let batch = BatchExecutor::new(&c).expectation_many(&sets, &obs).unwrap();
            for (set, e) in sets.iter().zip(&batch) {
                assert_eq!(*e, expectation(&c, set, &obs).unwrap());
            }
        }
    }

    #[test]
    fn shifted_matches_manual_copies() {
        let _guard = plateau_obs::test_lock();
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
            assert_eq!(*e, expectation(&c, &p, &obs).unwrap());
        }
    }

    #[test]
    fn adjoint_many_matches_per_member_engine() {
        let _guard = plateau_obs::test_lock();
        let c = ansatz(3, 2);
        let obs = Observable::global_cost(3);
        let sets = sets(c.n_params(), 10);
        let many = BatchExecutor::new(&c)
            .adjoint_gradient_many(&sets, &obs)
            .unwrap();
        for (set, g) in sets.iter().zip(&many) {
            let one = crate::Adjoint.gradient(&c, set, &obs).unwrap();
            assert_eq!(*g, one);
        }
    }

    #[test]
    fn partial_last_many_match_engines() {
        let _guard = plateau_obs::test_lock();
        let c = ansatz(2, 3);
        let obs = Observable::global_cost(2);
        let sets = sets(c.n_params(), 9);
        let adj = BatchExecutor::new(&c)
            .partial_last_many_adjoint(&sets, &obs)
            .unwrap();
        let shf = BatchExecutor::new(&c)
            .partial_last_many_shift(&sets, &obs)
            .unwrap();
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(adj[i], crate::Adjoint.partial_last(&c, set, &obs).unwrap());
            assert_eq!(
                shf[i],
                crate::ParameterShift.partial_last(&c, set, &obs).unwrap()
            );
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
        let _guard = plateau_obs::test_lock();
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

    #[test]
    fn serial_batch_reuses_one_scratch_state() {
        let _guard = plateau_obs::test_lock();
        plateau_obs::set_metrics_enabled(true);
        let c = ansatz(3, 2);
        let obs = Observable::global_cost(3);
        let sets = sets(c.n_params(), 20);
        let workers = plateau_par::worker_count(sets.len());
        let count = |name: &str| plateau_obs::snapshot().counter(name).unwrap_or(0);
        let before = count("sim.state.allocations");
        let reuses_before = count("sim.state.reuses");
        let mut ex = BatchExecutor::new(&c);
        ex.expectation_many(&sets, &obs).unwrap();
        // Re-sweeping the same executor must not allocate again (serially);
        // in parallel each sweep's workers own fresh scratch.
        ex.expectation_many(&sets, &obs).unwrap();
        let allocated = count("sim.state.allocations") - before;
        let reused = count("sim.state.reuses") - reuses_before;
        plateau_obs::set_metrics_enabled(false);
        // Every evaluation resets a scratch in place rather than allocating.
        assert_eq!(reused, 2 * sets.len() as u64);
        if workers <= 1 {
            assert_eq!(
                allocated, 1,
                "serial batch must allocate exactly one scratch state"
            );
        } else {
            assert!(
                allocated <= 2 * workers as u64,
                "parallel batch must allocate at most one scratch per worker per sweep"
            );
        }
    }
}
