//! Finite-shot measurement sampling.
//!
//! The paper's experiments run in PennyLane's *analytic* mode (exact
//! expectation values); real hardware only offers finite shot budgets. This
//! module provides computational-basis sampling and shot-based estimators
//! so the A4 ablation can ask: *at what shot count does shot noise swamp
//! the barren-plateau gradient signal?*
//!
//! # Examples
//!
//! ```
//! use plateau_sim::{sample_counts, FixedGate, State};
//! use plateau_rng::{rngs::StdRng, SeedableRng};
//!
//! let mut psi = State::zero(2);
//! psi.apply_fixed(FixedGate::H, &[0])?;
//! psi.apply_fixed(FixedGate::Cx, &[0, 1])?;
//!
//! let mut rng = StdRng::seed_from_u64(3);
//! let counts = sample_counts(&psi, 4000, &mut rng);
//! // A Bell state only ever yields |00⟩ and |11⟩.
//! assert_eq!(counts.get(&1), None);
//! assert_eq!(counts.get(&2), None);
//! let p00 = *counts.get(&0).unwrap_or(&0) as f64 / 4000.0;
//! assert!((p00 - 0.5).abs() < 0.05);
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

use crate::observable::Observable;
use crate::state::State;
use plateau_rng::Rng;
use std::collections::BTreeMap;

/// Draws one computational-basis outcome index from the state's Born
/// distribution by CDF inversion.
pub fn sample_index<R: Rng + ?Sized>(state: &State, rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for i in 0..state.dim() {
        acc += state.amplitude(i).norm_sqr();
        if u < acc {
            return i;
        }
    }
    // Floating-point slack: the CDF may top out slightly below 1.
    state.dim() - 1
}

/// Draws `shots` outcomes and tallies them.
pub fn sample_counts<R: Rng + ?Sized>(
    state: &State,
    shots: usize,
    rng: &mut R,
) -> BTreeMap<usize, usize> {
    // Precompute the CDF once; for repeated draws this beats per-shot scans.
    let probs = state.probabilities();
    let mut cdf = Vec::with_capacity(probs.len());
    let mut acc = 0.0;
    for p in &probs {
        acc += p;
        cdf.push(acc);
    }
    // Clamp the floating-point-slack fallback to the last outcome with
    // nonzero probability, so it can never tally an impossible state.
    let last_positive = probs
        .iter()
        .rposition(|&p| p > 0.0)
        .unwrap_or(probs.len() - 1);
    let mut counts = BTreeMap::new();
    for _ in 0..shots {
        let u: f64 = rng.gen::<f64>() * acc.min(1.0);
        // First index with cdf[i] > u — the same strict `u < acc` rule as
        // `sample_index`. Zero-probability states duplicate their
        // predecessor's CDF entry, so a draw landing exactly on that value
        // (the RNG emits exact dyadics) must resolve *past* the ties to
        // the next state that actually carries probability; the old
        // `binary_search_by` tie-break could land on any duplicate and
        // tally an outcome whose Born probability is exactly zero.
        let idx = cdf.partition_point(|&c| c <= u).min(last_positive);
        *counts.entry(idx).or_insert(0) += 1;
    }
    counts
}

/// Shot-based estimate of the probability of outcome `index`.
pub fn estimate_probability<R: Rng + ?Sized>(
    state: &State,
    index: usize,
    shots: usize,
    rng: &mut R,
) -> f64 {
    if shots == 0 {
        return f64::NAN;
    }
    let counts = sample_counts(state, shots, rng);
    *counts.get(&index).unwrap_or(&0) as f64 / shots as f64
}

/// Shot-based estimate of a **diagonal** observable's expectation value
/// (all four cost operators in [`Observable`] are diagonal except general
/// Pauli sums with X/Y factors; those return `None`).
pub fn estimate_expectation<R: Rng + ?Sized>(
    state: &State,
    obs: &Observable,
    shots: usize,
    rng: &mut R,
) -> Option<f64> {
    if shots == 0 {
        return None;
    }
    let diag = diagonal_values(obs, state.n_qubits())?;
    let counts = sample_counts(state, shots, rng);
    let mut acc = 0.0;
    for (idx, n) in counts {
        acc += diag[idx] * n as f64;
    }
    Some(acc / shots as f64)
}

/// Diagonal entries of the observable in the computational basis, or `None`
/// when it is not diagonal.
fn diagonal_values(obs: &Observable, n_qubits: usize) -> Option<Vec<f64>> {
    let dim = 1usize << n_qubits;
    match obs {
        Observable::ZeroProjector { .. } => {
            let mut d = vec![0.0; dim];
            d[0] = 1.0;
            Some(d)
        }
        Observable::GlobalCost { .. } => {
            let mut d = vec![1.0; dim];
            d[0] = 0.0;
            Some(d)
        }
        Observable::LocalCost { n_qubits } => {
            let n = *n_qubits as f64;
            Some(
                (0..dim)
                    .map(|b| {
                        let zeros = *n_qubits - b.count_ones() as usize;
                        1.0 - zeros as f64 / n
                    })
                    .collect(),
            )
        }
        Observable::PauliSum { terms, .. } => {
            // Diagonal iff every factor is I or Z.
            let mut d = vec![0.0; dim];
            for (c, p) in terms {
                let mut z_mask = 0usize;
                for q in 0..p.n_qubits() {
                    match p.pauli(q) {
                        crate::observable::Pauli::I => {}
                        crate::observable::Pauli::Z => z_mask |= 1 << q,
                        _ => return None,
                    }
                }
                for (b, slot) in d.iter_mut().enumerate() {
                    let sign = if (b & z_mask).count_ones().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    *slot += c * sign;
                }
            }
            Some(d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{FixedGate, RotationGate};
    use crate::observable::PauliString;
    use plateau_rng::rngs::StdRng;
    use plateau_rng::SeedableRng;

    fn bell() -> State {
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::Cx, &[0, 1]).unwrap();
        s
    }

    #[test]
    fn sampling_basis_state_is_deterministic() {
        let s = State::basis(3, 5);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(sample_index(&s, &mut rng), 5);
        }
    }

    #[test]
    fn bell_state_counts_are_balanced() {
        let s = bell();
        let mut rng = StdRng::seed_from_u64(1);
        let counts = sample_counts(&s, 20_000, &mut rng);
        assert!(counts.keys().all(|k| *k == 0 || *k == 3));
        let p0 = counts[&0] as f64 / 20_000.0;
        assert!((p0 - 0.5).abs() < 0.02);
    }

    /// An [`plateau_rng::RngCore`] whose `gen::<f64>()` is exactly the
    /// given draw, by inverting the standard sampler's
    /// `(next_u64 ≫ 11)·2⁻⁵³` map. The draw must be a dyadic rational on
    /// that 2⁻⁵³ grid (every `f64` in `[0.5, 1)` is).
    struct ExactDraw(f64);
    impl plateau_rng::RngCore for ExactDraw {
        fn next_u64(&mut self) -> u64 {
            ((self.0 * (1u64 << 53) as f64) as u64) << 11
        }
    }

    #[test]
    fn tie_draw_never_tallies_a_zero_probability_outcome() {
        // GHZ state: probability p = |1/√2|² at |000⟩ and |111⟩ and zero
        // elsewhere, so the running CDF is [p, p, p, p, p, p, p, 2p] —
        // six duplicated entries. (Note p is not exactly ½: squaring the
        // rounded 1/√2 gives ½ + 2⁻⁵³.) Force the RNG onto u = p so
        // every shot lands exactly on the tie.
        let mut ghz = State::zero(3);
        ghz.apply_fixed(FixedGate::H, &[0]).unwrap();
        ghz.apply_fixed(FixedGate::Cx, &[0, 1]).unwrap();
        ghz.apply_fixed(FixedGate::Cx, &[0, 2]).unwrap();
        let p = ghz.probabilities()[0];
        let mut rng = ExactDraw(p);
        assert_eq!(rng.gen::<f64>(), p, "draw must hit the tie exactly");

        // The tie must resolve past every zero-probability state to
        // |111⟩, the first index whose CDF strictly exceeds u — the same
        // rule as `sample_index`. The old `binary_search_by` tie-break
        // probed mid-run and tallied the impossible |101⟩.
        let counts = sample_counts(&ghz, 1_000, &mut rng);
        assert_eq!(counts.keys().collect::<Vec<_>>(), vec![&7]);
        assert_eq!(counts[&7], 1_000);
        assert_eq!(sample_index(&ghz, &mut rng), 7);

        // Bell state under the same forced tie draw: only the physical
        // outcomes |00⟩/|11⟩ may ever appear.
        let s = bell();
        let mut rng = ExactDraw(s.probabilities()[0]);
        let counts = sample_counts(&s, 200, &mut rng);
        assert!(counts.keys().all(|k| *k == 0 || *k == 3), "{counts:?}");
    }

    #[test]
    fn counts_total_shots_and_only_physical_outcomes_appear() {
        use plateau_linalg::C64;
        use plateau_rng::check::{cases, forall_shrink};

        // Random sparse states: many exactly-zero amplitudes force the
        // duplicated-CDF-entry tie-break path on ordinary (not forced)
        // draws. Shrinking zeroes more amplitudes and cuts shots, so a
        // failure minimizes toward the sparsest state that still trips it.
        forall_shrink(
            0x73616d70,
            cases(48),
            |rng| {
                let n = rng.gen_range(1..5usize);
                let mut amps: Vec<C64> = (0..1usize << n)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.4 {
                            C64::new(0.0, 0.0)
                        } else {
                            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
                        }
                    })
                    .collect();
                if amps.iter().all(|a| a.norm_sqr() == 0.0) {
                    amps[0] = C64::new(1.0, 0.0);
                }
                (amps, rng.gen_range(1..400usize))
            },
            |(amps, shots)| {
                let mut out = Vec::new();
                if *shots > 1 {
                    out.push((amps.clone(), shots / 2));
                }
                for i in 0..amps.len() {
                    if amps[i].norm_sqr() > 0.0
                        && amps.iter().filter(|a| a.norm_sqr() > 0.0).count() > 1
                    {
                        let mut sparser = amps.clone();
                        sparser[i] = C64::new(0.0, 0.0);
                        out.push((sparser, *shots));
                    }
                }
                out
            },
            |(amps, shots)| {
                let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
                let state = State::from_amplitudes(amps.iter().map(|&a| a / norm).collect())
                    .map_err(|e| format!("state construction: {e}"))?;
                let probs = state.probabilities();
                let counts = sample_counts(&state, *shots, &mut StdRng::seed_from_u64(42));
                plateau_rng::prop_assert!(
                    counts.values().sum::<usize>() == *shots,
                    "tallies must account for every shot"
                );
                for index in counts.keys() {
                    plateau_rng::prop_assert!(
                        probs[*index] > 0.0,
                        "outcome {index} has zero Born probability"
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn estimate_probability_converges() {
        let mut s = State::zero(1);
        s.apply_rotation(RotationGate::Ry, 0, 1.0).unwrap();
        let exact = s.probabilities()[0];
        let mut rng = StdRng::seed_from_u64(2);
        let est = estimate_probability(&s, 0, 50_000, &mut rng);
        assert!((est - exact).abs() < 0.01);
        assert!(estimate_probability(&s, 0, 0, &mut rng).is_nan());
    }

    #[test]
    fn estimate_expectation_global_cost() {
        let s = bell();
        let exact = Observable::global_cost(2).expectation(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let est =
            estimate_expectation(&s, &Observable::global_cost(2), 50_000, &mut rng).unwrap();
        assert!((est - exact).abs() < 0.01);
    }

    #[test]
    fn estimate_expectation_local_cost_and_projector() {
        let s = bell();
        let mut rng = StdRng::seed_from_u64(4);
        for obs in [Observable::local_cost(2), Observable::zero_projector(2)] {
            let exact = obs.expectation(&s).unwrap();
            let est = estimate_expectation(&s, &obs, 50_000, &mut rng).unwrap();
            assert!((est - exact).abs() < 0.02, "{obs}");
        }
    }

    #[test]
    fn estimate_expectation_diagonal_pauli_sum() {
        let obs = Observable::pauli_sum(vec![
            (0.7, PauliString::parse("ZI").unwrap()),
            (-0.2, PauliString::parse("ZZ").unwrap()),
        ])
        .unwrap();
        let s = bell();
        let exact = obs.expectation(&s).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let est = estimate_expectation(&s, &obs, 60_000, &mut rng).unwrap();
        assert!((est - exact).abs() < 0.02);
    }

    #[test]
    fn non_diagonal_observable_is_rejected() {
        let obs = Observable::pauli(PauliString::parse("XI").unwrap()).unwrap();
        let s = bell();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(estimate_expectation(&s, &obs, 100, &mut rng).is_none());
        assert!(estimate_expectation(&s, &Observable::global_cost(2), 0, &mut rng).is_none());
    }

    #[test]
    fn shot_noise_shrinks_with_budget() {
        let mut s = State::zero(1);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        let err_of = |shots: usize, seed: u64| {
            // Average absolute error over several independent estimates.
            let mut total = 0.0;
            for k in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed + k);
                let est = estimate_probability(&s, 0, shots, &mut rng);
                total += (est - 0.5).abs();
            }
            total / 20.0
        };
        assert!(err_of(10_000, 100) < err_of(100, 200));
    }
}
