//! Statevector representation and gate-application kernels.
//!
//! A [`State`] over `n` qubits holds `2^n` complex amplitudes. Qubit
//! ordering is **little-endian**: qubit `k` corresponds to bit `k` of the
//! amplitude index, so `|q_{n-1} … q_1 q_0⟩` has index
//! `Σ q_k 2^k` and qubit 0 toggles between adjacent amplitudes.
//!
//! Kernels are written index-arithmetic style (no matrix allocation, no
//! bounds checks beyond the slice's own) and cover the cases the paper's
//! ansätze need on the hot path: general single-qubit 2×2 application, the
//! diagonal CZ fast path, and controlled single-qubit application.
//!
//! # Examples
//!
//! ```
//! use plateau_sim::{FixedGate, State};
//!
//! // Build a Bell pair and check its probabilities.
//! let mut psi = State::zero(2);
//! psi.apply_fixed(FixedGate::H, &[0]).expect("valid qubit");
//! psi.apply_fixed(FixedGate::Cx, &[0, 1]).expect("valid qubits");
//! let p = psi.probabilities();
//! assert!((p[0] - 0.5).abs() < 1e-12);
//! assert!((p[3] - 0.5).abs() < 1e-12);
//! assert!(p[1].abs() < 1e-12 && p[2].abs() < 1e-12);
//! ```

use crate::error::SimError;
use crate::gate::{FixedGate, RotationGate};
use plateau_linalg::{CMatrix, C64};

/// Hard cap on qubit count: a 26-qubit statevector is 1 GiB of amplitudes,
/// which is already beyond anything this reproduction needs (the paper tops
/// out at 10 qubits).
pub const MAX_QUBITS: usize = 26;

/// A pure quantum state of `n` qubits as a dense statevector.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    n_qubits: usize,
    amps: Vec<C64>,
}

impl State {
    /// Creates the computational-basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > MAX_QUBITS`.
    pub fn zero(n_qubits: usize) -> State {
        assert!(
            (1..=MAX_QUBITS).contains(&n_qubits),
            "qubit count must be in 1..={MAX_QUBITS}"
        );
        plateau_obs::counter!("sim.state.allocations").inc();
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        plateau_obs::gauge!("sim.state.bytes")
            .set((amps.len() * std::mem::size_of::<C64>()) as f64);
        amps[0] = C64::ONE;
        State { n_qubits, amps }
    }

    /// Creates the basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid qubit count or an out-of-range index.
    pub fn basis(n_qubits: usize, index: usize) -> State {
        let mut s = State::zero(n_qubits);
        assert!(index < s.dim(), "basis index out of range");
        s.amps[0] = C64::ZERO;
        s.amps[index] = C64::ONE;
        s
    }

    /// Builds a state from raw amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] unless the length is a power
    /// of two ≥ 2, and [`SimError::NotNormalized`] unless `Σ|a|² ≈ 1`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Result<State, SimError> {
        let dim = amps.len();
        if dim < 2 || !dim.is_power_of_two() || dim > (1 << MAX_QUBITS) {
            return Err(SimError::DimensionMismatch {
                expected: 0,
                found: dim,
            });
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if (norm - 1.0).abs() > 1e-9 {
            return Err(SimError::NotNormalized { norm });
        }
        plateau_obs::counter!("sim.state.allocations").inc();
        plateau_obs::gauge!("sim.state.bytes").set((dim * std::mem::size_of::<C64>()) as f64);
        Ok(State {
            n_qubits: dim.trailing_zeros() as usize,
            amps,
        })
    }

    /// Builds a possibly **unnormalized** vector in state form.
    ///
    /// Gate kernels are linear, so they apply equally to tangent vectors
    /// like `H|ψ⟩` or `(dU/dθ)|ψ⟩`; the adjoint differentiation engine
    /// relies on this. Probabilities and expectations of such vectors are
    /// not physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] unless the length is a power
    /// of two ≥ 2 within [`MAX_QUBITS`].
    pub fn from_amplitudes_unnormalized(amps: Vec<C64>) -> Result<State, SimError> {
        let dim = amps.len();
        if dim < 2 || !dim.is_power_of_two() || dim > (1 << MAX_QUBITS) {
            return Err(SimError::DimensionMismatch {
                expected: 0,
                found: dim,
            });
        }
        plateau_obs::counter!("sim.state.allocations").inc();
        plateau_obs::gauge!("sim.state.bytes").set((dim * std::mem::size_of::<C64>()) as f64);
        Ok(State {
            n_qubits: dim.trailing_zeros() as usize,
            amps,
        })
    }

    /// Resets this state to `|0…0⟩` **in place**, reusing the existing
    /// amplitude buffer.
    ///
    /// This is the scratch-pool primitive behind batched evaluation
    /// (`plateau_grad::BatchExecutor`): a worker allocates one state and
    /// resets it between ensemble members instead of allocating
    /// `2^n × 16` bytes per evaluation. Bumps `sim.state.reuses` (not
    /// `sim.state.allocations` — nothing is allocated).
    pub fn reset_zero(&mut self) {
        plateau_obs::counter!("sim.state.reuses").inc();
        self.amps.fill(C64::ZERO);
        self.amps[0] = C64::ONE;
    }

    /// Overwrites this state with `other`'s amplitudes **in place**,
    /// reusing the existing buffer — a clone without the allocation.
    ///
    /// The adjoint sweep refills one tangent buffer from `φ` per
    /// parameter with this instead of cloning `φ` each time. Like
    /// `clone`, it bumps no `sim.state.*` counter.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different qubit counts.
    pub fn copy_from(&mut self, other: &State) {
        assert_eq!(self.n_qubits, other.n_qubits, "state widths differ");
        self.amps.copy_from_slice(&other.amps);
    }

    /// Mutable access to the raw amplitude buffer, for in-place kernels
    /// living in sibling modules (the fusion compiler's product-state
    /// prologue writes amplitudes directly).
    #[inline]
    pub(crate) fn amps_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Read-only view of the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Consumes the state, returning the amplitude buffer.
    #[inline]
    pub fn into_amplitudes(self) -> Vec<C64> {
        self.amps
    }

    /// L2 norm of the statevector (should be 1 for physical states).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Rescales to unit norm. A no-op on the zero vector.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            let inv = 1.0 / n;
            for a in &mut self.amps {
                *a *= inv;
            }
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] when qubit counts differ.
    pub fn inner(&self, other: &State) -> Result<C64, SimError> {
        if self.n_qubits != other.n_qubits {
            return Err(SimError::DimensionMismatch {
                expected: self.dim(),
                found: other.dim(),
            });
        }
        Ok(self
            .amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum())
    }

    /// Fidelity `|⟨self|other⟩|²`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] when qubit counts differ.
    pub fn fidelity(&self, other: &State) -> Result<f64, SimError> {
        Ok(self.inner(other)?.norm_sqr())
    }

    /// Probability of each computational-basis outcome.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability of the all-zeros outcome `|0…0⟩` — the quantity behind
    /// the paper's global cost `C = 1 − p(|0…0⟩)`.
    #[inline]
    pub fn probability_all_zeros(&self) -> f64 {
        self.amps[0].norm_sqr()
    }

    /// Marginal probability that `qubit` reads 0.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn probability_qubit_zero(&self, qubit: usize) -> Result<f64, SimError> {
        self.check_qubit(qubit)?;
        let mask = 1usize << qubit;
        Ok(self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask == 0)
            .map(|(_, a)| a.norm_sqr())
            .sum())
    }

    #[inline]
    fn check_qubit(&self, qubit: usize) -> Result<(), SimError> {
        if qubit >= self.n_qubits {
            Err(SimError::QubitOutOfRange {
                qubit,
                n_qubits: self.n_qubits,
            })
        } else {
            Ok(())
        }
    }

    #[inline]
    fn check_distinct(&self, a: usize, b: usize) -> Result<(), SimError> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        if a == b {
            Err(SimError::DuplicateQubits { qubit: a })
        } else {
            Ok(())
        }
    }

    /// Applies an arbitrary single-qubit gate given its row-major entries
    /// `[m00, m01, m10, m11]`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_single(&mut self, qubit: usize, m: &[C64; 4]) -> Result<(), SimError> {
        self.check_qubit(qubit)?;
        let stride = 1usize << qubit;
        if crate::parallel::enabled(self.n_qubits) {
            crate::parallel::apply_single(&mut self.amps, stride, m);
            return Ok(());
        }
        let block = stride << 1;
        let dim = self.amps.len();
        let mut base = 0;
        while base < dim {
            for offset in base..base + stride {
                let i0 = offset;
                let i1 = offset + stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = m[0] * a0 + m[1] * a1;
                self.amps[i1] = m[2] * a0 + m[3] * a1;
            }
            base += block;
        }
        Ok(())
    }

    /// [`State::apply_single`] variant used by the fusion layer
    /// ([`crate::fuse`]): same arithmetic per amplitude (so results are
    /// bit-identical to the plain and parallel kernels), but the serial
    /// loop is written with stride-1 access ordering and manual 2-way
    /// unrolling so the compiler can keep two amplitude pairs in flight.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_fused_single(&mut self, qubit: usize, m: &[C64; 4]) -> Result<(), SimError> {
        self.check_qubit(qubit)?;
        let stride = 1usize << qubit;
        if crate::parallel::enabled(self.n_qubits) {
            crate::parallel::apply_single(&mut self.amps, stride, m);
            return Ok(());
        }
        let dim = self.amps.len();
        if stride == 1 {
            // Amplitude pairs are adjacent: walk the state front to back,
            // two pairs (four contiguous amplitudes) per iteration.
            let mut i = 0;
            while i + 4 <= dim {
                let a0 = self.amps[i];
                let a1 = self.amps[i + 1];
                let b0 = self.amps[i + 2];
                let b1 = self.amps[i + 3];
                self.amps[i] = m[0] * a0 + m[1] * a1;
                self.amps[i + 1] = m[2] * a0 + m[3] * a1;
                self.amps[i + 2] = m[0] * b0 + m[1] * b1;
                self.amps[i + 3] = m[2] * b0 + m[3] * b1;
                i += 4;
            }
            while i < dim {
                let a0 = self.amps[i];
                let a1 = self.amps[i + 1];
                self.amps[i] = m[0] * a0 + m[1] * a1;
                self.amps[i + 1] = m[2] * a0 + m[3] * a1;
                i += 2;
            }
            return Ok(());
        }
        // stride ≥ 2 (always even): both halves of each block are walked
        // stride-1, two offsets per iteration.
        let block = stride << 1;
        let mut base = 0;
        while base < dim {
            let mut off = base;
            while off < base + stride {
                let i1 = off + stride;
                let a0 = self.amps[off];
                let a1 = self.amps[i1];
                let b0 = self.amps[off + 1];
                let b1 = self.amps[i1 + 1];
                self.amps[off] = m[0] * a0 + m[1] * a1;
                self.amps[i1] = m[2] * a0 + m[3] * a1;
                self.amps[off + 1] = m[0] * b0 + m[1] * b1;
                self.amps[i1 + 1] = m[2] * b0 + m[3] * b1;
                off += 2;
            }
            base += block;
        }
        Ok(())
    }

    /// Applies a merged 4×4 in the `|hi, lo⟩` basis (`hi > lo`) — the
    /// fusion layer's pair sweep. Same quad arithmetic as [`Self::apply_two`]
    /// with the identity operand permutation, but with the 4×4 product
    /// fully unrolled on fixed matrix indices so one pass over the state
    /// replaces two single-qubit sweeps at equal multiply count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] / [`SimError::DuplicateQubits`]
    /// for invalid operands.
    pub fn apply_fused_pair(
        &mut self,
        hi: usize,
        lo: usize,
        m: &[C64; 16],
    ) -> Result<(), SimError> {
        self.check_distinct(hi, lo)?;
        debug_assert!(hi > lo, "pair segments store hi > lo");
        let s_lo = 1usize << lo.min(hi);
        let s_hi = 1usize << hi.max(lo);
        if crate::parallel::enabled(self.n_qubits) {
            crate::parallel::apply_two(&mut self.amps, s_lo, s_hi, &[0, 1, 2, 3], m);
            return Ok(());
        }
        let amps = &mut self.amps;
        let dim = amps.len();
        // The mul_add chains below match quad_update's accumulation
        // exactly, keeping serial and forced-parallel fused runs
        // bit-identical.
        macro_rules! quad {
            ($i:expr, $j:expr, $k:expr, $l:expr) => {{
                let (i, j, k, l) = ($i, $j, $k, $l);
                let a = [amps[i], amps[j], amps[k], amps[l]];
                amps[i] = m[3].mul_add(a[3], m[2].mul_add(a[2], m[1].mul_add(a[1], m[0].mul_add(a[0], C64::ZERO))));
                amps[j] = m[7].mul_add(a[3], m[6].mul_add(a[2], m[5].mul_add(a[1], m[4].mul_add(a[0], C64::ZERO))));
                amps[k] = m[11].mul_add(a[3], m[10].mul_add(a[2], m[9].mul_add(a[1], m[8].mul_add(a[0], C64::ZERO))));
                amps[l] = m[15].mul_add(a[3], m[14].mul_add(a[2], m[13].mul_add(a[1], m[12].mul_add(a[0], C64::ZERO))));
            }};
        }
        if lo == 0 && hi == 1 {
            // Contiguous quads: one flat front-to-back walk, two quads
            // (eight amplitudes) per iteration so eight independent
            // accumulation chains are in flight.
            let mut i = 0;
            while i + 8 <= dim {
                quad!(i, i + 1, i + 2, i + 3);
                quad!(i + 4, i + 5, i + 6, i + 7);
                i += 8;
            }
            while i + 4 <= dim {
                quad!(i, i + 1, i + 2, i + 3);
                i += 4;
            }
        } else if hi == lo + 1 {
            // Adjacent wires: each 4·s block holds s quads at stride s,
            // walked two offsets per iteration.
            let s = s_lo;
            let mut base = 0;
            while base < dim {
                let mut i = base;
                while i + 2 <= base + s {
                    quad!(i, i + s, i + 2 * s, i + 3 * s);
                    quad!(i + 1, i + 1 + s, i + 1 + 2 * s, i + 1 + 3 * s);
                    i += 2;
                }
                while i < base + s {
                    quad!(i, i + s, i + 2 * s, i + 3 * s);
                    i += 1;
                }
                base += s << 2;
            }
        } else {
            let mut base_hi = 0;
            while base_hi < dim {
                let mut base_lo = base_hi;
                while base_lo < base_hi + s_hi {
                    let mut i = base_lo;
                    while i + 2 <= base_lo + s_lo {
                        quad!(i, i + s_lo, i + s_hi, i + s_hi + s_lo);
                        quad!(i + 1, i + 1 + s_lo, i + 1 + s_hi, i + 1 + s_hi + s_lo);
                        i += 2;
                    }
                    while i < base_lo + s_lo {
                        quad!(i, i + s_lo, i + s_hi, i + s_hi + s_lo);
                        i += 1;
                    }
                    base_lo += s_lo << 1;
                }
                base_hi += s_hi << 1;
            }
        }
        Ok(())
    }

    /// Multiplies the state element-wise by a precomputed full-register
    /// diagonal — the fusion layer's superkernel sweep (one contiguous
    /// stride-1 pass, 2-way unrolled).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `diag` does not match
    /// the state dimension.
    pub fn apply_diagonal(&mut self, diag: &[C64]) -> Result<(), SimError> {
        self.scale_by(diag, |d| d)
    }

    /// Multiplies the state element-wise by the complex conjugate of a
    /// full-register diagonal — the inverse of [`State::apply_diagonal`]
    /// for a unitary diagonal, applied in place without materializing
    /// the conjugated `2^n` vector.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `diag` does not match
    /// the state dimension.
    pub fn apply_diagonal_conj(&mut self, diag: &[C64]) -> Result<(), SimError> {
        self.scale_by(diag, C64::conj)
    }

    /// `amps[i] *= entry(diag[i])` over the whole state, 2-way unrolled.
    fn scale_by(&mut self, diag: &[C64], entry: impl Fn(C64) -> C64) -> Result<(), SimError> {
        let dim = self.amps.len();
        if diag.len() != dim {
            return Err(SimError::DimensionMismatch {
                expected: dim,
                found: diag.len(),
            });
        }
        let mut i = 0;
        while i + 2 <= dim {
            self.amps[i] *= entry(diag[i]);
            self.amps[i + 1] *= entry(diag[i + 1]);
            i += 2;
        }
        while i < dim {
            self.amps[i] *= entry(diag[i]);
            i += 1;
        }
        Ok(())
    }

    /// Applies a single-qubit gate controlled on another qubit being `|1⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] / [`SimError::DuplicateQubits`]
    /// for invalid operands.
    pub fn apply_controlled_single(
        &mut self,
        control: usize,
        target: usize,
        m: &[C64; 4],
    ) -> Result<(), SimError> {
        self.check_distinct(control, target)?;
        let cmask = 1usize << control;
        let stride = 1usize << target;
        if crate::parallel::enabled(self.n_qubits) {
            crate::parallel::apply_controlled_single(&mut self.amps, cmask, stride, m);
            return Ok(());
        }
        let block = stride << 1;
        let dim = self.amps.len();
        let mut base = 0;
        while base < dim {
            for offset in base..base + stride {
                let i0 = offset;
                if i0 & cmask == 0 {
                    continue;
                }
                let i1 = offset + stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = m[0] * a0 + m[1] * a1;
                self.amps[i1] = m[2] * a0 + m[3] * a1;
            }
            base += block;
        }
        Ok(())
    }

    /// Projects onto the subspace where `qubit` reads `value` by zeroing
    /// every other amplitude, **without renormalizing**. The result is
    /// generally not a physical state; this is a building block for
    /// derivative operators like `|1⟩⟨1| ⊗ dU/dθ` in adjoint
    /// differentiation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn project_qubit(&mut self, qubit: usize, value: bool) -> Result<(), SimError> {
        self.check_qubit(qubit)?;
        let mask = 1usize << qubit;
        let want = if value { mask } else { 0 };
        if crate::parallel::enabled(self.n_qubits) {
            crate::parallel::project(&mut self.amps, mask, want);
            return Ok(());
        }
        for (i, amp) in self.amps.iter_mut().enumerate() {
            if i & mask != want {
                *amp = C64::ZERO;
            }
        }
        Ok(())
    }

    /// Applies an arbitrary two-qubit gate given its 16 row-major entries
    /// in the composite basis `|first, second⟩` (first operand = high bit).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] / [`SimError::DuplicateQubits`]
    /// for invalid operands.
    pub fn apply_two(
        &mut self,
        first: usize,
        second: usize,
        m: &[C64; 16],
    ) -> Result<(), SimError> {
        self.check_distinct(first, second)?;
        let s_lo = 1usize << first.min(second);
        let s_hi = 1usize << first.max(second);
        let perm = crate::parallel::quad_perm(first > second);
        if crate::parallel::enabled(self.n_qubits) {
            crate::parallel::apply_two(&mut self.amps, s_lo, s_hi, &perm, m);
        } else {
            // Iterate only the quarter of indices with both operand bits
            // clear — each is the |00⟩ member of one amplitude quad.
            crate::parallel::apply_two_window(&mut self.amps, s_lo, s_hi, &perm, m);
        }
        Ok(())
    }

    /// Applies a two-qubit Pauli-product rotation at the given angle.
    ///
    /// # Errors
    ///
    /// Returns operand-validity errors from the kernel.
    pub fn apply_two_qubit_rotation(
        &mut self,
        gate: crate::gate::TwoQubitRotationGate,
        first: usize,
        second: usize,
        theta: f64,
    ) -> Result<(), SimError> {
        self.apply_two(first, second, &gate.entries(theta))
    }

    /// Applies a CZ gate: flips the sign of amplitudes where both qubits
    /// are `|1⟩`. This is the entangler in the paper's hardware-efficient
    /// ansatz, so it gets a dedicated diagonal kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] / [`SimError::DuplicateQubits`]
    /// for invalid operands.
    pub fn apply_cz(&mut self, a: usize, b: usize) -> Result<(), SimError> {
        self.check_distinct(a, b)?;
        let s_lo = 1usize << a.min(b);
        let s_hi = 1usize << a.max(b);
        if crate::parallel::enabled(self.n_qubits) {
            crate::parallel::apply_cz(&mut self.amps, s_lo, s_hi);
        } else {
            // Touch only the quarter of amplitudes with both bits set.
            crate::parallel::cz_window(&mut self.amps, s_lo, s_hi);
        }
        Ok(())
    }

    /// Applies a SWAP gate by exchanging amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] / [`SimError::DuplicateQubits`]
    /// for invalid operands.
    pub fn apply_swap(&mut self, a: usize, b: usize) -> Result<(), SimError> {
        self.check_distinct(a, b)?;
        let ma = 1usize << a;
        let mb = 1usize << b;
        for i in 0..self.amps.len() {
            // Visit each (01, 10) pair once: i has a=1, b=0.
            if i & ma != 0 && i & mb == 0 {
                let j = (i & !ma) | mb;
                self.amps.swap(i, j);
            }
        }
        Ok(())
    }

    /// Applies a named fixed gate to the given operand qubits.
    ///
    /// For two-qubit gates the first operand is the control (CZ and SWAP
    /// are symmetric, so the order is irrelevant there).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongArity`] if the operand count doesn't match
    /// the gate, or qubit-validity errors from the kernels.
    pub fn apply_fixed(&mut self, gate: FixedGate, qubits: &[usize]) -> Result<(), SimError> {
        if qubits.len() != gate.arity() {
            return Err(SimError::WrongArity {
                gate: gate.to_string(),
                expected: gate.arity(),
                found: qubits.len(),
            });
        }
        match gate {
            FixedGate::Cz => self.apply_cz(qubits[0], qubits[1]),
            FixedGate::Swap => self.apply_swap(qubits[0], qubits[1]),
            FixedGate::Cx | FixedGate::Cy => {
                let m = gate_2x2_of_controlled(gate);
                self.apply_controlled_single(qubits[0], qubits[1], &m)
            }
            _ => {
                let mat = gate.matrix();
                let m = [mat[(0, 0)], mat[(0, 1)], mat[(1, 0)], mat[(1, 1)]];
                self.apply_single(qubits[0], &m)
            }
        }
    }

    /// Applies a rotation gate at the given angle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_rotation(
        &mut self,
        gate: RotationGate,
        qubit: usize,
        theta: f64,
    ) -> Result<(), SimError> {
        self.apply_single(qubit, &gate.entries(theta))
    }

    /// Applies a controlled rotation gate.
    ///
    /// # Errors
    ///
    /// Returns operand-validity errors from the kernel.
    pub fn apply_controlled_rotation(
        &mut self,
        gate: RotationGate,
        control: usize,
        target: usize,
        theta: f64,
    ) -> Result<(), SimError> {
        self.apply_controlled_single(control, target, &gate.entries(theta))
    }

    /// Applies a full `2^n × 2^n` matrix to the state (test oracle path —
    /// exponentially expensive, not for production simulation).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] when the matrix doesn't match
    /// the state dimension.
    pub fn apply_matrix(&mut self, u: &CMatrix) -> Result<(), SimError> {
        if u.rows() != self.dim() || u.cols() != self.dim() {
            return Err(SimError::DimensionMismatch {
                expected: self.dim(),
                found: u.rows(),
            });
        }
        self.amps = u.matvec(&self.amps);
        Ok(())
    }

    /// Performs a projective measurement of `qubit` in the computational
    /// basis: samples an outcome from the Born rule, collapses the state
    /// onto it (renormalized), and returns the observed bit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn measure_qubit<R: plateau_rng::Rng + ?Sized>(
        &mut self,
        qubit: usize,
        rng: &mut R,
    ) -> Result<bool, SimError> {
        let p_zero = self.probability_qubit_zero(qubit)?;
        let outcome = rng.gen::<f64>() >= p_zero;
        self.project_qubit(qubit, outcome)?;
        self.normalize();
        Ok(outcome)
    }

    /// Expectation value `⟨ψ|Z_qubit|ψ⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn expectation_z(&self, qubit: usize) -> Result<f64, SimError> {
        self.check_qubit(qubit)?;
        let mask = 1usize << qubit;
        Ok(self
            .amps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let sign = if i & mask == 0 { 1.0 } else { -1.0 };
                sign * a.norm_sqr()
            })
            .sum())
    }
}

/// 2×2 block applied to the target when the control is `|1⟩`.
fn gate_2x2_of_controlled(gate: FixedGate) -> [C64; 4] {
    match gate {
        FixedGate::Cx => {
            let m = FixedGate::X.matrix();
            [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]]
        }
        FixedGate::Cy => {
            let m = FixedGate::Y.matrix();
            [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]]
        }
        _ => unreachable!("only CX/CY route through the controlled kernel"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plateau_linalg::c64;
    use std::f64::consts::{FRAC_PI_2, PI};

    const TOL: f64 = 1e-12;

    #[test]
    fn zero_state_is_normalized_basis_zero() {
        let s = State::zero(3);
        assert_eq!(s.n_qubits(), 3);
        assert_eq!(s.dim(), 8);
        assert!((s.norm() - 1.0).abs() < TOL);
        assert!((s.probability_all_zeros() - 1.0).abs() < TOL);
    }

    #[test]
    fn basis_state_sets_single_amplitude() {
        let s = State::basis(3, 5);
        assert!(s.amplitudes()[5].approx_eq(C64::ONE, TOL));
        assert!((s.probabilities()[5] - 1.0).abs() < TOL);
    }

    #[test]
    fn from_amplitudes_validates() {
        // Not a power of two.
        assert!(State::from_amplitudes(vec![C64::ONE; 3]).is_err());
        // Not normalized.
        assert!(State::from_amplitudes(vec![C64::ONE, C64::ONE]).is_err());
        // Valid.
        let s = State::from_amplitudes(vec![
            c64(FRAC_PI_2.cos(), 0.0).scale(0.0) + c64(1.0 / 2f64.sqrt(), 0.0),
            c64(1.0 / 2f64.sqrt(), 0.0),
        ])
        .unwrap();
        assert_eq!(s.n_qubits(), 1);
    }

    #[test]
    fn x_flips_qubit() {
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::X, &[1]).unwrap();
        // Little-endian: qubit 1 set → index 2.
        assert!(s.amplitudes()[2].approx_eq(C64::ONE, TOL));
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut s = State::zero(1);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        for p in s.probabilities() {
            assert!((p - 0.5).abs() < TOL);
        }
    }

    #[test]
    fn rx_pi_maps_zero_to_one_up_to_phase() {
        let mut s = State::zero(1);
        s.apply_rotation(RotationGate::Rx, 0, PI).unwrap();
        assert!((s.probabilities()[1] - 1.0).abs() < TOL);
    }

    #[test]
    fn ry_half_angle_formula() {
        // RY(θ)|0> = cos(θ/2)|0> + sin(θ/2)|1>
        let theta = 0.7;
        let mut s = State::zero(1);
        s.apply_rotation(RotationGate::Ry, 0, theta).unwrap();
        assert!(s.amplitudes()[0].approx_eq(c64((theta / 2.0).cos(), 0.0), TOL));
        assert!(s.amplitudes()[1].approx_eq(c64((theta / 2.0).sin(), 0.0), TOL));
    }

    #[test]
    fn rz_is_diagonal_phase() {
        let mut s = State::zero(1);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_rotation(RotationGate::Rz, 0, FRAC_PI_2).unwrap();
        // Probabilities unchanged by a diagonal gate.
        for p in s.probabilities() {
            assert!((p - 0.5).abs() < TOL);
        }
    }

    #[test]
    fn cz_phases_only_the_11_component() {
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::H, &[1]).unwrap();
        s.apply_cz(0, 1).unwrap();
        let a = s.amplitudes();
        assert!(a[0].approx_eq(c64(0.5, 0.0), TOL));
        assert!(a[1].approx_eq(c64(0.5, 0.0), TOL));
        assert!(a[2].approx_eq(c64(0.5, 0.0), TOL));
        assert!(a[3].approx_eq(c64(-0.5, 0.0), TOL));
    }

    #[test]
    fn cz_is_symmetric() {
        let mut s1 = State::zero(3);
        let mut s2 = State::zero(3);
        for q in 0..3 {
            s1.apply_fixed(FixedGate::H, &[q]).unwrap();
            s2.apply_fixed(FixedGate::H, &[q]).unwrap();
        }
        s1.apply_cz(0, 2).unwrap();
        s2.apply_cz(2, 0).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn bell_state_via_cx() {
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::Cx, &[0, 1]).unwrap();
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < TOL);
        assert!((p[3] - 0.5).abs() < TOL);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut s = State::basis(2, 1); // |01⟩: qubit 0 = 1
        s.apply_swap(0, 1).unwrap();
        assert!(s.amplitudes()[2].approx_eq(C64::ONE, TOL)); // |10⟩
    }

    #[test]
    fn controlled_rotation_acts_only_when_control_set() {
        let mut s = State::zero(2);
        s.apply_controlled_rotation(RotationGate::Rx, 0, 1, PI).unwrap();
        // Control qubit 0 is |0⟩ → nothing happens.
        assert!((s.probability_all_zeros() - 1.0).abs() < TOL);

        let mut s = State::basis(2, 1); // control = 1
        s.apply_controlled_rotation(RotationGate::Rx, 0, 1, PI).unwrap();
        assert!((s.probabilities()[3] - 1.0).abs() < TOL);
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut s = State::zero(4);
        for q in 0..4 {
            s.apply_fixed(FixedGate::H, &[q]).unwrap();
            s.apply_rotation(RotationGate::Rx, q, 0.3 * (q + 1) as f64).unwrap();
        }
        s.apply_cz(0, 1).unwrap();
        s.apply_cz(2, 3).unwrap();
        assert!((s.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn expectation_z_on_basis_states() {
        let s = State::zero(2);
        assert!((s.expectation_z(0).unwrap() - 1.0).abs() < TOL);
        let s = State::basis(2, 3);
        assert!((s.expectation_z(0).unwrap() + 1.0).abs() < TOL);
        assert!((s.expectation_z(1).unwrap() + 1.0).abs() < TOL);
    }

    #[test]
    fn expectation_z_after_ry() {
        // <Z> = cos θ after RY(θ)|0>.
        let theta = 1.1;
        let mut s = State::zero(1);
        s.apply_rotation(RotationGate::Ry, 0, theta).unwrap();
        assert!((s.expectation_z(0).unwrap() - theta.cos()).abs() < TOL);
    }

    #[test]
    fn probability_qubit_zero_marginal() {
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        assert!((s.probability_qubit_zero(0).unwrap() - 0.5).abs() < TOL);
        assert!((s.probability_qubit_zero(1).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn inner_product_and_fidelity() {
        let s0 = State::zero(2);
        let mut s1 = State::zero(2);
        s1.apply_fixed(FixedGate::H, &[0]).unwrap();
        let ip = s0.inner(&s1).unwrap();
        assert!((ip.norm() - 1.0 / 2f64.sqrt()).abs() < TOL);
        assert!((s0.fidelity(&s1).unwrap() - 0.5).abs() < TOL);
        assert!((s0.fidelity(&s0).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn error_paths() {
        let mut s = State::zero(2);
        assert!(matches!(
            s.apply_rotation(RotationGate::Rx, 5, 0.1),
            Err(SimError::QubitOutOfRange { qubit: 5, .. })
        ));
        assert!(matches!(
            s.apply_cz(1, 1),
            Err(SimError::DuplicateQubits { qubit: 1 })
        ));
        assert!(matches!(
            s.apply_fixed(FixedGate::Cz, &[0]),
            Err(SimError::WrongArity { .. })
        ));
        let other = State::zero(3);
        assert!(s.inner(&other).is_err());
        let u = CMatrix::identity(8);
        assert!(s.apply_matrix(&u).is_err());
    }

    #[test]
    fn apply_matrix_oracle_matches_kernel() {
        use plateau_linalg::CMatrix;
        // X on qubit 0 of 2 qubits = I ⊗ X (qubit 1 is the high bit).
        let full = CMatrix::identity(2).kron(&FixedGate::X.matrix());
        let mut via_matrix = State::zero(2);
        via_matrix.apply_matrix(&full).unwrap();
        let mut via_kernel = State::zero(2);
        via_kernel.apply_fixed(FixedGate::X, &[0]).unwrap();
        assert_eq!(via_matrix, via_kernel);
    }

    #[test]
    fn normalize_rescales() {
        let mut s = State::zero(1);
        // Denormalize through direct scaling using apply_matrix with 2·I.
        let two_i = CMatrix::identity(2).scale(c64(2.0, 0.0));
        s.apply_matrix(&two_i).unwrap();
        assert!((s.norm() - 2.0).abs() < TOL);
        s.normalize();
        assert!((s.norm() - 1.0).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "qubit count")]
    fn zero_qubits_panics() {
        let _ = State::zero(0);
    }

    #[test]
    fn rxx_entangles_zero_state() {
        use crate::gate::TwoQubitRotationGate;
        // RXX(θ)|00⟩ = cos(θ/2)|00⟩ − i sin(θ/2)|11⟩.
        let theta = 0.9;
        let mut s = State::zero(2);
        s.apply_two_qubit_rotation(TwoQubitRotationGate::Rxx, 1, 0, theta)
            .unwrap();
        assert!(s.amplitudes()[0].approx_eq(c64((theta / 2.0).cos(), 0.0), TOL));
        assert!(s.amplitudes()[3].approx_eq(c64(0.0, -(theta / 2.0).sin()), TOL));
        assert!((s.norm() - 1.0).abs() < TOL);
    }

    #[test]
    fn rzz_is_diagonal_phase_only() {
        use crate::gate::TwoQubitRotationGate;
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::H, &[1]).unwrap();
        let before = s.probabilities();
        s.apply_two_qubit_rotation(TwoQubitRotationGate::Rzz, 0, 1, 1.7)
            .unwrap();
        let after = s.probabilities();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a).abs() < TOL);
        }
    }

    #[test]
    fn apply_two_on_non_adjacent_qubits_matches_oracle() {
        use crate::gate::TwoQubitRotationGate;
        // RYY on qubits (2, 0) of a 3-qubit register, cross-checked via
        // the dense matrix path on a nontrivial state.
        let mut s = State::zero(3);
        s.apply_fixed(FixedGate::H, &[1]).unwrap();
        s.apply_rotation(RotationGate::Rx, 2, 0.4).unwrap();
        let mut via_kernel = s.clone();
        via_kernel
            .apply_two_qubit_rotation(TwoQubitRotationGate::Ryy, 2, 0, -1.1)
            .unwrap();
        // Oracle: embed manually by iterating basis states through matvec
        // of the op matrix built by the unitary module.
        let mut c = crate::circuit::Circuit::new(3).unwrap();
        c.ryy(2, 0).unwrap();
        let u = crate::unitary::circuit_unitary(&c, &[-1.1]).unwrap();
        let mut via_matrix = s;
        via_matrix.apply_matrix(&u).unwrap();
        assert!((via_kernel.fidelity(&via_matrix).unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn measurement_collapses_and_is_born_distributed() {
        use plateau_rng::rngs::StdRng;
        use plateau_rng::SeedableRng;
        // RY(θ)|0⟩: p(1) = sin²(θ/2).
        let theta = 1.2;
        let expected_p1 = (theta / 2.0f64).sin().powi(2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ones = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let mut s = State::zero(2);
            s.apply_rotation(RotationGate::Ry, 0, theta).unwrap();
            s.apply_fixed(FixedGate::Cx, &[0, 1]).unwrap();
            let outcome = s.measure_qubit(0, &mut rng).unwrap();
            // Post-measurement state is normalized and consistent: the
            // entangled partner must agree.
            assert!((s.norm() - 1.0).abs() < 1e-10);
            assert!((s.probability_qubit_zero(1).unwrap() - if outcome { 0.0 } else { 1.0 }).abs() < 1e-10);
            if outcome {
                ones += 1;
            }
        }
        let measured_p1 = ones as f64 / trials as f64;
        assert!(
            (measured_p1 - expected_p1).abs() < 0.01,
            "measured {measured_p1} vs {expected_p1}"
        );
    }

    #[test]
    fn repeated_measurement_is_stable() {
        use plateau_rng::rngs::StdRng;
        use plateau_rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = State::zero(1);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        let first = s.measure_qubit(0, &mut rng).unwrap();
        for _ in 0..5 {
            assert_eq!(s.measure_qubit(0, &mut rng).unwrap(), first);
        }
    }

    #[test]
    fn project_qubit_zeroes_the_complement() {
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::H, &[1]).unwrap();
        s.project_qubit(0, true).unwrap();
        let a = s.amplitudes();
        assert_eq!(a[0], C64::ZERO);
        assert_eq!(a[2], C64::ZERO);
        assert!(a[1].norm() > 0.0 && a[3].norm() > 0.0);
        assert!(s.project_qubit(9, true).is_err());
    }
}
