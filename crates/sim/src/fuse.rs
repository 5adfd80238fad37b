//! Fused kernels of the op list: CZ layers and the `|0…0⟩` prologue.
//!
//! * **CZ layers.** Each run of two or more consecutive CZs in a
//!   [`Circuit`](crate::Circuit) is one [`CzLayer`] sweep flipping the
//!   sign of every amplitude with an odd number of the run's pairs set.
//!   The low eight index bits take their sign from a table of 256 one-bit
//!   entries, kept up to date as the circuit is built (four word XORs per
//!   CZ) and unpacked to a byte per entry by each sweep; wires 8 and up
//!   add one sign bit per 256-amplitude block, and pairs straddling bits
//!   7/8 a per-block mask `m` whose term `parity(lo & m)` is folded into a
//!   second copy of the table when `m` changes. A sign flip is exact: a
//!   layer is bit-identical to its CZs one at a time, and its own inverse.
//! * **The prologue.** A run from `|0…0⟩` builds the state left by the
//!   leading single-qubit ops directly: each wire's ops fold into its
//!   `|0⟩` column in order, then the columns multiply out by iterative
//!   doubling. It agrees with the gate-by-gate run to rounding.
//!
//! Gates keep their `sim.gate.*` counts whichever kernel runs them;
//! `sim.gate.cz_layers` counts layer sweeps and `sim.gate.prologues`
//! prologue builds. DESIGN.md §11 has the measurements.

use crate::circuit::Op;
use crate::error::SimError;
use crate::state::{PlanesMut, State};
use plateau_linalg::C64;

/// Index bits the sign table covers.
const TABLE_BITS: usize = 8;

/// A 256-entry one-bit table over the low index bits, as four words.
type Bits = [u64; 4];

/// `WIRE[t]` has bit `lo` set where `lo` has bit `t` set.
static WIRE: [Bits; TABLE_BITS] = [
    [0xaaaa_aaaa_aaaa_aaaa; 4],
    [0xcccc_cccc_cccc_cccc; 4],
    [0xf0f0_f0f0_f0f0_f0f0; 4],
    [0xff00_ff00_ff00_ff00; 4],
    [0xffff_0000_ffff_0000; 4],
    [0xffff_ffff_0000_0000; 4],
    [0, u64::MAX, 0, u64::MAX],
    [0, 0, u64::MAX, u64::MAX],
];

/// Unpacks the first `out.len()` entries of `bits` to one byte each: a
/// byte of `bits` is copied into all eight bytes of a word, each byte
/// keeps its own bit, and that bit moves to the byte's lowest place.
fn unpack(bits: &Bits, out: &mut [u8]) {
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let byte = (bits[i >> 3] >> ((i & 7) << 3)) & 0xff;
        let kept = byte.wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
        let spread = ((kept + 0x7f7f_7f7f_7f7f_7f7f) >> 7) & 0x0101_0101_0101_0101;
        chunk.copy_from_slice(&spread.to_le_bytes()[..chunk.len()]);
    }
}

/// The sign pattern of a set of CZs on `n` qubits: amplitude `i` flips
/// sign when an odd number of the set's pairs have both bits set in `i`.
/// Repeated pairs cancel.
#[derive(Debug, Clone, PartialEq)]
pub struct CzLayer {
    n_qubits: usize,
    /// CZs in the set, counting repeats.
    gates: usize,
    /// Sign bit of each index below 256 from the pairs inside bits 0–7.
    low: Bits,
    /// For each wire `w ≥ 8`, at `w − 8`: the mask of its partners below
    /// bit 8, and the mask of its partners above it (block bits `> w − 8`).
    high: Vec<(u8, u32)>,
}

impl CzLayer {
    /// The sign pattern of `pairs` on an `n_qubits` register (an empty
    /// set is the identity).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] or
    /// [`SimError::DuplicateQubits`] for an invalid pair.
    pub fn new(n_qubits: usize, pairs: &[(usize, usize)]) -> Result<CzLayer, SimError> {
        let mut layer = CzLayer::empty(n_qubits);
        for &(a, b) in pairs {
            for q in [a, b] {
                if q >= n_qubits {
                    return Err(SimError::QubitOutOfRange { qubit: q, n_qubits });
                }
            }
            if a == b {
                return Err(SimError::DuplicateQubits { qubit: a });
            }
            layer.push(a, b);
        }
        Ok(layer)
    }

    /// The empty set on `n_qubits`.
    pub(crate) fn empty(n_qubits: usize) -> CzLayer {
        let high = vec![(0, 0); n_qubits.saturating_sub(TABLE_BITS)];
        CzLayer { n_qubits, gates: 0, low: [0; 4], high }
    }

    /// Adds the CZ on the distinct in-range wires `a`, `b`.
    pub(crate) fn push(&mut self, a: usize, b: usize) {
        let (a, b) = (a.min(b), a.max(b));
        self.gates += 1;
        if b < TABLE_BITS {
            for w in 0..4 {
                self.low[w] ^= WIRE[a][w] & WIRE[b][w];
            }
        } else if a < TABLE_BITS {
            self.high[b - TABLE_BITS].0 ^= 1 << a;
        } else {
            self.high[a - TABLE_BITS].1 ^= 1 << (b - TABLE_BITS);
        }
    }

    /// CZs in the set, counting repeats.
    pub fn gates(&self) -> usize {
        self.gates
    }

    /// The straddle mask `m` and sign bit `p` of the 256-amplitude block
    /// `block` (its index bits 8 and up).
    #[inline]
    fn block_signs(&self, block: usize) -> (u8, u32) {
        let (mut m, mut p) = (0u8, 0u32);
        let mut bits = block;
        while bits != 0 {
            let w = bits.trailing_zeros() as usize;
            let (straddle, upper) = self.high[w];
            m ^= straddle;
            p ^= (block as u32 & upper).count_ones() & 1;
            bits &= bits - 1;
        }
        (m, p)
    }

    /// Flips the signs over `window`, whose first amplitude has absolute
    /// index `base`; both are multiples of the table length.
    pub(crate) fn sweep(&self, base: usize, window: PlanesMut<'_>) {
        let len = 1 << self.n_qubits.min(TABLE_BITS);
        let mut table = [0; 1 << TABLE_BITS];
        unpack(&self.low, &mut table[..len]);
        if self.high.is_empty() {
            return flip_signs(&table[..len], 0, window.re, window.im);
        }
        // The table with the current block's straddle term folded in.
        let (mut folded, mut folded_mask) = ([0; 1 << TABLE_BITS], 0u8);
        let blocks = window.re.chunks_exact_mut(len).zip(window.im.chunks_exact_mut(len));
        for (k, (re, im)) in blocks.enumerate() {
            let (m, p) = self.block_signs((base >> TABLE_BITS) + k);
            if m != 0 && m != folded_mask {
                let mut bits = self.low;
                for t in (0..TABLE_BITS).filter(|t| m >> t & 1 == 1) {
                    for w in 0..4 {
                        bits[w] ^= WIRE[t][w];
                    }
                }
                unpack(&bits, &mut folded);
                folded_mask = m;
            }
            let table = if m == 0 { &table } else { &folded };
            flip_signs(table, u64::from(p) << 63, re, im);
        }
    }
}

/// `x ← −x` wherever `table` holds 1 (XOR `flip` onto every sign): the
/// sign bit is XORed in place, which is exactly negation.
#[inline(always)]
fn flip_signs(table: &[u8], flip: u64, re: &mut [f64], im: &mut [f64]) {
    let n = table.len();
    let (re, im) = (&mut re[..n], &mut im[..n]);
    for j in 0..n {
        let s = (u64::from(table[j]) << 63) ^ flip;
        re[j] = f64::from_bits(re[j].to_bits() ^ s);
        im[j] = f64::from_bits(im[j].to_bits() ^ s);
    }
}

impl State {
    /// Applies a [`CzLayer`] as one sweep: bit-identical to applying its
    /// CZs one at a time with [`State::apply_cz`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the layer was built for
    /// another register width.
    pub fn apply_cz_layer(&mut self, layer: &CzLayer) -> Result<(), SimError> {
        if layer.n_qubits != self.n_qubits() {
            return Err(SimError::DimensionMismatch {
                expected: 1 << layer.n_qubits,
                found: self.dim(),
            });
        }
        if self.chunked {
            let block = 1 << layer.n_qubits.min(TABLE_BITS);
            crate::parallel::apply_cz_layer(self.planes_mut(), layer, block);
        } else {
            layer.sweep(0, self.planes_mut());
        }
        Ok(())
    }
}

/// The wire of a single-qubit op, or `None` for an op on two qubits.
pub(crate) fn single_wire(op: &Op) -> Option<usize> {
    match op {
        Op::Fixed { gate, qubits } if gate.arity() == 1 => Some(qubits[0]),
        Op::Rotation { qubit, .. } => Some(*qubit),
        _ => None,
    }
}

/// Writes the product state of `ops` — single-qubit ops only — into
/// `amps`, which must hold `|0…0⟩` on entry: each wire's ops fold into its
/// `|0⟩` column in application order, and the columns multiply out by
/// iterative doubling.
pub(crate) fn product_prologue(n_qubits: usize, ops: &[Op], params: &[f64], amps: PlanesMut<'_>) {
    plateau_obs::counter!("sim.gate.prologues").inc();
    let mut len = 1usize;
    for wire in 0..n_qubits {
        // The wire's ops, found by a scan of the prologue rather than a
        // per-wire lookup table, so a run allocates nothing here.
        let mut column: Option<(C64, C64)> = None;
        for op in ops.iter().filter(|op| single_wire(op) == Some(wire)) {
            op.count_application();
            let e = match op {
                Op::Fixed { gate, .. } => gate.entries(),
                Op::Rotation { gate, param, .. } => gate.entries(param.angle(params)),
                _ => unreachable!("the prologue holds single-qubit ops only"),
            };
            let (v0, v1) = column.unwrap_or((C64::ONE, C64::ZERO));
            column = Some((e[0] * v0 + e[1] * v1, e[2] * v0 + e[3] * v1));
        }
        if let Some((v0, v1)) = column {
            // Amplitudes [len, 2·len) are still zero: the lower half
            // scaled by v1 fills them, then v0 rescales the lower half.
            let (re, im) = (&mut amps.re[..len << 1], &mut amps.im[..len << 1]);
            let (lo_re, hi_re) = re.split_at_mut(len);
            let (lo_im, hi_im) = im.split_at_mut(len);
            for i in 0..len {
                let a = C64::new(lo_re[i], lo_im[i]);
                let (b0, b1) = (a * v0, a * v1);
                lo_re[i] = b0.re;
                lo_im[i] = b0.im;
                hi_re[i] = b1.re;
                hi_im[i] = b1.im;
            }
        }
        // Wires the prologue leaves alone stay in |0⟩: the upper half is
        // already zero and the lower half is unscaled.
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::{FixedGate, RotationGate, TwoQubitRotationGate};
    use crate::passes::simplify;
    use crate::unitary::circuit_unitary;
    use plateau_rng::check::{forall, DEFAULT_CASES};
    use plateau_rng::{prop_assert, Rng};

    fn assert_states_close(a: &State, b: &State, tol: f64) {
        for (x, y) in a.to_amplitudes().iter().zip(&b.to_amplitudes()) {
            assert!(x.approx_eq(*y, tol), "{x} vs {y}");
        }
    }

    /// The gate-by-gate run from `|0…0⟩`: no prologue.
    fn gate_by_gate(c: &Circuit, params: &[f64]) -> State {
        let mut s = State::zero(c.n_qubits());
        for op in c.ops() {
            op.apply(&mut s, params).unwrap();
        }
        s
    }

    /// The prologue folds each wire's leading ops in application order,
    /// and `run_into` resumes a full run bit for bit at every cut
    /// past the prologue.
    #[test]
    fn prologue_folds_leading_single_qubit_ops_in_order() {
        let mut c = Circuit::new(3).unwrap();
        c.rx(0)
            .unwrap()
            .h(2)
            .unwrap()
            .ry(0)
            .unwrap()
            .rz(1)
            .unwrap()
            .x(2)
            .unwrap();
        c.cx(0, 1).unwrap().ry(1).unwrap();
        assert_eq!(c.prologue_len(), 5);
        let params = [0.7, -1.2, 0.4, 2.1];
        let full = c.run(&params).unwrap();
        assert_states_close(&gate_by_gate(&c, &params), &full, 1e-12);
        for end in [5, 6, 7] {
            let mut s = State::zero(3);
            c.run_into(&mut s, &params, 0..end).unwrap();
            c.run_into(&mut s, &params, end..c.gate_count()).unwrap();
            assert_eq!(s.to_amplitudes(), full.to_amplitudes(), "cut {end}");
        }
    }

    /// Property: `Circuit::run` (the prologue, then CZ layers and the
    /// other ops) matches the gate-by-gate run from `|0…0⟩` on random
    /// circuits.
    #[test]
    fn fused_run_from_zero_matches_the_raw_run() {
        forall(
            0x9201,
            DEFAULT_CASES,
            |rng| {
                let n = rng.gen_range(1..6usize);
                let n_ops = rng.gen_range(1..30usize);
                let mut c = Circuit::new(n).unwrap();
                for _ in 0..n_ops {
                    let q = rng.gen_range(0..n);
                    match rng.gen_range(0..7u32) {
                        0 => c.h(q).unwrap(),
                        1 => c.rx(q).unwrap(),
                        2 => c.ry(q).unwrap(),
                        3 => c.rz(q).unwrap(),
                        4 => c.x(q).unwrap(),
                        5 if n >= 2 => {
                            let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                            c.cz(q, p).unwrap()
                        }
                        6 if n >= 2 => {
                            let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                            c.cx(q, p).unwrap()
                        }
                        _ => c.ry(q).unwrap(),
                    };
                }
                let params: Vec<f64> = (0..c.n_params())
                    .map(|_| rng.gen_range(-3.0..3.0))
                    .collect();
                (c, params)
            },
            |(c, params)| {
                let raw = gate_by_gate(c, params);
                let fused = c.run(params).unwrap();
                for (a, b) in raw.to_amplitudes().iter().zip(&fused.to_amplitudes()) {
                    prop_assert!(a.approx_eq(*b, 1e-12), "{} vs {}", a, b);
                }
                Ok(())
            },
        );
    }

    /// Property: running any random circuit on every basis state through
    /// its fused CZ layers preserves the full unitary to 1e-12 (against
    /// the independent `circuit_unitary` oracle).
    #[test]
    fn fusion_preserves_the_circuit_unitary() {
        forall(
            0xf05e,
            DEFAULT_CASES,
            |rng| {
                let n = rng.gen_range(1..5usize);
                let n_ops = rng.gen_range(1..25usize);
                let mut c = Circuit::new(n).unwrap();
                for _ in 0..n_ops {
                    let q = rng.gen_range(0..n);
                    let p = (q + 1 + rng.gen_range(0..n.max(2) - 1)) % n;
                    match rng.gen_range(0..10u32) {
                        0 => c.h(q).unwrap(),
                        1 => c.x(q).unwrap(),
                        2 => c.z(q).unwrap(),
                        3 => c.rx(q).unwrap(),
                        4 => c.ry(q).unwrap(),
                        5 => c.rz(q).unwrap(),
                        6 => c
                            .push_rotation_const(RotationGate::Rz, q, rng.gen_range(-3.0..3.0))
                            .unwrap(),
                        7 | 8 if n >= 2 => c.cz(q, p).unwrap(),
                        9 if n >= 2 => c
                            .push_two_qubit_rotation(TwoQubitRotationGate::Rzz, q, p)
                            .unwrap(),
                        _ => c.ry(q).unwrap(),
                    };
                }
                let params: Vec<f64> = (0..c.n_params())
                    .map(|_| rng.gen_range(-3.0..3.0))
                    .collect();
                (c, params)
            },
            |(c, params)| {
                let expected = circuit_unitary(c, params).unwrap();
                let dim = 1usize << c.n_qubits();
                let got = plateau_linalg::CMatrix::from_fn(dim, dim, |r, col| {
                    let mut s = State::basis(c.n_qubits(), col);
                    c.run_on(&mut s, params).unwrap();
                    s.amplitude(r)
                });
                prop_assert!(
                    expected.max_abs_diff(&got) < 1e-12,
                    "unitary drift {}",
                    expected.max_abs_diff(&got)
                );
                Ok(())
            },
        );
    }

    #[test]
    fn run_on_validates_params_and_width() {
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap().cz(0, 1).unwrap().cz(0, 1).unwrap();
        assert!(matches!(
            c.run(&[]),
            Err(SimError::WrongParamCount {
                expected: 1,
                found: 0
            })
        ));
        let mut wrong = State::zero(3);
        assert!(matches!(
            c.run_into(&mut wrong, &[0.2], 0..3),
            Err(SimError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            wrong.apply_cz_layer(&CzLayer::new(2, &[(0, 1)]).unwrap()),
            Err(SimError::DimensionMismatch { .. })
        ));
        assert!(CzLayer::new(2, &[(0, 2)]).is_err());
        assert!(CzLayer::new(2, &[(1, 1)]).is_err());
    }

    /// A lone CZ between other ops is no run: every sweep is one op, in
    /// order, and the CZ goes through its own kernel.
    #[test]
    fn short_diagonal_runs_stay_raw() {
        let mut c = Circuit::new(4).unwrap();
        c.cz(0, 1).unwrap().h(1).unwrap().cz(2, 3).unwrap().rz(3).unwrap().cz(1, 2).unwrap();
        let sweeps: Vec<_> = c.sweeps(0..c.gate_count()).collect();
        assert_eq!(sweeps.len(), c.gate_count());
        for (k, (at, sweep)) in sweeps.iter().enumerate() {
            assert_eq!(*at, k);
            assert!(matches!(sweep, crate::Sweep::Op(op) if *op == &c.ops()[k]));
        }
        // Two adjacent CZs are a run: one sweep for both.
        c.cz(0, 3).unwrap();
        let last = c.sweeps(0..c.gate_count()).next_back().unwrap();
        assert!(matches!(last, (4, crate::Sweep::CzLayer(layer)) if layer.gates() == 2));
    }

    /// `simplify` then run is the documented pass order; both the
    /// simplified and unsimplified circuits agree with the gate-by-gate
    /// run.
    #[test]
    fn simplify_then_fuse_composes_deterministically() {
        let mut c = Circuit::new(3).unwrap();
        c.x(0).unwrap().x(0).unwrap(); // cancels under simplify
        c.rx(0).unwrap().ry(0).unwrap();
        c.h(1).unwrap();
        c.cz(0, 1).unwrap();
        c.cz(1, 2).unwrap();
        c.push_fixed(FixedGate::T, &[2]).unwrap();
        c.rz(2).unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.4 + 0.2 * i as f64).collect();
        let simplified = simplify(&c);
        assert_eq!(simplified, simplify(&c));
        assert!(simplified.gate_count() < c.gate_count());
        let raw = gate_by_gate(&c, &params);
        for fused in [simplified.run(&params).unwrap(), c.run(&params).unwrap()] {
            assert_states_close(&raw, &fused, 1e-12);
        }
    }
}
