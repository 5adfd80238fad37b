//! The plane kernels against dense reference loops written on interleaved
//! complex amplitudes: the single-qubit kernel (`State::apply_single`) in
//! every class on every target qubit, and the controlled, two-qubit and CZ
//! kernels. Each is compared with `==` and, unchunked against
//! forced-chunked, in the bits. The CZ-layer kernel is compared in the
//! bits with one `apply_cz` per pair, and the product-state prologue with
//! the gate-by-gate run. A [`CountingAllocator`]
//! is installed in this test binary for the allocation checks: fixed-gate
//! application and the state's in-place resets allocate nothing, and a
//! fresh state allocates exactly its two planes.

use plateau_linalg::{c64, C64};
use plateau_obs::alloc::{set_profiling, thread_allocated, CountingAllocator};
use plateau_rng::check::{cases, forall};
use plateau_rng::{prop_assert, Rng, StdRng};
use plateau_sim::{Circuit, CzLayer, FixedGate, RotationGate, State, Sweep, TwoQubitRotationGate};
use std::f64::consts::{FRAC_PI_2, PI};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const ROTATIONS: [RotationGate; 4] = [
    RotationGate::Rx,
    RotationGate::Ry,
    RotationGate::Rz,
    RotationGate::Phase,
];

const SINGLE_FIXED: [FixedGate; 9] = [
    FixedGate::X,
    FixedGate::Y,
    FixedGate::Z,
    FixedGate::H,
    FixedGate::S,
    FixedGate::Sdg,
    FixedGate::T,
    FixedGate::Tdg,
    FixedGate::Sx,
];

/// The dense formula every loop must reproduce, one pair at a time.
fn dense_reference(amps: &[C64], qubit: usize, m: &[C64; 4]) -> Vec<C64> {
    let stride = 1 << qubit;
    let mut out = amps.to_vec();
    for i in (0..amps.len()).filter(|i| i & stride == 0) {
        let (a0, a1) = (amps[i], amps[i + stride]);
        out[i] = m[0] * a0 + m[1] * a1;
        out[i + stride] = m[2] * a0 + m[3] * a1;
    }
    out
}

/// A 2×2 from one of the kernel's classes: gate entries at random or
/// special angles, fixed-gate entries, or random diagonal, real,
/// imaginary-off-diagonal and dense matrices.
fn random_matrix(rng: &mut StdRng) -> [C64; 4] {
    let special = [0.0, FRAC_PI_2, -FRAC_PI_2, PI];
    let theta = if rng.gen::<f64>() < 0.3 {
        special[rng.gen_range(0..special.len())]
    } else {
        rng.gen_range(-PI..PI)
    };
    let gate = ROTATIONS[rng.gen_range(0..ROTATIONS.len())];
    let fixed = SINGLE_FIXED[rng.gen_range(0..SINGLE_FIXED.len())];
    let class = rng.gen_range(0..8usize);
    let mut x = || rng.gen_range(-1.0..1.0);
    match class {
        0 => gate.entries(theta),
        1 => gate.derivative_entries(theta),
        2 => fixed.entries(),
        3 => fixed.inverse_entries(),
        4 => [c64(x(), x()), C64::ZERO, C64::ZERO, c64(x(), x())],
        5 => [c64(x(), 0.0), c64(x(), 0.0), c64(x(), 0.0), c64(x(), 0.0)],
        6 => [c64(x(), 0.0), c64(0.0, x()), c64(0.0, x()), c64(x(), 0.0)],
        _ => [c64(x(), x()), c64(x(), x()), c64(x(), x()), c64(x(), x())],
    }
}

/// Random unnormalized amplitudes, some of them exactly zero.
fn random_amps(rng: &mut StdRng, n: usize) -> Vec<C64> {
    (0..1usize << n)
        .map(|_| {
            if rng.gen::<f64>() < 0.1 {
                C64::ZERO
            } else {
                c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            }
        })
        .collect()
}

fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
    amps.iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// A state of `amps` with the kernel path forced.
fn state_of(amps: &[C64], chunked: bool) -> State {
    let mut s = State::from_amplitudes_unnormalized(amps.to_vec()).unwrap();
    s.set_chunked(chunked);
    s
}

#[test]
fn every_loop_matches_the_dense_formula_and_the_parallel_kernel() {
    forall(
        0x6b65726e,
        cases(200),
        |rng| {
            let n = rng.gen_range(1..8usize);
            (random_amps(rng, n), random_matrix(rng))
        },
        |(amps, m)| {
            let n = amps.len().trailing_zeros() as usize;
            for qubit in 0..n {
                let expected = dense_reference(amps, qubit, m);
                let mut serial = state_of(amps, false);
                serial.apply_single(qubit, m).unwrap();
                let mut parallel = state_of(amps, true);
                parallel.apply_single(qubit, m).unwrap();
                for (i, (got, want)) in serial.to_amplitudes().iter().zip(&expected).enumerate() {
                    prop_assert!(
                        got.re == want.re && got.im == want.im,
                        "qubit {qubit}, amplitude {i}: kernel {got:?}, dense formula {want:?}"
                    );
                }
                prop_assert!(
                    bits(&serial.to_amplitudes()) == bits(&parallel.to_amplitudes()),
                    "qubit {qubit}: parallel kernel differs from serial in the bits"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn fixed_gate_ops_allocate_nothing() {
    plateau_obs::set_metrics_enabled(false);
    assert!(
        set_profiling(true),
        "counting allocator is installed in this binary; profiling must engage"
    );
    let mut circuit = Circuit::new(3).unwrap();
    for g in SINGLE_FIXED {
        circuit.push_fixed(g, &[1]).unwrap();
    }
    for g in [FixedGate::Cz, FixedGate::Cx, FixedGate::Cy, FixedGate::Swap] {
        circuit.push_fixed(g, &[2, 0]).unwrap();
    }
    // The chunked path collects its task list; this check is about the
    // gate, so the state runs the serial kernels.
    let mut state = State::zero(3);
    let run = |state: &mut State| {
        for op in circuit.ops() {
            op.apply(state, &[]).unwrap();
            op.apply_inverse(state, &[]).unwrap();
        }
    };
    run(&mut state);
    let (bytes0, count0) = thread_allocated();
    run(&mut state);
    let (bytes1, count1) = thread_allocated();
    assert_eq!(
        (count1 - count0, bytes1 - bytes0),
        (0, 0),
        "fixed-gate apply/apply_inverse allocated"
    );
}

/// One random matrix of each single-qubit kernel class, in the order
/// diagonal, real, real-diagonal/imaginary-off-diagonal, dense.
fn one_of_each_class(rng: &mut StdRng) -> [[C64; 4]; 4] {
    let mut x = || rng.gen_range(-1.0..1.0);
    [
        [c64(x(), x()), C64::ZERO, C64::ZERO, c64(x(), x())],
        [c64(x(), 0.0), c64(x(), 0.0), c64(x(), 0.0), c64(x(), 0.0)],
        [c64(x(), 0.0), c64(0.0, x()), c64(0.0, x()), c64(x(), 0.0)],
        [c64(x(), x()), c64(x(), x()), c64(x(), x()), c64(x(), x())],
    ]
}

/// Applies `kernel` to a state of `amps` unchunked and forced-chunked;
/// checks both against `expected` with `==` and against each other in the
/// bits.
fn check_kernel(
    what: &str,
    amps: &[C64],
    expected: &[C64],
    kernel: impl Fn(&mut State),
) -> Result<(), String> {
    let mut serial = state_of(amps, false);
    kernel(&mut serial);
    let mut parallel = state_of(amps, true);
    kernel(&mut parallel);
    let got = serial.to_amplitudes();
    for (i, (g, w)) in got.iter().zip(expected).enumerate() {
        prop_assert!(
            g.re == w.re && g.im == w.im,
            "{what}, amplitude {i}: kernel {g:?}, dense reference {w:?}"
        );
    }
    prop_assert!(
        bits(&got) == bits(&parallel.to_amplitudes()),
        "{what}: parallel kernel differs from serial in the bits"
    );
    Ok(())
}

#[test]
fn every_class_on_every_qubit_matches_the_dense_formula() {
    forall(
        0x636c6173,
        cases(40),
        |rng| {
            let n = rng.gen_range(1..8usize);
            (random_amps(rng, n), one_of_each_class(rng))
        },
        |(amps, classes)| {
            let n = amps.len().trailing_zeros() as usize;
            for (class, m) in classes.iter().enumerate() {
                for qubit in 0..n {
                    let expected = dense_reference(amps, qubit, m);
                    check_kernel(
                        &format!("class {class}, qubit {qubit}"),
                        amps,
                        &expected,
                        |s| s.apply_single(qubit, m).unwrap(),
                    )?;
                }
            }
            Ok(())
        },
    );
}

/// Two distinct qubits of an `n`-qubit register.
fn qubit_pair(rng: &mut StdRng, n: usize) -> (usize, usize) {
    let a = rng.gen_range(0..n);
    (a, (a + rng.gen_range(1..n)) % n)
}

#[test]
fn controlled_two_qubit_and_cz_kernels_match_dense_references() {
    forall(
        0x71756164,
        cases(120),
        |rng| {
            let n = rng.gen_range(2..8usize);
            let gate = [
                TwoQubitRotationGate::Rxx,
                TwoQubitRotationGate::Ryy,
                TwoQubitRotationGate::Rzz,
            ][rng.gen_range(0..3usize)];
            let two = gate.entries(rng.gen_range(-PI..PI));
            (
                random_amps(rng, n),
                random_matrix(rng),
                two,
                qubit_pair(rng, n),
            )
        },
        |(amps, m, two, (a, b))| {
            let (a, b) = (*a, *b);
            // Controlled: control a, target b.
            let (cmask, stride) = (1 << a, 1 << b);
            let mut expected = amps.clone();
            for i in (0..amps.len()).filter(|i| i & cmask != 0 && i & stride == 0) {
                let (a0, a1) = (amps[i], amps[i + stride]);
                expected[i] = m[0] * a0 + m[1] * a1;
                expected[i + stride] = m[2] * a0 + m[3] * a1;
            }
            check_kernel(&format!("controlled {a}→{b}"), amps, &expected, |s| {
                s.apply_controlled_single(a, b, m).unwrap()
            })?;

            // Two-qubit: the 4×4 in the |first = a, second = b⟩ basis,
            // each output accumulated over the quad in (high bit, low
            // bit) order with fused-form multiply-adds.
            let (fa, fb) = (1usize << a, 1usize << b);
            let (s_lo, s_hi) = (fa.min(fb), fa.max(fb));
            let index = |pos: usize| {
                let (bit_hi, bit_lo) = (pos >> 1, pos & 1);
                let (bit_a, bit_b) = if fa == s_hi {
                    (bit_hi, bit_lo)
                } else {
                    (bit_lo, bit_hi)
                };
                2 * bit_a + bit_b
            };
            let mut expected = amps.clone();
            for i in (0..amps.len()).filter(|i| i & (s_lo | s_hi) == 0) {
                let members = [i, i + s_lo, i + s_hi, i + s_hi + s_lo];
                for (pos, &out) in members.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (src, &inp) in members.iter().enumerate() {
                        acc = two[index(pos) * 4 + index(src)].mul_add(amps[inp], acc);
                    }
                    expected[out] = acc;
                }
            }
            check_kernel(&format!("two-qubit ({a}, {b})"), amps, &expected, |s| {
                s.apply_two(a, b, two).unwrap()
            })?;

            // CZ: negate where both bits are set.
            let both = fa | fb;
            let expected: Vec<C64> = amps
                .iter()
                .enumerate()
                .map(|(i, &x)| if i & both == both { -x } else { x })
                .collect();
            check_kernel(&format!("cz ({a}, {b})"), amps, &expected, |s| {
                s.apply_cz(a, b).unwrap()
            })
        },
    );
}

/// The CZ sets each width's layers are drawn from: a chain, non-adjacent
/// pairs, repeated pairs, pairs straddling index bits 7/8 and a random
/// set (none at one qubit).
fn cz_sets(rng: &mut StdRng, n: usize) -> Vec<Vec<(usize, usize)>> {
    if n < 2 {
        return vec![Vec::new()];
    }
    let chain: Vec<_> = (0..n - 1).map(|q| (q, q + 1)).collect();
    let far: Vec<_> = (0..n / 2).map(|q| (q, n - 1 - q)).filter(|(a, b)| a != b).collect();
    let mut repeated = chain.clone();
    repeated.extend([(0, 1), (1, 0), (n - 1, 0)]);
    repeated.extend(chain.iter().rev());
    let mut sets = vec![chain, far, repeated];
    if n > 8 {
        let mut straddle = vec![(7, 8), (3, 8), (7, n - 1), (0, 7), (6, 8)];
        straddle.extend((n > 9).then_some((8, n - 1)));
        sets.push(straddle);
    }
    sets.push((0..rng.gen_range(1..3 * n)).map(|_| qubit_pair(rng, n)).collect());
    sets
}

#[test]
fn cz_layers_and_the_prologue_match_gate_by_gate() {
    forall(
        0x637a6c79,
        cases(3),
        |rng| {
            let widths: Vec<_> = (1..=14usize)
                .map(|n| (random_amps(rng, n), cz_sets(rng, n), rng.gen_range(-PI..PI)))
                .collect();
            widths
        },
        |widths| {
            for (amps, sets, angle) in widths {
                let n = amps.len().trailing_zeros() as usize;
                for pairs in sets {
                    // The reference: one apply_cz per pair.
                    let mut expected = state_of(amps, false);
                    for &(a, b) in pairs {
                        expected.apply_cz(a, b).unwrap();
                    }
                    let layer = CzLayer::new(n, pairs).unwrap();
                    for chunked in [false, true] {
                        let mut got = state_of(amps, chunked);
                        got.apply_cz_layer(&layer).unwrap();
                        prop_assert!(
                            bits(&got.to_amplitudes()) == bits(&expected.to_amplitudes()),
                            "{n} qubits, chunked {chunked}, pairs {pairs:?}: CZ layer differs \
                             from one apply_cz per pair"
                        );
                    }
                }
                if n < 2 {
                    continue;
                }
                // A CZ run cut by a rotation: two layers, and the ops one
                // at a time in the bits.
                let mut c = Circuit::new(n).unwrap();
                for q in 0..n - 1 {
                    c.cz(q, q + 1).unwrap();
                }
                c.push_rotation_const(RotationGate::Rz, n / 2, *angle).unwrap();
                c.cz(0, n - 1).unwrap().cz(0, 1).unwrap();
                let layers = c.sweeps(0..c.gate_count());
                let layers = layers.filter(|(_, s)| matches!(s, Sweep::CzLayer(_))).count();
                prop_assert!(layers == 1 + usize::from(n > 2), "{n} qubits: {layers} CZ layers");
                let mut want = State::from_amplitudes_unnormalized(amps.clone()).unwrap();
                for op in c.ops() {
                    op.apply(&mut want, &[]).unwrap();
                }
                for chunked in [false, true] {
                    let mut got = state_of(amps, chunked);
                    c.run_on(&mut got, &[]).unwrap();
                    prop_assert!(
                        bits(&got.to_amplitudes()) == bits(&want.to_amplitudes()),
                        "{n} qubits, chunked {chunked}: the cut CZ run differs"
                    );
                }

                // The prologue (the paper's layer plus fixed gates) against
                // |0…0⟩ run gate by gate.
                let mut c = Circuit::new(n).unwrap();
                for q in 0..n {
                    c.rx(q).unwrap().ry(q).unwrap();
                }
                c.h(0).unwrap().push_fixed(FixedGate::S, &[n - 1]).unwrap();
                for q in 0..n - 1 {
                    c.cz(q, q + 1).unwrap();
                }
                c.ry(n / 2).unwrap();
                let params: Vec<f64> = (0..c.n_params()).map(|i| angle + 0.37 * i as f64).collect();
                let mut reference = State::zero(n);
                c.run_on(&mut reference, &params).unwrap();
                let mut runs = Vec::new();
                for chunked in [false, true] {
                    let mut s = State::zero(n);
                    s.set_chunked(chunked);
                    c.run_into(&mut s, &params, 0..c.gate_count()).unwrap();
                    runs.push(s);
                }
                prop_assert!(
                    bits(&runs[0].to_amplitudes()) == bits(&runs[1].to_amplitudes()),
                    "{n} qubits: the parallel prologue run differs in the bits"
                );
                for (i, (a, b)) in runs[0].to_amplitudes().iter().zip(reference.to_amplitudes()).enumerate() {
                    prop_assert!(a.approx_eq(b, 1e-12), "{n} qubits, amplitude {i}: {a} vs {b}");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn a_state_is_one_allocation_and_resets_in_place() {
    plateau_obs::set_metrics_enabled(false);
    assert!(
        set_profiling(true),
        "counting allocator is installed in this binary; profiling must engage"
    );
    let delta = |f: &mut dyn FnMut()| {
        let (b0, c0) = thread_allocated();
        f();
        let (b1, c1) = thread_allocated();
        (b1 - b0, c1 - c0)
    };
    // Warm up: the first bump of each `sim.state.*` counter registers it.
    State::zero(1).reset_zero();
    for n in [1usize, 5, 10] {
        let mut state = None;
        assert_eq!(
            delta(&mut || state = Some(State::zero(n))),
            (16u64 << n, 1),
            "State::zero({n}) allocates exactly one buffer of both planes"
        );
        let mut state = state.unwrap();
        let mut other = State::zero(n);
        other.apply_fixed(FixedGate::H, &[0]).unwrap();
        assert_eq!(
            delta(&mut || state.copy_from(&other)),
            (0, 0),
            "copy_from allocated"
        );
        assert_eq!(state, other);
        assert_eq!(
            delta(&mut || state.reset_zero()),
            (0, 0),
            "reset_zero allocated"
        );
        assert_eq!(state, State::zero(n));
    }
}
