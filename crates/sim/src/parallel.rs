//! Chunked multi-threaded variants of the amplitude kernels.
//!
//! Above a configurable qubit threshold (`PLATEAU_SIM_PAR_THRESHOLD`,
//! default [`DEFAULT_PAR_THRESHOLD`]) the [`crate::State`] kernels split
//! the `2^n` amplitudes into disjoint chunks — each a `PlanesMut` window
//! over the same index range of both planes, cut by the same
//! `split_at_mut`/`chunks_mut` the serial sweeps use — and fan them
//! across the `plateau-par` pool; below it they fall back to the serial
//! loops, so small-circuit tests and the variance scan's per-circuit
//! outer parallelism are unaffected.
//!
//! **Determinism guarantee.** Every kernel here is an elementwise (or
//! element-pair / element-quad) map with no cross-element reduction: each
//! amplitude's new value depends only on the amplitudes of its own
//! orbit, computed with exactly the same arithmetic as the serial loop.
//! Chunking therefore cannot change results — parallel and serial
//! execution are **bitwise identical** regardless of worker count or
//! scheduling. A property test in this module checks that claim across
//! random circuits at 2–16 qubits.
//!
//! Decomposition strategy, per kernel shape:
//!
//! - **Pair kernels** (`apply_single`, `apply_controlled_single`): when
//!   the gate's 2·stride blocks outnumber the workers, whole blocks are
//!   chunked contiguously; otherwise (the qubit is near the top) each
//!   block's lower and upper halves are split at the stride and matching
//!   subchunks are zipped, so pairs never straddle a task boundary.
//! - **Quad kernels** (`apply_two`): same two cases over the larger
//!   stride, with the block interior decomposed into four quarter slices
//!   whose 4-way zip is subchunked.
//! - **Diagonal kernels** (`apply_cz`, `project_qubit`): pure elementwise
//!   maps, chunked contiguously with the chunk's absolute base index
//!   carried along for the bit tests.

use crate::state::{
    controlled_halves, controlled_window, project_window, Dense, PairKernel, PlanesMut,
};
use plateau_linalg::C64;
use plateau_par::{par_map_collect, worker_count};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default qubit threshold at which kernels go multi-threaded.
///
/// Measured with the `par_crossover` bench bin (training-ansatz forward
/// runs, serial vs forced-parallel kernels, 2 workers, 8–20 qubits) on
/// the split-plane kernels: the parallel path ran at 0.18× serial at 14
/// qubits, 0.42× at 16, 0.56× at 17 and 0.76× at 18, and first won at 19
/// (1.33×) — the same crossover as on the interleaved kernels (0.47× at
/// 17, 0.81× at 18, 1.29× at 19). The scoped-thread fork-join per gate
/// dominates below that. At 17 the paper's 10-qubit workload (and every
/// tier-1 test size) always takes the serial loops; machines with many
/// fast cores can lower it via `PLATEAU_SIM_PAR_THRESHOLD`.
pub const DEFAULT_PAR_THRESHOLD: usize = 17;

/// Cached threshold: 0 = uninitialized, otherwise `threshold + 1`.
static PAR_THRESHOLD: AtomicUsize = AtomicUsize::new(0);

/// The current parallelization threshold in qubits: kernels on states with
/// at least this many qubits use the chunked multi-threaded paths.
///
/// Read once from the `PLATEAU_SIM_PAR_THRESHOLD` environment variable
/// (default [`DEFAULT_PAR_THRESHOLD`]) and cached; use
/// [`set_par_threshold`] / [`reset_par_threshold`] to change it at runtime.
pub fn par_threshold() -> usize {
    match PAR_THRESHOLD.load(Ordering::Relaxed) {
        0 => {
            let t = std::env::var("PLATEAU_SIM_PAR_THRESHOLD")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(DEFAULT_PAR_THRESHOLD);
            PAR_THRESHOLD.store(t.saturating_add(1), Ordering::Relaxed);
            t
        }
        v => v - 1,
    }
}

/// Overrides the parallelization threshold for this process. `0` forces
/// the parallel kernels everywhere; `usize::MAX` forces serial execution.
pub fn set_par_threshold(threshold: usize) {
    PAR_THRESHOLD.store(threshold.saturating_add(1), Ordering::Relaxed);
}

/// Clears the cached threshold so the next kernel re-reads
/// `PLATEAU_SIM_PAR_THRESHOLD` from the environment.
pub fn reset_par_threshold() {
    PAR_THRESHOLD.store(0, Ordering::Relaxed);
}

/// Whether a state of `n_qubits` should take the parallel kernel paths.
#[inline]
pub(crate) fn enabled(n_qubits: usize) -> bool {
    n_qubits >= par_threshold()
}

/// Number of tasks a parallel kernel aims to split into — the pool's
/// worker count, so every worker gets one contiguous chunk.
#[inline]
fn task_target() -> usize {
    worker_count(usize::MAX)
}

/// Bumps the per-kernel counters: one parallel kernel invocation that
/// produced `chunks` tasks.
#[inline]
fn record(chunks: usize) {
    plateau_obs::counter!("sim.par.kernels").inc();
    plateau_obs::counter!("sim.par.chunks").add(chunks as u64);
}

/// Parallel single-qubit kernel (`stride = 1 << qubit`). Both task
/// shapes run `kernel`'s loops, the serial kernel's own.
pub(crate) fn apply_single(amps: PlanesMut<'_>, stride: usize, kernel: PairKernel) {
    let target = task_target();
    let block = stride << 1;
    let n_blocks = amps.len() / block;
    if n_blocks >= target {
        // Chunk whole blocks; pair indices are chunk-relative.
        let chunks = block_chunks(amps, block, target);
        record(chunks.len());
        par_map_collect(chunks, |(_, chunk)| kernel.sweep(chunk, stride));
    } else {
        // Few blocks (top qubits): split each block at the stride and zip
        // matching subchunks of the two halves.
        let tasks = half_tasks(amps, stride, target.div_ceil(n_blocks));
        record(tasks.len());
        par_map_collect(tasks, |(_, lo, hi)| kernel.sweep_halves(lo, hi));
    }
}

/// The split-block task shape of the pair kernels: each `2·stride` block
/// is split at the stride and both halves are cut into `per_block`
/// matching subchunks. A task is `(absolute index of its first lower
/// member, lower subchunk, upper subchunk)`, so pairs never straddle a
/// task boundary.
fn half_tasks(
    amps: PlanesMut<'_>,
    stride: usize,
    per_block: usize,
) -> Vec<(usize, PlanesMut<'_>, PlanesMut<'_>)> {
    let block = stride << 1;
    let sub = stride.div_ceil(per_block);
    let mut tasks = Vec::new();
    for (b, blk) in amps.chunks_mut(block).enumerate() {
        let (lo, hi) = blk.split_at_mut(stride);
        for (k, (l, h)) in lo.chunks_mut(sub).zip(hi.chunks_mut(sub)).enumerate() {
            tasks.push((b * block + k * sub, l, h));
        }
    }
    tasks
}

/// Whole-block chunks of `period`-aligned windows, each with its
/// absolute base index, aiming at `target` chunks.
fn block_chunks(amps: PlanesMut<'_>, period: usize, target: usize) -> Vec<(usize, PlanesMut<'_>)> {
    let per = (amps.len() / period).div_ceil(target) * period;
    amps.chunks_mut(per)
        .enumerate()
        .map(|(k, c)| (k * per, c))
        .collect()
}

/// Parallel controlled single-qubit kernel. Tasks carry their chunk's
/// absolute base index so the control-mask test sees global bit patterns.
pub(crate) fn apply_controlled_single(
    amps: PlanesMut<'_>,
    cmask: usize,
    stride: usize,
    kernel: Dense,
) {
    let target = task_target();
    let block = stride << 1;
    let n_blocks = amps.len() / block;
    if n_blocks >= target {
        let chunks = block_chunks(amps, block, target);
        record(chunks.len());
        par_map_collect(chunks, |(base, chunk)| {
            controlled_window(kernel, cmask, base, chunk, stride)
        });
    } else {
        let tasks = half_tasks(amps, stride, target.div_ceil(n_blocks));
        record(tasks.len());
        par_map_collect(tasks, |(base, lo, hi)| {
            controlled_halves(kernel, cmask, base, lo, hi)
        });
    }
}

/// Basis-index permutation for the two-qubit kernel: maps a quad position
/// `2·bit_hi + bit_lo` to the row/column index of the 4×4 matrix, which is
/// written in the `|first, second⟩` basis (first operand = high bit).
#[inline]
pub(crate) fn quad_perm(first_is_hi: bool) -> [usize; 4] {
    if first_is_hi {
        [0, 1, 2, 3]
    } else {
        [0, 2, 1, 3]
    }
}

/// Applies the 4×4 matrix to one amplitude quad given in `(hi, lo)`
/// position order. Shared by the serial and parallel two-qubit paths so
/// both perform bit-identical arithmetic.
#[inline]
pub(crate) fn quad_update(m: &[C64; 16], perm: &[usize; 4], a: [C64; 4]) -> [C64; 4] {
    let mut out = [C64::ZERO; 4];
    for pos in 0..4 {
        let row = perm[pos] * 4;
        let mut acc = C64::ZERO;
        for src in 0..4 {
            acc = m[row + perm[src]].mul_add(a[src], acc);
        }
        out[pos] = acc;
    }
    out
}

/// Serial two-qubit kernel over a window whose length is a multiple of
/// `2·s_hi` and whose start is `2·s_hi`-aligned: iterates only the active
/// quad bases (a quarter of the window) instead of scanning every index.
pub(crate) fn apply_two_window(
    mut window: PlanesMut<'_>,
    s_lo: usize,
    s_hi: usize,
    perm: &[usize; 4],
    m: &[C64; 16],
) {
    for base_hi in (0..window.len()).step_by(s_hi << 1) {
        for base_lo in (base_hi..base_hi + s_hi).step_by(s_lo << 1) {
            for i in base_lo..base_lo + s_lo {
                let idx = [i, i + s_lo, i + s_hi, i + s_hi + s_lo];
                let a = idx.map(|ix| window.get(ix));
                let out = quad_update(m, perm, a);
                for (p, &ix) in idx.iter().enumerate() {
                    window.set(ix, out[p]);
                }
            }
        }
    }
}

/// Parallel general two-qubit kernel (`s_lo < s_hi` are the operand
/// strides, `perm` from [`quad_perm`]).
pub(crate) fn apply_two(
    amps: PlanesMut<'_>,
    s_lo: usize,
    s_hi: usize,
    perm: &[usize; 4],
    m: &[C64; 16],
) {
    let target = task_target();
    let period = s_hi << 1;
    let n_blocks = amps.len() / period;
    if n_blocks >= target {
        let chunks = block_chunks(amps, period, target);
        record(chunks.len());
        par_map_collect(chunks, |(_, chunk)| {
            apply_two_window(chunk, s_lo, s_hi, perm, m)
        });
    } else {
        // Few hi-blocks: split each block's halves into 2·s_lo-aligned
        // groups, each group into its four contiguous quarters, and
        // subchunk the 4-way zip. Quad members sit at the same offset of
        // the four quarter slices, so tasks never split a quad.
        let n_groups = n_blocks * (s_hi / (s_lo << 1));
        let per_group = target.div_ceil(n_groups);
        let sub = s_lo.div_ceil(per_group);
        let mut tasks: Vec<[PlanesMut<'_>; 4]> = Vec::new();
        for blk in amps.chunks_mut(period) {
            let (ha, hb) = blk.split_at_mut(s_hi);
            for (ga, gb) in ha.chunks_mut(s_lo << 1).zip(hb.chunks_mut(s_lo << 1)) {
                let (a0, a1) = ga.split_at_mut(s_lo);
                let (b0, b1) = gb.split_at_mut(s_lo);
                let zip = a0
                    .chunks_mut(sub)
                    .zip(a1.chunks_mut(sub))
                    .zip(b0.chunks_mut(sub))
                    .zip(b1.chunks_mut(sub));
                for (((c0, c1), c2), c3) in zip {
                    tasks.push([c0, c1, c2, c3]);
                }
            }
        }
        record(tasks.len());
        par_map_collect(tasks, |mut quarters| {
            for k in 0..quarters[0].len() {
                let a = [0, 1, 2, 3].map(|q| quarters[q].get(k));
                let out = quad_update(m, perm, a);
                for (q, v) in quarters.iter_mut().zip(out) {
                    q.set(k, v);
                }
            }
        });
    }
}

/// Parallel CZ kernel: negates amplitudes where both qubit bits are set.
/// `s_lo < s_hi` are the two qubit strides.
pub(crate) fn apply_cz(amps: PlanesMut<'_>, s_lo: usize, s_hi: usize) {
    let target = task_target();
    let period = s_hi << 1;
    let n_blocks = amps.len() / period;
    if n_blocks >= target {
        let chunks = block_chunks(amps, period, target);
        record(chunks.len());
        par_map_collect(chunks, |(_, chunk)| cz_window(chunk, s_lo, s_hi));
    } else {
        // Few hi-blocks: parallelize inside the hi-set runs. A run starts
        // at an odd multiple of s_hi, so its low bits are zero and the
        // within-run offset alone decides the lo-bit test.
        let per_run = target.div_ceil(n_blocks);
        let sub = s_hi.div_ceil(per_run);
        let mut tasks: Vec<(usize, PlanesMut<'_>)> = Vec::new();
        for (k, run) in amps.chunks_mut(s_hi).enumerate() {
            if k & 1 == 0 {
                continue;
            }
            for (j, c) in run.chunks_mut(sub).enumerate() {
                tasks.push((j * sub, c));
            }
        }
        record(tasks.len());
        par_map_collect(tasks, |(off, chunk)| {
            for (i, (re, im)) in chunk.re.iter_mut().zip(chunk.im.iter_mut()).enumerate() {
                if (off + i) & s_lo != 0 {
                    *re = -*re;
                    *im = -*im;
                }
            }
        });
    }
}

/// Serial CZ over a `2·s_hi`-aligned window: negates only the quarter of
/// amplitudes with both bits set.
pub(crate) fn cz_window(window: PlanesMut<'_>, s_lo: usize, s_hi: usize) {
    match s_hi {
        // Runs of a few amplitudes cost more to visit than to negate:
        // walk fixed-length blocks instead.
        2 => cz_blocks::<2>(window, s_lo),
        4 => cz_blocks::<4>(window, s_lo),
        8 => cz_blocks::<8>(window, s_lo),
        16 => cz_blocks::<16>(window, s_lo),
        _ => {
            for base_hi in (s_hi..window.len()).step_by(s_hi << 1) {
                for base_lo in (base_hi + s_lo..base_hi + s_hi).step_by(s_lo << 1) {
                    let re = &mut window.re[base_lo..base_lo + s_lo];
                    let im = &mut window.im[base_lo..base_lo + s_lo];
                    for j in 0..s_lo {
                        re[j] = -re[j];
                        im[j] = -im[j];
                    }
                }
            }
        }
    }
}

/// [`cz_window`] for a high stride `HI ≤ 16`: one `2·HI`-amplitude block
/// per iteration, whose upper half has the high bit set.
fn cz_blocks<const HI: usize>(window: PlanesMut<'_>, s_lo: usize) {
    let blocks = window
        .re
        .chunks_exact_mut(2 * HI)
        .zip(window.im.chunks_exact_mut(2 * HI));
    for (re, im) in blocks {
        let (re, im) = (&mut re[HI..], &mut im[HI..]);
        for j in 0..HI {
            if j & s_lo != 0 {
                re[j] = -re[j];
                im[j] = -im[j];
            }
        }
    }
}

/// Parallel projection kernel: zeroes amplitudes where `index & mask !=
/// want`. Pure elementwise map with absolute indices.
pub(crate) fn project(amps: PlanesMut<'_>, mask: usize, want: usize) {
    let target = task_target();
    let per = amps.len().div_ceil(target);
    let chunks: Vec<(usize, PlanesMut<'_>)> = amps
        .chunks_mut(per)
        .enumerate()
        .map(|(k, c)| (k * per, c))
        .collect();
    record(chunks.len());
    par_map_collect(chunks, |(base, chunk)| {
        project_window(base, chunk, mask, want)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{FixedGate, RotationGate, TwoQubitRotationGate};
    use crate::state::State;
    use plateau_rng::{Rng, StdRng};
    use std::sync::Mutex;

    /// Guards the process-global threshold against concurrent mutation by
    /// other tests in this binary. (A racing reader would still compute
    /// identical amplitudes — the kernels are bitwise-deterministic — but
    /// the property below wants a genuine serial-vs-parallel comparison.)
    static THRESHOLD_LOCK: Mutex<()> = Mutex::new(());

    /// One random operation of a test circuit.
    #[derive(Debug, Clone)]
    enum TOp {
        Fixed(FixedGate, usize),
        Rot(RotationGate, usize, f64),
        CRot(RotationGate, usize, usize, f64),
        TwoRot(TwoQubitRotationGate, usize, usize, f64),
        Cz(usize, usize),
        Cx(usize, usize),
        Project(usize, bool),
    }

    fn apply(state: &mut State, op: &TOp) {
        match *op {
            TOp::Fixed(g, q) => state.apply_fixed(g, &[q]).unwrap(),
            TOp::Rot(g, q, t) => state.apply_rotation(g, q, t).unwrap(),
            TOp::CRot(g, c, t, th) => state.apply_controlled_rotation(g, c, t, th).unwrap(),
            TOp::TwoRot(g, a, b, t) => state.apply_two_qubit_rotation(g, a, b, t).unwrap(),
            TOp::Cz(a, b) => state.apply_cz(a, b).unwrap(),
            TOp::Cx(c, t) => state.apply_fixed(FixedGate::Cx, &[c, t]).unwrap(),
            TOp::Project(q, v) => state.project_qubit(q, v).unwrap(),
        }
    }

    fn random_op(rng: &mut StdRng, n: usize) -> TOp {
        let rot = |rng: &mut StdRng| match rng.gen_range(0..3usize) {
            0 => RotationGate::Rx,
            1 => RotationGate::Ry,
            _ => RotationGate::Rz,
        };
        let two = |rng: &mut StdRng| match rng.gen_range(0..3usize) {
            0 => TwoQubitRotationGate::Rxx,
            1 => TwoQubitRotationGate::Ryy,
            _ => TwoQubitRotationGate::Rzz,
        };
        let pair = |rng: &mut StdRng| {
            let a = rng.gen_range(0..n);
            let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
            (a, b)
        };
        let angle = |rng: &mut StdRng| rng.gen_range(-3.0..3.0);
        match rng.gen_range(0..7usize) {
            0 => TOp::Fixed(FixedGate::H, rng.gen_range(0..n)),
            1 => TOp::Rot(rot(rng), rng.gen_range(0..n), angle(rng)),
            2 => {
                let (c, t) = pair(rng);
                TOp::CRot(rot(rng), c, t, angle(rng))
            }
            3 => {
                let (a, b) = pair(rng);
                TOp::TwoRot(two(rng), a, b, angle(rng))
            }
            4 => {
                let (a, b) = pair(rng);
                TOp::Cz(a, b)
            }
            5 => {
                let (c, t) = pair(rng);
                TOp::Cx(c, t)
            }
            _ => TOp::Project(rng.gen_range(0..n), rng.gen::<f64>() < 0.5),
        }
    }

    #[test]
    fn parallel_and_serial_kernels_are_bit_identical() {
        use plateau_rng::check::{cases, forall_shrink, vec_of};
        let _guard = THRESHOLD_LOCK.lock().unwrap();
        let sizes = [2usize, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16];
        forall_shrink(
            0x70617261,
            cases(22),
            |rng| {
                let n = sizes[rng.gen_range(0..sizes.len())];
                let mut ops = vec![TOp::Fixed(FixedGate::H, 0)];
                ops.extend(vec_of(rng, 4..10, |rng| random_op(rng, n)));
                // Force coverage of the top-qubit decompositions: the
                // half-split pair path, the quarter-split quad path
                // (adjacent top qubits), and a maximally separated CZ.
                ops.push(TOp::Rot(RotationGate::Ry, n - 1, 0.4));
                if n >= 2 {
                    ops.push(TOp::TwoRot(TwoQubitRotationGate::Rxx, n - 1, n - 2, 0.7));
                    ops.push(TOp::Cz(0, n - 1));
                    ops.push(TOp::CRot(RotationGate::Rz, n - 1, 0, -0.9));
                }
                (n, ops)
            },
            // On failure, shrink by dropping one op at a time: the
            // property is per-kernel, so any sub-circuit that still
            // diverges is a strictly better reproducer.
            |(n, ops)| {
                (0..ops.len())
                    .map(|i| {
                        let mut fewer = ops.clone();
                        fewer.remove(i);
                        (*n, fewer)
                    })
                    .collect()
            },
            |(n, ops)| {
                set_par_threshold(usize::MAX);
                let mut serial = State::zero(*n);
                for op in ops {
                    apply(&mut serial, op);
                }
                set_par_threshold(0);
                let mut parallel = State::zero(*n);
                for op in ops {
                    apply(&mut parallel, op);
                }
                reset_par_threshold();
                plateau_rng::prop_assert!(
                    serial == parallel,
                    "parallel kernels diverged from serial at n={n}"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn threshold_env_round_trip() {
        let _guard = THRESHOLD_LOCK.lock().unwrap();
        set_par_threshold(3);
        assert_eq!(par_threshold(), 3);
        set_par_threshold(usize::MAX);
        assert_eq!(par_threshold(), usize::MAX - 1);
        reset_par_threshold();
        // Whatever the environment says, the cached value must be
        // re-derived rather than stale.
        let expect = std::env::var("PLATEAU_SIM_PAR_THRESHOLD")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_PAR_THRESHOLD);
        assert_eq!(par_threshold(), expect);
    }

    #[test]
    fn parallel_paths_cover_every_split_shape() {
        // Deterministic spot checks of each decomposition case against the
        // dense-matrix oracle, with the threshold forced to 0.
        let _guard = THRESHOLD_LOCK.lock().unwrap();
        set_par_threshold(0);
        let n = 5;
        let mut c = crate::circuit::Circuit::new(n).unwrap();
        c.h(0).unwrap();
        c.ry(0).unwrap(); // pair kernel, many blocks
        c.ry(n - 1).unwrap(); // pair kernel, half-split path
        c.rxx(n - 1, n - 2).unwrap(); // quad kernel, quarter-split path
        c.rxx(0, 1).unwrap(); // quad kernel, block-chunk path
        c.cz(0, n - 1).unwrap(); // cz, run-split path
        c.cz(0, 1).unwrap(); // cz, block-chunk path
        c.cx(n - 1, 0).unwrap(); // controlled kernel
        let params = vec![0.3, -0.8, 1.1, 0.6];
        let state = c.run(&params).unwrap();
        set_par_threshold(usize::MAX);
        let reference = c.run(&params).unwrap();
        reset_par_threshold();
        assert_eq!(state, reference);
        let u = crate::unitary::circuit_unitary(&c, &params).unwrap();
        let mut oracle = State::zero(n);
        oracle.apply_matrix(&u).unwrap();
        assert!((state.fidelity(&oracle).unwrap() - 1.0).abs() < 1e-10);
    }
}
