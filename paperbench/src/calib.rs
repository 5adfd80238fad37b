//! The reference run every timed operation is divided by.
//!
//! The benchmark's host is shared. Its speed for the same work changes by
//! up to 1.7× from one second to the next, and by more between runs an
//! hour apart, as other tenants come and go; no steal time shows in the
//! guest, so wall times alone cannot tell a slower program from a busier
//! host. Dividing each operation's wall time by that of a fixed reference
//! run timed just before and just after it cancels the host's speed and
//! leaves the program's.
//!
//! The reference is this file's own small statevector simulator: random
//! RX/RY/RZ layers with a CZ ladder, run forward and then back, on fresh
//! states, serially or with one worker per available core claiming
//! members from a shared counter (the way `plateau_par` does). It loads
//! the core, caches and memory the way the program's gradients do, and
//! it is frozen: no change to the program can change it. Every call runs
//! exactly the same work.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One reference run: `members` circuits of `qubits` × `layers`, serial
/// or spread over the available cores.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub qubits: usize,
    pub layers: usize,
    pub members: usize,
    pub parallel: bool,
}

#[derive(Clone, Copy)]
enum Gate {
    /// Rotation of qubit `.0` about axis `.1` (0 = X, 1 = Y, 2 = Z).
    Rot(usize, u8, f64),
    /// CZ on qubits `.0` and `.0 + 1`.
    Cz(usize),
}

/// A fixed 64-bit LCG: the reference circuits never depend on the seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }
}

fn circuit(qubits: usize, layers: usize, member: usize) -> Vec<Gate> {
    let mut rng = Lcg(0x5EED ^ member as u64);
    let mut gates = Vec::with_capacity(layers * (2 * qubits - 1));
    for _ in 0..layers {
        for q in 0..qubits {
            let axis = (rng.next() % 3) as u8;
            let angle = rng.next() as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
            gates.push(Gate::Rot(q, axis, angle));
        }
        gates.extend((0..qubits - 1).map(Gate::Cz));
    }
    gates
}

fn apply(state: &mut [[f64; 2]], gate: Gate, sign: f64) {
    match gate {
        Gate::Cz(q) => {
            let both = (1 << q) | (1 << (q + 1));
            for (i, a) in state.iter_mut().enumerate() {
                if i & both == both {
                    *a = [-a[0], -a[1]];
                }
            }
        }
        Gate::Rot(q, axis, angle) => {
            let (s, c) = (0.5 * angle * sign).sin_cos();
            let bit = 1 << q;
            for i in (0..state.len()).filter(|i| i & bit == 0) {
                let (a, b) = (state[i], state[i | bit]);
                let (x, y) = match axis {
                    0 => (
                        [c * a[0] + s * b[1], c * a[1] - s * b[0]],
                        [c * b[0] + s * a[1], c * b[1] - s * a[0]],
                    ),
                    1 => (
                        [c * a[0] - s * b[0], c * a[1] - s * b[1]],
                        [s * a[0] + c * b[0], s * a[1] + c * b[1]],
                    ),
                    _ => (
                        [c * a[0] + s * a[1], c * a[1] - s * a[0]],
                        [c * b[0] - s * b[1], c * b[1] + s * b[0]],
                    ),
                };
                state[i] = x;
                state[i | bit] = y;
            }
        }
    }
}

/// One member: build its circuit, run it forward on |0…0⟩, then undo it
/// on a copy. Returns an amplitude so the work cannot be optimised away.
fn member(qubits: usize, layers: usize, m: usize) -> f64 {
    let gates = circuit(qubits, layers, m);
    let mut state = vec![[0.0f64; 2]; 1 << qubits];
    state[0][0] = 1.0;
    for &g in &gates {
        apply(&mut state, g, 1.0);
    }
    let mut back = state.clone();
    for &g in gates.iter().rev() {
        apply(&mut back, g, -1.0);
    }
    state[0][0] + back[0][0]
}

impl Shape {
    fn run(&self) -> f64 {
        let (q, l, n) = (self.qubits, self.layers, self.members);
        let workers = if self.parallel {
            std::thread::available_parallelism().map_or(1, |w| w.get())
        } else {
            1
        }
        .min(n);
        if workers <= 1 {
            return (0..n).map(|m| member(q, l, m)).sum();
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut acc = 0.0;
                        loop {
                            let m = next.fetch_add(1, Ordering::Relaxed);
                            if m >= n {
                                return acc;
                            }
                            acc += member(q, l, m);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference worker panicked"))
                .sum()
        })
    }

    /// Wall time of one reference run, in ms.
    pub fn time_ms(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.run());
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Operation times, each between two reference runs.
///
/// An operation's relative time is its wall time over the mean of the
/// reference run just before it and the one just after it.
pub struct Paired {
    reference: Box<dyn FnMut() -> f64>,
    refs: Vec<f64>,
    /// `(index of the reference just before, wall time in ms)`; the
    /// reference just after has the next index.
    ops: Vec<(usize, f64)>,
}

impl Paired {
    /// Operations paired with reference runs of `shape`.
    pub fn new(shape: Shape) -> Paired {
        Paired::with(move || shape.time_ms())
    }

    /// Operations paired with `reference`, which runs one reference and
    /// returns its time.
    pub fn with(reference: impl FnMut() -> f64 + 'static) -> Paired {
        Paired {
            reference: Box::new(reference),
            refs: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Runs a reference now and returns its index.
    pub fn reference(&mut self) -> usize {
        self.refs.push((self.reference)());
        self.refs.len() - 1
    }

    /// Records an operation timed elsewhere, after reference `before` and
    /// before reference `before + 1`.
    pub fn record(&mut self, before: usize, ms: f64) {
        self.ops.push((before, ms));
    }

    /// Runs `f` between two references; `f` returns its result and the
    /// wall times (ms) of the operations it ran.
    pub fn group<T>(&mut self, f: impl FnOnce() -> (T, Vec<f64>)) -> T {
        let before = self.reference();
        let (out, ms) = f();
        self.reference();
        for m in ms {
            self.record(before, m);
        }
        out
    }

    /// Times `f` as one operation between two references.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.group(|| {
            let t0 = Instant::now();
            let out = f();
            (out, vec![t0.elapsed().as_secs_f64() * 1e3])
        })
    }

    /// Each operation's wall time over its references' mean time.
    pub fn ratios(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|&(b, ms)| ms / (0.5 * (self.refs[b] + self.refs[b + 1])))
            .collect()
    }

    /// Every operation's wall time (ms).
    pub fn ms(&self) -> Vec<f64> {
        self.ops.iter().map(|&(_, ms)| ms).collect()
    }

    /// Every reference run's wall time (ms).
    pub fn refs_ms(&self) -> &[f64] {
        &self.refs
    }
}

/// Size of an echo message, about that of a small request.
const ECHO_BYTES: usize = 256;

/// A loopback echo, the reference for request latency: it takes the path
/// a request takes through a threaded TCP server, with none of the
/// program's code. The client writes a message; a reader thread hands it
/// to a worker thread over a channel; the worker runs one small reference
/// member and writes the message back. Dropping it closes the connection
/// and joins both threads.
pub struct Echo {
    stream: TcpStream,
    threads: Vec<JoinHandle<()>>,
}

impl Echo {
    pub fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (conn, _) = listener.accept()?;
        for s in [&stream, &conn] {
            s.set_nodelay(true)?;
        }
        let mut reader = conn.try_clone()?;
        let mut writer = conn;
        let (tx, rx) = mpsc::channel::<[u8; ECHO_BYTES]>();
        let threads = vec![
            std::thread::spawn(move || {
                let mut msg = [0u8; ECHO_BYTES];
                while reader.read_exact(&mut msg).is_ok() && tx.send(msg).is_ok() {}
            }),
            std::thread::spawn(move || {
                for msg in rx {
                    std::hint::black_box(member(8, 6, usize::from(msg[0])));
                    if writer.write_all(&msg).is_err() {
                        return;
                    }
                }
            }),
        ];
        Ok(Echo { stream, threads })
    }

    /// Median round trip (ms) of `n` messages, one due every `gap`
    /// (back to back when `gap` is zero).
    pub fn round_trip_ms(&mut self, n: usize, gap: Duration) -> f64 {
        let start = Instant::now();
        let mut msg = [0u8; ECHO_BYTES];
        let mut rtt = Vec::with_capacity(n);
        for i in 0..n {
            let due = start + gap * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            msg[0] = i as u8;
            let t0 = Instant::now();
            self.stream.write_all(&msg).expect("echo write");
            self.stream.read_exact(&mut msg).expect("echo read");
            rtt.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        crate::stats::median(&rtt)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_unitary_and_fixed() {
        // Forward then back returns |0…0⟩: the back state's first
        // amplitude is 1, whatever the forward state's is.
        let got = member(4, 6, 3);
        let gates = circuit(4, 6, 3);
        let mut state = vec![[0.0f64; 2]; 16];
        state[0][0] = 1.0;
        for &g in &gates {
            apply(&mut state, g, 1.0);
        }
        assert!((got - state[0][0] - 1.0).abs() < 1e-12);
        let norm: f64 = state.iter().map(|a| a[0] * a[0] + a[1] * a[1]).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_use_the_references_around_each_operation() {
        let mut next = 0.0;
        let mut p = Paired::with(move || {
            next += 1.0;
            next
        });
        p.group(|| ((), vec![3.0, 6.0]));
        p.op(|| ());
        let b = p.reference();
        p.record(b, 5.5);
        p.reference();
        assert_eq!(p.refs_ms(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = p.ratios();
        assert_eq!((r[0], r[1], r[3]), (2.0, 4.0, 1.0));
    }

    #[test]
    fn echo_answers_and_stops() {
        let mut echo = Echo::start().expect("loopback echo");
        assert!(echo.round_trip_ms(5, Duration::ZERO) > 0.0);
        drop(echo);
    }
}
