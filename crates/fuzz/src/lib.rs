//! # plateau-fuzz
//!
//! Differential fuzzing for the plateau workspace. The workspace
//! deliberately contains redundant implementations of the same quantum
//! math — serial and chunked-parallel amplitude kernels, a statevector
//! and a density-matrix engine, a dense full-unitary oracle, three
//! gradient algorithms, an optimizer pass, and a QASM codec. That
//! redundancy is an oracle: this crate generates random circuits,
//! observables, and parameter vectors ([`gen`]), executes each case
//! every way the workspace can ([`engines`]), and cross-checks the
//! results within per-pair tolerances. Any divergence is greedily
//! minimized ([`shrink()`]) and written as a replayable reproducer
//! ([`artifact`]) under `target/fuzz/`.
//!
//! Entry points ([`runner`]): [`run`] drives a seeded fuzz campaign,
//! [`replay`] re-executes a reproducer file. The `plateau fuzz` CLI
//! subcommand and the `scripts/ci.sh` smoke gate are thin wrappers over
//! these.
//!
//! The whole subsystem is seed-deterministic: the same
//! `(seed, cases, max_qubits)` triple explores the same cases and either
//! finds the same mismatches or none, on any machine.
//!
//! # Examples
//!
//! ```
//! use plateau_fuzz::{run, FuzzConfig};
//!
//! let report = run(&FuzzConfig {
//!     cases: 10,
//!     seed: 0xfeed,
//!     max_qubits: 4,
//!     artifact_dir: None,
//!     mutate: false,
//! });
//! assert!(report.clean());
//! assert!(report.comparisons() >= 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod engines;
pub mod gen;
pub mod runner;
pub mod shrink;

pub use artifact::{parse_seed, Artifact};
pub use engines::{
    check_pair, mutated_run, overlap_mutated_gradient, prologue_mutated_run, EnginePair, Mismatch,
};
pub use gen::{random_case, FuzzCase, GenOp, ObsSpec, MAX_FUZZ_QUBITS, SMALL_ORACLE_QUBITS};
pub use runner::{replay, run, FoundMismatch, FuzzConfig, FuzzReport, PairStats, ReplayOutcome};
pub use shrink::{candidates, shrink};
