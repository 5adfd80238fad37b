//! The fuzz driver: case loop, engine-matrix scheduling, shrinking, and
//! artifact emission — plus replay of a previously written reproducer.

use crate::artifact::Artifact;
use crate::engines::{check_pair, EnginePair, Mismatch};
use crate::gen::{random_case, FuzzCase, MAX_FUZZ_QUBITS};
use crate::shrink::shrink;
use plateau_rng::{derive_seed, SeedableRng, StdRng};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of random cases to draw.
    pub cases: usize,
    /// Master seed; each case derives its own stream, so runs are
    /// reproducible and cases are independent.
    pub seed: u64,
    /// Register-size cap (clamped to [`MAX_FUZZ_QUBITS`]).
    pub max_qubits: usize,
    /// Where reproducers are written; `None` disables artifact output.
    pub artifact_dir: Option<PathBuf>,
    /// Mutation self-test mode: run **only** the deliberately broken
    /// engines ([`EnginePair::MUTANTS`]: the off-by-one kernel, the
    /// wrong-order prologue fold and the rank-one walk whose bra skips a
    /// sweep) against their oracles and expect every one to be caught.
    pub mutate: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            cases: 200,
            seed: 0xfeed,
            max_qubits: MAX_FUZZ_QUBITS,
            artifact_dir: Some(PathBuf::from("target/fuzz")),
            mutate: false,
        }
    }
}

/// Per-pair aggregate over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairStats {
    /// How many cases this pair executed on.
    pub comparisons: usize,
    /// Largest observed delta across those comparisons (0 when the pair
    /// never ran or always agreed exactly).
    pub max_delta: f64,
}

/// One confirmed divergence, after shrinking.
#[derive(Debug, Clone)]
pub struct FoundMismatch {
    /// Index of the originating case.
    pub case_index: usize,
    /// The diverging pair.
    pub pair: EnginePair,
    /// Delta observed on the original case.
    pub delta: f64,
    /// Engine-level description of the divergence.
    pub detail: String,
    /// Gate count before shrinking.
    pub original_gates: usize,
    /// The minimized reproducer.
    pub shrunk: FuzzCase,
    /// Where the reproducer was written (if artifacts are enabled).
    pub artifact: Option<PathBuf>,
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases drawn.
    pub cases: usize,
    /// Per-pair aggregates, in scheduling order.
    pub stats: BTreeMap<&'static str, PairStats>,
    /// Every divergence found, shrunk and (optionally) written to disk.
    pub mismatches: Vec<FoundMismatch>,
}

impl FuzzReport {
    /// Total comparisons across all pairs.
    pub fn comparisons(&self) -> usize {
        self.stats.values().map(|s| s.comparisons).sum()
    }

    /// Whether the engine matrix agreed everywhere.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Runs the differential fuzzer.
///
/// Every case gets its own RNG stream derived from `(config.seed, case
/// index)`, so any single case can be regenerated without replaying the
/// run — the artifact records both numbers.
pub fn run(config: &FuzzConfig) -> FuzzReport {
    let pairs: &[EnginePair] = if config.mutate {
        &EnginePair::MUTANTS
    } else {
        &EnginePair::ALL
    };
    let mut report = FuzzReport {
        cases: config.cases,
        ..FuzzReport::default()
    };
    for index in 0..config.cases {
        plateau_obs::counter!("fuzz.cases").inc();
        let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, index as u64, 0, 0));
        let case = random_case(&mut rng, config.max_qubits);
        for &pair in pairs {
            if !pair.applies(&case) {
                continue;
            }
            let stats = report.stats.entry(pair.name()).or_default();
            stats.comparisons += 1;
            match check_pair(pair, &case) {
                Ok(delta) => stats.max_delta = stats.max_delta.max(delta),
                Err(Mismatch { delta, detail, .. }) => {
                    plateau_obs::counter!("fuzz.mismatches").inc();
                    stats.max_delta = stats.max_delta.max(delta);
                    let (shrunk, _steps) =
                        shrink(&case, |c| pair.applies(c) && check_pair(pair, c).is_err());
                    let artifact = config.artifact_dir.as_deref().and_then(|dir| {
                        Artifact {
                            seed: config.seed,
                            case_index: index,
                            pair,
                            delta,
                            case: shrunk.clone(),
                        }
                        .write_to(dir)
                        .map_err(|e| plateau_obs::warn!("artifact write failed: {e}"))
                        .ok()
                    });
                    report.mismatches.push(FoundMismatch {
                        case_index: index,
                        pair,
                        delta,
                        detail,
                        original_gates: case.gate_count(),
                        shrunk,
                        artifact,
                    });
                }
            }
        }
    }
    report
}

/// Outcome of replaying one artifact.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The parsed artifact.
    pub artifact: Artifact,
    /// `Some` when the divergence still reproduces, `None` when the pair
    /// now agrees (i.e. the bug is fixed).
    pub mismatch: Option<Mismatch>,
}

/// Replays a reproducer file: parses it and re-runs exactly the engine
/// pair it records.
///
/// # Errors
///
/// Returns a description of unreadable or malformed artifacts.
pub fn replay(path: &std::path::Path) -> Result<ReplayOutcome, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let artifact = Artifact::parse(&text)?;
    let mismatch = check_pair(artifact.pair, &artifact.case).err();
    Ok(ReplayOutcome { artifact, mismatch })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_artifacts(cases: usize, seed: u64, mutate: bool) -> FuzzConfig {
        FuzzConfig {
            cases,
            seed,
            max_qubits: 6,
            artifact_dir: None,
            mutate,
        }
    }

    #[test]
    fn clean_run_over_the_full_matrix() {
        let report = run(&no_artifacts(50, 0xfeed, false));
        assert!(
            report.clean(),
            "unexpected divergences: {:#?}",
            report.mismatches
        );
        assert_eq!(report.cases, 50);
        // Every always-on pair must have run on every case.
        for pair in [
            "serial-vs-parallel",
            "raw-vs-optimized",
            "qasm-roundtrip",
            "prologue-vs-gate-by-gate",
        ] {
            assert_eq!(report.stats[pair].comparisons, 50, "{pair}");
        }
        // The gated pairs must have run on a nontrivial subset.
        for pair in [
            "state-vs-unitary",
            "state-vs-density",
            "adjoint-vs-shift",
            "adjoint-vs-finite-diff",
            "adjoint-partial-vs-gradient",
            "shift-vs-per-job",
            "overlap-shift-vs-per-job",
        ] {
            let c = report.stats[pair].comparisons;
            assert!(c > 0 && c <= 50, "{pair}: {c}");
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(&no_artifacts(30, 7, false));
        let b = run(&no_artifacts(30, 7, false));
        assert_eq!(a.comparisons(), b.comparisons());
        assert_eq!(a.mismatches.len(), b.mismatches.len());
    }

    #[test]
    fn mutation_self_test_detects_and_shrinks() {
        let report = run(&no_artifacts(40, 0xfeed, true));
        assert!(
            !report.mismatches.is_empty(),
            "the injected bugs were never caught"
        );
        // Every injected bug must fire, and each must shrink to a small
        // reproducer.
        for pair in EnginePair::MUTANTS {
            let best = report
                .mismatches
                .iter()
                .filter(|m| m.pair == pair)
                .map(|m| m.shrunk.gate_count())
                .min()
                .unwrap_or_else(|| panic!("{pair} was never caught"));
            assert!(best <= 8, "{pair}: smallest reproducer had {best} gates");
        }
        for m in &report.mismatches {
            assert!(EnginePair::MUTANTS.contains(&m.pair));
            assert!(m.shrunk.gate_count() <= m.original_gates);
            // The shrunk case must itself still fail.
            assert!(crate::engines::check_pair(m.pair, &m.shrunk).is_err());
        }
    }

    #[test]
    fn replay_round_trips_a_written_artifact() {
        let dir = std::env::temp_dir().join(format!("plateau-fuzz-replay-{}", std::process::id()));
        let config = FuzzConfig {
            cases: 40,
            seed: 1,
            max_qubits: 4,
            artifact_dir: Some(dir.clone()),
            mutate: true,
        };
        let report = run(&config);
        let with_artifact = report
            .mismatches
            .iter()
            .find(|m| m.artifact.is_some() && m.pair == EnginePair::MutatedVsSerial)
            .expect("self-test must write at least one artifact");
        let outcome = replay(with_artifact.artifact.as_deref().unwrap()).expect("replay parses");
        assert_eq!(outcome.artifact.pair, EnginePair::MutatedVsSerial);
        assert!(
            outcome.mismatch.is_some(),
            "the injected bug must still reproduce from its artifact"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
