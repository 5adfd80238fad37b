//! Cross-crate acceptance for the differential fuzzing harness, driven
//! entirely through `plateau-fuzz`'s public API: a clean campaign over
//! the full engine matrix, the mutation self-test (detection + shrink +
//! replay from a written artifact), and two oracle properties the fuzz
//! generator makes cheap to state — tr(ρO) = ⟨ψ|O|ψ⟩ on noiseless
//! random circuits, and pass-pipeline invariance of the full unitary.

use plateau_fuzz::{
    check_pair, random_case, replay, run, EnginePair, FuzzConfig, MAX_FUZZ_QUBITS,
    SMALL_ORACLE_QUBITS,
};
use plateau_rng::rngs::StdRng;
use plateau_rng::{derive_seed, SeedableRng};
use plateau_sim::{circuit_unitary, passes, DensityMatrix};

#[test]
fn public_api_campaign_is_clean_across_the_engine_matrix() {
    let config = FuzzConfig {
        cases: plateau_rng::check::cases(60),
        seed: 0xfeed,
        max_qubits: MAX_FUZZ_QUBITS,
        artifact_dir: None,
        mutate: false,
    };
    let report = run(&config);
    assert!(
        report.clean(),
        "divergences on a clean tree: {:#?}",
        report.mismatches
    );
    // Every pair in the matrix must have executed at least once, and the
    // observed deltas must sit inside their documented tolerances.
    for pair in EnginePair::ALL {
        let stats = report
            .stats
            .get(pair.name())
            .unwrap_or_else(|| panic!("pair {pair} never ran"));
        assert!(stats.comparisons > 0, "pair {pair} never ran");
        assert!(
            stats.max_delta <= pair.tolerance(),
            "pair {pair}: max delta {:e} exceeds tolerance {:e}",
            stats.max_delta,
            pair.tolerance()
        );
    }
}

#[test]
fn mutation_self_test_shrinks_and_replays_from_disk() {
    let dir = std::env::temp_dir().join(format!(
        "plateau-integration-fuzz-{}",
        std::process::id()
    ));
    let config = FuzzConfig {
        cases: 40,
        seed: 0xfeed,
        max_qubits: 5,
        artifact_dir: Some(dir.clone()),
        mutate: true,
    };
    let report = run(&config);
    assert!(
        !report.mismatches.is_empty(),
        "the deliberately broken kernel must be detected"
    );
    let smallest = report
        .mismatches
        .iter()
        .map(|m| m.shrunk.gate_count())
        .min()
        .unwrap();
    assert!(
        smallest <= 8,
        "shrinking stalled: smallest reproducer has {smallest} gates"
    );

    // Every injected bug — the off-by-one kernel, the wrong-order
    // prologue fold and the rank-one walk whose bra skips a sweep — must
    // be caught independently.
    for pair in EnginePair::MUTANTS {
        assert!(
            report.mismatches.iter().any(|m| m.pair == pair),
            "{pair} was never caught"
        );
    }

    // Round-trip a reproducer through disk: replay must rebuild the exact
    // engine pair and still observe the divergence.
    let found = report
        .mismatches
        .iter()
        .find(|m| m.artifact.is_some() && m.pair == EnginePair::MutatedVsSerial)
        .expect("artifacts enabled, so at least one must be written");
    let outcome = replay(found.artifact.as_deref().unwrap()).expect("artifact parses");
    assert_eq!(outcome.artifact.pair, EnginePair::MutatedVsSerial);
    assert!(
        outcome.mismatch.is_some(),
        "the injected bug must reproduce from its artifact"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn density_matrix_expectation_matches_statevector_on_random_circuits() {
    // tr(ρO) = ⟨ψ|O|ψ⟩ for ρ = |ψ⟩⟨ψ|: the mixed-state engine run on
    // noiseless random circuits must agree with the pure-state engine for
    // every observable family the generator emits (including PauliSum,
    // the family that exposed the normalization-check bug in
    // `PauliString::apply`).
    for index in 0..plateau_rng::check::cases(40) as u64 {
        let mut rng = StdRng::seed_from_u64(derive_seed(0xd0, index, 0, 0));
        let case = random_case(&mut rng, SMALL_ORACLE_QUBITS);
        let (circuit, params) = case.build().expect("generated cases are valid");
        let obs = case.observable().expect("generated observables are valid");

        let state = circuit.run(&params).expect("statevector run");
        let pure = obs.expectation(&state).expect("pure expectation");

        let mut rho = DensityMatrix::zero(case.n_qubits);
        rho.apply_circuit(&circuit, &params).expect("density run");
        let mixed = rho.expectation(&obs).expect("mixed expectation");

        assert!(
            (pure - mixed).abs() < 1e-9,
            "case {index}: tr(rho O) = {mixed} but <psi|O|psi> = {pure}"
        );
    }
}

#[test]
fn pass_pipeline_preserves_the_full_unitary_on_random_circuits() {
    for index in 0..plateau_rng::check::cases(40) as u64 {
        let mut rng = StdRng::seed_from_u64(derive_seed(0xb1, index, 0, 0));
        let case = random_case(&mut rng, SMALL_ORACLE_QUBITS);
        let (circuit, params) = case.build().expect("generated cases are valid");
        let simplified = passes::simplify(&circuit);
        assert!(
            simplified.gate_count() <= circuit.gate_count(),
            "simplify must never grow a circuit"
        );

        let raw = circuit_unitary(&circuit, &params).expect("raw unitary");
        let opt = circuit_unitary(&simplified, &params).expect("optimized unitary");
        assert_eq!(raw.rows(), opt.rows());
        let mut delta = 0.0f64;
        for r in 0..raw.rows() {
            for c in 0..raw.cols() {
                delta = delta.max((raw[(r, c)] - opt[(r, c)]).norm());
            }
        }
        assert!(
            delta < 1e-9,
            "case {index}: pass pipeline moved the unitary by {delta:e}"
        );
    }
}

#[test]
fn check_pair_rejects_nothing_on_a_seeded_tour_of_every_pair() {
    // A direct tour of `check_pair` outside the runner: every applicable
    // pair, on a fresh seed stream, must report agreement with headroom.
    for index in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(derive_seed(0xc2, index, 0, 0));
        let case = random_case(&mut rng, 4);
        for pair in EnginePair::ALL {
            if !pair.applies(&case) {
                continue;
            }
            match check_pair(pair, &case) {
                Ok(delta) => assert!(
                    delta <= pair.tolerance(),
                    "case {index} pair {pair}: delta {delta:e}"
                ),
                Err(m) => panic!("case {index} pair {pair} diverged: {m:?}"),
            }
        }
    }
}
