//! Golden science fixture: the paper's numbers pinned bit for bit.
//!
//! `tests/fixtures/golden_science.txt` holds the `f64` bit patterns of
//!
//! - a reduced Fig 5a scan (q ∈ {2, 4, 6}, L = 50, 50 circuits per cell,
//!   all six strategies, `TensorShape` fans), differentiated by both the
//!   adjoint and the parameter-shift engine: every gradient sample and
//!   every cell variance;
//! - the E3 improvement table derived from each scan (decay rate, R² and
//!   improvement over random per strategy);
//! - a 20-iteration §IV-D trajectory (10 qubits, 5 layers, global cost,
//!   Adam at lr = 0.1) for Xavier-normal and random, trained with the
//!   adjoint and the parameter-shift engine: every loss and gradient norm.
//!
//! `golden_fixture_matches_bit_for_bit` fails on any change of any bit and
//! reports the largest relative change. A change that is meant to move
//! the arithmetic (a reassociation, a different kernel order) re-records
//! the fixture with
//!
//! ```text
//! cargo test --release -p plateau-core --test golden_science -- --ignored record_golden_fixture --nocapture
//! ```
//!
//! which prints the largest relative change against the file it replaces;
//! the change is then reported with the commit that moves it.
//!
//! The remaining tests assert only the statistically robust claims, each
//! on its own: Xavier decays slower than random, a random start stays on
//! the plateau under gradient descent (E4), and every strategy converges
//! under Adam (E5). No He/LeCun ordering is asserted: at the paper's
//! budget that comparison is not resolvable (Welch p = 0.12).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use plateau_core::ansatz::training_ansatz;
use plateau_core::cost::CostKind;
use plateau_core::init::{FanMode, InitStrategy};
use plateau_core::optim::{Adam, GradientDescent, Optimizer};
use plateau_core::train::{train_with_engine, TrainingHistory};
use plateau_core::variance::{variance_scan, GradEngineKind, VarianceConfig, VarianceScan};
use plateau_grad::{Adjoint, GradientEngine, ParameterShift};
use plateau_rng::rngs::StdRng;
use plateau_rng::SeedableRng;

/// The fixture: key → values, in key order.
type Golden = BTreeMap<String, Vec<f64>>;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden_science.txt")
}

fn engine_name(engine: GradEngineKind) -> &'static str {
    match engine {
        GradEngineKind::Adjoint => "adjoint",
        GradEngineKind::ParameterShift => "shift",
    }
}

/// The reduced Fig 5a scan for one engine, computed once per test binary.
fn scan(engine: GradEngineKind) -> &'static VarianceScan {
    static ADJOINT: OnceLock<VarianceScan> = OnceLock::new();
    static SHIFT: OnceLock<VarianceScan> = OnceLock::new();
    let cell = match engine {
        GradEngineKind::Adjoint => &ADJOINT,
        GradEngineKind::ParameterShift => &SHIFT,
    };
    cell.get_or_init(|| {
        let config = VarianceConfig {
            qubit_counts: vec![2, 4, 6],
            layers: 50,
            n_circuits: 50,
            fan_mode: FanMode::TensorShape,
            engine,
            ..VarianceConfig::default()
        };
        variance_scan(&config, &InitStrategy::PAPER_SET).expect("variance scan")
    })
}

/// The §IV-D setting (10 qubits, 5 layers, global cost) trained from the
/// Fig 5b/5c binaries' per-strategy seed.
fn train_ivd(
    strategy: InitStrategy,
    optimizer: &mut dyn Optimizer,
    iterations: usize,
    engine: &dyn GradientEngine,
) -> TrainingHistory {
    let n = 10;
    let ansatz = training_ansatz(n, 5).expect("ansatz");
    let mut rng = StdRng::seed_from_u64(0x71241 ^ strategy.name().len() as u64);
    let theta0 = strategy
        .sample_params(&ansatz.shape, FanMode::TensorShape, &mut rng)
        .expect("init");
    let obs = CostKind::Global.observable(n);
    train_with_engine(&ansatz.circuit, &obs, theta0, optimizer, iterations, engine)
        .expect("training")
}

/// Computes every pinned value.
fn compute() -> Golden {
    let mut golden = Golden::new();
    for engine in [GradEngineKind::Adjoint, GradEngineKind::ParameterShift] {
        let e = engine_name(engine);
        let scan = scan(engine);
        for curve in &scan.curves {
            let s = curve.strategy.name();
            for point in &curve.points {
                let q = point.n_qubits;
                golden.insert(
                    format!("fig5a.{e}.{s}.q{q}.gradients"),
                    point.gradients.clone(),
                );
                golden.insert(format!("fig5a.{e}.{s}.q{q}.variance"), vec![point.variance]);
            }
        }
        for row in scan
            .improvements_vs(InitStrategy::Random)
            .expect("E3 table")
        {
            golden.insert(
                format!("e3.{e}.{}", row.strategy.name()),
                vec![row.decay_rate, row.r_squared, row.improvement_percent],
            );
        }
    }
    let engines: [(&str, &dyn GradientEngine); 2] =
        [("adjoint", &Adjoint), ("shift", &ParameterShift)];
    for (e, engine) in engines {
        for strategy in [InitStrategy::XavierNormal, InitStrategy::Random] {
            let mut adam = Adam::new(0.1).expect("adam");
            let hist = train_ivd(strategy, &mut adam, 20, engine);
            let s = strategy.name();
            golden.insert(format!("train_ivd.{e}.{s}.loss"), hist.losses().to_vec());
            golden.insert(
                format!("train_ivd.{e}.{s}.grad_norm"),
                hist.grad_norms().to_vec(),
            );
        }
    }
    golden
}

fn render(golden: &Golden) -> String {
    let mut out = String::from(
        "# Golden science fixture: key, then the f64 bit patterns (hex) of its values.\n\
         # Re-record: cargo test --release -p plateau-core --test golden_science -- --ignored record_golden_fixture --nocapture\n",
    );
    for (key, values) in golden {
        out.push_str(key);
        for v in values {
            out.push_str(&format!(" {:016x}", v.to_bits()));
        }
        out.push('\n');
    }
    out
}

fn parse(text: &str) -> Golden {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let mut fields = line.split_whitespace();
            let key = fields.next().expect("key").to_string();
            let values = fields
                .map(|h| f64::from_bits(u64::from_str_radix(h, 16).expect("hex bit pattern")))
                .collect();
            (key, values)
        })
        .collect()
}

/// Largest `|new − old| / |old|` over all shared values (an absolute
/// change where `old` is zero), with the key it occurs at.
fn max_relative_change(old: &Golden, new: &Golden) -> (f64, String) {
    let mut worst = (0.0, String::new());
    for (key, olds) in old {
        let Some(news) = new.get(key) else { continue };
        for (a, b) in olds.iter().zip(news) {
            let rel = if *a == 0.0 {
                b.abs()
            } else {
                ((b - a) / a).abs()
            };
            if rel > worst.0 || (rel.is_nan() && !worst.0.is_nan()) {
                worst = (rel, key.clone());
            }
        }
    }
    worst
}

#[test]
fn golden_fixture_matches_bit_for_bit() {
    let text = std::fs::read_to_string(fixture_path()).expect("golden fixture present");
    let want = parse(&text);
    let got = compute();
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "fixture keys differ from the computed set"
    );
    let mut moved = Vec::new();
    for (key, w) in &want {
        let g = &got[key];
        let same = w.len() == g.len() && w.iter().zip(g).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            moved.push(key.as_str());
        }
    }
    let (rel, at) = max_relative_change(&want, &got);
    assert!(
        moved.is_empty(),
        "{} fixture entries moved (largest relative change {rel:e} at {at}): {}",
        moved.len(),
        moved.join(", ")
    );
}

/// Re-records the fixture; see the module docs for the command.
#[test]
#[ignore = "re-records tests/fixtures/golden_science.txt"]
fn record_golden_fixture() {
    let path = fixture_path();
    let got = compute();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let (rel, at) = max_relative_change(&parse(&text), &got);
        println!("largest relative change against the previous fixture: {rel:e} ({at})");
    }
    std::fs::write(&path, render(&got)).expect("write golden fixture");
    println!("recorded {} entries to {}", got.len(), path.display());
}

#[test]
fn xavier_decays_slower_than_random() {
    for engine in [GradEngineKind::Adjoint, GradEngineKind::ParameterShift] {
        let scan = scan(engine);
        let rate = |s: InitStrategy| scan.curve_of(s).unwrap().decay_fit().unwrap().rate;
        let random = rate(InitStrategy::Random);
        assert!(random < 0.0, "random must decay: {random}");
        for xavier in [InitStrategy::XavierNormal, InitStrategy::XavierUniform] {
            let b = rate(xavier);
            assert!(
                b > random,
                "{xavier} rate {b} should be shallower than random's {random}"
            );
        }
    }
}

#[test]
fn random_start_stays_on_the_plateau_under_gd() {
    let mut gd = GradientDescent::new(0.1).expect("gd");
    let hist = train_ivd(InitStrategy::Random, &mut gd, 50, &Adjoint);
    assert!(
        hist.initial_loss() > 0.99,
        "random start: {}",
        hist.initial_loss()
    );
    assert!(
        hist.final_loss() > 0.99,
        "random + GD left the plateau: {}",
        hist.final_loss()
    );
}

#[test]
fn every_strategy_converges_under_adam() {
    for strategy in InitStrategy::PAPER_SET {
        let mut adam = Adam::new(0.1).expect("adam");
        let hist = train_ivd(strategy, &mut adam, 50, &Adjoint);
        assert!(
            hist.final_loss() < 0.1,
            "{strategy} + Adam did not converge: {}",
            hist.final_loss()
        );
    }
}
