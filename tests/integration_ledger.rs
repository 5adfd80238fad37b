//! Acceptance test for the experiment ledger closing the loop on the
//! paper's claim: two fixed-seed variance scans — the uniform baseline
//! and a reduced-domain initializer — are registered in the run ledger,
//! loaded back through the `obs runs` comparison machinery, and the
//! fitted per-qubit decay slopes reproduce the qualitative ordering
//! (random decays strictly faster than the bounded start).

use plateau_core::init::InitStrategy;
use plateau_core::variance::{variance_scan, VarianceConfig};
use plateau_obs::runs::{Ledger, RunComparison};

#[test]
fn ledger_comparison_reproduces_variance_decay_ordering() {
    let dir = std::env::temp_dir().join(format!(
        "plateau_ledger_ordering_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();

    // Reduced-scale version of the paper's sweep (Fig. 3): same circuit
    // ensemble per strategy thanks to the shared master seed.
    let cfg = VarianceConfig {
        qubit_counts: vec![2, 4, 6],
        layers: 25,
        n_circuits: 60,
        seed: 11,
        ..VarianceConfig::default()
    };
    let uniform = variance_scan(&cfg, &[InitStrategy::Random]).expect("uniform scan");
    let reduced = variance_scan(&cfg, &[InitStrategy::XavierUniform]).expect("reduced scan");
    for scan in [&uniform, &reduced] {
        let (record, series) = scan.run_record();
        plateau_obs::record_run(&dir, &record, Some(&series)).expect("ledger write");
    }

    // Both scans registered, in order, with their decay-rate metrics.
    let ledger = Ledger::load(&dir).expect("ledger loads");
    assert!(ledger.warnings.is_empty(), "{:?}", ledger.warnings);
    assert_eq!(ledger.runs.len(), 2);
    let (a, b) = (&ledger.runs[0], &ledger.runs[1]);
    assert_eq!(a.command, "variance");
    assert_eq!(b.command, "variance");

    let cmp = RunComparison::of(a, b);
    let slope_uniform = cmp
        .slope_a("random")
        .expect("fitted decay slope for the uniform run");
    let slope_reduced = cmp
        .slope_b("xavier_uniform")
        .expect("fitted decay slope for the reduced-domain run");

    // The paper's qualitative ordering: both variances decay with width,
    // but the uniform baseline decays strictly faster (more negative
    // log-slope) than the reduced-domain initializer.
    assert!(slope_uniform < 0.0, "uniform slope {slope_uniform}");
    assert!(
        slope_uniform < slope_reduced,
        "uniform {slope_uniform} should decay faster than reduced-domain {slope_reduced}"
    );

    // The same ordering is visible in the registered decay-rate metrics,
    // and they agree with the in-memory scan fits.
    let rate = |r: &plateau_obs::runs::RunEntry, name: &str| {
        r.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    let rate_uniform = rate(a, "decay_rate_random");
    let rate_reduced = rate(b, "decay_rate_xavier_uniform");
    assert!(rate_uniform < rate_reduced);
    let fit_uniform = uniform.curves[0].decay_fit().expect("uniform fit");
    let fit_reduced = reduced.curves[0].decay_fit().expect("reduced fit");
    assert!((rate_uniform - fit_uniform.rate).abs() < 1e-12);
    assert!((rate_reduced - fit_reduced.rate).abs() < 1e-12);

    // The rendered report and SVG are well-formed artifacts.
    let report = cmp.render();
    assert!(report.contains("exponential decay"), "report:\n{report}");
    let svg = cmp.to_svg();
    assert!(svg.starts_with("<?xml") && svg.trim_end().ends_with("</svg>"));

    std::fs::remove_dir_all(&dir).ok();
}
