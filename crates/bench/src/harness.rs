//! A hand-rolled micro-benchmark harness — the workspace's replacement
//! for `criterion`.
//!
//! Methodology per benchmark:
//!
//! 1. **Warmup** — the closure runs until [`BenchOptions::warmup`] has
//!    elapsed, so caches, branch predictors, and allocator pools settle.
//! 2. **Calibration** — the warmup's mean iteration time picks a batch
//!    size such that one timed batch lasts at least
//!    [`BenchOptions::min_batch`] (timer quantization stays ≪ 1%).
//! 3. **Measurement** — [`BenchOptions::samples`] batches are timed; each
//!    yields one per-iteration estimate (batch time / batch size).
//! 4. **Statistics** — median, mean, standard deviation, min, and max of
//!    those estimates. The *median* is the headline number: it is robust
//!    to the occasional descheduling spike that contaminates means.
//!
//! Reports print as a table to stdout and, when `PLATEAU_BENCH_JSON` is
//! set to a path, also land there as a JSON document (written by the
//! in-repo [`crate::json`] writer).
//!
//! # Examples
//!
//! ```
//! use plateau_bench::harness::Harness;
//!
//! let mut h = Harness::new("example").quick();
//! h.group("arith").bench("add", || std::hint::black_box(2u64 + 2));
//! let reports = h.finish();
//! assert_eq!(reports[0].name, "arith/add");
//! assert!(reports[0].median_ns >= 0.0);
//! ```

use crate::json::Json;
use std::time::{Duration, Instant};

/// Re-export of the optimizer barrier used by every benchmark closure.
pub use std::hint::black_box;

/// Tunables of the measurement loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Wall-clock spent warming up before calibration.
    pub warmup: Duration,
    /// Number of timed batches (one statistic sample each).
    pub samples: usize,
    /// Minimum duration of one timed batch.
    pub min_batch: Duration,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            warmup: Duration::from_millis(60),
            samples: 20,
            min_batch: Duration::from_millis(5),
        }
    }
}

impl BenchOptions {
    /// Smoke-test scale: minimal warmup, 5 samples, tiny batches. Used by
    /// the test suite and `PLATEAU_SCALE=quick` runs.
    pub fn quick() -> BenchOptions {
        BenchOptions {
            warmup: Duration::from_millis(1),
            samples: 5,
            min_batch: Duration::from_micros(50),
        }
    }
}

/// The measured result of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// `group/id` label.
    pub name: String,
    /// Total iterations across all timed batches.
    pub iterations: u64,
    /// Median per-iteration time (headline metric).
    pub median_ns: f64,
    /// 90th-percentile per-batch estimate (nearest rank).
    pub p90_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Standard deviation of the per-batch estimates.
    pub stddev_ns: f64,
    /// Fastest batch estimate.
    pub min_ns: f64,
    /// Slowest batch estimate.
    pub max_ns: f64,
}

impl Report {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("iterations", Json::Num(self.iterations as f64)),
            ("median_ns", Json::Num(self.median_ns)),
            ("p90_ns", Json::Num(self.p90_ns)),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("stddev_ns", Json::Num(self.stddev_ns)),
            ("min_ns", Json::Num(self.min_ns)),
            ("max_ns", Json::Num(self.max_ns)),
        ])
    }
}

/// Collects benchmarks, runs them on registration, and emits the report
/// table (and optional JSON file) on [`Harness::finish`].
#[derive(Debug)]
pub struct Harness {
    name: String,
    options: BenchOptions,
    reports: Vec<Report>,
    config: Vec<(String, Json)>,
    notes: Vec<String>,
}

impl Harness {
    /// Creates a harness. `PLATEAU_SCALE=quick` in the environment
    /// switches to [`BenchOptions::quick`] automatically.
    pub fn new(name: &str) -> Harness {
        crate::init_observability(name);
        let options = if std::env::var("PLATEAU_SCALE").as_deref() == Ok("quick") {
            BenchOptions::quick()
        } else {
            BenchOptions::default()
        };
        println!("# bench harness: {name}");
        Harness {
            name: name.to_string(),
            options,
            reports: Vec::new(),
            config: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Switches this harness to smoke-test scale regardless of the
    /// environment.
    pub fn quick(mut self) -> Harness {
        self.options = BenchOptions::quick();
        self
    }

    /// Stamps a workload parameter (qubit count, layer count, thread
    /// count, …) into the JSON report and every perf-ledger record, so
    /// history stays comparable across config changes.
    pub fn config(&mut self, key: &str, value: Json) {
        self.config.push((key.to_string(), value));
    }

    /// Attaches a free-form note to the JSON report (e.g. a measured
    /// crossover point or the reasoning behind a default).
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_string());
    }

    /// Opens a named benchmark group; benchmarks registered on it report
    /// as `group/id`.
    pub fn group(&mut self, group: &str) -> Group<'_> {
        Group {
            harness: self,
            group: group.to_string(),
            options: None,
        }
    }

    /// Prints the summary table, writes the JSON report if
    /// `PLATEAU_BENCH_JSON` names a path, and returns the reports.
    pub fn finish(self) -> Vec<Report> {
        println!(
            "\n{:<40} {:>12} {:>12} {:>12} {:>10}",
            "benchmark", "median", "mean", "stddev", "iters"
        );
        for r in &self.reports {
            println!(
                "{:<40} {:>12} {:>12} {:>12} {:>10}",
                r.name,
                format_ns(r.median_ns),
                format_ns(r.mean_ns),
                format_ns(r.stddev_ns),
                r.iterations
            );
        }
        if let Ok(path) = std::env::var("PLATEAU_BENCH_JSON") {
            let mut fields = vec![
                ("harness".to_string(), Json::str(self.name.clone())),
                (
                    "benchmarks".to_string(),
                    Json::Arr(self.reports.iter().map(Report::to_json).collect()),
                ),
            ];
            if !self.config.is_empty() {
                fields.push(("config".to_string(), Json::Obj(self.config.clone())));
            }
            if !self.notes.is_empty() {
                fields.push((
                    "notes".to_string(),
                    Json::Arr(self.notes.iter().cloned().map(Json::str).collect()),
                ));
            }
            let doc = Json::Obj(fields);
            match std::fs::write(&path, doc.to_pretty_string()) {
                Ok(()) => println!("# json report: {path}"),
                Err(e) => plateau_obs::warn!("failed to write {path}: {e}"),
            }
        }
        self.record_perf_ledger();
        plateau_obs::finish_run();
        self.reports
    }

    /// Appends one perf-ledger record per report when `PLATEAU_PERF` is
    /// on. Peak bytes ride along when the counting allocator is live.
    fn record_perf_ledger(&self) {
        let Some(dir) = plateau_obs::Store::Perf.from_env() else {
            return;
        };
        let peak = match plateau_obs::alloc::profiling_active() {
            true => Some(plateau_obs::alloc::stats().peak_bytes),
            false => None,
        };
        let mut appended_to = None;
        for r in &self.reports {
            let mut rec = plateau_obs::perf::PerfRecord::new(&r.name, r.median_ns, r.p90_ns)
                .config("harness", Json::str(self.name.clone()));
            for (k, v) in &self.config {
                rec = rec.config(k, v.clone());
            }
            if let Some(bytes) = peak {
                rec = rec.peak_bytes(bytes);
            }
            match plateau_obs::perf::record_perf(&dir, &rec) {
                Ok(path) => appended_to = Some(path),
                Err(e) => plateau_obs::warn!("perf ledger append failed for {}: {e}", r.name),
            }
        }
        if let Some(path) = appended_to {
            println!(
                "# perf ledger: appended {} record(s) to {}",
                self.reports.len(),
                path.display()
            );
        }
    }

    fn run_one<T>(&mut self, name: String, options: BenchOptions, mut f: impl FnMut() -> T) {
        // Warmup, tracking the mean iteration time for calibration.
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        while warmup_start.elapsed() < options.warmup || warmup_iters == 0 {
            black_box(f());
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;

        // Batch size so a batch lasts at least min_batch.
        let batch = ((options.min_batch.as_secs_f64() / per_iter).ceil() as u64).max(1);

        let mut estimates_ns = Vec::with_capacity(options.samples);
        for _ in 0..options.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            estimates_ns.push(t0.elapsed().as_secs_f64() * 1e9 / batch as f64);
        }

        let report = Report {
            name,
            iterations: batch * options.samples as u64,
            median_ns: median(&estimates_ns),
            p90_ns: percentile(&estimates_ns, 0.9),
            mean_ns: mean(&estimates_ns),
            stddev_ns: stddev(&estimates_ns),
            min_ns: estimates_ns.iter().copied().fold(f64::INFINITY, f64::min),
            max_ns: estimates_ns.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        plateau_obs::debug!(
            "bench {}: median {}",
            report.name,
            format_ns(report.median_ns)
        );
        if plateau_obs::span::jsonl_active() {
            if let Json::Obj(mut pairs) = report.to_json() {
                pairs.insert(0, ("type".to_string(), Json::str("bench")));
                plateau_obs::span::write_jsonl_record(&Json::Obj(pairs));
            }
        }
        self.reports.push(report);
    }
}

/// A benchmark group handle (see [`Harness::group`]).
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    group: String,
    options: Option<BenchOptions>,
}

impl Group<'_> {
    /// Overrides the sample count for this group (criterion's
    /// `sample_size` knob).
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        let mut o = self.options.unwrap_or(self.harness.options);
        o.samples = samples.max(2);
        self.options = Some(o);
        self
    }

    /// Runs one benchmark now and records its report as `group/id`.
    pub fn bench<T>(&mut self, id: &str, f: impl FnMut() -> T) {
        let name = format!("{}/{}", self.group, id);
        let options = self.options.unwrap_or(self.harness.options);
        self.harness.run_one(name, options, f);
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (matches the perf-ledger read side).
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    fn stddev_matches_hand_computation() {
        // Sample stddev of {1, 2, 3, 4} is sqrt(5/3).
        let s = stddev(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn harness_measures_and_labels() {
        let mut h = Harness::new("selftest").quick();
        let mut calls = 0u64;
        h.group("g").bench("noop", || calls += 1);
        let reports = h.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].name, "g/noop");
        assert!(reports[0].iterations > 0);
        assert!(calls >= reports[0].iterations);
        assert!(reports[0].min_ns <= reports[0].median_ns);
        assert!(reports[0].median_ns <= reports[0].max_ns);
    }

    #[test]
    fn sample_size_override_applies() {
        let mut h = Harness::new("selftest2").quick();
        h.group("g").sample_size(3).bench("noop", || ());
        let reports = h.finish();
        assert!(reports[0].iterations >= 3);
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(12.3), "12.3 ns");
        assert_eq!(format_ns(12_300.0), "12.30 µs");
        assert_eq!(format_ns(12_300_000.0), "12.30 ms");
        assert_eq!(format_ns(2.5e9), "2.50 s");
    }
}
