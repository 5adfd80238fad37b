//! The perf ledger: an append-only history of benchmark results.
//!
//! With the [`Store::Perf`] switch on (`PLATEAU_PERF`, which the bench
//! harness resolves once; off by default so test runs never pollute the
//! history), every bench bin appends one
//! `{"type":"perf",...}` record per benchmark to `<dir>/perf.jsonl`: git
//! revision, bench id, config, median and p90 wall time, peak heap bytes
//! (when a [`CountingAllocator`](crate::alloc::CountingAllocator) is
//! profiling) and core count. Unlike the `BENCH_*.json` files, which each
//! `--record` overwrites, the history accumulates. The read side groups
//! records by bench id: [`trends`] fits a least-squares line through each
//! bench's medians and [`trend_svg`] plots it; [`regress`] compares the
//! latest record against the *median of its recorded history*, which a
//! single outlier run cannot move the way it moves a frozen baseline.

use std::io;
use std::path::{Path, PathBuf};

use plateau_stats::{fit_line, LineFit};

use crate::alloc::fmt_bytes;
use crate::json::Json;
use crate::span::fmt_duration;
use crate::store::{self, Header, Record, Store};

/// One benchmark result headed for the ledger. The ledger adds the
/// timestamp, git revision, and core count itself.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    bench: String,
    config: Vec<(String, Json)>,
    median_ns: f64,
    p90_ns: f64,
    peak_bytes: Option<u64>,
}

impl PerfRecord {
    /// A record for the named benchmark (e.g. `"training_step/serial"`).
    pub fn new(bench: &str, median_ns: f64, p90_ns: f64) -> PerfRecord {
        PerfRecord {
            bench: bench.to_string(),
            config: Vec::new(),
            median_ns,
            p90_ns,
            peak_bytes: None,
        }
    }

    /// Adds one config pair (builder style).
    pub fn config(mut self, key: &str, value: Json) -> PerfRecord {
        self.config.push((key.to_string(), value));
        self
    }

    /// Stamps the peak heap footprint observed during the bench.
    pub fn peak_bytes(mut self, bytes: u64) -> PerfRecord {
        self.peak_bytes = Some(bytes);
        self
    }
}

/// Appends one record to `<dir>/perf.jsonl`. Returns the file path.
pub fn record_perf(dir: &Path, record: &PerfRecord) -> io::Result<PathBuf> {
    let doc = Record::new("perf")
        .ts_unix(1000)
        .field("bench", Json::str(&record.bench))
        .git()
        .config(record.config.clone())
        .field("median_ns", Json::Num(record.median_ns))
        .field("p90_ns", Json::Num(record.p90_ns))
        .field("peak_bytes", record.peak_bytes.map_or(Json::Null, |b| Json::Num(b as f64)))
        .cores()
        .build();
    let path = store::append(dir, Store::Perf.file(), &doc)?;
    crate::debug!("perf ledger: recorded {} ({})", record.bench, fmt_duration(record.median_ns as u64));
    Ok(path)
}

// ---------------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------------

/// One parsed perf record.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// Unix timestamp (seconds).
    pub ts_unix: f64,
    /// `git describe` at record time.
    pub git: String,
    /// Bench id, e.g. `training_step/serial`.
    pub bench: String,
    /// Config pairs, stringified.
    pub config: Vec<(String, String)>,
    /// Median wall time.
    pub median_ns: f64,
    /// 90th-percentile wall time.
    pub p90_ns: f64,
    /// Peak heap bytes, when the bench profiled allocations.
    pub peak_bytes: Option<f64>,
    /// Core count of the recording machine.
    pub cores: usize,
}

fn parse_entry(doc: &Json) -> Option<PerfEntry> {
    let header = Header::read(doc, "perf")?;
    Some(PerfEntry {
        ts_unix: header.ts_unix,
        git: header.git,
        bench: doc.get("bench")?.as_str()?.to_string(),
        config: header.config,
        median_ns: doc.get("median_ns").and_then(Json::as_f64)?,
        p90_ns: doc.get("p90_ns").and_then(Json::as_f64).unwrap_or(f64::NAN),
        peak_bytes: doc.get("peak_bytes").and_then(Json::as_f64),
        cores: header.cores,
    })
}

/// A loaded perf history.
#[derive(Debug, Clone)]
pub struct PerfLedger {
    /// The directory the history was read from.
    pub dir: PathBuf,
    /// Records in file (chronological append) order.
    pub entries: Vec<PerfEntry>,
    /// Non-fatal parse warnings (e.g. a torn final line).
    pub warnings: Vec<String>,
}

impl PerfLedger {
    /// Reads `<dir>/perf.jsonl`. A torn final line (a crashed writer)
    /// becomes a warning; corruption anywhere else is an error, as is a
    /// missing or empty file.
    pub fn load(dir: &Path) -> Result<PerfLedger, String> {
        let (entries, warnings) = Store::Perf.load(dir, parse_entry)?;
        Ok(PerfLedger {
            dir: dir.to_path_buf(),
            entries,
            warnings,
        })
    }

    /// Unique bench ids, sorted.
    pub fn benches(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.iter().map(|e| e.bench.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// The history of one bench, in append order.
    pub fn history(&self, bench: &str) -> Vec<&PerfEntry> {
        self.entries.iter().filter(|e| e.bench == bench).collect()
    }

    /// Renders the `obs perf list` table.
    pub fn render_list(&self) -> String {
        let mut out = format!(
            "# perf ledger {} — {} record(s), {} bench(es)\n",
            self.dir.display(),
            self.entries.len(),
            self.benches().len()
        );
        out.push_str(&format!(
            "{:<32} {:>12} {:>12} {:>10} {:>6}  {}\n",
            "bench", "median", "p90", "peak", "cores", "git"
        ));
        for e in &self.entries {
            let peak = e
                .peak_bytes
                .map_or_else(|| "-".to_string(), |b| fmt_bytes(b as u64));
            let p90 = if e.p90_ns.is_finite() {
                fmt_duration(e.p90_ns as u64)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "{:<32} {:>12} {:>12} {:>10} {:>6}  {}\n",
                e.bench,
                fmt_duration(e.median_ns as u64),
                p90,
                peak,
                e.cores,
                e.git
            ));
        }
        out
    }
}

fn median_of(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Trend summary for one bench.
#[derive(Debug, Clone)]
pub struct BenchTrend {
    /// Bench id.
    pub bench: String,
    /// Number of recorded runs.
    pub runs: usize,
    /// Median of the latest record.
    pub latest_ns: f64,
    /// Mean of the recorded medians.
    pub mean_ns: f64,
    /// OLS fit of median vs run index, when ≥ 2 runs exist.
    pub fit: Option<LineFit>,
}

impl BenchTrend {
    /// Fitted slope as a percentage of the mean per recorded run
    /// (positive = getting slower).
    pub fn pct_per_run(&self) -> Option<f64> {
        let fit = self.fit.as_ref()?;
        if self.mean_ns > 0.0 {
            Some(100.0 * fit.slope / self.mean_ns)
        } else {
            None
        }
    }
}

/// Per-bench trend fits over the recorded history. `filter` restricts to
/// bench ids starting with the given prefix.
pub fn trends(ledger: &PerfLedger, filter: Option<&str>) -> Vec<BenchTrend> {
    ledger
        .benches()
        .into_iter()
        .filter(|b| filter.is_none_or(|f| b.starts_with(f)))
        .map(|bench| {
            let medians: Vec<f64> = ledger.history(&bench).iter().map(|e| e.median_ns).collect();
            let xs: Vec<f64> = (0..medians.len()).map(|i| i as f64).collect();
            let mean = medians.iter().sum::<f64>() / medians.len() as f64;
            BenchTrend {
                bench,
                runs: medians.len(),
                latest_ns: *medians.last().expect("history is non-empty"),
                mean_ns: mean,
                fit: fit_line(&xs, &medians).ok(),
            }
        })
        .collect()
}

/// Renders the `obs perf trend` table.
pub fn render_trend(trends: &[BenchTrend]) -> String {
    let mut out = format!(
        "{:<32} {:>5} {:>12} {:>12} {:>14} {:>8}\n",
        "bench", "runs", "latest", "mean", "slope/run", "r2"
    );
    for t in trends {
        let (slope, r2) = match (&t.fit, t.pct_per_run()) {
            (Some(fit), Some(pct)) => (format!("{pct:+.2}%"), format!("{:.3}", fit.r_squared)),
            _ => ("-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<32} {:>5} {:>12} {:>12} {:>14} {:>8}\n",
            t.bench,
            t.runs,
            fmt_duration(t.latest_ns as u64),
            fmt_duration(t.mean_ns as u64),
            slope,
            r2
        ));
    }
    out
}

/// A standalone SVG of every (filtered) bench's median history in
/// milliseconds, one curve per bench, via the shared series plotter.
pub fn trend_svg(ledger: &PerfLedger, filter: Option<&str>) -> String {
    let curves: Vec<(String, Vec<(f64, f64)>)> = ledger
        .benches()
        .into_iter()
        .filter(|b| filter.is_none_or(|f| b.starts_with(f)))
        .map(|bench| {
            let pts = ledger
                .history(&bench)
                .iter()
                .enumerate()
                .map(|(i, e)| (i as f64, e.median_ns / 1e6))
                .collect();
            (bench, pts)
        })
        .collect();
    crate::runs::series_svg(
        &format!("perf trend (median ms per recorded run) — {}", ledger.dir.display()),
        &curves,
    )
}

/// One detected regression.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Bench id.
    pub bench: String,
    /// `"median"` or `"peak_bytes"`.
    pub kind: &'static str,
    /// Median of the prior history.
    pub baseline: f64,
    /// The latest record's value.
    pub latest: f64,
    /// `latest / baseline`.
    pub ratio: f64,
}

/// The `obs perf regress` verdict.
#[derive(Debug, Clone)]
pub struct RegressReport {
    /// Benches with enough history to check.
    pub checked: Vec<String>,
    /// Benches skipped for insufficient history (< 2 records).
    pub skipped: Vec<String>,
    /// Detected regressions.
    pub regressions: Vec<Regression>,
}

impl RegressReport {
    /// Renders the human-readable verdict.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = format!(
            "# perf regress: {} bench(es) checked against history, threshold +{:.0}%\n",
            self.checked.len(),
            100.0 * threshold
        );
        for b in &self.skipped {
            out.push_str(&format!("# {b}: skipped (needs ≥ 2 recorded runs)\n"));
        }
        for r in &self.regressions {
            let (base, latest) = if r.kind == "median" {
                (fmt_duration(r.baseline as u64), fmt_duration(r.latest as u64))
            } else {
                (fmt_bytes(r.baseline as u64), fmt_bytes(r.latest as u64))
            };
            out.push_str(&format!(
                "REGRESSION {} ({}): {} -> {} (x{:.2})\n",
                r.bench, r.kind, base, latest, r.ratio
            ));
        }
        if self.regressions.is_empty() {
            out.push_str("# no regressions\n");
        }
        out
    }
}

/// Compares each bench's latest record against the median of its prior
/// history. A bench regresses when `latest > baseline * (1 + threshold)`
/// — for wall time always, and for peak bytes when both the latest record
/// and some prior record carry a footprint.
pub fn regress(ledger: &PerfLedger, threshold: f64, filter: Option<&str>) -> RegressReport {
    let mut report = RegressReport {
        checked: Vec::new(),
        skipped: Vec::new(),
        regressions: Vec::new(),
    };
    for bench in ledger.benches() {
        if !filter.is_none_or(|f| bench.starts_with(f)) {
            continue;
        }
        let history = ledger.history(&bench);
        if history.len() < 2 {
            report.skipped.push(bench);
            continue;
        }
        let (prior, latest) = history.split_at(history.len() - 1);
        let latest = latest[0];
        let baseline = median_of(&prior.iter().map(|e| e.median_ns).collect::<Vec<_>>());
        if baseline > 0.0 && latest.median_ns > baseline * (1.0 + threshold) {
            report.regressions.push(Regression {
                bench: bench.clone(),
                kind: "median",
                baseline,
                latest: latest.median_ns,
                ratio: latest.median_ns / baseline,
            });
        }
        if let Some(peak) = latest.peak_bytes {
            let prior_peaks: Vec<f64> = prior.iter().filter_map(|e| e.peak_bytes).collect();
            if !prior_peaks.is_empty() {
                let base_peak = median_of(&prior_peaks);
                if base_peak > 0.0 && peak > base_peak * (1.0 + threshold) {
                    report.regressions.push(Regression {
                        bench: bench.clone(),
                        kind: "peak_bytes",
                        baseline: base_peak,
                        latest: peak,
                        ratio: peak / base_peak,
                    });
                }
            }
        }
        report.checked.push(bench);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("plateau_perf_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn record_append_and_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let rec = PerfRecord::new("training_step/serial", 35e6, 37e6)
            .config("qubits", Json::from(10usize))
            .peak_bytes(1 << 20);
        let path = record_perf(&dir, &rec).unwrap();
        assert_eq!(path, dir.join(Store::Perf.file()));
        record_perf(&dir, &PerfRecord::new("training_step/fused", 14e6, 15e6)).unwrap();

        let ledger = PerfLedger::load(&dir).expect("load");
        assert_eq!(ledger.entries.len(), 2);
        assert_eq!(
            ledger.benches(),
            vec!["training_step/fused".to_string(), "training_step/serial".to_string()]
        );
        let serial = &ledger.entries[0];
        assert_eq!(serial.bench, "training_step/serial");
        assert_eq!(serial.median_ns, 35e6);
        assert_eq!(serial.p90_ns, 37e6);
        assert_eq!(serial.peak_bytes, Some((1u64 << 20) as f64));
        assert!(serial.cores >= 1);
        assert_eq!(
            serial.config,
            vec![("qubits".to_string(), "10".to_string())]
        );
        assert!(ledger.entries[1].peak_bytes.is_none());
        let list = ledger.render_list();
        assert!(list.contains("training_step/serial"), "{list}");
        assert!(list.contains("1.0MiB"), "{list}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn synthetic(dir: &Path, bench: &str, medians: &[f64]) {
        std::fs::create_dir_all(dir).unwrap();
        let mut text = String::new();
        for (i, m) in medians.iter().enumerate() {
            text.push_str(&format!(
                "{{\"type\":\"perf\",\"ts_unix\":{},\"bench\":\"{bench}\",\"git\":\"abc\",\"config\":{{}},\"median_ns\":{m},\"p90_ns\":{},\"peak_bytes\":null,\"cores\":4}}\n",
                1000 + i,
                m * 1.1
            ));
        }
        let path = dir.join(Store::Perf.file());
        let prior = std::fs::read_to_string(&path).unwrap_or_default();
        std::fs::write(&path, prior + &text).unwrap();
    }

    #[test]
    fn trend_fits_slope_over_history() {
        let dir = temp_dir("trend");
        synthetic(&dir, "bench/a", &[100.0, 110.0, 120.0, 130.0]);
        let ledger = PerfLedger::load(&dir).unwrap();
        let ts = trends(&ledger, None);
        assert_eq!(ts.len(), 1);
        let t = &ts[0];
        assert_eq!(t.runs, 4);
        assert_eq!(t.latest_ns, 130.0);
        let fit = t.fit.as_ref().expect("fit");
        assert!((fit.slope - 10.0).abs() < 1e-9, "slope {}", fit.slope);
        assert!(t.pct_per_run().unwrap() > 8.0);
        let svg = trend_svg(&ledger, None);
        assert!(svg.contains("</svg>"));
        assert!(svg.contains("bench/a"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn regress_flags_injected_slowdown_and_passes_replayed_history() {
        let dir = temp_dir("regress");
        synthetic(&dir, "bench/slow", &[100.0, 102.0, 98.0, 1000.0]);
        synthetic(&dir, "bench/steady", &[50.0, 51.0, 49.0, 50.0]);
        synthetic(&dir, "bench/new", &[10.0]);
        let ledger = PerfLedger::load(&dir).unwrap();
        let report = regress(&ledger, 0.5, None);
        assert_eq!(report.skipped, vec!["bench/new".to_string()]);
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.bench, "bench/slow");
        assert_eq!(r.kind, "median");
        assert!(r.ratio > 9.0, "ratio {}", r.ratio);
        let rendered = report.render(0.5);
        assert!(rendered.contains("REGRESSION bench/slow"), "{rendered}");

        // Filtering to the steady bench passes clean.
        let clean = regress(&ledger, 0.5, Some("bench/steady"));
        assert!(clean.regressions.is_empty());
        assert_eq!(clean.checked, vec!["bench/steady".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
