//! The global metrics registry: counters, gauges, and log₂-scale
//! histograms.
//!
//! Metrics are interned by name into a process-global registry and handed
//! out as `&'static` references, so the hot path never touches the
//! registry lock — the `counter!`/`gauge!`/`histogram!` macros cache the
//! reference in a per-call-site `OnceLock`. Updates are relaxed atomics
//! guarded by a single [`metrics_enabled`](crate::metrics_enabled) branch;
//! with metrics off, nothing is recorded and [`snapshot`] is empty.
//!
//! # Naming scheme
//!
//! `"<crate>.<subject>.<detail>"`, lowercase, dot-separated:
//! `sim.gate.rotation`, `grad.executions.adjoint`, `par.task_ns`,
//! `train.grad_norm`, `span.variance_cell_ns` (`_ns` suffix ⇒ the value is
//! nanoseconds).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::json::Json;
use crate::metrics_enabled;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing `u64` counter.
pub struct Counter {
    name: String,
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A no-op while metrics are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// The interned metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// A last-write-wins `f64` gauge.
pub struct Gauge {
    name: String,
    bits: AtomicU64,
    touched: AtomicBool,
}

impl Gauge {
    /// Records the latest value. A no-op while metrics are disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if metrics_enabled() {
            self.bits.store(v.to_bits(), Relaxed);
            self.touched.store(true, Relaxed);
        }
    }

    /// The most recently set value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }

    /// The interned metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn reset(&self) {
        self.bits.store(0, Relaxed);
        self.touched.store(false, Relaxed);
    }
}

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Bucket 0 holds exactly the value 0; bucket `k ≥ 1` holds values in
/// `[2^(k-1), 2^k - 1]`. 65 buckets cover the full `u64` range, so
/// recording never saturates or clips.
pub struct Histogram {
    name: String,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// The bucket index a value lands in: `0` for 0, else `64 - leading_zeros`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive `[lo, hi]` range of values covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
    if i == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (i - 1);
        let hi = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
        (lo, hi)
    }
}

impl Histogram {
    /// Records one sample. A no-op while metrics are disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// The interned metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-bucket sample counts (index ↔ [`bucket_bounds`]).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by locating the bucket
    /// holding the nearest-rank sample and interpolating linearly inside
    /// its `[lo, hi]` bounds. Exact to within one bucket (a factor of 2 on
    /// a log₂ scale); `None` with no samples or a `q` outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        Some(percentile_from_buckets(&self.bucket_counts(), count, q))
    }

    /// Aggregates the current state; `None` if no samples were recorded.
    pub fn summary(&self) -> Option<HistogramSummary> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let sum = self.sum.load(Relaxed);
        let buckets = self.bucket_counts();
        Some(HistogramSummary {
            count,
            sum,
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
            mean: sum as f64 / count as f64,
            approx_p50: percentile_from_buckets(&buckets, count, 0.5),
            approx_p90: percentile_from_buckets(&buckets, count, 0.9),
            approx_p99: percentile_from_buckets(&buckets, count, 0.99),
        })
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

/// Shared quantile kernel: nearest-rank bucket location plus linear
/// interpolation between that bucket's bounds. `count` must be the total
/// across `buckets` and nonzero.
fn percentile_from_buckets(buckets: &[u64; HISTOGRAM_BUCKETS], count: u64, q: f64) -> u64 {
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            let (lo, hi) = bucket_bounds(i);
            // Position of the ranked sample among this bucket's c samples,
            // spread evenly across the bucket's value range.
            let pos = rank - seen - 1;
            let frac = if c == 1 { 0.5 } else { pos as f64 / (c - 1) as f64 };
            return lo + ((hi - lo) as f64 * frac).round() as u64;
        }
        seen += c;
    }
    bucket_bounds(HISTOGRAM_BUCKETS - 1).1
}

/// Point-in-time aggregate of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (wrapping add; overflow is implausible for ns).
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// `sum / count`.
    pub mean: f64,
    /// Median estimate via bucket interpolation (± a factor of 2).
    pub approx_p50: u64,
    /// 90th-percentile estimate via bucket interpolation (± a factor of 2).
    pub approx_p90: u64,
    /// 99th-percentile estimate via bucket interpolation (± a factor of 2).
    pub approx_p99: u64,
}

struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    histograms: Vec<&'static Histogram>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: Vec::new(),
    gauges: Vec::new(),
    histograms: Vec::new(),
});

fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Interns (or retrieves) the counter named `name`. Prefer the
/// [`counter!`](crate::counter) macro, which caches this lookup.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = lock_registry();
    if let Some(c) = reg.counters.iter().find(|c| c.name == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        name: name.to_string(),
        value: AtomicU64::new(0),
    }));
    reg.counters.push(c);
    c
}

/// Interns (or retrieves) the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = lock_registry();
    if let Some(g) = reg.gauges.iter().find(|g| g.name == name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge {
        name: name.to_string(),
        bits: AtomicU64::new(0),
        touched: AtomicBool::new(false),
    }));
    reg.gauges.push(g);
    g
}

/// Interns (or retrieves) the histogram named `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = lock_registry();
    if let Some(h) = reg.histograms.iter().find(|h| h.name == name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram {
        name: name.to_string(),
        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
        min: AtomicU64::new(u64::MAX),
        max: AtomicU64::new(0),
    }));
    reg.histograms.push(h);
    h
}

/// A point-in-time view of every *touched* metric, sorted by name.
/// Registered-but-never-recorded metrics are omitted, so a run with
/// observability disabled snapshots as empty.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every nonzero counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge that was ever set.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every histogram with samples.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// True when no metric recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Renders as a `{"type":"metrics", ...}` JSONL record.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(n, s)| {
                    (
                        n.clone(),
                        Json::obj([
                            ("count", Json::Num(s.count as f64)),
                            ("sum", Json::Num(s.sum as f64)),
                            ("min", Json::Num(s.min as f64)),
                            ("max", Json::Num(s.max as f64)),
                            ("mean", Json::Num(s.mean)),
                            ("approx_p50", Json::Num(s.approx_p50 as f64)),
                            ("approx_p90", Json::Num(s.approx_p90 as f64)),
                            ("approx_p99", Json::Num(s.approx_p99 as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        crate::store::Record::new("metrics")
            .field("counters", counters)
            .field("gauges", gauges)
            .field("histograms", histograms)
            .build()
    }
}

/// Captures the current state of every touched metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock_registry();
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .iter()
        .filter(|c| c.get() != 0)
        .map(|c| (c.name.clone(), c.get()))
        .collect();
    let mut gauges: Vec<(String, f64)> = reg
        .gauges
        .iter()
        .filter(|g| g.touched.load(Relaxed))
        .map(|g| (g.name.clone(), g.get()))
        .collect();
    let mut histograms: Vec<(String, HistogramSummary)> = reg
        .histograms
        .iter()
        .filter_map(|h| h.summary().map(|s| (h.name.clone(), s)))
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Zeroes every registered metric. Intended for tests and the CI overhead
/// gate; production code should snapshot instead.
pub fn reset() {
    let reg = lock_registry();
    for c in &reg.counters {
        c.reset();
    }
    for g in &reg.gauges {
        g.reset();
    }
    for h in &reg.histograms {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_metrics_enabled, test_lock};

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(10), (512, 1023));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 4, 5, 255, 256, 1 << 20, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "v={v} lo={lo} hi={hi}");
        }
        // Buckets tile without gaps or overlaps.
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_bounds(i).0, bucket_bounds(i - 1).1 + 1);
        }
    }

    #[test]
    fn histogram_records_across_boundaries() {
        let _guard = test_lock();
        set_metrics_enabled(true);
        let h = histogram("test.metrics.hist_boundaries");
        h.reset();
        for v in [0u64, 1, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1, "zero bucket");
        assert_eq!(buckets[1], 2, "value 1 twice");
        assert_eq!(buckets[2], 2, "values 2 and 3");
        assert_eq!(buckets[3], 1, "value 4");
        assert_eq!(buckets[11], 1, "value 1024");
        let s = h.summary().expect("has samples");
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1035);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        // 4th of 7 samples is the first of bucket 2's two samples → its
        // interpolated position is the bucket's lower bound, 2.
        assert_eq!(s.approx_p50, 2);
        // 7th of 7 samples sits alone in bucket 11 → midpoint of [1024, 2047].
        assert_eq!(s.approx_p90, 1536);
        assert_eq!(s.approx_p99, 1536);
        set_metrics_enabled(false);
    }

    #[test]
    fn percentiles_track_exact_quantiles_on_synthetic_data() {
        let _guard = test_lock();
        set_metrics_enabled(true);
        let h = histogram("test.metrics.hist_percentiles");
        h.reset();
        // 1..=1000 uniformly: exact p50 = 500, p90 = 900, p99 = 990.
        let mut exact: Vec<u64> = (1..=1000u64).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for (q, exact_v) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let approx = h.percentile(q).unwrap();
            // A log₂ histogram promises the true quantile to within its
            // bucket, i.e. a factor of two either way.
            assert!(
                approx >= exact_v / 2 && approx <= exact_v * 2,
                "q={q}: approx {approx} vs exact {exact_v}"
            );
        }
        // Degenerate inputs.
        assert_eq!(h.percentile(-0.1), None);
        assert_eq!(h.percentile(1.5), None);
        assert_eq!(h.percentile(0.0), Some(1), "rank clamps to the minimum sample's bucket");
        h.reset();
        assert_eq!(h.percentile(0.5), None, "empty histogram has no quantiles");
        // A single sample lands every quantile in its own bucket.
        h.record(700);
        let p = h.percentile(0.99).unwrap();
        assert!(p >= 512 && p <= 1023, "single sample bucket [512,1023], got {p}");
        h.reset();
        set_metrics_enabled(false);
    }

    #[test]
    fn percentile_edge_cases_empty_single_and_boundaries() {
        let _guard = test_lock();
        set_metrics_enabled(true);
        let h = histogram("test.metrics.hist_percentile_edges");

        // Empty histogram: every q (valid or not) yields None.
        h.reset();
        for q in [0.0, 0.5, 1.0, -1.0, 2.0, f64::NAN] {
            assert_eq!(h.percentile(q), None, "empty histogram, q={q}");
        }

        // Single sample: a lone sample interpolates to its bucket's exact
        // midpoint at every valid q — the estimator has no spread to work
        // with, so q must not change the answer.
        h.record(700); // bucket [512, 1023], midpoint 512 + round(511 * 0.5)
        let mid = 512 + ((1023u64 - 512) as f64 * 0.5).round() as u64;
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(h.percentile(q), Some(mid), "single sample, q={q}");
        }
        h.reset();

        // A single zero sample: bucket 0 collapses to [0, 0], so the
        // interpolation is exact whatever q says.
        h.record(0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.percentile(q), Some(0));
        }
        h.reset();

        // Exact bucket-boundary interpolation: with every sample in one
        // bucket, the extreme quantiles land exactly on the bucket bounds
        // (frac = pos / (c − 1) hits 0 and 1), and the median sits exactly
        // on the midpoint for odd counts.
        let (lo, hi) = bucket_bounds(bucket_index(600));
        assert_eq!((lo, hi), (512, 1023));
        for v in [520, 600, 800] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(lo), "q=0 hits the lower bound exactly");
        assert_eq!(h.percentile(1.0), Some(hi), "q=1 hits the upper bound exactly");
        // rank 2 of 3 → pos 1, frac 1/2 → exact midpoint.
        assert_eq!(h.percentile(0.5), Some(lo + ((hi - lo) as f64 * 0.5).round() as u64));
        h.reset();

        // A power-of-two sample sits at the *lower* boundary of its bucket:
        // 1024 opens bucket [1024, 2047], it does not close [512, 1023].
        h.record(1024);
        let (lo2, hi2) = bucket_bounds(bucket_index(1024));
        assert_eq!(lo2, 1024);
        let p = h.percentile(0.5).unwrap();
        assert!(p >= lo2 && p <= hi2, "boundary sample left its bucket: {p}");
        h.reset();

        // Two buckets, one sample each: q low enough ranks into the first
        // bucket, q=1.0 into the second — each interpolated to its own
        // bucket midpoint, never a value between buckets.
        h.record(3); // bucket [2, 3]
        h.record(40); // bucket [32, 63]
        assert_eq!(h.percentile(0.5), Some(3), "rank 1 of 2 stays in [2,3]");
        let top = h.percentile(1.0).unwrap();
        assert!((32..=63).contains(&top), "rank 2 of 2 must sit in [32,63]: {top}");
        h.reset();
        set_metrics_enabled(false);
    }

    #[test]
    fn disabled_metrics_record_nothing_and_snapshot_empty() {
        let _guard = test_lock();
        set_metrics_enabled(false);
        reset();
        let c = counter("test.metrics.disabled_counter");
        let g = gauge("test.metrics.disabled_gauge");
        let h = histogram("test.metrics.disabled_hist");
        c.inc();
        c.add(10);
        g.set(3.5);
        h.record(42);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert!(h.summary().is_none());
        assert!(snapshot().is_empty(), "disabled run must snapshot empty");
    }

    #[test]
    fn snapshot_reports_touched_metrics_sorted() {
        let _guard = test_lock();
        set_metrics_enabled(true);
        reset();
        counter("test.metrics.z_counter").add(3);
        counter("test.metrics.a_counter").add(1);
        gauge("test.metrics.gauge").set(-2.5);
        histogram("test.metrics.hist").record(100);
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.a_counter"), Some(1));
        assert_eq!(snap.counter("test.metrics.z_counter"), Some(3));
        assert_eq!(snap.gauge("test.metrics.gauge"), Some(-2.5));
        assert_eq!(snap.histogram("test.metrics.hist").unwrap().count, 1);
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "counters sorted by name");
        // A gauge explicitly set to zero still shows up (touched flag).
        gauge("test.metrics.zero_gauge").set(0.0);
        assert_eq!(snapshot().gauge("test.metrics.zero_gauge"), Some(0.0));
        reset();
        assert!(snapshot().is_empty());
        set_metrics_enabled(false);
    }

    #[test]
    fn interning_returns_the_same_instance() {
        let _guard = test_lock();
        let a = counter("test.metrics.interned") as *const Counter;
        let b = counter("test.metrics.interned") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_to_json_parses_back() {
        let _guard = test_lock();
        set_metrics_enabled(true);
        reset();
        counter("test.metrics.json_counter").add(7);
        histogram("test.metrics.json_hist").record(1000);
        let json = snapshot().to_json();
        let parsed = Json::parse(&json.to_string()).expect("valid JSON");
        assert_eq!(parsed.get("type").unwrap().as_str(), Some("metrics"));
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("test.metrics.json_counter")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
        assert_eq!(
            parsed
                .get("histograms")
                .unwrap()
                .get("test.metrics.json_hist")
                .unwrap()
                .get("count")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        reset();
        set_metrics_enabled(false);
    }
}
