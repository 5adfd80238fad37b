//! Bounded gradient-dynamics recorder: a fixed-capacity, fixed-column
//! time series with deterministic decimation.
//!
//! Training loops push one row per iteration (loss, gradient norm, BP
//! score, per-layer gradient variances…); when the buffer fills it drops
//! every other retained row and doubles its sampling stride, so memory
//! stays bounded at `capacity` rows while the retained rows remain an
//! evenly spaced subsample of the full run — a 10⁶-iteration run and a
//! 10²-iteration run produce equally plottable curves. The recorder is
//! plain owned data (no global registry, no locks): the disabled path in
//! a hot loop is simply "no [`TimeSeries`] exists", which costs nothing
//! and allocates nothing.
//!
//! Serialization is JSON Lines through the in-repo [`Json`] writer: one
//! `{"type":"series_header",...}` record followed by one
//! `{"type":"sample","x":..,"v":[..]}` record per retained row. Missing
//! values are `f64::NAN` in memory and `null` on disk, in both
//! directions.

use std::io::{self, Write};
use std::path::Path;

use crate::json::Json;
use crate::store::{self, Record};

/// A bounded multi-column time series (see module docs).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    columns: Vec<String>,
    /// The x value (iteration index, qubit count, …) of each retained row.
    index: Vec<f64>,
    /// Row-major values; every row has exactly `columns.len()` entries.
    rows: Vec<Vec<f64>>,
    capacity: usize,
    /// Record every `stride`-th push; doubles on each decimation.
    stride: usize,
    /// Total pushes observed, including ones skipped by the stride.
    pushed: usize,
}

/// Equality over the recorded *data* (columns, rows, push count,
/// stride), ignoring the capacity policy — so a series that round-trips
/// through JSONL (which does not persist capacity) compares equal.
impl PartialEq for TimeSeries {
    fn eq(&self, other: &TimeSeries) -> bool {
        self.columns == other.columns
            && self.index == other.index
            && self.rows == other.rows
            && self.pushed == other.pushed
            && self.stride == other.stride
    }
}

impl TimeSeries {
    /// A recorder with the given column names retaining at most
    /// `capacity` rows (clamped to at least 2 so decimation can halve).
    pub fn new<S: Into<String>>(columns: Vec<S>, capacity: usize) -> TimeSeries {
        let capacity = capacity.max(2);
        // Preallocate for the common (small) capacities only; a parsed
        // series uses an unbounded capacity and grows on demand.
        let prealloc = capacity.min(4096);
        TimeSeries {
            columns: columns.into_iter().map(Into::into).collect(),
            index: Vec::with_capacity(prealloc),
            rows: Vec::with_capacity(prealloc),
            capacity,
            stride: 1,
            pushed: 0,
        }
    }

    /// Offers one sample. Retained only when the current stride selects
    /// it; decimates (drop every other row, double the stride) when the
    /// buffer is full, so pushes are O(1) amortized and memory is O(capacity).
    ///
    /// # Panics
    /// When `values.len()` differs from the column count.
    pub fn push(&mut self, x: f64, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "TimeSeries::push: {} values for {} columns",
            values.len(),
            self.columns.len()
        );
        let selected = self.pushed % self.stride == 0;
        self.pushed += 1;
        if !selected {
            return;
        }
        if self.rows.len() == self.capacity {
            // Keep rows 0, 2, 4, … — exactly the pushes at multiples of
            // the doubled stride, so the retained set stays evenly spaced.
            let mut keep = 0usize;
            for i in (0..self.rows.len()).step_by(2) {
                self.index.swap(keep, i);
                self.rows.swap(keep, i);
                keep += 1;
            }
            self.index.truncate(keep);
            self.rows.truncate(keep);
            self.stride *= 2;
            // The push we are handling was selected under the old stride;
            // re-check under the new one (push index is self.pushed - 1).
            if (self.pushed - 1) % self.stride != 0 {
                return;
            }
        }
        self.index.push(x);
        self.rows.push(values.to_vec());
    }

    /// Column names, in storage order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of retained rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are retained.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total pushes observed (retained or not).
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Current sampling stride (1 until the first decimation).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The x values of the retained rows.
    pub fn index(&self) -> &[f64] {
        &self.index
    }

    /// The retained rows, row-major.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The `(x, value)` pairs of one named column, skipping NaN entries.
    pub fn column(&self, name: &str) -> Option<Vec<(f64, f64)>> {
        let c = self.columns.iter().position(|n| n == name)?;
        Some(
            self.index
                .iter()
                .zip(&self.rows)
                .filter(|(_, row)| row[c].is_finite())
                .map(|(&x, row)| (x, row[c]))
                .collect(),
        )
    }

    /// Serializes to JSONL: a header record then one record per row.
    /// NaN/inf serialize as `null` (the [`Json`] writer's behavior).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Record::new("series_header")
            .field("columns", Json::Arr(self.columns.iter().map(Json::str).collect()))
            .field("pushed", Json::from(self.pushed))
            .field("stride", Json::from(self.stride))
            .build();
        out.push_str(&header.to_string());
        out.push('\n');
        for (x, row) in self.index.iter().zip(&self.rows) {
            let rec = Record::new("sample")
                .field("x", Json::Num(*x))
                .field("v", Json::Arr(row.iter().map(|&v| Json::Num(v)).collect()))
                .build();
            out.push_str(&rec.to_string());
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL serialization to `path` (truncating).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())?;
        f.flush()
    }

    /// Parses a series back from its JSONL text. `null` values become
    /// NaN. Unknown record types are skipped so the format can grow. Any
    /// malformed line is an error, a torn final one included: a series
    /// is written whole before its ledger record points at it.
    pub fn parse_jsonl(text: &str) -> Result<TimeSeries, String> {
        let records = store::parse_jsonl(text)
            .and_then(store::Jsonl::strict)
            .map_err(|e| e.to_string())?;
        let mut series: Option<TimeSeries> = None;
        for (lineno, rec) in records {
            match rec.get("type").and_then(Json::as_str) {
                Some("series_header") => {
                    let columns: Vec<String> = rec
                        .get("columns")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("line {lineno}: header without columns"))?
                        .iter()
                        .filter_map(|c| c.as_str().map(String::from))
                        .collect();
                    let mut s = TimeSeries::new(columns, usize::MAX);
                    s.pushed = rec.get("pushed").and_then(Json::as_f64).unwrap_or(0.0) as usize;
                    s.stride = (rec.get("stride").and_then(Json::as_f64).unwrap_or(1.0) as usize).max(1);
                    series = Some(s);
                }
                Some("sample") => {
                    let s = series
                        .as_mut()
                        .ok_or_else(|| format!("line {lineno}: sample before header"))?;
                    let x = rec
                        .get("x")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("line {lineno}: sample without x"))?;
                    let v = rec
                        .get("v")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("line {lineno}: sample without v"))?;
                    if v.len() != s.columns.len() {
                        return Err(format!(
                            "line {lineno}: {} values for {} columns",
                            v.len(),
                            s.columns.len()
                        ));
                    }
                    let row: Vec<f64> =
                        v.iter().map(|j| j.as_f64().unwrap_or(f64::NAN)).collect();
                    s.index.push(x);
                    s.rows.push(row);
                }
                _ => {}
            }
        }
        series.ok_or_else(|| "no series_header record".to_string())
    }

    /// Reads and parses a series file written by [`write_jsonl`](Self::write_jsonl).
    pub fn read_jsonl(path: &Path) -> Result<TimeSeries, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        TimeSeries::parse_jsonl(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_1col(capacity: usize) -> TimeSeries {
        TimeSeries::new(vec!["loss"], capacity)
    }

    #[test]
    fn retains_everything_below_capacity() {
        let mut s = TimeSeries::new(vec!["loss", "grad_norm"], 16);
        for i in 0..10 {
            s.push(i as f64, &[i as f64, 2.0 * i as f64]);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.index()[9], 9.0);
        assert_eq!(s.rows()[3], vec![3.0, 6.0]);
        assert_eq!(s.column("grad_norm").unwrap()[4], (4.0, 8.0));
        assert!(s.column("missing").is_none());
    }

    #[test]
    fn decimation_keeps_evenly_spaced_subsample_and_bounds_memory() {
        let mut s = series_1col(8);
        for i in 0..1000 {
            s.push(i as f64, &[i as f64]);
        }
        assert!(s.len() <= 8, "len {} exceeds capacity", s.len());
        assert!(s.len() >= 4, "decimation dropped too much: {}", s.len());
        assert_eq!(s.pushed(), 1000);
        // Retained x values are exactly the multiples of the final stride.
        let stride = s.stride() as f64;
        for (k, &x) in s.index().iter().enumerate() {
            assert_eq!(x, k as f64 * stride, "row {k} not evenly spaced");
        }
        // The same pushes through a bigger buffer agree on shared rows.
        let mut big = series_1col(4096);
        for i in 0..1000 {
            big.push(i as f64, &[i as f64]);
        }
        for (&x, row) in s.index().iter().zip(s.rows()) {
            let pos = big.index().iter().position(|&bx| bx == x).unwrap();
            assert_eq!(&big.rows()[pos], row);
        }
    }

    #[test]
    fn decimation_is_deterministic() {
        let run = || {
            let mut s = series_1col(16);
            for i in 0..333 {
                s.push(i as f64, &[(i * 7 % 13) as f64]);
            }
            s
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn capacity_one_is_clamped_to_two_and_still_decimates() {
        let mut s = series_1col(1);
        for i in 0..100 {
            s.push(i as f64, &[i as f64]);
        }
        assert!(s.len() <= 2, "clamped capacity must bound retention: {}", s.len());
        assert!(!s.is_empty());
        assert_eq!(s.pushed(), 100);
        // Row 0 is always push 0 — decimation keeps even-indexed rows.
        assert_eq!(s.index()[0], 0.0);
        let stride = s.stride() as f64;
        for (k, &x) in s.index().iter().enumerate() {
            assert_eq!(x, k as f64 * stride);
        }
    }

    #[test]
    fn pushing_exactly_capacity_rows_never_decimates() {
        let mut s = series_1col(8);
        for i in 0..8 {
            s.push(i as f64, &[i as f64]);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.stride(), 1, "a full-but-not-overfull buffer keeps every row");
        // The very next push triggers exactly one decimation.
        s.push(8.0, &[8.0]);
        assert_eq!(s.stride(), 2);
        assert_eq!(s.len(), 5, "4 survivors + the newly selected push 8");
        assert_eq!(s.index(), &[0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn nan_only_column_extracts_as_empty_not_missing() {
        let mut s = TimeSeries::new(vec!["loss", "bp_score"], 8);
        for i in 0..4 {
            s.push(i as f64, &[i as f64, f64::NAN]);
        }
        // The column exists, every row is NaN: Some(empty), not None.
        assert_eq!(s.column("bp_score"), Some(vec![]));
        assert_eq!(s.column("loss").unwrap().len(), 4);
        assert!(s.column("absent").is_none());
    }

    #[test]
    fn jsonl_round_trip_preserves_rows_and_nan() {
        let mut s = TimeSeries::new(vec!["loss", "bp_score"], 32);
        s.push(0.0, &[1.0, f64::NAN]);
        s.push(1.0, &[0.5, -0.25]);
        let text = s.to_jsonl();
        assert!(text.contains("series_header"));
        assert!(text.contains("null"), "NaN must serialize as null: {text}");
        let back = TimeSeries::parse_jsonl(&text).unwrap();
        assert_eq!(back.columns(), s.columns());
        assert_eq!(back.len(), 2);
        assert_eq!(back.index(), s.index());
        assert_eq!(back.rows()[1], s.rows()[1]);
        assert!(back.rows()[0][1].is_nan(), "null must parse back to NaN");
        assert_eq!(back.pushed(), 2);
        // NaN rows are skipped by column() but the finite entry survives.
        assert_eq!(back.column("bp_score").unwrap(), vec![(1.0, -0.25)]);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(TimeSeries::parse_jsonl("").is_err());
        assert!(TimeSeries::parse_jsonl("{\"type\":\"sample\",\"x\":0,\"v\":[]}").is_err());
        let bad_width = "{\"type\":\"series_header\",\"columns\":[\"a\"]}\n{\"type\":\"sample\",\"x\":0,\"v\":[1,2]}";
        assert!(TimeSeries::parse_jsonl(bad_width).is_err());
        assert!(TimeSeries::parse_jsonl("not json").is_err());
    }

    #[test]
    #[should_panic(expected = "values for")]
    fn push_panics_on_column_mismatch() {
        let mut s = TimeSeries::new(vec!["a", "b"], 8);
        s.push(0.0, &[1.0]);
    }

    #[test]
    fn file_round_trip() {
        let mut s = series_1col(8);
        for i in 0..5 {
            s.push(i as f64, &[1.0 / (1.0 + i as f64)]);
        }
        let path = std::env::temp_dir()
            .join(format!("plateau_obs_series_{}.jsonl", std::process::id()));
        s.write_jsonl(&path).unwrap();
        let back = TimeSeries::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, s);
    }
}
