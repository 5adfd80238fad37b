//! The read side of the observability stack: parse a JSONL trace,
//! rebuild the span forest, and aggregate per span name.
//!
//! A trace is the file written by the JSONL sink (`--metrics-out` /
//! `PLATEAU_METRICS_OUT`): one JSON object per line, mixing `manifest`,
//! `span`, `event`, and `metrics` records. Span records carry a monotonic
//! `id` and the `id` of their innermost enclosing span (`parent`), so the
//! forest is reconstructed directly from the links. Traces recorded before
//! ids existed are still readable: spans close in child-before-parent
//! order, so the `depth` field alone determines the tree.
//!
//! Robustness rules (aborted runs must stay diagnosable):
//! - a torn *final* line (crash mid-write) is skipped with a warning, by
//!   the [`store`](crate::store) reader's rule;
//! - a malformed line anywhere else is a hard [`TraceError::Malformed`];
//! - a span whose `parent` id never closed (crash before the parent's
//!   drop) becomes a root, with a warning;
//! - a trace with no span records at all is [`TraceError::Empty`].

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::alloc::fmt_bytes;
use crate::json::Json;
use crate::span::fmt_duration;
use crate::store;

/// Failure while reading or interpreting a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A line (other than a torn final line) is not valid JSON.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Parser diagnostic.
        message: String,
    },
    /// The trace holds no span records (or no records at all).
    Empty(String),
    /// A baseline document is structurally wrong.
    BadBaseline(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceError::Malformed { line, message } => {
                write!(f, "malformed trace line {line}: {message}")
            }
            TraceError::Empty(what) => write!(f, "empty trace: {what}"),
            TraceError::BadBaseline(msg) => write!(f, "bad baseline: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

/// One closed span, as read back from the trace.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Monotonic span id (0 when the trace predates ids).
    pub id: u64,
    /// Id of the enclosing span, if any survived in the trace.
    pub parent: Option<u64>,
    /// Span name (the `span!` macro's first argument).
    pub name: String,
    /// Wall time between entry and drop.
    pub duration_ns: u64,
    /// Nesting depth recorded at drop.
    pub depth: usize,
    /// Wall time not covered by child spans (filled during tree build).
    pub self_ns: u64,
    /// Bytes allocated on the span's thread while it was open (0 when the
    /// trace was recorded without allocation profiling).
    pub alloc_bytes: u64,
    /// Allocation count on the span's thread while it was open.
    pub alloc_count: u64,
    /// High-water-mark rise above the live footprint at span entry.
    pub peak_bytes: u64,
    /// Allocated bytes not attributed to child spans (filled during tree
    /// build, like `self_ns`).
    pub self_alloc_bytes: u64,
    /// Indices (into [`Trace::spans`]) of direct children, in close order.
    pub children: Vec<usize>,
}

/// A parsed trace: the span forest plus run metadata.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Every span record, in file (= close) order.
    pub spans: Vec<SpanNode>,
    /// Indices of root spans, in close order.
    pub roots: Vec<usize>,
    /// `command` from the manifest record, when present.
    pub command: Option<String>,
    /// `git` from the manifest record, when present.
    pub git: Option<String>,
    /// Number of `event` records seen (not part of the tree).
    pub events: usize,
    /// Non-fatal anomalies encountered while reading.
    pub warnings: Vec<String>,
}

impl Trace {
    /// Reads and reconstructs a trace from a JSONL file.
    ///
    /// # Errors
    ///
    /// See [`TraceError`]; a torn final line is tolerated (warning), any
    /// other malformed line is not.
    pub fn read(path: &Path) -> Result<Trace, TraceError> {
        Trace::parse(&std::fs::read_to_string(path)?)
    }

    /// Parses a trace from in-memory text (tests, tools).
    ///
    /// # Errors
    ///
    /// Same contract as [`Trace::read`].
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let jsonl = store::parse_jsonl(text)
            .map_err(|b| TraceError::Malformed { line: b.line, message: b.message })?;
        let (records, mut warnings) = jsonl.tolerant();
        if records.is_empty() {
            return Err(TraceError::Empty("no records".into()));
        }
        let mut spans: Vec<SpanNode> = Vec::new();
        let mut command = None;
        let mut git = None;
        let mut events = 0usize;
        for rec in &records {
            match rec.get("type").and_then(Json::as_str) {
                Some("span") => {
                    let Some(name) = rec.get("name").and_then(Json::as_str) else {
                        warnings.push("span record without a name skipped".into());
                        continue;
                    };
                    let num = |k: &str| rec.get(k).and_then(Json::as_f64);
                    spans.push(SpanNode {
                        id: num("id").map_or(0, |v| v as u64),
                        parent: rec
                            .get("parent")
                            .and_then(Json::as_f64)
                            .map(|v| v as u64),
                        name: name.to_string(),
                        duration_ns: num("duration_ns").map_or(0, |v| v as u64),
                        depth: num("depth").map_or(0, |v| v as usize),
                        self_ns: 0,
                        alloc_bytes: num("alloc_bytes").map_or(0, |v| v as u64),
                        alloc_count: num("alloc_count").map_or(0, |v| v as u64),
                        peak_bytes: num("peak_bytes").map_or(0, |v| v as u64),
                        self_alloc_bytes: 0,
                        children: Vec::new(),
                    });
                }
                Some("manifest") => {
                    command = rec.get("command").and_then(Json::as_str).map(String::from);
                    git = rec.get("git").and_then(Json::as_str).map(String::from);
                }
                Some("event") => events += 1,
                _ => {} // metrics snapshots and unknown record types
            }
        }
        if spans.is_empty() {
            return Err(TraceError::Empty("no span records".into()));
        }

        let have_ids = spans.iter().all(|s| s.id != 0);
        let mut roots = Vec::new();
        if have_ids {
            let index_of: BTreeMap<u64, usize> =
                spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
            if index_of.len() != spans.len() {
                warnings.push("duplicate span ids in trace; tree may be approximate".into());
            }
            for i in 0..spans.len() {
                match spans[i].parent {
                    Some(p) => match index_of.get(&p) {
                        Some(&pi) if pi != i => spans[pi].children.push(i),
                        _ => {
                            warnings.push(format!(
                                "span id {} names parent {} which never closed; treating as root",
                                spans[i].id, p
                            ));
                            roots.push(i);
                        }
                    },
                    None => roots.push(i),
                }
            }
        } else {
            // Legacy trace without ids: spans close child-before-parent, so
            // a span at depth d adopts every not-yet-claimed span at d+1
            // that closed before it.
            let mut unclaimed: Vec<Vec<usize>> = Vec::new();
            for i in 0..spans.len() {
                let d = spans[i].depth;
                if unclaimed.len() < d + 2 {
                    unclaimed.resize(d + 2, Vec::new());
                }
                spans[i].children = std::mem::take(&mut unclaimed[d + 1]);
                unclaimed[d].push(i);
            }
            roots.extend(unclaimed.first().cloned().unwrap_or_default());
            for orphans in unclaimed.iter().skip(1).filter(|v| !v.is_empty()) {
                warnings.push(format!(
                    "{} span(s) whose parent never closed; treating as roots",
                    orphans.len()
                ));
                roots.extend(orphans.iter().copied());
            }
        }

        // Self time (and self allocation): the span's own total minus what
        // its direct children account for.
        for i in 0..spans.len() {
            let (child_ns, child_bytes) = spans[i].children.iter().fold((0u64, 0u64), |acc, &c| {
                (acc.0 + spans[c].duration_ns, acc.1 + spans[c].alloc_bytes)
            });
            spans[i].self_ns = spans[i].duration_ns.saturating_sub(child_ns);
            spans[i].self_alloc_bytes = spans[i].alloc_bytes.saturating_sub(child_bytes);
        }

        Ok(Trace {
            spans,
            roots,
            command,
            git,
            events,
            warnings,
        })
    }

    /// Total wall time: the sum of root span durations.
    pub fn total_wall_ns(&self) -> u64 {
        self.roots.iter().map(|&r| self.spans[r].duration_ns).sum()
    }

    /// Maximum nesting depth of the reconstructed forest.
    pub fn max_depth(&self) -> usize {
        fn depth_of(trace: &Trace, i: usize) -> usize {
            1 + trace.spans[i]
                .children
                .iter()
                .map(|&c| depth_of(trace, c))
                .max()
                .unwrap_or(0)
        }
        self.roots.iter().map(|&r| depth_of(self, r)).max().unwrap_or(0)
    }
}

/// Aggregate statistics for all spans sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameStats {
    /// The span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of wall times.
    pub total_ns: u64,
    /// Sum of self times (wall minus direct children).
    pub self_ns: u64,
    /// Fastest single span.
    pub min_ns: u64,
    /// Slowest single span.
    pub max_ns: u64,
    /// `total_ns / count`.
    pub mean_ns: f64,
    /// Exact median of wall times (nearest rank).
    pub p50_ns: u64,
    /// Exact 90th percentile of wall times (nearest rank).
    pub p90_ns: u64,
    /// Exact 99th percentile of wall times (nearest rank).
    pub p99_ns: u64,
    /// Sum of allocated bytes (0 without allocation profiling).
    pub alloc_bytes: u64,
    /// Sum of self-allocated bytes (bytes minus direct children's).
    pub self_alloc_bytes: u64,
    /// Sum of allocation counts.
    pub alloc_count: u64,
    /// Largest single-span peak delta.
    pub peak_bytes: u64,
}

/// Ranking weight for reports and flamegraphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankBy {
    /// Self wall time (the default).
    #[default]
    Time,
    /// Self-allocated bytes.
    Alloc,
    /// Peak footprint delta.
    Peak,
}

impl RankBy {
    /// Parses a `--by` value.
    pub fn parse(s: &str) -> Option<RankBy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "time" | "self" => Some(RankBy::Time),
            "alloc" | "bytes" | "mem" => Some(RankBy::Alloc),
            "peak" => Some(RankBy::Peak),
            _ => None,
        }
    }
}

/// The per-name aggregation of a trace, ready to rank, render, diff, or
/// commit as a baseline.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// One entry per distinct span name, sorted by self time, descending.
    pub stats: Vec<NameStats>,
    /// Total wall time across root spans.
    pub total_wall_ns: u64,
    /// Total number of spans in the trace.
    pub span_count: u64,
    /// `command` from the trace manifest.
    pub command: Option<String>,
    /// `git` from the trace manifest.
    pub git: Option<String>,
    /// Warnings inherited from trace reconstruction.
    pub warnings: Vec<String>,
}

/// Nearest-rank percentile of an already-sorted slice.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl Analysis {
    /// Aggregates a reconstructed trace per span name.
    pub fn of(trace: &Trace) -> Analysis {
        #[derive(Default)]
        struct Acc {
            durations: Vec<u64>,
            self_ns: u64,
            alloc_bytes: u64,
            self_alloc_bytes: u64,
            alloc_count: u64,
            peak_bytes: u64,
        }
        let mut by_name: BTreeMap<&str, Acc> = BTreeMap::new();
        for s in &trace.spans {
            let entry = by_name.entry(&s.name).or_default();
            entry.durations.push(s.duration_ns);
            entry.self_ns += s.self_ns;
            entry.alloc_bytes += s.alloc_bytes;
            entry.self_alloc_bytes += s.self_alloc_bytes;
            entry.alloc_count += s.alloc_count;
            entry.peak_bytes = entry.peak_bytes.max(s.peak_bytes);
        }
        let mut stats: Vec<NameStats> = by_name
            .into_iter()
            .map(|(name, mut acc)| {
                acc.durations.sort_unstable();
                let count = acc.durations.len() as u64;
                let total_ns: u64 = acc.durations.iter().sum();
                NameStats {
                    name: name.to_string(),
                    count,
                    total_ns,
                    self_ns: acc.self_ns,
                    min_ns: acc.durations[0],
                    max_ns: *acc.durations.last().expect("non-empty"),
                    mean_ns: total_ns as f64 / count as f64,
                    p50_ns: nearest_rank(&acc.durations, 0.5),
                    p90_ns: nearest_rank(&acc.durations, 0.9),
                    p99_ns: nearest_rank(&acc.durations, 0.99),
                    alloc_bytes: acc.alloc_bytes,
                    self_alloc_bytes: acc.self_alloc_bytes,
                    alloc_count: acc.alloc_count,
                    peak_bytes: acc.peak_bytes,
                }
            })
            .collect();
        stats.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        Analysis {
            stats,
            total_wall_ns: trace.total_wall_ns(),
            span_count: trace.spans.len() as u64,
            command: trace.command.clone(),
            git: trace.git.clone(),
            warnings: trace.warnings.clone(),
        }
    }

    /// Whether any span in the trace carried allocation attribution.
    pub fn has_alloc_data(&self) -> bool {
        self.stats
            .iter()
            .any(|s| s.alloc_bytes != 0 || s.alloc_count != 0 || s.peak_bytes != 0)
    }

    /// Re-sorts `stats` by the chosen weight, descending (name-tiebreak).
    pub fn rank_by(&mut self, by: RankBy) {
        let key = |s: &NameStats| match by {
            RankBy::Time => s.self_ns,
            RankBy::Alloc => s.self_alloc_bytes,
            RankBy::Peak => s.peak_bytes,
        };
        self.stats
            .sort_by(|a, b| key(b).cmp(&key(a)).then(a.name.cmp(&b.name)));
    }

    /// Restricts the analysis to span names starting with `prefix`
    /// (e.g. `"grad."`), recomputing the span count over the kept
    /// names. `total_wall_ns` still measures the whole trace so the
    /// rendered `self%` column keeps its meaning (share of the run, not
    /// share of the filtered subset).
    pub fn filter_prefix(&self, prefix: &str) -> Analysis {
        let stats: Vec<NameStats> = self
            .stats
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .cloned()
            .collect();
        let span_count = stats.iter().map(|s| s.count).sum();
        Analysis {
            stats,
            span_count,
            total_wall_ns: self.total_wall_ns,
            command: self.command.clone(),
            git: self.git.clone(),
            warnings: self.warnings.clone(),
        }
    }

    /// Renders the self-time ranking as an aligned text table, keeping the
    /// `top` hottest names (0 = all).
    pub fn render_report(&self, top: usize) -> String {
        let mut out = String::new();
        if let Some(cmd) = &self.command {
            out.push_str(&format!(
                "# trace: {cmd} (git {})\n",
                self.git.as_deref().unwrap_or("unknown")
            ));
        }
        out.push_str(&format!(
            "# {} spans across {} names, total wall {}\n",
            self.span_count,
            self.stats.len(),
            fmt_duration(self.total_wall_ns)
        ));
        for w in &self.warnings {
            out.push_str(&format!("# warning: {w}\n"));
        }
        let shown: &[NameStats] = if top == 0 || top >= self.stats.len() {
            &self.stats
        } else {
            &self.stats[..top]
        };
        let name_w = shown
            .iter()
            .map(|s| s.name.len())
            .chain(["name".len()])
            .max()
            .unwrap_or(4);
        // Memory columns appear only when the trace was recorded with
        // allocation profiling, so plain-trace output stays byte-stable.
        let with_alloc = self.has_alloc_data();
        out.push_str(&format!(
            "{:<name_w$}  {:>6}  {:>9}  {:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
            "name", "count", "self", "self%", "total", "mean", "p50", "p90", "p99"
        ));
        if with_alloc {
            out.push_str(&format!(
                "  {:>10}  {:>10}  {:>8}  {:>10}",
                "self-alloc", "alloc", "allocs", "peak"
            ));
        }
        out.push('\n');
        let wall = self.total_wall_ns.max(1) as f64;
        for s in shown {
            out.push_str(&format!(
                "{:<name_w$}  {:>6}  {:>9}  {:>5.1}%  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
                s.name,
                s.count,
                fmt_duration(s.self_ns),
                100.0 * s.self_ns as f64 / wall,
                fmt_duration(s.total_ns),
                fmt_duration(s.mean_ns as u64),
                fmt_duration(s.p50_ns),
                fmt_duration(s.p90_ns),
                fmt_duration(s.p99_ns),
            ));
            if with_alloc {
                out.push_str(&format!(
                    "  {:>10}  {:>10}  {:>8}  {:>10}",
                    fmt_bytes(s.self_alloc_bytes),
                    fmt_bytes(s.alloc_bytes),
                    s.alloc_count,
                    fmt_bytes(s.peak_bytes),
                ));
            }
            out.push('\n');
        }
        if shown.len() < self.stats.len() {
            out.push_str(&format!(
                "# … {} more name(s); re-run with a larger --top\n",
                self.stats.len() - shown.len()
            ));
        }
        out
    }

    /// Serializes the aggregation as a committable baseline document for
    /// the run-to-run diff (`{"type":"trace_baseline","spans":{...}}`).
    pub fn to_baseline_json(&self) -> Json {
        let spans = Json::Obj(
            self.stats
                .iter()
                .map(|s| {
                    (
                        s.name.clone(),
                        Json::obj([
                            ("count", Json::Num(s.count as f64)),
                            ("total_ns", Json::Num(s.total_ns as f64)),
                            ("self_ns", Json::Num(s.self_ns as f64)),
                            ("mean_ns", Json::Num(s.mean_ns)),
                            ("p50_ns", Json::Num(s.p50_ns as f64)),
                            ("p90_ns", Json::Num(s.p90_ns as f64)),
                            ("p99_ns", Json::Num(s.p99_ns as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        store::Record::new("trace_baseline")
            .field("command", self.command.clone().map_or(Json::Null, Json::str))
            .field("git", self.git.clone().map_or(Json::Null, Json::str))
            .field("total_wall_ns", Json::Num(self.total_wall_ns as f64))
            .field("spans", spans)
            .build()
    }
}

/// One side of a diff, reduced to what the comparison needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineEntry {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of wall times.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Extracts the per-name map from a `trace_baseline` document.
///
/// # Errors
///
/// [`TraceError::BadBaseline`] when the document is not a baseline or a
/// span entry is missing required fields.
pub fn baseline_entries(doc: &Json) -> Result<BTreeMap<String, BaselineEntry>, TraceError> {
    if doc.get("type").and_then(Json::as_str) != Some("trace_baseline") {
        return Err(TraceError::BadBaseline(
            "expected a {\"type\":\"trace_baseline\"} document".into(),
        ));
    }
    let spans = doc
        .get("spans")
        .and_then(Json::as_obj)
        .ok_or_else(|| TraceError::BadBaseline("missing \"spans\" object".into()))?;
    let mut out = BTreeMap::new();
    for (name, entry) in spans {
        let num = |k: &str| {
            entry.get(k).and_then(Json::as_f64).ok_or_else(|| {
                TraceError::BadBaseline(format!("span {name:?} missing numeric {k:?}"))
            })
        };
        out.insert(
            name.clone(),
            BaselineEntry {
                count: num("count")? as u64,
                total_ns: num("total_ns")? as u64,
                self_ns: num("self_ns")? as u64,
            },
        );
    }
    Ok(out)
}

impl From<&Analysis> for BTreeMap<String, BaselineEntry> {
    fn from(a: &Analysis) -> Self {
        a.stats
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    BaselineEntry {
                        count: s.count,
                        total_ns: s.total_ns,
                        self_ns: s.self_ns,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = concat!(
        r#"{"type":"manifest","command":"plateau test","git":"deadbeef","ts_unix":0,"seed":null,"config":{}}"#,
        "\n",
        r#"{"type":"span","name":"leaf","id":2,"parent":1,"duration_ns":100,"depth":1,"fields":{}}"#,
        "\n",
        r#"{"type":"event","level":"info","name":"noise","fields":{}}"#,
        "\n",
        r#"{"type":"span","name":"leaf","id":3,"parent":1,"duration_ns":300,"depth":1,"fields":{}}"#,
        "\n",
        r#"{"type":"span","name":"root","id":1,"parent":null,"duration_ns":1000,"depth":0,"fields":{}}"#,
        "\n",
        r#"{"type":"span","name":"root","id":4,"parent":null,"duration_ns":500,"depth":0,"fields":{}}"#,
        "\n",
        r#"{"type":"metrics","counters":{},"gauges":{},"histograms":{}}"#,
        "\n",
    );

    #[test]
    fn rebuilds_tree_and_self_times_from_ids() {
        let trace = Trace::parse(GOLDEN).unwrap();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.roots.len(), 2);
        assert_eq!(trace.events, 1);
        assert_eq!(trace.command.as_deref(), Some("plateau test"));
        assert_eq!(trace.total_wall_ns(), 1500);
        assert_eq!(trace.max_depth(), 2);
        // root id 1 has both leaves: self = 1000 - (100 + 300).
        let root = trace.spans.iter().position(|s| s.id == 1).unwrap();
        assert_eq!(trace.spans[root].children.len(), 2);
        assert_eq!(trace.spans[root].self_ns, 600);
        let second = trace.spans.iter().position(|s| s.id == 4).unwrap();
        assert_eq!(trace.spans[second].self_ns, 500);
        assert!(trace.warnings.is_empty());
    }

    #[test]
    fn aggregates_per_name_with_exact_percentiles() {
        let a = Analysis::of(&Trace::parse(GOLDEN).unwrap());
        assert_eq!(a.span_count, 4);
        // Sorted by self time: root (600+500) before leaf (100+300).
        assert_eq!(a.stats[0].name, "root");
        assert_eq!(a.stats[0].self_ns, 1100);
        assert_eq!(a.stats[0].total_ns, 1500);
        assert_eq!(a.stats[0].p50_ns, 500);
        assert_eq!(a.stats[0].p90_ns, 1000);
        let leaf = &a.stats[1];
        assert_eq!(leaf.count, 2);
        assert_eq!((leaf.min_ns, leaf.max_ns), (100, 300));
        assert_eq!(leaf.mean_ns, 200.0);
        assert_eq!(leaf.p50_ns, 100);
        assert_eq!(leaf.p99_ns, 300);
        let report = a.render_report(0);
        assert!(report.contains("root"), "{report}");
        assert!(report.contains("p99"), "{report}");
    }

    #[test]
    fn filter_prefix_restricts_stats_but_keeps_wall_time() {
        let a = Analysis::of(&Trace::parse(GOLDEN).unwrap());
        let f = a.filter_prefix("leaf");
        assert_eq!(f.stats.len(), 1);
        assert_eq!(f.stats[0].name, "leaf");
        assert_eq!(f.span_count, 2, "span count recomputed over kept names");
        assert_eq!(f.total_wall_ns, a.total_wall_ns, "self%% keeps its base");
        assert_eq!(f.command, a.command);
        let report = f.render_report(0);
        assert!(report.contains("leaf") && !report.contains("root"), "{report}");
        // A prefix matching nothing yields an empty (but renderable) report.
        let none = a.filter_prefix("sim.none.");
        assert_eq!((none.stats.len(), none.span_count), (0, 0));
        none.render_report(0);
    }

    #[test]
    fn legacy_traces_without_ids_rebuild_from_depth() {
        let legacy = concat!(
            r#"{"type":"span","name":"inner","duration_ns":40,"depth":1,"fields":{}}"#,
            "\n",
            r#"{"type":"span","name":"outer","duration_ns":100,"depth":0,"fields":{}}"#,
            "\n",
        );
        let trace = Trace::parse(legacy).unwrap();
        assert_eq!(trace.roots, vec![1]);
        assert_eq!(trace.spans[1].children, vec![0]);
        assert_eq!(trace.spans[1].self_ns, 60);
    }

    #[test]
    fn corrupt_middle_line_is_a_hard_error() {
        let corrupt = concat!(
            r#"{"type":"span","name":"ok","id":1,"parent":null,"duration_ns":10,"depth":0,"fields":{}}"#,
            "\n",
            "x#corrupt#x\n",
            r#"{"type":"span","name":"ok2","id":2,"parent":null,"duration_ns":10,"depth":0,"fields":{}}"#,
            "\n",
        );
        match Trace::parse(corrupt) {
            Err(TraceError::Malformed { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_spanless_traces_error_gracefully() {
        assert!(matches!(Trace::parse(""), Err(TraceError::Empty(_))));
        let no_spans = r#"{"type":"metrics","counters":{},"gauges":{},"histograms":{}}"#;
        assert!(matches!(Trace::parse(no_spans), Err(TraceError::Empty(_))));
    }

    #[test]
    fn orphaned_parent_becomes_root_with_warning() {
        // Parent id 99 never closed (e.g. the run crashed inside it).
        let orphan = concat!(
            r#"{"type":"span","name":"lost","id":5,"parent":99,"duration_ns":10,"depth":3,"fields":{}}"#,
            "\n",
        );
        let trace = Trace::parse(orphan).unwrap();
        assert_eq!(trace.roots, vec![0]);
        assert!(trace.warnings.iter().any(|w| w.contains("never closed")));
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let a = Analysis::of(&Trace::parse(GOLDEN).unwrap());
        let doc = a.to_baseline_json();
        let parsed = Json::parse(&doc.to_pretty_string()).unwrap();
        let entries = baseline_entries(&parsed).unwrap();
        assert_eq!(entries["root"].total_ns, 1500);
        assert_eq!(entries["root"].self_ns, 1100);
        assert_eq!(entries["leaf"].count, 2);
        let direct: BTreeMap<String, BaselineEntry> = (&a).into();
        assert_eq!(direct, entries);
    }

    const ALLOC_TRACE: &str = concat!(
        r#"{"type":"span","name":"leaf","id":2,"parent":1,"duration_ns":100,"depth":1,"fields":{},"alloc_bytes":4096,"alloc_count":4,"peak_bytes":2048}"#,
        "\n",
        r#"{"type":"span","name":"root","id":1,"parent":null,"duration_ns":1000,"depth":0,"fields":{},"alloc_bytes":5120,"alloc_count":6,"peak_bytes":512}"#,
        "\n",
    );

    #[test]
    fn alloc_attribution_flows_into_self_alloc_and_aggregates() {
        let trace = Trace::parse(ALLOC_TRACE).unwrap();
        let root = trace.spans.iter().position(|s| s.id == 1).unwrap();
        // Root allocated 5120 bytes total, 4096 of them inside its leaf.
        assert_eq!(trace.spans[root].self_alloc_bytes, 1024);
        let a = Analysis::of(&trace);
        assert!(a.has_alloc_data());
        let leaf = a.stats.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(leaf.alloc_bytes, 4096);
        assert_eq!(leaf.self_alloc_bytes, 4096);
        assert_eq!(leaf.alloc_count, 4);
        assert_eq!(leaf.peak_bytes, 2048);
        let report = a.render_report(0);
        assert!(report.contains("self-alloc"), "{report}");
        assert!(report.contains("4.0KiB"), "{report}");
    }

    #[test]
    fn rank_by_reorders_and_parses() {
        let mut a = Analysis::of(&Trace::parse(ALLOC_TRACE).unwrap());
        assert_eq!(a.stats[0].name, "root", "time ranking: root has more self time");
        a.rank_by(RankBy::Alloc);
        assert_eq!(a.stats[0].name, "leaf", "leaf self-allocated more");
        a.rank_by(RankBy::Peak);
        assert_eq!(a.stats[0].name, "leaf", "leaf raised the peak more");
        a.rank_by(RankBy::Time);
        assert_eq!(a.stats[0].name, "root");
        assert_eq!(RankBy::parse("alloc"), Some(RankBy::Alloc));
        assert_eq!(RankBy::parse("PEAK"), Some(RankBy::Peak));
        assert_eq!(RankBy::parse("time"), Some(RankBy::Time));
        assert_eq!(RankBy::parse("wat"), None);
    }

    #[test]
    fn plain_traces_render_without_memory_columns() {
        let a = Analysis::of(&Trace::parse(GOLDEN).unwrap());
        assert!(!a.has_alloc_data());
        let report = a.render_report(0);
        assert!(!report.contains("self-alloc"), "{report}");
    }

    #[test]
    fn baseline_rejects_wrong_documents() {
        assert!(matches!(
            baseline_entries(&Json::parse(r#"{"type":"metrics"}"#).unwrap()),
            Err(TraceError::BadBaseline(_))
        ));
        let missing = r#"{"type":"trace_baseline","spans":{"x":{"count":1}}}"#;
        assert!(matches!(
            baseline_entries(&Json::parse(missing).unwrap()),
            Err(TraceError::BadBaseline(_))
        ));
    }
}
