//! Read side of the experiment ledger: load `<dir>/ledger.jsonl`, resolve
//! run ids, compute run-to-run metric deltas and per-column gradient-decay
//! slopes, and render zero-dependency SVG line plots (same self-contained,
//! no-JS style as [`flame`](crate::flame)) so two initializers' variance
//! or gradient-norm curves can be compared straight from the CLI.
//!
//! Parsing follows the [`store`](crate::store) torn-line rule: a torn
//! final line (a run killed mid-append) is a warning; corruption anywhere
//! else is a hard error naming the line.

use std::path::{Path, PathBuf};

use crate::flame::xml_escape;
use crate::json::Json;
use crate::store::{Header, Store};
use crate::timeseries::TimeSeries;

/// One parsed `{"type":"run",...}` ledger record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEntry {
    pub id: String,
    pub ts_unix: f64,
    pub command: String,
    pub git: String,
    pub seed: Option<u64>,
    /// Config pairs, stringified for display.
    pub config: Vec<(String, String)>,
    pub metrics: Vec<(String, f64)>,
    /// Path of the run's time series, relative to the ledger directory.
    pub series: Option<String>,
    /// The ledger directory this entry was loaded from.
    pub dir: PathBuf,
}

impl RunEntry {
    /// One final metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Loads the run's time series, if the record points at one.
    pub fn load_series(&self) -> Option<Result<TimeSeries, String>> {
        self.series
            .as_ref()
            .map(|rel| TimeSeries::read_jsonl(&self.dir.join(rel)))
    }
}

fn parse_entry(rec: &Json, dir: &Path) -> Option<RunEntry> {
    let header = Header::read(rec, "run")?;
    Some(RunEntry {
        id: rec.get("id")?.as_str()?.to_string(),
        ts_unix: header.ts_unix,
        command: rec.get("command")?.as_str()?.to_string(),
        git: header.git,
        seed: rec.get("seed").and_then(Json::as_f64).map(|s| s as u64),
        config: header.config,
        metrics: rec
            .get("metrics")
            .and_then(Json::as_obj)
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                    .collect()
            })
            .unwrap_or_default(),
        series: rec.get("series").and_then(Json::as_str).map(String::from),
        dir: dir.to_path_buf(),
    })
}

/// A loaded ledger: every run recorded under one directory, oldest first.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub dir: PathBuf,
    pub runs: Vec<RunEntry>,
    pub warnings: Vec<String>,
}

impl Ledger {
    /// Reads `<dir>/ledger.jsonl`. A missing or empty ledger is an error;
    /// a torn final line (crash mid-append) is a warning.
    pub fn load(dir: &Path) -> Result<Ledger, String> {
        let (runs, warnings) = Store::Ledger.load(dir, |r| parse_entry(r, dir))?;
        Ok(Ledger { dir: dir.to_path_buf(), runs, warnings })
    }

    /// Resolves a run by exact id or unique prefix.
    pub fn find(&self, id: &str) -> Result<&RunEntry, String> {
        if let Some(exact) = self.runs.iter().find(|r| r.id == id) {
            return Ok(exact);
        }
        let matches: Vec<&RunEntry> =
            self.runs.iter().filter(|r| r.id.starts_with(id)).collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(format!("no run with id {id:?} in {}", self.dir.display())),
            n => Err(format!("id prefix {id:?} is ambiguous ({n} matches)")),
        }
    }

    /// The most recent run (ledger records append chronologically).
    pub fn latest(&self) -> &RunEntry {
        self.runs.last().expect("Ledger::load rejects empty ledgers")
    }

    /// A table of every run, oldest first.
    pub fn render_list(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# ledger {} — {} run(s)\n",
            self.dir.display(),
            self.runs.len()
        ));
        out.push_str(&format!(
            "{:<24} {:<10} {:<12} {:>10} {:<6} key metrics\n",
            "id", "command", "git", "seed", "series"
        ));
        for r in &self.runs {
            let seed = r.seed.map_or(String::from("-"), |s| s.to_string());
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .take(3)
                .map(|(k, v)| format!("{k}={v:.4e}"))
                .collect();
            out.push_str(&format!(
                "{:<24} {:<10} {:<12} {:>10} {:<6} {}\n",
                r.id,
                r.command,
                r.git,
                seed,
                if r.series.is_some() { "yes" } else { "-" },
                metrics.join(" ")
            ));
        }
        out
    }
}

/// OLS slope of `ln(y)` against `x` over the finite, strictly positive
/// points — the observed exponential decay rate of a curve. `None` with
/// fewer than 3 usable points or a degenerate x range.
pub fn log_slope(points: &[(f64, f64)]) -> Option<f64> {
    let (xs, ln_ys): (Vec<f64>, Vec<f64>) = points
        .iter()
        .filter(|(x, y)| x.is_finite() && y.is_finite() && *y > 0.0)
        .map(|&(x, y)| (x, y.ln()))
        .unzip();
    if xs.len() < 3 {
        return None;
    }
    plateau_stats::fit_line(&xs, &ln_ys).ok().map(|fit| fit.slope)
}

/// The decay fit of one series column: `slope` is the log-linear rate
/// (negative = decaying), `None` when the column has too few positive
/// samples to fit.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDecay {
    pub column: String,
    pub slope: Option<f64>,
}

fn column_decays(series: &TimeSeries) -> Vec<ColumnDecay> {
    series
        .columns()
        .iter()
        .map(|c| ColumnDecay {
            column: c.clone(),
            slope: series.column(c).as_deref().and_then(log_slope),
        })
        .collect()
}

/// The difference of one final metric between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    pub name: String,
    pub a: f64,
    pub b: f64,
}

impl MetricDelta {
    /// Relative change from a to b, in percent (NaN when a is 0/NaN).
    pub fn percent(&self) -> f64 {
        100.0 * (self.b - self.a) / self.a.abs()
    }
}

/// The result of `plateau obs runs compare`: metric deltas over the
/// common final metrics plus per-column decay slopes of both series.
#[derive(Debug, Clone)]
pub struct RunComparison {
    pub a: RunEntry,
    pub b: RunEntry,
    pub metric_deltas: Vec<MetricDelta>,
    pub decay_a: Vec<ColumnDecay>,
    pub decay_b: Vec<ColumnDecay>,
}

impl RunComparison {
    /// Compares two runs, loading their series for decay fits (a missing
    /// or unreadable series contributes no decay rows).
    pub fn of(a: &RunEntry, b: &RunEntry) -> RunComparison {
        let decays = |r: &RunEntry| -> Vec<ColumnDecay> {
            match r.load_series() {
                Some(Ok(s)) => column_decays(&s),
                _ => Vec::new(),
            }
        };
        let metric_deltas = a
            .metrics
            .iter()
            .filter_map(|(name, va)| {
                b.metric(name).map(|vb| MetricDelta { name: name.clone(), a: *va, b: vb })
            })
            .collect();
        RunComparison {
            a: a.clone(),
            b: b.clone(),
            metric_deltas,
            decay_a: decays(a),
            decay_b: decays(b),
        }
    }

    /// The fitted decay slope of one column of run A's series.
    pub fn slope_a(&self, column: &str) -> Option<f64> {
        self.decay_a.iter().find(|d| d.column == column).and_then(|d| d.slope)
    }

    /// The fitted decay slope of one column of run B's series.
    pub fn slope_b(&self, column: &str) -> Option<f64> {
        self.decay_b.iter().find(|d| d.column == column).and_then(|d| d.slope)
    }

    /// The human-readable comparison report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# A: {} ({}, git {})\n", self.a.id, self.a.command, self.a.git));
        out.push_str(&format!("# B: {} ({}, git {})\n", self.b.id, self.b.command, self.b.git));
        out.push_str(&format!(
            "{:<24} {:>14} {:>14} {:>9}\n",
            "metric", "A", "B", "delta%"
        ));
        for d in &self.metric_deltas {
            out.push_str(&format!(
                "{:<24} {:>14.6e} {:>14.6e} {:>+9.1}\n",
                d.name,
                d.a,
                d.b,
                d.percent()
            ));
        }
        let fmt_decay = |tag: &str, decays: &[ColumnDecay], out: &mut String| {
            for d in decays {
                if let Some(slope) = d.slope {
                    out.push_str(&format!(
                        "decay {tag}:{:<20} log-slope {slope:+.4}\n",
                        d.column
                    ));
                }
            }
        };
        if !self.decay_a.is_empty() || !self.decay_b.is_empty() {
            out.push_str("\n# per-column exponential decay (more negative = faster)\n");
            fmt_decay("A", &self.decay_a, &mut out);
            fmt_decay("B", &self.decay_b, &mut out);
        }
        out
    }

    /// An overlay SVG of every series column of both runs.
    pub fn to_svg(&self) -> String {
        let mut curves: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
        let mut add = |tag: &str, r: &RunEntry| {
            if let Some(Ok(series)) = r.load_series() {
                for c in series.columns() {
                    if let Some(points) = series.column(c) {
                        if !points.is_empty() {
                            curves.push((format!("{tag}:{c}"), points));
                        }
                    }
                }
            }
        };
        add("A", &self.a);
        add("B", &self.b);
        let title = format!("A={} vs B={}", self.a.id, self.b.id);
        series_svg(&title, &curves)
    }
}

// ---------------------------------------------------------------------------
// SVG line plots — flame.rs style: self-contained, deterministic colors,
// tooltips via <title>, no scripting.

const PLOT_W: f64 = 900.0;
const PLOT_H: f64 = 380.0;
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 16.0;
const MARGIN_T: f64 = 34.0;
const MARGIN_B: f64 = 40.0;

/// Deterministic per-label color: FNV-1a hashed into a readable palette.
fn curve_color(label: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    let hue = (h % 360) as f64;
    // Fixed saturation/lightness keep every curve legible on white.
    format!("hsl({hue:.0},70%,40%)")
}

/// Renders curves as a line plot. The y axis switches to log scale when
/// every plotted value is strictly positive and the dynamic range exceeds
/// one decade — the natural view for gradient-variance decay.
pub fn series_svg(title: &str, curves: &[(String, Vec<(f64, f64)>)]) -> String {
    let points: Vec<(f64, f64)> = curves
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let mut svg = String::new();
    svg.push_str(&format!(
        "<?xml version=\"1.0\" standalone=\"no\"?>\n<svg version=\"1.1\" width=\"{PLOT_W}\" height=\"{PLOT_H}\" viewBox=\"0 0 {PLOT_W} {PLOT_H}\" xmlns=\"http://www.w3.org/2000/svg\">\n"
    ));
    svg.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{PLOT_W}\" height=\"{PLOT_H}\" fill=\"white\"/>\n<text x=\"{}\" y=\"20\" font-size=\"14\" font-family=\"monospace\" text-anchor=\"middle\">{}</text>\n",
        PLOT_W / 2.0,
        xml_escape(title)
    ));
    if points.is_empty() {
        svg.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" font-size=\"12\" font-family=\"monospace\" text-anchor=\"middle\">no data</text>\n</svg>\n",
            PLOT_W / 2.0,
            PLOT_H / 2.0
        ));
        return svg;
    }

    let log_y = points.iter().all(|&(_, y)| y > 0.0) && {
        let max = points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
        let min = points.iter().map(|p| p.1).fold(f64::MAX, f64::min);
        max / min > 10.0
    };
    let ty = |y: f64| if log_y { y.log10() } else { y };

    let (mut x0, mut x1) = (f64::MAX, f64::MIN);
    let (mut y0, mut y1) = (f64::MAX, f64::MIN);
    for &(x, y) in &points {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(ty(y));
        y1 = y1.max(ty(y));
    }
    if x1 - x0 < 1e-12 {
        x1 = x0 + 1.0;
    }
    if y1 - y0 < 1e-12 {
        y1 = y0 + 1.0;
    }
    let px = |x: f64| MARGIN_L + (x - x0) / (x1 - x0) * (PLOT_W - MARGIN_L - MARGIN_R);
    let py = |y: f64| PLOT_H - MARGIN_B - (ty(y) - y0) / (y1 - y0) * (PLOT_H - MARGIN_T - MARGIN_B);

    // Axes with min/max tick labels.
    svg.push_str(&format!(
        "<line x1=\"{l}\" y1=\"{b}\" x2=\"{r}\" y2=\"{b}\" stroke=\"#444\"/>\n<line x1=\"{l}\" y1=\"{t}\" x2=\"{l}\" y2=\"{b}\" stroke=\"#444\"/>\n",
        l = MARGIN_L,
        r = PLOT_W - MARGIN_R,
        t = MARGIN_T,
        b = PLOT_H - MARGIN_B
    ));
    let ylab = |v: f64| {
        if log_y {
            format!("1e{v:.1}")
        } else {
            format!("{v:.3e}")
        }
    };
    svg.push_str(&format!(
        "<text x=\"{l}\" y=\"{by}\" font-size=\"10\" font-family=\"monospace\" text-anchor=\"end\">{}</text>\n<text x=\"{l}\" y=\"{ty_}\" font-size=\"10\" font-family=\"monospace\" text-anchor=\"end\">{}</text>\n",
        xml_escape(&ylab(y0)),
        xml_escape(&ylab(y1)),
        l = MARGIN_L - 4.0,
        by = PLOT_H - MARGIN_B,
        ty_ = MARGIN_T + 4.0
    ));
    svg.push_str(&format!(
        "<text x=\"{}\" y=\"{y}\" font-size=\"10\" font-family=\"monospace\">{x0:.0}</text>\n<text x=\"{}\" y=\"{y}\" font-size=\"10\" font-family=\"monospace\" text-anchor=\"end\">{x1:.0}</text>\n",
        MARGIN_L,
        PLOT_W - MARGIN_R,
        y = PLOT_H - MARGIN_B + 14.0
    ));

    for (i, (label, pts)) in curves.iter().enumerate() {
        let finite: Vec<(f64, f64)> = pts
            .iter()
            .copied()
            .filter(|(x, y)| x.is_finite() && y.is_finite() && (!log_y || *y > 0.0))
            .collect();
        if finite.is_empty() {
            continue;
        }
        let color = curve_color(label);
        let path: Vec<String> = finite
            .iter()
            .map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y)))
            .collect();
        svg.push_str("<g>");
        svg.push_str(&format!("<title>{}</title>", xml_escape(label)));
        svg.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>",
            path.join(" ")
        ));
        // Legend entry, stacked under the title.
        svg.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" font-size=\"10\" font-family=\"monospace\" fill=\"{color}\">{}</text>",
            MARGIN_L + 6.0,
            MARGIN_T + 12.0 + 12.0 * i as f64,
            xml_escape(label)
        ));
        svg.push_str("</g>\n");
    }
    svg.push_str("</svg>\n");
    svg
}

/// A minimal inline sparkline of one curve (no axes), for `runs show`.
pub fn sparkline_svg(points: &[(f64, f64)], width: f64, height: f64) -> String {
    let finite: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let mut svg = format!(
        "<?xml version=\"1.0\" standalone=\"no\"?>\n<svg version=\"1.1\" width=\"{width}\" height=\"{height}\" viewBox=\"0 0 {width} {height}\" xmlns=\"http://www.w3.org/2000/svg\">\n"
    );
    if finite.len() >= 2 {
        let (x0, x1) = finite.iter().fold((f64::MAX, f64::MIN), |(a, b), p| (a.min(p.0), b.max(p.0)));
        let (y0, y1) = finite.iter().fold((f64::MAX, f64::MIN), |(a, b), p| (a.min(p.1), b.max(p.1)));
        let dx = (x1 - x0).max(1e-12);
        let dy = (y1 - y0).max(1e-12);
        let pts: Vec<String> = finite
            .iter()
            .map(|&(x, y)| {
                format!(
                    "{:.1},{:.1}",
                    1.0 + (x - x0) / dx * (width - 2.0),
                    height - 1.0 - (y - y0) / dy * (height - 2.0)
                )
            })
            .collect();
        svg.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"hsl(24,85%,45%)\" stroke-width=\"1\"/>\n",
            pts.join(" ")
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

/// The detailed view of one run: record fields, series summary, decay fits.
pub fn render_show(run: &RunEntry) -> String {
    let mut out = String::new();
    out.push_str(&format!("id       {}\n", run.id));
    out.push_str(&format!("command  {}\n", run.command));
    out.push_str(&format!("git      {}\n", run.git));
    out.push_str(&format!("ts_unix  {:.3}\n", run.ts_unix));
    match run.seed {
        Some(s) => out.push_str(&format!("seed     {s}\n")),
        None => out.push_str("seed     -\n"),
    }
    for (k, v) in &run.config {
        out.push_str(&format!("config   {k} = {v}\n"));
    }
    for (k, v) in &run.metrics {
        out.push_str(&format!("metric   {k} = {v:.6e}\n"));
    }
    match run.load_series() {
        None => out.push_str("series   -\n"),
        Some(Err(e)) => out.push_str(&format!("series   unreadable: {e}\n")),
        Some(Ok(s)) => {
            out.push_str(&format!(
                "series   {} — {} row(s) of {} push(es), stride {}, columns: {}\n",
                run.series.as_deref().unwrap_or(""),
                s.len(),
                s.pushed(),
                s.stride(),
                s.columns().join(", ")
            ));
            for d in column_decays(&s) {
                if let Some(slope) = d.slope {
                    out.push_str(&format!("decay    {:<20} log-slope {slope:+.4}\n", d.column));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{record_run, RunRecord};

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("plateau_runs_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn decaying_series(rate: f64, label: &str) -> TimeSeries {
        let mut s = TimeSeries::new(vec![label], 64);
        for i in 0..20 {
            s.push(i as f64, &[(rate * i as f64).exp()]);
        }
        s
    }

    #[test]
    fn load_list_find_and_latest() {
        let dir = temp_dir("load");
        let id1 = record_run(
            &dir,
            &RunRecord::new("train").seed(1).metric("final_loss", 0.5),
            Some(&decaying_series(-0.5, "grad_norm")),
        )
        .unwrap();
        let id2 = record_run(&dir, &RunRecord::new("vqe").metric("energy", -7.2), None).unwrap();

        let ledger = Ledger::load(&dir).unwrap();
        assert!(ledger.warnings.is_empty());
        assert_eq!(ledger.runs.len(), 2);
        assert_eq!(ledger.latest().id, id2);
        assert_eq!(ledger.find(&id1).unwrap().command, "train");
        assert!(ledger.find("zzz").is_err());
        let list = ledger.render_list();
        assert!(list.contains("train") && list.contains("vqe"), "{list}");
        assert!(list.contains("final_loss=5.0000e-1"), "{list}");

        let run = ledger.find(&id1).unwrap();
        let series = run.load_series().unwrap().unwrap();
        assert_eq!(series.columns(), ["grad_norm".to_string()]);
        let show = render_show(run);
        assert!(show.contains("grad_norm") && show.contains("log-slope"), "{show}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn find_prefers_exact_id_over_shared_prefix() {
        let dir = temp_dir("prefix");
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-built ledger: "aaa-1" is both a full id and a prefix of
        // "aaa-12", and "aaa" prefixes both.
        let mut lines = String::new();
        for id in ["aaa-1", "aaa-12", "bbb-3"] {
            lines.push_str(&format!(
                "{{\"type\":\"run\",\"id\":\"{id}\",\"ts_unix\":0,\"command\":\"train\",\
                 \"git\":\"g\",\"seed\":null,\"config\":{{}},\"metrics\":{{}},\"series\":null}}\n"
            ));
        }
        std::fs::write(dir.join("ledger.jsonl"), lines).unwrap();
        let ledger = Ledger::load(&dir).unwrap();

        // Exact match wins even though it is also a prefix of another id.
        assert_eq!(ledger.find("aaa-1").unwrap().id, "aaa-1");
        assert_eq!(ledger.find("aaa-12").unwrap().id, "aaa-12");
        // A prefix matching two ids is ambiguous, with the count named.
        let err = ledger.find("aaa").unwrap_err();
        assert!(err.contains("ambiguous") && err.contains("2 matches"), "{err}");
        // A unique prefix still resolves.
        assert_eq!(ledger.find("bbb").unwrap().id, "bbb-3");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_slope_recovers_exponential_rates() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, (-0.7 * i as f64).exp())).collect();
        let slope = log_slope(&pts).unwrap();
        assert!((slope + 0.7).abs() < 1e-9, "slope {slope}");
        // Non-positive and non-finite samples are ignored; too few → None.
        assert_eq!(log_slope(&[(0.0, 1.0), (1.0, 0.5)]), None);
        assert_eq!(log_slope(&[(0.0, -1.0), (1.0, -0.5), (2.0, -0.2)]), None);
    }

    #[test]
    fn comparison_orders_decay_rates_and_renders() {
        let dir = temp_dir("cmp");
        let fast = record_run(
            &dir,
            &RunRecord::new("variance").metric("final_var", 1e-6),
            Some(&decaying_series(-1.0, "variance")),
        )
        .unwrap();
        let slow = record_run(
            &dir,
            &RunRecord::new("variance").metric("final_var", 1e-3),
            Some(&decaying_series(-0.3, "variance")),
        )
        .unwrap();

        let ledger = Ledger::load(&dir).unwrap();
        let cmp = RunComparison::of(ledger.find(&fast).unwrap(), ledger.find(&slow).unwrap());
        let (sa, sb) = (cmp.slope_a("variance").unwrap(), cmp.slope_b("variance").unwrap());
        assert!(sa < sb, "fast decay {sa} should be more negative than {sb}");
        assert!((sa + 1.0).abs() < 1e-6 && (sb + 0.3).abs() < 1e-6);
        assert_eq!(cmp.metric_deltas.len(), 1);
        assert_eq!(cmp.metric_deltas[0].name, "final_var");
        let report = cmp.render();
        assert!(report.contains("final_var") && report.contains("log-slope"), "{report}");

        let svg = cmp.to_svg();
        assert!(svg.starts_with("<?xml"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("A:variance") && svg.contains("B:variance"), "legend missing");
        assert_eq!(svg.matches("<polyline").count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn svg_plots_are_well_formed_even_when_empty() {
        let svg = series_svg("empty", &[]);
        assert!(svg.starts_with("<?xml") && svg.contains("no data"));
        let spark = sparkline_svg(&[(0.0, 1.0), (1.0, 0.5), (2.0, 0.25)], 120.0, 24.0);
        assert!(spark.contains("<polyline") && spark.trim_end().ends_with("</svg>"));
        assert!(sparkline_svg(&[], 120.0, 24.0).trim_end().ends_with("</svg>"));
    }
}
