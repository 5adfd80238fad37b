//! Flamegraph rendering for reconstructed traces: collapsed-stack text
//! (the `name;child;grandchild count` format consumed by external
//! flamegraph tooling) and a self-contained, zero-dependency SVG writer —
//! no JavaScript, no external fonts, openable in any browser.
//!
//! The SVG uses the icicle orientation (roots on top, children below) and
//! one `<g><title>…</title><rect/><text/></g>` group per frame, so every
//! frame carries a hover tooltip with its name, wall time, and share of
//! the total. Frames narrower than a fifth of a pixel are dropped.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::analyze::{RankBy, SpanNode, Trace};
use crate::span::fmt_duration;

/// Renders the trace as collapsed stacks: one `path;to;frame value` line
/// per distinct stack, where `value` is the *self* time in nanoseconds.
/// Lines are sorted by path, so output is deterministic.
pub fn collapsed_stacks(trace: &Trace) -> String {
    fn walk(trace: &Trace, idx: usize, prefix: &str, out: &mut BTreeMap<String, u64>) {
        let span = &trace.spans[idx];
        let path = if prefix.is_empty() {
            span.name.clone()
        } else {
            format!("{prefix};{}", span.name)
        };
        if span.self_ns > 0 {
            *out.entry(path.clone()).or_insert(0) += span.self_ns;
        }
        for &c in &span.children {
            walk(trace, c, &path, out);
        }
    }
    let mut stacks = BTreeMap::new();
    for &r in &trace.roots {
        walk(trace, r, "", &mut stacks);
    }
    let mut out = String::new();
    for (path, ns) in stacks {
        let _ = writeln!(out, "{path} {ns}");
    }
    out
}

const WIDTH: f64 = 1200.0;
const FRAME_H: f64 = 17.0;
const TOP_MARGIN: f64 = 26.0;
const MIN_PX: f64 = 0.2;

/// Deterministic warm color per span name (FNV-1a hash into the classic
/// flamegraph orange/red band), so the same name gets the same color in
/// every rendering and diff-by-eye works across runs.
fn frame_color(name: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    let r = 205 + (h % 50);
    let g = 60 + ((h >> 8) % 120);
    let b = (h >> 16) % 50;
    format!("rgb({r},{g},{b})")
}

/// Escapes text for an SVG element or attribute.
pub(crate) fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// The weight a span contributes to frame widths for a given ranking.
/// Inclusive values (the whole span, children included), matching the
/// icicle layout where children nest inside their parent's extent.
fn weight_of(span: &SpanNode, by: RankBy) -> u64 {
    match by {
        RankBy::Time => span.duration_ns,
        RankBy::Alloc => span.alloc_bytes,
        RankBy::Peak => span.peak_bytes,
    }
}

struct FlameWriter<'a> {
    trace: &'a Trace,
    total: u64,
    by: RankBy,
    out: String,
}

impl FlameWriter<'_> {
    fn px(&self, weight: u64) -> f64 {
        weight as f64 / self.total.max(1) as f64 * WIDTH
    }

    fn frame(&mut self, name: &str, x_w: u64, weight: u64, row: usize) {
        let (x, w) = (self.px(x_w), self.px(weight));
        if w < MIN_PX {
            return;
        }
        let y = TOP_MARGIN + row as f64 * FRAME_H;
        let pct = 100.0 * weight as f64 / self.total.max(1) as f64;
        // Byte weights keep the exact count in the tooltip: memory
        // regressions are diagnosed by exact deltas, not rounded units.
        let title = match self.by {
            RankBy::Time => format!("{name} — {} ({pct:.1}%)", fmt_duration(weight)),
            RankBy::Alloc | RankBy::Peak => format!("{name} — {weight} B ({pct:.1}%)"),
        };
        let _ = writeln!(
            self.out,
            r##"<g><title>{}</title><rect x="{x:.2}" y="{y:.1}" width="{w:.2}" height="{:.1}" fill="{}" stroke="#f8f8f8" stroke-width="0.5" rx="1"/>"##,
            xml_escape(&title),
            FRAME_H - 1.0,
            frame_color(name),
        );
        // Monospace at 11px is ~6.8px per glyph; only label frames with
        // room for at least three characters plus padding.
        let chars = ((w - 6.0) / 6.8) as usize;
        if chars >= 3 {
            let label = if name.chars().count() <= chars {
                name.to_string()
            } else {
                let cut: String = name.chars().take(chars.saturating_sub(2)).collect();
                format!("{cut}..")
            };
            let _ = writeln!(
                self.out,
                r#"<text x="{:.2}" y="{:.1}">{}</text>"#,
                x + 3.0,
                y + FRAME_H - 5.0,
                xml_escape(&label),
            );
        }
        let _ = writeln!(self.out, "</g>");
    }

    fn walk(&mut self, idx: usize, x_w: u64, budget: u64, row: usize) {
        // Clamp to the parent's remaining extent: peak deltas are not
        // additive across siblings, so children could otherwise overflow
        // their parent frame.
        let name = self.trace.spans[idx].name.clone();
        let weight = weight_of(&self.trace.spans[idx], self.by).min(budget);
        self.frame(&name, x_w, weight, row);
        let mut child_x = x_w;
        let end = x_w + weight;
        let children = self.trace.spans[idx].children.clone();
        for c in children {
            let cw = weight_of(&self.trace.spans[c], self.by).min(end.saturating_sub(child_x));
            self.walk(c, child_x, cw, row + 1);
            child_x += cw;
        }
    }
}

/// Renders the trace as a standalone SVG flamegraph (icicle layout, root
/// row on top), weighted by wall time. `title` is drawn in the header;
/// pass the trace command.
pub fn flamegraph_svg(trace: &Trace, title: &str) -> String {
    flamegraph_svg_by(trace, title, RankBy::Time)
}

/// Like [`flamegraph_svg`], but frame widths follow the chosen weight:
/// wall time, allocated bytes, or peak-footprint delta. A trace recorded
/// without allocation profiling renders an empty (but valid) graph for
/// the byte weights — every frame has zero width.
pub fn flamegraph_svg_by(trace: &Trace, title: &str, by: RankBy) -> String {
    let total: u64 = trace
        .roots
        .iter()
        .map(|&r| weight_of(&trace.spans[r], by))
        .sum();
    // +1 row for the synthetic "all" frame spanning the whole width.
    let rows = trace.max_depth() + 1;
    let height = TOP_MARGIN + rows as f64 * FRAME_H + 10.0;
    let mut w = FlameWriter {
        trace,
        total,
        by,
        out: String::new(),
    };
    let _ = writeln!(
        w.out,
        r##"<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height:.0}" viewBox="0 0 {WIDTH} {height:.0}">
<style>text {{ font-family: ui-monospace, monospace; font-size: 11px; fill: #1a1a1a; }}</style>
<rect width="100%" height="100%" fill="#fdf6ec"/>
<text x="{:.0}" y="16" text-anchor="middle" style="font-size:13px">{}</text>"##,
        WIDTH / 2.0,
        xml_escape(title),
    );
    w.frame("all", 0, total, 0);
    let mut x_w = 0u64;
    let roots = trace.roots.clone();
    for r in roots {
        let rw = weight_of(&trace.spans[r], by);
        w.walk(r, x_w, rw, 1);
        x_w += rw;
    }
    let _ = writeln!(w.out, "</svg>");
    w.out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = concat!(
        r#"{"type":"span","name":"leaf","id":2,"parent":1,"duration_ns":100,"depth":1,"fields":{}}"#,
        "\n",
        r#"{"type":"span","name":"leaf","id":3,"parent":1,"duration_ns":300,"depth":1,"fields":{}}"#,
        "\n",
        r#"{"type":"span","name":"root","id":1,"parent":null,"duration_ns":1000,"depth":0,"fields":{}}"#,
        "\n",
        r#"{"type":"span","name":"root","id":4,"parent":null,"duration_ns":500,"depth":0,"fields":{}}"#,
        "\n",
    );

    #[test]
    fn collapsed_stacks_carry_self_time() {
        let trace = Trace::parse(GOLDEN).unwrap();
        let text = collapsed_stacks(&trace);
        // Both roots merge into one "root" line (600 + 500 self), the
        // leaves merge under "root;leaf" (100 + 300).
        assert_eq!(text, "root 1100\nroot;leaf 400\n");
    }

    #[test]
    fn svg_is_standalone_and_well_formed() {
        let trace = Trace::parse(GOLDEN).unwrap();
        let svg = flamegraph_svg(&trace, "plateau <test> & co");
        assert!(svg.starts_with("<?xml version=\"1.0\""));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<svg").count(), 1);
        // Frames: synthetic all + 2 roots + 2 leaves.
        assert_eq!(svg.matches("<g>").count(), 5);
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
        assert!(svg.contains("&lt;test&gt; &amp; co"), "title is escaped");
        assert!(svg.contains("root"));
        // Every frame carries a tooltip with duration and percentage.
        assert!(svg.contains("100.0%"), "the synthetic root spans everything");
    }

    #[test]
    fn subpixel_frames_are_dropped() {
        let mut lines = String::new();
        // One giant root with one tiny child far below the 0.2px cutoff.
        lines.push_str(
            r#"{"type":"span","name":"tiny","id":2,"parent":1,"duration_ns":1,"depth":1,"fields":{}}"#,
        );
        lines.push('\n');
        lines.push_str(
            r#"{"type":"span","name":"huge","id":1,"parent":null,"duration_ns":100000000,"depth":0,"fields":{}}"#,
        );
        lines.push('\n');
        let trace = Trace::parse(&lines).unwrap();
        let svg = flamegraph_svg(&trace, "t");
        assert!(svg.contains("huge"));
        assert!(!svg.contains("tiny"));
    }

    #[test]
    fn alloc_weighted_svg_carries_exact_byte_tooltips() {
        let lines = concat!(
            r#"{"type":"span","name":"leaf","id":2,"parent":1,"duration_ns":100,"depth":1,"fields":{},"alloc_bytes":4096,"alloc_count":4,"peak_bytes":2048}"#,
            "\n",
            r#"{"type":"span","name":"root","id":1,"parent":null,"duration_ns":1000,"depth":0,"fields":{},"alloc_bytes":5120,"alloc_count":6,"peak_bytes":512}"#,
            "\n",
        );
        let trace = Trace::parse(lines).unwrap();
        let svg = flamegraph_svg_by(&trace, "t", RankBy::Alloc);
        assert!(svg.contains("root — 5120 B (100.0%)"), "{svg}");
        assert!(svg.contains("leaf — 4096 B (80.0%)"), "{svg}");
        // Peak weight: the leaf's 2048 delta is clamped to root's 512.
        let peak = flamegraph_svg_by(&trace, "t", RankBy::Peak);
        assert!(peak.contains("root — 512 B (100.0%)"), "{peak}");
        assert!(peak.contains("leaf — 512 B (100.0%)"), "{peak}");
    }

    #[test]
    fn byte_weights_on_plain_traces_yield_empty_valid_svg() {
        let trace = Trace::parse(GOLDEN).unwrap();
        let svg = flamegraph_svg_by(&trace, "t", RankBy::Alloc);
        assert!(svg.starts_with("<?xml version=\"1.0\""));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<g>").count(), 0, "all frames are zero-width");
    }

    #[test]
    fn colors_are_deterministic_per_name() {
        assert_eq!(frame_color("variance_cell"), frame_color("variance_cell"));
        assert_ne!(frame_color("variance_cell"), frame_color("train"));
    }
}
