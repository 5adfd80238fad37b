//! Spans, structured events, and the two subscribers (human-readable
//! stderr, machine-readable JSONL).
//!
//! A [`Span`] times a scope. On entry it logs a `> name` line to stderr at
//! `debug` level; on drop it logs `< name <duration>`, appends a
//! `{"type":"span",...}` JSONL record when a sink is open, and records the
//! duration into a `span.<name>_ns` histogram when metrics are enabled.
//! When none of the three subscribers is listening, entering a span is two
//! relaxed atomic loads — no clock read, no field construction, no
//! allocation.
//!
//! Span nesting depth is tracked per-thread (for stderr indentation and
//! the `depth` field of JSONL records); a span moved across threads will
//! report the depth of the thread it drops on.
//!
//! Active spans additionally carry a process-wide monotonic `id` and the
//! `id` of their innermost active ancestor on the same thread (`parent`,
//! tracked by a thread-local current-span stack). Both land in the JSONL
//! record, so a trace is a reconstructible forest — see [`crate::analyze`].
//! Disabled spans skip id assignment entirely; the disabled path stays at
//! two relaxed atomic loads.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, Once};
use std::time::Instant;

use crate::json::Json;
use crate::store::Record;
use crate::{level_enabled, metrics_enabled, Level};

/// A dynamically typed field value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Bool(b) => Json::Bool(*b),
            Value::I64(v) => Json::Num(*v as f64),
            Value::U64(v) => Json::Num(*v as f64),
            Value::F64(v) => Json::Num(*v),
            Value::Str(s) => Json::str(s.clone()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// A named field on a span or event.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (the identifier from the macro call site).
    pub key: &'static str,
    /// Field value.
    pub value: Value,
}

impl Field {
    /// Builds a field from anything convertible to [`Value`].
    pub fn new(key: &'static str, value: impl Into<Value>) -> Field {
        Field {
            key,
            value: value.into(),
        }
    }
}

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    /// Ids of the active spans enclosing the current point of execution,
    /// innermost last. Only *active* spans are pushed, so id assignment
    /// costs nothing on the disabled path.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Monotonic span id source; 0 is reserved for "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

fn fmt_fields(fields: &[Field]) -> String {
    if fields.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for f in fields {
        out.push(' ');
        out.push_str(f.key);
        out.push('=');
        out.push_str(&f.value.to_string());
    }
    out
}

pub(crate) fn fmt_duration(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1e3),
        10_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Writes one formatted line to stderr. The caller has already checked the
/// level; this just formats.
pub fn log(level: Level, msg: &str) {
    let depth = DEPTH.with(Cell::get);
    eprintln!("[plateau {:>5}] {}{}", level.as_str(), indent(depth), msg);
}

/// A timed scope. Create via the [`span!`](crate::span) macro; the span
/// closes (and reports) when dropped.
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<Field>,
    id: u64,
    parent: Option<u64>,
    alloc: Option<crate::alloc::SpanAllocStart>,
    stderr: bool,
    jsonl: bool,
    metrics: bool,
}

impl Span {
    /// Enters a span, building fields lazily only if some subscriber is
    /// listening.
    pub fn enter_with(name: &'static str, make_fields: impl FnOnce() -> Vec<Field>) -> Span {
        let stderr = level_enabled(Level::Debug);
        let jsonl = jsonl_active();
        let metrics = metrics_enabled();
        if !(stderr || jsonl || metrics) {
            return Span {
                name,
                start: None,
                fields: Vec::new(),
                id: 0,
                parent: None,
                alloc: None,
                stderr: false,
                jsonl: false,
                metrics: false,
            };
        }
        let fields = make_fields();
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        let id = NEXT_SPAN_ID.fetch_add(1, Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        if stderr {
            eprintln!(
                "[plateau {:>5}] {}> {}{}",
                Level::Debug.as_str(),
                indent(depth),
                name,
                fmt_fields(&fields)
            );
        }
        // Snapshot last, so the span's own bookkeeping (field vector,
        // stack growth) is not charged to it.
        let alloc = crate::alloc::span_start();
        Span {
            name,
            start: Some(Instant::now()),
            fields,
            id,
            parent,
            alloc,
            stderr,
            jsonl,
            metrics,
        }
    }

    /// The monotonic id assigned at entry (0 for inactive spans).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id of the enclosing active span at entry, if any.
    pub fn parent_id(&self) -> Option<u64> {
        self.parent
    }

    /// Whether any subscriber accepted this span.
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }

    /// Attaches another field after entry (e.g. a result computed inside
    /// the span). A no-op on inactive spans.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.start.is_some() {
            self.fields.push(Field::new(key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Close the attribution window before any record building below
        // allocates on this thread.
        let alloc = self.alloc.take().map(crate::alloc::SpanAllocStart::finish);
        let depth = DEPTH.with(|d| {
            let v = d.get().saturating_sub(1);
            d.set(v);
            v
        });
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // The common case is LIFO drop on the entering thread; a span
            // dropped out of order (or on another thread) is removed from
            // wherever it sits so the stack cannot leak entries.
            match s.last() {
                Some(&top) if top == self.id => {
                    s.pop();
                }
                _ => s.retain(|&id| id != self.id),
            }
        });
        if self.stderr {
            eprintln!(
                "[plateau {:>5}] {}< {} {}{}",
                Level::Debug.as_str(),
                indent(depth),
                self.name,
                fmt_duration(dur_ns),
                fmt_fields(&self.fields)
            );
        }
        if self.jsonl {
            let fields = self.fields.iter().map(|f| (f.key.to_string(), f.value.to_json()));
            let mut record = Record::new("span")
                .field("name", Json::str(self.name))
                .field("id", Json::Num(self.id as f64))
                .field("parent", self.parent.map_or(Json::Null, |p| Json::Num(p as f64)))
                .field("duration_ns", Json::Num(dur_ns as f64))
                .field("depth", Json::from(depth))
                .field("fields", Json::Obj(fields.collect()));
            if let Some(a) = alloc {
                record = record
                    .field("alloc_bytes", Json::Num(a.bytes as f64))
                    .field("alloc_count", Json::Num(a.count as f64))
                    .field("peak_bytes", Json::Num(a.peak_bytes as f64));
            }
            write_jsonl_record(&record.build());
        }
        if self.metrics {
            crate::metrics::histogram(&format!("span.{}_ns", self.name)).record(dur_ns);
        }
    }
}

/// Emits a structured event (prefer the [`event!`](crate::event) macro).
/// Goes to stderr when `level` passes the filter, and to the JSONL sink
/// whenever one is open; fields are built lazily.
pub fn emit_event(level: Level, name: &str, make_fields: impl FnOnce() -> Vec<Field>) {
    let stderr = level != Level::Off && level_enabled(level);
    let jsonl = jsonl_active();
    if !(stderr || jsonl) {
        return;
    }
    let fields = make_fields();
    if stderr {
        log(level, &format!("{}{}", name, fmt_fields(&fields)));
    }
    if jsonl {
        let fields = fields.iter().map(|f| (f.key.to_string(), f.value.to_json()));
        let record = Record::new("event")
            .field("level", Json::str(level.as_str()))
            .field("name", Json::str(name))
            .field("fields", Json::Obj(fields.collect()));
        write_jsonl_record(&record.build());
    }
}

static JSONL_ON: AtomicBool = AtomicBool::new(false);
static JSONL_SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Whether a JSONL sink is currently open.
#[inline]
pub fn jsonl_active() -> bool {
    JSONL_ON.load(Relaxed)
}

/// Opens (truncating) a JSONL sink at `path`. Subsequent spans, events,
/// manifests, and metric snapshots append one JSON object per line.
///
/// The first call also chains a panic hook that flushes the sink, so a
/// panicking run still leaves a usable (at worst truncated-by-one-line)
/// trace on disk — the analyzer tolerates a torn final line.
pub fn set_jsonl_path(path: &Path) -> io::Result<()> {
    static PANIC_FLUSH: Once = Once::new();
    PANIC_FLUSH.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            flush_jsonl();
        }));
    });
    let file = File::create(path)?;
    *lock_sink() = Some(BufWriter::new(file));
    JSONL_ON.store(true, Relaxed);
    Ok(())
}

/// Flushes the sink without closing it. Uses `try_lock` so it is safe to
/// call from a panic hook even if the panic unwound out of a write.
pub fn flush_jsonl() {
    if let Ok(mut guard) = JSONL_SINK.try_lock() {
        if let Some(w) = guard.as_mut() {
            let _ = w.flush();
        }
    }
}

/// Appends one record to the sink, if open. Write errors are swallowed —
/// observability must never take down the experiment.
pub fn write_jsonl_record(record: &Json) {
    if !jsonl_active() {
        return;
    }
    if let Some(w) = lock_sink().as_mut() {
        let _ = writeln!(w, "{record}");
    }
}

/// Flushes and closes the sink. Idempotent.
pub fn close_jsonl() {
    JSONL_ON.store(false, Relaxed);
    if let Some(mut w) = lock_sink().take() {
        let _ = w.flush();
    }
}

fn lock_sink() -> std::sync::MutexGuard<'static, Option<BufWriter<File>>> {
    JSONL_SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_log_level, set_metrics_enabled, test_lock};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("plateau_obs_{}_{}.jsonl", tag, std::process::id()))
    }

    #[test]
    fn disabled_span_skips_field_construction() {
        let _guard = test_lock();
        set_log_level(Level::Error);
        set_metrics_enabled(false);
        close_jsonl();
        let mut built = false;
        {
            let _s = Span::enter_with("test_disabled", || {
                built = true;
                vec![]
            });
        }
        assert!(!built, "fields must not be built with all subscribers off");
    }

    #[test]
    fn active_span_records_duration_histogram() {
        let _guard = test_lock();
        set_log_level(Level::Error);
        set_metrics_enabled(true);
        let h = crate::metrics::histogram("span.test_active_ns");
        let before = h.count();
        {
            let _s = crate::span!("test_active", q = 4usize);
        }
        assert_eq!(h.count(), before + 1);
        set_metrics_enabled(false);
    }

    #[test]
    fn jsonl_sink_round_trips_span_and_event_records() {
        let _guard = test_lock();
        set_log_level(Level::Error);
        set_metrics_enabled(false);
        let path = temp_path("roundtrip");
        set_jsonl_path(&path).expect("create sink");
        {
            let mut s = crate::span!("outer", strategy = "gaussian", q = 8usize);
            s.record("variance", 1.5e-3);
            let _inner = crate::span!("inner");
            crate::event!(Level::Warn, "test_event", iteration = 3usize);
        }
        close_jsonl();
        let text = std::fs::read_to_string(&path).expect("read sink");
        let _ = std::fs::remove_file(&path);
        let records: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("every line is valid JSON"))
            .collect();
        assert_eq!(records.len(), 3);
        // The event fires first, then inner closes, then outer.
        assert_eq!(records[0].get("type").unwrap().as_str(), Some("event"));
        assert_eq!(records[0].get("name").unwrap().as_str(), Some("test_event"));
        assert_eq!(records[0].get("level").unwrap().as_str(), Some("warn"));
        assert_eq!(
            records[0].get("fields").unwrap().get("iteration").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(records[1].get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(records[1].get("depth").unwrap().as_f64(), Some(1.0));
        let outer = &records[2];
        assert_eq!(outer.get("type").unwrap().as_str(), Some("span"));
        assert_eq!(outer.get("depth").unwrap().as_f64(), Some(0.0));
        // The inner span's parent is the outer span's id; ids are
        // monotonically increasing in entry order.
        let outer_id = outer.get("id").unwrap().as_f64().unwrap();
        let inner_id = records[1].get("id").unwrap().as_f64().unwrap();
        assert!(inner_id > outer_id, "inner entered after outer");
        assert_eq!(records[1].get("parent").unwrap().as_f64(), Some(outer_id));
        assert_eq!(outer.get("parent"), Some(&Json::Null));
        assert!(outer.get("duration_ns").unwrap().as_f64().unwrap() >= 0.0);
        let fields = outer.get("fields").unwrap();
        assert_eq!(fields.get("strategy").unwrap().as_str(), Some("gaussian"));
        assert_eq!(fields.get("q").unwrap().as_f64(), Some(8.0));
        assert_eq!(fields.get("variance").unwrap().as_f64(), Some(1.5e-3));
    }

    #[test]
    fn event_below_level_without_sink_is_dropped() {
        let _guard = test_lock();
        set_log_level(Level::Error);
        set_metrics_enabled(false);
        close_jsonl();
        let mut built = false;
        emit_event(Level::Info, "quiet", || {
            built = true;
            vec![]
        });
        assert!(!built);
    }

    #[test]
    fn span_stack_survives_out_of_order_drops() {
        let _guard = test_lock();
        set_log_level(Level::Error);
        set_metrics_enabled(true);
        let a = Span::enter_with("ooo_a", Vec::new);
        let b = Span::enter_with("ooo_b", Vec::new);
        let c = Span::enter_with("ooo_c", Vec::new);
        assert_eq!(b.parent_id(), Some(a.id()));
        assert_eq!(c.parent_id(), Some(b.id()));
        // Drop b before c: c's entry must be removed correctly anyway and
        // a fresh span must again parent on `a` once b and c are gone.
        drop(b);
        drop(c);
        let d = Span::enter_with("ooo_d", Vec::new);
        assert_eq!(d.parent_id(), Some(a.id()));
        drop(d);
        drop(a);
        let root = Span::enter_with("ooo_root", Vec::new);
        assert_eq!(root.parent_id(), None);
        set_metrics_enabled(false);
    }

    #[test]
    fn inactive_spans_get_no_ids() {
        let _guard = test_lock();
        set_log_level(Level::Error);
        set_metrics_enabled(false);
        close_jsonl();
        let s = Span::enter_with("inactive", Vec::new);
        assert_eq!(s.id(), 0);
        assert_eq!(s.parent_id(), None);
    }

    #[test]
    fn duration_formatting_is_human_readable() {
        assert_eq!(fmt_duration(0), "0ns");
        assert_eq!(fmt_duration(9_999), "9999ns");
        assert_eq!(fmt_duration(25_000), "25.0us");
        assert_eq!(fmt_duration(12_300_000), "12.3ms");
        assert_eq!(fmt_duration(2_500_000_000), "2.50s");
    }
}
