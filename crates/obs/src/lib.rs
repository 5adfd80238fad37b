//! `plateau-obs` — zero-dependency observability for the plateau workspace.
//!
//! All hermetic (std-only, like the rest of the workspace). The write side:
//!
//! - [`metrics`]: a global registry of counters, gauges, and log-scale
//!   histograms, interned once per call site by the
//!   [`counter!`]/[`gauge!`]/[`histogram!`] macros; an update is a
//!   relaxed-atomic branch + add, and a single load + branch when metrics
//!   are off, so instrumented hot paths cost (near) nothing.
//! - [`span`]: `span!("variance_scan", q = 8)` times a scope (stderr at
//!   `debug`, a `span.<name>_ns` histogram, a JSONL record when a metrics
//!   file is configured); `error!`…`trace!` are gated by the global level.
//! - [`manifest`]: stamps an invocation with command, config, seed,
//!   tracked environment, core count and `git describe`, and closes the
//!   run with a final metrics snapshot, so every trace is self-describing.
//! - [`alloc`]: a counting wrapper around the system allocator; with
//!   profiling on, span records also carry `alloc_bytes`/`alloc_count`/
//!   `peak_bytes` deltas.
//! - [`timeseries`]: a bounded fixed-column recorder (stride-doubling
//!   decimation) for per-iteration loss, gradient norm and per-layer
//!   gradient variance.
//! - [`ledger`]: the append-only run registry (`ledger.jsonl`): one record
//!   per CLI experiment command, pointing at the run's time series.
//! - [`perf`]: the append-only bench history (`perf.jsonl`) and its read
//!   side, `plateau obs perf list|trend|regress`.
//!
//! The read side: [`analyze`] rebuilds a trace's span forest and
//! aggregates per span name (ranked by time or memory), [`flame`] writes
//! collapsed stacks and SVG flamegraphs, [`diff`] compares traces or a
//! trace against a baseline (the `plateau obs diff` gate), and [`runs`]
//! lists, shows and compares ledger runs with decay fits and SVG plots.
//!
//! Under traces, the ledger and the perf history sits one record store,
//! [`store`]: the directory grammar shared by `PLATEAU_LEDGER`,
//! `PLATEAU_PERF` and `--ledger`, the one line-atomic appender, the one
//! JSONL reader with its torn-line rule, and the record header (`type`,
//! `ts_unix`, `git`, `config`, tracked env, `cores`). Its writers take the
//! directory, which the `plateau` CLI and the bench harness resolve.
//!
//! # Configuration
//!
//! On-words are `1`/`true`/`on`/`yes` and off-words `0`/`false`/`off`/`no`
//! (or empty), in any case ([`store::is_on`], [`store::parse_dir`]).
//!
//! | Env var               | Effect                                         |
//! |-----------------------|------------------------------------------------|
//! | `PLATEAU_LOG`         | stderr level: `off`/`error`/`warn`/`info`/`debug`/`trace` (default `warn`) |
//! | `PLATEAU_METRICS`     | an on-word enables the metrics registry        |
//! | `PLATEAU_METRICS_OUT` | path for the JSONL event stream (bench bins; the CLI uses `--metrics-out`) |
//! | `PLATEAU_LEDGER`      | read by the `plateau` CLI when `--ledger` is absent: on-word → ledger at `target/obs`; off-word → disabled; anything else → that directory |
//! | `PLATEAU_ALLOC_PROFILE` | an on-word enables allocation profiling (needs a [`alloc::CountingAllocator`] installed) |
//! | `PLATEAU_PERF`        | same grammar as `PLATEAU_LEDGER`, for the perf ledger the bench harness appends to |
//!
//! Programmatic overrides ([`set_log_level`], [`set_metrics_enabled`],
//! [`init`], [`alloc::set_profiling`]) always win over the environment;
//! the record writers take their directory as an argument.

pub mod alloc;
pub mod analyze;
pub mod diff;
pub mod flame;
pub mod json;
pub mod ledger;
pub mod manifest;
pub mod metrics;
pub mod perf;
pub mod runs;
pub mod span;
pub mod store;
pub mod timeseries;

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

pub use ledger::{record_run, RunRecord};
pub use manifest::{emit_manifest, emit_metrics_snapshot, finish_run};
pub use store::{git_describe, Store};
pub use metrics::{snapshot, MetricsSnapshot};
pub use span::{Field, Span, Value};
pub use timeseries::TimeSeries;

/// Log verbosity, ordered from silent to most verbose. A message is emitted
/// when its level is `<=` the configured level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Suppress everything, including errors.
    Off = 0,
    /// Unrecoverable failures.
    Error = 1,
    /// Suspicious conditions (e.g. a barren-plateau alarm). The default.
    Warn = 2,
    /// Per-stage progress (one line per variance cell / training figure).
    Info = 3,
    /// Span open/close lines and manifests.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// Parses a level name, case-insensitively.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "silent" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

/// Sentinel meaning "not yet initialized from the environment".
const UNINIT: u8 = 0xFF;

static LOG_LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

/// Metrics enablement: `UNINIT` until first query, then 0 = off, 1 = on.
static METRICS: AtomicU8 = AtomicU8::new(UNINIT);

#[cold]
fn init_log_level_from_env() -> u8 {
    let level = std::env::var("PLATEAU_LOG")
        .ok()
        .and_then(|s| Level::parse(&s))
        .unwrap_or(Level::Warn);
    // A racing `set_log_level` may land between the load and this store;
    // last writer wins, which is fine for a verbosity knob.
    LOG_LEVEL.store(level as u8, Relaxed);
    level as u8
}

#[cold]
fn init_metrics_from_env() -> u8 {
    let on = std::env::var("PLATEAU_METRICS").is_ok_and(|s| store::is_on(&s));
    let v = u8::from(on);
    METRICS.store(v, Relaxed);
    v
}

/// The currently configured stderr log level (lazily read from
/// `PLATEAU_LOG` on first use; default [`Level::Warn`]).
pub fn current_level() -> Level {
    let v = LOG_LEVEL.load(Relaxed);
    let v = if v == UNINIT { init_log_level_from_env() } else { v };
    Level::from_u8(v)
}

/// Whether a message at `level` would be emitted to stderr. This is the
/// fast-path check every log macro compiles down to: one relaxed atomic
/// load and a comparison.
#[inline]
pub fn level_enabled(level: Level) -> bool {
    level != Level::Off && level as u8 <= current_level() as u8
}

/// Overrides the stderr log level (wins over `PLATEAU_LOG`).
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Relaxed);
}

/// Whether the metrics registry is recording. When false, every
/// counter/gauge/histogram update is a load + branch and the final
/// snapshot is empty.
#[inline]
pub fn metrics_enabled() -> bool {
    match METRICS.load(Relaxed) {
        0 => false,
        UNINIT => init_metrics_from_env() != 0,
        _ => true,
    }
}

/// Turns the metrics registry on or off (wins over `PLATEAU_METRICS`).
pub fn set_metrics_enabled(on: bool) {
    METRICS.store(u8::from(on), Relaxed);
}

/// One-call setup for binaries: apply an explicit level (e.g. from a
/// `--log` flag) and/or open a JSONL metrics sink (e.g. `--metrics-out`).
/// Opening a sink implies enabling the metrics registry.
pub fn init(log: Option<Level>, metrics_out: Option<&std::path::Path>) -> std::io::Result<()> {
    if let Some(level) = log {
        set_log_level(level);
    }
    if let Some(path) = metrics_out {
        set_metrics_enabled(true);
        span::set_jsonl_path(path)?;
    }
    Ok(())
}

/// Interns a [`metrics::Counter`] once per call site and returns
/// `&'static Counter`.
///
/// ```
/// plateau_obs::set_metrics_enabled(true);
/// plateau_obs::counter!("sim.gate.rotation").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Interns a [`metrics::Gauge`] once per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Interns a [`metrics::Histogram`] once per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// Opens a timed span: `let _s = span!("variance_cell", strategy = name, q = 4);`
///
/// Field expressions are only evaluated when some subscriber is listening
/// (stderr at `debug`, a JSONL sink, or the metrics registry); a fully
/// disabled span is two atomic loads and no allocation.
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::span::Span::enter_with($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span::Span::enter_with($name, || {
            ::std::vec![$($crate::span::Field::new(stringify!($key), $value)),+]
        })
    };
}

/// Emits a structured event to stderr (level-gated) and the JSONL sink:
/// `event!(Level::Warn, "barren_plateau_alarm", iteration = it, grad_norm = g)`.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::span::emit_event($level, $name, || {
            ::std::vec![$($crate::span::Field::new(stringify!($key), $value)),*]
        })
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! log_at {
    ($level:expr, $($arg:tt)*) => {
        if $crate::level_enabled($level) {
            $crate::span::log($level, &::std::format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Error`] with `format!` syntax.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log_at!($crate::Level::Error, $($arg)*) };
}

/// Logs at [`Level::Warn`] with `format!` syntax.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log_at!($crate::Level::Warn, $($arg)*) };
}

/// Logs at [`Level::Info`] with `format!` syntax.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log_at!($crate::Level::Info, $($arg)*) };
}

/// Logs at [`Level::Debug`] with `format!` syntax.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log_at!($crate::Level::Debug, $($arg)*) };
}

/// Logs at [`Level::Trace`] with `format!` syntax.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => { $crate::log_at!($crate::Level::Trace, $($arg)*) };
}

/// Serializes access to the process-global observability state from tests:
/// the metrics registry and its counters, the log level, the JSONL sink and
/// the allocation profiler are shared across the whole test binary. The
/// record stores are not: their writers take a directory.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_accepts_aliases_and_rejects_junk() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse(" DEBUG "), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn level_ordering_matches_verbosity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn level_filtering_respects_configured_level() {
        let _guard = test_lock();
        let prior = current_level();
        set_log_level(Level::Info);
        assert!(level_enabled(Level::Error));
        assert!(level_enabled(Level::Warn));
        assert!(level_enabled(Level::Info));
        assert!(!level_enabled(Level::Debug));
        assert!(!level_enabled(Level::Trace));
        set_log_level(Level::Off);
        assert!(!level_enabled(Level::Error));
        assert!(!level_enabled(Level::Off), "Off is never emitted");
        set_log_level(prior);
    }

    #[test]
    fn metrics_toggle_round_trips() {
        let _guard = test_lock();
        let prior = metrics_enabled();
        set_metrics_enabled(true);
        assert!(metrics_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
        set_metrics_enabled(prior);
    }
}
