//! The obs record store: the one module that knows the on-disk JSONL
//! format of traces, the run ledger and the perf history.
//!
//! - **Switch.** `PLATEAU_LEDGER`, `PLATEAU_PERF` and the CLI's `--ledger`
//!   share [`parse_dir`]; `PLATEAU_METRICS` and `PLATEAU_ALLOC_PROFILE`
//!   share its on-words via [`is_on`]. [`Store::from_env`] is the one read
//!   of the two variables; a boundary (the CLI, the bench harness) calls
//!   it once and hands the directory to the writers. No directory is kept
//!   in process-global state.
//! - **Appender.** [`append`] writes a record as one `write` on an
//!   `O_APPEND` file, so concurrent writers never interleave a line.
//! - **Reader.** [`parse_jsonl`] skips blank lines and treats a malformed
//!   line as [`Jsonl::torn`] — the tail of a crashed or still-running
//!   writer — only when blank lines alone follow it; anywhere else it is
//!   a [`BadLine`] error.
//! - **Header.** [`Record`] stamps `type`, `ts_unix`, `git`, `config`, the
//!   [`TRACKED_ENV`] variables and `cores`, in each record kind's own key
//!   order; [`Header`] reads them back.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Where the ledger and perf history go when switched on by an on-word,
/// and where `obs runs|perf` read by default.
pub const DEFAULT_DIR: &str = "target/obs";

const ON_WORDS: &[&str] = &["1", "true", "on", "yes"];
const OFF_WORDS: &[&str] = &["", "0", "false", "off", "no"];

fn word_in(raw: &str, words: &[&str]) -> bool {
    words.contains(&raw.trim().to_ascii_lowercase().as_str())
}

/// Whether `raw` is an on-word: `1`/`true`/`on`/`yes`, in any case.
pub fn is_on(raw: &str) -> bool {
    word_in(raw, ON_WORDS)
}

/// A directory switch: an off-word (`""`/`0`/`false`/`off`/`no`, any
/// case) → `None`, an on-word → [`DEFAULT_DIR`], anything else → that
/// directory.
pub fn parse_dir(raw: &str) -> Option<PathBuf> {
    if word_in(raw, OFF_WORDS) {
        None
    } else if word_in(raw, ON_WORDS) {
        Some(PathBuf::from(DEFAULT_DIR))
    } else {
        Some(PathBuf::from(raw.trim()))
    }
}

/// An append-only record file behind its own directory switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// `ledger.jsonl`, one record per experiment run (`PLATEAU_LEDGER`).
    Ledger,
    /// `perf.jsonl`, one record per benchmark result (`PLATEAU_PERF`).
    Perf,
}

impl Store {
    fn var(self) -> &'static str {
        ["PLATEAU_LEDGER", "PLATEAU_PERF"][self as usize]
    }

    /// The record file's name under the store directory.
    pub fn file(self) -> &'static str {
        ["ledger.jsonl", "perf.jsonl"][self as usize]
    }

    /// The directory the store's variable switches on ([`parse_dir`]
    /// grammar); `None` when it is unset or an off-word.
    pub fn from_env(self) -> Option<PathBuf> {
        std::env::var(self.var()).ok().and_then(|v| parse_dir(&v))
    }

    /// Reads `<dir>/<file>` into entries through `entry` (which skips
    /// records of other kinds), with a warning for a torn final line. A
    /// missing file, mid-file corruption or no entries at all is an error.
    pub fn load<T>(self, dir: &Path, entry: impl Fn(&Json) -> Option<T>) -> Result<(Vec<T>, Vec<String>), String> {
        let path = dir.join(self.file());
        let (hint, kind) = match self {
            Store::Ledger => ("the ledger enabled? set PLATEAU_LEDGER or --ledger", "run"),
            Store::Perf => ("the perf ledger enabled? set PLATEAU_PERF or run a bench bin with it", "perf"),
        };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e} (is {hint})", path.display()))?;
        let jsonl = parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (records, warnings) = jsonl.tolerant();
        let entries: Vec<T> = records.iter().filter_map(entry).collect();
        if entries.is_empty() {
            return Err(format!("{}: no {kind} records", path.display()));
        }
        Ok((entries, warnings))
    }
}

/// Appends `record` as one line to `<dir>/<file>`, creating both as
/// needed; returns the file's path.
pub fn append(dir: &Path, file: &str, record: &Json) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    let mut f = std::fs::OpenOptions::new().append(true).create(true).open(&path)?;
    f.write_all(format!("{record}\n").as_bytes())?;
    f.flush()?;
    Ok(path)
}

/// A malformed JSONL line: its 1-based number and the parser's message.
#[derive(Debug, Clone, PartialEq)]
pub struct BadLine {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for BadLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// The records of one JSONL text, each with its 1-based line number, and
/// the torn final line if there was one.
#[derive(Debug, Clone)]
pub struct Jsonl {
    pub records: Vec<(usize, Json)>,
    pub torn: Option<BadLine>,
}

impl Jsonl {
    /// For readers that tolerate a torn tail: the records, plus a warning
    /// naming the skipped line (`obs report` prints it on stdout too).
    pub fn tolerant(self) -> (Vec<Json>, Vec<String>) {
        let warn = |b: BadLine| format!("skipped truncated final line {} (crashed or still-running run)", b.line);
        (self.records.into_iter().map(|(_, r)| r).collect(), self.torn.into_iter().map(warn).collect())
    }

    /// For readers that do not: the records, or the torn line as an error.
    pub fn strict(self) -> Result<Vec<(usize, Json)>, BadLine> {
        self.torn.map_or(Ok(self.records), Err)
    }
}

/// Parses JSONL text by the module's torn-line rule.
///
/// # Errors
///
/// A malformed line that a non-blank line follows.
pub fn parse_jsonl(text: &str) -> Result<Jsonl, BadLine> {
    let mut records = Vec::new();
    let mut torn = None;
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        if let Some(bad) = torn.take() {
            return Err(bad);
        }
        match Json::parse(line) {
            Ok(rec) => records.push((i + 1, rec)),
            Err(e) => torn = Some(BadLine { line: i + 1, message: e.to_string() }),
        }
    }
    Ok(Jsonl { records, torn })
}

/// The variables stamped into every manifest and run record: threads and
/// sinks.
pub const TRACKED_ENV: &[&str] = &[
    "PLATEAU_THREADS",
    "PLATEAU_LOG",
    "PLATEAU_METRICS",
    "PLATEAU_METRICS_OUT",
    "PLATEAU_LEDGER",
    "PLATEAU_PERF",
];

/// `git describe --always --dirty --tags`, or `"unknown"` without git or
/// a repository. Runs once per process.
pub fn git_describe() -> &'static str {
    static GIT: OnceLock<String> = OnceLock::new();
    GIT.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--tags"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

pub(crate) fn now_millis() -> u128 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis())
}

/// Builds one record: `type` first, then fields in the order added.
#[derive(Debug, Clone)]
pub struct Record(Vec<(String, Json)>);

impl Record {
    /// A record of the given `type`.
    pub fn new(kind: &str) -> Record {
        Record(vec![("type".to_string(), Json::str(kind))])
    }

    /// Adds one field.
    pub fn field(mut self, key: &str, value: Json) -> Record {
        self.0.push((key.to_string(), value));
        self
    }

    /// `ts_unix` rounded down to `1/ticks_per_s` s: manifests keep whole
    /// seconds (1), run and perf records milliseconds (1000).
    pub fn ts_unix(self, ticks_per_s: u128) -> Record {
        let ticks = now_millis() * ticks_per_s / 1000;
        self.field("ts_unix", Json::Num(ticks as f64 / ticks_per_s as f64))
    }

    /// `git`, the source revision.
    pub fn git(self) -> Record {
        self.field("git", Json::str(git_describe()))
    }

    /// `seed`, `null` when absent.
    pub fn seed(self, seed: Option<u64>) -> Record {
        self.field("seed", seed.map_or(Json::Null, |s| Json::Num(s as f64)))
    }

    /// `config`, the run's key/value pairs.
    pub fn config(self, pairs: Vec<(String, Json)>) -> Record {
        self.field("config", Json::Obj(pairs))
    }

    /// `env`: every [`TRACKED_ENV`] variable, `null` when unset.
    pub fn env(self) -> Record {
        let var = |k: &&str| (k.to_string(), std::env::var(k).map_or(Json::Null, Json::str));
        self.field("env", Json::Obj(TRACKED_ENV.iter().map(var).collect()))
    }

    /// `cores`, the detected core count (`null` when unknown).
    pub fn cores(self) -> Record {
        self.field("cores", std::thread::available_parallelism().map_or(Json::Null, |n| Json::from(n.get())))
    }

    /// The finished JSON object.
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

/// The header of one parsed record. Missing fields read as `ts_unix` 0,
/// `git` `"unknown"`, no config and 1 core; config values are stringified
/// (strings bare, anything else as JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    pub ts_unix: f64,
    pub git: String,
    pub config: Vec<(String, String)>,
    pub cores: usize,
}

impl Header {
    /// Reads the header of `rec` when its `type` is `kind`.
    pub fn read(rec: &Json, kind: &str) -> Option<Header> {
        if rec.get("type")?.as_str()? != kind {
            return None;
        }
        let config = rec.get("config").and_then(Json::as_obj).unwrap_or_default();
        let stringify = |v: &Json| v.as_str().map_or_else(|| v.to_string(), String::from);
        Some(Header {
            ts_unix: rec.get("ts_unix").and_then(Json::as_f64).unwrap_or(0.0),
            git: rec.get("git").and_then(Json::as_str).unwrap_or("unknown").to_string(),
            config: config.iter().map(|(k, v)| (k.clone(), stringify(v))).collect(),
            cores: rec.get("cores").and_then(Json::as_f64).unwrap_or(1.0) as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{Trace, TraceError};
    use crate::perf::PerfLedger;
    use crate::runs::Ledger;
    use crate::timeseries::TimeSeries;

    /// Every reader of the store, fed the same damage: `R` stands for a
    /// valid record of the reader's own kind and `@` for a torn one.
    #[test]
    fn every_reader_follows_the_one_torn_line_rule() {
        const RUN: &str = r#"{"type":"run","id":"r1","ts_unix":1,"command":"train","git":"g","seed":null,"config":{},"metrics":{},"series":null}"#;
        const PERF: &str = r#"{"type":"perf","ts_unix":1,"bench":"b","git":"g","config":{},"median_ns":5,"p90_ns":6,"peak_bytes":null,"cores":2}"#;
        const SPAN: &str = r#"{"type":"span","name":"a","depth":0,"duration_ns":10}"#;
        const SERIES: &str = r#"{"type":"series_header","columns":["loss"],"pushed":0,"stride":1}"#;
        const TORN: &str = r#"{"type":"ru"#;
        /// A tolerant reader's outcome: (records kept, warnings) or error.
        type Want = Option<(usize, usize)>;
        // (case, file text, ledger/perf/trace outcome, series loads).
        let cases: [(&str, &str, Want, bool); 6] = [
            ("valid", "R\nR\n", Some((2, 0)), true),
            ("torn final line", "R\n@", Some((1, 1)), false),
            ("torn line then blank lines", "R\n@\n\n  \n", Some((1, 1)), false),
            ("malformed mid-file", "R\n@\nR\n", None, false),
            ("empty file", "", None, false),
            ("missing file", "<missing>", None, false),
        ];
        let dir = std::env::temp_dir().join(format!("plateau_store_table_{}", std::process::id()));
        for (case, shape, want, series_loads) in cases {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let write = |file: &str, rec: &str| {
                let path = dir.join(file);
                if shape != "<missing>" {
                    std::fs::write(&path, shape.replace('R', rec).replace('@', TORN)).unwrap();
                }
                path
            };
            write(Store::Ledger.file(), RUN);
            write(Store::Perf.file(), PERF);
            let ledger = Ledger::load(&dir).ok().map(|l| (l.runs.len(), l.warnings.len()));
            let perf = PerfLedger::load(&dir).ok().map(|l| (l.entries.len(), l.warnings.len()));
            let trace = Trace::read(&write("trace.jsonl", SPAN));
            let trace_got = trace.as_ref().ok().map(|t| (t.spans.len(), t.warnings.len()));
            let series = TimeSeries::read_jsonl(&write("series.jsonl", SERIES));
            assert_eq!([ledger, perf, trace_got], [want; 3], "{case}: ledger, perf, trace");
            assert_eq!(series.is_ok(), series_loads, "{case}: series {series:?}");
            if case == "malformed mid-file" {
                assert!(matches!(trace, Err(TraceError::Malformed { line: 2, .. })), "{trace:?}");
                let err = Ledger::load(&dir).unwrap_err();
                assert!(err.contains("line 2"), "{case}: {err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `PLATEAU_LEDGER`, `PLATEAU_PERF` and the CLI's `--ledger` accept
    /// the same values: [`Store::from_env`] and the flag both hand theirs
    /// to [`parse_dir`]. (`cli_runs` drives the variable and the flag end
    /// to end.)
    #[test]
    fn ledger_perf_and_flag_share_one_grammar() {
        let default = Some(PathBuf::from(DEFAULT_DIR));
        let table: &[(&str, Option<PathBuf>)] = &[
            ("", None),
            ("0", None),
            ("false", None),
            ("off", None),
            ("no", None),
            (" OFF ", None),
            ("1", default.clone()),
            ("true", default.clone()),
            ("on", default.clone()),
            ("yes", default.clone()),
            ("Yes", default.clone()),
            ("/tmp/somewhere", Some(PathBuf::from("/tmp/somewhere"))),
            (" rel/dir ", Some(PathBuf::from("rel/dir"))),
        ];
        for (raw, want) in table {
            assert_eq!(&parse_dir(raw), want, "{raw:?}");
            assert_eq!(is_on(raw), want.as_deref() == Some(Path::new(DEFAULT_DIR)), "{raw:?}");
        }
        assert_eq!([Store::Ledger.var(), Store::Perf.var()], ["PLATEAU_LEDGER", "PLATEAU_PERF"]);
    }
}
