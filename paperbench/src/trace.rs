//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each layer's public functions,
//! from this crate only; nothing inside the program is instrumented. They
//! are kept in memory and written once, at the end of a traced run, as
//! JSONL in the record format `plateau obs report` reads
//! (`{"type":"span","name",...,"id","parent","duration_ns","depth"}`).
//! Every span carries the id of the operation or request it belongs to in
//! `fields.op`, so the spans of one request can be grouped.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use plateau_obs::json::Json;

struct Record {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    depth: usize,
    op: u64,
    start_ns: u64,
    duration_ns: u64,
}

/// An open span: close it with [`Tracer::close`].
pub struct Open {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    depth: usize,
    op: u64,
    start: Instant,
}

impl Open {
    /// `(id, depth)`, the parent argument of [`Tracer::record`].
    pub fn key(&self) -> (u64, usize) {
        (self.id, self.depth)
    }
}

/// In-memory span store. A disabled tracer records nothing and never
/// reads the clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    records: Mutex<(u64, Vec<Record>)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            records: Mutex::new((0, Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent` (a root when `None`). Returns `None`
    /// when tracing is off.
    pub fn open(&self, name: &'static str, parent: Option<&Open>, op: u64) -> Option<Open> {
        if !self.on {
            return None;
        }
        let id = {
            let mut guard = self.records.lock().expect("tracer lock poisoned");
            guard.0 += 1;
            guard.0
        };
        Some(Open {
            name,
            id,
            parent: parent.map(|p| p.id),
            depth: parent.map_or(0, |p| p.depth + 1),
            op,
            start: Instant::now(),
        })
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, span: Option<Open>) {
        let Some(s) = span else { return };
        let duration_ns = s.start.elapsed().as_nanos() as u64;
        let start_ns = s.start.duration_since(self.epoch).as_nanos() as u64;
        self.records
            .lock()
            .expect("tracer lock poisoned")
            .1
            .push(Record {
                name: s.name,
                id: s.id,
                parent: s.parent,
                depth: s.depth,
                op: s.op,
                start_ns,
                duration_ns,
            });
    }

    /// Records a span whose interval was measured elsewhere; returns its
    /// id (0 when tracing is off) for use as a parent.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<(u64, usize)>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> (u64, usize) {
        if !self.on {
            return (0, 0);
        }
        let depth = parent.map_or(0, |(_, d)| d + 1);
        let mut guard = self.records.lock().expect("tracer lock poisoned");
        guard.0 += 1;
        let id = guard.0;
        guard.1.push(Record {
            name,
            id,
            parent: parent.map(|(p, _)| p),
            depth,
            op,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            duration_ns: end.duration_since(start).as_nanos() as u64,
        });
        (id, depth)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        op: u64,
        f: impl FnOnce(Option<&Open>) -> T,
    ) -> T {
        let s = self.open(name, parent, op);
        let out = f(s.as_ref());
        self.close(s);
        out
    }

    /// Durations (ns) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.records
            .lock()
            .expect("tracer lock poisoned")
            .1
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.duration_ns as f64)
            .collect()
    }

    /// Durations (ns) of spans named `child` whose parent is named `parent`.
    pub fn children_durations(&self, parent: &str, child: &str) -> Vec<f64> {
        let guard = self.records.lock().expect("tracer lock poisoned");
        let parents: std::collections::HashSet<u64> = guard
            .1
            .iter()
            .filter(|r| r.name == parent)
            .map(|r| r.id)
            .collect();
        guard
            .1
            .iter()
            .filter(|r| r.name == child && r.parent.is_some_and(|p| parents.contains(&p)))
            .map(|r| r.duration_ns as f64)
            .collect()
    }

    /// Writes every span as JSONL, preceded by a manifest record.
    pub fn write_jsonl(&self, path: &Path, command: &str, git: &str) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let guard = self.records.lock().expect("tracer lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let manifest = Json::obj([
            ("type", Json::str("manifest")),
            ("command", Json::str(command)),
            ("git", Json::str(git)),
        ]);
        writeln!(out, "{manifest}")?;
        for r in &guard.1 {
            let rec = Json::obj([
                ("type", Json::str("span")),
                ("name", Json::str(r.name)),
                ("id", Json::Num(r.id as f64)),
                (
                    "parent",
                    r.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("duration_ns", Json::Num(r.duration_ns as f64)),
                ("depth", Json::from(r.depth)),
                ("start_ns", Json::Num(r.start_ns as f64)),
                ("fields", Json::obj([("op", Json::Num(r.op as f64))])),
            ]);
            writeln!(out, "{rec}")?;
        }
        out.flush()?;
        Ok(guard.1.len())
    }
}
