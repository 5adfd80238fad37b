//! `paperbench` — the paper-workload benchmark.
//!
//! ```text
//! paperbench --workload <fig5a_cell|train_ivd|serve_mixed|wide_state>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the program at its defaults, checks its
//! outputs, and prints one JSON object as the last line of standard
//! output: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`E2E`]); with
//! `--trace 1` they are the per-layer set ([`LAYERS`]) and the spans are
//! written to `paperbench/out/trace-<workload>-<seed>.jsonl`.
//! `--print-reference` recomputes the recorded correctness references.
//! See `paperbench/README.md` for what each workload and metric means.

mod calib;
mod fig5a;
mod host;
mod layers;
mod reference;
mod serve;
mod stats;
mod trace;
mod train;
mod wide;

use std::time::Instant;

use plateau_obs::json::Json;

use crate::trace::Tracer;

/// Counting allocator, idle unless a traced run switches profiling on
/// (then `grad.alloc_bytes_per_gradient` is read from it).
#[global_allocator]
static ALLOC: plateau_obs::alloc::CountingAllocator = plateau_obs::alloc::CountingAllocator;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them;
/// what "main" and "alt" operation mean per workload is in the README.
/// Times are relative: each operation's wall time over that of the
/// benchmark's own reference run timed around it ([`calib`]).
pub const E2E: &[(&str, &str)] = &[
    ("main_rel", "ratio"),
    ("alt_rel", "ratio"),
    ("throughput_rel", "1/ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const LAYERS: &[(&str, &str)] = &[
    ("sim.kernel_ns_per_amp", "ns"),
    ("sim.kernel_ops_per_byte", "op/B"),
    ("sim.kernel_peak_frac", "ratio"),
    ("sim.gate_applications_per_grad", "count"),
    ("sim.state_allocs_per_grad", "count"),
    ("sim.state_reuse_ratio", "ratio"),
    ("sim.fuse.compile_us", "us"),
    ("sim.fuse.segments_per_gate", "ratio"),
    ("sim.par.kernels_per_grad", "count"),
    ("grad.adjoint_us", "us"),
    ("grad.shift_us", "us"),
    ("grad.executions_per_gradient", "count"),
    ("grad.alloc_bytes_per_gradient", "B"),
    ("grad.batch.jobs_per_batch", "count"),
    ("par.batches_per_op", "count"),
    ("par.overhead_frac", "ratio"),
    ("core.ansatz_build_us", "us"),
    ("core.init_us", "us"),
    ("core.optim_step_us", "us"),
    ("core.train_overhead_frac", "ratio"),
    ("serve.http_parse_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.cache_hit_us", "us"),
    ("serve.cache_miss_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected_ratio", "ratio"),
    ("serve.generator_lag_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Counts `n` timed operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one correctness check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("paperbench: check failed: {}", what());
        }
    }

    /// Records a metric (end-to-end or per-layer, by name).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Prints a workload-named figure for people (not part of the JSON).
    pub fn show(&self, label: &str, value: f64, unit: &str) {
        println!("  {label:<44} {value:>14.4} {unit}");
    }

    /// Prints the median and the supported tail of per-operation times
    /// (ms) with the sample count. Tails are printed, not gated: on a
    /// shared host one stall moves them more than any bound allows.
    pub fn show_tail(&self, label: &str, ms: &[f64]) {
        let (tail, q) = stats::tail(ms);
        self.show(
            &format!("{label} p50 (n={})", ms.len()),
            stats::median(ms),
            "ms",
        );
        self.show(&format!("{label} p{:.1}", 100.0 * q), tail, "ms");
    }

    /// Prints, for people, the wall-time median and tail of `p`'s
    /// operations, the reference runs' median and the median relative
    /// time; returns the relative times.
    pub fn show_rel(&self, label: &str, p: &calib::Paired) -> Vec<f64> {
        let rel = p.ratios();
        self.show_tail(label, &p.ms());
        self.show(
            &format!("{label} reference run p50 (n={})", p.refs_ms().len()),
            stats::median(p.refs_ms()),
            "ms",
        );
        self.show(
            &format!("{label} relative p50"),
            stats::median(&rel),
            "ratio",
        );
        rel
    }

    /// [`Report::show_rel`], and sets `metric` to the median relative time.
    pub fn set_rel(&mut self, metric: &'static str, label: &str, p: &calib::Paired) -> Vec<f64> {
        let rel = self.show_rel(label, p);
        self.set(metric, stats::median(&rel));
        rel
    }
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// Set-ups timed on each side of a batch workload's timed part.
pub const SETUPS: usize = 5;

/// Runs the set-up `f` `n` times and returns the last result with the
/// wall times in seconds. Batch workloads time [`SETUPS`] set-ups before
/// the timed part and as many after it, and report the median of all as
/// `setup_s`: the shared host's speed changes within seconds, and set-ups
/// taken at both ends of the run keep one slow spell from deciding it.
pub fn time_setups<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take()); // release the previous set-up before timing the next
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("n >= 1"), times)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        print_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-reference" {
            args.print_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn main() {
    // Pin the program configuration before anything reads it: every
    // `PLATEAU_*` knob is cleared so the program runs at its defaults.
    let cleared = host::clear_plateau_env();

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            std::process::exit(2);
        }
    };
    if args.print_reference {
        reference::print();
        return;
    }
    let run: fn(&Ctx) -> Report = match args.workload.as_str() {
        "fig5a_cell" => fig5a::run,
        "train_ivd" => train::run,
        "serve_mixed" => serve::run,
        "wide_state" => wide::run,
        other => {
            eprintln!("paperbench: unknown --workload {other:?}");
            std::process::exit(2);
        }
    };

    let host = host::describe(&cleared);
    println!("host {host}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
    };
    let mut report = run(&ctx);

    let wanted = if args.trace { LAYERS } else { E2E };
    if args.trace {
        layers::fill_missing(&ctx, &args.workload, &mut report);
        let path = std::path::PathBuf::from("paperbench/out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(
            &path,
            &format!("paperbench {}", args.workload),
            &host::git_rev(),
        ) {
            Ok(n) => println!("trace {} spans -> {}", n, path.display()),
            Err(e) => {
                eprintln!("paperbench: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let Some(value) = report.get(name).filter(|v| v.is_finite()) else {
            eprintln!("paperbench: workload produced no finite value for {name}");
            std::process::exit(1);
        };
        println!("metric {name:<34} {value:>16.6} {unit}");
        metrics.push((
            name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    let result = Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
}
