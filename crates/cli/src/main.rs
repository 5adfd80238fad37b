//! `plateau` — command-line interface to the barren-plateau experiment
//! suite.
//!
//! ```text
//! plateau variance  [--qubits 2,4,6,8,10] [--layers 50] [--circuits 200]
//!                   [--cost global|local] [--fan qubits|params|tensor] [--seed N]
//! plateau train     [--qubits 10] [--layers 5] [--iterations 50]
//!                   [--strategy xavier_normal|…] [--optimizer adam|gd|momentum|rmsprop|adagrad]
//!                   [--lr 0.1] [--seed N]
//! plateau landscape [--qubits 5] [--layers 100] [--resolution 25] [--seed N]
//! plateau analyze   [--qubits 6] [--layers 8] [--samples 50] [--pairs 400] [--seed N]
//! plateau export    [--qubits 4] [--layers 2] [--strategy xavier_normal] [--seed N]
//! plateau diagram   [--qubits 4] [--layers 1]
//! plateau vqe       [--qubits 6] [--layers 4] [--iterations 120] [--strategy S] [--j 1] [--h 1]
//! plateau classify  [--qubits 3] [--layers 3] [--samples 120] [--epochs 60] [--strategy S]
//! plateau fuzz      [--cases 200] [--seed 0xfeed] [--max-qubits 8]
//!                   [--artifacts target/fuzz] [--mutate true] [--replay PATH]
//! plateau obs report --trace run.jsonl [--top N] [--filter prefix] [--by time|alloc|peak]
//! plateau obs flame  --trace run.jsonl --out flame.svg [--collapsed stacks.txt]
//!                    [--by time|alloc|peak]
//! plateau obs diff   <base> <new> [--threshold 0.2]   (sides: traces or baselines)
//! plateau obs baseline --trace run.jsonl [--out baseline.json]
//! plateau obs runs   list | show [ID] | compare [A B]
//!                    [--dir target/obs] [--svg plot.svg]
//! plateau obs perf   list | trend | regress
//!                    [--dir target/obs] [--bench PREFIX] [--svg plot.svg] [--threshold 0.25]
//! plateau help
//! ```
//!
//! Every subcommand also accepts `--ledger DIR|on|off` (else
//! `PLATEAU_LEDGER`): with the ledger on, this binary appends one run
//! record per experiment (train, vqe, classify, variance) plus its
//! gradient-dynamics time series under the ledger directory, which
//! `plateau obs runs` then lists, shows, and compares.

mod args;

use args::{ArgError, ParsedArgs};
use plateau_core::analysis::{average_entanglement, expressibility_kl};
use plateau_core::ansatz::training_ansatz;
use plateau_core::cost::CostKind;
use plateau_core::init::{FanMode, InitStrategy};
use plateau_core::landscape::{landscape_grid, LandscapeConfig};
use plateau_core::optim::{Adam, AdaGrad, GradientDescent, Momentum, Optimizer, RmsProp};
use plateau_core::train::{train_instrumented, TrainTelemetry};
use plateau_core::variance::{variance_scan, GradEngineKind, VarianceConfig};
use plateau_obs::store::{parse_dir, Store, DEFAULT_DIR};
use plateau_obs::{RunRecord, TimeSeries};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            plateau_obs::error!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Global flags accepted by every subcommand, on top of its own list.
const GLOBAL_FLAGS: &[&str] = &["log", "metrics-out", "ledger"];

/// Applies `--log` / `--metrics-out` and stamps the run manifest. Must run
/// before the subcommand so its spans and counters are recorded.
fn init_observability(parsed: &ParsedArgs, argv: &[String]) -> Result<(), Box<dyn Error>> {
    let level = match parsed.opt_str("log") {
        Some(raw) => Some(plateau_obs::Level::parse(&raw).ok_or_else(|| {
            format!("unknown log level {raw:?} (off|error|warn|info|debug|trace)")
        })?),
        None => None,
    };
    let metrics_out = parsed.opt_str("metrics-out").map(std::path::PathBuf::from);
    plateau_obs::init(level, metrics_out.as_deref())
        .map_err(|e| format!("failed to open --metrics-out sink: {e}"))?;

    let command = format!("plateau {}", argv.join(" "));
    let config = parsed
        .options()
        .map(|(k, v)| (k.to_string(), plateau_obs::json::Json::str(v)))
        .collect();
    let seed = parsed.opt_str("seed").and_then(|s| s.parse::<u64>().ok());
    plateau_obs::emit_manifest(&command, config, seed);
    Ok(())
}

fn run(argv: Vec<String>) -> Result<(), Box<dyn Error>> {
    let parsed = match ParsedArgs::parse(argv.clone()) {
        Err(ArgError::MissingCommand) => {
            print_help();
            return Ok(());
        }
        other => other?,
    };
    init_observability(&parsed, &argv)?;
    // --ledger takes the PLATEAU_LEDGER grammar and wins over it.
    let ledger = parsed.opt_str("ledger").map_or_else(|| Store::Ledger.from_env(), |raw| parse_dir(&raw));
    let ledger = ledger.as_deref();
    // Only the `obs` family takes positional arguments; everywhere else a
    // bare token is a typo and must stay fatal.
    if parsed.command != "obs" {
        parsed.expect_no_positionals()?;
    }
    let result = match parsed.command.as_str() {
        "variance" => cmd_variance(&parsed, ledger),
        "obs" => cmd_obs(&parsed, ledger),
        "train" => cmd_train(&parsed, ledger),
        "landscape" => cmd_landscape(&parsed),
        "analyze" => cmd_analyze(&parsed),
        "export" => cmd_export(&parsed),
        "diagram" => cmd_diagram(&parsed),
        "vqe" => cmd_vqe(&parsed, ledger),
        "classify" => cmd_classify(&parsed, ledger),
        "fuzz" => cmd_fuzz(&parsed),
        "serve" => cmd_serve(&parsed),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?} (try `plateau help`)").into()),
    };
    // Flush the metrics snapshot and close the JSONL sink even when the
    // subcommand failed — a partial trace is still a trace.
    plateau_obs::finish_run();
    result
}

fn print_help() {
    println!(
        "plateau — barren-plateau initialization experiments\n\
         \n\
         subcommands:\n\
         \x20 variance   gradient-variance scan across qubit counts and strategies\n\
         \x20 train      identity-task training with a chosen strategy and optimizer\n\
         \x20 landscape  2-D cost-surface scan over the last two parameters\n\
         \x20 analyze    entanglement / expressibility diagnostics per strategy\n\
         \x20 export     emit the initialized training ansatz as OpenQASM 2.0\n\
         \x20 diagram    ASCII wire diagram of the training ansatz\n\
         \x20 vqe        ground-state search on the transverse-field Ising chain\n\
         \x20 classify   two-moons classification with the re-uploading model\n\
         \x20 fuzz       differential fuzzing: cross-check every engine pair on\n\
         \x20            random circuits; mismatches are shrunk and written as\n\
         \x20            replayable reproducers under target/fuzz/\n\
         \x20            [--cases N] [--seed S (hex ok)] [--max-qubits N]\n\
         \x20            [--artifacts DIR] [--mutate true] [--replay PATH]\n\
         \x20 serve      multi-tenant HTTP simulation/gradient service\n\
         \x20            POST /simulate /gradient /variance-scan /train\n\
         \x20            (QASM or op-JSON circuits), GET /metrics /healthz\n\
         \x20            [--addr 127.0.0.1:8080] [--workers N] [--queue N]\n\
         \x20            [--cache N] [--max-qubits N]\n\
         \x20            [--duration SECS (0 = run until killed)]\n\
         \x20 obs        trace profiler + experiment ledger\n\
         \x20            report   --trace run.jsonl [--top N] [--filter PREFIX]\n\
         \x20                     [--by time|alloc|peak]\n\
         \x20                     self-time ranking (optionally restricted to one\n\
         \x20                     span-name prefix, e.g. --filter sim.); --by ranks\n\
         \x20                     by memory when the trace was recorded with\n\
         \x20                     PLATEAU_ALLOC_PROFILE=1\n\
         \x20            flame    --trace run.jsonl --out f.svg    SVG flamegraph\n\
         \x20                     [--by time|alloc|peak] weights frames by bytes\n\
         \x20            diff     BASE NEW [--threshold 0.2]       regression gate\n\
         \x20            baseline --trace run.jsonl [--out b.json] committable baseline\n\
         \x20            runs     list | show [ID] | compare [A B]\n\
         \x20                     [--dir target/obs] [--svg plot.svg]\n\
         \x20                     registry of ledger-recorded experiments: run-to-run\n\
         \x20                     metric deltas, gradient-decay slopes, SVG overlays\n\
         \x20            perf     list | trend | regress\n\
         \x20                     [--dir target/obs] [--bench PREFIX] [--svg plot.svg]\n\
         \x20                     [--threshold 0.25]\n\
         \x20                     bench-perf ledger (PLATEAU_PERF=1 while running a\n\
         \x20                     bench bin records history): per-bench trend fits\n\
         \x20                     and a history-based regression gate\n\
         \x20 help       this message\n\
         \n\
         run `plateau <subcommand> --flag value …`; see crate docs for flags.\n\
         \n\
         global flags (every subcommand):\n\
         \x20 --log LEVEL         stderr verbosity: off|error|warn|info|debug|trace\n\
         \x20                     (defaults to the PLATEAU_LOG environment variable)\n\
         \x20 --metrics-out PATH  write spans, events, the run manifest, and a final\n\
         \x20                     metrics snapshot as JSON lines to PATH\n\
         \x20 --ledger DIR|on|off append experiment run records + gradient-dynamics\n\
         \x20                     series under DIR (on = target/obs; same grammar as\n\
         \x20                     the PLATEAU_LEDGER environment variable)"
    );
}

fn parse_fan(raw: &str) -> Result<FanMode, Box<dyn Error>> {
    match raw {
        "qubits" => Ok(FanMode::Qubits),
        "params" => Ok(FanMode::ParamsPerLayer),
        "tensor" => Ok(FanMode::TensorShape),
        other => Err(format!("unknown fan mode {other:?} (qubits|params|tensor)").into()),
    }
}

fn parse_cost(raw: &str) -> Result<CostKind, Box<dyn Error>> {
    match raw {
        "global" => Ok(CostKind::Global),
        "local" => Ok(CostKind::Local),
        other => Err(format!("unknown cost {other:?} (global|local)").into()),
    }
}

fn parse_strategy(raw: &str) -> Result<InitStrategy, Box<dyn Error>> {
    InitStrategy::PAPER_SET
        .iter()
        .copied()
        .find(|s| s.name() == raw)
        .ok_or_else(|| {
            let names: Vec<&str> = InitStrategy::PAPER_SET.iter().map(|s| s.name()).collect();
            format!("unknown strategy {raw:?} (one of {})", names.join("|")).into()
        })
}

fn parse_engine(raw: &str) -> Result<GradEngineKind, Box<dyn Error>> {
    match raw {
        "adjoint" => Ok(GradEngineKind::Adjoint),
        "parameter-shift" => Ok(GradEngineKind::ParameterShift),
        other => Err(format!("unknown engine {other:?} (adjoint|parameter-shift)").into()),
    }
}

fn check_flags(parsed: &ParsedArgs, known: &[&str]) -> Result<(), Box<dyn Error>> {
    let mut known: Vec<&str> = known.to_vec();
    known.extend_from_slice(GLOBAL_FLAGS);
    let unknown = parsed.unknown_flags(&known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(format!("unknown flag(s): {}", unknown.join(", ")).into())
    }
}

/// Appends `record` and its series to the ledger at `dir`, when one is
/// configured; returns the run id. A failed write only warns: the
/// experiment's result stands without its record.
fn record_run(dir: Option<&Path>, record: &RunRecord, series: &TimeSeries) -> Option<String> {
    let dir = dir?;
    plateau_obs::record_run(dir, record, Some(series))
        .map_err(|e| plateau_obs::warn!("{}: ledger write failed: {e}", dir.display()))
        .ok()
}

fn cmd_variance(parsed: &ParsedArgs, ledger: Option<&Path>) -> Result<(), Box<dyn Error>> {
    check_flags(
        parsed,
        &["qubits", "layers", "circuits", "cost", "fan", "engine", "seed", "strategies"],
    )?;
    let qubits_raw = parsed.get_str("qubits", "2,4,6,8,10");
    let qubit_counts: Vec<usize> = qubits_raw
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad --qubits list {qubits_raw:?}"))?;
    let config = VarianceConfig {
        qubit_counts,
        layers: parsed.get("layers", 50usize)?,
        n_circuits: parsed.get("circuits", 200usize)?,
        cost: parse_cost(&parsed.get_str("cost", "global"))?,
        fan_mode: parse_fan(&parsed.get_str("fan", "tensor"))?,
        engine: parse_engine(&parsed.get_str("engine", "adjoint"))?,
        seed: parsed.get("seed", 0x706c6174u64)?,
        ..VarianceConfig::default()
    };

    let strategies: Vec<InitStrategy> = match parsed.opt_str("strategies") {
        Some(raw) => raw
            .split(',')
            .map(|s| parse_strategy(s.trim()))
            .collect::<Result<_, _>>()?,
        None => InitStrategy::PAPER_SET.to_vec(),
    };

    let scan = variance_scan(&config, &strategies)?;
    let (record, series) = scan.run_record();
    record_run(ledger, &record, &series);
    println!("strategy,{}", config.qubit_counts.iter().map(|q| format!("q{q}")).collect::<Vec<_>>().join(","));
    for curve in &scan.curves {
        let vars: Vec<String> = curve.points.iter().map(|p| format!("{:.6e}", p.variance)).collect();
        println!("{},{}", curve.strategy.name(), vars.join(","));
    }
    // The improvement table needs the random baseline in the scan; a
    // --strategies subset without it still gets the variance rows above.
    if scan.curve_of(InitStrategy::Random).is_some() {
        println!("\nstrategy,decay_rate,improvement_vs_random_pct");
        let base = scan.curve_of(InitStrategy::Random).expect("checked above").decay_fit()?;
        println!("random,{:.4},0.0", base.rate);
        for imp in scan.improvements_vs(InitStrategy::Random)? {
            println!("{},{:.4},{:.1}", imp.strategy.name(), imp.decay_rate, imp.improvement_percent);
        }
    }
    Ok(())
}

fn cmd_train(parsed: &ParsedArgs, ledger: Option<&Path>) -> Result<(), Box<dyn Error>> {
    check_flags(
        parsed,
        &["qubits", "layers", "iterations", "strategy", "optimizer", "lr", "fan", "seed"],
    )?;
    let n_qubits = parsed.get("qubits", 10usize)?;
    let layers = parsed.get("layers", 5usize)?;
    let iterations = parsed.get("iterations", 50usize)?;
    let lr = parsed.get("lr", 0.1f64)?;
    let strategy = parse_strategy(&parsed.get_str("strategy", "xavier_normal"))?;
    let fan = parse_fan(&parsed.get_str("fan", "tensor"))?;
    let seed = parsed.get("seed", 7u64)?;

    let ansatz = training_ansatz(n_qubits, layers)?;
    let obs = CostKind::Global.observable(n_qubits);
    use plateau_rng::SeedableRng;
    let mut rng = plateau_rng::rngs::StdRng::seed_from_u64(seed);
    let theta0 = strategy.sample_params(&ansatz.shape, fan, &mut rng)?;

    let opt_name = parsed.get_str("optimizer", "adam");
    let mut optimizer: Box<dyn Optimizer> = match opt_name.as_str() {
        "adam" => Box::new(Adam::new(lr)?),
        "gd" => Box::new(GradientDescent::new(lr)?),
        "momentum" => Box::new(Momentum::new(lr, 0.9)?),
        "rmsprop" => Box::new(RmsProp::new(lr)?),
        "adagrad" => Box::new(AdaGrad::new(lr)?),
        other => return Err(format!("unknown optimizer {other:?}").into()),
    };

    println!(
        "# {n_qubits} qubits, {layers} layers ({} gates, {} params), {strategy}, {opt_name} lr={lr}",
        ansatz.circuit.gate_count(),
        ansatz.circuit.n_params()
    );
    // With the ledger on, record the gradient-dynamics series for the
    // run's record; otherwise this is exactly `train`.
    let telemetry = match ledger {
        Some(_) => TrainTelemetry::for_run(ansatz.shape.params_per_layer()),
        None => TrainTelemetry::default(),
    };
    let run = train_instrumented(
        &ansatz.circuit,
        &obs,
        theta0,
        optimizer.as_mut(),
        iterations,
        &plateau_grad::Adjoint,
        &plateau_core::train::BarrenPlateauAlarm::default(),
        telemetry,
    )?;
    let hist = &run.history;
    let run_id = run.series.as_ref().and_then(|series| {
        use plateau_obs::json::Json;
        let record = RunRecord::new("train")
            .config("qubits", Json::from(n_qubits))
            .config("layers", Json::from(layers))
            .config("iterations", Json::from(iterations))
            .config("strategy", Json::str(strategy.name()))
            .config("optimizer", Json::str(opt_name.as_str()))
            .config("lr", Json::from(lr))
            .seed(seed);
        record_run(ledger, &hist.run_metrics(record), series)
    });
    println!("iteration,loss,grad_norm");
    for (i, loss) in hist.losses().iter().enumerate() {
        let g = if i == 0 {
            String::from("")
        } else {
            format!("{:.6e}", hist.grad_norms()[i - 1])
        };
        println!("{i},{loss:.6e},{g}");
    }
    println!("# final cost: {:.6e}", hist.final_loss());
    if let Some(id) = run_id {
        println!("# ledger run: {id}");
    }
    Ok(())
}

fn cmd_landscape(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    check_flags(parsed, &["qubits", "layers", "resolution", "seed"])?;
    let n_qubits = parsed.get("qubits", 5usize)?;
    let layers = parsed.get("layers", 100usize)?;
    let resolution = parsed.get("resolution", 25usize)?;
    let seed = parsed.get("seed", 0u64)?;

    let ansatz = training_ansatz(n_qubits, layers)?;
    use plateau_rng::SeedableRng;
    let mut rng = plateau_rng::rngs::StdRng::seed_from_u64(seed);
    let base = InitStrategy::Random.sample_params(&ansatz.shape, FanMode::Qubits, &mut rng)?;
    let cfg = LandscapeConfig::default().with_resolution(resolution)?;
    let n = ansatz.circuit.n_params();
    let grid = landscape_grid(
        &ansatz.circuit,
        &CostKind::Global.observable(n_qubits),
        &base,
        n - 2,
        n - 1,
        &cfg,
    )?;
    println!("# amplitude = {:.6e}", grid.amplitude());
    print!("theta_a\\theta_b");
    for y in &grid.ys {
        print!(",{y:.4}");
    }
    println!();
    for (i, row) in grid.values.iter().enumerate() {
        print!("{:.4}", grid.xs[i]);
        for v in row {
            print!(",{v:.6e}");
        }
        println!();
    }
    Ok(())
}

fn cmd_export(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    check_flags(parsed, &["qubits", "layers", "strategy", "fan", "seed"])?;
    let n_qubits = parsed.get("qubits", 4usize)?;
    let layers = parsed.get("layers", 2usize)?;
    let strategy = parse_strategy(&parsed.get_str("strategy", "xavier_normal"))?;
    let fan = parse_fan(&parsed.get_str("fan", "tensor"))?;
    let seed = parsed.get("seed", 0u64)?;

    let ansatz = training_ansatz(n_qubits, layers)?;
    use plateau_rng::SeedableRng;
    let mut rng = plateau_rng::rngs::StdRng::seed_from_u64(seed);
    let theta = strategy.sample_params(&ansatz.shape, fan, &mut rng)?;
    print!("{}", plateau_sim::qasm::to_qasm(&ansatz.circuit, &theta)?);
    Ok(())
}

fn cmd_diagram(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    check_flags(parsed, &["qubits", "layers"])?;
    let n_qubits = parsed.get("qubits", 4usize)?;
    let layers = parsed.get("layers", 1usize)?;
    let ansatz = training_ansatz(n_qubits, layers)?;
    print!("{}", plateau_sim::diagram::draw(&ansatz.circuit));
    Ok(())
}

fn cmd_vqe(parsed: &ParsedArgs, ledger: Option<&Path>) -> Result<(), Box<dyn Error>> {
    check_flags(parsed, &["qubits", "layers", "iterations", "strategy", "j", "h", "seed"])?;
    let n_qubits = parsed.get("qubits", 6usize)?;
    let strategy = parse_strategy(&parsed.get_str("strategy", "xavier_normal"))?;
    let hamiltonian = plateau_vqe::transverse_field_ising(
        n_qubits,
        parsed.get("j", 1.0f64)?,
        parsed.get("h", 1.0f64)?,
    )?;
    let cfg = plateau_vqe::VqeConfig {
        layers: parsed.get("layers", 4usize)?,
        iterations: parsed.get("iterations", 120usize)?,
        seed: parsed.get("seed", 0u64)?,
        ..plateau_vqe::VqeConfig::default()
    };
    let r = plateau_vqe::solve(&hamiltonian, strategy, &cfg)?;
    record_run(ledger, &r.run_record(n_qubits, strategy, &cfg), &r.series);
    println!("iteration,energy");
    for (i, e) in r.history.losses().iter().enumerate() {
        println!("{i},{e:.8}");
    }
    println!("# exact E0 = {:.8}", r.exact_energy);
    println!("# final relative error = {:.4}%", 100.0 * r.relative_error()?);
    Ok(())
}

fn cmd_classify(parsed: &ParsedArgs, ledger: Option<&Path>) -> Result<(), Box<dyn Error>> {
    check_flags(parsed, &["qubits", "layers", "samples", "epochs", "strategy", "noise", "seed"])?;
    let n_qubits = parsed.get("qubits", 3usize)?;
    let layers = parsed.get("layers", 3usize)?;
    let n_samples = parsed.get("samples", 120usize)?;
    let epochs = parsed.get("epochs", 60usize)?;
    let noise = parsed.get("noise", 0.05f64)?;
    let strategy = parse_strategy(&parsed.get_str("strategy", "xavier_normal"))?;
    let seed = parsed.get("seed", 42u64)?;

    use plateau_rng::SeedableRng;
    let mut rng = plateau_rng::rngs::StdRng::seed_from_u64(seed);
    let data = plateau_qml::two_moons(n_samples, noise, &mut rng);
    let (train_set, test_set) = plateau_qml::train_test_split(data, 0.75);
    let model = plateau_qml::Classifier::new(n_qubits, layers, 2)?;
    let w0 = model.init_weights(strategy, FanMode::TensorShape, &mut rng)?;
    let mut adam = Adam::new(0.1)?;
    let fit = model.fit(w0, &train_set, &mut adam, epochs)?;
    record_run(ledger, &model.run_record(&fit, train_set.len()), &fit.series);
    println!("epoch,train_mse");
    for (i, l) in fit.losses.iter().enumerate() {
        println!("{i},{l:.6}");
    }
    println!("# train accuracy = {:.1}%", 100.0 * model.accuracy(&fit.weights, &train_set)?);
    println!("# test accuracy  = {:.1}%", 100.0 * model.accuracy(&fit.weights, &test_set)?);
    Ok(())
}

/// The default [`plateau_serve::ServeConfig`] with `PLATEAU_SERVE_WORKERS`,
/// `PLATEAU_SERVE_QUEUE`, `PLATEAU_SERVE_CACHE`, `PLATEAU_SERVE_MAX_BODY`
/// and `PLATEAU_SERVE_MAX_QUBITS` applied, each looked up through
/// `lookup` and clamped to a usable value. Unparsable values are ignored.
fn serve_config_from_env(lookup: impl Fn(&str) -> Option<String>) -> plateau_serve::ServeConfig {
    let mut cfg = plateau_serve::ServeConfig::default();
    let read = |name: &str| lookup(name).and_then(|v| v.parse::<usize>().ok());
    if let Some(w) = read("PLATEAU_SERVE_WORKERS") {
        cfg.workers = w.max(1);
    }
    if let Some(q) = read("PLATEAU_SERVE_QUEUE") {
        cfg.queue_capacity = q.max(1);
    }
    if let Some(c) = read("PLATEAU_SERVE_CACHE") {
        cfg.cache_capacity = c.max(1);
    }
    if let Some(b) = read("PLATEAU_SERVE_MAX_BODY") {
        cfg.max_body = b.max(1024);
    }
    if let Some(m) = read("PLATEAU_SERVE_MAX_QUBITS") {
        cfg.limits.max_qubits = m.clamp(1, plateau_sim::MAX_QUBITS);
    }
    cfg
}

/// The `plateau serve` subcommand: the HTTP service (DESIGN.md §15),
/// configured from `PLATEAU_SERVE_*` and then from its flags.
fn cmd_serve(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    check_flags(
        parsed,
        &["addr", "workers", "queue", "cache", "max-qubits", "duration"],
    )?;
    let mut cfg = serve_config_from_env(|name| std::env::var(name).ok());
    cfg.addr = parsed.get_str("addr", "127.0.0.1:8080");
    cfg.workers = parsed.get("workers", cfg.workers)?;
    cfg.queue_capacity = parsed.get("queue", cfg.queue_capacity)?;
    cfg.cache_capacity = parsed.get("cache", cfg.cache_capacity)?;
    cfg.limits.max_qubits = parsed
        .get("max-qubits", cfg.limits.max_qubits)?
        .clamp(1, plateau_sim::MAX_QUBITS);
    let duration = parsed.get("duration", 0u64)?;

    let server = plateau_serve::Server::start(cfg.clone())?;
    println!(
        "# plateau-serve listening on http://{} ({} workers, queue {}, cache {})",
        server.addr(),
        cfg.workers,
        cfg.queue_capacity,
        cfg.cache_capacity
    );
    println!("# endpoints: POST /simulate /gradient /variance-scan /train · GET /metrics /healthz");
    if duration == 0 {
        // Run until the process is killed; the OS reclaims the socket.
        loop {
            std::thread::park();
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(duration));
    println!("# duration elapsed; draining");
    server.shutdown();
    Ok(())
}

/// The `plateau fuzz` subcommand: differential fuzzing across the engine
/// matrix (see `plateau-fuzz` crate docs and DESIGN.md §10). Without
/// `--replay` it runs a seeded campaign and fails on any divergence;
/// `--mutate true` flips into the mutation self-test, which *succeeds*
/// only when every deliberately broken engine is caught and the smallest
/// reproducer shrinks small; `--replay PATH` re-runs a written artifact and
/// fails while the recorded divergence still reproduces.
fn cmd_fuzz(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    check_flags(parsed, &["cases", "seed", "max-qubits", "artifacts", "mutate", "replay"])?;
    if let Some(path) = parsed.opt_str("replay") {
        let outcome = plateau_fuzz::replay(std::path::Path::new(&path))?;
        let a = &outcome.artifact;
        println!(
            "# replaying {path}: pair {}, seed {:#x} case {}, {} gate(s), recorded delta {:e}",
            a.pair,
            a.seed,
            a.case_index,
            a.case.gate_count(),
            a.delta
        );
        return match outcome.mismatch {
            Some(m) => Err(format!(
                "mismatch still reproduces: {} (delta {:e}, tolerance {:e})",
                m.detail,
                m.delta,
                a.pair.tolerance()
            )
            .into()),
            None => {
                println!("# pair agrees within tolerance {:e} — divergence no longer reproduces", a.pair.tolerance());
                Ok(())
            }
        };
    }

    let seed_raw = parsed.get_str("seed", "0xfeed");
    let config = plateau_fuzz::FuzzConfig {
        cases: parsed.get("cases", 200usize)?,
        seed: plateau_fuzz::parse_seed(&seed_raw)?,
        max_qubits: parsed.get("max-qubits", 8usize)?,
        artifact_dir: Some(std::path::PathBuf::from(
            parsed.get_str("artifacts", "target/fuzz"),
        )),
        mutate: parsed.get("mutate", false)?,
    };
    let report = plateau_fuzz::run(&config);
    println!(
        "# plateau fuzz: {} cases, seed {}, max {} qubits{}",
        report.cases,
        seed_raw,
        config.max_qubits,
        if config.mutate { " (mutation self-test)" } else { "" }
    );
    println!("pair,comparisons,max_delta,tolerance");
    for (name, stats) in &report.stats {
        let pair = plateau_fuzz::EnginePair::parse(name).expect("stats keys are pair names");
        println!(
            "{name},{},{:e},{:e}",
            stats.comparisons,
            stats.max_delta,
            pair.tolerance()
        );
    }
    for m in &report.mismatches {
        println!(
            "# MISMATCH case {}: {} — {} (shrunk {} -> {} gate(s)){}",
            m.case_index,
            m.pair,
            m.detail,
            m.original_gates,
            m.shrunk.gate_count(),
            match &m.artifact {
                Some(p) => format!(", reproducer: {}", p.display()),
                None => String::new(),
            }
        );
    }

    if config.mutate {
        // Self-test semantics: every injected bug MUST be found and MUST
        // shrink small, or the harness itself is broken.
        for pair in plateau_fuzz::EnginePair::MUTANTS {
            let smallest = report
                .mismatches
                .iter()
                .filter(|m| m.pair == pair)
                .map(|m| m.shrunk.gate_count())
                .min();
            match smallest {
                None => {
                    return Err(
                        format!("mutation self-test FAILED: {pair} was never detected").into()
                    )
                }
                Some(gates) if gates > 8 => {
                    return Err(format!(
                        "mutation self-test FAILED: {pair}'s smallest reproducer has {gates} \
                         gates (want ≤ 8)"
                    )
                    .into())
                }
                Some(_) => {}
            }
        }
        let smallest = report.mismatches.iter().map(|m| m.shrunk.gate_count()).min();
        println!(
            "# mutation self-test passed: {} detection(s) across {} mutants, smallest \
             reproducer {} gate(s)",
            report.mismatches.len(),
            plateau_fuzz::EnginePair::MUTANTS.len(),
            smallest.unwrap_or(0)
        );
        return Ok(());
    }
    if report.clean() {
        println!("# {} comparisons, all clean", report.comparisons());
        Ok(())
    } else {
        Err(format!(
            "{} mismatch(es) across {} comparisons — reproducers under {}",
            report.mismatches.len(),
            report.comparisons(),
            config
                .artifact_dir
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "<disabled>".into())
        )
        .into())
    }
}

/// The `plateau obs` family: the read side of the observability stack.
/// `report` ranks span names by self time, `flame` renders an SVG
/// flamegraph (and optionally collapsed stacks), `diff` compares two
/// traces/baselines and fails on regressions, `baseline` freezes a trace's
/// aggregation into a committable document.
fn cmd_obs(parsed: &ParsedArgs, ledger: Option<&Path>) -> Result<(), Box<dyn Error>> {
    use plateau_obs::analyze::{Analysis, Trace};

    let required_trace = || -> Result<Trace, Box<dyn Error>> {
        let path = parsed
            .opt_str("trace")
            .ok_or("missing --trace PATH (a JSONL file from --metrics-out)")?;
        let trace = Trace::read(std::path::Path::new(&path))?;
        warn_all(&path, &trace.warnings);
        Ok(trace)
    };

    let rank_by = || -> Result<plateau_obs::analyze::RankBy, Box<dyn Error>> {
        match parsed.opt_str("by") {
            None => Ok(plateau_obs::analyze::RankBy::Time),
            Some(s) => plateau_obs::analyze::RankBy::parse(&s)
                .ok_or_else(|| format!("unknown --by {s:?} (time|alloc|peak)").into()),
        }
    };

    let sub = parsed
        .positionals()
        .first()
        .ok_or("obs needs a subcommand: report|flame|diff|baseline|runs|perf")?;
    match sub.as_str() {
        "report" => {
            check_flags(parsed, &["trace", "top", "filter", "by"])?;
            let top = parsed.get("top", 20usize)?;
            let by = rank_by()?;
            let mut analysis = Analysis::of(&required_trace()?);
            if let Some(prefix) = parsed.opt_str("filter") {
                analysis = analysis.filter_prefix(&prefix);
            }
            analysis.rank_by(by);
            print!("{}", analysis.render_report(top));
            Ok(())
        }
        "runs" => cmd_obs_runs(parsed, ledger),
        "perf" => cmd_obs_perf(parsed),
        "flame" => {
            check_flags(parsed, &["trace", "out", "collapsed", "by"])?;
            let out = parsed.get_str("out", "flame.svg");
            let by = rank_by()?;
            let trace = required_trace()?;
            let title = trace.command.clone().unwrap_or_else(|| "plateau trace".into());
            write_out(&out, plateau_obs::flame::flamegraph_svg_by(&trace, &title, by))?;
            println!(
                "# wrote {out}: {} spans, {} roots, max depth {}",
                trace.spans.len(),
                trace.roots.len(),
                trace.max_depth()
            );
            if let Some(collapsed) = parsed.opt_str("collapsed") {
                write_out(&collapsed, plateau_obs::flame::collapsed_stacks(&trace))?;
                println!("# wrote {collapsed} (collapsed stacks)");
            }
            Ok(())
        }
        "diff" => {
            check_flags(parsed, &["threshold"])?;
            let [_, base, new] = parsed.positionals() else {
                return Err("obs diff needs two paths: <base> <new> (traces or baselines)".into());
            };
            let threshold = parsed.get("threshold", 0.2f64)?;
            if threshold <= 0.0 {
                return Err("--threshold must be positive".into());
            }
            let base_side = plateau_obs::diff::load_side(std::path::Path::new(base))
                .map_err(|e| format!("{base}: {e}"))?;
            let new_side = plateau_obs::diff::load_side(std::path::Path::new(new))
                .map_err(|e| format!("{new}: {e}"))?;
            let report = plateau_obs::diff::diff_entries(&base_side, &new_side, threshold);
            print!("{}", report.render());
            match report.regressions() {
                0 => Ok(()),
                n => Err(format!("{n} span regression(s) beyond +{:.0}%", 100.0 * threshold).into()),
            }
        }
        "baseline" => {
            check_flags(parsed, &["trace", "out"])?;
            let analysis = Analysis::of(&required_trace()?);
            let doc = analysis.to_baseline_json().to_pretty_string();
            match parsed.opt_str("out") {
                Some(out) => {
                    write_out(&out, doc)?;
                    println!("# wrote {out} ({} span names)", analysis.stats.len());
                }
                None => print!("{doc}"),
            }
            Ok(())
        }
        other => Err(format!(
            "unknown obs subcommand {other:?} (report|flame|diff|baseline|runs|perf)"
        )
        .into()),
    }
}

/// Writes one `obs` output file.
fn write_out(path: &str, contents: String) -> Result<(), Box<dyn Error>> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}").into())
}

/// Where `obs runs|perf` read: `--dir`, else the store's configured
/// directory, else [`DEFAULT_DIR`].
fn read_dir(parsed: &ParsedArgs, configured: Option<&Path>) -> PathBuf {
    let dir = parsed.opt_str("dir").map(PathBuf::from);
    dir.unwrap_or_else(|| configured.unwrap_or(Path::new(DEFAULT_DIR)).to_path_buf())
}

/// Reports a reader's warnings (e.g. a skipped torn line) on stderr, so
/// stdout stays machine-parseable.
fn warn_all(source: &str, warnings: &[String]) {
    for w in warnings {
        plateau_obs::warn!("{source}: {w}");
    }
}

/// `plateau obs perf` — the bench-perf ledger read side. `list` tables
/// every recorded bench run, `trend` fits a per-bench regression line over
/// run history (optionally plotted with `--svg`), `regress` compares the
/// latest run of each bench against the median of its recorded history
/// and exits nonzero beyond `--threshold`.
fn cmd_obs_perf(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    use plateau_obs::perf::{regress, render_trend, trend_svg, trends, PerfLedger};
    check_flags(parsed, &["dir", "svg", "threshold", "bench"])?;

    let dir = read_dir(parsed, Store::Perf.from_env().as_deref());
    let ledger = PerfLedger::load(&dir)?;
    warn_all(&dir.display().to_string(), &ledger.warnings);
    let bench = parsed.opt_str("bench");

    let action = parsed.positionals().get(1).map_or("list", String::as_str);
    match action {
        "list" => {
            print!("{}", ledger.render_list());
            Ok(())
        }
        "trend" => {
            let fits = trends(&ledger, bench.as_deref());
            print!("{}", render_trend(&fits));
            if let Some(out) = parsed.opt_str("svg") {
                write_out(&out, trend_svg(&ledger, bench.as_deref()))?;
                println!("# wrote {out}");
            }
            Ok(())
        }
        "regress" => {
            let threshold = parsed.get("threshold", 0.25f64)?;
            if threshold <= 0.0 {
                return Err("--threshold must be positive".into());
            }
            let report = regress(&ledger, threshold, bench.as_deref());
            print!("{}", report.render(threshold));
            match report.regressions.len() {
                0 => Ok(()),
                n => Err(format!(
                    "{n} perf regression(s) beyond +{:.0}% of recorded history",
                    100.0 * threshold
                )
                .into()),
            }
        }
        other => Err(format!("unknown obs perf action {other:?} (list|trend|regress)").into()),
    }
}

/// `plateau obs runs` — the run registry. `list` tables every ledger
/// record, `show` details one run (default: latest), `compare` prints
/// metric deltas and per-column gradient-decay slopes between two runs
/// (default: the two most recent). `--svg` additionally renders the
/// series as a self-contained SVG line plot.
fn cmd_obs_runs(parsed: &ParsedArgs, ledger: Option<&Path>) -> Result<(), Box<dyn Error>> {
    use plateau_obs::runs::{render_show, series_svg, Ledger, RunComparison};
    check_flags(parsed, &["dir", "svg"])?;

    let dir = read_dir(parsed, ledger);
    let ledger = Ledger::load(&dir)?;
    warn_all(&dir.display().to_string(), &ledger.warnings);

    let action = parsed.positionals().get(1).map_or("list", String::as_str);
    match action {
        "list" => {
            print!("{}", ledger.render_list());
            Ok(())
        }
        "show" => {
            let run = match parsed.positionals().get(2) {
                Some(id) => ledger.find(id)?,
                None => ledger.latest(),
            };
            print!("{}", render_show(run));
            if let Some(out) = parsed.opt_str("svg") {
                let series = match run.load_series() {
                    Some(Ok(s)) => s,
                    Some(Err(e)) => return Err(format!("run {}: {e}", run.id).into()),
                    None => {
                        return Err(format!("run {} has no series for --svg", run.id).into())
                    }
                };
                let curves: Vec<(String, Vec<(f64, f64)>)> = series
                    .columns()
                    .iter()
                    .filter_map(|c| series.column(c).map(|pts| (c.clone(), pts)))
                    .filter(|(_, pts)| !pts.is_empty())
                    .collect();
                write_out(&out, series_svg(&format!("run {}", run.id), &curves))?;
                println!("# wrote {out}");
            }
            Ok(())
        }
        "compare" => {
            let (a, b) = match (parsed.positionals().get(2), parsed.positionals().get(3)) {
                (Some(a), Some(b)) => (ledger.find(a)?, ledger.find(b)?),
                (None, None) => {
                    let n = ledger.runs.len();
                    if n < 2 {
                        return Err("obs runs compare needs two runs in the ledger".into());
                    }
                    (&ledger.runs[n - 2], &ledger.runs[n - 1])
                }
                _ => return Err("obs runs compare takes zero or two run ids".into()),
            };
            let cmp = RunComparison::of(a, b);
            print!("{}", cmp.render());
            if let Some(out) = parsed.opt_str("svg") {
                write_out(&out, cmp.to_svg())?;
                println!("# wrote {out}");
            }
            Ok(())
        }
        other => Err(format!("unknown obs runs action {other:?} (list|show|compare)").into()),
    }
}

fn cmd_analyze(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    check_flags(parsed, &["qubits", "layers", "samples", "pairs", "fan", "seed"])?;
    let n_qubits = parsed.get("qubits", 6usize)?;
    let layers = parsed.get("layers", 8usize)?;
    let samples = parsed.get("samples", 50usize)?;
    let pairs = parsed.get("pairs", 400usize)?;
    let fan = parse_fan(&parsed.get_str("fan", "tensor"))?;
    let seed = parsed.get("seed", 0xA11A)?;

    let ansatz = training_ansatz(n_qubits, layers)?;
    println!("strategy,meyer_wallach_q,expressibility_kl");
    for strategy in InitStrategy::PAPER_SET {
        let q = average_entanglement(&ansatz, strategy, fan, samples, seed)?;
        let kl = expressibility_kl(&ansatz, strategy, fan, pairs, 24, seed)?;
        println!("{},{q:.6},{kl:.6}", strategy.name());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_env_values_are_clamped() {
        let cases = [
            ("WORKERS", "0", 1),
            ("WORKERS", "7", 7),
            ("WORKERS", "-3", 2),
            ("QUEUE", "0", 1),
            ("QUEUE", "9", 9),
            ("CACHE", "0", 1),
            ("CACHE", "5", 5),
            ("MAX_BODY", "10", 1024),
            ("MAX_BODY", "4096", 4096),
            ("MAX_QUBITS", "0", 1),
            ("MAX_QUBITS", "12", 12),
            ("MAX_QUBITS", "99", plateau_sim::MAX_QUBITS),
        ];
        for (knob, value, want) in cases {
            let var = format!("PLATEAU_SERVE_{knob}");
            let cfg = serve_config_from_env(|name| (name == var).then(|| value.to_string()));
            let got = match knob {
                "WORKERS" => cfg.workers,
                "QUEUE" => cfg.queue_capacity,
                "CACHE" => cfg.cache_capacity,
                "MAX_BODY" => cfg.max_body,
                _ => cfg.limits.max_qubits,
            };
            assert_eq!(got, want, "{var}={value}");
        }
        let unset = serve_config_from_env(|_| None);
        let default = plateau_serve::ServeConfig::default();
        assert_eq!(format!("{unset:?}"), format!("{default:?}"));
    }
}
