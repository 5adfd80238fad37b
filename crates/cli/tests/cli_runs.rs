//! End-to-end acceptance for the experiment ledger: `plateau
//! train|variance|vqe|classify --ledger` each registering one run, then
//! `plateau obs runs list|show|compare` over the resulting registry, plus
//! the `obs report --filter` prefix view. Everything is parsed back through
//! the in-repo JSON parser — no external test dependencies.

use plateau_obs::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn plateau() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_plateau"));
    // Isolate from the invoking environment.
    cmd.env_remove("PLATEAU_LOG")
        .env_remove("PLATEAU_METRICS")
        .env_remove("PLATEAU_METRICS_OUT")
        .env_remove("PLATEAU_LEDGER");
    cmd
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plateau_cli_runs_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs `plateau train` against `ledger_dir` and returns the ledger run id
/// echoed on stdout as `# ledger run: <id>`.
fn train_into_ledger(ledger_dir: &PathBuf, strategy: &str) -> String {
    let output = plateau()
        .args([
            "train",
            "--qubits",
            "3",
            "--layers",
            "2",
            "--iterations",
            "10",
            "--strategy",
            strategy,
            "--seed",
            "1",
            "--ledger",
        ])
        .arg(ledger_dir)
        .output()
        .expect("spawn plateau train");
    assert!(
        output.status.success(),
        "train --strategy {strategy} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("# ledger run: "))
        .unwrap_or_else(|| panic!("no `# ledger run:` line in stdout:\n{stdout}"))
        .trim()
        .to_string()
}

#[test]
fn train_registers_runs_and_obs_runs_lists_shows_compares() {
    let dir = temp_dir("e2e");
    let id_random = train_into_ledger(&dir, "random");
    let id_xavier = train_into_ledger(&dir, "xavier_uniform");
    assert_ne!(id_random, id_xavier);

    // The ledger file itself is well-formed JSONL with one record per run,
    // each pointing at a parseable per-run series file.
    let raw = std::fs::read_to_string(dir.join("ledger.jsonl")).expect("ledger written");
    let records: Vec<Json> = raw
        .lines()
        .map(|l| Json::parse(l).expect("ledger line parses"))
        .collect();
    assert_eq!(records.len(), 2);
    for rec in &records {
        assert_eq!(rec.get("command").unwrap().as_str(), Some("train"));
        let rel = rec.get("series").unwrap().as_str().unwrap();
        let series = plateau_obs::TimeSeries::read_jsonl(&dir.join(rel)).expect("series parses");
        assert_eq!(series.len(), 10, "one row per iteration");
        for col in ["loss", "grad_norm", "bp_score", "layer_var_0"] {
            assert!(
                series.columns().iter().any(|c| c == col),
                "missing column {col}"
            );
        }
    }

    // `obs runs list` shows both runs with their strategies.
    let list = plateau()
        .args(["obs", "runs", "list", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn obs runs list");
    assert!(list.status.success(), "stderr: {}", String::from_utf8_lossy(&list.stderr));
    let list_out = String::from_utf8_lossy(&list.stdout);
    for id in [&id_random, &id_xavier] {
        assert!(list_out.contains(id.as_str()), "list missing {id}:\n{list_out}");
    }
    assert!(list_out.contains("final_loss"), "list was:\n{list_out}");

    // `obs runs show <unique-prefix>` resolves the id and prints config,
    // metrics, and per-column decay slopes from the attached series.
    let prefix = &id_random[..id_random.len() - 4];
    let show = plateau()
        .args(["obs", "runs", "show", prefix, "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn obs runs show");
    assert!(show.status.success(), "stderr: {}", String::from_utf8_lossy(&show.stderr));
    let show_out = String::from_utf8_lossy(&show.stdout);
    assert!(show_out.contains(&format!("id       {id_random}")), "show was:\n{show_out}");
    assert!(show_out.contains("strategy = random"), "show was:\n{show_out}");
    assert!(show_out.contains("final_loss"), "show was:\n{show_out}");
    assert!(show_out.contains("log-slope"), "show was:\n{show_out}");

    // `obs runs compare` with no ids picks the two most recent runs,
    // prints metric deltas plus per-column decay slopes, and renders a
    // standalone SVG with one curve per (run, column) pair.
    let svg_path = dir.join("compare.svg");
    let compare = plateau()
        .args(["obs", "runs", "compare", "--dir"])
        .arg(&dir)
        .arg("--svg")
        .arg(&svg_path)
        .output()
        .expect("spawn obs runs compare");
    assert!(
        compare.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&compare.stderr)
    );
    let cmp_out = String::from_utf8_lossy(&compare.stdout);
    assert!(cmp_out.contains(&format!("# A: {id_random}")), "compare was:\n{cmp_out}");
    assert!(cmp_out.contains(&format!("# B: {id_xavier}")), "compare was:\n{cmp_out}");
    assert!(cmp_out.contains("final_loss"), "compare was:\n{cmp_out}");
    assert!(cmp_out.contains("exponential decay"), "compare was:\n{cmp_out}");
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.starts_with("<?xml"), "svg head: {}", &svg[..svg.len().min(80)]);
    assert!(svg.contains("A:grad_norm"), "svg missing A curve label");
    assert!(svg.contains("B:grad_norm"), "svg missing B curve label");
    assert!(svg.trim_end().ends_with("</svg>"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs one experiment command with `--ledger` and returns its one record
/// and the column names of the series it points at.
fn single_record(tag: &str, args: &[&str]) -> (Json, Vec<String>) {
    let dir = temp_dir(tag);
    let output = plateau().args(args).arg("--ledger").arg(&dir).output().expect("spawn plateau");
    assert!(output.status.success(), "{args:?}: {}", String::from_utf8_lossy(&output.stderr));
    let raw = std::fs::read_to_string(dir.join("ledger.jsonl")).expect("ledger written");
    let records: Vec<Json> = raw.lines().map(|l| Json::parse(l).expect("ledger line parses")).collect();
    assert_eq!(records.len(), 1, "{args:?}: one record per command");
    let rel = records[0].get("series").and_then(Json::as_str).expect("series pointer");
    let series = plateau_obs::TimeSeries::read_jsonl(&dir.join(rel)).expect("series parses");
    std::fs::remove_dir_all(&dir).ok();
    (records[0].clone(), series.columns().to_vec())
}

fn keys(rec: &Json, field: &str) -> Vec<String> {
    let obj = rec.get(field).and_then(Json::as_obj).unwrap_or_else(|| panic!("no {field} object"));
    obj.iter().map(|(k, _)| k.clone()).collect()
}

/// `variance`, `vqe` and `classify` each write one record: its command,
/// config keys in order, seed, metric keys and series columns.
#[test]
fn variance_vqe_and_classify_register_one_record_each() {
    // (command line, config keys, seed, metric keys, series columns)
    type Case<'a> = (&'a str, &'a [&'a str], Option<f64>, &'a [&'a str], &'a [&'a str]);
    let cases: [Case; 3] = [
        (
            "variance --qubits 2,3 --layers 3 --circuits 6 --seed 5 --strategies random,xavier_normal",
            &["qubits", "layers", "circuits", "cost", "ansatz", "engine", "strategies"],
            Some(5.0),
            &["decay_rate_random", "r_squared_random", "decay_rate_xavier_normal", "r_squared_xavier_normal"],
            &["random", "xavier_normal"],
        ),
        (
            "vqe --qubits 2 --layers 1 --iterations 10 --seed 2",
            &["qubits", "layers", "iterations", "strategy"],
            Some(2.0),
            &["energy", "exact_energy", "abs_error", "initial_energy", "plateau_alarms", "bp_score_final"],
            &["loss", "grad_norm", "bp_score", "layer_var_0"],
        ),
        (
            "classify --qubits 2 --layers 2 --samples 20 --epochs 3 --seed 4",
            &["qubits", "layers", "features", "epochs", "samples"],
            None,
            &["initial_loss", "final_loss"],
            &["loss", "grad_norm", "bp_score", "layer_var_0", "layer_var_1"],
        ),
    ];
    for (line, config, seed, metrics, columns) in cases {
        let args: Vec<&str> = line.split(' ').collect();
        let (rec, got_columns) = single_record(args[0], &args);
        assert_eq!(rec.get("command").and_then(Json::as_str), Some(args[0]), "{line}");
        assert_eq!(keys(&rec, "config"), config, "{line}: config keys");
        assert_eq!(rec.get("seed").and_then(Json::as_f64), seed, "{line}: seed");
        assert_eq!(keys(&rec, "metrics"), metrics, "{line}: metric keys");
        assert_eq!(got_columns, columns, "{line}: series columns");
    }
}

#[test]
fn obs_runs_errors_without_ledger_mention_how_to_enable_it() {
    let dir = temp_dir("missing");
    let out = plateau()
        .args(["obs", "runs", "list", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn obs runs list");
    assert!(!out.status.success(), "expected failure on missing ledger");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("PLATEAU_LEDGER") || stderr.contains("--ledger"),
        "error should point at the enable switch, was:\n{stderr}"
    );
}

#[test]
fn obs_runs_compare_needs_two_runs() {
    let dir = temp_dir("single");
    train_into_ledger(&dir, "random");
    let out = plateau()
        .args(["obs", "runs", "compare", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn obs runs compare");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("two runs"), "stderr was:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_report_filter_restricts_to_prefix() {
    let trace = std::env::temp_dir().join(format!(
        "plateau_cli_runs_trace_{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&trace).ok();
    let run = plateau()
        .args([
            "variance",
            "--qubits",
            "2,3",
            "--circuits",
            "4",
            "--layers",
            "3",
            "--metrics-out",
        ])
        .arg(&trace)
        .output()
        .expect("spawn plateau variance");
    assert!(run.status.success(), "stderr: {}", String::from_utf8_lossy(&run.stderr));

    let report = |extra: &[&str]| {
        let mut cmd = plateau();
        cmd.args(["obs", "report", "--trace"]).arg(&trace);
        cmd.args(extra);
        let out = cmd.output().expect("spawn obs report");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let full = report(&[]);
    assert!(full.contains("variance_cell"), "full report was:\n{full}");

    let filtered = report(&["--filter", "variance_"]);
    assert!(filtered.contains("variance_cell"), "filtered report was:\n{filtered}");
    assert!(filtered.contains("variance_scan"), "filtered report was:\n{filtered}");
    // Every table row (non-comment line) must carry the prefix.
    for line in filtered.lines().skip_while(|l| l.starts_with('#')) {
        let Some(name) = line.split_whitespace().next() else { continue };
        if name == "name" {
            continue; // table header
        }
        assert!(
            name.starts_with("variance_"),
            "unfiltered row {name:?} in:\n{filtered}"
        );
    }

    // A prefix that matches nothing still exits cleanly with an empty table.
    let none = report(&["--filter", "no_such_prefix."]);
    assert!(none.contains("0 spans"), "empty-filter report was:\n{none}");

    std::fs::remove_file(&trace).ok();
}

/// `--ledger` and `PLATEAU_LEDGER` take the one store grammar: off-words
/// record nothing, on-words (any case, padded or not) record under
/// `target/obs` relative to the working directory, anything else is a
/// directory.
#[test]
fn ledger_flag_and_env_accept_the_same_values() {
    let cases: &[(&str, Option<&str>)] = &[
        ("off", None),
        (" No ", None),
        ("0", None),
        ("on", Some("target/obs")),
        (" YES ", Some("target/obs")),
        ("True", Some("target/obs")),
        ("my_runs", Some("my_runs")),
    ];
    for (how, via_flag) in [("--ledger", true), ("PLATEAU_LEDGER", false)] {
        for &(raw, want) in cases {
            let cwd = temp_dir("grammar");
            std::fs::create_dir_all(&cwd).unwrap();
            let mut cmd = plateau();
            cmd.current_dir(&cwd)
                .args(["train", "--qubits", "2", "--layers", "1", "--iterations", "2"]);
            if via_flag {
                cmd.args(["--ledger", raw]);
            } else {
                cmd.env("PLATEAU_LEDGER", raw);
            }
            let output = cmd.output().expect("spawn plateau train");
            assert!(output.status.success(), "{how} {raw:?}: {}", String::from_utf8_lossy(&output.stderr));
            let written: Vec<String> = ["target/obs", "my_runs", raw, raw.trim()]
                .iter()
                .filter(|d| !d.trim().is_empty() && cwd.join(d).join("ledger.jsonl").is_file())
                .map(|d| d.to_string())
                .collect();
            match want {
                Some(dir) => assert_eq!(written.first().map(String::as_str), Some(dir), "{how} {raw:?}"),
                None => assert!(written.is_empty(), "{how} {raw:?} wrote {written:?}"),
            }
            std::fs::remove_dir_all(&cwd).ok();
        }
    }
}
