//! End-to-end acceptance for `plateau fuzz`: a clean differential
//! campaign over the engine matrix, the mutation self-test (including
//! artifact emission), replay of a written reproducer, and flag
//! validation — all through the real binary.

use std::process::Command;

fn plateau() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_plateau"));
    // Isolate from the invoking environment.
    cmd.env_remove("PLATEAU_LOG")
        .env_remove("PLATEAU_METRICS")
        .env_remove("PLATEAU_METRICS_OUT")
        .env_remove("PLATEAU_CHECK_CASES");
    cmd
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("plateau-cli-fuzz-{tag}-{}", std::process::id()))
}

#[test]
fn clean_campaign_prints_the_pair_matrix_and_summary() {
    let dir = temp_dir("clean");
    let output = plateau()
        .args(["fuzz", "--cases", "25", "--seed", "0xfeed", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("spawn plateau");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("# plateau fuzz: 25 cases, seed 0xfeed"), "stdout: {stdout}");
    assert!(stdout.contains("pair,comparisons,max_delta,tolerance"), "stdout: {stdout}");
    // Every always-on pair shows up with a full comparison count.
    for pair in ["serial-vs-parallel", "raw-vs-optimized", "qasm-roundtrip"] {
        assert!(stdout.contains(&format!("{pair},25,")), "missing {pair} row: {stdout}");
    }
    assert!(stdout.contains("comparisons, all clean"), "stdout: {stdout}");
}

#[test]
fn mutation_self_test_detects_writes_artifact_and_replays() {
    let dir = temp_dir("mutate");
    let output = plateau()
        .args(["fuzz", "--cases", "25", "--seed", "1", "--mutate", "true", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("spawn plateau");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("# mutation self-test passed"), "stdout: {stdout}");

    // Pull a reproducer path out of a MISMATCH line and replay it: the
    // injected bug must still reproduce, so replay exits nonzero.
    let artifact = stdout
        .lines()
        .find_map(|l| l.split("reproducer: ").nth(1))
        .expect("self-test must report at least one reproducer path");
    let replay = plateau()
        .args(["fuzz", "--replay", artifact])
        .output()
        .expect("spawn plateau");
    let replay_out = String::from_utf8_lossy(&replay.stdout);
    let replay_err = String::from_utf8_lossy(&replay.stderr);
    assert!(!replay.status.success(), "replay of a live bug must fail");
    assert!(replay_out.contains("# replaying"), "stdout: {replay_out}");
    assert!(
        replay_err.contains("mismatch still reproduces"),
        "stderr: {replay_err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_seed_is_rejected() {
    let output = plateau()
        .args(["fuzz", "--cases", "1", "--seed", "0xzz"])
        .output()
        .expect("spawn plateau");
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("seed"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn unknown_flag_is_rejected() {
    let output = plateau()
        .args(["fuzz", "--bogus", "1"])
        .output()
        .expect("spawn plateau");
    assert!(!output.status.success());
}
