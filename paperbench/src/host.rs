//! Host shape, configuration pinning, and process memory.

use plateau_obs::json::Json;

/// Removes every inherited `PLATEAU_*` variable so the program runs at its
/// defaults, returning the names that were set. Called first thing in
/// `main`, before any thread exists or any crate has read its knobs.
pub fn clear_plateau_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PLATEAU_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// `(level, size)` of each data/unified cache of CPU 0, e.g. `("L2", "2048K")`.
fn cache_sizes() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{base}/level")),
            read_trimmed(&format!("{base}/type")),
            read_trimmed(&format!("{base}/size")),
        ) else {
            continue;
        };
        if kind != "Instruction" {
            out.push((format!("L{level}"), size));
        }
    }
    out
}

/// Size in bytes of the last-level cache, when the host reports it.
pub fn llc_bytes() -> Option<u64> {
    let (_, size) = cache_sizes().pop()?;
    let (digits, unit) = size.split_at(size.find(|c: char| !c.is_ascii_digit())?);
    let n: u64 = digits.parse().ok()?;
    Some(match unit {
        "K" => n << 10,
        "M" => n << 20,
        "G" => n << 30,
        _ => n,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc_online() -> usize {
    read_trimmed("/sys/devices/system/cpu/online")
        .map(|s| {
            s.split(',')
                .map(|r| match r.split_once('-') {
                    Some((a, b)) => {
                        b.parse::<usize>().unwrap_or(0) + 1 - a.parse::<usize>().unwrap_or(0)
                    }
                    None => 1,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory when there is one (no `git` process is started).
pub fn git_rev() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "unavailable".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(&format!(".git/{r}")).unwrap_or(head),
        None => head,
    }
}

/// One-line JSON record of the host shape and the pinned configuration.
pub fn describe(cleared: &[String]) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let caches = Json::Obj(
        cache_sizes()
            .into_iter()
            .map(|(level, size)| (level, Json::str(size)))
            .collect(),
    );
    Json::obj([
        ("nproc", Json::from(nproc_online())),
        ("available_parallelism", Json::from(parallelism)),
        ("cpu", Json::str(cpu_model())),
        ("caches", caches),
        ("git", Json::str(git_rev())),
        (
            "cleared_env",
            Json::Arr(cleared.iter().map(|s| Json::str(s.clone())).collect()),
        ),
    ])
    .to_string()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
