#!/usr/bin/env bash
# Tier-1 CI gate: hermetic build + full test suite, fully offline.
#
# The workspace has a zero-dependency policy (DESIGN.md §6): every crate in
# the graph must be one of ours. This script fails if the build needs the
# network, if any test fails, or if the dependency tree picks up anything
# that is not a plateau-* crate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo build --release --offline ==="
cargo build --release --workspace --offline

echo "=== cargo test -q --offline ==="
cargo test -q --workspace --offline

echo "=== cargo test with forced-parallel sim kernels ==="
# Drive the statevector kernels down their chunked multi-threaded paths on
# every test, whatever the qubit count; results must be bit-identical to
# the serial run above (DESIGN.md §9).
PLATEAU_SIM_PAR_THRESHOLD=0 cargo test -q --workspace --offline

# The thread-count matrix: the whole workspace with one, two and four
# workers, whatever the host's core count. Allocation pins and
# bitwise-determinism properties must hold however the workers split the
# items, so a 1-core build host cannot hide a failure that only shows
# when workers split them (and a many-core one cannot hide the reverse).
for threads in 1 2 4; do
    echo "=== cargo test at PLATEAU_THREADS=${threads} ==="
    PLATEAU_THREADS=${threads} cargo test -q --workspace --offline
done

echo "=== zero-dependency policy check ==="
violations=$(cargo tree --workspace --offline --prefix none \
    | awk '{print $1}' | sort -u | grep -v '^plateau-' || true)
if [[ -n "${violations}" ]]; then
    echo "non-plateau crates in the dependency graph:" >&2
    echo "${violations}" >&2
    exit 1
fi
echo "dependency graph is plateau-* only."

echo "=== unsafe-code policy check ==="
# Every library crate forbids `unsafe` and uses no `std::arch` intrinsics;
# only plateau-obs may use `unsafe` (its counting allocator implements
# GlobalAlloc). Kernel speed has to come from data layout (DESIGN.md §2).
unsafe_violations=""
for lib in crates/*/src/lib.rs; do
    crate_dir=$(dirname "$(dirname "${lib}")")
    crate=$(basename "${crate_dir}")
    [[ "${crate}" == obs ]] && continue
    grep -q '^#!\[forbid(unsafe_code)\]' "${lib}" \
        || unsafe_violations+=" ${crate}(no #![forbid(unsafe_code)])"
    grep -rqE '(std|core)::arch' "${crate_dir}/src" \
        && unsafe_violations+=" ${crate}(std::arch)"
done
if [[ -n "${unsafe_violations}" ]]; then
    echo "unsafe-code policy violations:${unsafe_violations}" >&2
    exit 1
fi
echo "every library crate except plateau-obs forbids unsafe code."

echo "=== observability overhead gate ==="
# With every subscriber disabled, the metrics snapshot must be empty and
# the variance-harness medians must sit inside the recorded baseline
# envelope (benchmarks/BENCH_variance_harness.json). PLATEAU_PERF also
# appends each median to the persistent perf ledger (target/obs/perf.jsonl)
# for the trend-regression gate below.
PLATEAU_PERF=target/obs \
    cargo run -q --release --offline -p plateau-bench --bin obs_overhead_gate

echo "=== obs trace regression gate ==="
# Record a fresh trace of the canonical gate workload (kept in lock-step
# with crates/bench/src/bin/obs_trace_baseline.rs) and diff it against the
# committed baseline. Structure (new/vanished spans, call counts)
# compares exactly; wall time uses a generous relative threshold because
# the baseline was recorded on a different machine. Re-record with
# `cargo run -p plateau-bench --bin obs_trace_baseline` after intentional
# changes to the workload or the span instrumentation.
trace="$(mktemp -u).jsonl"
cargo run -q --release --offline -p plateau-cli -- variance \
    --qubits 2,3 --circuits 8 --layers 10 --metrics-out "${trace}" > /dev/null
cargo run -q --release --offline -p plateau-cli -- obs diff \
    benchmarks/OBS_trace_baseline.json "${trace}" \
    --threshold "${PLATEAU_TRACE_THRESHOLD:-4.0}"
rm -f "${trace}"

echo "=== telemetry overhead gate ==="
# The training loop's gradient-dynamics telemetry: with the knobs off it
# must be allocation-free (exact parity with the plain train baseline,
# counted through a wrapping allocator), and with series recording on the
# wall-time cost must stay under PLATEAU_TELEMETRY_OVERHEAD_FACTOR
# (default 1.02, i.e. < 2%).
cargo run -q --release --offline -p plateau-bench --bin telemetry_overhead_gate

echo "=== experiment ledger smoke gate ==="
# Register two tiny fixed-seed training runs with different initializers
# in a scratch ledger, then drive the full read side: the ledger record
# and its series must parse, and `obs runs list/compare` must succeed and
# render an SVG. The comparison plot is kept under target/ci-artifacts/.
ledger_dir="$(mktemp -d)"
cargo run -q --release --offline -p plateau-cli -- train \
    --qubits 3 --layers 2 --iterations 10 --strategy random --seed 1 \
    --ledger "${ledger_dir}" > /dev/null
cargo run -q --release --offline -p plateau-cli -- train \
    --qubits 3 --layers 2 --iterations 10 --strategy xavier_uniform --seed 1 \
    --ledger "${ledger_dir}" > /dev/null
records=$(wc -l < "${ledger_dir}/ledger.jsonl")
if [[ "${records}" -ne 2 ]]; then
    echo "ledger smoke: expected 2 run records, found ${records}" >&2
    exit 1
fi
series_files=$(ls "${ledger_dir}"/runs/*.jsonl | wc -l)
if [[ "${series_files}" -ne 2 ]]; then
    echo "ledger smoke: expected 2 series files, found ${series_files}" >&2
    exit 1
fi
cargo run -q --release --offline -p plateau-cli -- obs runs list \
    --dir "${ledger_dir}" > /dev/null
mkdir -p target/ci-artifacts
cargo run -q --release --offline -p plateau-cli -- obs runs compare \
    --dir "${ledger_dir}" --svg target/ci-artifacts/ledger_compare.svg
grep -q "</svg>" target/ci-artifacts/ledger_compare.svg
rm -rf "${ledger_dir}"

echo "=== differential fuzz smoke gate ==="
# A fixed-seed campaign over the full engine matrix (DESIGN.md §10):
# serial vs parallel kernels, statevector vs unitary vs density matrix,
# raw vs pass-optimized, fused vs raw, QASM round-trip, three gradient
# engines, every adjoint single-parameter partial vs its full-gradient
# entry (bitwise), and the prefix-sharing parameter-shift gradient vs one
# full evaluation per shifted job (bitwise). Any divergence fails the gate and leaves a shrunk
# reproducer under target/fuzz/ (replay with `plateau fuzz --replay
# <file>`). The mutation self-test then proves the harness still detects
# — and shrinks — both deliberately broken engines (the off-by-one
# kernel and the wrong-order fusion merge).
cargo run -q --release --offline -p plateau-cli -- fuzz \
    --cases "${PLATEAU_FUZZ_CASES:-500}" --seed 0xfeed
cargo run -q --release --offline -p plateau-cli -- fuzz \
    --cases 40 --seed 0xfeed --mutate true --artifacts "$(mktemp -d)"

echo "=== sim parallel + fusion speedup gates ==="
# The 10-qubit 5-layer parameter-shift training step: a raw per-job
# Circuit::run loop vs the compiled ParameterShift gradient on one worker
# and pooled. On any machine the fused median must beat raw by at least
# PLATEAU_SIM_FUSE_TOL (default 2.0); on multi-core machines the pooled
# median must at least break even with the one-worker one (tolerance
# PLATEAU_SIM_PAR_TOL, default 1.10). Recorded baseline lives in
# benchmarks/BENCH_sim_parallel.json (re-record with --record).
PLATEAU_PERF=target/obs \
    cargo run -q --release --offline -p plateau-bench --bin sim_parallel_gate

echo "=== batch throughput gate ==="
# The 200-member 10-qubit/5-layer ensemble sweep: the batched executor
# (compile once, per-worker scratch statevectors) vs the old
# one-expectation-per-member loop. The serial comparison gates on any
# machine (batched must never lose; PLATEAU_BATCH_SERIAL_TOL, default
# 1.10); on multi-core machines the pooled sweep must additionally clear
# PLATEAU_BATCH_TOL (default 3.0) in circuits/sec. Recorded baseline
# lives in benchmarks/BENCH_batch_throughput.json (re-record with
# --record).
PLATEAU_PERF=target/obs \
    cargo run -q --release --offline -p plateau-bench --bin batch_throughput_gate

echo "=== serve smoke gate ==="
# The HTTP service end to end (DESIGN.md §15): load_gate boots an
# in-process server on an ephemeral port and fires a fixed-seed 200-request
# burst (simulate/gradient/variance-scan/train mix) over raw sockets. The
# gate fails on any non-2xx, on a /metrics scrape whose per-endpoint
# request counters are not EXACTLY the schedule, on any torn or non-200/503
# response from the 1-worker/1-slot backpressure probe, and unless the
# cold /simulate median (cache cleared per request: QASM parse + build +
# fusion compile repaid every time) exceeds the LRU-warm median by
# PLATEAU_SERVE_CACHE_TOL (default 1.2). Burst p50/p90/p99 land in the
# bench JSON; medians flow into the perf ledger. Recorded baseline lives
# in benchmarks/BENCH_serve.json (re-record with --record).
PLATEAU_PERF=target/obs \
    cargo run -q --release --offline -p plateau-bench --bin load_gate

echo "=== perf ledger trend-regression gate ==="
# The harness-driven gate bins above appended one record per benchmark to
# the append-only perf ledger. First self-test the gate on a scratch copy:
# replaying the recorded history as-is must pass, and injecting an
# order-of-magnitude slowdown into the latest record of one bench must
# exit nonzero. Then gate for real: once a bench has >= 2 recorded runs,
# its latest median must stay within PLATEAU_PERF_THRESHOLD (default
# +25%) of the median of its own history — drift is measured against this
# machine's recorded past. On a fresh checkout every bench is skipped
# (single record) and the frozen benchmarks/BENCH_*.json envelopes above
# remain the only comparison, so the first run still gates.
perf_dir=target/obs
scratch="$(mktemp -d)"
cp "${perf_dir}/perf.jsonl" "${scratch}/perf.jsonl"
cargo run -q --release --offline -p plateau-cli -- obs perf regress \
    --dir "${scratch}" > /dev/null
sed -n '$p' "${scratch}/perf.jsonl" | sed 's/"median_ns":/"median_ns":10/' \
    >> "${scratch}/perf.jsonl"
if cargo run -q --release --offline -p plateau-cli -- obs perf regress \
    --dir "${scratch}" > /dev/null 2>&1; then
    echo "perf regress self-test: injected slowdown was not caught" >&2
    exit 1
fi
rm -rf "${scratch}"
cargo run -q --release --offline -p plateau-cli -- obs perf regress \
    --dir "${perf_dir}" --threshold "${PLATEAU_PERF_THRESHOLD:-0.25}"
mkdir -p target/ci-artifacts
cargo run -q --release --offline -p plateau-cli -- obs perf trend \
    --dir "${perf_dir}" --svg target/ci-artifacts/perf_trend.svg > /dev/null
grep -q "</svg>" target/ci-artifacts/perf_trend.svg

echo "CI gate passed."
