"""Run the benchmark over several seeds and report each metric's spread.

    python3 paperbench/spread.py --workload fig5a_cell --runs 10 [--trace 0]

Runs the command in BENCHMARK.json once per seed (1..runs), then prints,
per metric, the median and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound.
Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
        print(f"{name:<24} median {med:12.5g}  spread {spread:6.3f}  bound {bound}  {flag}")


if __name__ == "__main__":
    main()
