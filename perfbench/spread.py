#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--out FILE] [WORKLOAD ...]

Run from the repository root. Runs `perfbench/run.py` once per seed on
each workload (default: every workload in BENCHMARK.json), each run with
another seed, and prints for every metric its median and the distance
between its first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json. `--out` appends every run's result line as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = ["python3", "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                sys.exit(1)
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{done.stdout}")
                sys.exit(1)
            if args.out:
                with open(args.out, "a") as f:
                    notes = [l for l in lines if l.startswith("# ")]
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "notes": notes, "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {name:<40} median {med:14.4f}  iqr/median {spread:7.4f}"
                  f"  bound {bound}  {flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
