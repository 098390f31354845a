"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py --runs 10 [--workload corpus ...] [--first-seed 1]

Each run uses another seed.  For every end-to-end metric the spread is the
distance between the first and third quartile of the runs' values, as
``statistics.quantiles(values, n=4)`` gives them, as a share of their median.
The table marks a spread at or above a third of the metric's bound in
``BENCHMARK.json``.  Raw results go to ``.perfbench_work/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="seed-to-seed spread of the benchmark")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    raw = Path(".perfbench_work") / "steadiness.jsonl"
    raw.parent.mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=300,
            )
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            unscaled = [line for line in lines if line.startswith("raw ")]
            with raw.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed, "raw": unscaled, **result}) + "\n")
            if out.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: exit {out.returncode}, {result['failed']} failed")
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            worst = max(worst, spread / metric["bound"])
            flag = "  <- over bound/3" if spread >= metric["bound"] / 3 else ""
            print(f"{metric['name']:14} {median:12.6f} {q1:12.6f} {q3:12.6f} "
                  f"{spread:8.4f} {metric['bound']:6.2f}{flag}")
    print(f"\nlargest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
