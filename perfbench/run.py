"""The ultratree benchmark: one workload, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, which also
gives the metric names and units.

Steps:

1. Make the workload's inputs from ``--seed`` (``workloads.py``).
2. ``--trace 0`` only: time fresh interpreters importing ``ultratree.cli``
   (``setup_s``, see ``measure_setup``).
3. Run the op list in a fresh worker process for ``--seconds``
   (``worker.py``), with every span removed, or with ``--trace 1`` also one
   traced pass (``tracing.py``).
4. Check every op run: exit codes, stdout digest against the digest pinned
   for the pinned seed (``digests.json``) or else against the op's first run,
   and, for a sample of ops, the output itself against the generated shape.
   The checks run outside the timed region.
5. Print a readable report, then one JSON line: ``correct``, ``attempted``,
   ``failed`` and the metrics.  The exit code is 0 when no op failed, 1 when
   some did, 2 when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

from speed import scale, scale_start
from workloads import WORKLOADS, Op, generate

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
DIGESTS = HERE / "digests.json"
PINNED_SEED = 1
SRC = Path("src")  # paths are relative to the checkout root, the working directory
WORK = Path(".perfbench_work")
SETUP_STARTS = 15
SPOT_OPS = 12
WORKER_TIMEOUT_S = 150


def capture(cli, op: Op) -> tuple[list[int], list[str], str]:
    """Run an op in this process, keeping stdout; digest it as the worker does."""
    exits, outputs = [], []
    digest = hashlib.sha256()
    for argv in op.commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            exits.append(cli.run(argv))
        outputs.append(buffer.getvalue())
        digest.update(outputs[-1].encode("utf-8") + b"\0")
    return exits, outputs, digest.hexdigest()


def spot_check(cli, op: Op) -> tuple[str | None, str | None]:
    """Check one op's output against its shape; return (failure, digest)."""
    try:
        exits, outputs, digest = capture(cli, op)
    except Exception as exc:  # a crash in the program fails the op
        return f"crashed: {exc!r}", None
    if exits != op.expect:
        return f"exit codes {exits}, expected {op.expect}", digest
    try:
        return op.check(outputs), digest
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}", digest


def fingerprint(ops: list[Op], directory: Path) -> str:
    """Digest of the op list and input files, independent of where they live."""
    digest = hashlib.sha256()
    prefix = str(directory) + os.sep
    for op in ops:
        digest.update(json.dumps([[a.replace(prefix, "") for a in argv] for argv in op.commands]).encode())
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def import_cli():
    sys.path.insert(0, str(SRC.resolve()))
    from ultratree import cli

    return cli


# Both children read the clock as their first statement.  perf_counter is the
# system-wide monotonic clock, so the readings compare with the parent's.
BARE = "from time import perf_counter_ns as now; print(now())"
FULL = (
    "from time import perf_counter_ns as now; entered = now(); import sys; "
    "sys.path.insert(0, {src!r}); import ultratree.cli; done = now(); "
    "sys.path.insert(0, {here!r}); from speed import references; references(); "
    "print(entered, done, *references(), *references())"
)


def child(code: str) -> list[int]:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return [int(value) for value in out.split()]


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing ``ultratree.cli``: scaled, raw.

    A start has two parts, each scaled by a reference of its own kind.  The
    interpreter's start, up to its first statement, is scaled by the start of
    a bare interpreter just before it.  The import is scaled by timings of
    the reference task that the same child makes right after it, on the core
    it ran on.  The child loads ``speed.py`` only after the import, so the
    import finds no module loaded for it.
    """
    code = FULL.format(src=str(SRC), here=str(HERE))
    scaled, raw = [], []
    for start in range(SETUP_STARTS + 1):
        t0 = perf_counter_ns()
        (bare,) = child(BARE)
        t1 = perf_counter_ns()
        entered, done, *bracket = child(code)
        if start:  # the first start also writes bytecode caches
            raw.append(done - t1)
            scaled.append(scale_start(entered - t1, bare - t0) + scale(done - entered, bracket))
    return statistics.median(scaled) / 1e9, statistics.median(raw) / 1e9


def run_worker(ops: list[Op], directory: Path, seconds: float, trace: int) -> dict:
    ops_path, result_path = directory / "ops.json", directory / "result.json"
    ops_path.write_text(json.dumps({"ops": [op.commands for op in ops]}), encoding="utf-8")
    subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), str(ops_path), str(result_path),
            "--src", str(SRC), "--seconds", str(seconds), "--trace", str(trace),
        ],
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def load_pinned(workload: str, seed: int) -> dict | None:
    if seed != PINNED_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"].get(workload)


def judge(ops: list[Op], runs: list[dict], pinned: dict | None, inputs: str, spot: dict[int, tuple]) -> tuple[int, int, list[str]]:
    """Count failed op runs over every pass; return (attempted, failed, reasons)."""
    reasons: dict[int, str] = {}
    if pinned is not None and pinned["inputs"] != inputs:
        reasons = {i: "inputs differ from those digests.json was pinned for" for i in range(len(ops))}
        reference = runs[0]["digests"]
    else:
        reference = pinned["ops"] if pinned is not None else runs[0]["digests"]
    for i, (failure, digest) in spot.items():
        if failure is not None:
            reasons.setdefault(i, f"spot check: {failure}")
        elif digest != reference[i]:
            reasons.setdefault(i, "spot check: stdout differs from the reference digest")
    attempted = failed = 0
    for run in runs:
        for i, op in enumerate(ops):
            attempted += 1
            bad = i in reasons
            if run["exits"][i] != op.expect:
                reasons.setdefault(i, f"exit codes {run['exits'][i]}, expected {op.expect}")
                bad = True
            if run["digests"][i] != reference[i]:
                reasons.setdefault(i, "stdout differs from the reference digest")
                bad = True
            failed += bad
    return attempted, failed, [f"op {i}: {why}" for i, why in sorted(reasons.items())]


def timing(passes: list[dict]) -> dict:
    """Op times of the untraced passes at nominal speed, and the raw wall time."""
    latencies_ms = [ns / 1e6 for run in passes for ns in run["scaled_ns"]]
    raw = statistics.median(sum(run["lat_ns"]) for run in passes) / 1e9
    wall = statistics.median(sum(run["scaled_ns"]) for run in passes) / 1e9
    return {
        "wall_s": wall,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "raw_wall_s": raw,
    }


def per_layer(result: dict, untraced: dict) -> tuple[dict[str, float], list[dict]]:
    """The traced pass's layer metrics and span table, times at nominal speed.

    Span times are measured raw; they are scaled by the traced pass's overall
    factor (its scaled over its raw time) to read like the end-to-end times.
    """
    traced = result["traced"]
    traced_wall = sum(traced["scaled_ns"]) / 1e9
    factor = traced_wall * 1e9 / sum(traced["lat_ns"])
    metrics = {
        key: value * factor if key.endswith("_s") else value
        for key, value in traced["metrics"].items()
    }
    metrics.update(
        {
            "cli.stdout_bytes": traced["stdout_bytes"],
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced["wall_s"],
            "trace.overhead_s": traced_wall - untraced["wall_s"],
        }
    )
    table = [{**row, "total_s": row["total_s"] * factor, "self_s": row["self_s"] * factor}
             for row in traced["table"]]
    return metrics, table


def measure(name: str, seed: int, seconds: float, trace: int, directory: Path) -> int:
    ops = generate(WORKLOADS[name], seed, directory)
    inputs = fingerprint(ops, directory)
    result = run_worker(ops, directory, seconds, trace)
    untraced = timing(result["passes"])
    runs = result["passes"] + ([result["traced"]] if trace else [])

    cli = import_cli()
    sample = random.Random(f"spot:{seed}").sample(range(len(ops)), min(SPOT_OPS, len(ops)))
    spot = {i: spot_check(cli, ops[i]) for i in sorted(sample)}
    attempted, failed, reasons = judge(ops, runs, load_pinned(name, seed), inputs, spot)

    samples = len(ops) * len(result["passes"])
    print(f"workload {name}, seed {seed}: {len(ops)} ops x {len(result['passes'])} passes "
          f"= {samples} op samples, {samples - int(0.9 * samples)} beyond p90; one client, closed loop")
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} op runs); "
          f"spot-checked ops {sorted(sample)}")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print(f"raw wall_s {untraced['raw_wall_s']:.6f} s (unscaled; machine slowdown "
          f"{untraced['raw_wall_s'] / untraced['wall_s']:.3f}x nominal)")
    if trace:
        metrics, table = per_layer(result, untraced)
        print(f"{'span':34} {'n':>6} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for row in table:
            n = "" if row["n"] is None else row["n"]
            print(f"{row['span']:34} {n:>6} {row['calls']:>9} {row['total_s']:>10.6f} {row['self_s']:>10.6f}")
        (WORK / f"trace-{name}-seed{seed}.json").write_text(
            json.dumps({"metrics": metrics, "spans": table}, indent=1),
            encoding="utf-8",
        )
    else:
        setup_s, raw_setup_s = measure_setup()
        print(f"raw setup_s {raw_setup_s:.6f} s")
        metrics = {
            "setup_s": setup_s,
            "wall_s": untraced["wall_s"],
            "op_p50_ms": untraced["op_p50_ms"],
            "op_p90_ms": untraced["op_p90_ms"],
            "peak_rss_mb": result["maxrss_kb"] / 1024,
            "ok_ratio": 1 - failed / attempted,
        }
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for key, unit in units.items():
        print(f"{key:34} {metrics[key]:>14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ultratree CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ultratree" / "cli.py").is_file():
        print(f"error: no {SRC}/ultratree/cli.py here; run from the root of an ultratree checkout",
              file=sys.stderr)
        return 2
    directory = WORK / f"run-{os.getpid()}"
    directory.mkdir(parents=True)
    try:
        return measure(args.workload, args.seed, args.seconds, args.trace, directory)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
