"""Run one workload's op list in a fresh process and time it.

Usage: python3 perfbench/worker.py OPS_JSON RESULT_JSON --src DIR --seconds S --trace 0|1

The parent (``run.py``) writes the op list and reads the result; this
process imports the program from ``--src`` and does nothing else, so its
peak RSS is the program's.  Each op calls ``ultratree.cli.run`` in process
for each of its subcommands, with stdout going to a sink that hashes it and
keeps nothing.  One client runs ops back to back (a closed loop) on one
thread.

Passes over the whole op list repeat until ``--seconds`` have passed, and
the pass under way always finishes.  With ``--trace 1`` untraced passes use
half the time, then the spans of ``tracing.py`` are installed for one more
pass, and the difference between the two pass times is the overhead of
tracing.  Each op is bracketed by timings of the reference task of
``speed.py``, outside the op's own time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from time import perf_counter, perf_counter_ns

from speed import references, scale


class HashSink:
    """A stdout that hashes what it is given and keeps nothing."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.hash.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def run_op(cli, sink: HashSink, commands: list[list[str]]) -> tuple[list[int], str]:
    """Run an op's subcommands; return their exit codes and the op's stdout digest."""
    sink.hash = hashlib.sha256()
    exits = []
    for argv in commands:
        try:
            code = cli.run(argv)  # looked up per call, so a traced run is seen
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash fails the op; the pass goes on
            traceback.print_exc()
            code = -1
        exits.append(code)
        sink.hash.update(b"\0")
    return exits, sink.hash.hexdigest()


def run_pass(cli, sink: HashSink, ops, tracer=None) -> dict:
    """Run every op once; time each op raw and scaled to nominal speed."""
    latencies, scaled, exits, digests = [], [], [], []
    start_bytes = sink.bytes
    for commands in ops:
        before = references()
        t0 = perf_counter_ns()
        codes, digest = run_op(cli, sink, commands)
        latencies.append(perf_counter_ns() - t0)
        scaled.append(scale(latencies[-1], before + references()))
        if tracer is not None:
            tracer.end_op()
        exits.append(codes)
        digests.append(digest)
    return {
        "lat_ns": latencies,
        "scaled_ns": scaled,
        "exits": exits,
        "digests": digests,
        "stdout_bytes": sink.bytes - start_bytes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ops")
    parser.add_argument("result")
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from ultratree import cli

    with open(args.ops, encoding="utf-8") as handle:
        ops = json.load(handle)["ops"]
    sink = HashSink()
    real_stdout, sys.stdout = sys.stdout, sink
    try:
        # Warm-up: first calls fill argparse, regex and json caches.
        for commands in ops[:3]:
            run_op(cli, sink, commands)
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < budget:
            passes.append(run_pass(cli, sink, ops))
        result = {"passes": passes}
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            traced = run_pass(cli, sink, ops, tracer)
            traced["metrics"] = tracer.metrics()
            traced["table"] = tracer.table()
            result["traced"] = traced
    finally:
        sys.stdout = real_stdout
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
