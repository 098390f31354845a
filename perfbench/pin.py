"""Write digests.json: every op's stdout sha256 at the pinned seed.

Usage (from the root of a checkout): python3 perfbench/pin.py

Pin only at a commit whose output is known good.  Each op must pass its exit
code and spot check first; the script refuses to pin an op that does not.
Re-pinning is needed when the benchmark's inputs change, never to make a
program change pass.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DIGESTS, PINNED_SEED, WORK, fingerprint, import_cli, spot_check
from workloads import WORKLOADS, generate


def main() -> int:
    cli = import_cli()
    pinned = {}
    directory = WORK / "pin"
    for name, workload in WORKLOADS.items():
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        try:
            ops = generate(workload, PINNED_SEED, directory)
            digests = []
            for i, op in enumerate(ops):
                failure, digest = spot_check(cli, op)
                if failure is not None:
                    print(f"{name} op {i}: {failure}; nothing pinned", file=sys.stderr)
                    return 1
                digests.append(digest)
            pinned[name] = {"inputs": fingerprint(ops, directory), "ops": digests}
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    DIGESTS.write_text(json.dumps({"seed": PINNED_SEED, "workloads": pinned}, indent=1) + "\n")
    print(f"pinned {sum(len(w['ops']) for w in pinned.values())} op digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
