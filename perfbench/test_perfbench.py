"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Six small ops per workload, two interpreter starts, run from the root."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "OPS_PER_PASS", 6)
    monkeypatch.setattr(run, "SETUP_STARTS", 2)
    for name, workload in list(workloads.WORKLOADS.items()):
        if workload.sizes:
            small = dataclasses.replace(workload, sizes=(5, 8))
            monkeypatch.setitem(workloads.WORKLOADS, name, small)


def _result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)])
    out = capsys.readouterr().out
    result = _result(out)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(metric["unit"])
                   for line in out.splitlines())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_pinned_digest_fails_the_op(tiny, capsys, tmp_path, monkeypatch):
    cli = run.import_cli()
    ops = workloads.generate(workloads.WORKLOADS["corpus"], run.PINNED_SEED, tmp_path)
    digests = [run.spot_check(cli, op)[1] for op in ops]
    digests[2] = "0" * 64
    pinned = tmp_path / "digests.json"
    pinned.write_text(json.dumps(
        {"seed": run.PINNED_SEED,
         "workloads": {"corpus": {"inputs": run.fingerprint(ops, tmp_path), "ops": digests}}}
    ))
    monkeypatch.setattr(run, "DIGESTS", pinned)

    code = run.main(["--workload", "corpus", "--seed", str(run.PINNED_SEED), "--seconds", "0.1"])
    out = capsys.readouterr().out
    result = _result(out)
    assert code != 0
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] < 1
    fail_ratio = float(next(line for line in out.splitlines() if line.startswith("fail_ratio")).split()[1])
    assert fail_ratio > 0
    assert any(line.startswith("FAILED op 2:") and "reference digest" in line for line in out.splitlines())


def test_spot_check_catches_a_wrong_distance(tmp_path):
    import random

    op = workloads._build_corpus(random.Random(3), 6, tmp_path / "op")
    cli = run.import_cli()
    _, outputs, _ = run.capture(cli, op)
    assert op.check(outputs) is None
    matrix = json.loads(outputs[0])
    matrix[0]["rows"][0][1] += 1
    assert "leaf distance" in op.check([json.dumps(matrix), *outputs[1:]])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
