"""Each demo script runs to completion against the library in this checkout."""

from pathlib import Path

import pytest

from . import helpers as fx

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = fx.run_python(str(demo))
    assert result.returncode == 0, result.stderr
