"""Each row of tests/pins.py in a fresh interpreter, where a subcommand
alone loads the modules that its handler imports."""

import hashlib

import pytest

from . import helpers as fx
from .pins import INPUTS, ONE_LINE, PINS

TIMEOUT = 120  # seconds per row, so a hang fails


@pytest.fixture(scope="session")
def paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pins")
    for name, text in INPUTS.items():
        (folder / name).write_text(text)
    return {name: str(folder / name) for name in INPUTS}


@pytest.mark.parametrize("pin", PINS, ids=["-".join(w.strip("-{}") for w in pin.argv.split()) for pin in PINS])
def test_pin(paths, pin):
    argv = [word.format(**paths) for word in pin.argv.split()]
    child = fx.run_python("-m", "ultratree", *argv, text=False, timeout=TIMEOUT)
    stderr = child.stderr.decode()
    assert child.returncode == pin.code, stderr
    assert hashlib.sha256(child.stdout).hexdigest() == pin.sha256
    if pin.stderr is ONE_LINE:
        assert len(stderr.splitlines()) == 1 and stderr.endswith("\n"), stderr
    else:
        assert stderr == (pin.stderr.format(**paths) + "\n" if pin.stderr else "")
