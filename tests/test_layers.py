"""``tools/layers.py`` runs end to end at one tiny size and writes its JSON."""

import json
import subprocess
from pathlib import Path

from . import helpers as fx

ROOT = Path(__file__).resolve().parents[1]


def test_layers_script_writes_its_sections(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text('{"claim": "kept"}')
    argv = fx.python_command(
        str(ROOT / "tools" / "layers.py"), "--parent", str(ROOT), "--sizes", "4", "--out", str(out)
    )
    done = subprocess.run(argv, capture_output=True, text=True, env=fx.python_env(), timeout=600)
    assert done.returncode == 0, done.stderr
    assert "leaf_matrix" in done.stdout
    document = json.loads(out.read_text())
    assert document["claim"] == "kept" and set(document["machine"]) == {"cpu", "os", "python"}
    found = document["per_layer"]
    assert "5 repeats per round" in found["protocol"]
    for by_size in found["layers"].values():
        for value in by_size["4"].values():
            assert 0 < value["min"] <= value["median"]
    assert set(found["layers"]["leaf_matrix"]["4"]) == {"parent", "change"}
    assert set(found["families"]) == set(fx.SHAPE_FAMILIES)
    assert found["families"]["star"]["nodes"] == [201, 401]
    assert found["families"]["star"]["_Facts"]["change"]["flagged"] in (True, False)
    assert all(mb > 0 for mb in found["rss_mb"]["change"] + found["rss_mb"]["parent"])
