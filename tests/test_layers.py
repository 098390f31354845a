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
        for by_side in by_size.values():
            for value in by_side.values():
                assert 0 < value["min"] <= value["median"]
    assert set(found["layers"]["leaf_matrix"]["4"]) == {"parent", "change"}
    # The fixed rows run at their own input's size, whatever --sizes says.
    assert set(found["layers"]["_triangle_text json, leaf matrix"]) == {"40"}
    for name in ("check --matrix json, raised (_cmd_check)", "_check_axioms, raised"):
        assert set(found["layers"][name]) == {"60"} and set(found["layers"][name]["60"]) == {"parent", "change"}
    assert set(found["families"]) == set(fx.SHAPE_FAMILIES)
    assert found["families"]["star"]["nodes"] == [201, 401]
    assert found["families"]["star"]["_Facts"]["change"]["flagged"] in (True, False)
    assert set(found["layers"]["matrix JSON of a tree file's tree"]["4"]) == {"parent", "change"}
    imports = {"import ultratree.cli, no caches", "import ultratree.cli, cached"}
    assert set(found["runs"]) == {"matrix", "check", "triangles", "govern", "randtest --exhaustive-leaves 10", *imports}
    for name, by_side in found["runs"].items():
        assert set(by_side) == {"parent", "change"}
        starts = 5 if name in imports else 1
        assert all(len(v["peak_rss_mb"]) == len(v["wall_s"]) == starts for v in by_side.values())
        assert all(mb > 0 and wall > 0 for v in by_side.values() for mb, wall in zip(v["peak_rss_mb"], v["wall_s"]))
