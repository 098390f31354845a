"""Bundled data: the sample category corpus and the Berlin-Kay color order.

Both files are plain editable data.  The color ordering follows the standard
published staging (black/white before red, red before green and yellow, both
before blue, then brown, then the late terms); swap in any other order as a
JSON document of ``nodes`` and ``(earlier, later)`` edges.
"""

from __future__ import annotations

import json
import os

from ..errors import _read_utf8
from ..trees import PhraseTree, parse_tree_lines


def _read(name: str) -> str:
    return _read_utf8(os.path.join(os.path.dirname(__file__), name))


def load_category_corpus() -> list[PhraseTree]:
    """The five-tree sample corpus behind the category distance matrix."""
    return parse_tree_lines(_read("category_corpus.trees").splitlines(), source="category_corpus.trees")


def load_berlin_kay_order():
    """The bundled color-term partial order, a ``hierarchy.PartialOrder``."""
    from ..hierarchy import PartialOrder  # only here, so the corpus loads without it

    return PartialOrder.from_json_dict(json.loads(_read("berlin_kay.json")))
