"""Every pinned output of ``python -m ultratree``, one row per run.

A row gives the exit code, the sha256 of stdout, the words after ``python
-m ultratree`` and the stderr rule: ``""`` for empty, ONE_LINE for exactly
one line, or the exact line.  In the words and the exact line, ``{name}``
stands for a file that holds ``INPUTS[name]``.
tests/test_pins.py runs each row in a fresh interpreter.  A changed sha256
is a bug unless the change says why and re-pins it.
"""

import json
import random
from typing import NamedTuple

from ultratree import leaf_matrix, random_tree

from .helpers import right_comb

ONE_LINE = None
NOTHING = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of no bytes


class Pin(NamedTuple):
    code: int
    sha256: str
    argv: str
    stderr: str | None = ""


T300 = random_tree(1, 300, "mixed:4")


def _raised() -> str:
    """A 60-leaf tree's leaf matrix with four entries raised above the root
    height: only the suspect pairs are scanned."""
    m = leaf_matrix(random_tree(1, 60, "mixed:4"))
    rows = [list(row) for row in m.entries]
    top = max(map(max, rows))
    for k, (x, y) in enumerate([(0, 59), (3, 17), (20, 41), (30, 31)]):
        rows[x][y] = rows[y][x] = top + 1 + k
    return json.dumps({"labels": m.labels, "rows": rows})


def _shuffled_rows(tree, seed: int) -> tuple[list, list]:
    """The labels and rows of the tree's leaf matrix, labels shuffled by
    ``random.Random(seed)``: its own label order is no certificate, so
    check finds the suspect pairs in Prim's order."""
    m = leaf_matrix(tree)
    order = list(range(m.size))
    random.Random(seed).shuffle(order)
    return [m.labels[x] for x in order], [[m.entries[x][y] for y in order] for x in order]


def _shuffled() -> str:
    """The 300-leaf tree's shuffled leaf matrix with three entries raised."""
    labels, rows = _shuffled_rows(T300, 25)
    for x, y in [(0, 299), (7, 150), (200, 201)]:
        rows[x][y] = rows[y][x] = rows[x][y] + 1
    return json.dumps({"labels": labels, "rows": rows})


def _zeroed() -> str:
    """A 60-leaf tree's shuffled leaf matrix with two entries off the
    diagonal set to 0 and one diagonal entry to 2: check lists their
    zero-diagonal and positivity faults, and as no entry is negative, it
    scans only the suspect pairs."""
    labels, rows = _shuffled_rows(random_tree(1, 60, "mixed:4"), 29)
    for x, y in [(4, 33), (50, 51)]:
        rows[x][y] = rows[y][x] = 0
    rows[12][12] = 2
    return json.dumps({"labels": labels, "rows": rows})


# Each malformed file has a comment, a good tree and then a bad line 3.
MALFORMED = "# one good tree, then a bad one\n(S (N ok))\n{}\n"

INPUTS = {
    "t300": T300.to_bracketed() + "\n",
    # A right comb of 2,000 leaves over the five categories D, N, V, A, P.
    "comb": right_comb(2000, "DNVAP") + "\n",
    "raised": _raised(),
    "shuffled": _shuffled(),
    "zeroed": _zeroed(),
    # 30 labels, asymmetric, with zeros and a non-zero diagonal: every pair is scanned.
    "asymmetric": json.dumps({"labels": ["v%d" % x for x in range(30)],
                              "rows": [[(3 * x + 5 * y) % 7 for y in range(30)] for x in range(30)]}),
    # The bundled category matrix with one entry that is not a number.
    "entryx": json.dumps({"labels": ["D", "N", "V", "A", "P"],
                          "rows": [[3, 1, 2, 2, 2], [1, 3, "x", 2, 2], [2, 2, None, 4, 3],
                                   [2, 2, 4, None, 3], [2, 2, 3, 3, None]]}),
    # Labels with a carriage return, alone, at the end and before a newline: csv quotes each on every Python version.
    "cr": json.dumps({"labels": ["a\rb", "c", "d\r", "e\r\nf"],
                      "rows": [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 1], [3, 3, 1, 0]]}),
    "downset": '{"kind": "downset", "inventory": ["black", "white", "red"]}',
    "language": '{"kind": "language", "strategies": [{"name": "main", "covered": ["SU", "DO"], "primary": true}, '
                '{"name": "gappy", "covered": ["SU", "IO"]}]}',
    "malformed1": MALFORMED.format("(S (NP the man))"),
    "malformed2": MALFORMED.format("(S (A) (B (C d) e))"),
    "malformed3": MALFORMED.format("(S (NP (D the) (N man))"),
    "malformed4": MALFORMED.format("(S (N a)) (T b)"),
    "malformed5": MALFORMED.format("(S ( (N a)))"),
    "malformed6": MALFORMED.format("(S (A b (C d)))"),
}

PINS = [
    # Theorem sweeps over internal nodes, which have disagreements: every
    # binary shape of up to 8 and of up to 10 leaves, then seeded random
    # sweeps that pin the generator's draws for binary and up to 9-way splits.
    Pin(1, "6c58fa103403a7e2293fbe55eb53c19364d65ac35ef4d08fc908a563c65ae43f",
        "randtest --seed 0 --exhaustive-leaves 8 --nodes all"),
    Pin(1, "04d0ac6f4de3d225838c68b59baffc7ba74b63a09b9066e0c2792c9f28072669",
        "randtest --seed 0 --exhaustive-leaves 10 --nodes all"),
    Pin(1, "6afedbe2510e94753c0352affa1c0b131cee2301a7278287ca24200fe735b4fe",
        "randtest --seed 5 --trees 300 --max-leaves 10 --nodes all"),
    # One-leaf trees have no disagreement, so this row pins the exit code and
    # tree count only; that each tree still spends its leaf-count draw is
    # checked tree by tree in tests/test_command.py.
    Pin(0, "9fae0d65aaa4227155b0cbd6f8f7ef07f3efb96757af657c7e2018ac9ee8d4bc",
        "randtest --seed 11 --trees 200 --max-leaves 1 --nodes all"),
    Pin(1, "8de4ffe765f0ee8b0a9858f415075c3a1a3bdb049565e9ccf4f2eeea17ef9d4a",
        "randtest --seed 3 --trees 400 --max-leaves 40 --arity binary --nodes all"),
    Pin(1, "22bbc4d6e4024261d29638a023429e1faf2ae52ec09e37ff5f3ea4670aa998d2",
        "randtest --seed 3 --trees 400 --max-leaves 40 --arity mixed:9 --nodes all"),
    # Documents of a 300-leaf tree (1,056,003 bytes for matrix).  c-command
    # and cu-command agree on leaves, so their two leaf pins are the same.
    Pin(0, "608ebb17817735cdd83368641058187320f00413a3c39fbcdf35357d173f7603", "matrix {t300}"),
    Pin(0, "e7dfa013b37565f79f8df3d3d07df70500ad73e4b0beefae868699e58ede618b", "dominance {t300}"),
    Pin(0, "d3b0cb4a3b846c2b8a1547282ce82582d5e4b3bcf1ce041fa91c1b2c8f5bf67f", "govern {t300}"),
    # Every label of the tree governs, internal nodes too; govern's default V,P has only leaves.
    Pin(0, "8759ed204184fb1a381a0ced836553b53151b494030200a899d13e5d47a46320", "govern --governors X,D,N,V,A,P {t300}"),
    Pin(0, "4a73d3bd284690afadf8cbee82449cc46e4114953d232f7f2a3cc8f49b0ffc22",
        "govern --governors X,D,N,V,A,P --nodes leaves {t300}"),
    Pin(0, "b4e31c050647fe8108f83d7246c34abf276978d680385aa4f9421c295bda213e", "ccommand --nodes all {t300}"),
    Pin(0, "522566380dafae06a8fc83bd9aa20256e90aee14562a6f2a311addf78f7cce75", "cucommand --nodes all {t300}"),
    Pin(0, "0f6b0c557b7fe6eba936473cf7e3f69ef0c3e4b6f5f1d793fca2724b13bc3c38", "ccommand {t300}"),
    Pin(0, "0f6b0c557b7fe6eba936473cf7e3f69ef0c3e4b6f5f1d793fca2724b13bc3c38", "cucommand {t300}"),
    Pin(1, "c7a441c063b05d2281ed173fbc0baa0ded9140780827a3af2e6d7766d270b6fb", "theorem --nodes all {t300}"),
    Pin(0, "ba2944e9820735ddbd3bf608ba7a36a901f1e5d28bba01ab215ebaf9433ddd27", "matrix --format csv {t300}"),
    Pin(0, "236ea0a49707da4be008015e53b6cd26ad74c55e65f30e54aaadd14a1c7b722c", "dominance --format csv {t300}"),
    Pin(0, "6c13932249d0ffb10ff791def7a0767b9ce9f9990f4dd9e8e4654f85ca9d22bd", "govern --format csv {t300}"),
    Pin(0, "ff3c08b474cc7d1764bd0fbb6bafbd00b1c3c529781d32fb7b79bda35c075b8f", "check --format csv {t300}"),
    Pin(0, "c5ea8a0f4150afa6635e2069bbbd1ef025240bdb514984238bc4b53a5c93a6a5", "complexity --format csv {t300}"),
    # Two violating matrices: check exits 1 on both, and triangles lists
    # 34,220 records of raised and every kind, violating included, of asymmetric.
    Pin(1, "792038015b6948911ef37326fdb661363accb2f4d81601a41cf963f08f810eb9", "check --matrix {raised} --format json"),
    Pin(1, "f1cfe92d1f9810facc68f1ff0953c51e45743966a5d84280823b4774d66f8c62", "check --matrix {raised} --format csv"),
    Pin(1, "9394e86c84467ac0ac90b4aa811be220613e72238f7f0cd2a5089b52d14f992c",
        "check --matrix {asymmetric} --format json"),
    Pin(1, "996058df7f9574c11c66b56f39765e44ddc2488e3c3d31a5c8221910496c15e4",
        "check --matrix {asymmetric} --format csv"),
    Pin(0, "3ebab150328fc2573c9106651c9b34b905fa9053279dc1d90e29840b185968c0",
        "triangles --matrix {raised} --format json"),
    Pin(0, "a92b753c2f0600200280fd8de251922f3d50f9f8e0d31aacabf617129b6ec316",
        "triangles --matrix {raised} --format csv"),
    Pin(0, "58a4c9e26ee0ce5e09f7fde690cc86a06825d44b2179bf5a35b423e143710209",
        "triangles --matrix {asymmetric} --format json"),
    Pin(0, "dbda1667020e72f444a1c5635b1e1c902bd1229cbf31a9e01d1a14b8d9d783da",
        "triangles --matrix {asymmetric} --format csv"),
    # Vertices that hold a carriage return are quoted, which Python 3.10-3.12's csv does not do on its own.
    Pin(0, "e333fac92231d3db171066c801f57ed0a18fbb18965cebcb635b382cba074efe", "triangles --matrix {cr} --format csv"),
    # A tree matrix whose shuffled labels break its clusters: check finds
    # the suspect pairs of its three raised entries in Prim's order.
    Pin(1, "9b53f544bbc312d50abffa4fe865108176d3865059c9b70f069c89e7a395c612", "check --matrix {shuffled}"),
    # Symmetric, with zero entries and a non-zero diagonal entry: positivity
    # is listed, and the suspect pairs still come from Prim's order.
    Pin(1, "bd95dc13124a39051c6dc87937c3c65d4618eaf06d0820ab69693964b4c08448", "check --matrix {zeroed}"),
    # Bundled data and small documents.
    Pin(0, "3ded310dc382ef0b22c179e0b75155ec90cc6e9234ee3e23c96929dfca791c5f", "features"),
    Pin(0, "2c5f357f3e7c294793894b4bf98c42864d422dd8c8fabe476a0972ec88bb6e09", "features --ap 1"),
    Pin(0, "0839c2773624054adaf88563237aeb5e5cd419308d7dbe682c7d2315b75edad2", "hierarchy {downset}"),
    Pin(1, "91b2623dcb8f23a694459919e9b146bc0837bc9990e83da34a3e9650bf729070", "hierarchy {language}"),
    Pin(0, "6c30625c3ab19312ddc744a9bf6524348f3660646d4938c0f6b3020d73b09453", "mindist"),
    Pin(0, "08c22407bc9e1f79125c4abf7fd4a49d253e3b1c541659a8c0e25fbf22cadda9", "mindist --format csv"),
    Pin(1, "451faaa0143e949045756439a9ac82975d3320651b8a56f9fb04ee7fd2d27f21", "mindist --i 0"),
    # The 2,000-leaf comb: each category pair meets at many heights, the least near its foot.
    Pin(0, "2ed687ba02c303036fff489c3dde74f5f992cc914859ea3c1f7d80711098555d", "mindist {comb}"),
    # Refusals.  Three malformed lines have several faults: the token loop's
    # come first, then the last faulty node in preorder.
    Pin(2, NOTHING, "triangles --matrix {raised} --xbar", "error: triangles takes one of a tree file, --matrix, or --xbar"),
    Pin(2, NOTHING, "randtest --seed 0 --exhaustive-leaves 3 --trees 5", ONE_LINE),
    Pin(2, NOTHING, "mindist --i 0 --format csv", ONE_LINE),
    Pin(2, NOTHING, "features --matrix {entryx}",
        "error: {entryx}: rows[1][2]: entries must be integers or None, got 'x'"),
    Pin(2, NOTHING, "matrix {malformed1}", "error: {malformed1}:3: node 'NP' has more than one word"),
    Pin(2, NOTHING, "matrix {malformed2}", "error: {malformed2}:3: node 'B' has both a word and children"),
    Pin(2, NOTHING, "matrix {malformed3}", "error: {malformed3}:3: missing closing parenthesis"),
    Pin(2, NOTHING, "matrix {malformed4}", "error: {malformed4}:3: trailing content after the tree"),
    Pin(2, NOTHING, "matrix {malformed5}", "error: {malformed5}:3: node with no label"),
    Pin(2, NOTHING, "matrix {malformed6}", "error: {malformed6}:3: node 'A' has both a word and children"),
]
