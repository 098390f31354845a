"""The CLI's exit contract under arbitrary input files.

Every subcommand that reads a file is fed arbitrary bytes, JSON documents
(matrix- and hierarchy-shaped, ill-typed ones included) and bracketed text
through ``run()``.  Whatever the input, no exception escapes, the exit code
is 0, 1 or 2, and exit 2 prints exactly one ``error:`` line and nothing to
stdout.  When the input is a read fault by construction (bytes that are not
UTF-8, text that is not JSON, a non-integer or ``true`` matrix entry,
repeated matrix labels, a tree line with unbalanced brackets), that line
names the file.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ultratree import random_tree, serialize_tree
from ultratree.cli import run

# Subcommand name -> argv before the file.  The JSON readers come first.
MATRIX_COMMANDS = {
    "check --matrix": ["check", "--matrix"],
    "triangles --matrix": ["triangles", "--matrix"],
    "triangles --matrix --format csv": ["triangles", "--format", "csv", "--matrix"],
    "features --matrix": ["features", "--matrix"],
}
JSON_COMMANDS = {**MATRIX_COMMANDS, "hierarchy": ["hierarchy"]}
TREE_COMMANDS = {
    name: [name]
    for name in (
        "check", "triangles", "matrix", "dominance", "ccommand", "cucommand",
        "theorem", "govern", "mindist", "complexity",
    )
}
COMMANDS = {**JSON_COMMANDS, **TREE_COMMANDS}
# Where every exit-2 message names the file, not only a read fault's: these
# commands do nothing but read and check the document.
ALWAYS_NAMED = {"check --matrix", "hierarchy"}

SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2, 2) | st.text(max_size=3)
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# Labels include the feature categories, and a lone surrogate that no
# output encoding can write.
LABELS = st.sampled_from(["a", "b", "c", "N", "V", "A", "P", "D", "", "\ud800"])
ENTRIES = st.integers(0, 4) | st.sampled_from([True, False, None, 1.5, "1", -1])


@st.composite
def matrix_documents(draw):
    """A square integer matrix document, then up to two entries redrawn
    from ENTRIES, or one part made ragged, replaced or removed."""
    n = draw(st.integers(0, 5))
    labels = draw(st.lists(LABELS, min_size=n, max_size=n, unique=draw(st.booleans())))
    rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ENTRIES)
    document = {"labels": labels, "rows": rows}
    change = draw(st.sampled_from(["none", "none", "ragged", "labels", "rows", "delete"]))
    if change == "ragged" and n:
        rows[draw(st.integers(0, n - 1))].append(0)
    elif change in ("labels", "rows"):
        document[change] = draw(ANY_JSON)
    elif change == "delete":
        del document[draw(st.sampled_from(["labels", "rows"]))]
    return document


POSITIONS = st.sampled_from(["SU", "DO", "IO", "OBL", "GEN", "OCOMP", "ZZ"])
COLOURS = st.sampled_from(["black", "white", "red", "green", "blue", "zz"])
STRATEGY_OBJECTS = st.fixed_dictionaries(
    {"covered": st.lists(POSITIONS, max_size=4) | ANY_JSON},
    optional={"name": SCALARS, "primary": st.booleans() | SCALARS},
)
HIERARCHY_DOCUMENTS = st.fixed_dictionaries(
    {
        "kind": st.just("language"),
        "strategies": st.lists(STRATEGY_OBJECTS | ANY_JSON, max_size=3) | ANY_JSON,
    },
    optional={"chain": st.lists(POSITIONS, max_size=5) | ANY_JSON},
) | st.fixed_dictionaries(
    {"kind": st.sampled_from(["downset", "colours"]), "inventory": st.lists(COLOURS, max_size=4) | ANY_JSON},
    optional={
        "order": st.fixed_dictionaries(
            {
                "nodes": st.lists(COLOURS, max_size=5) | ANY_JSON,
                "edges": st.lists(st.lists(COLOURS, min_size=1, max_size=3), max_size=4) | ANY_JSON,
            }
        )
        | ANY_JSON
    },
)

TREES = st.builds(
    lambda seed, leaves: serialize_tree(random_tree(seed, leaves, "mixed:3")),
    st.integers(0, 10**6),
    st.integers(1, 6),
)
TREE_TOKENS = st.sampled_from(["(", ")", "(X", "(A a)", "b", " ", "\n", "# c\n", "\t", "\u3000"])
BRACKETED = st.lists(TREES | st.lists(TREE_TOKENS, max_size=12).map("".join), min_size=1, max_size=4).map(
    "\n".join
)


def _json_bytes(documents):
    return documents.map(json.dumps).map(str.encode)


# Each command sees arbitrary bytes, any JSON, and the input shaped for it.
ARBITRARY = [st.binary(max_size=48), _json_bytes(ANY_JSON)]
MATRIX_INPUTS = st.one_of(*ARBITRARY, _json_bytes(matrix_documents()))
HIERARCHY_INPUTS = st.one_of(*ARBITRARY, _json_bytes(HIERARCHY_DOCUMENTS))
TREE_INPUTS = st.one_of(
    *ARBITRARY,
    BRACKETED.map(str.encode),
    st.binary(max_size=8).map(lambda b: b"(X (A a) (B b\xff))" + b),
)


def _inputs(command: str):
    if command in MATRIX_COMMANDS:
        return MATRIX_INPUTS
    return HIERARCHY_INPUTS if command == "hierarchy" else TREE_INPUTS


def _read_fault(command: str, raw: bytes) -> bool:
    """Whether the input is a read fault by construction for ``command``."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return True
    if command in JSON_COMMANDS:
        try:
            document = json.loads(text)
        except ValueError:
            return True
        if command not in MATRIX_COMMANDS or not isinstance(document, dict):
            return False
        labels, rows = document.get("labels"), document.get("rows")
        repeated = (
            isinstance(labels, list)
            and all(isinstance(x, str) for x in labels)
            and len(set(labels)) < len(labels)
        )
        allowed = (int, type(None)) if command == "features --matrix" else (int,)
        entries = [v for row in rows if isinstance(row, list) for v in row] if isinstance(rows, list) else []
        return repeated or any(isinstance(v, bool) or not isinstance(v, allowed) for v in entries)
    lines = io.StringIO(text, newline=None).read().split("\n")
    return any(
        line.strip() and not line.strip().startswith("#") and line.count("(") != line.count(")")
        for line in lines
    )


def _run(argv):
    """``run(argv)`` with stdout and stderr as strict UTF-8 text streams: the
    exit code, the bytes written to stdout and the stderr text."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


@given(data=st.data())
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_exit_contract(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    raw = data.draw(_inputs(command), label="raw")
    path = tmp_path / "input"
    path.write_bytes(raw)
    code, out, err = _run([*COMMANDS[command], str(path)])
    assert code in (0, 1, 2)
    if code != 2:
        assert err == ""
        assert not _read_fault(command, raw), "a read fault was not reported"
        return
    assert out == b""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if command in ALWAYS_NAMED or _read_fault(command, raw):
        assert str(path) in err


def _assert_named_input_error(path, argv):
    """Exit 2 with nothing on stdout and one ``error:`` line naming the file."""
    code, out, err = _run([*argv, str(path)])
    assert code == 2 and out == b""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("command", ["check --matrix", "hierarchy"])
def test_deeply_nested_document(tmp_path, command):
    # json.loads runs out of recursion depth; the reader reports that as the file's fault.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    _assert_named_input_error(path, JSON_COMMANDS[command])


def test_entry_past_the_integer_digit_limit(tmp_path):
    # 5,001 digits is past the interpreter's default limit of 4,300 on int text.
    path = tmp_path / "long.json"
    path.write_text('{"labels": ["a"], "rows": [[%s]]}' % ("1" * 5001))
    _assert_named_input_error(path, JSON_COMMANDS["check --matrix"])
