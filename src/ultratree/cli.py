"""Command-line interface.

Every analysis is a subcommand over tree files and JSON documents.  run()
parses a call by its subcommand's parser; the top-level one serves help and
errors.  Exit codes separate outcomes so pipelines can branch on them:

* 0: the analysis ran and found nothing wrong,
* 1: the analysis ran and found violations (failed axioms, theorem
  disagreements, a failed pattern check, trees over the complexity bound),
* 2: the input could not be read or parsed (an UltratreeError or OSError),
  the run ran out of memory, or stdout's encoding cannot write the output;
  one ``error:`` line goes to stderr and nothing to stdout,
* 141: stdout was closed before the output was written (128 + SIGPIPE, as a
  shell reports a writer that a closed pipe killed); stderr stays empty.

Tree files hold one bracketed tree per line; ``#`` starts a comment line and
blank lines are ignored.  Matrix documents are JSON objects with ``labels``
and ``rows``.  Output is deterministic: identical inputs (and seeds) produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from functools import cache, partial
from itertools import chain, combinations, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import getitem

from .command import (
    GovernorPolicy,
    c_command_matrix,
    cu_command_matrix,
    government_matrix,
    random_theorem_suite,
    theorem_report,
)
from .errors import EmptyCorpus, EmptyPolicy, MissingEntry, TooFewLabels, UltratreeError, _read_json
from .lexdist import check_nested_pattern, complexity, load_category_corpus, min_distance_matrix
from .matrix import CategoryDistanceMatrix, DistanceMatrix, _csv
from .trees import dominance_matrix, enumerate_binary_trees, parse_tree_file
from .ultrametric import _check_axioms, _TriangleClasses, _triangles, leaf_matrix, xbar_template

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT_ERROR = 2
EXIT_CLOSED_STDOUT = 141

# The public operations whose results each subcommand reports.  A subcommand
# may compute them on a private path rather than call them: check runs
# _check_axioms, not check_metric; triangles _triangles, not all_triangles;
# cucommand and govern one pass per tree, not cu_domain or governs per pair.
# tests/test_cli.py checks this table covers the whole API.
COMMAND_OPERATIONS = {
    "matrix": (
        "parse_tree",
        "parse_tree_file",
        "assign_heights",
        "leaf_matrix",
        "xbar_template",
    ),
    "check": ("leaf_matrix", "check_metric", "check_ultrametric"),
    "triangles": ("classify_triangle", "all_triangles"),
    "dominance": ("dominates", "dominance_matrix"),
    "ccommand": ("c_command", "c_command_matrix", "first_branching_ancestor"),
    "cucommand": ("cu_domain", "cu_command", "cu_command_matrix", "same_height_distance", "lca"),
    "theorem": ("theorem_check", "theorem_report"),
    "govern": ("governs", "government_matrix"),
    "mindist": (
        "tree_category_minima",
        "min_distance_matrix",
        "check_nested_pattern",
        "load_category_corpus",
    ),
    "complexity": ("complexity",),
    "features": (
        "build_feature_matrix",
        "determinant",
        "matrix_rank",
        "pauli_assembly",
        "feature_distance",
        "compare_feature_vs_ultrametric",
        "load_category_corpus",
    ),
    "hierarchy": (
        "check_strategy",
        "check_language",
        "check_downset",
        "load_berlin_kay_order",
    ),
    "randtest": (
        "random_tree",
        "random_theorem_suite",
        "theorem_check",
        "serialize_tree",
        "enumerate_binary_trees",
    ),
}


def _json_text(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for ``obj`` nested
    ``level`` containers deep.

    Lists, string-keyed dicts, strings, ints, bools and None are laid out
    here: given an indent, the standard library switches to its pure-Python
    encoder, which is slow and leaves reference cycles behind on every call.
    Anything else (floats, tuples, other keys, subclasses) goes through
    ``json.dumps`` and is re-indented, which is exact because JSON text
    never holds a raw newline.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is list or kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "[]" if kind is list else "{}"
        pad = "\n" + "  " * (level + 1)
        if kind is dict:
            items = [f"{_quote(key)}: {_json_text(value, level + 1)}" for key, value in obj.items()]
        else:
            items = [_json_text(value, level + 1) for value in obj]
        start, end = "[]" if kind is list else "{}"
        return start + pad + ("," + pad).join(items) + pad[:-2] + end
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * level)


def _json_list(items: list[str]) -> str:
    """``json.dumps(indent=2)``'s list of items laid out one level deep."""
    return "[\n  " + ",\n  ".join(items) + "\n]" if items else "[]"


def _matrix_text(m, level: int = 0) -> str:
    """``_json_text(m.to_json_dict(), level)``, written straight from the
    labels and the rows' texts when every entry of the kind has a fixed text."""
    pad = "\n" + "  " * level
    item, entry = pad + "    ", pad + "      "  # a label or row; an entry
    texts = m._texts("," + entry)
    if texts is None:
        return _json_text(m.to_json_dict(), level)
    if not m.labels:
        return '{%s  "labels": [],%s  "rows": []%s}' % (pad, pad, pad)
    # The head and tail go onto the first and last rows, so one join copies the rows into the text.
    labels = ("," + item).join(map(_quote, m.labels))
    texts[0] = '{%s  "labels": [%s%s%s  ],%s  "rows": [%s[%s' % (pad, item, labels, pad, pad, item, entry) + texts[0]
    texts[-1] += item + "]" + pad + "  ]" + pad + "}"
    return (item + "]," + item + "[" + entry).join(texts)


def _matrices_text(matrices, fmt: str, single: bool = False) -> str:
    if fmt == "json":
        if single:
            return _matrix_text(matrices[0])
        return _json_list([_matrix_text(m, 1) for m in matrices])
    return "\n".join(m.to_csv() for m in matrices)


def _split_csv_flag(value: str) -> list[str]:
    return [part for part in value.split(",") if part]


# -- subcommand handlers -----------------------------------------------------

def _distance_matrices(args, sources: str) -> list[DistanceMatrix]:
    """The --xbar template, the --matrix document or each tree's leaf matrix,
    whichever one is given; ``sources`` names them, for the error otherwise."""
    if bool(args.file) + bool(getattr(args, "matrix", None)) + getattr(args, "xbar", False) > 1:
        raise UltratreeError(f"{args.command} takes one of {sources}")
    if getattr(args, "xbar", False):
        return [xbar_template(args.i or 0)]
    if not (args.file or getattr(args, "matrix", None)):
        raise UltratreeError(f"{args.command} needs {sources}")
    if getattr(args, "i", None) is not None:
        raise UltratreeError("--i: needs --xbar")
    if args.file:
        return [leaf_matrix(t) for t in parse_tree_file(args.file)]
    return [DistanceMatrix.from_json_dict(_read_json(args.matrix), source=args.matrix)]


def _cmd_matrix(args) -> tuple[int, str]:
    matrices = _distance_matrices(args, "a tree file or --xbar")
    return EXIT_OK, _matrices_text(matrices, args.format, single=args.xbar)


# One record of the ``check`` JSON list, as json.dumps(records, indent=2) lays it out: tree, axiom and the
# indices, never an empty list.  A --matrix check writes its records with empty text for the tree.  Each
# (tree, axiom, index count) gets one template, which writes each index with %d.
_CHECK_JSON = '{%s\n    "axiom": "%s",\n    "indices": [\n      %s\n    ]\n  }'


def _cmd_check(args) -> tuple[int, str]:
    faults = [
        (tree, axiom, indices)
        for tree, matrix in enumerate(_distance_matrices(args, "a tree file or --matrix"))
        for part in _check_axioms(matrix)
        for axiom, indices in part
    ]
    code = EXIT_VIOLATIONS if faults else EXIT_OK
    if args.format == "csv":
        rows = [(tree, axiom, " ".join(map(str, indices))) for tree, axiom, indices in faults]
        return code, _csv(("tree", "axiom", "indices"), rows)
    field = "" if args.matrix else '\n    "tree": %d,'
    keys = {(tree, axiom, len(i)) for tree, axiom, i in faults}
    templates = {key: _CHECK_JSON % (field and field % key[0], key[1], ",\n      ".join(["%d"] * key[2])) for key in keys}
    return code, _json_list([templates[tree, axiom, len(i)] % i for tree, axiom, i in faults])


# A ``triangles`` JSON record and its separator, as json.dumps(records, indent=2) lays them out: head (separator,
# tree, first quoted label, then the second's with its separator) + third quoted label + tail (kind, sides
# ascending, base's text); %d writes ints.
_TRIANGLE_HEAD = ',\n  {\n    "tree": %d,\n    "vertices": [\n      %s,\n      '
_TRIANGLE_TAIL = '\n    ],\n    "kind": "%s",\n    "sides": [\n      %d,\n      %d,\n      %d\n    ],\n    "base": %s\n  }'


def _triangle_text(matrices, fmt: str) -> str:
    """Every triangle of every matrix, the matrix's index as its tree.  A matrix of fewer than 3 labels has no
    triples and adds no records.  Each distinct side triple is classified once, by ``_TriangleClasses``.  A JSON
    record is its pair's head (a prefix made once per first label + the second label's text and separator), the
    third label and its side triple's tail; map, zip and chain put a first label's records into one list of
    shared strings, joined once.  A CSV row is the tree, the vertices and the triple's cells."""
    if fmt == "csv":
        cells = _TriangleClasses(
            lambda kind, a, b, c: (kind, "%d %d %d" % (a, b, c), "%d" % a if kind == "isosceles" else "")
        )
        return _csv(
            ("tree", "vertices", "kind", "sides", "base"),
            (
                (tree, f"{m.labels[x]} {m.labels[y]} {z}", *cells[key])
                for tree, m in enumerate(matrices)
                for x, y, keys in _triangles(m.entries)
                for z, key in zip(m.labels[y + 1 :], keys)
            ),
        )
    classes = _TriangleClasses(
        lambda kind, a, b, c: _TRIANGLE_TAIL % (kind, a, b, c, "%d" % a if kind == "isosceles" else "null")
    )
    parts = []
    for tree, matrix in enumerate(matrices):
        m, n, quoted = matrix.entries, matrix.size, [_quote(label) for label in matrix.labels]
        seconds, after = [q + ",\n      " for q in quoted], [slice(y + 1, None) for y in range(n)]
        for x, row in enumerate(m[:-2]):  # first label x: its pairs (x, y) and their runs of z > y, chained at C speed
            ys, rest, prefix = slice(x + 1, n - 1), after[x + 1 : n - 1], _TRIANGLE_HEAD % (tree, quoted[x])
            heads = chain.from_iterable(map(repeat, map(prefix.__add__, seconds[ys]), range(n - x - 2, 0, -1)))
            thirds = chain.from_iterable(map(quoted.__getitem__, rest))
            keys = chain.from_iterable(map(zip, map(repeat, row[ys]), map(row.__getitem__, rest), map(getitem, m[ys], rest)))
            parts += chain.from_iterable(zip(heads, thirds, map(classes.__getitem__, keys)))
    if parts:  # the first record has no separator
        parts[0], parts[-1] = "[" + parts[0][1:], parts[-1] + "\n]"
    return "".join(parts) or "[]"


def _cmd_triangles(args) -> tuple[int, str]:
    matrices = _distance_matrices(args, "a tree file, --matrix, or --xbar")
    if args.matrix and matrices[0].size < 3:  # the --xbar template has 3 labels
        raise TooFewLabels(f"{args.matrix}: need at least 3 labels, got {matrices[0].size}")
    return EXIT_OK, _triangle_text(matrices, args.format)


def _cmd_relation(args) -> tuple[int, str]:
    """One matrix per tree, built by the function ``args.build(args)`` returns."""
    build = args.build(args)
    return EXIT_OK, _matrices_text([build(t) for t in parse_tree_file(args.file)], args.format)


def _government_builder(args):
    policy = GovernorPolicy(_split_csv_flag(args.governors))
    if not policy.governor_categories:
        raise EmptyPolicy("--governors: governor policy has no categories")
    return partial(government_matrix, policy=policy, nodes=args.nodes)


def _theorem_result(report: dict, counterexamples: str | None = None) -> tuple[int, str]:
    """A theorem report's exit code and JSON text; the records alone, [] if none, go to a named file.
    Each record is one template over its values in order, as json.dumps(records, indent=2) lays it out."""
    record = '{\n    "tree": %s,\n    "a": %s,\n    "b": %s,\n    "relation": %s\n  }'
    listed = _json_list([record % tuple(map(_quote, d.values())) for d in report["disagreements"]])
    if counterexamples:
        with open(counterexamples, "w", encoding="utf-8") as handle:
            handle.write(listed)
    text = '{\n  "trees_tested": %d,\n  "disagreements": %s\n}' % (report["trees_tested"], listed.replace("\n", "\n  "))
    return (EXIT_VIOLATIONS if report["disagreements"] else EXIT_OK), text


def _cmd_theorem(args) -> tuple[int, str]:
    return _theorem_result(theorem_report(parse_tree_file(args.file), nodes=args.nodes))


def _cmd_mindist(args) -> tuple[int, str]:
    if args.i is not None and args.format == "csv":  # the pattern report is JSON only
        raise UltratreeError("--format: csv not used with --i")
    order = None if args.order is None else _split_csv_flag(args.order)
    if order == []:
        raise UltratreeError("--order: names no category")
    if order and len(set(order)) < len(order):
        raise UltratreeError(f"--order: categories must be distinct, got {args.order!r}")
    corpus = parse_tree_file(args.file) if args.file else load_category_corpus()
    if not corpus:  # the bundled corpus has trees, so the file named holds none
        raise EmptyCorpus(f"{args.file}: corpus has no trees")
    matrix = min_distance_matrix(corpus, categories=order)
    if args.i is None:
        return EXIT_OK, _matrices_text([matrix], args.format, single=True)
    pattern_order = order if order else list(matrix.labels)
    try:
        matches = check_nested_pattern(matrix, pattern_order, args.i)
    except MissingEntry as exc:  # --order is at fault if the first missing pair names a category no tree holds
        held = {c for tree in corpus for c in tree.leaf_categories()}
        pair = next(pair for pair in combinations(pattern_order, 2) if matrix.get(*pair) is None)
        raise MissingEntry(f"{args.file if held.issuperset(pair) else '--order'}: {exc}") from None
    report = {
        "matrix": matrix.to_json_dict(),
        "pattern_order": pattern_order,
        "pattern_start": args.i,
        "pattern_matches": matches,
    }
    return (EXIT_OK if matches else EXIT_VIOLATIONS), _json_text(report)


def _cmd_complexity(args) -> tuple[int, str]:
    corpus = parse_tree_file(args.file)
    report = complexity(corpus, bound=args.bound)
    code = EXIT_VIOLATIONS if report.exceeding else EXIT_OK
    if args.format == "json":
        return code, _json_text(report.to_json_dict())
    over = set(report.exceeding)
    rows = [(i, h, int(i in over)) for i, h in report.per_tree]
    return code, _csv(("tree", "height", "over_bound"), rows)


def _cmd_features(args) -> tuple[int, str]:
    from .features import FeatureTable, build_feature_matrix, compare_feature_vs_ultrametric
    from .features import determinant, matrix_rank, pauli_assembly

    table = FeatureTable()
    sign = build_feature_matrix(table, ap_value=args.ap)
    assembled = pauli_assembly()
    entries = [[int(z.real) for z in row] for row in assembled]
    imag_zero = all(z.imag == 0 for row in assembled for z in row)
    if args.matrix:
        distances = CategoryDistanceMatrix.from_json_dict(
            _read_json(args.matrix), source=args.matrix
        )
    else:
        distances = min_distance_matrix(load_category_corpus())
    try:
        comparison = compare_feature_vs_ultrametric(table, distances)
    except MissingEntry as exc:  # only a --matrix document can lack a pair
        raise MissingEntry(f"{args.matrix}: {exc}") from None
    positive = sum(1 for row in sign.entries for v in row if v > 0)
    report = {
        "feature_matrix": sign.to_json_dict(),
        "determinant": determinant(sign),
        "rank": matrix_rank(sign),
        "positive_entries": positive,
        "negative_entries": sign.size * sign.size - positive,
        "pauli_assembly_real": imag_zero,
        "pauli_assembly_matches": entries == [list(r) for r in sign.entries],
        "feature_distances": [
            {"pair": p["pair"], "distance": p["feature_distance"]}
            for p in comparison["pairs"]
        ],
        "comparison": comparison,
    }
    return EXIT_OK, _json_text(report)


def _cmd_hierarchy(args) -> tuple[int, str]:
    from .hierarchy import check_document

    report, passed = check_document(_read_json(args.file), source=args.file)
    return (EXIT_OK if passed else EXIT_VIOLATIONS), _json_text(report)


def _cmd_randtest(args) -> tuple[int, str]:
    given = {f: getattr(args, f) for f in ("trees", "max_leaves", "arity") if getattr(args, f) is not None}
    if args.exhaustive_leaves is not None:
        for flag in given:  # they shape random trees only
            raise UltratreeError(f"--{flag.replace('_', '-')}: not used with --exhaustive-leaves")
        if args.exhaustive_leaves < 1:
            raise UltratreeError(f"exhaustive_leaves must be at least 1, got {args.exhaustive_leaves}")
        shapes = chain.from_iterable(map(enumerate_binary_trees, range(1, args.exhaustive_leaves + 1)))
        report = theorem_report(shapes, nodes=args.nodes)
    elif args.seed is None:
        raise UltratreeError("--seed: needed without --exhaustive-leaves")
    else:
        report = random_theorem_suite(args.seed, nodes=args.nodes, **given)
    return _theorem_result(report, args.counterexamples)


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultratree",
        description="Ultrametric distance structure on syntactic phrase trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("matrix", help="leaf distance matrices from trees, or the Spec/X/YP template")
    p.add_argument("file", nargs="?", help="tree file (one bracketed tree per line)")
    p.add_argument("--xbar", action="store_true", help="emit the Spec/X/YP template instead")
    p.add_argument("--i", type=int, help="head height for --xbar")
    add_format(p)
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("check", help="metric and ultrametric axiom checks")
    p.add_argument("file", nargs="?", help="tree file")
    p.add_argument("--matrix", help="JSON distance matrix to check directly")
    add_format(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("triangles", help="classify every label triple")
    p.add_argument("file", nargs="?", help="tree file")
    p.add_argument("--matrix", help="JSON distance matrix")
    p.add_argument("--xbar", action="store_true")
    p.add_argument("--i", type=int)
    add_format(p)
    p.set_defaults(handler=_cmd_triangles)

    p = sub.add_parser("dominance", help="dominance matrix over all nodes")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(handler=_cmd_relation, build=lambda args: dominance_matrix)

    p = sub.add_parser("ccommand", help="c-command matrix")
    p.add_argument("file")
    p.add_argument("--nodes", choices=("leaves", "all"), default="leaves")
    add_format(p)
    p.set_defaults(handler=_cmd_relation, build=lambda args: partial(c_command_matrix, nodes=args.nodes))

    p = sub.add_parser("cucommand", help="cu-command matrix")
    p.add_argument("file")
    p.add_argument("--nodes", choices=("leaves", "all"), default="leaves")
    add_format(p)
    p.set_defaults(handler=_cmd_relation, build=lambda args: partial(cu_command_matrix, nodes=args.nodes))

    p = sub.add_parser("theorem", help="compare c-command with cu-command per tree")
    p.add_argument("file")
    p.add_argument("--nodes", choices=("leaves", "all"), default="leaves")
    p.set_defaults(handler=_cmd_theorem)

    p = sub.add_parser("govern", help="government matrix under a governor policy")
    p.add_argument("file")
    p.add_argument("--governors", default="V,P", help="comma-separated governor categories")
    p.add_argument("--nodes", choices=("leaves", "all"), default="all")
    add_format(p)
    p.set_defaults(handler=_cmd_relation, build=_government_builder)

    p = sub.add_parser("mindist", help="minimum category distances over a corpus")
    p.add_argument("file", nargs="?", help="tree file (defaults to the bundled corpus)")
    p.add_argument("--order", help="comma-separated category order")
    p.add_argument("--i", type=int, default=None, help="also test the nested band pattern starting here")
    add_format(p)
    p.set_defaults(handler=_cmd_mindist)

    p = sub.add_parser("complexity", help="root heights against a bound")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=12)
    add_format(p)
    p.set_defaults(handler=_cmd_complexity)

    p = sub.add_parser("features", help="the category feature matrix and its properties")
    p.add_argument("--matrix", help="JSON category distance matrix to compare against")
    p.add_argument("--ap", type=int, default=-1, choices=(-1, 1), help="the free adjective/preposition cell")
    p.set_defaults(handler=_cmd_features)

    p = sub.add_parser("hierarchy", help="accessibility-hierarchy or down-set checks")
    p.add_argument("file", help='JSON document with "kind": "language" or "downset"')
    p.set_defaults(handler=_cmd_hierarchy)

    p = sub.add_parser("randtest", help="seeded random (or exhaustive) theorem sweeps")
    p.add_argument("--seed", type=int, help="seed of the random trees; needed without --exhaustive-leaves, ignored with it")
    p.add_argument("--trees", type=int, help="random trees to draw (default 1000)")
    p.add_argument("--max-leaves", type=int, help="leaves per random tree, at most (default 10)")
    p.add_argument("--arity", help="random splits: 'binary' or 'mixed:K' (default mixed:4)")
    p.add_argument("--nodes", choices=("leaves", "all"), default="leaves")
    p.add_argument("--exhaustive-leaves", type=int, default=None,
                   help="sweep all binary shapes up to this many leaves instead of sampling;"
                   " --trees, --max-leaves and --arity are then refused")
    p.add_argument("--counterexamples", help="write disagreements to this JSON file")
    p.set_defaults(handler=_cmd_randtest)

    return parser


@cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # The top-level parser and each subcommand's by name, built on the first
    # run(), not at import.  Sharing them is safe: a parse returns a new namespace.
    parser = build_parser()
    return parser, next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parser()
    if argv and argv[0] in commands:  # one pass over argv, by the subcommand's own parser
        args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error("unrecognized arguments: %s" % " ".join(extras))
    else:  # no argv, -h or an unknown command
        args = parser.parse_args(argv)
    try:
        code, text = args.handler(args)
        # The one write to stdout, after the analysis: a failed run writes
        # nothing.  A text stream encodes all of the text before it writes a byte.
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            raise UltratreeError(f"stdout: {exc}") from None
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")  # text + "\n" would copy the whole output
        return code
    except BrokenPipeError:  # a closed stdout, not bad input; main() ends the run
        raise
    except MemoryError:
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (UltratreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    # The Python docs' "Note on SIGPIPE": flush inside the try, then point
    # stdout at devnull so the flush at exit cannot fail a second time.
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_CLOSED_STDOUT)
    sys.exit(code)
