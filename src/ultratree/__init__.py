"""Ultrametric distance structure on syntactic phrase trees.

Parse bracketed phrase trees, assign minimum branching heights, build leaf
distance matrices, verify the metric and ultrametric axioms, classify
triangles, compute dominance / c-command / cu-command / government
relations, aggregate minimum lexical-category distances over corpora, and
validate linguistic partial-order hierarchies.

Importing the package loads none of its modules: each exported name is
imported from its module on first use (PEP 562), so a program, the command
line included, pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# The public names of each module.
_MODULE_EXPORTS = {
    "command": (
        "DEFAULT_GOVERNOR_CATEGORIES CuDomain Disagreement GovernorPolicy c_command"
        " c_command_matrix cu_command cu_command_matrix cu_domain first_branching_ancestor"
        " government_matrix governs random_theorem_suite same_height_distance theorem_check"
        " theorem_report"
    ),
    "errors": (
        "BadAritySpec BadMatrixDocument CyclicOrder DuplicateVertex EmptyCorpus EmptyNode"
        " EmptyPolicy HeightMismatch MissingEntry MixedNode NoBranchingAncestor NonSquare"
        " ParseError TooFewLabels UltratreeError UnbalancedBrackets UnknownCategory UnknownLabel"
        " UnknownNode"
    ),
    "features": (
        "DEFAULT_FEATURE_ROWS FeatureTable build_feature_matrix compare_feature_vs_ultrametric"
        " determinant feature_distance matrix_rank pauli_assembly"
    ),
    "hierarchy": (
        "ACCESSIBILITY_HIERARCHY Chain ConstraintViolation PartialOrder Strategy check_document"
        " check_downset check_language check_strategy load_berlin_kay_order"
    ),
    "lexdist": (
        "DEFAULT_CATEGORY_ORDER ComplexityReport check_nested_pattern complexity"
        " load_category_corpus min_distance_matrix tree_category_minima"
    ),
    "matrix": "CategoryDistanceMatrix DistanceMatrix LabeledMatrix RelationMatrix SignMatrix",
    "trees": (
        "Node PhraseTree assign_heights disambiguate dominance_matrix dominates"
        " enumerate_binary_trees is_switched lca parse_tree parse_tree_file parse_tree_lines"
        " random_tree serialize_tree"
    ),
    "ultrametric": (
        "TriangleClass TriangleKind Violation ViolationReport all_triangles check_metric"
        " check_ultrametric classify_triangle leaf_matrix xbar_template"
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An exported name or a submodule, imported on first use and then kept."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _MODULE_EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
