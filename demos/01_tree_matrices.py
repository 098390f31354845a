"""From bracketed phrase trees to ultrametric distance matrices.

Branching height disambiguates structure that flat category strings cannot:
"the man ate a dog" has d(the, man) = 1 when the determiner attaches low,
but 2 when the noun phrase is built flat.  This walk-through builds every
4-leaf branching shape for "Alf must jump high" and prints its matrix.
"""

from ultratree import check_metric, check_ultrametric, leaf_matrix, parse_tree

SHAPES = {
    "balanced": "(S (X (W A) (W M)) (Y (W J) (W H)))",
    "right chain": "(S (W A) (X (W M) (Y (W J) (W H))))",
    "right then left": "(S (W A) (X (Y (W M) (W J)) (W H)))",
    "left then right": "(S (X (W A) (Y (W M) (W J))) (W H))",
    "left chain": "(S (X (Y (W A) (W M)) (W J)) (W H))",
    "3-ary low": "(S (X (W A) (W M) (W J)) (W H))",
    "3-ary high": "(S (W A) (X (W M) (W J) (W H)))",
    "flat 4-ary": "(S (W A) (W M) (W J) (W H))",
}


def show(name, text):
    tree = parse_tree(text)
    matrix = leaf_matrix(tree)
    print(f"--- {name}: {text}")
    print(f"root height {tree.height(tree.root.id)}")
    print(matrix.to_csv(), end="")
    metric = check_metric(matrix)
    ultra = check_ultrametric(matrix)
    print(f"measure axioms: {'ok' if metric.ok else metric.to_json_list()}")
    print(f"ultrametric:    {'ok' if ultra.ok else ultra.to_json_list()}")
    print()


if __name__ == "__main__":
    print(__doc__)

    # two attachments of the same sentence disagree about d(the, man)
    low = parse_tree("(S (NP (D the) (N man)) (VP (V ate) (NP (D a) (N dog))))")
    flat = parse_tree("(S (D the) (N man) (VP (V ate) (NP (D a) (N dog))))")
    print("low attachment  d(the, man) =", leaf_matrix(low).entry("the", "man"))
    print("flat attachment d(the, man) =", leaf_matrix(flat).entry("the", "man"))
    print()

    for name, text in SHAPES.items():
        show(name, text)
