"""Mutated documents: the loaders and the certificate raise only clean errors.

Each example takes a valid ``fq-complex/1`` document and its
``fq-coloring/1`` document, applies one mutation to one of them (replace a
value, drop a key or a list item, duplicate a list item) and runs the
loaders, then ``build_certificate`` on whatever loads.  Only ``ValueError``
and ``RuntimeError`` may escape, the two the CLI turns into one ``error:``
line, and every complex-loader error names its format.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from fqsurf.coloring import coloring_from_dict, coloring_to_dict, solve_good_coloring
from fqsurf.lattice import build_certificate
from fqsurf.surface_complex import complex_from_dict, complex_to_dict
from fqsurf.tessellation import build_block_tessellation

_BLOCK = build_block_tessellation(6, 2)
DOCUMENTS = {
    "complex": complex_to_dict(_BLOCK),
    "coloring": coloring_to_dict(solve_good_coloring(_BLOCK)),
}
Q = (2, 3, 2, 3, 2, 3)

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=20) | st.integers(),
    st.floats(),
    st.sampled_from(["", "ccw", "cw", "1", "fq-complex/1", "fq-coloring/1"])
    | st.text(max_size=4),
    st.lists(st.integers(min_value=-1, max_value=12), max_size=3),
    st.dictionaries(st.sampled_from(["id", "type", "edge", "reversed"]),
                    st.integers(min_value=-1, max_value=12), max_size=2),
)


def _paths(node, path=()):
    """Every key path in a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


@st.composite
def mutated(draw):
    """One document name and its document after one mutation."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(DOCUMENTS[name])
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return name, draw(VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kinds = ["replace", "drop"] + (["duplicate"] if isinstance(parent, list) else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "replace":
        parent[key] = draw(VALUES)
    elif kind == "drop":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return name, doc


@given(mutated())
@settings(max_examples=400, deadline=None)
def test_mutated_documents_raise_only_clean_errors(case):
    name, doc = case
    docs = {**DOCUMENTS, name: doc}
    try:
        cx = complex_from_dict(docs["complex"])
    except ValueError as exc:
        assert str(exc).startswith("malformed fq-complex/1 document: "), exc
        return
    try:
        coloring = coloring_from_dict(docs["coloring"])
    except ValueError:
        return
    try:
        build_certificate(cx, coloring, Q)
    except (ValueError, RuntimeError):
        pass
