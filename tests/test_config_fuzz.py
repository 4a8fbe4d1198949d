"""Fuzz test of ``load_config``: every document loads or names its bad field.

Documents are drawn in the schema's shape (catalog entries with every
optional key, inline algebras given by structure strings, constant rows in
both wire forms, frames and J matrices; a drawn scalar or constant row may
still be invalid) and then mangled at random, up to three times: a value
anywhere in the tree is replaced by arbitrary JSON, a key or list item is
deleted, or one is added.  Each must either load or raise :class:`ConfigError` whose message
opens with a field path rooted at a top-level key, or names the unknown
top-level key; any other exception fails the test.
"""

from __future__ import annotations

import copy
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from kuranishi.config import AnalysisConfig, ConfigError, load_config

TOP_LEVEL = (
    "schema_version",
    "catalog",
    "lieAlgebra",
    "complexStructure",
    "bundleRank",
    "truncationOrder",
    "curvature",
    "exampleReadingFlags",
)
CATALOG = ("example1", "example2", "iwasawa", "torus", "n3", "n8", "n9")
MI = [0, -1]
STANDARD_FRAME = [[1, MI, 0, 0, 0, 0], [0, 0, 1, MI, 0, 0], [0, 0, 0, 0, 1, MI]]
J_PLANE = [[0, -1], [1, 0]]

#: a field path (``lieAlgebra.constants[2][0]``) and a colon
PATH = re.compile(r"(?P<key>\w+)(\.\w*|\[\d+\])*: ")

keys = st.sampled_from(TOP_LEVEL + ("dimension", "constants", "frame", "jMatrix"))
keys |= st.text("abxyz_", max_size=5)
scalars = st.one_of(
    st.integers(-3, 8),
    st.sampled_from(["1/2", "-2/3", "0", "1/0", "x", "", "0.5", "1e3"]),
    st.lists(st.integers(-2, 2), min_size=2, max_size=2),
)
json_values = st.recursive(
    st.none() | st.booleans() | scalars | st.text("(),+0123456789", max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=3),
    max_leaves=10,
)


def _constant_row(draw: st.DrawFn, dim: int) -> list:
    i, j, k = (draw(st.integers(1, dim)) for _ in range(3))
    if draw(st.booleans()):
        return [i, j, k, draw(scalars)]
    return [i, j, k, draw(st.integers(-2, 2)), 2, draw(st.integers(-2, 2)), 3]


@st.composite
def schema_documents(draw: st.DrawFn) -> dict:
    if draw(st.booleans()):
        name = draw(st.sampled_from(CATALOG))
        doc: dict = {"catalog": name}
        if name == "example2" and draw(st.booleans()):
            doc["exampleReadingFlags"] = {
                "example2": draw(st.sampled_from(["corrected", "literal"]))
            }
    elif draw(st.booleans()):
        doc = {
            "lieAlgebra": draw(
                st.sampled_from(["(0,0,0,0,0,12)", "(0,0,0,0,0,12+34)", "(0,0,0,0,0,0)"])
            ),
            "complexStructure": {"frame": copy.deepcopy(STANDARD_FRAME)},
        }
    else:
        constants = [_constant_row(draw, 2) for _ in range(draw(st.integers(0, 2)))]
        structure = draw(st.sampled_from([{"frame": [[1, MI]]}, {"jMatrix": J_PLANE}]))
        doc = {
            "lieAlgebra": {"dimension": 2, "constants": constants},
            "complexStructure": copy.deepcopy(structure),
        }
    if draw(st.booleans()):
        doc["bundleRank"] = draw(st.integers(1, 3))
    if draw(st.booleans()):
        doc["truncationOrder"] = draw(st.integers(2, 9))
    if draw(st.booleans()):
        doc["schema_version"] = 1
    if draw(st.booleans()):
        doc["curvature"] = [
            [1, 1, 1, 1, draw(scalars)] for _ in range(draw(st.integers(1, 2)))
        ]
    return doc


def _slots(node: object) -> list[tuple[object, object]]:
    """Every ``(container, key)`` in the tree below ``node``."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, child in items:
        out.append((node, key))
        out.extend(_slots(child))
    return out


@st.composite
def documents(draw: st.DrawFn) -> dict:
    doc = draw(schema_documents())
    for _ in range(draw(st.integers(0, 3))):
        slots = _slots(doc)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if not slots or action == "add":
            containers = [doc] + [c[k] for c, k in slots if isinstance(c[k], (dict, list))]
            target = draw(st.sampled_from(containers))
            if isinstance(target, dict):
                target[draw(keys)] = draw(json_values)
            else:
                target.append(draw(json_values))
            continue
        container, key = draw(st.sampled_from(slots))
        if action == "replace":
            container[key] = draw(json_values)
        else:
            del container[key]
    return doc


def _assert_loads_or_names_field(doc: dict) -> None:
    try:
        config = load_config(copy.deepcopy(doc))
    except ConfigError as exc:
        message = str(exc)
        match = PATH.match(message)
        if match is not None:
            assert match["key"] in TOP_LEVEL, message
        else:
            unknown = re.match(r"unknown key '(\w*)'", message)
            assert unknown is not None and unknown[1] not in TOP_LEVEL, message
    else:
        assert isinstance(config, AnalysisConfig)


@given(documents())
@settings(max_examples=300, deadline=None)
def test_mangled_documents_load_or_name_their_field(doc: dict) -> None:
    _assert_loads_or_names_field(doc)
