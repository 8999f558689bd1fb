"""Tests for chart documents and the JSON artifact writer.

Oracles: `json.dumps(obj, indent=1, sort_keys=True) + "\\n"`, the
encoding every artifact had before `charts.json_bytes` wrote it in one
pass (oracles/json_artifact.py), compared byte for byte on random
nested values and on every committed golden JSON file; and the
invariants `ChartDocument` states in its docstring, each broken once.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chromadefect.charts import ChartDocument, json_bytes
from oracles.json_artifact import json_bytes as stdlib_json_bytes

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_JSON = sorted(GOLDEN_DIR.glob("**/*.json"))

# quotes, backslashes, control characters, non-ASCII and astral characters
# beside whatever else Hypothesis draws
CHARACTERS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\U0001f600"]),
    st.characters(),
)
TEXT = st.text(CHARACTERS, max_size=12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    TEXT,
)
# int keys from 10 up, so that sorting them as strings ("100" < "11")
# would put them in another order
INT_KEYS = st.integers(min_value=10, max_value=10**6)


def containers(children, min_size=0, max_size=5):
    sizes = {"min_size": min_size, "max_size": max_size}
    return st.one_of(
        st.lists(children, **sizes),
        st.lists(children, **sizes).map(tuple),
        st.dictionaries(TEXT, children, **sizes),
        st.dictionaries(INT_KEYS, children, **sizes),
    )


VALUES = st.recursive(SCALARS, containers, max_leaves=20)
# four nonempty containers around a scalar: depth at least 4
DEEP = SCALARS
for _ in range(4):
    DEEP = containers(DEEP, min_size=1, max_size=2)


class TestJsonBytes:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(VALUES, DEEP))
    def test_matches_the_stdlib(self, value):
        assert json_bytes(value) == stdlib_json_bytes(value)

    @pytest.mark.parametrize(
        "path", GOLDEN_JSON, ids=[str(p.relative_to(GOLDEN_DIR)) for p in GOLDEN_JSON]
    )
    def test_golden_files_round_trip(self, path):
        data = path.read_bytes()
        assert json_bytes(json.loads(data)) == stdlib_json_bytes(json.loads(data)) == data

    @pytest.mark.parametrize(
        "value, name",
        [
            (1.5, "float"),
            ({"cells": [1, 2.0]}, "float"),
            ({1, 2}, "set"),
            ([Fraction(1, 2)], "Fraction"),
            ({True: 1}, "bool key"),
            ({(1, 2): 3}, "tuple key"),
            ({None: 0}, "NoneType key"),
        ],
        ids=["float", "nested-float", "set", "Fraction", "bool-key", "tuple-key", "None-key"],
    )
    def test_other_types_raise(self, value, name):
        # the stdlib would write some of these; no artifact holds them,
        # so the writer refuses them by name
        with pytest.raises(TypeError, match=f"cannot encode a {name}"):
            json_bytes(value)


DOTS = {(0, 0): (1, "1"), (0, 1): (1, "h0"), (1, 0): (2, "")}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"dots": {**DOTS, (2, 0): (0, "")}}, "multiplicity 0"),
        ({"lines": [("h0", (0, 1), (0, 2))]}, "line h0 at (0, 1) has a dangling endpoint"),
        ({"arrows": [(2, (1, 0), (0, 2))]}, "arrow d2 at (1, 0) has a dangling endpoint"),
        ({"arrows": [(2, (1, 0), (0, 1))]}, "arrow d2 at (1, 0) violates the bidegree shift"),
        ({"dots": {**DOTS, (0, 2): (1, "")}, "arrows": [(2, (1, 0), (0, 2))],
          "arrow_rule": "filtration-step"},
         "arrow d2 at (1, 0) violates the bidegree shift"),
        ({"arrow_rule": "stem-step"}, "arrow_rule must be one of"),
        ({"stem_range": (3, 2)}, "axis ranges must be nonempty"),
        ({"fil_range": (1, 0)}, "axis ranges must be nonempty"),
    ],
    ids=["multiplicity", "line-endpoint", "arrow-endpoint", "page-step-shift",
         "filtration-step-shift", "arrow-rule", "stem-range", "fil-range"],
)
def test_invalid_chart_documents_raise(change, message):
    fields = {"title": "t", "dots": DOTS, "lines": [("h0", (0, 0), (0, 1))],
              "arrows": [(1, (1, 0), (0, 1))], "stem_range": (0, 2), "fil_range": (0, 2),
              "arrow_rule": "page-step"}
    ChartDocument(**fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        ChartDocument(**{**fields, **change})
