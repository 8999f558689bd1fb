"""Tests for chart documents, the SVG writer and the JSON artifact writer.

Oracles: `json.dumps(obj, indent=1, sort_keys=True) + "\\n"`, the
encoding every artifact had before `charts.json_bytes` wrote it in one
pass (oracles/json_artifact.py), compared byte for byte on random
nested values and on every committed golden JSON file; the SVG writer
before `render_chart` drew each element kind with one helper
(oracles/svg_chart.py), compared byte for byte on random chart
documents; and the invariants `chart_document` checks, as its
docstring states them, each broken once, and once through a chart
builder.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chromadefect.charts import ARROW_RULES, chart_document, json_bytes, render_chart
from chromadefect.may import chart_from_may_page
from oracles.json_artifact import json_bytes as stdlib_json_bytes
from oracles.svg_chart import render_chart as reference_render_chart

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


# titles, labels and line names, with every character the SVG escapes
SVG_TEXT = st.text(st.sampled_from('&<>"ah0 é'), max_size=6)


@st.composite
def chart_documents(draw):
    """A valid chart document: negative stems and filtrations, up to 48
    stems (so the tick step is 2 past 40), multiplicities 1-7, arrows
    d1-d5 under either rule, each endpoint made a dot."""
    rule = draw(st.sampled_from(ARROW_RULES))
    s_lo = draw(st.integers(-12, 4))
    s_hi = s_lo + draw(st.integers(0, 48))
    f_lo = draw(st.integers(-3, 3))
    f_hi = f_lo + draw(st.integers(0, 10))
    spot = st.tuples(st.integers(s_lo, s_hi), st.integers(f_lo, f_hi))
    dot = st.tuples(st.integers(1, 7), SVG_TEXT)
    dots = draw(st.dictionaries(spot, dot, max_size=12))
    arrows = []
    for r, src in draw(st.lists(st.tuples(st.integers(1, 5), spot), max_size=6)):
        tgt = (src[0] - 1, src[1] + (1 if rule == "filtration-step" else r))
        for key in (src, tgt):
            if key not in dots:
                dots[key] = draw(dot)
        arrows.append((r, src, tgt))
    lines = []
    if dots:
        ends = st.sampled_from(sorted(dots))
        lines = draw(st.lists(st.tuples(SVG_TEXT, ends, ends), max_size=6))
    title = draw(SVG_TEXT)
    return chart_document(title, dots, lines, arrows, (s_lo, s_hi), (f_lo, f_hi), rule)


class TestRenderChart:
    @settings(max_examples=200, deadline=None)
    @given(chart_documents())
    def test_matches_the_reference(self, doc):
        assert render_chart(doc) == reference_render_chart(doc)

    def test_every_branch_matches_the_reference(self):
        # 45 stems from -3, every multiplicity, coloured and default
        # arrows under each rule, and text that needs every escape
        dots = {(s, 0): (s % 7 + 1, '&<>"' * (s % 2)) for s in range(-3, 42)}
        for rule, targets in [("page-step", range(1, 6)), ("filtration-step", [1] * 5)]:
            dots.update({(s - 1, f): (2, "t") for s, f in zip(range(1, 6), targets)})
            arrows = [(r, (r, 0), (r - 1, f)) for r, f in zip(range(1, 6), targets)]
            doc = chart_document('a & <b> "c"', dots, [('h"<1>&', (0, 0), (1, 0))], arrows,
                                 (-3, 42), (-1, 6), rule)
            assert "x7</text>" in render_chart(doc).decode()
            assert render_chart(doc) == reference_render_chart(doc)


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
    chart_document(**fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        chart_document(**{**fields, **change})


def test_builder_refuses_a_dangling_arrow():
    # a May page whose differential leaves (1, 0), a cell with no
    # classes: chart_from_may_page passes the chart through
    # chart_document, which refuses it before anything is drawn
    page = {"r": 1, "n": 1, "p": 2, "stem_cap": 2, "s_cap": 2,
            "classes": {(0, 0): [(0,)], (0, 1): [(1,)], (1, 0): []},
            "differential": {(1, 0): [[1]]}}
    with pytest.raises(ValueError, match=re.escape("arrow d1 at (1, 0) has a dangling endpoint")):
        chart_from_may_page(page)
