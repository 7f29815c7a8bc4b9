"""The CLI's CSV and JSON writers against the rules they replace, byte for byte.

``cli._json_doc`` must write what ``json.dumps(doc, indent=2, sort_keys=True,
default=cli._complex_pair) + "\\n"`` writes, and ``cli._csv`` what the rule
``",".join(format(float(v), ".17g") for v in row)`` writes per row; both
refuse a NaN or an infinity with ``NonFiniteOutput``.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dswave import cli  # noqa: E402

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456789.0]
EDGE_TEXT = ['', '"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é", "  ", "\U0001f600", '"quoted" \\ path']

FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
TEXT = st.one_of(st.sampled_from(EDGE_TEXT), st.text(max_size=12))
COMPLEX = st.builds(complex, FLOATS, FLOATS)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    FLOATS,
    TEXT,
    COMPLEX,
    FLOATS.map(np.float64),
    COMPLEX.map(np.complex128),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(FLOATS, max_size=6),
        st.dictionaries(TEXT, children, max_size=5),
    )


DOCS = st.dictionaries(TEXT, st.recursive(SCALARS, _containers, max_leaves=12), max_size=4)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=cli._complex_pair) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert cli._json_doc(doc) == _dumps(doc)


def test_json_writer_on_fixed_documents():
    for doc in ({}, {"a": []}, {"a": {}}, {"a": ()}, {"rows": [[1.5, -0.0], [], [2, True, None]]},
                {"c": 1 - 2j, "z": np.complex128(0.5 + 1e-300j), "f": np.float64(5e-324)}):
        assert cli._json_doc(doc) == _dumps(doc)


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), object(), {1, 2}, b"bytes"])
def test_json_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        _dumps({"x": [value]})
    with pytest.raises(TypeError):
        cli._json_doc({"x": [value]})


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"a": math.nan}, "a"),
        ({"a": {"b": [1.0, 2.0, -math.inf]}}, "a.b[2]"),
        ({"table": {"rows": [[0.1, 0.2], [0.3, math.inf]]}}, "table.rows[1][1]"),
        ({"a": [1, {"z": complex(math.nan, 0.0)}]}, "a[1].z[0]"),
        ({"a": np.float64(math.inf)}, "a"),
    ],
)
def test_json_writer_refuses_non_finite_values_naming_the_key(doc, key):
    with pytest.raises(cli.NonFiniteOutput, match=rf"at output key '{re.escape(key)}'$"):
        cli._json_doc(doc)


CELLS = st.one_of(
    FLOATS,
    st.integers(min_value=-(10**300), max_value=10**300),
    st.booleans(),
    FLOATS.map(np.float64),
    FLOATS.filter(lambda x: abs(x) < 3e38).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


@st.composite
def tables(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), min_size=0, max_size=6))
    if draw(st.booleans()):
        rows = [tuple(row) for row in rows]
    return [f"c{k}" for k in range(width)], rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tables())
def test_csv_writer_matches_the_format_rule(table):
    header, rows = table
    lines = [",".join(header)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    assert cli._csv(header, rows) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_csv_writer_refuses_non_finite_values_naming_column_and_row(bad):
    header = ["r", "re_u", "im_u"]
    with pytest.raises(cli.NonFiniteOutput) as info:
        cli._csv(header, [[0.25, 1.0, 2.0], [0.5, 3.0, bad]])
    assert str(info.value) == f"non-finite value {float(bad)!r} in output column 'im_u' at r=0.5 (row 2)"
    with pytest.raises(cli.NonFiniteOutput, match=r"in output column 'r' at row 1$"):
        cli._csv(header, [[bad, 1.0, 2.0]])
