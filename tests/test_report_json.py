"""The one-pass report encoder against a two-pass reference.

simlab._json_text must give the text of json.dumps(plain(v), indent=2,
allow_nan=False), where plain coerces numpy values, tuples and keys into
the types the stdlib encoder takes, for every payload plain accepts, and
raise the same ReportError, naming the same path, for a non-finite float.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runoff.simlab import ReportError, _json_text

INT64 = st.integers(-2**63, 2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FINITE32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-4, 1e16, -1e16, 1.7976931348623157e308])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                              np.float64("-inf")])

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200), FINITE, EDGES,
    st.text(), st.text(st.characters(max_codepoint=0x7F)),  # control characters
    FINITE.map(np.float64), FINITE32.map(np.float32), INT64.map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64), st.booleans().map(np.bool_),
    st.lists(FINITE, max_size=4).map(np.array),
    st.lists(INT64, max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=3).map(np.array),
    FINITE.map(np.array),  # 0-d
)
# Keys that str() makes equal ("1" and 1, "True" and True) keep the last value.
KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.floats(0, 2),
                 st.sampled_from(["0", "1", "True", "False", "0.5"]))


def payloads(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ), max_leaves=25)


def plain(v, where: str = "report"):
    """v as plain strict-JSON types; where names the value in the error a
    non-finite float raises."""
    if isinstance(v, dict):
        return {str(k): plain(x, f"{where}.{k}") for k, x in v.items()}
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [plain(x, f"{where}[{i}]") for i, x in enumerate(v)]
    if isinstance(v, (np.floating, float)):
        f = float(v)
        if not np.isfinite(f):
            raise ReportError(f"{where} is not a finite number ({f})")
        return f
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


def reference(v) -> str:
    return json.dumps(plain(v), indent=2, allow_nan=False)


@settings(max_examples=250, deadline=None)
@given(payloads(SCALARS))
def test_matches_the_old_writer(v):
    assert _json_text(v) == reference(v)


@settings(max_examples=200, deadline=None)
@given(payloads(st.one_of(SCALARS, NON_FINITE,
                          st.lists(st.one_of(FINITE, NON_FINITE), max_size=4).map(np.array))))
def test_non_finite_value_is_the_same_named_error(v):
    try:
        expected = reference(v)
    except ReportError as exc:
        with pytest.raises(ReportError) as got:
            _json_text(v)
        assert str(got.value) == str(exc)
    else:
        assert _json_text(v) == expected


@pytest.mark.parametrize("payload,message", [
    ({"a": {"b": [1.0, math.nan]}}, "report.a.b[1] is not a finite number (nan)"),
    ({"x": np.array([0.0, -np.inf])}, "report.x[1] is not a finite number (-inf)"),
    ({7: ({"y": np.float64("inf")},)}, "report.7[0].y is not a finite number (inf)"),
])
def test_non_finite_value_names_its_path(payload, message):
    with pytest.raises(ReportError, match=re.escape(message)):
        _json_text(payload)


def test_an_empty_where_starts_the_path_at_the_first_key():
    # How the study writer names rows[k].<key> and config.<key>.
    with pytest.raises(ReportError, match=re.escape("rows[1].ratio is not a finite number")):
        _json_text({"config": {"M": 2}, "rows": [{}, {"ratio": math.nan}]}, "")


@pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", 1j])
def test_unknown_type_is_a_type_error(value):
    with pytest.raises(TypeError) as old:
        reference({"a": [value]})
    with pytest.raises(TypeError) as new:
        _json_text({"a": [value]})
    assert str(new.value) == str(old.value)
