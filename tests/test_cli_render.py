"""The CLI's report renderer and input readers against the line-splicing
versions they replaced, kept here as oracles: the same bytes for every
report-shaped value, the same errors and messages for every input."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pachner33 import cli

# ---------------------------------------------------------------------------
# Oracles: the renderer that built each nested value's lines as a sub-list
# and spliced it into its parent's, and the readers as they were.


def _fmt_oracle(x) -> str:
    if not np.isfinite(x):
        raise ValueError("non-finite number in report")
    return f"{float(x):.17g}"


def _render_oracle(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_oracle(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_oracle(obj.real)}, {_fmt_oracle(obj.imag)}]"
    raise TypeError(f"cannot render {type(obj).__name__}")


def _is_scalar(obj) -> bool:
    return not isinstance(obj, (dict, list, tuple))


def _lines_oracle(obj, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return ["{}"]
        if len(obj) <= 6 and all(_is_scalar(v) for v in obj.values()):
            body = ", ".join(
                f"{json.dumps(str(k))}: {_render_oracle(v)}" for k, v in sorted(obj.items())
            )
            return ["{" + body + "}"]
        out = ["{"]
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        for i, (k, v) in enumerate(items):
            sub = _lines_oracle(v, indent + 1)
            comma = "," if i + 1 < len(items) else ""
            out.append(f"{pad}  {json.dumps(str(k))}: {sub[0]}")
            out.extend(sub[1:])
            out[-1] += comma
        out.append(pad + "}")
        return out
    if isinstance(obj, (list, tuple)):
        obj = list(obj)
        if len(obj) <= 8 and all(_is_scalar(v) for v in obj):
            return ["[" + ", ".join(_render_oracle(v) for v in obj) + "]"]
        out = ["["]
        for i, v in enumerate(obj):
            sub = _lines_oracle(v, indent + 1)
            comma = "," if i + 1 < len(obj) else ""
            out.append(f"{pad}  {sub[0]}")
            out.extend(sub[1:])
            out[-1] += comma
        out.append(pad + "]")
        return out
    return [_render_oracle(obj)]


def dumps_oracle(obj) -> str:
    return "\n".join(_lines_oracle(obj, 0)) + "\n"


def members_oracle(pairs: list) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def parse_cell_oracle(key: str) -> tuple[int, ...]:
    cell = sorted({int(p) for p in key.split(",") if p.isdecimal()})
    if not key or ",".join(str(v) for v in cell) != key:
        raise ValueError(f"cell key {key!r} is not canonical, as '1,2,3' is")
    return tuple(cell)


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return "value", f(*args)
    except Exception as e:  # noqa: BLE001  (the comparison is the point)
        return type(e), str(e)


# ---------------------------------------------------------------------------
# Report-shaped values.

finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    finite,
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324, 1.7976931348623157e308]),
    finite.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline", "Grassmann–Gaussian", "β, γ", "ζ\U0001d11e"]),
)
keys = st.one_of(st.text(max_size=6), st.sampled_from(["1,2,3", "a\"b", "é", "command", "seed"]))
reports = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.dictionaries(keys, inner, max_size=9),
        st.lists(inner, max_size=11),
        st.lists(inner, max_size=11).map(tuple),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(reports)
@example({"a": 1.0, "b": [1, 2], "c": {}})
@example({k: -0.0 for k in "abcdef"})  # six scalars: one line
@example({k: 1e-300 for k in "abcdefg"})  # seven: one member a line
@example([1e300] * 8)  # eight scalars: one line
@example([np.float64(0.1)] * 9)  # nine: one item a line
@example({"z": [{"y": [complex(1, -0.0)] * 9}], "ü": (None, True, np.int64(-3))})
def test_dumps_matches_the_oracle(value):
    assert cli.dumps(value) == dumps_oracle(value)


NOT_FINITE = [math.nan, math.inf, -math.inf, np.float64("nan"), complex(1, math.inf), np.complex128(math.nan)]


@pytest.mark.parametrize("bad", NOT_FINITE)
@pytest.mark.parametrize("where", ["scalar", "inline", "nested"])
def test_dumps_refuses_a_value_that_is_not_finite(bad, where):
    value = {"scalar": bad, "inline": {"x": bad}, "nested": {"runs": [{"loops": [0.0] * 9 + [bad]}]}}[where]
    for render in (cli.dumps, dumps_oracle):
        with pytest.raises(ValueError, match="non-finite number in report"):
            render(value)


def test_dumps_refuses_what_it_cannot_render():
    for render in (cli.dumps, dumps_oracle):
        with pytest.raises(TypeError, match="cannot render ndarray"):
            render({"matrix": np.zeros(2)})


# ---------------------------------------------------------------------------
# Readers.

pair_lists = st.lists(st.tuples(st.sampled_from(["1,2,3", "1,2,4", "a", "é", ""]), st.integers()), max_size=8)


@given(pair_lists)
@example([("1,2,3", 1), ("1,2,4", 2), ("1,2,3", 3)])
def test_members_matches_the_oracle(pairs):
    mine, ref = outcome(cli._members, pairs), outcome(members_oracle, pairs)
    assert mine == ref
    if mine[0] == "value":
        assert list(mine[1].items()) == list(ref[1].items())


cell_keys = st.one_of(
    st.text(alphabet="0123456789,+- ١", max_size=10),
    st.lists(st.integers(0, 12), max_size=5).map(lambda vs: ",".join(map(str, vs))),
)


@given(cell_keys)
@example("1,2,3")
@example("01,2,3")
@example("1, 2,3")
@example("3,2")
@example("1,1")
@example("")
@example("١,2")
def test_parse_cell_matches_the_oracle(key):
    assert outcome(cli._parse_cell, key) == outcome(parse_cell_oracle, key)
