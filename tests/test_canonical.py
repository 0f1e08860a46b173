import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from suitgraph import canonical
from suitgraph.canonical import dumps as canonical_dumps
from suitgraph.canonical import format_float


def test_sorted_keys_compact():
    assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_key_order_independence():
    assert canonical_dumps({"a": 1, "b": 2}) == canonical_dumps({"b": 2, "a": 1})


def test_scalars():
    assert canonical_dumps(None) == "null"
    assert canonical_dumps(True) == "true"
    assert canonical_dumps(False) == "false"
    assert canonical_dumps(7) == "7"
    assert canonical_dumps("x\"y") == '"x\\"y"'
    assert canonical_dumps([1, [2, 3]]) == "[1,[2,3]]"


def test_float_17_significant_digits():
    # 0.6 is not representable; the emitted digits round-trip to the same bits
    assert format_float(0.6) == "0.59999999999999998"
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"


@pytest.mark.parametrize("value", [0.1, 1 / 3, 1e-300, 1e300, 123456789.123456, 2**-52])
def test_float_round_trip_exact(value):
    assert json.loads(format_float(value)) == value


def test_nonfinite_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            canonical_dumps(bad)


def test_bad_types_rejected():
    with pytest.raises(TypeError):
        canonical_dumps({1: "non-string key"})
    with pytest.raises(TypeError):
        canonical_dumps(object())


def test_nested_document_parses():
    doc = {"z": [1.5, {"k": None}], "a": {"b": True}}
    assert json.loads(canonical_dumps(doc)) == doc


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_round_trip_property(value):
    assert json.loads(format_float(value)) == value


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.integers(min_value=-10**9, max_value=10**9),
            st.floats(allow_nan=False, allow_infinity=False),
            st.booleans(),
            st.none(),
            st.text(max_size=12),
        ),
        max_size=8,
    )
)
def test_document_round_trip_property(doc):
    assert json.loads(canonical_dumps(doc)) == doc


# -- equivalence with the recursive part-list emitter ---------------------------


def reference_dumps(obj) -> str:
    """The emitter ``canonical.dumps`` replaced, kept as the byte reference."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    # bool first: bool is a subclass of int
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float not representable in canonical JSON: {obj!r}")
        parts.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON object keys must be strings, got {type(key).__name__}")
            if i:
                parts.append(",")
            parts.append(json.dumps(key, ensure_ascii=False))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    else:
        raise TypeError(f"type {type(obj).__name__} is not serializable to canonical JSON")


class Name(str):
    pass


class Record(dict):
    pass


class Row(list):
    pass


# non-ASCII, control characters, JSON escapes, line separators, lone surrogates
SPECIAL_CHARS = ["\x00", "\x08", "\x1f", "\x7f", '"', "\\", "/", " ", "é", "\U0001f600",
                 "\ud800", "\udfff"]
_texts = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL_CHARS)), max_size=8)
_strings = st.one_of(_texts, _texts.map(Name))
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 2.0**53 + 1, 1.7976931348623157e308]),
)
_ints = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200),
                  st.integers(min_value=-(2**200), max_value=-(2**64)))
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _floats.map(np.float64), _strings)


def _containers(values, keys):
    items = st.lists(values, max_size=5)
    mapping = st.dictionaries(keys, values, max_size=5)
    return st.one_of(items, items.map(tuple), items.map(Row), mapping, mapping.map(Record))


documents = st.recursive(_scalars, lambda inner: _containers(inner, _strings), max_leaves=40)

# the same documents with values and keys the format cannot hold mixed in
_bad_scalars = st.sampled_from([math.nan, -math.inf, math.inf, np.float64("nan"), object(), b"x",
                                {1, 2}, np.int64(3), np.bool_(True)])
_bad_keys = st.one_of(_strings, st.sampled_from([1, None, 2.5, ("a",), True]))
bad_documents = st.recursive(st.one_of(_scalars, _bad_scalars),
                             lambda inner: _containers(inner, _bad_keys), max_leaves=20)


def outcome(dumps, doc):
    try:
        return ("text", dumps(doc))
    except (TypeError, ValueError) as exc:
        return ("error", type(exc))


@settings(max_examples=200)
@given(documents)
@example({"\ud800k": ["\udfff", "\x00\x1f", "é\U0001f600 "], Name("n"): Name("v")})
@example([-0.0, 5e-324, 1e16, 2**64, -(2**64) - 1, 10**40, (1, (2.5,)), True, False, None])
@example(Record({"b": np.float64(0.1), "a": Record(z=np.float64(-0.0))}))
def test_dumps_matches_reference_emitter(doc):
    assert canonical_dumps(doc) == reference_dumps(doc)


@settings(max_examples=200)
@given(bad_documents)
@example({"a": [1, {"b": math.nan}]})
@example([math.inf])
@example({1: "non-string key"})
@example({"a": 1, None: 2})
@example(Record({("t",): 1}))
@example([object()])
def test_dumps_raises_like_reference_emitter(doc):
    assert outcome(canonical_dumps, doc) == outcome(reference_dumps, doc)


# -- templates --------------------------------------------------------------------


class Filled:
    """A template hole and the value that fills it."""

    def __init__(self, hole, value):
        self.hole = hole
        self.value = value


def _replace(obj, leaf):
    if isinstance(obj, Filled):
        return leaf(obj)
    if isinstance(obj, dict):
        return type(obj)({k: _replace(v, leaf) for k, v in obj.items()})
    if isinstance(obj, (list, tuple)):
        return type(obj)(_replace(v, leaf) for v in obj)
    return obj


def _holes_in_emit_order(obj):
    if isinstance(obj, Filled):
        yield obj
    elif isinstance(obj, dict):
        for k in sorted(obj):
            yield from _holes_in_emit_order(obj[k])
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _holes_in_emit_order(v)


_filled = st.one_of(
    st.builds(Filled, st.just(canonical.FLOAT), _floats),
    st.builds(Filled, st.just(canonical.INT), _ints),
    st.builds(Filled, st.just(canonical.STR), _strings),
)
_PERCENT = st.sampled_from(["%", "%s", "%%", "%d", "%.17g", "%(x)s"])
_template_strings = st.one_of(_strings, st.lists(st.one_of(_texts, _PERCENT), max_size=3).map("".join))
template_documents = st.recursive(st.one_of(_scalars, _template_strings, _filled),
                                  lambda inner: _containers(inner, _template_strings), max_leaves=30)


@settings(max_examples=200)
@given(template_documents)
@example({"%s": Filled(canonical.STR, "%d"), "%%": [Filled(canonical.FLOAT, -0.0), "100%"]})
@example([Filled(canonical.INT, 2**70), Filled(canonical.INT, -3), Filled(canonical.FLOAT, 5e-324)])
@example(Filled(canonical.STR, '"\\\ud800%'))
def test_template_filled_equals_dumps(doc):
    template = canonical.template(_replace(doc, lambda f: f.hole))
    values = tuple(canonical.dumps(f.value) if f.hole is canonical.STR else f.value
                   for f in _holes_in_emit_order(doc))
    assert template % values == canonical_dumps(_replace(doc, lambda f: f.value))


def test_template_holes_are_not_json():
    assert canonical.template({"a": canonical.FLOAT, "b%": [canonical.INT, canonical.STR]}) == '{"a":%.17g,"b%%":[%d,%s]}'
    with pytest.raises(TypeError):
        canonical_dumps([canonical.FLOAT])
