"""Canonical JSON emission for byte-reproducible exports.

Two serializations of equal data must be byte-identical regardless of the
insertion order of mappings, so exports can be diffed and checksummed:

* object keys emitted in sorted order,
* compact separators (no whitespace),
* floats rendered with ``%.17g`` (17 significant digits round-trip exactly
  through a binary64 parse, so export -> import -> export is the identity),
* non-finite floats rejected (JSON has no representation for them).

Arrays keep their given order; order-sensitive data belongs in arrays.

How it emits: one recursive function dispatches on the exact types ``float``,
``str``, ``dict``, ``list``, ``tuple`` and ``int`` first and falls back to
``isinstance`` for ``None``, ``bool`` and subclasses (``numpy.float64``,
``str`` and ``dict`` subclasses). Strings are escaped by the C
``json.encoder.encode_basestring``, the function ``json.dumps(s,
ensure_ascii=False)`` calls, and each object key's ``"key":`` text is encoded
once per call. Every container returns its own ``",".join(...)`` instead of
appending to one list of all the small parts of the document, which keeps
the transient memory of a large export small. The output, and the exception
type raised for nan/inf (``ValueError``), a non-string key or an unsupported
object (``TypeError``), are those of the recursive part-list emitter this
replaced; ``tests/test_canonical.py`` keeps that emitter as its reference.

Documents that repeat one shape many times with only the values changing
(the store's entries, the trial log's steps) are emitted from templates:
``template(obj)`` is the text of ``obj`` as a ``%``-format string, with the
sentinels ``FLOAT``, ``INT`` and ``STR`` as holes for ``%.17g``, ``%d`` and an
already-encoded ``%s``, and every literal ``%`` doubled. It runs the same
emit code as ``dumps``, so ``template(obj) % values`` is ``dumps`` of ``obj``
with the values in its holes, for exact finite floats, exact ints and
encoded strings. The caller guarantees those types; ``dumps`` stays the only
emitter of arbitrary documents.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite float not representable in canonical JSON: {value!r}")
    return "%.17g" % float(value)


class _Hole:
    """A template hole; ``spec`` is its ``%`` conversion."""

    __slots__ = ("spec",)

    def __init__(self, spec: str):
        self.spec = spec


FLOAT = _Hole("%.17g")
INT = _Hole("%d")
STR = _Hole("%s")


class _KeyText(dict):
    """``"key":`` text per object key, encoded on first use."""

    def __init__(self, encode):
        super().__init__()
        self.encode = encode

    def __missing__(self, key):
        if not isinstance(key, str):
            raise TypeError(f"canonical JSON object keys must be strings, got {type(key).__name__}")
        text = self[key] = self.encode(key) + ":"
        return text


def _template_text(s: str) -> str:
    return encode_basestring(s).replace("%", "%%")


def dumps(obj) -> str:
    """Serialize nested dict/list/tuple/str/int/float/bool/None canonically."""
    return _emitter(encode_basestring, holes=False)(obj)


def template(obj) -> str:
    """``obj`` as a ``%``-format string with its ``FLOAT``, ``INT`` and
    ``STR`` sentinels as holes and every literal ``%`` doubled."""
    return _emitter(_template_text, holes=True)(obj)


def _emitter(encode, holes: bool):
    key_text = _KeyText(encode)
    isfinite = math.isfinite

    def emit(o) -> str:
        t = type(o)
        if t is float:
            if isfinite(o):
                return "%.17g" % o
            return format_float(o)  # raises ValueError
        if t is str:
            return encode(o)
        if t is dict:
            return "{" + ",".join([key_text[k] + emit(o[k]) for k in sorted(o)]) + "}"
        if t is list or t is tuple:
            return "[" + ",".join([emit(item) for item in o]) + "]"
        if t is int:
            return str(o)
        # None, bools and subclasses; bool before int, as bool subclasses int
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            return emit(float(o))
        if isinstance(o, str):
            return encode(o)
        if isinstance(o, (list, tuple)):
            return emit(list(o))
        if isinstance(o, dict):
            return emit({k: o[k] for k in o})
        if holes and t is _Hole:
            return o.spec
        raise TypeError(f"type {type(o).__name__} is not serializable to canonical JSON")

    return emit
