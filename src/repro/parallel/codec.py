"""Lossless JSON codec for vertex labels, witnesses and results.

The :class:`~repro.store.VerdictStore` persists verdicts and
certificates as JSON, and the wire protocol ships them the same way.  Plain ``json.dumps`` can only express a subset of
the vertex types the library actually produces — the generators label
vertices with tuples (``disjoint_union_pair`` tags sides as ``(0, v)``,
``perturb_enlarge_edge`` mints ``("fresh", n)``) and JSON would either
reject them or silently turn them into lists, which do not compare equal
to the original tuples on reload.  This module provides a tagged,
reversible encoding instead:

======== =====================  =========================
tag      Python type            encoding
======== =====================  =========================
``i``    ``int``                ``["i", n]``
``b``    ``bool``               ``["b", true/false]``
``s``    ``str``                ``["s", "text"]``
``n``    ``None``               ``["n"]``
``F``    ``float``              ``["F", x]``
``t``    ``tuple``              ``["t", [items…]]`` (recursive)
``f``    ``frozenset``          ``["f", [items…]]`` (sorted, recursive)
======== =====================  =========================

``bool`` is tagged before ``int`` (it is an ``int`` subclass), tuples
and frozensets recurse, and frozenset members are sorted by the
library's canonical :func:`repro._util.vertex_key` so the encoding is
deterministic.  Anything outside the table raises :class:`CodecError` —
callers that used to skip non-JSON entries can keep doing so, but for
every vertex type the library itself constructs the round trip is exact
(``decode_value(encode_value(v)) == v`` *and* types match).
"""

from __future__ import annotations

from repro._util import vertex_key


class CodecError(TypeError):
    """A value outside the codec's (deliberately small) type table."""


def encode_value(value) -> list:
    """Encode one vertex label (or nested component) as tagged JSON."""
    if isinstance(value, bool):  # must precede int: bool ⊂ int
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, str):
        return ["s", value]
    if value is None:
        return ["n"]
    if isinstance(value, float):
        return ["F", value]
    if isinstance(value, tuple):
        return ["t", [encode_value(item) for item in value]]
    if isinstance(value, frozenset):
        ordered = sorted(value, key=vertex_key)
        return ["f", [encode_value(item) for item in ordered]]
    raise CodecError(
        f"cannot losslessly encode {type(value).__name__} value {value!r}"
    )


def decode_value(encoded):
    """Invert :func:`encode_value` (types included)."""
    if not isinstance(encoded, list) or not encoded:
        raise CodecError(f"malformed codec payload: {encoded!r}")
    tag = encoded[0]
    if tag == "n":
        return None
    if len(encoded) != 2:
        raise CodecError(f"malformed codec payload: {encoded!r}")
    body = encoded[1]
    if tag == "b":
        return bool(body)
    if tag == "i":
        return int(body)
    if tag == "s":
        return str(body)
    if tag == "F":
        return float(body)
    if tag == "t":
        return tuple(decode_value(item) for item in body)
    if tag == "f":
        return frozenset(decode_value(item) for item in body)
    raise CodecError(f"unknown codec tag {tag!r} in {encoded!r}")


def encode_vertex_set(vertices: frozenset | None) -> list | None:
    """A witness/edge as a deterministic list of encoded vertices."""
    if vertices is None:
        return None
    return [encode_value(v) for v in sorted(vertices, key=vertex_key)]


def decode_vertex_set(encoded: list | None) -> frozenset | None:
    """Invert :func:`encode_vertex_set`."""
    if encoded is None:
        return None
    return frozenset(decode_value(item) for item in encoded)
