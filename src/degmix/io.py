"""JSON file formats for sequences, forbidden sets, and spectra matrices.

Sequence files: {"kind": "simple", "degrees": [...]},
{"kind": "bipartite", "u": [...], "w": [...]} (u is the primary class for
composition purposes), or {"kind": "directed", "out": [...], "in": [...]}.
Forbidden-set files hold a list of [u, w] index pairs, 1-based on disk.
Spectra files: {"delta": D, "columns": [[...], ...]}.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Union

from .sequences import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DirectedDegreeSequence,
    ForbiddenSet,
    _as_int,
)

if TYPE_CHECKING:  # only ``load_dsm`` needs the spectra module, and imports it
    from .spectra import DegreeSpectraMatrix

AnySequence = Union[DegreeSequence, BipartiteDegreeSequence, DirectedDegreeSequence]

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _expect(data, kind: type, shape: str, ok=None):
    """``data``, unless it is no ``kind`` or, given ``ok``, one of its entries
    fails ``ok``: then a ValueError names the shape and what came instead."""
    if not isinstance(data, kind):
        got = _JSON_TYPES.get(type(data), type(data).__name__)
        raise ValueError("expected %s, got %s" % (shape, got))
    for x in data if ok else ():
        if not ok(x):
            raise ValueError("expected %s, got the entry %s" % (shape, json.dumps(x)))
    return data


def _is_int(x) -> bool:
    """Whether ``_as_int`` takes ``x``; the loaders name an entry it refuses
    in JSON text, where it prints the Python repr (``None`` for null)."""
    try:
        _as_int(x)
    except ValueError:
        return False
    return True


def _list_field(data: dict, name: str, shape: str = "a JSON list of integers",
                ok=_is_int) -> list:
    """``data[name]``, a list whose entries pass ``ok``; a KeyError if it is missing."""
    return _expect(data[name], list, '"%s" as %s' % (name, shape), ok)


def sequence_from_dict(data: dict) -> AnySequence:
    _expect(data, dict, 'a JSON object such as {"kind": "simple", "degrees": [...]}')
    kind = data.get("kind")
    if kind == "simple":
        return DegreeSequence(_list_field(data, "degrees"))
    if kind == "bipartite":
        return BipartiteDegreeSequence(_list_field(data, "u"), _list_field(data, "w"))
    if kind == "directed":
        return DirectedDegreeSequence(_list_field(data, "out"), _list_field(data, "in"))
    raise ValueError("unknown sequence kind: %r" % (kind,))


def sequence_to_dict(seq: AnySequence) -> dict:
    if isinstance(seq, DegreeSequence):
        return {"kind": "simple", "degrees": list(seq.degrees)}
    if isinstance(seq, BipartiteDegreeSequence):
        return {"kind": "bipartite", "u": list(seq.u_degrees), "w": list(seq.w_degrees)}
    if isinstance(seq, DirectedDegreeSequence):
        return {
            "kind": "directed",
            "out": list(seq.out_degrees),
            "in": list(seq.in_degrees),
        }
    raise TypeError("not a degree sequence: %r" % (seq,))


def load_sequence(path: str) -> AnySequence:
    with open(path) as fh:
        return sequence_from_dict(json.load(fh))


def load_forbidden(path: str) -> ForbiddenSet:
    """Forbidden pairs are 1-based in files, 0-based in memory."""
    with open(path) as fh:
        data = json.load(fh)
    _expect(data, list, "a JSON list of [u, w] pairs", lambda pair: isinstance(pair, list)
            and len(pair) == 2 and all(map(_is_int, pair)))
    return ForbiddenSet(data).shifted(-1, -1)


def forbidden_to_list(f: ForbiddenSet) -> list:
    return sorted([u + 1, w + 1] for u, w in f.pairs)


def load_dsm(path: str) -> DegreeSpectraMatrix:
    from .spectra import DegreeSpectraMatrix

    with open(path) as fh:
        data = json.load(fh)
    _expect(data, dict, 'a JSON object such as {"delta": D, "columns": [[...], ...]}')
    columns = _list_field(data, "columns", "a JSON list of integer lists",
                          lambda column: isinstance(column, list) and all(map(_is_int, column)))
    delta = data["delta"]
    if not _is_int(delta):
        raise ValueError('expected "delta" as an integer, got %s' % json.dumps(delta))
    return DegreeSpectraMatrix(delta, columns)

