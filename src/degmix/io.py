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
)

if TYPE_CHECKING:  # only ``load_dsm`` needs the spectra module, and imports it
    from .spectra import DegreeSpectraMatrix

AnySequence = Union[DegreeSequence, BipartiteDegreeSequence, DirectedDegreeSequence]

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _expect(data, kind: type, shape: str) -> None:
    """Raise ValueError naming the expected shape unless ``data`` is a ``kind``."""
    if not isinstance(data, kind):
        got = _JSON_TYPES.get(type(data), type(data).__name__)
        raise ValueError("expected %s, got %s" % (shape, got))


def _list_field(data: dict, name: str, shape: str = "a JSON list of integers") -> list:
    """``data[name]``, which must be a list; a KeyError if it is missing."""
    value = data[name]
    _expect(value, list, '"%s" as %s' % (name, shape))
    return value


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
    shape = "a JSON list of [u, w] pairs"
    _expect(data, list, shape)
    for pair in data:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("expected %s, got the entry %s" % (shape, json.dumps(pair)))
    return ForbiddenSet(data).shifted(-1, -1)


def forbidden_to_list(f: ForbiddenSet) -> list:
    return sorted([u + 1, w + 1] for u, w in f.pairs)


def load_dsm(path: str) -> DegreeSpectraMatrix:
    from .spectra import DegreeSpectraMatrix

    with open(path) as fh:
        data = json.load(fh)
    _expect(data, dict, 'a JSON object such as {"delta": D, "columns": [[...], ...]}')
    shape = "a JSON list of integer lists"
    columns = _list_field(data, "columns", shape)
    for column in columns:
        if not isinstance(column, list):
            raise ValueError('expected "columns" as %s, got the entry %s'
                             % (shape, json.dumps(column)))
    return DegreeSpectraMatrix(data["delta"], columns)

