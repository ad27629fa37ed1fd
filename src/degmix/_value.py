"""The immutable record base of degmix's value types.

A subclass names its fields in ``_fields`` and sets them in ``__init__``
with ``_set``.  ``Value`` compares and hashes records of the same class by
their fields, prints them as ``Name(field=value, ...)``, and refuses
assignment with an AttributeError: what a frozen dataclass does, without
importing ``dataclasses`` (and with it ``inspect``) in every process.
"""

from __future__ import annotations

from typing import Tuple


class Value:
    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Set every field, in ``_fields`` order; for ``__init__`` only."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
