"""Equality, hash and repr for the record and value classes, from the tuple
of field names each class lists in ``_fields``.

``Record`` is a mutable record: ``==`` compares the field tuples of two
records of one class, and is ``NotImplemented`` against anything else; a
record is unhashable.  ``Value`` is a frozen record: its hash is the hash of
its field tuple, and assigning or deleting an attribute raises
``dataclasses.FrozenInstanceError``, so an ``__init__`` sets its fields with
``object.__setattr__``.  No method is generated: each class writes its own
``__init__``, and a class on a hot path may write its own ``__eq__`` and
``__hash__``.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not cls._fields:  # ``Value`` itself
            return
        get = attrgetter(*cls._fields)
        # ``_key(value)`` is the field tuple; one getter returns a bare value.
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other is self:  # as the field tuples would: each field is itself
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._key(self))
        )
        return f"{self.__class__.__qualname__}({shown})"


class Value(Record):
    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> Exception:
    from dataclasses import FrozenInstanceError  # loaded only when a value is misused

    return FrozenInstanceError(message)
