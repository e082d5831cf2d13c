"""The package's plain records: ``__slots__`` classes whose fields are
their slots, in order.

A record compares equal to a record of its own class with equal fields,
and its repr lists the fields, as a dataclass's would.  A
:class:`Record` is mutable and unhashable; a :class:`FrozenRecord`
refuses assignment and hashes its fields.  Each record writes its own
``__init__``, with its signature, its defaults and its checks; a frozen
one sets its fields through ``object.__setattr__``, as a frozen
dataclass does.  Neither class needs more of the standard library than
the interpreter has loaded at start.
"""

from __future__ import annotations


class Record:
    """A mutable record; see the module docstring."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # rebuilt through __init__, so a copy or an unpickled record is
        # checked again and a frozen one is never assigned to
        return type(self), self._values()


class FrozenRecord(Record):
    """An immutable, hashable record; see the module docstring."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
