"""The base of the package's mutable records.

The immutable records are `typing.NamedTuple`s; a mutable one names its
fields in `_fields` and sets them in its own `__init__`.  Its `repr` and
`==` are those a dataclass would generate, and, being mutable, it is not
hashable.  Written out instead of generated, they keep `dataclasses`, and
the `inspect` it imports, out of every cold start of the package.
"""

from __future__ import annotations


class MutableRecord:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        spelled = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({spelled})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None
