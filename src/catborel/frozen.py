"""The base of the package's value classes.

A value class lists its fields in ``__slots__``, in the order of its
``__init__`` arguments, and sets each one once, in ``__init__`` after
validating it, through ``object.__setattr__``.  Afterwards assigning or
deleting an attribute raises ``AttributeError``.  Two values are equal
when they are of the same class and their fields are equal, and a value
hashes as the tuple of its fields.  A class whose slots also hold
something derived from the fields (a cache, a lookup set) overrides
``_fields`` to return the ``__init__`` arguments alone.  Values are
not copied or pickled: since assignment raises, neither can rebuild one.

The module imports nothing, so building values costs a command no
start-up time beyond this file.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"
