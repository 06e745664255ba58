"""Immutable value records without the dataclasses machinery.

A subclass names its fields in ``__slots__`` and sets them once in its
``__init__`` through ``_assign``; equality, hashing, repr, copying and
pickling then go by those fields, in order, and assignment afterwards
raises AttributeError.  (Importing dataclasses pulls in inspect, ast, dis
and tokenize, a fifth of the package's import time.)
"""


class Record:
    __slots__ = ()

    def _assign(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
