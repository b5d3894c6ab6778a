"""The base of the package's result classes."""


class Record:
    """A value with the fields named by the subclass's `__slots__`, which
    its `__init__` sets.  Two records are equal when they are of the same
    class with equal fields; they hash and print by their fields."""

    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
