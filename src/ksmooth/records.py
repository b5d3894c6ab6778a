"""The base of the package's result classes."""


class Record:
    """A value with the fields named by its class's `_names`, by default the
    `__slots__`, which `__init__` sets.  Two records are equal when they are
    of the same class with equal fields; they hash and print by their fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = cls.__dict__.get("_names", cls.__slots__)

    def _fields(self):
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__name__}({fields})"
