"""Base class of frobstrat's immutable value records."""

from operator import attrgetter

# The records are plain __slots__ classes, not frozen dataclasses: importing
# dataclasses loads inspect, ast, dis and tokenize, and generating the
# classes' methods took longer than the rest of `import frobstrat` together.
# Each record spells its own __init__: one Record.__init__ binding *args and
# **kwargs from __match_args__ would drop a few lines, but took about twice as
# long or more to build a record (SubrankBound, StratumRecord).

# sets a field from __init__, past Record.__setattr__
_set = object.__setattr__


class Record:
    """A record names its fields, in constructor order, in ``__match_args__``
    and keeps them in ``__slots__``, with any derived state (a field's modulus,
    elements and tables, a model's characteristic and sizes) in extra slots; its
    ``__init__`` sets each once with ``_set``.  Records compare and hash by their fields, only
    against the same class, and refuse assignment and deletion.  Every value
    type of frobstrat is one: fields, their elements, plane points and tensor
    elements too."""

    __slots__ = ()

    def __init_subclass__(cls):
        # one C call reads the fields: their tuple, or the value of a lone field
        cls._key = property(attrgetter(*cls.__match_args__))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and unpickled records are rebuilt, and revalidated, by __init__
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"
