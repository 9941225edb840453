"""Immutable value types, written out so that defining them generates no code.

Both kinds name their fields in ``_fields``: the constructor's parameters,
in order, which also give the repr and the pickled form.  A ``Record`` is
the tuple of its fields, each read through a property: it hashes as that
tuple and orders as tuples do, but equals only a value of its own type.  A
``Frozen`` value keeps its fields, and caches built once, in slots its
constructor sets through ``object.__setattr__``; it compares and hashes by
its fields.  Every subclass declares ``__slots__``.
"""

from operator import itemgetter


def _parameters(constructor) -> tuple:
    code = constructor.__code__
    return code.co_varnames[1:code.co_argcount]


def _repr(value) -> str:
    args = ", ".join(f"{name}={getattr(value, name)!r}" for name in value._fields)
    return f"{type(value).__qualname__}({args})"


class Record(tuple):
    """A value stored as the tuple of its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = _parameters(cls.__new__)
        for k, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(k)))

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __getnewargs__(self):
        return tuple(self)

    __repr__ = _repr


class Frozen:
    """A slotted value whose fields and caches its constructor sets once."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = _parameters(cls.__init__)

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._args() == other._args() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._args())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._args()

    __repr__ = _repr
