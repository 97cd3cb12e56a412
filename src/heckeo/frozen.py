"""Immutable records, written as plain classes: importing `dataclasses`
and running its decorators took about half of a cold `import heckeo`."""


class Frozen:
    """Base of an immutable record.  A subclass lists its fields in
    `__slots__` and sets each once, in `__init__`, through `init_field`;
    assigning or deleting a field afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


init_field = object.__setattr__
