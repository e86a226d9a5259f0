"""Base of the package's immutable value classes.

A value class names its fields in ``__slots__``, after the fields of
the value class it extends, if any.  Slots whose names start
with an underscore hold memos: they stay out of equality, hashing and
``repr``.  ``Record.__init__`` binds the public fields in slot order, by
position or keyword; a class that converts or checks its fields calls it
first and then does so, and a class with memos or a hot constructor sets
its slots itself.  Instances compare and hash by their
field values, assigning or deleting an attribute raises
``AttributeError``, and ``copy`` and ``pickle`` rebuild an instance by
passing its field values to ``__init__``, so every ``__init__`` takes the
fields in slot order.

The standard ``dataclasses`` module gives the same behaviour but builds
each class's methods as source text and compiles it when the class is
created, 0.5-1 ms per class with Python 3.11, and importing it loads
``inspect``, ``ast``, ``dis`` and ``tokenize``; every command-line run
would pay for both at start-up.  This module imports nothing.
"""


class Record:
    """Equality, hashing, ``repr`` and immutability from the subclass's public slots."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the public slots of every class along the MRO, bases first: a subclass that
        # declares ``__slots__ = ()`` keeps its base's fields
        cls._fields = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
            if not name.startswith("_")
        )

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        twice = values.keys() & kwargs.keys()
        values.update(kwargs)
        if len(args) > len(fields) or twice or values.keys() != set(fields):
            raise TypeError(
                f"{self.__class__.__qualname__} takes the fields ({', '.join(fields)}), got "
                f"{len(args)} by position and ({', '.join(kwargs)}) by keyword"
            )
        self._set(**values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def _set(self, **fields):
        """Set fields and memos by name, from ``__init__`` or a constructor that skips it; returns self."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
