"""Frozen value records, built without importing ``dataclasses``.

``record`` gives a class what ``@dataclass(frozen=True)`` gives it, from its
annotated fields in order: an ``__init__`` taking them positionally or by
keyword and then calling ``__post_init__``, field-wise ``__eq__`` and
``__hash__``, the ``Name(field=value, ...)`` repr, and ``__setattr__`` and
``__delattr__`` that raise ``AttributeError``.  A method the class defines
itself is kept.  No source is generated and nothing is imported, so a command
that builds a record pays no start-up for it.
"""


def record(cls):
    fields = tuple(cls.__annotations__)
    post_init = getattr(cls, "__post_init__", None)

    def values(self) -> tuple:
        return tuple(getattr(self, field) for field in fields)

    def refuse(self, problem: str):
        raise TypeError(f"{type(self).__qualname__}.__init__() {problem}")

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            refuse(self, f"takes {len(fields) + 1} positional arguments "
                         f"but {len(args) + 1} were given")
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                refuse(self, f"got an unexpected keyword argument {key!r}")
            if key in given:
                refuse(self, f"got multiple values for argument {key!r}")
            given[key] = value
        if len(given) < len(fields):
            missing = ", ".join(repr(field) for field in fields if field not in given)
            refuse(self, f"missing required argument(s): {missing}")
        self.__dict__.update((field, given[field]) for field in fields)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{field}={getattr(self, field)!r}" for field in fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls
