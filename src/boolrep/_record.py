"""Frozen value records: the `record` class decorator.

A record's fields are its class's own annotations, in order, and a class
attribute of a field's name is that field's default.  `record` gives the
class the value semantics of `dataclasses.dataclass(frozen=True)`, adding
each of these methods that the class body does not write itself:

- `__init__`: the fields by position or keyword, then `__post_init__` if the
  class has one;
- `__eq__` and `__hash__` over the tuple of field values, with
  `NotImplemented` against any other class;
- `__repr__` as `Name(field=value, ...)`;
- `__setattr__` and `__delattr__` that raise `AttributeError`.

The methods are closures over the field names, made without `exec` and
without importing anything, so that importing boolrep does not load
`dataclasses` and what it imports (`inspect`, `ast`, `dis`, `tokenize`).
Constructors set fields with `object.__setattr__`; `functools.cached_property`
still caches, because it writes the instance `__dict__` directly.
"""


def record(cls):
    """Make `cls` a frozen record over its annotated fields (see the module)."""
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    what = f"{cls.__name__}()"

    def values(self):
        return tuple([getattr(self, n) for n in names])

    def bind(args, kwargs):
        """The field values in order, for a call that does not pass each
        field by position."""
        if len(args) > len(names):
            raise TypeError(f"{what} takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{what} got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{what} got multiple values for argument {name!r}")
            given[name] = value
        for name in names:
            if name not in given:
                if name not in defaults:
                    raise TypeError(f"{what} missing required argument {name!r}")
                given[name] = defaults[name]
        return [given[n] for n in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for f in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if f.__name__ not in cls.__dict__:
            f.__qualname__ = f"{cls.__qualname__}.{f.__name__}"
            setattr(cls, f.__name__, f)
    return cls
