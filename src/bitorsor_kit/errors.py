"""Shared error root so the CLI can map any domain failure to one exit code,
the frozen record every value class is, and the one constructor for values
the calculus builds by formula: it calls the record's generated `_formula`
constructor, which stores the fields as __init__ does, so a built value
keeps the same instance layout, and runs the validator only with
BITORSOR_CHECK=full."""

import os


class DomainError(Exception):
    """A validated algebraic construction or a declared precondition failed."""


# Read once, at import; the test suite sets it.
FULL_CHECK = os.environ.get("BITORSOR_CHECK") == "full"


class FrozenError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def _frozen(self, name, *value):
    raise FrozenError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls=None, *, uncompared=()):
    """`cls` as an immutable record of its annotated fields, with what
    @dataclass(frozen=True) gives it: __init__ over the fields in order, then
    self.__post_init__() if the class defines one; __eq__ (same class only)
    and __hash__ over the tuple of the fields not `uncompared`; __repr__;
    __match_args__; FrozenError on assignment or deletion.  Methods the class
    defines are kept.  One generated source per class holds the methods and
    the classmethod `_formula`, by_formula's constructor: it takes the fields
    in order and stores them as __init__ does, with no __post_init__."""
    if cls is None:
        return lambda c: record(c, uncompared=uncompared)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    keys = "".join(f"self.{n}," for n in names if n not in uncompared)
    args = ", ".join(names)
    sets = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    ns = {"_set": object.__setattr__, "_new": object.__new__}
    exec(
        f"def __init__(self, {args}):\n"
        + sets
        + ("    self.__post_init__()\n" if "__post_init__" in cls.__dict__ else "")
        + f"def _formula(cls, {args}):\n    self = _new(cls)\n{sets}    return self\n"
        "def __eq__(self, other):\n    if self is other:\n        return True\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({keys}) == ({keys.replace('self.', 'other.')})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({keys}))\n"
        "def __repr__(self):\n    return self.__class__.__qualname__ + "
        f"f'({', '.join(f'{n}={{self.{n}!r}}' for n in names)})'\n",
        ns,
    )
    for attr in ("__init__", "__eq__", "__hash__", "__repr__", "_formula"):
        ns[attr].__qualname__ = f"{cls.__qualname__}.{attr}"
    for attr in ("__init__", "__eq__", "__hash__", "__repr__"):
        if attr not in cls.__dict__:
            setattr(cls, attr, ns[attr])
    cls._formula = classmethod(ns["_formula"])
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__match_args__ = names
    return cls


def by_formula(cls, *values, **cached):
    """The record `cls` with these field values, for a value computed by
    formula from validated inputs: its invariants hold by construction, so
    the record's generated `_formula` constructor stores the fields as
    __init__ would and skips the __post_init__ validator.  With
    BITORSOR_CHECK=full the validator runs, and a failure raises
    AssertionError, which no `except DomainError` swallows.  `cached` holds
    derived values the caller has just checked, stored before the validator
    runs.  A count of values other than the record's field count raises
    TypeError, as the constructor would."""
    try:
        obj = cls._formula(*values)
    except TypeError:
        names = cls.__match_args__
        raise TypeError(f"{cls.__name__} has {len(names)} fields, got {len(values)} values") from None
    for name, value in cached.items():
        object.__setattr__(obj, name, value)
    if FULL_CHECK and hasattr(cls, "__post_init__"):
        formula_check(cls.__name__, obj.__post_init__)
    return obj


def formula_check(name: str, check, *args) -> None:
    """With BITORSOR_CHECK=full, check(*args) for a value `name` built by
    formula, a DomainError raising AssertionError; otherwise nothing."""
    if FULL_CHECK:
        try:
            check(*args)
        except DomainError as exc:
            raise AssertionError(f"{name} built by formula is invalid: {exc}") from exc
