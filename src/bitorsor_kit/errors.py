"""Shared error root so the CLI can map any domain failure to one exit code,
and the one constructor for values the calculus builds by formula."""

import os
from contextlib import contextmanager


class DomainError(Exception):
    """A validated algebraic construction or a declared precondition failed."""


# Read once, at import; the test suite sets it.
FULL_CHECK = os.environ.get("BITORSOR_CHECK") == "full"
_probing = False


def by_formula(cls, *values):
    """The frozen dataclass `cls` with these field values, for a value
    computed by formula from validated inputs: its invariants hold by
    construction, so its __post_init__ validator is skipped.  With
    BITORSOR_CHECK=full it runs, and a failure raises AssertionError, which
    no `except DomainError` swallows; inside `validating()` it runs and
    raises as the constructor would."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__match_args__, values))
    if _probing:
        obj.__post_init__()
    elif FULL_CHECK:
        try:
            obj.__post_init__()
        except DomainError as exc:
            raise AssertionError(f"{cls.__name__} built by formula is invalid: {exc}") from exc
    return obj


@contextmanager
def validating():
    """Validate values built by formula, for searches whose predicate is
    the validator."""
    global _probing
    outer, _probing = _probing, True
    try:
        yield
    finally:
        _probing = outer
