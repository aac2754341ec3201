"""errors.record against dataclasses: every value class of the library
behaves as the @dataclass(frozen=True) it was (reference_checks.dataclass_twin)
in equality, hashing, repr, construction, immutability, validation and
cached properties, on instances collected from real computations; and a
value errors.by_formula builds is the one the constructor checks."""

from __future__ import annotations

import itertools
from functools import cached_property

import pytest

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L
from bitorsor_kit import rclass as R
from bitorsor_kit import errors
from bitorsor_kit.errors import by_formula, record

MODULES = (G, B, E, D, R, L)
PER_CLASS = 3


@record
class One:
    """A record of one field: its hash is that of a 1-tuple."""

    x: object


@record
class Cached:
    a: int
    b: tuple

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError("negative")

    @cached_property
    def total(self) -> int:
        return self.a + sum(self.b)


def library_records() -> set[type]:
    return {
        obj
        for mod in MODULES
        for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__ and "__match_args__" in vars(obj)
    }


def _walk(value, found: dict) -> None:
    if hasattr(type(value), "__match_args__"):
        bucket = found.setdefault(type(value), {})
        if id(value) in bucket:
            return
        bucket[id(value)] = value
        for name in value.__match_args__:
            _walk(getattr(value, name), found)
    elif isinstance(value, (tuple, frozenset)) and not all(type(v) is int for v in value):
        for v in value:
            _walk(v, found)


@pytest.fixture(scope="module")
def pool() -> list:
    """Up to PER_CLASS instances of every record class the computations
    below reach, each with a rebuilt equal copy, plus C3 under a second
    label, and the two test classes."""
    s3, c3 = G.symmetric(3), G.cyclic(3)
    e = L.build_tame_quotient(L.TameParams(3, 2, 2))
    t = E.h1(e.pi_big, s3)[-1]
    d = D.decompose(t, e)
    registry = R.ElementaryClassRegistry(G.cyclic(2), (G.cyclic(2), c3), frozenset({(0, 0), (1, 0)}))
    roots = [
        t, e, D.th_ppal_membership(t, e, lambda p: True, lambda p: True),
        D.verify_decomposition(t, d, e),
        L.survey(L.TameParams(3, 2, 2), s3),
        G.semidirect_product(*G.cyclic_power_action(3, 2, 2)),
        registry, R.validate_registry(registry), G.all_subgroups(s3),
    ]
    found: dict = {}
    for root in roots:
        _walk(root, found)
    assert library_records() <= set(found)
    out = [c3, G.make_group(c3.mul, c3.generators, "other C3"), One(1), One((1,)), Cached(1, (2, 3))]
    for cls, bucket in found.items():
        picked = list(bucket.values())[:PER_CLASS]
        out += picked + [cls(*fields_of(picked[0]))]
    return out


def fields_of(x) -> list:
    return [getattr(x, name) for name in x.__match_args__]


@pytest.fixture(scope="module")
def twins(pool) -> dict:
    """Each pooled value's dataclass twin, by id, built from the same field
    values."""
    classes = {cls: ref.dataclass_twin(cls) for cls in {type(x) for x in pool}}
    return {id(x): classes[type(x)](*fields_of(x)) for x in pool}


def one_per_class(pool) -> list:
    return list({type(x): x for x in pool}.values())


def test_every_library_class_is_a_record():
    assert len(library_records()) == 21
    for cls in library_records():
        assert "__dataclass_fields__" not in vars(cls), cls


def test_equality_matches_dataclass(pool, twins):
    """Every ordered pair of pooled values, same class or not."""
    for x, y in itertools.product(pool, repeat=2):
        tx, ty = twins[id(x)], twins[id(y)]
        assert (x == y) == (tx == ty), (x, y)
        assert (x != y) == (tx != ty), (x, y)
    assert any(type(x) is type(y) and x is not y and x == y for x, y in itertools.combinations(pool, 2))


def test_a_record_never_equals_its_twin(pool, twins):
    for x in pool:
        assert x != twins[id(x)] and not x == twins[id(x)]


def test_label_stays_out_of_equality_and_hash(pool):
    c3s = [x for x in pool if type(x) is G.FiniteGroup and x.mul == G.cyclic(3).mul]
    assert {x.label for x in c3s} >= {"C3", "other C3"}
    assert len({hash(x) for x in c3s}) == 1 and all(x == c3s[0] for x in c3s)


def test_hash_repr_and_match_args_match_dataclass(pool, twins):
    for x in pool:
        tx = twins[id(x)]
        assert hash(x) == hash(tx), x
        assert repr(x) == repr(tx)
        assert type(x).__match_args__ == type(tx).__match_args__
    assert hash(One(1)) == hash((1,)) != hash(1)


def test_assignment_and_deletion_raise_attribute_error(pool, twins):
    for x in one_per_class(pool):
        tx = twins[id(x)]
        for name in [*x.__match_args__, "not_a_field"]:
            for obj in (x, tx):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert fields_of(x) == fields_of(tx)


def test_construction_matches_dataclass(pool, twins):
    """Positional, keyword, and a wrong arity either way."""
    for x in one_per_class(pool):
        values = fields_of(x)
        for cls in (type(x), type(twins[id(x)])):
            assert fields_of(cls(*values)) == values
            assert fields_of(cls(**dict(zip(x.__match_args__, values)))) == values
            with pytest.raises(TypeError):
                cls(*values, None)
            with pytest.raises(TypeError):
                cls(*values[:-1])
    assert L.TameParams(q=3, n=4, m=2) == L.TameParams(3, 4, 2)


def test_the_validator_is_looked_up_at_each_construction(pool, monkeypatch):
    """A __post_init__ rebound on the class after it was made runs once per
    constructor call, as perfbench's tracer rebinds it."""
    for x in one_per_class(pool):
        cls = type(x)
        if "__post_init__" not in vars(cls):
            continue
        calls = []
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: (calls.append(self), check(self)))
        made = cls(*fields_of(x))
        assert calls == [made], cls
        monkeypatch.undo()
    with pytest.raises(L.BadParams):
        L.TameParams(q=2, n=4, m=1)
    with pytest.raises(ValueError):
        Cached(-1, ())


@pytest.mark.parametrize("full", [False, True], ids=["default", "full_check"])
def test_a_value_built_by_formula_is_the_checked_one(pool, monkeypatch, full):
    """by_formula stores the fields as the constructor does: the built value
    equals a checked one, hashes alike, and holds the same attributes, the
    fields first and in order, once it has read what the checked one read."""
    monkeypatch.setattr(errors, "FULL_CHECK", full)
    for x in one_per_class(pool):
        cls = type(x)
        if cls not in library_records():
            continue
        checked, built = cls(*fields_of(x)), by_formula(cls, *fields_of(x))
        assert list(vars(built))[: len(cls.__match_args__)] == list(cls.__match_args__)
        assert built == checked and hash(built) == hash(checked), cls
        for name in vars(checked):
            getattr(built, name)
        assert vars(built) == vars(checked), cls


def test_cached_properties_match_dataclass(pool, twins):
    seen = 0
    for x in pool:
        for name, attr in vars(type(x)).items():
            if isinstance(attr, cached_property):
                fresh, twin = type(x)(*fields_of(x)), twins[id(x)]
                assert getattr(fresh, name) == getattr(twin, name)
                assert vars(fresh)[name] == getattr(fresh, name)
                seen += 1
    assert seen > 0
    c = Cached(1, (2, 3))
    assert c.total == 6 and vars(c)["total"] == 6
