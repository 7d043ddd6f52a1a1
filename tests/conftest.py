import random

import pytest
from hypothesis import settings

from eqpush.algebra import LaurentPolynomial, zt_table


def random_laurent(rng: random.Random, table, nterms=4, max_exp=3,
                   rational_coeffs=False):
    """Small random Laurent polynomial with integer (or rational) coefficients."""
    terms = {}
    n = len(table)
    for _ in range(rng.randint(1, nterms)):
        key = tuple(rng.randint(-max_exp, max_exp) for _ in range(n))
        num = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5, 7])
        if rational_coeffs and rng.random() < 0.4:
            coeff = (num, rng.choice([2, 3, 4]))
        else:
            coeff = (num, 1)
        terms[key] = coeff
    from eqpush.algebra import rational
    return LaurentPolynomial(table, {k: rational(*c) for k, c in terms.items()})


def assert_immutable_value(cls, *fields, hashable=True):
    """cls(*fields) equals (and hashes like) a second cls(*fields), never
    equals an object of another class with the same fields, and has no
    attribute that can be assigned, deleted or added."""
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b and a is not b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    other = type("Other", (cls,), {"__slots__": ()})(*fields)
    assert a != other and other != a and not a == other
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.fixture
def rng():
    return random.Random(20240801)


@pytest.fixture
def table22():
    return zt_table(2, 2)


# Fixed example sequences, no example database and no deadline: a run draws
# the same examples every time and keeps no failing examples for the next.
# Hypothesis still caches source constants under .hypothesis/ (git-ignored).
settings.register_profile("eqpush", derandomize=True, database=None, deadline=None)
settings.load_profile("eqpush")
