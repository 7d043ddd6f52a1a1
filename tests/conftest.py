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
