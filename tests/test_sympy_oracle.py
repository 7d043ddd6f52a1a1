"""Laurent arithmetic against sympy as an independent oracle: sums, products,
exact quotients and monomial changes of variables on small random
polynomials in two or three variables must equal sympy's expand, cancel and
subs of the same expressions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eqpush.algebra import LaurentPolynomial, Monomial, exact_divide, parameter_table

sympy = pytest.importorskip("sympy")

TABLES = {n: parameter_table(*[f"t{i + 1}" for i in range(n)]) for n in (2, 3)}
SYMBOLS = sympy.symbols("t1 t2 t3")

coefficients = st.one_of(st.integers(-4, 4),
                         st.builds(Fraction, st.integers(-4, 4), st.integers(2, 3))).filter(bool)


def polynomials(n, min_size=0):
    keys = st.tuples(*[st.integers(-2, 2)] * n)
    return st.dictionaries(keys, coefficients, min_size=min_size, max_size=4).map(
        lambda terms: LaurentPolynomial(TABLES[n], terms))


@st.composite
def pairs(draw, nonzero=False):
    n = draw(st.sampled_from((2, 3)))
    return draw(polynomials(n)), draw(polynomials(n, min_size=int(nonzero)))


def to_sympy(p: LaurentPolynomial):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s ** e for s, e in zip(SYMBOLS, key)])
                       for key, c in p.terms.items()])


def same(p: LaurentPolynomial, expr) -> bool:
    return to_sympy(p).as_coefficients_dict() == sympy.expand(expr).as_coefficients_dict()


# sympy is slow next to the code under test: few examples keep this file
# well under a second
@settings(max_examples=20)
@given(pairs())
def test_sum_and_product_match_sympy(pq):
    p, q = pq
    assert same(p + q, to_sympy(p) + to_sympy(q))
    assert same(p * q, to_sympy(p) * to_sympy(q))


@settings(max_examples=10)
@given(pairs(nonzero=True))
def test_exact_quotient_matches_sympy(pq):
    p, q = pq
    expected = sympy.cancel(sympy.expand(to_sympy(p) * to_sympy(q)) / to_sympy(q))
    assert same(exact_divide(p * q, q), expected)


@st.composite
def changes_of_variables(draw):
    n = draw(st.sampled_from((2, 3)))
    names = TABLES[n].names
    moved = draw(st.lists(st.sampled_from(names), unique=True, max_size=n))
    # exponents in [-1, 1] often send two terms to one, which must add up
    images = {name: Monomial(TABLES[n], draw(st.tuples(*[st.integers(-1, 1)] * n)))
              for name in moved}
    return draw(polynomials(n, min_size=2)), images


@settings(max_examples=20)
@given(changes_of_variables())
def test_monomial_substitution_matches_sympy(case):
    p, images = case
    expected = to_sympy(p).subs({SYMBOLS[p.table.index(name)]: to_sympy(img.as_polynomial())
                                 for name, img in images.items()}, simultaneous=True)
    assert same(p.substitute(images), expected)
