"""The G2/P2 artifacts of the paper over the 2x5 box, the 21 pairs (a, b),
5 >= a >= b >= 0, of `BOX`: the class table of the Grothendieck classes G_ab
(the Demazure chain of `spaces` on g2p2), the intersection matrix of the box
classes under the ambient Grassmannian pairing, and recovery of the
fundamental class from the two by exact elimination with unit pivots.  The
expected values they are checked against (the table in the reporting
variables A, B, the closed-form class in the Grothendieck basis and its lift
pairing) are built in the tests.

The ambient pairing is the residue formula of the Grassmannian of two-planes
in 7-space with its torus restricted to the seven weights of the
7-dimensional representation, taken over the two-parameter G2 torus.  It is
described like every integrand of `spaces`, as (scalar, weights, extras,
ambient) = (1/2, roots(z1, z2), (), the seven weights), and expanded by
`spaces._integrand_form`; the quotient's own integrand is the same with the
positive root and the fundamental-class lift as its one extra factor.  The
Demazure chain of gr:2,7 followed by the substitution t_i -> weight_i is its
test oracle (`tests/oracles.py`).

The intersection matrix is a Gram matrix over the 66 orbit values of that
pairing.  The box classes are symmetric integer polynomials in z1, z2, so a
product of two of them holds each orbit class of (p, q), p >= q, with its
coefficient on z1^p z2^q, and an entry is that integer combination of orbit
values.  Push-forwards of other classes (`ambient_pushforward`) decompose the
class into orbit classes first; building the matrix entry by entry that way is
its test oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import LaurentPolynomial, rational
from .characters import roots, standard_sets
from .elimination import solve
from .polyfam import grothendieck_pair
from .residue import PreparedForm, iterated_residue
from .spaces import SpaceDescriptor, _calc, _integrand_form, localization_pushforward
from . import g2core

GT = g2core.g2_table()

QUOTIENT_SPACE = SpaceDescriptor("g2p2")

# the partitions (a, b) of the 2x5 box, by size a + b, then by descending a
BOX = sorted(((a, b) for a in range(6) for b in range(a + 1)), key=lambda ab: (sum(ab), -ab[0]))


def box_label(pair: tuple) -> str:
    """A box pair as a bracketed digit string: [41], [4] for (4, 0), [0] for (0, 0)."""
    return f"[{pair[0]}{pair[1] or ''}]"


def grothendieck_table() -> dict:
    """Push-forward to a point of g2p2 (its Demazure chain) of every rank-two
    Grothendieck class in the 2x5 box, keyed on its box pair."""
    return {(a, b): localization_pushforward(QUOTIENT_SPACE, grothendieck_pair(a, b, GT))
            for a, b in BOX}


# -- ambient Grassmannian with the seven restricted weights ---------------------


AMBIENT_SPACE = SpaceDescriptor("gr", 2, 7)


@lru_cache(maxsize=None)
def _ambient_form() -> PreparedForm:
    """The gr:2,7 residue integrand at the seven weights w_k, over the G2
    table: (1/2) * bracket(roots(z1, z2)) / prod(1 - z_i/w_k) dz1/z1 dz2/z2,
    prepared once."""
    parts = (rational(1, 2), roots(standard_sets("Z", 2, GT)), (), g2core.seven_weights())
    return PreparedForm(_integrand_form(parts, 2))


@lru_cache(maxsize=None)
def _ambient_class(canon: tuple) -> LaurentPolynomial:
    """Push-forward of the orbit class z1^p z2^q + z1^q z2^p of canon = (p, q)
    (once on the diagonal) along the ambient Grassmannian: the iterated
    residue of the class times the integrand at the seven weights.  The
    integrand is symmetric in z1, z2, so that is |orbit| times the residue of
    the ascending member z1^q z2^p alone."""
    p, q = canon
    return iterated_residue(_ambient_form(), [(q, p, 0, 0)], 1 if p == q else 2)


def ambient_pushforward(f: LaurentPolynomial) -> LaurentPolynomial:
    """Push-forward along the ambient Grassmannian of two-planes (21 fixed
    points) of a class symmetric in z1, z2 (SymmetryViolation otherwise)."""
    return _calc(AMBIENT_SPACE).pushforward(f, _ambient_class)


def intersection_matrix() -> list:
    """The 21x21 Gram matrix of the box classes under the ambient pairing, in
    `BOX` order.  Each class is a symmetric integer polynomial in
    z1, z2 (SymmetryViolation otherwise), and so is each product of two: its
    coefficient on the orbit class of (p, q), p >= q, is its coefficient n on
    z1^p z2^q, and the entry adds n times the orbit value _ambient_class."""
    calc = _calc(AMBIENT_SPACE)
    classes = []
    for a, b in BOX:
        cls = grothendieck_pair(a, b, GT)
        calc.decompose(cls)  # SymmetryViolation unless symmetric
        classes.append(cls)
    matrix = [[None] * len(classes) for _ in classes]
    for i, left in enumerate(classes):
        for j in range(i, len(classes)):
            acc: dict = {}
            get = acc.get
            for (p, q, _, _), n in (left * classes[j]).terms.items():
                if p >= q:
                    for k, c in _ambient_class((p, q)).terms.items():
                        acc[k] = get(k, 0) + n * c
            matrix[i][j] = matrix[j][i] = LaurentPolynomial(GT, acc)
    return matrix


def fundamental_class_solve():
    """Coefficients of the fundamental class in the Grothendieck basis.

    Solves sum_I c_I * m(I, J) = pushforward(G_J) over the box pairs J by
    elimination with unit pivots; the determinant is a unit so the solution
    is a Laurent-polynomial vector.  The matrix is symmetric, so its rows in
    box order are the equations, and elimination picks a unit pivot in each
    column.  Keyed on the box pairs.
    """
    table = grothendieck_table()
    _, solution = solve(intersection_matrix(), [table[pair] for pair in BOX])
    return dict(zip(BOX, solution))

