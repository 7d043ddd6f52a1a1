"""The G2/P2 artifacts of the paper over the 2x5 box, the 21 pairs (a, b),
5 >= a >= b >= 0, of `BOX`: the class table of the Grothendieck classes G_ab
(the Demazure chain of `spaces` on g2p2), the intersection matrix of the box
classes under the ambient Grassmannian pairing, and recovery of the
fundamental class from the two by exact elimination with unit pivots.  The
expected values they are checked against (the table in the reporting
variables A, B, the closed-form class in the Grothendieck basis and its lift
pairing) are built in the tests.

The ambient pairing is the residue formula of the Grassmannian of two-planes
in 7-space at the seven weights of the 7-dimensional representation, over
the two-parameter G2 torus, in the closed form `g2core.gr27_orbit_class` with
F(c) = h_(-c)(w) + h_(c-7)(w).  The gr:2,7 Demazure chain then t_i ->
weight_i, and the integrand's iterated residue, check it in
`tests/oracles.py`.  The intersection matrix is a Gram matrix over its 66
orbit values, checked entry by entry against `ambient_pushforward`.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .algebra import LaurentPolynomial, add_terms
from .elimination import solve
from .polyfam import grothendieck_pair
from .spaces import SpaceDescriptor, _calc, localization_pushforward
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
def _residue(c: int) -> LaurentPolynomial:
    """F(c), the residues of z^c / prod_k (1 - z/w_k) dz/z at 0 and at
    infinity added: h_(-c) of the 1/w_k plus h_(c-7) of the w_k, whose product
    is 1.  They are closed under inversion, so F(c) = h_(-c)(w) + h_(c-7)(w)."""
    w = g2core.seven_weights
    return g2core.h_row(w, -c)[7] + g2core.h_row(w, c - 7)[7]


# push-forward of the orbit class of canon = (p, q) along the ambient Grassmannian
_ambient_class = partial(g2core.gr27_orbit_class, _residue)


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
    classes = [grothendieck_pair(a, b, GT) for a, b in BOX]
    for cls in classes:
        calc.decompose(cls)  # SymmetryViolation unless symmetric
    matrix = [[None] * len(classes) for _ in classes]
    for i, left in enumerate(classes):
        for j in range(i, len(classes)):
            acc: dict = {}
            for (p, q, _, _), n in (left * classes[j]).terms.items():
                if p >= q:
                    add_terms(acc, _ambient_class((p, q)).terms.items(), n)
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

