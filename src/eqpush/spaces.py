"""Homogeneous-space catalogue with the two push-forward paths.

Each kind has one catalogue entry (`_CATALOGUE`: the parameters it takes,
its least n and its residue variants), read by SpaceDescriptor's checks,
`key` and `variants` and by `parse_space`, and one branch of `_weyl_data`:
the tangent characters at the base fixed point z_i -> t_i (a space's
dimension is their number), the simple reflections of its Weyl group and
ogE's second component.  Every space also has a factored residue integrand.
The localization push-forward is the sum of f(point)/bracket(tangent) over
the fixed points; it is computed exactly as a Demazure chain of isobaric
divided differences from the base point (see LocalizationEngine), so the
other fixed points are never listed.  The residue push-forward takes
lg, ogE and ogO in closed form (below) and runs the iterated-residue engine
on every other integrand, prepared once per (space, variant)
(`residue.PreparedForm`): an orbit member of a class is one integer shift
of its packed base.  The central contract is that the two agree on every
admissible class.

The symmetry of admissible classes is declared once per kind, in
SpaceDescriptor.symmetry_runs; the generators, the sorted orbit classes and
the check in _SpaceCalc.decompose, which every push-forward runs, derive from
it.  The class variables are the leading variables of the class's table,
the space's z's or, in `cohomology`, the Chern roots.  A space's calculator
(`_SpaceCalc`) lists each orbit once (the check's orbit size, the orbit sum
and the members a residue takes are read off that list), prepares each
variant's integrand once and, both paths being linear, caches the values
per orbit class; the caches are `lru_cache`s and observationally pure.

Every residue integrand is held as the paper writes it (`_integrand_parts`):
a scalar, one weight list, the extra factors that are no bracket and the
ambient characters tau, which `_integrand_form` expands once into
scalar * bracket(weights) * prod(extras) / prod(1 - z_i/tau) dz/z.  A class's
residue needs one member of its orbit when every symmetry generator maps the
multiset of weights and the multiset of extras to themselves
(`_integrand_symmetric`, decided once without expanding anything; the
denominator and the measure are symmetric by construction): then
Res(orbit_sum(c) * base) = |orbit(c)| * Res(z^c' * base) for any member c'.
That holds for the full gr and gr2 formulas, and trivially for fl, g2b,
gr:1,n and lg, ogE and ogO of rank 1, whose orbits have one member.  The
positive-root weights (pos_roots) of the compact gr and gr2 formulas and
g2p2's are not symmetric, and q's inversion z -> 1/z moves the factors and
the measure, so these sum every orbit member on the kernel.

The integrands of lg, ogE and ogO take no kernel (`_alternant_shape` reads
them off their description, no kind named).  Their weights are a positive
system of type C (the sym_set pairs: ogE, full ogO) or D (the lambda_set
pairs: lg, compact ogO), so by the Weyl denominator formula
bracket(weights) = sum_w det(w) z^(w rho - rho), rho half the sum of the
weights, and every other factor holds one z.  The residue of z^m times the
integrand is then an n x n determinant of one-variable residues F(c), those
of z^c/D(z) dz/z at 0 and infinity, D(z) = prod(1 - z/tau) over the ambient
(compact ogO's extras 1 + z_i make each entry F(c) + F(c + 1)).  The
ambient T_pm (T_sharp on full ogO, one factor 1 - z more) is closed under
inversion, so D and every F are polynomials in the e_k of u_j = t_j +
1/t_j: at rank 5, F(-6) has 18 terms in the e_k against 2471 in the t's.
A class's determinants are summed over its orbit in the e_k, minors shared
between members and classes, and mapped back to the t's once, by Horner's
rule in the e_k.  At rank 1, where the orbit has one member, the integrand
is symmetric and one residue on the kernel is cheaper: the e_k pay off only
against the orbit sum.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property, lru_cache

from .algebra import (Frozen, InvariantError, LaurentPolynomial, Monomial, NotDivisible,
                      VariableTable, add_terms, exact_divide_many, parameter_table, rational,
                      zt_table)
# Nothing here raises it; kept only because perfbench/test_perfbench.py
# raises `spaces.NotPolynomial`.
from .algebra import NotPolynomial  # noqa: F401
from .characters import (bracket, inverses, lambda_set, pairwise_product, pos_roots,
                         quotient_set, roots, standard_sets, sym_set)
from .residue import PreparedForm, ResidueForm, iterated_residue, make_form
from . import g2core

_FULL, _BOTH = ("full",), ("full", "compact")
# kind -> (parameters taken: none, n, or m, n with 1 <= m < n; least n; variants)
_CATALOGUE = {"gr": (2, 2, _BOTH), "gr2": (2, 2, _BOTH), "lg": (1, 1, _FULL),
              "ogE": (1, 1, _FULL), "ogO": (1, 1, _BOTH), "fl": (1, 1, _FULL),
              "q": (1, 2, _FULL), "g2p2": (0, 0, _FULL), "g2b": (0, 0, _FULL)}
_TAKES = ("no parameters", "one parameter", "two parameters")


def _entry(kind: str) -> tuple:
    """The catalogue entry of a kind; raises ValueError for an unknown one."""
    if kind not in _CATALOGUE:
        raise ValueError(f"unknown space kind {kind!r}")
    return _CATALOGUE[kind]


class SymmetryViolation(ValueError):
    """The class handed to a push-forward lacks the required symmetry."""


class SpaceDescriptor(Frozen):
    """One of the catalogue spaces, with its integer parameters."""

    __slots__ = _fields = ("kind", "m", "n")

    def __init__(self, kind: str, m: int = 0, n: int = 0):
        arity, least, _ = _entry(kind)
        if any((m, n)[:2 - arity]):
            raise ValueError(f"{kind} takes {_TAKES[arity]}, got m={m}, n={n}")
        if arity == 2 and not 1 <= m < n:
            raise ValueError("need 1 <= m < n")
        if arity and n < least:
            raise ValueError(f"{'the quadric needs' if kind == 'q' else 'need'} n >= {least}")
        self._set_fields(kind, m, n)

    def key(self) -> str:
        params = (self.m, self.n)[2 - _CATALOGUE[self.kind][0]:]
        return f"{self.kind}:{','.join(map(str, params))}" if params else self.kind

    def residue_count(self) -> int:
        return self.m if self.kind == "gr" else self.parameter_count()

    def parameter_count(self) -> int:
        return 2 if self.kind in ("g2p2", "g2b") else self.n

    def table(self) -> VariableTable:
        return zt_table(self.residue_count(), self.parameter_count())

    def dimension(self) -> int:
        return len(_weyl_data(self)[0])

    def variants(self) -> tuple:
        return _CATALOGUE[self.kind][2]

    def symmetry_runs(self) -> tuple:
        """The symmetry an admissible class must have, as (start, stop, signed)
        runs of the positions z_(start+1)..z_stop: each run is permuted, and a
        signed run's variables are also inverted.  z's outside every run are free."""
        if self.kind in ("fl", "g2b"):
            return ()
        if self.kind == "gr2":
            return ((0, self.m, False), (self.m, self.n, False))
        if self.kind == "q":
            return ((1, self.n, True),)
        return ((0, self.residue_count(), False),)  # gr, lg, ogE, ogO, g2p2: every z


def parse_space(text: str) -> SpaceDescriptor:
    """Parse the compact grammar: gr:2,7  gr2:2,4  lg:3  ogE:4  ogO:3  fl:4  q:3  g2p2  g2b."""
    body = text.strip()
    if ":" not in body:
        return SpaceDescriptor(body)
    kind, _, params = body.partition(":")
    arity = _entry(kind)[0]
    if not arity:
        raise ValueError(f"{kind} takes {_TAKES[0]}, got {params!r}")
    fields = params.split(",")
    if "" in fields:
        raise ValueError(f"empty parameter in {text!r}")
    for p in fields:
        if not (p.isascii() and p.isdigit()):  # int() also takes signs, "_" and non-ASCII digits
            raise ValueError(f"parameter {p!r} of {text!r} is not a run of ASCII digits")
    if len(fields) != arity:
        raise ValueError(f"{kind} takes {_TAKES[arity]}, got {params!r}")
    return SpaceDescriptor(kind, *(0, *map(int, fields))[-2:])


# -- symmetry -----------------------------------------------------------------


def symmetry_generators(space: SpaceDescriptor) -> list:
    """Substitutions generating the symmetry group of admissible classes: the
    adjacent swaps of each `symmetry_runs` run, then a signed run's z inverted."""
    table = space.table()

    def z(i, e=1):
        return Monomial.of(table, **{f"z{i}": e})

    gens = []
    for start, stop, signed in space.symmetry_runs():
        gens += [{f"z{i}": z(i + 1), f"z{i + 1}": z(i)} for i in range(start + 1, stop)]
        if signed:
            gens.append({f"z{start + 1}": z(start + 1, -1)})
    return gens


def check_symmetry(space: SpaceDescriptor, f: LaurentPolynomial) -> None:
    """Raise SymmetryViolation unless f is an admissible class of the space."""
    _calc(space).decompose(f)


# -- push-forward machinery -----------------------------------------------------


def log(char: Monomial, table: VariableTable) -> LaurentPolynomial:
    """The additive weight of a character: t^e -> the linear form sum e_i*t_i,
    over `table` (variables matched by name)."""
    return LaurentPolynomial(table, {Monomial.of(table, **{name: 1}).exps: e
                                     for name, e in zip(char.table.names, char.exps) if e},
                             _canonical=True)


def _check_class(f: LaurentPolynomial) -> None:
    """Raise ValueError unless f is a class in the Chern roots: a negative
    exponent makes it no polynomial in them."""
    if any(e < 0 for key in f.terms for e in key):
        raise ValueError("cohomology classes must have nonnegative exponents")


def _weyl_data(space: SpaceDescriptor) -> tuple:
    """The fixed-point geometry of a space, one branch per kind: (the tangent
    characters at the base point z_i -> t_i; a (substitution s, simple root
    a) pair per simple reflection of its Weyl group, each s an involution on
    the t's with s(a) = 1/a; on ogE, whose fixed points form two components,
    the t_n -> 1/t_n carrying the base one to the other, else None).  The
    adjacent swaps, the flip t_n -> 1/t_n and the type-D reflection
    (t_n-1, t_n) -> (1/t_n, 1/t_n-1) are written once each; G2's two
    reflections come from `g2core`."""
    k, m = space.kind, space.m
    if k == "g2p2":
        return g2core.quotient_identity_tangent(), g2core.simple_reflections(), None
    if k == "g2b":
        return g2core.borel_identity_tangent(), g2core.simple_reflections(), None
    n = space.parameter_count()
    ts = standard_sets("T", n, space.table())
    inv = inverses(ts)
    swaps = [({f"t{i + 1}": ts[i + 1], f"t{i + 2}": ts[i]}, ts[i + 1] / ts[i])
             for i in range(n - 1)]
    flip = {f"t{n}": inv[-1]}
    type_d = swaps + ([({f"t{n - 1}": inv[-1], f"t{n}": inv[-2]}, inv[-2] * inv[-1])]
                      if n >= 2 else [])
    if k in ("gr", "gr2"):  # t_j/t_i with i <= m < j
        return quotient_set(ts[m:], ts[:m]), swaps, None
    if k == "lg":
        return sym_set(inv), swaps + [(flip, inv[-1] ** 2)], None
    if k == "ogE":
        return lambda_set(inv), type_d, flip
    if k == "ogO":
        return lambda_set(inv) + inv, swaps + [(flip, inv[-1])], None
    if k == "fl":
        return pos_roots(inv), swaps, None
    # q: x/t1 over t2..tn and their inverses
    return quotient_set(ts[1:] + inv[1:], ts[:1]), type_d, None


class LocalizationEngine:
    """Sum of f(point)/bracket(tangent) over the fixed points, by Demazure's
    character formula.

    The fixed points of a catalogue space are a Weyl-group orbit W/W_P of one
    base point, and its tangent characters are roots.  For a class whose
    restriction g to the base point is W_P-invariant, the sum equals a chain
    of isobaric divided differences D_i g = (g - a_i^-1 * s_i g)/(1 - a_i^-1)
    along a reduced word for the orbit.  The word is read off the base
    tangent: while it holds a simple root a_i, record i and apply s_i.  Each
    step is one exact division by a binomial, so no common denominator of the
    whole sum is ever built; `algebra._divide_binomial`, the binomial path
    of `exact_divide`, does it in one pass of running sums along the chains
    t^e * a_i^-j, with no heap.  `_sum` runs the chain of both theories: the
    cohomological one is the `log` image of the K-theoretic one (`additive`).
    """

    def __init__(self, space: SpaceDescriptor):
        self.table = table = space.table()
        # The base point z_i -> t_i (for the isotropic Grassmannians the point
        # with every t_i inside, whose stabilizer permutes the z's).
        ts = standard_sets("T", space.parameter_count(), table)
        self.base = {f"z{i + 1}": ts[i] for i in range(space.residue_count())}
        tangent, reflections, self.other_component = _weyl_data(space)
        dim = space.dimension()
        if any(c.is_one for c in tangent):
            raise InvariantError(f"{space.key()}: the base tangent is not {dim} nontrivial "
                                 f"characters")
        one = LaurentPolynomial.one(table)
        self.steps = []
        while len(self.steps) <= dim:
            found = next(((s, a) for s, a in reflections if a in tangent), None)
            if found is None:
                break
            s, a = found
            self.steps.append((s, a.inverse(), one - a.inverse().as_polynomial()))
            tangent = tuple(c.substitute(s) for c in tangent)
        if len(self.steps) != dim:
            raise InvariantError(f"{space.key()}: reduced word of length {len(self.steps)} "
                                 f"!= dim {dim}")

    @cached_property
    def additive(self) -> tuple:
        """The cohomological chain (base, steps, other component), the `log`
        image of the K-theoretic one: z -> -log t (the z's stand for the Chern
        roots x = -log z), steps (s_i on the logs, 1, log a_i) and ogE's
        t_n -> -t_n."""
        one, other = Monomial.one(self.table), self.other_component

        def image(s):
            return {name: log(img, self.table) for name, img in s.items()}

        return ({z: -x for z, x in image(self.base).items()},
                [(image(s), one, -log(a_inv, self.table)) for s, a_inv, _ in self.steps],
                None if other is None else image(other))

    @staticmethod
    def _sum(f: LaurentPolynomial, base: dict, steps: list, other) -> LaurentPolynomial:
        """value <- (value - a_inv * s(value)) / divisor from f at the base point
        over the steps (s, a_inv, divisor), plus its `other` image if any."""
        value = f.substitute(base)
        for s, a_inv, divisor in steps:
            numerator = value + value.substitute(s).mul_monomial(a_inv, -1)
            try:
                value = exact_divide_many(numerator, [divisor])
            except NotDivisible:
                raise InvariantError("a divided difference is not a Laurent polynomial") from None
        if other is not None:
            value = value + value.substitute(other)
        return value

    def sum_values(self, f: LaurentPolynomial) -> LaurentPolynomial:
        """Sum of f(point)/bracket(tangent) over the fixed points, for an
        admissible class f (its base-point value is then W_P-invariant)."""
        return self._sum(f, self.base, self.steps, self.other_component)

    def additive_sum(self, f: LaurentPolynomial) -> LaurentPolynomial:
        """Cohomological sum of f(point)/prod(log tangent) over the fixed points,
        for an admissible class f whose z's stand for the Chern roots
        x_k = -log z_k (at a two-plane with additive weights (a, b) the roots
        are (-a, -b)), on every kind but q, whose signed run acts on the roots
        as x -> -x.  Raises ValueError on a class with a negative exponent,
        which is no polynomial in the roots (on q, every orbit class that moves
        under the signed run has one).  In `src/` only `cohomology.g2_integral`
        calls it."""
        _check_class(f)
        return self._sum(f, *self.additive)


@lru_cache(maxsize=None)
def _integrand_parts(space: SpaceDescriptor, variant: str) -> tuple:
    """The paper's description of the integrand of (space, variant):
    (scalar, weights, extras, ambient), for scalar * bracket(weights) *
    prod(extras) / prod(1 - z_i/tau over tau in ambient) dz/z.  The weights
    concatenate the named lists, since the bracket of a concatenation is the
    product of the brackets; the extras are the factors that are no bracket.

    The paper writes lg, ogE and ogO with bracket(roots(z)) and scalar 1/n!;
    here they take bracket(pos_roots(z)) with scalar 1, half the factors.
    The residue is the same: the rest of the integrand, times a class's
    orbit sum, is a function F symmetric in z1..zn, and the iterated residue
    does not change when the z's are renamed, so n! * Res[F * P] is the
    residue of F * sum_w w(P), P = prod_(i<j) (1 - z_j/z_i), w over the
    permutations.  By Weyl's character formula for the trivial
    representation, sum_w w(1/prod_(i<j) (1 - z_i/z_j)) = 1; times the
    invariant prod_(i!=j) (1 - z_i/z_j) this is sum_w w(P) = prod_(i!=j)
    (1 - z_i/z_j), the paper's bracket(roots(z)).  With half the factors
    the weights are a positive system of type C or D, whose bracket is a
    Weyl alternant: `_alternant_shape` reads it off for the closed form."""
    table = space.table()
    k, m, n = space.kind, space.m, space.n
    one = LaurentPolynomial.one(table)
    zlist = standard_sets("Z", space.residue_count(), table)
    inv = inverses(zlist)
    extras = ()
    if k in ("gr", "gr2", "fl"):
        ambient = standard_sets("T", n, table)
    elif k in ("g2p2", "g2b"):  # the ambient Grassmannian at the seven weights, lifted
        ambient, extras = g2core.seven_weights(), (g2core.fundamental_class_lift(),)
    else:
        ambient = standard_sets("T_sharp" if (k, variant) == ("ogO", "full") else "T_pm",
                                n, table)

    if k in ("fl", "g2p2", "g2b") or variant == "compact" and k in ("gr", "gr2"):
        scalar, weights = 1, pos_roots(zlist)
    elif k == "gr":
        scalar, weights = rational(1, math.factorial(m)), roots(zlist)
    elif k == "gr2":
        scalar = rational(1, math.factorial(m) * math.factorial(n - m))
        weights = roots(zlist[:m]) + quotient_set(zlist[:m], zlist[m:]) + roots(zlist[m:])
    elif k == "q":
        scalar = rational(1, 2 ** (n - 1))
        weights = pairwise_product(inv, inv[1:]) + pos_roots(zlist)
        extras = (one - Monomial.of(table, z1=2).as_polynomial(),)
    else:  # lg, ogE, ogO: pairs of the inverses and the positive roots
        pairs = lambda_set if k == "lg" or variant == "compact" else sym_set
        scalar, weights = 1, pairs(inv) + pos_roots(zlist)
        if variant == "compact":  # ogO
            extras = tuple(one + z.as_polynomial() for z in zlist)
    return scalar, weights, extras, ambient


def _integrand_form(parts: tuple, m: int) -> ResidueForm:
    """The residue form of an integrand description (scalar, weights,
    extras, ambient) in z1..zm: bracket(weights) times the extras, expanded
    one binomial at a time, over the monomials z_i/tau, measure absorbed."""
    scalar, weights, extras, ambient = parts
    table = ambient[0].table
    numerator = bracket(weights, table)
    for extra in extras:
        numerator = numerator * extra
    zlist = standard_sets("Z", m, table)
    return make_form(numerator, (z / tau for z in zlist for tau in ambient),
                     (f"z{i + 1}" for i in range(m)), scalar=scalar)


@lru_cache(maxsize=None)
def _integrand_symmetric(space: SpaceDescriptor, variant: str) -> bool:
    """Whether every `symmetry_generators` substitution maps the integrand of
    (space, variant) to itself, decided on its description without expanding
    it: each swap must keep the multiset of weights and the multiset of
    extras.  The denominator z_i/tau and the dlog measure are invariant under
    every permutation of the z's by construction, and the iterated residue
    does not depend on the order of the variables, so a class's residue is
    then |orbit| times that of one orbit member.  A signed run never
    qualifies: an inversion z -> 1/z moves every factor (each factor monomial
    has a positive residue exponent, so none maps to a factor) and flips the
    measure."""
    if any(signed for *_, signed in space.symmetry_runs()):
        return False
    _, weights, extras, _ = _integrand_parts(space, variant)

    def multisets(s):
        return (Counter(a.substitute(s).exps for a in weights),
                Counter(frozenset(e.substitute(s).terms.items()) for e in extras))

    identity = multisets({})
    return all(multisets(s) == identity for s in symmetry_generators(space))


# -- alternant integrands ---------------------------------------------------------


def _root_system(m: int, long: bool) -> Counter:
    """The roots of D_m, +-e_i +- e_j for i < j, and with `long` the 2e_i
    of C_m too, as exponent vectors of length m."""
    def vector(*pairs):
        e = [0] * m
        for i, x in pairs:
            e[i] += x
        return tuple(e)

    roots = Counter(vector((i, s), (j, r)) for i, j in itertools.combinations(range(m), 2)
                    for s in (1, -1) for r in (1, -1))
    if long:
        roots.update(vector((i, s * 2)) for i in range(m) for s in (1, -1))
    return roots


@lru_cache(maxsize=None)
def _alternant_shape(space: SpaceDescriptor, variant: str):
    """What the closed form reads off the integrand description of (space,
    variant), or None when it is no alternant one: (names, ones, shifts,
    sign, rho).  The scalar must be 1 and a class's orbit every permutation
    of the z's.  The weights, in the z's alone, must be a positive system of
    C_m (with a long root 2e_i; sign -1) or D_m (sign 1): with their
    negatives every root once, and rho, half their sum, positive on each.
    Then bracket(weights) = sum_w det(w) z^(w rho - rho) over the signed
    permutations w (even sign changes on D_m).  The ambient must be the
    pairs t, 1/t of the variables named and `ones` characters 1, and every
    z_i must take the same product p(z_i) of extras with integer
    coefficients, shifts being p's (degree, coefficient) pairs."""
    scalar, weights, extras, ambient = _integrand_parts(space, variant)
    m = space.residue_count()
    if space.symmetry_runs() != ((0, m, False),) or scalar != 1 \
            or any(any(a.exps[m:]) for a in weights) or any(any(a.exps[:m]) for a in ambient):
        return None
    positive = [a.exps[:m] for a in weights]
    long = any(2 in map(abs, e) for e in positive)
    rho = tuple(sum(col) // 2 for col in zip(*positive)) if positive else (0,) * m
    if Counter(positive) + Counter(tuple(-x for x in e) for e in positive) \
            != _root_system(m, long) \
            or any(sum(map(int.__mul__, rho, e)) <= 0 for e in positive):
        return None
    moved = Counter(a.exps for a in ambient if not a.is_one)
    variables = [k for k in range(m, len(space.table())) if any(e[k] for e in moved)]
    pairs = Counter(tuple(s * (k == j) for k in range(len(space.table())))
                    for j in variables for s in (1, -1))
    if moved != pairs:
        return None
    products = [LaurentPolynomial.one(space.table())] * m
    for extra in extras:
        zs = {i for key in extra.terms for i, x in enumerate(key) if x}
        if len(zs) != 1 or not zs <= set(range(m)):
            return None
        i, = zs
        products[i] = products[i] * extra
    shifts = {tuple(sorted((key[i], c) for key, c in p.terms.items()))
              for i, p in enumerate(products)}
    if len(shifts) != 1 or any(type(c) is not int for _, c in min(shifts)):
        return None
    names = tuple(space.table().names[k] for k in variables)
    return names, sum(a.is_one for a in ambient), min(shifts), -1 if long else 1, rho


@lru_cache(maxsize=None)
def _invariant_table(count: int) -> VariableTable:
    """e1..e_count, the elementary symmetric functions of u_j = t_j + 1/t_j."""
    return parameter_table(*(f"e{k + 1}" for k in range(count)))


@lru_cache(maxsize=None)
def _ambient_denominator(count: int, ones: int) -> tuple:
    """The coefficients, lowest degree first, of D(z) = (1 - z)^ones *
    prod_j (1 - z t_j)(1 - z/t_j) over j = 1..count, as polynomials in the
    e_k: prod_j (1 - u_j z + z^2) = sum_k (-1)^k e_k z^k (1 + z^2)^(count - k)."""
    table = _invariant_table(count)
    zero = LaurentPolynomial.zero(table)
    coeffs = [zero] * (2 * count + 1)
    for k in range(count + 1):
        e = LaurentPolynomial.variable(table, f"e{k}") if k else LaurentPolynomial.one(table)
        for i in range(count - k + 1):
            coeffs[k + 2 * i] = coeffs[k + 2 * i] + e.scale((-1) ** k * math.comb(count - k, i))
    for _ in range(ones):  # times 1 - z
        coeffs = [a - b for a, b in zip(coeffs + [zero], [zero] + coeffs)]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _inverse_series(count: int, ones: int, reverse: bool, size: int) -> tuple:
    """The first `size` coefficients (size a power of two) of the power
    series 1/D(z), or with `reverse` of 1/D*(z), D* = z^deg D(1/z) the
    reversal, whose constant term is (-1)^ones: the first half is the cached
    series of size/2, so no call recurses more than log2(size) levels."""
    d = _ambient_denominator(count, ones)[::-1 if reverse else 1]
    unit = (-1) ** ones if reverse else 1  # d[0], its own inverse
    if size == 1:
        return (LaurentPolynomial.constant(d[0].table, unit),)
    out = list(_inverse_series(count, ones, reverse, size // 2))
    for n in range(len(out), size):
        acc: dict = {}
        for k in range(1, min(n, len(d) - 1) + 1):
            add_terms(acc, (d[k] * out[n - k]).terms.items(), -unit)
        out.append(LaurentPolynomial(d[0].table, acc, _canonical=True))
    return tuple(out)


@lru_cache(maxsize=None)
def _one_variable_residue(count: int, ones: int, c: int) -> LaurentPolynomial:
    """F(c), the residue at 0 plus at infinity of z^c/D(z) dz/z in the e_k:
    [z^-c] 1/D(z) - [z^(c - deg D)] 1/D*(z).  The one-variable residue of
    the ambient (count, ones), as `g2core.gr27_orbit_class` takes F."""
    deg = 2 * count + ones
    value = LaurentPolynomial.zero(_invariant_table(count))
    for reverse, n in ((False, -c), (True, c - deg)):
        if n >= 0:
            term = _inverse_series(count, ones, reverse, 1 << n.bit_length())[n]
            value = value - term if reverse else value + term
    return value


@lru_cache(maxsize=None)
def _alternant_row(shape: tuple, a: int, i: int) -> tuple:
    """Row i of the matrix G(m) at m_i = a: G_ij = E(a + rho_j - rho_i) +
    sign * E(a - rho_j - rho_i), the second term left out where rho_j = 0,
    with E(c) the sum of coefficient * F(c + degree) over the shifts."""
    names, ones, shifts, sign, rho = shape
    row = []
    for r in rho:
        acc: dict = {}
        for s, pm in ((r, 1), (-r, sign))[:2 if r else 1]:
            for d, coeff in shifts:
                add_terms(acc, _one_variable_residue(len(names), ones, a + s - rho[i] + d)
                          .terms.items(), pm * coeff)
        row.append(LaurentPolynomial(_invariant_table(len(names)), acc, _canonical=True))
    return tuple(row)


@lru_cache(maxsize=None)
def _alternant_minor(shape: tuple, exps: tuple, mask: int) -> LaurentPolynomial:
    """In the e_k, the sum over the orderings m of the multiset exps (sorted)
    of the minor of G(m) on its first len(exps) rows and the columns in
    mask, expanded along its last row: the class value is the minor of the
    whole multiset and every column.  Minors are shared by every member and
    every class whose first exponents form the same multiset, so no member
    costs more than the n*2^(n-1) products of its own subset recursion."""
    table = _invariant_table(len(shape[0]))
    if not exps:
        return LaurentPolynomial.one(table)
    acc: dict = {}
    for v, a in enumerate(exps):
        if v and a == exps[v - 1]:
            continue
        rest = exps[:v] + exps[v + 1:]
        row = _alternant_row(shape, a, len(rest))
        for j, entry in enumerate(row):
            if mask >> j & 1 and entry.terms:
                minor = _alternant_minor(shape, rest, mask & ~(1 << j))
                add_terms(acc, (entry * minor).terms.items(), (-1) ** (mask >> j + 1).bit_count())
    return LaurentPolynomial(table, acc, _canonical=True)


@lru_cache(maxsize=None)
def _invariant_generators(table: VariableTable, names: tuple) -> tuple:
    """e_0(u)..e_n(u) over table, u_j = t_j + 1/t_j for the n t_j named."""
    e = [LaurentPolynomial.one(table)]
    for name in names:
        u = LaurentPolynomial.variable(table, name) + LaurentPolynomial.variable(table, name, -1)
        e = [e[0]] + [e[i] + u * e[i - 1] for i in range(1, len(e))] + [u * e[-1]]
    return tuple(e)


def _invariant_value(table: VariableTable, names: tuple, terms: list,
                     k: int = 0) -> LaurentPolynomial:
    """The polynomial sum(c * e^exps) over the (exps, c) in terms, in e_(k+1)..
    e_n only, at e_i = e_i(u) over table: Horner's rule in e_(k+1), each
    coefficient in turn in e_(k+2) and so on, so that every product is by
    one e_i(u) and no call recurses more than n levels."""
    if k == len(names) or not terms:
        return LaurentPolynomial.constant(table, sum(c for _, c in terms))
    generator = _invariant_generators(table, names)[k + 1]
    by_power: dict = {}
    for exps, c in terms:
        by_power.setdefault(exps[k], []).append((exps, c))
    value = LaurentPolynomial.zero(table)
    for a in range(max(by_power), -1, -1):
        value = value * generator
        if a in by_power:
            value = value + _invariant_value(table, names, by_power[a], k + 1)
    return value


# -- cached per-space calculators ------------------------------------------------


class _SpaceCalc:
    """The push-forward machinery of one space: its Demazure chain, its
    symmetry runs, and four memos, each an `lru_cache` keyed on the
    calculator: the orbit of a canonical class, the prepared integrand of a
    variant, and a class's localization and residue values.  The caches live
    on the class, not on the instance, so that a wrapper the benchmark's
    tracer binds to `loc_class_value` or `res_class_value` sees every call;
    a new calculator starts cold.  So `_calc.cache_clear()` alone does not
    free the memos: each one keeps its calculators and their values until
    it is cleared too."""

    def __init__(self, space: SpaceDescriptor):
        self.space = space
        self.table = space.table()
        self.m = space.residue_count()
        self.engine = LocalizationEngine(space)
        self.runs = space.symmetry_runs()

    def canonical(self, zexps: tuple) -> tuple:
        """The largest exponent vector in the orbit of zexps: each run sorted
        descending, a signed run by absolute value."""
        out = list(zexps)
        for start, stop, signed in self.runs:
            run = zexps[start:stop]
            out[start:stop] = sorted(map(abs, run) if signed else run, reverse=True)
        return tuple(out)

    @lru_cache(maxsize=None)
    def orbit(self, canon: tuple) -> tuple:
        """The members of the orbit of canon, as exponent vectors over the
        table, listed once per class: the orbit's size, its sum and the
        members a residue takes are all read off this tuple."""
        orbit = [canon]
        for start, stop, signed in self.runs:
            images = set(itertools.permutations(canon[start:stop]))
            if signed:
                images = {tuple(s * e for s, e in zip(signs, image)) for image in images
                          for signs in itertools.product((1, -1), repeat=stop - start)}
            orbit = [e[:start] + image + e[stop:] for e in orbit for image in images]
        pad = (0,) * (len(self.table) - self.m)
        return tuple(e + pad for e in orbit)

    def orbit_sum(self, canon: tuple) -> LaurentPolynomial:
        return LaurentPolynomial(self.table, dict.fromkeys(self.orbit(canon), 1))

    def decompose(self, f: LaurentPolynomial) -> dict:
        """f as {canonical class: coefficient}, the classes being the orbit sums
        of monomials in the leading variables of f's table (the space's z's,
        or the Chern roots of a cohomology class), and each coefficient a
        polynomial in f's other variables, over f's own table.  Raises
        SymmetryViolation unless each orbit appears whole with one coefficient."""
        m = self.m
        groups: dict = {}
        for key, c in f.terms.items():
            groups.setdefault((self.canonical(key[:m]), key[m:]), []).append(c)
        pad = (0,) * m
        out: dict = {}
        for (canon, rest), coeffs in groups.items():
            # The group's members are distinct members of one orbit, so it is
            # the whole orbit with one coefficient iff `size` of them share one.
            size = len(self.orbit(canon))
            if coeffs.count(coeffs[0]) != size:
                problem = (f"{len(coeffs)} of its {size} terms" if len(coeffs) != size
                           else "unequal coefficients")
                raise SymmetryViolation(
                    f"class is not invariant under the {self.space.key()} symmetry: the orbit "
                    f"of {Monomial(f.table, canon + rest).render()} has {problem}")
            out.setdefault(canon, {})[pad + rest] = coeffs[0]
        return {canon: LaurentPolynomial(f.table, terms, _canonical=True)
                for canon, terms in out.items()}

    def pushforward(self, f: LaurentPolynomial, class_value):
        """The sum of coefficient * class_value(canonical class) over the
        decomposition of f: a push-forward is linear over the coefficients.
        The terms of all the products are added into one dict."""
        acc: dict = {}
        for canon, coeff in self.decompose(f).items():
            add_terms(acc, (coeff * class_value(canon)).terms.items())
        return LaurentPolynomial(f.table, acc)

    @lru_cache(maxsize=None)
    def loc_class_value(self, canon: tuple) -> LaurentPolynomial:
        return self.engine.sum_values(self.orbit_sum(canon))

    @lru_cache(maxsize=None)
    def integrand(self, variant: str) -> PreparedForm:
        """The integrand of variant with its measure, prepared once."""
        return PreparedForm(_integrand_form(_integrand_parts(self.space, variant), self.m))

    @lru_cache(maxsize=None)
    def res_class_value(self, canon: tuple, variant: str) -> LaurentPolynomial:
        """The residue of orbit_sum(canon) * base.  A symmetric integrand
        takes |orbit| times the residue of the smallest member on the
        kernel: its runs ascend (no run is signed), iterated_residue takes
        the last variable first, and the larger its exponent, the fewer
        layers its residue at 0 builds.  An alternant one sums its
        determinants over the orbit in the e_k (the full minor of the
        multiset canon) and maps the sum to the t's once.  Any other takes
        every member, each an integer shift of the packed base."""
        members = self.orbit(canon)
        if _integrand_symmetric(self.space, variant):
            return iterated_residue(self.integrand(variant), [min(members)], len(members))
        shape = _alternant_shape(self.space, variant)
        if shape is not None:
            value = _alternant_minor(shape, tuple(sorted(canon)), (1 << self.m) - 1)
            return _invariant_value(self.table, shape[0], list(value.terms.items()))
        return iterated_residue(self.integrand(variant), members, 1)


@lru_cache(maxsize=None)
def _calc(space: SpaceDescriptor) -> _SpaceCalc:
    return _SpaceCalc(space)


def localization_pushforward(space: SpaceDescriptor, f: LaurentPolynomial) -> LaurentPolynomial:
    """Sum of f(point)/bracket(tangent) over the fixed points, simplified exactly."""
    calc = _calc(space)
    return calc.pushforward(f, calc.loc_class_value)


def residue_pushforward(space: SpaceDescriptor, f: LaurentPolynomial,
                        variant: str = "full") -> LaurentPolynomial:
    """Iterated residue of the factored integrand; contracts to equal the
    localization push-forward on every admissible class."""
    if variant not in space.variants():
        raise ValueError(f"invalid variant {variant!r} for {space.key()}")
    calc = _calc(space)
    return calc.pushforward(f, lambda canon: calc.res_class_value(canon, variant))
