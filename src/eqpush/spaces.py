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
other fixed points are never listed.  The residue push-forward runs the iterated-residue engine on
the integrand, prepared once per (space, variant) (`residue.PreparedForm`):
an orbit member of a class is one integer shift of its packed base.  The
central contract is that the two agree on every admissible class.

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
positive-root weights (pos_roots) of lg, ogE, ogO and the compact gr and
gr2 formulas, and g2p2's, are not symmetric, and q's inversion z -> 1/z
moves the factors and the measure, so these keep the orbit sum.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property, lru_cache

from .algebra import (Frozen, InvariantError, LaurentPolynomial, Monomial, NotDivisible,
                      VariableTable, add_terms, exact_divide_many, rational, zt_table)
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
    (1 - z_i/z_j), the paper's bracket(roots(z))."""
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
        # The residue of orbit_sum(canon) * base, as integer shifts of the
        # packed base: every member, or for a symmetric integrand |orbit|
        # times the smallest, whose runs ascend (no run is signed):
        # iterated_residue takes the last variable first, and the larger its
        # exponent, the fewer layers its residue at 0 builds.
        members, scalar = self.orbit(canon), 1
        if _integrand_symmetric(self.space, variant):
            members, scalar = [min(members)], len(members)
        return iterated_residue(self.integrand(variant), members, scalar)


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
