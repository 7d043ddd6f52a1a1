"""Homogeneous-space catalogue with the two push-forward paths.

Every space provides one base fixed point (the substitution z_i -> t_i with
its tangent characters), the simple reflections of its Weyl group and a
factored residue integrand.  The localization push-forward is the sum of
f(point)/bracket(tangent) over the fixed points; it is computed exactly as a
Demazure chain of isobaric divided differences from the base point (see
LocalizationEngine), so the other fixed points are never listed.  The residue
push-forward runs the iterated-residue engine on the integrand.  The central
contract is that the two agree on every admissible class.

The symmetry of admissible classes is declared once per kind, in
SpaceDescriptor.symmetry_runs; the generators, the sorted orbit classes and
the check in _SpaceCalc.decompose, which every push-forward runs, derive from
it.  Both paths are linear, so values are cached per orbit class; the caches
are observationally pure.

The residue of an orbit class needs one member of the orbit when the
integrand is symmetric: if every symmetry generator maps the base numerator
and the multiset of denominator monomials of a (space, variant) to
themselves (`_integrand_symmetric`, decided once), then
Res(orbit_sum(c) * base) = |orbit(c)| * Res(z^c' * base) for any member c'.
That holds for the full gr and gr2 formulas, lg, ogE and both ogO
variants, and trivially for fl, g2b and gr:1,n, whose orbits have one
member.  The compact gr and gr2 bases (pos_roots), q and g2p2 are not
symmetric and keep the orbit sum; q's inversion z -> 1/z moves the factors
and the measure anyway.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property, lru_cache

from .algebra import (Frozen, InvariantError, LaurentPolynomial, Monomial, NotDivisible,
                      VariableTable, exact_divide_many, rational, zt_table)
# Nothing here raises it; kept only because perfbench/test_perfbench.py
# raises `spaces.NotPolynomial`.
from .algebra import NotPolynomial  # noqa: F401
from .characters import (CharacterList, bracket, lambda_set, pairwise_product,
                         pos_roots, quotient_set, roots, standard_sets, sym_set)
from .residue import ResidueForm, iterated_residue, make_form
from . import g2core

_KINDS = ("gr", "gr2", "lg", "ogE", "ogO", "fl", "q", "g2p2", "g2b")


class SymmetryViolation(ValueError):
    """The class handed to a push-forward lacks the required symmetry."""


class SpaceDescriptor(Frozen):
    """One of the catalogue spaces, with its integer parameters."""

    __slots__ = ("kind", "m", "n")

    def __init__(self, kind: str, m: int = 0, n: int = 0):
        if kind not in _KINDS:
            raise ValueError(f"unknown space kind {kind!r}")
        if kind in ("gr", "gr2"):
            if not (1 <= m < n):
                raise ValueError("need 1 <= m < n")
        elif kind in ("lg", "ogE", "ogO", "fl"):
            if n < 1:
                raise ValueError("need n >= 1")
        elif kind == "q":
            if n < 2:
                raise ValueError("the quadric needs n >= 2")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def _key(self) -> tuple:
        return (self.kind, self.m, self.n)

    def __repr__(self):
        return f"SpaceDescriptor(kind={self.kind!r}, m={self.m!r}, n={self.n!r})"

    def key(self) -> str:
        if self.kind in ("gr", "gr2"):
            return f"{self.kind}:{self.m},{self.n}"
        if self.kind in ("lg", "ogE", "ogO", "fl", "q"):
            return f"{self.kind}:{self.n}"
        return self.kind

    def residue_count(self) -> int:
        if self.kind == "gr":
            return self.m
        if self.kind in ("gr2", "fl", "lg", "ogE", "ogO", "q"):
            return self.n
        return 2

    def parameter_count(self) -> int:
        if self.kind in ("g2p2", "g2b"):
            return 2
        return self.n

    def table(self) -> VariableTable:
        return zt_table(self.residue_count(), self.parameter_count())

    def dimension(self) -> int:
        k, m, n = self.kind, self.m, self.n
        if k in ("gr", "gr2"):
            return m * (n - m)
        if k == "lg":
            return n * (n + 1) // 2
        if k == "ogE":
            return n * (n - 1) // 2
        if k == "ogO":
            return n * (n + 1) // 2
        if k == "fl":
            return n * (n - 1) // 2
        if k == "q":
            return 2 * n - 2
        return 5 if k == "g2p2" else 6

    def variants(self) -> tuple:
        return ("full", "compact") if self.kind in ("gr", "gr2", "ogO") else ("full",)

    def symmetry_runs(self) -> tuple:
        """The symmetry an admissible class must have, as (start, stop, signed)
        runs of the positions z_(start+1)..z_stop: each run is permuted, and a
        signed run's variables are also inverted.  z's outside every run are free."""
        k, m, n = self.kind, self.m, self.n
        if k == "gr":
            return ((0, m, False),)
        if k == "gr2":
            return ((0, m, False), (m, n, False))
        if k in ("lg", "ogE", "ogO"):
            return ((0, n, False),)
        if k == "q":
            return ((1, n, True),)
        if k == "g2p2":
            return ((0, 2, False),)
        return ()  # fl, g2b


def parse_space(text: str) -> SpaceDescriptor:
    """Parse the compact grammar: gr:2,7  gr2:2,4  lg:3  ogE:4  ogO:3  fl:4  q:3  g2p2  g2b."""
    body = text.strip()
    if ":" not in body:
        return SpaceDescriptor(body)
    kind, _, params = body.partition(":")
    if kind in ("g2p2", "g2b"):
        raise ValueError(f"{kind} takes no parameters, got {params!r}")
    fields = params.split(",")
    if "" in fields:
        raise ValueError(f"empty parameter in {text!r}")
    nums = [int(p) for p in fields]
    if kind in ("gr", "gr2"):
        if len(nums) != 2:
            raise ValueError(f"{kind} takes two parameters, got {params!r}")
        return SpaceDescriptor(kind, nums[0], nums[1])
    if len(nums) != 1:
        raise ValueError(f"{kind} takes one parameter, got {params!r}")
    return SpaceDescriptor(kind, n=nums[0])


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
    out = LaurentPolynomial.zero(table)
    for name, e in zip(char.table.names, char.exps):
        if e:
            out = out + LaurentPolynomial.variable(table, name).scale(e)
    return out


def _substitute_linear(g: LaurentPolynomial, images: dict, table: VariableTable):
    """g over `table`, the variables in `images` replaced, the others kept by name."""
    mapping = {name: LaurentPolynomial.variable(table, name)
               for name in g.occurring_variables() if name not in images}
    mapping.update(images)
    return g.substitute_polynomials(mapping, target=table)


def _additive_action(s: dict, table: VariableTable):
    """s acting on polynomials in the additive weights, t -> log(s(t)).  A
    permutation of the variables stays a monomial substitution."""
    if all(max(img.exps) == 1 == sum(map(abs, img.exps)) for img in s.values()):
        return lambda g: g.substitute_monomials(s, partial=True)
    images = {name: log(img, table) for name, img in s.items()}
    return lambda g: _substitute_linear(g, images, table)


def _simple_reflections(space: SpaceDescriptor) -> list:
    """(substitution on the parameters, simple-root character a with s(a) = 1/a)
    for each simple reflection s of the space's Weyl group."""
    table = space.table()
    if space.kind in ("g2p2", "g2b"):
        long_root = Monomial.of(table, t1=1, t2=-2)
        # The order-two rotation -1 also inverts this root; only a reflection
        # fixes its kernel, so take the reflection that inverts it.
        reflection = next(w for w in g2core.weyl_group()[6:]
                          if long_root.substitute(w) == long_root.inverse())
        return [(g2core.swap_map(), Monomial.of(table, t1=-1, t2=1)),
                (reflection, long_root)]
    n = space.parameter_count()
    ts = standard_sets("T", n, table)
    out = [({f"t{i + 1}": ts[i + 1], f"t{i + 2}": ts[i]}, ts[i + 1] / ts[i])
           for i in range(n - 1)]
    if space.kind == "lg":
        out.append(({f"t{n}": ts[-1].inverse()}, ts[-1] ** -2))
    elif space.kind == "ogO":
        out.append(({f"t{n}": ts[-1].inverse()}, ts[-1].inverse()))
    elif space.kind in ("ogE", "q") and n >= 2:
        out.append(({f"t{n - 1}": ts[-1].inverse(), f"t{n}": ts[-2].inverse()},
                    (ts[-2] * ts[-1]).inverse()))
    return out


def _base_tangent(space: SpaceDescriptor) -> CharacterList:
    """Tangent characters at the base fixed point z_i -> t_i."""
    k, m = space.kind, space.m
    if k == "g2p2":
        return g2core.quotient_identity_tangent()
    if k == "g2b":
        return g2core.borel_identity_tangent()
    ts = standard_sets("T", space.parameter_count(), space.table())
    inverses = ts.inverse()
    if k in ("gr", "gr2"):  # t_j/t_i with i <= m < j
        return quotient_set(CharacterList(ts.entries[m:]), CharacterList(ts.entries[:m]))
    if k == "lg":
        return sym_set(inverses)
    if k == "ogE":
        return lambda_set(inverses)
    if k == "ogO":
        return lambda_set(inverses) + inverses
    if k == "fl":
        return pos_roots(inverses)
    # q: x/t1 over t2..tn and their inverses
    others = CharacterList(ts.entries[1:])
    return quotient_set(others + others.inverse(), CharacterList(ts.entries[:1]))


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
    whole sum is ever built.
    """

    def __init__(self, space: SpaceDescriptor):
        self.table = table = space.table()
        # The base point z_i -> t_i (for the isotropic Grassmannians the point
        # with every t_i inside, whose stabilizer permutes the z's).
        ts = standard_sets("T", space.parameter_count(), table)
        self.base = {f"z{i + 1}": ts[i] for i in range(space.residue_count())}
        tangent = _base_tangent(space).entries
        dim = space.dimension()
        if len(tangent) != dim or any(c.is_one for c in tangent):
            raise InvariantError(f"{space.key()}: the base tangent is not {dim} nontrivial "
                                 f"characters")
        reflections = _simple_reflections(space)
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
        # The fixed points of the even orthogonal Grassmannian form two
        # components; t_n -> 1/t_n carries the base component to the other.
        tn = f"t{space.parameter_count()}"
        self.other_component = ({tn: Monomial.of(table, **{tn: -1})}
                                if space.kind == "ogE" else None)

    def sum_values(self, f: LaurentPolynomial) -> LaurentPolynomial:
        """Sum of f(point)/bracket(tangent) over the fixed points, for an
        admissible class f (its base-point value is then W_P-invariant)."""
        value = f.substitute_monomials(self.base, partial=True)
        for s, a_inv, divisor in self.steps:
            numerator = value + value.substitute_monomials(s, partial=True).mul_monomial(a_inv, -1)
            try:
                value = exact_divide_many(numerator, [divisor])
            except NotDivisible:
                raise InvariantError("a divided difference is not a Laurent polynomial") from None
        if self.other_component is not None:
            value = value + value.substitute_monomials(self.other_component, partial=True)
        return value

    @cached_property
    def additive_steps(self) -> list:
        """The cohomological chain on the same word: (s_i acting additively, log a_i)."""
        return [(_additive_action(s, self.table), -log(a_inv, self.table))
                for s, a_inv, _ in self.steps]

    def additive_sum(self, f: LaurentPolynomial) -> LaurentPolynomial:
        """Cohomological sum of f(point)/prod(log tangent) over the fixed points,
        for an admissible class f whose z's stand for the Chern roots
        x_k = -log z_k (at a two-plane with additive weights (a, b) the roots
        are (-a, -b)).  The base value runs through the additive chain
        (g - s_i g)/log a_i on the same reduced word.  The cohomology module
        calls it on g2p2 and gr:2,7; on ogE it would miss the second component."""
        table = self.table
        value = _substitute_linear(f, {z: -log(img, table) for z, img in self.base.items()}, table)
        for act, divisor in self.additive_steps:
            value = exact_divide_many(value - act(value), [divisor])
        return value


@lru_cache(maxsize=None)
def _integrand_parts(space: SpaceDescriptor, variant: str):
    """(scalar, base numerator, denominator monomials, residue variables)."""
    if variant not in space.variants():
        raise ValueError(f"invalid variant {variant!r} for {space.key()}")
    table = space.table()
    k, m, n = space.kind, space.m, space.n
    mres = space.residue_count()
    zlist = standard_sets("Z", mres, table)
    one = LaurentPolynomial.one(table)

    if k in ("gr", "gr2"):
        ambient = standard_sets("T", n, table)
    elif k in ("lg", "ogE", "q"):
        ambient = standard_sets("T_pm", n, table)
    elif k == "ogO":
        ambient = standard_sets("T_sharp" if variant == "full" else "T_pm", n, table)
    elif k == "fl":
        ambient = standard_sets("T", n, table)
    else:
        ambient = g2core.seven_weights()  # g2 table coincides with the space table

    denominator = tuple(z / tau for z in zlist for tau in ambient)

    if k == "gr":
        if variant == "full":
            scalar = rational(1, math.factorial(m))
            numerator = bracket(roots(zlist), table)
        else:
            scalar = 1
            numerator = bracket(pos_roots(zlist), table)
    elif k == "gr2":
        if variant == "full":
            scalar = rational(1, math.factorial(m) * math.factorial(n - m))
            z1part = CharacterList(zlist.entries[:m])
            z2part = CharacterList(zlist.entries[m:])
            numerator = bracket(roots(z1part), table) \
                * bracket(quotient_set(z1part, z2part), table) \
                * bracket(roots(z2part), table)
        else:
            scalar = 1
            numerator = bracket(pos_roots(zlist), table)
    elif k == "lg":
        scalar = rational(1, math.factorial(n))
        numerator = bracket(lambda_set(zlist.inverse()), table) * bracket(roots(zlist), table)
    elif k == "ogE":
        scalar = rational(1, math.factorial(n))
        numerator = bracket(sym_set(zlist.inverse()), table) * bracket(roots(zlist), table)
    elif k == "ogO":
        scalar = rational(1, math.factorial(n))
        if variant == "full":
            numerator = bracket(sym_set(zlist.inverse()), table) * bracket(roots(zlist), table)
        else:
            numerator = bracket(lambda_set(zlist.inverse()), table)
            for z in zlist:
                numerator = numerator * (one + z.as_polynomial())
            numerator = numerator * bracket(roots(zlist), table)
    elif k == "fl":
        scalar = 1
        numerator = bracket(pos_roots(zlist), table)
    elif k == "q":
        scalar = rational(1, 2 ** (n - 1))
        z2part = CharacterList(zlist.entries[1:])
        numerator = (one - Monomial.of(table, z1=2).as_polynomial()) \
            * bracket(pairwise_product(zlist.inverse(), z2part.inverse()), table) \
            * bracket(pos_roots(zlist), table)
    else:  # g2p2, g2b share the ambient-Grassmannian formula
        scalar = 1
        lift = g2core.fundamental_class_lift().transport(table)
        numerator = lift * bracket(pos_roots(zlist), table)

    zvars = tuple(f"z{i + 1}" for i in range(mres))
    return scalar, numerator, denominator, zvars


@lru_cache(maxsize=None)
def _integrand_symmetric(space: SpaceDescriptor, variant: str) -> bool:
    """Whether every `symmetry_generators` substitution maps the integrand of
    (space, variant) to itself: the base numerator (checked like a class) and
    the multiset of denominator monomials.  A permutation of the z's also
    keeps the dlog measure, and the iterated residue does not depend on the
    order of the variables, so a class's residue is then |orbit| times that
    of one orbit member.  An inversion z -> 1/z never qualifies: every
    factor monomial has a positive residue exponent, so none maps to a
    factor (and the measure changes sign)."""
    _, base, denominator, _ = _integrand_parts(space, variant)
    factors = Counter(m.exps for m in denominator)
    for s in symmetry_generators(space):
        if Counter(m.substitute(s).exps for m in denominator) != factors:
            return False
    try:
        check_symmetry(space, base)
    except SymmetryViolation:
        return False
    return True


def build_integrand(space: SpaceDescriptor, f: LaurentPolynomial,
                    variant: str = "full") -> ResidueForm:
    """The factored residue integrand for a class f (measure absorbed)."""
    check_symmetry(space, f)
    scalar, base, denominator, zvars = _integrand_parts(space, variant)
    return make_form(f * base, denominator, zvars, scalar=scalar, dlog=True)


# -- cached per-space calculators ------------------------------------------------


class _SpaceCalc:
    def __init__(self, space: SpaceDescriptor):
        self.space = space
        self.table = space.table()
        self.m = space.residue_count()
        self.names = tuple(f"z{i + 1}" for i in range(self.m))
        self.engine = LocalizationEngine(space)
        self.runs = space.symmetry_runs()
        self.loc_values: dict = {}
        self.res_values: dict = {}

    def canonical(self, zexps: tuple) -> tuple:
        """The largest exponent vector in the orbit of zexps: each run sorted
        descending, a signed run by absolute value."""
        out = list(zexps)
        for start, stop, signed in self.runs:
            run = zexps[start:stop]
            out[start:stop] = sorted(map(abs, run) if signed else run, reverse=True)
        return tuple(out)

    def orbit_size(self, canon: tuple) -> int:
        """The number of members of the orbit of canon, from the multiplicities
        of each run's exponents."""
        size = 1
        for start, stop, signed in self.runs:
            run = canon[start:stop]
            size *= math.factorial(len(run))
            for count in Counter(run).values():
                size //= math.factorial(count)
            if signed:
                size <<= len(run) - run.count(0)
        return size

    def orbit_sum(self, canon: tuple) -> LaurentPolynomial:
        orbit = [canon]
        for start, stop, signed in self.runs:
            images = set(itertools.permutations(canon[start:stop]))
            if signed:
                images = {tuple(s * e for s, e in zip(signs, image)) for image in images
                          for signs in itertools.product((1, -1), repeat=stop - start)}
            orbit = [e[:start] + image + e[stop:] for e in orbit for image in images]
        pad = (0,) * (len(self.table) - self.m)
        return LaurentPolynomial(self.table, {e + pad: 1 for e in orbit})

    def decompose(self, f: LaurentPolynomial, names: tuple = None) -> dict:
        """f as {canonical class: coefficient}, the classes being the orbit sums
        of monomials in the auxiliary variables `names` (by default the space's
        z's), which lead f's table, and each coefficient a polynomial in f's
        other variables, over f's own table.  Raises SymmetryViolation unless
        each orbit appears whole with one coefficient."""
        names = names or self.names
        zn = len(names)
        if f.table.names[:zn] != names:
            raise ValueError(f"the class variables {names} do not lead {f.table.names}")
        groups: dict = {}
        for key, c in f.terms.items():
            groups.setdefault((self.canonical(key[:zn]), key[zn:]), []).append(c)
        pad = (0,) * zn
        out: dict = {}
        for (canon, rest), coeffs in groups.items():
            # The group's members are distinct members of one orbit, so it is
            # the whole orbit with one coefficient iff `size` of them share one.
            size = self.orbit_size(canon)
            if coeffs.count(coeffs[0]) != size:
                problem = (f"{len(coeffs)} of its {size} terms" if len(coeffs) != size
                           else "unequal coefficients")
                raise SymmetryViolation(
                    f"class is not invariant under the {self.space.key()} symmetry: the orbit "
                    f"of {Monomial(f.table, canon + rest).render()} has {problem}")
            out.setdefault(canon, {})[pad + rest] = coeffs[0]
        return {canon: LaurentPolynomial(f.table, terms, _canonical=True)
                for canon, terms in out.items()}

    def pushforward(self, f: LaurentPolynomial, class_value, names: tuple = None):
        """The sum of coefficient * class_value(canonical class) over the
        decomposition of f: a push-forward is linear over the coefficients."""
        total = LaurentPolynomial.zero(f.table)
        for canon, coeff in self.decompose(f, names).items():
            total = total + coeff * class_value(canon)
        return total

    def loc_class_value(self, canon: tuple) -> LaurentPolynomial:
        got = self.loc_values.get(canon)
        if got is None:
            got = self.engine.sum_values(self.orbit_sum(canon))
            self.loc_values[canon] = got
        return got

    def res_class_value(self, canon: tuple, variant: str) -> LaurentPolynomial:
        key = (canon, variant)
        got = self.res_values.get(key)
        if got is None:
            scalar, base, denominator, zvars = _integrand_parts(self.space, variant)
            if _integrand_symmetric(self.space, variant):
                # The orbit member whose runs ascend: iterated_residue takes
                # the last variable first, and the larger its exponent, the
                # fewer layers its residue at 0 builds.
                rep = list(canon) + [0] * (len(self.table) - self.m)
                for start, stop, _ in self.runs:
                    rep[start:stop] = canon[start:stop][::-1]
                numerator = base.mul_monomial(Monomial(self.table, tuple(rep)))
                scalar = scalar * self.orbit_size(canon)
            else:
                numerator = self.orbit_sum(canon) * base
            got = iterated_residue(make_form(numerator, denominator, zvars, scalar=scalar))
            self.res_values[key] = got
        return got


_CALCS: dict = {}


def _calc(space: SpaceDescriptor) -> _SpaceCalc:
    got = _CALCS.get(space.key())
    if got is None:
        got = _SpaceCalc(space)
        _CALCS[space.key()] = got
    return got


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
