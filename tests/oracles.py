"""Test oracles for the push-forward engines, kept out of `src/`.

`fixed_points` enumerates every torus fixed point of a catalogue space with its
tangent characters, and `factored_rational_sum` adds the terms
numerator/prod(factors) over one common denominator and divides it out.
Together they give the literal fixed-point sum that the Demazure chain of
`eqpush.spaces` must reproduce.  `symmetry_orbit` walks the orbit of a
z-exponent vector under the symmetry generators, which the sorted orbit
classes of `eqpush.spaces` must reproduce.  `build_integrand` multiplies a
class into the expanded base numerator of a residue integrand, the one form
whose iterated residue the per-class shifts of `eqpush.spaces` must reproduce,
and `expanded_integrand_symmetric` decides on that expanded form whether a
class needs one orbit member, as `eqpush.spaces` decides on the weight lists.
`printed_class_value` is the residue of an orbit class over the lg, ogE or
ogO integrand as the paper prints it, with every root and scalar 1/n!, which
the positive-root integrands of `eqpush.spaces` must reproduce.
`weyl_group` lists the twelve substitutions of the G2 Weyl group, built from
the rotation and the swap, for the G2 fixed points.  `cut_ambient_value`
pushes a class times an Euler class (the cut) along an ambient
Grassmannian's Demazure chain and restricts the torus: the paper's
derivation of lg, ogE, ogO and q from type A, a path independent of their
own chains.  `ambient_chain_class` is its G2 case: an orbit class on gr:2,7,
no cut, then t_i -> the seven weights, the independent path for the closed
form of `eqpush.g2`.  `ambient_residue_class` is a third path: the residue
of the gr:2,7 integrand at the seven weights, run by the kernel of
`eqpush.residue`.  `additive_ambient_chain_class` is the chain's
cohomological twin, the additive gr:2,7 chain, then t_i -> the logs of the
seven weights: the independent path for the closed form of
`eqpush.cohomology`.
`log_moment` reads a K-theoretic value at t = e^(hy) order by order in h,
the paper's substitution that makes the cohomological integral the leading
term of the K-theoretic push-forward.
`ambient_matrix_by_pushforward` builds the G2 intersection matrix one entry at
a time, as the ambient push-forward of each product of two box classes: the
independent path for the Gram matrix over orbit values of `eqpush.g2`.
`bareiss_determinant` and `bareiss_solve` eliminate fraction-free
(Bareiss), with an exact division per entry and no need for unit pivots:
the independent path for `eqpush.elimination`.  `grothendieck_general` builds
the n-variable symmetric Grothendieck polynomial by isobaric divided
differences from the dominant monomial: the expected flag push-forward of
criterion 8, and the independent path for the rank-two closed form
`eqpush.polyfam.grothendieck_pair`.  `schur_character` is the Schur
polynomial as the bialternant A_(lam+delta)/A_delta: by Borel-Weil, the
push-forward of a Schur class of the dual tautological bundle on gr:m,n,
known without either push-forward path.  `symplectic_character` is its type
C twin, the Weyl character of Sp(2n) as a ratio of two determinants: the
push-forward of that Schur class on lg:n.  `orthogonal_character` is the
type B and D one, on ogO:n and ogE:n, both components of ogE counted.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from eqpush import g2, g2core, spaces
from eqpush.algebra import (InvariantError, LaurentPolynomial, Monomial, NotDivisible,
                            NotPolynomial, exact_divide, parameter_table, quotient, rational,
                            zt_table)
from eqpush.characters import inverses, lambda_set, pos_roots, roots, standard_sets, sym_set
from eqpush.cohomology import coh_table
from eqpush.polyfam import grothendieck_pair
from eqpush.residue import PreparedForm, ResidueForm, iterated_residue
from eqpush.spaces import (SpaceDescriptor, SymmetryViolation, _calc, check_symmetry,
                           localization_pushforward, symmetry_generators)


@dataclass(frozen=True)
class FixedPoint:
    """Substitution of the auxiliary variables plus the tangent weights."""

    subst: tuple  # pairs (variable name, Monomial)
    tangent: tuple  # Monomials

    def subst_map(self) -> dict:
        return dict(self.subst)


def _mono(**powers) -> Monomial:
    return Monomial.of(g2core.g2_table(), **powers)


@lru_cache(maxsize=None)
def rotation_map():
    """Order-6 substitution generating the rotation subgroup: t1 -> t2, t2 -> t2/t1."""
    return {"t1": _mono(t2=1), "t2": _mono(t2=1, t1=-1)}


def compose_maps(outer: dict, inner: dict) -> dict:
    """Substitution that applies `inner` first, then `outer`."""
    return {v: m.substitute(outer) for v, m in inner.items()}


def identity_map() -> dict:
    return {"t1": _mono(t1=1), "t2": _mono(t2=1)}


@lru_cache(maxsize=None)
def rotation_orbit() -> tuple:
    """The six powers of the rotation, identity first."""
    out = [identity_map()]
    for _ in range(5):
        out.append(compose_maps(rotation_map(), out[-1]))
    return tuple(out)


@lru_cache(maxsize=None)
def weyl_group() -> tuple:
    """All twelve substitutions of the dihedral Weyl group (rotations, then
    rotations composed with the swap)."""
    rots = rotation_orbit()
    refl = tuple(compose_maps(w, g2core.swap_map()) for w in rots)
    elems = rots + refl
    seen = {tuple(sorted((v, m.exps) for v, m in w.items())) for w in elems}
    if len(seen) != 12:
        raise RuntimeError("dihedral group enumeration produced duplicates")
    return elems


def _tvars(table, n):
    return [Monomial.of(table, **{f"t{i + 1}": 1}) for i in range(n)]


def _image(tangent: tuple, w) -> tuple:
    """The tangent characters under the Weyl-group element w (a substitution)."""
    return tuple(m.substitute(w) for m in tangent)


def fixed_points(space: SpaceDescriptor) -> list:
    """Fixed points of the torus action with their tangent characters."""
    table = space.table()
    k, m, n = space.kind, space.m, space.n
    pts = []
    if k in ("gr", "gr2"):
        ts = _tvars(table, n)
        for subset in itertools.combinations(range(n), m):
            inside = [ts[i] for i in subset]
            outside = [ts[i] for i in range(n) if i not in subset]
            tangent = tuple(b / a for a in inside for b in outside)
            if k == "gr":
                subst = tuple((f"z{i + 1}", inside[i]) for i in range(m))
            else:
                # Second block of variables takes the complement characters
                # uninverted; this is what makes the sum match both two-set
                # residue formulas.
                subst = tuple((f"z{i + 1}", inside[i]) for i in range(m)) + tuple(
                    (f"z{m + j + 1}", outside[j]) for j in range(n - m))
            pts.append(FixedPoint(subst, tangent))
    elif k in ("lg", "ogE", "ogO"):
        ts = _tvars(table, n)
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                inside = [ts[i] for i in subset]
                outside = [ts[i] for i in range(n) if i not in subset]
                args = inside + [b.inverse() for b in outside]
                mixed = inverses(inside) + tuple(outside)
                if k == "lg":
                    tangent = sym_set(mixed)
                elif k == "ogE":
                    tangent = lambda_set(mixed)
                else:
                    tangent = lambda_set(mixed) + mixed
                subst = tuple((f"z{i + 1}", args[i]) for i in range(n))
                pts.append(FixedPoint(subst, tangent))
    elif k == "fl":
        ts = _tvars(table, n)
        for sigma in itertools.permutations(range(n)):
            subst = tuple((f"z{i + 1}", ts[sigma[i]]) for i in range(n))
            tangent = pos_roots(inverses(ts[sigma[i]] for i in range(n)))
            pts.append(FixedPoint(subst, tangent))
    elif k == "q":
        ts = _tvars(table, n)
        plus_minus = ts + [t.inverse() for t in ts]
        for i in range(n):
            for eps in (1, -1):
                a = ts[i] if eps == 1 else ts[i].inverse()
                others = [ts[j] for j in range(n) if j != i]
                subst = ((f"z1", a),) + tuple(
                    (f"z{j + 2}", others[j]) for j in range(n - 1))
                rest = [x for pos, x in enumerate(plus_minus) if pos not in (i, n + i)]
                tangent = tuple(x / a for x in rest)
                pts.append(FixedPoint(subst, tangent))
    elif k == "g2p2":
        for w in rotation_orbit():
            subst = (("z1", w["t1"]), ("z2", w["t2"]))
            pts.append(FixedPoint(subst, _image(g2core.quotient_identity_tangent(), w)))
    else:  # g2b
        for w in weyl_group():
            subst = (("z1", w["t1"]), ("z2", w["t2"]))
            pts.append(FixedPoint(subst, _image(g2core.borel_identity_tangent(), w)))
    dim = space.dimension()
    for p in pts:
        if len(p.tangent) != dim:
            raise InvariantError(f"{space.key()}: tangent length {len(p.tangent)} != dim {dim}")
        if any(c.is_one for c in p.tangent):
            raise InvariantError(f"{space.key()}: unit tangent character at a fixed point")
    return pts


def factored_rational_sum(terms) -> LaurentPolynomial:
    """Sum of (numerator, [factors]) pairs, each meaning numerator/prod(factors),
    simplified exactly: factors equal up to a scalar are merged, every numerator
    is multiplied up to the common denominator (the multiset maximum of the
    factors), and the total is divided factor by factor."""
    entries = []  # (numerator, {factor key: multiplicity}, scalar)
    key_poly: dict = {}
    for numerator, factors in terms:
        counts: dict = {}
        scalar = 1
        for f in factors:
            if f.is_zero:
                raise ZeroDivisionError("zero factor in a denominator")
            lc = f.terms[min(f.terms)]
            scalar = scalar * lc
            monic = f.scale(quotient(1, lc))
            key = tuple(sorted(monic.terms.items()))
            key_poly.setdefault(key, monic)
            counts[key] = counts.get(key, 0) + 1
        entries.append((numerator, counts, scalar))
    if not entries:
        raise ValueError("empty sum has no table")
    master: dict = {}
    for _, counts, _ in entries:
        for key, m in counts.items():
            master[key] = max(master.get(key, 0), m)
    acc = LaurentPolynomial.zero(entries[0][0].table)
    for numerator, counts, scalar in entries:
        if numerator.is_zero:
            continue
        for key, m in master.items():
            for _ in range(m - counts.get(key, 0)):
                numerator = numerator * key_poly[key]
        acc = acc + numerator.scale(quotient(1, scalar))
    for key, m in sorted(master.items()):
        for _ in range(m):
            try:
                acc = exact_divide(acc, key_poly[key])
            except NotDivisible:
                raise NotPolynomial(
                    "factored sum does not simplify to a Laurent polynomial") from None
    return acc


def symmetry_orbit(space: SpaceDescriptor, zexps: tuple) -> set:
    """The orbit of a z-exponent vector under the substitutions of
    `spaces.symmetry_generators`, by a breadth-first walk."""
    table = space.table()
    m = len(zexps)
    pad = (0,) * (len(table) - m)
    gens = symmetry_generators(space)
    seen = {zexps}
    frontier = [zexps]
    while frontier:
        images = {Monomial(table, e + pad).substitute(g).exps[:m] for e in frontier for g in gens}
        frontier = list(images - seen)
        seen |= images
    return seen


def build_integrand(space: SpaceDescriptor, f: LaurentPolynomial,
                    variant: str = "full") -> ResidueForm:
    """The residue integrand of a class f, f times the expanded base numerator
    (measure absorbed).  It reads `spaces._integrand_parts` at call time, so a
    test that patches the integrand reaches this oracle too."""
    check_symmetry(space, f)
    form = spaces._integrand_form(spaces._integrand_parts(space, variant), space.residue_count())
    return ResidueForm(form.scalar, f * form.numerator, form.denominator, form.residue_vars)


@lru_cache(maxsize=None)
def _printed_form(space: SpaceDescriptor, variant: str) -> PreparedForm:
    """The residue integrand of lg, ogE or ogO as the paper prints it, with
    every root: bracket(pairs(1/z) + roots(z)) * prod(extras) / n! over
    prod(1 - z_i/tau), tau in T_pm (T_sharp for the full ogO), pairs being
    the strict products for lg and the compact ogO and the weak ones
    otherwise, and the extras 1 + z_i of the compact ogO; prepared once."""
    k, n, table = space.kind, space.n, space.table()
    zlist = standard_sets("Z", n, table)
    pairs = lambda_set if k == "lg" or variant == "compact" else sym_set
    extras = tuple(1 + z.as_polynomial() for z in zlist) if variant == "compact" else ()
    ambient = standard_sets("T_sharp" if (k, variant) == ("ogO", "full") else "T_pm", n, table)
    parts = (rational(1, math.factorial(n)), pairs(inverses(zlist)) + roots(zlist), extras,
             ambient)
    return PreparedForm(spaces._integrand_form(parts, n))


def printed_class_value(space: SpaceDescriptor, canon: tuple,
                        variant: str) -> LaurentPolynomial:
    """The residue of the orbit class of canon over the printed integrand of
    lg, ogE or ogO: it is symmetric in z1..zn, so |orbit| times the residue
    of one member."""
    members = _calc(space).orbit(canon)
    return iterated_residue(_printed_form(space, variant), [min(members)], len(members))


def expanded_integrand_symmetric(space: SpaceDescriptor, variant: str) -> bool:
    """Whether every symmetry generator maps the expanded integrand of
    (space, variant) to itself: its base numerator, checked like a class,
    and its multiset of denominator monomials.  The decision that
    `spaces._integrand_symmetric` makes on the weight lists alone."""
    form = spaces._integrand_form(spaces._integrand_parts(space, variant), space.residue_count())
    zs = Monomial.from_map(form.table, dict.fromkeys(form.residue_vars, 1))
    base = form.numerator.mul_monomial(zs)  # the measure 1/(z1...zm) taken out
    factors = Counter(m.exps for m in form.denominator)
    for s in symmetry_generators(space):
        if Counter(m.substitute(s).exps for m in form.denominator) != factors:
            return False
    try:
        check_symmetry(space, base)
    except SymmetryViolation:
        return False
    return True


def cut_ambient_value(ambient: SpaceDescriptor, f: LaurentPolynomial, cut,
                      images: dict) -> LaurentPolynomial:
    """The push-forward of f * cut along the Demazure chain of the
    Grassmannian ambient, then the torus restricted by t_i -> images[t_i],
    onto the table of the images (the other t's kept by name).  With cut the
    K-theoretic Euler class of a bundle, this is the push-forward along its
    zero locus, as the paper derives a space from its ambient Grassmannian."""
    value = localization_pushforward(ambient, f.substitute({}, ambient.table()) * cut)
    return value.substitute(images, next(iter(images.values())).table)


def ambient_chain_class(canon: tuple) -> LaurentPolynomial:
    """The push-forward of the orbit class of canon = (p, q) along the
    Grassmannian of two-planes in 7-space, restricted to the G2 torus: the
    gr:2,7 Demazure chain in t1..t7, no cut, then t_i -> the i-th of the
    seven weights."""
    ambient = SpaceDescriptor("gr", 2, 7)
    weights = {f"t{i + 1}": w for i, w in enumerate(g2core.seven_weights())}
    return cut_ambient_value(ambient, _calc(ambient).orbit_sum(canon), 1, weights)


@lru_cache(maxsize=None)
def _ambient_form() -> PreparedForm:
    """The gr:2,7 residue integrand at the seven weights w_k, over the G2
    table: (1/2) * bracket(roots(z1, z2)) / prod(1 - z_i/w_k) dz1/z1 dz2/z2,
    prepared once."""
    parts = (rational(1, 2), roots(standard_sets("Z", 2, g2.GT)), (), g2core.seven_weights())
    return PreparedForm(spaces._integrand_form(parts, 2))


def ambient_residue_class(canon: tuple) -> LaurentPolynomial:
    """The push-forward of the orbit class of canon = (p, q) along the
    Grassmannian of two-planes in 7-space, restricted to the G2 torus, by the
    iterated-residue kernel: the integrand is symmetric in z1, z2, so it is
    |orbit| times the residue of the ascending member z1^q z2^p."""
    p, q = canon
    return iterated_residue(_ambient_form(), [(q, p, 0, 0)], 1 if p == q else 2)


def additive_ambient_chain_class(canon: tuple) -> LaurentPolynomial:
    """The cohomological integral of the orbit class of canon = (p, q) over the
    Grassmannian of two-planes in 7-space, restricted to the G2 torus: the
    additive gr:2,7 Demazure chain in t1..t7, then t_i -> the log of the i-th
    of the seven weights, over the Chern-root table x1, x2, t1, t2."""
    calc = _calc(SpaceDescriptor("gr", 2, 7))
    value = calc.engine.additive_sum(calc.orbit_sum(canon))
    weights = {f"t{i + 1}": spaces.log(w, coh_table())
               for i, w in enumerate(g2core.seven_weights())}
    return value.substitute(weights, coh_table())


def log_moment(value: LaurentPolynomial, j: int) -> LaurentPolynomial:
    """sum c_e <e, y>^j / j! over the terms c_e t^e of a K-theoretic value, y_i
    written t_i: the coefficient of h^j in the value at t = e^(hy)."""
    table = value.table
    total = LaurentPolynomial.zero(table)
    for e, c in value.terms.items():
        total = total + (spaces.log(Monomial(table, e), table) ** j).scale(c)
    return total.scale(quotient(1, math.factorial(j)))


def ambient_matrix_by_pushforward() -> list:
    """The 21x21 intersection matrix of the G2 box classes, in `g2.BOX`
    order, each entry the ambient push-forward of the product of its two
    classes (decomposed into orbit classes, each coefficient times its value)."""
    classes = [grothendieck_pair(a, b, g2.GT) for a, b in g2.BOX]
    matrix = [[None] * len(classes) for _ in classes]
    for i, left in enumerate(classes):
        for j in range(i, len(classes)):
            matrix[i][j] = matrix[j][i] = g2.ambient_pushforward(left * classes[j])
    return matrix


def _bareiss_forward(aug, n):
    """One-step Bareiss forward pass on an augmented matrix, in place: every
    entry stays a minor of the matrix.  Returns the sign of the row swaps;
    a column with no nonzero entry at or below the diagonal raises
    InvariantError."""
    sign = 1
    prev = None
    for k in range(n):
        if aug[k][k].is_zero:
            for r in range(k + 1, n):
                if not aug[r][k].is_zero:
                    aug[k], aug[r] = aug[r], aug[k]
                    sign = -sign
                    break
            else:
                raise InvariantError("zero pivot column during elimination")
        pivot = aug[k][k]
        for i in range(k + 1, n):
            head = aug[i][k]
            for j in range(k + 1, len(aug[i])):
                num = pivot * aug[i][j] - head * aug[k][j]
                aug[i][j] = num if prev is None else exact_divide(num, prev)
            aug[i][k] = LaurentPolynomial.zero(pivot.table)
        prev = pivot
    return sign


def bareiss_determinant(matrix) -> LaurentPolynomial:
    """Exact determinant of a square matrix of Laurent polynomials; zero if
    it is singular."""
    n = len(matrix)
    aug = [list(row) for row in matrix]
    try:
        sign = _bareiss_forward(aug, n)
    except InvariantError:
        return LaurentPolynomial.zero(matrix[0][0].table)
    det = aug[n - 1][n - 1]
    return det if sign == 1 else -det


def bareiss_solve(matrix, rhs):
    """(determinant, [x_i]) with matrix * x = rhs; NotDivisible if x is not a
    Laurent-polynomial vector."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    sign = _bareiss_forward(aug, n)
    det = aug[n - 1][n - 1]
    solution = [None] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n]
        for j in range(i + 1, n):
            acc = acc - aug[i][j] * solution[j]
        solution[i] = exact_divide(acc, aug[i][i])
    return (det if sign == 1 else -det), solution


@lru_cache(maxsize=None)
def _x_table(n: int):
    return parameter_table(*[f"x{i + 1}" for i in range(n)])


def _isobaric_step(f: LaurentPolynomial, i: int, table) -> LaurentPolynomial:
    """Divided difference of x_i*(1-x_{i+1})*f with respect to (x_i, x_{i+1})."""
    xi = LaurentPolynomial.variable(table, f"x{i}")
    xj = LaurentPolynomial.variable(table, f"x{i + 1}")
    g = xi * (LaurentPolynomial.one(table) - xj) * f
    swapped = g.substitute({f"x{i}": Monomial.of(table, **{f"x{i + 1}": 1}),
                            f"x{i + 1}": Monomial.of(table, **{f"x{i}": 1})})
    return exact_divide(g - swapped, xi - xj)


def grothendieck_general(lam, n: int, table=None) -> LaurentPolynomial:
    """Symmetric Grothendieck polynomial in t1..tn for a partition of length <= n,
    given as its tuple of parts (weakly decreasing; zero parts allowed).

    Built by isobaric divided differences from the dominant monomial in
    internal x variables, then evaluated at x_i = 1 - 1/t_i.
    """
    parts = tuple(p for p in lam if p)
    if len(parts) > n:
        raise ValueError("partition longer than the variable count")
    if table is None:
        table = zt_table(n, n)
    xt = _x_table(n)
    f = LaurentPolynomial(
        xt, {parts + (0,) * (n - len(parts)): 1})
    # Bubble-sort reduced word of the longest permutation; each step either
    # symmetrizes an adjacent pair or fixes an already symmetric one.
    for sweep in range(1, n):
        for i in range(sweep, 0, -1):
            f = _isobaric_step(f, i, xt)
    # evaluate x_i -> 1 - 1/t_i
    one = LaurentPolynomial.one(table)
    images = {f"x{i + 1}": one - LaurentPolynomial.variable(table, f"t{i + 1}", -1)
              for i in range(n)}
    return f.substitute(images, table)


def schur_character(lam, xs) -> LaurentPolynomial:
    """The Schur polynomial s_lam(x_1..x_k) of a partition of length <= k, at
    monomials xs over one table with independent exponent vectors (distinct
    variables or their inverses), as the bialternant A_(lam+delta)/A_delta:
    det(x_i^(lam_j + k - j)), a sum over the permutations, divided by the
    Vandermonde product prod_(i<j) (x_i - x_j) one factor at a time through
    `exact_divide`."""
    k = len(xs)
    if len(lam) > k:
        raise ValueError("partition longer than the variable count")
    powers = [p + k - 1 - j for j, p in enumerate(tuple(lam) + (0,) * (k - len(lam)))]
    # scaled[i][j]: the exponent vector of x_i^(powers[j])
    scaled = [[tuple(e * a for a in x.exps) for e in powers] for x in xs]
    terms = {}
    for perm in itertools.permutations(range(k)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        key = tuple(map(sum, zip(*(scaled[i][j] for j, i in enumerate(perm)))))
        terms[key] = (-1) ** inversions
    value = LaurentPolynomial(xs[0].table, terms)
    for xi, xj in itertools.combinations(xs, 2):
        value = exact_divide(value, xi.as_polynomial() - xj.as_polynomial())
    return value


# kind -> (a, b, sign): row i of its Weyl alternant is t_j^(p_i+a) + sign*t_j^-(p_i+b)
_ALTERNANT_ROWS = {"lg": (1, 1, -1), "ogO": (1, 0, -1), "ogE": (0, 0, 1)}


def weyl_alternant(kind, n, lam=()) -> LaurentPolynomial:
    """det(t_j^(p_i+a) + sign*t_j^-(p_i+b)) over t1..tn, i, j = 1..n, with
    p_i = lam_i + n - i (lam padded to n parts) and the kind's (a, b, sign):
    type C (lg) t^(p+1) - t^-(p+1), type B (ogO) t^(p+1) - t^-p, type D (ogE)
    t^p + t^-p.  A sum over the permutations and over the two terms of each
    entry; only type D's p = 0 entry, 2, adds two terms on one key."""
    if len(lam) > n:
        raise ValueError("partition longer than the rank")
    a, b, sign = _ALTERNANT_ROWS[kind]
    powers = [p + n - 1 - i for i, p in enumerate(tuple(lam) + (0,) * (n - len(lam)))]
    terms = Counter()
    for perm in itertools.permutations(range(n)):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        for low in itertools.product((False, True), repeat=n):
            key = tuple(-powers[i] - b if lo else powers[i] + a for lo, i in zip(low, perm))
            terms[key] += (-1) ** inversions * sign ** sum(low)
    return LaurentPolynomial(parameter_table(*(f"t{j + 1}" for j in range(n))), terms)


def weyl_denominator_factors(kind, n) -> list:
    """Binomials whose product is the kind's Weyl denominator, its
    `weyl_alternant` at lam = 0, over t1..tn (half of it on ogE): for each j,
    t_j - 1/t_j on lg and t_j - 1 on ogO, none on ogE; for each i < j, t_i -
    t_j and 1 - 1/(t_i*t_j), whose product is (t_i + 1/t_i) - (t_j + 1/t_j)."""
    table = parameter_table(*(f"t{j + 1}" for j in range(n)))
    ts = [LaurentPolynomial.variable(table, name) for name in table.names]
    inv = [LaurentPolynomial.variable(table, name, -1) for name in table.names]
    one = LaurentPolynomial.one(table)
    lows = {"lg": inv, "ogO": [one] * n, "ogE": []}[kind]
    return [t - s for t, s in zip(ts, lows)] + [
        f for i, j in itertools.combinations(range(n), 2)
        for f in (ts[i] - ts[j], one - inv[i] * inv[j])]


def _weyl_quotient(kind, n, lam) -> LaurentPolynomial:
    """`weyl_alternant` divided by `weyl_denominator_factors`, one binomial
    at a time through `exact_divide`."""
    value = weyl_alternant(kind, n, lam)
    for factor in weyl_denominator_factors(kind, n):
        value = exact_divide(value, factor)
    return value


def symplectic_character(n, lam) -> LaurentPolynomial:
    """The character of the irreducible Sp(2n) representation of highest
    weight lam (at most n parts) over t1..tn, by the Weyl character formula
    of type C: det(t_j^(l_i) - t_j^-(l_i)), l_i = lam_i + n + 1 - i, divided
    by the same determinant at lam = 0."""
    return _weyl_quotient("lg", n, lam)


def orthogonal_character(kind, n, lam) -> LaurentPolynomial:
    """pi_*(s_lam(1/z_1..1/z_n)) on ogO:n or ogE:n by the Weyl character
    formula, lam padded to n parts and i, j = 1..n.  On ogO:n (type B) it is
    the SO(2n+1) character det(t_j^(lam_i+n-i+1) - t_j^-(lam_i+n-i)) /
    det(t_j^(n-i+1) - t_j^-(n-i)): each entry t^(l+1/2) - t^-(l+1/2) times
    t^(1/2).  On ogE:n (type D) the fixed points form two components, and
    the sum over both is the SO(2n) character of lam plus its image under
    t_n -> 1/t_n: 2 * det(t_j^(lam_i+n-i) + t_j^-(lam_i+n-i)) /
    det(t_j^(n-i) + t_j^-(n-i)), so pi_*(1) = 2.  The type D denominator is
    twice the product of its `weyl_denominator_factors`, which cancels the 2."""
    if kind not in ("ogO", "ogE"):
        raise ValueError(f"no orthogonal character for {kind!r}")
    return _weyl_quotient(kind, n, lam)
