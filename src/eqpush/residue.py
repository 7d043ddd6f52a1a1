"""Exact iterated residues at 0 and infinity for factored rational forms.

A ResidueForm is scalar * N / prod(1 - m) together with an ordered list of
residue variables; the d(var)/var measure is absorbed into the numerator at
construction.  Every denominator factor monomial must contain exactly one
residue variable, with positive exponent; this makes coefficient extraction
in distinct variables commute, so the iterated residue is order independent.

All three entry points run one kernel on packed monomials with integer
coefficients.  An exponent vector (e_0, ..., e_{n-1}) is packed into the single
integer sum(e_i * 2^(W*i)), so a monomial product is one integer addition and
the degree of variable i is (((key + bias) >> W*i) & mask) - 2^(W-1).  The digit
width W is derived per form from an a-priori bound on every exponent the
computation can produce (numerator and factor exponents plus what the
truncated expansions add, see `_exponent_bound`), so no digit ever carries.
The numerator is scaled by the lcm of its coefficient denominators, the
content, so the kernel only adds Python ints; the result is divided
by the content once, when it is unpacked.

In one variable v, write the numerator as sum_a N_a v^a with N_a free of v,
and let the factors containing v be (1 - r v^k).  The residue at 0 is the
coefficient of v^-1 after expanding every factor as a geometric series; the
kernel multiplies the slices N_a (a <= -1) by one series at a time, keeping
only degrees <= -1, so equal monomials merge after every factor instead of
after one large product.  The last series is not expanded: only its v^-1
coefficient is needed, Q[-1] = sum_j r^j * Q[-1 - j*k] over the layers Q the
other series left, one pass of shifted layers.  So a variable with one factor
costs time linear in the number of layers, and z^N on P^1, whose residue at
infinity starts at degree -N, no longer costs N^2/2 layer entries.  The
residue at infinity substitutes v -> 1/v: d(v)/v
changes sign and each factor becomes -(v^-k r)(1 - v^k/r), so it is the same
truncated product for the slices N_a v^(K-2-a) and the factors (1 - v^k/r),
times sign * s, with K the sum of the k, s the product of the 1/r and sign
(-1)^(number of factors + 1).
"""

from __future__ import annotations

from collections.abc import Iterable
from math import lcm

from .algebra import (Frozen, InvariantError, LaurentPolynomial, Monomial, quotient,
                      rational)


class ResidueForm(Frozen):
    # denominator: monomials m, each standing for a factor (1 - m)
    __slots__ = ("scalar", "numerator", "denominator", "residue_vars")

    def __init__(self, scalar, numerator: LaurentPolynomial, denominator: tuple,
                 residue_vars: tuple):
        table = numerator.table
        active = set(residue_vars)
        for name in active:
            if name not in table.names:
                raise InvariantError(f"residue variable {name!r} not in table")
        for m in denominator:
            hits = [(n, e) for n, e in zip(table.names, m.exps) if e != 0 and n in active]
            if len(hits) != 1:
                raise InvariantError(
                    f"denominator factor 1 - {m.render()} must contain exactly one residue variable")
            if hits[0][1] <= 0:
                raise InvariantError(
                    f"denominator factor 1 - {m.render()} needs a positive residue exponent")
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "residue_vars", residue_vars)

    def _key(self) -> tuple:
        return (self.scalar, self.numerator, self.denominator, self.residue_vars)

    @property
    def table(self):
        return self.numerator.table

    def render(self) -> str:
        den = "*".join(f"(1 - {m.render()})" for m in self.denominator) or "1"
        dlog = ", ".join(self.residue_vars)
        return f"{self.scalar} * ({self.numerator.render()}) / {den} dlog({dlog})"

    def __repr__(self):
        return f"ResidueForm[{self.render()}]"


def make_form(numerator: LaurentPolynomial, denominator: Iterable[Monomial],
              residue_vars: Iterable[str], scalar=1, dlog: bool = True) -> ResidueForm:
    """Build a form, absorbing the product of d(var)/var measures when dlog is set."""
    residue_vars = tuple(residue_vars)
    if dlog and residue_vars:
        table = numerator.table
        measure = Monomial.from_map(table, {v: -1 for v in residue_vars})
        numerator = numerator.mul_monomial(measure)
    return ResidueForm(rational(scalar), numerator, tuple(denominator), residue_vars)


# -- packed monomials ----------------------------------------------------------


def _exponent_bound(form: ResidueForm, order: tuple) -> int:
    """Largest |exponent| any packed key can hold while taking the residues
    in the variables of order, one after the other.

    Per variable v with factors (1 - r v^k), K the sum of their k: a
    truncated product multiplies a slice by at most b0 <= A_v - 1 of the r at
    0 and at most binf <= A_v + 1 - K of the 1/r at infinity, where A_j bounds
    |degree of j| in the current numerator, and s = prod 1/r adds all of them
    once more.  So the next numerator has A_j + max(b0*rho_j, S_j + binf*rho_j)
    in variable j, with rho_j the largest and S_j the sum of the |r_j|.
    """
    table = form.table
    n = len(table)
    bound = [max(max(col), -min(col)) for col in zip(*form.numerator.terms)] or [0] * n
    factors = [m.exps for m in form.denominator]
    peak = max([max(bound, default=0)] + [abs(e) for f in factors for e in f])
    for var in order:
        i = table.index(var)
        mine = [f for f in factors if f[i]]
        factors = [f for f in factors if not f[i]]
        b0 = max(0, bound[i] - 1)
        binf = max(0, bound[i] + 1 - sum(f[i] for f in mine))
        for j in range(n):
            if mine and j != i:
                rho = max(abs(f[j]) for f in mine)
                total = sum(abs(f[j]) for f in mine)
                bound[j] += max(b0 * rho, total + binf * rho)
        bound[i] = 0
        peak = max(peak, max(bound))
    return peak


class _Packing:
    """Signed base-2^W digits, one per table variable, wide enough for bound."""

    __slots__ = ("shifts", "half", "mask", "bias")

    def __init__(self, nvars: int, bound: int):
        width = bound.bit_length() + 1  # 2^(W-1) > bound
        self.shifts = tuple(range(0, width * nvars, width))
        self.half = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.bias = sum(self.half << s for s in self.shifts)

    def pack(self, exps: tuple) -> int:
        return sum(e << s for e, s in zip(exps, self.shifts) if e)

    def pack_numerator(self, p: LaurentPolynomial):
        """({key: int coefficient}, content) with p = sum(c * key) / content."""
        content = lcm(*(c.denominator for c in p.terms.values()))
        terms = {self.pack(k): c.numerator * (content // c.denominator)
                 for k, c in p.terms.items()}
        return terms, content

    def unpack(self, table, terms: dict, q) -> LaurentPolynomial:
        """The Laurent polynomial q * sum(c * key)."""
        bias, mask, half, shifts = self.bias, self.mask, self.half, self.shifts
        out = {}
        for key, c in terms.items():
            u = key + bias
            out[tuple(((u >> s) & mask) - half for s in shifts)] = c
        return LaurentPolynomial(table, out, True).scale(q)


def _minus_one_coefficient(slices: dict, rests: list) -> dict:
    """The v^-1 coefficient of sum(slices[d] * v^d) * prod 1/(1 - r v^k) over
    the (packed r, k) in rests, as a new dict.  Only degrees d <= -1 are kept;
    multiplying by one geometric series is the recurrence Q[d] += r * Q[d - k],
    taken in increasing d, so equal monomials merge after every factor.  The
    last series only has to give Q[-1] = sum_j r^j * Q[-1 - j*k]."""
    low = min(slices, default=0)
    if low >= 0 or not rests:
        return dict(slices.get(-1, ()))
    *series, (r, k) = rests
    q = {d: dict(layer) for d, layer in slices.items() if d < 0} if series else slices
    for rs, ks in series:
        for d in range(low + ks, 0):
            src = q.get(d - ks)
            if not src:
                continue
            dst = q.get(d)
            if dst is None:
                dst = q[d] = {}
            get = dst.get
            for key, c in src.items():
                kk = key + rs
                dst[kk] = get(kk, 0) + c
    out = dict(q.get(-1, ()))
    get = out.get
    shift = 0
    for d in range(-1 - k, low - 1, -k):
        shift += r
        src = q.get(d)
        if src:
            for key, c in src.items():
                kk = key + shift
                out[kk] = get(kk, 0) + c
    return out


def _residue_step(terms: dict, packing: _Packing, i: int, mine: list,
                  zero: bool = True, infinity: bool = True) -> dict:
    """Residue at 0 and/or at infinity in variable i of sum(terms) / prod(1 - m)
    over the factor monomials mine (all containing variable i), on packed
    keys; the result is free of variable i."""
    sh = packing.shifts[i]
    unit = 1 << sh
    bias, mask, half = packing.bias, packing.mask, packing.half
    slices: dict = {}
    for key, c in terms.items():
        a = ((key + bias) >> sh & mask) - half
        layer = slices.get(a)
        if layer is None:
            slices[a] = {key - a * unit: c}
        else:
            layer[key - a * unit] = c
    rests = [(packing.pack(m.exps) - m.exps[i] * unit, m.exps[i]) for m in mine]
    acc = _minus_one_coefficient(slices, rests) if zero else {}
    if infinity:
        ksum = sum(k for _, k in rests)
        flipped = {ksum - 2 - a: layer for a, layer in slices.items()}
        s = -sum(r for r, _ in rests)
        sign = 1 if len(rests) % 2 else -1
        get = acc.get
        for key, c in _minus_one_coefficient(flipped, [(-r, k) for r, k in rests]).items():
            kk = key + s
            acc[kk] = get(kk, 0) + sign * c
    return {k: c for k, c in acc.items() if c}


# -- entry points ----------------------------------------------------------------


def _residues(form: ResidueForm, order: tuple, scalar, zero: bool = True,
              infinity: bool = True) -> tuple:
    """The residues of form in the variables of order, taken one after the
    other on a numerator packed once and unpacked once: (scalar times the
    numerator left, the denominator monomials left)."""
    for var in order:
        if var not in form.residue_vars:
            raise InvariantError(f"{var!r} is not a residue variable of the form")
    table = form.table
    packing = _Packing(len(table), _exponent_bound(form, order))
    terms, content = packing.pack_numerator(form.numerator)
    factors = form.denominator
    for var in order:
        i = table.index(var)
        mine = [m for m in factors if m.exps[i]]
        factors = tuple(m for m in factors if not m.exps[i])
        terms = _residue_step(terms, packing, i, mine, zero, infinity)
    return packing.unpack(table, terms, quotient(scalar, content)), factors


def residue_at_zero(form: ResidueForm, var: str) -> ResidueForm:
    """Coefficient of var^(-1) after expanding the var-factors as geometric series."""
    numerator, others = _residues(form, (var,), 1, infinity=False)
    remaining = tuple(v for v in form.residue_vars if v != var)
    return ResidueForm(form.scalar, numerator, others, remaining)


def residue_at_infinity(form: ResidueForm, var: str) -> ResidueForm:
    """Residue at infinity via the substitution var -> 1/var: the residue at 0
    of the form rewritten with d(var)/var -> -d(var)/var and each factor
    (1 - rest*var^k) as a unit monomial times (1 - var^k/rest)."""
    numerator, others = _residues(form, (var,), 1, zero=False)
    remaining = tuple(v for v in form.residue_vars if v != var)
    return ResidueForm(form.scalar, numerator, others, remaining)


def iterated_residue(form: ResidueForm) -> LaurentPolynomial:
    """Apply the 0-plus-infinity residue over all residue variables.

    The last listed variable is processed first, matching composition of the
    per-variable operators; the form-class invariant makes the order
    unobservable.  The numerator is packed once, and unpacked once at the end
    together with the form's scalar.
    """
    value, factors = _residues(form, tuple(reversed(form.residue_vars)), form.scalar)
    if factors:
        raise InvariantError("denominator factors survived the iterated residue")
    return value
