"""Exact iterated residues at 0 and infinity for factored rational forms.

A ResidueForm is scalar * N / prod(1 - m) together with an ordered list of
residue variables; the d(var)/var measure is absorbed into the numerator at
construction.  Every denominator factor monomial must contain exactly one
residue variable, with positive exponent; this makes coefficient extraction
in distinct variables commute, so the iterated residue is order independent.

All three entry points run one driver on monomials packed into ints by
`algebra.Packing`, with integer coefficients: a monomial product is one
integer addition.  Every variable gets a W-bit digit for the exponents
-2^(W-1) to 2^(W-1) - 1.  A PreparedForm plans the steps once per form and
packs its numerator, scaled by the lcm of its coefficient denominators (the
content) so that the kernel only adds Python ints; sum(z^member) * form is
that packed numerator shifted by each packed member.  W comes from an
a-priori bound on every exponent the members and the steps can produce, so
every exponent stays in range and no digit ever carries; the widest packing
so far is kept, and only a class that needs a wider digit repacks.  The
result is divided by the content once, when it is unpacked.  Every sum the
kernel forms, the orbit sum and every series pass at 0 and at infinity, adds
one packed dict with its keys shifted into another by `_add_shifted`.

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

from .algebra import (Frozen, InvariantError, LaurentPolynomial, Monomial, Packing,
                      quotient, rational)


class ResidueForm(Frozen):
    # denominator: monomials m, each standing for a factor (1 - m)
    __slots__ = _fields = ("scalar", "numerator", "denominator", "residue_vars")

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
        self._set_fields(scalar, numerator, denominator, residue_vars)

    @property
    def table(self):
        return self.numerator.table


def make_form(numerator: LaurentPolynomial, denominator: Iterable[Monomial],
              residue_vars: Iterable[str], scalar=1) -> ResidueForm:
    """Build a form, absorbing the product of d(var)/var measures."""
    residue_vars = tuple(residue_vars)
    if residue_vars:
        table = numerator.table
        measure = Monomial.from_map(table, {v: -1 for v in residue_vars})
        numerator = numerator.mul_monomial(measure)
    return ResidueForm(rational(scalar), numerator, tuple(denominator), residue_vars)


class PreparedForm:
    """A form made ready for the residues of sum(z^member) * form in the
    variables of order (by default all, the last first): the per-step plan,
    the numerator's largest |exponent| per variable and its widest packing."""

    __slots__ = ("form", "steps", "left", "spread", "packing", "packed")

    def __init__(self, form: ResidueForm, order: tuple = None):
        order = tuple(reversed(form.residue_vars)) if order is None else order
        for var in order:
            if var not in form.residue_vars:
                raise InvariantError(f"{var!r} is not a residue variable of the form")
        table, factors = form.table, form.denominator
        self.steps = []
        for i in map(table.index, order):
            mine = [m.exps for m in factors if m.exps[i]]
            factors = tuple(m for m in factors if not m.exps[i])
            cols = list(zip(*mine)) or [()] * len(table)
            self.steps.append((i, mine, sum(cols[i]), [max(map(abs, c), default=0) for c in cols],
                               [sum(map(abs, c)) for c in cols]))
        self.form, self.left, self.packing = form, factors, None
        self.spread = [max(map(abs, c)) for c in zip(*form.numerator.terms)] or [0] * len(table)

    def pack(self, members: list) -> tuple:
        """(packing, packed numerator, content, per-step [(packed r, k)]) for
        sum(z^member) * form, repacked only when its digits are too narrow.

        Per variable v with factors (1 - r v^k), K the sum of their k: a
        truncated product multiplies a slice by at most b0 <= A_v - 1 of the r
        at 0 and at most binf <= A_v + 1 - K of the 1/r at infinity, where A_j
        bounds |degree of j| in the current numerator (at first the spread
        plus the members' largest |exponent|), and s = prod 1/r adds all of
        them once more.  So the next numerator has A_j + max(b0*rho_j, S_j +
        binf*rho_j) in variable j, rho_j the largest and S_j the sum of |r_j|.
        """
        bound = [a + max(map(abs, col)) for a, col in zip(self.spread, zip(*members))]
        peak = max(bound + [abs(e) for m in self.form.denominator for e in m.exps], default=0)
        for i, _, ksum, rho, total in self.steps:
            b0 = max(0, bound[i] - 1)
            binf = max(0, bound[i] + 1 - ksum)
            bound = [a + max(b0 * r, s + binf * r) for a, r, s in zip(bound, rho, total)]
            bound[i] = 0
            peak = max(peak, max(bound))
        if self.packing is None or -self.packing.lows[0] <= peak:
            half, nvars = 1 << peak.bit_length(), len(self.form.table)  # half > peak
            self.packing = packing = Packing([-half] * nvars, [half - 1] * nvars)
            numerator = self.form.numerator.terms
            content = lcm(*(c.denominator for c in numerator.values()))
            terms = {key: c.numerator * (content // c.denominator)
                     for key, c in zip(packing.pack(numerator), numerator.values())}
            rests = [[(key - (f[i] << packing.shifts[i]), f[i])
                      for key, f in zip(packing.pack(mine), mine)]
                     for i, mine, *_ in self.steps]
            self.packed = (terms, content, rests)
        return (self.packing, *self.packed)


def _add_shifted(dst: dict, src: dict, shift: int) -> None:
    """Add each packed term of src, its key moved by shift, into dst.  Sums
    that cancel stay: the caller drops zeros once."""
    get = dst.get
    for key, c in src.items():
        key += shift
        dst[key] = get(key, 0) + c


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
            if src:
                _add_shifted(q.setdefault(d, {}), src, rs)
    out = dict(q.get(-1, ()))
    for j in range(1, (-1 - low) // k + 1):
        src = q.get(-1 - j * k)
        if src:
            _add_shifted(out, src, j * r)
    return out


def _residue_step(terms: dict, packing: Packing, i: int, rests: list,
                  zero: bool, infinity: bool) -> dict:
    """Residue at 0 and/or at infinity in variable i of sum(terms) / prod(1 - r v^k)
    over the packed (r, k) in rests, v being variable i, on packed keys; the
    result is free of variable i."""
    sh, mask, low, offset = packing.shifts[i], packing.masks[i], packing.lows[i], packing.offset
    unit = 1 << sh
    slices: dict = {}
    for key, c in terms.items():
        a = ((key - offset) >> sh & mask) + low
        layer = slices.get(a)
        if layer is None:
            slices[a] = {key - a * unit: c}
        else:
            layer[key - a * unit] = c
    acc = _minus_one_coefficient(slices, rests) if zero else {}
    if infinity:
        ksum = sum(k for _, k in rests)
        flipped = {ksum - 2 - a: layer for a, layer in slices.items()}
        part = _minus_one_coefficient(flipped, [(-r, k) for r, k in rests])
        if len(rests) % 2 == 0:
            part = {key: -c for key, c in part.items()}
        _add_shifted(acc, part, -sum(r for r, _ in rests))
    return {k: c for k, c in acc.items() if c}


# -- entry points ----------------------------------------------------------------


def _residues(form: PreparedForm, scalar, members, zero: bool = True,
              infinity: bool = True) -> tuple:
    """The residues of sum(z^member) * form (the zero member alone when
    members is None, 0 when it is empty) in the variables of its order, one after
    the other on packed keys, unpacked once: (scalar times the numerator left,
    the denominator monomials left)."""
    table = form.form.table
    if members is None:
        members = [(0,) * len(table)]
    elif not members:  # the empty sum
        return LaurentPolynomial.zero(table), form.left
    if any(len(m) != len(table) for m in members):
        raise InvariantError("a member is not an exponent vector over the form's table")
    packing, base, content, rests = form.pack(members)
    terms: dict = {}
    for shift in packing.pack(members):
        _add_shifted(terms, base, shift)
    if len(members) > 1:
        terms = {k: c for k, c in terms.items() if c}
    for (i, *_), rest in zip(form.steps, rests):
        terms = _residue_step(terms, packing, i, rest, zero, infinity)
    exps = packing.unpack([key - packing.offset for key in terms])
    value = LaurentPolynomial(table, dict(zip(exps, terms.values())), True)
    return value.scale(quotient(scalar, content)), form.left


def _one_residue(form: ResidueForm, var: str, zero: bool, infinity: bool) -> ResidueForm:
    numerator, others = _residues(PreparedForm(form, (var,)), 1, None, zero, infinity)
    return ResidueForm(form.scalar, numerator, others,
                       tuple(v for v in form.residue_vars if v != var))


def residue_at_zero(form: ResidueForm, var: str) -> ResidueForm:
    """Coefficient of var^(-1) after expanding the var-factors as geometric series."""
    return _one_residue(form, var, True, False)


def residue_at_infinity(form: ResidueForm, var: str) -> ResidueForm:
    """Residue at infinity via the substitution var -> 1/var: the residue at 0
    of the form rewritten with d(var)/var -> -d(var)/var and each factor
    (1 - rest*var^k) as a unit monomial times (1 - var^k/rest)."""
    return _one_residue(form, var, False, True)


def iterated_residue(form, members=None, scalar=1) -> LaurentPolynomial:
    """Apply the 0-plus-infinity residue over all residue variables to
    scalar * sum(z^member) * form; form may be prepared, and members are
    exponent vectors over its table (by default the form itself; no member
    is the empty sum, 0).

    The last listed variable is processed first, matching composition of the
    per-variable operators; the form-class invariant makes the order
    unobservable.  The numerator is packed once, and the value unpacked once
    at the end together with the scalars.
    """
    if not isinstance(form, PreparedForm):
        form = PreparedForm(form)
    value, factors = _residues(form, rational(scalar * form.form.scalar), members)
    if factors:
        raise InvariantError("denominator factors survived the iterated residue")
    return value
