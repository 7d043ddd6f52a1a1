"""Exact arithmetic on multivariate Laurent polynomials over the rationals.

A Laurent polynomial is a dict mapping exponent tuples (one integer per
variable of a fixed VariableTable, negative exponents allowed) to nonzero
exact rational coefficients.  The zero polynomial is the empty dict.  All
values are immutable after construction and all operations are pure, so
results can be shared freely.

Every coefficient is in one normal form: a Python `int` when its value is
integral, and a `fractions.Fraction` only when it is not.  `rational()` builds
that form and `quotient()` is the one exact division of coefficients.  Each
polynomial remembers whether all its coefficients are ints; an operation on
such operands multiplies and adds ints only, and the results of the others
are normalized, so integral work such as Bareiss elimination or the G2
artifacts never builds a rational.  Rendering and JSON read `numerator` and
`denominator`, which ints have as well.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import add as _add, neg as _neg, sub as _sub

_EXACT = (int, Fraction)  # the exact rationals a polynomial compares with


def _normal(q):
    """A coefficient of either type in normal form."""
    return q if q.denominator != 1 else q.numerator


def rational(numerator=0, denominator=1):
    """Exact rational number in normal form: an int when it is integral."""
    if type(numerator) is int and denominator == 1:
        return numerator
    return _normal(Fraction(numerator, denominator))


def quotient(a, b):
    """Exact quotient a / b of two coefficients, in normal form; an int when
    the division is exact in the integers."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return rational(a, b)


class MixedVariableTables(ValueError):
    """Operands live over different variable tables."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division has no quotient."""


class NotPolynomial(ArithmeticError):
    """A rational-function sum failed to simplify to a Laurent polynomial."""


class InvariantError(RuntimeError):
    """An internal consistency check failed."""


class Frozen:
    """Base of the immutable value classes.

    A subclass declares its fields in `__slots__`, sets them in `__init__`
    with `object.__setattr__`, and compares and hashes the tuple `_key()` of
    its fields; an object never equals one of another class.  Afterwards no
    attribute can be assigned or deleted.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class VariableTable(Frozen):
    """Ordered universe of variables.

    The ordering is fixed for the lifetime of a computation: it determines
    term layout, canonical rendering and the default residue order.
    """

    __slots__ = ("names", "_index", "_hash")

    def __init__(self, names: tuple):
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        # every Monomial hash hashes its table
        object.__setattr__(self, "_hash", hash((names,)))

    def _key(self) -> tuple:
        return (self.names,)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"VariableTable(names={self.names!r})"

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    @property
    def zero_exps(self) -> tuple:
        return (0,) * len(self.names)


@lru_cache(maxsize=None)
def zt_table(m: int, n: int) -> VariableTable:
    """Standard table with residue variables z1..zm and parameters t1..tn."""
    names = tuple(f"z{i + 1}" for i in range(m)) + tuple(f"t{i + 1}" for i in range(n))
    return VariableTable(names)


@lru_cache(maxsize=None)
def parameter_table(*names: str) -> VariableTable:
    """Table of the given variables (abstract symbols, t's, ...)."""
    return VariableTable(tuple(names))


def _same_table(a: VariableTable, b: VariableTable) -> None:
    if a is not b and a != b:
        raise MixedVariableTables(f"operands over different tables: {a.names} vs {b.names}")


class Monomial(Frozen):
    """Product of variable powers; exponents may be negative."""

    __slots__ = ("table", "exps")

    def __init__(self, table: VariableTable, exps: tuple):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "exps", exps)

    # a hot dict key: compared and hashed directly, not through _key()
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.exps == other.exps and (self.table is other.table
                                                or self.table == other.table)
        return NotImplemented

    def __hash__(self):
        return hash((self.table, self.exps))

    @staticmethod
    def one(table: VariableTable) -> "Monomial":
        return Monomial(table, table.zero_exps)

    @staticmethod
    def of(table: VariableTable, **powers: int) -> "Monomial":
        return Monomial.from_map(table, powers)

    @staticmethod
    def from_map(table: VariableTable, powers: Mapping[str, int]) -> "Monomial":
        e = [0] * len(table)
        for name, k in powers.items():
            e[table.index(name)] = k
        return Monomial(table, tuple(e))

    def __mul__(self, other: "Monomial") -> "Monomial":
        _same_table(self.table, other.table)
        return Monomial(self.table, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        _same_table(self.table, other.table)
        return Monomial(self.table, tuple(a - b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, k: int) -> "Monomial":
        return Monomial(self.table, tuple(a * k for a in self.exps))

    def inverse(self) -> "Monomial":
        return Monomial(self.table, tuple(-a for a in self.exps))

    @property
    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)

    def as_polynomial(self) -> "LaurentPolynomial":
        return _poly(self.table, {self.exps: 1}, True)

    def substitute(self, mapping: Mapping[str, "Monomial"]) -> "Monomial":
        """Image under a variable -> monomial map (unmapped variables stay fixed)."""
        acc = [0] * len(self.table)
        for i, e in enumerate(self.exps):
            if e == 0:
                continue
            name = self.table.names[i]
            img = mapping.get(name)
            if img is None:
                acc[i] += e
            else:
                _same_table(self.table, img.table)
                for j, f in enumerate(img.exps):
                    acc[j] += e * f
        return Monomial(self.table, tuple(acc))

    def render(self) -> str:
        parts = []
        for name, e in zip(self.table.names, self.exps):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"Monomial({self.render()})"


def term_sort_key(exps: tuple):
    """Canonical term order: by support size, then support positions, then
    exponents in descending lexicographic order."""
    support = tuple(i for i, e in enumerate(exps) if e != 0)
    return (len(support), support, tuple(-exps[i] for i in support))


def _grlex_key(exps: tuple):
    return (sum(exps), exps)


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial with exact rational coefficients.

    With _canonical set, terms must be a fresh dict of nonzero coefficients in
    normal form; the polynomial takes it over without a copy.
    """

    __slots__ = ("table", "terms", "_integral")

    def __init__(self, table: VariableTable, terms: Mapping[tuple, object], _canonical=False):
        self.table = table
        if _canonical:
            self.terms = terms
        else:
            self.terms = {k: rational(v) for k, v in terms.items() if v != 0}
        self._integral = None  # whether every coefficient is an int; None until known

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "LaurentPolynomial":
        return LaurentPolynomial(table, {}, _canonical=True)

    @staticmethod
    def constant(table: VariableTable, value) -> "LaurentPolynomial":
        q = rational(value)
        if q == 0:
            return LaurentPolynomial.zero(table)
        return _poly(table, {table.zero_exps: q}, type(q) is int)

    @staticmethod
    def one(table: VariableTable) -> "LaurentPolynomial":
        return LaurentPolynomial.constant(table, 1)

    @staticmethod
    def variable(table: VariableTable, name: str, k: int = 1) -> "LaurentPolynomial":
        e = [0] * len(table)
        e[table.index(name)] = k
        return _poly(table, {tuple(e): 1}, True)

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {self.table.zero_exps: 1}

    def __len__(self):
        return len(self.terms)

    def constant_term(self):
        return self.terms.get(self.table.zero_exps, 0)

    def is_integral(self) -> bool:
        """True iff every coefficient is an int; looked at once, then remembered."""
        integral = self._integral
        if integral is None:
            integral = self._integral = all(type(c) is int for c in self.terms.values())
        return integral

    def occurring_variables(self) -> tuple:
        seen = [False] * len(self.table)
        for k in self.terms:
            for i, e in enumerate(k):
                if e != 0:
                    seen[i] = True
        return tuple(n for n, s in zip(self.table.names, seen) if s)

    def min_degree(self, name: str):
        """Minimum exponent of a variable, or None for the zero polynomial."""
        if not self.terms:
            return None
        i = self.table.index(name)
        return min(k[i] for k in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        """Equal polynomials over one table, or a constant equal to an exact
        rational number (int or Fraction); any other type is not compared."""
        if isinstance(other, LaurentPolynomial):
            return self.table == other.table and self.terms == other.terms
        if isinstance(other, _EXACT):
            return self.terms == LaurentPolynomial.constant(self.table, other).terms
        return NotImplemented

    __hash__ = None

    def __neg__(self):
        return _poly(self.table, {k: -c for k, c in self.terms.items()}, self._integral)

    def __add__(self, other):
        other = self._coerce(other)
        _same_table(self.table, other.table)
        exact = self.is_integral() and other.is_integral()
        acc = dict(self.terms)
        for k, c in other.terms.items():
            s = acc.get(k)
            if s is None:
                acc[k] = c
            else:
                s = s + c
                if s == 0:
                    del acc[k]
                else:
                    acc[k] = s
        return _result(self.table, acc, exact)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            _same_table(self.table, other.table)
            exact = self.is_integral() and other.is_integral()
            a, b = self.terms, other.terms
            if len(a) > len(b):
                a, b = b, a
            acc = {}
            get = acc.get
            items_b = list(b.items())
            for k1, c1 in a.items():
                for k2, c2 in items_b:
                    k = tuple(map(_add, k1, k2))
                    s = get(k)
                    if s is None:
                        acc[k] = c1 * c2
                    else:
                        s = s + c1 * c2
                        if s == 0:
                            del acc[k]
                        else:
                            acc[k] = s
            return _result(self.table, acc, exact)
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            # an int to a negative power is a float: invert exactly instead
            q = rational(c ** k) if k >= 0 else quotient(1, c ** -k)
            return _poly(self.table, {tuple(x * k for x in e): q}, type(q) is int)
        if k < 0:
            raise NotDivisible("negative power of a non-monomial")
        result = LaurentPolynomial.one(self.table)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            return other
        return LaurentPolynomial.constant(self.table, other)

    def scale(self, q) -> "LaurentPolynomial":
        q = rational(q)
        if q == 0:
            return LaurentPolynomial.zero(self.table)
        if q == 1:
            return self
        return _result(self.table, {k: c * q for k, c in self.terms.items()},
                       type(q) is int and self.is_integral())

    def mul_monomial(self, mono: Monomial, coeff=1) -> "LaurentPolynomial":
        _same_table(self.table, mono.table)
        q = rational(coeff)
        if q == 0 or not self.terms:
            return LaurentPolynomial.zero(self.table)
        sh = mono.exps
        if q == 1:
            terms = {tuple(map(_add, k, sh)): c for k, c in self.terms.items()}
            return _poly(self.table, terms, self._integral)
        terms = {tuple(map(_add, k, sh)): c * q for k, c in self.terms.items()}
        return _result(self.table, terms, type(q) is int and self.is_integral())

    # -- substitution -------------------------------------------------------

    def substitute_monomials(self, mapping: Mapping[str, Monomial], partial: bool = False):
        """Replace variables by monomials.

        The map must cover every variable occurring in the polynomial unless
        partial=True, in which case unmapped variables stay fixed.
        """
        table = self.table
        images = {}
        for name, mono in mapping.items():
            _same_table(table, mono.table)
            images[table.index(name)] = mono.exps
        if not partial:
            for name in self.occurring_variables():
                if table.index(name) not in images:
                    raise KeyError(f"no image for occurring variable {name!r}")
        n = len(table)
        acc = {}
        for k, c in self.terms.items():
            e = [0] * n
            for i, ki in enumerate(k):
                if ki == 0:
                    continue
                img = images.get(i)
                if img is None:
                    e[i] += ki
                else:
                    for j, f in enumerate(img):
                        if f:
                            e[j] += ki * f
            kk = tuple(e)
            s = acc.get(kk)
            if s is None:
                acc[kk] = c
            else:
                s = s + c
                if s == 0:
                    del acc[kk]
                else:
                    acc[kk] = s
        return _result(table, acc, self.is_integral())

    def substitute_polynomials(self, mapping: Mapping[str, "LaurentPolynomial"],
                               target: VariableTable | None = None):
        """Exact evaluation with polynomial images (the composition map).

        Every occurring variable must be mapped.  A variable occurring with a
        negative exponent needs an invertible (single-term) image.
        """
        if target is None:
            if not mapping:
                raise ValueError("empty assignment needs an explicit target table")
            target = next(iter(mapping.values())).table
        images = {}
        for name, p in mapping.items():
            _same_table(target, p.table)
            images[self.table.index(name)] = p
        for name in self.occurring_variables():
            if self.table.index(name) not in images:
                raise KeyError(f"no image for occurring symbol {name!r}")
        power_cache: dict = {}

        def img_power(i: int, k: int) -> LaurentPolynomial:
            key = (i, k)
            got = power_cache.get(key)
            if got is None:
                got = images[i] ** k
                power_cache[key] = got
            return got

        total = LaurentPolynomial.zero(target)
        for k, c in self.terms.items():
            piece = LaurentPolynomial.constant(target, c)
            for i, ki in enumerate(k):
                if ki != 0:
                    piece = piece * img_power(i, ki)
            total = total + piece
        return total

    def transport(self, new_table: VariableTable) -> "LaurentPolynomial":
        """Re-express over another table containing the occurring variables."""
        if new_table == self.table:
            return self
        pos = []
        for name in self.table.names:
            try:
                pos.append(new_table.index(name))
            except KeyError:
                pos.append(None)
        n = len(new_table)
        acc = {}
        for k, c in self.terms.items():
            e = [0] * n
            for i, ki in enumerate(k):
                if ki == 0:
                    continue
                j = pos[i]
                if j is None:
                    raise KeyError(f"variable {self.table.names[i]!r} absent from target table")
                e[j] = ki
            acc[tuple(e)] = c
        return _poly(new_table, acc, self._integral)

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def render(self) -> str:
        """Canonical text form; the bit-exact fixture format."""
        if not self.terms:
            return "0"
        pieces = []
        for k, c in self.sorted_terms():
            mono = Monomial(self.table, k)
            num, den = c.numerator, c.denominator
            neg = num < 0
            mag = -num if neg else num
            coeff = f"{mag}" if den == 1 else f"{mag}/{den}"
            if mono.is_one:
                body = coeff
            elif mag == 1 and den == 1:
                body = mono.render()
            else:
                body = f"{coeff}*{mono.render()}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f" - {body}" if neg else f" + {body}")
        return "".join(pieces)

    def render_latex(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for k, c in self.sorted_terms():
            num, den = c.numerator, c.denominator
            neg = num < 0
            mag = -num if neg else num
            coeff = f"{mag}" if den == 1 else f"\\tfrac{{{mag}}}{{{den}}}"
            factors = []
            for name, e in zip(self.table.names, k):
                if e == 0:
                    continue
                base = f"{name[0]}_{{{name[1:]}}}" if len(name) > 1 and name[1:].isdigit() else name
                factors.append(base if e == 1 else f"{base}^{{{e}}}")
            body = " ".join(factors) if factors else coeff
            if factors and not (mag == 1 and den == 1):
                body = f"{coeff} {body}"
            sign = "-" if neg else ("+" if out else "")
            out.append(f"{sign} {body}" if out else f"{sign}{body}")
        return " ".join(out)

    def json_terms(self) -> list:
        out = []
        for k, c in self.sorted_terms():
            exps = {name: e for name, e in zip(self.table.names, k) if e != 0}
            out.append({
                "coeff_num": str(c.numerator),
                "coeff_den": str(c.denominator),
                "exponents": exps,
            })
        return out

    def __repr__(self):
        return f"LaurentPolynomial({self.render()})"


def _poly(table: VariableTable, terms: dict, integral=None) -> LaurentPolynomial:
    """A polynomial taking over terms, which are already in normal form;
    integral says whether they are all ints (None: not known)."""
    p = LaurentPolynomial(table, terms, True)
    p._integral = integral
    return p


def _result(table: VariableTable, terms: dict, exact: bool) -> LaurentPolynomial:
    """The result of an operation: terms computed from int operands only
    (exact), or else brought to normal form here."""
    if exact:
        return _poly(table, terms, True)
    return _poly(table, {k: _normal(c) for k, c in terms.items()})


# -- exact division ----------------------------------------------------------


def _clearing_shift(terms, n: int) -> tuple:
    """True componentwise minimum exponent.

    Shifting by it normalizes every variable to minimum degree zero, which is
    what makes leading-term division complete for exact Laurent quotients.
    """
    mins = None
    for k in terms:
        if mins is None:
            mins = list(k)
        else:
            for i, e in enumerate(k):
                if e < mins[i]:
                    mins[i] = e
    return tuple(mins) if mins is not None else (0,) * n


def exact_divide(p: LaurentPolynomial, d: LaurentPolynomial) -> LaurentPolynomial:
    """Quotient q with q*d == p exactly; raises NotDivisible when none exists.

    Negative exponents are cleared by monomial shifts, then ordinary
    multivariate division runs under the graded-lexicographic order.
    """
    return exact_divide_many(p, [d])


def exact_divide_many(p: LaurentPolynomial, divisors) -> LaurentPolynomial:
    """Divide exactly by each divisor in turn, clearing negatives only once."""
    divisors = list(divisors)
    for d in divisors:
        _same_table(p.table, d.table)
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero or not divisors:
        return p
    n = len(p.table)
    sp = _clearing_shift(p.terms, n)
    num = {tuple(map(_sub, k, sp)): c for k, c in p.terms.items()}
    shift = list(sp)
    integral = p.is_integral()
    for d in divisors:
        sd = _clearing_shift(d.terms, n)
        den = {tuple(map(_sub, k, sd)): c for k, c in d.terms.items()}
        num, integral = _divide_nonneg(num, den, integral and d.is_integral())
        for i in range(n):
            shift[i] -= sd[i]
    if any(shift):
        num = {tuple(map(_add, k, shift)): c for k, c in num.items()}
    return _poly(p.table, num, integral)


def _divide_nonneg(num: dict, den: dict, integral: bool) -> tuple:
    """Exact division of ordinary-polynomial term dicts (graded-lex, heap
    driven): (quotient in normal form, whether its coefficients are all ints).
    Dividing ints by a monic divisor stays in the ints; otherwise each
    quotient coefficient goes through `quotient`."""
    lead = max(den, key=_grlex_key)
    lc = den[lead]
    fast = integral and lc == 1
    rest = [(k, c) for k, c in den.items() if k != lead]
    remainder = dict(num)
    heap = [(-sum(k), tuple(map(_neg, k)), k) for k in remainder]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    out: dict = {}
    get = remainder.get
    while remainder:
        while heap:
            k = heap[0][2]
            if k in remainder:
                break
            pop(heap)
        else:  # pragma: no cover - remainder nonempty implies heap nonempty
            raise InvariantError("division heap exhausted with nonzero remainder")
        pop(heap)
        c = remainder.pop(k)
        qk = tuple(map(_sub, k, lead))
        if any(e < 0 for e in qk):
            raise NotDivisible("leading term not divisible")
        qc = c if fast else quotient(c, lc)
        out[qk] = qc
        for dk, dc in rest:
            nk = tuple(map(_add, qk, dk))
            s = get(nk)
            if s is None:
                remainder[nk] = -qc * dc
                push(heap, (-sum(nk), tuple(map(_neg, nk)), nk))
            else:
                s = s - qc * dc
                if s == 0:
                    del remainder[nk]
                else:
                    remainder[nk] = s
    return out, fast or all(type(c) is int for c in out.values())
