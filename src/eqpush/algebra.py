"""Exact arithmetic on multivariate Laurent polynomials over the rationals.

A Laurent polynomial is a dict mapping exponent tuples (one integer per
variable of a fixed VariableTable, negative exponents allowed) to nonzero
exact rational coefficients.  The zero polynomial is the empty dict.  All
values are immutable after construction and all operations are pure, so
results can be shared freely.

Every coefficient is in one normal form: a Python `int` when its value is
integral, and a `fractions.Fraction` only when it is not.  `rational()` builds
that form and `quotient()` is the one exact division of coefficients.  A
polynomial holds only its table and terms.  Each operation hands its fresh
term dict to `_result`, which takes it over as it is when every coefficient
is an int and brings it to normal form only when it holds a `Fraction`; a
result that is normal by construction (a negation, a constant, a variable,
a one-term power, an exact division, whose every coefficient `quotient()`
gives) skips that pass.  Ints stay ints, so integral work such as
elimination with unit pivots or the G2 artifacts never builds a rational.
Rendering and JSON read `numerator` and `denominator`, which ints have as
well.

One walk of the terms in canonical order serves every rendering: the text
form of the fixtures, LaTeX, JSON and `Monomial.render`.

`Packing(lows, highs)` is the one packed-key codec, shared by the product of
two polynomials and the `residue` kernel.  Variable i gets a digit of
(highs[i] - lows[i]).bit_length() bits at shift s_i, none when it cannot
vary, and pack(e) = sum(e_i << s_i) is linear, so a monomial product is one
int addition.  For lows[i] <= e_i <= highs[i], digit i of key - offset, with
offset = pack(lows), is e_i - lows[i] >= 0, so e_i = ((key - offset) >> s_i
& mask_i) + lows[i].  A product of two polynomials packs over the operands'
summed ranges, so no digit carries, and is unpacked once, a column per
variable; a one-term operand shifts the other (`mul_monomial`).

`add_terms` is the one loop that adds terms into a dict and deletes the sums
that cancel; `_divide_heap` subtracts each step's moved divisor through it.
Only two hot loops on packed int keys keep their own and drop zeros once,
after all the adds: `_packed_product`, and `_add_shifted` in `residue`,
through which the residue kernel forms every sum.

`LaurentPolynomial.substitute` is the one change of variables, from a Weyl
reflection to the move of a polynomial to another table; `Monomial.substitute`
is its one-term case and shares its exponent moves, `_moves`.

`exact_divide` is the one exact division of polynomials, and it dispatches
on the divisor.  A binomial, such as each step (1 - a^-1) or log a of the
Demazure chains in `spaces`, divides in one pass of running sums along the
chains of its exponent difference.  Any other divisor runs graded-lex
multivariate division driven by a heap.  Both work on the Laurent keys.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import (add as _add, attrgetter, lshift as _lshift, lt as _lt, neg as _neg,
                      sub as _sub)

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

    A subclass lists its fields once, in `_fields` (`__slots__ = _fields =
    (...)` when it has no other slots).  From that list, once per class, it
    gets `_set_fields(self, <fields>)`, its `__init__` unless it checks the
    values first, and the getter `_values` for equality (never with another
    class), a hash computed once per value and the repr `Name(field=value,
    ...)`.  Afterwards no attribute can be assigned or deleted.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        if "_fields" in cls.__dict__:
            # generated like a dataclass __init__: a loop doubles a Monomial's cost
            fields, scope = cls._fields, {"setattr": object.__setattr__}
            exec(f"def init(self, {', '.join(fields)}):\n"
                 + "".join(f"    setattr(self, {name!r}, {name})\n" for name in fields), scope)
            cls._set_fields, cls._values = scope["init"], attrgetter(*fields)
            if "__init__" not in cls.__dict__:
                cls.__init__ = cls._set_fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values(self)))
            return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class VariableTable(Frozen):
    """Ordered universe of variables.

    The ordering is fixed for the lifetime of a computation: it determines
    term layout, canonical rendering and the default residue order.
    """

    __slots__ = ("names", "_index")
    _fields = ("names",)

    def __init__(self, names: tuple):
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self._set_fields(names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

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

    __slots__ = _fields = ("table", "exps")

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
        if other.__class__ is not Monomial:  # mono * poly is LaurentPolynomial.__rmul__
            return NotImplemented
        _same_table(self.table, other.table)
        return Monomial(self.table, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if other.__class__ is not Monomial:
            return NotImplemented
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
        return LaurentPolynomial(self.table, {self.exps: 1}, True)

    def substitute(self, mapping: Mapping[str, "Monomial"]) -> "Monomial":
        """Image under a variable -> monomial map (unmapped variables stay fixed)."""
        acc = list(self.exps)
        for name, img in mapping.items():
            _same_table(self.table, img.table)
            i = self.table.index(name)
            for j, f in _moves(i, img.exps, True):
                acc[j] += self.exps[i] * f
        return Monomial(self.table, tuple(acc))

    def render(self) -> str:
        return self.as_polynomial().render()

    def __repr__(self):
        return f"Monomial({self.render()})"


def _term_sort_key(exps: tuple):
    """Canonical term order: by support size, then support positions, then
    exponents in descending lexicographic order."""
    support = tuple(i for i, e in enumerate(exps) if e != 0)
    return (len(support), support, tuple(-exps[i] for i in support))


def _latex_name(name: str) -> str:
    """t10 as t_{10}; a name without a numeric index as it is."""
    if len(name) > 1 and name[1:].isdigit():
        return f"{name[0]}_{{{name[1:]}}}"
    return name


def _grlex_key(exps: tuple):
    return (sum(exps), exps)


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial with exact rational coefficients.

    With _canonical set, terms must be a fresh dict of nonzero coefficients in
    normal form; the polynomial takes it over without a copy.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VariableTable, terms: Mapping[tuple, object], _canonical=False):
        self.table = table
        if _canonical:
            self.terms = terms
        else:
            self.terms = {k: rational(v) for k, v in terms.items() if v != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "LaurentPolynomial":
        return LaurentPolynomial(table, {}, _canonical=True)

    @staticmethod
    def constant(table: VariableTable, value) -> "LaurentPolynomial":
        q = rational(value)
        if q == 0:
            return LaurentPolynomial.zero(table)
        return LaurentPolynomial(table, {table.zero_exps: q}, True)

    @staticmethod
    def one(table: VariableTable) -> "LaurentPolynomial":
        return LaurentPolynomial.constant(table, 1)

    @staticmethod
    def variable(table: VariableTable, name: str, k: int = 1) -> "LaurentPolynomial":
        e = [0] * len(table)
        e[table.index(name)] = k
        return LaurentPolynomial(table, {tuple(e): 1}, True)

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

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
        return LaurentPolynomial(self.table, {k: -c for k, c in self.terms.items()}, True)

    def _plus(self, other, sign):
        other = self._coerce(other)
        _same_table(self.table, other.table)
        return _result(self.table, add_terms(dict(self.terms), other.terms.items(), sign))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            _same_table(self.table, other.table)
            small, large = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
            if len(small.terms) == 1:
                (k, c), = small.terms.items()
                return large.mul_monomial(Monomial(self.table, k), c)
            if not small.terms:
                return small
            return _result(self.table, _packed_product(small.terms, large.terms))
        if isinstance(other, Monomial):
            return self.mul_monomial(other)
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            # an int to a negative power is a float: invert exactly instead
            q = rational(c ** k) if k >= 0 else quotient(1, c ** -k)
            return LaurentPolynomial(self.table, {tuple(x * k for x in e): q}, True)
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
        return _result(self.table, {k: c * q for k, c in self.terms.items()})

    def mul_monomial(self, mono: Monomial, coeff=1) -> "LaurentPolynomial":
        _same_table(self.table, mono.table)
        q = rational(coeff)
        if q == 0 or not self.terms:
            return LaurentPolynomial.zero(self.table)
        sh = mono.exps
        return _result(self.table, {tuple(map(_add, k, sh)): c * q for k, c in self.terms.items()})

    # -- substitution -------------------------------------------------------

    def substitute(self, mapping: Mapping[str, object], target: VariableTable | None = None):
        """The change of variables: each variable of `mapping` goes to its
        image, a Monomial or a LaurentPolynomial over `target` (by default
        this polynomial's own table), and every other occurring variable to
        the variable of the same name in `target` (KeyError if it has none).

        A one-term image c*t^e is applied by exponent arithmetic, its c^k
        going into the coefficient; a longer image through cached powers.  A
        variable occurring with a negative exponent needs a one-term image.
        """
        table = self.table
        if target is None:
            target = table
        same = target is table or target == table
        images = [(table.index(name), img) for name, img in mapping.items()]
        if not same:
            images += [(i, Monomial.of(target, **{name: 1}))
                       for i, name in enumerate(table.names)
                       if name not in mapping and any(k[i] for k in self.terms)]
        moves = []  # (source index, ((target index, exponent), ...)) of each moved variable
        scales = []  # (source index, c) of each one-term image c*t^e with c != 1
        longer = []  # (source index, image) of each image of more than one term
        for i, img in images:
            _same_table(target, img.table)
            if isinstance(img, Monomial):
                exps = img.exps
            elif len(img.terms) == 1:
                (exps, c), = img.terms.items()
                if c != 1:
                    scales.append((i, c))
            else:  # multiplied in below; here the variable only leaves
                longer.append((i, img))
                exps = target.zero_exps
            pairs = _moves(i, exps, same)
            if pairs:
                moves.append((i, pairs))

        zeros = [0] * len(target)
        products: dict = {}  # exponents of the longer images -> the terms of their product
        pieces = []  # (target key, coefficient) of each term of the image
        for k, c in self.terms.items():
            e = list(k) if same else zeros[:]
            for i, pairs in moves:
                ki = k[i]
                if ki:
                    for j, f in pairs:
                        e[j] += ki * f
            for i, ci in scales:
                ki = k[i]
                if ki:
                    c = c * (ci ** ki if ki > 0 else quotient(1, ci ** -ki))
            if longer:
                powers = tuple(k[i] for i, _ in longer)
                product = products.get(powers)
                if product is None:
                    product = LaurentPolynomial.one(target)
                    for (_, img), ki in zip(longer, powers):
                        product = product * img ** ki
                    product = products[powers] = list(product.terms.items())
                pieces += [(tuple(map(_add, e, pk)), c * pc) for pk, pc in product]
            else:
                pieces.append((tuple(e), c))
        return _result(target, add_terms({}, pieces))

    # -- rendering ----------------------------------------------------------

    def _walk(self):
        """Each term in canonical order as (negative, |numerator|, denominator,
        ((name, exponent) of each nonzero exponent, ...))."""
        names = self.table.names
        for k in sorted(self.terms, key=_term_sort_key):
            c = self.terms[k]
            yield (c < 0, abs(c.numerator), c.denominator,
                   tuple((name, e) for name, e in zip(names, k) if e != 0))

    def _format(self, fraction: str, power: str, times: str, base) -> str:
        """The terms joined by signs.  A coefficient is written as an integer
        or with the `fraction` pattern, a factor as its `base` name alone or
        with the `power` pattern, and `times` joins coefficient and factors;
        a unit coefficient on a nonconstant monomial is left out."""
        out = []
        for neg, mag, den, factors in self._walk():
            mono = times.join(base(name) if e == 1 else power.format(base(name), e)
                              for name, e in factors)
            coeff = str(mag) if den == 1 else fraction.format(mag, den)
            if not mono:
                body = coeff
            elif mag == 1 and den == 1:
                body = mono
            else:
                body = coeff + times + mono
            if out:
                out.append(" - " if neg else " + ")
            elif neg:
                out.append("-")
            out.append(body)
        return "".join(out) or "0"

    def render(self) -> str:
        """Canonical text form; the bit-exact fixture format."""
        return self._format("{}/{}", "{}^{}", "*", str)

    def render_latex(self) -> str:
        return self._format("\\tfrac{{{}}}{{{}}}", "{}^{{{}}}", " ", _latex_name)

    def json_terms(self) -> list:
        return [{"coeff_num": str(-mag if neg else mag), "coeff_den": str(den),
                 "exponents": dict(factors)}
                for neg, mag, den, factors in self._walk()]

    def __repr__(self):
        return f"LaurentPolynomial({self.render()})"


@lru_cache(maxsize=None)
def _moves(i: int, exps: tuple, same: bool) -> tuple:
    """(target index, exponent) pairs: the change per unit exponent of source
    variable i with image t^exps; with same, its own exponent is in place."""
    delta = list(exps)
    if same:
        delta[i] -= 1
    return tuple((j, f) for j, f in enumerate(delta) if f)


class Packing:
    """Exponent vectors with lows[i] <= e_i <= highs[i] as ints (see the
    module docstring); plain slots, not `Frozen`, as each product builds one."""

    __slots__ = ("lows", "shifts", "masks", "offset")

    def __init__(self, lows: list, highs: list):
        shifts, masks, width = [], [], 0
        for low, high in zip(lows, highs):
            shifts.append(width)
            w = (high - low).bit_length()
            masks.append((1 << w) - 1)
            width += w
        self.lows, self.shifts, self.masks = lows, shifts, masks
        self.offset = sum(map(_lshift, lows, shifts))

    def pack(self, vectors) -> list:
        """The packed keys of the exponent vectors."""
        shifts = self.shifts
        return [sum(map(_lshift, e, shifts)) for e in vectors]

    def unpack(self, diffs):
        """An iterator over the exponent vectors of the keys key - offset in diffs."""
        return zip(*[[(d >> s & mask) + low for d in diffs]
                     for s, mask, low in zip(self.shifts, self.masks, self.lows)])


def add_terms(acc: dict, terms, coeff=1) -> dict:
    """Add coeff * c into acc[key] for each (key, c) pair of terms, deleting a
    key whose sum cancels; returns acc.  coeff and every c must be nonzero,
    so a sum can only cancel on a key already in acc."""
    get = acc.get
    for k, c in terms:
        s = get(k, 0) + coeff * c
        if s:
            acc[k] = s
        else:
            del acc[k]
    return acc


def _packed_product(a: dict, b: dict) -> dict:
    """The terms of the product of two term dicts, zero sums dropped, on
    packed int keys over the sum of the operands' ranges.  The keys of a,
    the smaller operand, are packed less the offset, so each product key
    comes out as key - offset, ready to unpack."""
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    packing = Packing(list(map(_add, map(min, cols_a), map(min, cols_b))),
                      list(map(_add, map(max, cols_a), map(max, cols_b))))
    offset = packing.offset
    packed_b = list(zip(packing.pack(b), b.values()))
    acc: dict = {}
    get = acc.get
    for k1, c1 in zip(packing.pack(a), a.values()):
        k1 -= offset
        for k2, c2 in packed_b:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in zip(packing.unpack(acc), acc.values()) if c}


def _result(table: VariableTable, terms: dict) -> LaurentPolynomial:
    """The polynomial of an operation's fresh nonzero terms: taken over as
    they are when every coefficient is an int, else brought to normal form."""
    if Fraction in map(type, terms.values()):
        terms = {k: _normal(c) for k, c in terms.items()}
    return LaurentPolynomial(table, terms, True)


# -- exact division ----------------------------------------------------------


def exact_divide(p: LaurentPolynomial, d: LaurentPolynomial) -> LaurentPolynomial:
    """Quotient q with q*d == p exactly; raises NotDivisible when none exists.

    A two-term divisor takes one pass of running sums (`_divide_binomial`);
    any other divisor takes graded-lexicographic division driven by a heap
    (`_divide_heap`).  Both work on the Laurent keys.
    """
    _same_table(p.table, d.table)
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return p
    divide = _divide_binomial if len(d.terms) == 2 else _divide_heap
    return LaurentPolynomial(p.table, divide(p.terms, d.terms), True)


def exact_divide_many(p: LaurentPolynomial, divisors) -> LaurentPolynomial:
    """Divide exactly by each divisor in turn."""
    for d in divisors:
        p = exact_divide(p, d)
    return p


def _divide_binomial(num: dict, den: dict) -> dict:
    """Exact division of a term dict by c0*t^k0 + c1*t^k1 on the Laurent keys:
    the quotient's terms, each coefficient a `quotient()` and so in normal form.

    With mu = k1 - k0, the dividend's terms fall into chains b + j*mu.  If
    g_j is the dividend's coefficient at t^(b + j*mu), the quotient's
    coefficient q_j at t^(b + j*mu - k0) solves g_j = c0*q_j + c1*q_(j-1).
    So each chain is swept once in increasing j with the running value
    q_j = (g_j - c1*q_(j-1))/c0.  Between two terms of a chain a nonzero
    carry continues geometrically and fills the gap with quotient terms; a
    zero carry jumps to the next term.  The division is exact iff the carry
    is 0 after each chain's last term.  A divisor with a coefficient +-1 is
    oriented so that c0 is that one: dividing ints by it stays in the ints.
    """
    (k0, c0), (k1, c1) = den.items()
    if c0 not in (1, -1) and c1 in (1, -1):
        k0, c0, k1, c1 = k1, c1, k0, c0
    mu = tuple(map(_sub, k1, k0))
    support = [(l, m) for l, m in enumerate(mu) if m]
    i, mi = support[0]
    chains: dict = {}  # b = e - j*mu with j = e_i // mi -> [(j, e, g_j)]
    for e, g in num.items():
        j = e[i] // mi
        if j:
            base = list(e)
            for l, m in support:
                base[l] -= j * m
            base = tuple(base)
        else:
            base = e
        chain = chains.get(base)
        if chain is None:
            chains[base] = [(j, e, g)]
        else:
            chain.append((j, e, g))
    shift = tuple(map(_neg, k0)) if any(k0) else None
    out: dict = {}
    for chain in chains.values():
        if len(chain) > 1:
            chain.sort()  # by j, which no two members share
        carry = 0
        for j, e, g in chain:
            if carry:  # q continues through the gap: q_j = -c1*q_(j-1)/c0
                for _ in range(j - last - 1):
                    carry = quotient(-c1 * carry, c0)
                    key = tuple(map(_add, key, mu))
                    out[key] = carry
                carry = quotient(g - c1 * carry, c0)
            else:
                carry = quotient(g, c0)
            if carry:
                key = e if shift is None else tuple(map(_add, e, shift))
                out[key] = carry
            last = j
        if carry:
            raise NotDivisible("a chain of the dividend leaves a remainder")
    return out


def _divide_heap(num: dict, den: dict) -> dict:
    """Exact division of term dicts by graded-lex leading terms, heap driven:
    the quotient's terms, each coefficient a `quotient()` and so in normal form.

    Each step takes the top key k of the remainder and subtracts the quotient
    term at qk = k - lead times the divisor's other terms, moved by qk,
    through `add_terms`.  A moved key is pushed only when it is not yet in
    the remainder; a key that cancels stays on the heap and is skipped at
    the top.  A taken key never comes back: every moved key qk + dk lies
    below qk + lead = k in graded-lex order.  A quotient key below `low`,
    the dividend's minimum exponents less the divisor's, proves the division
    inexact; above `low` graded-lex is a well-order, so the loop ends.
    """
    lead = max(den, key=_grlex_key)
    lc = den[lead]
    low = tuple(map(_sub, map(min, zip(*num)), map(min, zip(*den))))
    rest = [(k, c) for k, c in den.items() if k != lead]
    remainder = dict(num)
    heap = [(-sum(k), tuple(map(_neg, k)), k) for k in remainder]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    out: dict = {}
    while remainder:
        if not heap:  # pragma: no cover - remainder nonempty implies heap nonempty
            raise InvariantError("division heap exhausted with nonzero remainder")
        k = pop(heap)[2]
        c = remainder.pop(k, 0)
        if not c:  # k cancelled after it was pushed
            continue
        qk = tuple(map(_sub, k, lead))
        if any(map(_lt, qk, low)):
            raise NotDivisible("leading term not divisible")
        qc = quotient(c, lc)
        out[qk] = qc
        moved = [(tuple(map(_add, qk, dk)), dc) for dk, dc in rest]
        for nk, _ in moved:
            if nk not in remainder:
                push(heap, (-sum(nk), tuple(map(_neg, nk)), nk))
        add_terms(remainder, moved, -qc)
    return out
