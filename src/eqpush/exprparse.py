"""One-pass Pratt parser for Laurent expressions with class macros.

Grammar: integer literals (ASCII digits), variables from the active table, unary minus,
binary + - * / and ^ with a literal (possibly negative) integer exponent,
parentheses, and the macros G[a,b], S[a,b], U, Uz, Ut, A, B which expand to
the corresponding classes.  Division is exact division and is rejected like a
syntax error when the quotient is not exact, and so is a power above
MAX_POWER of a base with more than one term, before it is expanded, and a
G[a,b] or S[a,b] whose first index a reaches MAX_POWER: G[a,b] would expand
(1 - z1)^(a+1), and S[a,b] takes the same limit.

Parsing is one pass: every subexpression is evaluated over the table as soon
as it is read, so no syntax tree is built and a flat sum or a chain of powers
is read in a loop.  Real nesting (parentheses, unary minus) recurses and is
bounded: more than MAX_DEPTH nested subexpressions is a syntax error.  A
character that starts no token is reported before anything else; otherwise
the first error in reading order wins, whether a syntax or an evaluation error.
"""

from __future__ import annotations

from .algebra import LaurentPolynomial, NotDivisible, VariableTable, add_terms, exact_divide


class ExpressionSyntaxError(ValueError):
    """Syntax error with a byte offset and the expected-token set."""

    def __init__(self, offset: int, expected, found: str):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected {', '.join(self.expected)}; "
            f"found {found}")


def _tokenize(src: str) -> list:
    """(kind, value, offset) tuples, ending with an EOF token."""
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit() would also take superscripts and non-ASCII digits
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            tokens.append(("INT", int(src[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("IDENT", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^()[],":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(i, {"a token"}, repr(ch))
    tokens.append(("EOF", None, n))
    return tokens


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY_PREC = 1

# The named classes, by the g2core function that builds them.
_NAMED = {"U": "fundamental_class_lift", "Uz": "weight_sum_z", "Ut": "weight_sum_t",
          "A": "half_sum_a", "B": "half_sum_b"}

# Largest power of a sum expanded: (1 + z1)^100000 is rejected before expansion.
MAX_POWER = 64

# Most nested subexpressions read, well under the interpreter's recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, src: str, table: VariableTable):
        self.src = src
        self.table = table
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(tok[2], {kind}, tok[0])
        return self.advance()

    def text(self, start: int, end: int) -> str:
        """The source as typed between two offsets."""
        return self.src[start:end].rstrip()

    def parse(self) -> LaurentPolynomial:
        value = self.expression(0)
        kind, _, offset = self.peek()
        if kind != "EOF":
            raise ExpressionSyntaxError(offset, {"+", "-", "*", "/", "^", "EOF"}, kind)
        return value

    def expression(self, min_prec: int) -> LaurentPolynomial:
        kind, _, start = self.peek()
        if self.depth == MAX_DEPTH:
            raise ExpressionSyntaxError(
                start, {f"at most {MAX_DEPTH} nested subexpressions"}, kind)
        self.depth += 1
        left = self.atom()
        while True:
            kind, _, offset = self.peek()
            if kind == "^":
                self.advance()
                left = self.power(left, self.integer_exponent(), start, offset)
                continue
            prec = _PREC.get(kind)
            if prec is None or prec <= min_prec:
                break
            if prec == _PREC["+"]:
                left = self.sum_run(left)
                continue
            self.advance()
            right_start = self.peek()[2]
            right = self.expression(prec)
            if kind == "*":
                left = left * right
            else:
                try:
                    left = exact_divide(left, right)
                except (NotDivisible, ZeroDivisionError):
                    raise ExpressionSyntaxError(
                        offset, {"an exact divisor"},
                        self.text(right_start, self.peek()[2])) from None
        self.depth -= 1
        return left

    def sum_run(self, left: LaurentPolynomial) -> LaurentPolynomial:
        """left followed by a run of + and - operands, added into one term
        dict by `add_terms`, which deletes the sums that cancel: a flat sum
        of n terms costs linear time, not n copies of a growing sum.  The
        constructor brings the sums of Fractions to normal form."""
        terms = dict(left.terms)
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            add_terms(terms, self.expression(_PREC["+"]).terms.items(), sign)
        return LaurentPolynomial(self.table, terms)

    def power(self, base: LaurentPolynomial, exponent: int, start: int, caret: int):
        if len(base.terms) > 1 and exponent > MAX_POWER:
            raise ExpressionSyntaxError(caret, {f"an exponent of at most {MAX_POWER} on a sum"},
                                        str(exponent))
        try:
            return base ** exponent
        except NotDivisible:
            raise ExpressionSyntaxError(caret, {"a monomial base for a negative power"},
                                        self.text(start, caret)) from None

    def integer_exponent(self) -> int:
        kind, value, offset = self.peek()
        sign = 1
        if kind == "-":
            self.advance()
            sign = -1
            kind, value, offset = self.peek()
        if kind != "INT":
            raise ExpressionSyntaxError(offset, {"INT"}, kind)
        self.advance()
        return sign * value

    def atom(self) -> LaurentPolynomial:
        kind, value, offset = self.advance()
        if kind == "INT":
            return LaurentPolynomial.constant(self.table, value)
        if kind == "IDENT":
            if self.peek()[0] == "[":
                return self.macro_call(value)
            return self.name(value)
        if kind == "(":
            inner = self.expression(0)
            self.expect(")")
            return inner
        if kind == "-":
            return -self.expression(_UNARY_PREC)
        raise ExpressionSyntaxError(offset, {"INT", "IDENT", "(", "-"}, kind)

    def name(self, name: str) -> LaurentPolynomial:
        if name in self.table.names:
            return LaurentPolynomial.variable(self.table, name)
        if name not in _NAMED:
            raise ValueError(f"unknown variable {name!r}")
        from . import g2core
        try:
            return getattr(g2core, _NAMED[name])().substitute({}, self.table)
        except KeyError:
            raise ValueError(f"macro {name} needs variables missing from this space") from None

    def macro_call(self, name: str) -> LaurentPolynomial:
        self.expect("[")
        offset = self.peek()[2]
        args = [self.expect("INT")[1]]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expect("INT")[1])
        self.expect("]")
        if len(args) != 2:
            raise ValueError(f"{name}[...] takes two indices")
        if name not in ("G", "S"):
            raise ValueError(f"unknown macro {name!r}")
        from .polyfam import grothendieck_pair, schur_pair
        a, b = args
        if a + 1 > MAX_POWER:
            raise ExpressionSyntaxError(offset, {f"a first index of at most {MAX_POWER - 1}"},
                                        str(a))
        try:
            if name == "G":
                return grothendieck_pair(a, b, self.table)
            return schur_pair(a, b, self.table, names=("z1", "z2"))
        except KeyError:
            raise ValueError(
                f"macro {name}[{a},{b}] needs variables missing from this space") from None


def parse_to_polynomial(src: str, table: VariableTable) -> LaurentPolynomial:
    """Parse and evaluate `src` over `table` in one pass; raises
    ExpressionSyntaxError with a byte offset, or ValueError."""
    return _Parser(src, table).parse()
