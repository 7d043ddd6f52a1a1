"""Pratt parser for Laurent expressions with class macros.

Grammar: integer literals, variables from the active table, unary minus,
binary + - * / and ^ with a literal (possibly negative) integer exponent,
parentheses, and the macros G[a,b], S[a,b], U, Uz, Ut, A, B which expand to
the corresponding classes at parse time.  Division is exact division and
is rejected like a syntax error when the quotient is not exact, and so is a
power above MAX_POWER of a base with more than one term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LaurentPolynomial, NotDivisible, VariableTable, exact_divide


class ExpressionSyntaxError(ValueError):
    """Syntax error with a byte offset and the expected-token set."""

    def __init__(self, offset: int, expected, found: str):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected {', '.join(self.expected)}; "
            f"found {found}")


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    offset: int


def tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(Token("INT", int(src[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^()[],":
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(i, {"a token"}, repr(ch))
    tokens.append(Token("EOF", None, n))
    return tokens


# -- AST ------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class MacroCall:
    name: str
    args: tuple


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    offset: int  # of the operator, for evaluation errors


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    offset: int  # of the caret


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY_PREC = 1


class Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionSyntaxError(tok.offset, {kind}, tok.kind)
        return self.advance()

    def parse(self):
        node = self.expression(0)
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExpressionSyntaxError(tok.offset, {"+", "-", "*", "/", "^", "EOF"}, tok.kind)
        return node

    def expression(self, min_prec: int):
        left = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "^":
                self.advance()
                left = Pow(left, self.integer_exponent(), tok.offset)
                continue
            prec = _PREC.get(tok.kind)
            if prec is None or prec <= min_prec:
                break
            self.advance()
            right = self.expression(prec)
            left = BinOp(tok.kind, left, right, tok.offset)
        return left

    def integer_exponent(self) -> int:
        tok = self.peek()
        sign = 1
        if tok.kind == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "INT":
            raise ExpressionSyntaxError(tok.offset, {"INT"}, tok.kind)
        self.advance()
        return sign * tok.value

    def atom(self):
        tok = self.advance()
        if tok.kind == "INT":
            return Num(tok.value)
        if tok.kind == "IDENT":
            if self.peek().kind == "[":
                return self.macro_call(tok)
            return Var(tok.value)
        if tok.kind == "(":
            node = self.expression(0)
            self.expect(")")
            return node
        if tok.kind == "-":
            return Neg(self.expression(_UNARY_PREC))
        raise ExpressionSyntaxError(tok.offset, {"INT", "IDENT", "(", "-"}, tok.kind)

    def macro_call(self, ident: Token):
        self.expect("[")
        args = [self.expect("INT").value]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.expect("INT").value)
        self.expect("]")
        return MacroCall(ident.value, tuple(args))


def parse_expression(src: str):
    """Parse to an AST; raises ExpressionSyntaxError with a byte offset."""
    return Parser(src).parse()


# -- rendering -------------------------------------------------------------------


def _node_prec(node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _UNARY_PREC
    if isinstance(node, Pow):
        return 3
    return 9


def render_expression(node) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, MacroCall):
        return f"{node.name}[{','.join(str(a) for a in node.args)}]"
    if isinstance(node, Neg):
        inner = render_expression(node.operand)
        if _node_prec(node.operand) <= _UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = render_expression(node.base)
        if _node_prec(node.base) < 9:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        lp, rp = _node_prec(node.left), _node_prec(node.right)
        prec = _PREC[node.op]
        left = render_expression(node.left)
        right = render_expression(node.right)
        if lp < prec:
            left = f"({left})"
        if rp <= prec:
            right = f"({right})"
        sep = f" {node.op} " if prec == 1 else node.op
        return f"{left}{sep}{right}"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation ------------------------------------------------------------------


_MACRO_IDENTS = {"U", "Uz", "Ut", "A", "B"}

# Largest power of a sum expanded: (1 + z1)^100000 is rejected before expansion.
MAX_POWER = 64


def evaluate(node, table: VariableTable) -> LaurentPolynomial:
    """Evaluate an AST to a Laurent polynomial over the given table."""
    from . import g2core
    from .polyfam import grothendieck_pair, schur_pair

    def expand_named(name: str) -> LaurentPolynomial:
        if name == "U":
            return g2core.fundamental_class_lift().transport(table)
        if name == "Uz":
            return g2core.weight_sum_z().transport(table)
        if name == "Ut":
            return g2core.weight_sum_t().transport(table)
        if name == "A":
            return g2core.half_sum_a().transport(table)
        if name == "B":
            return g2core.half_sum_b().transport(table)
        raise ValueError(f"unknown name {name!r}")

    def ev(node) -> LaurentPolynomial:
        if isinstance(node, Num):
            return LaurentPolynomial.constant(table, node.value)
        if isinstance(node, Var):
            if node.name in table.names:
                return LaurentPolynomial.variable(table, node.name)
            if node.name in _MACRO_IDENTS:
                try:
                    return expand_named(node.name)
                except KeyError:
                    raise ValueError(
                        f"macro {node.name} needs variables missing from this space") from None
            raise ValueError(f"unknown variable {node.name!r}")
        if isinstance(node, MacroCall):
            if len(node.args) != 2:
                raise ValueError(f"{node.name}[...] takes two indices")
            a, b = node.args
            try:
                if node.name == "G":
                    return grothendieck_pair(a, b).transport(table)
                if node.name == "S":
                    return schur_pair(a, b, table, names=("z1", "z2"))
            except KeyError:
                raise ValueError(
                    f"macro {node.name}[{a},{b}] needs variables missing from this space") from None
            raise ValueError(f"unknown macro {node.name!r}")
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Pow):
            base = ev(node.base)
            if len(base.terms) > 1 and node.exponent > MAX_POWER:
                raise ExpressionSyntaxError(node.offset, {f"an exponent of at most {MAX_POWER} "
                                                          "on a sum"}, str(node.exponent))
            try:
                return base ** node.exponent
            except NotDivisible:
                raise ExpressionSyntaxError(node.offset, {"a monomial base for a negative power"},
                                            render_expression(node.base)) from None
        if isinstance(node, BinOp):
            left, right = ev(node.left), ev(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                try:
                    return exact_divide(left, right)
                except (NotDivisible, ZeroDivisionError):
                    raise ExpressionSyntaxError(node.offset, {"an exact divisor"},
                                                render_expression(node.right)) from None
        raise TypeError(f"not an expression node: {node!r}")

    return ev(node)


def parse_to_polynomial(src: str, table: VariableTable) -> LaurentPolynomial:
    return evaluate(parse_expression(src), table)
