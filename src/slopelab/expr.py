"""Expression language for one-variable modules.

Grammar (whitespace-insensitive, `+` has the lowest precedence)::

    msum    := mterm ('+' mterm)*
    mterm   := 'El' '(' INT ',' phi ',' kwargs ')'
             | 'Reg' '(' kwargs ')'
             | 'dual' '(' msum ')' | 'tensor' '(' msum ',' msum ')'
             | 'pull' '(' INT ',' msum ')' | 'push' '(' INT ',' msum ')'
             | '0' | '(' msum ')'
    kwargs  := 'rank' '=' INT [',' 'exp' '=' '[' rat, ... ']']
    phi     := ['-'] term (('+'|'-') term)*     -- a Laurent polynomial in u
    term    := atom ('*' atom)*
    atom    := INT ['/' INT] | 'zeta' '(' INT ')' ['^' sint]
             | 'u' ['^' sint] | '(' phi ')'

Parsing keeps source locations for diagnostics; printing emits canonical
text, and print-parse-print is the identity on everything the tool itself
prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from slopelab.elementary import (
    FormalModule,
    dual,
    elementary,
    pullback,
    pushforward,
    regular_module,
    tensor,
)
from slopelab.errors import ExpressionError
from slopelab.exact_algebra import CycloRat


# ---------------------------------------------------------------------------
# Tokens.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # NAME, INT, SYMBOL, EOF
    text: str
    line: int
    column: int


_SYMBOLS = set("()[],+-*^/=")


def _tokenize(text: str) -> Iterator[Token]:
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            yield Token("INT", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield Token("NAME", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            yield Token("SYMBOL", ch, line, col)
            col += 1
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", line, col)
    yield Token("EOF", "", line, col)


# ---------------------------------------------------------------------------
# AST.
# ---------------------------------------------------------------------------

class ModuleExpr:
    """Base class of expression nodes."""


@dataclass(frozen=True)
class ZeroNode(ModuleExpr):
    loc: tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class RegNode(ModuleExpr):
    rank: int
    exps: Optional[tuple[Fraction, ...]]
    loc: tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class ElNode(ModuleExpr):
    ram: int
    phi: tuple[tuple[int, CycloRat], ...]  # evaluated Laurent terms, ascending
    rank: int
    exps: Optional[tuple[Fraction, ...]]
    loc: tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class SumNode(ModuleExpr):
    parts: tuple[ModuleExpr, ...]
    loc: tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class DualNode(ModuleExpr):
    arg: ModuleExpr
    loc: tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class TensorNode(ModuleExpr):
    left: ModuleExpr
    right: ModuleExpr
    loc: tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class PullNode(ModuleExpr):
    degree: int
    arg: ModuleExpr
    loc: tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class PushNode(ModuleExpr):
    degree: int
    arg: ModuleExpr
    loc: tuple[int, int] = field(default=(1, 1), compare=False)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

# Parentheses may be open at most this deep at once, counting module
# grouping, operation calls and parenthesised phi alike.  Each level costs the
# recursive-descent parser two or three Python frames, so deeper input would
# overflow the interpreter's stack instead of getting a diagnostic.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        depth = 0
        for tok in self.tokens:
            if tok.kind == "SYMBOL" and tok.text in "()":
                depth += 1 if tok.text == "(" else -1
                if depth > MAX_NESTING:
                    self.error(f"parentheses nested deeper than {MAX_NESTING}", tok)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None, expected=None):
        tok = tok or self.peek()
        raise ExpressionError(message, tok.line, tok.column, expected)

    def expect_symbol(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "SYMBOL" or tok.text != sym:
            self.error(f"unexpected {tok.text or 'end of input'!r}",
                       expected=[repr(sym)])
        return self.next()

    def expect_int(self) -> tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "INT":
            self.error(f"unexpected {tok.text or 'end of input'!r}",
                       expected=["an integer"])
        return int(self.next().text), tok

    # -- module level -------------------------------------------------------

    def parse_module(self) -> ModuleExpr:
        node = self.parse_sum()
        tok = self.peek()
        if tok.kind != "EOF":
            self.error(f"trailing input {tok.text!r}", expected=["'+'", "end of input"])
        return node

    def parse_sum(self) -> ModuleExpr:
        first = self.parse_term()
        parts = [first]
        while self.peek().kind == "SYMBOL" and self.peek().text == "+":
            self.next()
            parts.append(self.parse_term())
        if len(parts) == 1:
            return first
        return SumNode(tuple(parts), loc=first.loc if hasattr(first, "loc") else (1, 1))

    def parse_term(self) -> ModuleExpr:
        tok = self.peek()
        if tok.kind == "INT" and tok.text == "0":
            self.next()
            return ZeroNode(loc=(tok.line, tok.column))
        if tok.kind == "SYMBOL" and tok.text == "(":
            self.next()
            inner = self.parse_sum()
            self.expect_symbol(")")
            return inner
        if tok.kind != "NAME":
            self.error(f"unexpected {tok.text or 'end of input'!r}",
                       expected=["El", "Reg", "dual", "tensor", "pull", "push", "0"])
        name = self.next().text
        loc = (tok.line, tok.column)
        if name == "El":
            return self.parse_el(loc)
        if name == "Reg":
            return self.parse_reg(loc)
        if name == "dual":
            self.expect_symbol("(")
            arg = self.parse_sum()
            self.expect_symbol(")")
            return DualNode(arg, loc=loc)
        if name == "tensor":
            self.expect_symbol("(")
            left = self.parse_sum()
            self.expect_symbol(",")
            right = self.parse_sum()
            self.expect_symbol(")")
            return TensorNode(left, right, loc=loc)
        if name in ("pull", "push"):
            self.expect_symbol("(")
            degree, dtok = self.expect_int()
            if degree < 1:
                self.error(f"{name} degree must be >= 1", dtok)
            self.expect_symbol(",")
            arg = self.parse_sum()
            self.expect_symbol(")")
            cls = PullNode if name == "pull" else PushNode
            return cls(degree, arg, loc=loc)
        self.error(f"unknown operation {name!r}", tok,
                   expected=["El", "Reg", "dual", "tensor", "pull", "push"])

    def parse_el(self, loc) -> ElNode:
        self.expect_symbol("(")
        ram, rtok = self.expect_int()
        if ram < 1:
            self.error("ramification must be >= 1", rtok)
        self.expect_symbol(",")
        phi = self.parse_phi()
        self.expect_symbol(",")
        rank, exps = self.parse_kwargs()
        self.expect_symbol(")")
        return ElNode(ram, phi, rank, exps, loc=loc)

    def parse_reg(self, loc) -> RegNode:
        self.expect_symbol("(")
        rank, exps = self.parse_kwargs()
        self.expect_symbol(")")
        return RegNode(rank, exps, loc=loc)

    def parse_kwargs(self) -> tuple[int, Optional[tuple[Fraction, ...]]]:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != "rank":
            self.error(f"unexpected {tok.text or 'end of input'!r}",
                       expected=["rank="])
        self.next()
        self.expect_symbol("=")
        rank, rtok = self.expect_int()
        if rank < 1:
            self.error("rank must be >= 1", rtok)
        exps = None
        if self.peek().kind == "SYMBOL" and self.peek().text == ",":
            self.next()
            tok = self.peek()
            if tok.kind != "NAME" or tok.text != "exp":
                self.error(f"unexpected {tok.text or 'end of input'!r}",
                           expected=["exp="])
            self.next()
            self.expect_symbol("=")
            exps = self.parse_rat_list()
            if len(exps) != rank:
                self.error(f"exp lists {len(exps)} exponents for rank {rank}", tok)
        return rank, exps

    def parse_rat_list(self) -> tuple[Fraction, ...]:
        self.expect_symbol("[")
        out = []
        if not (self.peek().kind == "SYMBOL" and self.peek().text == "]"):
            out.append(self.parse_signed_rational())
            while self.peek().kind == "SYMBOL" and self.peek().text == ",":
                self.next()
                out.append(self.parse_signed_rational())
        self.expect_symbol("]")
        return tuple(out)

    def parse_signed_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "SYMBOL" and self.peek().text == "-":
            self.next()
            sign = -1
        num, _ = self.expect_int()
        den = 1
        if self.peek().kind == "SYMBOL" and self.peek().text == "/":
            self.next()
            den, dtok = self.expect_int()
            if den == 0:
                self.error("zero denominator", dtok)
        return Fraction(sign * num, den)

    # -- phi level ----------------------------------------------------------

    def parse_phi(self) -> tuple[tuple[int, CycloRat], ...]:
        laurent = self.parse_phi_expr()
        return tuple(sorted((k, c) for k, c in laurent.items() if not c.is_zero))

    def parse_phi_expr(self) -> dict[int, CycloRat]:
        sign = 1
        if self.peek().kind == "SYMBOL" and self.peek().text in "+-":
            if self.next().text == "-":
                sign = -1
        total = self._scaled(self.parse_phi_term(), sign)
        while self.peek().kind == "SYMBOL" and self.peek().text in "+-":
            op = self.next().text
            term = self.parse_phi_term()
            total = self._combine(total, self._scaled(term, -1 if op == "-" else 1))
        return total

    @staticmethod
    def _scaled(laurent: dict[int, CycloRat], sign: int) -> dict[int, CycloRat]:
        if sign == 1:
            return laurent
        return {k: -c for k, c in laurent.items()}

    @staticmethod
    def _combine(a: dict[int, CycloRat], b: dict[int, CycloRat]) -> dict[int, CycloRat]:
        out = dict(a)
        for k, c in b.items():
            out[k] = out[k] + c if k in out else c
        return out

    def parse_phi_term(self) -> dict[int, CycloRat]:
        product = self.parse_phi_atom()
        while self.peek().kind == "SYMBOL" and self.peek().text == "*":
            self.next()
            nxt = self.parse_phi_atom()
            out: dict[int, CycloRat] = {}
            for k1, c1 in product.items():
                for k2, c2 in nxt.items():
                    k = k1 + k2
                    c = c1 * c2
                    out[k] = out[k] + c if k in out else c
            product = out
        return product

    def parse_phi_atom(self) -> dict[int, CycloRat]:
        tok = self.peek()
        if tok.kind == "INT":
            value = self.parse_signed_rational()  # sign impossible here; reuse
            return {0: CycloRat.from_rational(value)}
        if tok.kind == "SYMBOL" and tok.text == "(":
            self.next()
            inner = self.parse_phi_expr()
            self.expect_symbol(")")
            return inner
        if tok.kind == "NAME" and tok.text == "u":
            self.next()
            power = 1
            if self.peek().kind == "SYMBOL" and self.peek().text == "^":
                self.next()
                power = self.parse_signed_int()
            return {power: CycloRat.from_rational(1)}
        if tok.kind == "NAME" and tok.text == "zeta":
            self.next()
            self.expect_symbol("(")
            order, otok = self.expect_int()
            if order < 1:
                self.error("root-of-unity order must be >= 1", otok)
            self.expect_symbol(")")
            power = 1
            if self.peek().kind == "SYMBOL" and self.peek().text == "^":
                self.next()
                power = self.parse_signed_int()
            return {0: CycloRat.zeta(order, power)}
        self.error(f"unexpected {tok.text or 'end of input'!r}",
                   expected=["a rational", "zeta(...)", "u", "'('"])

    def parse_signed_int(self) -> int:
        sign = 1
        if self.peek().kind == "SYMBOL" and self.peek().text == "-":
            self.next()
            sign = -1
        value, _ = self.expect_int()
        return sign * value


def parse_module(text: str) -> ModuleExpr:
    """Parse a module expression into its AST (or raise ExpressionError)."""
    return _Parser(text).parse_module()


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------

def evaluate(node: ModuleExpr) -> FormalModule:
    """Evaluate an AST to a canonical formal module."""
    if isinstance(node, ZeroNode):
        return FormalModule.zero()
    if isinstance(node, RegNode):
        return regular_module(node.rank, exponents=node.exps)
    if isinstance(node, ElNode):
        return elementary(node.ram, dict(node.phi), rank=node.rank,
                          exponents=node.exps)
    if isinstance(node, SumNode):
        out = FormalModule.zero()
        for part in node.parts:
            out = out + evaluate(part)
        return out
    if isinstance(node, DualNode):
        return dual(evaluate(node.arg))
    if isinstance(node, TensorNode):
        return tensor(evaluate(node.left), evaluate(node.right))
    if isinstance(node, PullNode):
        return pullback(node.degree, evaluate(node.arg))
    if isinstance(node, PushNode):
        return pushforward(node.degree, evaluate(node.arg))
    raise TypeError(f"not a module expression node: {node!r}")


def parse_and_eval(text: str) -> FormalModule:
    return evaluate(parse_module(text))


# ---------------------------------------------------------------------------
# Printing.
# ---------------------------------------------------------------------------

def _phi_term_str(k: int, c: CycloRat) -> tuple[bool, str]:
    # Returns (negative?, rendering without the leading sign).
    cs = str(c)
    negative = False
    if " + " in cs or " - " in cs:
        cs = f"({cs})"
    elif cs.startswith("-"):
        negative = True
        cs = cs[1:]
    if k == 0:
        return negative, cs
    power = "u" if k == 1 else f"u^{k}"
    if cs == "1":
        return negative, power
    return negative, f"{cs}*{power}"


def phi_to_str(terms) -> str:
    terms = sorted(terms)
    if not terms:
        return "0"
    rendered = [_phi_term_str(k, c) for k, c in terms]
    neg, body = rendered[0]
    out = ("-" if neg else "") + body
    for neg, body in rendered[1:]:
        out += f" {'-' if neg else '+'} {body}"
    return out


def _exp_suffix(exps: Optional[tuple[Fraction, ...]]) -> str:
    if exps is None:
        return ""
    return ", exp=[" + ", ".join(str(e) for e in exps) + "]"


def print_ast(node: ModuleExpr) -> str:
    """Canonical rendering of an AST; parse(print_ast(n)) == n."""
    if isinstance(node, ZeroNode):
        return "0"
    if isinstance(node, RegNode):
        return f"Reg(rank={node.rank}{_exp_suffix(node.exps)})"
    if isinstance(node, ElNode):
        return (f"El({node.ram}, {phi_to_str(node.phi)}, "
                f"rank={node.rank}{_exp_suffix(node.exps)})")
    if isinstance(node, SumNode):
        return " + ".join(print_ast(p) for p in node.parts)
    if isinstance(node, DualNode):
        return f"dual({print_ast(node.arg)})"
    if isinstance(node, TensorNode):
        return f"tensor({print_ast(node.left)}, {print_ast(node.right)})"
    if isinstance(node, PullNode):
        return f"pull({node.degree}, {print_ast(node.arg)})"
    if isinstance(node, PushNode):
        return f"push({node.degree}, {print_ast(node.arg)})"
    raise TypeError(f"not a module expression node: {node!r}")


def module_to_expr(module: FormalModule) -> str:
    """Render a canonical formal module as parseable expression text."""
    if module.is_zero:
        return "0"
    parts = []
    for f in module.factors:
        exps = tuple(f.reg.exponent_list())
        suffix = "" if all(e == 0 for e in exps) else _exp_suffix(exps)
        if f.is_regular:
            parts.append(f"Reg(rank={f.reg.rank}{suffix})")
        else:
            parts.append(f"El({f.ram}, {phi_to_str(f.phi.terms)}, "
                         f"rank={f.reg.rank}{suffix})")
    return " + ".join(parts)
