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

There is no syntax tree.  Each production returns a zero-argument callable
that runs its module operation (El, Reg, dual, tensor, pull, push, sum) on
its children's results, so `parse_module` checks the whole text, raising
`ExpressionError` at the offending line and column, and runs no module
operation; `parse_and_eval` calls what it returns.  `module_to_expr` prints
a canonical module as text that parses back to the same module and prints
the same text again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

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

# What every module production returns: the deferred engine call.
Deferred = Callable[[], FormalModule]


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
        if "0" <= ch <= "9":  # ASCII digits only: int() reads others too
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
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

    def accept(self, symbols: str) -> Optional[Token]:
        """Consume the next token if it is one of the one-character
        `symbols`, and return it; otherwise return None."""
        tok = self.peek()
        if tok.kind == "SYMBOL" and tok.text in symbols:
            return self.next()
        return None

    def error(self, message: str, tok: Token | None = None, expected=None):
        tok = tok or self.peek()
        raise ExpressionError(message, tok.line, tok.column, expected)

    def expect_symbol(self, sym: str) -> Token:
        tok = self.accept(sym)
        if tok is None:
            self.error(f"unexpected {self.peek().text or 'end of input'!r}",
                       expected=[repr(sym)])
        return tok

    def expect_int(self) -> tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "INT":
            self.error(f"unexpected {tok.text or 'end of input'!r}",
                       expected=["an integer"])
        return int(self.next().text), tok

    # -- module level -------------------------------------------------------

    def parse_module(self) -> Deferred:
        build = self.parse_sum()
        tok = self.peek()
        if tok.kind != "EOF":
            self.error(f"trailing input {tok.text!r}", expected=["'+'", "end of input"])
        return build

    def parse_sum(self) -> Deferred:
        parts = [self.parse_term()]
        while self.accept("+"):
            parts.append(self.parse_term())
        if len(parts) == 1:
            return parts[0]
        return lambda: sum((part() for part in parts), FormalModule.zero())

    def parse_term(self) -> Deferred:
        tok = self.peek()
        if tok.kind == "INT" and tok.text == "0":
            self.next()
            return FormalModule.zero
        if self.accept("("):
            inner = self.parse_sum()
            self.expect_symbol(")")
            return inner
        if tok.kind != "NAME":
            self.error(f"unexpected {tok.text or 'end of input'!r}",
                       expected=["El", "Reg", "dual", "tensor", "pull", "push", "0"])
        name = self.next().text
        if name == "El":
            self.expect_symbol("(")
            ram, rtok = self.expect_int()
            if ram < 1:
                self.error("ramification must be >= 1", rtok)
            self.expect_symbol(",")
            phi = self.parse_phi()
            self.expect_symbol(",")
            rank, exps = self.parse_kwargs()
            self.expect_symbol(")")
            return lambda: elementary(ram, phi, rank=rank, exponents=exps)
        if name == "Reg":
            self.expect_symbol("(")
            rank, exps = self.parse_kwargs()
            self.expect_symbol(")")
            return lambda: regular_module(rank, exponents=exps)
        if name == "dual":
            self.expect_symbol("(")
            arg = self.parse_sum()
            self.expect_symbol(")")
            return lambda: dual(arg())
        if name == "tensor":
            self.expect_symbol("(")
            left = self.parse_sum()
            self.expect_symbol(",")
            right = self.parse_sum()
            self.expect_symbol(")")
            return lambda: tensor(left(), right())
        if name in ("pull", "push"):
            self.expect_symbol("(")
            degree, dtok = self.expect_int()
            if degree < 1:
                self.error(f"{name} degree must be >= 1", dtok)
            self.expect_symbol(",")
            arg = self.parse_sum()
            self.expect_symbol(")")
            if name == "pull":
                return lambda: pullback(degree, arg())
            return lambda: pushforward(degree, arg())
        self.error(f"unknown operation {name!r}", tok,
                   expected=["El", "Reg", "dual", "tensor", "pull", "push"])

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
        if self.accept(","):
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
        if self.peek().text != "]":
            out.append(self.parse_signed_rational())
            while self.accept(","):
                out.append(self.parse_signed_rational())
        self.expect_symbol("]")
        return tuple(out)

    def parse_signed_rational(self) -> Fraction:
        sign = -1 if self.accept("-") else 1
        num, _ = self.expect_int()
        den = 1
        if self.accept("/"):
            den, dtok = self.expect_int()
            if den == 0:
                self.error("zero denominator", dtok)
        return Fraction(sign * num, den)

    # -- phi level ----------------------------------------------------------
    # A Laurent polynomial is a {power of u: coefficient} dict; zero and
    # holomorphic terms are left in, since `elementary` drops them.

    def parse_phi(self) -> dict[int, CycloRat]:
        total: dict[int, CycloRat] = {}
        sign = self.accept("+-")
        while True:
            for k, c in self.parse_phi_term().items():
                if sign is not None and sign.text == "-":
                    c = -c
                total[k] = total[k] + c if k in total else c
            sign = self.accept("+-")
            if sign is None:
                return total

    def parse_phi_term(self) -> dict[int, CycloRat]:
        product = self.parse_phi_atom()
        while self.accept("*"):
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
        if self.accept("("):
            inner = self.parse_phi()
            self.expect_symbol(")")
            return inner
        if tok.kind == "NAME" and tok.text == "u":
            self.next()
            return {self.parse_power(): CycloRat.from_rational(1)}
        if tok.kind == "NAME" and tok.text == "zeta":
            self.next()
            self.expect_symbol("(")
            order, otok = self.expect_int()
            if order < 1:
                self.error("root-of-unity order must be >= 1", otok)
            self.expect_symbol(")")
            return {0: CycloRat.zeta(order, self.parse_power())}
        self.error(f"unexpected {tok.text or 'end of input'!r}",
                   expected=["a rational", "zeta(...)", "u", "'('"])

    def parse_power(self) -> int:
        """The optional `^ sint` after `u` or `zeta(n)`; 1 when absent."""
        if not self.accept("^"):
            return 1
        sign = -1 if self.accept("-") else 1
        value, _ = self.expect_int()
        return sign * value


def parse_module(text: str) -> Deferred:
    """Parse a module expression (or raise ExpressionError) into a
    zero-argument callable that builds the module.  No module operation runs
    until it is called."""
    return _Parser(text).parse_module()


def parse_and_eval(text: str) -> FormalModule:
    return parse_module(text)()


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
    """Render nonempty ascending (power, coefficient) terms as phi text."""
    rendered = [_phi_term_str(k, c) for k, c in terms]
    neg, body = rendered[0]
    out = ("-" if neg else "") + body
    for neg, body in rendered[1:]:
        out += f" {'-' if neg else '+'} {body}"
    return out


def module_to_expr(module: FormalModule) -> str:
    """Render a canonical formal module as parseable expression text."""
    if module.is_zero:
        return "0"
    parts = []
    for f in module.factors:
        exps = f.reg.exponent_list()
        suffix = ("" if all(e == 0 for e in exps)
                  else ", exp=[" + ", ".join(str(e) for e in exps) + "]")
        if f.is_regular:
            parts.append(f"Reg(rank={f.reg.rank}{suffix})")
        else:
            parts.append(f"El({f.ram}, {phi_to_str(f.phi.terms)}, "
                         f"rank={f.reg.rank}{suffix})")
    return " + ".join(parts)
