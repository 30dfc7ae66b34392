"""Tests for the module expression language: parse, evaluate, print."""

import random
from fractions import Fraction

import pytest

from slopelab.elementary import (
    dual,
    elementary,
    pullback,
    pushforward,
    regular_module,
    slopes,
)
from slopelab.elementary import tensor as tensor_of
from slopelab import expr
from slopelab.errors import ExpressionError
from slopelab.exact_algebra import CycloRat
from slopelab.expr import module_to_expr, parse_and_eval, parse_module
from slopelab.randomgen import random_formal_module
from slopelab.selftest import check_expression_round_trip

F = Fraction


def test_parse_elementary_with_slope():
    m = parse_and_eval("El(2, u^-3, rank=1)")
    assert slopes(m) == {F(3, 2): 2}


def test_parse_sum():
    m = parse_and_eval("Reg(rank=2) + El(1, u^-1, rank=1)")
    assert m == regular_module(2) + elementary(1, {-1: 1})


def test_parse_operators():
    assert parse_and_eval("dual(El(1, u^-2, rank=1))") == dual(elementary(1, {-2: 1}))
    assert parse_and_eval("pull(2, El(2, u^-1, rank=1))") == \
        pullback(2, elementary(2, {-1: 1}))
    assert parse_and_eval("push(3, Reg(rank=1))") == pushforward(3, regular_module(1))
    assert parse_and_eval("tensor(El(1,u^-2,rank=1), El(1,-u^-2,rank=1))") == \
        regular_module(1)


def test_parse_zero_and_parenthesized():
    assert parse_and_eval("0").is_zero
    assert parse_and_eval("(Reg(rank=1)) + 0") == regular_module(1)


def test_parse_phi_arithmetic():
    m = parse_and_eval("El(1, 2*u^-3 - 1/2*u^-1 + u^-3, rank=1)")
    assert m == elementary(1, {-3: F(3), -1: F(-1, 2)})
    n = parse_and_eval("El(1, (1 + zeta(3))*u^-2, rank=1)")
    assert n == elementary(1, {-2: 1 + CycloRat.zeta(3)})
    z = parse_and_eval("El(1, zeta(4)^3*u^-1, rank=1)")
    assert z == elementary(1, {-1: CycloRat.zeta(4, 3)})


def test_holomorphic_terms_are_dropped_at_evaluation():
    assert parse_and_eval("El(1, u^-2 + 5 + u^3, rank=1)") == \
        elementary(1, {-2: 1})


def test_zero_twist_evaluates_to_a_regular_module():
    assert parse_and_eval("El(1, 0, rank=1)") == regular_module(1)
    assert parse_and_eval("El(2, 0, rank=1)") == \
        regular_module(2, exponents=[F(0), F(1, 2)])


def test_exponent_lists():
    m = parse_and_eval("Reg(rank=2, exp=[0, 1/2])")
    assert m == regular_module(2, exponents=[F(0), F(1, 2)])
    with pytest.raises(ExpressionError, match="exp lists 1 exponents for rank 2"):
        parse_module("Reg(rank=2, exp=[1/3])")


def test_semantic_errors():
    with pytest.raises(ExpressionError, match="ramification must be >= 1"):
        parse_module("El(0, u^-1, rank=1)")
    with pytest.raises(ExpressionError, match="rank must be >= 1"):
        parse_module("Reg(rank=0)")
    with pytest.raises(ExpressionError, match="order must be >= 1"):
        parse_module("El(1, zeta(0)*u^-1, rank=1)")
    with pytest.raises(ExpressionError, match="degree must be >= 1"):
        parse_module("pull(0, Reg(rank=1))")


def test_syntax_errors_carry_positions():
    with pytest.raises(ExpressionError) as info:
        parse_module("El(2, u^-3 rank=1)")
    assert info.value.line == 1
    assert info.value.column == 12
    assert info.value.expected

    with pytest.raises(ExpressionError) as info2:
        parse_module("El(2,\n  u^^3, rank=1)")
    assert info2.value.line == 2


def test_unknown_names_rejected():
    with pytest.raises(ExpressionError, match="unknown operation"):
        parse_module("Elt(1, u^-1, rank=1)")


def test_print_parse_round_trip_on_asts():
    texts = [
        "El(2, u^-3, rank=1)",
        "Reg(rank=2, exp=[0, 1/2])",
        "El(1, -u^-2 - zeta(4)*u^-1, rank=1) + Reg(rank=1)",
        "dual(tensor(El(1, u^-1, rank=1), pull(2, push(3, Reg(rank=1)))))",
        "0",
    ]
    for text in texts:
        module = parse_and_eval(text)
        assert parse_and_eval(module_to_expr(module)) == module


@pytest.fixture
def no_module_operations(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a module operation ran")
    for name in ("dual", "tensor", "pullback", "pushforward", "elementary",
                 "regular_module"):
        monkeypatch.setattr(expr, name, refuse)


@pytest.mark.parametrize("text", [
    "El(2, u^-3 + zeta(3)*u^-1, rank=1)",
    "Reg(rank=2, exp=[0, 1/2])",
    "dual(Reg(rank=1))",
    "tensor(Reg(rank=1), Reg(rank=1))",
    "pull(2, Reg(rank=1))",
    "push(3, Reg(rank=1))",
    "El(1, u^-1, rank=1) + (dual(tensor(pull(2, push(3, 0)), Reg(rank=1))))",
])
def test_parse_module_runs_no_module_operation(no_module_operations, text):
    build = parse_module(text)
    with pytest.raises(AssertionError, match="a module operation ran"):
        build()


# Every rejection of the language, then a syntax error right after each kind
# of operation: the message, line and column come from the parser alone, and
# no module operation runs before it.
@pytest.mark.parametrize("text, message", [
    ("Reg(rank=2, exp=[1/3])",
     "exp lists 1 exponents for rank 2 at line 1, column 13"),
    ("El(0, u^-1, rank=1)", "ramification must be >= 1 at line 1, column 4"),
    ("Reg(rank=0)", "rank must be >= 1 at line 1, column 10"),
    ("El(1, zeta(0)*u^-1, rank=1)",
     "root-of-unity order must be >= 1 at line 1, column 12"),
    ("pull(0, Reg(rank=1))", "pull degree must be >= 1 at line 1, column 6"),
    ("push(0, Reg(rank=1))", "push degree must be >= 1 at line 1, column 6"),
    ("El(2, u^-3 rank=1)",
     "unexpected 'rank' at line 1, column 12 (expected ',')"),
    ("El(2,\n  u^^3, rank=1)",
     "unexpected '^' at line 2, column 5 (expected an integer)"),
    ("Elt(1, u^-1, rank=1)", "unknown operation 'Elt' at line 1, column 1 "
     "(expected El, Reg, dual, tensor, pull, push)"),
    ("(" * 201 + "Reg(rank=1)" + ")" * 201,
     "parentheses nested deeper than 200 at line 1, column 201"),
    ("El(1, " + "(" * 200 + "u^-1" + ")" * 200 + ", rank=1)",
     "parentheses nested deeper than 200 at line 1, column 206"),
    ("tensor(El(1,u^-1,rank=1), El(0,u^-1,rank=1))",
     "ramification must be >= 1 at line 1, column 30"),
    ("El(1, u^-1, rank=1) +", "unexpected 'end of input' at line 1, column 22 "
     "(expected El, Reg, dual, tensor, pull, push, 0)"),
    ("Reg(rank=1) x",
     "trailing input 'x' at line 1, column 13 (expected '+', end of input)"),
    ("dual(El(1,u^-1,rank=1)) +", "unexpected 'end of input' at line 1, "
     "column 26 (expected El, Reg, dual, tensor, pull, push, 0)"),
    ("tensor(El(1,u^-1,rank=1), Reg(rank=1)) ,",
     "trailing input ',' at line 1, column 40 (expected '+', end of input)"),
    ("pull(2, El(1,u^-1,rank=1)) *",
     "trailing input '*' at line 1, column 28 (expected '+', end of input)"),
    ("push(2, El(1,u^-1,rank=1)) 7",
     "trailing input '7' at line 1, column 28 (expected '+', end of input)"),
    ("0 0", "trailing input '0' at line 1, column 3 (expected '+', end of input)"),
    ("(Reg(rank=1)) )",
     "trailing input ')' at line 1, column 15 (expected '+', end of input)"),
    ("El(1, u^-1, rank=1)\n+\n  dual(\n Elt)", "unknown operation 'Elt' at "
     "line 4, column 2 (expected El, Reg, dual, tensor, pull, push)"),
    # Integers are ASCII digits; str.isdigit() also took these.
    ("El(\u0661,u^-\u0663,rank=1)", "unexpected character '\u0661' at line 1, column 4"),
    ("El(\u00b2,u^-1,rank=1)", "unexpected character '\u00b2' at line 1, column 4"),
])
def test_errors_come_before_any_module_operation(no_module_operations, text,
                                                 message):
    with pytest.raises(ExpressionError) as info:
        parse_module(text)
    assert str(info.value) == message


def test_module_to_expr_round_trips_canonical_values():
    rng = random.Random(61)
    res = check_expression_round_trip(
        [random_formal_module(rng) for _ in range(60)])
    assert res.ok, res.failures


def test_module_to_expr_zero():
    from slopelab.elementary import FormalModule
    assert module_to_expr(FormalModule.zero()) == "0"
    assert parse_and_eval("0") == FormalModule.zero()


def test_parser_rejects_garbage_with_structured_errors_only():
    rng = random.Random(99)
    alphabet = "ElRegdualtensorpullpushzeta u^-+*/(),[]=0123456789 \n"
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        try:
            parse_module(text)
        except ExpressionError:
            pass  # structured rejection is the contract


def test_multi_term_cyclotomic_coefficients_round_trip():
    # End(El(3, u^-1)) has conjugate classes whose coefficients need
    # parenthesized multi-term cyclotomic rendering.
    m = elementary(3, {-1: 1})
    t = tensor_of(m, dual(m))
    text = module_to_expr(t)
    assert "zeta(3)" in text and "(" in text
    assert parse_and_eval(text) == t
    assert slopes(t) == {F(0): 3, F(1, 3): 6}
