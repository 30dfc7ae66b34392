"""Newton-polygon oracle tests, including the golden operator fixtures."""

from fractions import Fraction

import pytest

from slopelab.elementary import slopes
from slopelab.newton_polygon import (
    compose_operators,
    exp_twist_operator,
    slopes_from_operator,
)
from slopelab.selftest import check_newton_polygon

F = Fraction


def test_compose_operators_by_hand():
    # (x^2 d + 1)(x d) = x^3 d^2 + (x^2 + x) d, expanded manually.
    left = {1: {2: F(1)}, 0: {0: F(1)}}
    right = {1: {1: F(1)}}
    assert compose_operators(left, right) == {
        2: {3: F(1)}, 1: {2: F(1), 1: F(1)}}


def test_annihilator_of_exponential_has_slope_one():
    # x^2 d/dx + 1: polygon points (1,1), (0,0).
    op = [(1, {2: F(1)}), (0, {0: F(1)})]
    assert slopes_from_operator(op) == {F(1): 1}


def test_regular_singular_operator_has_slope_zero():
    op = [(1, {1: F(1)}), (0, {0: F(-5)})]
    assert slopes_from_operator(op) == {F(0): 1}


def test_mixed_operator_with_negative_prefix_edge():
    # x^4 d^2/dx^2 + d/dx + 1: points (2,2), (1,-1), (0,0) -> slopes {0, 3}.
    op = [(2, {4: F(1)}), (1, {0: F(1)}), (0, {0: F(1)})]
    assert slopes_from_operator(op) == {F(0): 1, F(3): 1}


def test_rejects_zero_operator_and_duplicates():
    with pytest.raises(ValueError, match="zero operator"):
        slopes_from_operator([(1, {}), (0, {0: F(0)})])
    with pytest.raises(ValueError, match="duplicate"):
        slopes_from_operator([(1, {0: F(1)}), (1, {1: F(1)})])


def test_laurent_coefficients_shift_polygon_uniformly():
    # Multiplying the operator by x^k does not change the module.
    base = [(2, {4: F(1)}), (1, {0: F(1)}), (0, {0: F(1)})]
    shifted = [(i, {e - 3: c for e, c in coeff.items()}) for i, coeff in base]
    assert slopes_from_operator(base) == slopes_from_operator(shifted)


def test_rank_one_twist_family_matches_elementary_representation():
    res = check_newton_polygon(
        [(m, c, [exp_twist_operator(m, c)]) for m in range(1, 11)
         for c in (F(0), F(1, 2), F(2, 3), F(-1, 4), F(3))])
    assert res.ok, res.failures


# Golden higher-rank fixtures: products of first-order pieces with known
# slope content, expanded independently of the polygon by compose_operators.

from golden_operators import GOLDEN_FIXTURES, build_operator  # noqa: E402


@pytest.mark.parametrize("factors,module", GOLDEN_FIXTURES)
def test_golden_fixtures_agree_with_module_calculus(factors, module):
    assert slopes_from_operator(build_operator(factors)) == slopes(module)
