"""Tests for the multivariate monomial-model layer."""

import json
import random
from fractions import Fraction

import pytest

from slopelab.cli import _parse_monomial
from slopelab.elementary import nearby_slopes, regular_module, slopes
from slopelab.errors import ScriptError
from slopelab.exact_algebra import MultiIndex
from slopelab.monomial_models import (
    GoodModel,
    ModelFactor,
    MonomialFunction,
    VanishingRule,
    curve_restriction,
    highest_generic_slopes,
    lemma_vanishing,
    load_model,
    model_from_dict,
    model_to_dict,
    nearby_slope_bound,
    save_model,
    vanishing_threshold,
)
from slopelab.randomgen import random_good_model
from slopelab.selftest import check_monomial_models

F = Fraction


def two_factor_model():
    return GoodModel(2, [ModelFactor(MultiIndex((2, 3)), rank=1)])


def test_highest_generic_slopes_single_factor():
    div = highest_generic_slopes(two_factor_model())
    assert div.weights == (F(2), F(3))
    assert div.deg == 5


def test_highest_generic_slopes_componentwise_max():
    model = GoodModel(2, [ModelFactor(MultiIndex((2, 0))),
                          ModelFactor(MultiIndex((1, 4)))])
    assert highest_generic_slopes(model).weights == (F(2), F(4))
    assert nearby_slope_bound(model) == 6


def test_regular_model_has_zero_divisor_and_bound():
    model = GoodModel(3, [ModelFactor(MultiIndex((0, 0, 0)), rank=2)])
    assert highest_generic_slopes(model).weights == (F(0),) * 3
    assert nearby_slope_bound(model) == 0
    assert model.is_regular


def _check_models(cases):
    # Cases as check_monomial_models takes them: (model, extras, fs, curves,
    # samples, lemmas).
    res = check_monomial_models(cases)
    assert res.ok, res.failures


def test_monotonicity_of_generic_slopes():
    rng = random.Random(31)
    cases = []
    for _ in range(30):
        model = random_good_model(rng)
        extra = random_good_model(rng, max_dim=model.dim)
        cases.append((model, (extra,), (), (), (), ()))
    _check_models(cases)


def test_vanishing_threshold_examples():
    model = two_factor_model()
    t1 = vanishing_threshold(model, MonomialFunction((1, 1)))
    assert t1.value == 3 and t1.criterion_applicable
    t2 = vanishing_threshold(model, MonomialFunction((2, 3)))
    assert t2.value == 1 and t2.criterion_applicable
    regular = GoodModel(2, [ModelFactor(MultiIndex((0, 0)))])
    t3 = vanishing_threshold(regular, MonomialFunction((1, 1)))
    assert t3.value == 0 and not t3.criterion_applicable


def test_vanishing_threshold_flags_components_outside_poles():
    model = GoodModel(2, [ModelFactor(MultiIndex((2, 0)))])
    result = vanishing_threshold(model, MonomialFunction((1, 1)))
    assert result.value == 2
    assert not result.criterion_applicable  # x2 = 0 is not a pole component


def test_threshold_never_exceeds_bound():
    rng = random.Random(32)
    cases = []
    for _ in range(60):
        model = random_good_model(rng)
        a = MultiIndex([rng.randint(0, 4) for _ in range(model.dim)])
        if not a.is_zero:
            cases.append((model, (), [MonomialFunction(a)], (), (), ()))
    _check_models(cases)


def test_lemma_vanishing_verdicts():
    f = MonomialFunction((2, 1))
    assert lemma_vanishing(MultiIndex((1, 0)), MultiIndex((2, 1)), f) \
        is VanishingRule.DOMINATED_TWIST
    f2 = MonomialFunction((1, 0))
    assert lemma_vanishing(MultiIndex((0, 0)), MultiIndex((3, 2)), f2) \
        is VanishingRule.SUPPORT_ABSORBED
    f3 = MonomialFunction((1, 1))
    assert lemma_vanishing(MultiIndex((2, 0)), MultiIndex((1, 1)), f3) is None


def test_lemma_vanishing_never_claims_beyond_hypotheses():
    # Function support escaping the pole support: Unknown.
    f = MonomialFunction((1, 1))
    assert lemma_vanishing(MultiIndex((0, 0)), MultiIndex((2, 0)), f) is None
    # Twist not equal to f's exponent: the dominated-twist rule cannot fire.
    f2 = MonomialFunction((3, 1))
    assert lemma_vanishing(MultiIndex((1, 0)), MultiIndex((2, 1)), f2) is None


def test_lemma_vanishing_implies_positive_restricted_slopes():
    # Whenever a verdict fires, every admissible curve restriction of the
    # twisted factor has strictly positive slope, hence zero nearby cycles.
    rng = random.Random(33)
    cases = []
    for _ in range(60):
        dim = rng.randint(1, 3)
        a = MultiIndex([rng.randint(0, 3) for _ in range(dim)])
        b = MultiIndex([rng.randint(0, 3) for _ in range(dim)])
        if a.is_zero or lemma_vanishing(b, a, MonomialFunction(a)) is None:
            continue
        combined = MultiIndex([max(x, y) for x, y in zip(a, b)])
        lemmas = [(a, b, MultiIndex([rng.randint(1, 3) for _ in range(dim)]))
                  for _ in range(5)]
        cases.append((GoodModel(dim, [ModelFactor(combined)]), (), (), (), (),
                      lemmas))
    _check_models(cases)


def test_curve_restriction_examples():
    model = two_factor_model()
    restricted, k = curve_restriction(model, MultiIndex((1, 1)),
                                      MonomialFunction((1, 1)))
    assert slopes(restricted) == {F(5): 1}
    assert k == 2
    assert nearby_slopes(restricted, k) == {F(5, 2)}
    assert F(5, 2) <= vanishing_threshold(model, MonomialFunction((1, 1))).value

    regular = GoodModel(2, [ModelFactor(MultiIndex((0, 0)), rank=3)])
    rest, _ = curve_restriction(regular, MultiIndex((2, 1)))
    assert rest == regular_module(3)


def test_curve_restriction_carries_twist_exponents():
    model = GoodModel(2, [ModelFactor(MultiIndex((0, 0)),
                                      twist=(F(1, 2), F(1, 3)), rank=1)])
    restricted, _ = curve_restriction(model, MultiIndex((1, 2)))
    assert restricted == regular_module(1, exponents=[F(1, 2) + F(2, 3)])


def test_curve_restriction_rejects_nonpositive_curves():
    with pytest.raises(ValueError, match=">= 1"):
        curve_restriction(two_factor_model(), MultiIndex((1, 0)))


def test_mediant_bound_exact():
    rng = random.Random(34)
    for _ in range(300):
        dim = rng.randint(1, 4)
        a_entries = [rng.randint(0, 4) for _ in range(dim)]
        if not any(a_entries):
            a_entries[0] = 1
        support = [i for i, e in enumerate(a_entries) if e]
        b_entries = [0] * dim
        for i in support:
            b_entries[i] = rng.randint(0, 6)
        c = [rng.randint(1, 3) for _ in range(dim)]
        a = MultiIndex(a_entries)
        b = MultiIndex(b_entries)
        num = b.dot(c)
        den = a.dot(c)
        cap = max(F(b[i], a[i]) for i in support)
        assert F(num, den) <= cap


def test_restricted_nearby_slopes_below_threshold_on_applicable_domain():
    rng = random.Random(35)
    cases = []
    for _ in range(40):
        model = random_good_model(rng, max_dim=3)
        support = model.pole_support
        if not support:
            continue
        f = MonomialFunction([rng.randint(1, 4) if i in support else 0
                              for i in range(model.dim)])
        samples = [(f, MultiIndex([rng.randint(1, 3) for _ in range(model.dim)]))
                   for _ in range(4)]
        cases.append((model, (), [f], (), samples, ()))
    _check_models(cases)


# ---------------------------------------------------------------------------
# Model files.
# ---------------------------------------------------------------------------

def test_model_file_round_trip(tmp_path):
    model = GoodModel(2, [ModelFactor(MultiIndex((2, 3)),
                                      twist=(F(1, 2), F(0)), rank=2),
                          ModelFactor(MultiIndex((0, 0)), rank=1)])
    path = tmp_path / "two.model"
    save_model(model, str(path))
    again = load_model(str(path))
    assert again == model
    raw = json.loads(path.read_text())
    assert raw["factors"][0]["twist"] == ["1/2", "0"]


def test_model_from_dict_errors():
    with pytest.raises(ScriptError, match="dim"):
        model_from_dict({"factors": []})
    with pytest.raises(ScriptError, match="factor 0"):
        model_from_dict({"dim": 2, "factors": [{"pole": [1, "x"]}]})


def test_model_to_dict_rationals_in_lowest_terms():
    model = GoodModel(1, [ModelFactor(MultiIndex((2,)), twist=(F(2, 4),))])
    data = model_to_dict(model)
    assert data["factors"][0]["twist"] == ["1/2"]


def test_monomial_failures_name_the_model_and_f_as_replayable_text(monkeypatch):
    # A bound of 0 puts every positive threshold above it.
    monkeypatch.setattr("slopelab.selftest.nearby_slope_bound",
                        lambda model: F(0))
    model = GoodModel(3, [ModelFactor(MultiIndex((2, 0, 1)),
                                      twist=(F(1, 2), F(0), F(-1, 3)), rank=2),
                          ModelFactor(MultiIndex((0, 3, 0)))])
    fs = [MonomialFunction((1, 0, 2)), MonomialFunction((0, 1, 0))]
    res = check_monomial_models([(model, (), fs, [], [], [])])
    assert len(res.failures) == 2
    for failure, f in zip(res.failures, fs):
        assert failure.startswith("case 0: threshold below bound; model: ")
        start = failure.index("model: ") + len("model: ")
        data, end = json.JSONDecoder().raw_decode(failure, start)
        assert model_from_dict(data) == model
        assert failure[end:].startswith("; f: ")
        assert _parse_monomial(failure[end + len("; f: "):], model.dim) == f
