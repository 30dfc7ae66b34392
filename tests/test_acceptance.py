"""Acceptance suite: every exit criterion at its stated size, exact.

All arithmetic is rational, so every assertion is tolerance-zero.  Each
criterion prints one pass line on success; a failed assertion is the fail
line.  Corpora are seed-controlled and shared across criteria.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from slopelab.cli import main as cli_main
from slopelab.elementary import (
    certify_nearby_slopes,
    dual,
    elementary,
    is_regular,
    nearby_slopes,
    psi_dim,
    psi_dim_twisted,
    pullback,
    pushforward,
    regular_rank,
    slopes,
    tensor,
    witness_twist,
)
from slopelab.exact_algebra import MultiIndex
from slopelab.expr import module_to_expr, parse_and_eval
from slopelab.monomial_models import (
    MonomialFunction,
    curve_restriction,
    highest_generic_slopes,
    nearby_slope_bound,
    vanishing_threshold,
)
from slopelab.newton_polygon import exp_twist_operator, slopes_from_operator
from slopelab.randomgen import (
    random_chain,
    random_formal_module,
    random_good_model,
)
from slopelab import blowup

from golden_operators import GOLDEN_FIXTURES, build_operator

F = Fraction
ACCEPTANCE_SEED = 20124
EXHAUSTION_RAM_BOUND = 12
EXHAUSTION_ORD_BOUND = 24


def _report(number: int, text: str):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(ACCEPTANCE_SEED)
    return [random_formal_module(rng, max_ram=6, max_ord=8, max_reg_rank=4)
            for _ in range(500)]


def test_criterion_1_witness_forward(corpus):
    """Forward direction: every positive slope admits a witness twist with
    nonvanishing nearby cycles along x**p, p <= 2, where the direct count
    equals the composed route (500 modules)."""
    checked = 0
    for m in corpus:
        for s in slopes(m):
            if s > 0:
                for p in (1, 2):
                    twist = witness_twist(m, s, p)
                    composed = psi_dim(tensor(m, pullback(p, twist)), p)
                    assert psi_dim_twisted(m, twist, p) == composed > 0, (m, s, p)
                    checked += 1
    assert checked > 800
    _report(1, f"witness twists nonvanishing and fast/full routes agree in "
               f"{checked} (slope, p) cases across 500 modules, p <= 2")


def test_criterion_2_bounded_exhaustion(corpus):
    """Reverse direction: every rational on the bounded grid outside the
    predicted set is killed by every elementary twist template of that
    slope (ram <= 12, pole order <= 24)."""
    rng = random.Random(ACCEPTANCE_SEED + 1)
    nonmembers_checked = 0
    twists_checked = 0
    for m in corpus:
        cert = certify_nearby_slopes(m, 1, ram_bound=EXHAUSTION_RAM_BOUND,
                                     ord_bound=EXHAUSTION_ORD_BOUND)
        nonmembers_checked += len(cert.nonmembers)
        twists_checked += sum(rec.twists_checked for rec in cert.nonmembers)
    # The direct computation behind the sweep agrees with the composed
    # operations on a seeded subsample (dual-route check).
    for _ in range(150):
        m = corpus[rng.randrange(len(corpus))]
        n = random_formal_module(rng, max_factors=1, max_ram=6, max_ord=8)
        p = rng.randint(1, 4)
        assert psi_dim_twisted(m, n, p) == psi_dim(tensor(m, pullback(p, n)), p)
    _report(2, f"{nonmembers_checked} non-member slopes certified "
               f"({twists_checked} twists), fast/full routes agree on 150 samples")


def test_criterion_3_dual_invariance(corpus):
    """Nearby slopes are invariant under duality, p <= 6."""
    for m in corpus:
        dm = dual(m)
        for p in range(1, 7):
            assert nearby_slopes(dm, p) == nearby_slopes(m, p), (m, p)
    _report(3, "nearby slopes invariant under duality for 500 modules, p <= 6")


def test_criterion_4_pushforward_inclusion(corpus):
    """Nearby slopes of a pushforward embed into the source's nearby slopes
    along the composite; the inclusion is an equality in this calculus."""
    equal = 0
    total = 0
    for m in corpus:
        for p in range(1, 7):
            lhs = nearby_slopes(pushforward(p, m), 1)
            rhs = nearby_slopes(m, p)
            assert lhs <= rhs, (m, p)
            total += 1
            if lhs == rhs:
                equal += 1
    _report(4, f"inclusion holds in {total} cases "
               f"(observed equality in {equal}/{total})")


def test_criterion_5_regularity(corpus):
    """Regularity is equivalent to nearby slopes inside {0}, p <= 6."""
    for m in corpus:
        reg = is_regular(m)
        for p in range(1, 7):
            assert reg == (nearby_slopes(m, p) <= {F(0)}), (m, p)
    _report(5, "regularity <=> nearby slopes in {0} for 500 modules, p <= 6")


def test_criterion_6_monomial_coherence():
    """Threshold below the sum bound for every monomial f (entries <= 4);
    every curve restriction (entries <= 3) stays below the threshold, exact;
    full one-variable pipeline cross-checked on a seeded subsample."""
    rng = random.Random(ACCEPTANCE_SEED + 2)
    models = [random_good_model(rng, max_dim=4, max_pole=6)
              for _ in range(200)]
    f_checked = 0
    mediant_checked = 0
    pipeline_checked = 0
    for model in models:
        dim = model.dim
        div = highest_generic_slopes(model)
        bound = nearby_slope_bound(model)
        r_vec = [int(w) for w in div.weights]
        support = set(model.pole_support)
        curves = [c for c in itertools.product((1, 2, 3), repeat=dim)]
        all_f = [a for a in itertools.product(range(5), repeat=dim) if any(a)]
        applicable_pairs = []
        for a in all_f:
            f = MonomialFunction(a)
            thr = vanishing_threshold(model, f)
            assert thr.value <= bound, (model, a)
            f_checked += 1
            if all(a[i] >= 1 for i in support):
                # Mediant inequality, exact in integers, for every curve:
                # <r, c> / <a, c> <= threshold dominates each factor's
                # restricted slope since poles are componentwise below r.
                num_cap, den_cap = thr.value.numerator, thr.value.denominator
                for c in curves:
                    lhs = sum(r * x for r, x in zip(r_vec, c))
                    rhs = sum(e * x for e, x in zip(a, c))
                    assert lhs * den_cap <= num_cap * rhs, (model, a, c)
                    mediant_checked += 1
                applicable_pairs.append(f)
        # Full pipeline on a seeded subsample: restricted nearby slopes
        # computed through the one-variable calculus match the dot-product
        # prediction and stay below the threshold.
        for _ in range(min(4, len(applicable_pairs))):
            f = applicable_pairs[rng.randrange(len(applicable_pairs))]
            c = MultiIndex([rng.randint(1, 3) for _ in range(dim)])
            restricted, k = curve_restriction(model, c, f)
            thr = vanishing_threshold(model, f)
            near = nearby_slopes(restricted, k)
            predicted = {F(fac.pole.dot(c.entries), k)
                         for fac in model.factors if fac.pole.dot(c.entries)}
            if regular_rank(restricted):
                predicted.add(F(0))
            assert near == predicted, (model, f, c)
            for s in near:
                assert s <= thr.value, (model, f, c, s)
            pipeline_checked += 1
    _report(6, f"threshold <= bound for {f_checked} (model, f) pairs; mediant "
               f"exact on {mediant_checked} curve checks; {pipeline_checked} "
               f"full pipeline samples")


def test_criterion_7_blowup_sweep():
    """1000 randomized admissible chains in both modes; the multiplicity
    inequality and the three-line induction estimate hold after every step
    (the step operation itself asserts the estimate)."""
    rng = random.Random(ACCEPTANCE_SEED + 3)
    toric = abstract = 0
    for i in range(1000):
        mode = "toric" if i % 2 == 0 else "abstract"
        state = random_chain(rng, max_dim=4, max_steps=6, mode=mode)
        report = blowup.verify_inequality(state)
        assert report.ok, blowup.report_to_text(report)
        if mode == "toric":
            toric += 1
        else:
            abstract += 1
    _report(7, f"1000 chains verified ({toric} toric, {abstract} abstract), "
               f"no inequality violations")


def test_criterion_8_newton_oracle():
    """Polygon oracle agrees with the elementary representation on 100
    rank-1 twists (m <= 10) and the 10 golden higher-rank fixtures."""
    count = 0
    cs = [F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(-1, 2),
          F(1), F(2), F(-3)]
    for m in range(1, 11):
        for c in cs:
            op = sorted(exp_twist_operator(m, c).items())
            assert slopes_from_operator(op) == slopes(elementary(1, {-m: 1}))
            count += 1
    assert count == 100
    for factors, module in GOLDEN_FIXTURES:
        assert slopes_from_operator(build_operator(factors)) == slopes(module)
    _report(8, "100 rank-1 fixtures and 10 golden fixtures agree exactly")


def test_criterion_9_cli_roundtrip_determinism(capsys):
    """200 generated expressions survive print-parse; CLI output is
    byte-identical across runs under a fixed seed."""
    rng = random.Random(ACCEPTANCE_SEED + 4)
    for _ in range(200):
        m = random_formal_module(rng, allow_zero=True)
        text = module_to_expr(m)
        assert parse_and_eval(text) == m
        assert module_to_expr(parse_and_eval(text)) == text

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    first = run("selftest", "--cases", "6", "--seed", "17", "--json")
    second = run("selftest", "--cases", "6", "--seed", "17", "--json")
    assert first == second
    cert1 = run("nearby", "-e", "El(2,u^-3,rank=1)", "-p", "2", "--cert", "--json")
    cert2 = run("nearby", "-e", "El(2,u^-3,rank=1)", "-p", "2", "--cert", "--json")
    assert cert1 == cert2
    assert json.loads(first)["ok"] is True
    _report(9, "200 expressions round-trip; repeated CLI runs byte-identical")
