"""Acceptance suite: every exit criterion at its stated size, exact.

All arithmetic is rational, so every assertion is tolerance-zero.  Each
criterion prints one pass line on success; a failed assertion is the fail
line.  Corpora are seed-controlled and shared across criteria.
"""

import itertools
import json
import random
import sys
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from slopelab import selftest
from slopelab.cli import main as cli_main
from slopelab.elementary import (
    certify_nearby_slopes,
    nearby_slopes,
    psi_dim,
    psi_dim_twisted,
    pullback,
    regular_module,
    slopes,
    tensor,
    witness_twist,
)
from slopelab.elementary import _twisted_dim
from slopelab.exact_algebra import MultiIndex
from slopelab.expr import parse_and_eval
from slopelab.monomial_models import MonomialFunction
from slopelab.newton_polygon import exp_twist_operator, slopes_from_operator
from slopelab.randomgen import (
    random_chain_script,
    random_formal_module,
    random_good_model,
)

from generic_twists import generic_twists
from golden_operators import GOLDEN_FIXTURES, build_operator
from slope_rule import check_walk

F = Fraction
ACCEPTANCE_SEED = 20124
EXHAUSTION_RAM_BOUND = 12
EXHAUSTION_ORD_BOUND = 24


def _report(number: int, text: str):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def _check(number: int, result: selftest.SuiteResult) -> selftest.SuiteResult:
    # A failure carries the check's own text (the case and its inputs; for
    # the module checks, p and the module as expression text) and the
    # command that reruns the criterion.
    replay = ("replay: python -m pytest tests/test_acceptance.py "
              f"-k criterion_{number}")
    assert result.ok, "\n".join(f"{result.name}: {failure}; {replay}"
                                 for failure in result.failures)
    return result


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(ACCEPTANCE_SEED)
    return [random_formal_module(rng, max_ram=6, max_ord=8, max_reg_rank=4)
            for _ in range(500)]


def test_criterion_1_witness_forward(corpus):
    """Forward direction: every positive slope admits a witness twist with
    nonvanishing nearby cycles along x**p, p <= 2, where the direct count
    equals the composed route (500 modules)."""
    _check(1, selftest.check_nearby_cycles(
        [(m, p, p) for m in corpus for p in (1, 2)]))
    checked = 2 * sum(s > 0 for m in corpus for s in slopes(m))
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
        # The certificate counts each slope's family; measure every twist.
        for rec in cert.nonmembers:
            twists = generic_twists(rec.slope, EXHAUSTION_RAM_BOUND,
                                    EXHAUSTION_ORD_BOUND)
            assert all(psi_dim_twisted(m, n, 1) == 0 for n in twists), rec
            assert len(twists) == rec.twists_checked, rec
            twists_checked += len(twists)
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
    _check(3, selftest.check_dual([(m, range(1, 7)) for m in corpus]))
    _report(3, "nearby slopes invariant under duality for 500 modules, p <= 6")


def test_criterion_4_pushforward_inclusion(corpus):
    """Nearby slopes of a pushforward embed into the source's nearby slopes
    along the composite; the inclusion is an equality in this calculus."""
    res = _check(4, selftest.check_pushforward_nearby(
        [(m, p) for m in corpus for p in range(1, 7)]))
    equal, total = res.notes["observed_equalities"], res.cases
    assert equal == total
    _report(4, f"inclusion holds in {total} cases "
               f"(observed equality in {equal}/{total})")


def test_criterion_5_regularity(corpus):
    """Regularity is equivalent to nearby slopes inside {0}, p <= 6."""
    _check(5, selftest.check_regularity(corpus))
    _report(5, "regularity <=> nearby slopes in {0} for 500 modules, p <= 6")


def test_criterion_6_monomial_coherence():
    """Threshold below the sum bound for every monomial f (entries <= 4);
    every curve restriction (entries <= 3) stays below the threshold, exact;
    full one-variable pipeline cross-checked on a seeded subsample."""
    rng = random.Random(ACCEPTANCE_SEED + 2)
    models = [random_good_model(rng, max_dim=4, max_pole=6)
              for _ in range(200)]
    cases = []
    f_checked = mediant_checked = pipeline_checked = 0
    for model in models:
        dim = model.dim
        fs = [MonomialFunction(a) for a in itertools.product(range(5), repeat=dim)
              if any(a)]
        curves = list(itertools.product((1, 2, 3), repeat=dim))
        # The mediant runs on every f whose support covers the pole support;
        # the full pipeline on a seeded subsample of them.
        covering = [f for f in fs if set(model.pole_support) <= set(f.support)]
        samples = [(covering[rng.randrange(len(covering))],
                    MultiIndex([rng.randint(1, 3) for _ in range(dim)]))
                   for _ in range(min(4, len(covering)))]
        cases.append((model, (), fs, curves, samples, ()))
        f_checked += len(fs)
        mediant_checked += len(covering) * len(curves)
        pipeline_checked += len(samples)
    _check(6, selftest.check_monomial_models(cases))
    _report(6, f"threshold <= bound for {f_checked} (model, f) pairs; mediant "
               f"exact on {mediant_checked} curve checks; {pipeline_checked} "
               f"full pipeline samples")


def test_criterion_7_blowup_sweep():
    """1000 randomized admissible chains in both modes; the multiplicity
    inequality and the three-line induction estimate hold after every step.
    The step operation itself asserts the estimate.  The inequality is
    checked once, on each chain's final rows: blow-ups only append rows and
    never change one, so that is the check after every step."""
    rng = random.Random(ACCEPTANCE_SEED + 3)
    chains = [random_chain_script(rng, max_dim=4, max_steps=6,
                                  mode="toric" if i % 2 == 0 else "abstract")
              for i in range(1000)]
    _check(7, selftest.check_blowup(chains))
    toric = sum(script["mode"] == "toric" for script in chains)
    _report(7, f"1000 chains verified ({toric} toric, {1000 - toric} abstract), "
               f"no inequality violations")


def test_criterion_8_newton_oracle():
    """Polygon oracle agrees with the elementary representation on 100
    rank-1 twists (m <= 10) and the 10 golden higher-rank fixtures."""
    cs = [F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(-1, 2),
          F(1), F(2), F(-3)]
    cases = [(m, c, [exp_twist_operator(m, c)]) for m in range(1, 11) for c in cs]
    count = _check(8, selftest.check_newton_polygon(cases)).cases
    assert count == 100
    for factors, module in GOLDEN_FIXTURES:
        assert slopes_from_operator(build_operator(factors)) == slopes(module)
    _report(8, "100 rank-1 fixtures and 10 golden fixtures agree exactly")


def test_criterion_9_cli_roundtrip_determinism(capsys):
    """200 generated expressions survive print-parse; CLI output is
    byte-identical across runs under a fixed seed."""
    rng = random.Random(ACCEPTANCE_SEED + 4)
    _check(9, selftest.check_expression_round_trip(
        [random_formal_module(rng, allow_zero=True) for _ in range(200)]))

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


def test_raw_witnesses_measure_like_canonical_ones(corpus, monkeypatch):
    """nearby_slopes measures each witness twist raw, on the degree-p*ram
    cover and in no canonical form; every raw dimension equals that of the
    canonical witness twist, for every claimed slope of the corpus, p <= 6.
    The slope walk that yields the raw witnesses agrees with the slope rule
    written out factor by factor (slope_rule.check_walk).  The last case is
    an unreduced cover: p*ram = 2 divides the exponent -2."""
    cases = [(m, p) for m in corpus for p in range(1, 7)]
    cases.append((parse_and_eval("El(1,u^-2,rank=1)"), 2))
    elementary_module = sys.modules["slopelab.elementary"]

    def refuse(*_):
        raise AssertionError("a witness check built a canonical form or a product")

    raw = []
    with monkeypatch.context() as patched:
        for name in ("make_elementary", "_conjugates"):
            patched.setattr(elementary_module, name, refuse)
        for m, p in cases:
            walk = check_walk(m, p)
            assert [r for r, _ in walk] == sorted(nearby_slopes(m, p))
            for r, witness in walk:
                raw.append((m, p, r, witness, _twisted_dim(m, [witness], p)))
    unreduced = 0
    for m, p, r, (ram, terms, rank), dim in raw:
        twist = regular_module(1) if r == 0 else witness_twist(m, r * p, p)
        assert dim == psi_dim_twisted(m, twist, p) > 0, (m, p, r)
        unreduced += reduce(gcd, (k for k, _ in terms), ram) > 1
    assert unreduced > 500
    # The last case: raw El(2, -u^-2) is canonically El(1, -u^-1) of rank 2,
    # which pulls back to rank 2 of slope 2 and cancels: dimension 2 * 2.
    m, p, r, witness, dim = raw[-1]
    assert witness[0] == 2 and witness_twist(m, r * p, p).factors[0].ram == 1
    assert dim == 4 == psi_dim(tensor(m, pullback(p, witness_twist(m, r * p, p))), p)


def test_criterion_failures_are_replayable(monkeypatch):
    # A "dual" that adds a summand breaks the involution on every module.
    monkeypatch.setattr(selftest, "dual", lambda m: m + regular_module(1))
    rng = random.Random(ACCEPTANCE_SEED)
    modules = [random_formal_module(rng, max_ram=6, max_ord=8, max_reg_rank=4)
               for _ in range(3)]
    with pytest.raises(AssertionError) as info:
        _check(3, selftest.check_dual([(m, range(1, 7)) for m in modules]))
    line = str(info.value).splitlines()[0]
    assert line.startswith("duality: case 0: involution; module: ")
    assert line.endswith(
        "; replay: python -m pytest tests/test_acceptance.py -k criterion_3")
    text = line.split("module: ")[1].split(";")[0]
    assert parse_and_eval(text) == modules[0]
