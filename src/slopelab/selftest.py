"""Property-test harness behind `slopelab selftest`.

Each suite draws a reproducible corpus from :mod:`slopelab.randomgen` and
checks one family of invariants exactly; a red suite means either an encoding
bug or a falsified mathematical claim, and the CLI turns it into exit code 2.
The acceptance tests do not call these suites: they check their criteria on
their own corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from slopelab import blowup
from slopelab.elementary import (
    FormalModule,
    certify_nearby_slopes,
    dual,
    elementary,
    irregularity,
    is_regular,
    nearby_slopes,
    psi_dim,
    pullback,
    pushforward,
    regular_module,
    regular_rank,
    slopes,
    tensor,
    witness_twist,
)
from slopelab.errors import FalsificationError, SlopelabError
from slopelab.exact_algebra import CycloRat, MultiIndex, RamifiedExponent
from slopelab.expr import module_to_expr, parse_and_eval, parse_module, print_ast
from slopelab.monomial_models import (
    GoodModel,
    ModelFactor,
    MonomialFunction,
    curve_restriction,
    highest_generic_slopes,
    lemma_vanishing,
    nearby_slope_bound,
    vanishing_threshold,
)
from slopelab.newton_polygon import (
    compose_operators,
    euler_operator,
    exp_twist_operator,
    slopes_from_operator,
)
from slopelab import randomgen
from slopelab.randomgen import (
    random_chain,
    random_formal_module,
    random_good_model,
)

F = Fraction


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _record(result: SuiteResult, condition: bool, case: int, what: str,
            *modules: FormalModule):
    # A failure names its case and, in the module suites, the inputs as
    # expression text; run_selftest adds the suite, the seed and the replay
    # command.  The text is rendered only on failure.
    if not condition and len(result.failures) < 10:
        inputs = "".join(f"; module: {module_to_expr(m)}" for m in modules)
        result.failures.append(f"case {case}: {what}{inputs}")


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

def suite_cyclotomic_field(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("cyclotomic-field-axioms", cases)
    orders = (1, 2, 3, 4, 5, 6, 8, 12)

    def rand_value():
        order = rng.choice(orders)
        from slopelab.exact_algebra import euler_phi
        return CycloRat(order, [F(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(euler_phi(order))])

    for i in range(cases):
        a, b, c = rand_value(), rand_value(), rand_value()
        _record(res, (a + b) + c == a + (b + c), i, "assoc +")
        _record(res, (a * b) * c == a * (b * c), i, "assoc *")
        _record(res, a * (b + c) == a * b + a * c, i, "distributivity")
        if not a.is_zero:
            _record(res, a * a.inverse() == 1, i, "inverse")
    return res


def suite_exponent_substitution(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("exponent-substitution", cases)
    for i in range(cases):
        ram = rng.randint(1, 6)
        keys = rng.sample(range(1, 9), rng.randint(1, 3))
        phi = RamifiedExponent(ram, {-k: F(rng.randint(1, 3)) for k in keys})
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        _record(res, phi.substitute_root(1, 0) == phi, i, "identity")
        lhs = phi.substitute_root(1, 0, s).substitute_root(1, 0, t)
        _record(res, lhs == phi.substitute_root(1, 0, s * t), i,
                "scale multiplicativity")
        out = phi.substitute_root(rng.choice((1, 2, 3, 4)), 1, s)
        _record(res, F(out.pole_order, out.ram) == s * F(phi.pole_order, phi.ram),
                i, "pole-order scaling")
        if phi.ram == 1:
            _record(res, out.pole_order == s * phi.pole_order, i,
                    "unramified pole-order scaling")
    return res


def suite_dual(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("duality", cases)
    for i in range(cases):
        m = random_formal_module(rng)
        _record(res, dual(dual(m)) == m, i, "involution", m)
        _record(res, slopes(dual(m)) == slopes(m), i, "slope preservation", m)
        p = rng.randint(1, 6)
        _record(res, nearby_slopes(dual(m), p) == nearby_slopes(m, p), i,
                f"nearby-slope invariance (p={p})", m)
    return res


def suite_pullback_pushforward(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("pullback-pushforward", cases)
    for i in range(cases):
        m = random_formal_module(rng)
        q = rng.randint(1, 6)
        pb = pullback(q, m)
        _record(res, pb.rank == m.rank, i, f"pullback rank (q={q})", m)
        _record(res, slopes(pb) == {q * s: k for s, k in slopes(m).items()},
                i, f"pullback slopes (q={q})", m)
        p = rng.randint(1, 6)
        pf = pushforward(p, m)
        _record(res, pf.rank == p * m.rank, i, f"pushforward rank (p={p})", m)
        _record(res, slopes(pf) == {s / p: p * k for s, k in slopes(m).items()},
                i, f"pushforward slopes (p={p})", m)
    return res


def suite_pushforward_nearby(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("pushforward-nearby-inclusion", cases)
    equalities = 0
    for i in range(cases):
        m = random_formal_module(rng)
        p = rng.randint(1, 6)
        lhs = nearby_slopes(pushforward(p, m), 1)
        rhs = nearby_slopes(m, p)
        _record(res, lhs <= rhs, i, f"inclusion (p={p})", m)
        if lhs == rhs:
            equalities += 1
    res.notes["observed_equalities"] = equalities
    return res


def suite_tensor(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("tensor-algebra", cases)
    unit = regular_module(1)
    for i in range(cases):
        a = random_formal_module(rng, max_factors=2, max_ram=4, max_ord=6)
        b = random_formal_module(rng, max_factors=2, max_ram=4, max_ord=6)
        c = random_formal_module(rng, max_factors=1, max_ram=3, max_ord=4)
        _record(res, tensor(a, unit) == a, i, "unit", a)
        _record(res, tensor(a, b) == tensor(b, a), i, "commutativity", a, b)
        _record(res, tensor(tensor(a, b), c) == tensor(a, tensor(b, c)),
                i, "associativity", a, b, c)
        _record(res, tensor(a, b).rank == a.rank * b.rank, i, "rank", a, b)
        q = rng.randint(1, 6)
        _record(res, pullback(q, tensor(a, b))
                == tensor(pullback(q, a), pullback(q, b)),
                i, f"pullback monoidality (q={q})", a, b)
        p = rng.randint(1, 4)
        _record(res, tensor(pushforward(p, a), b)
                == pushforward(p, tensor(a, pullback(p, b))),
                i, f"projection formula (p={p})", a, b)
    return res


def suite_nearby_cycles(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("nearby-cycles", cases)
    for i in range(cases):
        m = random_formal_module(rng)
        k = rng.randint(1, 6)
        if all(s > 0 for s in slopes(m)):
            _record(res, psi_dim(m, k) == 0, i, f"vanishing above slope 0 (k={k})", m)
        _record(res, psi_dim(m, k) == regular_rank(pushforward(k, m)), i,
                f"pushforward consistency (k={k})", m)
        p = rng.randint(1, 4)
        for s in slopes(m):
            if s > 0:
                twist = witness_twist(m, s, p)
                _record(res, psi_dim(tensor(m, pullback(p, twist)), p) > 0,
                        i, f"witness positivity (slope {s}, p={p})", m)
        if i % 8 == 0:
            # Small-bound certificate: both directions of the nearby-slope
            # equivalence on a reduced twist grid.
            try:
                cert = certify_nearby_slopes(m, 1, ram_bound=4, ord_bound=6)
            except FalsificationError as exc:
                _record(res, False, i, f"certificate: {exc}")
            else:
                _record(res, cert.slopes == nearby_slopes(m, 1), i,
                        "certificate slopes", m)
    return res


def suite_regularity(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("regularity-characterization", cases)
    for i in range(cases):
        m = random_formal_module(rng)
        reg = is_regular(m)
        max_slope = max(slopes(m), default=F(0))
        _record(res, reg == (max_slope == 0), i, "max-slope form", m)
        for p in range(1, 7):
            _record(res, reg == (nearby_slopes(m, p) <= {F(0)}), i,
                    f"nearby form (p={p})", m)
        _record(res, irregularity(m) >= 0, i, "irregularity sign", m)
    return res


def suite_newton_polygon(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("newton-polygon-oracle", cases)
    for i in range(cases):
        m = rng.randint(1, 10)
        c = F(rng.randint(-4, 4), rng.randint(1, 4))
        op = sorted(exp_twist_operator(m, c).items())
        _record(res, slopes_from_operator(op) == slopes(elementary(1, {-m: 1})),
                i, f"rank-1 twist m={m}")
        pieces = [exp_twist_operator(rng.randint(1, 6)) if rng.random() < 0.7
                  else euler_operator(F(rng.randint(0, 3)))
                  for _ in range(rng.randint(2, 3))]
        product = pieces[0]
        expected = FormalModule.zero()
        for piece in pieces:
            lead = min(piece[1])  # x^(m+1) for a twist piece, x for a regular one
            expected = expected + (elementary(1, {-(lead - 1): 1})
                                   if lead > 1 else regular_module(1))
        for piece in pieces[1:]:
            product = compose_operators(product, piece)
        _record(res, slopes_from_operator(sorted(product.items())) == slopes(expected),
                i, "composite fixture", expected)
    return res


def suite_monomial_models(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("monomial-models", cases)
    for i in range(cases):
        model = random_good_model(rng)
        div = highest_generic_slopes(model)
        for f in model.factors:
            _record(res, all(div[j] >= f.pole[j] for j in range(model.dim)),
                    i, "divisor dominates factors")
        extra = random_good_model(rng)
        if extra.dim == model.dim:
            grown = highest_generic_slopes(
                GoodModel(model.dim, model.factors + extra.factors))
            _record(res, all(grown[j] >= div[j] for j in range(model.dim)),
                    i, "monotonicity")
        a_entries = [rng.randint(0, 4) for _ in range(model.dim)]
        if not any(a_entries):
            a_entries[rng.randrange(model.dim)] = rng.randint(1, 4)
        f = MonomialFunction(a_entries)
        thr = vanishing_threshold(model, f)
        _record(res, thr.value <= nearby_slope_bound(model), i,
                "threshold below bound")
        if model.is_regular:
            _record(res, thr.value == 0, i, "regular threshold")
        support = model.pole_support
        if support:
            a2 = MonomialFunction([rng.randint(1, 4) if j in support else 0
                                   for j in range(model.dim)])
            thr2 = vanishing_threshold(model, a2)
            _record(res, thr2.criterion_applicable, i, "applicability")
            curve = MultiIndex([rng.randint(1, 3) for _ in range(model.dim)])
            # Raw mediant inequality, exact: <b,c>/<a,c> <= max b_i/a_i.
            a_vec = a2.exponents
            for fac in model.factors:
                num = fac.pole.dot(curve.entries)
                den = a_vec.dot(curve.entries)
                cap = max((F(fac.pole[j], a_vec[j]) for j in a_vec.support),
                          default=F(0))
                _record(res, F(num, den) <= cap or num == 0, i, "mediant")
            restricted, k = curve_restriction(model, curve, a2)
            for s in nearby_slopes(restricted, k):
                _record(res, s <= thr2.value, i, "restricted slope bound",
                        restricted)
        # Whenever a sufficient vanishing criterion fires, the twisted factor
        # has positive slope along every admissible curve.
        dim = model.dim
        a3 = MultiIndex([rng.randint(0, 3) for _ in range(dim)])
        b3 = MultiIndex([rng.randint(0, 3) for _ in range(dim)])
        if not a3.is_zero:
            f3 = MonomialFunction(a3)
            if lemma_vanishing(b3, a3, f3) is not None:
                combined = MultiIndex([max(x, y) for x, y in zip(a3, b3)])
                model3 = GoodModel(dim, [ModelFactor(combined)])
                curve3 = MultiIndex([rng.randint(1, 3) for _ in range(dim)])
                restricted3, k3 = curve_restriction(model3, curve3, f3)
                _record(res, all(s > 0 for s in slopes(restricted3)), i,
                        "lemma cross-oracle", restricted3)
                _record(res, psi_dim(restricted3, k3) == 0, i,
                        f"lemma cross-oracle psi (k={k3})", restricted3)
    return res


def suite_blowup(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("blowup-chains", cases)
    for i in range(cases):
        try:
            state = random_chain(rng)
        except (FalsificationError, SlopelabError) as exc:
            _record(res, False, i, f"chain: {exc}")
            continue
        report = blowup.verify_inequality(state)
        _record(res, report.ok, i,
                f"chain: inequality violated at {report.violations}")
        if state.mode == "toric":
            for comp in state.components:
                pair_z = sum(x * a for x, a in zip(comp.ray, state.z_vector))
                _record(res, comp.vZ == pair_z, i,
                        f"chain: valuation linearity ({comp.id})")
    return res


def suite_expression_round_trip(rng: random.Random, cases: int) -> SuiteResult:
    res = SuiteResult("expression-round-trip", cases)
    for i in range(cases):
        m = random_formal_module(rng, allow_zero=True)
        text = module_to_expr(m)
        _record(res, parse_and_eval(text) == m, i, "value round trip", m)
        ast = parse_module(text)
        _record(res, print_ast(parse_module(print_ast(ast))) == print_ast(ast),
                i, "print/parse/print", m)
    return res


ALL_SUITES = (
    suite_cyclotomic_field,
    suite_exponent_substitution,
    suite_dual,
    suite_pullback_pushforward,
    suite_pushforward_nearby,
    suite_tensor,
    suite_nearby_cycles,
    suite_regularity,
    suite_newton_polygon,
    suite_monomial_models,
    suite_blowup,
    suite_expression_round_trip,
)


def run_selftest(seed: int = randomgen.DEFAULT_SEED,
                 cases: int = 40) -> list[SuiteResult]:
    """Run every suite on seed-derived corpora; deterministic for a seed.

    Each failure message names its suite, seed and case and ends with the
    command that reruns it.
    """
    results = []
    replay = f"replay: slopelab selftest --seed {seed} --cases {cases}"
    for index, suite in enumerate(ALL_SUITES):
        rng = random.Random(seed * 1000003 + index)
        res = suite(rng, cases)
        res.failures = [f"{res.name}: seed {seed}, {failure}; {replay}"
                        for failure in res.failures]
        results.append(res)
    return results
