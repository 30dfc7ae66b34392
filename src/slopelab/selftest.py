"""Property checks behind `slopelab selftest` and the acceptance tests.

Each check takes its cases as data and checks one family of invariants
exactly.  `slopelab selftest` draws the cases of every check from its seed;
the acceptance criteria and the seeded tests build them from their own
corpora and assert that the returned `SuiteResult` is ok.  A red check means
either an encoding bug or a falsified mathematical claim, and the CLI turns
it into exit code 2.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

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
    psi_dim_twisted,
    pullback,
    pushforward,
    regular_module,
    regular_rank,
    slopes,
    tensor,
    witness_twist,
)
from slopelab.errors import FalsificationError, SlopelabError
from slopelab.exact_algebra import CycloRat, MultiIndex, RamifiedExponent, euler_phi
from slopelab.expr import module_to_expr, parse_and_eval
from slopelab.monomial_models import (
    GoodModel,
    ModelFactor,
    MonomialFunction,
    curve_restriction,
    highest_generic_slopes,
    lemma_vanishing,
    model_to_dict,
    nearby_slope_bound,
    vanishing_threshold,
)
from slopelab.newton_polygon import (
    compose_operators,
    euler_operator,
    exp_twist_operator,
    slopes_from_operator,
)
from slopelab.randomgen import (
    random_chain_script,
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


def _describe(value) -> str:
    # An input as the text its command reads: a model as the JSON of
    # `slopelab bound -m`, a blow-up chain as the JSON of `slopelab
    # blowup -s`, a monomial as `-f` text, a module as `-e` text.
    if isinstance(value, dict):
        return f"script for slopelab blowup -s: {json.dumps(value)}"
    if isinstance(value, GoodModel):
        return f"model: {json.dumps(model_to_dict(value))}"
    if isinstance(value, MonomialFunction):
        return f"f: {value}"
    return f"module: {module_to_expr(value)}"


def _record(result: SuiteResult, condition: bool, case: int, what: str,
            *inputs):
    # A failure names its case and its inputs (`_describe`); the caller adds
    # the seed or corpus and the replay command.  The text is rendered only
    # on failure.
    if not condition and len(result.failures) < 10:
        described = "".join(f"; {_describe(x)}" for x in inputs)
        result.failures.append(f"case {case}: {what}{described}")


# ---------------------------------------------------------------------------
# Checks.  Each takes a list of cases; its docstring gives a case's shape.
# ---------------------------------------------------------------------------

def check_cyclotomic_field(cases) -> SuiteResult:
    """Each case is a triple (a, b, c) of CycloRat values."""
    res = SuiteResult("cyclotomic-field-axioms", len(cases))
    for i, (a, b, c) in enumerate(cases):
        _record(res, (a + b) + c == a + (b + c), i, "assoc +")
        _record(res, a + b == b + a, i, "commutativity +")
        _record(res, (a * b) * c == a * (b * c), i, "assoc *")
        _record(res, a * b == b * a, i, "commutativity *")
        _record(res, a * (b + c) == a * b + a * c, i, "distributivity")
        _record(res, a + 0 == a and a * 1 == a, i, "identities")
        if not a.is_zero:
            _record(res, a * a.inverse() == 1, i, "inverse")
    return res


def check_exponent_substitution(cases) -> SuiteResult:
    """Each case is (phi, s, t, n): scales s and t, and a root order n."""
    res = SuiteResult("exponent-substitution", len(cases))
    for i, (phi, s, t, n) in enumerate(cases):
        _record(res, phi.substitute_root(1, 0) == phi, i, "identity")
        lhs = phi.substitute_root(1, 0, s).substitute_root(1, 0, t)
        _record(res, lhs == phi.substitute_root(1, 0, s * t), i,
                "scale multiplicativity")
        out = phi.substitute_root(n, 1, s)
        _record(res, F(out.pole_order, out.ram) == s * F(phi.pole_order, phi.ram),
                i, "pole-order scaling")
        if phi.ram == 1:
            _record(res, out.pole_order == s * phi.pole_order, i,
                    "unramified pole-order scaling")
    return res


def check_dual(cases) -> SuiteResult:
    """Each case is (m, ps): nearby slopes are compared at every p in ps."""
    res = SuiteResult("duality", len(cases))
    for i, (m, ps) in enumerate(cases):
        dm = dual(m)
        _record(res, dual(dm) == m, i, "involution", m)
        _record(res, slopes(dm) == slopes(m), i, "slope preservation", m)
        for p in ps:
            _record(res, nearby_slopes(dm, p) == nearby_slopes(m, p), i,
                    f"nearby-slope invariance (p={p})", m)
    return res


def check_pullback_pushforward(cases) -> SuiteResult:
    """Each case is (m, q, p): pullback along x**q, pushforward along x**p."""
    res = SuiteResult("pullback-pushforward", len(cases))
    for i, (m, q, p) in enumerate(cases):
        pb = pullback(q, m)
        _record(res, pb.rank == m.rank, i, f"pullback rank (q={q})", m)
        _record(res, slopes(pb) == {q * s: k for s, k in slopes(m).items()},
                i, f"pullback slopes (q={q})", m)
        _record(res, pullback(p, pb) == pullback(p * q, m), i,
                f"pullback composition (q={q}, p={p})", m)
        pf = pushforward(p, m)
        _record(res, pf.rank == p * m.rank, i, f"pushforward rank (p={p})", m)
        _record(res, slopes(pf) == {s / p: p * k for s, k in slopes(m).items()},
                i, f"pushforward slopes (p={p})", m)
        _record(res, pushforward(q, pf) == pushforward(p * q, m), i,
                f"pushforward composition (q={q}, p={p})", m)
    return res


def check_pushforward_nearby(cases) -> SuiteResult:
    """Each case is (m, p): nearby slopes of pushforward(p, m) along x
    against those of m along x**p."""
    res = SuiteResult("pushforward-nearby-inclusion", len(cases))
    equalities = 0
    for i, (m, p) in enumerate(cases):
        lhs = nearby_slopes(pushforward(p, m), 1)
        rhs = nearby_slopes(m, p)
        _record(res, lhs <= rhs, i, f"inclusion (p={p})", m)
        # By the projection formula the inclusion is an equality here.
        _record(res, lhs == rhs, i, f"equality (p={p})", m)
        equalities += lhs == rhs
    res.notes["observed_equalities"] = equalities
    return res


def check_tensor(cases) -> SuiteResult:
    """Each case is (a, b, c, q, p): three modules, a pullback degree q and
    a pushforward degree p."""
    res = SuiteResult("tensor-algebra", len(cases))
    unit = regular_module(1)
    for i, (a, b, c, q, p) in enumerate(cases):
        ab = tensor(a, b)
        _record(res, tensor(a, unit) == a, i, "unit", a)
        _record(res, ab == tensor(b, a), i, "commutativity", a, b)
        _record(res, tensor(ab, c) == tensor(a, tensor(b, c)),
                i, "associativity", a, b, c)
        _record(res, ab.rank == a.rank * b.rank, i, "rank", a, b)
        # The factors of the larger top slope pair with every factor of the
        # other module and give exactly that slope.
        (sa, ka), (sb, kb) = max(slopes(a).items()), max(slopes(b).items())
        if sa != sb:
            top = (sa, ka * b.rank) if sa > sb else (sb, kb * a.rank)
            _record(res, max(slopes(ab).items()) == top, i, "max-slope rule", a, b)
        _record(res, dual(ab) == tensor(dual(a), dual(b)), i,
                "dual monoidality", a, b)
        _record(res, pullback(q, ab) == tensor(pullback(q, a), pullback(q, b)),
                i, f"pullback monoidality (q={q})", a, b)
        _record(res, tensor(pushforward(p, a), b)
                == pushforward(p, tensor(a, pullback(p, b))),
                i, f"projection formula (p={p})", a, b)
    return res


def check_nearby_cycles(cases) -> SuiteResult:
    """Each case is (m, k, p): nearby cycles along x**k, witness twists
    along x**p.  Every eighth case also runs a small-bound certificate."""
    res = SuiteResult("nearby-cycles", len(cases))
    for i, (m, k, p) in enumerate(cases):
        psi = psi_dim(m, k)
        _record(res, (psi > 0) == (regular_rank(m) > 0), i,
                f"vanishing iff no regular part (k={k})", m)
        _record(res, psi == regular_rank(pushforward(k, m)), i,
                f"pushforward consistency (k={k})", m)
        for s in slopes(m):
            if s > 0:
                # The direct count must equal the composed route.
                twist = witness_twist(m, s, p)
                composed = psi_dim(tensor(m, pullback(p, twist)), p)
                _record(res, psi_dim_twisted(m, twist, p) == composed > 0,
                        i, f"witness positivity (slope {s}, p={p})", m)
        if i % 8 == 0:
            # Small-bound certificate: both directions of the nearby-slope
            # equivalence on a reduced twist grid.
            try:
                cert = certify_nearby_slopes(m, 1, ram_bound=4, ord_bound=6)
            except FalsificationError as exc:
                # Keep the claim; the module is named once below and the
                # caller adds the one replay command.
                claim = str(exc).split("; module: ")[0]
                _record(res, False, i, f"certificate: {claim}", m)
            else:
                _record(res, cert.slopes == nearby_slopes(m, 1), i,
                        "certificate slopes", m)
    return res


def check_regularity(modules) -> SuiteResult:
    """Each case is a module, checked along x**p for p <= 6."""
    res = SuiteResult("regularity-characterization", len(modules))
    for i, m in enumerate(modules):
        reg = is_regular(m)
        max_slope = max(slopes(m), default=F(0))
        _record(res, reg == (max_slope == 0), i, "max-slope form", m)
        for p in range(1, 7):
            _record(res, reg == (nearby_slopes(m, p) <= {F(0)}), i,
                    f"nearby form (p={p})", m)
        _record(res, irregularity(m) >= 0, i, "irregularity sign", m)
    return res


def check_newton_polygon(cases) -> SuiteResult:
    """Each case is (m, c, pieces): the rank-1 twist exp(c/x**m) and a list
    of first-order operator pieces to compose."""
    res = SuiteResult("newton-polygon-oracle", len(cases))
    for i, (m, c, pieces) in enumerate(cases):
        op = sorted(exp_twist_operator(m, c).items())
        _record(res, slopes_from_operator(op) == slopes(elementary(1, {-m: 1})),
                i, f"rank-1 twist m={m}")
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


def check_monomial_models(cases) -> SuiteResult:
    """Each case is (model, extras, fs, curves, samples, lemmas).

    Every model in `extras` of the model's dimension is added to it for the
    monotonicity check.  Every monomial f in `fs` gets the threshold checks
    and, when its support covers the pole support, the mediant inequality
    on every curve in `curves`.  Every (f, curve) in `samples` runs the
    one-variable pipeline, and every (a, b, curve) in `lemmas` the
    vanishing-lemma cross-oracle.
    """
    res = SuiteResult("monomial-models", len(cases))
    for i, (model, extras, fs, curves, samples, lemmas) in enumerate(cases):
        div = highest_generic_slopes(model)
        for f in model.factors:
            _record(res, all(div[j] >= f.pole[j] for j in range(model.dim)),
                    i, "divisor dominates factors", model)
        for extra in extras:
            if extra.dim == model.dim:
                grown = highest_generic_slopes(
                    GoodModel(model.dim, model.factors + extra.factors))
                _record(res, all(grown[j] >= div[j] for j in range(model.dim)),
                        i, "monotonicity (second model added)", model, extra)
        bound = nearby_slope_bound(model)
        support = set(model.pole_support)
        # Mediant inequality, exact in integers: <r, c> / <a, c> <= threshold
        # for the divisor r, hence for every factor's restricted slope.
        r = model.pole_max
        r_dots = [sum(map(mul, r, c)) for c in curves]
        for f in fs:
            a = f.exponents.entries
            thr = vanishing_threshold(model, f)
            _record(res, thr.value <= bound, i, "threshold below bound", model, f)
            if not support:
                _record(res, thr.value == 0, i, "regular threshold", model, f)
            f_support = set(f.support)
            if f_support <= support:
                _record(res, thr.criterion_applicable, i, "applicability", model, f)
            if support <= f_support:
                num, den = thr.value.numerator, thr.value.denominator
                _record(res, all(den * r_c <= num * sum(map(mul, a, c))
                                 for r_c, c in zip(r_dots, curves)),
                        i, "mediant", model, f)
        for f, curve in samples:
            restricted, k = curve_restriction(model, curve, f)
            near = nearby_slopes(restricted, k)
            depths = (fac.pole.dot(curve.entries) for fac in model.factors)
            predicted = {F(d, k) for d in depths if d}
            if regular_rank(restricted):
                predicted.add(F(0))
            _record(res, near == predicted, i,
                    f"restricted nearby slopes (curve {curve.entries})",
                    model, f, restricted)
            thr = vanishing_threshold(model, f)
            _record(res, all(s <= thr.value for s in near), i,
                    f"restricted slope bound (curve {curve.entries})",
                    model, f, restricted)
        # Whenever a sufficient vanishing criterion fires, the twisted factor
        # has positive slope along every admissible curve.
        for a, b, curve in lemmas:
            f = MonomialFunction(a)
            if lemma_vanishing(b, a, f) is None:
                continue
            combined = GoodModel(
                len(a), [ModelFactor([max(x, y) for x, y in zip(a, b)])])
            restricted, k = curve_restriction(combined, curve, f)
            _record(res, all(s > 0 for s in slopes(restricted)), i,
                    f"lemma cross-oracle (curve {curve.entries})",
                    combined, f, restricted)
            _record(res, psi_dim(restricted, k) == 0, i,
                    f"lemma cross-oracle psi (k={k}, curve {curve.entries})",
                    combined, f, restricted)
    return res


def check_blowup(scripts) -> SuiteResult:
    """Each case is a blow-up script, the JSON that `slopelab blowup -s`
    reads.  Its chain is replayed once and the inequality checked on the
    final rows; rows never change, so that is the check after every step.
    On a toric chain every row's vZ and vS must be the pairing of its ray
    with the script's own Z.a and S.r, which no row supplies.  A failure
    prints the script."""
    res = SuiteResult("blowup-chains", len(scripts))
    for i, script in enumerate(scripts):
        try:
            state = blowup.replay(script)
        except SlopelabError as exc:
            _record(res, False, i, f"chain: {exc}", script)
            continue
        report = blowup.verify_inequality(state)
        _record(res, report.ok, i,
                f"chain: inequality violated at {report.violations} after "
                f"step {state.steps_applied}", script)
        if state.mode == "toric":
            # v_E(x^m) = <ray_E, m> for every component.
            a, r = [int(v) for v in script["Z"]["a"]], [F(v) for v in script["S"]["r"]]
            for comp in state.components:
                pair_z = sum(x * v for x, v in zip(comp.ray, a))
                pair_s = sum(x * v for x, v in zip(comp.ray, r))
                _record(res, comp.vZ == pair_z and comp.vS == pair_s, i,
                        f"chain: valuation linearity ({comp.id})", script)
    return res


def check_expression_round_trip(modules) -> SuiteResult:
    """Each case is a module."""
    res = SuiteResult("expression-round-trip", len(modules))
    for i, m in enumerate(modules):
        text = module_to_expr(m)
        back = parse_and_eval(text)
        _record(res, back == m, i, "value round trip", m)
        _record(res, module_to_expr(back) == text, i, "canonical text", m)
    return res


# ---------------------------------------------------------------------------
# The selftest: one case at a time from each check's own seeded stream.
# ---------------------------------------------------------------------------

def _draw_cyclotomic(rng: random.Random):
    def value():
        order = rng.choice((1, 2, 3, 4, 5, 6, 8, 12))
        return CycloRat(order, [F(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(euler_phi(order))])
    return value(), value(), value()


def _draw_substitution(rng: random.Random):
    ram = rng.randint(1, 6)
    keys = rng.sample(range(1, 9), rng.randint(1, 3))
    phi = RamifiedExponent(ram, {-k: F(rng.randint(1, 3)) for k in keys})
    return phi, rng.randint(1, 3), rng.randint(1, 3), rng.choice((1, 2, 3, 4))


def _draw_tensor(rng: random.Random):
    return (random_formal_module(rng, max_factors=2, max_ram=4, max_ord=6),
            random_formal_module(rng, max_factors=2, max_ram=4, max_ord=6),
            random_formal_module(rng, max_factors=1, max_ram=3, max_ord=4),
            rng.randint(1, 6), rng.randint(1, 4))


def _draw_operators(rng: random.Random):
    m, c = rng.randint(1, 10), F(rng.randint(-4, 4), rng.randint(1, 4))
    pieces = [exp_twist_operator(rng.randint(1, 6)) if rng.random() < 0.7
              else euler_operator(F(rng.randint(0, 3)))
              for _ in range(rng.randint(2, 3))]
    return m, c, pieces


def _draw_model(rng: random.Random):
    model = random_good_model(rng)
    extra = random_good_model(rng)
    a_entries = [rng.randint(0, 4) for _ in range(model.dim)]
    if not any(a_entries):
        a_entries[rng.randrange(model.dim)] = rng.randint(1, 4)
    fs, curves, samples = [MonomialFunction(a_entries)], [], []
    support = model.pole_support
    if support:
        f = MonomialFunction([rng.randint(1, 4) if j in support else 0
                              for j in range(model.dim)])
        curve = MultiIndex([rng.randint(1, 3) for _ in range(model.dim)])
        fs.append(f)
        curves.append(curve)
        samples.append((f, curve))
    a = MultiIndex([rng.randint(0, 3) for _ in range(model.dim)])
    b = MultiIndex([rng.randint(0, 3) for _ in range(model.dim)])
    lemmas = []
    # A curve is drawn only for a pair on which the lemma fires.
    if not a.is_zero and lemma_vanishing(b, a, MonomialFunction(a)) is not None:
        lemmas.append((a, b, MultiIndex([rng.randint(1, 3)
                                         for _ in range(model.dim)])))
    return model, (extra,), fs, curves, samples, lemmas


ALL_SUITES = (
    (check_cyclotomic_field, _draw_cyclotomic),
    (check_exponent_substitution, _draw_substitution),
    (check_dual, lambda rng: (random_formal_module(rng), (rng.randint(1, 6),))),
    (check_pullback_pushforward, lambda rng: (
        random_formal_module(rng), rng.randint(1, 6), rng.randint(1, 6))),
    (check_pushforward_nearby, lambda rng: (
        random_formal_module(rng), rng.randint(1, 6))),
    (check_tensor, _draw_tensor),
    (check_nearby_cycles, lambda rng: (
        random_formal_module(rng), rng.randint(1, 6), rng.randint(1, 4))),
    (check_regularity, random_formal_module),
    (check_newton_polygon, _draw_operators),
    (check_monomial_models, _draw_model),
    (check_blowup, random_chain_script),
    (check_expression_round_trip,
     lambda rng: random_formal_module(rng, allow_zero=True)),
)


def run_selftest(seed: int, cases: int) -> list[SuiteResult]:
    """Run every check on `cases` cases drawn from the seed; deterministic
    for a seed.

    Each failure message names its suite, seed and case and ends with the
    command that reruns it.
    """
    results = []
    replay = f"replay: slopelab selftest --seed {seed} --cases {cases}"
    for index, (check, draw) in enumerate(ALL_SUITES):
        rng = random.Random(seed * 1000003 + index)
        res = check([draw(rng) for _ in range(cases)])
        res.failures = [f"{res.name}: seed {seed}, {failure}; {replay}"
                        for failure in res.failures]
        results.append(res)
    return results
