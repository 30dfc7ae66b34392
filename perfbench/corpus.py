"""Seeded inputs for every workload, built without the engine.

Modules are expression strings, good models are JSON-shaped dicts, blow-up
chains are script dicts and operators are coefficient dicts.  The engine
receives them only through its public entry points (``parse_and_eval``,
``model_from_dict``, ``initial_state``/``step_from_dict``/``blow_up``,
``slopes_from_operator``), so a change to ``slopelab.randomgen`` cannot
change a workload.

Each input draws its shape (how many factors, ramification, pole orders,
which terms and which roots of unity, regular exponents, model dimension,
chain length) from a random stream that is the same for every seed, and its
values (signs and rational coefficients, poles, twists, centers) from a
stream seeded by ``--seed``.  Seeds therefore vary the inputs but not their cost
profile, which keeps the spread between runs of different seeds small.
Items are drawn one after another, so a smaller run is a prefix of a larger
one.
"""

from __future__ import annotations

import random
from fractions import Fraction

_REG_EXPONENTS = ("0", "0", "1/2", "1/3", "2/3", "1/4", "3/4")


def _rngs(seed: int, workload: str) -> tuple[random.Random, random.Random]:
    """(shape stream, value stream) for one workload."""
    return random.Random(f"{workload}:shape"), random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# One-variable modules as expression text.
# ---------------------------------------------------------------------------

def _term(shape: random.Random, values: random.Random, k: int) -> tuple[int, str]:
    """A signed term c*u^k as (sign, unsigned text)."""
    power = f"u^{k}"
    if shape.random() < 0.15:
        atom = f"zeta({shape.choice((3, 4))})"
        scale = values.choice((1, -1, 2))
        return (1 if scale > 0 else -1), (f"{atom}*{power}" if abs(scale) == 1
                                          else f"2*{atom}*{power}")
    value = Fraction(values.choice((1, -1, 2, -2, 3, 1, -1)), values.choice((1, 1, 1, 2)))
    return (1 if value > 0 else -1), (power if abs(value) == 1 else f"{abs(value)}*{power}")


def _phi(shape: random.Random, values: random.Random, depth: int) -> str:
    terms = [_term(shape, values, -depth)]
    for _ in range(shape.randint(0, 2)):
        terms.append(_term(shape, values, -shape.randint(1, depth)))
    out = ("-" if terms[0][0] < 0 else "") + terms[0][1]
    for sign, body in terms[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out


def module_expr(shape: random.Random, values: random.Random, *, max_factors: int = 3,
                max_ram: int = 6, max_ord: int = 8, max_reg_rank: int = 4) -> str:
    """A direct sum of 1..max_factors elementary pieces; a fifth of them
    regular (phi = 0)."""
    parts = []
    for _ in range(shape.randint(1, max_factors)):
        ram = shape.randint(1, max_ram)
        rank = shape.randint(1, max_reg_rank)
        exps = ", ".join(shape.choice(_REG_EXPONENTS) for _ in range(rank))
        phi = "0" if shape.random() < 0.2 else _phi(shape, values, shape.randint(1, max_ord))
        parts.append(f"El({ram}, {phi}, rank={rank}, exp=[{exps}])")
    return " + ".join(parts)


def module_corpus(seed: int, workload: str, count: int) -> list[str]:
    shape, values = _rngs(seed, workload)
    return [module_expr(shape, values) for _ in range(count)]


# ---------------------------------------------------------------------------
# Monomial good models as model-file dicts.
# ---------------------------------------------------------------------------

def model_dict(shape: random.Random, values: random.Random, *, max_dim: int = 4,
               max_pole: int = 6, max_factors: int = 3, max_rank: int = 3) -> dict:
    dim = shape.randint(1, max_dim)
    factors = []
    for _ in range(shape.randint(1, max_factors)):
        pole = [0] * dim
        if shape.random() >= 0.15:
            carriers = list(range(dim))
            values.shuffle(carriers)
            for i in carriers[:shape.randint(1, dim)]:
                pole[i] = values.randint(1, max_pole)
        twist = [str(Fraction(values.randint(0, 3), values.choice((1, 2, 4))))
                 for _ in range(dim)]
        factors.append({"pole": pole, "twist": twist,
                        "rank": values.randint(1, max_rank)})
    return {"dim": dim, "factors": factors}


# ---------------------------------------------------------------------------
# Blow-up chains as script dicts.  Toric centers are drawn from a fan kept
# here as sets of component ids, subdivided the way a star subdivision does.
# ---------------------------------------------------------------------------

def chain_script(shape: random.Random, values: random.Random, mode: str, *,
                 max_dim: int = 4, max_steps: int = 10) -> dict:
    """Shape: dimension and step count; everything else from `values`."""
    dim = shape.randint(2, max_dim)
    steps_wanted = shape.randint(1, max_steps)
    a = [values.randint(0, 3) for _ in range(dim)]
    if not any(a):
        a[values.randrange(dim)] = values.randint(1, 3)
    r = [(values.randint(0, 6), values.choice((1, 1, 2))) for _ in range(dim)]
    ids = [f"D{i + 1}" for i in range(dim)]
    strict_z = [i for i in range(dim) if a[i] > 0]
    strict_s = [i for i in range(dim) if a[i] == 0]
    cones = [frozenset(ids)]
    steps: list[dict] = []
    for n in range(steps_wanted):
        if mode == "toric":
            center = None
            for _ in range(40):
                cone = values.choice(cones)
                chosen = values.sample(sorted(cone), values.randint(2, min(len(cone), 3)))
                if any(ids[i] in chosen for i in strict_z):
                    center = frozenset(chosen)
                    break
            if center is None:
                break
            new = f"E{n + 1}"
            subdivided = []
            for cone in cones:
                if center <= cone:
                    subdivided.extend((cone - {drop}) | {new} for drop in center)
                else:
                    subdivided.append(cone)
            cones = subdivided
            steps.append({"center": sorted(center)})
        else:
            alpha = [values.randint(0, 1) if r[i][0] else values.randint(0, 2)
                     for i in strict_z]
            if not any(alpha):
                pick = values.randrange(len(strict_z))
                alpha[pick] = 1 if r[strict_z[pick]][0] else values.randint(1, 2)
            steps.append({"alpha": alpha,
                          "epsS": [values.randint(0, 1) for _ in strict_s],
                          "epsE": [values.randint(0, 1) for _ in range(n)]})
    return {"dim": dim, "mode": mode, "Z": {"a": a},
            "S": {"r": [str(n) if d == 1 else f"{n}/{d}" for n, d in r]}, "steps": steps}


# ---------------------------------------------------------------------------
# Differential operators: products of first-order factors with known slopes.
# ---------------------------------------------------------------------------

def _compose(a: dict, b: dict) -> dict:
    # (d/dx)^i . x^n = sum_t C(i,t) n(n-1)...(n-t+1) x^(n-t) (d/dx)^(i-t)
    from math import comb
    out: dict[int, dict[int, Fraction]] = {}
    for i, ai in a.items():
        for j, bj in b.items():
            for n, cb in bj.items():
                falling = Fraction(1)
                for t in range(i + 1):
                    if t:
                        falling *= n - (t - 1)
                    if not falling:
                        break
                    row = out.setdefault(i - t + j, {})
                    scale = cb * comb(i, t) * falling
                    for m, ca in ai.items():
                        row[m + n - t] = row.get(m + n - t, Fraction(0)) + ca * scale
    return {k: {e: c for e, c in v.items() if c} for k, v in out.items() if any(v.values())}


def operator_item(shape: random.Random, values: random.Random,
                  max_factors: int = 4) -> tuple[dict, dict]:
    """An operator as {order: {exponent: coefficient}} and its slope multiset.

    Each factor is x^(m+1) d/dx - (c x^m - m), the annihilator of
    x^c exp(x^-m) (slope m), or the Euler operator x d/dx - c (slope 0).
    The polygon of a product is the Minkowski sum of the factors' polygons,
    so the expected multiset is the union of the factors' slopes.
    """
    op = None
    expected: dict[str, int] = {}
    for _ in range(shape.randint(1, max_factors)):
        c = Fraction(values.randint(-3, 3), values.choice((1, 2, 3, 4)))
        if values.random() < 0.25:
            factor = {1: {1: Fraction(1)}, 0: {0: -c}}
            slope = 0
        else:
            m = values.randint(1, 6)
            factor = {1: {m + 1: Fraction(1)}, 0: {m: -c, 0: Fraction(m)}}
            slope = m
        op = factor if op is None else _compose(op, factor)
        expected[str(slope)] = expected.get(str(slope), 0) + 1
    return op, dict(sorted(expected.items(), key=lambda kv: Fraction(kv[0])))


def models_chains_corpus(seed: int, count: int) -> list[tuple]:
    """Round-robin over the kinds in MODELS_CHAINS_ROUND.  Operators cycle
    through a pool of OPERATOR_POOL per seed (the polygon keeps no cache, so
    repeats cost the same as new operators, and composing them is slow)."""
    shape, values = _rngs(seed, "models-chains")
    pool = [operator_item(shape, values) for _ in range(OPERATOR_POOL)]
    items: list[tuple] = []
    for i in range(count):
        kind = MODELS_CHAINS_ROUND[i % len(MODELS_CHAINS_ROUND)]
        if kind == "model":
            model = model_dict(shape, values)
            dim = model["dim"]
            support = {j for f in model["factors"] for j, e in enumerate(f["pole"]) if e}
            f = [values.randint(1, 4) if j in support else 0 for j in range(dim)]
            curves = [tuple(values.randint(1, 3) for _ in range(dim)) for _ in range(3)]
            items.append(("model", model, f, curves))
        elif kind == "operator":
            items.append(("operator",) + pool[(i // len(MODELS_CHAINS_ROUND)) % OPERATOR_POOL])
        else:
            items.append(("chain", chain_script(shape, values, kind)))
    return items


MODELS_CHAINS_ROUND = ("model", "toric", "abstract", "toric", "abstract", "operator")
OPERATOR_POOL = 32


# ---------------------------------------------------------------------------
# Command-line queries: a fixed list, in an order drawn from the seed.
# ---------------------------------------------------------------------------

CLI_MODEL = {"dim": 3, "factors": [
    {"pole": [2, 1, 0], "twist": ["1/2", "0", "0"], "rank": 2},
    {"pole": [0, 3, 1], "twist": ["0", "1/4", "0"], "rank": 1},
    {"pole": [0, 0, 0], "twist": ["1/3", "0", "1/2"], "rank": 1}]}

CLI_CHAIN = {"dim": 3, "mode": "toric", "Z": {"a": [2, 1, 0]},
             "S": {"r": ["3", "1/2", "2"]},
             "steps": [{"center": ["D1", "D2"]}, {"center": ["D1", "E1"]},
                       {"center": ["D2", "D3", "E1"]}, {"center": ["D1", "E2"]}]}

# (id, argv after "python -m slopelab"); {model} and {chain} name the input
# files the benchmark writes.
CLI_QUERIES = tuple(
    [(f"slopes-el{n}", ("slopes", "-e", f"El({n},u^-1,rank=1)"))
     for n in (70, 77, 90, 101, 105, 128, 150, 180)]
    + [
        ("slopes-multiterm", ("slopes", "-e", "El(60,u^-7 + u^-5 + zeta(4)*u^-3,rank=2)")),
        ("slopes-tensor", ("slopes", "-e", "tensor(El(12,u^-5,rank=1), El(18,u^-7,rank=1))")),
        ("slopes-composite", ("slopes", "-e",
                              "dual(push(3, El(4,u^-5 + zeta(3)*u^-2,rank=1))) + Reg(rank=2,exp=[1/2,1/3])")),
        ("slopes-pull-json", ("slopes", "--json", "-e", "pull(4, El(6,u^-5 - 1/2*u^-3,rank=2))")),
        ("nearby-cert-p2", ("nearby", "-e", "El(2,u^-3,rank=1)", "-p", "2", "--cert")),
        ("nearby-cert-p3", ("nearby", "-e", "El(3,u^-5 + zeta(3)*u^-2,rank=2)", "-p", "3", "--cert")),
        ("nearby-cert-sum", ("nearby", "-e", "El(6,u^-7,rank=1) + Reg(rank=2,exp=[1/2,1/3])",
                             "-p", "1", "--cert")),
        ("nearby-tensor", ("nearby", "-e", "tensor(El(3,u^-2,rank=1), El(2,u^-3,rank=1))", "-p", "4")),
        ("bound", ("bound", "-m", "{model}", "-f", "x1*x2^2")),
        ("blowup-verify", ("blowup", "-s", "{chain}", "--verify")),
    ])

# The cheap queries the tiny mode runs.
CLI_TINY = ("slopes-multiterm", "bound", "blowup-verify")


def cli_queries(seed: int, ids=None) -> list[tuple[str, tuple[str, ...]]]:
    queries = [q for q in CLI_QUERIES if ids is None or q[0] in ids]
    _rngs(seed, "cli-cold")[1].shuffle(queries)
    return queries
