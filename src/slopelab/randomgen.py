"""Seeded random corpora: formal modules, good models, blow-up chains,
expressions.

`slopelab selftest` and the tests draw from these generators, each with its
own seeds and sizes, and hand the corpora to the same checks in
:mod:`slopelab.selftest`: selftest derives one stream per check from its
--seed, while the acceptance criteria use seed 20124 and their own corpus
sizes.  So a seed reproduces each caller's inputs.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from fractions import Fraction

from slopelab import blowup
from slopelab.elementary import (
    FormalModule,
    RegularPart,
    make_elementary,
)
from slopelab.errors import SlopelabError
from slopelab.exact_algebra import CycloRat, MultiIndex
from slopelab.monomial_models import GoodModel, ModelFactor

DEFAULT_SEED = 94021

_REG_EXPONENTS = (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 3),
                  Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))


def _coefficient(rng: random.Random, allow_cyclo: bool) -> CycloRat:
    roll = rng.random()
    if allow_cyclo and roll < 0.15:
        order = rng.choice((3, 4))
        scale = rng.choice((1, -1, 2))
        return CycloRat.zeta(order) * scale
    num = rng.choice((1, -1, 2, -2, 3, 1, -1))
    den = rng.choice((1, 1, 1, 2))
    return CycloRat.from_rational(Fraction(num, den))


def random_regular_part(rng: random.Random, max_rank: int) -> RegularPart:
    rank = rng.randint(1, max_rank)
    return RegularPart.from_exponents(
        rng.choice(_REG_EXPONENTS) for _ in range(rank))


def random_formal_module(rng: random.Random, *, max_factors: int = 3,
                         max_ram: int = 6, max_ord: int = 8,
                         max_reg_rank: int = 2, allow_cyclo: bool = True,
                         allow_zero: bool = False) -> FormalModule:
    """A random canonical module within the stated ramification, pole-order
    and regular-rank bounds."""
    n_factors = rng.randint(0 if allow_zero else 1, max_factors)
    parts = []
    for _ in range(n_factors):
        ram = rng.randint(1, max_ram)
        reg = random_regular_part(rng, max_reg_rank)
        if rng.random() < 0.2:
            parts.append(make_elementary(ram, {}, reg))
            continue
        depth = rng.randint(1, max_ord)
        terms = {-depth: _coefficient(rng, allow_cyclo)}
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(1, depth)
            c = _coefficient(rng, allow_cyclo)
            terms[-k] = terms.get(-k, CycloRat.from_rational(0)) + c
        parts.append(make_elementary(ram, terms, reg))
    return FormalModule.of(parts)


def random_good_model(rng: random.Random, *, max_dim: int = 4,
                      max_pole: int = 6, max_factors: int = 3,
                      max_rank: int = 3,
                      pole_support: tuple[int, ...] | None = None) -> GoodModel:
    """A random monomial good model.  When `pole_support` is given, every
    factor's pole support stays inside it."""
    dim = rng.randint(1, max_dim)
    if pole_support is None:
        pole_support = tuple(range(dim))
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.15:
            pole = MultiIndex((0,) * dim)
        else:
            entries = [0] * dim
            carriers = [i for i in pole_support if i < dim]
            rng.shuffle(carriers)
            for i in carriers[:rng.randint(1, max(1, len(carriers)))]:
                entries[i] = rng.randint(1, max_pole)
            pole = MultiIndex(entries)
        twist = tuple(Fraction(rng.randint(0, 3), rng.choice((1, 2, 4)))
                      for _ in range(dim))
        factors.append(ModelFactor(pole, twist, rng.randint(1, max_rank)))
    return GoodModel(dim, factors)


# ---------------------------------------------------------------------------
# Blow-up chains.
# ---------------------------------------------------------------------------

def random_initial_state(rng: random.Random, *, max_dim: int = 4,
                         mode: str = "toric") -> blowup.BlowupState:
    dim = rng.randint(2, max_dim)
    a = [rng.randint(0, 3) for _ in range(dim)]
    if not any(a):
        a[rng.randrange(dim)] = rng.randint(1, 3)
    r = [Fraction(rng.randint(0, 6), rng.choice((1, 1, 2))) for _ in range(dim)]
    return blowup.initial_state(dim, a, r, mode)


def random_toric_step(rng: random.Random,
                      state: blowup.BlowupState) -> blowup.BlowupStep | None:
    """A random admissible toric center of the current fan, or None if the
    sampled cones never qualify."""
    assert state.fan is not None
    strict_z = {i for i, c in enumerate(state.components)
                if c.kind is blowup.ComponentKind.STRICT_Z}
    for _ in range(40):
        cone = rng.choice(state.fan.max_cones)
        size = rng.randint(2, min(len(cone), 3)) if len(cone) >= 2 else 0
        if not size:
            continue
        chosen = rng.sample(sorted(cone), size)
        if not strict_z.intersection(chosen):
            continue
        return blowup.BlowupStep(
            center=tuple(state.components[i].id for i in chosen))
    return None


def random_abstract_step(rng: random.Random,
                         state: blowup.BlowupState) -> blowup.BlowupStep:
    strict_z = state.by_kind(blowup.ComponentKind.STRICT_Z)
    strict_s = state.by_kind(blowup.ComponentKind.STRICT_S)
    exceptional = state.by_kind(blowup.ComponentKind.EXCEPTIONAL)
    alpha = [rng.randint(0, 1) if c.vS > 0 else rng.randint(0, 2)
             for c in strict_z]
    if not any(alpha):
        pick = rng.randrange(len(strict_z))
        alpha[pick] = 1 if strict_z[pick].vS > 0 else rng.randint(1, 2)
    return blowup.BlowupStep(
        alpha=tuple(alpha),
        epsS=tuple(rng.randint(0, 1) for _ in strict_s),
        epsE=tuple(rng.randint(0, 1) for _ in exceptional),
    )


def random_chain_script(rng: random.Random, *, max_dim: int = 4,
                        max_steps: int = 6, mode: str | None = None) -> dict:
    """A random admissible chain as the script that `slopelab blowup -s`
    reads.

    Each step is drawn from the state the previous steps built.  Should
    blow_up refuse a drawn step, the script ends with that step, so that a
    replay meets the same error.
    """
    mode = mode or rng.choice(("toric", "abstract"))
    state = random_initial_state(rng, max_dim=max_dim, mode=mode)
    script = {"dim": state.dim, "mode": mode, "Z": {"a": list(state.z_vector)},
              "S": {"r": [str(r) for r in state.s_vector]}, "steps": []}
    for _ in range(rng.randint(0, max_steps)):
        if mode == "toric":
            step = random_toric_step(rng, state)
            if step is None:
                break
        else:
            step = random_abstract_step(rng, state)
        script["steps"].append({key: list(value) for key, value
                                in asdict(step).items() if value is not None})
        try:
            state = blowup.blow_up(state, step)
        except SlopelabError:
            break
    return script
