"""The exhaustion family built module by module: every generic elementary
twist of a slope on the bounded grid, as a canonical module.  The
certificate counts this family in closed form (`exhaustion_grid`); these
builders are the oracle for that count, and criterion 2 measures each
twist they build."""

from fractions import Fraction
from functools import lru_cache

from slopelab.elementary import FormalModule, elementary, regular_module


def candidate_slope_grid(ram_bound: int, ord_bound: int) -> set[Fraction]:
    """All slopes an elementary twist within the bounds can have, plus 0."""
    out = {Fraction(0)}
    for t in range(1, ram_bound + 1):
        for m in range(1, ord_bound + 1):
            out.add(Fraction(m, t))
    return out


@lru_cache(maxsize=4096)
def generic_twists(r: Fraction, ram_bound: int,
                   ord_bound: int) -> tuple[FormalModule, ...]:
    """The distinct generic twists of slope r: three regular rank-1 twists
    for r = 0, otherwise El(t, u^-m), El(t, -u^-m) and, for m >= 2,
    El(t, u^-m + u^-(m-1)) for every t <= ram_bound with m = r*t an
    integer <= ord_bound."""
    twists: list[FormalModule] = []
    seen: set = set()

    def push(m: FormalModule):
        if not m.is_zero and m.factors not in seen:
            seen.add(m.factors)
            twists.append(m)

    if r == 0:
        for e in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
            push(regular_module(1, exponents=[e]))
        return tuple(twists)

    for t in range(1, ram_bound + 1):
        m = r * t
        if m.denominator != 1 or m > ord_bound:
            continue
        m = int(m)
        push(elementary(t, {-m: 1}))
        push(elementary(t, {-m: -1}))
        if m >= 2:
            push(elementary(t, {-m: 1, -(m - 1): 1}))
    return tuple(twists)
