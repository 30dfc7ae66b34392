"""Small-scope exhaustive checks: every module of a bounded universe.

The random corpora meet a coincidence between coefficients (1 + zeta_3 is
the root of unity -zeta_3^2, zeta_5 + zeta_5^4 is real) or a tie between
rotations only if a draw hits it.  These checks enumerate a small universe
completely instead, in increasing size, so that the first failure is a
small one.  The bounds of each universe are written out below; a change to
them shows in review.
"""

import itertools
from fractions import Fraction
from math import gcd

from slopelab.elementary import (
    FormalModule,
    RegularPart,
    make_elementary,
    psi_dim,
    psi_dim_twisted,
    pullback,
    tensor,
)
from slopelab.exact_algebra import CycloRat
from slopelab.expr import module_to_expr, phi_to_str

from slope_rule import check_walk

z, q = CycloRat.zeta, CycloRat.from_rational
RANK_1 = RegularPart.of_rank(1)

# Canonicity universe: principal parts of one or two terms.
CANON_RAMS = (1, 2, 3, 4, 6)
CANON_EXPONENTS = (-1, -2, -3, -4)
CANON_MAX_TERMS = 2
CANON_COEFFICIENTS = (q(1), q(-1), q(2), z(3), z(3, 2), z(4), 1 + z(4), z(3) + z(4), z(5) + z(5, 4))
CANON_PARTS, CANON_ORBITS = 2610, 2007

# Pair universe: one-factor modules of one term, regular part of rank 1.
PAIR_RAMS = (1, 2, 3, 4)
PAIR_EXPONENTS = (-1, -2, -3)
PAIR_COEFFICIENTS = (q(1), q(-1), z(3), z(4), 1 + z(4))
PAIR_PS = (1, 2, 3)
PAIR_MODULES = 51

# Walk universe: sums of at most two pair-universe modules, each alone or
# with a regular part of exponent 0, or of exponents 0 and 1/2.
WALK_REGULAR_EXPONENTS = ((), (0,), (0, Fraction(1, 2)))
WALK_MODULES = 4134


def _raw_parts():
    # Every raw (ram, terms) of the canonicity universe, fewest terms first.
    for count in range(1, CANON_MAX_TERMS + 1):
        for ram in CANON_RAMS:
            for ks in itertools.combinations(CANON_EXPONENTS, count):
                for cs in itertools.product(CANON_COEFFICIENTS, repeat=count):
                    yield ram, dict(zip(ks, cs))


def _rotation(ram: int, terms: dict, j: int) -> dict:
    # phi(zeta_ram^j * u) as raw terms.
    return {k: c * z(ram, j * k) for k, c in terms.items()}


def _reduced(ram: int, terms: dict) -> tuple:
    # (ram, sorted terms) on the least subcover: the key of one orbit member,
    # computed without the canonicalization under test.
    d = gcd(ram, *terms)
    return ram // d, tuple(sorted((k // d, c) for k, c in terms.items()))


def _el_text(ram: int, terms: dict) -> str:
    return f"El({ram}, {phi_to_str(sorted(terms.items()))}, rank=1)"


def test_every_rotation_gets_one_canonical_form_in_its_orbit():
    # For every raw part: each of its ram rotations canonicalizes to the same
    # form, the form is a member of the orbit (the set of gcd-reduced rotated
    # term tuples), and parts of distinct orbits get distinct forms.  A form's
    # exponent phi is keyed alone: El(2, u^-2) and El(1, u^-1) share an orbit
    # and differ only in the regular part.
    parts = 0
    orbit_of_form: dict = {}
    for ram, terms in _raw_parts():
        parts += 1
        rotations = [_rotation(ram, terms, j) for j in range(ram)]
        orbit = frozenset(_reduced(ram, rot) for rot in rotations)
        forms = [make_elementary(ram, rot, RANK_1) for rot in rotations]
        form = forms[0]
        for rot, other in zip(rotations, forms):
            text = _el_text(ram, rot)
            assert other == form, (
                f"{text} canonicalizes to {module_to_expr(FormalModule.of([other]))}, "
                f"its rotation {_el_text(ram, terms)} to "
                f"{module_to_expr(FormalModule.of([form]))}; replay: slopelab slopes -e '{text}'")
        text = _el_text(ram, terms)
        expr = module_to_expr(FormalModule.of([form]))
        assert (form.ram, form.phi.terms) in orbit, (
            f"{text} canonicalizes to {expr}, outside its orbit; "
            f"replay: slopelab slopes -e '{text}'")
        assert orbit_of_form.setdefault(form.phi, orbit) == orbit, (
            f"{text} and a part of another orbit both canonicalize to {expr}; "
            f"replay: slopelab slopes -e '{text}'")
    assert (parts, len(set(orbit_of_form.values()))) == (CANON_PARTS, CANON_ORBITS)


def _pair_modules() -> list:
    # The pair universe's distinct modules.
    modules = list(dict.fromkeys(
        FormalModule.of([make_elementary(ram, {k: c}, RANK_1)])
        for ram in PAIR_RAMS for k in PAIR_EXPONENTS for c in PAIR_COEFFICIENTS))
    assert len(modules) == PAIR_MODULES
    return modules


def test_twisted_dimension_matches_the_composed_route_on_all_pairs():
    # psi_dim_twisted against psi_dim(tensor(m, pullback(p, n)), p) for every
    # ordered pair of the pair universe's distinct modules and every p.
    modules = _pair_modules()
    for m, n in itertools.product(modules, repeat=2):
        for p in PAIR_PS:
            fast = psi_dim_twisted(m, n, p)
            composed = psi_dim(tensor(m, pullback(p, n)), p)
            assert fast == composed, (
                f"module {module_to_expr(m)}, twist {module_to_expr(n)}, p {p}: "
                f"psi_dim_twisted {fast}, composed route {composed}; replay: python -m pytest "
                "tests/test_small_scope.py -k composed_route")


def test_slope_walk_follows_the_slope_rule_on_all_sums():
    # The slope walk against the slope rule written out factor by factor
    # (slope_rule.check_walk) on every module of the walk universe and every
    # p: equal slopes from different factors, a merged factor (m + m), slope
    # 0 from one or two regular factors, and the zero module.
    modules = _pair_modules()
    sums = [FormalModule.zero()] + modules + [
        m + n for m, n in itertools.combinations_with_replacement(modules, 2)]
    universe = {}  # ordered, smallest first
    for exponents in WALK_REGULAR_EXPONENTS:
        regular = FormalModule.of(
            make_elementary(1, {}, RegularPart.from_exponents([e])) for e in exponents)
        universe.update(dict.fromkeys(m + regular for m in sums))
    assert len(universe) == WALK_MODULES
    for m in universe:
        for p in PAIR_PS:
            check_walk(m, p)
