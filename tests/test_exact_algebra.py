"""Tests for the exact scalar layer: cyclotomic numbers, ramified tails,
multi-indices."""

import functools
import random
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopelab import exact_algebra
from slopelab.exact_algebra import (
    CycloRat,
    MultiIndex,
    RamifiedExponent,
    _prime_factors,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
)
from slopelab.selftest import check_cyclotomic_field


# ---------------------------------------------------------------------------
# Cyclotomic polynomials (used as the modulus everywhere downstream).
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_x_n_minus_1():
    # Independent identity: prod_{d | n} Phi_d = x^n - 1.
    for n in (2, 3, 4, 6, 8, 9, 10, 12, 15):
        prod = [1]
        for d in divisors(n):
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_euler_phi_matches_direct_count():
    # Also the oracle for the prime list: q is prime iff phi(q) = q - 1.
    for n in list(range(1, 200)) + [600, 1200, 1260]:
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert _prime_factors(n) == [q for q in divisors(n) if euler_phi(q) == q - 1]


# ---------------------------------------------------------------------------
# CycloRat: frozen examples.
# ---------------------------------------------------------------------------

def _power(x: CycloRat, k: int) -> CycloRat:
    # x**k for k >= 1 by repeated products.
    return reduce(mul, [x] * k)


def test_zeta2_squared_is_one():
    z2 = CycloRat.zeta(2)
    assert z2 * z2 == 1


def test_zeta4_squared_is_minus_one():
    z4 = CycloRat.zeta(4)
    assert z4 * z4 == -1


def _group_algebra_product_order3(a, b):
    # Independent oracle: multiply in Q[z]/(z^3 - 1) by exponent addition,
    # then rewrite z^2 = -1 - z.  Inputs/outputs are dicts {exponent: Fraction}.
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = (i + j) % 3
            out[k] = out.get(k, Fraction(0)) + x * y
    c2 = out.pop(2, Fraction(0))
    out[0] = out.get(0, Fraction(0)) - c2
    out[1] = out.get(1, Fraction(0)) - c2
    return out


def test_derived_product_in_third_cyclotomic_field():
    # (1 + zeta_3)(1 + zeta_3^2) = 1, expanded by hand via the oracle above.
    oracle = _group_algebra_product_order3(
        {0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 2: Fraction(1)})
    assert oracle == {0: Fraction(1), 1: Fraction(0)}

    z3 = CycloRat.zeta(3)
    lhs = (1 + z3) * (1 + _power(z3, 2))
    assert lhs == 1


def test_mixed_order_product_lands_in_lcm_field():
    z3, z4 = CycloRat.zeta(3), CycloRat.zeta(4)
    w = z3 * z4
    assert w.order == 12
    assert _power(w, 12) == 1
    assert _power(w, 6) == -1  # (zeta_12^7)^6 = zeta_2^7 = -1


def test_canonical_form_across_construction_routes():
    # zeta_3 reached through the order-12 field demotes back to order 3.
    assert _power(CycloRat.zeta(12), 4) == CycloRat.zeta(3)
    assert _power(CycloRat.zeta(12), 4).order == 3
    # zeta_6 = -zeta_3^2 lives in the order-3 field.
    assert CycloRat.zeta(6) == -_power(CycloRat.zeta(3), 2)
    assert CycloRat.zeta(6).order == 3
    # zeta_8^4 = -1 is rational.
    assert _power(CycloRat.zeta(8), 4).order == 1
    assert _power(CycloRat.zeta(8), 4) == -1


def test_closed_form_roots_match_the_demotion_route():
    # The general constructor reduces the dense x^e modulo Phi_n and demotes
    # it prime by prime; it is the oracle for the closed form.
    for n in list(range(1, 49)) + [60, 64, 70, 72, 84, 90]:
        for e in range(n):
            fast = CycloRat.zeta(n, e)
            slow = CycloRat(n, [0] * e + [1])
            assert (fast.order, fast.coords) == (slow.order, slow.coords), (n, e)


def test_roots_of_unity_never_demote():
    exact_algebra._demote_cached.cache_clear()
    exact_algebra._zeta_pow.cache_clear()
    for e in range(600):
        CycloRat.zeta(600, e)
    assert exact_algebra._demote_cached.cache_info().misses == 0


@functools.lru_cache(maxsize=None)
def _taps(n):
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, [(i, a) for i, a in enumerate(phi[:-1]) if a]


def _dense_root_key(M, t):
    # _zeta_pow(M, t).sort_key() with the same fold and the same dense
    # reduction of x^j modulo Phi_n, in integers instead of Fractions.
    g = gcd(M, t)
    n, j, sign = M // g, t // g, 1
    if n % 4 == 2:
        n, j, sign = n // 2, j * (n // 2 + 1) // 2, -1
    j %= n
    deg, taps = _taps(n)
    coords = [0] * max(j + 1, deg)
    coords[j] = sign
    for top in range(j, deg - 1, -1):
        if coords[top]:
            for i, a in taps:
                coords[top - deg + i] -= coords[top] * a
    return n, tuple(coords[:deg])


def test_root_keys_order_as_the_dense_sort_keys():
    # The closed-form keys of least_rotation against the sort keys of the
    # roots they stand for.  _zeta_pow builds phi(n) Fractions per root, about
    # 20 s for every root of every M <= 360, so it is the oracle up to M = 60
    # and on a seeded sample up to M = 1260; the exhaustive range to 360
    # compares with its reduction run in integers, which orders the same.
    for M in range(1, 361):
        closed = sorted(range(M), key=lambda t: exact_algebra._root_key(M, t))
        assert closed == sorted(range(M), key=lambda t: _dense_root_key(M, t)), M
        if M <= 60:
            assert closed == sorted(
                range(M), key=lambda t: exact_algebra._zeta_pow(M, t).sort_key()), M
    rng = random.Random(43)
    for _ in range(16):
        M = rng.randint(361, 1260)
        ts = rng.sample(range(M), 5) + [M // 2, M // 4, 0]
        old = [exact_algebra._zeta_pow(M, t).sort_key() for t in ts]
        assert [_dense_root_key(M, t) for t in ts] == old, M
        closed = sorted(range(len(ts)), key=lambda i: exact_algebra._root_key(M, ts[i]))
        assert closed == sorted(range(len(ts)), key=old.__getitem__), (M, ts)
    exact_algebra._zeta_pow.cache_clear()
    exact_algebra._zeta_power_coords.cache_clear()


def _old_least_rotation(c, ram, residues):
    # least_rotation's monomial branch before closed-form keys: the scan over
    # the sort keys of zeta_M^t, every root built.
    _, m, e = exact_algebra._monomial(c)
    M = m * ram // gcd(m, ram)
    return min(residues, key=lambda r: exact_algebra._zeta_pow(
        M, e * (M // m) + r * (M // ram)).sort_key())


def test_least_rotation_matches_the_scan_on_residue_cosets():
    # Seeded cosets t0 + s*Z mod ram, the shape the survivor loop of
    # _galois_canonical passes, with rational, negative and one-coordinate
    # coefficients, on covers whose lcm with the coefficient's field is at
    # most 360: the residue must be the old scan's.
    z = CycloRat.zeta
    coefficients = [CycloRat.from_rational(1), CycloRat.from_rational(Fraction(-3, 2)),
                    -z(15, 7), 3 * z(9, 4), Fraction(-1, 5) * z(8, 5), 2 * z(7, 3),
                    -z(12, 1), z(4, 1)]
    rng = random.Random(43)
    checked = 0
    while checked < 120:
        c = rng.choice(coefficients)
        ram = rng.randint(1, 180)
        if exact_algebra._monomial(c)[1] * ram // gcd(exact_algebra._monomial(c)[1], ram) > 360:
            continue
        s = rng.choice(exact_algebra.divisors(ram))
        residues = range(rng.randrange(s), ram, s)
        assert exact_algebra.least_rotation(c, ram, residues) == _old_least_rotation(
            c, ram, residues), (c, ram, residues)
        checked += 1
    exact_algebra._zeta_pow.cache_clear()
    exact_algebra._zeta_power_coords.cache_clear()


def test_demotion_finds_the_least_field_by_galois_action():
    # Oracle: sigma_k fixes Q(zeta_e) inside Q(zeta_n) exactly when
    # k = 1 (mod e).  So d' is the least field iff, for each prime q | d',
    # some such sigma_k with e = d'/q moves x.  Inputs are embedded from
    # every subfield Q(zeta_d), so every possible answer is reached.
    rng = random.Random(4)
    for n in range(2, 121):
        units = [k for k in range(1, n) if gcd(k, n) == 1]
        for d in divisors(n):
            for _ in range(2):
                y = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(euler_phi(d)))
                x = exact_algebra._map_powers(n, y, n // d)
                dd, c = exact_algebra._demote(n, x)
                assert n % dd == 0 and dd % 4 != 2, (n, d, y)
                assert len(c) == euler_phi(dd), (n, d, y)
                assert exact_algebra._map_powers(n, c, n // dd) == x, (n, d, y)
                primes = [q for q in divisors(dd) if euler_phi(q) == q - 1]
                for q in primes:
                    assert any(exact_algebra._map_powers(n, x, k) != x
                               for k in units if (k - 1) % (dd // q) == 0), (n, d, y, q)


def test_rational_embedding_and_arithmetic():
    half = CycloRat.from_rational(Fraction(1, 2))
    assert half + half == 1
    assert (half * 4).order == 1 and (half * 4).coords[0] == Fraction(2)
    assert not half.is_zero
    assert CycloRat.from_rational(0).is_zero


def test_inverse_of_one_plus_zeta3():
    z3 = CycloRat.zeta(3)
    a = 1 + z3
    assert a * a.inverse() == 1
    # 1/(1 + zeta_3) = (1 + zeta_3^2) by the derived product above.
    assert a.inverse() == 1 + _power(z3, 2)


def test_inverse_in_the_least_field():
    # Seeded elements whose least field is Q(zeta_n), spread over several
    # coordinates or on one: the inverse stays in that field.  Rationals
    # invert to their reciprocals, and zero has no inverse.
    rng = random.Random(36)
    for n in (5, 8, 15, 20, 36):
        deg = euler_phi(n)
        drawn = {"spread": 0, "one term": 0}
        while min(drawn.values()) < 3:
            coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(deg)]
            if rng.random() < 0.5:
                e = rng.randrange(deg)
                coords = [x if i == e else 0 for i, x in enumerate(coords)]
            a = CycloRat(n, coords)
            if a.order != n:
                continue
            drawn["one term" if sum(map(bool, a.coords)) == 1 else "spread"] += 1
            inv = a.inverse()
            assert a * inv == 1, a
            assert inv.order == n, a
    for x in (Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2)):
        assert CycloRat.from_rational(x).inverse() == CycloRat.from_rational(1 / x)
    with pytest.raises(ZeroDivisionError):
        CycloRat.from_rational(0).inverse()


def test_galois_conjugates_are_field_automorphisms():
    # sigma_k against its definition, sum_i coords[i] * zeta_n^(i*k), built
    # by arithmetic, on seeded elements of least field Q(zeta_n): it stays in
    # that field, composes as sigma_j sigma_k = sigma_jk, commutes with
    # inverse, and the product of all conjugates is the rational norm.
    rng = random.Random(37)
    for n in (5, 8, 12, 15):
        units = [k for k in range(1, n) if gcd(k, n) == 1]
        a = CycloRat(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(euler_phi(n))])
        a = a if a.order == n else a + CycloRat.zeta(n)
        assert a.order == n
        conjugates = {k: a.galois(k) for k in units}
        for k, s in conjugates.items():
            assert s == sum((x * CycloRat.zeta(n, i * k) for i, x in enumerate(a.coords)),
                            CycloRat.from_rational(0)), (a, k)
            assert s.order == n and s.inverse() == a.inverse().galois(k), (a, k)
            assert all(s.galois(j) == conjugates[j * k % n] for j in units), (a, k)
        assert conjugates[1] == a
        assert reduce(mul, conjugates.values()).order == 1


def test_galois_refuses_a_non_unit():
    # A power map by a non-unit would embed a subfield, not conjugate.
    for n, k in ((12, 2), (5, 5), (8, 0), (15, 6)):
        with pytest.raises(ValueError, match="unit"):
            (1 + CycloRat.zeta(n)).galois(k)


# ---------------------------------------------------------------------------
# CycloRat: randomized exact field axioms.
# ---------------------------------------------------------------------------

_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


def _random_cyclo(rng: random.Random) -> CycloRat:
    order = rng.choice(_ORDERS)
    coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(euler_phi(order))]
    return CycloRat(order, coords)


def test_field_axioms_randomized_exact():
    rng = random.Random(90101)
    res = check_cyclotomic_field(
        [tuple(_random_cyclo(rng) for _ in range(3)) for _ in range(120)])
    assert res.ok, res.failures


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from(_ORDERS),
    nums=st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    scalar=st.fractions(min_value=-3, max_value=3),
)
def test_scalar_multiplication_distributes(order, nums, scalar):
    a = CycloRat(order, [Fraction(n) for n in nums])
    assert a * scalar == scalar * a
    assert (a + a) * scalar == a * scalar + a * scalar


def test_embedding_into_larger_fields_is_exact_and_injective():
    # Forcing a detour through a larger field and back must be lossless.
    rng = random.Random(515)
    z12 = CycloRat.zeta(12)
    seen = {}
    for _ in range(60):
        a = _random_cyclo(rng)
        assert (a + z12) - z12 == a
        assert (a * z12) * _power(z12, 11) == a  # z12^12 = 1
        key = (a.order, a.coords)
        if key in seen:
            assert seen[key] == a
        seen[key] = a


def test_sort_key_is_a_total_order_on_samples():
    rng = random.Random(4321)
    sample = [_random_cyclo(rng) for _ in range(60)]
    keys = [v.sort_key() for v in sample]
    order = sorted(range(len(sample)), key=lambda i: keys[i])
    for i, j in zip(order, order[1:]):
        assert keys[i] <= keys[j]
        if keys[i] == keys[j]:
            assert sample[i] == sample[j]


# ---------------------------------------------------------------------------
# RamifiedExponent.
# ---------------------------------------------------------------------------

def test_substitute_scale_doubles_monomial():
    phi = RamifiedExponent(1, {-3: 1})
    out = phi.substitute_root(1, 0, 2)
    assert out == RamifiedExponent(1, {-6: 1})


def test_substitute_sign_twist():
    phi = RamifiedExponent(1, {-1: 1})
    out = phi.substitute_root(2, 1, 1)  # zeta(2) = -1
    assert out == RamifiedExponent(1, {-1: -1})


def test_substitute_fourth_root_twist():
    # phi = u^-2 + u^-1 twisted by zeta_4: -u^-2 - zeta_4 * u^-1.
    z4 = CycloRat.zeta(4)
    phi = RamifiedExponent(1, {-2: 1, -1: 1})
    out = phi.substitute_root(4, 1, 1)
    assert dict(out.terms) == {-2: CycloRat.from_rational(-1), -1: -z4}


def test_substitute_identity_and_scale_multiplicativity():
    rng = random.Random(777)
    for _ in range(40):
        ram = rng.randint(1, 4)
        terms = {-k: Fraction(rng.randint(1, 3)) for k in rng.sample(range(1, 9), 2)}
        phi = RamifiedExponent(ram, terms)
        assert phi.substitute_root(1, 0) == phi
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        once = phi.substitute_root(1, 0, s).substitute_root(1, 0, t)
        assert once == phi.substitute_root(1, 0, s * t)


def test_pole_order_scales_for_unramified_tails():
    # The integer form of the scaling law holds whenever ram = 1.
    rng = random.Random(778)
    for _ in range(40):
        terms = {-k: Fraction(rng.randint(1, 3)) for k in rng.sample(range(1, 9), 2)}
        phi = RamifiedExponent(1, terms)
        s = rng.randint(1, 4)
        order = rng.choice((1, 2, 3, 4))
        assert phi.substitute_root(order, 1, s).pole_order == s * phi.pole_order


def test_pole_order_over_ram_scales_in_general():
    # Slope form of the scaling law, insensitive to the gcd reduction.
    rng = random.Random(779)
    for _ in range(40):
        ram = rng.randint(1, 6)
        terms = {-k: Fraction(rng.randint(1, 3)) for k in rng.sample(range(1, 9), 2)}
        phi = RamifiedExponent(ram, terms)
        s = rng.randint(1, 4)
        out = phi.substitute_root(1, 0, s)
        assert Fraction(out.pole_order, out.ram) == s * Fraction(phi.pole_order, phi.ram)


def test_holomorphic_truncation_and_zero_tail():
    phi = RamifiedExponent(3, {0: 5, 2: 1, -3: 1})
    assert dict(phi.terms) == {-1: CycloRat.from_rational(1)}
    assert phi.ram == 1  # gcd reduction: (3, {-3}) -> (1, {-1})
    zero = RamifiedExponent(4, {1: 7})
    assert zero.is_zero and zero.ram == 1 and zero.pole_order == 0


def test_gcd_reduction_to_minimal_ram():
    phi = RamifiedExponent(6, {-2: 1, -4: 1})
    assert phi.ram == 3
    assert dict(phi.terms) == {-1: CycloRat.from_rational(1), -2: CycloRat.from_rational(1)}


def test_cancelling_coefficients_drop_terms():
    phi = RamifiedExponent(2, [(-1, CycloRat.from_rational(1)),
                               (-1, CycloRat.from_rational(-1)),
                               (-3, CycloRat.from_rational(2))])
    assert dict(phi.terms) == {-3: CycloRat.from_rational(2)}
    assert phi.ram == 2  # gcd(2, 3) = 1: no reduction


# ---------------------------------------------------------------------------
# MultiIndex.
# ---------------------------------------------------------------------------

def test_multiindex_support_and_restriction():
    # Restriction to a coordinate subset, read through the indicator weights.
    i = MultiIndex((2, 0, 3, 0))
    assert i.support == (0, 2)
    assert i.dot((1, 0, 0, 0)) == 2
    assert i.dot((0, 1, 0, 1)) == 0
    assert i.dot((1, 1, 1, 1)) == 5


def test_multiindex_rejects_negative_entries():
    with pytest.raises(ValueError,
                       match=r"^multi-index entries must be >= 0, got \(1, -1\)$"):
        MultiIndex((1, -1))


def test_multiindex_entries_convert_like_int():
    assert MultiIndex(["3", True, 0]).entries == (3, 1, 0)
    assert MultiIndex(()).entries == ()


def test_multiindex_dot():
    i = MultiIndex((2, 3))
    assert i.dot((1, 1)) == 5
    assert i.dot((Fraction(1, 2), Fraction(1, 3))) == 2
