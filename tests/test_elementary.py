"""Tests for the one-variable elementary-module calculus."""

import copy
import dataclasses
import itertools
import pickle
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest

from slopelab.elementary import (
    ElementaryModule,
    FormalModule,
    RegularPart,
    certify_nearby_slopes,
    dual,
    elementary,
    exhaustion_grid,
    irregularity,
    is_regular,
    make_elementary,
    nearby_slopes,
    psi_dim,
    psi_dim_twisted,
    pullback,
    pushforward,
    regular_module,
    slopes,
    tensor,
    witness_twist,
)
from slopelab import exact_algebra
from slopelab.elementary import _galois_canonical
from slopelab.errors import FalsificationError
from slopelab.exact_algebra import (CycloRat, RamifiedExponent, _monomial, _orbit_orders,
                                    least_rotation, root_log)
from slopelab.expr import module_to_expr, parse_and_eval
from slopelab.randomgen import random_formal_module
from slopelab.selftest import check_pullback_pushforward, check_tensor

from generic_twists import candidate_slope_grid, generic_twists

F = Fraction


# ---------------------------------------------------------------------------
# Canonical forms.
# ---------------------------------------------------------------------------

def test_pruned_galois_canonical_matches_the_full_orbit():
    # Oracle: build all ram conjugates and take the least sort key.  Leading
    # exponents sharing a factor with ram make several j tie on the first
    # term, so later terms must break the tie.  Rational and one-coordinate
    # coefficients are compared by root-of-unity logs, negative ones among
    # them with the sign folded into the root; the others by the orders of
    # their conjugates from Galois logs, monomials spread over several
    # coordinates (zeta(3)^2 = -1 - zeta(3), zeta(3)*zeta(5)) included.
    rng = random.Random(31)
    z, q = CycloRat.zeta, CycloRat.from_rational
    by_logs = (q(1), q(-1), q(F(2, 3)), q(F(-3, 2)), z(3), -z(3), z(4), z(5),
               -2 * z(12, 7), -z(8, 3), 3 * z(8, 3), F(1, 2) * z(20, 11), -z(7, 2))
    by_product = (z(3, 2), -2 * z(3, 2), z(3) * z(5), -z(15, 13), -z(9, 7),
                  1 + z(4), -2 - z(3), 1 + z(12), z(5) - z(7), 2 + z(8, 3))
    assert all(_monomial(c) for c in by_logs) and not any(map(_monomial, by_product))
    assert all(_monomial(c)[0] > 0 for c in by_logs)
    negative = [c for c in by_logs if min(c.coords) < 0]
    assert len(negative) >= 5
    for c in negative:
        x, m, e = _monomial(c)
        assert x * z(m, e) == c, c
    coeffs = by_logs + by_product

    def check(phi):
        oracle = min((phi.substitute_root(phi.ram, j) for j in range(phi.ram)),
                     key=lambda cand: cand.sort_key())
        assert _galois_canonical.__wrapped__(phi) == oracle, phi

    # zeta(3)*zeta(5) at the ramifications where its conjugates leave Q(zeta_72).
    for ram in (7, 8, 11):
        check(RamifiedExponent(ram, {-ram: z(3) * z(5), -2: z(3) * z(5), -1: -z(3)}))
    ties = 0
    for _ in range(300):
        ram = rng.randint(2, 36)
        shared = [k for k in range(2, 37) if gcd(k, ram) > 1]
        lead = rng.choice(shared if rng.random() < 0.5 else range(1, 37))
        tail = rng.sample(range(1, lead), min(rng.randint(0, 2), lead - 1))
        # Every coefficient up to ramification 12; past it, conjugates are
        # products in Q(zeta_lcm(order, ram)), so keep that field small.
        fits = [c for c in coeffs if ram <= 12 or lcm(c.order, ram) <= 72]
        phi = RamifiedExponent(ram, {-k: rng.choice(fits) for k in [lead] + tail})
        if phi.ram == 1:
            continue
        check(phi)
        ties += gcd(phi.terms[0][0], phi.ram) > 1 and len(phi.terms) > 1
    assert ties >= 100


def test_monomial_decomposition_matches_the_brute_force_search():
    # c = x * zeta_m^e against the search over every root of unity of c's
    # field, mu_lcm(2, n): rational and one-coordinate c are decomposed, and
    # every other c, monomial or not, is left to the Galois logs.  The residue
    # least_rotation picks is checked against the products at every
    # ramification up to 36, so the logs run modulo lcm(n, ram) up to 1260.
    rng = random.Random(59)
    z = CycloRat.zeta
    outcomes = {"by logs": 0, "monomial by product": 0, "not monomial": 0}
    for _ in range(150):
        n = rng.choice([3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 36])
        c = F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3)) * z(n, rng.randrange(n))
        if rng.random() < 0.5:
            c += z(n, rng.randrange(n))
        if c.is_zero:
            continue
        m = lcm(2, c.order)
        brute = set()
        for e in range(m):
            ratio = c * z(m, -e)
            if ratio.order == 1:
                brute.add((ratio.coords[0], z(m, e)))
        found = _monomial(c)
        assert (found is not None) == (sum(map(bool, c.coords)) == 1), c
        if found is None:
            outcomes["monomial by product" if brute else "not monomial"] += 1
        else:
            x, k, e = found
            assert (x, z(k, e)) in brute, c
            outcomes["by logs"] += 1
        ram = rng.randint(2, 36)
        residues = rng.sample(range(ram), rng.randint(1, min(ram, 8)))
        assert least_rotation(c, ram, residues) == min(
            residues, key=lambda r: (c * z(ram, r)).sort_key()), (c, ram)
    assert min(outcomes.values()) >= 10, outcomes


def test_orbit_orders_match_the_product_path(monkeypatch):
    # Oracle for the Galois-log route of least_rotation: the order of every
    # product c * zeta_ram^r, and the least residue, at every ram <= 36.  The
    # coefficients are sums, none of them monomial to _monomial; 1 + zeta(3)
    # is the root of unity -zeta(3)^2, and zeta(3)*(1 + zeta(4)) has
    # conjugates that leave its field Q(zeta_12) for Q(zeta_4).
    z = CycloRat.zeta
    sums = [1 + z(n, j) for n, j in ((3, 1), (4, 1), (5, 2), (8, 3))]
    cases = [(c, ram) for c in sums + [-1 + 2 * z(4), z(3) + z(4)] for ram in range(1, 37)]
    cases += [(z(3) * (1 + z(4)), ram) for ram in (3, 6, 12)]
    assert not any(_monomial(c) for c, _ in cases)
    left = 0
    for c, ram in cases:
        products = [c * z(ram, r) for r in range(ram)]
        assert _orbit_orders(c, ram, range(ram)) == {
            r: x.order for r, x in enumerate(products)}, (c, ram)
        assert least_rotation(c, ram, range(ram)) == min(
            range(ram), key=lambda r: products[r].sort_key()), (c, ram)
        left += any(x.order < c.order for x in products)
    assert left >= 3
    # 1 + zeta(2003) at ram 2: zeta(2003) is no element of Q(zeta_lcm(1, 2)),
    # so the descent stops on 2003 with no Galois map and no log, and both
    # residues tie in Q(zeta_2003), where the product by zeta(2) = -1 is cheap.
    c = 1 + z(2003)

    def refuse(*_):
        raise AssertionError("field work past the skip rule")

    with monkeypatch.context() as patch:
        patch.setattr(exact_algebra, "_map_powers", refuse)
        patch.setattr(exact_algebra, "root_log", refuse)
        assert _orbit_orders(c, 2, range(2)) == {0: 2003, 1: 2003}
    assert least_rotation(c, 2, range(2)) == min(
        range(2), key=lambda r: (c * z(2, r)).sort_key()) == 1


def test_monomial_root_logs_match_the_equality_search(monkeypatch):
    # The closed form of root_log for monomials c = x * zeta_m^e and
    # d = y * zeta_n^f against the search over every zeta_L^e by equality,
    # on seeded pairs: rational ones, negative x (folded into a root of
    # order 2m), roots of unity outside mu_L (K does not divide s*L) and
    # x != y.  The closed form forms no product.
    rng = random.Random(67)
    z = CycloRat.zeta
    scales = (1, 2, F(1, 3), -1, -2, F(-3, 2))

    def monomial(rational=False):
        n = 1 if rational else rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 10, 12))
        return rng.choice(scales) * z(n, rng.randrange(n))

    cases = []
    for i in range(400):
        c = monomial(rational=i % 5 == 0)
        d = c * z(rng.choice((2, 3, 4, 6, 8, 12)), rng.randrange(24))
        if i % 3 == 0:
            d = -monomial(rational=i % 5 == 0)
        if not (_monomial(c) and _monomial(d)):
            continue  # a root spread over several coordinates takes the search
        L = rng.randint(1, 36)
        logs = [e for e in range(L) if c * z(L, e) == d]
        cases.append((c, d, L, logs[0] if logs else None))
    assert len(cases) >= 250

    def refuse(*_):
        raise AssertionError("CycloRat product")

    monkeypatch.setattr(CycloRat, "__mul__", refuse)
    monkeypatch.setattr(CycloRat, "__rmul__", refuse)
    outcomes = {"found": 0, "outside mu_L": 0, "x != y": 0, "rational": 0, "negative": 0}
    for c, d, L, expected in cases:
        assert root_log(c, d, L) == expected, (c, d, L)
        (x, m, e), (y, n, f) = _monomial(c), _monomial(d)
        K = lcm(m, n)
        s = (f * (K // n) - e * (K // m)) % K
        outcomes["found"] += expected is not None
        outcomes["outside mu_L"] += x == y and s * L % K != 0
        outcomes["x != y"] += x != y
        outcomes["rational"] += c.order == d.order == 1
        outcomes["negative"] += min(c.coords) < 0
    assert min(outcomes.values()) >= 20, outcomes


def test_closed_form_regular_pushforward_matches_the_constructor():
    rng = random.Random(61)
    for _ in range(300):
        reg = RegularPart.from_exponents(
            F(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 4)))
        d = rng.randint(1, 36)
        fast = reg.pushforward(d)
        slow = RegularPart([((e + j) / d, m) for e, m in reg.exps for j in range(d)])
        assert fast.exps == slow.exps and hash(fast) == hash(slow), (reg, d)
        assert fast.rank == d * reg.rank


def test_rank_and_slope_of_elementary_factor():
    m = elementary(2, {-3: 1})
    (f,) = m.factors
    assert f.ram == 2 and f.rank == 2
    assert f.slope == F(3, 2)


def test_ramification_reduction_preserves_rank_and_slope():
    # El(2, u^-2, rank 1) rewrites on the subcover as El(1, u^-1, rank-2 reg).
    m = elementary(2, {-2: 1})
    (f,) = m.factors
    assert f.ram == 1
    assert f.slope == 1
    assert f.rank == 2
    assert f.reg.exps == ((F(0), 1), (F(1, 2), 1))


def test_galois_conjugate_representatives_merge():
    a = elementary(2, {-3: 1})
    b = elementary(2, {-3: -1})  # the zeta_2-conjugate of the same module
    assert a == b
    assert (a + b).factors[0].reg.rank == 2


def test_zero_module_and_rank_zero_regular_part():
    assert FormalModule.zero().is_zero
    assert make_elementary(3, {-1: 1}, RegularPart()) is None
    assert slopes(FormalModule.zero()) == {}
    assert psi_dim(FormalModule.zero(), 2) == 0


# ---------------------------------------------------------------------------
# Slopes, irregularity.
# ---------------------------------------------------------------------------

def test_slope_examples():
    assert slopes(elementary(1, {-3: 1})) == {F(3): 1}
    assert slopes(elementary(2, {-3: 1})) == {F(3, 2): 2}
    assert slopes(regular_module(2)) == {F(0): 2}


def test_slopes_of_direct_sum():
    m = elementary(1, {-3: 1}) + regular_module(2)
    assert slopes(m) == {F(0): 2, F(3): 1}


def _sorted_slopes(module):
    # The slope multiset recomputed from scratch and sorted explicitly.
    out = {}
    for f in module.factors:
        s = F(f.phi.pole_order, f.ram)
        out[s] = out.get(s, 0) + f.rank
    return dict(sorted(out.items()))


def test_every_construction_keeps_factors_in_slope_order():
    # slopes() reads the factors in order and does not sort, so every route
    # to a module must hand its factors over in nondecreasing slope order.
    rng = random.Random(71)
    kinds = set()
    for _ in range(40):
        a, b = random_formal_module(rng), random_formal_module(rng, max_factors=2)
        p = rng.randint(1, 6)
        built = {
            "of": FormalModule.of(reversed(a.factors + b.factors)),
            "+": b + a,
            "dual": dual(a),
            "pullback": pullback(p, a),
            "pushforward": pushforward(p, a),
            "tensor": tensor(a, b),
            "parse_and_eval": parse_and_eval(module_to_expr(a + b)),
        }
        for kind, m in built.items():
            order = [f.slope for f in m.factors]
            assert order == sorted(order), (kind, m)
            assert list(slopes(m).items()) == list(_sorted_slopes(m).items()), (kind, m)
            if len(set(order)) > 1:
                kinds.add(kind)
    assert len(kinds) == 7, kinds


def test_irregularity_examples():
    assert irregularity(elementary(1, {-3: 1})) == 3
    assert irregularity(elementary(2, {-3: 1})) == 3  # (3/2) * 2
    assert irregularity(regular_module(5)) == 0


# ---------------------------------------------------------------------------
# Dual.
# ---------------------------------------------------------------------------

def test_dual_examples():
    assert dual(elementary(1, {-2: 1})) == elementary(1, {-2: -1})
    reg = regular_module(1, exponents=[F(1, 3)])
    assert dual(reg) == regular_module(1, exponents=[F(2, 3)])


# ---------------------------------------------------------------------------
# Pullback / pushforward.
# ---------------------------------------------------------------------------

def test_pullback_examples():
    assert pullback(2, elementary(1, {-1: 1})) == elementary(1, {-2: 1})
    split = pullback(2, elementary(2, {-1: 1}))
    assert split == elementary(1, {-1: 1}) + elementary(1, {-1: -1})
    reg = regular_module(2, exponents=[F(1, 3), F(1, 2)])
    assert pullback(3, reg) == regular_module(2, exponents=[F(0), F(1, 2)])


def test_pushforward_examples():
    out = pushforward(2, elementary(3, {-1: 1}))
    (f,) = out.factors
    assert f.ram == 6 and f.slope == F(1, 6) and f.rank == 6
    m = elementary(2, {-3: 1}) + regular_module(1)
    assert pushforward(1, m) == m
    assert pushforward(2, regular_module(1)) == regular_module(
        2, exponents=[F(0), F(1, 2)])


# ---------------------------------------------------------------------------
# Tensor.
# ---------------------------------------------------------------------------

def test_tensor_examples():
    a = elementary(1, {-2: 1})
    assert tensor(a, elementary(1, {-2: -1})) == regular_module(1)
    out = tensor(a, elementary(1, {-3: 1}))
    assert out == elementary(1, {-2: 1, -3: 1})
    assert slopes(out) == {F(3): 1}
    twice = tensor(elementary(2, {-1: 1}), elementary(2, {-1: 1}))
    expected = elementary(2, {-1: 2}) + regular_module(
        2, exponents=[F(0), F(1, 2)])
    assert twice == expected


def test_functorial_identities_hold_exactly():
    # Pullback and pushforward compose, pullback and dual are tensor
    # functors, and the projection formula ties all three operations
    # together: sharp consistency checks on the conjugate bookkeeping.  No
    # acceptance criterion runs these two checks, so they run here.
    rng = random.Random(31337)

    def module(**bounds):
        return random_formal_module(rng, max_ram=5, max_ord=6, **bounds)

    tensor_cases = [(module(max_factors=2), module(max_factors=2),
                     module(max_factors=1), rng.randint(1, 6), rng.randint(1, 5))
                    for _ in range(60)]
    image_cases = [(module(), rng.randint(1, 6), rng.randint(1, 6))
                   for _ in range(60)]
    for res in (check_tensor(tensor_cases), check_pullback_pushforward(image_cases)):
        assert res.ok, res.failures


# ---------------------------------------------------------------------------
# Nearby cycles and nearby slopes.
# ---------------------------------------------------------------------------

def test_psi_dim_examples():
    assert psi_dim(elementary(1, {-1: 1}, rank=5), 1) == 0
    assert psi_dim(regular_module(2), 3) == 6
    assert psi_dim(regular_module(1) + elementary(1, {-2: 1}), 2) == 2


def test_nearby_slopes_examples():
    assert nearby_slopes(elementary(1, {-3: 1}), 1) == {F(3)}
    assert nearby_slopes(elementary(1, {-3: 1}), 2) == {F(3, 2)}
    for k in (1, 2, 3):
        assert nearby_slopes(regular_module(1), k) == {F(0)}
    # Ramified source, ramified twist: slope 3/2 seen along x^2 is 3/4.
    assert nearby_slopes(elementary(2, {-3: 1}), 2) == {F(3, 4)}


# The module itself: `slopelab.elementary` also names a function re-exported by
# the package, so attribute access would find that instead.
_ELEMENTARY = sys.modules["slopelab.elementary"]


def _replayable(message, module, p):
    # The message names the module as expression text and the replay command.
    assert "ElementaryModule(" not in message and "FormalModule(" not in message
    text = message.split("module: ")[1].split(";")[0]
    assert parse_and_eval(text) == module
    assert f"replay: slopelab nearby -e '{text}' -p {p} --cert" in message


def test_falsified_witness_names_the_module_and_replay(monkeypatch):
    monkeypatch.setattr(_ELEMENTARY, "_twisted_dim", lambda *_: 0)
    m = elementary(2, {-3: CycloRat.zeta(3), -1: 1}) + regular_module(1)
    with pytest.raises(FalsificationError) as info:
        nearby_slopes(m, 3)
    _replayable(str(info.value), m, 3)


def test_falsified_exhaustion_names_the_twist_and_replay(monkeypatch):
    # A slope walk that misses slopes 1/2 and 1: the certificate's check
    # against slopes() finds the factors of slope r*p and names the least
    # missed slope with its witness twist, built from the factors, not
    # from the walk.
    m = elementary(1, {-2: CycloRat.zeta(4)}) + elementary(1, {-1: 1})
    expected = witness_twist(m, F(1), 2)
    walk = _ELEMENTARY._slope_walk
    monkeypatch.setattr(_ELEMENTARY, "_slope_walk", lambda *args: (
        (r, raw) for r, raw in walk(*args) if r not in {F(1, 2), F(1)}))
    with pytest.raises(FalsificationError) as info:
        certify_nearby_slopes(m, 2, ram_bound=2, ord_bound=2)
    message = str(info.value)
    _replayable(message, m, 2)
    assert message.startswith("slope 1/2 was predicted absent (p=2) but twist ")
    twist = message.split("but twist ")[1].split(" gives")[0]
    assert parse_and_eval(twist) == expected
    assert "nearby-cycle dimension 0;" not in message
    # The replay reruns the exhaustion on the same grid.
    assert message.endswith("--cert --ram-bound 2 --ord-bound 2")


def _grid_without_members(cert):
    return [(r, count) for r, count in exhaustion_grid(cert.ram_bound, cert.ord_bound).items()
            if r not in cert.slopes]


@pytest.mark.parametrize("ram_bound, ord_bound", [(12, 24), (4, 6), (30, 60)])
def test_nonmembers_are_the_grid_without_the_members(ram_bound, ord_bound):
    rng = random.Random(67)
    on_grid = 0
    for _ in range(12):
        m, p = random_formal_module(rng), rng.randint(1, 3)
        cert = certify_nearby_slopes(m, p, ram_bound=ram_bound, ord_bound=ord_bound)
        assert [(rec.slope, rec.twists_checked)
                for rec in cert.nonmembers] == _grid_without_members(cert)
        on_grid += len(cert.slopes & set(exhaustion_grid(ram_bound, ord_bound)))
    assert on_grid >= 12


def test_exhaustion_records_outlast_their_cache():
    # More bound pairs than the record cache holds, visited twice in turn.
    m = elementary(2, {-3: 1}) + elementary(1, {-2: 1}) + regular_module(1)
    pairs = [(t, t + k) for t in range(1, 7) for k in (0, 3)]
    assert len(pairs) > _ELEMENTARY._exhaustion_records.cache_info().maxsize
    for _ in range(2):
        for ram_bound, ord_bound in pairs:
            cert = certify_nearby_slopes(m, 2, ram_bound=ram_bound, ord_bound=ord_bound)
            assert [(rec.slope, rec.twists_checked)
                    for rec in cert.nonmembers] == _grid_without_members(cert)


def test_witness_twist_examples():
    m = elementary(1, {-3: 1})
    n = witness_twist(m, F(3), 1)
    assert n == elementary(1, {-3: -1})
    assert psi_dim(tensor(m, pullback(1, n)), 1) == 1

    m2 = elementary(2, {-3: 1})
    n2 = witness_twist(m2, F(3, 2), 1)
    assert n2 == elementary(2, {-3: -1})
    assert slopes(n2) == {F(3, 2): 2}

    m3 = elementary(1, {-2: 1})
    n3 = witness_twist(m3, F(2), 2)
    assert slopes(n3) == {F(1): 2}  # El(2, -u^-2) has slope 1 = r/p
    assert psi_dim(tensor(m3, pullback(2, n3)), 2) > 0


def test_witness_twist_rejects_missing_slope():
    with pytest.raises(ValueError, match="no factor of slope"):
        witness_twist(elementary(1, {-3: 1}), F(2), 1)


def test_is_regular_examples_and_characterization():
    assert is_regular(regular_module(3))
    assert not is_regular(elementary(2, {-1: 1}))
    assert not is_regular(regular_module(1) + elementary(1, {-4: 1}))


def test_certificate_members_and_nonmembers():
    m = elementary(2, {-3: 1}) + regular_module(1)
    cert = certify_nearby_slopes(m, 1, ram_bound=6, ord_bound=8)
    assert cert.slopes == {F(0), F(3, 2)}
    assert all(w.psi_dimension > 0 for w in cert.members)
    checked = {rec.slope for rec in cert.nonmembers}
    assert F(3, 2) not in checked and F(0) not in checked
    assert F(1) in checked and F(8) in checked
    assert all(rec.twists_checked > 0 for rec in cert.nonmembers)


@pytest.mark.parametrize("ram_bound, ord_bound", [(12, 24), (30, 60), (4, 6), (2, 2)])
def test_exhaustion_grid_counts_the_built_twists(ram_bound, ord_bound):
    # The closed-form count against the family built module by module.
    grid = exhaustion_grid(ram_bound, ord_bound)
    assert list(grid) == sorted(grid)
    assert set(grid) == candidate_slope_grid(ram_bound, ord_bound)
    for r, count in grid.items():
        assert count == len(set(generic_twists(r, ram_bound, ord_bound))), r


def test_cyclotomic_coefficients_flow_through_the_calculus():
    z3 = CycloRat.zeta(3)
    m = elementary(3, {-2: z3, -1: 1})
    assert slopes(m) == {F(2, 3): 3}
    n = witness_twist(m, F(2, 3), 1)
    assert psi_dim(tensor(m, pullback(1, n)), 1) > 0
    assert dual(dual(m)) == m


def test_conjugate_sum_count_matches_the_canonical_route():
    # Oracle for counting cancelling conjugate pairs: psi_dim_twisted must
    # agree with canonicalizing the pullback and the tensor and reading the
    # regular rank.  Every odd draw pairs its factor with its witness twist,
    # so cancellation really occurs at s = p.
    rng = random.Random(2024)
    z3, z4 = CycloRat.zeta(3), CycloRat.zeta(4)
    coeffs = (F(1), F(-2), F(1, 3), z3, -z4, z3 + 2 * z4)
    exponent_sets = ((0,), (F(1, 2),), (0, F(1, 3)))

    def random_factor():
        terms = {-rng.randint(1, 6): rng.choice(coeffs)
                 for _ in range(rng.randint(0, 2))}
        reg = RegularPart.from_exponents(rng.choice(exponent_sets))
        return make_elementary(rng.randint(1, 6), terms, reg)

    pairs = []
    for i in range(60):
        a = random_factor()
        if i % 2 and not a.is_regular:
            p = rng.randint(1, 3)
            twist = witness_twist(FormalModule.of([a]), a.slope, p)
            pairs.extend((a, b) for b in twist.factors)
        else:
            pairs.append((a, random_factor()))
    cancelling = 0
    for a, b in pairs:
        m, n = FormalModule.of([a]), FormalModule.of([b])
        for s in (1, 2, 3):
            fast = psi_dim_twisted(m, n, s)
            assert fast == psi_dim(tensor(m, pullback(s, n)), s), (a, b, s)
            cancelling += fast > 0
    assert cancelling >= 20


def _refuse_division(monkeypatch):
    # The discrete-log kernel answers by equality and closed-form roots of
    # unity; from here on any CycloRat division fails the test.
    def refuse(*_):
        raise AssertionError("CycloRat division")

    monkeypatch.setattr(CycloRat, "inverse", refuse)


def test_all_cyclotomic_coefficients_match_the_composed_route(monkeypatch):
    # Oracle for the discrete-log count where every coefficient is
    # cyclotomic.  Each twist negates a Galois conjugate of its factor's
    # exponent on the degree-p cover, with each coefficient also multiplied
    # by 1, by -1, by a root of unity or by 2 or 1 + zeta(4), which are none.
    # Every odd draw keeps both covers odd, where -1 is no L-th root of
    # unity.  No path through either route divides.
    _refuse_division(monkeypatch)
    rng = random.Random(2026)
    z3, z4, z5 = CycloRat.zeta(3), CycloRat.zeta(4), CycloRat.zeta(5)
    coeffs = (z3, z4, z5, 2 * z3, 1 + z4)
    multipliers = (1, 1, -1, z3, z4, z5, 2, 1 + z4)
    outcomes = {"cancel": 0, "equal slope, no cancelling pair": 0}
    for i in range(80):
        odd = i % 2
        terms = {-k: rng.choice(coeffs)
                 for k in rng.sample(range(1, 7), rng.randint(1, 2))}
        a = make_elementary(rng.choice((1, 3, 5) if odd else (2, 4, 6)), terms,
                            RegularPart.of_rank(rng.randint(1, 2)))
        p = rng.choice((1, 3) if odd else (1, 2))
        j = rng.randrange(a.ram)
        b = make_elementary(
            p * a.ram, {k: -c * CycloRat.zeta(a.ram, j * k) * rng.choice(multipliers)
                        for k, c in a.phi.terms}, RegularPart.of_rank(1))
        assert b.ram % 2 or not odd
        m, n = FormalModule.of([a]), FormalModule.of([b])
        for s in (1, 2, 3):
            fast = psi_dim_twisted(m, n, s)
            assert fast == psi_dim(tensor(m, pullback(s, n)), s), (a, b, s)
            if a.slope == s * b.slope:
                outcomes["cancel" if fast else "equal slope, no cancelling pair"] += 1
    assert min(outcomes.values()) >= 15, outcomes


def test_root_log_matches_the_brute_force_search(monkeypatch):
    # The discrete log of each coefficient ratio -d/c, the target -d, against
    # the search over every zeta_L^e, e < L; -zeta(3) and -zeta(5) lie in
    # mu_L only for even L, and 2 and (1 + zeta(4))/zeta(3) in none.  The
    # oracle divides once per pair up front; root_log itself runs with
    # division refused.
    z3, z4, z5 = CycloRat.zeta(3), CycloRat.zeta(4), CycloRat.zeta(5)
    values = [CycloRat.from_rational(x) for x in (1, -1, 2)] + [
        z3, z4, z5, -z3, 1 + z4, 2 * z3, CycloRat.zeta(12, 5), CycloRat.zeta(8, 3)]
    ratios = {(c, -d): -d * c.inverse() for c, d in itertools.product(values, repeat=2)}
    _refuse_division(monkeypatch)
    found = 0
    for (c, target), rho in ratios.items():
        for L in range(1, 41):
            logs = [e for e in range(L) if CycloRat.zeta(L, e) == rho]
            assert root_log(c, target, L) == (logs[0] if logs else None), (c, target, L)
            found += bool(logs)
    assert 0 < found < 121 * 40 // 2
    # A ratio from a field whose roots of unity miss mu_L: the search runs
    # over mu_gcd(6, 14) = {1, -1} only.
    assert root_log(CycloRat.from_rational(1), CycloRat.zeta(7), 6) is None


def test_witness_checks_negate_no_coefficient(monkeypatch):
    # A witness is measured as the slope factor's own principal part, the
    # part its twist cancels, so verifying nearby slopes negates nothing.
    rng = random.Random(79)
    cases = []
    for _ in range(12):
        m = random_formal_module(rng)
        for p in range(1, 7):
            cases += [(n, p) for n in (m, dual(m), pushforward(p, m))]

    def refuse(*_):
        raise AssertionError("a witness check negated a coefficient")

    monkeypatch.setattr(CycloRat, "__neg__", refuse)
    claimed = [r for n, p in cases for r in nearby_slopes(n, p)]
    assert sum(r > 0 for r in claimed) > len(cases)


def test_slope_mismatched_pairs_never_reach_the_kernel(monkeypatch):
    # Count the pairs the witness checks visit by replaying the loop of
    # _twisted_dim, which measures the raw witness twists; the cancellation
    # kernel must run for exactly the equal-slope ones, once per pair.
    visited = {"all": 0, "equal": 0, "kernel": 0}
    original = _ELEMENTARY._twisted_dim
    kernel = _ELEMENTARY._cancelling_pairs

    def counting(module, twists, p):
        for ram, terms, _ in twists:
            slope = F(-terms[0][0], ram) if terms else 0
            for a in module.factors:
                visited["all"] += 1
                visited["equal"] += a.slope == p * slope
        return original(module, twists, p)

    def counting_kernel(*args):
        visited["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(_ELEMENTARY, "_twisted_dim", counting)
    monkeypatch.setattr(_ELEMENTARY, "_cancelling_pairs", counting_kernel)
    rng = random.Random(47)
    m = random_formal_module(rng)
    while len(slopes(m)) < 3:
        m = random_formal_module(rng)
    # Each witness twist matches one slope of the module.
    nearby_slopes(m, 2)
    witnessed = visited["equal"]
    assert 0 < witnessed < visited["all"]
    assert visited["kernel"] == witnessed
    # A certificate checks its members with the same witnesses; the
    # exhaustion checks only slopes the module lacks, so it adds no
    # equal-slope pair and no kernel call.
    visited.update(all=0, equal=0, kernel=0)
    certify_nearby_slopes(m, 2)
    assert visited["all"] > witnessed and visited["equal"] == witnessed
    assert visited["kernel"] == witnessed


def test_certificate_members_match_the_composed_route(monkeypatch):
    # Certificates and psi_dim_twisted measure twists by cancellation counts
    # alone and never build the pullback or the canonical tensor; the
    # composed route is the oracle.
    def refuse(*_):
        raise AssertionError("the direct route reached the canonical calculus")

    rng = random.Random(48)
    modules = [random_formal_module(rng) for _ in range(24)]
    with monkeypatch.context() as patched:
        patched.setattr(_ELEMENTARY, "tensor", refuse)
        patched.setattr(_ELEMENTARY, "pullback", refuse)
        certs = [(m, p, certify_nearby_slopes(m, p))
                 for m in modules for p in (1, 2, 3)]
    for m, p, cert in certs:
        for w in cert.members:
            oracle = psi_dim(tensor(m, pullback(p, w.twist)), p)
            assert w.psi_dimension == oracle, (m, p, w.slope)
        # The exhaustion has no factor-derived twist to add for these.
        factor_slopes = {f.slope for f in m.factors}
        assert not any(rec.slope * p in factor_slopes for rec in cert.nonmembers)
    assert max(f.ram for m in modules for f in m.factors) == 6
    assert sum(any(c.order > 1 for f in m.factors for _, c in f.phi.terms)
               for m in modules) >= 5
    # With make_elementary refused too, psi_dim_twisted still measures
    # precomputed twists: the witnesses and one random twist per case.
    cases = [(m, p, twist) for m, p, cert in certs
             for twist in [w.twist for w in cert.members]
             + [random_formal_module(rng, max_factors=1)]]
    with monkeypatch.context() as patched:
        for name in ("tensor", "pullback", "make_elementary"):
            patched.setattr(_ELEMENTARY, name, refuse)
        direct = [psi_dim_twisted(m, twist, p) for m, p, twist in cases]
    for (m, p, twist), dim in zip(cases, direct):
        assert dim == psi_dim(tensor(m, pullback(p, twist)), p), (m, p, twist)
    assert sum(dim > 0 for dim in direct) > len(certs)


# ---------------------------------------------------------------------------
# Hash-once values: cached hashes, pickling and copies.
# ---------------------------------------------------------------------------

def test_cached_slope_and_rank_stay_out_of_value_semantics():
    # slope and rank are computed once per instance, but are no fields:
    # equality, hashing, repr, pickling and copies see the same value as a
    # fresh instance that never read them.
    assert [f.name for f in dataclasses.fields(ElementaryModule)] == ["ram", "phi", "reg"]
    assert [f.name for f in dataclasses.fields(RegularPart)] == ["exps"]
    rng = random.Random(73)
    values = []
    for _ in range(30):
        m = random_formal_module(rng, max_reg_rank=4)
        for f in pushforward(rng.randint(1, 4), m).factors:
            values += [f, f.reg]
    for v in values:
        fresh = pickle.loads(pickle.dumps(v))
        assert "slope" not in vars(fresh) and "rank" not in vars(fresh)
        if isinstance(v, ElementaryModule):
            assert v.slope == F(v.phi.pole_order, v.ram) and "slope" in vars(v)
            assert v.reg.rank == sum(m for _, m in v.reg.exps) and "rank" in vars(v.reg)
        else:
            assert v.rank == sum(m for _, m in v.exps) and "rank" in vars(v)
        assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
        assert pickle.dumps(v) == pickle.dumps(fresh)
        for clone in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert clone == fresh and hash(clone) == hash(fresh)
            assert "slope" not in vars(clone) and "rank" not in vars(clone)


def _field_tuple(value):
    if isinstance(value, CycloRat):
        return (value.order, value.coords)
    if isinstance(value, RamifiedExponent):
        return (value.ram, value.terms)
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def _canonical_values(module):
    # Every canonical value inside the module and the module itself, each
    # object once, every value after the values it holds.
    values = {}
    for f in module.factors:
        for v in (*(c for _, c in f.phi.terms), f.phi, f.reg, f):
            values[id(v)] = v
    values[id(module)] = module
    return list(values.values())


def test_cached_hashes_equal_the_field_tuple_hash():
    rng = random.Random(43)
    kinds = set()
    for _ in range(40):
        # A pickle round trip rebuilds every value without a cached hash.
        m = pickle.loads(pickle.dumps(random_formal_module(rng)))
        for v in _canonical_values(m):
            kinds.add(type(v))
            fresh = hash(_field_tuple(v))
            assert not hasattr(v, "_hash")
            assert hash(v) == fresh
            assert hash(v) == hash(_field_tuple(v)) == fresh
    assert kinds == {FormalModule, ElementaryModule, RegularPart,
                     RamifiedExponent, CycloRat}


def test_equal_values_built_by_different_routes_hash_equal():
    for n in (3, 4, 6, 10, 12, 15, 18):
        for e in range(n):
            demoted = CycloRat(n, [0] * e + [1])
            assert demoted == CycloRat.zeta(n, e)
            assert hash(demoted) == hash(CycloRat.zeta(n, e))
    rng = random.Random(44)
    for _ in range(30):
        m = random_formal_module(rng)
        for other in (dual(dual(m)), parse_and_eval(module_to_expr(m))):
            assert other == m and hash(other) == hash(m)


def test_modules_and_certificates_survive_pickle_and_deepcopy():
    rng = random.Random(45)
    for i in range(6):
        m = random_formal_module(rng)
        cert = certify_nearby_slopes(m, 1 + i % 3)
        for value in (m, cert, *_canonical_values(m)):
            hash(value)
            for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert clone == value and hash(clone) == hash(value)
        for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert not any(hasattr(v, "_hash") for v in _canonical_values(clone))
