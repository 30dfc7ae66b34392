"""The one-variable calculus of formal meromorphic differential modules.

A module over the formal punctured disc decomposes as a direct sum of
elementary pieces: the pushforward along a degree-p cover u -> u**p = x of an
exponential twist E^phi tensored with a regular part.  This module implements
that calculus exactly: canonical forms, the functorial operations (dual,
pullback, pushforward, tensor), slope multisets, the dimension of nearby
cycles along x**k, and the twisted-vanishing characterization of nearby
slopes together with its witness/exhaustion certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Optional

from slopelab.errors import FalsificationError
from slopelab.exact_algebra import (CycloRat, RamifiedExponent, hash_once, least_rotation,
                                    root_log)

# Default certification bounds for non-membership exhaustion.
DEFAULT_RAM_BOUND = 12
DEFAULT_ORD_BOUND = 24


def _reduce_fields(self):
    # Pickle and copy through the constructor, without the cached hash; the
    # same field tuple is what hash_once hashes.
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


# ---------------------------------------------------------------------------
# Regular parts.
# ---------------------------------------------------------------------------

def _normalize_exponent(e) -> Fraction:
    e = Fraction(e)
    return e - (e.numerator // e.denominator)  # residue in [0, 1)


@dataclass(frozen=True)
class RegularPart:
    """A regular module remembered through its rank and exponent multiset.

    Exponents are residues in [0, 1); multiplicities sum to the rank.  Rank 0
    is the zero module and forces an empty multiset.  Unipotent (Jordan)
    structure is deliberately not tracked: no invariant computed by this
    engine can see it.
    """

    exps: tuple[tuple[Fraction, int], ...]

    __hash__ = hash_once
    __reduce__ = _reduce_fields

    def __init__(self, exps: Iterable[tuple[Fraction, int]] = ()):
        merged: dict[Fraction, int] = {}
        for e, mult in exps:
            if mult < 0:
                raise ValueError("multiplicities must be >= 0")
            if mult == 0:
                continue
            e = _normalize_exponent(e)
            merged[e] = merged.get(e, 0) + mult
        object.__setattr__(self, "exps", tuple(sorted(merged.items())))

    @classmethod
    def of_rank(cls, rank: int) -> "RegularPart":
        if rank < 0:
            raise ValueError("rank must be >= 0")
        return cls([(Fraction(0), rank)])

    @classmethod
    def from_exponents(cls, exponents: Iterable) -> "RegularPart":
        return cls([(Fraction(e), 1) for e in exponents])

    @cached_property
    def rank(self) -> int:
        return sum(m for _, m in self.exps)

    @property
    def is_zero(self) -> bool:
        return not self.exps

    def exponent_list(self) -> list[Fraction]:
        out: list[Fraction] = []
        for e, m in self.exps:
            out.extend([e] * m)
        return out

    def direct_sum(self, other: "RegularPart") -> "RegularPart":
        return RegularPart(self.exps + other.exps)

    def dual(self) -> "RegularPart":
        return RegularPart([(-e, m) for e, m in self.exps])

    def scale_exponents(self, k: int) -> "RegularPart":
        """Pullback along a degree-k cover: exponents multiply by k mod 1."""
        return RegularPart([(k * e, m) for e, m in self.exps])

    def pushforward(self, d: int) -> "RegularPart":
        """Pushforward along a degree-d cover: each exponent e splits into
        the d residues (e + j)/d, and the rank multiplies by d."""
        if d == 1:
            return self
        # With every e in [0, 1), the residues (e + j)/d are distinct, lie in
        # [0, 1) and come out ascending with j as the outer loop: the
        # normalized multiset as it stands.
        out = object.__new__(RegularPart)
        object.__setattr__(out, "exps", tuple(
            (Fraction(e.numerator + j * e.denominator, e.denominator * d), m)
            for j in range(d) for e, m in self.exps))
        return out

    def tensor(self, other: "RegularPart") -> "RegularPart":
        return RegularPart([(e1 + e2, m1 * m2)
                            for e1, m1 in self.exps for e2, m2 in other.exps])


# ---------------------------------------------------------------------------
# Elementary modules.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementaryModule:
    """El(ram, phi, reg): pushforward along u -> u**ram of E^phi tensor reg.

    Instances are always canonical: (ram, phi) is gcd-reduced, phi is the
    distinguished representative of its orbit under u -> zeta_ram * u, and
    the regular part is nonzero.  Construct through :func:`make_elementary`.
    """

    ram: int
    phi: RamifiedExponent
    reg: RegularPart

    __hash__ = hash_once
    __reduce__ = _reduce_fields

    @property
    def rank(self) -> int:
        return self.ram * self.reg.rank

    @cached_property
    def slope(self) -> Fraction:
        return Fraction(self.phi.pole_order, self.ram)

    @property
    def is_regular(self) -> bool:
        return self.phi.is_zero

    def sort_key(self):
        return (self.slope, self.ram, self.phi.sort_key(), self.reg.exps)


@lru_cache(maxsize=65536)
def _galois_canonical(phi: RamifiedExponent) -> RamifiedExponent:
    # Distinguished orbit representative under u -> zeta_ram^j * u:
    # lexicographically minimal coefficient sequence, graded by exponent.
    #
    # The k-th coefficient of the j-th conjugate is c_k * zeta_ram^(j*k),
    # and every conjugate has the same exponent set, so the lexicographic
    # minimum is decided term by term: at each exponent keep the j whose
    # coefficient has the least sort key (least_rotation).  Two j tie on a
    # term exactly when j*k agrees mod ram (sort keys are canonical), so
    # grouping by that residue drops only conjugates that lose, and only the
    # one survivor is ever built.
    ram = phi.ram
    if ram == 1 or phi.is_zero:
        return phi
    survivors = range(ram)
    for k, c in phi.terms:
        by_residue: dict[int, list[int]] = {}
        for j in survivors:
            by_residue.setdefault(j * k % ram, []).append(j)
        survivors = by_residue[least_rotation(c, ram, by_residue)]
        if len(survivors) == 1:
            break
    j = survivors[0]
    return phi.substitute_root(ram, j, 1) if j else phi


def make_elementary(ram: int,
                    terms: Mapping[int, CycloRat] | Iterable[tuple[int, CycloRat]],
                    reg: RegularPart) -> Optional[ElementaryModule]:
    """Build the canonical elementary module El(ram, phi, reg).

    `terms` is the principal part expressed in the coordinate of the
    degree-`ram` cover.  Canonicalization does three things: exponents whose
    gcd d is shared with `ram` are rewritten on the degree-(ram/d) subcover
    (with the regular part pushed forward by d, so rank and slope are
    untouched); the Galois-orbit representative of phi is selected; the zero
    module comes back as None.
    """
    if ram < 1:
        raise ValueError(f"ramification index must be >= 1, got {ram}")
    if reg.is_zero:
        return None
    phi = RamifiedExponent(ram, terms)
    d = ram // phi.ram
    if phi.ram * d != ram:
        raise AssertionError("gcd reduction produced a non-divisor ramification")
    phi = _galois_canonical(phi)
    return ElementaryModule(phi.ram, phi, reg.pushforward(d))


def elementary(ram: int, terms, rank: int = 1, exponents=None) -> "FormalModule":
    """Convenience: a one-factor module, e.g. elementary(2, {-3: 1})."""
    reg = (RegularPart.from_exponents(exponents) if exponents is not None
           else RegularPart.of_rank(rank))
    return FormalModule.of([make_elementary(ram, terms, reg)])


def regular_module(rank: int, exponents=None) -> "FormalModule":
    """A purely regular module of the given rank."""
    return elementary(1, {}, rank=rank, exponents=exponents)


# ---------------------------------------------------------------------------
# Formal modules: canonical direct sums of elementary factors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormalModule:
    """A finite direct sum of elementary modules in canonical form.

    Factors with isomorphic (ram, phi) are merged by summing their regular
    parts; the empty sum is the zero module.
    """

    factors: tuple[ElementaryModule, ...]

    __hash__ = hash_once
    __reduce__ = _reduce_fields

    @staticmethod
    def of(parts: Iterable[Optional[ElementaryModule]]) -> "FormalModule":
        merged: dict[tuple, tuple[int, RamifiedExponent, RegularPart]] = {}
        for f in parts:
            if f is None:
                continue
            key = (f.ram, f.phi)
            if key in merged:
                ram, phi, reg = merged[key]
                merged[key] = (ram, phi, reg.direct_sum(f.reg))
            else:
                merged[key] = (f.ram, f.phi, f.reg)
        factors = [ElementaryModule(ram, phi, reg)
                   for ram, phi, reg in merged.values()]
        factors.sort(key=lambda f: f.sort_key())
        return FormalModule(tuple(factors))

    @staticmethod
    def zero() -> "FormalModule":
        return FormalModule(())

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def is_zero(self) -> bool:
        return not self.factors

    def __add__(self, other: "FormalModule") -> "FormalModule":
        if not isinstance(other, FormalModule):
            return NotImplemented
        return FormalModule.of(self.factors + other.factors)


# ---------------------------------------------------------------------------
# Slope data.
# ---------------------------------------------------------------------------

def slopes(module: FormalModule) -> dict[Fraction, int]:
    """Slope multiset, in increasing order as FormalModule.of sorts factors:
    each factor contributes its slope with multiplicity equal to its rank.
    Empty for the zero module."""
    out: dict[Fraction, int] = {}
    for f in module.factors:
        s = f.slope
        out[s] = out.get(s, 0) + f.rank
    return out


def irregularity(module: FormalModule) -> Fraction:
    """Sum of slope times multiplicity (the height of the Newton polygon)."""
    return sum((s * m for s, m in slopes(module).items()), Fraction(0))


def regular_rank(module: FormalModule) -> int:
    """Total rank of the slope-0 part."""
    return sum(f.rank for f in module.factors if f.is_regular)


def is_regular(module: FormalModule) -> bool:
    """True iff every factor has zero exponential twist (all slopes 0)."""
    return all(f.is_regular for f in module.factors)


# ---------------------------------------------------------------------------
# Functorial operations.
# ---------------------------------------------------------------------------

def dual(module: FormalModule) -> FormalModule:
    """Factorwise El(p, -phi, reg*), with regular exponents negated mod 1."""
    return FormalModule.of(
        make_elementary(f.ram, {k: -c for k, c in f.phi.terms}, f.reg.dual())
        for f in module.factors)


def pushforward(p: int, module: FormalModule) -> FormalModule:
    """Direct image along x -> x**p: El(q, phi, reg) -> El(p*q, phi, reg).

    Rank multiplies by p and every slope divides by p.
    """
    if p < 1:
        raise ValueError(f"pushforward degree must be >= 1, got {p}")
    if p == 1:
        return module
    return FormalModule.of(
        make_elementary(p * f.ram, dict(f.phi.terms), f.reg)
        for f in module.factors)


def pullback(q: int, module: FormalModule) -> FormalModule:
    """Inverse image along x = v**q.

    Each factor El(p, phi, reg) is pulled to the common cover and split into
    its Galois conjugates: with g = gcd(p, q) it contributes the g factors
    El(p/g, phi(zeta_p^j * w**(q/g)), reg with exponents scaled by q/g).
    Rank is preserved and every slope multiplies by q.
    """
    if q < 1:
        raise ValueError(f"pullback degree must be >= 1, got {q}")
    if q == 1:
        return module
    parts = []
    for f in module.factors:
        g = gcd(f.ram, q)
        reg = f.reg.scale_exponents(q // g)
        parts.extend(make_elementary(f.ram // g, terms, reg)
                     for terms in _conjugates(f, g, q // g))
    return FormalModule.of(parts)


def tensor(left: FormalModule, right: FormalModule) -> FormalModule:
    """Tensor product, bilinear over direct sums.

    For a pair of elementary factors the computation runs on the least
    common cover: with g = gcd(p, q) and L = lcm(p, q), the pair splits into
    the g factors whose exponent is phi(zeta_p^j * w**(q/g)) + psi(w**(p/g))
    and whose regular part is the tensor of the two scaled regular parts.
    Rank is multiplicative.
    """
    parts = []
    for a in left.factors:
        for b in right.factors:
            p, q = a.ram, b.ram
            g = gcd(p, q)
            reg = a.reg.scale_exponents(q // g).tensor(
                b.reg.scale_exponents(p // g))
            [psi] = _conjugates(b, 1, p // g)
            parts.extend(make_elementary(p * q // g,
                                         [*phi.items(), *psi.items()], reg)
                         for phi in _conjugates(a, g, q // g))
    return FormalModule.of(parts)


def _conjugates(f: ElementaryModule, count: int, scale: int) -> list[dict]:
    # The first `count` conjugates phi(zeta_ram^j * w**scale) of f's
    # exponent as raw {exponent: coefficient} dicts; nothing is canonicalized.
    return [{k * scale: c * CycloRat.zeta(f.ram, j * k) if j else c
             for k, c in f.phi.terms} for j in range(count)]


# ---------------------------------------------------------------------------
# Nearby cycles along x**k and nearby slopes.
# ---------------------------------------------------------------------------

def psi_dim(module: FormalModule, k: int) -> int:
    """Dimension of the nearby cycles of `module` along f = x**k.

    Factors with positive slope contribute nothing; the regular part
    contributes the covering degree k times its rank.  (The engine reads the
    rank of the surviving piece as degree-of-covering times regular rank.)
    """
    if k < 1:
        raise ValueError(f"nearby cycles need k >= 1, got {k}")
    return k * regular_rank(module)


def psi_dim_twisted(module: FormalModule, twist: FormalModule, p: int) -> int:
    """psi_dim(tensor(module, pullback(p, twist)), p), computed directly.

    Equivalent to composing the three operations (asserted by the test
    suite), but builds neither the pulled-back twist nor the tensor and
    forms no CycloRat product of conjugates: a summand of the tensor is
    regular exactly when its two conjugate exponents are negatives of each
    other, so the regular rank is a sum of per-pair counts of such conjugate
    pairs, and each count solves integer congruences on the discrete logs of
    the coefficient ratios.  Any Galois representative of the twist's
    factors, reduced or not, gives the same dimension.  The twist's
    coefficients are negated once, here, into the terms a summand cancels.
    """
    if p < 1:
        raise ValueError(f"nearby cycles need p >= 1, got {p}")
    return _twisted_dim(module, [(b.ram, tuple((k, -c) for k, c in b.phi.terms), b.reg.rank)
                                 for b in twist.factors], p)


def _twisted_dim(module: FormalModule, twists, p: int) -> int:
    # psi_dim_twisted for a twist given as raw (ram, terms, rank) factors
    # whose terms are the twist's exponent negated, the part a summand cancels.
    #
    # Per pair (a, b), pullback(p, b) splits into h = gcd(rb, p) conjugates
    # of ramification q' = rb/h, and tensor splits each against a into
    # g = gcd(ra, q') summands of rank lcm(ra, q') times the regular ranks,
    # whose exponent is a conjugate of a's plus a pulled-back conjugate of
    # b's.  Both splits are isomorphisms for any Galois representative and
    # any ramification, reduced or not, so the summands are the composed
    # route's up to relabelling and none needs canonicalizing: a summand is
    # regular exactly when its exponent vanishes, that is when a conjugate
    # of a's equals a pulled-back conjugate of the raw terms.  Only equal slopes
    # na/ra = p*nb/rb can cancel: otherwise the deeper pole survives in
    # every summand.
    total = 0
    for rb, terms, rank in twists:
        nb = -terms[0][0] if terms else 0
        qh = rb // gcd(rb, p)  # ramification of b's pulled-back conjugates
        for a in module.factors:
            if a.phi.pole_order * rb == p * nb * a.ram:
                total += (_cancelling_pairs(a, rb, terms, p)
                          * lcm(a.ram, qh) * a.reg.rank * rank)
    return p * total


def _cancelling_pairs(a: ElementaryModule, rb: int, terms: tuple, p: int) -> int:
    # The number of (j, i) in [0, g) x [0, h) for which conjugate j of a's
    # exponent, {k*sa: c_k * zeta_ra^(j*k)}, equals the pulled-back
    # conjugate i of the raw terms, {k'*sb: d_k' * zeta_rb^(i*k')}.
    #
    # Why the congruences count exactly these pairs: the key sets are the
    # two exponent sets scaled by positive sa and sb, so they agree only if
    # the sorted terms pair off t by t with k_t*sa = k'_t*sb, whatever j and
    # i are.  Then term t cancels iff
    #     d/c = zeta_ra^(j*k) * zeta_rb^(-i*k') = zeta_L^(j*k*L/ra - i*k'*L/rb)
    # with L = lcm(ra, rb) (CycloRat.zeta is a compatible system,
    # zeta_n^m = zeta_(n/m) for m | n).  The right side is an L-th root of
    # unity, so no pair cancels unless the ratio rho = d/c is one, and if
    # rho = zeta_L^e then, zeta_L having order exactly L, the pairs that
    # cancel term t are those with j*k*L/ra - i*k'*L/rb = e (mod L).
    ra, aterms = a.ram, a.phi.terms
    if len(aterms) != len(terms):
        return 0
    h = gcd(rb, p)
    g = gcd(ra, rb // h)
    sa, sb = rb // h // g, p // h * (ra // g)
    L = lcm(ra, rb)
    congruences = []
    for (k, c), (kb, d) in zip(aterms, terms):
        e = root_log(c, d, L) if k * sa == kb * sb else None
        if e is None:
            return 0
        congruences.append((k * (L // ra), kb * (L // rb), e))
    if not congruences:  # two regular factors: every pair cancels
        return g * h
    # Solve the first congruence for j, one arithmetic progression per i,
    # and test the rest on its members.
    (A, B, e), rest = congruences[0], congruences[1:]
    d = gcd(A, L)
    step = L // d
    inverse = pow(A // d, -1, step)
    count = 0
    for i in range(h):
        rhs = e + i * B
        if rhs % d == 0:
            count += sum(all((j * A2 - i * B2 - e2) % L == 0 for A2, B2, e2 in rest)
                         for j in range(rhs // d * inverse % step, g, step))
    return count


def _raw_witness(f: ElementaryModule, p: int) -> tuple:
    # Factor f's witness twist along x**p as a raw (ram, terms, rank): f's own
    # principal part, the part the twist cancels, on the degree-p*ram cover,
    # or the unit twist for a regular f (a raw (p, (), 1) counts p conjugates).
    return (1, (), 1) if f.is_regular else (p * f.ram, f.phi.terms, 1)


def _slope_walk(module: FormalModule, p: int):
    # (s/p, raw witness of the first slope-s factor) per distinct slope s of
    # the module, in increasing order: FormalModule.of sorts factors slope
    # first, so each slope's factors are adjacent.
    last = None
    for f in module.factors:
        if f.slope != last:
            last = f.slope
            yield last / p, _raw_witness(f, p)


def _canonical_twist(raw: tuple) -> FormalModule:
    # The twist of a raw factor in canonical form: the raw terms negated.
    ram, terms, rank = raw
    return FormalModule.of([make_elementary(ram, [(k, -c) for k, c in terms],
                                            RegularPart.of_rank(rank))])


def witness_twist(module: FormalModule, r: Fraction, p: int) -> FormalModule:
    """A slope-r/p twist N with psi_dim(tensor(module, pullback(p, N)), p) > 0.

    Read off the slope walk that nearby_slopes and certificates share: the
    negated principal part of the first slope-r factor, pushed forward by p,
    in canonical form.  Raises ValueError when no factor has slope r.
    """
    r = Fraction(r)
    if p < 1:
        raise ValueError(f"twist degree must be >= 1, got {p}")
    for near, raw in _slope_walk(module, p):
        if r > 0 and near * p == r:
            return _canonical_twist(raw)
    raise ValueError(f"no factor of slope {r}")


def nearby_slopes(module: FormalModule, p: int, *, verify: bool = True) -> set[Fraction]:
    """Nearby slopes of `module` along f = x**p.

    One walk over the slope-sorted factors gives {s/p : s a slope of the
    module}, so 0 is a member exactly when the regular part is nonzero.  With
    verify=True (the default) each member r is confirmed by the walk's
    witness twist, the negated principal part of the first slope-r*p factor
    on the degree-p*ram cover, measured raw (neither gcd-reduced nor
    canonicalized nor negated: the kernel of psi_dim_twisted reads the
    factor's own principal part as the part to cancel); its nearby-cycle
    dimension, read off cancellation counts, must be positive.
    """
    if p < 1:
        raise ValueError(f"nearby slopes need p >= 1, got {p}")
    if verify:
        return {r for r, _, _ in _witnesses(module, p)}
    return {r for r, _ in _slope_walk(module, p)}


def _expr(module: FormalModule) -> str:
    from slopelab.expr import module_to_expr  # expr imports this module
    return module_to_expr(module)


def _replay(module: FormalModule, p: int) -> str:
    # Falsification context: the module as parseable text and the command
    # that reruns the check.
    text = _expr(module)
    return f"module: {text}; replay: slopelab nearby -e '{text}' -p {p} --cert"


# ---------------------------------------------------------------------------
# Certification: bounded exhaustion for non-membership.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRecord:
    slope: Fraction
    twist: FormalModule
    psi_dimension: int


def _witnesses(module: FormalModule, p: int):
    # (r, raw witness, dimension) per nearby slope, in increasing order: the
    # slope walk's raw twist, measured by the kernel of psi_dim_twisted.
    for r, raw in _slope_walk(module, p):
        dim = _twisted_dim(module, [raw], p)
        if dim <= 0:
            raise FalsificationError(
                f"witness twist for nearby slope {r} (p={p}) has vanishing "
                f"nearby cycles; {_replay(module, p)}")
        yield r, raw, dim


@dataclass(frozen=True)
class ExhaustionRecord:
    slope: Fraction
    twists_checked: int


@dataclass(frozen=True)
class NearbyCertificate:
    """Audit trail for a nearby-slope computation.

    Members carry an explicit witness twist with its positive nearby-cycle
    dimension.  Non-members (over the rational grid reachable within the
    ramification and pole-order bounds) carry the number of generic
    elementary twists of that slope within the bounds.  One slope test
    discharges that whole family, since no factor of the module has slope
    r*p; its twists are counted, not measured one at a time.
    """

    p: int
    ram_bound: int
    ord_bound: int
    members: tuple[WitnessRecord, ...]
    nonmembers: tuple[ExhaustionRecord, ...]

    @property
    def slopes(self) -> set[Fraction]:
        return {w.slope for w in self.members}


def exhaustion_grid(ram_bound: int, ord_bound: int) -> dict[Fraction, int]:
    """Every slope an elementary twist within the bounds can have, in
    increasing order, with the number of distinct generic twists of that
    slope.

    Slope 0 has the three regular twists of exponent 0, 1/2 and 1/3.  Each
    pair (t, m) with t <= ram_bound and m <= ord_bound gives the slope-m/t
    twists El(t, u^-m), El(t, -u^-m) and, for m >= 2, El(t, u^-m + u^-(m-1)).
    With m/t = a/b in lowest terms, El(t, +-u^-m) reduces to El(b, +-u^-a)
    with a regular part of rank t/b, so twists from different t never
    coincide.  The two signs are Galois-conjugate, and count once, exactly
    when -1 lies in mu_b, that is when b is even.
    """
    sizes = {(0, 1): 3}
    for t in range(1, ram_bound + 1):
        for m in range(1, ord_bound + 1):
            g = gcd(m, t)
            a, b = m // g, t // g
            sizes[a, b] = sizes.get((a, b), 0) + 1 + b % 2 + (m >= 2)
    # Every b divides some t <= ram_bound, so a * (scale // b) orders the
    # slopes exactly in integers.
    scale = lcm(*range(1, ram_bound + 1))
    return {Fraction(a, b): sizes[a, b]
            for a, b in sorted(sizes, key=lambda ab: ab[0] * (scale // ab[1]))}


def certify_nearby_slopes(module: FormalModule, p: int, *,
                          ram_bound: int = DEFAULT_RAM_BOUND,
                          ord_bound: int = DEFAULT_ORD_BOUND) -> NearbyCertificate:
    """Nearby slopes along x**p with a two-sided certificate.

    The members come from the slope walk that nearby_slopes reads, each
    verified by its witness twist measured raw as nearby_slopes measures it;
    the record holds the twist in canonical form.  Every other slope r on
    the bounded rational grid passes the slope test that psi_dim_twisted
    applies first: no factor of the module has slope r*p, so every twist of
    slope r, the generic ones of exhaustion_grid included, has vanishing
    nearby cycles.  The record counts that family; its twists are neither
    built nor measured one at a time.  The records are built once per bound
    pair and shared by every certificate on that grid, which looks up only
    its member and present slopes.  The composed route
    psi_dim(tensor(module, pullback(p, twist)), p) is kept as the test
    oracle.  A failure on either side raises FalsificationError.  Bounds
    below 1 would leave the grid vacuous and raise ValueError before any
    work starts.
    """
    if ram_bound < 1 or ord_bound < 1:
        raise ValueError(f"certificate bounds must be >= 1, got ram_bound="
                         f"{ram_bound}, ord_bound={ord_bound}")
    members = tuple(WitnessRecord(r, _canonical_twist(raw), dim)
                    for r, raw, dim in _witnesses(module, p))
    claimed = {w.slope for w in members}

    # An exhaustion failure replays on the same grid.
    bounds = ("" if (ram_bound, ord_bound) == (DEFAULT_RAM_BOUND, DEFAULT_ORD_BOUND)
              else f" --ram-bound {ram_bound} --ord-bound {ord_bound}")
    records, index = _exhaustion_records(ram_bound, ord_bound)
    missed = [r for r in {s / p for s in slopes(module)} - claimed if r in index]
    if missed:  # the walk and slopes() drifted apart: name the least r's twist
        r = min(missed)
        f = next(f for f in module.factors if f.slope == r * p)
        twist = _canonical_twist(_raw_witness(f, p))
        raise FalsificationError(
            f"slope {r} was predicted absent (p={p}) but twist "
            f"{_expr(twist)} gives nearby-cycle dimension "
            f"{psi_dim_twisted(module, twist, p)}; {_replay(module, p)}{bounds}")
    nonmembers, start = [], 0
    for i in sorted(index[r] for r in claimed if r in index):
        nonmembers += records[start:i]
        start = i + 1
    nonmembers += records[start:]
    return NearbyCertificate(p, ram_bound, ord_bound, members, tuple(nonmembers))


@lru_cache(maxsize=8)
def _exhaustion_records(ram_bound: int, ord_bound: int):
    # The grid of a bound pair as immutable records in increasing slope
    # order, with each slope's index: a certificate looks up only its few
    # claimed and present slopes and takes the rest by position.
    records = tuple(ExhaustionRecord(r, count)
                    for r, count in exhaustion_grid(ram_bound, ord_bound).items())
    return records, {rec.slope: i for i, rec in enumerate(records)}
