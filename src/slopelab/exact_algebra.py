"""Exact scalar arithmetic shared by the whole engine.

Everything here is exact: rationals are `fractions.Fraction`, cyclotomic
numbers are stored in the power basis of a primitive root of unity reduced
modulo the cyclotomic polynomial, and ramified principal parts are finite
Laurent tails with cyclotomic coefficients.  No floating point enters
anywhere.

Canonical forms are load-bearing: module isomorphism tests downstream reduce
to structural equality of these values, so every constructor normalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] * (n > 1)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and dense polynomial helpers over the rationals.
# Polynomials are tuples/lists of coefficients, ascending degree.
# ---------------------------------------------------------------------------

def _int_poly_div(num: list[int], den: Sequence[int]) -> list[int]:
    # Exact division of integer polynomials; den is monic.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n < 1:
        raise ValueError(f"cyclotomic polynomial needs n >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n)[:-1]:
        poly = _int_poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_cyclotomic(coeffs: list[Fraction], order: int) -> tuple[Fraction, ...]:
    # Reduce a dense polynomial in zeta_order modulo Phi_order.
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    res = list(coeffs)
    for i in range(len(res) - 1, deg - 1, -1):
        c = res[i]
        if c:
            res[i] = Fraction(0)
            for j in range(deg):
                if phi[j]:
                    res[i - deg + j] -= c * phi[j]
    res = res[:deg] + [Fraction(0)] * (deg - len(res))
    return tuple(res[:deg])


@lru_cache(maxsize=None)
def _zeta_power_coords(order: int, e: int) -> tuple[Fraction, ...]:
    # Canonical coords of zeta_order**e in the power basis (e taken mod order).
    e %= order
    deg = euler_phi(order)
    if e < deg:
        return tuple(Fraction(1) if i == e else Fraction(0) for i in range(deg))
    coeffs = [Fraction(0)] * e + [Fraction(1)]
    return _reduce_mod_cyclotomic(coeffs, order)


def _map_powers(order: int, coords: Sequence[Fraction], k: int) -> tuple[Fraction, ...]:
    # Coords in the order-`order` field of sum_i coords[i] * zeta_order**(i*k).
    # With k = order/d this embeds an element of Q(zeta_d); with k a unit mod
    # `order` it applies sigma_k, as CycloRat.galois does.  Either way k = 1
    # means coords already live in the order-`order` field: the identity.
    if k == 1:
        return tuple(coords)
    deg = euler_phi(order)
    acc = [Fraction(0)] * deg
    for i, c in enumerate(coords):
        if c:
            for j, b in enumerate(_zeta_power_coords(order, (i * k) % order)):
                if b:
                    acc[j] += c * b
    return tuple(acc)


def _demote(order: int, coords: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    """Smallest d | order with the element inside Q(zeta_d), plus its coords
    there in the power basis of zeta_d = zeta_order**(order/d).

    The search descends one prime at a time, from Q(zeta_n) to Q(zeta_{n/p})
    with zeta_{n/p} = zeta_n**p, for as long as the element allows:

    * p**2 | n: Phi_n(x) = Phi_{n/p}(x**p), so the element lies in
      Q(zeta_{n/p}) iff every coordinate at an index prime to p is zero,
      and its coordinates there are coords[::p].
    * n = p*m with p prime to m: zeta_n**i = zeta_p**a * zeta_m**b with
      a = i/m mod p and b = i/p mod m.  Sorting the coordinates by a gives
      y_0 .. y_{p-1} in Q[zeta_m], and the element is
      sum_{a < p-1} (y_a - y_{p-1}) * zeta_p**a, where 1 .. zeta_p**(p-2)
      is a basis over Q(zeta_m).  So it lies in Q(zeta_m) iff every
      y_a - y_{p-1} with a >= 1 vanishes modulo Phi_m, and its coordinates
      there are y_0 - y_{p-1} reduced modulo Phi_m.  For p = 2 this always
      succeeds, so the result is never 2 (mod 4).

    One pass over the primes reaches the least field: Q(zeta_a) and Q(zeta_b)
    meet in Q(zeta_gcd(a, b)), so a prime that cannot descend at n cannot
    descend at any divisor of n either.
    """
    if order == 1:
        return 1, coords
    if all(c == 0 for c in coords[1:]):
        return 1, (coords[0],)
    return _demote_cached(order, coords)


@lru_cache(maxsize=262144)
def _demote_cached(order: int, coords: tuple[Fraction, ...]):
    for p in _prime_factors(order):
        while order % p == 0:
            m = order // p
            if m % p == 0:
                if any(c for i, c in enumerate(coords) if i % p):
                    break
                coords = coords[::p]
            else:
                m_inv, p_inv = pow(m, -1, p), pow(p, -1, m)
                y = [[Fraction(0)] * m for _ in range(p)]
                for i, c in enumerate(coords):
                    if c:
                        y[i * m_inv % p][i * p_inv % m] += c
                diffs = [_reduce_mod_cyclotomic([s - t for s, t in zip(ya, y[-1])], m)
                         for ya in y[:-1]]
                if any(any(diff) for diff in diffs[1:]):
                    break
                coords = diffs[0]
            order = m
    return order, coords


def hash_once(self) -> int:
    """The hash of the constructor arguments that __reduce__ rebuilds the
    value from, computed on the first call and kept in the `_hash` slot or
    attribute: canonical values are cache keys and are hashed again on
    every lookup."""
    try:
        return self._hash
    except AttributeError:
        h = hash(self.__reduce__()[1])
        object.__setattr__(self, "_hash", h)
        return h


class CycloRat:
    """An exact element of a cyclotomic number field.

    Stored as (order, coords): coords has length phi(order) and gives the
    element in the power basis of a primitive order-th root of unity, reduced
    modulo the cyclotomic polynomial.  Values are always demoted to the
    smallest cyclotomic subfield containing them, so equality, hashing and
    the total sort order are structural.  Instances are immutable, so the
    hash is computed on the first call and kept in a slot: values serve as
    cache keys and are hashed again on every lookup.
    """

    __slots__ = ("order", "coords", "_hash")

    def __init__(self, order: int, coords: Iterable[Fraction | int], *,
                 _canonical: bool = False):
        if not _canonical:
            coords = tuple(Fraction(c) for c in coords)
            if order < 1:
                raise ValueError(f"field order must be >= 1, got {order}")
            deg = euler_phi(order)
            if len(coords) > deg:
                coords = _reduce_mod_cyclotomic(list(coords), order)
            elif len(coords) < deg:
                coords = coords + (Fraction(0),) * (deg - len(coords))
            order, coords = _demote(order, coords)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("CycloRat is immutable")

    def __reduce__(self):
        # Rebuild through the normalizing constructor; the hash is not carried.
        return CycloRat, (self.order, self.coords)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "CycloRat":
        return cls(1, (Fraction(value),), _canonical=True)

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> "CycloRat":
        """zeta(n)**power, a primitive n-th root of unity raised to `power`.

        The result is stored in Q(zeta(d)) for the conductor
        d = n/gcd(n, power), or as minus a power of zeta(d/2) in
        Q(zeta(d/2)) when d = 2 (mod 4); see `_zeta_pow`.
        """
        if n < 1:
            raise ValueError(f"root-of-unity order must be >= 1, got {n}")
        return _zeta_pow(n, power % n)

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycloRat | None":
        if isinstance(value, CycloRat):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloRat.from_rational(value)
        return None

    # -- predicates & views --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.order == 1 and self.coords[0] == 0

    def sort_key(self):
        """Fixed total order: by field order, then coordinatewise."""
        return (self.order, self.coords)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return CycloRat(1, (self.coords[0] + other.coords[0],), _canonical=True)
        if other.order == 1:
            # Adding a rational never leaves (or shrinks into) the subfield
            # unless the result collapses entirely; only coords[0] can tell.
            coords = (self.coords[0] + other.coords[0],) + self.coords[1:]
            return CycloRat(self.order, coords, _canonical=True)
        if self.order == 1:
            return other + self
        order = lcm(self.order, other.order)
        coords = tuple(a + b for a, b in zip(
            _map_powers(order, self.coords, order // self.order),
            _map_powers(order, other.coords, order // other.order)))
        order, coords = _demote(order, coords)
        return CycloRat(order, coords, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return CycloRat(self.order, tuple(-c for c in self.coords), _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.order == 1:
            r = other.coords[0]
            if r == 0:
                return _ZERO
            if self.order == 1:
                return CycloRat(1, (self.coords[0] * r,), _canonical=True)
            # Scaling by a nonzero rational preserves the minimal subfield.
            return CycloRat(self.order, tuple(c * r for c in self.coords),
                            _canonical=True)
        if self.order == 1:
            return other * self
        order = lcm(self.order, other.order)
        a = _map_powers(order, self.coords, order // self.order)
        b = _map_powers(order, other.coords, order // other.order)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        coords = _reduce_mod_cyclotomic(prod, order)
        order, coords = _demote(order, coords)
        return CycloRat(order, coords, _canonical=True)

    __rmul__ = __mul__

    def inverse(self) -> "CycloRat":
        """1/self = others/norm: `others` is the product of the Galois
        conjugates sigma_k(self) for the units k != 1 mod the order, and
        the norm self*others is a nonzero rational."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.order
        others = reduce(mul, (self.galois(k) for k in range(2, n) if gcd(k, n) == 1), _ONE)
        return others * (1 / (self * others).coords[0])

    def galois(self, k: int) -> "CycloRat":
        """sigma_k(self), which sends zeta(order) to zeta(order)**k, for a
        unit k mod the order.  A conjugate generates the same field as self,
        so it is canonical as built.  A non-unit k is refused: the same power
        map would embed a subfield instead."""
        n = self.order
        if gcd(k, n) != 1:
            raise ValueError(f"sigma_k needs a unit k mod {n}, got {k}")
        return CycloRat(n, _map_powers(n, self.coords, k % n), _canonical=True)

    # -- comparison & hashing -------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.order == other.order and self.coords == other.coords

    __hash__ = hash_once

    # -- rendering -------------------------------------------------------------

    def __str__(self):
        if self.order == 1:
            return str(self.coords[0])
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                atom = f"zeta({self.order})" if i == 1 else f"zeta({self.order})^{i}"
                body = atom if abs(c) == 1 else f"{abs(c)}*{atom}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"CycloRat({self})"


@lru_cache(maxsize=None)
def _zeta_pow(n: int, e: int) -> CycloRat:
    """zeta(n)**e in canonical form, read off in closed form.

    With g = gcd(n, e), the value is the primitive d-th root zeta(d)**k for
    d = n/g and k = e/g.  A field Q(zeta(d')) holds it only if d divides d'
    or d = 2 (mod 4) and d/2 divides d'.  So unless d = 2 (mod 4), d is the
    order it demotes to and its power-basis coordinates there are canonical
    as they stand.  When d = 2 (mod 4), m = d/2 is odd,
    Q(zeta(d)) = Q(zeta(m)), and zeta(d)**k = -zeta(m)**(k*(m+1)/2 mod m),
    because zeta(d)**m = -1 and (m+1)/2 inverts 2 modulo m.  No demotion
    runs on this path.
    """
    e %= n
    g = gcd(n, e)
    d, k = n // g, e // g
    if d % 4 == 2:
        m = d // 2
        coords = _zeta_power_coords(m, k * (m + 1) // 2)
        return CycloRat(m, tuple(-c for c in coords), _canonical=True)
    return CycloRat(d, _zeta_power_coords(d, k), _canonical=True)


def _monomial(c: CycloRat) -> Optional[tuple[Fraction, int, int]]:
    """(x, m, e) with c = x * zeta(m)**e and x a positive rational, when c
    has a single nonzero coordinate x, at index e of its own field's power
    basis (m = 1 and e = 0 for a rational c); None otherwise.  A negative x
    is folded into the root: -zeta(m)**e = zeta(2m)**(2e + m)."""
    nonzero = [i for i, a in enumerate(c.coords) if a]
    if len(nonzero) != 1:
        return None
    x, e = c.coords[nonzero[0]], nonzero[0]
    return (x, c.order, e) if x > 0 else (-x, 2 * c.order, 2 * e + c.order)


def least_rotation(c: CycloRat, ram: int, residues: Iterable[int]) -> int:
    """The residue r in `residues` that minimizes (c * zeta_ram^r).sort_key().

    A sort key leads with the order of the least field, so every residue
    gets that order first, in integers, and only the residues that tie on
    the least order are compared further; a lone one is not.

    A monomial coefficient c = x * zeta_m^e, x a positive rational, is
    compared without the product: c * zeta_ram^r = x * zeta_M^t with
    M = lcm(m, ram) and t = e*M/m + r*M/ram (mod M).  Scaling by x > 0
    keeps the least field and the order of the coordinates, so the
    residues compare as the keys of zeta_M^t do, read in closed form: the
    order from gcd(M, t) and the 2 (mod 4) fold for every residue, then,
    for the ties only, at most phi(rad n) nonzero coordinates (_root_key).
    Distinct r give distinct t mod M, hence distinct roots and no ties
    among the keys.  Only rational c and c with one nonzero coordinate are
    read as monomials (see _monomial).  No coordinates are built for the
    orbit; the caller builds the winner.

    Any other c, of least order m, gets the order of each
    x_t = c * zeta_M^t, t = r*M/ram, from Galois logs in integers
    (_orbit_orders).  The descent from Q(zeta_n) to Q(zeta_q), q = n/p,
    runs as _demote's does.  For p = 2 and q odd the two fields are one.
    If m does not divide lcm(q, ram), no x_t lies in Q(zeta_q), because
    c = x_t * zeta_ram^-r would then lie in Q(zeta_lcm(q, ram)); so that
    prime stops with no field work.  Otherwise Gal(Q(zeta_n)/Q(zeta_q)) is
    cyclic, generated by sigma_a for a unit a = 1 (mod q), and x_t,
    already in Q(zeta_n), lies in Q(zeta_q) iff sigma_a fixes it:
    sigma_a(c) = c * zeta_M^(t(1-a)).  As q | 1 - a, that root lies in
    mu_(M/q), so one log lam of sigma_a(c) against c modulo M/q (root_log,
    no division) decides every residue: x_t descends iff
    lam = t(1-a)/q (mod M/q).  The ties are built as products.  A root of
    unity spread over many coordinates, such as zeta(2003)^2002, takes
    this route too: its orbit mostly stays in large fields, so only the
    few residues in its own field are built.
    """
    mono = _monomial(c)
    if mono is None:
        orders = _orbit_orders(c, ram, residues)
        key = lambda r: (c * _zeta_pow(ram, r)).sort_key()
    else:
        _, m, e = mono
        M = lcm(m, ram)
        start, step = e * (M // m), M // ram
        orders = {}
        for r in residues:  # the order zeta_M^t is stored in, as in _zeta_pow
            d = M // gcd(M, start + r * step)
            orders[r] = d // 2 if d % 4 == 2 else d
        key = lambda r: _root_key(M, (start + r * step) % M)
    least = min(orders.values())
    ties = [r for r, n in orders.items() if n == least]
    return ties[0] if len(ties) == 1 else min(ties, key=key)


@lru_cache(maxsize=1024)
def _root_key(M: int, t: int) -> tuple:
    """A key that orders the roots zeta_M^t exactly as
    _zeta_pow(M, t).sort_key() does, built in integers from at most
    phi(rad n) coordinates, n the order of the root's field.

    As in _zeta_pow, the root is sign * zeta_n^j: with g = gcd(M, t),
    d = M/g and k = t/g, it is zeta_d^k, or -zeta_n^(k(n+1)/2) with
    n = d/2 when d = 2 (mod 4).  For j < phi(n) its coordinates are
    sign * e_j.  Otherwise let r = rad(n) and s = n/r.  Then
    Phi_n(x) = Phi_r(x^s) and phi(n) = s*phi(r), so with j = s*q + u,
    u < s, x^j = x^u * y^q for y = x^s, and its coordinates are those of
    y^q modulo Phi_r, at the indices s*i + u (_cyclotomic_power).

    Two dense tuples of one length compare at their first differing index,
    where a missing sparse entry reads 0.  Keying the nonzero entries
    (i, a), ascending, as (0, i, a) for a < 0 and (2, -i, a) for a > 0,
    with (1,) for the zeros after the last one, makes the keys compare the
    same way.
    """
    g = gcd(M, t)
    d, k = M // g, t // g
    if d % 4 == 2:
        n = d // 2
        j, sign = k * (n + 1) // 2 % n, -1
    else:
        n, j, sign = d, k % d, 1
    primes = _prime_factors(n)
    r = prod(primes)
    s = n // r
    q, u = divmod(j, s)
    coords = (((j, sign),) if q < prod(p - 1 for p in primes) else
              [(s * i + u, sign * a) for i, a in _cyclotomic_power(r, q)])
    return n, (*[(0, i, a) if a < 0 else (2, -i, a) for i, a in coords], (1,))


@lru_cache(maxsize=256)
def _cyclotomic_power(r: int, q: int) -> tuple[tuple[int, int], ...]:
    # The nonzero coordinates (i, a) of y^q modulo Phi_r, ascending i; an
    # integer input stays in integers through the reduction.
    return tuple((i, a) for i, a in enumerate(_reduce_mod_cyclotomic([0] * q + [1], r)) if a)


def _orbit_orders(c: CycloRat, ram: int, residues: Iterable[int]) -> dict[int, int]:
    # The order of the least field of c * zeta_ram^r for each residue r,
    # with one Galois log per descent step (p, q), shared by the residues,
    # and no product (see least_rotation).
    m = c.order
    M = lcm(m, ram)
    primes = _prime_factors(M)
    steps: dict[tuple[int, int], tuple[int, Optional[int]]] = {}
    orders = {}
    for r in residues:
        t, n = r * (M // ram), M
        for p in primes:
            while n % p == 0:
                q = n // p
                if p == 2 and q % 2:
                    n = q
                    continue
                if lcm(q, ram) % m:
                    break
                if (p, q) not in steps:
                    a = _kernel_generator(p, q, M)
                    steps[p, q] = a, root_log(c, c.galois(a), M // q)
                a, lam = steps[p, q]
                if lam is None or (lam - t * (1 - a) // q) % (M // q):
                    break
                n = q
        orders[r] = n
    return orders


def _kernel_generator(p: int, q: int, M: int) -> int:
    # A unit a mod M, a = 1 (mod q), whose class generates the kernel of
    # (Z/pq)* -> (Z/q)*: 1 + q when p | q, else a primitive root mod p.
    a = 1 + q
    if q % p:
        g = next(g for g in range(2, p)
                 if all(pow(g, (p - 1) // f, p) != 1 for f in _prime_factors(p - 1)))
        a = 1 + q * ((g - 1) * pow(q, -1, p) % p)
    return next(b for b in range(a, M, p * q) if gcd(b, M) == 1)


def root_log(c: CycloRat, d: CycloRat, L: int) -> Optional[int]:
    """The e in [0, L) with c * zeta_L^e = d, or None if there is none.

    For monomials c = x * zeta_m^e0 and d = y * zeta_n^f (x, y > 0),
    K = lcm(m, n) and s = f*K/n - e0*K/m: d/c = (y/x) * zeta_K^s is a
    root of unity iff x == y, and zeta_K^s lies in mu_L iff K | s*L.
    Otherwise d/c lies in Q(zeta_N), N = lcm(c.order, d.order), whose
    roots of unity are mu_lcm(2, N).  So a zeta_L^e equal to d/c lies in
    mu_g, g = gcd(L, lcm(2, N)), and is zeta_g^t for e = t*L/g with t < g.
    """
    if c == d:
        return 0
    mono, other = _monomial(c), _monomial(d)
    if mono and other:
        (x, m, e0), (y, n, f) = mono, other
        K = lcm(m, n)
        s = (f * (K // n) - e0 * (K // m)) % K
        return s * L // K % L if x == y and s * L % K == 0 else None
    g = gcd(L, lcm(2, c.order, d.order))
    for t in range(1, g):
        if c * _zeta_pow(g, t) == d:
            return t * (L // g)
    return None


_ZERO = CycloRat(1, (Fraction(0),), _canonical=True)
_ONE = CycloRat(1, (Fraction(1),), _canonical=True)


# ---------------------------------------------------------------------------
# Ramified principal parts.
# ---------------------------------------------------------------------------

class RamifiedExponent:
    """A principal-part Laurent tail in a degree-`ram` root u of the base
    coordinate (u**ram = x).

    Only strictly negative powers of u are stored: nonnegative powers are
    dropped at construction, because every invariant computed from an
    exponential twist depends only on the polar part.  The pair
    (ram, exponent set) is reduced by d = gcd(ram, gcd of pole orders) so
    that canonical forms are unique; the zero tail is stored with ram = 1.
    Like `CycloRat`, instances are immutable and compute their hash once.
    """

    __slots__ = ("ram", "terms", "_hash")

    def __init__(self, ram: int, terms: Mapping[int, CycloRat] | Iterable[tuple[int, CycloRat]]):
        if ram < 1:
            raise ValueError(f"ramification index must be >= 1, got {ram}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[int, CycloRat] = {}
        for k, c in items:
            if k >= 0:
                continue  # holomorphic truncation
            c = CycloRat._coerce(c)
            if c is None:
                raise TypeError("coefficients must be CycloRat or rational")
            if k in merged:
                c = merged[k] + c
            if c.is_zero:
                merged.pop(k, None)
            else:
                merged[k] = c
        if not merged:
            ram = 1
        else:
            d = reduce(gcd, (abs(k) for k in merged), ram)
            if d > 1:
                ram //= d
                merged = {k // d: c for k, c in merged.items()}
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "terms",
                           tuple(sorted(merged.items(), key=lambda kv: kv[0])))

    def __setattr__(self, *_):
        raise AttributeError("RamifiedExponent is immutable")

    def __reduce__(self):
        return RamifiedExponent, (self.ram, self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def pole_order(self) -> int:
        """ord phi: minus the most negative stored exponent; 0 for the zero tail."""
        return -self.terms[0][0] if self.terms else 0

    def substitute_root(self, order: int, j: int, scale: int = 1) -> "RamifiedExponent":
        """phi(zeta(order)**j * u**scale) in canonical form.

        Each coefficient c_k picks up zeta(order)**(j*k), taken by exponent
        arithmetic (cheap and cached), and each exponent is multiplied by
        `scale`.
        """
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        return RamifiedExponent(
            self.ram,
            {k * scale: c * _zeta_pow(order, (j * k) % order)
             for k, c in self.terms})

    def sort_key(self):
        return tuple((k, c.sort_key()) for k, c in self.terms)

    def __eq__(self, other):
        if not isinstance(other, RamifiedExponent):
            return NotImplemented
        return self.ram == other.ram and self.terms == other.terms

    __hash__ = hash_once

    def __repr__(self):
        if self.is_zero:
            return "RamifiedExponent(1, 0)"
        body = " + ".join(f"({c})*u^{k}" for k, c in self.terms)
        return f"RamifiedExponent({self.ram}, {body})"


# ---------------------------------------------------------------------------
# Multi-indices.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndex:
    """A tuple of nonnegative integers, one entry per ambient coordinate."""

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int]):
        entries = tuple(map(int, entries))
        if min(entries, default=0) < 0:
            raise ValueError(f"multi-index entries must be >= 0, got {entries}")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices k with a nonzero entry."""
        return tuple(k for k, e in enumerate(self.entries) if e)

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def dot(self, weights: Sequence) -> object:
        if len(weights) != len(self.entries):
            raise ValueError("dimension mismatch in dot product")
        return sum(e * w for e, w in zip(self.entries, weights))
