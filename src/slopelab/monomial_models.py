"""Multivariate layer: monomial good formal structures on a normal-crossing
complement, their divisor of highest generic slopes, the sum bound and the
per-component vanishing threshold, and restriction to monomial curves as a
one-variable oracle.

Good models are inputs: the engine never computes a resolution of turning
points.  Nonvanishing is never asserted in the multivariate case; the engine
proves vanishing or answers Unknown, and separately reports dim-1 restriction
evidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from slopelab.elementary import FormalModule, RegularPart, make_elementary
from slopelab.errors import ScriptError, json_int
from slopelab.exact_algebra import MultiIndex


@dataclass(frozen=True)
class ModelFactor:
    """One summand E^(1/x^pole) (x^twist) (regular of rank `rank`).

    Unit coefficients are normalized away: every invariant computed here
    depends only on the pole divisor.  pole = 0 encodes a regular factor.
    """

    pole: MultiIndex
    twist: tuple[Fraction, ...]
    rank: int

    def __init__(self, pole: MultiIndex, twist: Iterable = (), rank: int = 1):
        if not isinstance(pole, MultiIndex):
            pole = MultiIndex(pole)
        twist = tuple(Fraction(t) for t in twist)
        if not twist:
            twist = (Fraction(0),) * len(pole)
        if len(twist) != len(pole):
            raise ValueError("twist and pole must have the same dimension")
        if rank < 1:
            raise ValueError(f"factor rank must be >= 1, got {rank}")
        object.__setattr__(self, "pole", pole)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "rank", rank)


@dataclass(frozen=True)
class GoodModel:
    """A monomial good formal structure in `dim` coordinates.

    The pole locus is the union of the coordinate hyperplanes x_i = 0 with
    pole_i > 0 for some factor (normal crossing by construction).
    """

    dim: int
    factors: tuple[ModelFactor, ...]

    def __init__(self, dim: int, factors: Iterable[ModelFactor]):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        factors = tuple(factors)
        for f in factors:
            if len(f.pole) != dim:
                raise ValueError("factor dimension does not match the model")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def pole_support(self) -> tuple[int, ...]:
        """Coordinates whose hyperplane carries a pole of some factor."""
        out = set()
        for f in self.factors:
            out.update(f.pole.support)
        return tuple(sorted(out))

    @property
    def is_regular(self) -> bool:
        return not self.pole_support


@dataclass(frozen=True)
class GenericSlopeDivisor:
    """Per-coordinate highest generic slopes r_i, with deg = sum r_i."""

    weights: tuple[Fraction, ...]

    @property
    def deg(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]


@dataclass(frozen=True)
class MonomialFunction:
    """f = x^a for a multi-index a with nonempty support."""

    exponents: MultiIndex

    def __init__(self, exponents):
        if not isinstance(exponents, MultiIndex):
            exponents = MultiIndex(exponents)
        if exponents.is_zero:
            raise ValueError("monomial function needs a nonempty support")
        object.__setattr__(self, "exponents", exponents)

    @property
    def support(self) -> tuple[int, ...]:
        return self.exponents.support

    def __str__(self) -> str:
        """The `-f` text of `slopelab bound`, e.g. x1*x3^2."""
        return "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(self.exponents.entries) if e)


class VanishingRule(Enum):
    """Which sufficient criterion certified the vanishing verdict."""

    DOMINATED_TWIST = "dominated-twist"      # pole strictly below the twist exponent
    SUPPORT_ABSORBED = "support-absorbed"    # function support inside the pole support


@dataclass(frozen=True)
class ThresholdResult:
    """Vanishing threshold along x^a, with applicability of its guarantee.

    `criterion_applicable` is True exactly when every component of div f lies
    in the pole locus; outside that domain the numeric threshold is still
    returned but its vanishing guarantee is not claimed.
    """

    value: Fraction
    criterion_applicable: bool


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------

def highest_generic_slopes(model: GoodModel) -> GenericSlopeDivisor:
    """Componentwise maximum of the factors' pole multi-indices."""
    weights = []
    for i in range(model.dim):
        weights.append(Fraction(max((f.pole[i] for f in model.factors), default=0)))
    return GenericSlopeDivisor(tuple(weights))


def nearby_slope_bound(model: GoodModel) -> Fraction:
    """Every nearby slope of the model is bounded by the sum of the
    per-component highest generic slopes."""
    return highest_generic_slopes(model).deg


def vanishing_threshold(model: GoodModel, f: MonomialFunction) -> ThresholdResult:
    """Minimal r with r_i <= r * a_i on the support of a: r = max r_i / a_i.

    Twists of slope above the threshold kill the nearby cycles along x^a,
    provided the div f components all lie in the pole locus (flagged in the
    result).
    """
    div = highest_generic_slopes(model)
    a = f.exponents
    value = max((div[i] / a[i] for i in a.support), default=Fraction(0))
    # The guarantee needs every component of div f inside the pole locus.
    applicable = set(a.support) <= set(model.pole_support)
    return ThresholdResult(Fraction(value), applicable)


def lemma_vanishing(pole_b: MultiIndex, pole_a: MultiIndex,
                    f: MonomialFunction) -> Optional[VanishingRule]:
    """Three-valued vanishing verdict for a factor with pole pair (b, a).

    The factor's exponent is read as (unit)/x^b + (unit)/x^a.  The verdict is
    a VanishingRule only when a sufficient criterion holds verbatim:

    * DOMINATED_TWIST: f's exponent equals the a-part, the support of a is
      nonempty, and b_i < a_i on all of it.
    * SUPPORT_ABSORBED: the b-part is absent and supp(f) is contained in the
      support of the pole a.

    Returns None (Unknown) otherwise; this operation never claims
    nonvanishing.
    """
    if len(pole_b) != len(pole_a) or len(pole_a) != len(f.exponents):
        raise ValueError("pole data and function must share one dimension")
    a_sup = pole_a.support
    if (a_sup and f.exponents == pole_a
            and all(pole_b[i] < pole_a[i] for i in a_sup)):
        return VanishingRule.DOMINATED_TWIST
    if pole_b.is_zero and f.support and set(f.support) <= set(a_sup):
        return VanishingRule.SUPPORT_ABSORBED
    return None


def curve_restriction(model: GoodModel, curve: MultiIndex,
                      f: MonomialFunction | None = None
                      ) -> tuple[FormalModule, Optional[int]]:
    """Restrict the model along the monomial curve x_i = t**curve_i.

    Each factor becomes El(1, t^-<pole, curve>, regular part) with regular
    exponent <twist, curve> mod 1; a regular factor restricts to a regular
    module of the same rank.  When `f` is supplied, also returns
    k = <a, curve>, the exponent with f(curve(t)) = t**k.
    """
    if not isinstance(curve, MultiIndex):
        curve = MultiIndex(curve)
    if len(curve) != model.dim:
        raise ValueError("curve dimension does not match the model")
    if any(c < 1 for c in curve):
        raise ValueError("curve exponents must all be >= 1")
    parts = []
    for fac in model.factors:
        depth = fac.pole.dot(curve.entries)
        exponent = sum(t * c for t, c in zip(fac.twist, curve.entries))
        reg = RegularPart({Fraction(exponent): fac.rank})
        parts.append(make_elementary(1, {-depth: 1} if depth else {}, reg))
    restricted = FormalModule.of(parts)
    k = f.exponents.dot(curve.entries) if f is not None else None
    return restricted, k


# ---------------------------------------------------------------------------
# Model files (JSON; rationals as "num/den" strings in lowest terms).
# ---------------------------------------------------------------------------

def _parse_rat(value, field: str) -> Fraction:
    """A rational field: a JSON integer or a "num/den" string.  A JSON
    boolean or float, which Fraction() would take, is refused naming the
    field."""
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ScriptError(f"{field} must be an integer or a rational string, "
                      f"got {json.dumps(value)}")


def format_rat(value: Fraction) -> str:
    return str(Fraction(value))


def model_from_dict(data: dict) -> GoodModel:
    try:
        dim = json_int(data["dim"], "'dim'")
        raw_factors = data["factors"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ScriptError(f"model file needs integer 'dim' and 'factors': {exc}")
    if not isinstance(raw_factors, (list, tuple)):
        raise ScriptError(f"model file needs a list of 'factors', got {raw_factors!r}")
    factors = []
    for idx, raw in enumerate(raw_factors):
        if not isinstance(raw, Mapping):
            raise ScriptError(f"factor {idx}: expected an object, got {raw!r}")
        try:
            pole = MultiIndex(json_int(e, f"factor {idx}: 'pole' entry")
                              for e in raw["pole"])
            twist = tuple(_parse_rat(t, f"factor {idx}: 'twist' entry")
                          for t in raw.get("twist", [0] * dim))
            rank = json_int(raw.get("rank", 1), f"factor {idx}: 'rank'")
        except (KeyError, TypeError, ValueError) as exc:
            raise ScriptError(f"factor {idx}: {exc}")
        factors.append(ModelFactor(pole, twist, rank))
    return GoodModel(dim, factors)


def model_to_dict(model: GoodModel) -> dict:
    return {
        "schema": "1",
        "dim": model.dim,
        "factors": [
            {"pole": list(f.pole.entries),
             "twist": [format_rat(t) for t in f.twist],
             "rank": f.rank}
            for f in model.factors
        ],
    }


def load_model(path: str) -> GoodModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: GoodModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
