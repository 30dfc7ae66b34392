"""Combinatorial blow-up simulator with total-transform multiplicity tracking.

A state holds the components of the ambient configuration (strict transforms
of the initial coordinate divisors plus the accumulated exceptional
components) together with their multiplicities in the pullbacks of the
function divisor Z and of the weighted divisor S.  Blow-ups only ever append
an exceptional component; existing multiplicities never change.

Every step is an incidence vector w over the current components, and one
rule gives the new component P its multiplicities vZ(P) = sum_C w(C) vZ(C)
and vS(P) = sum_C w(C) vS(C).  The two modes differ only in how w is given:

* toric: the center is a cone of the current (smooth, simplicial) fan, w is
  1 on its members and 0 elsewhere, and the new ray is the sum of the
  center's primitive generators.  The linearity of the toric valuation
  pairing is cross-checked against the recursion on every step.
* abstract: w is supplied directly (alpha per strict-Z component in N, eps
  in {0,1} elsewhere), which reproduces the bookkeeping without any fan
  geometry.

The key inequality vS(E) <= deg(S) * vZ(E) is asserted on every step via the
three-line estimate that drives the induction; a violation raises
FalsificationError and is surfaced loudly, never silently.  Each component is
also its row of the inequality report, its bound and margin derived from vZ,
vS and deg S.  Rows never change, so one check of the final rows is the check
after every step.  Every check compares integers: S's multiplicities times
den > 0, the lcm of its r_i's denominators; values print as reduced Fractions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from slopelab.errors import (FalsificationError, ScriptError, json_field, json_int,
                             json_list, json_rat)


class ComponentKind(Enum):
    STRICT_Z = "strict-Z"
    STRICT_S = "strict-S"
    EXCEPTIONAL = "exceptional"


@dataclass(frozen=True, eq=False)
class Component:
    """A divisor component with its multiplicities in the two pullbacks.

    Strict components keep their initial multiplicities forever; exceptional
    components get theirs from the recursion at creation time.  A strict-Z
    component may also carry a positive S-multiplicity (Z and S can share
    components).  A component is its own row of the inequality report, with
    bound = deg(S) * vZ and margin = bound - vS; only rows over Z are checked.
    They are derived from nS = den * vS and ndeg = den * deg(S), integers over
    S's common denominator den, and read as Fractions; so are == and hash.
    """

    id: str
    kind: ComponentKind
    ray: Optional[tuple[int, ...]]
    vZ: int
    nS: int
    ndeg: int
    den: int

    @property
    def checked(self) -> bool:
        return self.vZ > 0

    @property
    def vS(self) -> Fraction:
        return Fraction(self.nS, self.den)

    @property
    def bound(self) -> Fraction:
        return Fraction(self.ndeg * self.vZ, self.den)

    @property
    def margin(self) -> Fraction:
        return Fraction(self.ndeg * self.vZ - self.nS, self.den)

    def _values(self) -> tuple:
        return self.id, self.kind, self.ray, self.vZ, self.vS, self.bound

    def __eq__(self, other):
        return isinstance(other, Component) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


@dataclass(frozen=True)
class Fan:
    """A simplicial fan: primitive rays plus its maximal cones (ray-index sets)."""

    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[frozenset[int], ...]

    def is_cone(self, indices: frozenset[int]) -> bool:
        return any(indices <= cone for cone in self.max_cones)

    def star_subdivide(self, indices: frozenset[int]) -> tuple["Fan", tuple[int, ...]]:
        new_ray = tuple(sum(col) for col in zip(*(self.rays[i] for i in indices)))
        if gcd(*new_ray) != 1:
            raise FalsificationError(
                f"star subdivision produced a non-primitive ray {new_ray}; "
                f"the fan is no longer smooth")
        new_index = len(self.rays)
        cones: list[frozenset[int]] = []
        for cone in self.max_cones:
            if indices <= cone:
                for drop in indices:
                    cones.append((cone - {drop}) | {new_index})
            else:
                cones.append(cone)
        return Fan(self.rays + (new_ray,), tuple(cones)), new_ray


@dataclass(frozen=True)
class BlowupState:
    """Immutable snapshot of a blow-up chain.  Its rows are the only copy of
    Z and S; its mode is "toric" when it has a fan, else "abstract"."""

    dim: int
    components: tuple[Component, ...]
    fan: Optional[Fan]

    @property
    def mode(self) -> str:
        return "abstract" if self.fan is None else "toric"

    @property
    def steps_applied(self) -> int:
        return len(self.components) - self.dim

    def by_kind(self, kind: ComponentKind) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.kind == kind)


@dataclass(frozen=True)
class BlowupStep:
    """A single blow-up: a toric center (component ids spanning a fan cone)
    or explicit abstract incidences."""

    center: Optional[tuple[str, ...]] = None
    alpha: Optional[tuple[int, ...]] = None
    epsS: Optional[tuple[int, ...]] = None
    epsE: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class InequalityReport:
    """A state's rows and the ids of those over Z above their bound."""

    rows: tuple[Component, ...]
    violations: tuple[str, ...]

    @property
    def degS(self) -> Fraction:
        return Fraction(self.rows[0].ndeg, self.rows[0].den)

    @property
    def ok(self) -> bool:
        return not self.violations


def initial_state(dim: int, z_mult: Sequence[int], s_mult: Sequence,
                  mode: str = "toric") -> BlowupState:
    """Starting configuration: the coordinate hyperplanes D1..Dn carrying the
    Z-multiplicities a_i and S-multiplicities r_i."""
    if mode not in ("toric", "abstract"):
        raise ScriptError(f"mode must be 'toric' or 'abstract', got {mode!r}")
    if dim < 1:
        raise ScriptError(f"dimension must be >= 1, got {dim}")
    if len(z_mult) != dim or len(s_mult) != dim:
        raise ScriptError("Z and S multiplicity vectors must have length dim")
    a = [int(v) for v in z_mult]
    r = [Fraction(v) for v in s_mult]
    if any(v < 0 for v in a) or any(v < 0 for v in r):
        raise ScriptError("multiplicities must be nonnegative")
    if not any(a):
        raise ScriptError("Z must be a nonempty divisor (some a_i > 0)")
    den = lcm(*(v.denominator for v in r))
    s_num = [v.numerator * (den // v.denominator) for v in r]
    ndeg = sum(s_num)
    toric = mode == "toric"
    rays = [tuple(1 if j == i else 0 for j in range(dim)) if toric else None
            for i in range(dim)]
    comps = tuple(
        Component(f"D{i + 1}", ComponentKind.STRICT_Z if a[i] > 0 else ComponentKind.STRICT_S,
                  rays[i], a[i], s_num[i], ndeg, den)
        for i in range(dim))
    fan = Fan(tuple(rays), (frozenset(range(dim)),)) if toric else None
    return BlowupState(dim, comps, fan)


# ---------------------------------------------------------------------------
# The update rule.
# ---------------------------------------------------------------------------

def _check_induction_chain(ndeg: int, den: int, weighted_alpha: int,
                           s_incidence: int, eps_vZ: int, eps_vS: int) -> None:
    # The three-line estimate behind the induction, asserted verbatim times den:
    #   degS*(sum a_i alpha_i + sum eps_E vZ(E)) >= degS + degS*sum eps_E vZ(E)
    #                                            >= sum r_j eps_j + degS*sum eps_E vZ(E)
    #                                            >= sum r_j eps_j + sum eps_E vS(E)
    lhs = ndeg * (weighted_alpha + eps_vZ)
    mid1 = ndeg + ndeg * eps_vZ
    mid2 = s_incidence + ndeg * eps_vZ
    rhs = s_incidence + eps_vS
    if not (lhs >= mid1 >= mid2 >= rhs):
        terms = " >= ".join(str(Fraction(t, den)) for t in (lhs, mid1, mid2, rhs))
        raise FalsificationError(f"induction chain failed: {terms} "
                                 f"(degS={Fraction(ndeg, den)})")


def _center_incidence(state: BlowupState, ids: Sequence[str]) -> list[int]:
    # A toric center meets exactly its members, each once.
    if len(set(ids)) != len(ids) or not ids:
        raise ScriptError("toric center must be a nonempty set of distinct ids")
    weights = [0] * len(state.components)
    index = {c.id: i for i, c in enumerate(state.components)}
    for cid in ids:
        if cid not in index:
            raise ScriptError(f"unknown component id {cid!r}")
        weights[index[cid]] = 1
    return weights


def _abstract_incidence(state: BlowupState, step: BlowupStep) -> list[int]:
    # The script lists the incidences kind by kind; spread them back over
    # the components in order: the dim strict ones (Z or S), then the
    # exceptional ones.  Missing eps lists default to zeros.
    over_z = [c.kind is ComponentKind.STRICT_Z for c in state.components[:state.dim]]
    n_z = sum(over_z)
    n_s, n_e = state.dim - n_z, state.steps_applied
    alpha = tuple(step.alpha or ())
    epsS = step.epsS if step.epsS is not None else (0,) * n_s
    epsE = step.epsE if step.epsE is not None else (0,) * n_e
    for name, given, count, what in (
            ("alpha", alpha, n_z, "one incidence per strict-Z"),
            ("epsS", epsS, n_s, "one flag per strict-S"),
            ("epsE", epsE, n_e, "one flag per exceptional")):
        if len(given) != count:
            raise ScriptError(
                f"{name} must list {what} component "
                f"({count} expected, {len(given)} given)")
    if any(a < 0 for a in alpha):
        raise ScriptError("alpha incidences must be nonnegative integers")
    if any(e not in (0, 1) for e in epsS) or any(e not in (0, 1) for e in epsE):
        raise ScriptError("eps incidences must lie in {0, 1}")
    alphas, flags = iter(alpha), iter(epsS)
    return [next(alphas) if z else next(flags) for z in over_z] + list(epsE)


def blow_up(state: BlowupState, step: BlowupStep) -> BlowupState:
    """Apply one admissible blow-up and return the new state.

    Every step is an incidence vector w over the current components: a
    toric center is 1 on its members and 0 elsewhere; an abstract step
    spreads its alpha (strict-Z), epsS (strict-S) and epsE (exceptional)
    lists over the components of each kind.  One rule then appends the
    exceptional component P with vZ(P) = sum_C w(C) vZ(C) and
    vS(P) = sum_C w(C) vS(C), which is sum a_i alpha_i + sum eps_E vZ(E)
    and sum r_j eps_j + sum eps_E vS(E) because strict-S components have
    vZ = 0.  Every existing multiplicity is untouched.  Rejects
    inadmissible centers with a ScriptError naming the violated condition.
    """
    toric = state.fan is not None
    if toric != (step.center is not None):
        raise ScriptError("toric states need steps with a 'center'" if toric
                          else "abstract states need alpha/epsS/epsE steps")
    weights = (_center_incidence(state, step.center) if toric
               else _abstract_incidence(state, step))
    met = [(c, w) for c, w in zip(state.components, weights) if w]

    # (i): the center must lie in the strict transform of Z.
    if not any(c.kind is ComponentKind.STRICT_Z for c, _ in met):
        raise ScriptError(
            "inadmissible center: it misses the strict transform of Z "
            "(condition (i): no alpha_i > 0)")
    # Only an alpha can exceed 1, and a strict-Z component that also
    # carries S must be met at most once.
    for c, w in met:
        if w > 1 and c.nS > 0:
            raise ScriptError(
                f"component {c.id} also carries S: its incidence must be "
                f"0 or 1, got {w}")

    # The weighted sums (S's times den), split for the chain at the
    # exceptional components, which follow the dim strict ones D1..Dn.
    d, ndeg, den = state.dim, state.components[0].ndeg, state.components[0].den
    wZ = [w * c.vZ for c, w in zip(state.components, weights)]
    wS = [w * c.nS for c, w in zip(state.components, weights)]
    weighted_alpha, eps_vZ = sum(wZ[:d]), sum(wZ[d:])
    s_incidence, eps_vS = sum(wS[:d]), sum(wS[d:])
    vZ_new, vS_new = weighted_alpha + eps_vZ, s_incidence + eps_vS

    fan, new_ray = state.fan, None
    if toric:
        indices = frozenset(i for i, w in enumerate(weights) if w)
        # (ii): nowhere dense in it, i.e. never a whole strict-Z component.
        if len(indices) == 1:
            raise ScriptError(
                "inadmissible center: equal to a strict-Z component "
                "(condition (ii): nowhere dense)")
        # (iii): normal crossing, encoded as membership in the current fan.
        if not fan.is_cone(indices):
            raise ScriptError(
                "inadmissible center: the rays do not span a cone of the "
                "current fan (condition (iii))")
        fan, new_ray = fan.star_subdivide(indices)
        # Valuation linearity: the new ray's multiplicities must equal the
        # pairing of the ray with the original multiplicities (D1..Dn's).
        pair_z = sum(n * c.vZ for n, c in zip(new_ray, state.components))
        pair_s = sum(n * c.nS for n, c in zip(new_ray, state.components))
        if pair_z != vZ_new or pair_s != vS_new:
            raise FalsificationError(
                f"toric valuation pairing disagrees with the recursion: "
                f"ray {new_ray} gives ({pair_z}, {Fraction(pair_s, den)}), "
                f"recursion gives ({vZ_new}, {Fraction(vS_new, den)})")

    _check_induction_chain(ndeg, den, weighted_alpha, s_incidence, eps_vZ, eps_vS)

    new_comp = Component(f"E{state.steps_applied + 1}", ComponentKind.EXCEPTIONAL,
                         new_ray, vZ_new, vS_new, ndeg, den)
    return BlowupState(state.dim, state.components + (new_comp,), fan)


def verify_inequality(state: BlowupState) -> InequalityReport:
    """Check vS(E) <= deg(S) * vZ(E) on every component over Z.

    The rows are the components themselves.  Components with vZ = 0 are
    reported but not checked (they do not lie over the zero locus).  The
    check reads each row's own margin, in integers times den, not the
    induction estimate that blow_up asserted; any violation would falsify
    the engine's bookkeeping and is listed explicitly.
    """
    return InequalityReport(state.components,
                            tuple(c.id for c in state.components
                                  if c.vZ > 0 and c.ndeg * c.vZ < c.nS))


# ---------------------------------------------------------------------------
# Scripts.
# ---------------------------------------------------------------------------

def step_from_dict(data: Mapping, mode: str) -> BlowupStep:
    if not isinstance(data, Mapping):
        raise ScriptError(f"a step must be a JSON object, got {data!r}")
    try:
        if mode == "toric":
            if "center" not in data:
                raise ScriptError("toric step needs a 'center' list of ids")
            center = tuple(json_list(data["center"], "'center'"))
            for cid in center:
                if not isinstance(cid, str):
                    raise TypeError(f"'center' entry must be a component id "
                                    f"string, got {json.dumps(cid)}")
            return BlowupStep(center=center)
        ints = {key: tuple(json_int(v, f"'{key}' entry")
                           for v in json_list(data[key], f"'{key}'"))
                for key in ("alpha", "epsS", "epsE") if key in data}
        return BlowupStep(alpha=ints.get("alpha", ()), epsS=ints.get("epsS"),
                          epsE=ints.get("epsE"))
    except (TypeError, ValueError) as exc:
        raise ScriptError(f"malformed step: {exc}")


def replay(script: Mapping) -> BlowupState:
    """Parse a script dictionary and fold its steps into the final state;
    deterministic.

    Step rejections are re-raised with the 1-based step index attached.
    The state after step i is the final state's first dim + i components.
    """
    try:
        dim = json_int(json_field(script, "dim", "the script"), "'dim'")
        mode = str(script.get("mode", "toric"))
        z = json_field(script, "Z", "the script")
        z_mult = [json_int(v, "'Z.a' entry")
                  for v in json_list(json_field(z, "a", "'Z'"), "'Z.a'")]
        s = json_field(script, "S", "the script")
        s_mult = [json_rat(v, "'S.r' entry")
                  for v in json_list(json_field(s, "r", "'S'"), "'S.r'")]
        raw_steps = script.get("steps", ())
    except (TypeError, ValueError) as exc:
        raise ScriptError(f"malformed script: {exc}")
    if not isinstance(raw_steps, (list, tuple)):
        raise ScriptError(f"malformed script: 'steps' must be a list, "
                          f"got {raw_steps!r}")
    state = initial_state(dim, z_mult, s_mult, mode)
    for idx, raw in enumerate(raw_steps, start=1):
        try:
            state = blow_up(state, step_from_dict(raw, mode))
        except ScriptError as exc:
            raise ScriptError(str(exc), step=idx) from exc
    return state


def load_script(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def report_to_dict(report: InequalityReport) -> dict:
    return {
        "schema": "1",
        "degS": str(report.degS),
        "ok": report.ok,
        "violations": list(report.violations),
        "components": [
            {"id": row.id, "kind": row.kind.value,
             "ray": list(row.ray) if row.ray is not None else None,
             "vZ": row.vZ, "vS": str(row.vS), "bound": str(row.bound),
             "margin": str(row.margin), "checked": row.checked}
            for row in report.rows
        ],
    }


def report_to_text(report: InequalityReport) -> str:
    lines = [f"deg S = {report.degS}",
             f"{'id':<5} {'kind':<12} {'ray':<14} {'vZ':>4} {'vS':>8} "
             f"{'bound':>8} {'margin':>8}"]
    for row in report.rows:
        ray = "" if row.ray is None else "(" + ",".join(map(str, row.ray)) + ")"
        mark = "" if row.checked else "  (not over Z)"
        lines.append(f"{row.id:<5} {row.kind.value:<12} {ray:<14} {row.vZ:>4} "
                     f"{str(row.vS):>8} {str(row.bound):>8} "
                     f"{str(row.margin):>8}{mark}")
    lines.append("inequality: " + ("OK" if report.ok else
                                   "VIOLATED at " + ", ".join(report.violations)))
    return "\n".join(lines)
