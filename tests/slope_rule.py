"""The nearby-slope rule written out factor by factor, as a test oracle.

The slope walk reads each nearby slope and its raw witness off the
slope-sorted factors in one pass.  The rule below computes the same things
the long way, with no use of the factor order: the set {s/p : s > 0} from
slopes() plus 0 when the regular rank is positive, and each witness by a
scan for the first factor of the slope.
"""

from fractions import Fraction

from slopelab.elementary import _slope_walk, regular_rank, slopes
from slopelab.expr import module_to_expr


def nearby_set(module, p: int) -> set:
    out = {s / p for s in slopes(module) if s > 0}
    if regular_rank(module) > 0:
        out.add(Fraction(0))
    return out


def scanned_witness(module, s: Fraction, p: int) -> tuple:
    # The raw witness (ram, terms, rank) of module slope s: the unit twist
    # for s = 0, else the first slope-s factor's principal part on the
    # degree-p*ram cover.
    if s == 0:
        return 1, (), 1
    for f in module.factors:
        if f.slope == s:
            return p * f.ram, f.phi.terms, 1
    raise AssertionError(f"no factor of slope {s}")


def check_walk(module, p: int) -> list:
    """The walk's slopes are the rule's set in increasing order with no
    repeats, and each raw witness is the scan's.  Returns the walk."""
    walk = list(_slope_walk(module, p))
    assert [r for r, _ in walk] == sorted(nearby_set(module, p)), (
        f"module {module_to_expr(module)}, p {p}: walk {walk}")
    for r, raw in walk:
        assert raw == scanned_witness(module, r * p, p), (
            f"module {module_to_expr(module)}, p {p}, slope {r}: walk {raw}")
    return walk
