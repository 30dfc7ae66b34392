"""slopelab: exact slope invariants for formal meromorphic differential modules.

The package is organized along its problem layers:

* :mod:`slopelab.exact_algebra` - rationals, cyclotomic numbers, ramified
  Laurent tails, multi-indices (everything exact, no floats anywhere).
* :mod:`slopelab.elementary` - the one-variable calculus of elementary
  modules: slopes, dual/pullback/pushforward/tensor, nearby-cycle dimensions,
  nearby slopes with witness and exhaustion certificates.
* :mod:`slopelab.newton_polygon` - the independent operator-side slope oracle.
* :mod:`slopelab.monomial_models` - multivariate monomial good models, slope
  divisors, vanishing thresholds, curve restriction.
* :mod:`slopelab.blowup` - toric/abstract blow-up chains with multiplicity
  tracking and inequality verification.
* :mod:`slopelab.expr` / :mod:`slopelab.cli` - the expression language and
  command-line front end.
"""

from slopelab.elementary import (
    ElementaryModule,
    FormalModule,
    RegularPart,
    certify_nearby_slopes,
    dual,
    elementary,
    irregularity,
    is_regular,
    make_elementary,
    nearby_slopes,
    psi_dim,
    pullback,
    pushforward,
    regular_module,
    slopes,
    tensor,
    witness_twist,
)
from slopelab.errors import (
    ExpressionError,
    FalsificationError,
    ScriptError,
    SlopelabError,
)
from slopelab.exact_algebra import (
    CycloRat,
    MultiIndex,
    RamifiedExponent,
)
from slopelab.expr import module_to_expr, parse_and_eval, parse_module
from slopelab.monomial_models import (
    GenericSlopeDivisor,
    GoodModel,
    ModelFactor,
    MonomialFunction,
    curve_restriction,
    highest_generic_slopes,
    lemma_vanishing,
    nearby_slope_bound,
    vanishing_threshold,
)
from slopelab.newton_polygon import slopes_from_operator

__version__ = "0.1.0"
