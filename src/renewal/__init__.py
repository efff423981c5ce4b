"""Expected draw counts for threshold crossings of transformed uniform sums.

Draws are i.i.d. Uniform[0,1] values pushed through an increasing bijection
of [0, 1]; the quantity of interest is the expected number of draws until
the running sum of transformed values first exceeds a threshold t.  The
package computes it three independent ways: exact closed forms for the
identity and logproduct transforms, a marching renewal-equation solver for
any admissible transform, and Monte Carlo simulation.  ``verification``
cross-checks the routes against each other.
"""

from .bijections import (
    BUILTIN_TRANSFORMS,
    AsymptoticParams,
    BijectionSpec,
    ConvergenceError,
    DomainError,
    Identity,
    LogProduct,
    PiecewiseLinear,
    Power,
    asymptotic_params,
    from_knot_file,
    integrate,
    parse_transform,
)
from .closed_forms import (
    SUM_COUNT_T_CAP,
    exp_tail_weight,
    product_count,
    product_count_asymptote,
    product_count_series,
    uniform_sum_asymptote,
    uniform_sum_count,
)
from .montecarlo import (
    OvershootHistogram,
    SimEstimate,
    chernoff_bound,
    estimate_n,
    estimate_stopped_sum,
    k_concentration_check,
    overshoot_histogram,
    paired_domination,
    simulate,
)
from .solver import (
    RenewalCurve,
    asymptote_gap,
    check_derivative_relation,
    eval_curve,
    marching_tolerance,
    self_consistency_residual,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticParams",
    "BijectionSpec",
    "BUILTIN_TRANSFORMS",
    "ConvergenceError",
    "DomainError",
    "Identity",
    "LogProduct",
    "OvershootHistogram",
    "PiecewiseLinear",
    "Power",
    "RenewalCurve",
    "SimEstimate",
    "SUM_COUNT_T_CAP",
    "asymptote_gap",
    "asymptotic_params",
    "chernoff_bound",
    "check_derivative_relation",
    "estimate_n",
    "estimate_stopped_sum",
    "eval_curve",
    "exp_tail_weight",
    "from_knot_file",
    "integrate",
    "k_concentration_check",
    "marching_tolerance",
    "overshoot_histogram",
    "paired_domination",
    "parse_transform",
    "product_count",
    "product_count_asymptote",
    "product_count_series",
    "self_consistency_residual",
    "simulate",
    "solve",
    "uniform_sum_asymptote",
    "uniform_sum_count",
    "__version__",
]
