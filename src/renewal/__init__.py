"""Expected draw counts for threshold crossings of transformed uniform sums.

Draws are i.i.d. Uniform[0,1] values pushed through an increasing bijection
of [0, 1]; the quantity of interest is the expected number of draws until
the running sum of transformed values first exceeds a threshold t.  The
package computes it three independent ways: exact closed forms for the
identity and logproduct transforms, a marching renewal-equation solver for
any admissible transform, and Monte Carlo simulation.  ``verification``
cross-checks the routes against each other.

The names below are the ones users call; the modules hold the rest (the
checks behind ``verification`` among them).
"""

from .bijections import (
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
    parse_transform,
)
from .closed_forms import exp_tail_weight, product_count, uniform_sum_count
from .montecarlo import (
    OvershootHistogram,
    SimEstimate,
    estimate_n,
    overshoot_histogram,
    paired_domination,
    simulate,
)
from .solver import RenewalCurve, asymptote_gap, eval_curve, marching_tolerance, solve

__version__ = "0.1.0"

__all__ = [
    "AsymptoticParams",
    "BijectionSpec",
    "ConvergenceError",
    "DomainError",
    "Identity",
    "LogProduct",
    "OvershootHistogram",
    "PiecewiseLinear",
    "Power",
    "RenewalCurve",
    "SimEstimate",
    "asymptote_gap",
    "asymptotic_params",
    "estimate_n",
    "eval_curve",
    "exp_tail_weight",
    "from_knot_file",
    "marching_tolerance",
    "overshoot_histogram",
    "paired_domination",
    "parse_transform",
    "product_count",
    "simulate",
    "solve",
    "uniform_sum_count",
    "__version__",
]
