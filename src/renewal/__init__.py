"""Expected draw counts for threshold crossings of transformed uniform sums.

Draws are i.i.d. Uniform[0,1] values pushed through an increasing bijection
of [0, 1]; the quantity of interest is the expected number of draws until
the running sum of transformed values first exceeds a threshold t.  The
package computes it three independent ways: exact closed forms for the
identity and logproduct transforms, a marching renewal-equation solver for
any admissible transform, and Monte Carlo simulation.  ``verification``
cross-checks the routes against each other.

The names below are the ones users call; the modules hold the rest (the
checks behind ``verification`` among them).  Names and submodules load on
first use (PEP 562), so ``import renewal`` imports none of the modules and a
command that runs one layer compiles only that layer and ``bijections``;
``renewal.solve``, ``from renewal import *`` and ``renewal.montecarlo`` work
as if everything were imported up front.
"""

from importlib import import_module

__version__ = "0.1.0"

# the check suites of ``verification``, in run order (``verification.SUITES``);
# here so that the CLI's ``verify --suite`` choices need no layer imported
_SUITES = ("closed-forms", "bijections", "solver", "simulation")

# each public name, by the module that defines it
_EXPORTS = {
    "bijections": (
        "AsymptoticParams", "BijectionSpec", "ConvergenceError", "DomainError",
        "Identity", "LogProduct", "PiecewiseLinear", "Power",
        "asymptotic_params", "from_knot_file", "parse_transform",
    ),
    "closed_forms": ("exp_tail_weight", "product_count", "uniform_sum_count"),
    "montecarlo": (
        "OvershootHistogram", "SimEstimate", "estimate_n", "overshoot_histogram",
        "paired_domination", "simulate",
    ),
    "solver": ("RenewalCurve", "asymptote_gap", "eval_curve", "marching_tolerance", "solve"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "verification")

__all__ = [*sorted(_OWNER), "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # binds the package attribute
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
