"""The public surface: what ``renewal`` exports, its argument contract, and
the attributes the tracer patches."""

import dataclasses
import functools
import importlib
import math
import pathlib
import re

import numpy as np
import pytest

import renewal
from renewal import bijections, cli, closed_forms, montecarlo, solver, verification
from renewal.bijections import DomainError

_MODULES = (renewal, bijections, closed_forms, montecarlo, solver, verification)
_PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_package_exports_pinned():
    assert sorted(renewal.__all__) == sorted({
        # transforms, errors and result types
        "BijectionSpec", "Identity", "LogProduct", "Power", "PiecewiseLinear",
        "DomainError", "ConvergenceError",
        "AsymptoticParams", "RenewalCurve", "SimEstimate", "OvershootHistogram",
        # building a transform
        "parse_transform", "from_knot_file",
        # the solver and the asymptotic line
        "solve", "eval_curve", "asymptote_gap", "marching_tolerance",
        "asymptotic_params",
        # Monte Carlo
        "simulate", "estimate_n", "overshoot_histogram", "paired_domination",
        # closed forms
        "product_count", "uniform_sum_count", "exp_tail_weight",
        "__version__",
    })


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from renewal import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(renewal.__all__)


def test_tracer_patches_and_restores_the_real_modules(monkeypatch):
    # perfbench/run.py --trace 1 wraps module attributes by name; a name it
    # expects that is gone breaks the traced benchmark
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    tracing = importlib.import_module("tracing")
    modules = (bijections, cli, montecarlo, solver, verification)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer._patched
        for module, attr, orig in tracer._patched:
            assert getattr(module, attr) is not orig, (module.__name__, attr)
        curve = solver.solve(bijections.Identity(), 0.1, 0.01)
        solver.self_consistency_residual(curve, 0.05)
        verification.run_checks(["bijections"])  # integrates by name
        montecarlo.estimate_n(bijections.Identity(), 1.0, 100, seed=0)
        montecarlo.limit_overshoot_bin_probs(bijections.Identity(), [0.0, 0.5, 1.0])
    finally:
        tracer.uninstall()
    assert {"solver.solve", "montecarlo.estimate_n", "montecarlo.kernel",
            "bijections.integrate"} <= {s["name"] for s in tracer.spans}
    for module, saved in zip(modules, before):
        now = vars(module)
        assert now.keys() == saved.keys(), module.__name__
        changed = [k for k, v in saved.items() if now[k] is not v]
        assert not changed, (module.__name__, changed)


def _g(x):
    return x * x


# (id, the argument's name in the refusal, the call with that argument set
# to v, an admitted value of v)
_CONTRACT = [
    ("Power", "power exponent p", bijections.Power, 2),
    ("integrate-a", "a", lambda v: bijections.integrate(_g, v, 2.0), 0),
    ("integrate-b", "b", lambda v: bijections.integrate(_g, 0.0, v), 1),
    ("integrate-abs_tol", "abs_tol", lambda v: bijections.integrate(_g, 0.0, 1.0, v), 1),
    ("AsymptoticParams-mu", "mu", lambda v: bijections.AsymptoticParams(v, 0.1, 0.3), 1),
    ("AsymptoticParams-sigma2", "sigma2", lambda v: bijections.AsymptoticParams(0.5, v, 0.3), 0),
    ("AsymptoticParams-c", "c", lambda v: bijections.AsymptoticParams(0.5, 0.1, v), 1),
    ("PiecewiseLinear", "knot 1: x",
     lambda v: bijections.PiecewiseLinear(((0.0, 0.0), (v, 0.5), (1.0, 1.0))), 0.25),
    ("forward", "x", lambda v: bijections.LogProduct().forward(v), 1),
    ("inverse", "u", lambda v: bijections.Power(0.5).inverse(v), 1),
    ("exp_tail_weights", "t", lambda v: closed_forms.exp_tail_weights(v, 5), 1),
    ("product_count_01", "t", closed_forms.product_count_01, 1),
    ("product_count_12", "t", closed_forms.product_count_12, 2),
    ("product_count", "t", closed_forms.product_count, 2),
    ("product_count_series", "t", closed_forms.product_count_series, 1),
    ("product_count_asymptote", "t", closed_forms.product_count_asymptote, 3),
    ("uniform_sum_count", "t", closed_forms.uniform_sum_count, 3),
    ("uniform_sum_asymptote", "t", closed_forms.uniform_sum_asymptote, 3),
    ("RenewalCurve-step", "step",
     lambda v: solver.RenewalCurve(bijections.Identity(), v, 1.0, [1.0, 2.0]), 1),
    ("RenewalCurve-t_max", "t_max",
     lambda v: solver.RenewalCurve(bijections.Identity(), 0.5, v, [1.0, 2.0, 3.0]), 1),
    ("solve-t_max", "t_max", lambda v: solver.solve(bijections.Identity(), v, 1e-2), 1),
    ("solve-step", "step", lambda v: solver.solve(bijections.Identity(), 1.0, v), 0.0078125),
    ("solve-step_limit", "step_limit",
     lambda v: solver.solve(bijections.Identity(), 1.0, 0.0625, step_limit=v), 1),
    ("eval_curve", "t", lambda v: solver.eval_curve(_curve(), v), 2),
    # a list that mixes v with numbers: numpy would promote a bool to 0 or 1
    ("eval_curve-list", "t", lambda v: solver.eval_curve(_curve(), [0.5, v]), 2),
    ("asymptote_gap", "t",
     lambda v: solver.asymptote_gap(_curve(), bijections.asymptotic_params(bijections.LogProduct()), v), 2),
    ("check_derivative_relation", "t", lambda v: solver.check_derivative_relation(_curve(), v), 2),
    ("self_consistency_residual", "t", lambda v: solver.self_consistency_residual(_curve(), v), 2),
    ("marching_tolerance", "step", solver.marching_tolerance, 0.5),
    ("simulate", "t", lambda v: montecarlo.simulate(bijections.Identity(), v, 1000), 2),
    ("paired_domination", "t", lambda v: montecarlo.paired_domination(v, 1000), 2),
    ("k_concentration_check-t", "t",
     lambda v: montecarlo.k_concentration_check(bijections.Identity(), v, 1000, 6.0), 2),
    ("k_concentration_check-c", "c",
     lambda v: montecarlo.k_concentration_check(bijections.Identity(), 2.0, 1000, v), 6),
    # the argument is an array: v fills it, so a bool or a string sets its dtype
    ("limit_overshoot_bin_probs", "edges",
     lambda v: montecarlo.limit_overshoot_bin_probs(bijections.Identity(), [v, v]), 1),
    ("limit_overshoot_bin_probs-list", "edges",
     lambda v: montecarlo.limit_overshoot_bin_probs(bijections.Identity(), [0.0, v]), 1),
    ("SimEstimate-mean", "mean", lambda v: montecarlo.SimEstimate(v, 0.1, 10, 1, 2.0, "x"), 3),
    ("SimEstimate-std_error", "std_error",
     lambda v: montecarlo.SimEstimate(3.0, v, 10, 1, 2.0, "x"), 0),
    ("SimEstimate-t", "t", lambda v: montecarlo.SimEstimate(3.0, 0.1, 10, 1, v, "x"), 2),
    ("OvershootHistogram-bin_edges", "bin_edges",
     lambda v: montecarlo.OvershootHistogram([0.0, v], [1.0], 10, 2.0), 1),
    ("OvershootHistogram-densities", "densities",
     lambda v: montecarlo.OvershootHistogram([0.0, 1.0], [v], 10, 2.0), 1),
    ("OvershootHistogram-t", "t",
     lambda v: montecarlo.OvershootHistogram([0.0, 1.0], [1.0], 10, v), 2),
    ("run_checks-step", "step",
     lambda v: verification.run_checks(["solver"], step=v), 0.0625),
]


# the same for the integer fields of the result types (the Monte Carlo
# entry points' integers are pinned in tests/test_montecarlo.py)
_INT_CONTRACT = [
    ("SimEstimate-samples", "samples",
     lambda v: montecarlo.SimEstimate(3.0, 0.1, v, 1, 2.0, "x"), 10),
    ("SimEstimate-seed", "seed", lambda v: montecarlo.SimEstimate(3.0, 0.1, 10, v, 2.0, "x"), 1),
    ("OvershootHistogram-samples", "samples",
     lambda v: montecarlo.OvershootHistogram([0.0, 1.0], [1.0], v, 2.0), 10),
]


# the transform arguments: a transform's name, or anything else that is not
# a BijectionSpec, is refused naming the argument (id, name, call with the
# transform set to v)
_SPEC_CONTRACT = [
    ("solve", "spec", lambda v: solver.solve(v, 1.0, 1e-2)),
    ("RenewalCurve", "transform", lambda v: solver.RenewalCurve(v, 0.5, 1.0, [1.0, 2.0, 3.0])),
    ("simulate", "transform", lambda v: montecarlo.simulate(v, 2.0, 1000)),
    ("estimate_n", "transform", lambda v: montecarlo.estimate_n(v, 2.0, 1000)),
    ("overshoot_histogram", "transform",
     lambda v: montecarlo.overshoot_histogram(v, 2.0, 1000, 10)),
    ("asymptotic_params", "spec", bijections.asymptotic_params),
    ("limit_overshoot_bin_probs", "transform",
     lambda v: montecarlo.limit_overshoot_bin_probs(v, [0.0, 1.0])),
]


@functools.cache
def _curve():
    return solver.solve(bijections.LogProduct(), 3.0, 1e-2)


def _same(a, b) -> bool:
    """Equal values of the same types, dataclasses field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name, call, good", [row[1:] for row in _CONTRACT],
                         ids=[row[0] for row in _CONTRACT])
def test_argument_contract(name, call, good):
    # bools, strings and non-finite values are refused, naming the argument
    for bad in (True, "1", math.nan, math.inf):
        with pytest.raises(DomainError, match="^" + re.escape(name) + " must"):
            call(bad)
    # numpy scalars are reals: they give what the equal Python float gives
    kinds = (np.float32, np.int64) if float(good).is_integer() else (np.float32,)
    for kind in kinds:
        v = kind(good)
        assert _same(call(v), call(float(v))), kind


@pytest.mark.parametrize("name, call, good", [row[1:] for row in _INT_CONTRACT],
                         ids=[row[0] for row in _INT_CONTRACT])
def test_integer_argument_contract(name, call, good):
    # bools, strings and floats (even integral ones) are refused, naming the argument
    for bad in (True, "1", float(good), math.nan):
        with pytest.raises(DomainError, match="^" + re.escape(name) + " must"):
            call(bad)
    # numpy integers are integers: they give what the equal Python int gives
    for kind in (np.int64, np.int32, np.uint16):
        assert _same(call(kind(good)), call(good)), kind


@pytest.mark.parametrize("name, call", [row[1:] for row in _SPEC_CONTRACT],
                         ids=[row[0] for row in _SPEC_CONTRACT])
def test_transform_argument_contract(name, call):
    # a name string, the class itself and other values are refused up front,
    # pointing to parse_transform; a transform is admitted
    for bad in ("logproduct", bijections.Identity, None, 1.0):
        with pytest.raises(DomainError, match="^" + re.escape(name) + " must be a BijectionSpec "
                                              r"\(parse_transform builds one"):
            call(bad)
    call(bijections.Identity())
