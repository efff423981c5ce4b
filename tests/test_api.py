"""The public surface: what ``renewal`` exports, and the attributes the tracer patches."""

import importlib
import pathlib

import pytest

import renewal
from renewal import bijections, cli, closed_forms, montecarlo, solver, verification

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
