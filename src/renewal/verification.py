"""Cross-route verification: every quantity the package computes two ways.

Each check compares independent computations of the same quantity (closed
form vs series, solver vs closed form, simulation vs solver, quadrature vs
analytic constant) and passes only when they agree within a stated
tolerance.  ``run_checks`` returns one ``CheckResult`` per check; the CLI
prints them and fails if any check fails.

The solver checks pin their tolerance at the acceptance level for the
default step (1e-3).  Running them at a coarse step (say 5e-2) makes the
discretization error visible and the affected checks fail; that is the
intended way to demonstrate how accuracy degrades with step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bijections, closed_forms, montecarlo, solver
from .bijections import (
    BUILTIN_TRANSFORMS,
    DomainError,
    Identity,
    LogProduct,
    PiecewiseLinear,
    Power,
    asymptotic_params,
    integrate,
)

__all__ = ["CheckResult", "run_checks", "SUITES"]

SUITES = ("closed-forms", "bijections", "solver", "simulation")

_E = math.e
_EM1 = math.e - 1.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    passed: bool
    detail: str


def _result(name, suite, passed, detail):
    return CheckResult(name=name, suite=suite, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------- closed forms


def _checks_closed_forms():
    out = []

    # adjacent series tail weights must satisfy w_{n+1} + w_n = e^t t^n / n!
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 100):
        t = float(t)
        for n in range(30):
            lhs = closed_forms.exp_tail_weight(t, n + 1) + closed_forms.exp_tail_weight(t, n)
            rhs = math.exp(t) * t**n / math.factorial(n)
            worst = max(worst, abs(lhs - rhs))
    out.append(
        _result(
            "tail-weight-recurrence",
            "closed-forms",
            worst <= 1e-12,
            f"max |w(n+1)+w(n) - e^t t^n/n!| = {worst:.3e} (tol 1e-12)",
        )
    )

    # series route vs piecewise closed form on [0, 1]
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 200):
        t = float(t)
        worst = max(
            worst,
            abs(closed_forms.product_count_series(t) - closed_forms.product_count(t)),
        )
    out.append(
        _result(
            "series-vs-closed",
            "closed-forms",
            worst <= 1e-10,
            f"max |series - closed| on [0,1] = {worst:.3e} (tol 1e-10)",
        )
    )

    gap = abs(closed_forms.product_count_01(1.0) - closed_forms.product_count_12(1.0))
    out.append(
        _result(
            "piece-junction",
            "closed-forms",
            gap <= 1e-12,
            f"|N(1-) - N(1+)| = {gap:.3e} (tol 1e-12)",
        )
    )

    # series terms live in [0, 1] and never increase
    ok = True
    worst = ""
    for t in (0.1, 0.5, 0.9, 1.0):
        prev = 1.0
        for n in range(41):
            q = closed_forms.product_series_term(t, n)
            if not (-1e-15 <= q <= 1.0 + 1e-15 and q <= prev + 1e-15):
                ok = False
                worst = f"t={t} n={n} term={q!r} prev={prev!r}"
                break
            prev = q
        if not ok:
            break
    out.append(
        _result(
            "series-terms-monotone",
            "closed-forms",
            ok,
            worst or "terms in [0,1], nonincreasing for t in {0.1,0.5,0.9,1.0}, n<=40",
        )
    )

    e1 = abs(closed_forms.uniform_sum_count(1.0) - _E)
    e2 = abs(closed_forms.uniform_sum_count(2.0) - (_E * _E - _E))
    out.append(
        _result(
            "sum-count-endpoints",
            "closed-forms",
            e1 <= 1e-12 and e2 <= 1e-12,
            f"|M(1)-e| = {e1:.3e}, |M(2)-(e^2-e)| = {e2:.3e} (tol 1e-12)",
        )
    )

    # mean-increment bracket t/mu < N <= (t+1)/mu, exact routes
    ok = True
    worst = ""
    for t in np.linspace(0.0, 2.0, 201):
        t = float(t)
        n = closed_forms.product_count(t)
        m = closed_forms.uniform_sum_count(t)
        if not (_EM1 * t < n <= _EM1 * (t + 1.0) and 2.0 * t < m <= 2.0 * (t + 1.0)):
            ok = False
            worst = f"violated at t={t}"
            break
    out.append(
        _result(
            "mean-bracket-exact",
            "closed-forms",
            ok,
            worst or "t/mu < count <= (t+1)/mu on [0,2] for both exact counts",
        )
    )

    # pointwise-larger increments can only lower the expected count
    ok = True
    worst = ""
    for t in np.linspace(0.0, 2.0, 201):
        t = float(t)
        n = closed_forms.product_count(t)
        m = closed_forms.uniform_sum_count(t)
        if n > m or (t >= 0.05 and not n < m):
            ok = False
            worst = f"violated at t={t}: product {n!r} vs sum {m!r}"
            break
    out.append(
        _result(
            "domination-exact",
            "closed-forms",
            ok,
            worst or "product count <= uniform-sum count on [0,2], strictly for t >= 0.05",
        )
    )
    return out


# ------------------------------------------------------------------ bijections


def _bijection_menagerie():
    return [
        Identity(),
        LogProduct(),
        Power(0.5),
        Power(2.0),
        PiecewiseLinear(((0.0, 0.0), (0.25, 0.1), (0.7, 0.8), (1.0, 1.0))),
    ]


def _checks_bijections():
    out = []
    specs = _bijection_menagerie()

    ok = all(
        float(s.forward(0.0)) == 0.0 and float(s.forward(1.0)) == 1.0 for s in specs
    )
    out.append(
        _result(
            "endpoint-exactness",
            "bijections",
            ok,
            "f(0) == 0 and f(1) == 1 exactly for "
            + ", ".join(s.label for s in specs),
        )
    )

    worst = 0.0
    worst_label = ""
    x = np.linspace(0.0, 1.0, 1001)
    for s in specs:
        tol = 1e-9 if isinstance(s, PiecewiseLinear) else 1e-12
        err = float(np.max(np.abs(s.inverse(s.forward(x)) - x)))
        err2 = float(np.max(np.abs(s.forward(s.inverse(x)) - x)))
        if max(err, err2) / tol > worst:
            worst = max(err, err2) / tol
            worst_label = f"{s.label}: {max(err, err2):.3e} (tol {tol:g})"
    out.append(
        _result(
            "roundtrip",
            "bijections",
            worst <= 1.0,
            f"worst inverse-composition error {worst_label}",
        )
    )

    x = np.linspace(0.0, 1.0, 10001)
    ok = all(bool(np.all(np.diff(s.forward(x)) > 0.0)) for s in specs)
    out.append(
        _result(
            "strict-monotonicity",
            "bijections",
            ok,
            "forward values strictly increase on a 10001-point grid for all specs",
        )
    )

    lp = BUILTIN_TRANSFORMS["logproduct"]
    e1 = abs(float(lp.forward((_E - 2.0) / _EM1)) - math.log(_EM1))
    e2 = abs(float(lp.inverse(0.5)) - (math.sqrt(_E) - 1.0) / _EM1)
    out.append(
        _result(
            "logproduct-known-points",
            "bijections",
            e1 <= 1e-14 and e2 <= 1e-14,
            f"|f((e-2)/(e-1)) - ln(e-1)| = {e1:.3e}, "
            f"|f^-1(1/2) - (sqrt(e)-1)/(e-1)| = {e2:.3e} (tol 1e-14)",
        )
    )

    # quadrature vs analytic mean increments
    mu_lp = integrate(lambda w: lp._f(w), 0.0, 1.0, 1e-11)
    mu_id = integrate(lambda w: w, 0.0, 1.0, 1e-11)
    e1 = abs(mu_lp - 1.0 / _EM1)
    e2 = abs(mu_id - 0.5)
    out.append(
        _result(
            "mean-increment-analytic",
            "bijections",
            e1 <= 1e-10 and e2 <= 1e-10,
            f"|quad - 1/(e-1)| = {e1:.3e}, |quad - 1/2| = {e2:.3e} (tol 1e-10)",
        )
    )

    p_id = asymptotic_params(Identity())
    p_lp = asymptotic_params(LogProduct())
    e_c1 = abs(p_id.c - 1.0 / 3.0)
    e_c2 = abs(p_lp.c - (_E - 2.0) / 2.0)
    out.append(
        _result(
            "mean-overshoot-constants",
            "bijections",
            e_c1 <= 1e-10 and e_c2 <= 1e-10,
            f"|c_id - 1/3| = {e_c1:.3e}, |c_lp - (e-2)/2| = {e_c2:.3e} (tol 1e-10)",
        )
    )

    # the defining region integral for c, evaluated as written (inner integral
    # over x above f^-1(u), then over u) must match the collapsed single-quad route
    def c_nested(s, outer_tol=1e-9):
        def inner(u):
            lo = float(s._finv(np.asarray(u)))
            return integrate(lambda x: s._f(x) - u, lo, 1.0, outer_tol / 10.0)

        num = integrate(
            lambda us: np.array([inner(float(u)) for u in np.atleast_1d(us)]),
            0.0,
            1.0,
            outer_tol,
        )
        return num / asymptotic_params(s).mu

    e1 = abs(c_nested(Identity()) - p_id.c)
    e2 = abs(c_nested(LogProduct()) - p_lp.c)
    out.append(
        _result(
            "overshoot-constant-routes",
            "bijections",
            e1 <= 1e-8 and e2 <= 1e-8,
            f"|region integral - single integral| identity {e1:.3e}, "
            f"logproduct {e2:.3e} (tol 1e-8)",
        )
    )

    sig_lp = (_E - 2.0) / _EM1 - 1.0 / (_EM1 * _EM1)
    e1 = abs(p_lp.sigma2 - sig_lp)
    e2 = abs(p_id.sigma2 - 1.0 / 12.0)
    out.append(
        _result(
            "variance-analytic",
            "bijections",
            e1 <= 1e-10 and e2 <= 1e-10,
            f"|sigma2_lp - {sig_lp:.12f}| = {e1:.3e}, |sigma2_id - 1/12| = {e2:.3e}",
        )
    )

    # mu two ways: integral of f, and 1 - integral of the inverse
    worst = 0.0
    worst_label = ""
    for s in specs:
        mu = asymptotic_params(s).mu
        mu_alt = 1.0 - integrate(lambda u: s._finv(u), 0.0, 1.0, 1e-11)
        if abs(mu - mu_alt) > worst:
            worst = abs(mu - mu_alt)
            worst_label = s.label
    out.append(
        _result(
            "mean-by-parts",
            "bijections",
            worst <= 2e-10,
            f"max |int f - (1 - int f^-1)| = {worst:.3e} at {worst_label} (tol 2e-10)",
        )
    )

    ok = True
    detail = []
    for s in specs:
        p = asymptotic_params(s)
        detail.append(f"{s.label}: mu={p.mu:.6f} c={p.c:.6f}")
        if not (0.0 < p.mu <= 1.0 and 0.0 < p.c <= 1.0 and p.sigma2 >= 0.0):
            ok = False
    out.append(
        _result(
            "params-in-range",
            "bijections",
            ok,
            "; ".join(detail),
        )
    )
    return out


# ---------------------------------------------------------------------- solver


def _checks_solver(step, t_max, step_limit):
    out = []
    hi = min(t_max, 10.0)
    c_id = solver.solve(Identity(), hi, step, step_limit=step_limit)
    c_lp = solver.solve(LogProduct(), hi, step, step_limit=step_limit)
    c_p2 = solver.solve(Power(2.0), hi, step, step_limit=step_limit)
    c_p05 = solver.solve(Power(0.5), hi, step, step_limit=step_limit)

    # pinned at the default-step acceptance level on purpose: coarse steps fail here
    checkpoints = np.linspace(0.0, 2.0, 200)
    tol = 1e-5
    worst = max(
        abs(solver.eval_curve(c_lp, float(t)) - closed_forms.product_count(float(t)))
        for t in checkpoints
    )
    out.append(
        _result(
            "solver-vs-product-form",
            "solver",
            worst <= tol,
            f"max |solver - closed form| over 200 points on [0,2] = {worst:.3e} "
            f"(tol {tol:g} at step {step:g})",
        )
    )
    worst = max(
        abs(solver.eval_curve(c_id, float(t)) - closed_forms.uniform_sum_count(float(t)))
        for t in checkpoints
    )
    out.append(
        _result(
            "solver-vs-sum-count",
            "solver",
            worst <= tol,
            f"max |solver - closed form| over 200 points on [0,2] = {worst:.3e} "
            f"(tol {tol:g} at step {step:g})",
        )
    )

    ok = all(
        bool(np.all(np.diff(c.values) > 0.0)) for c in (c_id, c_lp, c_p2, c_p05)
    )
    out.append(
        _result(
            "curve-monotone",
            "solver",
            ok,
            "marched values strictly increase for identity, logproduct, power:0.5, power:2",
        )
    )

    ok = True
    worst_label = ""
    for c in (c_id, c_lp, c_p2, c_p05):
        mu = asymptotic_params(c.transform).mu
        g = c.grid
        v = c.values
        lo_ok = bool(np.all(v * mu > g - 1e-12)) and bool(np.all(v[1:] * mu > g[1:]))
        hi_ok = bool(np.all(v * mu <= g + 1.0 + 1e-9))
        if not (lo_ok and hi_ok):
            ok = False
            worst_label = c.transform.label
            break
    out.append(
        _result(
            "mean-bracket-grid",
            "solver",
            ok,
            worst_label
            and f"bracket violated for {worst_label}"
            or f"t/mu < N(t) <= (t+1)/mu at every grid node to t_max={hi:g}, 4 transforms",
        )
    )

    margin = float(np.min(c_id.values - c_lp.values))
    out.append(
        _result(
            "domination-grid",
            "solver",
            margin >= -1e-9,
            f"min (identity curve - logproduct curve) on shared grid = {margin:.3e}",
        )
    )

    # derivative identity for the product-form curve; identity-curve input must be rejected
    ts = [t for t in (1.5, 2.5, 5.0, hi - 2.0 * step) if 1.0 + step <= t <= hi - step]
    worst = max(solver.check_derivative_relation(c_lp, t) for t in ts)
    try:
        solver.check_derivative_relation(c_id, 1.5)
        rejected = False
    except DomainError:
        rejected = True
    out.append(
        _result(
            "derivative-identity",
            "solver",
            worst <= 1e-4 and rejected,
            f"max residual {worst:.3e} (tol 1e-4); wrong-transform rejection: {rejected}",
        )
    )

    p_id = asymptotic_params(Identity())
    p_lp = asymptotic_params(LogProduct())
    t_hi = hi
    t_lo = 2.0 if hi > 2.5 else hi / 2.0
    g_id_hi = solver.asymptote_gap(c_id, p_id, t_hi)
    g_id_lo = solver.asymptote_gap(c_id, p_id, t_lo)
    g_lp_hi = solver.asymptote_gap(c_lp, p_lp, t_hi)
    g_lp_lo = solver.asymptote_gap(c_lp, p_lp, t_lo)
    ok = (
        abs(g_id_hi) < 1e-3
        and abs(g_lp_hi) < 1e-3
        and abs(g_id_hi) < abs(g_id_lo)
        and abs(g_lp_hi) < abs(g_lp_lo)
    )
    out.append(
        _result(
            "asymptote-approach",
            "solver",
            ok,
            f"gaps at t={t_hi:g}: identity {g_id_hi:.2e}, logproduct {g_lp_hi:.2e} "
            f"(< 1e-3 and smaller than at t={t_lo:g}: {g_id_lo:.2e}, {g_lp_lo:.2e})",
        )
    )

    rng = np.random.default_rng(0)
    budget = 5.0 * solver.marching_tolerance(step)
    worst = 0.0
    for c in (c_id, c_lp):
        for t in rng.uniform(0.05, hi, 100):
            worst = max(worst, solver.self_consistency_residual(c, float(t)))
    out.append(
        _result(
            "self-consistency",
            "solver",
            worst <= budget,
            f"max |N(t) - 1 - int N(t - f(w)) dw| over 200 random t = {worst:.3e} "
            f"(tol {budget:.3e})",
        )
    )
    return out


# ------------------------------------------------------------------ simulation


def _checks_simulation(samples, seed, workers):
    out = []
    lp = BUILTIN_TRANSFORMS["logproduct"]
    ident = BUILTIN_TRANSFORMS["identity"]

    est = montecarlo.estimate_n(lp, 1.0, samples, seed, workers)
    exact = closed_forms.product_count(1.0)
    dev = abs(est.mean - exact)
    lim = 3.0 * est.std_error
    ok1 = dev <= lim
    d1 = f"logproduct t=1: |{est.mean:.6f} - {exact:.6f}| = {dev:.2e} <= 3se = {lim:.2e}"
    est = montecarlo.estimate_n(ident, 1.0, samples, seed, workers)
    exact = closed_forms.uniform_sum_count(1.0)
    dev = abs(est.mean - exact)
    lim = 3.0 * est.std_error
    ok2 = dev <= lim
    out.append(
        _result(
            "sim-vs-exact",
            "simulation",
            ok1 and ok2,
            d1 + f"; identity t=1: |{est.mean:.6f} - {exact:.6f}| = {dev:.2e} <= {lim:.2e}",
        )
    )

    # stopped sum = mu * expected count, on shared sample paths
    paths = montecarlo.simulate(lp, 5.0, samples, seed, workers)
    ek, es = paths.count_estimate(), paths.stopped_sum_estimate()
    mu = asymptotic_params(lp).mu
    dev = abs(ek.mean - es.mean / mu)
    lim = 3.0 * math.hypot(ek.std_error, es.std_error / mu)
    out.append(
        _result(
            "stopped-sum-proportionality",
            "simulation",
            dev <= lim,
            f"|mean count - mean sum / mu| = {dev:.2e} <= {lim:.2e} (t=5, shared paths)",
        )
    )

    viol, total = montecarlo.paired_domination(5.0, samples, seed, workers)
    out.append(
        _result(
            "paired-domination",
            "simulation",
            viol == 0,
            f"{viol} of {total} coupled paths finished the larger-increment sum later (expect 0)",
        )
    )

    # overshoot histogram against the limiting density, quadrature route; the
    # logproduct paths at t=20 also feed the mean-overshoot check below
    lp20 = montecarlo.simulate(lp, 20.0, samples, seed, workers, bins=50)
    id_hist = montecarlo.overshoot_histogram(ident, 20.0, samples, 50, seed, workers)
    ok = True
    detail = []
    for spec, hist in ((ident, id_hist), (lp, lp20.histogram())):
        probs = montecarlo.limit_overshoot_bin_probs(spec, hist.bin_edges)
        counts = hist.densities * (samples / 50.0)
        expect = probs * samples
        band = 4.0 * np.sqrt(np.maximum(expect * (1.0 - probs), 1.0))
        bad = int(np.sum(np.abs(counts - expect) > band))
        mass = float(np.dot(hist.densities, np.diff(hist.bin_edges)))
        detail.append(f"{spec.label}: {bad} of 50 bins out of band, mass {mass:.12f}")
        if bad > 0 or abs(mass - 1.0) > 1e-12:
            ok = False
    out.append(
        _result(
            "overshoot-limit-density",
            "simulation",
            ok,
            "; ".join(detail) + " (band 4 sigma, t=20)",
        )
    )

    # mean overshoot approaches the overshoot constant c
    es = lp20.stopped_sum_estimate()
    c = asymptotic_params(lp).c
    dev = abs((es.mean - 20.0) - c)
    lim = 3.0 * es.std_error
    out.append(
        _result(
            "mean-overshoot-vs-c",
            "simulation",
            dev <= lim,
            f"|mean overshoot - c| = {dev:.2e} <= 3se = {lim:.2e} (t=20)",
        )
    )

    frac = montecarlo.k_concentration_check(
        lp, 25.0, max(samples // 5, 10_000), 6.0, seed, workers
    )
    out.append(
        _result(
            "count-concentration",
            "simulation",
            frac < 1e-3,
            f"fraction of paths with |count - 1 - t/mu| > 6 sqrt(t) at t=25: {frac:.2e} (< 1e-3)",
        )
    )

    n_small = max(samples // 50, 2_000)
    a = montecarlo.estimate_n(lp, 2.0, n_small, seed, workers)
    b = montecarlo.estimate_n(lp, 2.0, n_small, seed, workers)
    c2 = montecarlo.estimate_n(lp, 2.0, n_small, seed + 1, workers)
    ok = a.mean == b.mean and a.std_error == b.std_error and a.mean != c2.mean
    out.append(
        _result(
            "reproducibility",
            "simulation",
            ok,
            f"same seed bit-identical: {a.mean == b.mean and a.std_error == b.std_error}; "
            f"different seed differs: {a.mean != c2.mean}",
        )
    )

    v1 = montecarlo.chernoff_bound(100.0, 0.5)
    ref = 2.0 * math.exp(-10.0)
    ok = (
        montecarlo.chernoff_bound(100.0, 0.1) == 1.0
        and abs(v1 - ref) <= 1e-15
        and montecarlo.chernoff_bound(100.0, 1.0) < v1 < montecarlo.chernoff_bound(100.0, 0.3)
    )
    out.append(
        _result(
            "tail-bound-shape",
            "simulation",
            ok,
            f"clamped to 1 in the small-deviation regime; bound(100, 0.5) = {v1:.6e} "
            f"= 2e^-10; strictly decreasing in the deviation",
        )
    )
    return out


def run_checks(
    suites=None,
    *,
    step: float = 1e-3,
    t_max: float = 10.0,
    samples: int = 10**6,
    seed: int = 42,
    workers: int = 1,
):
    """Run the requested verification suites and return their CheckResults.

    ``suites`` is an iterable drawn from ``SUITES`` (None means all).  The
    solver suite honors ``step`` and ``t_max``; the simulation suite honors
    ``samples``, ``seed``, ``workers``.  Steps above the solver's normal
    limit are accepted here (up to 0.1) so accuracy degradation can be
    demonstrated; expect solver-suite failures when you do that.
    """
    if suites is None:
        chosen = list(SUITES)
    else:
        chosen = list(dict.fromkeys(suites))
        for s in chosen:
            if s not in SUITES:
                raise DomainError(f"unknown suite {s!r}; choose from {', '.join(SUITES)}")
    if not (0.0 < step <= 0.1):
        raise DomainError(f"step must be in (0, 0.1], got {step:g}")
    if not (3.0 <= t_max <= 100.0):
        raise DomainError(f"t_max must be in [3, 100], got {t_max:g}")
    if not (isinstance(samples, int) and samples >= 1000):
        raise DomainError(f"samples must be an integer >= 1000, got {samples!r}")

    results = []
    for s in chosen:
        if s == "closed-forms":
            results.extend(_checks_closed_forms())
        elif s == "bijections":
            results.extend(_checks_bijections())
        elif s == "solver":
            results.extend(_checks_solver(step, t_max, step_limit=max(step, 0.01)))
        else:
            results.extend(_checks_simulation(samples, seed, workers))
    return results
