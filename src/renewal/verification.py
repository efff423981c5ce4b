"""Cross-route verification: every quantity the package computes two ways.

Each check compares independent computations of the same quantity (closed
form vs series, solver vs closed form, simulation vs solver, quadrature vs
analytic constant) and passes only when they agree within a stated
tolerance.  Each ``_checks_<suite>`` returns its checks as ``(name, passed,
detail)`` triples, in a fixed order; ``run_checks`` turns them into one
``CheckResult`` per check; the CLI prints them and fails if any check fails.

The solver checks pin their tolerance at the acceptance level for the
default step (1e-3).  Running them at a coarse step (say 5e-2) makes the
discretization error visible and the affected checks fail; that is the
intended way to demonstrate how accuracy degrades with step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms, montecarlo, solver
from .bijections import (
    BUILTIN_TRANSFORMS,
    DomainError,
    Identity,
    LogProduct,
    PiecewiseLinear,
    Power,
    _as_int,
    _as_real,
    _quad,
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


# ---------------------------------------------------------------- closed forms


def _checks_closed_forms():
    out = []

    # adjacent series tail weights must satisfy w_{n+1} + w_n = e^t t^n / n!
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 100):
        t = float(t)
        w = closed_forms.exp_tail_weights(t, 30)
        for n in range(30):
            rhs = math.exp(t) * t**n / math.factorial(n)
            worst = max(worst, abs((w[n + 1] + w[n]) - rhs))
    out.append((
        "tail-weight-recurrence",
        worst <= 1e-12,
        f"max |w(n+1)+w(n) - e^t t^n/n!| = {worst:.3e} (tol 1e-12)",
    ))

    # series route vs piecewise closed form on [0, 1]
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 200):
        t = float(t)
        worst = max(
            worst,
            abs(closed_forms.product_count_series(t) - closed_forms.product_count(t)),
        )
    out.append((
        "series-vs-closed",
        worst <= 1e-10,
        f"max |series - closed| on [0,1] = {worst:.3e} (tol 1e-10)",
    ))

    gap = abs(closed_forms.product_count_01(1.0) - closed_forms.product_count_12(1.0))
    out.append(("piece-junction", gap <= 1e-12, f"|N(1-) - N(1+)| = {gap:.3e} (tol 1e-12)"))

    # series terms live in [0, 1] and never increase; the first offender is reported
    bad = ""
    for t in (0.1, 0.5, 0.9, 1.0):
        terms = [1.0] + [closed_forms.product_series_term(t, n) for n in range(41)]
        for n, (prev, q) in enumerate(zip(terms, terms[1:])):
            if not (-1e-15 <= q <= 1.0 + 1e-15 and q <= prev + 1e-15):
                bad = bad or f"t={t} n={n} term={q!r} prev={prev!r}"
    out.append((
        "series-terms-monotone",
        not bad,
        bad or "terms in [0,1], nonincreasing for t in {0.1,0.5,0.9,1.0}, n<=40",
    ))

    e1 = abs(closed_forms.uniform_sum_count(1.0) - _E)
    e2 = abs(closed_forms.uniform_sum_count(2.0) - (_E * _E - _E))
    out.append((
        "sum-count-endpoints",
        e1 <= 1e-12 and e2 <= 1e-12,
        f"|M(1)-e| = {e1:.3e}, |M(2)-(e^2-e)| = {e2:.3e} (tol 1e-12)",
    ))

    # both exact counts on [0, 2], walked by the two checks below
    counts = [
        (t, closed_forms.product_count(t), closed_forms.uniform_sum_count(t))
        for t in map(float, np.linspace(0.0, 2.0, 201))
    ]

    # mean-increment bracket t/mu < N <= (t+1)/mu, exact routes
    bad = next(
        (
            f"violated at t={t}"
            for t, n, m in counts
            if not (_EM1 * t < n <= _EM1 * (t + 1.0) and 2.0 * t < m <= 2.0 * (t + 1.0))
        ),
        "",
    )
    out.append((
        "mean-bracket-exact",
        not bad,
        bad or "t/mu < count <= (t+1)/mu on [0,2] for both exact counts",
    ))

    # pointwise-larger increments can only lower the expected count
    bad = next(
        (
            f"violated at t={t}: product {n!r} vs sum {m!r}"
            for t, n, m in counts
            if n > m or (t >= 0.05 and not n < m)
        ),
        "",
    )
    out.append((
        "domination-exact",
        not bad,
        bad or "product count <= uniform-sum count on [0,2], strictly for t >= 0.05",
    ))
    return out


# ------------------------------------------------------------------ bijections


# one transform of each kind, the bijections suite's inputs
_MENAGERIE = (
    Identity(),
    LogProduct(),
    Power(0.5),
    Power(2.0),
    PiecewiseLinear(((0.0, 0.0), (0.25, 0.1), (0.7, 0.8), (1.0, 1.0))),
)


def _checks_bijections():
    out = []
    params = {s: asymptotic_params(s) for s in _MENAGERIE}
    p_id, p_lp = params[Identity()], params[LogProduct()]

    ok = all(
        float(s.forward(0.0)) == 0.0 and float(s.forward(1.0)) == 1.0 for s in _MENAGERIE
    )
    out.append((
        "endpoint-exactness",
        ok,
        "f(0) == 0 and f(1) == 1 exactly for " + ", ".join(s.label for s in _MENAGERIE),
    ))

    worst = 0.0
    worst_label = ""
    x = np.linspace(0.0, 1.0, 1001)
    for s in _MENAGERIE:
        tol = 1e-9 if isinstance(s, PiecewiseLinear) else 1e-12
        err = float(np.max(np.abs(s.inverse(s.forward(x)) - x)))
        err2 = float(np.max(np.abs(s.forward(s.inverse(x)) - x)))
        if max(err, err2) / tol > worst:
            worst = max(err, err2) / tol
            worst_label = f"{s.label}: {max(err, err2):.3e} (tol {tol:g})"
    out.append(("roundtrip", worst <= 1.0, f"worst inverse-composition error {worst_label}"))

    x = np.linspace(0.0, 1.0, 10001)
    ok = all(bool(np.all(np.diff(s.forward(x)) > 0.0)) for s in _MENAGERIE)
    out.append((
        "strict-monotonicity",
        ok,
        "forward values strictly increase on a 10001-point grid for all specs",
    ))

    lp = BUILTIN_TRANSFORMS["logproduct"]
    e1 = abs(float(lp.forward((_E - 2.0) / _EM1)) - math.log(_EM1))
    e2 = abs(float(lp.inverse(0.5)) - (math.sqrt(_E) - 1.0) / _EM1)
    out.append((
        "logproduct-known-points",
        e1 <= 1e-14 and e2 <= 1e-14,
        f"|f((e-2)/(e-1)) - ln(e-1)| = {e1:.3e}, "
        f"|f^-1(1/2) - (sqrt(e)-1)/(e-1)| = {e2:.3e} (tol 1e-14)",
    ))

    # quadrature vs analytic mean increments
    mu_lp = integrate(lambda w: lp._f(w), 0.0, 1.0, 1e-11)
    mu_id = integrate(lambda w: w, 0.0, 1.0, 1e-11)
    e1 = abs(mu_lp - 1.0 / _EM1)
    e2 = abs(mu_id - 0.5)
    out.append((
        "mean-increment-analytic",
        e1 <= 1e-10 and e2 <= 1e-10,
        f"|quad - 1/(e-1)| = {e1:.3e}, |quad - 1/2| = {e2:.3e} (tol 1e-10)",
    ))

    e_c1 = abs(p_id.c - 1.0 / 3.0)
    e_c2 = abs(p_lp.c - (_E - 2.0) / 2.0)
    out.append((
        "mean-overshoot-constants",
        e_c1 <= 1e-10 and e_c2 <= 1e-10,
        f"|c_id - 1/3| = {e_c1:.3e}, |c_lp - (e-2)/2| = {e_c2:.3e} (tol 1e-10)",
    ))

    # the defining region integral for c, evaluated as written (inner integral
    # over x above f^-1(u), then over u) must match the collapsed single-quad route;
    # each batch of outer nodes u takes one _quad call over its intervals [f^-1(u), 1]
    def c_nested(s):
        def inner(us):
            def g(x, j):
                return (s._f(x) - us[j, None])[None]

            return _quad(g, s._finv(us), np.ones_like(us), 1e-10)[0]

        return integrate(inner, 0.0, 1.0, 1e-9) / params[s].mu

    e1 = abs(c_nested(Identity()) - p_id.c)
    e2 = abs(c_nested(LogProduct()) - p_lp.c)
    out.append((
        "overshoot-constant-routes",
        e1 <= 1e-8 and e2 <= 1e-8,
        f"|region integral - single integral| identity {e1:.3e}, "
        f"logproduct {e2:.3e} (tol 1e-8)",
    ))

    sig_lp = (_E - 2.0) / _EM1 - 1.0 / (_EM1 * _EM1)
    e1 = abs(p_lp.sigma2 - sig_lp)
    e2 = abs(p_id.sigma2 - 1.0 / 12.0)
    out.append((
        "variance-analytic",
        e1 <= 1e-10 and e2 <= 1e-10,
        f"|sigma2_lp - {sig_lp:.12f}| = {e1:.3e}, |sigma2_id - 1/12| = {e2:.3e}",
    ))

    # mu two ways: integral of f, and 1 - integral of the inverse
    worst = 0.0
    worst_label = ""
    for s in _MENAGERIE:
        mu = params[s].mu
        mu_alt = 1.0 - integrate(lambda u: s._finv(u), 0.0, 1.0, 1e-11)
        if abs(mu - mu_alt) > worst:
            worst = abs(mu - mu_alt)
            worst_label = s.label
    out.append((
        "mean-by-parts",
        worst <= 2e-10,
        f"max |int f - (1 - int f^-1)| = {worst:.3e} at {worst_label} (tol 2e-10)",
    ))

    ok = all(0.0 < p.mu <= 1.0 and 0.0 < p.c <= 1.0 and p.sigma2 >= 0.0 for p in params.values())
    out.append((
        "params-in-range",
        ok,
        "; ".join(f"{s.label}: mu={p.mu:.6f} c={p.c:.6f}" for s, p in params.items()),
    ))
    return out


# ---------------------------------------------------------------------- solver


def _checks_solver(step, t_max, step_limit):
    out = []
    hi = min(t_max, 10.0)
    curves = [
        solver.solve(s, hi, step, step_limit=step_limit)
        for s in (Identity(), LogProduct(), Power(2.0), Power(0.5))
    ]
    c_id, c_lp = curves[:2]
    params = {c.transform: asymptotic_params(c.transform) for c in curves}

    # pinned at the default-step acceptance level on purpose: coarse steps fail here
    checkpoints = np.linspace(0.0, 2.0, 200)
    tol = 1e-5
    for name, curve, exact in (
        ("solver-vs-product-form", c_lp, closed_forms.product_count),
        ("solver-vs-sum-count", c_id, closed_forms.uniform_sum_count),
    ):
        exact_values = [exact(t) for t in checkpoints.tolist()]
        worst = float(np.max(np.abs(solver.eval_curve(curve, checkpoints) - exact_values)))
        out.append((
            name,
            worst <= tol,
            f"max |solver - closed form| over 200 points on [0,2] = {worst:.3e} "
            f"(tol {tol:g} at step {step:g})",
        ))

    ok = all(bool(np.all(np.diff(c.values) > 0.0)) for c in curves)
    out.append((
        "curve-monotone",
        ok,
        "marched values strictly increase for identity, logproduct, power:0.5, power:2",
    ))

    bad = ""
    for c in curves:
        mu = params[c.transform].mu
        g = c.grid
        v = c.values
        lo_ok = bool(np.all(v * mu > g - 1e-12)) and bool(np.all(v[1:] * mu > g[1:]))
        hi_ok = bool(np.all(v * mu <= g + 1.0 + 1e-9))
        if not (lo_ok and hi_ok):
            bad = bad or f"bracket violated for {c.transform.label}"
    out.append((
        "mean-bracket-grid",
        not bad,
        bad or f"t/mu < N(t) <= (t+1)/mu at every grid node to t_max={hi:g}, 4 transforms",
    ))

    margin = float(np.min(c_id.values - c_lp.values))
    out.append((
        "domination-grid",
        margin >= -1e-9,
        f"min (identity curve - logproduct curve) on shared grid = {margin:.3e}",
    ))

    # derivative identity for the product-form curve; identity-curve input must be rejected
    ts = [t for t in (1.5, 2.5, 5.0, hi - 2.0 * step) if 1.0 + step <= t <= hi - step]
    worst = max(solver.check_derivative_relation(c_lp, t) for t in ts)
    try:
        solver.check_derivative_relation(c_id, 1.5)
        rejected = False
    except DomainError:
        rejected = True
    out.append((
        "derivative-identity",
        worst <= 1e-4 and rejected,
        f"max residual {worst:.3e} (tol 1e-4); wrong-transform rejection: {rejected}",
    ))

    (g_id_hi, g_id_lo), (g_lp_hi, g_lp_lo) = (
        [solver.asymptote_gap(c, params[c.transform], t) for t in (hi, 2.0)]
        for c in (c_id, c_lp)
    )
    ok = (
        abs(g_id_hi) < 1e-3
        and abs(g_lp_hi) < 1e-3
        and abs(g_id_hi) < abs(g_id_lo)
        and abs(g_lp_hi) < abs(g_lp_lo)
    )
    out.append((
        "asymptote-approach",
        ok,
        f"gaps at t={hi:g}: identity {g_id_hi:.2e}, logproduct {g_lp_hi:.2e} "
        f"(< 1e-3 and smaller than at t=2: {g_id_lo:.2e}, {g_lp_lo:.2e})",
    ))

    rng = np.random.default_rng(0)
    budget = 5.0 * solver.marching_tolerance(step)
    worst = max(
        float(np.max(solver.self_consistency_residual(c, rng.uniform(0.05, hi, 100))))
        for c in (c_id, c_lp)
    )
    out.append((
        "self-consistency",
        worst <= budget,
        f"max |N(t) - 1 - int N(t - f(w)) dw| over 200 random t = {worst:.3e} "
        f"(tol {budget:.3e})",
    ))
    return out


# ------------------------------------------------------------------ simulation


def _checks_simulation(samples, seed, workers):
    out = []
    lp = BUILTIN_TRANSFORMS["logproduct"]
    ident = BUILTIN_TRANSFORMS["identity"]
    p_lp = asymptotic_params(lp)

    ok = True
    parts = []
    for spec, exact in (
        (lp, closed_forms.product_count(1.0)),
        (ident, closed_forms.uniform_sum_count(1.0)),
    ):
        est = montecarlo.estimate_n(spec, 1.0, samples, seed, workers)
        dev = abs(est.mean - exact)
        lim = 3.0 * est.std_error
        ok = ok and dev <= lim
        # the detail names the 3se bound once, on its first half
        bound = "" if parts else "3se = "
        parts.append(
            f"{spec.label} t=1: |{est.mean:.6f} - {exact:.6f}| = {dev:.2e} <= {bound}{lim:.2e}"
        )
    out.append(("sim-vs-exact", ok, "; ".join(parts)))

    # stopped sum = mu * expected count, on shared sample paths
    paths = montecarlo.simulate(lp, 5.0, samples, seed, workers)
    ek, es = paths.count_estimate(), paths.stopped_sum_estimate()
    dev = abs(ek.mean - es.mean / p_lp.mu)
    lim = 3.0 * math.hypot(ek.std_error, es.std_error / p_lp.mu)
    out.append((
        "stopped-sum-proportionality",
        dev <= lim,
        f"|mean count - mean sum / mu| = {dev:.2e} <= {lim:.2e} (t=5, shared paths)",
    ))

    viol, total = montecarlo.paired_domination(5.0, samples, seed, workers)
    out.append((
        "paired-domination",
        viol == 0,
        f"{viol} of {total} coupled paths finished the larger-increment sum later (expect 0)",
    ))

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
    out.append(("overshoot-limit-density", ok, "; ".join(detail) + " (band 4 sigma, t=20)"))

    # mean overshoot approaches the overshoot constant c
    es = lp20.stopped_sum_estimate()
    dev = abs((es.mean - 20.0) - p_lp.c)
    lim = 3.0 * es.std_error
    out.append((
        "mean-overshoot-vs-c",
        dev <= lim,
        f"|mean overshoot - c| = {dev:.2e} <= 3se = {lim:.2e} (t=20)",
    ))

    frac = montecarlo.k_concentration_check(
        lp, 25.0, max(samples // 5, 10_000), 6.0, seed, workers
    )
    out.append((
        "count-concentration",
        frac < 1e-3,
        f"fraction of paths with |count - 1 - t/mu| > 6 sqrt(t) at t=25: {frac:.2e} (< 1e-3)",
    ))

    n_small = max(samples // 50, 2_000)
    a = montecarlo.estimate_n(lp, 2.0, n_small, seed, workers)
    b = montecarlo.estimate_n(lp, 2.0, n_small, seed, workers)
    c2 = montecarlo.estimate_n(lp, 2.0, n_small, seed + 1, workers)
    ok = a.mean == b.mean and a.std_error == b.std_error and a.mean != c2.mean
    out.append((
        "reproducibility",
        ok,
        f"same seed bit-identical: {a.mean == b.mean and a.std_error == b.std_error}; "
        f"different seed differs: {a.mean != c2.mean}",
    ))

    v1 = montecarlo.chernoff_bound(100.0, 0.5)
    ref = 2.0 * math.exp(-10.0)
    ok = (
        montecarlo.chernoff_bound(100.0, 0.1) == 1.0
        and abs(v1 - ref) <= 1e-15
        and montecarlo.chernoff_bound(100.0, 1.0) < v1 < montecarlo.chernoff_bound(100.0, 0.3)
    )
    out.append((
        "tail-bound-shape",
        ok,
        f"clamped to 1 in the small-deviation regime; bound(100, 0.5) = {v1:.6e} "
        f"= 2e^-10; strictly decreasing in the deviation",
    ))
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
    solver suite honors ``step`` in (0, 0.1] and ``t_max`` in [3, 100]; the
    simulation suite honors ``samples``, ``seed``, ``workers``.  Steps above
    the solver's normal limit of 0.01 are accepted here so accuracy
    degradation can be demonstrated; expect solver-suite failures when you
    do that.
    """
    if suites is None:
        chosen = list(SUITES)
    else:
        chosen = list(dict.fromkeys(suites))
        for s in chosen:
            if s not in SUITES:
                raise DomainError(f"unknown suite {s!r}; choose from {', '.join(SUITES)}")
    step = _as_real("step", step, 0.0, 0.1, open_lo=True)
    t_max = _as_real("t_max", t_max, 3.0, 100.0)
    samples = _as_int("samples", samples, 1000)

    # built per call, so the ``_checks_<suite>`` functions are looked up when run
    runs = {
        "closed-forms": (_checks_closed_forms, ()),
        "bijections": (_checks_bijections, ()),
        "solver": (_checks_solver, (step, t_max, max(step, 0.01))),
        "simulation": (_checks_simulation, (samples, seed, workers)),
    }
    results = []
    for suite in chosen:
        checks, args = runs[suite]
        results.extend(
            CheckResult(name=name, suite=suite, passed=bool(passed), detail=detail)
            for name, passed, detail in checks(*args)
        )
    return results
