"""Acceptance gate: the agreed pass/fail bar for the whole package.

Each test prints one PASS/FAIL line (visible because the suite runs with
capture off).  Tolerances here are contractual; do not loosen them to make
a failing build green.
"""

import math
import time

import numpy as np
from click.testing import CliRunner

import renewal as rw
from renewal.cli import main as cli_main

E = math.e
EM1 = math.e - 1.0
SAMPLES_BIG = 10**7
SAMPLES_MED = 10**6


def _report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, detail


def test_criterion_01_uniform_sum_count_at_one():
    # expected count for plain uniforms at t = 1 equals e, by solver and
    # by simulation, each route within budgeted time
    t0 = time.monotonic()
    curve = rw.solve(rw.Identity(), 1.5)
    solver_err = abs(rw.eval_curve(curve, 1.0) - E)
    t_solve = time.monotonic() - t0

    t0 = time.monotonic()
    est = rw.estimate_n(rw.Identity(), 1.0, SAMPLES_BIG, seed=42)
    t_sim = time.monotonic() - t0
    sim_dev = abs(est.mean - E)

    ok = (
        solver_err <= 1e-5
        and sim_dev <= 3.0 * est.std_error
        and t_solve < 60.0
        and t_sim < 60.0
    )
    _report(
        1,
        ok,
        f"uniform-sum count(1) = e: solver err {solver_err:.2e} (tol 1e-5, "
        f"{t_solve:.1f}s), sim dev {sim_dev:.2e} <= 3se {3*est.std_error:.2e} "
        f"({t_sim:.1f}s, n=1e7)",
    )


def test_criterion_02_product_count_at_one():
    exact = rw.product_count(1.0)
    exact_err = abs(exact - 2.421692955670391)

    t0 = time.monotonic()
    curve = rw.solve(rw.LogProduct(), 1.5)
    solver_err = abs(rw.eval_curve(curve, 1.0) - exact)
    t_solve = time.monotonic() - t0

    t0 = time.monotonic()
    est = rw.estimate_n(rw.LogProduct(), 1.0, SAMPLES_BIG, seed=42)
    t_sim = time.monotonic() - t0
    sim_dev = abs(est.mean - exact)

    ok = (
        exact_err <= 1e-12
        and solver_err <= 1e-5
        and sim_dev <= 3.0 * est.std_error
        and t_solve < 60.0
        and t_sim < 60.0
    )
    _report(
        2,
        ok,
        f"product count(1): closed form dev {exact_err:.1e}, solver err "
        f"{solver_err:.2e} (tol 1e-5, {t_solve:.1f}s), sim dev {sim_dev:.2e} "
        f"<= 3se {3*est.std_error:.2e} ({t_sim:.1f}s, n=1e7)",
    )


def test_criterion_03_solver_matches_closed_forms(identity_curve, logproduct_curve):
    ts = np.linspace(0.0, 2.0, 200)
    err_lp = max(
        abs(rw.eval_curve(logproduct_curve, float(t)) - rw.product_count(float(t)))
        for t in ts
    )
    err_id = max(
        abs(rw.eval_curve(identity_curve, float(t)) - rw.uniform_sum_count(float(t)))
        for t in ts
    )
    ok = err_lp <= 1e-5 and err_id <= 1e-5
    _report(
        3,
        ok,
        f"solver vs closed forms, 200 checkpoints on [0,2]: logproduct "
        f"{err_lp:.2e}, identity {err_id:.2e} (tol 1e-5)",
    )


def test_criterion_04_series_weight_recurrence():
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 100):
        t = float(t)
        for n in range(30):
            lhs = rw.exp_tail_weight(t, n + 1) + rw.exp_tail_weight(t, n)
            rhs = math.exp(t) * t**n / math.factorial(n)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    _report(
        4,
        ok,
        f"tail-weight recurrence on 100-point grid, n <= 30: max residual "
        f"{worst:.2e} (tol 1e-12)",
    )


def test_criterion_05_asymptote_approach(identity_curve, logproduct_curve):
    pairs = (
        (identity_curve, rw.asymptotic_params(rw.Identity())),
        (logproduct_curve, rw.asymptotic_params(rw.LogProduct())),
    )
    gaps = []
    ok = True
    for curve, params in pairs:
        g10 = rw.asymptote_gap(curve, params, 10.0)
        g2 = rw.asymptote_gap(curve, params, 2.0)
        gaps.append(f"{curve.transform.label}: |gap(10)| {abs(g10):.2e} vs |gap(2)| {abs(g2):.2e}")
        ok = ok and abs(g10) < 1e-3 and abs(g10) < abs(g2)
    _report(5, ok, "asymptote gaps at t=10 under 1e-3 and shrinking: " + "; ".join(gaps))


def test_criterion_06_overshoot_constants():
    c_id = rw.asymptotic_params(rw.Identity()).c
    c_lp = rw.asymptotic_params(rw.LogProduct()).c
    e1 = abs(c_id - 1.0 / 3.0)
    e2 = abs(c_lp - (E - 2.0) / 2.0)
    ok = e1 <= 1e-10 and e2 <= 1e-10
    _report(
        6,
        ok,
        f"quadrature overshoot constants: |c_id - 1/3| = {e1:.2e}, "
        f"|c_lp - (e-2)/2| = {e2:.2e} (tol 1e-10)",
    )


def test_criterion_07_mean_bracket_all_transforms(
    identity_curve, logproduct_curve, power2_curve, power05_curve
):
    ok = True
    labels = []
    for curve in (identity_curve, logproduct_curve, power2_curve, power05_curve):
        mu = rw.asymptotic_params(curve.transform).mu
        g = curve.grid
        v = curve.values
        lower = bool(np.all(v * mu > g - 1e-12)) and bool(np.all(v[1:] * mu > g[1:]))
        upper = bool(np.all(v * mu <= g + 1.0 + 1e-9))
        ok = ok and lower and upper
        labels.append(f"{curve.transform.label} {'ok' if lower and upper else 'VIOLATED'}")
    _report(
        7,
        ok,
        "t/mu < N(t) <= (t+1)/mu at every grid node to t=10: " + ", ".join(labels),
    )


def test_criterion_08_domination(identity_curve, logproduct_curve):
    margin = float(np.min(identity_curve.values - logproduct_curve.values))
    viol, total = rw.paired_domination(5.0, SAMPLES_MED, seed=42)
    ok = margin >= -1e-9 and viol == 0
    _report(
        8,
        ok,
        f"larger increments never need more draws: curve margin {margin:.2e} "
        f">= -1e-9; coupled-path violations {viol}/{total}",
    )


def test_criterion_09_overshoot_distributions():
    bins = 50
    details = []
    ok = True
    for spec, bin_prob in (
        (rw.Identity(), lambda a, b: 2.0 * (b - a) - (b * b - a * a)),
        (rw.LogProduct(), lambda a, b: E * (b - a) - (math.exp(b) - math.exp(a))),
    ):
        hist = rw.overshoot_histogram(spec, 20.0, SAMPLES_MED, bins, seed=42)
        edges = hist.bin_edges
        counts = hist.densities * (SAMPLES_MED / bins)
        worst_z = 0.0
        for i in range(bins):
            p = bin_prob(float(edges[i]), float(edges[i + 1]))
            expect = SAMPLES_MED * p
            band = 4.0 * math.sqrt(SAMPLES_MED * p * (1.0 - p))
            z = abs(counts[i] - expect) / (band / 4.0)
            worst_z = max(worst_z, z)
            if abs(counts[i] - expect) > band:
                ok = False
        details.append(f"{spec.label} worst bin {worst_z:.2f} sigma")
    _report(
        9,
        ok,
        f"overshoot histograms at t=20 (1e6 paths, 50 bins) inside 4-sigma "
        f"bands of the limiting density: " + ", ".join(details),
    )


def test_criterion_10_stopped_sum_proportionality():
    ok = True
    worst = 0.0
    for spec in (rw.Identity(), rw.LogProduct(), rw.Power(2.0)):
        mu = rw.asymptotic_params(spec).mu
        for t in (1.0, 5.0, 20.0):
            # one pass per path set; both estimates are views of its record
            paths = rw.simulate(spec, t, SAMPLES_MED, seed=42)
            ek, es = paths.count_estimate(), paths.stopped_sum_estimate()
            dev = abs(ek.mean - es.mean / mu)
            lim = 3.0 * math.hypot(ek.std_error, es.std_error / mu)
            worst = max(worst, dev / lim)
            if dev > lim:
                ok = False
    _report(
        10,
        ok,
        f"mean count == mean stopped sum / mu for three transforms at "
        f"t in (1, 5, 20), 1e6 paths: worst deviation {worst:.2f} of its 3se budget",
    )


def test_criterion_11_cli_byte_identical():
    runner = CliRunner()
    arg_sets = [
        ["exact", "--target", "product", "-t", "1.25"],
        ["solve", "--spec", "logproduct", "--t-max", "1", "--step", "0.005"],
        ["simulate", "-t", "2", "--samples", "30000", "--workers", "2"],
        ["overshoot", "-t", "2", "--samples", "20000", "--bins", "20"],
        ["asympt", "--spec", "power:2", "-t", "4"],
    ]
    ok = True
    for args in arg_sets:
        a = runner.invoke(cli_main, args)
        b = runner.invoke(cli_main, args)
        if a.exit_code != 0 or a.stdout != b.stdout:
            ok = False
            break
    _report(
        11,
        ok,
        f"repeat CLI invocations byte-identical across {len(arg_sets)} command forms",
    )
