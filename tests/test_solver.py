import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import renewal as rw
import renewal.bijections as bij
import renewal.solver as solver
from renewal.bijections import ConvergenceError, DomainError, from_knot_file, integrate
from renewal.cli import main
from renewal.closed_forms import product_count, uniform_sum_count
from renewal.solver import (
    RenewalCurve,
    asymptote_gap,
    check_derivative_relation,
    curve_json_payload,
    eval_curve,
    marching_tolerance,
    self_consistency_residual,
    solve,
    write_curve_csv,
    _final_slopes,
    _panel_weights,
)
from renewal.verification import _MENAGERIE

E = math.e


def test_marching_tolerance_scale():
    assert marching_tolerance(1e-3) == pytest.approx(1e-5)
    assert marching_tolerance(1e-2) == pytest.approx(1e-3)


class TestAccuracy:
    def test_identity_matches_sum_count(self, identity_curve):
        ts = np.linspace(0.0, 2.0, 200)
        err = max(abs(eval_curve(identity_curve, float(t)) - uniform_sum_count(float(t)))
                  for t in ts)
        assert err <= 1e-5

    def test_logproduct_matches_product_count(self, logproduct_curve):
        ts = np.linspace(0.0, 2.0, 200)
        err = max(abs(eval_curve(logproduct_curve, float(t)) - product_count(float(t)))
                  for t in ts)
        assert err <= 1e-5

    def test_accuracy_survives_the_slope_kink(self, logproduct_curve):
        # the curve's derivative jumps where t passes the largest increment;
        # interpolation quality must not collapse in that neighborhood
        ts = np.linspace(0.995, 1.005, 101)
        err = max(abs(eval_curve(logproduct_curve, float(t)) - product_count(float(t)))
                  for t in ts)
        assert err <= 1e-5

    def test_exact_at_nodes(self, logproduct_curve):
        for j in (0, 1, 17, 5000, 10000):
            t = float(logproduct_curve.grid[j])
            assert eval_curve(logproduct_curve, t) == logproduct_curve.values[j]

    def test_start_value(self, identity_curve):
        assert identity_curve.values[0] == 1.0
        assert eval_curve(identity_curve, 0.0) == 1.0

    def test_interpolant_monotone(self, logproduct_curve):
        t = np.sort(np.random.default_rng(7).uniform(0.0, 10.0, 5000))
        v = eval_curve(logproduct_curve, t)
        assert np.all(np.diff(v) >= 0.0)

    def test_coarse_step_degrades_honestly(self):
        curve = solve(rw.LogProduct(), 2.0, 5e-2, step_limit=0.1)
        ts = np.linspace(0.0, 2.0, 200)
        err = max(abs(eval_curve(curve, float(t)) - product_count(float(t))) for t in ts)
        assert err > 1e-5  # coarse grids must not silently look accurate
        assert err <= marching_tolerance(5e-2)


def _node_error(spec, exact, step):
    """Max error of the solved nodes on [0, 2] against a closed form."""
    curve = solve(spec, 2.0, step)
    sel = curve.grid <= 2.0
    return max(abs(v - exact(float(t))) for t, v in zip(curve.grid[sel], curve.values[sel]))


_CLOSED_FORMS = [(rw.Identity(), uniform_sum_count), (rw.LogProduct(), product_count)]


class TestConvergenceOrder:
    """With its breaking points on grid nodes the march is fourth order, but
    for the two nodes after each breaking point, which are third order."""

    @pytest.mark.parametrize(
        "spec, exact, worst",
        [(rw.Identity(), uniform_sum_count, 2), (rw.LogProduct(), product_count, 1)],
        ids=["identity", "logproduct"],
    )
    def test_order_ladder(self, spec, exact, worst):
        # h = 1/100 ... 1/800: the max node error on [0, 2] sits on the
        # second node after t = 0 (identity) or the first after t = 1
        # (logproduct) and shrinks about 8x per halving; on [1.1, 2] it
        # shrinks about 16x
        errs = []
        for k in range(4):
            curve = solve(spec, 2.0, 1.0 / (100 * 2**k))
            t = curve.grid
            err = np.abs(curve.values - [exact(float(x)) for x in t])
            at = 2 if worst == 2 else round(1.0 / curve.step) + 1
            assert int(np.argmax(err)) == at
            errs.append((err.max(), err[t >= 1.1].max()))
        for (e0, l0), (e1, l1) in zip(errs, errs[1:]):
            assert e0 / e1 >= 7.0 and l0 / l1 >= 14.0

    @pytest.mark.parametrize("spec, exact", _CLOSED_FORMS, ids=["identity", "logproduct"])
    def test_node_error_at_default_step(self, spec, exact):
        assert _node_error(spec, exact, 1e-3) <= 1e-9

    @pytest.mark.parametrize("spec, exact", _CLOSED_FORMS, ids=["identity", "logproduct"])
    def test_halving_step_shrinks_error_sixfold(self, spec, exact):
        # second order would shrink it 4x, third order 8x (the max error
        # sits right after a breaking point)
        ratio = _node_error(spec, exact, 5e-3) / _node_error(spec, exact, 2.5e-3)
        assert ratio >= 6.0

    def test_knot_breaking_points(self):
        # every knot y is a node at this step, so the march splits its
        # stencils there and meets the exact line (t + c) / mu
        knots = ((0.0, 0.0), (0.4, 0.25), (0.7, 0.625), (1.0, 1.0))
        x, y = np.array(knots).T
        dx = np.diff(x)
        # E f(X) and E f(X)^2 piece by piece, exact for linear pieces
        mu = np.sum(dx * (y[:-1] + y[1:]) / 2.0)
        c = np.sum(dx * (y[:-1] ** 2 + y[:-1] * y[1:] + y[1:] ** 2) / 3.0) / (2.0 * mu)
        curve = solve(rw.PiecewiseLinear(knots), 30.0, 2.5e-3)
        t = curve.grid
        sel = (t >= 20.0) & (t <= 30.0)
        assert np.max(np.abs(curve.values[sel] - (t[sel] + c) / mu)) <= 1e-8


def _panel_weights_per_call(spec, h):
    """The panel weights from one ``integrate`` call per panel and basis."""
    n_pan = math.ceil(1.0 / h - 1e-12)
    sig = np.minimum(np.arange(n_pan + 1) * h, 1.0)
    sig[-1] = 1.0
    seams = np.asarray(spec._finv(sig), dtype=float)
    hermite = (
        lambda u: (2.0 * u - 3.0) * u * u + 1.0,
        lambda u: (3.0 - 2.0 * u) * u * u,
        lambda u: u * (1.0 - u) ** 2,
        lambda u: -u * u * (1.0 - u),
    )
    p = np.zeros((n_pan, 4))
    for m in range(1, n_pan):
        for j, fn in enumerate(hermite):
            p[m, j] = integrate(
                lambda w: fn((m + 1.0) - spec._f(w) / h), seams[m], seams[m + 1], 1e-13
            )
    lagrange = (
        lambda th: 0.5 * th * (th - 1.0),
        lambda th: th * (2.0 - th),
        lambda th: 0.5 * (th - 1.0) * (th - 2.0),
        lambda th: th,
        lambda th: 1.0 - th,
    )
    first = [integrate(lambda w: fn(spec._f(w) / h), 0.0, seams[1], 1e-13) for fn in lagrange]
    return p, first


_KNOTS_TXT = from_knot_file(Path(__file__).parents[1] / "perfbench" / "knots.txt")
_WEIGHT_SPECS = [pytest.param(s, id=s.label) for s in _MENAGERIE]
_WEIGHT_SPECS.append(pytest.param(_KNOTS_TXT, id="knots.txt"))


class TestPanelWeights:
    """All panel weights of a solve come from one batched quadrature call."""

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    @pytest.mark.parametrize("spec", _WEIGHT_SPECS)
    def test_match_per_panel_integrals(self, spec, h):
        p, (a0, a1, a2), (b0, b1) = _panel_weights(spec, h)
        want_p, want_first = _panel_weights_per_call(spec, h)
        assert np.max(np.abs(p - want_p)) <= 1e-17
        assert np.max(np.abs(np.array([a0, a1, a2, b0, b1]) - want_first)) <= 1e-17
        assert all(type(w) is float for w in (a0, a1, a2, b0, b1))

    @pytest.mark.parametrize(
        "spec, rounds",
        [(rw.Identity(), 1), (rw.LogProduct(), 1), (_KNOTS_TXT, 1), (rw.Power(0.5), 8)],
        ids=["identity", "logproduct", "knots.txt", "power:0.5"],
    )
    def test_rounds(self, monkeypatch, spec, rounds):
        # power:0.5's first panel is singular at w = 0: graded, not bisected 40 times
        calls = []
        quad = solver._quad

        def spy(g, *args, **kwargs):
            def counted(x, j):
                calls.append(x.shape[0])
                return g(x, j)

            return quad(counted, *args, **kwargs)

        monkeypatch.setattr(solver, "_quad", spy)
        _panel_weights(spec, 1e-2)
        assert len(calls) <= rounds

    @pytest.mark.parametrize("spec", [rw.Power(0.5), _KNOTS_TXT], ids=["power:0.5", "knots.txt"])
    def test_chunk_size_does_not_change_them(self, monkeypatch, spec):
        # power:0.5 grades its first panel; the knots split panels
        one = _panel_weights(spec, 1e-2)
        monkeypatch.setattr(bij, "_CHUNK", 7)
        small = _panel_weights(spec, 1e-2)
        assert np.array_equal(one[0], small[0]) and one[1:] == small[1:]


class TestSlopeHandOver:
    """A solved curve and one rebuilt from its values interpolate alike."""

    @pytest.mark.parametrize(
        "spec, step",
        [
            (rw.Identity(), 1e-3),
            (rw.LogProduct(), 3e-3),  # t = 1 is not a node
            (rw.PiecewiseLinear(((0.0, 0.0), (0.3, 0.6), (1.0, 1.0))), 1e-3),
        ],
        ids=["identity", "logproduct-off-grid-kink", "piecewise"],
    )
    def test_rebuilt_curve_evaluates_identically(self, spec, step):
        curve = solve(spec, 3.0, step)
        rebuilt = RenewalCurve(spec, step, 3.0, curve.values)
        # one off-grid point in every panel, so every slope pair is read
        n = curve.n_panels
        off_grid = (np.arange(n) + np.random.default_rng(5).uniform(0.01, 0.99, n)) * step
        for t in (curve.grid, off_grid):
            assert np.array_equal(eval_curve(curve, t), eval_curve(rebuilt, t))


# -------------------------------------------------- the looped march, inline
# The march as it was before the FFT blocks: every step one dot product, and
# the slopes swept node by node.  It is the reference for the blocks, for the
# steps that still loop and for the vectorized final slopes.


def _update_slopes_ref(v, sl, sr, seg, hi):
    for i in range(max(seg, hi - 2), hi + 1):
        dl = v[i] - v[i - 1] if i > seg else v[i + 1] - v[i]
        if hi - seg == 1:
            m = dl
        elif i == seg:
            m = 0.5 * (-3.0 * v[i] + 4.0 * v[i + 1] - v[i + 2])
        elif i == hi:
            m = 0.5 * (3.0 * v[i] - 4.0 * v[i - 1] + v[i - 2])
        elif i == hi - 2 and i - 2 >= seg:
            m = (v[i - 2] - 8.0 * v[i - 1] + 8.0 * v[i + 1] - v[i + 2]) / 12.0
        else:
            m = 0.5 * (v[i + 1] - v[i - 1])
        sl[i] = m
        if i > seg:
            sr[i - 1] = m


def _slope_sweep_ref(v, sl, sr, breaks, n):
    seg = 0
    for hi in range(n + 1):
        if hi - 1 in breaks:
            seg = hi - 1
        if hi:
            _update_slopes_ref(v, sl, sr, seg, hi)
        if hi < n:
            yield hi, hi in breaks


def _looped_solve(spec, t_max, step, given=None):
    """Values and per-panel (left, right) slopes of the looped march.

    With ``given`` values, step hi reads given[0..hi] in place of its own
    earlier results, so values[hi + 1] is what a looped step makes of them.
    """
    n = math.ceil(t_max / step - 1e-12)
    breaks = {0}
    for b in spec._breaks:
        k = round(b / step)
        if 0 < k < n and abs(k * step - b) <= 1e-9:
            breaks.add(k)
    p, (a0, a1, a2), (b0, b1) = _panel_weights(spec, step)
    n_pan = p.shape[0]
    rows = np.zeros((n + 1, 4))
    rows[0, 0] = 1.0
    flat, wts = rows.reshape(-1), p[:0:-1].reshape(-1)
    sl, sr = rows[:, 2], rows[:, 3]
    v, out = [1.0], [1.0]
    for hi, after_break in _slope_sweep_ref(v, sl, sr, breaks, n):
        r = min(hi, n_pan - 1)
        # no BLAS: a threaded dot product sums in another order
        hist = float(np.einsum("i,i->", wts[wts.size - 4 * r :], flat[4 * (hi - r) : 4 * hi]))
        if after_break:
            val = (1.0 + hist + b0 * v[hi]) / (1.0 - b1)
        else:
            val = (1.0 + hist + a1 * v[hi] + a0 * v[hi - 1]) / (1.0 - a2)
        out.append(val)
        v.append(val if given is None else float(given[hi + 1]))
        rows[hi, 1] = rows[hi + 1, 0] = v[-1]
    return np.array(out), (sl[:n].copy(), sr[:n].copy())


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _march_calls(monkeypatch):
    """Record the steps of each looped stretch and the first step of each blocked one."""
    calls = {"loop": [], "tail": []}
    loop, tail = solver._loop, solver._tail

    def spy_loop(v, j, stop, *args):
        calls["loop"].append((j, stop))
        return loop(v, j, stop, *args)

    def spy_tail(v, start, stop, g, blocks):
        calls["tail"].append(start - blocks[3])  # the buffer holds k zeros before node 0
        return tail(v, start, stop, g, blocks)

    monkeypatch.setattr(solver, "_loop", spy_loop)
    monkeypatch.setattr(solver, "_tail", spy_tail)
    return calls


def _looped_steps(calls):
    return [hi for j, stop in calls["loop"] for hi in range(j, stop)]


def _assert_matches_the_loop(curve, values, slopes):
    assert np.max(np.abs(curve.values - values) / values) <= 1e-13
    # the curve stores the march's slopes boxed into [0, 3 * increment]; a
    # slope is a difference of nearby values, so it is held to 1e-13 of the
    # value at its node, not of itself
    box = 3.0 * np.diff(values)
    for got, want in zip(curve._slopes, slopes):
        assert np.max(np.abs(got - np.clip(want, 0.0, box)) / values[:-1]) <= 1e-13


def _assert_loop_is_the_reference(curve, calls):
    # every looped step makes of its history exactly what the looped march does
    stepped, _ = _looped_solve(curve.transform, curve.t_max, curve.step, given=curve.values)
    looped = np.array(_looped_steps(calls)) + 1
    assert np.array_equal(_bits(curve.values[looped]), _bits(stepped[looped]))


_OFF_GRID_KNOTS = rw.PiecewiseLinear(((0.0, 0.0), (0.3, 0.2137), (0.7, 0.6071), (1.0, 1.0)))
# f(X) is near 1/2 with probability 0.98 (density 49 on [0.49, 0.51]), so N
# rises in steps a half apart for long after t = 2
_HALF_STEPS = rw.PiecewiseLinear(((0.0, 0.0), (0.01, 0.49), (0.99, 0.51), (1.0, 1.0)))
_TAIL_CASES = [
    pytest.param(rw.Identity(), 1e-2, 100.0, id="identity"),
    pytest.param(rw.LogProduct(), 1e-2, 100.0, id="logproduct"),
    pytest.param(rw.Power(0.5), 1e-2, 100.0, id="power:0.5"),
    pytest.param(_KNOTS_TXT, 1e-2, 100.0, id="knots.txt"),
    pytest.param(rw.Power(5.0), 1e-2, 100.0, id="power:5"),
    pytest.param(rw.LogProduct(), 1e-3, 20.0, id="logproduct-1e-3"),
    pytest.param(rw.LogProduct(), 3e-3, 100.0, id="logproduct-t1-off-grid"),
    pytest.param(_OFF_GRID_KNOTS, 1e-2, 100.0, id="off-grid-knot-ys"),
]


class TestTail:
    """One march from node 0: looped steps at each breaking node, FFT blocks between."""

    @pytest.mark.parametrize("spec, step, t_max", _TAIL_CASES)
    def test_matches_the_loop(self, monkeypatch, spec, step, t_max):
        calls = _march_calls(monkeypatch)
        curve = solve(spec, t_max, step)
        assert calls["tail"] and calls["tail"][0] == 3  # the blocks start at node 3
        _assert_matches_the_loop(curve, *_looped_solve(spec, t_max, step))
        _assert_loop_is_the_reference(curve, calls)

    @pytest.mark.parametrize(
        "spec, step, breaks",
        [
            (rw.Identity(), 1e-2, 2),
            (rw.LogProduct(), 1e-2, 2),
            (rw.LogProduct(), 3e-3, 1),  # t = 1 is not a node
            (rw.Power(0.5), 1e-2, 2),
            (_KNOTS_TXT, 1e-2, 3),
        ],
        ids=["identity", "logproduct", "logproduct-t1-off-grid", "power:0.5", "knots.txt"],
    )
    def test_loops_three_steps_per_breaking_node(self, monkeypatch, spec, step, breaks):
        # the march reads unclamped slopes, so no step loops for a clip
        calls = _march_calls(monkeypatch)
        solve(spec, 30.0, step)
        assert len(_looped_steps(calls)) <= 3 * breaks
        assert len(calls["loop"]) <= breaks

    @pytest.mark.parametrize("step", [1e-3, 3e-3, 1e-2, 2.5e-3])
    def test_short_solves_match_the_loop(self, monkeypatch, step):
        calls = _march_calls(monkeypatch)
        curve = solve(rw.LogProduct(), 2.0, step)
        values, slopes = _looped_solve(rw.LogProduct(), 2.0, step)
        assert calls["tail"]
        _assert_matches_the_loop(curve, values, slopes)
        _assert_loop_is_the_reference(curve, calls)
        # the steps from node 0 loop before any block: bit for bit the loop's
        assert np.array_equal(_bits(curve.values[:4]), _bits(values[:4]))

    def test_output_does_not_depend_on_blas_threads(self):
        # at 12800 panels OpenBLAS splits a dot product across its threads;
        # the looped steps sum their history without BLAS
        code = (
            "import hashlib; from renewal.solver import solve; from renewal.bijections import Identity; "
            "print(hashlib.sha256(solve(Identity(), 2.0, 7.8125e-05).values.tobytes()).hexdigest())"
        )
        src = str(Path(solver.__file__).parents[1])
        out = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n},
                capture_output=True, text=True, check=True,
            ).stdout
            for n in ("1", "2")
        ]
        assert out[0] == out[1]


class TestSteepDensity:
    """A density of f(X) too steep for the step is refused, not marched into a wrong curve."""

    @pytest.mark.parametrize("step", [1e-2, 7e-3])
    def test_coarse_steps_are_refused(self, tmp_path, step):
        with pytest.raises(ConvergenceError, match="not strictly increasing at t = .*N falls"):
            solve(_HALF_STEPS, 10.0, step)
        knots = tmp_path / "half.txt"
        knots.write_text("".join(f"{x} {y}\n" for x, y in _HALF_STEPS.knots))
        args = ["solve", "--spec", str(knots), "--t-max", "10", "--step", str(step)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3
        assert "cannot resolve this transform" in result.output

    def test_a_resolving_step_is_within_the_envelope(self):
        # every knot y is a node of both grids
        fine = solve(_HALF_STEPS, 10.0, 1.25e-4)
        curve = solve(_HALF_STEPS, 10.0, 5e-3)
        tol = marching_tolerance(5e-3)
        assert np.max(np.abs(curve.values - fine.values[::40])) <= tol
        t = np.linspace(0.0, 10.0, 2001)
        assert np.max(np.abs(eval_curve(curve, t) - eval_curve(fine, t))) <= tol


class TestTailBlocks:
    """The FFT blocks solve any linear recurrence with a known forcing, whatever sum(c) is."""

    @pytest.mark.parametrize(
        "k, excess, forced",
        [
            pytest.param(5, 0.0, False, id="5-0.0"),
            pytest.param(40, 3e-4, False, id="40-0.0003"),
            pytest.param(700, -2e-3, False, id="700--0.002"),
            pytest.param(40, 3e-4, True, id="40-0.0003-forced"),
        ],
    )
    def test_match_the_recurrence_step_by_step(self, k, excess, forced):
        rng = np.random.default_rng(k)
        c = rng.uniform(0.0, 1.0, k)
        c *= (1.0 + excess) / c.sum()
        start = k + 3
        v = np.empty(start + 3000)
        v[: start + 1] = 1.0 + np.cumsum(rng.uniform(0.5, 1.0, start + 1))
        g = rng.uniform(-0.1, 0.1, v.shape[0]) if forced else np.zeros(v.shape[0])
        want = v.copy()
        for j in range(start, want.shape[0] - 1):
            want[j + 1] = math.fsum([0.7, g[j], *(c * want[j::-1][:k])])
        blocks = solver._blocks(0.7, c, math.fsum([*c, -1.0]))
        solver._tail(v, start, v.shape[0] - 1, g, blocks)
        assert np.max(np.abs(v - want) / want) <= 1e-13


class TestFinalSlopes:
    """One vectorized pass gives the slopes the node-by-node sweep leaves."""

    @settings(max_examples=300, deadline=None)
    @given(
        inc=st.lists(st.floats(-1.0, 4.0, allow_nan=False), min_size=1, max_size=40),
        cuts=st.sets(st.integers(1, 39), max_size=8),
        step=st.sampled_from([1e-3, 0.25]),
    )
    def test_bit_identical_to_the_sweep(self, inc, cuts, step):
        v = np.concatenate([[1.0], 1.0 + np.cumsum(inc)])
        n = v.shape[0] - 1
        breaks = sorted({0} | {k for k in cuts if k < n})
        sl, sr = np.empty(n + 1), np.empty(n + 1)
        for _ in _slope_sweep_ref(v.tolist(), sl, sr, set(breaks), n):
            pass
        got = _final_slopes(v, breaks)
        assert np.array_equal(_bits(got[0]), _bits(sl[:n]))
        assert np.array_equal(_bits(got[1]), _bits(sr[:n]))

    def test_rebuilding_a_long_curve_is_fast(self):
        curve = solve(rw.LogProduct(), 100.0, 1e-3)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            RenewalCurve(curve.transform, curve.step, curve.t_max, curve.values)
            best = min(best, time.perf_counter() - t0)
        assert curve.values.shape[0] > 10**5 and best < 0.02


def _assert_monotone_in_its_box(curve):
    """Stored slopes in [0, 3 * increment]; eval_curve non-decreasing at 9 points per panel."""
    v = curve.values
    box = 3.0 * np.diff(v)
    for m in curve._slopes:
        assert np.all((m >= 0.0) & (m <= box))
    n = curve.n_panels
    inner = eval_curve(curve, ((np.arange(n)[:, None] + np.arange(1, 10) / 10.0) * curve.step).ravel())
    path = np.column_stack([v[:-1], inner.reshape(n, 9)]).ravel()
    assert np.all(np.diff(np.append(path, v[-1])) >= 0.0)


class TestMonotoneInterpolant:
    """The curve boxes each panel's slopes (Fritsch & Carlson 1980), so eval_curve is monotone."""

    @settings(max_examples=200, deadline=None)
    @given(
        inc=st.lists(st.sampled_from([1e-6, 5.0, 0.3, 1.0]), min_size=1, max_size=60),
        cuts=st.sets(st.integers(1, 31), max_size=6),
    )
    def test_random_values(self, inc, cuts):
        # knot ys at multiples of the step put breaking nodes at the cuts
        step = 1.0 / 32.0
        ys = sorted(k * step for k in cuts)
        knots = ((0.0, 0.0), *((y, y) for y in ys), (1.0, 1.0))
        values = np.concatenate([[1.0], 1.0 + np.cumsum(inc)])
        n = values.shape[0] - 1
        _assert_monotone_in_its_box(RenewalCurve(rw.PiecewiseLinear(knots), step, n * step, values))

    @pytest.mark.parametrize(
        "spec, boxed",
        # power:0.5's node 0 has a slightly negative stencil slope; power:5's
        # final slopes need no box
        [(rw.Power(5.0), [[], []]), (rw.Power(0.5), [[0], []])],
        ids=["power:5", "power:0.5"],
    )
    def test_singular_starts(self, spec, boxed):
        curve = solve(spec, 30.0, 1e-2)
        _assert_monotone_in_its_box(curve)
        raw = _final_slopes(curve.values, solver._break_nodes(spec, 1e-2, curve.n_panels))
        assert [np.flatnonzero(got != want).tolist() for got, want in zip(curve._slopes, raw)] == boxed


class TestSolveValidation:
    def test_bad_t_max(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                solve(rw.Identity(), bad)

    def test_step_limit_enforced(self):
        with pytest.raises(DomainError, match="step"):
            solve(rw.Identity(), 2.0, 0.02)

    def test_step_limit_relaxable(self):
        curve = solve(rw.Identity(), 2.0, 0.05, step_limit=0.1)
        assert curve.step == 0.05

    def test_grid_point_cap(self):
        with pytest.raises(DomainError, match="cap"):
            solve(rw.Identity(), 1e4, 1e-5)

    def test_arbitrary_transform_supported(self):
        spec = rw.PiecewiseLinear(((0.0, 0.0), (0.3, 0.6), (1.0, 1.0)))
        curve = solve(spec, 2.0, 5e-3)
        assert self_consistency_residual(curve, 1.37) <= 5.0 * marching_tolerance(5e-3)


class TestCurveObject:
    def test_grid_and_panels(self, identity_curve):
        assert identity_curve.n_panels == 10000
        g = identity_curve.grid
        assert g[0] == 0.0 and g[-1] == pytest.approx(10.0, abs=1e-9)

    def test_values_read_only(self, identity_curve):
        with pytest.raises(ValueError):
            identity_curve.values[3] = 99.0

    def test_validation(self):
        with pytest.raises(DomainError, match="exactly 1"):
            RenewalCurve(rw.Identity(), 0.5, 1.0, np.array([2.0, 3.0, 4.0]))
        with pytest.raises(DomainError, match="increasing"):
            RenewalCurve(rw.Identity(), 0.5, 1.0, np.array([1.0, 3.0, 2.0]))
        with pytest.raises(DomainError, match="t_max"):
            RenewalCurve(rw.Identity(), 0.5, 9.0, np.array([1.0, 2.0, 3.0]))


class TestEvalDomain:
    def test_out_of_range(self, identity_curve):
        with pytest.raises(DomainError):
            eval_curve(identity_curve, -0.001)
        with pytest.raises(DomainError):
            eval_curve(identity_curve, 10.001)

    def test_array_and_scalar(self, identity_curve):
        arr = eval_curve(identity_curve, np.array([0.0, 1.0, 2.0]))
        assert arr.shape == (3,)
        assert isinstance(eval_curve(identity_curve, 1.0), float)

    def test_endpoint_evaluates(self, identity_curve):
        assert eval_curve(identity_curve, 10.0) == identity_curve.values[-1]


class TestDerivativeIdentity:
    def test_residual_small(self, logproduct_curve):
        for t in (1.5, 2.5, 5.0, 8.0):
            assert check_derivative_relation(logproduct_curve, t) <= 1e-4

    def test_rejects_other_transforms(self, identity_curve):
        with pytest.raises(DomainError, match="logproduct"):
            check_derivative_relation(identity_curve, 2.0)

    def test_rejects_t_outside_window(self, logproduct_curve):
        with pytest.raises(DomainError):
            check_derivative_relation(logproduct_curve, 0.5)
        with pytest.raises(DomainError):
            check_derivative_relation(logproduct_curve, 10.0)


class TestAsymptote:
    def test_gap_at_zero_identity(self, identity_curve):
        params = rw.asymptotic_params(rw.Identity())
        # N(0) = 1 and the line starts at 2/3, so the gap is exactly 1/3
        assert asymptote_gap(identity_curve, params, 0.0) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_gap_shrinks(self, identity_curve, logproduct_curve):
        for curve, spec in ((identity_curve, rw.Identity()), (logproduct_curve, rw.LogProduct())):
            params = rw.asymptotic_params(spec)
            g10 = asymptote_gap(curve, params, 10.0)
            g2 = asymptote_gap(curve, params, 2.0)
            assert abs(g10) < 1e-3
            assert abs(g10) < abs(g2)


def _residual_one_interval(curve, t):
    """The residual at one t as one ``integrate`` call over [0, f^-1(t)]."""
    spec = curve.transform
    w_end = 1.0 if t >= 1.0 else float(spec._finv(np.asarray(t)))
    if w_end <= 0.0:
        rhs = 1.0
    else:
        grid_end = curve.n_panels * curve.step

        def hist(w):
            s = np.clip(t - spec._f(w), 0.0, grid_end)
            return solver._hermite_eval(curve.values, curve._slopes, curve.step, s)

        rhs = 1.0 + integrate(hist, 0.0, w_end, 1e-9)
    return abs(eval_curve(curve, t) - rhs)


class TestSelfConsistency:
    def test_residual_bounded(self, logproduct_curve):
        rng = np.random.default_rng(0)
        budget = 5.0 * marching_tolerance(logproduct_curve.step)
        for t in rng.uniform(0.05, 10.0, 20):
            assert self_consistency_residual(logproduct_curve, float(t)) <= budget

    def test_validates_t(self, logproduct_curve):
        with pytest.raises(DomainError):
            self_consistency_residual(logproduct_curve, -1.0)

    @pytest.mark.parametrize(
        "spec",
        [rw.Identity(), rw.LogProduct(), rw.Power(0.5), _KNOTS_TXT],
        ids=["identity", "logproduct", "power:0.5", "knots.txt"],
    )
    def test_array_equals_one_point_calls(self, spec):
        # one batched quadrature over every t's interval, each residual bit
        # for bit the one-interval integral: t = 0, t < 1 and t >= 1
        curve = solve(spec, 3.0, 1e-2)
        rng = np.random.default_rng(3)
        ts = np.concatenate((
            [0.0, 1e-12, 0.5, 1.0, 3.0],
            rng.uniform(0.0, 1.0, 20),
            rng.uniform(1.0, 3.0, 20),
        ))
        got = self_consistency_residual(curve, ts)
        assert got.shape == ts.shape
        ref = [_residual_one_interval(curve, t) for t in ts.tolist()]
        one = [self_consistency_residual(curve, t) for t in ts.tolist()]
        assert np.array_equal(_bits(got), _bits(ref))
        assert np.array_equal(_bits(got), _bits(one))
        grid = self_consistency_residual(curve, ts[:40].reshape(5, 8))
        assert np.array_equal(_bits(grid.ravel()), _bits(got[:40]))

    def test_scalar_returns_float(self, logproduct_curve):
        for t in (0.0, 0.5, 2.0, np.float64(2.0)):
            assert type(self_consistency_residual(logproduct_curve, t)) is float
        assert self_consistency_residual(logproduct_curve, 0.0) == 0.0

    def test_array_out_of_range_names_the_range(self, logproduct_curve):
        for ts in ([0.5, 10.5], [-0.1, 2.0]):
            with pytest.raises(DomainError, match=r"\[0, 10\]"):
                self_consistency_residual(logproduct_curve, np.array(ts))
        assert self_consistency_residual(logproduct_curve, np.array([])).shape == (0,)


class TestSerialization:
    def test_csv_round_trip(self):
        curve = solve(rw.Identity(), 1.0, 1e-2)
        buf = io.StringIO()
        write_curve_csv(curve, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,N"
        assert len(lines) == curve.values.shape[0] + 1
        data = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)
        # 17 significant digits reproduce the doubles exactly
        assert np.array_equal(data[:, 1], curve.values)
        assert np.array_equal(data[:, 0], curve.grid)

    @pytest.mark.parametrize(
        "spec", [rw.Identity(), rw.Power(0.5), _KNOTS_TXT], ids=["identity", "power:0.5", "knots.txt"]
    )
    def test_csv_matches_a_per_line_writer(self, spec):
        def per_line(curve, fh):
            grid = curve.grid
            lines = ["t,N\n"]
            lines.extend(
                f"{grid[j]:.17g},{curve.values[j]:.17g}\n" for j in range(grid.shape[0])
            )
            fh.write("".join(lines))

        curve = solve(spec, 82.0, 1e-2)
        # 8201 lines: the writer's chunks and a partial last one
        assert curve.values.shape[0] > solver._CSV_LINES + 1
        got, want = io.StringIO(), io.StringIO()
        write_curve_csv(curve, got)
        per_line(curve, want)
        assert got.getvalue() == want.getvalue()

    def test_csv_memory_per_node(self):
        # the per-line writer peaked at 134 bytes per node: every line at once
        curve = solve(rw.LogProduct(), 20.0, 1e-4)
        buf = io.StringIO()
        tracemalloc.start()
        try:
            write_curve_csv(curve, buf)
            text = buf.getvalue()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == curve.values.shape[0] + 1
        assert peak / curve.values.shape[0] < 100.0

    @pytest.mark.parametrize("t_max", [1.0, 10.23, 10.24, 20.48], ids=["101", "1024", "1025", "2049"])
    def test_json_matches_json_dumps(self, t_max):
        # node counts on and across the writer's chunk boundaries
        curve = solve(rw.LogProduct(), t_max, 1e-2)
        buf = io.StringIO()
        solver.write_curve_json(curve, buf)
        assert buf.getvalue() == json.dumps(curve_json_payload(curve), indent=2) + "\n"

    def test_json_memory_per_node(self):
        # json.dumps of the whole payload peaked near 300 bytes per node
        class Digest:
            def __init__(self):
                self.sha, self.size = hashlib.sha256(), 0

            def write(self, text):
                self.sha.update(text.encode())
                self.size += len(text)

        curve = solve(rw.LogProduct(), 20.0, 1e-4)
        sink = Digest()
        tracemalloc.start()
        try:
            solver.write_curve_json(curve, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 30 * curve.values.shape[0]
        assert peak / curve.values.shape[0] < 30.0

    def test_json_payload(self):
        curve = solve(rw.Identity(), 1.0, 1e-2)
        payload = curve_json_payload(curve)
        assert list(payload) == ["spec", "step", "t_max", "t", "N"]
        assert payload["spec"] == "identity"
        assert payload["N"][0] == 1.0
        assert len(payload["t"]) == curve.values.shape[0]


class TestStructuralBounds:
    def test_mean_bracket_all_grids(
        self, identity_curve, logproduct_curve, power2_curve, power05_curve
    ):
        for curve in (identity_curve, logproduct_curve, power2_curve, power05_curve):
            mu = rw.asymptotic_params(curve.transform).mu
            g = curve.grid
            v = curve.values
            assert np.all(v * mu > g - 1e-12)
            assert np.all(v[1:] * mu > g[1:])
            assert np.all(v * mu <= g + 1.0 + 1e-9)

    def test_domination_on_shared_grid(self, identity_curve, logproduct_curve):
        diff = identity_curve.values - logproduct_curve.values
        assert np.min(diff) >= -1e-9
        # away from zero the separation is macroscopic
        sel = identity_curve.grid >= 0.5
        assert np.min(diff[sel]) > 0.1
