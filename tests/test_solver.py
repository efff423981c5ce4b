import io
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renewal as rw
import renewal.bijections as bij
import renewal.solver as solver
from renewal.bijections import DomainError, from_knot_file, integrate
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
    _first_clip,
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
    """With its breaking points on grid nodes the march is third order."""

    @pytest.mark.parametrize("spec, exact", _CLOSED_FORMS, ids=["identity", "logproduct"])
    def test_node_error_at_default_step(self, spec, exact):
        assert _node_error(spec, exact, 1e-3) <= 1e-9

    @pytest.mark.parametrize("spec, exact", _CLOSED_FORMS, ids=["identity", "logproduct"])
    def test_halving_step_shrinks_error_sixfold(self, spec, exact):
        # second order would shrink it 4x, third order 8x
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

    @pytest.mark.parametrize("spec", [rw.Power(0.5), _KNOTS_TXT], ids=["power:0.5", "knots.txt"])
    def test_chunk_size_does_not_change_them(self, monkeypatch, spec):
        # power:0.5 bisects its first panel many times; the knots split panels
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
# The march as it was before the FFT tail: every step one dot product, and
# the slopes swept node by node.  It is the reference for the tail, for the
# fallback to the loop and for the vectorized final slopes.


def _update_slopes_ref(v, sl, sr, seg, hi):
    for i in range(max(seg, hi - 2), hi + 1):
        dl = v[i] - v[i - 1] if i > seg else v[i + 1] - v[i]
        dr = v[i + 1] - v[i] if i < hi else dl
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
        m = min(max(m, 0.0), 3.0 * min(dl, dr)) if dl > 0.0 and dr > 0.0 else 0.0
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


def _looped_solve(spec, t_max, step):
    """Values and per-panel (left, right) slopes of the looped march."""
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
    v = [1.0]
    for hi, after_break in _slope_sweep_ref(v, sl, sr, breaks, n):
        r = min(hi, n_pan - 1)
        hist = float(np.dot(wts[wts.size - 4 * r :], flat[4 * (hi - r) : 4 * hi]))
        if after_break:
            val = (1.0 + hist + b0 * v[hi]) / (1.0 - b1)
        else:
            val = (1.0 + hist + a1 * v[hi] + a0 * v[hi - 1]) / (1.0 - a2)
        v.append(val)
        rows[hi, 1] = rows[hi + 1, 0] = val
    return rows[:, 0].copy(), (sl[:n].copy(), sr[:n].copy())


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _tail_calls(monkeypatch):
    """Record the node each call of the FFT tail starts from."""
    starts = []
    tail = solver._tail

    def spy(v, start, *args):
        starts.append(start)
        return tail(v, start, *args)

    monkeypatch.setattr(solver, "_tail", spy)
    return starts


_OFF_GRID_KNOTS = rw.PiecewiseLinear(((0.0, 0.0), (0.3, 0.2137), (0.7, 0.6071), (1.0, 1.0)))
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
    """Past the handover the march is a linear recurrence, solved in FFT blocks."""

    @pytest.mark.parametrize("spec, step, t_max", _TAIL_CASES)
    def test_matches_the_loop(self, monkeypatch, spec, step, t_max):
        starts = _tail_calls(monkeypatch)
        curve = solve(spec, t_max, step)
        assert len(starts) == 1 and starts[0] < curve.n_panels  # the tail ran
        values, slopes = _looped_solve(spec, t_max, step)
        assert np.max(np.abs(curve.values - values) / values) <= 1e-13
        # a slope is a difference of nearby values, so it is held to 1e-13 of
        # the value at its node, not of itself
        for got, want in zip(curve._slopes, slopes):
            assert np.max(np.abs(got - want) / values[:-1]) <= 1e-13

    def test_handover_falls_after_the_last_breaking_point(self, monkeypatch):
        # t = 1 at step 3e-3 lies inside a panel: the loop still covers it and
        # one history window past it
        starts = _tail_calls(monkeypatch)
        solve(rw.LogProduct(), 5.0, 3e-3)
        assert starts == [math.ceil(1.0 / 3e-3) + math.ceil(1.0 / 3e-3) + 2]

    @pytest.mark.parametrize("step", [1e-3, 3e-3, 1e-2, 2.5e-3])
    def test_short_solves_are_all_loop(self, monkeypatch, step):
        starts = _tail_calls(monkeypatch)
        curve = solve(rw.LogProduct(), 2.0, step)
        values, slopes = _looped_solve(rw.LogProduct(), 2.0, step)
        assert starts == []
        assert np.array_equal(curve.values, values)
        for got, want in zip(curve._slopes, slopes):
            assert np.array_equal(_bits(got), _bits(want))

    def test_reported_clip_falls_back_to_the_loop(self, monkeypatch):
        # a clip at the first tail step leaves the whole curve to the loop
        monkeypatch.setattr(solver, "_first_clip", lambda v, start, n_pan: start)
        curve = solve(rw.LogProduct(), 30.0, 1e-2)
        values, slopes = _looped_solve(rw.LogProduct(), 30.0, 1e-2)
        assert np.array_equal(_bits(curve.values), _bits(values))
        for got, want in zip(curve._slopes, slopes):
            assert np.array_equal(_bits(got), _bits(want))

    def test_clip_inside_the_tail_loops_from_there(self, monkeypatch):
        tail_only = solve(rw.Identity(), 30.0, 1e-2)
        clip = 2 * 100 + 2 + 137
        monkeypatch.setattr(solver, "_first_clip", lambda v, start, n_pan: clip)
        curve = solve(rw.Identity(), 30.0, 1e-2)
        values, _ = _looped_solve(rw.Identity(), 30.0, 1e-2)
        assert np.array_equal(curve.values[: clip + 1], tail_only.values[: clip + 1])
        assert not np.array_equal(curve.values[clip + 1 :], tail_only.values[clip + 1 :])
        assert np.max(np.abs(curve.values - values) / values) <= 1e-13

    def test_a_limiter_that_acts_in_the_tail_leaves_it_to_the_loop(self, monkeypatch):
        # f(X) is near 1/2 with probability 0.98, so N rises in steps a
        # half apart for long after t = 2 and the limiter acts there
        clips = []
        first_clip = solver._first_clip
        monkeypatch.setattr(
            solver, "_first_clip", lambda *args: clips.append(first_clip(*args)) or clips[-1]
        )
        spec = rw.PiecewiseLinear(((0.0, 0.0), (0.01, 0.49), (0.99, 0.51), (1.0, 1.0)))
        curve = solve(spec, 30.0, 1e-2)
        values, _ = _looped_solve(spec, 30.0, 1e-2)
        assert clips == [2 * 100 + 2]
        assert np.array_equal(curve.values, values)

    def test_fallback_is_refused_when_the_loop_would_take_too_long(self, monkeypatch):
        monkeypatch.setattr(solver, "_first_clip", lambda v, start, n_pan: start)
        monkeypatch.setattr(solver, "_MAX_MARCH_WORK", 1e6)  # admits the tail, not the loop
        with pytest.raises(DomainError, match=r"the slope limiter acts at t = 2\.02.*cap"):
            solve(rw.LogProduct(), 30.0, 1e-2)


class TestTailBlocks:
    """The FFT blocks solve any linear recurrence, whatever sum(c) is."""

    @pytest.mark.parametrize("k, excess", [(5, 0.0), (40, 3e-4), (700, -2e-3)])
    def test_match_the_recurrence_step_by_step(self, k, excess):
        rng = np.random.default_rng(k)
        c = rng.uniform(0.0, 1.0, k)
        c *= (1.0 + excess) / c.sum()
        start = k + 3
        v = np.empty(start + 3000)
        v[: start + 1] = 1.0 + np.cumsum(rng.uniform(0.5, 1.0, start + 1))
        want = v.copy()
        for j in range(start, want.shape[0] - 1):
            want[j + 1] = math.fsum([0.7, *(c * want[j::-1][:k])])
        solver._tail(v, start, 0.7, c, math.fsum([*c, -1.0]))
        assert np.max(np.abs(v - want) / want) <= 1e-13


class TestFirstClip:
    """The vectorized limiter check names the first step whose stages clip."""

    @staticmethod
    def _first_clip_ref(v, start, n_pan):
        def clamp(m, dl, dr):
            return min(max(m, 0.0), 3.0 * min(dl, dr)) if dl > 0.0 and dr > 0.0 else 0.0

        for hi in range(start, len(v) - 1):
            stages = [
                (0.5 * (3.0 * v[hi] - 4.0 * v[hi - 1] + v[hi - 2]), v[hi] - v[hi - 1], v[hi] - v[hi - 1]),
                (0.5 * (v[hi] - v[hi - 2]), v[hi - 1] - v[hi - 2], v[hi] - v[hi - 1]),
            ]
            for x in range(hi - n_pan + 1, hi - 1):
                five = (v[x - 2] - 8.0 * v[x - 1] + 8.0 * v[x + 1] - v[x + 2]) / 12.0
                stages.append((five, v[x] - v[x - 1], v[x + 1] - v[x]))
            if any(clamp(m, dl, dr) != m for m, dl, dr in stages):
                return hi
        return None

    @settings(max_examples=200, deadline=None)
    @given(
        n_pan=st.integers(3, 8),
        lead=st.integers(2, 6),
        steps=st.integers(1, 30),
        jumps=st.lists(st.tuples(st.integers(0, 60), st.sampled_from([-0.1, 0.0, 0.01, 5.0])), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_a_step_by_step_check(self, n_pan, lead, steps, jumps, seed):
        start = n_pan + lead
        inc = np.random.default_rng(seed).uniform(0.5, 1.0, start + steps)
        for at, size in jumps:
            inc[at % inc.size] = size
        v = np.concatenate([[1.0], 1.0 + np.cumsum(inc)])
        assert _first_clip(v, start, n_pan) == self._first_clip_ref(v.tolist(), start, n_pan)


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


class TestSelfConsistency:
    def test_residual_bounded(self, logproduct_curve):
        rng = np.random.default_rng(0)
        budget = 5.0 * marching_tolerance(logproduct_curve.step)
        for t in rng.uniform(0.05, 10.0, 20):
            assert self_consistency_residual(logproduct_curve, float(t)) <= budget

    def test_validates_t(self, logproduct_curve):
        with pytest.raises(DomainError):
            self_consistency_residual(logproduct_curve, -1.0)


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
