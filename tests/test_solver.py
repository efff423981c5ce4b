import io
import math
from pathlib import Path

import numpy as np
import pytest

import renewal as rw
import renewal.bijections as bij
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
