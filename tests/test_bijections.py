import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import renewal.bijections as bij
from renewal.bijections import (
    BUILTIN_TRANSFORMS,
    AsymptoticParams,
    ConvergenceError,
    DomainError,
    Identity,
    LogProduct,
    PiecewiseLinear,
    Power,
    asymptotic_params,
    from_knot_file,
    integrate,
    parse_transform,
)
from renewal.verification import _MENAGERIE

E = math.e
EM1 = math.e - 1.0

SPECS = [
    Identity(),
    LogProduct(),
    Power(0.5),
    Power(2.0),
    PiecewiseLinear(((0.0, 0.0), (0.25, 0.1), (0.7, 0.8), (1.0, 1.0))),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
class TestBijectionContract:
    def test_endpoints_exact(self, spec):
        assert float(spec.forward(0.0)) == 0.0
        assert float(spec.forward(1.0)) == 1.0
        assert float(spec.inverse(0.0)) == 0.0
        assert float(spec.inverse(1.0)) == 1.0

    def test_roundtrip(self, spec):
        tol = 1e-9 if isinstance(spec, PiecewiseLinear) else 1e-12
        x = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(spec.inverse(spec.forward(x)) - x)) <= tol
        assert np.max(np.abs(spec.forward(spec.inverse(x)) - x)) <= tol

    def test_strictly_increasing(self, spec):
        x = np.linspace(0.0, 1.0, 10001)
        assert np.all(np.diff(spec.forward(x)) > 0.0)

    def test_scalar_and_array_shapes(self, spec):
        out = spec.forward(0.5)
        assert np.ndim(out) == 0 and isinstance(float(out), float)
        arr = spec.forward(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert arr.shape == (2, 2)

    def test_domain_rejected(self, spec):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                spec.forward(bad)
            with pytest.raises(DomainError):
                spec.inverse(bad)

    def test_value_objects(self, spec):
        other = type(spec)(*([spec.knots] if isinstance(spec, PiecewiseLinear) else
                             [spec.p] if isinstance(spec, Power) else []))
        assert other == spec and hash(other) == hash(spec)
        assert str(spec) == spec.label


@pytest.mark.parametrize("spec", _MENAGERIE, ids=lambda s: s.label)
def test_f_in_place_is_bit_identical(spec):
    x = np.concatenate((np.linspace(0.0, 1.0, 1001), [5e-324, 1e-300, np.nextafter(1.0, 0.0)]))
    buf = x.copy()
    got = spec._f(buf, out=buf)
    want = spec._f(x).view(np.uint64)
    assert (got.view(np.uint64) == want).all()
    # into scratch, as a coupled pass steps its base sum
    assert (spec._f(x, out=np.empty_like(x)).view(np.uint64) == want).all()
    assert float(got[1000]) == 1.0 and float(got[0]) == 0.0
    assert not isinstance(spec.forward(0.5), np.ndarray) and np.ndim(spec.forward(0.5)) == 0


class TestLogProduct:
    def test_known_forward_point(self):
        # f((e-2)/(e-1)) = ln(e-1)
        got = float(LogProduct().forward((E - 2.0) / EM1))
        assert got == pytest.approx(math.log(EM1), abs=1e-15)

    def test_known_inverse_point(self):
        # f^{-1}(1/2) = (sqrt(e)-1)/(e-1)
        got = float(LogProduct().inverse(0.5))
        assert got == pytest.approx((math.sqrt(E) - 1.0) / EM1, abs=1e-15)

    def test_dominates_identity_strictly_inside(self):
        x = np.linspace(0.0, 1.0, 2001)
        f = LogProduct().forward(x)
        assert np.all(f >= x)
        inner = (x > 0.0) & (x < 1.0)
        assert np.all(f[inner] > x[inner])


class TestPower:
    def test_simple_values(self):
        assert float(Power(2.0).forward(0.5)) == 0.25
        assert float(Power(0.5).forward(0.25)) == 0.5

    def test_label(self):
        assert Power(2.0).label == "power:2"
        assert Power(0.5).label == "power:0.5"

    @pytest.mark.parametrize("bad", [0.05, 10.5, 0.0, -1.0, math.nan, math.inf])
    def test_exponent_rejected(self, bad):
        with pytest.raises(DomainError):
            Power(bad)

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.floats(0.1, 10.0),
        x=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_roundtrip_property(self, p, x):
        s = Power(p)
        assert float(s.inverse(s.forward(x))) == pytest.approx(x, abs=1e-9)


class TestPiecewiseLinear:
    def test_interpolates_knots_and_midpoints(self):
        s = PiecewiseLinear(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
        assert float(s.forward(0.5)) == 0.2
        assert float(s.forward(0.25)) == pytest.approx(0.1, abs=1e-15)
        assert float(s.inverse(0.6)) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize(
        "knots",
        [
            ((0.0, 0.0),),
            ((0.1, 0.0), (1.0, 1.0)),
            ((0.0, 0.0), (1.0, 0.9)),
            ((0.0, 0.0), (0.6, 0.5), (0.4, 0.7), (1.0, 1.0)),
            ((0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)),
        ],
    )
    def test_bad_knots_rejected(self, knots):
        with pytest.raises(DomainError):
            PiecewiseLinear(knots)


class TestKnotFile:
    def test_valid_file(self, tmp_path):
        p = tmp_path / "knots.txt"
        p.write_text("0 0\n\n0.3   0.55\n1 1\n")
        s = from_knot_file(p)
        assert s.knots == ((0.0, 0.0), (0.3, 0.55), (1.0, 1.0))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Windows editors may start a UTF-8 file with one
        text = "0 0\n0.3 0.55\n1 1\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert from_knot_file(marked) == from_knot_file(plain)
        assert from_knot_file(marked).knots == ((0.0, 0.0), (0.3, 0.55), (1.0, 1.0))

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "knots.txt"
        p.write_text("0 0\n0.3 oops\n1 1\n")
        with pytest.raises(DomainError, match="line 2"):
            from_knot_file(p)

    def test_wrong_arity_line(self, tmp_path):
        p = tmp_path / "knots.txt"
        p.write_text("0 0\n0.5\n1 1\n")
        with pytest.raises(DomainError, match="line 2"):
            from_knot_file(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "knots.txt"
        p.write_text("\n\n")
        with pytest.raises(DomainError, match="at least 2"):
            from_knot_file(p)

    def test_endpoint_enforced(self, tmp_path):
        p = tmp_path / "knots.txt"
        p.write_text("0 0\n0.5 0.4\n0.9 1\n")
        with pytest.raises(DomainError, match="last knot"):
            from_knot_file(p)

    def test_out_of_order_knot_reports_line(self, tmp_path):
        p = tmp_path / "knots.txt"
        p.write_text("0 0\n0.6 0.5\n0.4 0.7\n1 1\n")
        with pytest.raises(DomainError, match="line 3"):
            from_knot_file(p)


class TestParseTransform:
    def test_builtins(self):
        assert parse_transform("identity") is BUILTIN_TRANSFORMS["identity"]
        assert parse_transform(" logproduct ") is BUILTIN_TRANSFORMS["logproduct"]

    def test_power(self):
        assert parse_transform("power:2") == Power(2.0)
        with pytest.raises(DomainError):
            parse_transform("power:zap")
        with pytest.raises(DomainError):
            parse_transform("power:99")

    def test_knot_path(self, tmp_path):
        p = tmp_path / "t.knots"
        p.write_text("0 0\n0.5 0.25\n1 1\n")
        s = parse_transform(str(p))
        assert isinstance(s, PiecewiseLinear)

    def test_unknown(self):
        with pytest.raises(DomainError, match="unknown transform"):
            parse_transform("no-such-transform")


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_exponential(self):
        assert integrate(np.exp, 0.0, 1.0) == pytest.approx(EM1, abs=1e-12)

    def test_kink_integrand(self):
        # 0.3 is a sqrt-kink: int |x - c|^(1/2) dx = (2/3)((1-c)^1.5 + c^1.5)
        c = 0.3
        want = (2.0 / 3.0) * ((1.0 - c) ** 1.5 + c**1.5)
        got = integrate(lambda x: np.sqrt(np.abs(x - c)), 0.0, 1.0, 1e-9)
        assert got == pytest.approx(want, abs=1e-9)

    def test_kink_near_panel_end(self):
        # the kink lies between the end 0.5 of the panel [0, 0.5] and its
        # outermost Gauss node, where the Gauss rules alone cannot see it
        k = 0.5 - 1e-3
        got = integrate(lambda x: np.maximum(x - k, 0.0), 0.0, 1.0, 1e-12)
        assert got == pytest.approx(0.5 * (1.0 - k) ** 2, abs=1e-12)

    def test_nonfinite_at_end(self):
        with pytest.raises(DomainError, match="not finite"):
            integrate(lambda x: np.where(x == 0.0, np.inf, x), 0.0, 1.0)

    def test_empty_and_bad_intervals(self):
        assert integrate(lambda x: x, 0.5, 0.5) == 0.0
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, math.inf)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, 0.0)

    def test_panel_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(bij, "_MAX_PANELS", 4)
        with pytest.raises(ConvergenceError, match="panels"):
            integrate(lambda x: np.sin(50.0 * x), 0.0, 1.0, 1e-14)


class TestQuadCore:
    """The batched core behind ``integrate``, the panel weights and the constants."""

    # interval j integrates _G[_KIND[j]]; the square root's kink at 0.3 makes
    # [0, 1] and [0.25, 0.5] bisect, the cubic is exact on one panel
    _G = (lambda x: np.sqrt(np.abs(x - 0.3)), lambda x: x * x * x - x)
    _KIND = np.array([0, 1, 1, 0, 1])
    _LO = np.array([0.0, 0.0, 1.0, 0.25, -2.0])
    _HI = np.array([1.0, 1.0, 3.0, 0.5, -1.5])

    def _g(self, x, j):
        kind = self._KIND[j][:, None]
        return np.where(kind == 0, self._G[0](x), self._G[1](x))[None]

    def test_intervals_integrate_as_if_alone(self):
        got = bij._quad(self._g, self._LO, self._HI, 1e-12)
        assert got.shape == (1, 5)
        for j, kind in enumerate(self._KIND):
            # bit-identical: each interval's panels are summed in its own order
            assert got[0, j] == integrate(self._G[kind], self._LO[j], self._HI[j], 1e-12)

    def test_every_component_meets_its_budget(self):
        # the smooth first component alone would accept the first panel
        got = bij._quad(lambda x, j: np.stack((x, self._G[0](x))), [0.0], [1.0], 1e-12)
        assert got[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert got[1, 0] == integrate(self._G[0], 0.0, 1.0, 1e-12)

    def test_chunk_size_does_not_change_the_result(self, monkeypatch):
        want = bij._quad(self._g, self._LO, self._HI, 1e-12)
        monkeypatch.setattr(bij, "_CHUNK", 2)
        assert np.array_equal(bij._quad(self._g, self._LO, self._HI, 1e-12), want)

    def test_nonfinite_node_in_one_interval(self):
        def g(x, j):
            return np.where((j == 2)[:, None] & (x == 3.0), np.nan, x)[None]

        with pytest.raises(DomainError, match=r"not finite .*interval \[1, 3\]"):
            bij._quad(g, self._LO, self._HI, 1e-12)

    def test_convergence_error_names_the_interval(self, monkeypatch):
        def g(x, j):
            return np.where((j == 1)[:, None], np.sin(50.0 * x), x)[None]

        monkeypatch.setattr(bij, "_MAX_PANELS", 8)
        with pytest.raises(ConvergenceError, match=r"8 panels on \[0, 1\]"):
            bij._quad(g, self._LO, self._HI, 1e-14)

    def test_graded_intervals_ignore_chunk_and_neighbours(self, monkeypatch):
        # sqrt(x - lo) is singular at each interval's left end, which is graded
        lo, hi = np.array([0.0, 0.5, 0.0, 1.0]), np.array([1.0, 2.0, 1e-3, 1.5])

        def g(x, j):
            # a node may round to just below its panel's left end
            return np.sqrt(np.abs(x - lo[j][:, None]))[None]

        calls = []

        def counted(x, j):
            calls.append(x.shape[0])
            return g(x, j)

        want = bij._quad(counted, lo, hi, 1e-12)
        # bisection alone takes 58 rounds here, grading 10
        assert len(calls) <= 12
        assert want[0] == pytest.approx(2.0 / 3.0 * (hi - lo) ** 1.5, rel=1e-12)
        for j in range(lo.shape[0]):
            alone = bij._quad(lambda x, _: g(x, np.full(x.shape[0], j)), [lo[j]], [hi[j]], 1e-12)
            assert alone[0, 0] == want[0, j]
        monkeypatch.setattr(bij, "_CHUNK", 2)
        assert np.array_equal(bij._quad(g, lo, hi, 1e-12), want)

    def test_panel_cap_counts_every_graded_piece(self, monkeypatch):
        # [0, 1] and [0, 1/2] and [0, 1/4] are bisected (7 panels so far), then
        # [0, 1/8] is graded into 25 pieces: 32 panels, checked before the cut
        monkeypatch.setattr(bij, "_MAX_PANELS", 31)
        with pytest.raises(ConvergenceError, match=r"31 panels on \[0, 1\].* on \[0, 0.125\]"):
            integrate(np.sqrt, 0.0, 1.0, 1e-12)

    def test_kinks_are_first_splits(self):
        # |x - 0.3| is linear on each side of its kink: two panels, no bisection
        rows = []

        def g(x, j):
            rows.append(x.shape[0])
            return np.abs(x - 0.3)[None]

        got = bij._quad(g, [0.0], [1.0], 1e-15, kinks=(0.3,))
        assert rows == [2]
        assert got[0, 0] == pytest.approx(0.5 * (0.3**2 + 0.7**2), abs=1e-16)


def _gauss_lobatto(n):
    """n-point Gauss-Lobatto nodes and weights on [-1, 1], as the tables were built."""
    p = np.polynomial.legendre.Legendre.basis(n - 1)
    x = np.concatenate(([-1.0], p.deriv().roots(), [1.0]))
    x = 0.5 * (x - x[::-1])
    return x, 2.0 / (n * (n - 1) * p(x) ** 2)


def test_rule_tables_are_numpy_polynomials():
    # The literals are numpy 2.4.6's values (x86-64 Linux, its bundled
    # OpenBLAS), where this rebuild matches them bit for bit.  The nodes come
    # from LAPACK eigen-solves, which other numpy or LAPACK builds may round
    # differently in the last bits: the Lobatto roots from the unflipped
    # companion matrix already differ by 14 ulp.  So allow 16 ulp.
    coarse = _gauss_lobatto(11)
    fine = np.polynomial.legendre.leggauss(21)
    p20 = np.polynomial.legendre.Legendre.basis(20)
    null = fine[1] * p20(fine[0]) * (np.dot(coarse[1], p20(coarse[0])) / (2.0 / 41.0))
    got = (*bij._GL_COARSE, *bij._GL_FINE, bij._GL_NULL)
    for have, want in zip(got, (*coarse, *fine, null)):
        assert have.dtype == want.dtype and have.shape == want.shape
        np.testing.assert_array_max_ulp(have, want, maxulp=16)


class TestAsymptoticParams:
    def test_identity_constants(self):
        p = asymptotic_params(Identity())
        assert p.mu == pytest.approx(0.5, abs=1e-12)
        assert p.sigma2 == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert p.c == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert p.slope == pytest.approx(2.0, abs=1e-12)
        assert p.intercept == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_logproduct_constants(self):
        p = asymptotic_params(LogProduct())
        assert p.mu == pytest.approx(1.0 / EM1, abs=1e-12)
        assert p.sigma2 == pytest.approx((E - 2.0) / EM1 - 1.0 / EM1**2, abs=1e-12)
        assert p.c == pytest.approx((E - 2.0) / 2.0, abs=1e-10)

    def test_power_constants(self):
        # mu = 1/(p+1); E[f^2] = 1/(2p+1); c = E[f^2] / (2 mu)
        p2 = asymptotic_params(Power(2.0))
        assert p2.mu == pytest.approx(1.0 / 3.0, abs=1e-11)
        assert p2.sigma2 == pytest.approx(1.0 / 5.0 - 1.0 / 9.0, abs=1e-11)
        assert p2.c == pytest.approx(0.3, abs=1e-10)
        ph = asymptotic_params(Power(0.5))
        assert ph.mu == pytest.approx(2.0 / 3.0, abs=1e-11)
        assert ph.sigma2 == pytest.approx(0.5 - 4.0 / 9.0, abs=1e-11)
        assert ph.c == pytest.approx(0.375, abs=1e-10)

    def test_power_half_grades_its_singular_end(self, monkeypatch):
        # sqrt(x) at 0 took 45 rounds of bisection; graded it takes 6
        rounds = []
        quad = bij._quad

        def spy(g, *args, **kwargs):
            def counted(x, j):
                rounds.append(x.shape[0])
                return g(x, j)

            return quad(counted, *args, **kwargs)

        monkeypatch.setattr(bij, "_quad", spy)
        p = asymptotic_params(Power(0.5))
        assert len(rounds) <= 8
        assert abs(p.mu - 2.0 / 3.0) <= 2e-16
        assert abs(p.c - 0.375) <= 2e-16

    def test_validation(self):
        with pytest.raises(DomainError):
            AsymptoticParams(mu=0.0, sigma2=0.1, c=0.3)
        with pytest.raises(DomainError):
            AsymptoticParams(mu=1.5, sigma2=0.1, c=0.3)
        with pytest.raises(DomainError):
            AsymptoticParams(mu=0.5, sigma2=-0.1, c=0.3)
        with pytest.raises(DomainError):
            AsymptoticParams(mu=0.5, sigma2=0.1, c=1.5)

    @pytest.mark.parametrize(
        "x, y",
        [
            (0.12515, 0.99),  # a kink of f next to the end of a dyadic panel
            (0.87485, 0.01),
            # a kink where the Lobatto and Gauss errors coincide, so that
            # their difference alone reads zero
            (0.4993815552623398, 0.24195914314359945),
        ],
    )
    def test_one_kink_constants(self, x, y):
        p = asymptotic_params(PiecewiseLinear(((0.0, 0.0), (x, y), (1.0, 1.0))))
        # exact moments of the two linear pieces
        mu = 0.5 * (x * y + (1.0 - x) * (1.0 + y))
        ef2 = (x * y * y + (1.0 - x) * (y * y + y + 1.0)) / 3.0
        assert p.mu == pytest.approx(mu, abs=1e-10)
        assert p.c == pytest.approx(ef2 / (2.0 * mu), abs=1e-10)

    def test_knots_off_the_dyadic_points_integrate_exactly(self, monkeypatch):
        knots = ((0.0, 0.0), (0.1234567, 0.3141593), (0.4713, 0.5), (0.8662, 0.9021), (1.0, 1.0))
        x, y = np.array(knots).T
        dx = np.diff(x)
        # E f(X) and E f(X)^2 piece by piece, exact for linear pieces
        mu = np.sum(dx * (y[:-1] + y[1:]) / 2.0)
        ef2 = np.sum(dx * (y[:-1] ** 2 + y[:-1] * y[1:] + y[1:] ** 2) / 3.0)
        rounds = []
        quad = bij._quad

        def spy(g, *args, **kwargs):
            def counted(x, j):
                rounds.append(x.shape[0])
                return g(x, j)

            return quad(counted, *args, **kwargs)

        monkeypatch.setattr(bij, "_quad", spy)
        p = asymptotic_params(PiecewiseLinear(knots))
        # one pass over the four linear pieces: nothing was bisected
        assert rounds == [4]
        assert p.mu == pytest.approx(mu, abs=1e-14)
        assert p.c == pytest.approx(ef2 / (2.0 * mu), abs=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(
        xs=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True),
        ys=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True),
    )
    # a kink of f^-1 closer to a panel's end than its outermost Gauss node
    @example(xs=[0.5], ys=[0.9686825399553112])
    @example(xs=[0.5], ys=[0.7500267203362972])
    @example(xs=[0.5], ys=[0.06253522028740605])
    def test_mean_two_routes_piecewise(self, xs, ys):
        k = min(len(xs), len(ys))
        knots = ((0.0, 0.0), *zip(sorted(xs)[:k], sorted(ys)[:k]), (1.0, 1.0))
        spec = PiecewiseLinear(knots)
        mu = asymptotic_params(spec).mu
        mu_alt = 1.0 - integrate(lambda u: spec._finv(u), 0.0, 1.0, 1e-11)
        assert mu == pytest.approx(mu_alt, abs=2e-10)
        assert 0.0 < mu < 1.0
