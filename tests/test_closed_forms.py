import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewal.bijections import DomainError
from renewal.closed_forms import (
    SUM_COUNT_T_CAP,
    exp_tail_weight,
    product_count,
    product_count_01,
    product_count_12,
    product_count_asymptote,
    product_count_series,
    product_series_term,
    taylor_exp_neg,
    uniform_sum_asymptote,
    uniform_sum_count,
)

E = math.e
EM1 = math.e - 1.0


class TestTaylorExpNeg:
    def test_matches_exp(self):
        assert taylor_exp_neg(1.0, 50) == pytest.approx(math.exp(-1.0), abs=5e-16)
        assert taylor_exp_neg(0.3, 40) == pytest.approx(math.exp(-0.3), abs=5e-16)

    def test_short_prefixes(self):
        assert taylor_exp_neg(0.7, 1) == 1.0
        assert taylor_exp_neg(0.7, 2) == pytest.approx(1.0 - 0.7, abs=1e-15)

    def test_zero(self):
        assert taylor_exp_neg(0.0, 5) == 1.0

    @pytest.mark.parametrize("t,n", [(-0.1, 3), (math.nan, 3), (1.0, 0), (1.0, 2.5)])
    def test_validation(self, t, n):
        with pytest.raises(DomainError):
            taylor_exp_neg(t, n)


class TestExpTailWeight:
    def test_zeroth_is_exactly_one(self):
        assert exp_tail_weight(0.5, 0) == 1.0

    def test_first_is_expm1(self):
        for t in np.linspace(0.0, 1.0, 21):
            t = float(t)
            assert exp_tail_weight(t, 1) == pytest.approx(math.expm1(t), rel=1e-13, abs=1e-15)

    def test_recurrence(self):
        # adjacent weights satisfy w(n+1) + w(n) = e^t t^n / n!
        for t in np.linspace(0.0, 1.0, 40):
            t = float(t)
            for n in range(25):
                lhs = exp_tail_weight(t, n + 1) + exp_tail_weight(t, n)
                rhs = math.exp(t) * t**n / math.factorial(n)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_pinned_midpoint(self):
        # w(1, 2) + w(1, 3) telescopes to e/2
        got = exp_tail_weight(1.0, 2) + exp_tail_weight(1.0, 3)
        assert got == pytest.approx(1.3591409142295225, abs=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            exp_tail_weight(1.5, 2)
        with pytest.raises(DomainError):
            exp_tail_weight(-0.1, 2)
        with pytest.raises(DomainError):
            exp_tail_weight(0.5, -1)


class TestSeriesIndex:
    """The series helpers take n as any integer, numpy's included, and nothing else."""

    @pytest.mark.parametrize(
        "fn, n",
        [(taylor_exp_neg, 4), (exp_tail_weight, 3), (product_series_term, 3)],
        ids=["taylor_exp_neg", "exp_tail_weight", "product_series_term"],
    )
    def test_numpy_integers_match_ints(self, fn, n):
        for kind in (np.int64, np.int32, np.uint8):
            assert fn(0.5, kind(n)) == fn(0.5, n)

    @pytest.mark.parametrize("fn", [taylor_exp_neg, exp_tail_weight, product_series_term])
    @pytest.mark.parametrize("bad", [True, False, 1.0, np.float64(2.0), "2"])
    def test_bools_and_floats_rejected(self, fn, bad):
        with pytest.raises(DomainError, match="n must be an integer"):
            fn(0.5, bad)


class TestProductSeriesTerm:
    def test_zeroth_term(self):
        assert product_series_term(0.7, 0) == 1.0

    def test_terms_decay_within_unit_interval(self):
        for t in (0.1, 0.5, 1.0):
            prev = 1.0
            for n in range(40):
                q = product_series_term(t, n)
                assert -1e-15 <= q <= 1.0 + 1e-15
                assert q <= prev + 1e-15
                prev = q

    def test_term_is_no_crossing_probability(self):
        # P(three increments sum to at most 0.5) estimated directly:
        # the sum staying under t is the product of 1 + (e-1)U factors
        # staying under e^t
        rng = np.random.default_rng(123)
        n = 4_000_000
        u = rng.random((n, 3))
        hits = np.prod(1.0 + EM1 * u, axis=1) <= math.exp(0.5)
        p_hat = hits.mean()
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        assert product_series_term(0.5, 3) == pytest.approx(p_hat, abs=3.0 * se)


class TestProductCount:
    def test_lower_piece_pinned_values(self):
        assert product_count_01(0.0) == pytest.approx(1.0, abs=1e-15)
        assert product_count_01(0.5) == pytest.approx(1.4435063445593728, abs=1e-15)
        assert product_count_01(1.0) == pytest.approx(2.421692955670391, abs=1e-15)

    def test_upper_piece_pinned_values(self):
        assert product_count_12(1.5) == pytest.approx(3.1752915232008236, abs=1e-14)
        assert product_count_12(2.0) == pytest.approx(4.063675645677411, abs=1e-14)

    def test_pieces_join_continuously(self):
        assert abs(product_count_01(1.0) - product_count_12(1.0)) <= 1e-12

    def test_dispatch(self):
        assert product_count(0.3) == product_count_01(0.3)
        assert product_count(1.7) == product_count_12(1.7)
        with pytest.raises(DomainError):
            product_count(-0.01)
        with pytest.raises(DomainError):
            product_count(2.01)
        with pytest.raises(DomainError):
            product_count_12(0.5)

    def test_series_route_agrees(self):
        for t in np.linspace(0.0, 1.0, 101):
            t = float(t)
            assert product_count_series(t) == pytest.approx(
                product_count(t), abs=1e-10
            )

    def test_asymptote_formula(self):
        assert product_count_asymptote(0.0) == pytest.approx(EM1 * (E - 2.0) / 2.0, abs=1e-15)
        assert product_count_asymptote(2.0) == pytest.approx(
            EM1 * (2.0 + (E - 2.0) / 2.0), abs=1e-14
        )

    def test_approaches_asymptote_from_above_at_two(self):
        gap2 = product_count(2.0) - product_count_asymptote(2.0)
        gap1 = product_count(1.0) - product_count_asymptote(1.0)
        assert abs(gap2) < abs(gap1)


class TestUniformSumCount:
    def test_unit_interval_is_exponential(self):
        for t in np.linspace(0.0, 1.0, 101):
            t = float(t)
            assert uniform_sum_count(t) == pytest.approx(math.exp(t), rel=1e-14)

    def test_pinned_values(self):
        assert uniform_sum_count(0.0) == 1.0
        assert uniform_sum_count(1.0) == pytest.approx(E, abs=1e-13)
        # half-integer inside the second piece: e^1.5 - 0.5 e^0.5
        assert uniform_sum_count(1.5) == pytest.approx(
            math.exp(1.5) - 0.5 * math.exp(0.5), abs=1e-13
        )
        assert uniform_sum_count(2.0) == pytest.approx(E * E - E, abs=1e-13)

    def test_fractional_base_regression(self):
        # the term count follows floor(t): at t = 0.5 only the k = 0 term
        # contributes and the count must still be e^0.5, not 1.95
        assert uniform_sum_count(0.5) == pytest.approx(math.exp(0.5), abs=1e-14)

    def test_matches_asymptote_far_out(self):
        assert abs(uniform_sum_count(10.0) - uniform_sum_asymptote(10.0)) < 1e-6

    def test_asymptote_formula(self):
        assert uniform_sum_asymptote(2.0) == pytest.approx(4.0 + 2.0 / 3.0, abs=1e-15)

    def test_cap_and_validation(self):
        assert math.isfinite(uniform_sum_count(SUM_COUNT_T_CAP))
        with pytest.raises(DomainError, match="30"):
            uniform_sum_count(SUM_COUNT_T_CAP + 0.001)
        with pytest.raises(DomainError):
            uniform_sum_count(-0.5)


class TestCrossFormulaProperties:
    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 1.0, allow_nan=False))
    def test_series_vs_closed_property(self, t):
        assert product_count_series(t) == pytest.approx(product_count(t), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 2.0, allow_nan=False))
    def test_product_count_in_mean_bracket(self, t):
        n = product_count(t)
        assert EM1 * t < n <= EM1 * (t + 1.0)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 20.0, allow_nan=False))
    def test_sum_count_in_mean_bracket(self, t):
        m = uniform_sum_count(t)
        assert 2.0 * t < m <= 2.0 * (t + 1.0)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 2.0, allow_nan=False))
    def test_domination(self, t):
        assert product_count(t) <= uniform_sum_count(t) + 1e-12
