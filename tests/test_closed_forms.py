import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewal.bijections import DomainError
from renewal.closed_forms import (
    SUM_COUNT_T_CAP,
    exp_tail_weight,
    exp_tail_weights,
    product_count,
    product_count_01,
    product_count_12,
    product_count_asymptote,
    product_count_series,
    uniform_sum_asymptote,
    uniform_sum_count,
)

E = math.e
EM1 = math.e - 1.0


def product_series_term(t, n):
    # term n of the product-form series, as product_count_series adds it
    return exp_tail_weights(t, n)[n] / EM1**n


class TestTaylorExpNeg:
    """The tail weights read as partial Taylor sums P_n(t) of exp(-t):
    W(t, n) = (-1)^n (1 - e^t P_n(t)) vanishes where P_n(t) has converged."""

    def test_matches_exp(self):
        assert abs(exp_tail_weight(1.0, 50)) <= 5e-16
        assert abs(exp_tail_weight(0.3, 40)) <= 5e-16

    def test_short_prefixes(self):
        # P_1 = 1 and P_2 = 1 - t, summed as the weights sum them
        et = math.exp(0.7)
        assert exp_tail_weights(0.7, 2)[1:] == [et - 1.0, 1.0 - (1.0 - 0.7) * et]

    def test_zero(self):
        # every Taylor term past the first is a signed zero, so P_n(0) = 1
        # exactly and each weight past the first is +0 or -0
        weights = exp_tail_weights(0.0, 40)
        assert weights[0] == 1.0
        assert all(w == 0.0 for w in weights[1:])


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


def _taylor_restarted(t, n):
    # the partial sum restarted for each n, as the series was once evaluated
    total = 0.0
    comp = 0.0
    term = 1.0
    for k in range(n):
        y = term - comp
        tmp = total + y
        comp = (tmp - total) - y
        total = tmp
        term *= -t / (k + 1)
    return total


def _weight_restarted(t, n):
    if n == 0:
        return 1.0
    sign = -1.0 if n % 2 else 1.0
    return sign * (1.0 - _taylor_restarted(t, n) * math.exp(t))


def _series_restarted(t):
    total = 1.0
    for n in range(1, 400):
        term = _weight_restarted(t, n) / EM1**n
        total += term
        if abs(term) < 1e-12 and n >= 5:
            return total
    raise AssertionError("no convergence")


def _hex(values):
    return [float(v).hex() for v in values]


class TestOnePass:
    """One running partial sum gives what the restarted O(n^2) loops gave, bit for bit."""

    T = np.linspace(0.0, 1.0, 41).tolist() + [1e-300, 0.123456789]

    def test_tail_weights(self):
        for t in self.T:
            ref = [_weight_restarted(t, n) for n in range(61)]
            assert _hex(exp_tail_weights(t, 60)) == _hex(ref)
            assert _hex(exp_tail_weight(t, n) for n in range(61)) == _hex(ref)

    def test_product_count_series(self):
        for t in np.linspace(0.0, 1.0, 201).tolist() + self.T:
            assert product_count_series(t).hex() == _series_restarted(t).hex()

    def test_weights_list(self):
        assert exp_tail_weights(0.5, 0) == [1.0]
        assert len(exp_tail_weights(0.5, 7)) == 8
        with pytest.raises(DomainError):
            exp_tail_weights(1.5, 3)
        with pytest.raises(DomainError):
            exp_tail_weights(0.5, -1)


class TestSeriesIndex:
    """The series helpers take n as any integer, numpy's included, and nothing else."""

    @pytest.mark.parametrize(
        "fn, n",
        [(exp_tail_weight, 3), (product_series_term, 3)],
        ids=["exp_tail_weight", "product_series_term"],
    )
    def test_numpy_integers_match_ints(self, fn, n):
        for kind in (np.int64, np.int32, np.uint8):
            assert fn(0.5, kind(n)) == fn(0.5, n)

    @pytest.mark.parametrize("fn", [exp_tail_weight, product_series_term])
    @pytest.mark.parametrize("bad", [True, False, 1.0, np.float64(2.0), "2"])
    def test_bools_and_floats_rejected(self, fn, bad):
        with pytest.raises(DomainError, match="n must be an integer"):
            fn(0.5, bad)


class TestProductSeriesTerm:
    def test_zeroth_term(self):
        assert product_series_term(0.7, 0) == 1.0

    def test_terms_decay_within_unit_interval(self):
        for t in (0.1, 0.5, 0.9, 1.0):
            prev = 1.0
            for n in range(41):
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

    def test_asymptote_overflow_refused(self):
        assert product_count_asymptote(1e308) == EM1 * (1e308 + (E - 2.0) / 2.0)
        for t in (1.2e308, -1.2e308):
            with pytest.raises(DomainError, match="^t must keep the asymptotic line within the float"):
                product_count_asymptote(t)

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

    def test_asymptote_overflow_refused(self):
        assert uniform_sum_asymptote(8e307) == 1.6e308 + 2.0 / 3.0
        for t in (1e308, -1e308):
            with pytest.raises(DomainError, match="^t must keep the asymptotic line within the float"):
                uniform_sum_asymptote(t)

    def test_cap_and_validation(self):
        # at the cap the o(1) term is 6.3e-15, so the asymptote is exact to far
        # below the series' own error there (7.5e-10 against 60-digit mpmath)
        t = SUM_COUNT_T_CAP
        assert abs(uniform_sum_count(t) - uniform_sum_asymptote(t)) <= 1e-9
        with pytest.raises(DomainError, match="precision"):
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
    @given(t=st.floats(0.0, SUM_COUNT_T_CAP, allow_nan=False))
    def test_sum_count_in_mean_bracket(self, t):
        m = uniform_sum_count(t)
        assert 2.0 * t < m <= 2.0 * (t + 1.0)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 2.0, allow_nan=False))
    def test_domination(self, t):
        assert product_count(t) <= uniform_sum_count(t) + 1e-12
