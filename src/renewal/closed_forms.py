"""Closed-form expected draw counts for the two reference transforms.

Two stopping problems have exact answers and anchor every other module:

* the plain uniform sum (identity transform): the expected number of
  uniform draws whose running sum first exceeds t, here
  ``uniform_sum_count``;
* the product form (logproduct transform): increments ln(1 + (e-1)X),
  equivalently a product of 1 + (e-1)X factors crossing e^t, with exact
  formulas on [0, 1] and [1, 2] plus a convergent series on [0, 1].

The series for the product form is built from partial Taylor sums of
exp(-t); its tail weights are exposed because their three-term recurrence
is a sharp self-test of the whole evaluation chain, which acceptance
criterion 4 (``tests/test_acceptance.py``) checks.
"""

from __future__ import annotations

import math
from itertools import islice

from .bijections import ConvergenceError, DomainError, _as_int, _as_real, _line_at

__all__ = [
    "exp_tail_weight",
    "exp_tail_weights",
    "product_count",
    "product_count_series",
    "product_count_asymptote",
    "uniform_sum_count",
    "uniform_sum_asymptote",
    "SUM_COUNT_T_CAP",
]

_E = math.e
_EM1 = math.e - 1.0
# growth rate of the product-form count on [1, 2]
_RATE = _E / _EM1
# constant in front of the e^{rate*t} term on [1, 2]
_C12 = -_EM1 / _E ** (2.0 + 1.0 / _EM1) + 1.0 / _E + math.exp(-_RATE) / _EM1

# beyond this the alternating sum in uniform_sum_count has shed too much
# precision to be called exact (see the docstring)
SUM_COUNT_T_CAP = 15.0


def _tail_weights(t: float):
    """exp_tail_weight(t, n) for n = 1, 2, ..., from one Kahan-summed running P_n(t)."""
    et = math.exp(t)
    sign = 1.0
    total = 0.0
    comp = 0.0
    term = 1.0
    k = 0
    while True:
        y = term - comp
        tmp = total + y
        comp = (tmp - total) - y
        total = tmp
        sign = -sign
        yield sign * (1.0 - total * et)
        k += 1
        term *= -t / k


def exp_tail_weights(t: float, n: int) -> list:
    """``[exp_tail_weight(t, k) for k in range(n + 1)]`` for t in [0, 1], in one pass."""
    t = _as_real("t", t, 0.0, 1.0)
    n = _as_int("n", n, 0)
    return [1.0, *islice(_tail_weights(t), n)]


def exp_tail_weight(t: float, n: int) -> float:
    """Scaled Taylor remainder of exp(-t): (-1)^n (1 - e^t P_n(t)).

    P_n(t) is the partial Taylor sum of exp(-t), the sum of (-t)^k / k! for
    k < n, summed in ascending k with compensated (Kahan) accumulation so
    the alternating terms cancel without picking up accumulation error.
    Nonnegative for t in [0, 1], and satisfies the recurrence

        W(t, n+1) + W(t, n) = e^t t^n / n!

    which acceptance criterion 4 checks to 1e-12 for n < 30 on a 100-point
    grid of [0, 1].
    """
    return exp_tail_weights(t, n)[-1]


def product_count_01(t: float) -> float:
    """Exact expected draw count for the product form, t in [0, 1]."""
    t = _as_real("t", t, 0.0, 1.0)
    return _EM1 / _E + math.exp(t - 1.0 + t / _EM1)


def product_count_12(t: float) -> float:
    """Exact expected draw count for the product form, t in [1, 2]."""
    t = _as_real("t", t, 1.0, 2.0)
    grow = math.exp(_RATE * t)
    return grow * _C12 + 2.0 * _EM1 / _E - math.exp(-_RATE) * t * grow / _EM1


def product_count(t: float) -> float:
    """Exact product-form count on [0, 2], dispatching to the right branch."""
    t = _as_real("t", t, 0.0, 2.0)
    return product_count_01(t) if t <= 1.0 else product_count_12(t)


def product_count_series(t: float) -> float:
    """Series evaluation of the product-form count on [0, 1].

    Terms are added in ascending n and the sum stops once |term| < 1e-12
    with at least 5 terms taken.  Terms decay geometrically (ratio below
    1/(e-1)), so the truncated tail is of the same order and the result
    agrees with ``product_count_01`` within about 1e-11.  The tail weights
    come from one running partial sum of exp(-t)'s Taylor series, so the
    whole series costs O(terms): term n is ``exp_tail_weights(t, n)[n]``
    over (e-1)^n.
    """
    t = _as_real("t", t, 0.0, 1.0)
    total = 1.0
    for n, weight in zip(range(1, 400), _tail_weights(t)):
        term = weight / _EM1**n
        total += term
        if abs(term) < 1e-12 and n >= 5:
            return total
    raise ConvergenceError(  # pragma: no cover - terms decay geometrically
        "series did not reach 1e-12 within 400 terms"
    )


def product_count_asymptote(t: float) -> float:
    """Asymptotic line for the product form: (e-1) * (t + (e-2)/2)."""
    t = _as_real("t", t)
    return _line_at("t", t, _EM1 * (t + (_E - 2.0) / 2.0))


def uniform_sum_count(t: float) -> float:
    """Exact expected number of uniform draws for the plain sum to exceed t.

    Evaluates the alternating series

        sum over k = 0..floor(t) of (-1)^k (t-k)^k e^{t-k} / k!

    with exact summation of the computed terms (math.fsum).  The terms grow
    roughly like e^{0.9 t} before cancelling down to an O(t) result, so the
    absolute error grows with t: about (floor(t)+2) * 2^-53 * max |term|.
    Against a 60-digit mpmath sum it is 1.3e-13 at t = 8, 6.1e-12 at 10 and
    7.5e-10 at 15, the cap ``SUM_COUNT_T_CAP``; it would be 4.0e-6 at 20 and
    1.7 at 29.9.  Values of t above the cap are rejected rather than
    silently degraded; there the count equals its asymptote 2t + 2/3 to
    within 6.3e-15 (at t = 15), closer than the series can compute it.
    """
    t = _as_real("t", t, 0.0)
    if t > SUM_COUNT_T_CAP:
        raise DomainError(
            f"exact sum-count series is supported for t in [0, {SUM_COUNT_T_CAP:g}], "
            f"got {t}: past it the alternating series loses too much precision; "
            f"there the asymptote 2t + 2/3 is within 1e-14 of the count"
        )
    terms = []
    for k in range(math.floor(t) + 1):
        sign = -1.0 if k % 2 else 1.0
        # (t-k)**k with the 0**0 = 1 convention at t = k = 0
        terms.append(sign * (t - k) ** k * math.exp(t - k) / math.factorial(k))
    return math.fsum(terms)


def uniform_sum_asymptote(t: float) -> float:
    """Asymptotic line for the plain uniform sum: 2t + 2/3."""
    t = _as_real("t", t)
    return _line_at("t", t, 2.0 * t + 2.0 / 3.0)
