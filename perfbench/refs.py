"""Exact references for the benchmark, derived from closed formulas only.

Nothing here imports ``renewal``: the benchmark judges the program against
these values, so they must not come from the code being measured.

* ``uniform_sum_count``: E[draws] for plain uniform increments,
  sum_{k <= t} (-1)^k (t-k)^k e^{t-k} / k!  (evaluated on [0, 2] only).
* ``product_count``: the logproduct count.  Its increment density is
  e^y / (e-1) on [0, 1], so the renewal equation becomes N' = r N - 1 on
  [0, 1] and N' = r N - r N(t-1) - 1 on [1, 2], with r = e/(e-1).  Both are
  linear ODEs solved in closed form below.
* ``ASYMPTOTE``: (mu, c) of the line (t + c)/mu for every solved spec.
* ``logproduct_overshoot_bins``: limiting overshoot bin masses for
  logproduct, whose density is e - e^u on [0, 1].
"""

from __future__ import annotations

import math
from pathlib import Path

E = math.e
EM1 = E - 1.0
_R = E / EM1

# the kinked transform solved on the long-horizon workload, one "x y" per line
KNOT_FILE = Path(__file__).resolve().parent / "knots.txt"
KNOTS = tuple(tuple(float(v) for v in line.split())
              for line in KNOT_FILE.read_text().splitlines() if line.strip())


def piecewise_params(knots) -> tuple[float, float]:
    """(mu, c) of a piecewise-linear transform by exact trapezoid sums."""
    mu = 0.0
    f2 = 0.0
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        dx = x1 - x0
        mu += dx * (y0 + y1) / 2.0
        f2 += dx * (y0 * y0 + y0 * y1 + y1 * y1) / 3.0
    return mu, f2 / (2.0 * mu)


ASYMPTOTE = {
    "identity": (0.5, 1.0 / 3.0),
    "logproduct": (1.0 / EM1, (E - 2.0) / 2.0),
    "power:0.5": (2.0 / 3.0, 3.0 / 8.0),
    "piecewise": piecewise_params(KNOTS),
}


def asymptote(name: str, t):
    mu, c = ASYMPTOTE[name]
    return (t + c) / mu


def uniform_sum_count(t: float) -> float:
    if not 0.0 <= t <= 2.0:
        raise ValueError(f"reference covers t in [0, 2], got {t}")
    out = math.exp(t)
    if t >= 1.0:
        out -= (t - 1.0) * math.exp(t - 1.0)
    return out


def _product_01(t: float) -> float:
    return 1.0 / _R + math.exp(_R * t) / E


# on [1, 2] the forcing r N(t-1) + 1 = 2 + K e^{r t} resonates with the
# homogeneous solution, hence the t e^{r t} term
_K = math.exp(-_R) / EM1
_C = (_product_01(1.0) - 2.0 / _R) * math.exp(-_R) + _K


def product_count(t: float) -> float:
    if not 0.0 <= t <= 2.0:
        raise ValueError(f"reference covers t in [0, 2], got {t}")
    if t <= 1.0:
        return _product_01(t)
    return 2.0 / _R + (_C - _K * t) * math.exp(_R * t)


EXACT = {"identity": uniform_sum_count, "logproduct": product_count}


def logproduct_overshoot_bins(edges):
    """Limiting overshoot mass of each bin [a, b]: e(b-a) - (e^b - e^a)."""
    return [E * (b - a) - (math.exp(b) - math.exp(a)) for a, b in zip(edges, edges[1:])]
