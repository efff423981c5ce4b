"""Marching solver for the expected-draw-count renewal equation.

The expected count N(t) of transformed uniform draws needed for the
running sum to exceed t satisfies

    N(t) = 1 + integral_0^1 N(t - f(w)) dw,      N(s) = 0 for s < 0,

with N(0) = 1.  The solver marches a uniform grid t_j = j * step.  At each
step the w-integral is split at the points w_m = f^{-1}(m * step) where
the history interpolant changes cubic piece; on each such panel the
integrand is one cubic in the (already computed) grid values and slopes,
so its integral is a fixed linear combination of them.  The combination
weights depend only on f and step, are computed once per solve by one
call of the batched quadrature from ``bijections`` (every panel at once,
split first at the kinks of f), and turn the whole march into short dot
products.  The first panel (w below f^{-1}(step)) reaches into
the not-yet-known value N(t_j); there the history is the quadratic through
the last three grid points (the line through the last two right after a
breaking point), which keeps the update a one-unknown linear solve.

N has breaking points (Bellen & Zennaro, Numerical Methods for Delay
Differential Equations, 2003): it jumps from 0 to 1 at t = 0, and its
derivative jumps wherever the density of f(X) does, at t = 1 and at each
knot y of a piecewise-linear f.  The history interpolant is a monotone
piecewise cubic whose slopes come from one routine, ``_update_slopes``,
for the march and for curves built from values; no slope stencil reaches
across a breaking point on the grid.

With its breaking points on grid nodes the march is third order: at step
1e-3 the max node error on [0, 2] is 8.4e-11 (identity) and 5.2e-11
(logproduct).  A breaking point inside a panel costs an order: with t = 1
off the grid (step 3e-3) node errors are 0.1-0.16 * step^2, and off-grid
ones 0.15-0.24 * step on the five panels whose stencils reach across it.
``marching_tolerance(step)`` = 10 * step^2 is the documented envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bijections import (
    AsymptoticParams,
    BijectionSpec,
    ConvergenceError,
    DomainError,
    LogProduct,
    _quad,
    integrate,
)

__all__ = [
    "RenewalCurve",
    "solve",
    "eval_curve",
    "check_derivative_relation",
    "asymptote_gap",
    "self_consistency_residual",
    "marching_tolerance",
    "write_curve_csv",
    "curve_json_payload",
]

# growth rate of the product-form count, used by the derivative identity
_RATE = math.e / (math.e - 1.0)

# march cost: a step costs about 2.2 ns per history panel (ceil(1/step) of
# them) plus a fixed ~11 us, the price of 5000 panels (measured on 2 vCPUs,
# one BLAS thread, step 1e-5 to 1e-2).  The cap, about 220 s, admits the
# benchmark's finest step 1/51200 to t_max = 30.
_STEP_OVERHEAD = 5_000
_MAX_MARCH_WORK = 1e11


def marching_tolerance(step: float) -> float:
    """Expected max absolute solver error at a given step (empirical bound)."""
    return 10.0 * step * step


def _update_slopes(v, sl, sr, seg: int, hi: int) -> None:
    """Set the slopes (value per panel) of nodes hi-2..hi from their segment v[seg..hi].

    No stencil leaves the segment, which starts at a breaking point: a node
    takes the five-point centered stencil where it fits, else the three-point
    one; the ends take one-sided three-point stencils.  Slopes are clamped to
    [0, 3 * min of adjacent increments], which keeps the Hermite cubic of
    increasing values monotone.  ``sl[i]`` and ``sr[i]`` are the slopes at
    the left and right node of panel i, so a breaking point has one per side.
    """
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


def _slope_sweep(v, sl, sr, spec: BijectionSpec, step: float, n: int):
    """Set the slopes of v[0..hi] for hi = 0..n, no stencil across a breaking point.

    The breaking points are node 0 and each of ``spec._breaks`` that is a
    grid node.  Yields (hi, whether hi is a breaking point) for each hi < n
    once its slopes are set, so that the march can append v[hi + 1] first.
    """
    breaks = {0}
    for b in spec._breaks:
        k = round(b / step)
        if 0 < k < n and abs(k * step - b) <= 1e-9:
            breaks.add(k)
    seg = 0
    for hi in range(n + 1):
        if hi - 1 in breaks:
            seg = hi - 1
        if hi:
            _update_slopes(v, sl, sr, seg, hi)
        if hi < n:
            yield hi, hi in breaks


def _curve_slopes(values: np.ndarray, spec: BijectionSpec, step: float) -> tuple:
    """Per-panel (left, right) slopes of ``values``, as the march leaves them."""
    n = values.shape[0] - 1
    sl, sr = np.empty(n + 1), np.empty(n + 1)
    for _ in _slope_sweep(values.tolist(), sl, sr, spec, step, n):
        pass
    return sl[:n], sr[:n]


@dataclass(frozen=True, eq=False)
class RenewalCurve:
    """Expected draw count N on a uniform grid t_j = j * step.

    values[0] is exactly 1 and the values increase strictly.  Off-grid
    evaluation interpolates with the same monotone piecewise cubic the
    solver used, so it is exact at the nodes and increasing in between.
    """

    transform: BijectionSpec
    step: float
    t_max: float
    values: np.ndarray
    # (left, right) slope per panel; solve hands over the march's own
    _slopes: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise DomainError(f"step must be positive, got {self.step}")
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise DomainError(f"t_max must be positive, got {self.t_max}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] < 2:
            raise DomainError("values must be a 1-D array with at least 2 entries")
        if not np.all(np.isfinite(vals)):
            raise DomainError("curve values must be finite")
        if vals[0] != 1.0:
            raise DomainError(f"values[0] must be exactly 1.0, got {vals[0]!r}")
        if not np.all(np.diff(vals) > 0.0):
            raise DomainError("curve values must be strictly increasing")
        if (vals.shape[0] - 1) * self.step < self.t_max - 1e-9:
            raise DomainError("grid does not reach t_max")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self._slopes is None:
            object.__setattr__(self, "_slopes", _curve_slopes(vals, self.transform, self.step))

    @property
    def n_panels(self) -> int:
        return self.values.shape[0] - 1

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.step


def _panel_weights(spec: BijectionSpec, step: float):
    """Per-panel integration weights reused by every marching step.

    Splits w in [0, 1] at the seams w_m = f^{-1}(min(m * step, 1)).  Row
    m >= 1 of the returned array holds the integrals over panel m of the
    four cubic Hermite basis functions composed with u(w) = (m + 1) -
    f(w) / step (for the values at u = 0 and 1, then the slopes); for panel 0
    returns the integrals of the quadratic (and startup linear) Lagrange
    bases in theta(w) = f(w) / step.  Every panel is one interval of a
    single ``_quad`` call (each to 1e-13), split first at the kinks of f.
    """
    h = step
    n_pan = math.ceil(1.0 / h - 1e-12)
    sig = np.minimum(np.arange(n_pan + 1) * h, 1.0)
    sig[-1] = 1.0
    seams = np.asarray(spec._finv(sig), dtype=float)

    # panel 0 integrates the five Lagrange bases (a0, a1, a2, b0, b1), every
    # other panel m the four Hermite bases and a zero
    def bases(w, m):
        th = spec._f(w) / h
        u = (m + 1.0)[:, None] - th
        out = np.zeros((5,) + w.shape)
        out[0] = (2.0 * u - 3.0) * u * u + 1.0
        out[1] = (3.0 - 2.0 * u) * u * u
        out[2] = u * (1.0 - u) ** 2
        out[3] = -u * u * (1.0 - u)
        first = m == 0
        if first.any():
            t = th[first]
            out[:, first] = (
                0.5 * t * (t - 1.0), t * (2.0 - t), 0.5 * (t - 1.0) * (t - 2.0), t, 1.0 - t
            )
        return out

    w = _quad(bases, seams[:-1], seams[1:], 1e-13, spec._kinks)
    a0, a1, a2, b0, b1 = w[:, 0].tolist()
    p = w[:4].T.copy()
    p[0] = 0.0
    return p, (a0, a1, a2), (b0, b1)


def solve(
    spec: BijectionSpec,
    t_max: float,
    step: float = 1e-3,
    *,
    step_limit: float = 0.01,
) -> RenewalCurve:
    """March the renewal equation for ``spec`` up to ``t_max``.

    ``step`` above ``step_limit`` (default 0.01) is rejected: the scheme is
    third order, but coarse grids visibly miss the exact counts.  The limit
    is a keyword so diagnostic callers (the verify command's degradation
    demo) can relax it deliberately.

    Raises ``ConvergenceError`` if the panel-weight quadrature fails or the
    marched values stop increasing (a sign the grid cannot resolve f).
    """
    if not (isinstance(t_max, (int, float)) and math.isfinite(t_max) and t_max > 0.0):
        raise DomainError(f"t_max must be a positive finite number, got {t_max!r}")
    if not (isinstance(step, (int, float)) and math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be a positive finite number, got {step!r}")
    if step > step_limit:
        raise DomainError(f"step must be <= {step_limit:g}, got {step:g}")
    t_max = float(t_max)
    h = float(step)

    n = math.ceil(t_max / h - 1e-12)
    work = n * (math.ceil(1.0 / h - 1e-12) + _STEP_OVERHEAD)
    if work > _MAX_MARCH_WORK:
        raise DomainError(
            f"march work {work:.3g} (steps * (panels + {_STEP_OVERHEAD}), about "
            f"{work * 2.2e-9:.3g} s) exceeds the cap of {_MAX_MARCH_WORK:.0e}; "
            f"increase step or decrease t_max"
        )

    p, (a0, a1, a2), (b0, b1) = _panel_weights(spec, h)
    n_pan = p.shape[0]
    if not (a2 < 1.0 and b1 < 1.0):
        raise ConvergenceError("first-panel weight reached 1; transform too flat near 0")

    # one row per panel i: v[i], v[i+1] and the slopes at both ends.  With
    # the weights of panels m = n_pan-1..1 in that order, the history of
    # step hi + 1 (m = 1..r, i.e. panels i = hi-1 down to hi-r) is one dot
    # product.
    rows = np.zeros((n + 1, 4))
    rows[0, 0] = 1.0
    flat, wts = rows.reshape(-1), p[:0:-1].reshape(-1)
    sl, sr = rows[:, 2], rows[:, 3]
    v = [1.0]  # the stencils read plain floats, the dot products read rows
    for hi, after_break in _slope_sweep(v, sl, sr, spec, h, n):  # v[0..hi] known
        r = min(hi, n_pan - 1)
        hist = float(np.dot(wts[wts.size - 4 * r :], flat[4 * (hi - r) : 4 * hi]))
        # the first panel reaches into v[hi + 1]: quadratic through
        # v[hi-1..hi+1], linear right after a breaking point
        if after_break:
            val = (1.0 + hist + b0 * v[hi]) / (1.0 - b1)
        else:
            val = (1.0 + hist + a1 * v[hi] + a0 * v[hi - 1]) / (1.0 - a2)
        v.append(val)
        rows[hi, 1] = rows[hi + 1, 0] = val

    if not np.all(np.diff(rows[:, 0]) > 0.0):
        raise ConvergenceError(
            "marched values are not strictly increasing; the grid cannot "
            "resolve this transform at this step"
        )
    return RenewalCurve(spec, h, t_max, rows[:, 0], _slopes=(sl[:n].copy(), sr[:n].copy()))


def _hermite_eval(values: np.ndarray, slopes: tuple, step: float, x: np.ndarray):
    """Evaluate the monotone cubic through (j * step, values[j]) at x."""
    n = values.shape[0] - 1
    pos = x / step
    i = np.floor(pos)
    u = pos - i
    # snap to the nearest node so grid points reproduce stored values exactly
    near_lo = u < 1e-9
    near_hi = u > 1.0 - 1e-9
    u = np.where(near_lo, 0.0, u)
    i = np.where(near_hi, i + 1.0, i)
    u = np.where(near_hi, 0.0, u)
    i = np.clip(i, 0, n)
    # a query exactly at the last node evaluates as u = 1 on the last panel
    shift = np.where(i > n - 1, 1.0, 0.0)
    idx = (i - shift).astype(np.int64)
    u = u + shift
    v0 = values[idx]
    v1 = values[idx + 1]
    m0 = slopes[0][idx]
    m1 = slopes[1][idx]
    u2 = u * u
    u3 = u2 * u
    return (
        v0 * (2.0 * u3 - 3.0 * u2 + 1.0)
        + v1 * (3.0 * u2 - 2.0 * u3)
        + m0 * (u3 - 2.0 * u2 + u)
        + m1 * (u3 - u2)
    )


def eval_curve(curve: RenewalCurve, t):
    """Interpolated curve value at t (scalar or array), t in [0, t_max].

    Exact at grid nodes, strictly increasing and continuous in between
    (monotone cubic through the marched values).
    """
    arr = np.asarray(t, dtype=float)
    if arr.size:
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0.0 and hi <= curve.t_max):
            raise DomainError(
                f"t must lie in [0, {curve.t_max:g}], got range [{lo:g}, {hi:g}]"
            )
    out = _hermite_eval(curve.values, curve._slopes, curve.step, arr)
    return float(out[()]) if out.ndim == 0 else out


def check_derivative_relation(curve: RenewalCurve, t: float) -> float:
    """Residual of the product-form derivative identity at t.

    The product-form curve satisfies N'(t) = rate * (N(t) - N(t-1)) - 1
    with rate = e/(e-1) for t >= 1.  N' is taken as the central finite
    difference with spacing ``curve.step``; the returned residual is
    |difference - identity| and sits near step^2 for an accurate curve
    (about 1e-4 or less at step 1e-3).  Curves for any other transform are
    rejected: the identity encodes the logproduct increment law.
    """
    if not isinstance(curve.transform, LogProduct):
        raise DomainError(
            "derivative relation is defined only for the logproduct transform"
        )
    t = float(t)
    d = curve.step
    if not (1.0 + d <= t <= curve.t_max - d):
        raise DomainError(
            f"t must lie in [1 + step, t_max - step] = "
            f"[{1.0 + d:g}, {curve.t_max - d:g}], got {t}"
        )
    n_t = eval_curve(curve, t)
    n_lag = eval_curve(curve, t - 1.0)
    deriv = (eval_curve(curve, t + d) - eval_curve(curve, t - d)) / (2.0 * d)
    return abs(deriv - (_RATE * (n_t - n_lag) - 1.0))


def asymptote_gap(curve: RenewalCurve, params: AsymptoticParams, t: float) -> float:
    """Signed distance from the curve to its asymptotic line at t."""
    return eval_curve(curve, t) - (float(t) + params.c) / params.mu


def self_consistency_residual(curve: RenewalCurve, t: float) -> float:
    """How well the finished curve satisfies its own renewal equation at t.

    Recomputes the right-hand side 1 + integral of N(t - f(w)) dw with the
    adaptive quadrature, splitting the w-range at f^{-1}(t) when t < 1
    (beyond it the integrand is identically zero).  For a sound curve the
    residual is bounded by a small multiple of ``marching_tolerance``.
    """
    t = float(t)
    if not (0.0 <= t <= curve.t_max):
        raise DomainError(f"t must lie in [0, {curve.t_max:g}], got {t}")
    spec = curve.transform
    w_end = 1.0 if t >= 1.0 else float(spec._finv(np.asarray(t)))
    if w_end <= 0.0:
        rhs = 1.0
    else:
        grid_end = curve.n_panels * curve.step

        def hist(w):
            s = np.clip(t - spec._f(w), 0.0, grid_end)
            return _hermite_eval(curve.values, curve._slopes, curve.step, s)

        rhs = 1.0 + integrate(hist, 0.0, w_end, 1e-9)
    return abs(eval_curve(curve, t) - rhs)


def write_curve_csv(curve: RenewalCurve, fh) -> None:
    """Write the curve as CSV with header ``t,N``, 17 significant digits."""
    grid = curve.grid
    lines = ["t,N\n"]
    lines.extend(
        f"{grid[j]:.17g},{curve.values[j]:.17g}\n" for j in range(grid.shape[0])
    )
    fh.write("".join(lines))


def curve_json_payload(curve: RenewalCurve) -> dict:
    """JSON-ready dict form of the curve (plain lists, insertion-ordered keys)."""
    return {
        "spec": curve.transform.label,
        "step": curve.step,
        "t_max": curve.t_max,
        "t": [float(x) for x in curve.grid],
        "N": [float(x) for x in curve.values],
    }
