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
split first at the kinks of f).  The first panel (w below f^{-1}(step))
reaches into the not-yet-known value N(t_j); there the history is the
quadratic through the last three grid points (the line through the last
two right after a breaking point), which keeps the update a one-unknown
linear solve.

The march runs in two parts.  A Python loop of short dot products steps
the nodes up to the handover node: the last breaking point (rounded up to
a node), plus one history window (ceil(1/step) nodes), plus the
five-point stencil's reach of 2.  Past it no step reads a slope whose
stencil meets a breaking point, so while the slope limiter leaves every
slope as its stencil gives it, each step is one fixed linear recurrence
v[j+1] = alpha + sum_k c[k] * v[j-k].  The tail solves it in FFT blocks of
at least ceil(1/step) nodes (``_tail``), then one vectorized pass
(``_first_clip``) checks that the limiter would have left every slope
stage of the tail as it is.  Where it would not, the loop takes over from
that step, so its output there is the looped march's.  The tail agrees
with the loop to about 1e-14 relative; against the recurrence evaluated
in extended precision it is the closer of the two.

N has breaking points (Bellen & Zennaro, Numerical Methods for Delay
Differential Equations, 2003): it jumps from 0 to 1 at t = 0, and its
derivative jumps wherever the density of f(X) does, at t = 1 and at each
knot y of a piecewise-linear f.  The history interpolant is a monotone
piecewise cubic.  Its slopes come from one rule: ``_update_slopes``
steps it node by node in the loop, and ``_final_slopes`` applies it to a
whole curve at once with the same arithmetic, bit for bit.  No slope
stencil reaches across a breaking point on the grid.

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

# march cost in units of about 2.9 ns (measured on 2 vCPUs, one BLAS thread,
# step 1e-5 to 1e-2): a looped step costs one unit per history panel
# (ceil(1/step) of them) plus a fixed ~7 us, the price of 2500 panels; a
# node of the FFT tail, with its limiter check and final slopes, about
# 0.4 us.  The cap, about 290 s, holds the loop alone to steps above about
# 5e-6.  At its peak the march holds about 64 bytes per node.
_WORK_UNIT_S = 2.9e-9
_STEP_OVERHEAD = 2_500
_TAIL_NODE_WORK = 150
_MAX_MARCH_WORK = 1e11
_NODE_BYTES = 64
_MAX_MARCH_BYTES = 1e9


def marching_tolerance(step: float) -> float:
    """Expected max absolute solver error at a given step (empirical bound).

    It does not hold in three measured cases:
    - ``Power(p)`` with p > 1, whose error is of order 1 + 1/p: ``power:5``
      at step 1.25e-3 is 4.6e-4 off (t + c)/mu on [20, 30], against 1.6e-5;
    - knot ``y``s off the grid: with knots (0.3, 0.2137) and (0.7, 0.6071)
      at step 1e-3, ``eval_curve`` is 3.0e-5 off near t = 0.2137, against 1e-5;
    - ``eval_curve`` next to any breaking point that is not a grid node,
      which is first order there: logproduct at step 3e-3 is 7.2e-4 off
      near t = 1, against 9e-5.
    """
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


def _break_nodes(spec: BijectionSpec, step: float, n: int) -> list:
    """Node 0 and each of ``spec._breaks`` that is a grid node below n, in order."""
    breaks = {0}
    for b in spec._breaks:
        k = round(b / step)
        if 0 < k < n and abs(k * step - b) <= 1e-9:
            breaks.add(k)
    return sorted(breaks)


def _clamp(m, dl, dr):
    """``_update_slopes``'s limiter on arrays: m in [0, 3 * min(dl, dr)], 0 unless both rise."""
    lim = np.minimum(np.maximum(m, 0.0), 3.0 * np.minimum(dl, dr))
    return np.where((dl > 0.0) & (dr > 0.0), lim, 0.0)


def _final_slopes(v: np.ndarray, breaks: list) -> tuple:
    """Per-panel (left, right) slopes of v, as the march's steps leave them.

    The segments run between the breaking nodes ``breaks`` and the last
    node.  Inside a segment a node takes the five-point stencil when two of
    the segment's nodes lie on each side, else the three-point one; a
    segment's ends take the one-sided three-point stencils, or the
    increment when the segment is one panel long.  Same operations in the
    same order as ``_update_slopes``, so the slopes agree bit for bit.
    """
    n = v.shape[0] - 1
    d = v[1:] - v[:-1]
    lo = np.asarray(breaks)
    hi = np.append(lo[1:], n)
    m = np.empty(n + 1)
    m[1:n] = 0.5 * (v[2:] - v[:-2])
    m3 = m.copy()
    m[2 : n - 1] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / 12.0
    near = np.concatenate([lo + 1, hi - 1])[np.tile(hi - lo > 1, 2)]
    m[near] = m3[near]
    inner = _clamp(m[1:n], d[:-1], d[1:])
    sl = np.empty(n)
    sr = np.empty(n)
    sl[1:] = inner
    sr[:-1] = inner
    one = hi - lo == 1
    two = np.minimum(lo + 2, n)
    first = np.where(one, d[lo], 0.5 * (-3.0 * v[lo] + 4.0 * v[lo + 1] - v[two]))
    sl[lo] = _clamp(first, d[lo], d[lo])
    back = np.maximum(hi - 2, 0)
    last = np.where(one, d[hi - 1], 0.5 * (3.0 * v[hi] - 4.0 * v[hi - 1] + v[back]))
    sr[hi - 1] = _clamp(last, d[hi - 1], d[hi - 1])
    return sl, sr


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
    # (left, right) slope per panel, from the values (``_final_slopes``)
    _slopes: tuple = field(init=False, repr=False)

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
        breaks = _break_nodes(self.transform, self.step, vals.shape[0] - 1)
        object.__setattr__(self, "_slopes", _final_slopes(vals, breaks))

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


def _check_cost(n: int, looped: int, n_pan: int, why: str = "") -> None:
    """Refuse a march of n steps, ``looped`` of them looped, that costs too much.

    ``why`` prefixes the refusal.
    """
    work = looped * (n_pan + _STEP_OVERHEAD) + (n - looped) * _TAIL_NODE_WORK
    size = (n + 1) * _NODE_BYTES
    causes = []
    if work > _MAX_MARCH_WORK:
        causes.append(
            f"march work {work:.3g} ({looped} looped steps * ({n_pan} panels + "
            f"{_STEP_OVERHEAD}) + {n - looped} tail nodes * {_TAIL_NODE_WORK}, about "
            f"{work * _WORK_UNIT_S:.3g} s) exceeds the cap of {_MAX_MARCH_WORK:.0e}"
        )
    if size > _MAX_MARCH_BYTES:
        causes.append(
            f"the march's {n + 1:.3g} nodes take about {size / 1e9:.3g} GB, over the "
            f"cap of {_MAX_MARCH_BYTES / 1e9:g} GB"
        )
    if causes:
        raise DomainError(why + "; ".join(causes) + "; increase step or decrease t_max")


def _march(v0: list, n: int, weights, breaks: list) -> np.ndarray:
    """The looped march from the known values v0 = v[0..q] to node n.

    Step hi (q <= hi < n) sets the slopes of nodes hi-2..hi from their
    segment (``_update_slopes``; a segment starts at each of the breaking
    nodes ``breaks``) and then solves for v[hi + 1].  The slopes of the nodes
    below q - 2 are the final ones of v0 (``_final_slopes``): later steps
    leave them as they are.
    """
    p, (a0, a1, a2), (b0, b1) = weights
    n_pan = p.shape[0]
    q = len(v0) - 1
    # one row per panel i: v[i], v[i+1] and the slopes at both ends.  With
    # the weights of panels m = n_pan-1..1 in that order, the history of
    # step hi + 1 (m = 1..r, i.e. panels i = hi-1 down to hi-r) is one dot
    # product.
    rows = np.zeros((n + 1, 4))
    rows[: q + 1, 0] = v0
    rows[:q, 1] = v0[1:]
    if q:
        rows[:q, 2], rows[:q, 3] = _final_slopes(np.array(v0), [k for k in breaks if k < q])
    flat, wts = rows.reshape(-1), p[:0:-1].reshape(-1)
    sl, sr = rows[:, 2], rows[:, 3]
    v = list(v0)  # the stencils read plain floats, the dot products read rows
    brk = set(breaks)
    seg = max(k for k in breaks if k < max(q, 1))
    for hi in range(q, n):  # v[0..hi] known
        if hi - 1 in brk:
            seg = hi - 1
        if hi:
            _update_slopes(v, sl, sr, seg, hi)
        r = min(hi, n_pan - 1)
        hist = float(np.dot(wts[wts.size - 4 * r :], flat[4 * (hi - r) : 4 * hi]))
        # the first panel reaches into v[hi + 1]: quadratic through
        # v[hi-1..hi+1], linear right after a breaking point
        if hi in brk:
            val = (1.0 + hist + b0 * v[hi]) / (1.0 - b1)
        else:
            val = (1.0 + hist + a1 * v[hi] + a0 * v[hi - 1]) / (1.0 - a2)
        v.append(val)
        rows[hi, 1] = rows[hi + 1, 0] = val
    return rows[:, 0]


def _tail_recurrence(weights) -> tuple:
    """(alpha, c, sum(c) - 1) of the march's step v[hi+1] = alpha + sum_k c[k] * v[hi-k] in the tail.

    Past the handover every slope the step reads is one unclamped stage: the
    one-sided stencil at node hi, the three-point one at hi - 1 and the
    five-point one behind; each panel's Hermite weights then act on values
    alone.  c has n_pan + 2 entries.
    """
    p, (a0, a1, a2), _ = weights
    n_pan = p.shape[0]
    pv = np.zeros((n_pan + 1, 4))
    pv[:n_pan] = p
    # weights of the value and of the slope of node hi - k, k = 0..n_pan-1
    wv = pv[:-1, 0] + pv[1:, 1]
    ws = pv[:-1, 2] + pv[1:, 3]
    c = np.zeros(n_pan + 2)
    c[:n_pan] += wv
    c[:2] += (a1, a0)
    c[:3] += ws[0] * np.array([1.5, -2.0, 0.5]) + ws[1] * np.array([0.5, 0.0, -0.5])
    w5 = ws[2:] / 12.0
    c[4:] += w5
    c[3:-1] -= 8.0 * w5
    c[1 : n_pan - 1] += 8.0 * w5
    c[: n_pan - 2] -= w5
    # sum(c) - 1 from the weights: the stencils sum to 0, so it is the value
    # weights' sum, here without the rounding of composing c
    excess = math.fsum(p[:, :2].ravel().tolist() + [a0, a1, a2, -1.0]) / (1.0 - a2)
    return 1.0 / (1.0 - a2), c / (1.0 - a2), excess


def _series_inverse(a: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` coefficients of 1 / a(z), a[0] = 1, by Newton doubling.

    Each doubling g <- g - g * (a * g - 1) takes two FFT products.
    """
    fft = np.fft
    g = np.ones(1)
    m = 1
    while m < size:
        m2 = min(2 * m, size)
        k = 1 << (m2 + m - 2).bit_length()
        gf = fft.rfft(g, k)
        err = fft.irfft(fft.rfft(a[:m2], k) * gf, k)[m:m2]
        g = np.concatenate([g, -fft.irfft(gf * fft.rfft(err, k), k)[: m2 - m]])
        m = m2
    return g


def _tail(v: np.ndarray, start: int, alpha: float, c: np.ndarray, excess: float) -> None:
    """Fill v[start+1..] by v[j+1] = alpha + sum_k c[k] * v[j-k], in FFT blocks.

    A block of L nodes gets its older history by one FFT convolution and
    then solves its triangular Toeplitz system by a second one, with the
    recurrence's impulse response 1 / (1 - z c(z)) (Hairer, Lubich &
    Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  The convolutions act
    on the distance u from the line through the two nodes before the block;
    the line's own share of each step is a closed form in sum(c) - 1
    (``excess``) and sum_k (k + 1) * c[k].  u stays small, so the FFTs'
    rounding, which scales with what they transform, does not grow with N
    and does not pile up block after block.
    """
    fft = np.fft
    k = c.shape[0]
    # FFT length; blocks of L = size / 2 >= k nodes, and at least 512
    size = 1 << max((2 * k - 1).bit_length(), 10)
    block = size // 2
    d = np.concatenate([[0.0], c])  # d[i] weighs v[j - i] in v[j]
    df = fft.rfft(d, size)
    gf = fft.rfft(_series_inverse(np.concatenate([[1.0], -c]), block), size)
    # the line R + S * i (i = 1, 2, ... nodes past the block's start - 1)
    # obeys the recurrence up to alpha - S * mean_lag + (sum(c) - 1) * line
    mean_lag = math.fsum((np.arange(1, k + 1) * c).tolist())
    back = np.arange(1 - k, 1.0)  # node offsets of the history, last one 0
    ahead = np.arange(1, block + 1.0)
    for s in range(start + 1, v.shape[0], block):
        base, rise = v[s - 1], v[s - 1] - v[s - 2]
        older = fft.irfft(fft.rfft(v[s - k : s] - (base + rise * back), size) * df, size)
        force = (alpha - rise * mean_lag) + excess * (base + rise * ahead) + older[k : k + block]
        u = fft.irfft(fft.rfft(force, size) * gf, size)[:block]
        v[s : s + block] = ((base + rise * ahead) + u)[: v.shape[0] - s]


def _first_clip(v: np.ndarray, start: int, n_pan: int):
    """The first tail step hi >= start at which the limiter would act, or None.

    Step hi reads the one-sided stage of node hi, the three-point stage of
    hi - 1 and the five-point stages of hi - n_pan + 1..hi - 2.  A stage
    passes when the limiter leaves it as it is.
    """
    n = v.shape[0] - 1
    d = v[1:] - v[:-1]
    a = start
    one = 0.5 * (3.0 * v[a:n] - 4.0 * v[a - 1 : n - 1] + v[a - 2 : n - 2])  # node x, step x
    three = 0.5 * (v[a:n] - v[a - 2 : n - 2])  # node x - 1, step x
    bad = [
        np.flatnonzero(_clamp(one, d[a - 1 : n - 1], d[a - 1 : n - 1]) != one)[:1] + a,
        np.flatnonzero(_clamp(three, d[a - 2 : n - 2], d[a - 1 : n - 1]) != three)[:1] + a,
    ]
    a -= n_pan - 1  # node x, first read at step max(x + 2, start)
    five = (v[a - 2 : n - 4] - 8.0 * v[a - 1 : n - 3] + 8.0 * v[a + 1 : n - 1] - v[a + 2 : n]) / 12.0
    x = np.flatnonzero(_clamp(five, d[a - 1 : n - 3], d[a : n - 2]) != five)[:1] + a
    bad.append(np.maximum(x + 2, start))
    steps = np.concatenate(bad)
    return int(steps.min()) if steps.size else None


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

    Raises ``DomainError`` before any work if the march would exceed its
    work or memory cap, and ``ConvergenceError`` if the panel-weight
    quadrature fails or the marched values stop increasing (a sign the grid
    cannot resolve f).
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
    n_pan = math.ceil(1.0 / h - 1e-12)
    # the handover node: past the last breaking point (rounded up to a node),
    # one history window and the five-point stencil's reach, no step reads
    # a slope whose stencil meets a breaking point
    handover = max((math.ceil(b / h) for b in spec._breaks), default=0) + n_pan + 2
    _check_cost(n, min(n, handover), n_pan)

    weights = _panel_weights(spec, h)
    _, (_, _, a2), (_, b1) = weights
    if not (a2 < 1.0 and b1 < 1.0):
        raise ConvergenceError("first-panel weight reached 1; transform too flat near 0")

    breaks = _break_nodes(spec, h, n)
    v = _march([1.0], min(n, handover), weights, breaks)
    if n > handover:
        v = np.concatenate([v, np.empty(n - handover)])
        _tail(v, handover, *_tail_recurrence(weights))
        clip = _first_clip(v, handover, n_pan)
        if clip is not None:
            # the limiter acts from step clip on: march on with it from there
            why = f"the slope limiter acts at t = {clip * h:g}, past the handover, so "
            _check_cost(n, handover + n - clip, n_pan, why)
            v = _march(v[: clip + 1].tolist(), n, weights, breaks)

    if not np.all(np.diff(v) > 0.0):
        raise ConvergenceError(
            "marched values are not strictly increasing; the grid cannot "
            "resolve this transform at this step"
        )
    return RenewalCurve(spec, h, t_max, v)


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
