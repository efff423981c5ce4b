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

The march is one blocked solve from node 0.  Between breaking points each
step is the same linear recurrence v[j+1] = alpha + sum_k c[k] * v[j-k]
(the slopes it reads are unclamped stencil stages, so each panel's
weights act on values alone) plus a known forcing: the panel weights times
the difference between each frozen slope and the five-point stage the
recurrence assumes.  That difference is nonzero only next to a breaking
point, whose stencils it cuts, and at node 0, whose history is zero.
``_tail`` solves the recurrence in FFT blocks of at least ceil(1/step)
nodes.  Only the three steps from each breaking node loop in Python
(``_loop``): there the first panel takes the line and the stencils still
grow; their frozen slopes then join the forcing.  A looped step is the
looped march's step bit for bit, and sums its history without BLAS, so no
output depends on the BLAS thread count.  The blocks agree with a march
looped throughout to about 1e-14 relative.

N has breaking points (Bellen & Zennaro, Numerical Methods for Delay
Differential Equations, 2003): it jumps from 0 to 1 at t = 0, and its
derivative jumps wherever the density of f(X) does, at t = 1 and at each
knot y of a piecewise-linear f.  The history interpolant is a piecewise
cubic whose slopes come from one rule: ``_update_slopes`` steps it node
by node in the loop, and ``_final_slopes`` applies it to a whole curve at
once with the same arithmetic, bit for bit.  No slope stencil reaches
across a breaking point on the grid.  The march reads these slopes as
they are; only the finished curve boxes them (``RenewalCurve``), so that
``eval_curve`` is monotone.

With its breaking points on grid nodes the march is fourth order, but for
the two nodes after each breaking point, which are third order.  On
[0, 2] the max node error sits at t = 2 * step (identity) or t = 1 + step
(logproduct) and falls 8x per halving of step: 8.6e-8 and 5.7e-8 at step
1e-2, 8.4e-11 and 5.2e-11 at 1e-3.  On [1.1, 2] it falls 16x per halving,
from 7.8e-9 (identity) and 8.1e-9 (logproduct) at 1e-2.  A breaking point
inside a panel costs an order: with t = 1 off the grid (step 3e-3) node
errors are 0.1-0.16 * step^2, and off-grid ones 0.15-0.24 * step on the
five panels whose stencils reach across it.
``marching_tolerance(step)`` = 10 * step^2 is the documented envelope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bijections import (
    AsymptoticParams,
    BijectionSpec,
    ConvergenceError,
    DomainError,
    LogProduct,
    _as_real,
    _as_reals,
    _as_spec,
    _quad,
    integrate,  # noqa: F401  (perfbench/tracing.py patches it here by name)
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
    "write_curve_json",
]

# growth rate of the product-form count, used by the derivative identity
_RATE = math.e / (math.e - 1.0)

# march cost in units of about 75 ns (measured on 2 vCPUs, one BLAS thread,
# step 1e-5 to 1e-2): a looped step costs one unit per history panel
# (ceil(1/step) of them) plus a fixed ~45 us, the price of 600 panels, its
# share of its stretch's history slopes included; a blocked node, its final
# slopes included, 0.11-0.2 us (the most at step 1e-5), taken as 0.225 us.
# Each history panel costs its weights and recurrence spectra: 1.66-1.80 us
# per panel at steps 1e-5 and 1e-6, taken as 1.8 us.  The cap, about 300 s,
# holds the blocks alone to about 1.3e9 nodes, so the 1 GB memory cap trips
# first.  The memory peak falls in one of two phases (traced at steps 1e-5
# to 1e-6 and t_max 1e-3 to 20): the finished curve holds about 58 bytes
# per node (charged 64); before it, the panel weights and spectra hold
# 189-239 bytes per panel (peak RSS 238-250 at step 1e-6; charged 256)
# beside the march's buffers, 21-28 bytes per node (charged 32).
_WORK_UNIT_S = 75e-9
_STEP_OVERHEAD = 600
_NODE_WORK = 3
_PANEL_WORK = 24
_MAX_MARCH_WORK = 4e9
_NODE_BYTES = 64
_PANEL_BYTES = 256
_BUFFER_BYTES = 32
_MAX_MARCH_BYTES = 1e9
# lines of CSV formatted per numpy pass (``_csv_lines``), and numbers per
# chunk of JSON.  A pass holds about 0.75 kB per line at its peak;
# 2048-line passes format 10-17% faster, longer ones no faster (2 vCPUs),
# and 1024 keeps a CLI solve's peak RSS within about 1 MB of the
# per-number ``%`` writer's
_CSV_LINES = 1024


def marching_tolerance(step: float) -> float:
    """Expected max absolute solver error at a given step (empirical bound).

    It does not hold in four measured cases:
    - ``Power(p)`` with p > 1, whose error is of order 1 + 1/p: ``power:5``
      at step 1.25e-3 is 4.6e-4 off (t + c)/mu on [20, 30], against 1.6e-5;
    - knot ``y``s off the grid: with knots (0.3, 0.2137) and (0.7, 0.6071)
      at step 1e-3, ``eval_curve`` is 3.0e-5 off near t = 0.2137, against 1e-5;
    - a steep density of f(X) with a knot ``y`` off the grid: with knots
      (0.01, 0.49) and (0.99, 0.51) at step 4e-3 the solve succeeds, its
      nodes 1.9e-3 and ``eval_curve`` 3.5e-2 off a solve at 1.25e-4 on
      [0, 10], against 1.6e-4;
    - ``eval_curve`` next to any breaking point that is not a grid node,
      which is first order there: logproduct at step 3e-3 is 7.2e-4 off
      near t = 1, against 9e-5.

    A step whose 10 * step^2 underflows to 0 or overflows to inf (below
    about 5e-163 or above about 4.2e153) is refused with ``DomainError``.
    """
    step = _as_real("step", step, 0.0, open_lo=True)
    tol = 10.0 * step * step
    if not 0.0 < tol < math.inf:
        raise DomainError(f"step must give a positive finite 10 * step^2, got {step!r}")
    return tol


def _update_slopes(v, sl, sr, seg: int, hi: int) -> None:
    """Set the slopes (value per panel) of nodes hi-2..hi from their segment v[seg..hi].

    No stencil leaves the segment, which starts at a breaking point: a node
    takes the five-point centered stencil where it fits, else the three-point
    one; the ends take one-sided three-point stencils, or the increment when
    the segment is one panel long.  ``sl[i]`` and ``sr[i]`` are the slopes
    at the left and right node of panel i, so a breaking point has one per
    side.  It stays beside ``_final_slopes``, which applies the same rule
    to a whole curve, because a ``_final_slopes`` call costs 24 us on 5
    nodes against 0.56 us here: a ``_loop`` that took each step's slopes
    from ``_final_slopes`` printed byte-identical curves, but raised the
    solve benchmark's ``task_ref`` from 0.575 to 0.615 (+6.7%, 3 seeds of
    20-s runs, 2 vCPUs).
    """
    for i in range(max(seg, hi - 2), hi + 1):
        if hi - seg == 1:
            m = v[hi] - v[seg]
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


def _break_nodes(spec: BijectionSpec, step: float, n: int) -> list:
    """Node 0 and each of ``spec._breaks`` that is a grid node below n, in order."""
    breaks = {0}
    for b in spec._breaks:
        k = round(b / step)
        if 0 < k < n and abs(k * step - b) <= 1e-9:
            breaks.add(k)
    return sorted(breaks)


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
    lo = np.asarray(breaks)
    hi = np.append(lo[1:], n)
    m = np.empty(n + 1)
    m[1:n] = 0.5 * (v[2:] - v[:-2])
    m3 = m.copy()
    m[2 : n - 1] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / 12.0
    near = np.concatenate([lo + 1, hi - 1])[np.tile(hi - lo > 1, 2)]
    m[near] = m3[near]
    sl = np.empty(n)
    sr = np.empty(n)
    sl[1:] = m[1:n]
    sr[:-1] = m[1:n]
    one = hi - lo == 1
    two = np.minimum(lo + 2, n)
    sl[lo] = np.where(one, v[lo + 1] - v[lo], 0.5 * (-3.0 * v[lo] + 4.0 * v[lo + 1] - v[two]))
    back = np.maximum(hi - 2, 0)
    sr[hi - 1] = np.where(one, v[hi] - v[hi - 1], 0.5 * (3.0 * v[hi] - 4.0 * v[hi - 1] + v[back]))
    return sl, sr


@dataclass(frozen=True, eq=False)
class RenewalCurve:
    """Expected draw count N on a uniform grid t_j = j * step.

    values[0] is exactly 1 and the values increase strictly.  Off-grid
    evaluation is the piecewise cubic Hermite interpolant the march used,
    with each panel's two slopes boxed into [0, 3 * its increment]; in that
    box the cubic of an increasing panel is monotone (Fritsch & Carlson,
    SIAM J. Numer. Anal. 17, 1980).  So it is exact at the nodes and
    non-decreasing in between, and differs from the march's history only
    on the panels where the box acts.
    """

    transform: BijectionSpec
    step: float
    t_max: float
    values: np.ndarray
    # (left, right) slope per panel: ``_final_slopes`` of the values, boxed
    _slopes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _as_spec("transform", self.transform)
        object.__setattr__(self, "step", _as_real("step", self.step, 0.0, open_lo=True))
        object.__setattr__(self, "t_max", _as_real("t_max", self.t_max, 0.0, open_lo=True))
        vals = _as_reals("values", self.values, -math.inf, math.inf)
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
        slopes = _final_slopes(vals, breaks)
        box = np.diff(vals)
        box *= 3.0
        for m in slopes:
            np.clip(m, 0.0, box, out=m)  # in place: a curve's slopes are its memory peak
        object.__setattr__(self, "_slopes", slopes)

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


def _check_cost(n: int, looped: int, n_pan: int) -> None:
    """Refuse a march that costs too much: n steps, ``looped`` of them looped, n_pan panels."""
    work = looped * (n_pan + _STEP_OVERHEAD) + n * _NODE_WORK + n_pan * _PANEL_WORK
    size = max((n + 1) * _NODE_BYTES, n_pan * _PANEL_BYTES + (n + 1) * _BUFFER_BYTES)
    causes = []
    if work > _MAX_MARCH_WORK:
        causes.append(
            f"march work {work:.3g} ({looped} looped steps * ({n_pan} panels + "
            f"{_STEP_OVERHEAD}) + {n} blocked nodes * {_NODE_WORK} + {n_pan} panels * "
            f"{_PANEL_WORK}, about {work * _WORK_UNIT_S:.3g} s) exceeds the cap of "
            f"{_MAX_MARCH_WORK:.0e}"
        )
    if size > _MAX_MARCH_BYTES:
        causes.append(
            f"the march's {n + 1:.3g} nodes and {n_pan:.3g} panels take about "
            f"{size / 1e9:.3g} GB, over the cap of {_MAX_MARCH_BYTES / 1e9:g} GB"
        )
    if causes:
        raise DomainError("; ".join(causes) + "; increase step or decrease t_max")


def _loop(v: np.ndarray, j: int, stop: int, weights, breaks: list) -> tuple:
    """Loop the march's steps j..stop-1 from the known v[0..j], writing v[j+1..stop].

    Step hi sets the slopes of nodes hi-2..hi from their segment
    (``_update_slopes``; a segment starts at each of the breaking nodes
    ``breaks``) and then solves for v[hi + 1].  The older slopes it reads
    are those ``_final_slopes`` gives v[0..j].  Returns the per-panel (left,
    right) slopes as step ``stop`` leaves them, final up to node stop - 2.
    """
    p, (a0, a1, a2), (b0, b1) = weights
    n_pan = p.shape[0]
    brk = set(breaks)
    lv = v[: j + 1].tolist()  # the stencils read plain floats, the dot products read rows
    # one row per panel i: v[i], v[i+1] and the slopes at both ends.  With
    # the weights of panels m = n_pan-1..1 in that order, the history of
    # step hi + 1 (m = 1..r, i.e. panels i = hi-1 down to hi-r) is one dot
    # product
    rows = np.zeros((stop + 1, 4))
    rows[: j + 1, 0] = lv
    rows[:j, 1] = lv[1:]
    if j:
        rows[:j, 2], rows[:j, 3] = _final_slopes(np.array(lv), [k for k in breaks if k < j])
    flat, wts = rows.reshape(-1), p[:0:-1].reshape(-1)
    sl, sr = rows[:, 2], rows[:, 3]
    seg = max(k for k in breaks if k < max(j, 1))
    for hi in range(j, stop + 1):
        if hi - 1 in brk:
            seg = hi - 1
        if hi:
            _update_slopes(lv, sl, sr, seg, hi)
        if hi == stop:
            break
        r = min(hi, n_pan - 1)
        # an einsum, not np.dot: BLAS splits a long dot product across its
        # threads, and the sum then depends on their number
        hist = float(np.einsum("i,i->", wts[wts.size - 4 * r :], flat[4 * (hi - r) : 4 * hi]))
        # the first panel reaches into v[hi + 1]: quadratic through
        # v[hi-1..hi+1], linear right after a breaking point
        if hi in brk:
            val = (1.0 + hist + b0 * lv[hi]) / (1.0 - b1)
        else:
            val = (1.0 + hist + a1 * lv[hi] + a0 * lv[hi - 1]) / (1.0 - a2)
        lv.append(val)
        rows[hi, 1] = rows[hi + 1, 0] = val
    v[j + 1 : stop + 1] = lv[j + 1 :]
    return sl, sr


def _tail_recurrence(weights) -> tuple:
    """(alpha, c, sum(c) - 1) of the march's step v[hi+1] = alpha + sum_k c[k] * v[hi-k] between breaking points.

    The step reads each slope as one unclamped stage: the one-sided stencil
    at node hi, the three-point one at hi - 1 and the five-point one behind;
    each panel's Hermite weights then act on values alone.  c has n_pan + 2
    entries.
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
    """The first ``size`` coefficients of 1 / a(z), a[0] = 1.

    The first 16 come from the recurrence g[i] = -sum_j a[j] * g[i - j]
    (an FFT call costs as much as that at these lengths), the rest by
    Newton doubling: each g <- g - g * (a * g - 1) takes two FFT products.
    """
    fft = np.fft
    head, g = a[1:16].tolist(), [1.0]
    for _ in range(1, min(size, 16)):
        g.append(-sum(x * y for x, y in zip(head, g[::-1])))
    g = np.array(g)
    m = g.size
    while m < size:
        m2 = min(2 * m, size)
        k = 1 << (m2 + m - 2).bit_length()
        gf = fft.rfft(g, k)
        err = fft.irfft(fft.rfft(a[:m2], k) * gf, k)[m:m2]
        g = np.concatenate([g, -fft.irfft(gf * fft.rfft(err, k), k)[: m2 - m]])
        m = m2
    return g


def _blocks(alpha: float, c: np.ndarray, excess: float) -> tuple:
    """What ``_tail`` needs of the recurrence, its FFT spectra computed once per solve."""
    k = c.shape[0]
    block = 1 << max((2 * k - 1).bit_length() - 1, 9)  # at least k nodes, and 512
    d = np.concatenate([[0.0], c])  # d[i] weighs v[j - i] in v[j]
    inverse = _series_inverse(np.concatenate([[1.0], -c]), block)
    # the line R + S * i (i = 1, 2, ... nodes past the block's start - 1)
    # obeys the recurrence up to alpha - S * mean_lag + (sum(c) - 1) * line
    mean_lag = math.fsum((np.arange(1, k + 1) * c).tolist())
    spectra = np.fft.rfft(d, 2 * block), np.fft.rfft(inverse, 2 * block)
    return alpha, excess, mean_lag, k, block, spectra


def _tail(v: np.ndarray, start: int, stop: int, g: np.ndarray, blocks: tuple) -> None:
    """Fill v[start+1..stop] by v[j+1] = alpha + g[j] + sum_k c[k] * v[j-k], in FFT blocks.

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
    alpha, excess, mean_lag, k, block, (df, gf) = blocks
    size = 2 * block
    back = np.arange(1 - k, 1.0)  # node offsets of the history, last one 0
    ahead = np.arange(1, block + 1.0)
    for s in range(start + 1, stop + 1, block):
        base, rise = v[s - 1], v[s - 1] - v[s - 2]
        older = fft.irfft(fft.rfft(v[s - k : s] - (base + rise * back), size) * df, size)
        force = (alpha - rise * mean_lag) + excess * (base + rise * ahead) + older[k : k + block]
        known = g[s - 1 : min(s - 1 + block, stop)]
        force[: known.size] += known
        u = fft.irfft(fft.rfft(force, size) * gf, size)[:block]
        e = min(s + block, stop + 1)
        v[s:e] = ((base + rise * ahead) + u)[: e - s]


def _march(n: int, weights, breaks: list) -> np.ndarray:
    """The march to node n: three looped steps from each breaking node, FFT blocks between.

    Between them a step is the recurrence of ``_tail_recurrence`` plus a
    known forcing: the panel weights times the difference between each
    frozen slope and the five-point stage the recurrence assumes there.  It
    is nonzero only at the nodes next to a breaking point, whose stencils
    the break cuts, and at node 0, whose history is zero.  The loop takes
    the three steps from each breaking node b (the first one on the line;
    by step b + 3 the slopes of the nodes up to b + 1 are frozen), and runs
    on while the next breaking node falls among them; each stretch's frozen
    slopes then join the forcing.
    """
    p = weights[0]
    n_pan = p.shape[0]
    blocks = _blocks(*_tail_recurrence(weights))
    alpha, pad = blocks[0], blocks[3]
    buf = np.zeros(pad + n + 1)  # N(s) = 0 for s < 0: the recurrence reads zeros there
    buf[pad] = 1.0
    v = buf[pad:]
    g = np.zeros_like(buf)  # the known forcing of step hi, at buf[pad + hi]
    # weights of node x's left slope, right slope and value (as the right
    # end of panel x - 1) in step x + k, k = 2..n_pan-1
    pw = np.zeros((n_pan + 1, 4))
    pw[:n_pan] = p * alpha
    kernels = (pw[2:-1, 2], pw[3:, 3], pw[3:, 1])
    j, frozen = 0, -2
    while True:
        stop = j + 3
        for b in breaks:
            if j <= b < stop:
                stop = b + 3
        stop = min(stop, n)
        sl, sr = _loop(v, j, stop, weights, breaks)
        if stop == n:
            return v
        # the slopes frozen since the last blocks, against the five-point stage
        x = np.arange(max(j - 2, frozen), stop - 1)
        at = pad + x
        five = (buf[at - 2] - 8.0 * buf[at - 1] + 8.0 * buf[at + 1] - buf[at + 2]) / 12.0
        left = np.where(x >= 0, sl[np.maximum(x, 0)], 0.0) - five
        right = np.where(x >= 1, sr[np.maximum(x - 1, 0)], 0.0) - five
        lost = np.where(x == 0, -1.0, 0.0)  # N(0) as the end of a panel below 0
        for i in np.flatnonzero((left != 0.0) | (right != 0.0) | (lost != 0.0)):
            dst = g[at[i] + 2 : at[i] + n_pan]
            dst += (left[i] * kernels[0] + right[i] * kernels[1] + lost[i] * kernels[2])[: dst.size]
        frozen = stop - 1
        j = min([b for b in breaks if b >= stop] + [n])
        _tail(buf, pad + stop, pad + j, g, blocks)
        if j == n:
            return v


def solve(
    spec: BijectionSpec,
    t_max: float,
    step: float = 1e-3,
    *,
    step_limit: float = 0.01,
) -> RenewalCurve:
    """March the renewal equation for ``spec`` up to ``t_max``.

    ``t_max`` must be > 0 and ``step`` in (0, ``step_limit``] (default
    0.01).  Coarser steps are rejected: the scheme is fourth order away
    from the breaking points and third order on the two nodes after each,
    but coarse grids visibly miss the exact counts.  The limit is a keyword
    so diagnostic callers (the verify command's degradation demo) can relax
    it deliberately.

    Raises ``DomainError`` before any work if the march would exceed its
    work or memory cap, and ``ConvergenceError`` if the panel-weight
    quadrature fails or the marched values are not strictly increasing.
    The refusal names the t of the first node that does not increase, and
    why: a tie at 1 means N - 1 rounds to 0 there, as for ``Power(p)`` with
    small p (at t_max = 5, p <= 0.12 fails at steps 1e-2 and 1e-3, p = 0.15
    at 1e-3, and p >= 0.2 solves at both; see ``Power``); a fall means the
    grid cannot resolve f, as for a density of f(X) too steep for the step.
    """
    _as_spec("spec", spec)
    t_max = _as_real("t_max", t_max, 0.0, open_lo=True)
    h = _as_real("step", step, 0.0, _as_real("step_limit", step_limit), open_lo=True)

    n = math.ceil(t_max / h - 1e-12)
    n_pan = math.ceil(1.0 / h - 1e-12)
    breaks = _break_nodes(spec, h, n)
    _check_cost(n, 3 * len(breaks), n_pan)

    weights = _panel_weights(spec, h)
    _, (_, _, a2), (_, b1) = weights
    if not (a2 < 1.0 and b1 < 1.0):
        raise ConvergenceError("first-panel weight reached 1; transform too flat near 0")

    v = _march(n, weights, breaks)
    rise = np.diff(v)
    if not np.all(rise > 0.0):
        k = int(np.argmin(rise > 0.0)) + 1  # the first node that does not increase
        if v[k] == v[k - 1] == 1.0:
            cause = "N - 1 rounds to 0 there: the transform is too flat near 0 for this step (see Power)"
        else:
            how = "falls" if rise[k - 1] < 0.0 else "stalls"
            cause = f"N {how} there: the grid cannot resolve this transform at this step"
        raise ConvergenceError(
            f"marched values are not strictly increasing at t = {k * h:g}; {cause}"
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

    Exact at grid nodes, continuous and non-decreasing in between (the
    curve's boxed cubic Hermite interpolant, see ``RenewalCurve``).
    """
    arr = _as_reals("t", t, 0.0, curve.t_max)
    out = _hermite_eval(curve.values, curve._slopes, curve.step, arr)
    return float(out[()]) if out.ndim == 0 else out


def check_derivative_relation(curve: RenewalCurve, t: float) -> float:
    """Residual of the product-form derivative identity at t.

    The product-form curve satisfies N'(t) = rate * (N(t) - N(t-1)) - 1
    with rate = e/(e-1) for t >= 1; t must lie in [1 + step, t_max - step].
    N' is taken as the central finite difference with spacing
    ``curve.step``; the returned residual is |difference - identity| and
    scales as step^2: at t = 1.5 it is 3.5e-7 at step 1e-3 and 3.5e-5 at
    step 1e-2, and smaller at larger t.  Curves for any other transform are
    rejected: the identity encodes the logproduct increment law.
    """
    if not isinstance(curve.transform, LogProduct):
        raise DomainError(
            "derivative relation is defined only for the logproduct transform"
        )
    d = curve.step
    t = _as_real("t", t, 1.0 + d, curve.t_max - d)
    n_t = eval_curve(curve, t)
    n_lag = eval_curve(curve, t - 1.0)
    deriv = (eval_curve(curve, t + d) - eval_curve(curve, t - d)) / (2.0 * d)
    return abs(deriv - (_RATE * (n_t - n_lag) - 1.0))


def asymptote_gap(curve: RenewalCurve, params: AsymptoticParams, t: float) -> float:
    """Signed distance from the curve to its asymptotic line at t."""
    t = _as_real("t", t)
    return eval_curve(curve, t) - (t + params.c) / params.mu


def self_consistency_residual(curve: RenewalCurve, t):
    """How well the finished curve satisfies its own renewal equation at t.

    ``t`` is a scalar or an array in [0, t_max], as for ``eval_curve``; a
    scalar returns a float.  Recomputes the right-hand side
    1 + integral of N(t - f(w)) dw over w in [0, f^{-1}(t)] (over [0, 1]
    when t >= 1; beyond f^{-1}(t) the integrand is identically zero) to
    absolute tolerance 1e-9, every t's interval in one call of the batched
    quadrature.  That call cuts and sums each interval's panels the same
    way whatever other intervals share it, so each residual is bit for bit
    what a call with that t alone returns.  For a sound curve the residual
    is bounded by a small multiple of ``marching_tolerance``.
    """
    value = eval_curve(curve, t)  # checks t first
    arr = np.asarray(t, dtype=float)
    spec = curve.transform
    ts = arr.ravel()
    w_end = np.ones_like(ts)
    short = ts < 1.0
    w_end[short] = spec._finv(ts[short])
    rhs = np.ones_like(ts)
    live = np.flatnonzero(w_end > 0.0)
    if live.size:
        grid_end = curve.n_panels * curve.step
        t_live = ts[live]

        def hist(w, j):
            s = np.clip(t_live[j, None] - spec._f(w), 0.0, grid_end)
            return _hermite_eval(curve.values, curve._slopes, curve.step, s)[None]

        rhs[live] += _quad(hist, np.zeros(live.size), w_end[live], 1e-9)[0]
    out = np.abs(value - rhs.reshape(arr.shape))
    return float(out[()]) if out.ndim == 0 else out


# the digits of 0000..9999 by position, their ASCII as one uint32 per group,
# and the index of each group's last nonzero digit (-99 for 0000)
_G4 = np.indices((10,) * 4, np.uint8).reshape(4, -1)
_DIGITS4 = (_G4.T + 48).copy().view(np.uint32).ravel()
_LAST4 = np.max(np.where(_G4 > 0, np.arange(4, dtype=np.int8)[:, None], np.int8(-99)), axis=0)
# powers of ten, exact doubles up to 1e22
_POW10 = np.array([float(10**i) for i in range(23)])
# _KEEP[s, e]: the bytes of a 39-byte row that the text keeps, columns s to
# e - 1 and the separator in the last
_COLS = np.arange(39)
_KEEP = (_COLS >= np.arange(17)[:, None, None]) & (_COLS < np.arange(39)[:, None]) | (_COLS == 38)


def _halves(a: np.ndarray):
    """Veltkamp's split: ``a = hi + lo`` with both halves 26 bits wide."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


def _decimal17(x: np.ndarray):
    """``(d, k, ok)``: ``x`` rounded half to even to ``d * 10**(k - 16)``.

    ``d`` has 17 digits where ``ok``: for ``1e-4 <= x < 1e16``, where
    ``%.17g`` prints positional digits, ``k = floor(log10(x))``.
    ``s = 10**(16 - k)`` is an exact double, and Dekker's error-free product
    gives ``x * s = hi + lo`` exactly with ``hi`` an even integer (it is at
    least 2**53), so ``hi + rint(lo)`` is ``round-half-even(x * s)``.  A
    ``d`` outside ``[1e16, 1e17)`` means ``log10`` rounded up to a power of
    ten (``x`` a few ulps below it); ``ok`` is false there too.
    """
    ok = (x >= 1e-4) & (x < 1e16)
    y = np.where(ok, x, 1.0)
    k = np.floor(np.log10(y)).astype(np.intp)
    s = _POW10[16 - k]
    hi = y * s
    (yh, yl), (sh, sl) = _halves(y), _halves(s)
    lo = ((yh * sh - hi) + yh * sl + yl * sh) + yl * sl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ok &= (d >= 10**16) & (d < 10**17)
    return d, k, ok


def _csv_lines(pairs: np.ndarray) -> str:
    """``("%.17g,%.17g\\n" * len(pairs)) % tuple(pairs.ravel())``, in numpy.

    Where ``_decimal17`` gives a value's 17 digits, ``%.17g`` prints them
    with the point after digit ``k`` (``0.`` and ``-k - 1`` zeros first when
    ``k < 0``), trailing fraction zeros and a bare point dropped.  One
    strided gather cuts each value's digits into a fixed-point row of 16
    integer digits, the point and 20 fraction digits, and one mask keeps
    what ``%.17g`` prints.  Every other value (zero, below 1e-4, negative,
    not finite) is formatted by ``%.17g`` itself.
    """
    x = pairs.ravel()
    n = x.shape[0]
    d, k, fast = _decimal17(x)
    # the digits as groups "000d dddd dddd dddd dddd" in bytes 20..39 of a
    # row of "0"s, so byte 23 + j holds digit j; group i starts at digit 4i - 3
    # (an integer // by a constant is much faster than a %)
    q = np.stack([d // 10**e for e in (16, 12, 8, 4, 0)])
    q[1:] -= 10**4 * q[:-1]
    src = np.full((n, 15), _DIGITS4[0])
    src[:, 5:10] = _DIGITS4[q].T
    last = np.max(_LAST4[q] + np.array([-3, 1, 5, 9, 13], np.int8)[:, None], axis=0)
    # each row's 24 windows of 37 bytes; digit j goes to frame column
    # 16 - k + j, so the units digit to column 16
    b = src.view(np.uint8)
    windows = np.lib.stride_tricks.as_strided(b, (n, 24, 37), b.strides + (1,), writeable=False)
    frame = windows[np.arange(n), 7 + k]
    out = np.empty((n, 39), np.uint8)
    out[:, :17] = frame[:, :17]
    out[:, 17] = ord(".")
    out[:, 18:38] = frame[:, 17:]
    out[0::2, 38], out[1::2, 38] = ord(","), ord("\n")
    start = 16 - np.maximum(k, 0)
    end = np.where(last > k, 18 - k + last, 17)
    for i in np.flatnonzero(~fast):
        text = b"%.17g" % x[i]
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
        start[i], end[i] = 0, len(text)
    return out[_KEEP[start, end]].tobytes().decode("ascii")


def write_curve_csv(curve: RenewalCurve, fh) -> None:
    """Write the curve as CSV with header ``t,N``, 17 significant digits.

    The text is byte for byte what ``"%.17g,%.17g\\n"`` prints for each
    node.  Each chunk of up to ``_CSV_LINES`` lines is formatted in numpy
    (``_csv_lines``) and written to ``fh`` before the next is built, so
    beyond what ``fh`` keeps the writer holds one chunk's arrays and
    string, never the whole curve's.
    """
    grid, values = curve.grid, curve.values
    fh.write("t,N\n")
    for lo in range(0, grid.shape[0], _CSV_LINES):
        pairs = np.column_stack((grid[lo : lo + _CSV_LINES], values[lo : lo + _CSV_LINES]))
        fh.write(_csv_lines(pairs))


def write_curve_json(curve: RenewalCurve, fh) -> None:
    """Write the curve as ``json.dumps(..., indent=2)`` and a newline print it.

    Keys ``spec``, ``step``, ``t_max``, ``t`` (the grid), ``N`` (the values),
    in that order; each chunk of up to ``_CSV_LINES`` numbers is joined from
    its ``repr``s (what ``json`` writes for a finite float) and written
    before the next is built, so the writer holds one chunk, never the curve.
    """
    fh.write(
        f'{{\n  "spec": {json.dumps(curve.transform.label)},\n'
        f'  "step": {curve.step!r},\n  "t_max": {curve.t_max!r},\n'
    )
    for key, arr, tail in (("t", curve.grid, ","), ("N", curve.values, "\n}")):
        fh.write(f'  "{key}": [\n    ')
        for lo in range(0, arr.shape[0], _CSV_LINES):
            fh.write((",\n    " if lo else "") + ",\n    ".join(map(repr, arr[lo : lo + _CSV_LINES].tolist())))
        fh.write(f"\n  ]{tail}\n")

