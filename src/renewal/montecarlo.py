"""Monte Carlo estimation of draw counts, stopped sums, and overshoots.

A pass of ``samples`` paths is cut into blocks of at most 2^16 paths.  One
kernel, ``_kernel``, simulates every block in vectorized rounds: each
round draws one uniform per still-active path, steps each path's sums, and
retires paths whose sums crossed the threshold.  A draw is a 32-bit word k
standing for the midpoint uniform x = (k + 1/2) 2^-32, two to each raw
64-bit word of the block's stream (``_draw``): for every increasing f,
|E f(x) - E f(U)| <= 2^-33, and E x = 1/2 exactly.  The active paths fill the
first slots of the working arrays, and a round's h leavers retire in O(h)
work: the live paths of the last h slots move into their slots.  It runs
one sum per path for ``simulate``, or two sums driven by the same uniforms
for the coupled identity/logproduct pass, where a path retires once both
have crossed.  ``simulate`` and the coupled pass gather each crossed sum's
overshoot; ``estimate_n`` and ``k_concentration_check``, which read only
the draw counts, run the one-sum kernel count-only, on the same paths and
uniforms, and gather none.  This module alone turns the words into sums:
each sum runs in the form ``_form`` picks for its transform and t (exact
integer sums for the identity, products for logproduct up to t = 700,
f(x) added for every other transform), which also prices its draws for the
work cap.  Every survivor of a round has taken the same r draws, so the
round tests them all against one level, and the rounds within a form's
free draws, where no sum can cross, skip the stop test.  Each pass holds
one workspace: every worker thread makes its working arrays (a float
scratch array, the sums, an overshoot array and a bool array of 2^16
entries for one sum, all but the overshoots counted only) the first time
it runs a block, and its later blocks and their rounds reuse them while
they stay in cache.  The workspace is freed when the pass returns.

The block is the unit of randomness as well as of work: block b draws from
its own SFC64 stream, child b of ``SeedSequence(seed)``.  Workers are
threads that run whole blocks, and block results are merged in block
order, so every result is a pure function of (transform, t, samples,
seed): bit-identical across runs, thread schedules and worker counts.
Integer draw counts are summed exactly and float sums in block order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bijections import (
    BijectionSpec,
    ConvergenceError,
    DomainError,
    BUILTIN_TRANSFORMS,
    Identity,
    LogProduct,
    PiecewiseLinear,
    Power,
    _EM1,
    _as_int,
    _as_real,
    _as_reals,
    _as_spec,
    _quad,
    asymptotic_params,
    integrate,  # noqa: F401  (perfbench/tracing.py patches it here by name)
)

__all__ = [
    "SimEstimate",
    "OvershootHistogram",
    "SimRecord",
    "simulate",
    "estimate_n",
    "estimate_stopped_sum",
    "overshoot_histogram",
    "paired_domination",
    "k_concentration_check",
    "limit_overshoot_bin_probs",
    "estimate_payload",
    "histogram_payload",
]

_BLOCK = 1 << 16
_DRAW_CAP = 10**9
# one-thread kernel costs the work cap charges per sum, beside each draw's
# (``_Form.ns``), measured on 2 vCPUs: a block round (one-path blocks at
# t = 200 took 4.1-6.0 us per charged round of one sum, 8.5-9.6 us of two
# coupled sums), and a path's own work, paid once: its stopped count,
# overshoot gather and map, and retirement.  A count-only pass skips the
# gather and map but is charged the same: one-thread passes of 1e6 paths at
# t = 1 and 20 read 1.0-2.0 times their time, within the cap's [1, 2] band
_US_PER_ROUND = 7.0
_NS_PER_PATH = 10.0
_MAX_SIM_SECONDS = 300.0
_PAGE = 4096
# the value a crossed sum takes while its path waits, by its array's type
# code: below 0, and so below every sum, and kept there by every step
_VOID = {"d": -np.inf, "q": np.iinfo(np.int64).min}
# logproduct's products: their cutoff, factor, and scale (``_product_form``)
_PRODUCT_T_MAX = 700.0
_C = 1.0 / _EM1
_FOLD = 0.5 + _C * 2.0**32
_RESCALE = 16
_CPOW = 1024


class _Form(NamedTuple):
    """How the kernel runs one transform's sums against a threshold t (``_form``).

    Every sum starts at ``start`` in an array of type code ``code`` ('d' or
    'q'), and none can cross within its first ``free`` draws.  ``step(s, k,
    out, r)`` advances the sums ``s`` in place by their r-th words ``k``,
    with the float array ``out`` as scratch.  ``level(r, L)`` is the level a
    sum of r draws is above once it has passed a threshold L <= t, and
    ``level(r, t)`` the level it crosses t at; every sum of one round has
    taken the same r draws.  ``over(s, j, out, r)`` writes to ``out`` the
    overshoots past t of the sums ``s[j]``, which crossed on draw r.  ``ns``
    is the form's one-thread cost per draw, as the work cap charges it.
    """

    start: float
    free: int
    step: Callable
    over: Callable
    level: Callable
    code: str
    ns: float


def _form(spec: BijectionSpec, t: float) -> _Form:
    """The form in which the kernel runs the sums of ``spec`` at threshold t.

    The identity's exact integer sums (``_integer_form``) and logproduct's
    products up to t = ``_PRODUCT_T_MAX`` (``_product_form``) serve those
    two transforms alone, not their subclasses, whose own f may differ:
    every other sum adds its transform's f(x) (``_float_form``), and is
    charged for its base's f, an unknown f as power:1's copy.

    The prices per draw, with ``_NS_PER_PATH`` and ``_US_PER_ROUND``, put
    one-thread passes of 1e6 paths, gathering and counted only, at 1.0-2.0
    times their time at t = 1 and t = 20 (1 + t/mu charged draws per path),
    on 2 vCPUs.  Medians per path at t = 1 and 20, gathering (counted
    only): identity 17.6 (9.5) and 88 (81) ns; logproduct's products 15.4
    (9.6) and 89 (84) ns.  np.power copies (p = 1) and squares (p = 2) on
    fast paths, 17.5 (15.6) and 134 (132) ns, 23 (20) and 192 (189) ns,
    and calls pow for other exponents: 19.4 (11.3) and 120 (113) ns at p =
    0.1, 21.0 (13.3) and 151 (151) ns at p = 0.5, 28 (25) and 282 (277) ns
    at p = 1.5.  np.interp allocates its output and binary-searches the
    knots for every draw: 59 (55) and 742 (731) ns for the 4 of
    ``perfbench/knots.txt``, 286 (278) and 4085 (4046) ns for 1000.
    Logproduct's log1p sums take 1.8-2.0 times the products' time per draw
    (t = 750 against 650); an identity subclass's sums, charged power:1's
    price, take 0.85-0.95 of its time.  Identity at t = 1 leaves the least
    room: its gathering pass takes 1.85 times its counting one.
    """
    if type(spec) is Identity:
        return _integer_form(t)
    if type(spec) is LogProduct and t <= _PRODUCT_T_MAX:
        return _product_form(t)
    if isinstance(spec, PiecewiseLinear):
        ns = 11.0 * math.log2(len(spec.knots))
    elif isinstance(spec, LogProduct):
        ns = 6.0
    elif isinstance(spec, Power) and spec.p not in (1.0, 2.0):
        ns = 5.3 if spec.p < 1.0 else 7.6
    else:
        ns = 4.8
    return _float_form(spec._f, t, ns)


def _float_form(f, t, ns):
    """Sums of f(x) from 0, the form of every transform without one of its own.

    A step turns each word into its draw x in the scratch array (both
    steps exact: k 2^-32 has at most 32 significant bits, and adding 2^-33
    makes 33) and adds f(x).  A sum has passed a threshold L once it is >
    L, whatever its draw count, and overshoots t by s - t.  Every increment
    is at most f(1) = 1 and float addition rounds monotonically, so a sum
    of r <= floor(t) increments is at most r <= t: the first floor(t) draws
    cannot cross.
    """
    def step(s, k, out, r):
        x = np.multiply(k, 2.0**-32, out=out)
        x += 2.0**-33
        s += f(x, out=x)

    def over(s, j, out, r):
        np.take(s, j, out=out, mode="clip")
        out -= t

    return _Form(0.0, math.floor(t), step, over, lambda r, mark: mark, "d", ns)


def _integer_form(t):
    """The identity's sums, exact: int64 sums of the words k of their draws.

    After r draws the real sum of the x = (k + 1/2) 2^-32 is (sum k + r/2)
    2^-32, which has passed L once sum k > L 2^32 - r/2, that is, once the
    integer sum k is above floor(L 2^32 - r/2), and overshoots t by (sum k
    + r/2 - t 2^32) 2^-32.  The level is a Python integer from the exact
    ratio of L, and the overshoot is taken as the integer sum k - floor(t
    2^32 - r/2), at most 2^32 + 1 and so exact as a double, less the
    fraction of t 2^32 - r/2: one rounding, none for t >= 1.  So crossings
    fall exactly where the real sums of the draws cross.  The sums are
    signed: a level is below 0 where L < r 2^-33 (at t = 0, for one), and a
    sum of at most 1e9 words (``_DRAW_CAP``) below 2^32 stays below 2^62.
    No draw reaches 1, so no sum crosses in its first floor(t) draws.
    """
    def split(r, mark):  # mark 2^32 - r/2 as its floor and the fraction left
        p, q = mark.as_integer_ratio()
        whole, rest = divmod((p << 33) - r * q, 2 * q)
        return whole, rest / (2 * q)

    def level(r, mark):
        return np.int64(split(r, mark)[0])

    def step(s, k, out, r):
        s += k

    def over(s, j, out, r):
        whole, frac = split(r, t)
        np.subtract(np.take(s, j, mode="clip"), whole, out=out)
        out -= frac
        out *= 2.0**-32

    return _Form(0, math.floor(t), step, over, level, "q", 2.7)


def _product_form(t):
    """Logproduct's sums as products: one add and one multiply per draw, not a log1p.

    With c = 1/(e-1), 1 + (e-1)x = (x + c)/c, so the product P of r factors
    1 + (e-1)X passes e^L, which is the log sum passing L, once the plain
    product of r factors x + c, P c^r, is above e^L c^r.  A sum takes S *=
    k + c'', c'' = 1/2 + c 2^32 (``_FOLD``), which is exact: c 2^32 is, and
    its ulp, 2^-21, divides 1/2.  So k + c'' = 2^32 (x + c) and fl(k + c'')
    = 2^32 fl(x + c), one add with the word's conversion inside it.  Every
    other scaling below is by an exact power of two as well, so after r
    draws S is the plain product of the fl(x + c) times 2^E_r, bit for bit,
    and its level for L is e^L c^r times the same 2^E_r: the comparisons
    and the overshoots, log1p((S - V)/V) at V = the level of t, are the
    plain product's.  The levels compute c^r as (e-1)^-r renormalized by a
    power of two every ``_CPOW`` draws (c^``_CPOW`` is about 2^-800), so
    for r < ``_CPOW`` a level is the plain e^L c^r times 2^E_r, bit for bit.

    The scale keeps sums and levels normal doubles.  With R = ``_RESCALE``
    and lambda = 32 + log2 c (about 31.22), sums start at 2^-h_0 and take
    2^(h_(q-1) - h_q) after draw qR, for h_q = round(t log2 e + q R
    lambda).  So E_r = 32 r - h_q for qR <= r < (q+1)R, and the level of t
    after r = qR + j draws is 2^(d + j lambda) with |d| <= 1/2: between
    2^-0.5 and 2^469 (j <= 15).  Each factor is at least 2^32 c and at
    most 2^32 e c (x < 1, and e c = 1 + c), the level's own factor per draw
    is 2^32 c, and a sum that has not crossed t is at most its level.  So a
    live sum is at most e times the level of t, below 2^471, and at least
    e^-t times it (P >= 1), above 2^-1011 at t = 700; a mark's level
    e^(L-t) times the level of t lies between the two.  Rounding moves each
    bound by a factor of at most (1 + 2^-52)^r.  The same bounds give the
    free draws: each factor of P is at most e, so P stays below e^(t-1) for
    r <= t - 1 draws, and only the first floor(t) - 1 draws skip the stop
    test: at integer t, rounding can pass the level on draw t.  e^t, and
    the sum that crossed it, must stay finite as ``level`` computes them,
    which holds up to t = ``_PRODUCT_T_MAX``.  ``level`` caches the c^(k
    ``_CPOW``) it reaches, so a form serves one block, on one thread.
    """
    log2_level, lam = t * math.log2(math.e), 32.0 + math.log2(_C)
    cpows = [1.0]  # c^(k _CPOW) times 2^gained(k)

    def h(q):  # the binary exponent sums have shed by draw q _RESCALE
        return round(log2_level + q * _RESCALE * lam)

    def gained(k):  # the binary exponent c^(k _CPOW) gains in cpows
        return round(k * _CPOW * math.log2(_EM1))

    def level(r, mark):
        k, j = divmod(r, _CPOW)
        while len(cpows) <= k:
            shift = gained(len(cpows)) - gained(len(cpows) - 1)
            cpows.append(math.ldexp(cpows[-1] * _C**_CPOW, shift))
        return math.ldexp(math.exp(mark) * cpows[k] * _C**j,
                          32 * r - h(r // _RESCALE) - gained(k))

    def step(s, k, out, r):
        s *= np.add(k, _FOLD, out=out)
        if r % _RESCALE == 0:
            s *= 2.0 ** (h(r // _RESCALE - 1) - h(r // _RESCALE))

    def over(s, j, out, r):
        np.take(s, j, out=out, mode="clip")
        v = level(r, t)
        out -= v
        out /= v
        np.log1p(out, out=out)

    return _Form(2.0 ** -h(0), max(math.floor(t) - 1, 0), step, over, level, "d", 2.9)


def _stream(seed: int, block: int) -> np.random.Generator:
    """SFC64 stream of block ``block``: child ``block`` of ``SeedSequence(seed)``.

    ``SeedSequence(seed).spawn(n)`` hands out the streams of blocks 0..n-1;
    building one from its spawn key needs no parent.  The kernel reads only
    its bit generator's raw 64-bit words (``_draw``): SFC64 is numpy's
    cheapest bit generator per word, and its words are most of the kernel's
    time.  It has no jump-ahead, which the blocks do not need: each owns a
    stream seeded from its own spawn key.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(seq))


def _draw(rng, m: int) -> np.ndarray:
    """The next m Monte Carlo draws of ``rng`` as 32-bit words k, uint32.

    Draw i stands for the uniform x_i = (k_i + 1/2) 2^-32, the midpoint of
    the k_i-th of 2^32 equal cells of (0, 1), in [2^-33, 1 - 2^-33].
    The words are the halves of ceil(m/2) ``random_raw`` words of the bit
    generator, low half first, taken by value, so they do not depend on the
    byte order; an odd m leaves the high half of the last word unused.
    ``random_raw`` has no ``out=``: each call allocates its words.
    """
    raw = rng.bit_generator.random_raw((m + 1) // 2)
    return raw.astype("<u8", copy=False).view("<u4")[:m]


def _check_common(specs, t, samples, seed, workers):
    """Validate a pass of sums of ``specs``; refuse one estimated over ``_MAX_SIM_SECONDS``.

    Each draw and each block round is charged for every sum, for as many
    rounds as the sum of smallest mean increment mu takes, and each path
    once per sum.  Returns (t, samples, seed, workers, mu).
    """
    for spec in specs:
        _as_spec("transform", spec)
    t = _as_real("t", t, 0.0)
    samples = _as_int("samples", samples, 1)
    seed, workers = _as_int("seed", seed, 0), _as_int("workers", workers, 1, 256)
    mu = min(asymptotic_params(spec).mu for spec in specs)
    # a path takes 1 + t/mu draws on average, and a block about as many rounds
    rounds = 1.0 + t / mu
    blocks = -(-samples // _BLOCK)
    ns, us = sum(_form(spec, t).ns for spec in specs), len(specs) * _US_PER_ROUND
    path_ns = len(specs) * _NS_PER_PATH
    seconds = rounds * (samples * ns * 1e-9 + blocks * us * 1e-6) + samples * path_ns * 1e-9
    if seconds > _MAX_SIM_SECONDS:
        raise DomainError(
            f"simulating t={t:g} with samples={samples} would take about {seconds:.3g} s "
            f"on one thread at {ns:g} ns per draw, {path_ns:g} ns per path and {us:g} us "
            f"per block round, over the cap of {_MAX_SIM_SECONDS:g} s; decrease t or samples"
        )
    return t, samples, seed, workers, mu


@dataclass(frozen=True)
class SimEstimate:
    """Sample mean with its standard error for one simulated statistic."""

    mean: float
    std_error: float
    samples: int
    seed: int
    t: float
    spec: str

    def __post_init__(self):
        for name, lo in (("mean", -math.inf), ("std_error", 0.0), ("t", 0.0)):
            object.__setattr__(self, name, _as_real(name, getattr(self, name), lo))
        object.__setattr__(self, "samples", _as_int("samples", self.samples, 1))
        object.__setattr__(self, "seed", _as_int("seed", self.seed, 0))


@dataclass(frozen=True)
class OvershootHistogram:
    """Normalized histogram of the amount by which the stopped sum overshoots t."""

    bin_edges: np.ndarray
    densities: np.ndarray
    samples: int
    t: float

    def __post_init__(self):
        edges = _as_reals("bin_edges", self.bin_edges)
        dens = _as_reals("densities", self.densities, 0.0, math.inf)
        if edges.ndim != 1 or dens.ndim != 1 or edges.shape[0] != dens.shape[0] + 1:
            raise DomainError("bin_edges must have one more entry than densities")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise DomainError("bin_edges must span [0, 1]")
        mass = float(np.dot(dens, np.diff(edges)))
        if abs(mass - 1.0) > 1e-12:
            raise DomainError(
                f"densities must integrate to 1 within 1e-12, got {mass!r} "
                f"(an overshoot sample escaped (0, 1])"
            )
        edges = edges.copy()
        dens = dens.copy()
        edges.setflags(write=False)
        dens.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "samples", _as_int("samples", self.samples, 1))
        object.__setattr__(self, "t", _as_real("t", self.t, 0.0))


def _arrays(ws, n, dtypes):
    """One ``n``-entry array per type code in ``dtypes``, contents undefined.

    Without a workspace the arrays are fresh.  With one (the
    ``threading.local`` of a pass) they are views of the calling thread's
    ``_BLOCK``-entry arrays for ``dtypes``, made the first time it asks,
    each starting on a page of a buffer one page longer.  Left to malloc,
    arrays made one after another start 16 bytes apart modulo a page,
    where numpy's two-array loops run slower (4K aliasing: ``s *= x`` took
    0.26 ns per entry there against 0.21 at equal offsets), and the rest
    land wherever the heap's history left room: in the simulate
    benchmark's process one logproduct overshoot pass of 1e6 paths took
    150-188 ms so and 132-144 ms page-aligned (6 alternating runs on 2
    vCPUs).  One buffer for all of a thread's arrays ran as fast, but
    raised ``verify``'s peak RSS by 0.5 MB.
    """
    if ws is None:
        return [np.empty(n, dtype=c) for c in dtypes]
    arrays = ws.__dict__.get(dtypes)
    if arrays is None:
        arrays = ws.__dict__[dtypes] = []
        for c in dtypes:
            size = _BLOCK * np.dtype(c).itemsize
            raw = np.empty(size + _PAGE, np.uint8)
            at = -raw.ctypes.data % _PAGE
            arrays.append(raw[at : at + size].view(c))
    return [a[:n] for a in arrays]


def _kernel(specs, t, n, rng, ws=None, marks=(), overshoots=True):
    """Simulate n paths of one sum, or of two coupled sums on shared uniforms.

    ``specs`` holds the transform of each sum: ``(f,)``, or ``(f_base,
    f_dominating)`` where the dominating transform is pointwise >= the base
    on [0, 1], so its sum must never need more draws.  Returns
    ``(violations, (stopped, over), ...)``, one pair per sum:
    ``stopped[r]`` counts the sums that first crossed t on draw r, and
    ``over`` holds their overshoots in crossing order (by draw, then by
    slot).  ``violations`` counts the paths whose base sum crossed before
    the dominating one (expected: none; 0 with one sum).  One sum with
    ``overshoots`` false is counted only: ``over`` is None, and its rounds
    gather, map and store no overshoot.  Two sums always gather theirs.

    With ``marks``, thresholds in [0, t], one more entry follows the pairs:
    per sum, per mark L, the counts ``c[r]`` of paths whose sum first passed
    L on draw r, as ``stopped`` counts them for t.  Sums never decrease, so
    a path that has passed L stays past it, and these are the first
    differences of the running number of paths past L, taken after each
    round as the paths gone (past t >= L), those whose sum is void (past t)
    and those whose sum is above L's level after r draws in the form of t:
    one compare and one count per sum and mark per round, until every path
    is past.

    Each round draws one 32-bit word k per surviving path (``_draw``), for
    the uniform x = (k + 1/2) 2^-32, and each sum steps by the words in the
    ``_Form`` that ``_form`` builds for it, once per block.  Every surviving
    path has taken r draws in round r, so each round tests every sum
    against one level per sum and threshold, the form's ``level(r, t)``.
    No sum can cross within its form's free draws, so the first rounds, as
    many as the fewest free draws of the path's sums (at most
    ``_DRAW_CAP``, past which the cap check trips before the next draw),
    only draw and step.

    A path leaves once every sum of it has crossed.  The m surviving paths
    hold slots [0, m), and a round's h leavers retire in O(h) work: the live
    paths of the tail slots [m - h, m) move, in ascending slot order, into the
    leavers' slots below m - h, also ascending, and every other path keeps its
    slot.  The move depends only on which paths leave: while no violator
    waits, those are the base's crossings, so an identity base walks
    ``simulate``'s paths.  The leavers' slots below m - h are the flagged
    ones among the first m - h, and the live tail paths the unflagged ones
    among the last h.  A pass that gathers overshoots takes the former from
    the head of the round's list of crossed slots, made for the gather; a
    count-only pass counts its crossings and lists only those slots, which
    measured faster than listing every crossing, while listing them again
    slowed the gathering passes.  The working arrays come from the pass
    workspace ``ws`` (fresh ones when it is None; each ``over`` is one of
    them): the float scratch array ``u``, and per sum its array, in the type
    code of its form, an overshoot array (none counted only) and a bool
    array.  The words come fresh each round from ``random_raw``, which has
    no ``out=``; a step that needs floats (products, and x for f) writes
    them to ``u``, which the base's step has left by the time the
    dominating sum's begins.  A crossed dominating sum turns void: -inf in a
    float array, the least int64 in an integer one.  Every sum is >= 0,
    steps keep a void sum below 0, and no level is as low, so after each
    round's step the level test flags only that round's crossings; once
    every surviving dominating sum is void its step is skipped.  A base sum
    that crosses while its dominating sum is still live is a violation, and
    its path stays.  While no violator is waiting, the leavers are just the
    round's base crossings; otherwise the round's crossed base sums turn
    void too, and the leavers are the paths whose sums are both below 0.

    The forms gather overshoots with ``np.take(..., mode="clip")``: in its
    default ``mode="raise"``, ``np.take`` with ``out=`` fills a buffer and
    copies it into ``out``.  The index arrays die within their round: one
    kept alive into the next round made the allocator hand out fresh pages.
    """
    forms = [_form(spec, t) for spec in specs]
    if len(forms) == 1:
        (f1,), f2 = forms, None
        if overshoots:
            u, s1, over1, d1 = _arrays(ws, n, f"d{f1.code}d?")
        else:
            (u, s1, d1), over1 = _arrays(ws, n, f"d{f1.code}?"), None
        s2 = d2 = None
    else:
        f1, f2 = forms
        u, s1, over1, d1, s2, over2, d2 = _arrays(ws, n, f"d{f1.code}d?{f2.code}d?")
        s2.fill(f2.start)
        void1, void2 = _VOID[f1.code], _VOID[f2.code]
    s1.fill(f1.start)
    passed = [[[0] for _ in marks] for _ in forms]  # running counts past each mark
    gone1 = gone2 = 0  # surviving paths whose base / dominating sum is void
    free = min(min(f.free for f in forms), _DRAW_CAP)
    for r in range(1, free + 1):
        k = _draw(rng, n)
        f1.step(s1, k, u, r)
        if f2 is not None:
            f2.step(s2, k, u, r)
        if marks:
            _tally(passed, forms, marks, r, n, n, ((s1, 0, d1), (s2, 0, d2)))
    r = free
    stopped = [[0] * (r + 1) for _ in forms]
    violations = 0
    m = n
    while m:
        r += 1
        if r > _DRAW_CAP:
            raise ConvergenceError(
                f"path exceeded {_DRAW_CAP} draws; transform increments are "
                f"effectively zero"
            )
        k = _draw(rng, m)
        base = s1[:m]
        f1.step(base, k, u[:m], r)
        if f2 is not None:
            dom = s2[:m]
            if gone2 < m:
                f2.step(dom, k, u[:m], r)
                j = np.flatnonzero(np.greater(dom, f2.level(r, t), out=d2[:m]))
                stopped[1].append(j.size)
                if j.size:
                    f2.over(dom, j, over2[n - m + gone2 : n - m + gone2 + j.size], r)
                    dom[j] = void2
                    gone2 += j.size
        leave = np.greater(base, f1.level(r, t), out=d1[:m])
        if over1 is None:
            j, hit = None, int(np.count_nonzero(leave))
        else:
            j = np.flatnonzero(leave)
            hit = j.size
            if hit:
                f1.over(base, j, over1[n - m + gone1 : n - m + gone1 + hit], r)
        stopped[0].append(hit)
        if f2 is not None and (hit or gone1):
            fresh = hit - int(np.count_nonzero(dom[j] < 0))
            violations += fresh
            if gone1 or fresh:
                base[j] = void1
                np.logical_and(np.less(base, 0, out=leave), np.less(dom, 0, out=d2[:m]), out=leave)
                gone1 += hit
                j = np.flatnonzero(leave)
                hit = j.size
                gone1 -= hit
        if hit:
            m -= hit
            src = np.flatnonzero(np.logical_not(leave[m:], out=leave[m:]))
            dst = np.flatnonzero(leave[:m]) if j is None else j[: src.size]
            src += m
            base[dst] = base[src]
            if f2 is not None:
                dom[dst] = dom[src]
                gone2 -= hit
            del src, dst
        del j, k
        if marks:
            _tally(passed, forms, marks, r, n, m, ((s1, gone1, d1), (s2, gone2, d2)))
    for c in stopped:
        while not c[-1]:  # violators left in rounds where no base sum crossed
            del c[-1]
    overs = (over1,) if f2 is None else (over1, over2)
    out = violations, *((np.array(c, dtype=np.int64), o) for c, o in zip(stopped, overs))
    if marks:
        out += (tuple(tuple(np.diff(c, prepend=0) for c in cs) for cs in passed),)
    return out


def _tally(passed, forms, marks, r, n, m, sums):
    """Append each mark's running count of paths past it after round r, with m survivors.

    ``sums`` holds per sum its array (the survivors first), its count of
    void survivors and a bool scratch array; each form gives a mark's level
    at r draws.  A count that has reached n is final and is no longer
    extended.
    """
    for cs, f, (s, gone, d) in zip(passed, forms, sums):
        for c, mark in zip(cs, marks):
            if c[-1] < n:
                above = np.greater(s[:m], f.level(r, mark), out=d[:m])
                c.append(n - m + gone + int(np.count_nonzero(above)))


def _run_block(transform, t, n, rng, ws=None, overshoots=True):
    """One sum of ``_kernel``: (stopped, over); perfbench/tracing.py patches this name.

    The patch forwards positional arguments only, so callers pass
    ``overshoots`` by position.
    """
    return _kernel((transform,), t, n, rng, ws, (), overshoots)[1]


def _bin_counts(over, bins, ws=None):
    """``np.histogram(over, bins, range=(0, 1))[0]`` for ``over`` in (0, 1].

    numpy's equal-width arithmetic without its temporaries: the bin of x is
    ``int(x * bins)``, x = 1 going to the last bin, then one down where x is
    below that bin's left edge and one up where it reaches the next bin's
    (never past the last bin, which is closed).  Those two corrections can
    move x only where ``x * bins`` is within rounding of an integer: the
    product and the ``linspace`` edges are each off by at most about 2e-12
    of a bin for bins <= 10000.  So they are applied, on sparse indices,
    only where ``x * bins`` is within 1e-9 of an integer, a margin hundreds
    of times that rounding.  numpy's range filter is left out: overshoots lie
    in (0, 1].
    """
    lo = np.linspace(0.0, 1.0, bins + 1)
    hi = np.append(lo[1:-1], np.inf)
    x, idx, near = _arrays(ws, over.shape[0], "dp?")
    np.copyto(idx, np.multiply(over, bins, out=x), casting="unsafe")
    np.minimum(idx, bins - 1, out=idx)
    # the fractional part x - idx lies in [0, 1] (1 only at x = 1); it is
    # within 1e-9 of 0 or 1 where |x - idx - 0.5| > 0.5 - 1e-9
    x -= idx
    x -= 0.5
    j = np.flatnonzero(np.greater(np.abs(x, out=x), 0.5 - 1e-9, out=near))
    if j.size:
        o, k = over[j], idx[j]
        k -= o < lo[k]
        k += o >= hi[k]
        idx[j] = k
    return np.bincount(idx, minlength=bins)


def _fan_out(block, samples, seed, workers):
    """Run ``block(n, rng, ws)`` on every block of a pass; results in block order.

    Block b holds the next ``min(_BLOCK, samples - b * _BLOCK)`` paths and
    draws from ``_stream(seed, b)``, so its result depends neither on the
    worker count nor on which thread runs it.  ``ws`` is the pass
    workspace, one ``threading.local`` shared by the blocks and dropped
    with the threads when the pass returns.  One worker runs the blocks on
    the calling thread; a thread pool, and the import of
    ``concurrent.futures`` (which loads ``logging``), exist only for
    ``workers > 1``.
    """
    ws = threading.local()

    def run(b):
        return block(min(_BLOCK, samples - b * _BLOCK), _stream(seed, b), ws)

    blocks = range(-(-samples // _BLOCK))
    if workers == 1:
        return [run(b) for b in blocks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, blocks))


def _summary(stopped, over, bins, ws=None):
    """One block's share of a record: (stopped, overshoot sum, sum of squares, bin counts).

    The bin counts are None without ``bins``.
    """
    hist = _bin_counts(over, bins, ws) if bins else None
    # einsum, not np.dot: OpenBLAS splits a long dot across its threads,
    # so its sum would depend on the BLAS thread count
    return stopped, float(over.sum()), float(np.einsum("i,i->", over, over)), hist


def _add_counts(vectors):
    """The entrywise sum of count vectors of any lengths, as long as the longest."""
    total = np.zeros(max(v.shape[0] for v in vectors), dtype=np.int64)
    for v in vectors:
        total[: v.shape[0]] += v
    return total


def _merge(spec, t, samples, seed, bins, blocks):
    """The ``SimRecord`` of a pass from its blocks' ``_summary`` tuples, in block order."""
    k_counts = _add_counts([block[0] for block in blocks])
    hist = np.zeros(bins, dtype=np.int64) if bins else None
    sum_o = sum_o2 = 0.0
    for _, o, o2, h in blocks:
        sum_o += o
        sum_o2 += o2
        if bins:
            hist += h
    return SimRecord(spec, t, samples, seed, k_counts, sum_o, sum_o2, hist)


def _estimate(spec, t, samples, seed, mean, var):
    """The ``SimEstimate`` of a mean over ``samples`` paths whose sample variance is ``var``."""
    return SimEstimate(
        mean=mean,
        std_error=math.sqrt(max(var, 0.0) / samples),
        samples=samples,
        seed=seed,
        t=t,
        spec=spec,
    )


def _count_estimate(spec, t, samples, seed, k_counts):
    """Mean draw count and its standard error, ``k_counts[k]`` paths having taken k draws."""
    n = samples
    # exact integer arithmetic up to the final divisions
    counts = k_counts.tolist()
    sum_k = sum(k * c for k, c in enumerate(counts))
    sum_k2 = sum(k * k * c for k, c in enumerate(counts))
    var = (n * sum_k2 - sum_k * sum_k) / (n * (n - 1)) if n > 1 else 0.0
    return _estimate(spec, t, n, seed, sum_k / n, var)


@dataclass(frozen=True)
class SimRecord:
    """Every statistic of one simulated path set, as returned by ``simulate``.

    ``k_counts[k]`` is the exact number of paths that stopped on draw k;
    ``hist_counts`` holds the overshoot bin counts on [0, 1], or None when
    ``simulate`` was not given bins.
    """

    spec: str
    t: float
    samples: int
    seed: int
    k_counts: np.ndarray
    overshoot_sum: float
    overshoot_sumsq: float
    hist_counts: np.ndarray | None

    def __post_init__(self):
        for arr in (self.k_counts, self.hist_counts):
            if arr is not None:
                arr.setflags(write=False)

    def count_estimate(self) -> SimEstimate:
        """Mean draw count and its standard error."""
        return _count_estimate(self.spec, self.t, self.samples, self.seed, self.k_counts)

    def stopped_sum_estimate(self) -> SimEstimate:
        """Mean stopped sum (t plus the mean overshoot) and its standard error."""
        n = self.samples
        mean_o = self.overshoot_sum / n
        var = (self.overshoot_sumsq - self.overshoot_sum * mean_o) / (n - 1) if n > 1 else 0.0
        return _estimate(self.spec, self.t, n, self.seed, self.t + mean_o, var)

    def histogram(self) -> OvershootHistogram:
        """Overshoot histogram normalized to unit mass; needs ``bins``."""
        if self.hist_counts is None:
            raise DomainError("record has no histogram; simulate with bins")
        bins = self.hist_counts.shape[0]
        return OvershootHistogram(
            bin_edges=np.linspace(0.0, 1.0, bins + 1),
            densities=self.hist_counts * (bins / self.samples),
            samples=self.samples,
            t=self.t,
        )


def simulate(
    transform: BijectionSpec,
    t: float,
    samples: int,
    seed: int = 42,
    workers: int = 1,
    bins: int | None = None,
) -> SimRecord:
    """Simulate one path set and keep every statistic the estimators read.

    The record is a pure function of (transform, t, samples, seed): the
    ``workers`` threads share the blocks, whose results merge in block order.
    The overshoot histogram is counted only when ``bins`` (in [10, 10000])
    is given.  ``SimRecord``'s estimators are views of the record, so one
    call serves them all on shared paths; ``estimate_n`` and
    ``k_concentration_check`` count the same paths in a pass of their own
    that gathers no overshoots.  A pass estimated to outrun
    ``_MAX_SIM_SECONDS`` on one thread is refused before any block runs.
    """
    if bins is not None:
        bins = _as_int("bins", bins, 10, 10_000)
    t, samples, seed, workers, _ = _check_common((transform,), t, samples, seed, workers)

    def block(n, rng, ws):
        return _summary(*_run_block(transform, t, n, rng, ws), bins, ws)

    return _merge(transform.label, t, samples, seed, bins, _fan_out(block, samples, seed, workers))


def estimate_n(
    transform: BijectionSpec, t: float, samples: int, seed: int = 42, workers: int = 1
) -> SimEstimate:
    """Estimate the expected draw count at threshold t.

    One count-only pass over ``simulate``'s paths: it tallies each block's
    draw counts and gathers no overshoots, and its estimate is bit for bit
    ``simulate(...).count_estimate()``.  The draw-count sums are integers,
    accumulated exactly, so the mean and standard error are deterministic
    down to the final float divisions.  At t = 0 every path stops on its
    first draw and the estimate is exactly 1.0 with zero standard error.
    """
    t, samples, seed, _, k_counts = _count_pass(transform, t, samples, seed, workers)
    return _count_estimate(transform.label, t, samples, seed, k_counts)


def _count_pass(transform, t, samples, seed, workers):
    """``simulate``'s paths, counted only: validated (t, samples, seed), mu and ``k_counts``.

    mu is the transform's mean increment, which the work cap has computed.
    """
    t, samples, seed, workers, mu = _check_common((transform,), t, samples, seed, workers)

    def block(n, rng, ws):
        return _run_block(transform, t, n, rng, ws, False)[0]

    return t, samples, seed, mu, _add_counts(_fan_out(block, samples, seed, workers))


def estimate_stopped_sum(
    transform: BijectionSpec, t: float, samples: int, seed: int = 42, workers: int = 1
) -> SimEstimate:
    """Estimate the mean stopped sum (threshold plus overshoot).

    With the same (seed, samples) this walks the same paths as
    ``estimate_n``, so the pair can be used to test the proportionality of
    stopped sum and draw count without an independent-run penalty.  For
    large t the mean minus t approaches the limiting mean overshoot c.
    """
    return simulate(transform, t, samples, seed, workers).stopped_sum_estimate()


def overshoot_histogram(
    transform: BijectionSpec,
    t: float,
    samples: int,
    bins: int = 50,
    seed: int = 42,
    workers: int = 1,
) -> OvershootHistogram:
    """Histogram of overshoot samples on [0, 1], normalized to unit mass.

    Overshoots always land in (0, 1] because increments never exceed 1.
    The limiting shape is only reached for large t (t >= 20 is a sound
    choice); small t leaves visible transient bias.
    """
    return simulate(transform, t, samples, seed, workers, bins=bins).histogram()


def _coupled(t, samples, seed, workers, bins=None, marks=()):
    """One pass of coupled identity/logproduct paths on shared uniforms.

    Returns (violations, identity record, logproduct record): the order
    violations of ``_kernel``, and each transform's first crossings of t
    as a ``SimRecord`` (with ``bins`` overshoot bins if given), merged as
    ``simulate`` merges its blocks.  With no violation the identity record
    is exactly ``simulate``'s: a path leaves when its identity sum crosses,
    so every block hands out its draws as it does with the identity sum
    alone.

    With ``marks``, thresholds in [0, t], a fourth entry holds per
    transform, per mark L, the count vector of the draws its paths took to
    first pass L, merged in block order; ``_count_estimate`` reads it as
    ``SimRecord.count_estimate`` reads ``k_counts``.  These are exact
    draw-count samples at L, of the same paths: a sum's draws up to L do
    not depend on when the path leaves.  The records are the same with and
    without marks.
    """
    ident = BUILTIN_TRANSFORMS["identity"]
    logp = BUILTIN_TRANSFORMS["logproduct"]
    t, samples, seed, workers, _ = _check_common((ident, logp), t, samples, seed, workers)
    marks = tuple(_as_real("mark", mark, 0.0, t) for mark in marks)

    def block(n, rng, ws):
        violations, *pairs = _kernel((ident, logp), t, n, rng, ws, marks)
        counts = pairs.pop() if marks else ()
        return violations, *(_summary(*pair, bins, ws) for pair in pairs), counts

    results = _fan_out(block, samples, seed, workers)
    out = sum(res[0] for res in results), *(
        _merge(spec.label, t, samples, seed, bins, [res[i] for res in results])
        for i, spec in ((1, ident), (2, logp))
    )
    if marks:
        out += (tuple(
            tuple(_add_counts([res[3][i][j] for res in results]) for j in range(len(marks)))
            for i in range(2)
        ),)
    return out


def paired_domination(
    t: float, samples: int, seed: int = 42, workers: int = 1
) -> tuple[int, int]:
    """Coupled identity/logproduct paths on shared uniforms.

    ln(1 + (e-1)x) >= x on [0, 1], so on every single path the logproduct
    sum crosses t no later than the identity sum.  Returns (number of
    paths where the logproduct count exceeded the identity count, samples);
    the first entry should be 0.
    """
    violations, rec, _ = _coupled(t, samples, seed, workers)
    return violations, rec.samples


def k_concentration_check(
    transform: BijectionSpec,
    t: float,
    samples: int,
    c: float,
    seed: int = 42,
    workers: int = 1,
) -> float:
    """Fraction of paths whose draw count strays past 1 + t/mu by c * sqrt(t).

    ``t`` must be >= 1 and ``c`` > 0.  A concentration smoke test: for t
    well above 1 the fraction outside c = 6 standard-deviation-scale bands
    is far below 1e-3.
    """
    t = _as_real("t", t, 1.0)
    c = _as_real("c", c, 0.0, open_lo=True)
    t, _, _, mu, k_counts = _count_pass(transform, t, samples, seed, workers)
    k = np.arange(k_counts.shape[0])
    far = np.abs(k - 1 - t / mu) > c * math.sqrt(t)
    return int(k_counts[far].sum()) / int(k_counts.sum())


def limit_overshoot_bin_probs(transform: BijectionSpec, edges: np.ndarray) -> np.ndarray:
    """Probability mass of each histogram bin under the limiting overshoot law.

    The limiting overshoot density at u is (1 - f^{-1}(u)) / mu; each bin
    mass is its integral, every bin to 1e-12 in one call of the batched
    quadrature, split first where f^{-1} has a kink (the knot ``y``s).
    ``edges`` must be a 1-D nondecreasing array of at least 2 entries in
    [0, 1], where the density is defined.
    """
    _as_spec("transform", transform)
    edges = _as_reals("edges", edges)
    if edges.ndim != 1 or edges.shape[0] < 2 or np.any(np.diff(edges) < 0.0):
        raise DomainError("edges must be a 1-D nondecreasing array of at least 2 entries")

    def density(u, _):
        return (1.0 - transform._finv(u))[None]

    kinks = tuple(y for y in transform._breaks if y < 1.0)
    masses = _quad(density, edges[:-1], edges[1:], 1e-12, kinks)[0]
    return masses / asymptotic_params(transform).mu


def estimate_payload(est: SimEstimate) -> dict:
    """JSON-ready dict for an estimate, keys in the documented order."""
    return {
        "t": est.t,
        "spec": est.spec,
        "samples": est.samples,
        "seed": est.seed,
        "mean": est.mean,
        "std_error": est.std_error,
    }


def histogram_payload(hist: OvershootHistogram) -> dict:
    """JSON-ready dict for an overshoot histogram."""
    return {
        "bin_edges": hist.bin_edges.tolist(),
        "densities": hist.densities.tolist(),
        "samples": hist.samples,
        "t": hist.t,
    }
