"""Monte Carlo estimation of draw counts, stopped sums, and overshoots.

A pass of ``samples`` paths is cut into blocks of at most 2^16 paths.  A
block is simulated in vectorized rounds: each round draws one uniform per
still-active path, applies the transform, and retires paths whose running
sum exceeded the threshold.  Increments never exceed 1, so no path can stop
in the first floor(t) rounds, which skip the stop test.  Each pass holds
one workspace: every worker thread makes its working arrays the first time
it runs a block, and its later blocks and their rounds reuse them while
they stay in cache.  The workspace is freed when the pass returns.

The block is the unit of randomness as well as of work: block b draws from
its own PCG64DXSM stream, child b of ``SeedSequence(seed)``.  Workers are
threads that run whole blocks, and block results are merged in block
order, so every result is a pure function of (transform, t, samples,
seed): bit-identical across runs, thread schedules and worker counts.
Integer draw counts are summed exactly and float sums in block order.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bijections import (
    BijectionSpec,
    ConvergenceError,
    DomainError,
    BUILTIN_TRANSFORMS,
    _as_int,
    _as_real,
    _as_reals,
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
    "chernoff_bound",
    "k_concentration_check",
    "limit_overshoot_bin_probs",
    "estimate_payload",
    "histogram_payload",
]

_BLOCK = 1 << 16
_DRAW_CAP = 10**9
# one-thread kernel cost measured on 2 vCPUs: 5-15 us per round, which the
# cap's estimate takes as 15; the cost per draw is the transform's
# (``BijectionSpec._ns_per_draw``)
_US_PER_ROUND = 15.0
_MAX_SIM_SECONDS = 300.0


def _stream(seed: int, block: int) -> np.random.Generator:
    """PCG64DXSM stream of block ``block``: child ``block`` of ``SeedSequence(seed)``.

    ``SeedSequence(seed).spawn(n)`` hands out the streams of blocks 0..n-1;
    building one from its spawn key needs no parent.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def _check_common(transform, t, samples, seed, workers):
    """Validate a pass; refuse one estimated to take over ``_MAX_SIM_SECONDS``."""
    t = _as_real("t", t, 0.0)
    samples = _as_int("samples", samples, 1)
    seed, workers = _as_int("seed", seed, 0), _as_int("workers", workers, 1, 256)
    # a path takes 1 + t/mu draws on average, and a block about as many rounds
    rounds = 1.0 + t / asymptotic_params(transform).mu
    blocks = -(-samples // _BLOCK)
    seconds = rounds * (samples * transform._ns_per_draw * 1e-9 + blocks * _US_PER_ROUND * 1e-6)
    if seconds > _MAX_SIM_SECONDS:
        raise DomainError(
            f"simulating t={t:g} with samples={samples} would take about {seconds:.3g} s "
            f"on one thread, over the cap of {_MAX_SIM_SECONDS:g} s; decrease t or samples"
        )
    return t, samples, seed, workers


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
        if self.std_error < 0.0 or not math.isfinite(self.mean):
            raise DomainError("estimate must have finite mean and std_error >= 0")


@dataclass(frozen=True)
class OvershootHistogram:
    """Normalized histogram of the amount by which the stopped sum overshoots t."""

    bin_edges: np.ndarray
    densities: np.ndarray
    samples: int
    t: float

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if edges.ndim != 1 or edges.shape[0] != dens.shape[0] + 1:
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


def _arrays(ws, n, dtypes):
    """One ``n``-entry array per type code in ``dtypes``, contents undefined.

    Without a workspace the arrays are fresh.  With one (the
    ``threading.local`` of a pass) they are views of the calling thread's
    ``_BLOCK``-entry arrays for ``dtypes``, made the first time it asks.
    """
    if ws is None:
        return [np.empty(n, dtype=c) for c in dtypes]
    arrays = ws.__dict__.get(dtypes)
    if arrays is None:
        arrays = ws.__dict__[dtypes] = [np.empty(_BLOCK, dtype=c) for c in dtypes]
    return [a[:n] for a in arrays]


def _free_rounds(t):
    """Rounds in which no path can stop: the first floor(t), at most ``_DRAW_CAP``.

    Every increment is at most f(1) = 1 and float addition rounds
    monotonically, so a sum of r <= floor(t) increments is at most r <= t.
    Past ``_DRAW_CAP`` the caller's cap check trips before the next draw.
    """
    return min(math.floor(t), _DRAW_CAP)


def _run_block(transform, t, n, rng, ws=None):
    """Simulate n paths; returns (stopped, over).

    ``stopped[r]`` counts the paths that stopped on draw r, and ``over``
    holds the overshoots in stop order.  The surviving paths keep their
    order, so each round's draws reach the same paths as they would with
    path ids.  The working arrays come from the pass workspace ``ws``
    (fresh ones when it is None; ``over`` is one of them): each round draws
    into ``u``, transforms in place, compares into ``done`` and compacts
    the running sums into ``spare``, which then swaps with ``sums``.  Each
    compaction is ``np.take`` of a temporary index array with
    ``mode="clip"``: ``np.compress`` with ``out=`` (and ``np.take`` in its
    default ``mode="raise"``) fills a buffer and copies it into ``out``.
    The index array dies within its round: one kept alive into the next
    round made the allocator hand out fresh pages, about 900 KB of page
    faults per block at t = 20.  The first ``_free_rounds(t)`` rounds only
    draw and add.
    """
    u, sums, spare, over, done = _arrays(ws, n, "dddd?")
    sums.fill(0.0)
    free = _free_rounds(t)
    for _ in range(free):
        x = rng.random(n, out=u)
        sums += transform._f(x, out=x)
    stopped = [0] * (free + 1)
    m = n
    while m:
        # every surviving path is about to make draw len(stopped)
        if len(stopped) > _DRAW_CAP:
            raise ConvergenceError(
                f"path exceeded {_DRAW_CAP} draws; transform increments are "
                f"effectively zero"
            )
        s = sums[:m]
        x = rng.random(m, out=u[:m])
        s += transform._f(x, out=x)
        d = np.greater(s, t, out=done[:m])
        hit = np.count_nonzero(d)
        stopped.append(hit)
        if hit:
            stop = over[n - m : n - m + hit]
            np.take(s, np.flatnonzero(d), out=stop, mode="clip")
            stop -= t
            m -= hit
            np.take(s, np.flatnonzero(np.logical_not(d, out=d)), out=spare[:m], mode="clip")
            sums, spare = spare, sums
    return np.array(stopped, dtype=np.int64), over


def _bin_counts(over, bins, ws=None):
    """``np.histogram(over, bins, range=(0, 1))[0]`` for ``over`` in (0, 1].

    numpy's equal-width arithmetic without its temporaries: the bin of x is
    ``int(x * bins)``, x = 1 going to the last bin, then one down where x is
    below that bin's left edge and one up where it reaches the next bin's
    (never past the last bin, which is closed).  numpy's range filter is
    left out: overshoots lie in (0, 1].
    """
    lo = np.linspace(0.0, 1.0, bins + 1)
    hi = np.append(lo[1:-1], np.inf)
    x, idx, flag = _arrays(ws, over.shape[0], "dp?")
    np.copyto(idx, np.multiply(over, bins, out=x), casting="unsafe")
    np.minimum(idx, bins - 1, out=idx)
    idx -= np.less(over, np.take(lo, idx, out=x, mode="clip"), out=flag)
    idx += np.greater_equal(over, np.take(hi, idx, out=x, mode="clip"), out=flag)
    return np.bincount(idx, minlength=bins)


def _fan_out(block, samples, seed, workers):
    """Run ``block(n, rng, ws)`` on every block of a pass; results in block order.

    Block b holds the next ``min(_BLOCK, samples - b * _BLOCK)`` paths and
    draws from ``_stream(seed, b)``, so its result depends neither on the
    worker count nor on which thread runs it.  ``ws`` is the pass
    workspace, one ``threading.local`` shared by the blocks and dropped
    with the threads when the pass returns.
    """
    ws = threading.local()

    def run(b):
        return block(min(_BLOCK, samples - b * _BLOCK), _stream(seed, b), ws)

    blocks = range(-(-samples // _BLOCK))
    if workers == 1:
        return [run(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, blocks))


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

    def _estimate(self, mean, var):
        return SimEstimate(
            mean=mean,
            std_error=math.sqrt(max(var, 0.0) / self.samples),
            samples=self.samples,
            seed=self.seed,
            t=self.t,
            spec=self.spec,
        )

    def count_estimate(self) -> SimEstimate:
        """Mean draw count and its standard error."""
        n = self.samples
        # exact integer arithmetic up to the final divisions
        counts = self.k_counts.tolist()
        sum_k = sum(k * c for k, c in enumerate(counts))
        sum_k2 = sum(k * k * c for k, c in enumerate(counts))
        var = (n * sum_k2 - sum_k * sum_k) / (n * (n - 1)) if n > 1 else 0.0
        return self._estimate(sum_k / n, var)

    def stopped_sum_estimate(self) -> SimEstimate:
        """Mean stopped sum (t plus the mean overshoot) and its standard error."""
        n = self.samples
        mean_o = self.overshoot_sum / n
        var = (self.overshoot_sumsq - self.overshoot_sum * mean_o) / (n - 1) if n > 1 else 0.0
        return self._estimate(self.t + mean_o, var)

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
    is given.  The estimators are views of the record, so one call serves
    them all on shared paths.  A pass estimated to outrun
    ``_MAX_SIM_SECONDS`` on one thread is refused before any block runs.
    """
    if bins is not None:
        bins = _as_int("bins", bins, 10, 10_000)
    t, samples, seed, workers = _check_common(transform, t, samples, seed, workers)

    def block(n, rng, ws):
        stopped, over = _run_block(transform, t, n, rng, ws)
        hist = _bin_counts(over, bins, ws) if bins else None
        # einsum, not np.dot: OpenBLAS splits a long dot across its threads,
        # so its sum would depend on the BLAS thread count
        return stopped, float(over.sum()), float(np.einsum("i,i->", over, over)), hist

    k_counts = np.zeros(0, dtype=np.int64)
    hist = np.zeros(bins, dtype=np.int64) if bins else None
    sum_o = sum_o2 = 0.0
    for counts, o, o2, h in _fan_out(block, samples, seed, workers):
        if counts.shape[0] > k_counts.shape[0]:
            k_counts = np.pad(k_counts, (0, counts.shape[0] - k_counts.shape[0]))
        k_counts[: counts.shape[0]] += counts
        sum_o += o
        sum_o2 += o2
        if bins:
            hist += h
    return SimRecord(transform.label, t, samples, seed, k_counts, sum_o, sum_o2, hist)


def estimate_n(
    transform: BijectionSpec, t: float, samples: int, seed: int = 42, workers: int = 1
) -> SimEstimate:
    """Estimate the expected draw count at threshold t.

    The draw-count sums are integers, accumulated exactly, so the mean and
    standard error are deterministic down to the final float divisions.
    At t = 0 every path stops on its first draw and the estimate is
    exactly 1.0 with zero standard error.
    """
    return simulate(transform, t, samples, seed, workers).count_estimate()


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


def _paired_block(t, n, rng, f_base, f_dominating, ws=None):
    """Coupled paths driven by shared uniforms; returns count of order violations.

    Both accumulators see the same uniform draw each round; the dominating
    transform (pointwise >= the base on [0, 1]) must never need more draws.
    Returns how many of the n paths violated that (expected: none).

    A path leaves once both sums have passed t, so it violated the order
    exactly when its base sum had passed t before the round it leaves in.
    Sums keep growing after they pass t, which changes no stop round, so
    every surviving path adds both increments.  As in ``_run_block`` the
    working arrays come from the pass workspace ``ws``, the survivors keep
    their order, and the first ``_free_rounds(t)`` rounds only draw and add:
    neither sum can pass t in them.
    """
    u, inc, s1, s2, spare1, spare2, done, done2, before = _arrays(ws, n, "dddddd???")
    s1.fill(0.0)
    s2.fill(0.0)
    r = _free_rounds(t)
    for _ in range(r):
        x = rng.random(n, out=u)
        s1 += f_base(x, out=inc)
        s2 += f_dominating(x, out=x)
    violations = 0
    m = n
    while m:
        r += 1
        if r > _DRAW_CAP:
            raise ConvergenceError(
                f"coupled path exceeded {_DRAW_CAP} draws; transform increments "
                f"are effectively zero"
            )
        a, b = s1[:m], s2[:m]
        x = rng.random(m, out=u[:m])
        was = np.greater(a, t, out=before[:m])
        a += f_base(x, out=inc[:m])
        b += f_dominating(x, out=x)
        d = np.greater(a, t, out=done[:m])
        d &= np.greater(b, t, out=done2[:m])
        hit = np.count_nonzero(d)
        if hit:
            violations += int(np.count_nonzero(np.logical_and(d, was, out=was)))
            m -= hit
            keep = np.flatnonzero(np.logical_not(d, out=d))
            np.take(a, keep, out=spare1[:m], mode="clip")
            np.take(b, keep, out=spare2[:m], mode="clip")
            del keep  # before the next round allocates its own: see _run_block
            s1, spare1 = spare1, s1
            s2, spare2 = spare2, s2
    return violations


def paired_domination(
    t: float, samples: int, seed: int = 42, workers: int = 1
) -> tuple[int, int]:
    """Coupled identity/logproduct paths on shared uniforms.

    ln(1 + (e-1)x) >= x on [0, 1], so on every single path the logproduct
    sum crosses t no later than the identity sum.  Returns (number of
    paths where the logproduct count exceeded the identity count, samples);
    the first entry should be 0.
    """
    ident = BUILTIN_TRANSFORMS["identity"]
    logp = BUILTIN_TRANSFORMS["logproduct"]
    # identity's sums take the longer: its mean increment is the smaller
    t, samples, seed, workers = _check_common(ident, t, samples, seed, workers)

    def block(n, rng, ws):
        return _paired_block(t, n, rng, ident._f, logp._f, ws)

    return sum(_fan_out(block, samples, seed, workers)), samples


def chernoff_bound(mu: float, delta: float) -> float:
    """Upper tail bound min(1, 2 exp(-delta^2 mu / (2 + delta))), mu and delta > 0."""
    mu = _as_real("mu", mu, 0.0, open_lo=True)
    delta = _as_real("delta", delta, 0.0, open_lo=True)
    return min(1.0, 2.0 * math.exp(-delta * delta * mu / (2.0 + delta)))


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
    mu = asymptotic_params(transform).mu
    counts = simulate(transform, t, samples, seed, workers).k_counts
    k = np.arange(counts.shape[0])
    return int(counts[np.abs(k - 1 - t / mu) > c * math.sqrt(t)].sum()) / samples


def limit_overshoot_bin_probs(transform: BijectionSpec, edges: np.ndarray) -> np.ndarray:
    """Probability mass of each histogram bin under the limiting overshoot law.

    The limiting overshoot density at u is (1 - f^{-1}(u)) / mu; each bin
    mass is its integral, every bin to 1e-12 in one call of the batched
    quadrature, split first where f^{-1} has a kink (the knot ``y``s).
    ``edges`` must be a 1-D nondecreasing array of at least 2 entries in
    [0, 1], where the density is defined.
    """
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
