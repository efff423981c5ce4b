import json
import math
import os
import subprocess
import sys
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import renewal.montecarlo as mc
from renewal.bijections import (
    BUILTIN_TRANSFORMS,
    BijectionSpec,
    ConvergenceError,
    DomainError,
    Identity,
    LogProduct,
    PiecewiseLinear,
    Power,
    asymptotic_params,
    from_knot_file,
    integrate,
)
from renewal.closed_forms import product_count, uniform_sum_count
from renewal.solver import eval_curve, solve
from renewal.verification import _MENAGERIE

E = math.e
_KNOTS_TXT = from_knot_file(Path(__file__).parents[1] / "perfbench" / "knots.txt")
_BIN_SPECS = [pytest.param(s, id=s.label) for s in _MENAGERIE]
_BIN_SPECS.append(pytest.param(_KNOTS_TXT, id="knots.txt"))


class TestEstimateN:
    def test_zero_threshold_is_exact(self):
        est = mc.estimate_n(Identity(), 0.0, 5000, seed=1)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_identity_hits_exact_value(self):
        est = mc.estimate_n(Identity(), 1.0, 200_000, seed=42)
        assert abs(est.mean - uniform_sum_count(1.0)) <= 3.0 * est.std_error

    def test_logproduct_hits_exact_value(self):
        est = mc.estimate_n(LogProduct(), 1.0, 200_000, seed=42)
        assert abs(est.mean - product_count(1.0)) <= 3.0 * est.std_error

    def test_fields(self):
        est = mc.estimate_n(LogProduct(), 0.5, 1000, seed=7)
        assert est.samples == 1000 and est.seed == 7 and est.t == 0.5
        assert est.spec == "logproduct"
        assert est.std_error > 0.0

    def test_single_sample(self):
        est = mc.estimate_n(Identity(), 0.7, 1, seed=3)
        assert est.std_error == 0.0 and est.mean >= 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t=-1.0, samples=100),
            dict(t=math.nan, samples=100),
            dict(t=1.0, samples=0),
            dict(t=1.0, samples=10.5),
            dict(t=1.0, samples=100, seed=-1),
            dict(t=1.0, samples=100, workers=0),
            dict(t=1.0, samples=100, workers=1000),
            dict(t=1.0, samples=True),
            dict(t=1.0, samples=100, seed=True),
            dict(t=1.0, samples=100, workers=True),
        ],
    )
    def test_validation(self, kwargs):
        t = kwargs.pop("t")
        samples = kwargs.pop("samples")
        with pytest.raises(DomainError):
            mc.estimate_n(Identity(), t, samples, **kwargs)

    def test_numpy_integers_are_integers(self):
        got = mc.estimate_n(Identity(), 1.0, np.int64(1000), seed=np.int64(3), workers=np.int32(2))
        assert got == mc.estimate_n(Identity(), 1.0, 1000, seed=3)
        assert json.loads(json.dumps(mc.estimate_payload(got)))["samples"] == 1000
        rec = mc.simulate(Identity(), 1.0, 1000, seed=3, bins=np.int16(10))
        assert rec.hist_counts.shape == (10,)
        with pytest.raises(DomainError, match="bins"):
            mc.simulate(Identity(), 1.0, 1000, bins=True)

    def test_work_cap_refuses_before_any_block(self, monkeypatch):
        # about 2e12 rounds of 7 us each: refused before a block runs
        def no_block(*args):
            raise AssertionError("a block ran before the work cap check")

        monkeypatch.setattr(mc, "_kernel", no_block)
        with pytest.raises(DomainError, match=r"t=1e\+12 with samples=1 .* cap of 300 s"):
            mc.estimate_n(LogProduct(), 1e12, 1)
        with pytest.raises(DomainError, match="decrease t or samples"):
            mc.paired_domination(1e12, 1)

    def test_work_cap_names_the_costs_it_charged(self, monkeypatch):
        monkeypatch.setattr(mc, "_kernel", lambda *args: pytest.fail("a block ran"))
        with pytest.raises(DomainError, match=r"about \S+ s on one thread at 22 ns per draw, "
                                              r"10 ns per path and 7 us per block round, over"):
            mc.estimate_n(_KNOTS_TXT, 20.0, 4 * 10**8)
        # the coupled pass is charged for both sums: identity's 2.7 ns and,
        # past the products' cutoff, logproduct's log1p sums' 6 ns per draw,
        # and 10 ns per path and 7 us per block round for each
        with pytest.raises(DomainError, match=r"at 8.7 ns per draw, 20 ns per path and 14 us "
                                              r"per block round"):
            mc.paired_domination(1e12, 1)

    def test_work_cap_charges_a_knot_file_its_own_cost_per_draw(self, monkeypatch):
        # np.interp makes a piecewise-linear draw dearer than a closed form's
        monkeypatch.setattr(mc, "_kernel", lambda *args: pytest.fail("a block ran"))
        knot_ns, closed_ns = mc._form(_KNOTS_TXT, 20.0).ns, mc._form(LogProduct(), 20.0).ns
        assert (knot_ns, closed_ns) == (22.0, 2.9)
        # the sample count whose charge at the geometric mean of the two
        # costs is the cap: over it at the knot file's, under at logproduct's
        rounds = 1.0 + 20.0 / asymptotic_params(_KNOTS_TXT).mu
        samples = int(300.0 / (rounds * math.sqrt(knot_ns * closed_ns) * 1e-9))
        blocks = -(-samples // mc._BLOCK)
        fixed = blocks * mc._US_PER_ROUND * 1e-6
        per_path = samples * mc._NS_PER_PATH * 1e-9
        seconds = rounds * (samples * knot_ns * 1e-9 + fixed) + per_path
        # at a closed form's cost per draw the same pass would be admitted
        assert rounds * (samples * closed_ns * 1e-9 + fixed) + per_path < 300.0
        assert seconds > 300.0
        with pytest.raises(DomainError, match=f"would take about {seconds:.3g} s"):
            mc.estimate_n(_KNOTS_TXT, 20.0, samples)

    def test_work_cap_prices_per_draw(self):
        # the forms and their prices sit beside the cap, not on the
        # transforms; a subclass (here of LogProduct) runs, and is charged
        # for, the default form of its base's f
        assert not any(hasattr(cls, "_sum_form")
                       for cls in (BijectionSpec, Identity, LogProduct, Power, PiecewiseLinear))
        specs = (Identity(), LogProduct(), Power(1.0), Power(2.0), Power(0.1), Power(0.5),
                 Power(1.5), Power(10.0), _KNOTS_TXT, _AdditiveLogProduct())
        assert [mc._form(s, 20.0).ns for s in specs] == [
            2.7, 2.9, 4.8, 4.8, 5.3, 5.3, 7.6, 7.6, 22.0, 6.0]

    def test_work_cap_prices_the_form_that_runs(self):
        # above the products' cutoff logproduct's sums add log1p
        # increments, and the cap charges what that form costs
        above, below = mc._form(LogProduct(), 750.0), mc._form(LogProduct(), 20.0)
        assert above.ns != below.ns
        assert above.ns == mc._form(_AdditiveLogProduct(), 20.0).ns


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        a = mc.estimate_n(LogProduct(), 2.0, 30_000, seed=11)
        b = mc.estimate_n(LogProduct(), 2.0, 30_000, seed=11)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_different_seed_differs(self):
        a = mc.estimate_n(LogProduct(), 2.0, 30_000, seed=11)
        b = mc.estimate_n(LogProduct(), 2.0, 30_000, seed=12)
        assert a.mean != b.mean

    def test_multiworker_deterministic(self):
        a = mc.estimate_n(LogProduct(), 2.0, 30_001, seed=5, workers=3)
        b = mc.estimate_n(LogProduct(), 2.0, 30_001, seed=5, workers=3)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_worker_split_covers_all_samples(self):
        est = mc.estimate_n(Identity(), 0.0, 12_345, seed=9, workers=7)
        assert est.mean == 1.0 and est.samples == 12_345


def _record_fields(rec):
    return (rec.k_counts.tolist(), rec.overshoot_sum, rec.overshoot_sumsq,
            None if rec.hist_counts is None else rec.hist_counts.tolist())


class TestWorkerInvariance:
    def test_small_blocks(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", 4096)
        recs = [mc.simulate(LogProduct(), 3.0, 30_001, seed=8, workers=w, bins=20)
                for w in (1, 2, 3, 7)]
        assert all(_record_fields(r) == _record_fields(recs[0]) for r in recs[1:])

    def test_real_block_size(self):
        samples = 2 * mc._BLOCK + 17
        one, two = (mc.simulate(Identity(), 2.0, samples, seed=4, workers=w) for w in (1, 2))
        assert _record_fields(one) == _record_fields(two)

    def test_paired_domination(self, monkeypatch):
        # swapped transforms, so the violation counts are not all zero
        kernel = mc._kernel
        monkeypatch.setattr(mc, "_BLOCK", 4096)
        monkeypatch.setattr(mc, "_kernel", lambda specs, *args: kernel(specs[::-1], *args))
        got = [mc.paired_domination(3.0, 20_001, seed=2, workers=w) for w in (1, 2, 3, 7)]
        assert got[0][0] > 0 and got == [got[0]] * 4

    def test_coupled_records(self, monkeypatch):
        # with no violation a path leaves when its identity sum crosses, so
        # the identity record is simulate's, bit for bit
        monkeypatch.setattr(mc, "_BLOCK", 4096)
        got = [mc._coupled(3.0, 20_001, seed=2, workers=w, bins=20) for w in (1, 2, 3, 7)]
        for violations, ident, logp in got:
            assert violations == 0
            assert _record_fields(ident) == _record_fields(got[0][1])
            assert _record_fields(logp) == _record_fields(got[0][2])
        ident = mc.simulate(Identity(), 3.0, 20_001, seed=2, bins=20)
        assert _record_fields(got[0][1]) == _record_fields(ident)
        assert got[0][2].k_counts.sum() == got[0][2].hist_counts.sum() == 20_001

    def test_block_b_walks_stream_b(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", 4096)
        rec = mc.simulate(LogProduct(), 2.0, 10_000, seed=6, workers=3)
        k_counts = np.zeros(0, dtype=np.int64)
        sum_o = 0.0
        for b, n in enumerate((4096, 4096, 1808)):
            stopped, over = mc._run_block(LogProduct(), 2.0, n, mc._stream(6, b))
            k_counts = np.pad(k_counts, (0, max(0, stopped.shape[0] - k_counts.shape[0])))
            k_counts[: stopped.shape[0]] += stopped
            sum_o += float(over.sum())
        assert rec.k_counts.tolist() == k_counts.tolist() and rec.overshoot_sum == sum_o


class TestStoppedSum:
    def test_proportional_to_count(self):
        mu = asymptotic_params(LogProduct()).mu
        ek = mc.estimate_n(LogProduct(), 2.0, 100_000, seed=42)
        es = mc.estimate_stopped_sum(LogProduct(), 2.0, 100_000, seed=42)
        dev = abs(ek.mean - es.mean / mu)
        assert dev <= 3.0 * math.hypot(ek.std_error, es.std_error / mu)

    def test_sum_exceeds_threshold(self):
        es = mc.estimate_stopped_sum(Identity(), 1.5, 20_000, seed=2)
        assert 1.5 < es.mean <= 2.5


class TestDrawCap:
    def test_block_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mc, "_DRAW_CAP", 100)
        with pytest.raises(ConvergenceError, match="draws"):
            mc.estimate_n(Identity(), 50.0, 64, seed=0)

    def test_cap_counts_draws_per_path(self, monkeypatch):
        # the block draws about 64 * 21 times in all, but no path of this
        # seed needs more than 27 draws, so a cap of 100 must not trip
        monkeypatch.setattr(mc, "_DRAW_CAP", 100)
        assert mc.estimate_n(Identity(), 10.0, 64, seed=0).mean < 27.0
        assert mc.paired_domination(10.0, 64, seed=0) == (0, 64)


def _state(rng):
    """The state of ``rng``'s bit generator as plain values, which == compares.

    SFC64 keeps its state words in an array, whose == is elementwise.
    """
    state = rng.bit_generator.state
    return {**state, "state": {k: np.asarray(v).tolist() for k, v in state["state"].items()}}


def _x(k):
    """The uniforms of the 32-bit words ``k``: the midpoints (k + 1/2) 2^-32."""
    return (k + 0.5) * 2.0**-32


def _halves(words, m):
    """The first m draws of a round of raw 64-bit ``words``: their 32-bit halves, low first."""
    words = np.asarray(words, dtype=np.uint64)
    return np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=1).ravel()[:m]


def _plain_form(transform, t):
    """A sum's (start, step, level, overshoot), written plainly; ``step`` takes the words k.

    Identity's sums are integers, the sums of 2k + 1 = 2^33 x: one has
    passed L once it is above L 2^33, and overshoots t by its excess over t
    2^33, times 2^-33.  LogProduct's sums up to t = 700 are products of x +
    1/(e-1) factors: one of r draws has passed L once it is above e^L
    (e-1)^-r, and overshoots t by log1p((S - V)/V) at V = e^t (e-1)^-r.  The
    kernel's products carry a power of two, which changes neither.  Every
    other sum adds f(x), passes L once it is above L and overshoots t by s -
    t.  ``level(r, L)`` and ``overshoot(s, r)`` take the draw count r.
    """
    if type(transform) is Identity:
        whole = math.floor(Fraction(t) * 2**33)
        part = float(Fraction(t) * 2**33 - whole)
        return (0, lambda s, k: s + (2 * k.astype(np.int64) + 1),
                lambda r, mark: math.floor(Fraction(mark) * 2**33),
                lambda s, r: ((s - whole) - part) * 2.0**-33)
    if type(transform) is LogProduct and t <= 700.0:
        c = 1.0 / (E - 1.0)

        def level(r, mark):
            return math.exp(mark) * c**r

        return (1.0, lambda s, k: s * (_x(k) + c), level,
                lambda s, r: np.log1p((s - level(r, t)) / level(r, t)))
    return 0.0, lambda s, k: s + transform._f(_x(k)), lambda r, mark: mark, lambda s, r: s - t


def _retire(idx, done):
    """The kernel's retirement rule on the path ids ``idx`` of m slots, in slot order.

    The h paths that are ``done`` leave.  The live paths of the tail slots
    [m - h, m) move, in slot order, into the leavers' slots below m - h.
    Returns the ids of the m - h slots left.
    """
    m = idx.size - int(np.count_nonzero(done))
    src = m + np.flatnonzero(~done[m:])
    idx = idx.copy()
    idx[np.flatnonzero(done)[: src.size]] = idx[src]
    return idx[:m]


def _reference_block(transform, t, n, rng):
    """The kernel written plainly: per-path sums, path ids in slot order, fresh arrays."""
    start, step, level, overshoot = _plain_form(transform, t)
    idx = np.arange(n)
    sums = np.full(n, start)
    k = np.zeros(n, dtype=np.int64)
    over = np.zeros(n)
    r = 0
    while idx.size:
        r += 1
        sums[idx] = step(sums[idx], mc._draw(rng, idx.size))
        done = sums[idx] > level(r, t)
        k[idx[done]] = r
        over[idx[done]] = overshoot(sums[idx[done]], r)
        idx = _retire(idx, done)
    return k, over


class _AdditiveLogProduct(LogProduct):
    """A LogProduct subclass, whose Monte Carlo sums add its log1p increments at every t."""


class _Squares:
    """f(x) = x^2, as a transform subclass's own f."""

    def _f(self, x, out=None):
        return np.multiply(x, x, out=out)


@dataclass(frozen=True, repr=False)
class _SquaringIdentity(_Squares, Identity):
    """An Identity subclass whose f squares."""


@dataclass(frozen=True, repr=False)
class _SquaringLogProduct(_Squares, LogProduct):
    """A LogProduct subclass whose f squares."""


class _Constant:
    """A generator stub whose every draw is the 32-bit word ``k``; counts its raw words."""

    def __init__(self, k):
        self.bit_generator, self.k, self.words = self, k, 0

    def random_raw(self, n):
        self.words += n
        return np.full(n, self.k * (2**32 + 1), dtype=np.uint64)


class TestKernel:
    # t = 0: every path stops on its first draw; t = 1 and 20: one free
    # round and twenty (none and nineteen for logproduct's products); t =
    # 750: past the products' cutoff.  The t = 3 cases' ids name n alone,
    # as before t was a parameter
    @pytest.mark.parametrize(
        "t, n",
        [pytest.param(t, n, id=str(n) if t == 3.0 else f"t{t:g}-{n}")
         for t in (0.0, 1.0, 3.0, 20.0, 750.0) for n in (1, 7, 4096, 65536)
         if n < 4096 or t < 750.0],
    )
    @pytest.mark.parametrize(
        "spec",
        [Identity(), LogProduct(), PiecewiseLinear(((0.0, 0.0), (0.3, 0.2137), (1.0, 1.0)))],
        ids=lambda s: s.label,
    )
    def test_matches_the_reference(self, spec, t, n):
        ref = mc._stream(6, 2)
        k, want = _reference_block(spec, t, n, ref)
        rng = mc._stream(6, 2)
        violations, (stopped, over) = mc._kernel((spec,), t, n, rng)
        assert violations == 0
        assert stopped.dtype == np.int64 and (stopped == np.bincount(k)).all()
        assert (np.sort(over) == np.sort(want)).all()
        # the kernel drew exactly as many uniforms as the reference
        assert _state(rng) == _state(ref)
        # counted only, the same paths take the same draws
        counting = mc._stream(6, 2)
        violations, (counted, none) = mc._kernel((spec,), t, n, counting, None, (), False)
        assert violations == 0 and none is None
        assert counted.dtype == np.int64 and counted.tolist() == stopped.tolist()
        assert _state(counting) == _state(ref)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", [_SquaringIdentity(), _SquaringLogProduct()],
                             ids=["identity", "logproduct"])
    def test_subclass_runs_its_own_f(self, spec, workers):
        # a subclass's f may differ from its base's, so it runs the default
        # form of its own f: one that squares walks Power(2.0)'s sums
        args = (5.0, 100_003, 3, workers)
        got, want = (mc.simulate(s, *args, bins=20) for s in (spec, Power(2.0)))
        assert _record_fields(got) == _record_fields(want)
        got, want = (mc.estimate_n(s, *args) for s in (spec, Power(2.0)))
        assert (got.mean, got.std_error) == (want.mean, want.std_error)

    def test_draw_cap_trips_per_path(self, monkeypatch):
        k, _ = _reference_block(Identity(), 10.0, 4096, mc._stream(3, 0))
        monkeypatch.setattr(mc, "_DRAW_CAP", int(k.max()))
        assert mc._run_block(Identity(), 10.0, 4096, mc._stream(3, 0))[0].sum() == 4096
        monkeypatch.setattr(mc, "_DRAW_CAP", int(k.max()) - 1)
        with pytest.raises(ConvergenceError, match="draws"):
            mc._run_block(Identity(), 10.0, 4096, mc._stream(3, 0))

    @pytest.mark.parametrize(
        "specs", [(Identity(),), (Identity(), LogProduct())], ids=["one-sum", "two-sums"]
    )
    def test_draw_cap_below_the_free_rounds(self, monkeypatch, specs):
        # t = 10 leaves every path running for 10 rounds; a cap of 5 must
        # trip before draw 6, after exactly 5 rounds of 64 draws
        monkeypatch.setattr(mc, "_DRAW_CAP", 5)
        rng = mc._stream(3, 0)
        with pytest.raises(ConvergenceError, match="draws"):
            mc._kernel(specs, 10.0, 64, rng)
        ref = mc._stream(3, 0)
        for _ in range(5):
            mc._draw(ref, 64)
        assert _state(rng) == _state(ref)

    def test_workspace_reuse_matches_fresh_arrays(self):
        # a workspace left dirty by a longer block must not leak into the
        # next; two sums swapped, so violators wait in it too
        ws = threading.local()
        for n, t in ((4096, 3.0), (7, 5.5), (4096, 0.0)):
            for specs in ((LogProduct(),), (LogProduct(), Identity())):
                got = mc._kernel(specs, t, n, mc._stream(len(specs), n), ws)
                want = mc._kernel(specs, t, n, mc._stream(len(specs), n))
                assert got[0] == want[0]
                for (k, over), (k_want, over_want) in zip(got[1:], want[1:]):
                    assert (k == k_want).all() and (over == over_want).all()

    @pytest.mark.parametrize("t", [1.0, 3.0, 20.0])
    @pytest.mark.parametrize(
        "specs",
        [(LogProduct(),), (_AdditiveLogProduct(),), (Identity(),), (Identity(), LogProduct())],
        ids=["product", "additive", "identity", "coupled"],
    )
    def test_extreme_draws(self, monkeypatch, specs, t):
        # every draw the largest, k = 2^32 - 1 (x = 1 - 2^-33): each sum
        # crosses on draw floor(t) + 1, no sooner, with an overshoot in (0, 1]
        n = 5
        violations, *pairs = mc._kernel(specs, t, n, _Constant(2**32 - 1))
        assert violations == 0
        for stopped, over in pairs:
            assert stopped.tolist() == [0] * (math.floor(t) + 1) + [n]
            assert ((over > 0.0) & (over <= 1.0)).all()
        # every draw the smallest, k = 0 (x = 2^-33): no sum crosses within
        # 40 draws, so the draw cap trips after exactly its rounds, each
        # reading ceil(5/2) raw words
        monkeypatch.setattr(mc, "_DRAW_CAP", 40)
        rng = _Constant(0)
        with pytest.raises(ConvergenceError, match="draws"):
            mc._kernel(specs, t, n, rng)
        assert rng.words == 40 * 3

    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0, 19.5, 20.0, 700.0])
    def test_product_free_rounds_cannot_cross(self, t):
        # every draw the largest, k = 2^32 - 1, so the products grow as
        # fast as they can: the kernel, which skips the stop test in its
        # free rounds, stops on the draw of the reference, which tests every
        # round, with the same overshoot
        k, want = _reference_block(LogProduct(), t, 3, _Constant(2**32 - 1))
        _, (stopped, over) = mc._kernel((LogProduct(),), t, 3, _Constant(2**32 - 1))
        assert stopped.tolist() == np.bincount(k).tolist()
        assert over.tolist() == want.tolist()

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 19.5, 20.0, 700.0, 750.0])
    def test_product_free_rounds(self, t):
        # the kernel-level test above cannot pin the rounding margin: with
        # every draw the largest, k = 2^32 - 1, no product crosses on draw
        # floor(t) at any integer t up to 700, so one more free round passes
        # it.  Products skip the stop test on floor(t) - 1 draws; the default
        # form, and the products' past their cutoff, on floor(t)
        products = mc._form(LogProduct(), t).free
        assert products == (math.floor(t) if t > 700.0 else max(math.floor(t) - 1, 0))
        assert mc._form(_AdditiveLogProduct(), t).free == math.floor(t)

    @pytest.mark.parametrize("t, increment", [(700.0, 0.2), (0.5, 0.0)])
    def test_product_levels_stay_normal(self, monkeypatch, t, increment):
        # no sum passes t within the cap of 3000 draws (0.2 per draw needs
        # 3500 to pass 700; k = 0 adds about 2e-10), but the plain products
        # fall 0.34 and 0.54 in log per draw, and e^t (e-1)^-r leaves the
        # normal doubles by draw 2600 and 1310: unscaled, a subnormal sum
        # could sit above a level rounded to 0
        monkeypatch.setattr(mc, "_DRAW_CAP", 3000)
        rng = _Constant(math.floor(math.expm1(increment) / (E - 1.0) * 2**32))
        with pytest.raises(ConvergenceError, match="draws"):
            mc._kernel((LogProduct(),), t, 3, rng)
        assert rng.words == 3000 * 2

    def test_product_overshoots_are_the_more_accurate(self):
        # 200 one-path blocks at t = 20, each on its own stream, so a path's
        # k draws are the low halves of its stream's first k raw words: each
        # overshoot against the 40-digit sum of ln(1 + (e-1)x) over them
        import mpmath

        worst = {}
        for spec in (LogProduct(), _AdditiveLogProduct()):
            errors = []
            for path in range(200):
                stopped, over = mc._run_block(spec, 20.0, 1, mc._stream(2024, path))
                raw = mc._stream(2024, path).bit_generator.random_raw(stopped.shape[0] - 1)
                u = _x(raw & np.uint64(0xFFFFFFFF))
                with mpmath.workdps(40):
                    steps = [mpmath.log1p((mpmath.e - 1) * float(x)) for x in u]
                    # the exact sum crosses on the same draw
                    assert mpmath.fsum(steps[:-1]) <= 20 < mpmath.fsum(steps)
                    errors.append(abs(float(over[0] - (mpmath.fsum(steps) - 20))))
            worst[type(spec)] = max(errors)
        # measured: 1.7e-15 for the products, 1.1e-14 for the sums
        assert worst[LogProduct] <= 1e-14 and worst[LogProduct] <= worst[_AdditiveLogProduct]

    @pytest.mark.parametrize("n", [1, 6, 7])
    def test_draw_is_the_midpoint_of_its_word(self, n):
        # at t = 0 every path crosses on its first draw, and power:1's and
        # identity's sums overshoot by the draw itself: draw i is (k_i +
        # 1/2) 2^-32, k taken by value from the raw words, low half first; an
        # odd n leaves the high half of the last word unused
        words = mc._stream(5, 3).bit_generator.random_raw((n + 1) // 2)
        k = _halves(words, n)
        assert mc._draw(mc._stream(5, 3), n).tolist() == k.tolist()
        for spec in (Power(1.0), Identity()):
            rng, ref = mc._stream(5, 3), mc._stream(5, 3)
            _, (stopped, over) = mc._kernel((spec,), 0.0, n, rng)
            assert stopped.tolist() == [0, n]
            assert over.tolist() == [(int(w) + 0.5) * 2.0**-32 for w in k]
            ref.bit_generator.random_raw((n + 1) // 2)
            assert _state(rng) == _state(ref)
            # the extreme words
            for word, x in ((0, 2.0**-33), (2**32 - 1, 1.0 - 2.0**-33)):
                _, (_, over) = mc._kernel((spec,), 0.0, n, _Constant(word))
                assert over.tolist() == [x] * n

    @pytest.mark.parametrize("t", [0.0, 1.0, 7.3, 20.0])
    def test_identity_sums_are_exact(self, t):
        # 300 paths in one block, each path's draws followed through the
        # rounds and retirement and summed as fractions: every crossing draw
        # is the exact one, and every overshoot (by draw, then by slot) the
        # exact one rounded once
        n = 300
        rng = _Recording(mc._stream(11, 0))
        _, (stopped, over) = mc._kernel((Identity(),), t, n, rng)
        idx, sums, first, want = np.arange(n), [Fraction(0)] * n, np.zeros(n, np.int64), []
        for r, words in enumerate(rng.draws, 1):
            done = np.zeros(idx.size, dtype=bool)
            for slot, (path, k) in enumerate(zip(idx, _halves(words, idx.size))):
                sums[path] += Fraction(2 * int(k) + 1, 2**33)
                if sums[path] > t:
                    done[slot], first[path] = True, r
                    want.append(float(sums[path] - Fraction(t)))
            idx = _retire(idx, done)
        assert idx.size == 0
        assert stopped.tolist() == np.bincount(first).tolist()
        assert over.tolist() == want

    @pytest.mark.parametrize("t, draws", [(20.0, 80), (700.0, 1300)])
    def test_folded_products_are_the_plain_products(self, t, draws):
        # 300 products stepped in their form, crossed or not, against S *= x
        # + c from 1: bit for bit up to one power of two per draw, the same
        # for every path, and so is the level of t (r < 1024), so every path
        # crosses on the plain product's draw
        form, c, n = mc._form(LogProduct(), t), 1.0 / (E - 1.0), 300
        s, plain, u = np.full(n, form.start), np.ones(n), np.empty(n)
        rng = mc._stream(12, 0)
        first, first_plain = np.zeros(n, np.int64), np.zeros(n, np.int64)
        for r in range(1, draws + 1):
            k = mc._draw(rng, n)
            form.step(s, k, u, r)
            plain *= _x(k) + c
            (frac, exp), (frac_plain, exp_plain) = np.frexp(s), np.frexp(plain)
            assert (frac == frac_plain).all() and (exp - exp_plain == exp[0] - exp_plain[0]).all()
            level, level_plain = form.level(r, t), math.exp(t) * c**r
            if r < 1024:
                assert math.frexp(level)[0] == math.frexp(level_plain)[0]
                assert math.frexp(level)[1] - math.frexp(level_plain)[1] == exp[0] - exp_plain[0]
            first[(first == 0) & (s > level)] = r
            first_plain[(first_plain == 0) & (plain > level_plain)] = r
        assert (first > 0).all() and first.tolist() == first_plain.tolist()

    @pytest.mark.parametrize("word", [2**32 - 1, 0], ids=["largest", "smallest"])
    def test_product_bound_at_the_cutoff(self, word):
        # LogProduct's bound at t = 700: the level of t stays in [2^-0.5,
        # 2^469], every mark's level and every sum that has not crossed
        # above 2^-1011, and a sum that crosses below 2^471.  The largest
        # draws grow the sums fastest and cross on draw 701; the smallest
        # never cross in 3000 draws
        t = 700.0
        form = mc._form(LogProduct(), t)
        s, u, k = np.full(1, form.start), np.empty(1), np.full(1, word, dtype=np.uint32)
        for r in range(1, 3001):
            form.step(s, k, u, r)
            level = form.level(r, t)
            assert 2.0**-0.5 * (1.0 - 1e-12) <= level <= 2.0**469
            assert all(form.level(r, mark) >= 2.0**-1011 for mark in (0.0, 1.0, 350.0))
            assert 2.0**-1011 <= s[0] < 2.0**471
            if s[0] > level:
                break
        assert r == (701 if word else 3000)

    def test_streams_are_spawned_children(self):
        children = np.random.SeedSequence(9).spawn(3)
        for worker, child in enumerate(children):
            want = np.random.Generator(np.random.SFC64(child)).random(4)
            assert (mc._stream(9, worker).random(4) == want).all()


class TestBinCounts:
    @pytest.mark.parametrize("bins", [10, 17, 50, 1000, 10000])
    def test_matches_np_histogram_at_the_edges(self, bins):
        # on, one and two ulps above and below every edge, and 0 and 1
        edges = np.linspace(0.0, 1.0, bins + 1)
        up, down = np.nextafter(edges, 2.0), np.nextafter(edges, -1.0)
        x = np.concatenate([edges, up, down, np.nextafter(up, 2.0), np.nextafter(down, -1.0),
                            [0.0, 1.0], mc._stream(0, 0).random(5000)])
        x = x[(x >= 0.0) & (x <= 1.0)]
        want = np.histogram(x, bins, range=(0.0, 1.0))[0]
        assert (mc._bin_counts(x, bins) == want).all()
        ws = threading.local()
        for _ in range(2):
            assert (mc._bin_counts(x, bins, ws) == want).all()


# records of 2 * _BLOCK + 17 paths at seed 42, computed by the kernel that
# draws two 32-bit midpoint uniforms per raw word of SFC64 block streams,
# sums identity's words exactly and steps logproduct's products by k + 1/2 +
# 2^32/(e-1)
_N_GOLDEN = 2 * mc._BLOCK + 17
_GOLDEN = {
    "identity": (
        Identity(), 1.0, None,
        [0, 0, 65524, 43800, 16332, 4329, 908, 166, 26, 4],
        "0x1.6fb5c67834ad0p+15", "0x1.803fd650d3d5ap+14", None,
    ),
    "logproduct": (
        LogProduct(), 20.0, 17,
        [0] * 26 + [21, 130, 537, 1625, 3917, 7522, 11701, 15815, 18226, 18150, 15900, 13133,
                    9647, 6473, 3905, 2181, 1134, 587, 269, 128, 56, 23, 6, 2, 1],
        "0x1.700d869f6c0b9p+15", "0x1.80c01edc2fdeap+14",
        [13021, 12396, 12137, 11408, 10924, 10362, 9610, 8903, 8218, 7646, 6790, 5782,
         4843, 3820, 2857, 1760, 612],
    ),
    "power:0.5": (
        Power(0.5), 5.0, None,
        [0] * 6 + [4523, 35789, 51122, 28837, 8792, 1762, 235, 27, 2],
        "0x1.8047d38871da6p+15", "0x1.99e6548f7896ap+14", None,
    ),
    "knots.txt": (
        _KNOTS_TXT, 3.0, 10,
        [0] * 4 + [537, 3543, 10241, 17978, 23035, 23211, 19477, 14188, 8998, 5156, 2611,
                   1272, 529, 198, 78, 27, 9, 1],
        "0x1.1f036a0176f88p+15", "0x1.05274431b54dap+14",
        [32831, 26142, 21501, 16486, 11456, 8142, 6368, 4604, 2678, 881],
    ),
}

# the coupled identity/logproduct records of _N_GOLDEN paths at t = 20,
# seed 42, 17 bins: (spec, first nonzero draw, k_counts from there, sum, sum
# of squares, histogram)
_GOLDEN_COUPLED = (
    ("identity", 28,
     [3, 15, 84, 245, 574, 1337, 2612, 4478, 6938, 9365, 11893, 13753, 14283, 14118, 12597,
      10744, 8684, 6484, 4708, 3187, 2056, 1264, 766, 422, 241, 124, 62, 31, 8, 4, 5, 4],
     "0x1.5617899ed8b30p+15", "0x1.563d0c47e1d9bp+14",
     [14945, 13937, 13041, 12372, 11253, 10375, 9557, 8717, 7791, 6791, 5953, 5043, 4022,
      3175, 2297, 1396, 424]),
    ("logproduct", 26,
     [21, 130, 542, 1606, 3949, 7535, 11706, 15822, 18022, 18056, 16527, 12958, 9410, 6383,
      3932, 2230, 1173, 611, 261, 134, 57, 15, 3, 3, 3],
     "0x1.704d255374b89p+15", "0x1.8115906bac8fcp+14",
     [12962, 12460, 11915, 11702, 10807, 10260, 9715, 8964, 8172, 7572, 6714, 5834, 5013,
      3863, 2858, 1685, 593]),
)


class TestGoldenRecords:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", list(_GOLDEN))
    def test_record_is_bit_identical(self, name, workers):
        spec, t, bins, k_counts, o, o2, hist = _GOLDEN[name]
        assert mc._BLOCK == 1 << 16
        rec = mc.simulate(spec, t, _N_GOLDEN, seed=42, workers=workers, bins=bins)
        assert rec.k_counts.tolist() == k_counts
        assert (rec.overshoot_sum.hex(), rec.overshoot_sumsq.hex()) == (o, o2)
        assert (None if rec.hist_counts is None else rec.hist_counts.tolist()) == hist

    @pytest.mark.parametrize("workers", [1, 2])
    def test_paired_domination_count(self, monkeypatch, workers):
        assert mc.paired_domination(3.0, _N_GOLDEN, seed=2, workers=workers) == (0, _N_GOLDEN)
        # swapped transforms, so the count is not 0
        kernel = mc._kernel
        monkeypatch.setattr(mc, "_kernel", lambda specs, *args: kernel(specs[::-1], *args))
        assert mc.paired_domination(3.0, _N_GOLDEN, seed=2, workers=workers) == (88810, _N_GOLDEN)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_coupled_records_are_bit_identical(self, workers):
        violations, *recs = mc._coupled(20.0, _N_GOLDEN, 42, workers, bins=17)
        assert violations == 0
        for rec, (spec, first, k_counts, o, o2, hist) in zip(recs, _GOLDEN_COUPLED):
            assert (rec.spec, rec.t, rec.samples, rec.seed) == (spec, 20.0, _N_GOLDEN, 42)
            assert rec.k_counts.tolist() == [0] * first + k_counts
            assert (rec.overshoot_sum.hex(), rec.overshoot_sumsq.hex()) == (o, o2)
            assert rec.hist_counts.tolist() == hist

    @pytest.mark.parametrize("spec, t, k_counts", [
        *(pytest.param(spec, t, k, id=name) for name, (spec, t, _, k, *_) in _GOLDEN.items()),
        *(pytest.param(BUILTIN_TRANSFORMS[label], 20.0, [0] * first + k, id="coupled-" + label)
          for label, first, k, *_ in _GOLDEN_COUPLED),
    ])
    def test_pinned_counts_are_unbiased(self, spec, t, k_counts):
        # the pins are regenerated whenever the paths change, so a biased
        # kernel would pin its own records: each pinned mean count must lie
        # within 4 of its standard errors of N(t)
        if t == 20.0:
            params = asymptotic_params(spec)
            exact = (t + params.c) / params.mu
        elif isinstance(spec, Identity):
            exact = E
        else:
            exact = float(eval_curve(solve(spec, t, 1e-3), t))
        est = mc._count_estimate(spec.label, t, _N_GOLDEN, 42, np.array(k_counts))
        assert abs(est.mean - exact) <= 4.0 * est.std_error


class TestWorkspace:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["simulate", "paired", "counted"])
    def test_reused_across_blocks_and_freed_with_the_pass(self, monkeypatch, workers, kind):
        arrays = mc._arrays
        refs, ids, asked = [], set(), []

        def recording(ws, n, dtypes):
            views = arrays(ws, n, dtypes)
            assert ws is not None and [v.dtype for v in views] == [np.dtype(c) for c in dtypes]
            # each array has a buffer of its own and starts on a page of it
            assert all(v.ctypes.data % 4096 == 0 for v in views)
            assert all(v.base.nbytes == mc._BLOCK * v.itemsize + 4096 for v in views)
            refs.extend(weakref.ref(v.base) for v in views)
            ids.update(id(v.base) for v in views)
            asked.append(dtypes)
            return views

        monkeypatch.setattr(mc, "_arrays", recording)
        if kind == "paired":
            mc.paired_domination(2.0, _N_GOLDEN, seed=1, workers=workers)
            per_block = ["dqd?dd?"]
        elif kind == "simulate":
            mc.simulate(LogProduct(), 2.0, _N_GOLDEN, seed=1, workers=workers, bins=10)
            per_block = ["ddd?", "dp?"]
        else:
            # a count-only pass keeps no overshoots
            mc.estimate_n(LogProduct(), 2.0, _N_GOLDEN, seed=1, workers=workers)
            per_block = ["dd?"]
        # three blocks: each thread makes its arrays once
        assert sorted(asked) == sorted(per_block * 3)
        per_thread = len("".join(per_block))
        assert len(ids) <= workers * per_thread and (workers > 1 or len(ids) == per_thread)
        assert all(ref() is None for ref in refs)


# (transform, t) of the count-only passes checked against simulate's records
_COUNTED = [
    *((Identity(), t) for t in (0.0, 1.0, 20.0)),
    *((LogProduct(), t) for t in (1.0, 20.0, 750.0)),
    (Power(0.5), 20.0),
    (_KNOTS_TXT, 20.0),
]


class TestSimulateRecord:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_views_read_the_record(self, monkeypatch, workers):
        # small blocks so every worker merges several of them
        monkeypatch.setattr(mc, "_BLOCK", 4096)
        spec, t, samples, c = LogProduct(), 3.0, 30_001, 0.5
        rec = mc.simulate(spec, t, samples, seed=8, workers=workers, bins=20)
        assert rec.k_counts.sum() == rec.hist_counts.sum() == samples
        args = dict(seed=8, workers=workers)
        for got, view in (
            (rec.count_estimate(), mc.estimate_n(spec, t, samples, **args)),
            (rec.stopped_sum_estimate(), mc.estimate_stopped_sum(spec, t, samples, **args)),
        ):
            assert got.mean == view.mean and got.std_error == view.std_error
        hist = mc.overshoot_histogram(spec, t, samples, bins=20, **args)
        assert (rec.histogram().densities == hist.densities).all()
        k = np.arange(rec.k_counts.shape[0])
        mu = asymptotic_params(spec).mu
        far = rec.k_counts[np.abs(k - 1 - t / mu) > c * math.sqrt(t)]
        assert 0 < far.sum() < samples
        assert far.sum() / samples == mc.k_concentration_check(spec, t, samples, c, **args)
        # estimate_n and k_concentration_check run count-only passes of
        # their own: at the real block size (65537 and 200003 paths end in a
        # one-path and a short block) they count simulate's paths, at t = 0,
        # within and past the free rounds and past the products' cutoff
        # (k_concentration_check, whose pass is estimate_n's, at t = 20 only)
        monkeypatch.setattr(mc, "_BLOCK", 1 << 16)
        for spec, t in _COUNTED:
            mu = asymptotic_params(spec).mu
            for samples in (1, 65537, 200003):
                rec = mc.simulate(spec, t, samples, **args)
                got, want = mc.estimate_n(spec, t, samples, **args), rec.count_estimate()
                assert (got.mean, got.std_error) == (want.mean, want.std_error), (spec, t)
                if t == 20.0:
                    k = np.arange(rec.k_counts.shape[0])
                    far = rec.k_counts[np.abs(k - 1 - t / mu) > c * math.sqrt(t)]
                    frac = mc.k_concentration_check(spec, t, samples, c, **args)
                    assert frac == far.sum() / samples, (spec, t)

    def test_record_matches_the_kernel(self):
        # one worker, one block: the record summarizes exactly these paths
        rec = mc.simulate(LogProduct(), 2.0, 5000, seed=4, bins=10)
        stopped, over = mc._run_block(LogProduct(), 2.0, 5000, mc._stream(4, 0))
        assert (rec.k_counts == stopped).all()
        assert rec.overshoot_sum == over.sum()
        assert rec.overshoot_sumsq == np.einsum("i,i->", over, over)
        assert (rec.hist_counts == np.histogram(over, bins=10, range=(0.0, 1.0))[0]).all()
        with pytest.raises(ValueError):
            rec.k_counts[2] = 0

    def test_record_does_not_depend_on_blas_threads(self):
        # OpenBLAS splits a dot product over 2^16 paths across its threads;
        # the overshoot sum of squares must not take that route
        code = (
            "from renewal import montecarlo as mc; from renewal.bijections import LogProduct; "
            "print(mc.simulate(LogProduct(), 20, 2**17, seed=1).overshoot_sumsq.hex())"
        )
        src = str(Path(mc.__file__).parents[1])
        out = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n},
                capture_output=True, text=True, check=True,
            ).stdout
            for n in ("1", "2")
        ]
        assert out[0] == out[1]

    def test_histogram_needs_bins(self):
        rec = mc.simulate(Identity(), 1.0, 100, seed=1)
        assert rec.hist_counts is None
        with pytest.raises(DomainError, match="bins"):
            rec.histogram()
        with pytest.raises(DomainError, match="bins"):
            mc.simulate(Identity(), 1.0, 100, bins=5)

    def test_bins_capped(self):
        # each block allocates arrays of bins + 1 floats: the CLI's --bins range
        assert mc.simulate(Identity(), 1.0, 1000, bins=10_000).hist_counts.shape == (10_000,)
        with pytest.raises(DomainError, match="bins"):
            mc.simulate(Identity(), 1.0, 1000, bins=10_001)


class TestOvershootHistogram:
    def test_mass_normalized(self):
        hist = mc.overshoot_histogram(LogProduct(), 3.0, 50_000, bins=25, seed=42)
        widths = np.diff(hist.bin_edges)
        assert abs(float(np.dot(hist.densities, widths)) - 1.0) <= 1e-12
        assert hist.bin_edges[0] == 0.0 and hist.bin_edges[-1] == 1.0
        assert hist.samples == 50_000 and hist.t == 3.0

    def test_bins_validated(self):
        with pytest.raises(DomainError):
            mc.overshoot_histogram(Identity(), 1.0, 1000, bins=5, seed=1)

    @pytest.mark.parametrize("edges, dens", [
        ([0.0, 0.5, 1.0], [1.0]),
        ([[0.0, 1.0]], [1.0]),
        ([0.0, 1.0], [[1.0]]),
    ], ids=["one-edge-too-many", "2-d-edges", "2-d-densities"])
    def test_edges_must_outnumber_densities_by_one(self, edges, dens):
        with pytest.raises(DomainError, match="one more entry than densities"):
            mc.OvershootHistogram(edges, dens, 10, 2.0)

    @pytest.mark.parametrize("edges, dens", [
        ([0.0, 0.5], [2.0]), ([0.5, 1.0], [2.0]),
    ], ids=["short-of-1", "above-0"])
    def test_edges_must_span_the_unit_interval(self, edges, dens):
        with pytest.raises(DomainError, match=r"span \[0, 1\]"):
            mc.OvershootHistogram(edges, dens, 10, 2.0)

    @pytest.mark.parametrize("dens", [[1.0, 1.0 - 4e-12], [1.0, 1.0 + 4e-12]],
                             ids=["short", "over"])
    def test_densities_must_integrate_to_one(self, dens):
        # the verify check overshoot-limit-density relies on this refusal
        # for its histograms' mass
        with pytest.raises(DomainError, match="integrate to 1 within 1e-12"):
            mc.OvershootHistogram([0.0, 0.5, 1.0], dens, 10, 2.0)

    def test_payload_shape(self):
        hist = mc.overshoot_histogram(Identity(), 1.0, 2000, bins=10, seed=1)
        payload = mc.histogram_payload(hist)
        assert list(payload) == ["bin_edges", "densities", "samples", "t"]
        assert len(payload["bin_edges"]) == 11
        assert len(payload["densities"]) == 10
        json.dumps(payload)  # JSON-ready

    def test_overshoot_of_uniform_sums_slopes_down(self):
        # the limiting overshoot density of plain uniform increments is
        # 2(1 - u): early bins must carry clearly more mass than late ones
        hist = mc.overshoot_histogram(Identity(), 10.0, 100_000, bins=10, seed=3)
        assert hist.densities[0] > hist.densities[-1] + 0.5


class TestLimitOvershootProbs:
    def test_identity_closed_form(self):
        probs = mc.limit_overshoot_bin_probs(Identity(), np.array([0.0, 0.5, 1.0]))
        assert probs == pytest.approx([0.75, 0.25], abs=1e-10)

    def test_logproduct_closed_form(self):
        edges = np.linspace(0.0, 1.0, 6)
        probs = mc.limit_overshoot_bin_probs(LogProduct(), edges)
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            want = E * (b - a) - (math.exp(b) - math.exp(a))
            assert probs[i] == pytest.approx(want, abs=1e-10)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "edges",
        [[0.0, 0.5, 1.5], [-0.5, 0.5], [0.0, 0.7, 0.3, 1.0], [0.5], [], 0.5,
         [[0.0, 1.0]], [0.0, math.nan]],
    )
    def test_edges_validated(self, edges):
        # the density 1 - f^{-1}(u) is defined on [0, 1] only
        with pytest.raises(DomainError, match="edges"):
            mc.limit_overshoot_bin_probs(Identity(), edges)

    @pytest.mark.parametrize("spec", _BIN_SPECS)
    def test_matches_per_bin_integrals(self, spec):
        # one batched quadrature over all bins, split at the knot ys, against
        # one adaptive integral per bin
        edges = np.linspace(0.0, 1.0, 51)
        got = mc.limit_overshoot_bin_probs(spec, edges)
        per_bin = [
            integrate(lambda u: 1.0 - spec._finv(u), a, b, 1e-12)
            for a, b in zip(edges[:-1], edges[1:])
        ]
        want = np.array(per_bin) / asymptotic_params(spec).mu
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_repeated_edge_is_an_empty_bin(self):
        probs = mc.limit_overshoot_bin_probs(Identity(), [0.0, 0.5, 0.5, 1.0])
        assert probs == pytest.approx([0.75, 0.0, 0.25], abs=1e-10)


class TestPairedDomination:
    def test_no_violations(self):
        viol, total = mc.paired_domination(5.0, 100_000, seed=42)
        assert viol == 0 and total == 100_000

    def test_multiworker(self):
        viol, total = mc.paired_domination(2.0, 30_000, seed=1, workers=4)
        assert viol == 0 and total == 30_000

    # t = 0: both sums can cross in one round; t = 20 at 65536 paths: the
    # dominating increment is skipped once every surviving dominating sum
    # has crossed, and swapped, violators wait for their dominating sums;
    # t = 750: logproduct past its products' cutoff.  The t = 3 cases' ids
    # name n alone, as before t was a parameter
    @pytest.mark.parametrize(
        "t, n",
        [pytest.param(t, n, id=str(n) if t == 3.0 else f"t{t:g}-{n}")
         for t in (0.0, 3.0, 20.0, 750.0) for n in (1, 7, 4096, 65536)
         if (n < 65536 or t == 20.0) and (n < 4096 or t < 750.0)],
    )
    @pytest.mark.parametrize("swap", [False, True], ids=["ordered", "swapped"])
    def test_matches_the_reference(self, t, n, swap):
        # swapped, the base dominates, so most paths count as violations
        specs = (Identity(), LogProduct())
        base, dom = specs[::-1] if swap else specs
        ref = mc._stream(5, 1)
        want, _, *crossings = _reference_paired_block(t, n, ref, base, dom)
        rng = mc._stream(5, 1)
        got, *pairs = mc._kernel((base, dom), t, n, rng)
        assert got == want
        if t == 3.0:
            assert (want > 0) == (swap and n > 1)
        else:
            # ordered, no path violates; swapped, most do, except at t = 0,
            # where every sum crosses on its first draw (one path may go either way)
            assert want == 0 if not swap or t == 0.0 else (want > 0 or n == 1)
        # each sum's first crossings, bit for bit: draw counts, and the
        # overshoots in crossing order (by draw, then by slot)
        for (stopped, over), (k, o) in zip(pairs, crossings):
            assert stopped.dtype == np.int64 and stopped.tolist() == np.bincount(k).tolist()
            assert over.tolist() == o.tolist()
        # the kernel drew exactly as many uniforms as the reference
        assert _state(rng) == _state(ref)

    def test_draw_cap_trips_per_path(self, monkeypatch):
        specs = (Identity(), LogProduct())
        _, rounds, _, _ = _reference_paired_block(10.0, 4096, mc._stream(3, 0), *specs)
        monkeypatch.setattr(mc, "_DRAW_CAP", rounds)
        assert mc._kernel(specs, 10.0, 4096, mc._stream(3, 0))[0] == 0
        monkeypatch.setattr(mc, "_DRAW_CAP", rounds - 1)
        with pytest.raises(ConvergenceError, match="draws"):
            mc._kernel(specs, 10.0, 4096, mc._stream(3, 0))


def _reference_paired_block(t, n, rng, base, dominating):
    """The coupled-path kernel written plainly: per-path sums and counts, path ids in slot order.

    Returns the violation count, the number of rounds (most draws of a
    path), and per sum each path's first-crossing draw, in path order, and
    the overshoots in crossing order (by draw, then by slot): ``(k_base,
    over_base)`` and ``(k_dominating, over_dominating)``.  A sum stops
    growing once it passes t, and a path leaves once both of its sums
    have.  Each sum runs in ``_plain_form``.
    """
    forms = (_plain_form(base, t), _plain_form(dominating, t))
    idx = np.arange(n)
    sums = [np.full(n, form[0]) for form in forms]
    ks = [np.zeros(n, dtype=np.int64) for _ in forms]
    overs = [[] for _ in forms]
    violations = rounds = 0
    while idx.size:
        rounds += 1
        u = mc._draw(rng, idx.size)
        for (_, step, level, over), s, k, o in zip(forms, sums, ks, overs):
            active = k[idx] == 0
            s[idx[active]] = step(s[idx[active]], u[active])
            crossed = idx[active & (s[idx] > level(rounds, t))]
            k[crossed] = rounds
            o.extend(over(s[crossed], rounds).tolist())
        both = (ks[0][idx] > 0) & (ks[1][idx] > 0)
        violations += int(np.count_nonzero(ks[1][idx[both]] > ks[0][idx[both]]))
        idx = _retire(idx, both)
    return violations, rounds, *((k, np.array(o)) for k, o in zip(ks, overs))


class _Recording:
    """A generator wrapper that keeps a copy of every batch of raw words it hands out."""

    def __init__(self, rng):
        self.bit_generator, self.rng, self.draws = self, rng, []

    def random_raw(self, n):
        words = self.rng.bit_generator.random_raw(n)
        self.draws.append(words.copy())
        return words


class _Slow:
    """A generator stub: draws k cut to k // 20 for the first ``rounds`` rounds."""

    def __init__(self, rng, rounds):
        self.bit_generator, self.rng, self.rounds = self, rng, rounds

    def random_raw(self, n):
        words = self.rng.bit_generator.random_raw(n)
        if self.rounds:
            self.rounds -= 1
            lo, hi = words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)
            words = lo // np.uint64(20) | (hi // np.uint64(20)) << np.uint64(32)
        return words


def _mark_walk(specs, t, n, draws, marks):
    """Each sum's draw counts at each mark, from a walk of every path over ``draws``.

    ``draws`` are the kernel's batches of raw words, one per round, whose
    halves are one draw per surviving path in slot order (``_retire``).
    Each path keeps its own sums, in ``_plain_form``, and records the draw
    on which each sum first went above each mark's level; a sum stops at t,
    and a path leaves once all its sums have.
    """
    forms = [_plain_form(spec, t) for spec in specs]
    sums = [np.full(n, form[0]) for form in forms]
    crossed = [np.zeros(n, dtype=bool) for _ in specs]
    first = [[np.zeros(n, dtype=np.int64) for _ in marks] for _ in specs]
    idx = np.arange(n)
    for r, words in enumerate(draws, 1):
        assert words.size == (idx.size + 1) // 2
        u = _halves(words, idx.size)
        done = np.ones(idx.size, dtype=bool)
        for (_, step, level, _), s, x, fs in zip(forms, sums, crossed, first):
            active = ~x[idx]
            s[idx[active]] = step(s[idx[active]], u[active])
            for mark, f in zip(marks, fs):
                f[idx[(f[idx] == 0) & (s[idx] > level(r, mark))]] = r
            x[idx] |= s[idx] > level(r, t)
            done &= x[idx]
        idx = _retire(idx, done)
    assert idx.size == 0
    return [[np.bincount(f).tolist() for f in fs] for fs in first]


_I, _L = Identity(), LogProduct()


class TestMarks:
    # t = 5 with three marks and t = 20 with the verify suite's mark, one
    # sum and two coupled sums, ordered and swapped (where violators wait);
    # logproduct at t = 750 runs its sums additively
    @pytest.mark.parametrize(
        "specs, t, marks, n",
        [pytest.param(specs, t, marks, n, id=f"{name}-t{t:g}-{n}")
         for specs, name in (((_I,), "identity"), ((_L,), "logproduct"),
                             ((_I, _L), "ordered"), ((_L, _I), "swapped"))
         for t, marks, ns in ((5.0, (0.5, 1.0, 3.0), (1, 7, 4096)), (20.0, (1.0,), (1, 7, 4096)),
                              (750.0, (650.0,), (1, 7)))
         for n in ns if t < 700.0 or _L in specs],
    )
    def test_match_a_per_path_walk(self, specs, t, marks, n):
        rng = _Recording(mc._stream(4, 3))
        *_, counts = mc._kernel(specs, t, n, rng, marks=marks)
        got = [[c.tolist() for c in cs] for cs in counts]
        assert got == _mark_walk(specs, t, n, rng.draws, marks)
        assert all(c.dtype == np.int64 and c.sum() == n for cs in counts for c in cs)

    @pytest.mark.parametrize("specs", [(_I, _L), (_L, _I)], ids=["ordered", "swapped"])
    def test_counted_through_rounds_with_nan_sums(self, specs):
        # draws scaled down for eight rounds keep every sum below the mark
        # 0.5 past the free rounds, so the counting runs on while crossed
        # sums wait in the arrays as void (below 0) and paths leave
        t, marks, n = 3.0, (0.5, 2.5), 64
        rng = _Recording(_Slow(mc._stream(8, 1), 8))
        _, (stop1, _), (stop2, _), counts = mc._kernel(specs, t, n, rng, marks=marks)
        got = [[c.tolist() for c in cs] for cs in counts]
        assert got == _mark_walk(specs, t, n, rng.draws, marks)
        assert np.flatnonzero(counts[0][0])[0] > math.floor(t)
        # some sum crossed t while a base sum was still below the last mark
        assert min(np.flatnonzero(stop1)[0], np.flatnonzero(stop2)[0]) < counts[0][1].shape[0] - 1

    @pytest.mark.parametrize("specs", [(_I,), (_L,), (_I, _L), (_L, _I)],
                             ids=["identity", "logproduct", "ordered", "swapped"])
    @pytest.mark.parametrize("t, n", [(5.0, 7), (20.0, 4096), (750.0, 7)])
    def test_change_nothing_else(self, specs, t, n):
        marks = (0.5, 1.0, 3.0) if t < 700.0 else (650.0,)
        rng, ref = mc._stream(2, 5), mc._stream(2, 5)
        *got, _ = mc._kernel(specs, t, n, rng, marks=marks)
        want = mc._kernel(specs, t, n, ref)
        assert got[0] == want[0]
        for (k, over), (k_want, over_want) in zip(got[1:], want[1:]):
            assert k.tolist() == k_want.tolist()
            assert [x.hex() for x in over.tolist()] == [x.hex() for x in over_want.tolist()]
        assert _state(rng) == _state(ref)

    def test_coupled_records_unchanged(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", 4096)
        *got, counts = mc._coupled(20.0, 20_001, 3, 2, bins=20, marks=(1.0, 20.0))
        want = mc._coupled(20.0, 20_001, 3, 2, bins=20)
        assert got[0] == want[0]
        for rec, rec_want in zip(got[1:], want[1:]):
            assert _record_fields(rec) == _record_fields(rec_want)
            assert (rec.overshoot_sum.hex(), rec.overshoot_sumsq.hex()) == (
                rec_want.overshoot_sum.hex(), rec_want.overshoot_sumsq.hex())
        # a mark at t counts each record's own draws
        for (_, at_t), rec in zip(counts, got[1:]):
            assert at_t.tolist() == rec.k_counts.tolist()

    def test_worker_invariant(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", 4096)
        got = [mc._coupled(5.0, 20_001, 9, w, marks=(0.5, 1.0, 3.0))[3] for w in (1, 2, 3, 7)]
        lists = [[[c.tolist() for c in cs] for cs in g] for g in got]
        assert lists == [lists[0]] * 4
        assert all(sum(c) == 20_001 for cs in lists[0] for c in cs)

    def test_estimate_matches_simulate_at_the_mark(self):
        # with one path per block, every path walks its block's stream from
        # its first draw, so its draws to pass t = 1 are simulate's at t = 1
        counts = [mc._kernel((_I, _L), 3.0, 1, mc._stream(7, b), marks=(1.0,))[3]
                  for b in range(50)]
        for i, spec in enumerate((_I, _L)):
            want = [mc._run_block(spec, 1.0, 1, mc._stream(7, b))[0].tolist() for b in range(50)]
            assert [c[i][0].tolist() for c in counts] == want
            merged = mc._add_counts([c[i][0] for c in counts])
            est = mc._count_estimate(spec.label, 1.0, 50, 7, merged)
            rec = mc.SimRecord(spec.label, 1.0, 50, 7, merged, 0.0, 0.0, None)
            assert est == rec.count_estimate()

    def test_marks_validated(self):
        for marks in ((-0.5,), (20.5,), (math.nan,), (True,)):
            with pytest.raises(DomainError, match="mark"):
                mc._coupled(20.0, 10, 1, 1, marks=marks)

    def test_identity_draw_is_the_draws(self):
        # with ``out`` the identity hands back the draws, and fills nothing
        x, buf = np.random.default_rng(1).random(8), np.zeros(8)
        assert Identity()._f(x, out=buf) is x and not buf.any()


class TestConcentration:
    def test_far_fraction_negligible(self):
        frac = mc.k_concentration_check(LogProduct(), 25.0, 20_000, 6.0, seed=42)
        assert frac < 1e-3

    def test_mean_increment_taken_once(self, monkeypatch):
        # the far band reads the mu that the work cap computed: one
        # asymptotic_params call per check, a knot file's the dearest
        calls = []

        def counting(spec):
            calls.append(spec)
            return asymptotic_params(spec)

        monkeypatch.setattr(mc, "asymptotic_params", counting)
        frac = mc.k_concentration_check(_KNOTS_TXT, 5.0, 3000, 1.0, seed=3)
        assert calls == [_KNOTS_TXT]
        rec = mc.simulate(_KNOTS_TXT, 5.0, 3000, seed=3)
        k = np.arange(rec.k_counts.shape[0])
        far = rec.k_counts[np.abs(k - 1 - 5.0 / asymptotic_params(_KNOTS_TXT).mu) > math.sqrt(5.0)]
        assert 0 < far.sum() and frac == far.sum() / 3000

    def test_needs_t_at_least_one(self):
        with pytest.raises(DomainError):
            mc.k_concentration_check(LogProduct(), 0.5, 1000, 6.0)

    def test_c_validated(self):
        with pytest.raises(DomainError):
            mc.k_concentration_check(LogProduct(), 2.0, 1000, 0.0)


class TestEstimatePayload:
    def test_key_order_and_values(self):
        est = mc.estimate_n(Power(2.0), 1.0, 5000, seed=13)
        payload = mc.estimate_payload(est)
        assert list(payload) == ["t", "spec", "samples", "seed", "mean", "std_error"]
        assert payload["spec"] == "power:2"
        assert payload["seed"] == 13
        json.dumps(payload)
