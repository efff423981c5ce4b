import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import renewal.montecarlo as mc
from renewal.bijections import (
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
        # about 2e12 rounds of 15 us each: refused before a block runs
        def no_block(*args):
            raise AssertionError("a block ran before the work cap check")

        monkeypatch.setattr(mc, "_run_block", no_block)
        monkeypatch.setattr(mc, "_paired_block", no_block)
        with pytest.raises(DomainError, match=r"t=1e\+12 with samples=1 .* cap of 300 s"):
            mc.estimate_n(LogProduct(), 1e12, 1)
        with pytest.raises(DomainError, match="decrease t or samples"):
            mc.paired_domination(1e12, 1)


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
        paired = mc._paired_block
        monkeypatch.setattr(mc, "_BLOCK", 4096)
        monkeypatch.setattr(mc, "_paired_block", lambda t, n, rng, a, b: paired(t, n, rng, b, a))
        got = [mc.paired_domination(3.0, 20_001, seed=2, workers=w) for w in (1, 2, 3, 7)]
        assert got[0][0] > 0 and got == [got[0]] * 4

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


def _reference_block(transform, t, n, rng):
    """The kernel written plainly: path ids, and fresh arrays every round."""
    idx = np.arange(n)
    sums = np.zeros(n)
    k = np.zeros(n, dtype=np.int64)
    over = np.zeros(n)
    r = 0
    while idx.size:
        r += 1
        sums += transform._f(rng.random(idx.size))
        done = sums > t
        k[idx[done]] = r
        over[idx[done]] = sums[done] - t
        idx, sums = idx[~done], sums[~done]
    return k, over


class TestKernel:
    @pytest.mark.parametrize("n", [1, 7, 4096])
    @pytest.mark.parametrize(
        "spec",
        [Identity(), LogProduct(), PiecewiseLinear(((0.0, 0.0), (0.3, 0.2137), (1.0, 1.0)))],
        ids=lambda s: s.label,
    )
    def test_matches_the_reference(self, spec, n):
        k, want = _reference_block(spec, 3.0, n, mc._stream(6, 2))
        rng = mc._stream(6, 2)
        stopped, over = mc._run_block(spec, 3.0, n, rng)
        assert stopped.dtype == np.int64 and (stopped == np.bincount(k)).all()
        assert (np.sort(over) == np.sort(want)).all()
        # the kernel drew exactly as many uniforms as the reference
        assert rng.random() == mc._stream(6, 2).random(int(k.sum()) + 1)[-1]

    def test_draw_cap_trips_per_path(self, monkeypatch):
        k, _ = _reference_block(Identity(), 10.0, 4096, mc._stream(3, 0))
        monkeypatch.setattr(mc, "_DRAW_CAP", int(k.max()))
        assert mc._run_block(Identity(), 10.0, 4096, mc._stream(3, 0))[0].sum() == 4096
        monkeypatch.setattr(mc, "_DRAW_CAP", int(k.max()) - 1)
        with pytest.raises(ConvergenceError, match="draws"):
            mc._run_block(Identity(), 10.0, 4096, mc._stream(3, 0))

    def test_streams_are_spawned_children(self):
        children = np.random.SeedSequence(9).spawn(3)
        for worker, child in enumerate(children):
            want = np.random.Generator(np.random.PCG64DXSM(child)).random(4)
            assert (mc._stream(9, worker).random(4) == want).all()


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
        far = rec.k_counts[np.abs(k - 1 - t / asymptotic_params(spec).mu) > c * math.sqrt(t)]
        assert 0 < far.sum() < samples
        assert far.sum() / samples == mc.k_concentration_check(spec, t, samples, c, **args)

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

    @pytest.mark.parametrize("n", [1, 7, 4096])
    @pytest.mark.parametrize("swap", [False, True], ids=["ordered", "swapped"])
    def test_matches_the_reference(self, n, swap):
        # swapped, the base dominates, so most paths count as violations
        fs = (Identity()._f, LogProduct()._f)
        f_base, f_dom = fs[::-1] if swap else fs
        want, _ = _reference_paired_block(3.0, n, mc._stream(5, 1), f_base, f_dom)
        rng = mc._stream(5, 1)
        assert mc._paired_block(3.0, n, rng, f_base, f_dom) == want
        assert (want > 0) == (swap and n > 1)
        # the kernel drew exactly as many uniforms as the reference
        ref = mc._stream(5, 1)
        _reference_paired_block(3.0, n, ref, f_base, f_dom)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_draw_cap_trips_per_path(self, monkeypatch):
        fs = (Identity()._f, LogProduct()._f)
        _, rounds = _reference_paired_block(10.0, 4096, mc._stream(3, 0), *fs)
        monkeypatch.setattr(mc, "_DRAW_CAP", rounds)
        assert mc._paired_block(10.0, 4096, mc._stream(3, 0), *fs) == 0
        monkeypatch.setattr(mc, "_DRAW_CAP", rounds - 1)
        with pytest.raises(ConvergenceError, match="draws"):
            mc._paired_block(10.0, 4096, mc._stream(3, 0), *fs)


def _reference_paired_block(t, n, rng, f_base, f_dominating):
    """The coupled-path kernel written plainly: per-path draw counts, fresh arrays.

    Returns the violation count and the number of rounds (most draws of a path).
    """
    s1, s2 = np.zeros(n), np.zeros(n)
    k1, k2 = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    done1, done2 = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    violations = rounds = 0
    while n:
        rounds += 1
        u = rng.random(n)
        act1 = ~done1
        s1[act1] += f_base(u[act1])
        k1[act1] += 1
        done1 = s1 > t
        act2 = ~done2
        s2[act2] += f_dominating(u[act2])
        k2[act2] += 1
        done2 = s2 > t
        both = done1 & done2
        if both.any():
            violations += int(np.count_nonzero(k2[both] > k1[both]))
            keep = ~both
            s1, s2, k1, k2 = s1[keep], s2[keep], k1[keep], k2[keep]
            done1, done2 = done1[keep], done2[keep]
            n = s1.shape[0]
    return violations, rounds


class TestChernoffBound:
    def test_pinned_value(self):
        assert mc.chernoff_bound(100.0, 0.5) == pytest.approx(
            9.079985952496971e-05, rel=1e-15
        )

    def test_clamped_to_one(self):
        assert mc.chernoff_bound(100.0, 0.1) == 1.0
        assert mc.chernoff_bound(0.5, 0.2) == 1.0

    def test_decreasing_in_deviation(self):
        vals = [mc.chernoff_bound(100.0, d) for d in (0.3, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        for mu, d in ((0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, -0.5), (math.nan, 0.5)):
            with pytest.raises(DomainError):
                mc.chernoff_bound(mu, d)


class TestConcentration:
    def test_far_fraction_negligible(self):
        frac = mc.k_concentration_check(LogProduct(), 25.0, 20_000, 6.0, seed=42)
        assert frac < 1e-3

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
