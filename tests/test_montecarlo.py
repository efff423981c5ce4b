import json
import math
import os
import subprocess
import sys
import threading
import weakref
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

    def test_work_cap_charges_a_knot_file_its_own_cost_per_draw(self, monkeypatch):
        # np.interp makes a piecewise-linear draw dearer than a closed form's
        monkeypatch.setattr(mc, "_run_block", lambda *args: pytest.fail("a block ran"))
        assert (_KNOTS_TXT._ns_per_draw, LogProduct()._ns_per_draw) == (25.0, 15.0)
        samples = 3 * 10**8
        rounds = 1.0 + 20.0 / asymptotic_params(_KNOTS_TXT).mu
        blocks = -(-samples // mc._BLOCK)
        seconds = rounds * (samples * 25e-9 + blocks * 15e-6)
        # at a closed form's 15 ns the same pass would be admitted
        assert rounds * (samples * 15e-9 + blocks * 15e-6) < 300.0 < seconds
        with pytest.raises(DomainError, match=f"would take about {seconds:.3g} s"):
            mc.estimate_n(_KNOTS_TXT, 20.0, samples)


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
        monkeypatch.setattr(mc, "_paired_block",
                            lambda t, n, rng, a, b, ws: paired(t, n, rng, b, a, ws))
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

    @pytest.mark.parametrize("kernel", ["_run_block", "_paired_block"])
    def test_draw_cap_below_the_free_rounds(self, monkeypatch, kernel):
        # t = 10 leaves every path running for 10 rounds; a cap of 5 must
        # trip before draw 6, after exactly 5 rounds of 64 draws
        args = (Identity(), 10.0) if kernel == "_run_block" else (10.0,)
        fs = () if kernel == "_run_block" else (Identity()._f, LogProduct()._f)
        monkeypatch.setattr(mc, "_DRAW_CAP", 5)
        rng = mc._stream(3, 0)
        with pytest.raises(ConvergenceError, match="draws"):
            getattr(mc, kernel)(*args, 64, rng, *fs)
        ref = mc._stream(3, 0)
        ref.random(5 * 64)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_workspace_reuse_matches_fresh_arrays(self):
        # a workspace left dirty by a longer block must not leak into the next
        ws = threading.local()
        for n, t in ((4096, 3.0), (7, 5.5), (4096, 0.0)):
            got = mc._run_block(LogProduct(), t, n, mc._stream(1, n), ws)
            want = mc._run_block(LogProduct(), t, n, mc._stream(1, n))
            assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
            fs = (Identity()._f, LogProduct()._f)
            assert (mc._paired_block(t, n, mc._stream(2, n), *fs[::-1], ws)
                    == mc._paired_block(t, n, mc._stream(2, n), *fs[::-1]))

    def test_streams_are_spawned_children(self):
        children = np.random.SeedSequence(9).spawn(3)
        for worker, child in enumerate(children):
            want = np.random.Generator(np.random.PCG64DXSM(child)).random(4)
            assert (mc._stream(9, worker).random(4) == want).all()


class TestBinCounts:
    @pytest.mark.parametrize("bins", [10, 17, 50, 1000])
    def test_matches_np_histogram_at_the_edges(self, bins):
        # on, one ulp above and one ulp below every edge, and 0 and 1
        edges = np.linspace(0.0, 1.0, bins + 1)
        x = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0),
                            [0.0, 1.0], mc._stream(0, 0).random(5000)])
        x = x[(x >= 0.0) & (x <= 1.0)]
        want = np.histogram(x, bins, range=(0.0, 1.0))[0]
        assert (mc._bin_counts(x, bins) == want).all()
        ws = threading.local()
        for _ in range(2):
            assert (mc._bin_counts(x, bins, ws) == want).all()


# records of 2 * _BLOCK + 17 paths at seed 42, computed by the kernel that
# allocated per block and histogrammed with np.histogram
_N_GOLDEN = 2 * mc._BLOCK + 17
_GOLDEN = {
    "identity": (
        Identity(), 1.0, None,
        [0, 0, 65541, 43683, 16418, 4338, 927, 155, 24, 3],
        "0x1.6f2da174cdc39p+15", "0x1.7f607fc7cb0cbp+14", None,
    ),
    "logproduct": (
        LogProduct(), 20.0, 17,
        [0] * 25 + [1, 15, 122, 501, 1649, 4070, 7562, 11647, 15499, 17949, 18151, 16192,
                    13270, 9629, 6347, 3942, 2230, 1228, 584, 281, 122, 58, 29, 6, 2, 1, 2],
        "0x1.6fc7c768ed637p+15", "0x1.8072587b0b40ap+14",
        [13061, 12384, 12049, 11489, 10820, 10539, 9612, 9008, 8303, 7440, 6708, 5734,
         4799, 3881, 2914, 1749, 599],
    ),
    "power:0.5": (
        Power(0.5), 5.0, None,
        [0] * 6 + [4292, 35973, 50965, 28806, 8956, 1793, 272, 31, 0, 1],
        "0x1.8008f4c41da86p+15", "0x1.99dae3c71fe88p+14", None,
    ),
    "knots.txt": (
        _KNOTS_TXT, 3.0, 10,
        [0] * 4 + [492, 3374, 10061, 17982, 22972, 23349, 19685, 14123, 9123, 5178, 2647,
                   1259, 503, 218, 77, 31, 8, 5, 2],
        "0x1.1fedbbecd2343p+15", "0x1.0664203ed2ad0p+14",
        [32505, 26327, 21591, 16418, 11527, 8112, 6413, 4546, 2726, 924],
    ),
}


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
        paired = mc._paired_block
        monkeypatch.setattr(mc, "_paired_block",
                            lambda t, n, rng, a, b, ws: paired(t, n, rng, b, a, ws))
        assert mc.paired_domination(3.0, _N_GOLDEN, seed=2, workers=workers) == (88788, _N_GOLDEN)


class TestWorkspace:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("paired", [False, True], ids=["simulate", "paired"])
    def test_reused_across_blocks_and_freed_with_the_pass(self, monkeypatch, workers, paired):
        arrays = mc._arrays
        refs, ids = [], set()

        def recording(ws, n, dtypes):
            views = arrays(ws, n, dtypes)
            assert ws is not None and all(v.base.shape == (mc._BLOCK,) for v in views)
            refs.extend(weakref.ref(v.base) for v in views)
            ids.update(id(v.base) for v in views)
            return views

        monkeypatch.setattr(mc, "_arrays", recording)
        if paired:
            mc.paired_domination(2.0, _N_GOLDEN, seed=1, workers=workers)
            per_thread = len("dddddd???")
        else:
            mc.simulate(LogProduct(), 2.0, _N_GOLDEN, seed=1, workers=workers, bins=10)
            per_thread = len("dddd?") + len("dp?")
        # three blocks: each thread makes its arrays once
        assert len(refs) == 3 * per_thread
        assert len(ids) <= workers * per_thread and (workers > 1 or len(ids) == per_thread)
        assert all(ref() is None for ref in refs)


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
