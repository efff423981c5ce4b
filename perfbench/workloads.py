"""The three benchmark workloads, their correctness gates and their metrics.

Every operation is one ``renewal`` CLI command run in-process through
``Runner.run``.  A raised error, a nonzero exit, a failed gate or stdout
that differs from an earlier run of the same command is a failed
operation; the benchmark itself keeps going.

Each workload has ``one_pass`` (every command once), ``timed`` (the
commands to repeat until the deadline, given the first pass's result),
``figures`` (the headline figure and the named ones, from the repeats) and
``layer_values`` (per-layer figures only the workload knows).
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import refs
import tracing

# glibc keeps freed heap pages after multi-threaded runs, which would make the
# peak RSS depend on how earlier commands fragmented the heap
_TRIM = getattr(ctypes.CDLL(ctypes.util.find_library("c")), "malloc_trim", None)

# rung k of the step ladder is h = 1/(100 * 2^k), so t = 1 is always a node;
# rung 9 (h ~ 1.95e-5) is the last one above the CLI's 1e-5 floor
K_MAX = 9

# Monte Carlo gates: |mean - ref| <= 4 se for a mean.  For the 50-bin
# histogram the per-bin multiplier (4.84) gives the whole histogram the
# false-alarm rate of a single 4-sigma test (Sidak correction).
MEAN_Z = 4.0
HIST_BINS = 50
_P4 = 2.0 * (1.0 - statistics.NormalDist().cdf(MEAN_Z))
HIST_Z = statistics.NormalDist().inv_cdf(1.0 - (1.0 - (1.0 - _P4) ** (1.0 / HIST_BINS)) / 2.0)
MC_SAMPLES = 1_000_000
# standard errors the simulate cases are costed to: T * (se / eps)^2
EPS_T20 = 3e-3
EPS_T1 = 4e-4


def rung_step(k: int) -> float:
    return 1.0 / (100 * 2**k)


class GateError(Exception):
    """A command's output failed its correctness gate."""


def require(ok, message):
    if not ok:
        raise GateError(message)


class Runner:
    """Runs CLI commands in-process, times them and counts failed operations.

    ``store`` maps a command line to the hash of its stdout from earlier
    runs in this checkout; a differing hash within or across runs is a
    determinism failure.
    """

    def __init__(self, main, store: dict, tracer=None):
        self.main = main
        self.store = store
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = defaultdict(list)
        self.last_seconds = 0.0  # of the last command run, failed or not
        self._verdicts = {}

    def fail(self, key, reason):
        self.failed += 1
        self.errors.append(f"{key}: {reason}")
        print(f"FAILED {key}: {reason}", file=sys.stderr)

    def run(self, args, gate):
        """Run ``renewal <args>``; returns the gate's value, or None on failure.

        ``gate(stdout)`` raises ``GateError`` when the output is wrong;
        its value is cached per distinct stdout, since equal bytes get the
        same verdict.
        """
        key = " ".join(args)
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        if _TRIM is not None:
            _TRIM(0)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    code = self.main(args, standalone_mode=False)
                else:
                    code = self.tracer.call("cli." + args[0], self.main, (args,),
                                            {"standalone_mode": False})
        except SystemExit as exc:
            code = exc.code
        except Exception:  # any error of the program is a failed operation
            self.last_seconds = time.perf_counter() - start
            self.fail(key, traceback.format_exc(limit=3))
            return None
        seconds = self.last_seconds = time.perf_counter() - start
        if code not in (0, None):
            self.fail(key, f"exit code {code}: {err.getvalue().strip()[-300:]}")
            return None
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.store.setdefault(key, digest) != digest:
            self.fail(key, "stdout differs from an earlier run of the same command")
            return None
        if digest not in self._verdicts:
            try:
                self._verdicts[digest] = (True, gate(text))
            except (GateError, ValueError, KeyError, IndexError) as exc:
                self._verdicts[digest] = (False, f"gate failed: {exc}")
        ok, value = self._verdicts[digest]
        if not ok:
            self.fail(key, value)
            return None
        self.times[key].append(seconds)
        return value

    def median(self, args):
        return statistics.median(self.times[" ".join(args)])


# ----------------------------------------------------------------- solve


def parse_curve(text, step):
    lines = text.splitlines()
    require(lines and lines[0] == "t,N", "bad CSV header")
    tv = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    t, v = tv[:, 0], tv[:, 1]
    require(np.array_equal(t, np.arange(t.shape[0]) * step), "grid is not j * step")
    return t, v


class Solve:
    """``renewal solve --format csv`` along the step ladder, one spec at a time.

    ``solve_s_to_tol`` for a spec interpolates log-time against log-error
    between the two rungs that bracket tau; the part's figure is the sum
    over specs.
    """

    def __init__(self, part, specs, t_max, tau, window, exact):
        self.part = part  # "long" or "short", the prefix of its figures
        self.specs = specs  # (name, --spec argument)
        self.t_max = t_max
        self.tau = tau
        self.window = window
        self.exact = exact

    def args(self, spec_arg, k):
        return ["solve", "--spec", spec_arg, "--t-max", repr(self.t_max),
                "--step", repr(rung_step(k)), "--format", "csv"]

    def gate(self, name, k):
        lo, hi = self.window

        def check(text):
            t, v = parse_curve(text, rung_step(k))
            require(t[-1] >= self.t_max - 1e-9, "grid stops short of t_max")
            sel = (t >= lo) & (t <= hi)
            ref = np.array([self.exact(name, x) for x in t[sel]])
            return float(np.max(np.abs(v[sel] - ref)))

        return check

    def ladder(self, runner):
        """Walk every spec's ladder until a rung meets tau: {name: [errors]}."""
        out = {}
        for name, arg in self.specs:
            errs = []
            for k in range(K_MAX + 1):
                err = runner.run(self.args(arg, k), self.gate(name, k))
                if err is None:
                    break
                errs.append(err)
                if err <= self.tau:
                    break
            else:
                runner.fail(f"solve {name}", f"no rung reached tau={self.tau:g}")
            out[name] = errs
        return out

    def bracket(self, errs):
        """Rungs whose times enter the metric: (k-1, k), or (0,) at the coarsest."""
        k = len(errs) - 1
        if k < 0 or errs[k] > self.tau:
            return ()
        return (k,) if k == 0 else (k - 1, k)

    def commands(self, errs):
        """The bracketing rungs found by the first pass (``errs``), as (args, gate)."""
        return [(self.args(arg, k), self.gate(name, k))
                for name, arg in self.specs for k in self.bracket(errs[name])]

    def figures(self, runner, errs):
        """Seconds to tau per spec and summed, from the timed rungs."""
        per_spec = {}
        for name, arg in self.specs:
            rungs = self.bracket(errs[name])
            if not rungs:
                continue
            times = [runner.median(self.args(arg, k)) for k in rungs]
            if len(rungs) == 1:
                per_spec[name] = times[0]
                continue
            e0, e1 = errs[name][-2:]
            theta = math.log(e0 / self.tau) / math.log(e0 / e1)
            per_spec[name] = times[0] ** (1.0 - theta) * times[1] ** theta
        named = {f"solve_s_to_tol.{self.part}.{n}": (v, "s") for n, v in per_spec.items()}
        named[f"solve_s_to_tol.{self.part}"] = (sum(per_spec.values()), "s")
        return named

    def layer_values(self, errs):
        """Step, error and observed order at the rung that met tau, per spec."""
        out = {}
        for name, e in errs.items():
            label = f"{self.part}.{name.replace(':', '-')}"
            if e:
                out[f"solver.step.{label}"] = rung_step(len(e) - 1)
                out[f"solver.max_err.{label}"] = e[-1]
            if len(e) >= 2:
                out[f"solver.order.{label}"] = math.log2(e[-2] / e[-1])
        return out


SOLVE_LONG = Solve(
    "long", specs=[("identity", "identity"), ("logproduct", "logproduct"),
                   ("power:0.5", "power:0.5"), ("piecewise", str(refs.KNOT_FILE))],
    t_max=30.0, tau=1e-7, window=(20.0, 30.0), exact=refs.asymptote)

SOLVE_SHORT = Solve(
    "short", specs=[("identity", "identity"), ("logproduct", "logproduct")],
    t_max=2.0, tau=5e-9, window=(0.0, 2.0), exact=lambda name, t: refs.EXACT[name](t))


class SolveSuite:
    """Both solve parts, their timed rungs interleaved round-robin.

    The long part (t_max = 30) is dominated by the march, the short part
    (t_max = 2, tight tau) by the panel-weight quadrature; the workload's
    figure is the sum of both parts' ``solve_s_to_tol``.
    """

    mc_workers = 0

    def __init__(self, *parts):
        self.parts = parts

    def one_pass(self, runner, seed):
        return {p.part: p.ladder(runner) for p in self.parts}

    def timed(self, seed, errs):
        return [c for p in self.parts for c in p.commands(errs[p.part])]

    def figures(self, runner, seed, errs):
        named = {}
        for p in self.parts:
            named.update(p.figures(runner, errs[p.part]))
        total = sum(named[f"solve_s_to_tol.{p.part}"][0] for p in self.parts)
        named["solve_s_to_tol"] = (total, "s")
        return total, named

    def layer_values(self, errs, runner, seed, tracer):
        out = {}
        for p in self.parts:
            out.update(p.layer_values(errs[p.part]))
            out[f"solver.weights_share.{p.part}"] = tracing.weights_share(tracer, p.t_max)
        return out


SOLVE = SolveSuite(SOLVE_LONG, SOLVE_SHORT)


# -------------------------------------------------------------- simulate


class Simulate:
    """``simulate`` at t = 20 and t = 1 plus ``overshoot`` at t = 20.

    The seed of the run is the Monte Carlo seed; all commands share it, so
    the t = 20 simulate and overshoot commands walk the same paths.  The
    timed commands run one worker: with two workers on a two-core share the
    middle half of one command's times spread over 21% of its median (7%
    with one), as the join waits on whichever thread the host slowed.  The
    traced run times the thread pool at ``mc_workers`` against one worker.
    """

    def __init__(self, nproc):
        self.mc_workers = min(2, nproc)  # the most workers any command runs

    def sim_args(self, spec, t, seed, workers):
        return ["simulate", "--spec", spec, "-t", repr(t), "--samples", str(MC_SAMPLES),
                "--seed", str(seed), "--workers", str(workers)]

    def sim_gate(self, spec, t, seed, ref):
        def check(text):
            est = json.loads(text)
            echoed = (est["spec"], est["t"], est["samples"], est["seed"])
            require(echoed == (spec, t, MC_SAMPLES, seed), f"echoed arguments differ: {est}")
            se = est["std_error"]
            require(se > 0.0, "zero standard error")
            require(abs(est["mean"] - ref) <= MEAN_Z * se,
                    f"|{est['mean']!r} - {ref!r}| > {MEAN_Z} se = {MEAN_Z * se:.3e}")
            return se

        return check

    def hist_args(self, seed, workers):
        return ["overshoot", "--spec", "logproduct", "-t", "20.0", "--samples",
                str(MC_SAMPLES), "--bins", str(HIST_BINS), "--seed", str(seed),
                "--workers", str(workers)]

    @staticmethod
    def hist_gate(text):
        hist = json.loads(text)
        edges = np.array(hist["bin_edges"])
        dens = np.array(hist["densities"])
        require(np.array_equal(edges, np.linspace(0.0, 1.0, HIST_BINS + 1)), "bad bin edges")
        mass = float(np.dot(dens, np.diff(edges)))
        require(abs(mass - 1.0) <= 1e-12, f"mass {mass!r} is not 1")
        p = np.array(refs.logproduct_overshoot_bins(edges))
        n = hist["samples"]
        z = np.abs(dens * (n / HIST_BINS) - p * n) / np.sqrt(p * (1.0 - p) * n)
        require(z.max() <= HIST_Z, f"bin {int(z.argmax())} is {z.max():.2f} sigma off")
        return float(z.max())

    def commands(self, seed, w=1):
        return {
            "t20": (self.sim_args("logproduct", 20.0, seed, w),
                    self.sim_gate("logproduct", 20.0, seed, refs.asymptote("logproduct", 20.0))),
            "t1": (self.sim_args("identity", 1.0, seed, w),
                   self.sim_gate("identity", 1.0, seed, refs.E)),
            "overshoot": (self.hist_args(seed, w), self.hist_gate),
        }

    def timed(self, seed, se):
        return list(self.commands(seed).values())

    def figures(self, runner, seed, se):
        cmds = self.commands(seed)
        named = {}
        for case, eps in (("t20", EPS_T20), ("t1", EPS_T1)):
            if se[case] is not None:
                t = runner.median(cmds[case][0])
                named[f"sim_{case}_s_to_se"] = (t * (se[case] / eps) ** 2, "s")
        if se["overshoot"] is not None:
            named["overshoot_s"] = (runner.median(cmds["overshoot"][0]), "s")
        return sum(v for v, _ in named.values()), named

    def one_pass(self, runner, seed):
        return {case: runner.run(*cmd) for case, cmd in self.commands(seed).items()}

    def layer_values(self, se, runner, seed, tracer, repeats=3):
        """Standard errors, and T(1 worker) / (W * T(W workers)) run untraced."""
        out = {}
        w = self.mc_workers
        for case in ("t20", "t1"):
            if se[case] is not None:
                out[f"montecarlo.se.{case}"] = se[case]
            one, many = self.commands(seed)[case], self.commands(seed, w)[case]
            for _ in range(repeats):
                runner.run(*one)
                runner.run(*many)
            if runner.times[" ".join(one[0])] and runner.times[" ".join(many[0])]:
                out[f"montecarlo.parallel_eff.{case}"] = runner.median(one[0]) / (
                    w * runner.median(many[0]))
        return out


# ---------------------------------------------------------------- verify


class Verify:
    """``renewal verify`` with every suite at its defaults (seed 42, 1 worker)."""

    mc_workers = 1
    ARGS = ["verify", "--seed", "42", "--workers", "1"]

    @staticmethod
    def gate(text):
        lines = text.splitlines()
        checks = lines[:-1]
        require(checks and all(line.startswith("PASS  ") for line in checks),
                "not every check passed")
        require(lines[-1] == f"{len(checks)} passed, 0 failed", f"bad summary {lines[-1]!r}")
        return len(checks)

    def timed(self, seed, checks):
        return [(self.ARGS, self.gate)]

    def figures(self, runner, seed, checks):
        if not runner.times[" ".join(self.ARGS)]:
            return math.nan, {}
        verify_s = runner.median(self.ARGS)
        return verify_s, {"verify_s": (verify_s, "s")}

    def one_pass(self, runner, seed):
        return runner.run(self.ARGS, self.gate)

    def layer_values(self, checks, runner, seed, tracer):
        return {}
