"""In-memory span tracer installed around the ``renewal`` public functions.

The traced run patches module attributes from here, so nothing under
``src/`` changes.  A span is (id, name, start, end, parent, thread); parents
come from a per-thread stack, so spans opened in Monte Carlo worker threads
are roots of their own.  Counters are recorded at the same boundaries.
``Tracer.uninstall`` restores the original attributes; spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
import time
from collections import Counter

# entry points that simulate one set of paths each
SIM_ENTRIES = ("estimate_n", "estimate_stopped_sum", "overshoot_histogram",
               "k_concentration_check", "paired_domination")
SUITES = ("closed-forms", "bijections", "solver", "simulation")
# the specs each part of the solve workload walks its ladder for
SOLVED_SPECS = {"long": ("identity", "logproduct", "power-0.5", "piecewise"),
                "short": ("identity", "logproduct")}

# every per-layer metric with its unit; a workload that does not exercise a
# layer reports 0 for it
PER_LAYER = {
    "bijections.integrate_s": "s",
    "bijections.integrate_calls": "count",
    "bijections.panels": "count",
    "bijections.panel_accept_ratio": "ratio",
    "bijections.const_err": "abs",
    "solver.weights_s": "s",
    "solver.march_s": "s",
    "solver.weights_share": "ratio",
    **{f"solver.weights_share.{part}": "ratio" for part in SOLVED_SPECS},
    "solver.march_flops": "flop",
    "solver.march_bytes": "B",
    **{f"solver.{what}.{part}.{spec}": unit for part, specs in SOLVED_SPECS.items()
       for spec in specs
       for what, unit in (("step", "t"), ("max_err", "abs"), ("order", "order"))},
    "solver.eval_s": "s",
    "solver.eval_calls": "count",
    "solver.csv_s": "s",
    "montecarlo.s": "s",
    "montecarlo.paths": "count",
    "montecarlo.draws": "count",
    "montecarlo.ns_per_draw": "ns",
    "montecarlo.se.t20": "draws",
    "montecarlo.se.t1": "draws",
    "montecarlo.parallel_eff.t20": "ratio",
    "montecarlo.parallel_eff.t1": "ratio",
    "montecarlo.passes": "count",
    "montecarlo.unique_path_ratio": "ratio",
    **{f"verification.{suite}_s": "s" for suite in SUITES},
    "verification.checks": "count",
    "verification.failed": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.path_sets = []  # (spec, t, samples, seed, workers) per simulation pass
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched = []

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "thread": threading.get_ident(),
                               **(attrs or {})})

    def span(self, name, fn):
        """A wrapper of ``fn`` that records one span per call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def install(self):
        """Wrap every library boundary the per-layer metrics are derived from."""
        from renewal import bijections, cli, montecarlo, solver, verification

        integrate = bijections.integrate

        @functools.wraps(integrate)
        def traced_integrate(g, *args, **kwargs):
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                return g(x)

            try:
                return self.call("bijections.integrate", integrate, (counted,) + args, kwargs)
            finally:
                # each evaluated panel calls the integrand twice (coarse, fine);
                # a finished bisection tree with P panels has (P + 1) / 2 leaves
                panels = calls // 2
                self.counts["integrate_calls"] += 1
                self.counts["panels"] += panels
                self.counts["leaves"] += (panels + 1) // 2 if panels else 0

        # the function is imported by name, so patch every module that holds it
        for mod in (bijections, solver, montecarlo, verification):
            self.patch(mod, "integrate", traced_integrate)
        params = self.span("bijections.asymptotic_params", bijections.asymptotic_params)
        for mod in (bijections, cli, montecarlo, verification):
            self.patch(mod, "asymptotic_params", params)

        solve = solver.solve
        solve_sig = inspect.signature(solve)

        @functools.wraps(solve)
        def traced_solve(*args, **kwargs):
            bound = solve_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = {"t_max": float(bound.arguments["t_max"]),
                     "step": float(bound.arguments["step"])}
            return self.call("solver.solve", solve, args, kwargs, attrs)

        self.patch(solver, "solve", traced_solve)
        for attr in ("eval_curve", "write_curve_csv"):
            self.patch(solver, attr, self.span("solver." + attr, getattr(solver, attr)))

        for name in SIM_ENTRIES:
            self.patch(montecarlo, name, self._sim_entry(name, getattr(montecarlo, name)))
        self.patch(montecarlo, "limit_overshoot_bin_probs",
                   self.span("montecarlo.limit_overshoot_bin_probs",
                             montecarlo.limit_overshoot_bin_probs))

        run_block = montecarlo._run_block

        @functools.wraps(run_block)
        def traced_block(*args):
            k, over = self.call("montecarlo.kernel", run_block, args, {})
            with self._lock:
                self.counts["draws"] += int(k.sum())
            return k, over

        self.patch(montecarlo, "_run_block", traced_block)

        for suite in SUITES:
            attr = "_checks_" + suite.replace("-", "_")
            self.patch(verification, attr,
                       self.span("verification." + suite, getattr(verification, attr)))
        run_checks = verification.run_checks

        @functools.wraps(run_checks)
        def traced_run_checks(*args, **kwargs):
            results = self.call("verification.run_checks", run_checks, args, kwargs)
            self.counts["checks"] += len(results)
            self.counts["checks_failed"] += sum(not r.passed for r in results)
            return results

        self.patch(verification, "run_checks", traced_run_checks)

    def _sim_entry(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            spec = a["transform"].label if "transform" in a else "identity+logproduct"
            self.path_sets.append((spec, float(a["t"]), a["samples"], a["seed"], a["workers"]))
            return self.call("montecarlo." + name, fn, args, kwargs)

        return wrapper


def march_work(t_max: float, step: float) -> tuple[int, int]:
    """(flops, bytes) of the history dot products in one march.

    Node j >= 2 takes four dot products of width r = min(j - 1, n_pan - 1):
    2 r flops and two streamed float64 vectors (16 r bytes) each.
    """
    n = math.ceil(t_max / step - 1e-12)
    cap = math.ceil(1.0 / step - 1e-12) - 1
    m = n - 1
    # sum over j = 2..n of min(j - 1, cap)
    width = m * (m + 1) // 2 if m <= cap else cap * (cap + 1) // 2 + (m - cap) * cap
    return 8 * width, 64 * width


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures derived from the recorded spans and counters."""
    spans = tracer.spans
    names = {s["id"]: s["name"] for s in spans}
    self_t = Counter({s["id"]: s["end"] - s["start"] for s in spans})
    for s in spans:
        if s["parent"] is not None:
            self_t[s["parent"]] -= s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def total(name, parent=None):
        return sum(dur(s) for s in spans if s["name"] == name
                   and (parent is None or names.get(s["parent"]) == parent))

    solves = [s for s in spans if s["name"] == "solver.solve"]
    solve_s = sum(dur(s) for s in solves)
    weights = total("bijections.integrate", parent="solver.solve")
    work = [march_work(s["t_max"], s["step"]) for s in solves]
    integrate_s = sum(dur(s) for s in spans if s["name"] == "bijections.integrate"
                      and names.get(s["parent"]) != "bijections.integrate")
    sim = {"montecarlo." + n for n in SIM_ENTRIES}
    draws = tracer.counts["draws"]
    panels = tracer.counts["panels"]
    paths = sum(p[2] for p in tracer.path_sets)
    unique_paths = sum(p[2] for p in set(tracer.path_sets))

    out = {
        "bijections.integrate_s": integrate_s,
        "bijections.integrate_calls": tracer.counts["integrate_calls"],
        "bijections.panels": panels,
        "bijections.panel_accept_ratio": tracer.counts["leaves"] / panels if panels else 0.0,
        "solver.weights_s": weights,
        "solver.march_s": sum(self_t[s["id"]] for s in solves),
        "solver.weights_share": weights / solve_s if solve_s else 0.0,
        "solver.march_flops": sum(w[0] for w in work),
        "solver.march_bytes": sum(w[1] for w in work),
        "solver.eval_s": total("solver.eval_curve"),
        "solver.eval_calls": sum(s["name"] == "solver.eval_curve" for s in spans),
        "solver.csv_s": total("solver.write_curve_csv"),
        "montecarlo.s": sum(dur(s) for s in spans if s["name"] in sim),
        "montecarlo.paths": paths,
        "montecarlo.draws": draws,
        "montecarlo.ns_per_draw": total("montecarlo.kernel") * 1e9 / draws if draws else 0.0,
        "montecarlo.passes": len(tracer.path_sets),
        "montecarlo.unique_path_ratio": unique_paths / paths if paths else 0.0,
        "verification.checks": tracer.counts["checks"],
        "verification.failed": tracer.counts["checks_failed"],
        "cli.self_s": sum(self_t[s["id"]] for s in spans if s["name"].startswith("cli.")),
    }
    for suite in SUITES:
        out[f"verification.{suite}_s"] = total("verification." + suite)
    return out


def weights_share(tracer: Tracer, t_max: float) -> float:
    """Share of the time of the solves to ``t_max`` spent in panel-weight quadrature."""
    solves = {s["id"]: s for s in tracer.spans
              if s["name"] == "solver.solve" and s["t_max"] == t_max}
    weights = sum(s["end"] - s["start"] for s in tracer.spans
                  if s["name"] == "bijections.integrate" and s["parent"] in solves)
    solve_s = sum(s["end"] - s["start"] for s in solves.values())
    return weights / solve_s if solve_s else 0.0
