"""Accuracy-per-second benchmark of the ``renewal`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Workloads: solve, simulate, verify (BENCHMARK.json says why each exists).
With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds.  Its headline, ``task_ref``, is the workload's time
(``task_s``, printed too) divided by the median time of a fixed reference
kernel run between the timed commands (``calibrate.py``), so that the
shared host's drift in speed cancels.  With ``--trace 1`` it runs one pass of
the workload untraced and one traced, and reports the per-layer metrics
derived from the traced pass's spans.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it name every figure with its unit, and the machine facts.
Each run also writes its record (and, traced, its spans) to
``perfbench/results/``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import refs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# setup_s is the median of at least SETUP_MIN imports, one after each
# timed command once SETUP_EVERY seconds have passed since the last
SETUP_MIN = 15
SETUP_EVERY = 1.0
# share of each timed command's time spent on the reference kernel next to it
REF_SHARE = 0.25

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import renewal.cli
print(time.perf_counter() - start)
"""


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import renewal.cli
    except ImportError as exc:
        sys.exit(f"cannot import renewal from {SRC}: {exc}")
    if Path(renewal.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"renewal was imported from {renewal.cli.__file__}, not from {SRC}")
    return renewal.cli.main


def openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            if get is not None:
                return get, getattr(lib, name.format("set"))
    return None


def machine_facts(args, mc_workers):
    """Record the machine and hold the thread budget for the workload.

    A BLAS call runs on its calling thread plus (threads - 1) helpers, so at
    most max(1, mc_workers) * blas_threads threads are busy at once.  BLAS
    is held to one thread: the widest products here (12800 wide, on
    the short solves) gain nothing from a second thread, and their time turned
    bimodal when the helper competed for the core.
    """
    nproc = len(os.sched_getaffinity(0))
    callers = max(1, mc_workers)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    control = openblas_threads()
    default = threads = None
    if control:
        default = control[0]()
        control[1](1)
        threads = control[0]()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_default": default,
        "blas_threads": threads,
        "mc_workers": mc_workers,
        "thread_budget_ok": threads is not None and callers * threads <= nproc,
    }


def import_seconds():
    """Time for a fresh interpreter to import ``renewal.cli``.

    The child holds OpenBLAS to one thread, as the measured process does;
    otherwise its helper thread starts spinning during the numpy import.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def end_to_end(args, workload, runner):
    first = workload.one_pass(runner, args.seed)
    # taken after one pass: over the repeats, heap fragmentation rather than
    # the program would set the peak, and more repeats would read as more memory
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import_seconds()  # the first import may compile bytecode, which users pay once
    # the first pass warms up and finds the commands to time; the repeats
    # run for the whole --seconds, with the imports spread over them, so
    # that setup_s, task_s and the kernel sample the same stretch of the host's load
    kernel = calibrate.Kernel()
    setup, ref = [], []
    next_setup = time.perf_counter()
    deadline = next_setup + args.seconds
    for cmd_args, gate in itertools.cycle(workload.timed(args.seed, first)):
        if time.perf_counter() >= deadline:
            break
        runner.run(cmd_args, gate)
        # the kernel takes a fixed share of the time next to every command,
        # so it samples the host's speed wherever the commands do
        spent = runner.last_seconds * REF_SHARE
        while spent > 0.0 or not ref:
            ref.append(kernel.seconds())
            spent -= ref[-1]
        if time.perf_counter() >= next_setup:
            setup.append(import_seconds())
            next_setup = time.perf_counter() + SETUP_EVERY
    while len(setup) < SETUP_MIN:
        setup.append(import_seconds())
    task_s, named = workload.figures(runner, args.seed, first)
    ref_s = statistics.median(ref) if ref else math.nan  # no command was timed
    fail_frac = runner.failed / runner.attempted
    named["task_s"] = (task_s, "s")
    named["ref_s"] = (ref_s, "s")
    named["ref_runs"] = (len(ref), "count")
    named["fail_frac"] = (fail_frac, "frac")
    named["setup_imports"] = (len(setup), "count")
    metrics = {
        "task_ref": (task_s / ref_s, "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        # fail_frac is 0 when all is well; its complement is never 0
        "ok_frac": (1.0 - fail_frac, "frac"),
    }
    return metrics, named, None


def per_layer(args, workload, runner):
    workload.one_pass(runner, args.seed)  # warm-up, so both timed passes start warm
    start = time.perf_counter()
    workload.one_pass(runner, args.seed)
    plain_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    traced_runner = workloads.Runner(runner.main, runner.store, tracer)
    tracer.install()
    try:
        start = time.perf_counter()
        result = workload.one_pass(traced_runner, args.seed)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    runner.attempted += traced_runner.attempted
    runner.failed += traced_runner.failed
    runner.errors += traced_runner.errors

    values = dict.fromkeys(tracing.PER_LAYER, 0.0)
    values.update(tracing.layer_metrics(tracer))
    values.update(workload.layer_values(result, runner, args.seed, tracer))
    values["bijections.const_err"] = const_err()
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER.items()}
    columns = ("id", "name", "start", "end", "parent", "thread", "t_max", "step")
    spans = {"columns": columns,
             "rows": [[span.get(c) for c in columns] for span in tracer.spans]}
    return metrics, {}, spans


def const_err():
    """Largest distance of the library's asymptotic constants from the exact ones."""
    from renewal import bijections, montecarlo

    specs = {"identity": bijections.Identity(), "logproduct": bijections.LogProduct(),
             "power:0.5": bijections.Power(0.5),
             "piecewise": bijections.PiecewiseLinear(refs.KNOTS)}
    worst = 0.0
    for name, spec in specs.items():
        p = bijections.asymptotic_params(spec)
        mu, c = refs.ASYMPTOTE[name]
        worst = max(worst, abs(p.mu - mu), abs(p.c - c))
    edges = np.linspace(0.0, 1.0, 51)
    got = montecarlo.limit_overshoot_bin_probs(bijections.LogProduct(), edges)
    return max(worst, float(np.max(np.abs(got - refs.logproduct_overshoot_bins(edges)))))


def main():
    parser = argparse.ArgumentParser(description="Accuracy-per-second benchmark of renewal.")
    parser.add_argument("--workload", required=True,
                        choices=("solve", "simulate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cli_main = import_program()
    workload = {
        "solve": workloads.SOLVE,
        "simulate": workloads.Simulate(len(os.sched_getaffinity(0))),
        "verify": workloads.Verify(),
    }[args.workload]
    facts = machine_facts(args, workload.mc_workers)
    # stdout hashes of earlier runs of this same program source
    source = hashlib.sha256()
    for path in sorted((SRC / "renewal").glob("*.py")):
        source.update(path.read_bytes())
    store_path = RESULTS / f"stdout_hashes_{source.hexdigest()[:16]}.json"
    try:
        store = json.loads(store_path.read_text())
    except FileNotFoundError:
        store = {}
    runner = workloads.Runner(cli_main, store)

    measure = per_layer if args.trace else end_to_end
    metrics, named, spans = measure(args, workload, runner)
    # a metric is non-finite only when every operation behind it failed
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            runner.errors.append(f"{name} is {value}; reported as 0")
            metrics[name] = (0.0, unit)

    RESULTS.mkdir(exist_ok=True)
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    record = {"machine": facts, "named": named, "metrics": metrics, "errors": runner.errors}
    if spans is not None:
        record["spans"] = spans
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print("machine: " + json.dumps(facts))
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
