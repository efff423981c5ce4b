"""Command line interface.

Commands map onto the library layers: ``exact`` prints closed-form counts,
``solve`` marches the renewal equation and emits the curve as CSV or JSON,
``asympt`` prints the asymptotic line parameters of a transform,
``simulate`` and ``overshoot`` run Monte Carlo, ``verify`` runs the
cross-route check suites.

Exit codes: 0 success; 1 verification failure; 2 bad arguments or domain
errors; 3 a computation that could not converge.  All output for a given
argument list is byte-identical across runs (simulation commands take the
seed from --seed, then the RENEWAL_SEED environment variable, then 42).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys

import click

from . import __version__, closed_forms, montecarlo, solver, verification
from .bijections import (
    ConvergenceError,
    DomainError,
    _as_real,
    asymptotic_params,
    parse_transform,
)

_SPEC = click.option("--spec", default="logproduct", show_default=True,
                     help="Transform: identity, logproduct, power:<p>, or a knot file path.")
_SEED = click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True,
                     envvar="RENEWAL_SEED", show_envvar=True, help="RNG seed.")
_WORKERS = click.option("--workers", type=click.IntRange(1, 256), default=1, show_default=True,
                        help="Threads that share the simulation; results do not depend on it.")


def _map_errors(fn):
    """Translate library errors into the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DomainError as exc:
            raise click.UsageError(str(exc))
        except ConvergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@click.group()
@click.version_option(version=__version__, prog_name="renewal")
def main():
    """Expected draw counts for threshold crossings of transformed uniform sums."""


@main.command()
@click.option(
    "--target",
    type=click.Choice(["product", "sum"]),
    required=True,
    help="Which closed form: the logproduct count or the plain uniform-sum count.",
)
@click.option("-t", "--threshold", type=float, required=True, help="Threshold t.")
@_map_errors
def exact(target, threshold):
    """Print a closed-form expected count and its asymptote."""
    if target == "product":
        if not 0.0 <= threshold <= 2.0:
            raise click.UsageError(
                f"the product closed form covers t in [0, 2], got {threshold:g}; "
                f"use the solve command for larger thresholds"
            )
        value = closed_forms.product_count(threshold)
        line = closed_forms.product_count_asymptote(threshold)
    else:
        value = closed_forms.uniform_sum_count(threshold)
        line = closed_forms.uniform_sum_asymptote(threshold)
    click.echo(f"t = {_fmt(threshold)}")
    click.echo(f"count = {_fmt(value)}")
    click.echo(f"asymptote = {_fmt(line)}")


@main.command()
@_SPEC
@click.option("--t-max", type=click.FloatRange(0, 1e4, min_open=True), required=True,
              help="March up to this threshold.")
@click.option("--step", type=click.FloatRange(1e-5, 1e-2), default=1e-3, show_default=True,
              help="Grid step.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Curve output format.")
@click.option("--output", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write the curve here instead of stdout.")
@_map_errors
def solve(spec, t_max, step, fmt, output):
    """Solve the renewal equation and emit the whole curve."""
    transform = parse_transform(spec)
    curve = solver.solve(transform, t_max, step)
    gap = solver.asymptote_gap(curve, asymptotic_params(transform), t_max)
    summary = (
        f"spec = {transform.label}\n"
        f"step = {_fmt(curve.step)}\n"
        f"t_max = {_fmt(curve.t_max)}\n"
        f"N(t_max) = {_fmt(solver.eval_curve(curve, t_max))}\n"
        f"asymptote gap at t_max = {gap:.3e}"
    )
    # everything that can fail has run, so a failure never leaves a partial file
    stdout = contextlib.nullcontext(click.get_text_stream("stdout"))
    with stdout if output is None else open(output, "w") as fh:
        if fmt == "csv":
            solver.write_curve_csv(curve, fh)
        else:
            solver.write_curve_json(curve, fh)
        fh.flush()
    click.echo(summary, err=output is None)


@main.command()
@_SPEC
@click.option("-t", "--threshold", type=float, default=None,
              help="Also print the asymptotic line evaluated at this t.")
@_map_errors
def asympt(spec, threshold):
    """Print the asymptotic line parameters of a transform."""
    if threshold is not None:
        threshold = _as_real("-t", threshold, 0.0)
    transform = parse_transform(spec)
    p = asymptotic_params(transform)
    click.echo(f"spec = {transform.label}")
    click.echo(f"mu = {_fmt(p.mu)}")
    click.echo(f"sigma2 = {_fmt(p.sigma2)}")
    click.echo(f"c = {_fmt(p.c)}")
    click.echo(f"slope = {_fmt(p.slope)}")
    click.echo(f"intercept = {_fmt(p.intercept)}")
    if threshold is not None:
        click.echo(f"asymptote({_fmt(threshold)}) = {_fmt((threshold + p.c) / p.mu)}")


@main.command()
@_SPEC
@click.option("-t", "--threshold", type=float, required=True, help="Threshold t.")
@click.option("--samples", type=click.IntRange(1, 10**9), default=100_000,
              show_default=True, help="Number of simulated paths.")
@_SEED
@_WORKERS
@_map_errors
def simulate(spec, threshold, samples, seed, workers):
    """Estimate the expected draw count by simulation; JSON on stdout."""
    transform = parse_transform(spec)
    est = montecarlo.estimate_n(transform, threshold, samples, seed, workers)
    click.echo(json.dumps(montecarlo.estimate_payload(est), indent=2))


@main.command()
@_SPEC
@click.option("-t", "--threshold", type=float, required=True, help="Threshold t.")
@click.option("--samples", type=click.IntRange(1, 10**9), default=100_000,
              show_default=True, help="Number of simulated paths.")
@click.option("--bins", type=click.IntRange(10, 10_000), default=50, show_default=True,
              help="Histogram bins on [0, 1].")
@_SEED
@_WORKERS
@_map_errors
def overshoot(spec, threshold, samples, bins, seed, workers):
    """Simulate the overshoot past the threshold; histogram JSON on stdout."""
    transform = parse_transform(spec)
    hist = montecarlo.overshoot_histogram(transform, threshold, samples, bins, seed, workers)
    click.echo(json.dumps(montecarlo.histogram_payload(hist), indent=2))


@main.command()
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(list(verification.SUITES)),
              help="Suites to run (repeatable); all when omitted.")
@click.option("--step", type=float, default=1e-3, show_default=True,
              help="Solver step; values up to 0.1 are allowed so accuracy "
                   "degradation can be demonstrated (expect failures).")
@click.option("--t-max", type=float, default=10.0, show_default=True,
              help="Solver march horizon for the solver suite.")
@click.option("--samples", type=click.IntRange(1000, 10**8), default=1_000_000,
              show_default=True, help="Simulation suite sample count.")
@_SEED
@_WORKERS
@_map_errors
def verify(suites, step, t_max, samples, seed, workers):
    """Run cross-route verification; one PASS/FAIL line per check."""
    results = verification.run_checks(
        suites or None,
        step=step,
        t_max=t_max,
        samples=samples,
        seed=seed,
        workers=workers,
    )
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        click.echo(f"{mark}  {r.suite}/{r.name}: {r.detail}")
    click.echo(f"{len(results) - failed} passed, {failed} failed")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
