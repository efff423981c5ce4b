import numpy as np
import pytest
from click.testing import CliRunner

from renewal import solver, verification
from renewal.bijections import ConvergenceError, DomainError
from renewal.cli import main
from renewal.verification import SUITES, CheckResult, run_checks


def test_all_suite_names_exposed():
    assert SUITES == ("closed-forms", "bijections", "solver", "simulation")


@pytest.mark.parametrize("suite", ["closed-forms", "bijections", "solver"])
def test_suite_green(suite):
    results = run_checks([suite])
    assert results and all(r.passed for r in results), [
        (r.name, r.detail) for r in results if not r.passed
    ]
    assert all(isinstance(r, CheckResult) and r.suite == suite for r in results)


def test_check_names_pinned():
    # names and order are part of the output contract; a coarse solver step
    # and the smallest sample count keep this fast (pass/fail is not asserted)
    results = run_checks(step=0.01, samples=1000)
    names = {}
    for r in results:
        names.setdefault(r.suite, []).append(r.name)
    assert names == {
        "closed-forms": ["series-vs-closed", "mean-bracket-exact", "domination-exact"],
        "bijections": [
            "mean-increment-analytic", "mean-overshoot-constants",
            "overshoot-constant-routes", "variance-analytic", "mean-by-parts",
        ],
        "solver": [
            "solver-vs-product-form", "solver-vs-sum-count", "mean-bracket-grid",
            "domination-grid", "derivative-identity", "asymptote-approach",
            "self-consistency",
        ],
        "simulation": [
            "sim-vs-exact", "stopped-sum-proportionality", "paired-domination",
            "overshoot-limit-density", "mean-overshoot-vs-c", "reproducibility",
        ],
    }
    assert [r.suite for r in results] == [s for s in SUITES for _ in names[s]]


@pytest.mark.parametrize("seed", [1362, 1386])
def test_reproducibility_when_two_seeds_share_a_mean(seed):
    # at 200000 samples seeds 1362 and 1363 (and 1386 and 1387) give the
    # same mean draw count, but not the same standard error
    results = run_checks(["simulation"], samples=200_000, seed=seed)
    (rep,) = [r for r in results if r.name == "reproducibility"]
    assert rep.passed
    assert rep.detail == "same seed bit-identical: True; different seed differs: True"


def test_suite_functions_looked_up_per_call(monkeypatch):
    # run_checks reads each _checks_<suite> name when it runs, so a function
    # patched onto the module is the one whose triples come back
    monkeypatch.setattr(
        verification, "_checks_closed_forms", lambda: [("sentinel", False, "patched")]
    )
    assert run_checks(["closed-forms"]) == [
        CheckResult(name="sentinel", suite="closed-forms", passed=False, detail="patched")
    ]


def test_solver_suite_red_at_coarse_step():
    results = run_checks(["solver"], step=5e-2)
    names_failed = {r.name for r in results if not r.passed}
    assert "solver-vs-product-form" in names_failed
    assert "solver-vs-sum-count" in names_failed


def test_duplicate_suites_run_once():
    results = run_checks(["closed-forms", "closed-forms"])
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_validation():
    with pytest.raises(DomainError, match="unknown suite"):
        run_checks(["bogus"])
    with pytest.raises(DomainError):
        run_checks(["solver"], step=0.2)
    with pytest.raises(DomainError):
        run_checks(["simulation"], samples=10)
    with pytest.raises(DomainError, match="samples"):
        run_checks(["simulation"], samples=True)
    # iterated, a string would name suites by its characters ("unknown suite 's'")
    with pytest.raises(DomainError, match="^suites must be an iterable of suite names, "
                                          "got the string 'solver'"):
        run_checks("solver")


def test_non_increasing_march_stops_the_solver_suite(monkeypatch):
    # solve refuses a march whose values fall, so no curve the solver suite
    # checks can be anything but strictly increasing: the suite raises and
    # the CLI exits 3 before printing a line
    monkeypatch.setattr(solver, "_march", lambda n, weights, breaks: np.linspace(2.0, 1.0, n + 1))
    with pytest.raises(ConvergenceError, match="not strictly increasing"):
        run_checks(["solver"])
    result = CliRunner().invoke(main, ["verify", "--suite", "solver"])
    assert result.exit_code == 3 and result.output.startswith("error: marched values")
