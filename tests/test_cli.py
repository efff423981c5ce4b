import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import renewal
from renewal import solver
from renewal.bijections import LogProduct
from renewal.cli import main
from renewal.closed_forms import product_count, uniform_sum_count


@pytest.fixture()
def runner():
    return CliRunner()


class TestExact:
    def test_product(self, runner):
        result = runner.invoke(main, ["exact", "--target", "product", "-t", "1"])
        assert result.exit_code == 0
        assert f"count = {product_count(1.0):.17g}" in result.output
        assert "asymptote =" in result.output

    def test_sum(self, runner):
        result = runner.invoke(main, ["exact", "--target", "sum", "-t", "2"])
        assert result.exit_code == 0
        assert f"count = {uniform_sum_count(2.0):.17g}" in result.output

    def test_product_domain_suggests_solver(self, runner):
        result = runner.invoke(main, ["exact", "--target", "product", "-t", "5"])
        assert result.exit_code == 2
        assert "solve" in result.output

    def test_sum_overflow_cap(self, runner):
        # 29.9 is where the series was 1.66 off and still exited 0
        for t in ("40", "29.9"):
            result = runner.invoke(main, ["exact", "--target", "sum", "-t", t])
            assert result.exit_code == 2
            assert "precision" in result.output

    def test_missing_target(self, runner):
        result = runner.invoke(main, ["exact", "-t", "1"])
        assert result.exit_code == 2


class TestSolve:
    def test_csv_to_file(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        result = runner.invoke(
            main,
            ["solve", "--spec", "identity", "--t-max", "1", "--step", "0.01",
             "--output", str(out)],
        )
        assert result.exit_code == 0
        assert "N(t_max) =" in result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "t,N"
        assert len(lines) == 102
        data = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert data[0, 1] == 1.0
        assert data[-1, 1] == pytest.approx(math.e, abs=1e-5)

    def test_smallest_power_is_refused(self, runner):
        # N(step) - 1 ~ step^10 rounds to 0, so the curve is not strictly increasing
        result = runner.invoke(main, ["solve", "--spec", "power:0.1", "--t-max", "5"])
        assert result.exit_code == 3
        assert "not strictly increasing at t = 0.001; N - 1 rounds to 0" in result.output

    @pytest.mark.parametrize("step", ["1e-2", "1e-3"])
    def test_power_0_2_solves(self, runner, step):
        result = runner.invoke(
            main, ["solve", "--spec", "power:0.2", "--t-max", "5", "--step", step]
        )
        assert result.exit_code == 0
        assert "N(t_max) =" in result.output

    def test_csv_to_stdout_repeatable(self, runner):
        args = ["solve", "--spec", "logproduct", "--t-max", "1", "--step", "0.01"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0
        assert a.stdout == b.stdout
        assert a.stdout.splitlines()[0] == "t,N"

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "curve.json"
        result = runner.invoke(
            main,
            ["solve", "--spec", "power:2", "--t-max", "1", "--step", "0.01",
             "--format", "json", "--output", str(out)],
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["spec", "step", "t_max", "t", "N"]
        assert payload["spec"] == "power:2"
        assert payload["N"][0] == 1.0

    def test_step_range_enforced(self, runner):
        result = runner.invoke(main, ["solve", "--t-max", "1", "--step", "0.5"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["solve", "--t-max", "1", "--step", "1e-6"])
        assert result.exit_code == 2

    def test_t_max_range_enforced(self, runner):
        result = runner.invoke(main, ["solve", "--t-max", "20000"])
        assert result.exit_code == 2
        # nan passes the option's range check and is refused by solver.solve
        result = runner.invoke(main, ["solve", "--t-max", "nan"])
        assert result.exit_code == 2
        assert "t_max must be finite and > 0, got nan" in result.output

    def test_stdout_is_the_writer_output(self, runner):
        # 3001 lines, so the writer streams three chunks straight to stdout
        result = runner.invoke(main, ["solve", "--t-max", "3", "--step", "1e-3"])
        assert result.exit_code == 0
        buf = io.StringIO()
        solver.write_curve_csv(solver.solve(LogProduct(), 3.0, 1e-3), buf)
        assert result.stdout == buf.getvalue()
        assert "N(t_max) =" in result.stderr

    def test_json_stdout_is_json_dumps(self, runner):
        # 3001 nodes: the writer streams three chunks of each list
        result = runner.invoke(main, ["solve", "--t-max", "3", "--step", "1e-3", "--format", "json"])
        assert result.exit_code == 0
        payload = solver.curve_json_payload(solver.solve(LogProduct(), 3.0, 1e-3))
        assert result.stdout == json.dumps(payload, indent=2) + "\n"

    def test_refused_solve_leaves_no_file(self, runner, tmp_path):
        out = tmp_path / "f"
        result = runner.invoke(
            main, ["solve", "--t-max", "400", "--step", "1e-5", "--output", str(out)]
        )
        assert result.exit_code == 2
        assert not out.exists()

    def test_work_cap_refuses_at_once(self, runner, monkeypatch):
        # 4e7 nodes, some 2.6 GB at the march's peak, refused before any
        # panel weight is computed
        def no_weights(*args):
            raise AssertionError("panel weights computed before the cap check")

        monkeypatch.setattr(renewal.solver, "_panel_weights", no_weights)
        result = runner.invoke(main, ["solve", "--t-max", "400", "--step", "1e-5"])
        assert result.exit_code == 2
        assert "4e+07 nodes take about 2.56 GB" in result.output
        assert "cap" in result.output
        assert "increase step or decrease t_max" in result.output

    def test_unknown_spec(self, runner):
        result = runner.invoke(main, ["solve", "--spec", "mystery", "--t-max", "1"])
        assert result.exit_code == 2
        assert "unknown transform" in result.output

    def test_knot_file_spec(self, runner, tmp_path):
        knots = tmp_path / "f.knots"
        knots.write_text("0 0\n0.4 0.3\n1 1\n")
        result = runner.invoke(
            main, ["solve", "--spec", str(knots), "--t-max", "1", "--step", "0.01"]
        )
        assert result.exit_code == 0
        assert result.stdout.splitlines()[0] == "t,N"

    def test_directory_spec_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["asympt", "--spec", str(tmp_path)])
        assert result.exit_code == 2
        assert f"{tmp_path}: cannot read knot file" in result.output

    def test_undecodable_knot_file_is_a_usage_error(self, runner, tmp_path):
        knots = tmp_path / "f.knots"
        knots.write_bytes(b"\xff0 0\n1 1\n")
        result = runner.invoke(main, ["asympt", "--spec", str(knots)])
        assert result.exit_code == 2
        assert f"{knots}: knot file is not UTF-8 text" in result.output


class TestAsympt:
    def test_identity_line(self, runner):
        result = runner.invoke(main, ["asympt", "--spec", "identity", "-t", "10"])
        assert result.exit_code == 0
        assert "slope =" in result.output and "intercept =" in result.output
        line = [l for l in result.output.splitlines() if l.startswith("asymptote(")][0]
        assert float(line.split(" = ")[1]) == pytest.approx(20.0 + 2.0 / 3.0, abs=1e-9)

    def test_without_threshold(self, runner):
        result = runner.invoke(main, ["asympt", "--spec", "logproduct"])
        assert result.exit_code == 0
        assert "asymptote(" not in result.output

    def test_negative_threshold(self, runner):
        for t in ("-1", "nan", "inf"):
            result = runner.invoke(main, ["asympt", "-t", t])
            assert result.exit_code == 2, t
            assert "finite and >= 0" in result.output, t
            assert "asymptote(" not in result.output, t


class TestSimulate:
    def test_payload_shape(self, runner):
        result = runner.invoke(
            main, ["simulate", "--spec", "identity", "-t", "1", "--samples", "5000"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert list(payload) == ["t", "spec", "samples", "seed", "mean", "std_error"]
        assert payload["seed"] == 42
        assert payload["samples"] == 5000

    def test_repeatable(self, runner):
        args = ["simulate", "-t", "2", "--samples", "20000", "--workers", "2"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0 and a.stdout == b.stdout

    def test_seed_option_beats_env(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "-t", "1", "--samples", "1000", "--seed", "9"],
            env={"RENEWAL_SEED": "5"},
        )
        assert json.loads(result.output)["seed"] == 9

    def test_env_seed(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "-t", "1", "--samples", "1000"],
            env={"RENEWAL_SEED": "5"},
        )
        assert json.loads(result.output)["seed"] == 5

    def test_env_seed_malformed(self, runner):
        for env in ("many", "-1"):
            result = runner.invoke(
                main,
                ["simulate", "-t", "1", "--samples", "1000"],
                env={"RENEWAL_SEED": env},
            )
            assert result.exit_code == 2, env
            assert "RENEWAL_SEED" in result.output, env

    def test_empty_env_seed_means_unset(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "-t", "1", "--samples", "1000"],
            env={"RENEWAL_SEED": ""},
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["seed"] == 42

    def test_negative_threshold(self, runner):
        result = runner.invoke(main, ["simulate", "-t", "-3", "--samples", "1000"])
        assert result.exit_code == 2

    def test_work_cap_refuses_at_once(self, runner, monkeypatch):
        # about 1.7e12 rounds: weeks of work, refused before any block runs
        def no_block(*args):
            raise AssertionError("a block ran before the work cap check")

        monkeypatch.setattr(renewal.montecarlo, "_run_block", no_block)
        result = runner.invoke(main, ["simulate", "-t", "1e12", "--samples", "1"])
        assert result.exit_code == 2
        assert "t=1e+12 with samples=1 would take about 2.58e+07 s" in result.output
        assert "cap of 300 s; decrease t or samples" in result.output

    def test_workers_do_not_change_the_output(self, runner):
        args = ["simulate", "-t", "2", "--samples", "70000", "--workers"]
        one, two = (runner.invoke(main, args + [w]) for w in ("1", "2"))
        assert one.exit_code == 0 and one.stdout == two.stdout


class TestOvershoot:
    def test_payload(self, runner):
        result = runner.invoke(
            main,
            ["overshoot", "-t", "3", "--samples", "20000", "--bins", "20"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert list(payload) == ["bin_edges", "densities", "samples", "t"]
        widths = np.diff(payload["bin_edges"])
        mass = float(np.dot(payload["densities"], widths))
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_bins_validated(self, runner):
        result = runner.invoke(main, ["overshoot", "-t", "1", "--bins", "3"])
        assert result.exit_code == 2


class TestVerify:
    def test_closed_forms_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "closed-forms"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert lines[-1].endswith("0 failed")

    def test_simulation_suite_small_samples(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "simulation", "--samples", "20000"]
        )
        assert result.exit_code == 0, result.output
        assert "0 failed" in result.output

    def test_coarse_step_degradation_demo_fails(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "solver", "--step", "0.05", "--t-max", "5"]
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "solver-vs-product-form" in result.output

    def test_unknown_suite_rejected(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "nope"])
        assert result.exit_code == 2

    def test_samples_floor(self, runner):
        result = runner.invoke(main, ["verify", "--samples", "10"])
        assert result.exit_code == 2


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "renewal" in result.output
    assert renewal.__version__ in result.output
