import dataclasses
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tscatter
from tscatter import (CsvParseError, EmpiricalSample, NumericalBreakdown, cli, discrete_sampler, simlab,
                      solve_locscatter)
from tscatter.asymptotics import AsymptoticCov
from tscatter.oned import OneDEstimate
from tscatter.simlab import McReport

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "result_schema.json").read_text())


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name} in envelope")


def write_csv(path, rows, header=None):
    lines = [",".join(header)] if header else []
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run(argv, tmp_path):
    """Run the CLI with the envelope written to a file; return (exit code, envelope)."""
    out = tmp_path / "envelope.json"
    out.unlink(missing_ok=True)
    code = cli.main(argv + ["--output", str(out)])
    envelope = None
    if out.exists():
        envelope = json.loads(out.read_text(encoding="utf-8"), parse_constant=_no_constants)
        jsonschema.validate(envelope, SCHEMA)
    return code, envelope


@pytest.fixture
def cloud2(tmp_path):
    rng = np.random.default_rng(3)
    return write_csv(tmp_path / "cloud2.csv", rng.standard_normal((12, 2)) + [1.0, -2.0])


@pytest.fixture
def wide2(tmp_path):
    # thirty times wider than tall: one step from the start is far from the functional
    rng = np.random.default_rng(7)
    return write_csv(tmp_path / "wide2.csv", rng.standard_normal((12, 2)) * [30.0, 1.0])


@pytest.fixture
def line_heavy(tmp_path):
    # 8 of 10 points on the line y = 0: outside the location-scatter domain at nu = 2
    pts = [[float(i), 0.0] for i in range(8)] + [[1.0, 2.0], [3.0, -1.0]]
    return write_csv(tmp_path / "line.csv", pts)


class TestSuccessEnvelopes:
    def test_estimate_writes_booleans(self, cloud2, tmp_path):
        code, env = run(["estimate", cloud2, "--nu", "2"], tmp_path)
        assert code == cli.EXIT_OK
        assert env["command"] == "estimate"
        assert env["payload"]["converged"] is True
        assert len(env["payload"]["mu"]) == 2
        assert 0 <= env["payload"]["newton_steps"] <= env["payload"]["iterations"]
        assert env["timing_ms"] > 0.0

    def test_scatter(self, cloud2, tmp_path):
        code, env = run(["scatter", cloud2, "--nu", "1.5"], tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["converged"] is True
        assert env["payload"]["stop_reason"] in ("grad", "step", "max_iter")
        assert 0 <= env["payload"]["newton_steps"] <= env["payload"]["iterations"]

    @pytest.mark.parametrize("target", ["locscatter", "scatter"])
    def test_check_domain(self, cloud2, tmp_path, target):
        code, env = run(["check-domain", cloud2, "--nu", "2", "--target", target], tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["member"] is True
        assert env["payload"]["exact"] is True
        assert env["payload"]["target"] == target

    @pytest.mark.parametrize("mode,k", [("locscatter", 5), ("scatter", 3)])
    def test_asymptotics(self, cloud2, tmp_path, mode, k):
        code, env = run(["asymptotics", cloud2, "--nu", "2", "--mode", mode], tmp_path)
        assert code == cli.EXIT_OK
        assert np.asarray(env["payload"]["S"]).shape == (k, k)

    def test_oned_interior_and_boundary(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", [[-1.0], [0.5], [2.0], [3.0]])
        code, env = run(["oned", path, "--nu", "3"], tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["boundary"] is False
        assert env["payload"]["atom"] is None
        # an atom of mass 0.9 >= nu/(nu+1) = 0.75 puts the estimate on the boundary
        path = write_csv(tmp_path / "w.csv", [[0.0, 0.9], [1.0, 0.1]], header=["x", "weight"])
        code, env = run(["oned", path, "--nu", "3"], tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["boundary"] is True
        assert env["payload"]["atom"] == [0.0, 0.9]

    def test_simulate(self, tmp_path):
        rng = np.random.default_rng(5)
        path = write_csv(tmp_path / "law.csv", rng.standard_normal((6, 2)))
        argv = ["simulate", path, "--nu", "2", "--n", "60", "--reps", "20", "--seed", "1"]
        code, env = run(argv, tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["reps"] == 20
        assert np.asarray(env["payload"]["empirical_cov"]).shape == (3, 3)

    def test_payloads_follow_their_dataclasses(self, tmp_path):
        # oned writes every OneDEstimate field, simulate every McReport field
        # but its warnings, which go to the envelope; in field order
        path = write_csv(tmp_path / "x.csv", [[-1.0], [0.5], [2.0], [3.0]])
        _, env = run(["oned", path, "--nu", "3"], tmp_path)
        assert list(env["payload"]) == [f.name for f in dataclasses.fields(OneDEstimate)]
        _, env = run(["simulate", path, "--nu", "2", "--n", "40", "--reps", "5"], tmp_path)
        assert list(env["payload"]) == [f.name for f in dataclasses.fields(McReport) if f.name != "warnings"]
        assert list(env["payload"]["target_cov"]) == [f.name for f in dataclasses.fields(AsymptoticCov)]

    def test_simulate_honours_solver_settings(self, tmp_path):
        rng = np.random.default_rng(5)
        path = write_csv(tmp_path / "law.csv", rng.standard_normal((6, 2)))
        argv = ["simulate", path, "--nu", "2", "--n", "60", "--reps", "20", "--seed", "1"]
        _, full = run(argv, tmp_path)
        code, rough = run(argv + ["--max-iter", "5", "--tol", "1e-3"], tmp_path)
        assert code == cli.EXIT_OK and rough["warnings"] == []
        assert rough["payload"]["empirical_cov"] != full["payload"]["empirical_cov"]
        assert rough["payload"]["target_cov"] == full["payload"]["target_cov"]

    @pytest.mark.parametrize("mode,steps", [("scatter", "1"), ("locscatter", "3")])
    def test_asymptotics_honours_solver_settings(self, cloud2, tmp_path, mode, steps):
        # the covariance is taken at the command's own fit: a few steps from
        # the start are no converged fit, which the envelope says, and S moves
        argv = ["asymptotics", cloud2, "--nu", "3", "--mode", mode]
        _, full = run(argv, tmp_path)
        code, rough = run(argv + ["--max-iter", steps], tmp_path)
        assert code == cli.EXIT_OK
        assert full["warnings"] == []
        assert len(rough["warnings"]) == 1
        assert rough["payload"]["S"] != full["payload"]["S"]

    def test_simulate_writes_null_for_undefined_statistics(self, tmp_path):
        # on the four-point law some statistic has nothing to measure: no
        # covariance entry above the threshold, or a coordinate that never varies
        r = np.sqrt(2.0)
        path = write_csv(tmp_path / "four.csv", [[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]])
        code, env = run(["simulate", path, "--nu", "2", "--n", "50", "--reps", "10"], tmp_path)
        assert code == cli.EXIT_OK
        payload = env["payload"]
        assert None in [payload["max_rel_err"], *payload["normality_stat"]]

    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_simulate_names_the_cut_when_no_entry_passes(self, tmp_path, scale):
        # 400 t(3) points in 2-D at nu = 2, 150 replicates of 300 draws: the
        # target covariance scales as scale^4, and at scale 0.1 no entry of it
        # passes the absolute cut, so max_rel_err is null, and a warning says why
        rng = np.random.default_rng(0)
        law = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        path = write_csv(tmp_path / "law.csv", scale * law)
        code, env = run(["simulate", path, "--nu", "2", "--n", "300", "--reps", "150"], tmp_path)
        assert code == cli.EXIT_OK
        uncut = scale == 0.1
        assert (env["payload"]["max_rel_err"] is None) == uncut
        assert any(f"exceeds {simlab.REL_THRESHOLD}" in msg for msg in env["warnings"]) == uncut

    def test_simulate_past_the_exact_check_budget(self, tmp_path):
        # the lifted check of a 2000-point 2-D law needs 2000 + C(2000, 2)
        # subsets, over the exact budget; the certificate from the law's fit
        # decides it instead, so the target law is checked after all
        rng = np.random.default_rng(9)
        path = write_csv(tmp_path / "law.csv", rng.standard_normal((2000, 2)))
        argv = ["simulate", path, "--nu", "2", "--mode", "locscatter", "--n", "30", "--reps", "2"]
        code, env = run(argv, tmp_path)
        assert code == cli.EXIT_OK
        assert not any("not checked" in msg for msg in env["warnings"])

    def test_estimate_past_the_exact_check_budget(self, tmp_path):
        # 200 points in 4-D lift to 200 distinct points in R^5, past the
        # subset budget of exact enumeration (83 points there): the fit's
        # certificate accepts the law
        rng = np.random.default_rng(13)
        Y = rng.standard_normal((200, 4))
        path = write_csv(tmp_path / "g4.csv", Y)
        code, env = run(["estimate", path, "--nu", "2"], tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["converged"] is True
        est = solve_locscatter(EmpiricalSample(Y), 2.0, check_domain=False)
        assert env["payload"]["mu"] == est.mu.tolist()

    def test_simulate_locscatter_replicates_past_the_budget(self, tmp_path):
        # replicates of 150 draws from a 400-point 4-D law hold more than 83
        # distinct points, the most the lifted exact check takes in R^5
        rng = np.random.default_rng(17)
        law = rng.standard_normal((400, 4))
        path = write_csv(tmp_path / "law4.csv", law)
        argv = ["simulate", path, "--nu", "2", "--mode", "locscatter", "--n", "150", "--reps", "3", "--seed", "5"]
        sampler = discrete_sampler(law, None, 5)
        assert np.unique(sampler.draw(150, sampler.rng_for(0)), axis=0).shape[0] > 83
        code, env = run(argv, tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["existence_rate"] == 1.0
        assert not any("not checked" in msg for msg in env["warnings"])

    def test_estimate_in_four_dimensions(self, tmp_path):
        # the exact affine check of a 4-D sample runs on its lift to R^5
        rng = np.random.default_rng(7)
        t3 = rng.standard_normal((30, 4)) / np.sqrt(rng.chisquare(3, size=(30, 1)) / 3.0)
        path = write_csv(tmp_path / "t4.csv", t3)
        code, env = run(["estimate", path, "--nu", "3"], tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["converged"] is True
        assert len(env["payload"]["mu"]) == 4


class TestErrorEnvelopes:
    def test_domain_violation_exit_2(self, line_heavy, tmp_path):
        code, env = run(["estimate", line_heavy, "--nu", "2"], tmp_path)
        assert code == cli.EXIT_DOMAIN
        assert env["payload"]["error"] == "domain_violation"
        assert env["payload"]["report"]["member"] is False
        assert env["payload"]["report"]["worst_subspace_dim"] == 1
        assert env["timing_ms"] > 0.0

    def test_check_domain_reports_violation_with_exit_0(self, line_heavy, tmp_path):
        code, env = run(["check-domain", line_heavy, "--nu", "2"], tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["member"] is False

    def test_simulate_with_too_few_replicates_in_the_domain(self, tmp_path):
        # two points always lie on a line, so every replicate fails the affine
        # check; the report is a failing replicate's, not a re-check of the
        # target law, whose exact check is past the subset budget
        rng = np.random.default_rng(9)
        path = write_csv(tmp_path / "law.csv", rng.standard_normal((2000, 2)))
        argv = ["simulate", path, "--nu", "2", "--mode", "locscatter", "--n", "2", "--reps", "3"]
        code, env = run(argv, tmp_path)
        assert code == cli.EXIT_DOMAIN
        assert env["payload"]["error"] == "domain_violation"
        assert env["payload"]["report"]["member"] is False

    def test_simulate_with_unconverged_replicates(self, tmp_path):
        # one step leaves every replicate fit of this law unconverged: they
        # are not averaged into a covariance, and the run is a numerical
        # failure, not a domain violation (every replicate is a member)
        rng = np.random.default_rng([0, 2])
        law = rng.standard_normal((400, 2)) / np.sqrt(rng.chisquare(3.0, (400, 1)) / 3.0)
        path = write_csv(tmp_path / "law.csv", law)
        argv = ["simulate", path, "--nu", "2", "--n", "300", "--reps", "20"]
        code, env = run(argv + ["--max-iter", "1"], tmp_path)
        assert code == cli.EXIT_NUMERICAL
        assert env["payload"] == {
            "error": "numerical_failure",
            "message": "only 0 of 20 member replicate fits converged: too few",
        }
        # at four steps some converge: those alone make the covariance, and
        # the rest are counted in a warning
        code, env = run(argv + ["--max-iter", "4"], tmp_path)
        assert code == cli.EXIT_OK
        assert env["payload"]["existence_rate"] == 1.0
        (msg,) = env["warnings"]
        assert msg.endswith(" of 20 member replicate fits did not converge: left out")
        assert 0 < int(msg.split()[0]) < 19

    def test_numerical_failure_exit_3(self, cloud2, tmp_path, monkeypatch):
        def breakdown(*args, **kwargs):
            raise NumericalBreakdown("iterate left the SPD cone")

        monkeypatch.setattr(cli, "solve_scatter", breakdown)
        code, env = run(["scatter", cloud2, "--nu", "2"], tmp_path)
        assert code == cli.EXIT_NUMERICAL
        assert env["payload"] == {
            "error": "numerical_failure",
            "message": "iterate left the SPD cone",
        }
        assert env["timing_ms"] > 0.0

    @pytest.mark.parametrize("mode,nu", [("locscatter", "2"), ("scatter", "1.5")])
    def test_asymptotics_at_a_fit_far_from_the_functional_exit_3(self, wide2, tmp_path, mode, nu):
        # one step from the start the curvature is not positive definite, so
        # the sandwich has no Cholesky factor: a numerical failure, not a usage error
        code, env = run(["asymptotics", wide2, "--nu", nu, "--mode", mode, "--max-iter", "1"], tmp_path)
        assert code == cli.EXIT_NUMERICAL
        assert env["payload"]["error"] == "numerical_failure"
        assert env["payload"]["message"].startswith("curvature is not positive definite")
        # the fit's warning, gathered before the failure, stays in the envelope
        unconverged = {"scatter": "solver stopped before meeting the gradient tolerance",
                       "locscatter": "estimate did not meet its convergence certificates"}
        assert env["warnings"] == [unconverged[mode]]

    def test_witnesses_are_rows_of_the_csv(self, tmp_path):
        # zero-weight rows carry no mass, and the solve commands name the
        # same witness row as check-domain: the first positive row on the x-axis
        rows = [[0, 0, 0], [5, 5, 0], [1, 0, 1], [2, 0, 1], [3, 0, 1], [4, 0, 1], [0, 1, 0.2]]
        path = write_csv(tmp_path / "weighted.csv", rows, header=["x", "y", "weight"])
        code, env = run(["check-domain", path, "--nu", "1", "--target", "scatter"], tmp_path)
        assert code == cli.EXIT_OK and env["payload"]["witness_points"] == [2]
        for argv in (["scatter", path, "--nu", "1"], ["asymptotics", path, "--nu", "1", "--mode", "scatter"]):
            code, env = run(argv, tmp_path)
            assert code == cli.EXIT_DOMAIN
            assert env["payload"]["report"] == {**env["payload"]["report"], "member": False, "witness_points": [2]}

    def test_check_domain_names_the_rows_estimate_names(self, tmp_path):
        # 8 of 10 positive rows on the line y = 0, and zero-weight rows first,
        # (-1, 0) on that line: both commands decide on the law, not its rows
        rows = [[-1, 0, 0], [9, 9, 0]] + [[i, 0, 1] for i in range(8)] + [[1, 2, 1], [3, -1, 1]]
        path = write_csv(tmp_path / "lead.csv", rows, header=["x", "y", "weight"])
        code, check = run(["check-domain", path, "--nu", "2", "--target", "locscatter"], tmp_path)
        assert code == cli.EXIT_OK and check["payload"].pop("target") == "locscatter"
        code, est = run(["estimate", path, "--nu", "2"], tmp_path)
        assert code == cli.EXIT_DOMAIN
        assert est["payload"]["report"] == check["payload"] and check["payload"]["witness_points"] == [2, 3]


class TestOneParser:
    def test_calls_in_one_process_share_a_parser(self, cloud2, tmp_path, monkeypatch, capsys):
        # each envelope, and the usage error's exit and message, must be what
        # a fresh parser gives, and main must build the parser only once
        argvs = [
            ["check-domain", cloud2, "--nu", "2"],
            ["scatter", cloud2],
            ["scatter", cloud2, "--nu", "2"],
            ["simulate", cloud2, "--nu", "2", "--n", "50", "--reps", "10"],
        ]

        def calls():
            out = []
            for argv in argvs:
                try:
                    code, env = run(argv, tmp_path)
                except SystemExit as exc:
                    code, env = exc.code, capsys.readouterr().err
                else:
                    env.pop("timing_ms")
                out.append((code, env))
            return out

        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = calls()
        built = []

        def build():
            built.append(1)
            return cli.build_parser()

        monkeypatch.setattr(cli, "_parser", functools.cache(build))
        assert calls() == fresh
        assert len(built) == 1
        assert [code for code, _ in fresh] == [cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_OK]
        monkeypatch.undo()
        assert cli._parser() is cli._parser() and cli.build_parser() is not cli.build_parser()


class TestUsageErrors:
    def test_bad_cell_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n", encoding="utf-8")
        code, env = run(["scatter", str(path), "--nu", "2"], tmp_path)
        assert code == cli.EXIT_USAGE
        assert env is None
        assert "row 2" in capsys.readouterr().err

    def test_missing_file_exit_1(self, cloud2, tmp_path, capsys):
        # a directory and a path under a file are unreadable too, not missing
        for path in (tmp_path / "absent.csv", tmp_path, f"{cloud2}/x.csv"):
            code, env = run(["scatter", str(path), "--nu", "2"], tmp_path)
            assert (code, env) == (cli.EXIT_USAGE, None), path
            assert "tscatter: error:" in capsys.readouterr().err

    def test_nu_out_of_range_exit_1(self, cloud2, tmp_path, capsys):
        # settings out of range are rejected by the functionals and ScatterConfig
        for args in (
            ["scatter", "--nu", "0"],
            ["estimate", "--nu", "1"],
            ["asymptotics", "--nu", "0.5", "--mode", "locscatter"],
            ["oned", "--nu", "1"],
            ["check-domain", "--nu", "0"],
            ["simulate", "--nu", "0"],
            ["scatter", "--nu", "2", "--tol", "0"],
            ["scatter", "--nu", "2", "--max-iter", "0"],
        ):
            assert run(args[:1] + [cloud2] + args[1:], tmp_path) == (cli.EXIT_USAGE, None), args
            assert "tscatter: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["scatter", "--nu", "2", "--tol", "inf"],
        ["scatter", "--nu", "inf"],
        ["estimate", "--nu", "inf"],
        ["oned", "--nu", "inf"],
    ])
    def test_settings_that_are_not_finite_exit_1(self, tmp_path, capsys, args):
        # these exited 0 with the start as the fit, 3 on a breakdown, or 1 on a NaN in the root search
        rng = np.random.default_rng(0)
        csv = write_csv(tmp_path / "cloud.csv", rng.standard_normal((50, 1 if args[0] == "oned" else 2)))
        assert run(args[:1] + [csv] + args[1:], tmp_path) == (cli.EXIT_USAGE, None)
        assert "finite" in capsys.readouterr().err

    def test_output_into_missing_directory_exit_1(self, cloud2, tmp_path, capsys):
        out = tmp_path / "absent" / "envelope.json"
        assert cli.main(["scatter", cloud2, "--nu", "2", "--output", str(out)]) == cli.EXIT_USAGE
        assert not out.parent.exists()
        assert "tscatter: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-domain", "x.csv", "--nu", "2", "--tol", "1e-3"],
            ["oned", "x.csv", "--nu", "2", "--max-iter", "3"],
            ["scatter", "x.csv", "--nu", "2", "--seed", "1"],
        ],
    )
    def test_options_a_command_does_not_read_exit_1(self, argv, capsys):
        # only the commands that fit take solver settings, and only simulate a seed
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "x.csv", "--nu", "2", "--workers", "2"],
            ["scatter", "x.csv"],
            ["frobnicate", "x.csv", "--nu", "2"],
        ],
    )
    def test_argument_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE
        capsys.readouterr()


ODD_CELLS = st.sampled_from([
    "+.5", "5.", "1E-05", " 3 ", "\t4", "7 ", "0001", '"6"', '"1,5"', "", " ", "nan", "-inf",
    "Infinity", "0x10", "1_0", "1e", "abc", "weight", "#1", "\x1c1", "\x0b2", "\u0661",
])


@st.composite
def csv_texts(draw):
    """CSV text: a table of numbers with a few odd cells and rows mixed in."""
    width = draw(st.integers(1, 3))
    numbers = st.one_of(st.integers(-99, 99), st.floats(allow_nan=False, allow_infinity=False)).map(repr)
    cells = draw(st.lists(numbers, min_size=0, max_size=12))
    for k, cell in draw(st.lists(st.tuples(st.integers(0, 11), ODD_CELLS), max_size=2)):
        if cells:
            cells[k % len(cells)] = cell
    rows = [",".join(cells[k : k + width]) for k in range(0, len(cells), width)]
    for k, row in draw(st.lists(st.tuples(st.integers(0, 4), st.lists(ODD_CELLS, min_size=1, max_size=3)), max_size=2)):
        rows.insert(k % (len(rows) + 1), ",".join(row))  # ragged, blank or comma-only rows
    if draw(st.booleans()):
        rows.insert(0, ",".join(["x"] * (width - 1) + ["weight"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(rows) + draw(st.sampled_from(["", end, end + end]))


def _outcome(text):
    try:
        sample = cli.ingest_csv(io.StringIO(text, newline=""))
    except CsvParseError as exc:
        return "error", str(exc)
    return sample.points.tolist(), sample.weights.tolist()


class TestCsvIngest:
    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    def test_fast_path_matches_the_row_parser(self, text):
        # the np.loadtxt path gives the row parser's sample or its error,
        # on plain tables and on odd cells, blank rows and line ends
        got = _outcome(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_fast_table", lambda text: None)
            want = _outcome(text)
        assert got == want

    def test_plain_tables_take_the_fast_path(self):
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((50, 3))
        text = "a,b,weight\r\n" + "\r\n".join(",".join(repr(float(v)) for v in row) for row in Y) + "\r\n\r\n"
        header, arr = cli._fast_table(text)
        assert header == ["a", "b", "weight"]
        assert np.array_equal(arr, Y)
        for bad in ("1,2\n3,nan\n", '1,"2"\n', "1,2\n \n3,4\n", "1,2\r3,4\n", "1,2\n3\n"):
            assert cli._fast_table(bad) is None, bad


# every subcommand in each of its modes; simulate on a small job
BLOCKED_SCIPY_RUNS = {
    "estimate": ["estimate", "--nu", "2"],
    "scatter": ["scatter", "--nu", "2"],
    "oned": ["oned", "--nu", "3"],
    "check-domain-scatter": ["check-domain", "--target", "scatter", "--nu", "2"],
    "check-domain-locscatter": ["check-domain", "--target", "locscatter", "--nu", "2"],
    "asymptotics-scatter": ["asymptotics", "--mode", "scatter", "--nu", "2"],
    "asymptotics-locscatter": ["asymptotics", "--mode", "locscatter", "--nu", "2"],
    "simulate-scatter": ["simulate", "--mode", "scatter", "--n", "100", "--reps", "20", "--nu", "2"],
    "simulate-locscatter": ["simulate", "--mode", "locscatter", "--n", "100", "--reps", "20", "--nu", "2"],
}


class TestNoScipy:
    @pytest.mark.parametrize("argv", BLOCKED_SCIPY_RUNS.values(), ids=BLOCKED_SCIPY_RUNS.keys())
    def test_runs_with_scipy_blocked(self, argv, tmp_path):
        # the package needs NumPy only: with any import of scipy failing, a
        # fresh interpreter runs the subcommand to exit 0
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((30, 1 if argv[0] == "oned" else 2))
        path = write_csv(tmp_path / "x.csv", rows)
        out = tmp_path / "envelope.json"
        code = "import sys; sys.modules['scipy'] = None; import tscatter.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=str(Path(tscatter.__file__).resolve().parents[1]))
        got = subprocess.run([sys.executable, "-c", code, argv[0], path, *argv[1:], "--output", str(out)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert got.returncode == 0, got.stderr
        assert json.loads(out.read_text(encoding="utf-8"))["command"] == argv[0]
