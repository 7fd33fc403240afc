"""Command line driver: exit codes, report schema, determinism."""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conecalc import (analysis, cli, cones, dini, funcs, geometry,
                      verify)
from conecalc.cones import FiberCone

VALIDATOR = jsonschema.Draft202012Validator(cli.load_schema())
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cloud(tmp_path, name="cloud.csv", labeled=True, dim=2, n=4000):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    lines = ["x1,x2,label" if labeled else ",".join(
        f"x{i + 1}" for i in range(dim))]
    if labeled:
        for p in pts:
            lines.append(f"{p[0]},{p[1]},{'A' if p[1] <= 0 else 'B'}")
    else:
        for p in pts:
            lines.append(",".join(str(v) for v in p))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_a_run_imports_neither_scipy_stats_nor_optimize(tmp_path):
    # each costs a tenth of a second or more to import, more than many runs
    # compute, so a stray top-level import should fail here
    script = (
        "import sys\n"
        "import conecalc.cli as cli\n"
        "code = cli.main(['analyze', '--fn', 'sin(x1)+x2*x2', '--at', "
        "'0.3,-0.2', '--report', sys.argv[1]])\n"
        "print(code, sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "r.json")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "0 []\n"


def test_verify_and_cones_runs_do_not_import_scipy_optimize(tmp_path):
    # the zero and full cones need no solver: the bipolarity property and a
    # 3-D cones run, whose report holds both, leave scipy.optimize unloaded
    wedge_cloud_csv(tmp_path / "cloud.csv", n=300)
    script = (
        "import sys\n"
        "import conecalc.cli as cli\n"
        "codes = [cli.main(['verify', '--only', 'bipolarity', '--seed', '0', "
        "'--report', sys.argv[1] + '/v.json']),\n"
        "         cli.main(['cones', '--csv', sys.argv[1] + '/cloud.csv', "
        "'--at', '0,0,0', '--seed', '0', '--report', sys.argv[1] + '/c.json'])]\n"
        "print(codes, 'scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[0, 0] False\n"
    assert '"kind": "polyhedral"' in (tmp_path / "c.json").read_text()


def test_runs_load_no_scipy_module(tmp_path):
    # sampling answers neighbour queries with numpy, ports ndtri and draws
    # its own probes, and a 2-D function table is read without
    # scipy.interpolate, so the 2-D and 3-D analyze (of an expression and
    # of a table), cones and verify load no scipy module at all, and run
    # the same where scipy cannot be imported
    wedge_cloud_csv(tmp_path / "cloud.csv", n=300)
    axis = np.linspace(-1.0, 1.0, 21).tolist()
    (tmp_path / "table.csv").write_text("x1,x2,x3\n" + "".join(
        f"{x!r},{y!r},{x + y * y!r}\n" for x in axis for y in axis))
    script = (
        "import sys\n"
        "if sys.argv[2] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "import conecalc.cli as cli\n"
        "out = sys.argv[1]\n"
        "codes = [cli.main(['analyze', '--fn', 'sin(x1)+x2*x2', '--at', "
        "'0.3,-0.2', '--report', out + '/a.json']),\n"
        "         cli.main(['analyze', '--fn', 'x1+x2+x3', '--at', '0,0,0', "
        "'--ladder', '0.1,0.5,4,10', '--report', out + '/b.json']),\n"
        "         cli.main(['analyze', '--csv', out + '/table.csv', '--at', "
        "'0.1,0.2', '--report', out + '/t.json']),\n"
        "         cli.main(['cones', '--csv', out + '/cloud.csv', '--at', "
        "'0,0,0', '--seed', '0', '--report', out + '/c.json']),\n"
        "         cli.main(['verify', '--only', 'bipolarity', '--seed', '0', "
        "'--report', out + '/v.json'])]\n"
        "print(codes, sorted(name for name, mod in sys.modules.items()\n"
        "                    if mod is not None\n"
        "                    and (name == 'scipy' or name.startswith('scipy.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for scipy in ("installed", "blocked"):
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path), scipy],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, (scipy, done.stderr)
        assert done.stdout == "[0, 0, 0, 0, 0] []\n", scipy


class TestUsageErrors:
    """Everything user-fixable exits 1 with a message on stderr."""

    @pytest.fixture
    def no_run(self, monkeypatch):
        """Fail the test if a cone or a point classification is computed."""
        def boom(*args, **kwargs):
            raise AssertionError("the run started before the usage check")
        monkeypatch.setattr(geometry, "tangent_cone", boom)
        monkeypatch.setattr(analysis, "classify_point", boom)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fn", "x +", "--at", "0"],
        ["analyze", "--builtin", "nope", "--at", "0"],
        ["analyze", "--fn", "x"],
        ["analyze", "--builtin", "abs", "--at", "0,0"],
        ["analyze", "--builtin", "abs", "--at", "zero"],
        ["analyze", "--builtin", "abs", "--at", "0", "--ladder", "1,0.5"],
        ["cones", "--csv", "/nonexistent.csv", "--at", "0,0"],
        ["verify", "--only", "nope"],
        [],
    ])
    def test_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("fn", ["1e", "1e+", "x1*2E-"])
    def test_exponent_without_digits(self, capsys, fn):
        code, out, err = run(capsys, "analyze", "--fn", fn, "--at", "0")
        assert code == 1 and out == ""
        assert err.startswith("conecalc: error:")
        assert len(err.strip().splitlines()) == 1

    def test_parse_error_carries_position(self, capsys):
        code, _, err = run(capsys, "analyze", "--fn", "x ~ 2", "--at", "0")
        assert code == 1
        assert "position" in err

    def test_bad_csv_header(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n0,0\n")
        code, _, err = run(capsys, "cones", "--csv", str(p), "--at", "0,0")
        assert code == 1 and "header" in err

    def test_plot_needs_plane_cloud(self, capsys, tmp_path, no_run):
        p = tmp_path / "c3.csv"
        rows = "\n".join(f"{v},{v},{v}" for v in np.linspace(0, 1, 50))
        p.write_text("x1,x2,x3\n" + rows + "\n")
        code, _, err = run(capsys, "cones", "--csv", str(p), "--at", "0,0,0",
                           "--plot", str(tmp_path / "p.csv"),
                           "--ladder", "0.5,0.5,0,3")
        assert code == 1 and "plot" in err

    @pytest.mark.parametrize("depth", [11, 99])
    def test_deep_preiss_builtin(self, capsys, monkeypatch, no_run, depth):
        # rejected before its tables, which grow fourfold a level, are built
        def boom(depth):
            raise AssertionError("the tables were built")
        monkeypatch.setattr(funcs, "_preiss_tables", boom)
        code, out, err = run(capsys, "analyze", "--builtin",
                             f"preiss_lip({depth})", "--at", "0")
        assert code == 1 and out == ""
        assert err.startswith("conecalc: error:") and "preiss_lip" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["analyze", "--fn", "x1", "--at", "0"],
                                      ["builtins"]])
    def test_non_integer_seed_variable(self, argv):
        # in a fresh interpreter, as a shell runs it
        env = dict(os.environ, PYTHONPATH=str(SRC), CONECALC_SEED="abc")
        done = subprocess.run([sys.executable, "-m", "conecalc.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("conecalc: error:")
        assert "CONECALC_SEED" in done.stderr and "'abc'" in done.stderr
        assert len(done.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("cell,row", [("nan", 3), ("inf", 3), ("-inf", 2)])
    def test_non_finite_csv_cell(self, capsys, tmp_path, cell, row):
        p = tmp_path / "c.csv"
        lines = ["0,0", "1,1", "2,2"]
        lines[row - 2] = f"0,{cell}"
        p.write_text("x1,x2\n" + "\n".join(lines) + "\n")
        for cmd in (("cones", "--csv", str(p), "--at", "0,0"),
                    ("analyze", "--csv", str(p), "--at", "0")):
            code, out, err = run(capsys, *cmd)
            assert code == 1
            assert out == ""
            assert err.startswith(f"conecalc: error: {p}:{row}: non-finite")
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("header,body", [
        ("x1,x2,x3", "0,0,0\n0,1,1\n0,2,3\n"),
        ("x1,x2", "0,1\n"),
    ])
    def test_function_table_with_one_node_on_an_axis(self, capsys, tmp_path,
                                                     header, body):
        p = tmp_path / "t.csv"
        p.write_text(f"{header}\n{body}")
        at = "0,1" if header.count(",") == 2 else "0"
        code, out, err = run(capsys, "analyze", "--csv", str(p), "--at", at)
        assert code == 1
        assert out == ""
        assert err == (f"conecalc: error: {p}: every axis of a function table "
                       "needs at least two nodes\n")

    @pytest.mark.parametrize("header,body,row,want,got", [
        ("x1,x2", "0,0\n1,1,1\n", 3, 2, 3),
        ("x1,x2", "0,0\n\n1\n", 4, 2, 1),
        ("x1,x2", "0,0,\n", 2, 2, 3),
        ("x1,x2,label", "0,0,A\n0,0\n", 3, 3, 2),
        ("x1,x2,label", "0,0,A,B\n", 2, 3, 4),
    ])
    def test_ragged_csv_row(self, capsys, tmp_path, header, body, row, want,
                            got):
        p = tmp_path / "c.csv"
        p.write_text(f"{header}\n{body}")
        code, out, err = run(capsys, "cones", "--csv", str(p), "--at", "0,0")
        assert code == 1
        assert out == ""
        assert err == (f"conecalc: error: {p}:{row}: expected {want} cells, "
                       f"got {got}\n")

    @pytest.mark.parametrize("at", ["nan", "0,inf", "0,-inf"])
    def test_non_finite_point(self, capsys, at):
        code, out, err = run(capsys, "analyze", "--fn", "x1", "--at", at)
        assert code == 1
        assert out == ""
        assert err == f"conecalc: error: bad --at value {at!r}: coordinates must be finite\n"

    @pytest.mark.parametrize("argv", [
        ["builtins", "--report", "{missing}/x.json"],
        ["analyze", "--csv", "{tmp}", "--at", "0"],
        ["cones", "--csv", "{cloud}", "--at", "0,0", "--plot", "{missing}/p.csv"],
        ["cones", "--csv", "{cloud}", "--at", "0,0", "--report", "{missing}/r.json"],
        ["cones", "--csv", "{cloud}", "--at", "0,0", "--report", "{tmp}"],
        ["analyze", "--fn", "x1", "--at", "0", "--report", "{missing}/r.json"],
    ])
    def test_file_faults(self, capsys, tmp_path, no_run, argv):
        names = {"tmp": str(tmp_path), "missing": str(tmp_path / "missing"),
                 "cloud": write_cloud(tmp_path, n=2000)}
        argv = [a.format(**names) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("conecalc: error: ")
        assert len(err.strip().splitlines()) == 1
        assert str(tmp_path) in err

    def test_output_fault_keeps_an_existing_report(self, capsys, tmp_path,
                                                   no_run):
        report = tmp_path / "r.json"
        report.write_text("old report\n")
        code, _, err = run(capsys, "cones", "--csv", write_cloud(tmp_path, n=200),
                           "--at", "0,0", "--report", str(report),
                           "--plot", str(tmp_path / "missing" / "p.csv"))
        assert code == 1 and "--plot" in err
        assert report.read_text() == "old report\n"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fn", "x1", "--at", "0", "--tol", "nan"],
        ["analyze", "--fn", "x1", "--at", "0", "--tol", "inf"],
        ["analyze", "--fn", "x1", "--at", "0", "--tol", "-1"],
        ["analyze", "--fn", "x1", "--at", "0", "--tol", "tiny"],
        ["cones", "--csv", "c.csv", "--at", "0,0", "--tol", "0.1"],
    ])
    def test_tolerance_faults(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("conecalc: error: ")
        assert "--tol" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("ladder", ["0.1,1.5,0,6", "0.1,1.5,0,60",
                                        "0.1,0.5,0,60", "0.1,0.5,6,6",
                                        "nan,0.5,4,16", "inf,0.5,4,16",
                                        "-1,0.5,4,16", "-inf,0.5,4,16"])
    def test_out_of_range_ladder(self, capsys, ladder):
        code, out, err = run(capsys, "analyze", "--fn", "abs(x1)", "--at", "0",
                             "--ladder", ladder)
        assert code == 1
        assert out == ""
        assert err.startswith("conecalc: error: bad --ladder value")
        assert len(err.strip().splitlines()) == 1

    def test_non_finite_ladder_on_cones(self, capsys, tmp_path, no_run):
        code, out, err = run(capsys, "cones", "--csv", write_cloud(tmp_path, n=200),
                             "--at", "0,0", "--ladder", "nan,0.5,0,6")
        assert code == 1
        assert out == ""
        assert err.startswith("conecalc: error: bad --ladder value")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("jobs", ["0", "-3", "two", "1.5"])
    def test_jobs_below_one(self, capsys, tmp_path, no_run, jobs):
        for cmd in (("analyze", "--fn", "abs(x1)", "--at", "0"),
                    ("cones", "--csv", write_cloud(tmp_path, n=200), "--at", "0,0")):
            code, out, err = run(capsys, *cmd, "--jobs", jobs)
            assert code == 1
            assert out == ""
            assert err.startswith("conecalc: error: argument --jobs: need an integer >= 1")
            assert len(err.strip().splitlines()) == 1


class TestEstimationErrors:
    def test_evaluation_failure_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--fn", "1/0", "--at", "1")
        assert code == 2
        assert out == ""
        assert "evaluation failed" in err

    @pytest.mark.parametrize("fn,at", [("x1", "0"), ("x1+x2", "0,0")])
    def test_probes_past_the_float_range_exit_2_in_one_line(self, capsys, fn, at):
        # the probes overflow to inf: no numpy warning, only the handle's
        # own message
        code, out, err = run(capsys, "analyze", "--fn", fn, "--at", at,
                             "--ladder", "1e308,0.5,0,3")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"conecalc: evaluation failed: {fn} is non-finite at")

    def test_verify_failure_exits_2(self, capsys, monkeypatch):
        monkeypatch.setitem(
            verify.PROPERTIES, "always-fails",
            lambda seed: {"passed": False, "worst": 1.0, "tolerance": 0.5,
                          "cases": 1})
        code, out, _ = run(capsys, "verify", "--only", "always-fails")
        assert code == 2
        rep = json.loads(out)
        assert rep["suite"]["all_passed"] is False
        VALIDATOR.validate(rep)


class TestReports:
    def test_analyze_report_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "abs",
                           "--at", "0", "--at", "1",
                           "--check", "conormal-upper",
                           "--check", "epigraph-split", "--seed", "0")
        assert code == 0
        rep = json.loads(out)
        VALIDATOR.validate(rep)
        assert rep["function"] == {"name": "abs", "m": 1, "n": 1,
                                   "kind": "builtin"}
        r0 = rep["results"][0]["classification"]
        assert r0["lipschitz"] is True
        assert r0["strictly_differentiable"] is False
        assert set(rep["results"][0]["checks"]) == {"conormal-upper",
                                                    "epigraph-split"}

    def test_cones_report_schema(self, capsys, tmp_path):
        path = write_cloud(tmp_path)
        code, out, _ = run(capsys, "cones", "--csv", path,
                           "--at", "0,0", "--seed", "0")
        assert code == 0
        rep = json.loads(out)
        VALIDATOR.validate(rep)
        assert rep["cloud"]["labeled"] is True
        row = rep["results"][0]
        for key in ("tangent", "whitney", "strict",
                    "conormal_lower", "conormal_upper"):
            assert "dim" in row[key]

    def test_verify_report_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "bipolarity",
                           "--seed", "0")
        assert code == 0
        rep = json.loads(out)
        VALIDATOR.validate(rep)
        assert rep["suite"]["results"][0]["name"] == "bipolarity"

    def test_builtins_report_schema(self, capsys):
        code, out, _ = run(capsys, "builtins")
        assert code == 0
        rep = json.loads(out)
        VALIDATOR.validate(rep)
        names = {b["name"] for b in rep["builtins"]}
        assert {"abs", "x2sin", "cube", "preiss_lip(d)"} <= names
        assert all(b["summary"] for b in rep["builtins"])

    def test_report_flag_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "--builtin", "cube",
                           "--at", "1", "--report", str(dest))
        assert code == 0
        assert out == ""
        rep = json.loads(dest.read_text())
        VALIDATOR.validate(rep)
        deriv = rep["results"][0]["classification"]["derivative"][0][0]
        assert deriv == pytest.approx(3.0, abs=1e-3)

    def test_csv_function_source(self, capsys, tmp_path):
        xs = np.linspace(-1.0, 1.0, 201)
        body = "\n".join(f"{x},{2.0 * x}" for x in xs)
        p = tmp_path / "lin.csv"
        p.write_text("x1,x2\n" + body + "\n")
        code, out, _ = run(capsys, "analyze", "--csv", str(p), "--at", "0.25")
        assert code == 0
        rep = json.loads(out)
        cls = rep["results"][0]["classification"]
        assert cls["strictly_differentiable"] is True
        assert cls["derivative"][0][0] == pytest.approx(2.0, abs=1e-2)

    def test_infinity_encoding(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "sqrt_abs",
                           "--at", "0")
        assert code == 0
        cls = json.loads(out)["results"][0]["classification"]
        assert cls["lipschitz"] is False
        assert cls["lipschitz_constant"] == {"inf": True, "sign": 1}

    def test_negative_point_in_the_spaced_form(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fn", "abs(x1)+x2",
                           "--at", "-0.5,0.2", "--ladder", "0.1,0.5,4,10")
        assert code == 0
        rep = json.loads(out)
        assert rep["config"]["at"] == [[-0.5, 0.2]]
        assert rep["results"][0]["point"] == [-0.5, 0.2]

    def test_leading_minus_fn_in_the_spaced_form(self, capsys):
        spaced = run(capsys, "analyze", "--fn", "-abs(x1)", "--at", "0")
        joined = run(capsys, "analyze", "--fn=-abs(x1)", "--at", "0")
        assert spaced[0] == joined[0] == 0
        assert spaced[1] == joined[1]
        assert json.loads(spaced[1])["config"]["fn"] == "-abs(x1)"

    def test_angles_round_to_six_decimals(self, capsys):
        _, out, _ = run(capsys, "analyze", "--builtin", "abs", "--at", "0")
        arcs = json.loads(out)["results"][0]["classification"]["whitney"]["arcs"]
        assert arcs
        for lo, hi in arcs:
            assert lo == round(lo, 6) and hi == round(hi, 6)


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ("analyze", "--builtin", "x2sin", "--at", "0", "--seed", "7")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_jobs_do_not_change_results(self, capsys):
        base = ("analyze", "--builtin", "abs", "--at", "0", "--at", "0.5",
                "--seed", "3")
        _, one, _ = run(capsys, *base, "--jobs", "1")
        _, two, _ = run(capsys, *base, "--jobs", "4")
        assert json.loads(one)["results"] == json.loads(two)["results"]

    def test_cones_jobs_do_not_change_results(self, capsys, tmp_path):
        base = ("cones", "--csv", write_cloud(tmp_path, n=2000), "--at", "0,0",
                "--at", "0.3,-0.2", "--seed", "3")
        _, one, _ = run(capsys, *base, "--jobs", "1")
        _, two, _ = run(capsys, *base, "--jobs", "2")
        assert json.loads(one)["results"] == json.loads(two)["results"]

    @pytest.mark.parametrize("written,plain", [("x1*1e-3", "x1*0.001"),
                                               ("2.5E+2*x1", "250*x1")])
    def test_exponent_notation_reads_as_the_plain_number(self, capsys, written, plain):
        got = [json.loads(run(capsys, "analyze", "--fn", fn, "--at", "0.1")[1])
               ["results"][0]["classification"] for fn in (written, plain)]
        assert got[0] == got[1]

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CONECALC_SEED", "11")
        _, out, _ = run(capsys, "verify", "--only", "bipolarity")
        assert json.loads(out)["config"]["seed"] == 11


def test_runs_load_only_modules_they_use(tmp_path):
    # the thread pool loads only for --jobs > 1, and numpy.ma, which a bare
    # 1-D np.unique, np.isin or np.quantile loads, is never needed
    wedge_cloud_csv(tmp_path / "cloud.csv", n=1500)
    labeled_ball_csv(tmp_path / "ball.csv", n=1500)
    script = (
        "import sys\n"
        "import conecalc.cli as cli\n"
        "watch = {'concurrent.futures', 'numpy.ma'}\n"
        "on_import = sorted(watch & set(sys.modules))\n"
        "out = sys.argv[1]\n"
        "codes = [cli.main(['analyze', '--fn', 'sin(x1)+x2*x2', '--at', "
        "'0.3,-0.2', '--report', out + '/a.json']),\n"
        "         cli.main(['cones', '--csv', out + '/cloud.csv', '--at', "
        "'0,0,0', '--seed', '0', '--report', out + '/c.json']),\n"
        "         cli.main(['cones', '--csv', out + '/ball.csv', '--at', "
        "'0,0,0', '--seed', '0', '--report', out + '/b.json'])]\n"
        "print(on_import, codes, sorted(watch & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] [0, 0, 0] []\n"
    # the labeled run found both labels, so its strict cone is not full
    strict = json.loads((tmp_path / "b.json").read_text())["results"][0]["strict"]
    assert strict["kind"] != "full"


def wedge_cloud_csv(path, n=3000, seed=5):
    """n seeded points of {x3 >= |x1|} in the unit ball, apex first."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=(8 * n, 3))
    keep = (np.einsum("ij,ij->i", u, u) <= 1.0) & (u[:, 2] >= np.abs(u[:, 0]))
    pts = np.vstack([np.zeros((1, 3)), u[keep][:n - 1]])
    path.write_text("x1,x2,x3\n" + "".join(
        ",".join(repr(float(v)) for v in p) + "\n" for p in pts))


def labeled_ball_csv(path, n=3000, seed=7):
    """n seeded points of the unit ball, origin first, labeled A on the
    wedge {x3 >= |x1|} and B off it."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=(2 * n, 3))
    pts = np.vstack([np.zeros((1, 3)), u[np.einsum("ij,ij->i", u, u) <= 1.0][:n - 1]])
    labels = np.where(pts[:, 2] >= np.abs(pts[:, 0]), "A", "B")
    path.write_text("x1,x2,x3,label\n" + "".join(
        ",".join(repr(float(v)) for v in p) + f",{lab}\n"
        for p, lab in zip(pts, labels)))


class TestRenderReport:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_raises(self, bad):
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, bad, 1.0]])
        report = {"cone": FiberCone(3, cones.Sampled(dirs, 0.1))}
        with pytest.raises(ValueError, match="refusing to serialize NaN"):
            cli.render_report(report)


class TestReportRows:
    """A sampled cone off the plane writes its true count and at most
    REPORT_ROWS of its members, every ceil(count / REPORT_ROWS)-th."""

    @pytest.mark.parametrize("count,step", [(0, 1), (1, 1), (255, 1), (256, 1),
                                            (257, 2), (200_000, 782)])
    def test_writes_the_count_and_every_step_th_member(self, count, step):
        dirs = np.random.default_rng(count).normal(size=(count, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        out = cli.cone_to_json(FiberCone(3, cones.Sampled(dirs, 0.05)))
        assert out["count"] == count
        assert out["directions"] == np.round(dirs[::step], 6).tolist()


# special values for the six-decimal rounding: signed zeros, exponent
# forms, |v| > 1 and values with more than six decimals
ROW_VALUES = (0.0, -0.0, 1.0, -1.0, 1e-4, -1e-4, 0.999999, -0.5, 0.12,
              -1e-06, 9.9e-05, 5e-05, 1.5, 123456.5, 1e300, -1.0000001,
              0.1234567, 3e-300)


class TestMatrixText:
    """The direction matrix a report holds: the cone's capped rows rounded
    to six decimals, which read back from the JSON text bit for bit."""

    @staticmethod
    def check(a):
        want = np.round(a[::max(1, math.ceil(len(a) / cli.REPORT_ROWS))], 6)
        text = json.dumps(cli._report_rows(a), indent=2)
        got = np.array(json.loads(text), dtype=float).reshape(want.shape)
        assert len(got) <= cli.REPORT_ROWS
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("count", [0, 1, 1 << 14, (1 << 14) + 1])
    def test_rounded_rows_with_special_values(self, width, count):
        rng = np.random.default_rng(width * count)
        a = rng.uniform(-1.0, 1.0, (count, width))
        spots = rng.integers(0, a.size, min(a.size, 300))
        a.ravel()[spots] = rng.choice(ROW_VALUES, len(spots))
        self.check(a)

    @pytest.mark.parametrize("value", ROW_VALUES)
    def test_each_value(self, value):
        self.check(np.full((3, 3), value))
        self.check(np.array([[value, 0.5, -value]]))

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-7])
    def test_unrounded_values(self, scale):
        rng = np.random.default_rng(1)
        self.check(scale * rng.normal(size=((1 << 14) + 5, 3)))


def sampled_cone_forms(node):
    """Every sampled cone form with a direction list inside a parsed report."""
    if isinstance(node, dict):
        if node.get("kind") == "sampled" and "directions" in node:
            yield node
        for v in node.values():
            yield from sampled_cone_forms(v)
    elif isinstance(node, list):
        for v in node:
            yield from sampled_cone_forms(v)


def assert_bounded(text: str, validate: bool = True) -> None:
    """The report text validates against the schema, and each sampled
    cone writes every ceil(count / 256)-th of its members: all of them up
    to 256, never more than 256."""
    doc = json.loads(text)
    if validate:
        VALIDATOR.validate(doc)
    for cone in sampled_cone_forms(doc):
        step = max(1, math.ceil(cone["count"] / 256))
        assert len(cone["directions"]) == len(range(0, cone["count"], step))


def cone_nonempty(cone: dict) -> bool:
    """Whether the report form of a cone has a nonzero member."""
    if cone["kind"] == "polyhedral":
        return "halfspaces" in cone
    return bool(cone.get("count") or cone.get("arcs"))


# argv of the analyze goldens, run with --seed 0
GOLDEN_ANALYZE = {
    "abs": ("--fn", "abs(x1)", "--at", "0"),
    "x2sin": ("--fn", "x1*x1*sin(1/x1)", "--at", "0"),
    "sin-2d": ("--fn", "sin(x1)+x2*x2", "--at", "0.3,-0.2", "--ladder", "0.1,0.5,0,6"),
    "map-2d": ("--fn", "x1+x2*x2, x1*x2", "--at", "0.2,-0.1",
               "--ladder", "0.1,0.5,12,15"),
    "abs-checks": ("--fn", "abs(x1)", "--at", "0", "--check", "conormal-upper",
                   "--check", "epigraph-split"),
    "abs-2d-checks": ("--fn", "abs(x1)+x2", "--at", "0,0", "--check",
                      "conormal-upper", "--check", "epigraph-split"),
    # the graph Whitney cone of a 3-D domain comes from the slab scan of
    # 512 antipodal pairs of domain directions
    "3d": ("--fn", "x1+x2+x3", "--at", "0,0,0", "--ladder", "0.1,0.5,4,10"),
    # a W of 74 960 members: slice-top and the lower check take their dots
    # in many cache-sized blocks
    "abs-abs": ("--fn", "abs(x1)+abs(x2)", "--at", "0,0"),
}


@functools.cache
def golden_stdout(name: str) -> str:
    """The analyze golden's report, run once for the digest and verdicts."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["analyze", *GOLDEN_ANALYZE[name], "--seed", "0"]) == 0
    return out.getvalue()


@functools.cache
def time_function_golden() -> dict:
    lad = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=0, k_max=12, seed=0)
    ray = FiberCone.from_directions(np.array([[1.0]]), 1, resolution=1e-9)
    return analysis.time_function_check(funcs.builtin("cube"), ray,
                                        [[-0.5], [0.0], [0.7]], lad)


class TestGoldenReports:
    """Report bytes pinned by sha256; a speedup must leave them unchanged.

    A change of report bytes on purpose re-pins the digests; the verdict
    tables must hold across it."""

    @pytest.mark.parametrize("name,digest", [
        pytest.param("abs",
                     "3d4031e89fd6a962bb3012e24717c5654ce14051e1acd124f4ef3e183c0a00fe",
                     id="abs"),
        pytest.param("x2sin",
                     "875fc00ba6e0f249441b41c956b891e711f933e58e56e8ba7744b61f3c2f0a7b",
                     id="x2sin"),
        pytest.param("sin-2d",
                     "55e59609b4daf180874ecdcb97988327e693e294ed525b16cabc5089561d3059",
                     id="sin-2d"),
        pytest.param("map-2d",
                     "c6742c96685f73b7e174a22382e44fb9b0864ded287dff2e2d303608fc78b618",
                     id="map-2d"),
        pytest.param("abs-checks",
                     "86015a158f4d3e95f22d37438eee86788bd2a70d45dd5628d0477c6d8e6b8a7a",
                     id="abs-checks"),
        pytest.param("abs-2d-checks",
                     "ece2ddf16e2d7342d14993e243691fcf0b5be37e0bbe706b1713078d9ee2f2e7",
                     id="abs-2d-checks"),
        pytest.param("abs-abs",
                     "ca5de9443ebae1ce4529ba76374615f8bf1b2c0e2c987ea600095456f132a7ac",
                     id="abs-abs"),
    ])
    def test_analyze_report_digest(self, name, digest):
        assert_bounded(golden_stdout(name))
        assert hashlib.sha256(golden_stdout(name).encode()).hexdigest() == digest

    def test_verify_stdout_digest(self, capsys):
        # the whole suite at seed 0, compose-associativity included
        code, out, _ = run(capsys, "verify", "--seed", "0")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "c219ef9c17ee7ac7544e99150a6b52e8af409457de1898c834ae44381f010ad1")

    def test_3d_domain_report_digest(self):
        assert_bounded(golden_stdout("3d"))
        assert (hashlib.sha256(golden_stdout("3d").encode()).hexdigest()
                == "9d87f5efbe7bac64d16ccc213ecfb1ae3c2624b14002070a9b096cd0ca9bb541")

    # lipschitz, strictly_differentiable, derivative (within 1e-3),
    # fo_extremum, dual_agrees (None: the report has no dual verdict)
    @pytest.mark.parametrize("name,lip,strict,deriv,fo,dual", [
        pytest.param("abs", True, False, None, "min", True, id="abs"),
        pytest.param("x2sin", True, False, None, "stationary", True, id="x2sin"),
        pytest.param("sin-2d", True, True, [[0.9555, -0.4002]], "none", True,
                     id="sin-2d"),
        pytest.param("map-2d", True, True, [[1.0, -0.2], [-0.1, 0.2]], None, None,
                     id="map-2d"),
        pytest.param("abs-checks", True, False, None, "min", True, id="abs-checks"),
        pytest.param("abs-2d-checks", True, False, None, "none", True,
                     id="abs-2d-checks"),
        pytest.param("3d", True, True, [[1.0, 1.0, 1.0]], "none", True, id="3d"),
        pytest.param("abs-abs", True, False, None, "min", True, id="abs-abs"),
    ])
    def test_analyze_verdicts(self, name, lip, strict, deriv, fo, dual):
        c = json.loads(golden_stdout(name))["results"][0]["classification"]
        assert (c["lipschitz"], c["strictly_differentiable"]) == (lip, strict)
        if deriv is None:
            assert c["derivative"] is None
        else:
            assert np.abs(np.array(c["derivative"]) - deriv).max() <= 1e-3
        assert c["fo_extremum"] == fo
        assert c["checks"].get("dual_agrees") == dual
        if dual is not None:
            # an empty upper bound has no horizontal covector, so it would
            # agree with any Lipschitz verdict
            assert cone_nonempty(c["conormal"]["upper"])

    def test_cones_report_digest(self, capsys, tmp_path, monkeypatch):
        # the report embeds the --csv path, so it is relative
        monkeypatch.chdir(tmp_path)
        wedge_cloud_csv(tmp_path / "cloud.csv")
        code, out, _ = run(capsys, "cones", "--csv", "cloud.csv",
                           "--at", "0,0,0", "--seed", "0")
        assert code == 0
        assert_bounded(out)
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "4b466660bbba9a91769f48685b9f13d7b9ba8b369afbf8bb67ef1dc5410e0c0c")

    @pytest.mark.parametrize("write,digest", [
        # 8000 wedge points: the voxel stage decides most persistence rows
        pytest.param(
            lambda p: wedge_cloud_csv(p, n=8000),
            "6883f9c9dcea12cf4db88af29825141caba2c6ae1743b957d0b545fa391e6bb5",
            id="wedge"),
        # a labeled 3-D ball: the strict cone of the wedge part
        pytest.param(
            labeled_ball_csv,
            "b82c50df9c696dedd6259d372fd26af35970679f9dc9f2787512092b952ae929",
            id="labeled-ball"),
    ])
    def test_3d_cones_report_digest(self, capsys, tmp_path, monkeypatch,
                                    write, digest):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "cloud.csv")
        code, out, _ = run(capsys, "cones", "--csv", "cloud.csv",
                           "--at", "0,0,0", "--seed", "0")
        assert code == 0
        assert_bounded(out)
        # each cone writes at most 256 of its tens of thousands of rows
        assert len(out.encode()) < 100_000
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_labeled_cones_report_digest(self, capsys, tmp_path, monkeypatch):
        # tangent and strict cones of the A part, then their polars
        monkeypatch.chdir(tmp_path)
        write_cloud(tmp_path, n=2000)
        code, out, _ = run(capsys, "cones", "--csv", "cloud.csv",
                           "--at", "0,0", "--seed", "0")
        assert code == 0
        assert_bounded(out)
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "3ec2d5ded4b1a0ac3183e367a00578ce2c7e6989870aa0a31f6abce47464d0ed")

    def test_time_function_report_digest(self):
        out = cli.render_report(time_function_golden())
        # not a command's report, so there is no schema to hold it to
        assert_bounded(out, validate=False)
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "8c5044523ffb91fbc12aa48b4760497b3ecb4a9ac8a7c9fcaed61077dd7e3cb7")

    def test_time_function_verdicts(self):
        out = time_function_golden()
        assert (out["causal"], out["time_function"]) == (True, False)
        got = [(e["lipschitz"], e["causal"], e["dual_ok"], e["time_function"])
               for e in out["per_point"]]
        # cube at -0.5, 0 (a vertical covector: not submersive) and 0.7
        assert got == [(True, True, True, True), (True, True, True, False),
                       (True, True, True, True)]


class TestLineClouds:
    """1-D clouds: the grid resolution is 0, so persistence decides at
    tol = 0 and merges only equal directions."""

    @staticmethod
    def cones_at_zero(capsys, tmp_path, lo):
        xs = np.linspace(lo, 1.0, 2001)
        path = tmp_path / "line.csv"
        path.write_text("x1\n" + "".join(f"{float(v)!r}\n" for v in xs))
        code, out, _ = run(capsys, "cones", "--csv", str(path), "--at", "0",
                           "--seed", "0")
        assert code == 0
        res = json.loads(out)["results"][0]
        return {name: sorted(res[name]["directions"])
                for name in ("tangent", "whitney")}

    def test_interval_interior(self, capsys, tmp_path):
        got = self.cones_at_zero(capsys, tmp_path, -1.0)
        assert got == {"tangent": [[-1.0], [1.0]], "whitney": [[-1.0], [1.0]]}

    def test_interval_end(self, capsys, tmp_path):
        got = self.cones_at_zero(capsys, tmp_path, 0.0)
        assert got == {"tangent": [[1.0]], "whitney": [[-1.0], [1.0]]}


class TestPlot:
    def test_plot_file_format(self, capsys, tmp_path):
        path = write_cloud(tmp_path)
        dest = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "cones", "--csv", path, "--at", "0,0",
                         "--plot", str(dest), "--seed", "0")
        assert code == 0
        with open(dest, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["point_index", "cone", "arc", "theta", "ux", "uy"]
        assert len(rows) > 1
        kinds = set()
        for idx, name, arc, theta, ux, uy in rows[1:]:
            kinds.add(name)
            th = float(theta)
            assert math.cos(th) == pytest.approx(float(ux), abs=1e-5)
            assert math.sin(th) == pytest.approx(float(uy), abs=1e-5)
        assert kinds <= {"tangent", "whitney", "strict"}
        assert "tangent" in kinds

    def test_single_ray_gets_one_row(self):
        rows = list(cli._plot_rows(0, "tangent", FiberCone.from_arcs([(0.3, 0.3)])))
        assert rows == [[0, "tangent", 0, 0.3, 0.955336, 0.29552]]

    def test_wedge_traced_at_degree_steps(self):
        w = FiberCone.from_arcs([(0.0, 0.5 * math.pi)])
        rows = list(cli._plot_rows(1, "whitney", w))
        assert len(rows) == 91
        assert rows[0][3:] == [0.0, 1.0, 0.0]
        assert rows[-1][3] == pytest.approx(0.5 * math.pi, abs=1e-6)
