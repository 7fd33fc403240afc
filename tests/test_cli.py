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
from hypothesis import given, settings, strategies as st

from conecalc import (analysis, cli, cones, conormal, dini, funcs,
                      geometry, verify)
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


def test_runs_load_no_scipy_package_beyond_the_kd_tree_extension(tmp_path):
    # importing scipy.spatial runs its __init__, which loads scipy.linalg
    # and scipy.special for a third of a second a run; sampling loads the
    # KD-tree extension alone and ports ndtri, and a 2-D function table is
    # read without scipy.interpolate, so the 2-D and 3-D analyze (of an
    # expression and of a table), cones and verify leave every one of
    # these packages unloaded
    wedge_cloud_csv(tmp_path / "cloud.csv", n=300)
    axis = np.linspace(-1.0, 1.0, 21).tolist()
    (tmp_path / "table.csv").write_text("x1,x2,x3\n" + "".join(
        f"{x!r},{y!r},{x + y * y!r}\n" for x in axis for y in axis))
    script = (
        "import sys\n"
        "import conecalc.cli as cli\n"
        "from conecalc import sampling\n"
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
        "heavy = ['scipy.spatial', 'scipy.special', 'scipy.linalg', "
        "'scipy.stats', 'scipy.optimize', 'scipy.interpolate']\n"
        "print(codes, [name for name in heavy if name in sys.modules])\n"
        "import scipy.spatial\n"
        "print(scipy.spatial.cKDTree is sampling.cKDTree)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[0, 0, 0, 0, 0] []\nTrue\n"


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

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CONECALC_SEED", "11")
        _, out, _ = run(capsys, "verify", "--only", "bipolarity")
        assert json.loads(out)["config"]["seed"] == 11


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


SPECIAL_VALUES = (-0.0, 0.0, 1e-05, -1e-05, 5e-07, 1.0, -1.0)


@st.composite
def sampled_cones(draw, counts=(0, 1, 2, 5, 7000)):
    """Sampled cones of dim 3-5 with one of the given row counts."""
    dim = draw(st.sampled_from((3, 4, 5)))
    values = st.one_of(st.sampled_from(SPECIAL_VALUES),
                       st.floats(-1.0, 1.0, allow_nan=False))
    base = draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                         min_size=1, max_size=6))
    count = draw(st.sampled_from(counts))
    dirs = np.resize(np.array(base, dtype=float), (count, dim))
    return FiberCone(dim, cones.Sampled(dirs, draw(st.floats(0.0, 1.0))))


def library_render(report) -> str:
    return json.dumps(cli.to_jsonable(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


class TestRenderReport:
    """render_report writes direction matrices itself; the bytes must be
    those of the library encoder."""

    @given(sampled_cones(), sampled_cones(), sampled_cones(), sampled_cones(),
           st.floats(allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_equals_library_encoder(self, a, b, c, d, x):
        report = {"top": a, "list": [b, {"nested": c, "value": x}],
                  "conormal": conormal.ConormalEstimate(
                      lower=d, upper=a, regime="bounds-only", exact=b,
                      checks={"cone": c, "ok": True}),
                  "tail": [1, "text", None]}
        assert_same_text(cli.render_report(report), library_render(report))

    @given(sampled_cones(counts=(cli._ROW_BLOCK + 1, 2 * cli._ROW_BLOCK + 3)),
           sampled_cones())
    @settings(max_examples=8, deadline=None)
    def test_cones_over_one_block_equal_library_encoder(self, a, b):
        report = {"big": a, "small": [b, {"again": a}]}
        assert_same_text(cli.render_report(report), library_render(report))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_raises(self, bad):
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, bad, 1.0]])
        report = {"cone": FiberCone(3, cones.Sampled(dirs, 0.1))}
        for render in (cli.render_report, library_render):
            with pytest.raises(ValueError, match="refusing to serialize NaN"):
                render(report)


def assert_same_text(got, want):
    """got == want, reporting the first difference (pytest's own diff of
    megabyte strings takes minutes)."""
    same = got == want
    at = len(os.path.commonprefix([got, want]))
    lo = max(0, at - 30)
    assert same, f"differs at {at}: {got[lo:at + 30]!r} != {want[lo:at + 30]!r}"


def library_matrix(a, indent):
    return json.dumps(a.tolist(), indent=2).replace("\n", "\n" + " " * indent)


# written by the digit rule, and by repr: exponent forms, |v| > 1, and
# values with more than six decimals
DIGIT_VALUES = (0.0, -0.0, 1.0, -1.0, 1e-4, -1e-4, 0.999999, -0.5, 0.12)
REPR_VALUES = (-1e-06, 9.9e-05, 5e-05, 1.5, 123456.5, 1e300, -1.0000001,
               0.1234567, 3e-300)


class TestMatrixText:
    """_matrix_text writes the bytes of json.dumps, re-indented."""

    @staticmethod
    def check(a, indent=4):
        pieces = cli._matrix_text(a, indent)
        assert_same_text("".join(pieces), library_matrix(a, indent))
        return pieces

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("count", [0, 1, cli._ROW_BLOCK, cli._ROW_BLOCK + 1])
    def test_rounded_rows_with_special_values(self, width, count):
        rng = np.random.default_rng(width * count)
        a = np.round(rng.uniform(-1.0, 1.0, (count, width)), 6)
        spots = rng.integers(0, a.size, min(a.size, 300))
        a.ravel()[spots] = rng.choice(DIGIT_VALUES + REPR_VALUES, len(spots))
        for indent in (0, 6):
            self.check(a, indent)

    @pytest.mark.parametrize("value", DIGIT_VALUES + REPR_VALUES)
    def test_each_value(self, value):
        self.check(np.full((3, 3), value))
        self.check(np.array([[value, 0.5, -value]]))

    def test_every_six_decimal_value(self):
        # against repr, which json writes, since the encoder takes seconds
        v = np.arange(-10 ** 6, 10 ** 6 + 1) / 1e6
        text = "".join(cli._matrix_text(v.reshape(-1, 1), 0))
        want = "".join(f"\n  [\n    {x!r}\n  ]," for x in v.tolist())
        assert_same_text(text, "[" + want[:-1] + "\n]")

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-7])
    def test_unrounded_values(self, scale):
        rng = np.random.default_rng(1)
        self.check(scale * rng.normal(size=(cli._ROW_BLOCK + 5, 3)))

    def test_one_long_value_widens_only_its_block(self):
        a = np.full((2 * cli._ROW_BLOCK + 1, 3), 0.25)
        a[cli._ROW_BLOCK + 7, 1] = -1.2345678901234567e-300
        pieces = self.check(a)
        assert len(pieces) == 4


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
                     "5a52f0fa51071f4d6f8d0ed34e4415645f9af34fb9824a22abe70271bf87f1b8",
                     id="abs"),
        pytest.param("x2sin",
                     "c771c451cd7bf34dfb72463fef8a8a31c82093094de9295acfcd9d769aae97dc",
                     id="x2sin"),
        pytest.param("sin-2d",
                     "4ed204d8b4720890a269ea0b97e880b646abea96d8fb043df0c929b6ee84f082",
                     id="sin-2d"),
        pytest.param("map-2d",
                     "89d8e0c3d6a0374de1562a8ed4fdc7855022c92f4012ecdfb365c6f23ae427bd",
                     id="map-2d"),
        pytest.param("abs-checks",
                     "3ba06fc0a7a98de02a03021658be077693113b9c65e7dad2cca4cd124d97d28f",
                     id="abs-checks"),
        pytest.param("abs-2d-checks",
                     "f04c87bd982b488294f8a7307d05f7a2e3baa3519b95db3b7ce310e230038aed",
                     id="abs-2d-checks"),
    ])
    def test_analyze_report_digest(self, name, digest):
        assert hashlib.sha256(golden_stdout(name).encode()).hexdigest() == digest

    def test_3d_domain_report_digest(self):
        assert (hashlib.sha256(golden_stdout("3d").encode()).hexdigest()
                == "2a7812b63fd47cf81c8a18093800cdee4b33431baaae936e1f3f9f99b509a1a3")

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
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "464934ce666d404bd49604a2087f0d4c60fae6fbf184594e2bac2fe5192371f9")

    @pytest.mark.parametrize("write,digest", [
        # 8000 wedge points: the voxel stage decides most persistence rows
        pytest.param(
            lambda p: wedge_cloud_csv(p, n=8000),
            "74b8b6f6db13bc91baa26755a844d65f93b6e2a62f707d8735109b8cd509ef43",
            id="wedge"),
        # a labeled 3-D ball: the strict cone of the wedge part
        pytest.param(
            labeled_ball_csv,
            "9dd9986fa7fdcf187029230d6016a016e19af41ab9a9710dafbf3e5c60ddeb34",
            id="labeled-ball"),
    ])
    def test_3d_cones_report_digest(self, capsys, tmp_path, monkeypatch,
                                    write, digest):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "cloud.csv")
        code, out, _ = run(capsys, "cones", "--csv", "cloud.csv",
                           "--at", "0,0,0", "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_labeled_cones_report_digest(self, capsys, tmp_path, monkeypatch):
        # tangent and strict cones of the A part, then their polars
        monkeypatch.chdir(tmp_path)
        write_cloud(tmp_path, n=2000)
        code, out, _ = run(capsys, "cones", "--csv", "cloud.csv",
                           "--at", "0,0", "--seed", "0")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "58093e9f60fefae6b8544f798bb27032a7616d68ade8f5efc1948fa9b2e55da3")

    def test_time_function_report_digest(self):
        out = cli.render_report(time_function_golden())
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
