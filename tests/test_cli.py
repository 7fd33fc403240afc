"""Command line driver: exit codes, report schema, determinism."""

import csv
import hashlib
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conecalc import analysis, cli, cones, conormal, dini, funcs, verify
from conecalc.cones import FiberCone

VALIDATOR = jsonschema.Draft202012Validator(cli.load_schema())


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


class TestUsageErrors:
    """Everything user-fixable exits 1 with a message on stderr."""

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

    def test_plot_needs_plane_cloud(self, capsys, tmp_path):
        p = tmp_path / "c3.csv"
        rows = "\n".join(f"{v},{v},{v}" for v in np.linspace(0, 1, 50))
        p.write_text("x1,x2,x3\n" + rows + "\n")
        code, _, err = run(capsys, "cones", "--csv", str(p), "--at", "0,0,0",
                           "--plot", str(tmp_path / "p.csv"),
                           "--ladder", "0.5,0.5,0,3")
        assert code == 1 and "plot" in err


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

    @pytest.mark.parametrize("at", ["nan", "0,inf", "0,-inf"])
    def test_non_finite_point(self, capsys, at):
        code, out, err = run(capsys, "analyze", "--fn", "x1", "--at", at)
        assert code == 1
        assert out == ""
        assert err == f"conecalc: error: bad --at value {at!r}: coordinates must be finite\n"

    @pytest.mark.parametrize("ladder", ["0.1,1.5,0,6", "0.1,1.5,0,60",
                                        "0.1,0.5,0,60", "0.1,0.5,6,6"])
    def test_out_of_range_ladder(self, capsys, ladder):
        code, out, err = run(capsys, "analyze", "--fn", "abs(x1)", "--at", "0",
                             "--ladder", ladder)
        assert code == 1
        assert out == ""
        assert err.startswith("conecalc: error: bad --ladder value")
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
def sampled_cones(draw):
    """Sampled cones of dim 3-5 with 0, 1, a few or several blocks of rows."""
    dim = draw(st.sampled_from((3, 4, 5)))
    values = st.one_of(st.sampled_from(SPECIAL_VALUES),
                       st.floats(-1.0, 1.0, allow_nan=False))
    base = draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                         min_size=1, max_size=6))
    count = draw(st.sampled_from((0, 1, 2, 5, 7000)))
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
        assert cli.render_report(report) == library_render(report)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_raises(self, bad):
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, bad, 1.0]])
        report = {"cone": FiberCone(3, cones.Sampled(dirs, 0.1))}
        for render in (cli.render_report, library_render):
            with pytest.raises(ValueError, match="refusing to serialize NaN"):
                render(report)


class TestGoldenReports:
    """Report bytes pinned by sha256; a speedup must leave them unchanged."""

    @pytest.mark.parametrize("argv,digest", [
        (("--fn", "abs(x1)", "--at", "0"),
         "1a3ecaaaf6e1d7c35c6580a4045ab58559fb943de556829e7c1a7160db8bd46d"),
        (("--fn", "x1*x1*sin(1/x1)", "--at", "0"),
         "0b9d7a8719ae39b99c9e77841c7668197680c07a6aac98ba04b9caaff62e3335"),
        (("--fn", "sin(x1)+x2*x2", "--at", "0.3,-0.2",
          "--ladder", "0.1,0.5,0,6"),
         "f43fc994bab06255cafd751f21c525972d27ac351b04fb0bc43574242da0b325"),
        (("--fn", "x1+x2*x2, x1*x2", "--at", "0.2,-0.1",
          "--ladder", "0.1,0.5,12,15"),
         "b67a0f2cd63bb3de1c5a98a0eb50b8d7c0493e41b1528934f2ea8076be575138"),
        (("--fn", "abs(x1)", "--at", "0", "--check", "conormal-upper",
          "--check", "epigraph-split"),
         "09701c5eb2c8b3af23ee705f275f55cde140dc10d57f1ae8b5ac11a729b0c336"),
        (("--fn", "abs(x1)+x2", "--at", "0,0", "--check", "conormal-upper",
          "--check", "epigraph-split"),
         "c4a2d0d59998671f063e9bfb94f29c4e2b5a8a82496bb0d35923b93a0ff07f0e"),
    ])
    def test_analyze_report_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, "analyze", *argv, "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cones_report_digest(self, capsys, tmp_path, monkeypatch):
        # the report embeds the --csv path, so it is relative
        monkeypatch.chdir(tmp_path)
        wedge_cloud_csv(tmp_path / "cloud.csv")
        code, out, _ = run(capsys, "cones", "--csv", "cloud.csv",
                           "--at", "0,0,0", "--seed", "0")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "bade96cbbbba04223702f197fafc0177c44d3e3cdaeeefaa6d6a0252e27c08e1")

    @pytest.mark.parametrize("write,digest", [
        # 8000 wedge points: the voxel stage decides most persistence rows
        (lambda p: wedge_cloud_csv(p, n=8000),
         "2b88190a5045cf6d386988d76cc5fe44ac7a51798e6bcbd3f03397d8bf06e628"),
        # a labeled 3-D ball: the strict cone of the wedge part
        (labeled_ball_csv,
         "30b7379aa9a95d37f91f6cc234b61aecab4df03e2fb1dbdc9add5406a1854a2b"),
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
                == "31220e8f6b538902d8cacf4deba38d5c7fa9e0d975849548b9c264d898753b66")

    def test_time_function_report_digest(self):
        lad = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=0, k_max=12, seed=0)
        ray = FiberCone.from_directions(np.array([[1.0]]), 1, resolution=1e-9)
        out = analysis.time_function_check(funcs.builtin("cube"), ray,
                                           [[-0.5], [0.0], [0.7]], lad)
        assert (hashlib.sha256(cli.render_report(out).encode()).hexdigest()
                == "9b36a9a5eee0c4ab4b36eadc09e8d6c19e61e89062c71bb0f8e417e9c5708732")


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
