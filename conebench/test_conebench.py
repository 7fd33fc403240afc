"""Fast checks of the benchmark's own machinery.

Run from the repository root: python -m pytest -q conebench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL_CLOUD = 1000


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_attribution_on_nested_layers():
    clk = FakeClock()
    tr = tracing.Tracer(clock=clk, maxrss=lambda: 0)

    def inner(depth=0):
        clk.t += 2
        if depth < 2:
            inner_w(depth + 1)   # recursion folds into one span

    def mid():
        clk.t += 3
        inner_w()
        clk.t += 1

    def outer():
        clk.t += 5
        mid_w()
        clk.t += 4

    inner_w = tr.wrap("analysis", "inner", inner)
    mid_w = tr.wrap("cones", "mid", mid)
    outer_w = tr.wrap("analysis", "outer", outer)
    clk.t = 100.0
    outer_w()
    # outer 5+4 own, mid 3+1 own, inner 3 x 2 own; wall adds 1 of glue
    s = tr.summary(wall_s=clk.t - 100.0 + 1.0)
    assert s["analysis.busy_s"] == 19.0
    assert s["analysis.self_s"] == 15.0
    assert s["analysis.calls"] == 2
    assert s["cones.busy_s"] == 10.0
    assert s["cones.self_s"] == 4.0
    assert s["cones.calls"] == 1
    assert s["dini.busy_s"] == 0 and s["dini.calls"] == 0
    assert s["trace.glue_s"] == 1.0
    total = sum(s[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total + s["trace.glue_s"] == 20.0


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a = wl.prepare("cones-cloud-3d", 7, tmp_path / "a", SMALL_CLOUD)
    b = wl.prepare("cones-cloud-3d", 7, tmp_path / "b", SMALL_CLOUD)
    c = wl.prepare("cones-cloud-3d", 8, tmp_path / "c", SMALL_CLOUD)
    data = [(tmp_path / d / "cloud.csv").read_bytes() for d in "abc"]
    assert data[0] == data[1] != data[2]
    assert data[0].count(b"\n") == SMALL_CLOUD + 1
    assert a.argv[a.argv.index("--seed") + 1] == "7" and a.expect == b.expect
    p = wl.prepare("analyze-map-2d", 7, tmp_path / "m")
    q = wl.prepare("analyze-map-2d", 7, tmp_path / "m")
    assert p.argv == q.argv and p.expect == q.expect
    assert all(-0.5 <= v <= 0.5 for v in p.expect["point"])


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One untraced run of each workload, the cloud one shrunk, plus a traced
    run of the small cloud."""
    import os

    work = tmp_path_factory.mktemp("work")
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        cases = {name: wl.prepare(name, 3, work / name, SMALL_CLOUD)
                 for name in wl.WORKLOADS}
        runs = bench.measure(cases, 0, False)
        runs += bench.measure({"cones-cloud-3d": cases["cones-cloud-3d"]},
                              0, True)
    finally:
        os.chdir(cwd)
    return cases, runs


def test_smoke_run_of_each_workload(smoke_runs):
    cases, runs = smoke_runs
    for name in wl.WORKLOADS:
        mine = [r for r in runs if r["workload"] == name and not r["traced"]]
        assert mine and all(not r["problems"] for r in mine), mine
        assert mine[0]["wall_s"] > 0 and mine[0]["setup_s"] > 0
    metrics, lines = bench.summarize(runs, list(wl.WORKLOADS), False)
    assert set(metrics) == {f"{n}.{k}" for n in wl.WORKLOADS
                            for k in bench.END_TO_END}
    assert any("sha256" in line for line in lines)


def test_traced_run_attributes_the_whole_call(smoke_runs):
    _, runs = smoke_runs
    traced = [r for r in runs if r["traced"]]
    assert traced and not traced[0]["problems"]
    plain = [r for r in runs if r["workload"] == "cones-cloud-3d"]
    assert len({r["sha256"] for r in plain}) == 1   # tracing leaves the report alone
    t = traced[0]["trace"]
    assert abs(t["trace.glue_s"]) <= 0.03 * traced[0]["wall_s"]
    assert t["cli.calls"] >= 1 and t["geometry.whitney_cone.s"] > 0
    assert t["funcs.points"] == 0 and t["analysis.calls"] == 0


def test_report_matches_a_plain_cli_run(smoke_runs):
    import hashlib
    import subprocess

    cases, runs = smoke_runs
    case = cases["cones-cloud-3d"]
    subprocess.run([sys.executable, "-m", "conecalc.cli", *case.argv],
                   cwd=ROOT, env={**bench.child_env(), "PYTHONPATH": str(ROOT / "src")},
                   check=True,
                   stderr=subprocess.DEVNULL)
    plain = hashlib.sha256(Path(case.report).read_bytes()).hexdigest()
    assert {r["sha256"] for r in runs if r["workload"] == case.workload} == {plain}


def test_gate_rejects_one_flipped_verdict(smoke_runs):
    cases, runs = smoke_runs
    case = cases["analyze-scalar-2d"]
    report = json.loads(Path(case.report).read_text())
    schema = json.loads((ROOT / "src/conecalc/schema.json").read_text())
    assert wl.verdict_problems(case, report) == []
    assert wl.schema_problems(report, schema) == []
    flipped = copy.deepcopy(report)
    cls = flipped["results"][0]["classification"]
    cls["strictly_differentiable"] = not cls["strictly_differentiable"]
    assert wl.schema_problems(flipped, schema) == []
    assert wl.verdict_problems(case, flipped)
    broken = copy.deepcopy(report)
    broken["results"][0]["classification"]["lipschitz"] = "yes"
    assert wl.schema_problems(broken, schema)


def test_fast_schema_check_agrees_with_stock_jsonschema(smoke_runs):
    import jsonschema

    cases, _ = smoke_runs
    report = json.loads(Path(cases["cones-cloud-3d"].report).read_text())
    schema = json.loads((ROOT / "src/conecalc/schema.json").read_text())
    stock = jsonschema.validators.validator_for(schema)(schema)
    whitney = report["results"][0]["whitney"]
    whitney["directions"] = whitney["directions"][:200]
    for bad in (None, True, [], [0.5, 0.5]):
        doc = copy.deepcopy(report)
        if bad is not None:
            doc["results"][0]["whitney"]["directions"][70] = (
                [0.1, bad, 0.3] if bad is True else bad)
        fast_ok = not wl.schema_problems(doc, schema)
        assert fast_ok == stock.is_valid(doc) == (bad is None or bad == [0.5, 0.5])
