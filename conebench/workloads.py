"""Benchmark workloads: seeded inputs, CLI arguments and the correctness gate.

Each workload is one ``conecalc`` CLI run.  ``prepare`` makes its inputs
from the seed before any timing starts and writes them to fixed paths, so
the report (which embeds the configuration verbatim) is byte-identical for
a given seed and commit.  ``Gate`` checks a report against the
package's own JSON schema and against verdicts known analytically from the
seed; it never compares hashes, so an intended change of the report
encoding does not fail the gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLOUD_POINTS = 20_000
DERIVATIVE_TOL = 1e-3


@dataclass
class Case:
    """One workload's prepared inputs: CLI arguments and what to expect."""

    workload: str
    seed: int
    argv: list
    report: str
    expect: dict


def query_point(seed: int) -> tuple[float, float]:
    """The analyze workloads' point p, uniform in [-0.5, 0.5]^2."""
    p = np.random.default_rng(seed).uniform(-0.5, 0.5, size=2)
    return float(p[0]), float(p[1])


def wedge_cloud(seed: int, count: int = CLOUD_POINTS) -> np.ndarray:
    """``count`` points of {x3 >= |x1|} in the closed unit ball, apex first.

    The points are scrambled Sobol points of the cube that fall in the
    wedge, so the cloud's density, and with it the report size and the
    cost of a run, barely depend on the seed.
    """
    from scipy.stats import qmc

    # the wedge is a quarter of the ball, about 13 % of the cube
    m = math.ceil(math.log2(count / 0.1))
    u = 2.0 * qmc.Sobol(d=3, seed=np.random.default_rng([seed, 3])).random_base2(m) - 1.0
    keep = (np.einsum("ij,ij->i", u, u) <= 1.0) & (u[:, 2] >= np.abs(u[:, 0]))
    return np.vstack([np.zeros((1, 3)), u[keep][: count - 1]])


def write_cloud_csv(points: np.ndarray, path: Path) -> None:
    rows = [",".join(repr(float(v)) for v in row) for row in points]
    text = "x1,x2,x3\n" + "\n".join(rows) + "\n"
    path.write_text(text)


def _analyze_argv(fn: str, p, seed: int, report: str) -> list:
    # "--at=" keeps argparse from reading a negative coordinate as a flag
    return ["analyze", "--fn", fn, f"--at={p[0]!r},{p[1]!r}",
            "--seed", str(seed), "--jobs", "1", "--report", report]


def prepare(workload: str, seed: int, workdir: Path,
            cloud_points: int = CLOUD_POINTS) -> Case:
    """Write the workload's inputs under ``workdir`` and return its Case.

    Paths are relative to the checkout root, where the child runs, so the
    report bytes do not depend on where the checkout lives.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    report = str(workdir / "report.json")
    if workload == "analyze-scalar-2d":
        p = query_point(seed)
        return Case(workload, seed,
                    _analyze_argv("sin(x1)+x2*x2", p, seed, report), report,
                    {"point": list(p),
                     "derivative": [[math.cos(p[0]), 2.0 * p[1]]]})
    if workload == "analyze-map-2d":
        p = query_point(seed)
        return Case(workload, seed,
                    _analyze_argv("x1+x2*x2, x1*x2", p, seed, report), report,
                    {"point": list(p),
                     "derivative": [[1.0, 2.0 * p[1]], [p[1], p[0]]]})
    if workload == "cones-cloud-3d":
        csv_path = workdir / "cloud.csv"
        write_cloud_csv(wedge_cloud(seed, cloud_points), csv_path)
        return Case(workload, seed,
                    ["cones", "--csv", str(csv_path), "--at", "0,0,0",
                     "--seed", str(seed), "--jobs", "1", "--report", report],
                    report,
                    {"point": [0.0, 0.0, 0.0], "count": cloud_points})
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("analyze-scalar-2d", "analyze-map-2d", "cones-cloud-3d")


# ---------------------------------------------------------------------------
# correctness gate


def _close(got, want, tol: float) -> bool:
    try:
        a = np.asarray(got, dtype=float)
    except (TypeError, ValueError):
        return False
    b = np.asarray(want, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _cone_nonempty(cone: dict) -> bool:
    if "count" in cone:
        return cone["count"] > 0
    return any(cone.get(k) for k in ("directions", "generators", "arcs"))


def verdict_problems(case: Case, report: dict) -> list[str]:
    """Differences between a report and the verdicts known for its inputs."""
    out = []
    if report.get("config", {}).get("seed") != case.seed:
        out.append("config.seed differs from the workload seed")
    results = report.get("results") or [{}]
    res = results[0]
    if len(results) != 1:
        out.append(f"expected 1 result, got {len(results)}")
    if not _close(res.get("point"), case.expect["point"], 1e-12):
        out.append(f"point {res.get('point')} != {case.expect['point']}")
    if case.workload.startswith("analyze"):
        cls = res.get("classification", {})
        for key in ("lipschitz", "strictly_differentiable"):
            if cls.get(key) is not True:
                out.append(f"{key} is {cls.get(key)!r}, expected true")
        want = case.expect["derivative"]
        got = cls.get("derivative")
        if got is None or not _close(got, want, DERIVATIVE_TOL):
            out.append(f"derivative {got} not within {DERIVATIVE_TOL} of {want}")
    else:
        count = report.get("cloud", {}).get("count")
        if count != case.expect["count"]:
            out.append(f"cloud.count is {count}, expected {case.expect['count']}")
        for name in ("tangent", "whitney"):
            if not _cone_nonempty(res.get(name, {})):
                out.append(f"{name} cone is empty")
    return out


_NUMBER = (int, float)   # JSON numbers after json.loads; bool is excluded


def _row_length(row):
    """len(row) for a flat list of JSON numbers, else None."""
    if type(row) is list and all(type(v) in _NUMBER for v in row):
        return len(row)
    return None


def _resolve(sub, root: dict):
    while isinstance(sub, dict) and set(sub) == {"$ref"} and sub["$ref"].startswith("#/"):
        node = root
        for part in sub["$ref"][2:].split("/"):
            node = node[part]
        sub = node
    return sub


def _shape_only(sub, root: dict) -> bool:
    """True when ``sub`` constrains a value through its JSON type ("array"
    or "number") and array lengths only, so equally shaped number arrays
    all pass or all fail it."""
    sub = _resolve(sub, root)
    if not isinstance(sub, dict) or set(sub) - {"type", "items", "minItems", "maxItems"}:
        return False
    if sub.get("type", "array") not in ("array", "number"):
        return False
    return "items" not in sub or _shape_only(sub["items"], root)


def report_validator(schema: dict):
    """A jsonschema validator for ``schema`` with a fast path for long arrays
    of equally shaped number rows (the sampled cones' direction lists).

    Such an array's items all pass or all fail an items schema that
    ``_shape_only`` accepts, so only the first row is validated in full
    and the others are checked to have its shape.  Everything else goes
    through the stock Draft 2020-12 keywords.
    """
    import jsonschema

    base = jsonschema.validators.validator_for(schema)
    stock_items = base.VALIDATORS["items"]

    def items(validator, sub, instance, parent):
        if (type(instance) is list and len(instance) > 1
                and "prefixItems" not in parent and _shape_only(sub, schema)):
            n = _row_length(instance[0])
            if n is not None and all(_row_length(r) == n for r in instance):
                instance = instance[:1]
        yield from stock_items(validator, sub, instance, parent)

    return jsonschema.validators.extend(base, {"items": items})(schema)


def schema_problems(report: dict, schema: dict) -> list[str]:
    errors = sorted(report_validator(schema).iter_errors(report),
                    key=lambda e: list(e.path))
    return [f"schema: {e.message[:200]} at {list(e.path)}" for e in errors[:5]]


class Gate:
    """Checks report files, computing each verdict once per distinct report.

    A verdict depends only on the report bytes, the schema and this file,
    and the reports of one workload and seed are normally byte-identical.
    """

    def __init__(self, schema_path: Path):
        self.schema = json.loads(schema_path.read_bytes())
        self.memo: dict = {}

    def check(self, case: Case, report_path: Path, sha: str) -> list[str]:
        key = (case.workload, case.seed, sha)
        if key not in self.memo:
            try:
                report = json.loads(report_path.read_bytes())
            except ValueError as exc:
                self.memo[key] = [f"report is not JSON: {exc}"]
            else:
                self.memo[key] = (verdict_problems(case, report)
                                  + schema_problems(report, self.schema))
        return self.memo[key]
