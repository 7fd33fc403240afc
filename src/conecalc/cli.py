"""Command line driver: JSON analysis reports, cone extraction, property runs.

Reports are deterministic: identical configuration (including the seed)
produces byte-identical output.  Timing goes to stderr, never into the
report.  Exit codes: 0 success, 1 usage error, 2 estimation failure or
property violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import analysis, cones, conormal, dini, funcs, geometry, verify
from .cones import FiberCone
from .errors import (ConeCalcError, DimensionMismatchError, EvaluationError,
                     ParseError)

SCHEMA_VERSION = 1

KNOWN_CHECKS = ("conormal-upper", "epigraph-split")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; embedded verbatim in the report."""

    command: str
    fn: str | None = None
    builtin: str | None = None
    csv: str | None = None
    at: tuple = ()
    checks: tuple = ()
    ladder: tuple | None = None
    tol: float | None = None
    seed: int = 0
    jobs: int = 1
    only: tuple = ()
    report: str | None = None
    plot: str | None = None


def _scale_ladder(cfg: RunConfig, **defaults) -> dini.ScaleLadder:
    if cfg.ladder is None:
        return dini.ScaleLadder(seed=cfg.seed, **defaults)
    t0, ratio, k_min, k_max = cfg.ladder
    try:
        return dini.ScaleLadder(t0=t0, ratio=ratio, k_min=int(k_min),
                                k_max=int(k_max), seed=cfg.seed)
    except ValueError as exc:
        raise UsageError(f"bad --ladder value: {exc}") from None


# ---------------------------------------------------------------------------
# JSON rendering

_ANGLE_KEY_PARTS = ("angle", "worst", "tolerance", "resolution", "arcs",
                    "hausdorff")


def _is_angle_key(key) -> bool:
    return isinstance(key, str) and any(p in key for p in _ANGLE_KEY_PARTS)


def _float_json(v: float, rounded: bool):
    if math.isinf(v):
        return {"inf": True, "sign": 1 if v > 0 else -1}
    if math.isnan(v):
        raise ValueError("refusing to serialize NaN into a report")
    return round(float(v), 6) if rounded else float(v)


# render_report: a direction matrix rides through json.dumps as the string
# _ROWS_MARK + index and is written in blocks of about _ROW_BLOCK_VALUES
_ROWS_MARK = "\x00rows"
_ROWS_RE = re.compile(r'"\\u0000rows(\d+)"')
_ROW_BLOCK_VALUES = 1 << 14


def cone_to_json(cone: FiberCone, rows: list | None = None) -> dict:
    """Structured form of a cone.

    A sampled cone's direction matrix goes into the dict as nested lists,
    or, when ``rows`` is given, is appended to ``rows`` and replaced by a
    placeholder string that ``render_report`` swaps for the matrix text.
    """
    rep = cone.rep
    out: dict = {"dim": cone.dim}
    if isinstance(rep, cones.Arcs2D):
        out["kind"] = "arcs"
        out["arcs"] = [[round(float(lo), 6), round(float(hi), 6)]
                       for lo, hi in rep.arcs]
    elif isinstance(rep, cones.Polyhedral):
        out["kind"] = "polyhedral"
        if rep.generators is not None:
            out["generators"] = np.round(rep.generators, 6).tolist()
        if rep.halfspaces is not None:
            out["halfspaces"] = np.round(rep.halfspaces, 6).tolist()
        if cone.dim == 2:
            out["arcs"] = [[round(float(lo), 6), round(float(hi), 6)]
                           for lo, hi in cones.as_arcs(cone).rep.arcs]
    else:
        out["kind"] = "sampled"
        out["resolution"] = round(float(rep.resolution), 6)
        out["count"] = int(len(rep.directions))
        if cone.dim == 2:
            # dense member lists compact to grid-resolution arcs
            out["arcs"] = [[round(float(lo), 6), round(float(hi), 6)]
                           for lo, hi in cones.arcs_cover(cone).rep.arcs]
        else:
            dirs = np.round(rep.directions, 6)
            if not np.isfinite(dirs).all():
                raise ValueError("refusing to serialize NaN into a report")
            if rows is None:
                out["directions"] = dirs.tolist()
            else:
                out["directions"] = f"{_ROWS_MARK}{len(rows)}"
                rows.append(dirs)
    return out


def to_jsonable(obj, key=None, rows: list | None = None):
    """Recursive report serializer.

    Angles (keys mentioning angle/worst/tolerance/resolution) round to six
    decimals; infinities become {"inf": true, "sign": +-1}; cones get their
    structured form.  ``rows`` is passed on to ``cone_to_json``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _float_json(obj, _is_angle_key(key))
    if isinstance(obj, (np.floating,)):
        return _float_json(float(obj), _is_angle_key(key))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, FiberCone):
        return cone_to_json(obj, rows)
    if isinstance(obj, conormal.ConormalEstimate):
        return {"regime": obj.regime,
                "lower": cone_to_json(obj.lower, rows),
                "upper": cone_to_json(obj.upper, rows),
                "exact": (None if obj.exact is None
                          else cone_to_json(obj.exact, rows)),
                "checks": to_jsonable(obj.checks, "checks", rows)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name), f.name, rows)
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v, k, rows) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist(), key, rows)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v, key, rows) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def render_report(report: dict) -> str:
    """The report as indented JSON with sorted keys, newline-terminated.

    The text equals ``json.dumps(to_jsonable(report), sort_keys=True,
    indent=2, allow_nan=False) + "\n"``.  ``json`` indents through its
    pure-Python encoder, one step per number, which is too slow for the
    hundreds of thousands of directions of a sampled cone.  So ``json``
    renders the report with a placeholder in place of each direction
    matrix, and ``_matrix_text`` writes the matrices in row blocks with
    ``%r``, which is ``float.__repr__``, as in ``json`` itself.  A
    placeholder starts with NUL, which no other report string holds.
    """
    rows: list = []
    text = json.dumps(to_jsonable(report, rows=rows), sort_keys=True,
                      indent=2, allow_nan=False)
    parts, pos = [], 0
    for mark in _ROWS_RE.finditer(text):
        line = text[text.rfind("\n", 0, mark.start()) + 1:mark.start()]
        parts += [text[pos:mark.start()],
                  _matrix_text(rows[int(mark.group(1))],
                               len(line) - len(line.lstrip(" ")))]
        pos = mark.end()
    parts += [text[pos:], "\n"]
    return "".join(parts)


def _matrix_text(a: np.ndarray, indent: int) -> str:
    """``json.dumps(a.tolist(), indent=2)`` for a 2-D array whose opening
    bracket sits on a line indented by ``indent`` spaces."""
    if len(a) == 0:
        return "[]"
    outer, inner = "\n" + " " * (indent + 2), "\n" + " " * (indent + 4)
    row = "[" + inner + ("," + inner).join(["%r"] * a.shape[1]) + outer + "]"
    sep = "," + outer
    step = max(1, _ROW_BLOCK_VALUES // a.shape[1])
    blocks = [sep.join([row] * len(b)) % tuple(b.ravel().tolist())
              for b in (a[lo:lo + step] for lo in range(0, len(a), step))]
    return "[" + outer + sep.join(blocks) + "\n" + " " * indent + "]"


def load_schema() -> dict:
    with resources.files(__package__).joinpath("schema.json").open("rb") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="conecalc",
                description="numerical cone calculus for maps and point sets")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_fn=False, needs_csv=False):
        if needs_fn:
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("--fn", help="expression in x1..xm")
            g.add_argument("--builtin", help="builtin name, e.g. x2sin")
            g.add_argument("--csv", help="sampled-grid CSV function")
        if needs_csv:
            sp.add_argument("--csv", required=True, help="point cloud CSV")
        sp.add_argument("--at", action="append", default=[],
                        metavar="V1,V2,...", help="evaluation point; repeatable")
        sp.add_argument("--ladder", metavar="T0,RATIO,KMIN,KMAX",
                        help="scale ladder override")
        sp.add_argument("--tol", type=float, help="tolerance override")
        sp.add_argument("--seed", type=int, help="RNG seed "
                        "(falls back to CONECALC_SEED, then 0)")
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker threads for per-point work")
        sp.add_argument("--report", help="write the JSON report here")

    a = sub.add_parser("analyze", help="classify a map at points")
    common(a, needs_fn=True)
    a.add_argument("--check", action="append", default=[],
                   choices=KNOWN_CHECKS, help="extra cone check; repeatable")

    c = sub.add_parser("cones", help="tangent/Whitney/strict cones of a cloud")
    common(c, needs_csv=True)
    c.add_argument("--plot", help="write Arcs2D polyline traces as CSV here")

    v = sub.add_parser("verify", help="run the property suite")
    v.add_argument("--only", action="append", default=[],
                   help="run just these properties; repeatable")
    v.add_argument("--seed", type=int, help="RNG seed")
    v.add_argument("--report", help="write the JSON report here")

    b = sub.add_parser("builtins", help="list the builtin function library")
    b.add_argument("--report", help="write the JSON report here")
    return p


def _parse_point(text: str) -> tuple:
    try:
        point = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --at value {text!r}: {exc}") from None
    if not all(map(math.isfinite, point)):
        raise UsageError(f"bad --at value {text!r}: coordinates must be finite")
    return point


def _parse_ladder(text: str | None):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--ladder needs exactly t0,ratio,kmin,kmax")
    try:
        return (float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise UsageError(f"bad --ladder value {text!r}: {exc}") from None


def _config_from_args(args) -> RunConfig:
    get = lambda name, default=None: getattr(args, name, default)
    return RunConfig(
        command=args.command,
        fn=get("fn"),
        builtin=get("builtin"),
        csv=get("csv"),
        at=tuple(_parse_point(t) for t in get("at", [])),
        checks=tuple(get("check", [])),
        ladder=_parse_ladder(get("ladder")),
        tol=get("tol"),
        seed=dini.resolve_seed(get("seed")),
        jobs=max(1, int(get("jobs", 1) or 1)),
        only=tuple(get("only", [])),
        report=get("report"),
        plot=get("plot"),
    )


# ---------------------------------------------------------------------------
# commands


def _resolve_handle(cfg: RunConfig) -> funcs.FunctionHandle:
    if cfg.builtin is not None:
        try:
            return funcs.builtin(cfg.builtin)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from None
    if cfg.csv is not None:
        try:
            return funcs.grid_handle_from_csv(cfg.csv)
        except FileNotFoundError:
            raise UsageError(f"no such file: {cfg.csv}") from None
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if not cfg.at:
        raise UsageError("--fn needs at least one --at point to fix the "
                         "domain dimension")
    return funcs.parse_expr(cfg.fn, len(cfg.at[0]))


def _check_points(cfg: RunConfig, m: int) -> list:
    if not cfg.at:
        raise UsageError("need at least one --at point")
    pts = []
    for vec in cfg.at:
        if len(vec) != m:
            raise DimensionMismatchError(
                f"point {list(vec)} has dimension {len(vec)}; expected {m}")
        pts.append(np.asarray(vec, dtype=float))
    return pts


def _analyze_point(f, x, lad, cfg: RunConfig) -> dict:
    fo_tol = 1e-4 if cfg.tol is None else cfg.tol
    rep = analysis.classify_point(f, x, lad, fo_tol=fo_tol)
    entry = {"point": x.tolist(), "classification": rep, "checks": {}}
    for name in dict.fromkeys(cfg.checks):
        if name == "conormal-upper":
            entry["checks"][name] = conormal.slice_top_intersection(
                rep.whitney, f.m)
        elif name == "epigraph-split":
            plus, minus = conormal.epigraph_split(rep.conormal.upper, f.n)
            entry["checks"][name] = {"positive": plus, "negative": minus}
    return entry


def cmd_analyze(cfg: RunConfig) -> dict:
    f = _resolve_handle(cfg)
    pts = _check_points(cfg, f.m)
    lad = _scale_ladder(cfg)
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(
                lambda x: _analyze_point(f, x, lad, cfg), pts))
    else:
        results = [_analyze_point(f, x, lad, cfg) for x in pts]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "function": {"name": f.name, "m": f.m, "n": f.n, "kind": f.kind},
        "results": results,
    }


def _plot_rows(idx: int, name: str, cone: FiberCone):
    if cone.dim != 2:
        return
    arcs = cones.arcs_cover(cone).rep.arcs
    step = math.radians(1.0)
    for j, (lo, hi) in enumerate(arcs):
        count = 1 if hi - lo < 1e-9 else max(2, int(math.ceil((hi - lo) / step)) + 1)
        for th in np.linspace(lo, hi, count):
            yield [idx, name, j, round(float(th), 6),
                   round(math.cos(th), 6), round(math.sin(th), 6)]


def cmd_cones(cfg: RunConfig) -> dict:
    try:
        cloud = geometry.cloud_from_csv(cfg.csv)
    except FileNotFoundError:
        raise UsageError(f"no such file: {cfg.csv}") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    pts = _check_points(cfg, cloud.dim)

    complement = None
    body = cloud
    if cloud.labels is not None and {"A", "B"} <= set(np.unique(cloud.labels)):
        body = cloud.subset("A")
        complement = cloud.subset("B")

    results = []
    plot_rows = []
    for i, x in enumerate(pts):
        # shells must stay populated, so without an override the ladder
        # adapts to the sample density at each query point
        lad = (geometry.cloud_ladder(cloud, x, seed=cfg.seed)
               if cfg.ladder is None else _scale_ladder(cfg))
        tangent = geometry.tangent_cone(body, x, lad)
        whitney = geometry.whitney_cone(body, body, x, lad)
        strict = geometry.strict_cone(body, complement, x, lad)
        lower, upper = conormal.closed_set_bounds(tangent, strict)
        results.append({"point": x.tolist(), "tangent": tangent,
                        "whitney": whitney, "strict": strict,
                        "conormal_lower": lower, "conormal_upper": upper,
                        "ladder": dataclasses.asdict(lad)})
        if cfg.plot:
            for name, cone in (("tangent", tangent), ("whitney", whitney),
                               ("strict", strict)):
                plot_rows.extend(_plot_rows(i, name, cone))

    if cfg.plot:
        if cloud.dim != 2:
            raise UsageError("--plot draws plane cones; the cloud is "
                             f"{cloud.dim}-dimensional")
        with open(cfg.plot, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["point_index", "cone", "arc", "theta", "ux", "uy"])
            w.writerows(plot_rows)

    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "cloud": {"count": int(len(cloud.points)), "dim": int(cloud.dim),
                  "labeled": cloud.labels is not None},
        "results": results,
    }


def cmd_verify(cfg: RunConfig) -> dict:
    try:
        suite = verify.run_suite(seed=cfg.seed, only=list(cfg.only) or None)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return {"schema_version": SCHEMA_VERSION, "config": cfg, "suite": suite}


def cmd_builtins(cfg: RunConfig) -> dict:
    listing = [{"name": name, "summary": summary}
               for name, summary in funcs.builtin_names()]
    return {"schema_version": SCHEMA_VERSION, "config": cfg,
            "builtins": listing}


_DISPATCH = {"analyze": cmd_analyze, "cones": cmd_cones,
             "verify": cmd_verify, "builtins": cmd_builtins}


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        report = _DISPATCH[cfg.command](cfg)
        text = render_report(report)
    except (UsageError, ParseError, DimensionMismatchError) as exc:
        print(f"conecalc: error: {exc}", file=sys.stderr)
        return 1
    except EvaluationError as exc:
        print(f"conecalc: evaluation failed: {exc}", file=sys.stderr)
        return 2
    except ConeCalcError as exc:
        print(f"conecalc: estimation failed: {exc}", file=sys.stderr)
        return 2
    if cfg.report:
        with open(cfg.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"conecalc: {cfg.command} finished in "
          f"{time.monotonic() - started:.2f}s", file=sys.stderr)
    if cfg.command == "verify" and not report["suite"]["all_passed"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
