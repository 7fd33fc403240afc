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
import os
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

SCHEMA_VERSION = 7

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
# _ROWS_MARK + index and is written in blocks of at most _ROW_BLOCK rows
_ROWS_MARK = "\x00rows"
_ROWS_RE = re.compile(r'"\\u0000rows(\d+)"')
_ROW_BLOCK = 1 << 14
# _matrix_text looks up the six decimals of rint(|v| 1e6) as two groups of
# three ASCII digits: _LOW[n] turns the trailing zeros of n into NULs, and
# _HIGH[n] keeps them, except that _HIGH[n + 1000], taken when the low
# group is zero, turns all of them but the first digit into NULs
_FULL = np.array([b"%03d" % n for n in range(1000)]).view(np.uint8).reshape(1000, 3)
_LOW = np.where(np.arange(1000)[:, None] % [1000, 100, 10] != 0, _FULL,
                0).astype(np.uint8)
_HIGH = np.vstack([_FULL, np.column_stack([_FULL[:, 0], _LOW[:, 1:]])])


def cone_to_json(cone: FiberCone, rows: list | None = None) -> dict:
    """Structured form of a cone.

    The kind ``"polyhedral"`` marks the zero cone, written with an empty
    ``"generators"`` list, or the full cone, written with an empty
    ``"halfspaces"`` list; in 2-D both carry their ``"arcs"`` as well.

    A sampled cone's direction matrix goes into the dict as nested lists,
    or, when ``rows`` is given, is appended to ``rows`` and replaced by a
    placeholder string that ``render_report`` swaps for the matrix text.
    """
    rep = cone.rep
    out: dict = {"dim": cone.dim}
    if isinstance(rep, cones.Arcs2D):
        out["kind"] = "arcs"
    elif isinstance(rep, cones.Trivial):
        out["kind"] = "polyhedral"
        out["halfspaces" if rep.full else "generators"] = []
    else:
        out["kind"] = "sampled"
        out["resolution"] = round(float(rep.resolution), 6)
        out["count"] = int(len(rep.directions))
        if cone.dim != 2:
            dirs = np.round(rep.directions, 6)
            if not np.isfinite(dirs).all():
                raise ValueError("refusing to serialize NaN into a report")
            if rows is None:
                out["directions"] = dirs.tolist()
            else:
                out["directions"] = f"{_ROWS_MARK}{len(rows)}"
                rows.append(dirs)
    if cone.dim == 2:
        # exact arcs as they are; dense member lists compact to
        # grid-resolution arcs
        out["arcs"] = [[round(float(lo), 6), round(float(hi), 6)]
                       for lo, hi in cones.arcs_cover(cone).rep.arcs]
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
    matrix, and ``_matrix_text`` writes the digits of the matrices with
    numpy.  A placeholder starts with NUL, which no other report string
    holds.  The pieces are joined once, at the end.
    """
    rows: list = []
    text = json.dumps(to_jsonable(report, rows=rows), sort_keys=True,
                      indent=2, allow_nan=False)
    parts, pos = [], 0
    for mark in _ROWS_RE.finditer(text):
        line = text[text.rfind("\n", 0, mark.start()) + 1:mark.start()]
        parts.append(text[pos:mark.start()])
        parts += _matrix_text(rows[int(mark.group(1))],
                              len(line) - len(line.lstrip(" ")))
        pos = mark.end()
    parts += [text[pos:], "\n"]
    return "".join(parts)


def _matrix_text(a: np.ndarray, indent: int) -> list[str]:
    """``json.dumps(a.tolist(), indent=2)`` in pieces, for a 2-D array of
    finite floats whose opening bracket sits on a line indented by
    ``indent`` spaces.

    ``json`` writes a float as ``float.__repr__``.  For a value v rounded
    to six decimals that string follows from k = rint(v 1e6) alone: when
    k / 1e6 == v and 100 <= |k| <= 10**6, it is the sign, one integer
    digit, ".", and the six decimals of k without their trailing zeros
    but at least one; k = 0 gives "0.0" or "-0.0".  Every other value,
    i.e. the exponent forms (0 < |k| < 100), |v| > 1 and values with more
    decimals, gets its ``repr``.  Each block of at most ``_ROW_BLOCK``
    rows is one byte matrix that holds the brackets, commas and
    indentation, and one NUL-padded slot per value, as wide as the
    longest value of the block; the NULs are then deleted.
    """
    if len(a) == 0:
        return ["[]"]
    outer = "\n" + " " * (indent + 2)
    inner = "\n" + " " * (indent + 4)
    pieces = [_block_text(a[lo:lo + _ROW_BLOCK], outer, inner)
              for lo in range(0, len(a), _ROW_BLOCK)]
    # every row is written after its separator "," + outer; the first
    # row's separator becomes the opening "[" + outer
    pieces[0] = "[" + pieces[0][1:]
    pieces.append("\n" + " " * indent + "]")
    return pieces


def _block_text(v: np.ndarray, outer: str, inner: str) -> str:
    """The rows of v, each after its separator "," + outer."""
    scaled = np.rint(v * 1e6)
    mag = np.abs(scaled)
    fixed = (scaled / 1e6 == v) & (((mag >= 100) & (mag <= 1e6)) | (mag == 0))
    other = np.flatnonzero(~fixed)
    text = np.array([repr(x).encode() for x in v.ravel()[other].tolist()],
                    dtype=bytes)
    width = max(9, text.itemsize)
    cells = np.zeros(v.shape + (width,), dtype=np.uint8)
    k = np.where(fixed, mag, 0.0).astype(np.int32)
    cells[..., 0] = np.where(np.signbit(v), ord("-"), 0)
    cells[..., 1] = ord("0") + k // 10 ** 6
    cells[..., 2] = ord(".")
    high, low = k // 1000 % 1000, k % 1000
    cells[..., 3:6] = _HIGH[high + 1000 * (low == 0)]
    cells[..., 6:9] = _LOW[low]
    cells.reshape(-1, width)[other] = (
        text.astype(f"S{width}").view(np.uint8).reshape(-1, width))

    slot = "\0" * width
    template = ("," + outer + "[" + inner + slot
                + ("," + inner + slot) * (v.shape[1] - 1) + outer + "]")
    start = len("," + outer + "[" + inner)
    step = len("," + inner) + width
    buf = np.empty((len(v), len(template)), dtype=np.uint8)
    buf[:] = np.frombuffer(template.encode(), dtype=np.uint8)
    for j in range(v.shape[1]):
        buf[:, start + j * step:start + j * step + width] = cells[:, j]
    return buf.tobytes().translate(None, b"\0").decode("ascii")


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
        sp.add_argument("--seed", type=int, help="RNG seed "
                        "(falls back to CONECALC_SEED, then 0)")
        sp.add_argument("--jobs", type=_jobs, default=1,
                        help="worker threads for per-point work")
        sp.add_argument("--report", help="write the JSON report here")

    a = sub.add_parser("analyze", help="classify a map at points")
    common(a, needs_fn=True)
    a.add_argument("--tol", type=_tolerance,
                   help="first-order extremum tolerance (default 1e-4)")
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


def _join_list_values(argv: list) -> list:
    """Write "--at -0.5,0.2" as "--at=-0.5,0.2", and --ladder and --fn
    alike: argparse reads a value that starts with "-" as an option unless
    it is a plain negative number."""
    out = []
    for tok in argv:
        if (out and out[-1] in ("--at", "--ladder", "--fn") and tok.startswith("-")
                and not tok.startswith("--")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"need a finite number >= 0, got {text!r}")
    return tol


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return jobs


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
        jobs=get("jobs", 1),
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
            entry["checks"][name] = rep.conormal.upper
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
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    pts = _check_points(cfg, cloud.dim)

    complement = None
    body = cloud
    if cloud.labels is not None and {"A", "B"} <= set(np.unique(cloud.labels)):
        body = cloud.subset("A")
        complement = cloud.subset("B")

    if cfg.plot and cloud.dim != 2:
        raise UsageError("--plot draws plane cones; the cloud is "
                         f"{cloud.dim}-dimensional")

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


def _check_output_paths(cfg: RunConfig) -> None:
    """Fail before the run on an output file that cannot be created: its
    directory is missing, or the path is a directory.  The files are
    opened, and an existing report replaced, only after the run."""
    for flag, path in (("--report", cfg.report), ("--plot", cfg.plot)):
        if not path:
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise UsageError(f"{flag} {path}: no directory {folder}")
        if os.path.isdir(path):
            raise UsageError(f"{flag} {path}: is a directory")


_DISPATCH = {"analyze": cmd_analyze, "cones": cmd_cones,
             "verify": cmd_verify, "builtins": cmd_builtins}


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = _build_parser().parse_args(
            _join_list_values(sys.argv[1:] if argv is None else list(argv)))
        cfg = _config_from_args(args)
        _check_output_paths(cfg)
        report = _DISPATCH[cfg.command](cfg)
        text = render_report(report)
        if cfg.report:
            with open(cfg.report, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (UsageError, ParseError, DimensionMismatchError, OSError) as exc:
        print(f"conecalc: error: {exc}", file=sys.stderr)
        return 1
    except EvaluationError as exc:
        print(f"conecalc: evaluation failed: {exc}", file=sys.stderr)
        return 2
    except ConeCalcError as exc:
        print(f"conecalc: estimation failed: {exc}", file=sys.stderr)
        return 2
    print(f"conecalc: {cfg.command} finished in "
          f"{time.monotonic() - started:.2f}s", file=sys.stderr)
    if cfg.command == "verify" and not report["suite"]["all_passed"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
