"""Function handles: expressions, builtins, and sampled-grid data.

A ``FunctionHandle`` wraps a vectorized map f: R^m -> R^n together with
light metadata used by the estimators:

    c1           declared continuous differentiability (None = unknown)
    scale_floor  finest spatial scale at which the handle carries real
                 structure; probe ladders clamp to it

Expression grammar (whitespace insensitive)::

    vector  := expr (',' expr)*
    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right associative
    atom    := NUMBER | VAR | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Variables are x1..xm with aliases x, y, z when m <= 3.  Functions:
abs, sin, cos, sqrt, cbrt, sign, min, max, guard.

Evaluation rule for oscillatory singularities: a product with an exact
zero factor is zero even when the other factor fails to evaluate, so
``x^2 * sin(1/x)`` extends by 0 across x = 0.  ``guard(e, p, v)`` pins
the value v on the slice {x1 == p}.  Any non-finite value that survives
these rules raises ``EvaluationError`` at evaluation time.

``parse_expr`` folds constants and compiles the tree into closures once;
a call runs the closures, never a walk over the tree.  The values are
the same bits as an elementwise walk: column views, numpy-scalar
constants in arithmetic, and the zero rule checked only where a product
is zero or non-finite change none of them.  Handles take points in any
memory layout, so the quotient scan can pass one coordinate per
contiguous row.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, ParseError


@dataclass
class FunctionHandle:
    m: int
    n: int
    name: str
    _fn: Callable[[np.ndarray], np.ndarray]
    kind: str = "expression"
    meta: dict = field(default_factory=dict)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        pts = X.reshape(-1, self.m)
        out = np.asarray(self._fn(pts), dtype=float).reshape(len(pts), self.n)
        if not np.isfinite(out).all():
            i = int(np.argwhere(~np.isfinite(out).all(axis=1))[0][0])
            raise EvaluationError(
                f"{self.name} is non-finite at {pts[i].tolist()}")
        return out[0] if single else out

    def scalar(self, *coords: float) -> float:
        res = self(np.array(coords, dtype=float))
        return float(res[0]) if self.n == 1 else res


def compose_handles(inner: FunctionHandle, outer: FunctionHandle) -> FunctionHandle:
    """The composite outer(inner(.))."""
    if inner.n != outer.m:
        raise ValueError("inner output dim must match outer input dim")
    meta = {}
    if inner.meta.get("c1") and outer.meta.get("c1"):
        meta["c1"] = True
    floors = [f.meta.get("scale_floor") for f in (inner, outer)]
    floors = [f for f in floors if f]
    if floors:
        meta["scale_floor"] = max(floors)
    return FunctionHandle(inner.m, outer.n, f"{outer.name}({inner.name})",
                          lambda X: outer(inner(X)), "composite", meta)


# ---------------------------------------------------------------------------
# expression parsing

_TOKEN_RE = re.compile(
    r"\s*(?:((?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|(.))")

_FUNCS_1 = {"abs": np.abs, "sin": np.sin, "cos": np.cos,
            "sqrt": np.sqrt, "cbrt": np.cbrt, "sign": np.sign}
_FUNCS_2 = {"min": np.minimum, "max": np.maximum}


def _tokenize(src: str):
    toks = []
    pos = 0
    while pos < len(src):
        mobj = _TOKEN_RE.match(src, pos)
        if not mobj:
            break
        num, ident, other = mobj.groups()
        if num is not None:
            toks.append(("num", float(num), mobj.start(1)))
        elif ident is not None:
            toks.append(("ident", ident, mobj.start(2)))
        else:
            if other not in "+-*/^(),":
                raise ParseError(f"unexpected character {other!r}", mobj.start(3))
            toks.append((other, other, mobj.start(3)))
        pos = mobj.end()
    toks.append(("end", "", len(src)))
    return toks


class _Parser:
    def __init__(self, src: str, m: int):
        self.toks = _tokenize(src)
        self.i = 0
        self.m = m
        self.src = src

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse_vector(self):
        comps = [self.parse_expr()]
        while self.peek()[0] == ",":
            self.take(",")
            comps.append(self.parse_expr())
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return comps

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.parse_unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.take()
            return ("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            return ("pow", base, self.parse_unary())
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return ("num", tok[1])
        if tok[0] == "(":
            self.take()
            node = self.parse_expr()
            self.take(")")
            return node
        if tok[0] == "ident":
            self.take()
            name = tok[1]
            if self.peek()[0] == "(":
                self.take("(")
                args = [self.parse_expr()]
                while self.peek()[0] == ",":
                    self.take(",")
                    args.append(self.parse_expr())
                self.take(")")
                return self._call(name, args, tok[2])
            return self._variable(name, tok[2])
        raise ParseError(f"expected a value, found {tok[1]!r}", tok[2])

    def _call(self, name, args, pos):
        if name in _FUNCS_1:
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument", pos)
            return ("call1", name, args[0])
        if name in _FUNCS_2:
            if len(args) != 2:
                raise ParseError(f"{name} takes two arguments", pos)
            return ("call2", name, args[0], args[1])
        if name == "guard":
            if len(args) != 3:
                raise ParseError("guard takes (expr, point, value)", pos)
            return ("guard", args[0], args[1], args[2])
        raise ParseError(f"unknown function {name!r}", pos)

    def _variable(self, name, pos):
        alias = {"x": 1, "y": 2, "z": 3}
        if name in alias:
            idx = alias[name]
        else:
            mobj = re.fullmatch(r"x(\d+)", name)
            if not mobj:
                raise ParseError(f"unknown identifier {name!r}", pos)
            idx = int(mobj.group(1))
        if not 1 <= idx <= self.m:
            raise ParseError(f"variable {name!r} outside x1..x{self.m}", pos)
        return ("var", idx - 1)


def _fold(node):
    """Constant folding; non-finite results are left for evaluation time."""
    kind = node[0]
    if kind in ("num", "var"):
        return node
    folded = (kind,) + tuple(_fold(c) if isinstance(c, tuple) else c
                             for c in node[1:])
    children = [c for c in folded[1:] if isinstance(c, tuple)]
    # guard reads the evaluation point, so it never folds
    if kind != "guard" and all(c[0] == "num" for c in children):
        X = np.zeros((1, 1))
        try:
            with np.errstate(all="ignore"):
                val = _column(_compile(folded)(X), X)[0]
        except Exception:
            return folded
        if np.isfinite(val):
            return ("num", float(val))
    return folded


def _column(v, X):
    """v as one value per row of X; constants come back as numpy scalars."""
    return v if np.ndim(v) else np.full(len(X), v)


def _times(a, b):
    out = a * b
    # an exact zero factor wins over a non-finite partner, so oscillatory
    # singularities declared through a vanishing envelope evaluate
    # cleanly; such a product is zero or non-finite, so only then is the
    # rule checked
    if out.all() and np.isfinite(out).all():
        return out
    zero = (a == 0.0) | (b == 0.0)
    if zero.any():
        out = np.where(zero, 0.0, out)
    return out


def _compile(node):
    """The folded tree as a closure X -> values, built once per expression.

    Columns of X are read without a copy and constants stay numpy
    scalars in arithmetic, whose IEEE results do not depend on either.
    ``pow`` and the function calls get full columns, as numpy may pick
    another kernel for a broadcast scalar (``x^2`` would square).  Callers
    run the closure under ``np.errstate(all="ignore")``.
    """
    kind = node[0]
    if kind == "num":
        v = np.float64(node[1])
        return lambda X: v
    if kind == "var":
        j = node[1]
        return lambda X: X[:, j]
    if kind == "guard":
        val, point, repl = (_compile(c) for c in node[1:])
        return lambda X: np.where(X[:, 0] == point(X), repl(X), val(X))
    if kind in ("call1", "call2"):
        fn = (_FUNCS_1 if kind == "call1" else _FUNCS_2)[node[1]]
        args = [_compile(c) for c in node[2:]]
        return lambda X: fn(*[_column(a(X), X) for a in args])
    a = _compile(node[1])
    if kind == "neg":
        return lambda X: -a(X)
    b = _compile(node[2])
    if kind == "add":
        return lambda X: a(X) + b(X)
    if kind == "sub":
        return lambda X: a(X) - b(X)
    if kind == "mul":
        return lambda X: _times(a(X), b(X))
    if kind == "div":
        return lambda X: a(X) / b(X)
    if kind == "pow":
        return lambda X: np.power(_column(a(X), X), _column(b(X), X))
    raise AssertionError(f"unknown node {kind}")


def parse_expr(src: str, m: int) -> FunctionHandle:
    """Parse an expression into a handle on R^m.

    Top-level commas build a vector-valued map, one component each.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    comps = [_fold(c) for c in _Parser(src, m).parse_vector()]
    parts = [_compile(c) for c in comps]
    if len(parts) == 1:
        (part,) = parts
        # a bare variable would hand back a view of the caller's points
        own = comps[0][0] == "var"

        def fn(X):
            with np.errstate(all="ignore"):
                v = _column(part(X), X)
            return (v.copy() if own else v)[:, None]
    else:
        def fn(X):
            with np.errstate(all="ignore"):
                return np.column_stack([_column(p(X), X) for p in parts])

    return FunctionHandle(m, len(comps), src.strip(), fn, "expression", {})


# ---------------------------------------------------------------------------
# builtins


def _h(name, m, n, fn, **meta):
    return FunctionHandle(m, n, name, fn, "builtin", meta)


def _osc(envelope):
    """x -> envelope(x) * sin(1/x), extended by 0 at x = 0."""

    def fn(X):
        x = X[:, 0]
        with np.errstate(all="ignore"):
            out = envelope(x) * np.sin(1.0 / x)
        return np.where(x == 0.0, 0.0, out)[:, None]

    return fn


# tables grow fourfold a level (0.5 GB at 10); the default ladder stops above 4**-10
PREISS_MAX_DEPTH = 10


def _preiss_tables(depth: int):
    """Breakpoints and sign field of the stratified interval family.

    Level n lays intervals of half-width s/8 at the points (j+1/2)*s,
    s = 4^-n.  The deepest level containing a point fixes the integrand
    sign (-1)^level.  Within each component of a level the next level
    covers at most half the measure (asserted by the construction test).
    """
    cuts = {0.0, 1.0}
    for nlev in range(1, depth + 1):
        s = 4.0 ** (-nlev)
        centers = (np.arange(int(round(1.0 / s))) + 0.5) * s
        cuts.update(np.clip(centers - s / 8.0, 0.0, 1.0))
        cuts.update(np.clip(centers + s / 8.0, 0.0, 1.0))
    bk = np.array(sorted(cuts))
    mids = (bk[:-1] + bk[1:]) / 2.0
    psi = np.zeros(len(mids), dtype=int)
    for nlev in range(1, depth + 1):
        s = 4.0 ** (-nlev)
        frac = np.mod(mids / s, 1.0)
        inside = np.abs(frac - 0.5) <= 0.125
        psi = np.where(inside, nlev, psi)
    signs = np.where(psi % 2 == 0, 1.0, -1.0)
    integ = np.concatenate([[0.0], np.cumsum(signs * np.diff(bk))])
    return bk, signs, integ


def _preiss_handle(depth: int) -> FunctionHandle:
    bk, signs, integ = _preiss_tables(depth)

    def fn(X):
        x = X[:, 0]
        inner = np.clip(x, 0.0, 1.0)
        idx = np.clip(np.searchsorted(bk, inner, side="right") - 1, 0, len(signs) - 1)
        val = integ[idx] + signs[idx] * (inner - bk[idx])
        # unit-slope extension outside [0, 1]
        val = val + np.where(x < 0.0, x, 0.0) + np.where(x > 1.0, x - 1.0, 0.0)
        return val[:, None]

    return _h(f"preiss_lip({depth})", 1, 1, fn,
              c1=False, scale_floor=4.0 ** (-depth))


_BUILTIN_SUMMARY = {
    "abs": "absolute value on R",
    "sqrt_abs": "sqrt(|x|), infinite slope at 0",
    "xsin": "x*sin(1/x) extended by 0",
    "x2sin": "x^2*sin(1/x) extended by 0",
    "x1sq_sin": "x1^2*sin(1/x1) on R^2, extended by 0",
    "cbrt_x1": "cbrt(x1) on R^2, vertical tangent on the x1=0 line",
    "cube": "x^3",
    "cbrt": "cbrt(x)",
    "abs32": "|x|^(3/2), differentiable with non-Lipschitz derivative at 0",
    "preiss_lip(d)": "1-Lipschitz stratified sign-field integral, depth d",
}


def _make_builtin(tag: str, arg: int | None) -> FunctionHandle:
    if tag == "abs":
        return _h("abs", 1, 1, lambda X: np.abs(X[:, :1]), c1=False)
    if tag == "sqrt_abs":
        return _h("sqrt_abs", 1, 1, lambda X: np.sqrt(np.abs(X[:, :1])), c1=False)
    if tag == "xsin":
        return _h("xsin", 1, 1, _osc(lambda x: x), c1=False)
    if tag == "x2sin":
        return _h("x2sin", 1, 1, _osc(lambda x: x * x), c1=False)
    if tag == "x1sq_sin":
        def fn(X):
            x1 = X[:, 0]
            with np.errstate(all="ignore"):
                out = x1 * x1 * np.sin(1.0 / x1)
            return np.where(x1 == 0.0, 0.0, out)[:, None]
        return _h("x1sq_sin", 2, 1, fn, c1=False)
    if tag == "cbrt_x1":
        return _h("cbrt_x1", 2, 1, lambda X: np.cbrt(X[:, :1]), c1=False)
    if tag == "cube":
        return _h("cube", 1, 1, lambda X: X[:, :1] ** 3, c1=True)
    if tag == "cbrt":
        return _h("cbrt", 1, 1, lambda X: np.cbrt(X[:, :1]), c1=False)
    if tag == "abs32":
        return _h("abs32", 1, 1, lambda X: np.abs(X[:, :1]) ** 1.5, c1=True)
    if tag == "preiss_lip":
        depth = 6 if arg is None else arg
        if depth > PREISS_MAX_DEPTH:
            raise KeyError(f"preiss_lip depth {depth} exceeds {PREISS_MAX_DEPTH}")
        return _preiss_handle(depth)
    raise KeyError(f"unknown builtin {tag!r}")


def builtin(tag: str) -> FunctionHandle:
    """Look up a builtin; parameterized ones use call syntax, 'preiss_lip(6)'."""
    mobj = re.fullmatch(r"\s*([A-Za-z_0-9]+)\s*(?:\(\s*(\d+)\s*\))?\s*", tag)
    if not mobj:
        raise KeyError(f"malformed builtin tag {tag!r}")
    name, arg = mobj.group(1), mobj.group(2)
    return _make_builtin(name, None if arg is None else int(arg))


def builtin_names() -> list[tuple[str, str]]:
    return sorted(_BUILTIN_SUMMARY.items())


# ---------------------------------------------------------------------------
# CSV ingestion

def read_csv_columns(path: str):
    """Read an x1..xd[,label] table; returns (points, labels_or_None).

    One ``np.loadtxt`` call parses the rows below the header.  It reads a
    number as float() does, or fails on it, and fails on a row of the
    wrong width.  Where it fails, or the rows hold a quote (which only
    ``csv`` unquotes), no row at all or a non-finite number, ``_scan_rows``
    reads the rows through ``csv`` instead: it names the first faulty row
    or returns what loadtxt could not read, such as a blank row of cells.
    """
    # utf-8-sig drops the byte order mark some editors write
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), None)
        body = fh.read()
    if header is None:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in header]
    has_label = bool(header) and header[-1] == "label"
    coord_names = header[:-1] if has_label else header
    expected = [f"x{i+1}" for i in range(len(coord_names))]
    if coord_names != expected:
        raise ValueError(f"{path}: header must be x1,...,xd[,label], got {header}")
    ncoord = len(coord_names)
    if ncoord and body.strip() and '"' not in body:
        fields = [("x", float, (ncoord,))] + ([("label", object)] if has_label else [])
        try:
            table = np.loadtxt(io.StringIO(body), dtype=fields, delimiter=",",
                               comments=None, ndmin=1)
        except ValueError:
            table = None
        if table is not None and np.isfinite(table["x"]).all():
            labels = (np.asarray([c.strip() for c in table["label"].tolist()])
                      if has_label else None)
            return np.ascontiguousarray(table["x"]), labels
    return _scan_rows(path, body, len(header), ncoord, has_label)


def _scan_rows(path: str, body: str, width: int, ncoord: int, has_label: bool):
    """The table below the header row by row, through ``csv``: rows of
    blank cells are skipped, and the first row of the wrong width, with a
    bad number or with a non-finite one raises with its row number."""
    rows = csv.reader(io.StringIO(body, newline=""))
    data = [(r, row) for r, row in enumerate(rows, start=2)
            if any(map(str.strip, row))]
    for r, row in data:
        if len(row) != width:
            raise ValueError(f"{path}:{r}: expected {width} cells, got {len(row)}")
    if not data:
        raise ValueError(f"{path}: no data rows")
    cells = [row[:ncoord] for _, row in data]
    # numpy parses each cell as float() does
    try:
        points = np.array(cells, dtype=float)
        ok = bool(np.isfinite(points).all())
    except ValueError:
        ok = False
    if not ok:
        # name the first faulty row, and float()'s message for a bad cell
        for r, row in data:
            try:
                vals = [float(c) for c in row[:ncoord]]
            except ValueError as exc:
                raise ValueError(f"{path}:{r}: bad number ({exc})") from None
            if not np.isfinite(vals).all():
                raise ValueError(f"{path}:{r}: non-finite number in {','.join(row)!r}")
    labels = np.asarray([row[-1].strip() for _, row in data]) if has_label else None
    return points, labels


def _lattice_cell(g: np.ndarray, x: np.ndarray):
    """The index i of the cell [g[i], g[i+1]] of the sorted axis g that
    holds each x, the end cells taking the values outside, and x's offset
    in it as a fraction of the cell."""
    i = np.clip(np.searchsorted(g, x, "left") - 1, 0, len(g) - 2)
    return i, (x - g[i]) / (g[i + 1] - g[i])


def grid_handle_from_csv(path: str) -> FunctionHandle:
    """Function-table CSV -> piecewise-linear handle, exact at the nodes.

    The last column is the sample value; the leading columns must form a
    regular grid (1-D sorted axis, or a complete 2-D lattice).
    """
    points, labels = read_csv_columns(path)
    if labels is not None:
        raise ValueError(f"{path}: a function table cannot carry labels")
    d = points.shape[1]
    axes = [np.unique(points[:, c]) for c in range(d - 1)]
    if d in (2, 3) and min(len(a) for a in axes) < 2:
        raise ValueError(f"{path}: every axis of a function table needs at "
                         "least two nodes")
    if d == 2:
        order = np.argsort(points[:, 0])
        xs, vals = points[order, 0], points[order, 1]
        if len(axes[0]) != len(xs):
            raise ValueError(f"{path}: repeated sample abscissae")
        spacing = float(np.min(np.diff(xs)))

        def fn(X, xs=xs, vals=vals):
            return np.interp(X[:, 0], xs, vals)[:, None]

        return FunctionHandle(1, 1, path, fn, "grid", {"scale_floor": spacing})
    if d == 3:
        xs, ys = axes
        if len(xs) * len(ys) != len(points):
            raise ValueError(f"{path}: samples do not fill a complete lattice")
        idx = np.lexsort((points[:, 1], points[:, 0]))
        v = points[idx, 2].reshape(len(xs), len(ys))
        spacing = float(min(np.min(np.diff(xs)), np.min(np.diff(ys))))

        def fn(X, xs=xs, ys=ys, v=v):
            # bilinear in the cell, summed in the order of scipy's
            # RegularGridInterpolator, whose values the tests pin; the sum
            # starts at 0.0, so a corner of -0.0 reads +0.0 as there
            i, a = _lattice_cell(xs, X[:, 0])
            j, b = _lattice_cell(ys, X[:, 1])
            out = (0.0 + v[i, j] * (1 - a) * (1 - b) + v[i, j + 1] * (1 - a) * b
                   + v[i + 1, j] * a * (1 - b) + v[i + 1, j + 1] * a * b)
            return out[:, None]

        return FunctionHandle(2, 1, path, fn, "grid", {"scale_floor": spacing})
    raise ValueError(f"{path}: grid handles support 1 or 2 input dimensions")
