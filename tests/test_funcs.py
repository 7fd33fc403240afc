"""Expression parsing, builtin handles, and CSV ingestion."""

import csv
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conecalc import dini, funcs
from conecalc.errors import EvaluationError, ParseError


class TestParser:
    @pytest.mark.parametrize("src,x,want", [
        ("x^2 + 3*x - 1", 2.0, 9.0),
        ("2 + 3*4", 0.0, 14.0),
        ("2^3^2", 0.0, 512.0),          # right-associative power
        ("-x^2", 3.0, -9.0),
        ("(x + 1)/2", 4.0, 2.5),
        ("abs(-3) + sign(x)", -2.0, 2.0),
        ("min(x, 0) + max(x, 0)", -7.0, -7.0),
        ("cbrt(x)", -8.0, -2.0),
        ("sqrt(abs(x))", -9.0, 3.0),
        ("x - x", 123.0, 0.0),
    ])
    def test_scalar_values(self, src, x, want):
        h = funcs.parse_expr(src, 1)
        assert h.scalar(x) == pytest.approx(want, abs=1e-12)

    def test_trig(self):
        h = funcs.parse_expr("sin(x)^2 + cos(x)^2", 1)
        for x in (-1.3, 0.0, 2.7):
            assert h.scalar(x) == pytest.approx(1.0)

    def test_variable_aliases(self):
        h = funcs.parse_expr("x + 2*y + 4*z", 3)
        assert h.scalar(1.0, 1.0, 1.0) == 7.0
        h2 = funcs.parse_expr("x1 + 2*x2 + 4*x3", 3)
        assert h2.scalar(1.0, 1.0, 1.0) == 7.0

    def test_vector_expression(self):
        h = funcs.parse_expr("x1 + x2, x1 - x2", 2)
        assert (h.m, h.n) == (2, 2)
        out = h(np.array([3.0, 1.0]))
        assert out.tolist() == [4.0, 2.0]

    def test_batch_shape(self):
        h = funcs.parse_expr("x^2", 1)
        out = h(np.array([[1.0], [2.0], [3.0]]))
        assert out.shape == (3, 1)
        assert out[:, 0].tolist() == [1.0, 4.0, 9.0]

    def test_guard_substitutes_at_point(self):
        h = funcs.parse_expr("guard(sin(1/x), 0, 0)", 1)
        assert h.scalar(0.0) == 0.0
        assert h.scalar(0.5) == pytest.approx(math.sin(2.0))

    def test_zero_envelope_beats_oscillation(self):
        # 0 * sin(1/0) must evaluate to 0, not nan
        h = funcs.parse_expr("x*sin(1/x)", 1)
        assert h.scalar(0.0) == 0.0
        assert h.scalar(2.0 / math.pi) == pytest.approx(2.0 / math.pi)

    def test_nonfinite_raises_at_evaluation(self):
        h = funcs.parse_expr("1/x", 1)
        assert h.scalar(2.0) == 0.5
        with pytest.raises(EvaluationError, match="non-finite"):
            h.scalar(0.0)

    def test_zero_factor_rule_entry_by_entry(self):
        # an exact zero factor beats an inf or NaN partner, and a product
        # with a zero factor reads +0.0; a product that underflows without
        # one keeps its sign, and one that overflows stays +-inf
        a = np.array([0.0, -0.0, math.inf, math.nan, -1.0, 0.0, -1e-200, 1e200, 1e150, 2.0])
        b = np.array([math.inf, math.nan, 0.0, -0.0, 0.0, -math.inf, 1e-200, -1e200, 1e150, 3.0])
        want = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0, -math.inf, 1e150 * 1e150, 6.0])
        big = np.array([1e100, 1e150, -3.0])
        # the compiled closures run it with floating-point warnings off
        with np.errstate(all="ignore"):
            assert funcs._times(a, b).tobytes() == want.tobytes()
            assert funcs._times(np.float64(0.0), a).tobytes() == np.zeros(len(a)).tobytes()
            # no zero and nothing non-finite: the plain product, past 1e154 too
            assert funcs._times(big, big).tobytes() == (big * big).tobytes()

    @pytest.mark.parametrize("src,pts,row", [
        ("1/x1, x2", [[1.0, 1.0], [2.0, 2.0], [0.0, 3.0], [0.0, 4.0]], "[0.0, 3.0]"),
        ("x2, sqrt(x1)", [[1.0, 5.0], [-1.0, 6.0]], "[-1.0, 6.0]"),
        ("1e300*x1*x2", [[1.0, 1.0], [1e9, -1e300]], "[1000000000.0, -1e+300]"),
    ])
    def test_nonfinite_message_names_the_first_row(self, src, pts, row):
        h = funcs.parse_expr(src, 2)
        for X in (np.array(pts), np.asfortranarray(pts)):
            with pytest.raises(EvaluationError) as got:
                h(X)
            assert str(got.value) == f"{src} is non-finite at {row}"

    def test_huge_finite_values_pass(self):
        # the finite test's dot product overflows; the entries are finite
        h = funcs.parse_expr("1e300*x1", 1)
        assert h(np.array([[1.0], [-2.0]])).tolist() == [[1e300], [-2e300]]

    def test_nonfinite_constant_deferred(self):
        h = funcs.parse_expr("1/0", 1)  # parses fine
        with pytest.raises(EvaluationError):
            h.scalar(1.0)

    @pytest.mark.parametrize("src,m,pos", [
        ("x +", 1, 3),
        ("x1*x3", 2, 3),
        ("foo(x)", 1, 0),
        ("q + 1", 1, 0),
        ("x~2", 1, 1),
        ("min(x)", 1, 0),
    ])
    def test_errors_carry_positions(self, src, m, pos):
        with pytest.raises(ParseError) as ei:
            funcs.parse_expr(src, m)
        assert ei.value.position == pos
        assert f"position {pos}" in str(ei.value)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            funcs.parse_expr("x) + 1", 1)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_matches_python_arithmetic(self, a, b):
        h = funcs.parse_expr("x1*x2 - x1/2 + x2^2", 2)
        want = a * b - a / 2 + b ** 2
        assert h.scalar(a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)


def reference_fold(node):
    """Constant folding as the tree walker did it (the oracle's half)."""
    kind = node[0]
    if kind in ("num", "var"):
        return node
    folded = (kind,) + tuple(reference_fold(c) if isinstance(c, tuple) else c
                             for c in node[1:])
    children = [c for c in folded[1:] if isinstance(c, tuple)]
    if kind != "guard" and all(c[0] == "num" for c in children):
        try:
            val = reference_eval_node(folded, np.zeros((1, 1)))[0]
        except Exception:
            return folded
        if np.isfinite(val):
            return ("num", float(val))
    return folded


def reference_eval_node(node, X):
    """The tree walker that evaluated every node on every call."""
    kind = node[0]
    if kind == "num":
        return np.full(len(X), node[1])
    if kind == "var":
        return X[:, node[1]].copy()
    with np.errstate(all="ignore"):
        if kind == "neg":
            return -reference_eval_node(node[1], X)
        if kind == "add":
            return reference_eval_node(node[1], X) + reference_eval_node(node[2], X)
        if kind == "sub":
            return reference_eval_node(node[1], X) - reference_eval_node(node[2], X)
        if kind == "mul":
            a = reference_eval_node(node[1], X)
            b = reference_eval_node(node[2], X)
            out = a * b
            zero = (a == 0.0) | (b == 0.0)
            if zero.any():
                out = np.where(zero, 0.0, out)
            return out
        if kind == "div":
            return reference_eval_node(node[1], X) / reference_eval_node(node[2], X)
        if kind == "pow":
            return np.power(reference_eval_node(node[1], X),
                            reference_eval_node(node[2], X))
        if kind == "call1":
            return funcs._FUNCS_1[node[1]](reference_eval_node(node[2], X))
        if kind == "call2":
            return funcs._FUNCS_2[node[1]](reference_eval_node(node[2], X),
                                           reference_eval_node(node[3], X))
        if kind == "guard":
            val = reference_eval_node(node[1], X)
            point = reference_eval_node(node[2], X)
            repl = reference_eval_node(node[3], X)
            return np.where(X[:, 0] == point, repl, val)
    raise AssertionError(f"unknown node {kind}")


def reference_handle(src: str, m: int) -> funcs.FunctionHandle:
    comps = [reference_fold(c) for c in funcs._Parser(src, m).parse_vector()]

    def fn(X):
        return np.column_stack([reference_eval_node(c, X) for c in comps])

    return funcs.FunctionHandle(m, len(comps), src.strip(), fn)


def same_bits(a, b) -> bool:
    """Equal bytes, except that any NaN matches any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    return a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()


# every pair of these, signed zeros and overflow included, then values
# whose powers and sines round differently in different numpy kernels
SPECIAL = [0.0, -0.0, 5e-324, -1e-300, 0.3, -2.5, 7.0, 1e200, -1e300, 1.0]
POINTS = np.vstack([
    [(a, b) for a in SPECIAL for b in SPECIAL],
    np.random.default_rng(11).normal(size=(400, 2))
    * 10.0 ** np.random.default_rng(12).integers(-3, 4, size=(400, 1))])

_atoms = st.sampled_from(["x1", "x2", "0", "0.0", "1", "2", ".5", "1.5", "3"])


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(st.sampled_from(sorted(funcs._FUNCS_1)), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(sorted(funcs._FUNCS_2)), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        st.tuples(inner, inner, inner).map(
            lambda t: f"guard({t[0]}, {t[1]}, {t[2]})"),
    )


expressions = st.recursive(_atoms, _grow, max_leaves=8)


class TestCompiledExpressions:
    """Compiled closures give the tree walker's bits on every input."""

    @staticmethod
    def assert_same(src: str, X: np.ndarray):
        h, ref = funcs.parse_expr(src, 2), reference_handle(src, 2)
        for pts in (X, np.asfortranarray(X)):
            assert same_bits(h._fn(pts), ref._fn(pts)), src
            try:
                want = ref(pts)
            except EvaluationError as exc:
                with pytest.raises(EvaluationError) as got:
                    h(pts)
                assert str(got.value) == str(exc)
            else:
                assert h(pts).tobytes() == want.tobytes(), src

    @given(st.lists(expressions, min_size=1, max_size=3).map(", ".join))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_walker(self, src):
        self.assert_same(src, POINTS)

    @pytest.mark.parametrize("src", [
        "x1*x1*sin(1/x1)", "x1*sin(1/x1) + 0*x2", "guard(sin(1/x1), 0, 0)",
        "guard(x2/x1, 0.0, -x2)", "x1", "x2, x1", "-x1*0", "0*(1/0)",
        "x1^2 + x1^.5 + x1^1.5", "min(x1, -x1), max(x1*0, -0)", "1/0 + x1",
        "3", "sqrt(x1) * 0", "sign(x1) * x2 - x2",
    ])
    def test_named_cases(self, src):
        self.assert_same(src, POINTS)

    def test_a_bare_variable_is_a_copy(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = funcs.parse_expr("x2", 2)(X)
        out[:] = 0.0
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestHandleLayouts:
    """Every handle kind gives the same bits for coordinate-major points,
    which the quotient scan passes."""

    @staticmethod
    def assert_layouts_agree(h):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1.5, 1.5, size=(4099, h.m))
        X[::7] = 0.0
        X[1::11] *= 1e-9
        want = h(X)
        for pts in (np.asfortranarray(X), np.ascontiguousarray(X.T).T):
            assert h(pts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", [n.replace("(d)", "(4)")
                                      for n, _ in funcs.builtin_names()])
    def test_builtins(self, name):
        self.assert_layouts_agree(funcs.builtin(name))

    def test_grid_handles(self, tmp_path):
        xs = np.linspace(-2.0, 2.0, 17).tolist()
        line = tmp_path / "line.csv"
        line.write_text("x1,x2\n" + "".join(f"{x!r},{math.sin(3 * x)!r}\n" for x in xs))
        self.assert_layouts_agree(funcs.grid_handle_from_csv(str(line)))
        plane = tmp_path / "plane.csv"
        plane.write_text("x1,x2,x3\n" + "".join(
            f"{a!r},{b!r},{math.cos(a * b) + a!r}\n" for a in xs for b in xs[::2]))
        self.assert_layouts_agree(funcs.grid_handle_from_csv(str(plane)))

    def test_compositions(self):
        h = funcs.compose_handles(funcs.parse_expr("x1*x2, sin(x1)", 2),
                                  funcs.builtin("cbrt_x1"))
        self.assert_layouts_agree(h)


class TestBuiltins:
    def test_all_listed_tags_resolve(self):
        for name, _ in funcs.builtin_names():
            tag = name.replace("(d)", "(4)")
            h = funcs.builtin(tag)
            assert h.kind == "builtin"
            probe = np.zeros(h.m) + 0.3
            assert np.isfinite(h(probe)).all()

    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            funcs.builtin("nosuch")
        with pytest.raises(KeyError):
            funcs.builtin("preiss_lip(x)")

    def test_values(self):
        assert funcs.builtin("abs").scalar(-2.0) == 2.0
        assert funcs.builtin("cube").scalar(-2.0) == -8.0
        assert funcs.builtin("cbrt").scalar(-8.0) == -2.0
        assert funcs.builtin("abs32").scalar(-4.0) == 8.0
        assert funcs.builtin("sqrt_abs").scalar(-9.0) == 3.0
        assert funcs.builtin("xsin").scalar(0.0) == 0.0
        assert funcs.builtin("x2sin").scalar(0.0) == 0.0

    def test_x1sq_sin_ignores_second_coordinate(self):
        h = funcs.builtin("x1sq_sin")
        assert h.m == 2 and h.n == 1
        v = 0.09 * math.sin(1.0 / 0.3)
        assert h.scalar(0.3, 5.0) == pytest.approx(v)
        assert h.scalar(0.3, -2.0) == pytest.approx(v)
        assert h.scalar(0.0, 7.0) == 0.0

    def test_cbrt_x1_plane(self):
        h = funcs.builtin("cbrt_x1")
        assert h.scalar(8.0, 99.0) == pytest.approx(2.0)

    def test_compose_handles(self):
        h = funcs.compose_handles(funcs.builtin("cbrt"), funcs.builtin("cube"))
        for x in (-2.0, 0.0, 5.0):
            assert h.scalar(x) == pytest.approx(x, abs=1e-12)
        with pytest.raises(ValueError):
            funcs.compose_handles(funcs.builtin("x1sq_sin"),
                                  funcs.builtin("x1sq_sin"))


def preiss_family(depth: int):
    """The interval family of ``preiss_lip``: per level n, the intervals of
    half-width s/8 around the points (j + 1/2) s, s = 4^-n."""
    levels = []
    for nlev in range(1, depth + 1):
        s = 4.0 ** (-nlev)
        centers = (np.arange(int(round(1.0 / s))) + 0.5) * s
        levels.append([(c - s / 8.0, c + s / 8.0) for c in centers])
    return levels


class TestStratifiedFamily:
    def test_one_lipschitz(self):
        h = funcs.builtin("preiss_lip(6)")
        rng = np.random.default_rng(3)
        a = rng.uniform(-0.5, 1.5, 400)
        b = rng.uniform(-0.5, 1.5, 400)
        fa = h(a[:, None])[:, 0]
        fb = h(b[:, None])[:, 0]
        assert np.all(np.abs(fa - fb) <= np.abs(a - b) + 1e-12)

    def test_unit_slope_outside_core(self):
        h = funcs.builtin("preiss_lip(5)")
        f0, f1 = h.scalar(0.0), h.scalar(1.0)
        assert h.scalar(-0.3) == pytest.approx(f0 - 0.3)
        assert h.scalar(1.4) == pytest.approx(f1 + 0.4)

    def test_next_level_covers_at_most_half_of_each_component(self):
        depth = 4
        levels = preiss_family(depth)
        for n in range(depth - 1):
            nxt = levels[n + 1]
            for lo, hi in levels[n]:
                covered = sum(max(0.0, min(hi, b) - max(lo, a))
                              for a, b in nxt)
                assert covered <= 0.5 * (hi - lo) + 1e-12

    def test_level_measure(self):
        # each level covers a quarter of [0, 1]
        for n, level in enumerate(preiss_family(3), start=1):
            total = sum(hi - lo for lo, hi in level)
            assert total == pytest.approx(0.25)

    def test_depth_above_the_limit_is_rejected(self, monkeypatch):
        def boom(depth):
            raise AssertionError("the tables were built")
        monkeypatch.setattr(funcs, "_preiss_tables", boom)
        for depth in (funcs.PREISS_MAX_DEPTH + 1, 99):
            with pytest.raises(KeyError):
                funcs.builtin(f"preiss_lip({depth})")
        # the limit: the default ladder's deepest scale lies above 4**-10
        lad = dini.ScaleLadder()
        assert lad.radii().min() > 4.0 ** -funcs.PREISS_MAX_DEPTH

    def test_scale_floor_recorded(self):
        h = funcs.builtin("preiss_lip(6)")
        assert h.meta["scale_floor"] == pytest.approx(4.0 ** -6)


def reference_read_csv_columns(path: str):
    """The CSV reader as first written: every row through ``csv``, then one
    ``np.array`` of the cells, and a row by row scan for the first faulty
    row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    has_label = header and header[-1] == "label"
    coord_names = header[:-1] if has_label else header
    expected = [f"x{i+1}" for i in range(len(coord_names))]
    if coord_names != expected:
        raise ValueError(f"{path}: header must be x1,...,xd[,label], got {header}")
    width = len(header)
    data = [(r, row) for r, row in enumerate(rows[1:], start=2)
            if any(map(str.strip, row))]
    for r, row in data:
        if len(row) != width:
            raise ValueError(f"{path}:{r}: expected {width} cells, got {len(row)}")
    if not data:
        raise ValueError(f"{path}: no data rows")
    ncoord = len(coord_names)
    cells = [row[:ncoord] for _, row in data]
    try:
        points = np.array(cells, dtype=float)
        ok = bool(np.isfinite(points).all())
    except ValueError:
        ok = False
    if not ok:
        for r, row in data:
            try:
                vals = [float(c) for c in row[:ncoord]]
            except ValueError as exc:
                raise ValueError(f"{path}:{r}: bad number ({exc})") from None
            if not np.isfinite(vals).all():
                raise ValueError(f"{path}:{r}: non-finite number in {','.join(row)!r}")
    labels = np.asarray([row[-1].strip() for _, row in data]) if has_label else None
    return points, labels


def read_outcome(reader, path):
    """What a reader makes of a file: the bytes, shape and labels it
    returns, or its error message."""
    try:
        points, labels = reader(path)
    except ValueError as exc:
        return str(exc)
    return (points.dtype.str, points.shape, points.tobytes(),
            None if labels is None else (labels.dtype.str, labels.tolist()))


def assert_readers_agree(path):
    got = read_outcome(funcs.read_csv_columns, path)
    assert got == read_outcome(reference_read_csv_columns, path)
    return got


FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-2.0, 2.0).map(lambda v: f"{v:.3f}"),
    st.integers(-10 ** 6, 10 ** 6).map(str),
)
ODD_CELLS = st.sampled_from(["1_000", '"1.5"', '" 2"', " 1.5 ", "+.5", "-0", "1e-400",
                             "4.9e-324", "1.", "inf", "-Infinity", "nan", "zz", "",
                             " ", "0x10", "1d5", "#1", "1 2"])
LABEL_CELLS = st.sampled_from(["A", "B", " A ", "b c", "", '"A"', '"B,C"', "label", "1"])


@st.composite
def csv_texts(draw):
    """Tables of 1-3 coordinates, labeled or not, with CRLF or LF line
    ends, blank and \" , \" rows, odd cells, trailing commas and rows of
    the wrong width."""
    dim = draw(st.integers(1, 3))
    labeled = draw(st.booleans())
    header = [f"x{i + 1}" for i in range(dim)] + (["label"] if labeled else [])
    head = draw(st.sampled_from([",".join(header)] * 6 + [
        ", ".join(header), ",".join(header) + ",", "x,y"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [head]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "short", "long"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " , ", " ", ","])))
            continue
        cells = [draw(ODD_CELLS if draw(st.integers(0, 9)) == 0 else FLOAT_CELLS)
                 for _ in range(dim)]
        cells += [draw(LABEL_CELLS)] if labeled else []
        if kind == "short":
            cells = cells[:-1]
        elif kind == "long":
            cells.append("")
        lines.append(",".join(cells))
    last = draw(st.sampled_from([end, ""]))
    return end.join(lines) + last


def wedge_cloud_csv_of_the_benchmark(path, seed):
    """The ``cones-cloud-3d`` benchmark's cloud file for the seed."""
    spec = importlib.util.spec_from_file_location(
        "conebench_workloads", Path(__file__).resolve().parents[1] / "conebench" / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = wl
    spec.loader.exec_module(wl)
    wl.write_cloud_csv(wl.wedge_cloud(seed), path)


class TestCsvParity:
    """The one-call parse against the reader as first written: the same
    array bytes, labels and error messages."""

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_generated_tables(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("csv") / "c.csv"
        p.write_bytes(text.encode())
        assert_readers_agree(str(p))

    def test_benchmark_wedge_cloud(self, tmp_path):
        p = tmp_path / "cloud.csv"
        wedge_cloud_csv_of_the_benchmark(p, 101)
        points, labels = funcs.read_csv_columns(str(p))
        assert points.shape == (20_000, 3) and labels is None
        assert points.flags.c_contiguous
        assert_readers_agree(str(p))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_labeled_clouds(self, tmp_path, dim, end):
        rng = np.random.default_rng(dim)
        pts = rng.uniform(-1.0, 1.0, (2000, dim))
        labels = np.where(pts[:, -1] >= np.abs(pts[:, 0]), "A", "B")
        head = ",".join(f"x{i + 1}" for i in range(dim)) + ",label"
        p = tmp_path / "c.csv"
        p.write_bytes((head + end + "".join(
            ",".join(repr(float(v)) for v in row) + f",{lab}" + end
            for row, lab in zip(pts, labels))).encode())
        got = assert_readers_agree(str(p))
        assert got[2] == pts.tobytes() and got[3][1] == labels.tolist()

    @pytest.mark.parametrize("text", [
        "x1,x2\n1,2\n", "x1,x2\r\n1,2\r\n\r\n , \r\n3,4\r\n", "x1,x2\r1,2\r3,4\r",
        "x1\n1_000\n", 'x1,label\n"1.5","A"\n2,B\n', "x1,x2\n1,2,\n",
        "x1,x2,label\n1,2,\n", "x1,x2\n1,2\n3\n", "x1,x2\n", "x1,x2\n\n\n",
        "x1,x2\n , \n", "x1\ninf\n", "x1\nnan\n", "x1\nzz\n", "\n", "\n1\n",
        "label\nA\n", "x1,x2\n1,2\n3,4,5\n", "x1\n\x0c\n2\n",
    ])
    def test_edge_tables(self, tmp_path, text):
        p = tmp_path / "c.csv"
        p.write_bytes(text.encode())
        assert_readers_agree(str(p))


class TestCsv:
    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_read_labeled_columns(self, tmp_path):
        p = self._write(tmp_path, "c.csv",
                        "x1,x2,label\n0,0,A\n1,0,B\n0.5,0.5,A\n")
        pts, labels = funcs.read_csv_columns(p)
        assert pts.shape == (3, 2)
        assert labels.tolist() == ["A", "B", "A"]

    def test_read_unlabeled(self, tmp_path):
        p = self._write(tmp_path, "c.csv", "x1\n0\n1\n2\n")
        pts, labels = funcs.read_csv_columns(p)
        assert pts.shape == (3, 1) and labels is None

    def test_header_must_match(self, tmp_path):
        p = self._write(tmp_path, "c.csv", "x,y\n0,0\n")
        with pytest.raises(ValueError, match="header"):
            funcs.read_csv_columns(p)

    def test_bad_number_reports_row(self, tmp_path):
        p = self._write(tmp_path, "c.csv", "x1\n0\nhello\n")
        with pytest.raises(ValueError, match=":3:"):
            funcs.read_csv_columns(p)

    def test_cells_parse_as_float_does(self, tmp_path):
        cells = ["1_000", " 1.5 ", "+.5", "-0", "1e-400", "4.9e-324", "0.1"]
        text = "x1,x2\n" + "".join(f"{c},{c}\n\n , \n" for c in cells)
        pts, _ = funcs.read_csv_columns(self._write(tmp_path, "c.csv", text))
        want = np.array([[float(c)] * 2 for c in cells])
        assert pts.tobytes() == want.tobytes()

    @pytest.mark.parametrize("body,message", [
        ("0,0\n1,inf\n2,zz\n", r":3: non-finite number in '1,inf'"),
        ("0,0\n2,zz\n1,inf\n", r":3: bad number \(could not convert string "
                                r"to float: 'zz'\)"),
    ])
    def test_first_bad_row_is_named(self, tmp_path, body, message):
        p = self._write(tmp_path, "c.csv", "x1,x2\n" + body)
        with pytest.raises(ValueError, match=message):
            funcs.read_csv_columns(p)

    def test_byte_order_mark(self, tmp_path):
        # editors that save "UTF-8 with BOM" put U+FEFF before the header
        p = tmp_path / "c.csv"
        p.write_bytes(b"\xef\xbb\xbfx1,x2\n0,0\n1,0\n0,1\n")
        pts, labels = funcs.read_csv_columns(str(p))
        assert pts.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]] and labels is None
        p.write_bytes(b"\xef\xbb\xbfx1,x2\n0,0\n1,zz\n")
        with pytest.raises(ValueError, match=r"c\.csv:3: bad number"):
            funcs.read_csv_columns(str(p))

    def test_digits_loadtxt_does_not_read(self, tmp_path):
        # float() reads other scripts' digits; the row scan takes them
        p = self._write(tmp_path, "c.csv", "x1\n\u0661\n2\n")
        assert funcs.read_csv_columns(p)[0].tolist() == [[1.0], [2.0]]

    def test_empty_and_headers_only(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            funcs.read_csv_columns(self._write(tmp_path, "a.csv", ""))
        with pytest.raises(ValueError, match="no data"):
            funcs.read_csv_columns(self._write(tmp_path, "b.csv", "x1\n"))

    def test_grid_handle_1d_interpolates(self, tmp_path):
        xs = np.linspace(-1.0, 1.0, 21)
        body = "\n".join(f"{x},{x * x}" for x in xs)
        p = self._write(tmp_path, "g.csv", "x1,x2\n" + body + "\n")
        h = funcs.grid_handle_from_csv(p)
        assert (h.m, h.n) == (1, 1)
        for x in xs:
            assert h.scalar(x) == pytest.approx(x * x, abs=1e-12)
        # piecewise linear between nodes
        mid = (xs[3] + xs[4]) / 2
        assert h.scalar(mid) == pytest.approx((xs[3] ** 2 + xs[4] ** 2) / 2)
        assert h.meta["scale_floor"] == pytest.approx(0.1)

    def test_grid_handle_1d_rejects_duplicates(self, tmp_path):
        p = self._write(tmp_path, "g.csv", "x1,x2\n0,0\n0,1\n1,1\n")
        with pytest.raises(ValueError, match="repeated"):
            funcs.grid_handle_from_csv(p)

    def test_grid_handle_2d_lattice(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 6)
        ys = np.linspace(0.0, 2.0, 5)
        rows = [f"{x},{y},{x + 2 * y}" for x in xs for y in ys]
        p = self._write(tmp_path, "g.csv", "x1,x2,x3\n" + "\n".join(rows) + "\n")
        h = funcs.grid_handle_from_csv(p)
        assert (h.m, h.n) == (2, 1)
        assert h.scalar(0.4, 1.0) == pytest.approx(2.4)
        assert h.scalar(0.37, 0.93) == pytest.approx(0.37 + 1.86)

    @pytest.mark.parametrize("seed", range(3))
    def test_grid_handle_2d_equals_scipy_bilinear(self, tmp_path, seed):
        # the lookup sums scipy's terms in scipy's order: equal bit for bit
        # between nodes, at nodes, on signed zeros and outside the lattice
        from scipy.interpolate import RegularGridInterpolator

        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(2, 12, size=2)
        xs = np.sort(rng.choice(np.linspace(-2.0, 2.0, 81), nx, replace=False))
        ys = np.sort(rng.choice(np.linspace(-1.0, 3.0, 81), ny, replace=False))
        vals = rng.standard_normal((nx, ny)) * 10.0 ** rng.uniform(-3, 3, (nx, ny))
        # scipy reads +0.0 at a node of value -0.0 whose cell is negative
        vals[:2, :2] = -np.abs(vals[:2, :2])
        vals[0, 0] = -0.0
        rows = [f"{float(x)!r},{float(y)!r},{float(vals[i, j])!r}"
                for i, x in enumerate(xs) for j, y in enumerate(ys)]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        h = funcs.grid_handle_from_csv(
            self._write(tmp_path, "g.csv", "x1,x2,x3\n" + "\n".join(rows) + "\n"))
        X = rng.uniform([-3.0, -2.0], [3.0, 4.0], size=(20_000, 2))
        X[:500, 0] = rng.choice(xs, 500)
        X[250:750, 1] = rng.choice(ys, 500)
        X[0] = xs[0], ys[0]
        want = RegularGridInterpolator((xs, ys), vals, method="linear",
                                       bounds_error=False, fill_value=None)(X)
        assert h(X)[:, 0].tobytes() == want.tobytes()

    def test_grid_handle_2d_incomplete_lattice(self, tmp_path):
        p = self._write(tmp_path, "g.csv",
                        "x1,x2,x3\n0,0,0\n0,1,1\n1,0,2\n")
        with pytest.raises(ValueError, match="lattice"):
            funcs.grid_handle_from_csv(p)

    def test_grid_handle_rejects_labels(self, tmp_path):
        p = self._write(tmp_path, "g.csv", "x1,label\n0,A\n1,B\n")
        with pytest.raises(ValueError, match="labels"):
            funcs.grid_handle_from_csv(p)
