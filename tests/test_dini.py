"""Directional quotient estimation: slabs, the fixed-base bounds, Lipschitz
constants."""

import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from conecalc import analysis, dini, funcs, sampling
from conecalc.errors import DimensionMismatchError

LAD = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=0, k_max=10, seed=0)


class TestScaleLadder:
    def test_radii_geometric(self):
        lad = dini.ScaleLadder(t0=0.2, ratio=0.5, k_min=1, k_max=4)
        assert np.allclose(lad.radii(), [0.1, 0.05, 0.025, 0.0125])

    @pytest.mark.parametrize("kw", [
        {"ratio": 1.2}, {"ratio": 0.0},
        {"k_min": 5, "k_max": 5},
        {"t0": 1e-12, "k_max": 30},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            dini.ScaleLadder(**{"t0": 0.1, "ratio": 0.5,
                                "k_min": 0, "k_max": 8, **kw})

    def test_clamped_keeps_three_scales(self):
        lad = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=4, k_max=16)
        c = lad.clamped(1e-3)
        assert c.k_max - c.k_min >= 2
        assert c.radii().min() >= 1e-3 * c.ratio

    def test_clamped_noop_for_tiny_floor(self):
        lad = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=4, k_max=16)
        assert lad.clamped(1e-12) == lad
        assert lad.clamped(None) == lad

    def test_for_handle_reads_scale_floor(self):
        lad = dini.ScaleLadder(t0=0.5, ratio=0.5, k_min=0, k_max=20)
        h = funcs.builtin("preiss_lip(4)")
        c = lad.for_handle(h)
        assert c.k_max < lad.k_max
        assert c.radii().min() >= 4.0 ** -4 * 0.5

    def test_resolve_seed(self, monkeypatch):
        monkeypatch.delenv("CONECALC_SEED", raising=False)
        assert dini.resolve_seed(None) == 0
        assert dini.resolve_seed(5) == 5
        monkeypatch.setenv("CONECALC_SEED", "77")
        assert dini.resolve_seed(None) == 77
        assert dini.resolve_seed(5) == 5
        assert dini.ScaleLadder(seed=None).resolved_seed() == 77
        monkeypatch.setenv("CONECALC_SEED", "abc")
        with pytest.raises(ValueError, match="CONECALC_SEED must be an integer"):
            dini.resolve_seed(None)


def upper(h, x, u, moving_base=True):
    """sup quotient along u (moving base) or upper Dini derivative (fixed)."""
    return dini.quotient_scan(h, x, [u], LAD, moving_base)[0].limit


def lower(h, x, u, moving_base=True):
    """The inf side, by the antipodal identity inf Q(u) = -sup Q(-u)."""
    return -dini.quotient_scan(h, x, -np.array([u], dtype=float), LAD,
                               moving_base)[0].limit


def pointwise(h, x, lad=LAD):
    """The pointwise constant of the point's one fixed-base scan."""
    return dini.pointwise_lipschitz(dini.fixed_bounds(h, x, lad))


def radial(h, x):
    """(radial_low, radial_high) of the extremum tag."""
    out = analysis.fo_extremum(h, x, LAD)
    return out["radial_low"], out["radial_high"]


class TestQuotients:
    def test_linear_exact(self):
        h = funcs.parse_expr("3*x", 1)
        assert upper(h, [0.0], [1.0]) == pytest.approx(3.0, abs=1e-6)
        assert lower(h, [0.0], [1.0]) == pytest.approx(3.0, abs=1e-6)
        assert upper(h, [0.0], [-1.0]) == pytest.approx(-3.0, abs=1e-6)

    def test_linear_multidim_exact(self):
        # direction jitter decays like ratio^(2k); at the extrapolated
        # shells it leaves a few-ppm wobble, hence the 1e-5 budget
        h = funcs.parse_expr("2*x1 - x2", 2)
        for u in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
            want = 2 * u[0] - u[1]
            got = upper(h, [0.3, -0.2], u)
            assert got == pytest.approx(want, abs=1e-5)

    def test_positive_homogeneity(self):
        h = funcs.parse_expr("x1^2 + sin(x2)", 2)
        base = upper(h, [0.5, 0.1], [0.6, 0.8])
        double = upper(h, [0.5, 0.1], [1.2, 1.6])
        assert double == pytest.approx(2 * base, abs=5e-4)

    def test_ordering_chain(self):
        # inf quotient <= inf derivative <= sup derivative <= sup quotient
        cases = [(funcs.builtin("abs"), 0.0), (funcs.builtin("x2sin"), 0.0),
                 (funcs.builtin("cube"), 0.7),
                 (funcs.builtin("preiss_lip(5)"), 0.37)]
        for h, x in cases:
            iq = lower(h, [x], [1.0])
            idv = lower(h, [x], [1.0], moving_base=False)
            sdv = upper(h, [x], [1.0], moving_base=False)
            sq = upper(h, [x], [1.0])
            eps = 1e-6
            assert iq <= idv + eps <= sdv + 2 * eps <= sq + 3 * eps

    def test_moving_vs_fixed_base_on_oscillation(self):
        # x^2 sin(1/x): one-sided derivative at 0 vanishes, but slopes
        # near 0 approach 1, so the moving-base quotient sees them
        h = funcs.builtin("x2sin")
        assert abs(upper(h, [0.0], [1.0], moving_base=False)) <= 0.05
        assert upper(h, [0.0], [1.0]) == pytest.approx(1.0, abs=0.05)

    def test_abs_slab_at_kink(self):
        h = funcs.builtin("abs")
        assert upper(h, [0.0], [1.0]) == pytest.approx(1.0, abs=1e-6)
        assert lower(h, [0.0], [1.0]) == pytest.approx(-1.0, abs=1e-6)
        assert upper(h, [0.0], [1.0], moving_base=False) == pytest.approx(1.0, abs=1e-6)

    def test_divergence_flagged(self):
        h = funcs.builtin("sqrt_abs")
        p = dini.quotient_scan(h, [0.0], [1.0], LAD, moving_base=True)[0]
        assert p.limit == math.inf and p.diverged

    def test_profile_table(self):
        p = dini.quotient_scan(funcs.builtin("abs"), [0.0], [1.0], LAD,
                               moving_base=True)[0]
        rows = p.table()
        assert len(rows) == len(LAD.radii())
        assert all(set(r) == {"radius", "high", "low"} for r in rows)

    def test_slabs_match_single_queries(self):
        h = funcs.builtin("abs")
        U = np.array([[1.0], [-1.0]])
        lows, highs, vertical, _ = dini.slabs(h, [0.0], U, LAD)
        assert highs == pytest.approx([1.0, 1.0], abs=1e-6)
        assert lows == pytest.approx([-1.0, -1.0], abs=1e-6)
        assert not vertical

    def test_slabs_see_the_vertical_of_a_cusp(self):
        _, _, vertical, _ = dini.slabs(funcs.builtin("sqrt_abs"), [0.0], [[1.0]], LAD)
        assert vertical

    def test_vector_function_rejected(self):
        # the extremum tag reads a signed quotient
        h = funcs.parse_expr("x, 2*x", 1)
        with pytest.raises(DimensionMismatchError):
            analysis.fo_extremum(h, [0.0], LAD)


class TestRadialBounds:
    """The extremum tag's radial bounds: the least lower and the largest
    upper Dini limit of the fixed-base scan."""

    def test_kink(self):
        lo, hi = radial(funcs.builtin("abs"), [0.0])
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_smooth_point_symmetric(self):
        lo, hi = radial(funcs.builtin("abs"), [1.0])
        assert lo == pytest.approx(-1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_flat(self):
        lo, hi = radial(funcs.builtin("cube"), [0.0])
        assert abs(lo) <= 1e-4 and abs(hi) <= 1e-4

    def test_blowup(self):
        lo, hi = radial(funcs.builtin("sqrt_abs"), [0.0])
        assert hi == math.inf


class TestLipschitzConstants:
    """The pointwise constant comes from a fixed-base scan here; the local
    one is read off the graph Whitney cone by ``classify_point``."""

    def test_kink(self):
        h = funcs.builtin("abs")
        assert pointwise(h, [0.0]) == pytest.approx(1.0, abs=1e-4)
        rep = analysis.classify_point(h, [0.0], LAD)
        assert rep.lipschitz_constant == pytest.approx(1.0, abs=1e-4)

    def test_smooth(self):
        h = funcs.builtin("cube")
        assert pointwise(h, [1.0]) == pytest.approx(3.0, abs=0.05)
        rep = analysis.classify_point(h, [1.0], LAD)
        assert rep.lipschitz_constant == pytest.approx(3.0, abs=0.05)

    def test_pointwise_strictly_smaller_on_oscillation(self):
        h = funcs.builtin("x2sin")
        assert pointwise(h, [0.0]) <= 0.1
        rep = analysis.classify_point(h, [0.0], LAD)
        assert rep.lipschitz_constant == pytest.approx(1.0, abs=0.1)

    def test_vector_valued_reduces_over_covectors(self):
        h = funcs.parse_expr("x1 + x2, x1 - x2", 2)
        # operator norm of [[1,1],[1,-1]] is sqrt(2)
        assert pointwise(h, [0.0, 0.0]) == pytest.approx(math.sqrt(2), abs=0.05)
        rep = analysis.classify_point(h, [0.0, 0.0], LAD)
        assert rep.lipschitz_constant == pytest.approx(math.sqrt(2), abs=0.05)

    def test_local_never_below_pointwise(self):
        for tag, x in (("abs", 0.3), ("xsin", 0.0), ("preiss_lip(5)", 0.61)):
            rep = analysis.classify_point(funcs.builtin(tag), [x], LAD)
            # the moving-base slab holds the fixed-base quotients, so W's
            # slopes need no floor to reach the pointwise constant
            local = analysis._local_constant(rep.whitney, 1)
            assert local >= rep.pointwise_lipschitz - 1e-9


class TestStackedScan:
    """A stacked scan gives every row the profile of its own scan."""

    H2 = funcs.parse_expr("sin(x1) + x2*x2 + abs(x1 - x2)", 2)
    X2 = [0.3, 0.3]
    U2 = np.array([[1.0, 0.0], [0.6, -0.8], [0.0, 0.0], [-2.0, 1.0],
                   [0.0, -1.0]])

    @staticmethod
    def assert_same(stacked, single):
        for a, b in zip(stacked, single):
            assert np.array_equal(a.highs, b.highs)
            assert np.array_equal(a.lows, b.lows)
            assert np.array_equal(a.scales, b.scales)
            assert (a.limit, a.diverged, a.stable) == (b.limit, b.diverged, b.stable)

    @pytest.mark.parametrize("moving_base", [False, True])
    def test_rows_match_single_scans(self, moving_base):
        stacked = dini.quotient_scan(self.H2, self.X2, self.U2, LAD, moving_base)
        single = [dini.quotient_scan(self.H2, self.X2, u, LAD, moving_base)[0]
                  for u in self.U2]
        assert len(stacked) == len(self.U2)
        self.assert_same(stacked, single)

    @pytest.mark.parametrize("moving_base", [False, True])
    def test_zero_direction_on_a_cusp(self, moving_base):
        h = funcs.builtin("sqrt_abs")
        U = np.array([[1.0], [0.0], [-1.0]])
        stacked = dini.quotient_scan(h, [0.0], U, LAD, moving_base)
        single = [dini.quotient_scan(h, [0.0], u, LAD, moving_base)[0] for u in U]
        self.assert_same(stacked, single)
        if moving_base:
            # the vertical belongs to the Whitney cone of sqrt|x| at 0
            assert stacked[1].diverged or stacked[1].limit > dini.DIVERGENCE_CAP

    def test_row_cap_splits_calls_without_changing_profiles(self, monkeypatch):
        whole = dini.quotient_scan(self.H2, self.X2, self.U2, LAD, True)
        monkeypatch.setattr(dini, "QUOTIENT_ROW_CAP", 1000)
        split = dini.quotient_scan(self.H2, self.X2, self.U2, LAD, True)
        self.assert_same(split, whole)

    def test_one_probe_call_per_scale(self):
        calls = []

        def fn(X):
            calls.append(len(X))
            return np.sin(X[:, :1]) + X[:, 1:] ** 2

        h = funcs.FunctionHandle(2, 1, "counted", fn)
        dini.quotient_scan(h, self.X2, self.U2, LAD, moving_base=True)
        # base values, then the whole t sub-ladder of every row
        assert len(calls) == 2 * len(LAD.radii())

    def test_slabs_match_single_scans(self):
        U = np.array([[1.0, 0.0], [0.6, -0.8], [-1.0, 0.0]])
        lows, highs, vertical, _ = dini.slabs(self.H2, self.X2, U, LAD)
        assert np.array_equal(highs, [upper(self.H2, self.X2, u) for u in U])
        assert np.array_equal(lows, [lower(self.H2, self.X2, u) for u in U])
        zero = dini.quotient_scan(self.H2, self.X2, [0.0, 0.0], LAD, True)[0]
        assert vertical == (zero.diverged or abs(zero.limit) > dini.DIVERGENCE_CAP)
        assert not vertical

    def test_inf_derivatives_match_single_queries(self):
        # the fixed-base limits that the pointwise constant, the extremum
        # tag and conormal._epigraph_tangent read, off the slab scan of the
        # circle grid's first half U: rows -U then U, every second degree
        # of each; each row as its own fixed-base scan
        got = dini.fixed_bounds(self.H2, self.X2, LAD)
        half = np.split(dini._direction_grid(2), 2)[0]
        assert np.array_equal(got.rows, np.vstack([-half[::2], half[::2]]))
        for i in (0, 45, 90, 137):
            single = dini.quotient_scan(self.H2, self.X2, got.rows[i], LAD,
                                        moving_base=False)[0]
            assert got.highs[i] == single.limit
            assert got.lows[i] == dini._extrapolate(single.lows)[0]


def reference_extrapolate(values):
    """The per-row extrapolation that the vectorized one replaced."""
    v = np.asarray(values, dtype=float)
    for sign in (1.0, -1.0):
        w = sign * v
        late = float(np.median(w[-min(3, len(w)):]))
        if late >= dini.DIVERGENCE_CAP:
            if np.max(w) >= dini.HARD_CAP:
                return sign * math.inf, True, False
            if len(w) >= 5 and late >= 5.0 * max(float(np.max(w[:3])), 1e-12):
                return sign * math.inf, True, False
    tail = v[-min(3, len(v)):]
    limit = float(np.median(tail))
    spread = float(np.max(tail) - np.min(tail))
    stable = spread <= 0.05 * max(1.0, abs(limit))
    return limit, False, stable


def reference_limit(highs, shallow):
    """One row's limit, with the shallow track's blow-up test on top."""
    limit, diverged, stable = reference_extrapolate(highs)
    if (not diverged and len(highs) >= 5 and math.isfinite(limit)
            and limit >= dini.DIVERGENCE_CAP):
        late_sh = float(np.median(shallow[-3:]))
        early_sh = max(float(np.max(shallow[:3])), 1e-12)
        if late_sh >= 5.0 * early_sh and float(np.mean(np.diff(shallow) >= 0)) >= 0.6:
            limit, diverged, stable = math.inf, True, False
    return limit, diverged, stable


# levels around both caps, signed zeros and infinities; never NaN
LEVELS = [0.0, -0.0, 1e-13, 0.3, -0.3, 2.0, 199.0, 200.0, 999.0, 1e3,
          1001.0, 5e3, 1e9, 2e9, 1e300, math.inf, -math.inf, -1e3, -5e3, -1e9]
ladders = st.integers(2, 9).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from(LEVELS) | st.floats(-1e4, 1e4),
                                min_size=n, max_size=n), min_size=1, max_size=6))


def same_limits(got, want):
    """Vectorized (limit, diverged, stable) arrays against per-row tuples."""
    limit, diverged, stable = got
    assert np.asarray(limit).tobytes() == np.array([w[0] for w in want]).tobytes()
    assert np.asarray(diverged).tolist() == [w[1] for w in want]
    assert np.asarray(stable).tolist() == [w[2] for w in want]


class TestVectorizedExtrapolation:
    """All rows at once give the per-row bits, signed zeros included."""

    @given(ladders)
    @settings(max_examples=400, deadline=None)
    def test_equals_the_per_row_version(self, rows):
        V = np.array(rows)
        with np.errstate(all="ignore"):
            same_limits(dini._extrapolate(V), [reference_extrapolate(r) for r in V])

    @given(ladders, st.data())
    @settings(max_examples=300, deadline=None)
    def test_shallow_rule_equals_the_per_row_version(self, rows, data):
        H = np.array(rows)
        S = np.array(data.draw(st.lists(
            st.lists(st.sampled_from(LEVELS) | st.floats(-1e4, 1e4),
                     min_size=H.shape[1], max_size=H.shape[1]),
            min_size=len(H), max_size=len(H))))
        with np.errstate(all="ignore"):
            same_limits(dini._limits(H, S),
                        [reference_limit(h, s) for h, s in zip(H, S)])

    @pytest.mark.parametrize("row", [
        [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0],
        [5.0, -0.0, 0.0, -0.0], [1e3, 2e3, 4e3, 8e3, 1.6e4, 3.2e4],
        [math.inf, math.inf, 1.0], [-math.inf, 2.0], [1.0, 2.0, 1e9, 3.0, 4.0],
    ])
    def test_named_rows(self, row):
        same_limits(dini._extrapolate(np.array([row, row])),
                    [reference_extrapolate(row)] * 2)

    def test_radial_bounds_return_floats(self):
        lo, hi = radial(funcs.builtin("abs"), [0.0])
        assert type(lo) is float and type(hi) is float


class TestNormQuotient:
    """A vector map is scanned through the norm of its increment."""

    # the large constant puts the noise floor of the whole map at |f| ~ 1e4
    MAP = funcs.parse_expr("10000 + x1 + x2*x2, x1*x2 + sin(x2), abs(x1) - x2", 2)
    X = [0.2, -0.1]
    U = np.array([[1.0, 0.0], [0.6, -0.8], [0.0, 0.0], [-2.0, 1.0]])

    @pytest.mark.parametrize("moving_base", [False, True])
    def test_linear_map_reads_the_norm_of_its_image(self, moving_base):
        L = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]])
        h = funcs.parse_expr("2*x1 - x2, 0.5*x1 + 3*x2, x1 + x2", 2)
        U = np.array([[1.0, 0.0], [0.6, -0.8], [-2.0, 1.0], [0.0, -0.5]])
        # the default ladder's deepest jitter windows are ~1e-9 wide
        got = [p.limit for p in dini.quotient_scan(
            h, [0.3, -0.2], U, dini.ScaleLadder(seed=0), moving_base)]
        want = np.linalg.norm(U @ L.T, axis=1)
        assert got == pytest.approx(want, rel=1e-6)

    def test_slabs_reject_a_vector_map(self):
        # the antipodal identity needs a signed quotient, not a norm
        with pytest.raises(ValueError):
            dini.slabs(self.MAP, self.X, self.U[:2], LAD)

    def test_row_cap_does_not_change_profiles(self, monkeypatch):
        whole = dini.quotient_scan(self.MAP, self.X, self.U, LAD, True)
        monkeypatch.setattr(dini, "QUOTIENT_ROW_CAP", 1000)
        split = dini.quotient_scan(self.MAP, self.X, self.U, LAD, True)
        for a, b in zip(whole, split):
            assert a.highs.tobytes() == b.highs.tobytes()
            assert a.lows.tobytes() == b.lows.tobytes()
            assert (a.limit, a.diverged, a.stable) == (b.limit, b.diverged, b.stable)

    def test_noise_floor_reads_the_largest_value(self):
        # |f| ~ 1e4 at the base points cuts the t ladder shorter than the
        # same increments without the offset, at every scale
        sums = []
        for src in ("10000 + x1 + x2*x2, x1*x2 + sin(x2), abs(x1) - x2",
                    "x1 + x2*x2, x1*x2 + sin(x2), abs(x1) - x2"):
            h, log = counting(src, 2)
            dini.quotient_scan(h, self.X, self.U, LAD, False)
            sums.append(sum(log))
        assert sums[0] < sums[1]

    # the largest angle from a unit vector to the nearest scanned row: the
    # half-spacing of the 180 rows on the circle; for the 1024 rows of the
    # 3-D grid, 0.1747 rad (10.0 degrees), the maximum over 4e6 random
    # probes refined by local search
    SCAN_COVER = {1: 0.0, 2: math.radians(1.0), 3: 0.1747}

    @pytest.mark.parametrize("src,m,x,jac", [
        ("10000 + x1 + x2*x2, x1*x2 + sin(x2), abs(x1) - x2", 2, [0.2, -0.1],
         [[1.0, -0.2], [-0.1, 0.2 + math.cos(-0.1)], [1.0, -1.0]]),
        ("x1, x1*x1", 1, [0.3], [[1.0], [0.6]]),
        ("sin(x1)+x2*x3", 3, [0.3, -0.2, 0.1], [[math.cos(0.3), 0.1, -0.2]]),
        ("x1+x2, x2*x3", 3, [0.1, 0.2, -0.1], [[1.0, 1.0, 0.0], [0.0, -0.1, 0.2]]),
    ], ids=["offset-map", "curve", "scalar-3d", "map-3d"])
    def test_pointwise_constant_is_the_operator_norm(self, src, m, x, jac):
        # some row lies within the scanned grid's covering radius of the top
        # right singular vector, which bounds the reading below; second-order
        # terms of the deepest scales bound it above
        got = pointwise(funcs.parse_expr(src, m), x, dini.ScaleLadder(seed=0))
        norm = np.linalg.norm(np.array(jac), 2)
        assert norm * math.cos(self.SCAN_COVER[m]) <= got <= norm * (1 + 1e-4)

    def test_pointwise_constant_reads_both_sides(self):
        # the Dini derivatives of x sin(1/x) - |x|/2 at 0 fill [-1.5, 0.5]
        # along either unit direction: lip f(0) = 1.5 comes from the inf side
        h = funcs.parse_expr("x1*sin(1/x1)-0.5*abs(x1)", 1)
        assert 1.49 <= pointwise(h, [0.0], dini.ScaleLadder(seed=0)) <= 1.5001

    def test_overflowing_norm_reads_inf(self):
        # the squares overflow to +inf; pytest turns any warning into an error
        h = funcs.parse_expr("1" + "0" * 200 + "*x1, x2", 2)
        assert pointwise(h, [0.0, 0.0]) == math.inf


def counting(src: str, m: int):
    """A parsed handle that logs the number of points of every call."""
    h = funcs.parse_expr(src, m)
    inner, log = h._fn, []

    def fn(X):
        log.append(len(X))
        return inner(X)

    h._fn = fn
    return h, log


class TestEvaluationCounts:
    """Function evaluations are counted, not timed: a regression in how
    often the scan calls f shows on any host."""

    LAD6 = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=0, k_max=6, seed=0)

    def test_scalar_golden_point(self):
        h, log = counting("sin(x1)+x2*x2", 2)
        analysis.classify_point(h, [0.3, -0.2], self.LAD6)
        # the one slab scan: per scale the base points, then one call per t
        # step of the 361 rows (180 domain directions, their antipodes and
        # the zero row) on 64 base points, 24 steps; then the one step that
        # the fixed-base limits' lower noise floor adds, on the 32 base
        # points at x of their 180 rows
        assert (len(log), sum(log)) == (182, 3922240)

    def test_map_golden_point(self):
        h, log = counting("x1+x2*x2, x1*x2", 2)
        analysis.classify_point(h, [0.2, -0.1], self.LAD6)
        # the chord scan: per scale the base points, then two t steps of the
        # 181 rows (180 domain directions and the zero row) on 64 base
        # points a call, the last alone where the count of steps above the
        # noise floor is odd; then the fixed-base scan as below
        assert (len(log), sum(log)) == (141, 3035872)

    def test_vector_pointwise_constant_takes_one_scan(self):
        h, log = counting("x1+x2*x2, x1*x2", 2)
        dini.pointwise_lipschitz(dini.fixed_bounds(h, [0.2, -0.1], self.LAD6))
        # per scale: the base points, then the t steps of the 180
        # directions on 32 base points, five a call
        assert (len(log), sum(log)) == (45, 1008224)


class TestOneFixedBaseScan:
    """``classify_point`` reads the fixed-base limits once and hands them
    to the pointwise constant, the extremum tag and the lower bracket.  A
    scalar map reads them off its one slab scan, and is evaluated inside
    it alone; a vector map adds one fixed-base scan."""

    @pytest.mark.parametrize("src,x,ladder", [
        ("abs(x1)", [0.0], LAD),
        ("sin(x1)+x2*x2", [0.3, -0.2], TestEvaluationCounts.LAD6),
        ("x1+x2+x3", [0.0, 0.0, 0.0],
         dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=4, k_max=10, seed=0)),
        ("x1+x2*x2, x1*x2", [0.2, -0.1], TestEvaluationCounts.LAD6),
    ], ids=["m1", "m2", "m3", "map"])
    def test_one_fixed_base_scan(self, monkeypatch, src, x, ladder):
        h, log = counting(src, len(x))
        scan, bases, scanned = dini._scan, [], []

        def spy(f, x, U, ladder, moving_base, chord_sets=None, **kw):
            bases.append(moving_base)
            before = sum(log)
            out = scan(f, x, U, ladder, moving_base, chord_sets, **kw)
            scanned.append(sum(log) - before)
            return out

        monkeypatch.setattr(dini, "_scan", spy)
        analysis.classify_point(h, x, ladder)
        assert bases.count(False) == (h.n > 1)
        if h.n == 1:
            assert bases == [True] and scanned == [sum(log)]


def reference_fixed_bounds(f, x, ladder, rows):
    """A scalar map's fixed-base limits from a scan of their own, as
    ``fixed_bounds`` took them before the slab scan read them: per scale,
    f at DIR_JITTER copies of x, then one call per t step of every row on
    those copies, for the steps above the noise floor of x and f(x)."""
    lad = ladder.for_handle(f)
    seed = lad.resolved_seed()
    x = np.asarray(x, dtype=float)
    q, m = rows.shape
    floor = (f.meta or {}).get("scale_floor")
    t_floor = floor / 64.0 if floor else 0.0
    norms = np.linalg.norm(rows, axis=1)
    unit = rows / norms[:, None]
    highs, lows, shallow = [], [], []
    for ki, r in enumerate(lad.radii()):
        k = lad.k_min + ki
        Y = x + r * np.zeros((dini.DIR_JITTER, m))
        G = sampling.sphere_points(m, dini.DIR_JITTER,
                                   sampling.child_seed(seed, 23, k))
        V = unit[:, None, :] + min(0.5, lad.ratio ** (2 * k)) * G
        V /= np.linalg.norm(V, axis=2, keepdims=True)
        V *= norms[:, None, None]
        fy = f(Y)[:, 0]
        noise = (np.finfo(float).eps * max(np.abs(Y).max(), np.abs(fy).max())
                 / dini.NOISE_BUDGET)
        ts = r * 2.0 ** -np.arange(dini.T_SUBSTEPS)
        ts = ts[:max(1, np.count_nonzero(ts >= max(t_floor, noise, 1e-300)))]
        Q = [(f((t * V + Y).reshape(-1, m))[:, 0].reshape(q, -1) - fy) / t
             for t in ts]
        hi = np.array([a.max(axis=1) for a in Q])
        highs.append(hi.max(axis=0))
        lows.append(np.array([a.min(axis=1) for a in Q]).min(axis=0))
        shallow.append(hi[0])
    H, L, S = (np.array(a).T for a in (highs, lows, shallow))
    return dini.FixedBounds(rows, dini._extrapolate(L)[0], dini._limits(H, S)[0])


def table_handle(path):
    """A 2-D function table on a lattice of spacing 0.05, as ``--csv``
    reads it: its handle carries that spacing as ``scale_floor``."""
    g = np.round(np.linspace(-1.0, 1.0, 41), 12)
    X1, X2 = np.meshgrid(g, g, indexing="ij")
    v = np.sin(3.0 * X1) + np.abs(X2 - 0.1) * X1
    path.write_text("x1,x2,x3\n" + "".join(
        f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(X1.ravel().tolist(),
                                                  X2.ravel().tolist(), v.ravel().tolist())))
    return funcs.grid_handle_from_csv(str(path))


class TestFixedBoundsOffTheSlabScan:
    """A scalar map's fixed-base limits, read off the base points at x of
    its slab scan, are bit for bit those of a fixed-base scan of their own
    rows: -grid above the circle and on the line, and in 2-D every second
    degree of the circle grid's first half U and of -U."""

    LAD7 = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=4, k_max=10, seed=0)

    @staticmethod
    def want_rows(m):
        grid = dini._direction_grid(m)
        if m != 2:
            return -grid
        half = np.split(grid, 2)[0]
        return np.vstack([-half[::2], half[::2]])

    def assert_reference(self, h, x, ladder):
        got = dini.fixed_bounds(h, x, ladder)
        assert got.rows.tobytes() == self.want_rows(h.m).tobytes()
        want = reference_fixed_bounds(h, x, ladder, got.rows)
        assert got.highs.tobytes() == want.highs.tobytes()
        assert got.lows.tobytes() == want.lows.tobytes()
        return got

    @pytest.mark.parametrize("src,x", [
        ("x1*sin(1/x1)-0.5*abs(x1)", [0.0]),
        ("sin(x1)+x2*x2 + abs(x1 - x2)", [0.3, 0.3]),
        ("x1*x2*x3+cos(x3)", [1.5, -2.0, 0.7]),
        ("abs(x1)+x2*x4-x3", [0.0, 0.2, -0.1, 0.4]),
    ], ids=["m1", "m2", "m3", "m4"])
    def test_rows_and_limits_match_a_scan_of_their_own(self, src, x):
        self.assert_reference(funcs.parse_expr(src, len(x)), x, self.LAD7)

    @pytest.mark.parametrize("src,x", [
        ("sqrt(abs(x1))+x2+x3", [0.0, 0.0, 0.0]),
        ("sin(x1)+x2*x2", [0.3, -0.2]),
    ])
    def test_x_columns_take_their_own_t_steps(self, monkeypatch, src, x):
        # the whole window's noise floor stops the slab rows sooner than
        # x's stops the fixed ones: the steps between run for those alone
        count, counts = dini._t_count, []

        def spy(*args):
            counts.append(count(*args))
            return counts[-1]

        monkeypatch.setattr(dini, "_t_count", spy)
        self.assert_reference(funcs.parse_expr(src, len(x)), x,
                              dini.ScaleLadder(seed=0))
        window, at_x = counts[::2], counts[1::2]
        assert all(a >= w for w, a in zip(window, at_x))
        assert any(a > w for w, a in zip(window, at_x))

    def test_a_function_table_with_a_scale_floor(self, tmp_path):
        h = table_handle(tmp_path / "table.csv")
        assert h.meta["scale_floor"] == pytest.approx(0.05)
        self.assert_reference(h, [0.1, 0.2], dini.ScaleLadder(seed=3))

    @pytest.mark.parametrize("cap", [1000, 1 << 18])
    def test_caps_match_a_scan_of_their_own(self, monkeypatch, cap):
        monkeypatch.setattr(dini, "QUOTIENT_ROW_CAP", cap)
        self.assert_reference(funcs.parse_expr("sin(x1)+x2*x2", 2), [0.3, -0.2],
                              TestEvaluationCounts.LAD6)


class TestChords:
    """A vector map's graph chords come from its moving-base scan, thinned
    per voxel as they are formed."""

    H = funcs.parse_expr("x1+x2*x2, x1*x2", 2)
    X = [0.2, -0.1]
    U = dini._direction_grid(2)[:180:6]

    def test_three_symmetric_unit_sets(self):
        sets = dini.chords(self.H, self.X, self.U, TestEvaluationCounts.LAD6)
        assert len(sets) == 3
        for s in sets:
            half = len(s) // 2
            assert s.shape[1] == 4 and np.array_equal(s[half:], -s[:half])
            assert np.abs(np.linalg.norm(s, axis=1) - 1.0).max() <= 1e-12

    def test_row_cap_splits_calls_without_changing_the_sets(self, monkeypatch):
        whole = dini.chords(self.H, self.X, self.U, TestEvaluationCounts.LAD6)
        h, log = counting("x1+x2*x2, x1*x2", 2)
        monkeypatch.setattr(dini, "QUOTIENT_ROW_CAP", 4096)
        split = dini.chords(h, self.X, self.U, TestEvaluationCounts.LAD6)
        # two t steps of the 31 rows on 64 base points fit in a call
        assert max(log) == 2 * 31 * 64
        assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, split))

    def test_scalar_function_rejected(self):
        with pytest.raises(ValueError):
            dini.chords(funcs.parse_expr("x1*x2", 2), self.X, self.U, LAD)

    def test_overflowing_chords_drop_without_a_warning(self):
        # the increments' squares and the chords' norms overflow to +inf;
        # pytest turns any warning into an error
        h = funcs.parse_expr("1" + "0" * 200 + "*x1, x2", 2)
        sets = dini.chords(h, [0.0, 0.0], self.U, TestEvaluationCounts.LAD6)
        assert len(sets) == 3
        for s in sets:
            assert np.abs(np.linalg.norm(s, axis=1) - 1.0).max(initial=0.0) <= 1e-12


class TestCallSizing:
    """How the scan sizes its f calls, and whether it takes the per-t
    minima, changes no bit of what it returns."""

    H = funcs.parse_expr("sin(x1)+x2*x2", 2)
    MAP = funcs.parse_expr("x1+x2*x2, x1*x2", 2)
    X = [0.3, -0.2]
    LAD6 = TestEvaluationCounts.LAD6

    def scans(self):
        # the slab scan with the fixed-base limits it reads (one t step
        # more on their rows at every scale here), the vector map's own
        # fixed-base scan and its chords
        half = dini._direction_grid(2)[:180]
        lows, highs, vertical, fixed = dini.slabs(self.H, self.X, half,
                                                  self.LAD6, True)
        own = dini.fixed_bounds(self.MAP, self.X, self.LAD6)
        sets = dini.chords(self.MAP, self.X, half[::4], self.LAD6)
        return ([lows.tobytes(), highs.tobytes(), vertical]
                + [a.tobytes() for a in (*fixed, *own)]
                + [s.tobytes() for s in sets])

    @pytest.mark.parametrize("cap", [1000, 1 << 18])
    def test_caps_give_the_default_bytes(self, monkeypatch, cap):
        want = self.scans()
        monkeypatch.setattr(dini, "QUOTIENT_ROW_CAP", cap)
        assert self.scans() == want

    @pytest.mark.parametrize("moving_base", [False, True])
    @pytest.mark.parametrize("src", ["sin(x1)+x2*x2", "x1+x2*x2, x1*x2"])
    def test_skipping_the_minima_keeps_the_sup_side(self, src, moving_base):
        h = funcs.parse_expr(src, 2)
        U = np.vstack([dini._direction_grid(2)[::9], np.zeros((1, 2))])
        full = dini._scan(h, self.X, U, self.LAD6, moving_base)
        sup = dini._scan(h, self.X, U, self.LAD6, moving_base, keep_lows=False)
        assert sup[2] is None and full[2] is not None
        for i in (0, 1, 3):
            assert sup[i].tobytes() == full[i].tobytes()

    def test_slab_scan_memory_is_bounded(self):
        # a call's probes, values and quotients hold at most
        # QUOTIENT_ROW_CAP points: about 2.3 MiB here, and 12.8 MiB when a
        # call held every t step of a scale
        half = dini._direction_grid(2)[:180]
        dini.slabs(self.H, self.X, half, self.LAD6)
        tracemalloc.start()
        try:
            dini.slabs(self.H, self.X, half, self.LAD6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
