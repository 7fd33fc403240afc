"""Directional quotient estimation: slabs, radial bounds, Lipschitz constants."""

import math

import numpy as np
import pytest

from conecalc import dini, funcs

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


def upper(h, x, u, moving_base=True):
    """sup quotient along u (moving base) or upper Dini derivative (fixed)."""
    return dini.limits(h, x, [u], LAD, moving_base)[0]


def lower(h, x, u, moving_base=True):
    """The inf side, by the antipodal identity inf Q(u) = -sup Q(-u)."""
    return -dini.limits(h, x, -np.array([u], dtype=float), LAD, moving_base)[0]


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
        lows, highs, vertical = dini.slabs(h, [0.0], U, LAD)
        assert highs == pytest.approx([1.0, 1.0], abs=1e-6)
        assert lows == pytest.approx([-1.0, -1.0], abs=1e-6)
        assert not vertical

    def test_slabs_see_the_vertical_of_a_cusp(self):
        _, _, vertical = dini.slabs(funcs.builtin("sqrt_abs"), [0.0], [[1.0]], LAD)
        assert vertical

    def test_vector_function_rejected(self):
        h = funcs.parse_expr("x, 2*x", 1)
        with pytest.raises(ValueError):
            dini.limits(h, [0.0], [[1.0]], LAD, True)


class TestRadialBounds:
    def test_kink(self):
        lo, hi = dini.radial_bounds(funcs.builtin("abs"), [0.0], LAD)
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_smooth_point_symmetric(self):
        lo, hi = dini.radial_bounds(funcs.builtin("abs"), [1.0], LAD)
        assert lo == pytest.approx(-1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_flat(self):
        lo, hi = dini.radial_bounds(funcs.builtin("cube"), [0.0], LAD)
        assert abs(lo) <= 1e-4 and abs(hi) <= 1e-4

    def test_blowup(self):
        lo, hi = dini.radial_bounds(funcs.builtin("sqrt_abs"), [0.0], LAD)
        assert hi == math.inf


class TestLipschitzConstants:
    def test_kink(self):
        pw, loc = dini.lipschitz_constants(funcs.builtin("abs"), [0.0], LAD)
        assert pw == pytest.approx(1.0, abs=1e-4)
        assert loc == pytest.approx(1.0, abs=1e-4)

    def test_smooth(self):
        pw, loc = dini.lipschitz_constants(funcs.builtin("cube"), [1.0], LAD)
        assert pw == pytest.approx(3.0, abs=0.05)
        assert loc == pytest.approx(3.0, abs=0.05)

    def test_pointwise_strictly_smaller_on_oscillation(self):
        pw, loc = dini.lipschitz_constants(funcs.builtin("x2sin"), [0.0], LAD)
        assert pw <= 0.1
        assert loc == pytest.approx(1.0, abs=0.1)

    def test_vector_valued_reduces_over_covectors(self):
        h = funcs.parse_expr("x1 + x2, x1 - x2", 2)
        pw, loc = dini.lipschitz_constants(h, [0.0, 0.0], LAD)
        # operator norm of [[1,1],[1,-1]] is sqrt(2)
        assert pw == pytest.approx(math.sqrt(2), abs=0.05)
        assert loc == pytest.approx(math.sqrt(2), abs=0.05)

    def test_local_never_below_pointwise(self):
        for tag, x in (("abs", 0.3), ("xsin", 0.0), ("preiss_lip(5)", 0.61)):
            pw, loc = dini.lipschitz_constants(funcs.builtin(tag), [x], LAD)
            assert loc >= pw - 1e-9


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
        lows, highs, vertical = dini.slabs(self.H2, self.X2, U, LAD)
        assert np.array_equal(highs, [upper(self.H2, self.X2, u) for u in U])
        assert np.array_equal(lows, [lower(self.H2, self.X2, u) for u in U])
        zero = dini.quotient_scan(self.H2, self.X2, [0.0, 0.0], LAD, True)[0]
        assert vertical == (zero.diverged or abs(zero.limit) > dini.DIVERGENCE_CAP)
        assert not vertical

    def test_inf_derivatives_match_single_queries(self):
        # the stacked scan of -U that conormal._epigraph_tangent reads
        U = np.array([[1.0, 0.0], [0.6, -0.8], [-1.0, 0.0]])
        got = -dini.limits(self.H2, self.X2, -U, LAD, False)
        want = [lower(self.H2, self.X2, u, moving_base=False) for u in U]
        assert np.array_equal(got, want)
