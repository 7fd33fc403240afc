"""Conormal brackets, duality regimes, and closed-set microsupport bounds."""

import math

import numpy as np
import pytest

from conecalc import cones, conormal, dini, funcs, geometry, sampling
from conecalc.cones import FiberCone
from conecalc.errors import DimensionMismatchError

PI = math.pi
RHO2 = sampling.grid_resolution(2)
LAD = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=0, k_max=10, seed=0)

PERP_BOWTIE = FiberCone.from_arcs([(PI / 4, 3 * PI / 4),
                                   (5 * PI / 4, 7 * PI / 4)])


def included(inner, outer, tol):
    """Every sampled member of inner lies within tol of outer."""
    md = cones.member_directions(cones.as_sampled(inner))
    return all(cones.contains(outer, v, tol=tol) for v in md)


class TestDimM1:
    def test_kink_conormal(self):
        lam = conormal.conormal_dimM1(funcs.builtin("abs"), [0.0], LAD)
        assert cones.hausdorff_angle(lam, PERP_BOWTIE) <= 0.02

    def test_smooth_conormal_is_normal_line(self):
        lam = conormal.conormal_dimM1(funcs.builtin("cube"), [1.0], LAD)
        a = math.atan(3.0) + PI / 2
        want = FiberCone.from_arcs([(a, a), (a + PI, a + PI)])
        assert cones.hausdorff_angle(lam, want) <= 0.02

    def test_roundtrip_recovers_whitney(self):
        h = funcs.builtin("abs")
        lam = conormal.conormal_dimM1(h, [0.0], LAD)
        w = geometry.graph_whitney(h, [0.0], LAD)
        back = conormal.whitney_from_conormal_dimN1(lam)
        assert cones.hausdorff_angle(back, w) <= 0.02

    def test_needs_line_domain(self):
        with pytest.raises(DimensionMismatchError):
            conormal.conormal_dimM1(funcs.builtin("x1sq_sin"), [0.0, 0.0], LAD)

    def test_estimate_object(self):
        est = conormal.conormal(funcs.builtin("abs"), [0.0], LAD)
        assert est.regime == "dimM1"
        assert est.exact is not None
        assert cones.hausdorff_angle(est.lower, est.upper) == 0.0


class TestDimN1:
    def test_planar_affine_normal(self):
        h = funcs.parse_expr("2*x1 - x2", 2)
        est = conormal.conormal(h, [0.0, 0.0], LAD)
        assert est.regime == "dimN1" and est.exact is None
        nrm = np.array([2.0, -1.0, -1.0])
        assert cones.contains(est.upper, nrm, tol=0.05)
        assert cones.contains(est.upper, -nrm, tol=0.05)
        assert not cones.contains(est.upper, [1.0, 1.0, 1.0], tol=0.05)
        assert est.checks["lower_check"]["passed"]
        assert est.checks["whitney_roundtrip_angle"] <= 0.1
        assert included(est.lower, est.upper, 2 * sampling.grid_resolution(3))

    def test_bracket_on_oscillatory_sheet(self):
        est = conormal.conormal(funcs.builtin("x1sq_sin"), [0.0, 0.0], LAD)
        assert est.regime == "dimN1"
        assert included(est.lower, est.upper, 2 * sampling.grid_resolution(3))
        assert est.checks["lower_check"]["passed"]

    def test_bounds_only_regime(self):
        h = funcs.parse_expr("x1 + x2, x1 - x2", 2)
        est = conormal.conormal(h, [0.0, 0.0], LAD)
        assert est.regime == "bounds-only"
        assert est.lower.is_zero()
        assert not est.upper.is_zero()


class TestEpigraphSplit:
    def test_kink_split(self):
        plus, minus = conormal.epigraph_split(funcs.builtin("abs"), [0.0], LAD)
        assert cones.hausdorff_angle(
            plus, FiberCone.from_arcs([(PI / 4, 3 * PI / 4)])) <= 0.02
        assert cones.hausdorff_angle(
            minus, FiberCone.from_arcs([(5 * PI / 4, 7 * PI / 4)])) <= 0.02

    def test_minus_is_antipodal_exactly(self):
        plus, minus = conormal.epigraph_split(funcs.builtin("x2sin"), [0.0], LAD)
        assert cones.hausdorff_angle(minus, cones.antipodal(plus)) == 0.0

    def test_scalar_target_required(self):
        h = funcs.parse_expr("x1, x1", 1)
        with pytest.raises(DimensionMismatchError):
            conormal.epigraph_split(h, [0.0], LAD)

    def test_planar_split_sign(self):
        plus, _ = conormal.epigraph_split(funcs.builtin("x1sq_sin"),
                                          [0.0, 0.0], LAD)
        md = cones.member_directions(cones.as_sampled(plus))
        assert len(md) > 0
        assert (md[:, -1] >= -1e-9).all()


class TestChecks:
    def test_constant_cone_check(self):
        a = math.atan(0.25)
        lam = FiberCone.from_arcs([(a, PI - a), (a + PI, 2 * PI - a)])
        ok = conormal.constant_cone_check(lam, 4.0, 1, 1)
        assert ok["passed"] and ok["worst_excess"] <= 1e-9
        bad = conormal.constant_cone_check(lam, 0.2, 1, 1)
        assert not bad["passed"] and bad["worst_excess"] > 0.5

    def test_lower_check_perpendicular_pair(self):
        a = math.atan(2.0)
        w = FiberCone.from_arcs([(a, a), (a + PI, a + PI)])
        lam = FiberCone.from_arcs([(a + PI / 2, a + PI / 2),
                                   (a + 3 * PI / 2, a + 3 * PI / 2)])
        rep = conormal.conormal_lower_check(w, lam, 1, 1)
        assert rep["passed"] and rep["worst_angle"] <= 1e-6

    def test_lower_check_detects_missing_covectors(self):
        a = math.atan(2.0)
        w = FiberCone.from_arcs([(a, a), (a + PI, a + PI)])
        rep = conormal.conormal_lower_check(w, w, 1, 1)  # parallel, not perp
        assert not rep["passed"]
        assert rep["worst_angle"] > 1.0

    def test_lower_check_dim_guard(self):
        with pytest.raises(DimensionMismatchError):
            conormal.conormal_lower_check(FiberCone.full(2),
                                          FiberCone.full(3), 1, 1)


class TestClosedSetBounds:
    def _halfplane(self):
        rng = np.random.default_rng(0)
        body = rng.uniform([-1.0, -1.0], [1.0, 0.0], size=(24000, 2))
        comp = rng.uniform([-1.0, 1e-9], [1.0, 1.0], size=(12000, 2))
        return geometry.PointCloud(body), geometry.PointCloud(comp)

    def test_halfplane_bracket_tight(self):
        body, comp = self._halfplane()
        lad = geometry.cloud_ladder(body, [0.0, 0.0])
        lower, upper = conormal.closed_set_bounds(body, [0.0, 0.0], lad,
                                                  complement=comp)
        ray = FiberCone.from_arcs([(3 * PI / 2, 3 * PI / 2)])
        assert cones.hausdorff_angle(lower, ray) <= 2.5 * RHO2
        assert cones.hausdorff_angle(upper, ray) <= 2.5 * RHO2

    def test_label_split(self):
        body, comp = self._halfplane()
        pts = np.vstack([body.points, comp.points])
        labels = np.array(["A"] * len(body.points) + ["B"] * len(comp.points))
        cloud = geometry.PointCloud(pts, labels)
        lad = geometry.cloud_ladder(body, [0.0, 0.0])
        lower, upper = conormal.closed_set_bounds(cloud, [0.0, 0.0], lad)
        ray = FiberCone.from_arcs([(3 * PI / 2, 3 * PI / 2)])
        assert cones.hausdorff_angle(lower, ray) <= 2.5 * RHO2
        assert cones.hausdorff_angle(upper, ray) <= 2.5 * RHO2

    def test_no_complement_upper_degenerates(self):
        body, _ = self._halfplane()
        lad = geometry.cloud_ladder(body, [0.0, 0.0])
        lower, upper = conormal.closed_set_bounds(body, [0.0, 0.0], lad)
        assert upper.is_zero()
        assert not lower.is_zero()


class TestSubmanifoldBound:
    def test_circle_normal_line(self):
        # chord spread scales with the deepest ball radius, so the cloud
        # must be dense enough for the ladder to dig below 0.05 rad
        th = np.arange(20000) * (2 * PI / 20000)
        cloud = geometry.PointCloud(np.column_stack([np.cos(th), np.sin(th)]))
        lad = geometry.cloud_ladder(cloud, [1.0, 0.0])
        bound, meta = conormal.subman_top_bound(cloud, [1.0, 0.0], lad)
        want = FiberCone.from_arcs([(0.0, 0.0), (PI, PI)])
        assert cones.hausdorff_angle(bound, want) <= 0.05
        assert meta["exact"] is True
        assert meta["dim_estimate"] == pytest.approx(1.0, abs=0.35)

    def test_solid_set_not_exact(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(30000, 2))
        cloud = geometry.PointCloud(pts)
        lad = geometry.cloud_ladder(cloud, [0.0, 0.0])
        _, meta = conormal.subman_top_bound(cloud, [0.0, 0.0], lad)
        assert meta["exact"] is False
        assert meta["dim_estimate"] == pytest.approx(2.0, abs=0.4)


class TestSliceTopBlocks:
    """slice_top_intersection takes its grid-by-slice dots in row blocks;
    the blocks must round exactly as the full product."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("rows,cells", [(1001, 10), (1001, 4000),
                                            (2, 10), (1, 10)])
    def test_blocks_equal_full_product(self, monkeypatch, dim, rows, cells):
        monkeypatch.setattr(conormal, "DENSE_CELLS", cells)
        rng = np.random.default_rng(dim)
        grid = sampling.unit_grid(dim)
        idx = np.sort(rng.choice(len(grid), rows, replace=False))
        members = rng.normal(size=(37, dim))
        members /= np.linalg.norm(members, axis=1)[:, None]
        want = np.min(np.abs(grid[idx] @ members.T), axis=1)
        got = conormal._min_abs_dots(grid, idx, members)
        assert got.tobytes() == want.tobytes()

    def test_small_blocks_keep_the_upper_bound(self, monkeypatch):
        f = funcs.parse_expr("x1 + x2*x2, x1*x2", 2)
        lad = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=12, k_max=15, seed=0)
        w = geometry.graph_whitney(f, [0.2, -0.1], lad)
        full = conormal.slice_top_intersection(w, 2)
        monkeypatch.setattr(conormal, "DENSE_CELLS", 1 << 12)
        blocked = conormal.slice_top_intersection(w, 2)
        assert (cones.member_directions(blocked).tobytes()
                == cones.member_directions(full).tobytes())
