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
    md = cones.member_directions(inner)
    return all(cones.contains(outer, v, tol=tol) for v in md)


class TestDimM1:
    def test_kink_conormal(self):
        lam = conormal.conormal(funcs.builtin("abs"), [0.0], LAD).exact
        assert cones.hausdorff_angle(lam, PERP_BOWTIE) <= 0.02

    def test_smooth_conormal_is_normal_line(self):
        lam = conormal.conormal(funcs.builtin("cube"), [1.0], LAD).exact
        a = math.atan(3.0) + PI / 2
        want = FiberCone.from_arcs([(a, a), (a + PI, a + PI)])
        assert cones.hausdorff_angle(lam, want) <= 0.02

    def test_roundtrip_recovers_whitney(self):
        h = funcs.builtin("abs")
        lam = conormal.conormal(h, [0.0], LAD).exact
        w = geometry.graph_whitney(h, [0.0], LAD)
        back = cones.top(lam)
        assert cones.hausdorff_angle(back, w) <= 0.02

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


SIN_2D_LADDER = {"t0": 0.1, "ratio": 0.5, "k_min": 0, "k_max": 6}
MAP_2D_LADDER = {"t0": 0.1, "ratio": 0.5, "k_min": 12, "k_max": 15}


class TestGoldenBrackets:
    """lower is inside upper within 2 rho on the inputs of the golden
    analyze reports, with their ladders, and on a 3-D domain (rho: the
    fiber's grid resolution); on C^1 inputs the upper bound holds the
    exact conormal."""

    @pytest.mark.parametrize("fn,at,ladder,lower_zero", [
        ("abs(x1)", [0.0], {}, False),
        ("x1*x1*sin(1/x1)", [0.0], {}, False),
        ("sin(x1)+x2*x2", [0.3, -0.2], SIN_2D_LADDER, False),
        ("abs(x1)+x2", [0.0, 0.0], {}, True),
        ("sin(x1)+x2*x3", [0.3, -0.2, 0.1], {}, False),
        # a vector map has no lower bracket
        ("x1+x2*x2, x1*x2", [0.2, -0.1], MAP_2D_LADDER, True),
        ("cbrt(x1)", [0.0, 0.2], {}, False),
    ])
    def test_lower_within_upper(self, fn, at, ladder, lower_zero):
        f = funcs.parse_expr(fn, len(at))
        est = conormal.conormal(f, at, dini.ScaleLadder(seed=0, **ladder))
        assert est.lower.is_zero() == lower_zero
        rho = sampling.grid_resolution(est.lower.dim)
        assert cones.directed_angle(est.lower, est.upper) <= 2.0 * rho

    def test_lower_within_the_exact_conormal_line(self):
        # the graph of cbrt(x1) is the smooth surface x1 = z^3, whose conormal
        # at (0, 0.2) is the line of +-e1; the lower bracket's rows keep
        # within the polar's slack of it, eighth-turn fan steps widening
        # that slack by at most 1/cos(pi/8) inside a piece
        est = conormal.conormal(funcs.builtin("cbrt_x1"), [0.0, 0.2],
                                dini.ScaleLadder(seed=0))
        line = FiberCone.from_directions([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], 3)
        assert not est.lower.is_zero()
        assert cones.directed_angle(est.lower, line) <= conormal._thin_slack(3)

    @pytest.mark.parametrize("fn,at,ladder,jac", [
        ("sin(x1)+x2*x2", [0.3, -0.2], SIN_2D_LADDER, [[math.cos(0.3), -0.4]]),
        ("sin(x1)+x2*x3", [0.3, -0.2, 0.1], {}, [[math.cos(0.3), 0.1, -0.2]]),
        ("x1+x2*x2, x1*x2", [0.2, -0.1], MAP_2D_LADDER,
         [[1.0, -0.2], [-0.1, 0.2]]),
    ], ids=["sin-2d", "sin-3d", "map-2d"])
    def test_exact_conormal_within_upper(self, fn, at, ladder, jac):
        # the conormal of a C^1 graph is {(-D^T eta, eta)}: a thin set that
        # the upper bound's grid rows reach within the covering radius
        f = funcs.parse_expr(fn, len(at))
        est = conormal.conormal(f, at, dini.ScaleLadder(seed=0, **ladder))
        D = np.array(jac)
        eta = sampling.unit_grid(f.n) if f.n > 1 else np.array([[1.0], [-1.0]])
        exact = FiberCone.from_directions(np.hstack([-eta @ D, eta]), f.m + f.n)
        assert not est.upper.is_zero()
        assert (cones.directed_angle(exact, est.upper)
                <= sampling.covering_radius(f.m + f.n))


def split(f, x):
    return conormal.epigraph_split(conormal.conormal(f, x, LAD).upper, f.n)


class TestEpigraphSplit:
    def test_kink_split(self):
        plus, minus = split(funcs.builtin("abs"), [0.0])
        assert cones.hausdorff_angle(
            plus, FiberCone.from_arcs([(PI / 4, 3 * PI / 4)])) <= 0.02
        assert cones.hausdorff_angle(
            minus, FiberCone.from_arcs([(5 * PI / 4, 7 * PI / 4)])) <= 0.02

    def test_minus_is_antipodal_exactly(self):
        plus, minus = split(funcs.builtin("x2sin"), [0.0])
        assert cones.hausdorff_angle(minus, cones.antipodal(plus)) == 0.0

    def test_scalar_target_required(self):
        h = funcs.parse_expr("x1, x1", 1)
        with pytest.raises(DimensionMismatchError):
            conormal.epigraph_split(FiberCone.full(h.m + h.n), h.n)

    def test_planar_split_sign(self):
        plus, _ = split(funcs.builtin("x1sq_sin"), [0.0, 0.0])
        md = cones.member_directions(plus)
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
        rep = conormal.conormal_lower_check(w, lam)
        assert rep["passed"] and rep["worst_angle"] <= 1e-6

    def test_lower_check_detects_missing_covectors(self):
        a = math.atan(2.0)
        w = FiberCone.from_arcs([(a, a), (a + PI, a + PI)])
        rep = conormal.conormal_lower_check(w, w)  # parallel, not perp
        assert not rep["passed"]
        assert rep["worst_angle"] > 1.0

    @pytest.mark.parametrize("dim", [3, 4])
    def test_lower_check_equals_the_pairwise_angles(self, dim):
        # both caps apply; the arcsin of each row's smallest |dot| is the
        # smallest of the arcsins of all its pairs
        rng = np.random.default_rng(dim)
        wd, ld = rng.normal(size=(2000, dim)), rng.normal(size=(6000, dim))
        w = FiberCone.from_directions(wd, dim, 0.05)
        lam = FiberCone.from_directions(ld, dim, 0.05)
        rep = conormal.conormal_lower_check(w, lam)
        WD = cones.member_directions(w)[
            np.linspace(0, 1999, conormal.CHECK_W_CAP).astype(int)]
        LD = cones.member_directions(lam)[
            np.linspace(0, 5999, conormal.CHECK_L_CAP).astype(int)]
        viol = np.arcsin(np.clip(np.abs(WD @ LD.T), 0.0, 1.0)).min(axis=1)
        assert rep["worst_angle"] == float(viol.max())
        assert rep["worst_direction"] == WD[np.argmax(viol)].tolist()
        assert rep["passed"] == (viol.max() <= rep["tolerance"])

    def test_lower_check_dim_guard(self):
        with pytest.raises(DimensionMismatchError):
            conormal.conormal_lower_check(FiberCone.full(2), FiberCone.full(3))


class TestClosedSetBounds:
    def _halfplane(self):
        rng = np.random.default_rng(0)
        body = rng.uniform([-1.0, -1.0], [1.0, 0.0], size=(24000, 2))
        comp = rng.uniform([-1.0, 1e-9], [1.0, 1.0], size=(12000, 2))
        return geometry.PointCloud(body), geometry.PointCloud(comp)

    @staticmethod
    def _bounds(body, comp, lad):
        x = [0.0, 0.0]
        return conormal.closed_set_bounds(
            geometry.tangent_cone(body, x, lad),
            geometry.strict_cone(body, comp, x, lad))

    def test_halfplane_bracket_tight(self):
        body, comp = self._halfplane()
        lad = geometry.cloud_ladder(body, [0.0, 0.0])
        lower, upper = self._bounds(body, comp, lad)
        ray = FiberCone.from_arcs([(3 * PI / 2, 3 * PI / 2)])
        assert cones.hausdorff_angle(lower, ray) <= 2.5 * RHO2
        assert cones.hausdorff_angle(upper, ray) <= 2.5 * RHO2

    def test_label_split(self):
        body, comp = self._halfplane()
        pts = np.vstack([body.points, comp.points])
        labels = np.array(["A"] * len(body.points) + ["B"] * len(comp.points))
        cloud = geometry.PointCloud(pts, labels)
        lad = geometry.cloud_ladder(body, [0.0, 0.0])
        lower, upper = self._bounds(cloud.subset("A"), cloud.subset("B"), lad)
        ray = FiberCone.from_arcs([(3 * PI / 2, 3 * PI / 2)])
        assert cones.hausdorff_angle(lower, ray) <= 2.5 * RHO2
        assert cones.hausdorff_angle(upper, ray) <= 2.5 * RHO2

    def test_no_complement_upper_degenerates(self):
        body, _ = self._halfplane()
        lad = geometry.cloud_ladder(body, [0.0, 0.0])
        lower, upper = self._bounds(body, None, lad)
        assert upper.is_zero()
        assert not lower.is_zero()


class TestSliceTopBlocks:
    """slice_top_intersection, top and polar take their grid-by-member dots
    in row blocks through ``cones.min_dots``; on grid rows and these member
    sets the blocks round exactly as the full product."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("rows,cells", [(1001, 10), (1001, 4000),
                                            (2, 10), (1, 10)])
    def test_blocks_equal_full_product(self, monkeypatch, dim, rows, cells):
        monkeypatch.setattr(cones, "DENSE_CELLS", cells)
        rng = np.random.default_rng(dim)
        grid = sampling.unit_grid(dim)
        idx = np.sort(rng.choice(len(grid), rows, replace=False))
        members = rng.normal(size=(37, dim))
        members /= np.linalg.norm(members, axis=1)[:, None]
        # a lone row goes to gemm doubled, never to gemv
        full = grid[idx if rows > 1 else idx[[0, 0]]] @ members.T
        for absolute in (False, True):
            want = np.min(np.abs(full) if absolute else full, axis=1)[:rows]
            got = cones.min_dots(grid[idx], members, absolute=absolute)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("count", [1, 2, 37, 197, 500, 631, 4099, 10536])
    def test_blocked_top_equals_full_product(self, monkeypatch, dim, count):
        # from about 193 members on, a block's size can move a dot's last
        # bit; the full product is one product up to 2**24 dots (500
        # members in 4-D), past that equal row chunks of at most that
        rng = np.random.default_rng(count)
        members = rng.normal(size=(count, dim))
        members /= np.linalg.norm(members, axis=1)[:, None]
        cone = FiberCone(dim, cones.Sampled(members, 0.02))
        grid = sampling.unit_grid(dim)
        chunks = np.array_split(grid, -(-len(grid) * count // (1 << 24)))
        low = np.concatenate([np.min(np.abs(g @ members.T), axis=1) for g in chunks])
        full = low <= math.sin(max(0.02, sampling.grid_resolution(dim)))
        for cells in (cones.DENSE_CELLS, 4096):
            monkeypatch.setattr(cones, "DENSE_CELLS", cells)
            got = cones.member_directions(cones.top(cone))
            assert got.tobytes() == grid[full].tobytes()

    def test_small_blocks_keep_the_upper_bound(self, monkeypatch):
        f = funcs.parse_expr("x1 + x2*x2, x1*x2", 2)
        lad = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=12, k_max=15, seed=0)
        w = geometry.graph_whitney(f, [0.2, -0.1], lad)
        full = conormal.slice_top_intersection(w, 2)
        monkeypatch.setattr(cones, "DENSE_CELLS", 1 << 12)
        blocked = conormal.slice_top_intersection(w, 2)
        assert (cones.member_directions(blocked).tobytes()
                == cones.member_directions(full).tobytes())
