"""Point-cloud and graph cone estimators against known geometric fixtures."""

import math

import numpy as np
import pytest

from conecalc import cones, dini, funcs, geometry, sampling
from conecalc.cones import FiberCone
from conecalc.errors import EmptyShellError

PI = math.pi
RHO = sampling.grid_resolution(2)
LAD = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=0, k_max=10, seed=0)


def halfplane_cloud(n=24000, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform([-1.0, -1.0], [1.0, 0.0], size=(n, 2))
    return geometry.PointCloud(pts)


def circle_cloud(n=4000):
    th = np.arange(n) * (2 * PI / n)
    return geometry.PointCloud(np.column_stack([np.cos(th), np.sin(th)]))


def disk_cloud(n=24000, seed=1):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(2 * n, 2))
    return geometry.PointCloud(pts[np.linalg.norm(pts, axis=1) <= 1.0][:n])


class TestPointCloud:
    def test_validation(self):
        with pytest.raises(ValueError):
            geometry.PointCloud(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            geometry.PointCloud(np.zeros((3, 2)), labels=np.array(["A"]))

    def test_subset(self):
        c = geometry.PointCloud(np.arange(6).reshape(3, 2),
                                labels=np.array(["A", "B", "A"]))
        a = c.subset("A")
        assert a.points.tolist() == [[0, 1], [4, 5]]
        with pytest.raises(ValueError):
            geometry.PointCloud(np.zeros((2, 2))).subset("A")

    def test_from_csv(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("x1,x2,label\n0,0,A\n1,1,B\n")
        c = geometry.cloud_from_csv(str(p))
        assert c.dim == 2 and c.labels.tolist() == ["A", "B"]


class TestCloudLadder:
    def test_sparse_fallback(self):
        c = geometry.PointCloud(np.random.default_rng(0).normal(size=(10, 2)))
        lad = geometry.cloud_ladder(c, [0.0, 0.0])
        assert lad.k_max == 2

    def test_radii_inside_data(self):
        c = circle_cloud()
        lad = geometry.cloud_ladder(c, [1.0, 0.0])
        # deepest shell must still hold samples of the thin set
        d = np.linalg.norm(c.points - [1.0, 0.0], axis=1)
        assert (d <= lad.radii()[-1]).sum() >= 3

    def test_solid_set_gets_dense_shells(self):
        c = disk_cloud()
        lad = geometry.cloud_ladder(c, [0.0, 0.0])
        d = np.linalg.norm(c.points, axis=1)
        # enough points in the deepest shell for 2*rho persistence
        assert (d <= lad.radii()[-1]).sum() >= 200


class TestTangentCone:
    def test_halfplane_boundary(self):
        t = geometry.tangent_cone(halfplane_cloud(), [0.0, 0.0],
                                  geometry.cloud_ladder(halfplane_cloud(), [0.0, 0.0]))
        want = FiberCone.from_arcs([(PI, 2 * PI)])
        assert cones.hausdorff_angle(t, want) <= 3 * RHO

    def test_circle_point(self):
        c = circle_cloud()
        t = geometry.tangent_cone(c, [1.0, 0.0], geometry.cloud_ladder(c, [1.0, 0.0]))
        want = FiberCone.from_arcs([(PI / 2, PI / 2), (3 * PI / 2, 3 * PI / 2)])
        assert cones.hausdorff_angle(t, want) <= 0.05

    def test_segment_endpoint(self):
        c = geometry.PointCloud(np.column_stack(
            [np.linspace(0, 1, 3000) ** 2, np.zeros(3000)]))
        t = geometry.tangent_cone(c, [0.0, 0.0], geometry.cloud_ladder(c, [0.0, 0.0]))
        want = FiberCone.from_arcs([(0.0, 0.0)])
        assert cones.hausdorff_angle(t, want) <= 2 * RHO

    def test_interior_point_full(self):
        c = disk_cloud()
        t = geometry.tangent_cone(c, [0.0, 0.0], geometry.cloud_ladder(c, [0.0, 0.0]))
        assert cones.hausdorff_angle(t, FiberCone.full(2)) <= 3 * RHO

    def test_sparse_cloud_raises(self):
        c = geometry.PointCloud(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(EmptyShellError):
            geometry.tangent_cone(c, [0.0, 0.0],
                                  dini.ScaleLadder(t0=0.01, ratio=0.5,
                                                   k_min=0, k_max=4))


class TestWhitneyCone:
    def test_pair_orientation(self):
        # pairs point from the first cloud toward the second
        a = geometry.PointCloud(np.column_stack(
            [0.5 ** np.arange(1, 30), np.zeros(29)]))
        b = geometry.PointCloud(np.array([[0.0, 0.0]]))
        lad = dini.ScaleLadder(t0=0.5, ratio=0.5, k_min=0, k_max=12)
        w = geometry.whitney_cone(a, b, [0.0, 0.0], lad)
        want = FiberCone.from_arcs([(PI, PI)])
        assert cones.hausdorff_angle(w, want) <= 2 * RHO

    def test_segment_interior_is_line(self):
        c = geometry.PointCloud(np.column_stack(
            [np.linspace(-1, 1, 4001), np.zeros(4001)]))
        w = geometry.whitney_cone(c, c, [0.0, 0.0],
                                  geometry.cloud_ladder(c, [0.0, 0.0]))
        want = FiberCone.from_arcs([(0.0, 0.0), (PI, PI)])
        assert cones.hausdorff_angle(w, want) <= 2 * RHO

    def test_coincident_clouds_collapse_to_zero(self):
        c = geometry.PointCloud(np.zeros((50, 2)))
        lad = dini.ScaleLadder(t0=0.5, ratio=0.5, k_min=0, k_max=4)
        w = geometry.whitney_cone(c, c, [0.0, 0.0], lad)
        assert w.is_zero()


def reference_persistent_directions(dir_sets, tol):
    """The persistence filter as first written: np.unique, then a query
    of every candidate against every set."""
    pools = [s for s in dir_sets if len(s)]
    if not pools:
        return np.zeros((0, 0))
    cand = np.unique(np.round(np.vstack(pools), 4), axis=0)
    nrm = np.linalg.norm(cand, axis=1)
    cand = cand[nrm > 0] / nrm[nrm > 0][:, None]
    keep = np.ones(len(cand), dtype=bool)
    for s in dir_sets:
        if len(s) == 0:
            return cand[:0]
        keep &= sampling.min_angle_to_set(cand, s) <= tol
        if not keep.any():
            break
    return cand[keep]


def cap(dim, center, spread, n, rng):
    pts = np.asarray(center, dtype=float) + spread * rng.normal(size=(n, dim))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def overlapping_sets(dim, seed):
    """Three unit sets around nearby centers, sharing some rows."""
    rng = np.random.default_rng(seed)
    e = np.eye(dim)[0]
    sets = [cap(dim, e + 0.3 * k * np.eye(dim)[1], 0.4, 1500, rng)
            for k in range(3)]
    sets[1] = np.vstack([sets[1], sets[0][:200]])
    sets[2] = np.vstack([sets[0][100:300], sets[2], sets[1][-50:]])
    return sets


class TestPersistentDirections:
    """The own-set shortcut and the lexsort dedupe keep the output of the
    reference filter, bit for bit (signs of zeros included)."""

    @staticmethod
    def check(sets, tol):
        got = geometry._persistent_directions(sets, tol)
        want = reference_persistent_directions(sets, tol)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_overlapping_sets(self, dim, seed):
        tol = 2.0 * sampling.grid_resolution(dim)
        got = self.check(overlapping_sets(dim, seed), tol)
        assert 0 < len(got) < 4500

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_empty_set_empties_the_result(self, dim):
        sets = overlapping_sets(dim, 2)
        sets.insert(1, np.zeros((0, dim)))
        got = self.check(sets, 2.0 * sampling.grid_resolution(dim))
        assert got.shape == (0, dim)

    def test_all_sets_empty(self):
        self.check([np.zeros((0, 3))] * 3, 0.1)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_set_that_kills_every_candidate(self, dim):
        rng = np.random.default_rng(3)
        sets = overlapping_sets(dim, 3)
        sets.insert(1, cap(dim, -np.eye(dim)[0], 0.05, 400, rng))
        got = self.check(sets, 2.0 * sampling.grid_resolution(dim))
        assert got.shape == (0, dim)

    def test_zeros_of_both_signs(self):
        # each row has a twin that rounds to the same candidate up to the
        # sign of a zero, so the sign comes from np.unique's sort
        rng = np.random.default_rng(4)
        base = cap(3, [0.6, 0.8, 0.0], 0.01, 300, rng)
        base[:, 2] = 1e-6
        twin = base * [1.0, 1.0, -1.0]
        got = self.check([base, twin, np.vstack([twin, base])[::-1]],
                         2.0 * sampling.grid_resolution(3))
        assert len(got) and (got[:, 2] == 0).all()

    def test_non_unit_members_query_every_set(self):
        sets = [3.0 * s for s in overlapping_sets(3, 5)]
        self.check(sets, 2.0 * sampling.grid_resolution(3))

    def test_tolerance_below_rounding_queries_every_set(self):
        sets = overlapping_sets(3, 6)
        self.check(sets, 1e-5)
        self.check(sets, 0.0)


class TestGraphWhitney:
    def test_linear_slope_line(self):
        h = funcs.parse_expr("2*x", 1)
        w = geometry.graph_whitney(h, [0.0], LAD)
        a = math.atan(2.0)
        want = FiberCone.from_arcs([(a, a), (a + PI, a + PI)])
        assert cones.hausdorff_angle(w, want) <= 0.02

    def test_kink_bowtie(self):
        w = geometry.graph_whitney(funcs.builtin("abs"), [0.0], LAD)
        want = FiberCone.from_arcs([(3 * PI / 4, 5 * PI / 4),
                                    (7 * PI / 4, 9 * PI / 4)])
        assert cones.hausdorff_angle(w, want) <= 0.02

    def test_oscillation_fills_bowtie(self):
        w = geometry.graph_whitney(funcs.builtin("x2sin"), [0.0], LAD)
        want = FiberCone.from_arcs([(3 * PI / 4, 5 * PI / 4),
                                    (7 * PI / 4, 9 * PI / 4)])
        assert cones.hausdorff_angle(w, want) <= 0.03

    def test_vertical_blowup_included(self):
        w = geometry.graph_whitney(funcs.builtin("sqrt_abs"), [0.0], LAD)
        assert cones.contains(w, [0.0, 1.0], tol=1e-6)
        assert cones.contains(w, [0.0, -1.0], tol=1e-6)

    def test_planar_graph_slopes(self):
        h = funcs.builtin("cbrt_x1")
        w = geometry.graph_whitney(h, [1.0, 0.0], LAD)
        # gradient is (1/3, 0), so (3, 0, 1) lies in the graph plane
        assert cones.contains(w, [3.0, 0.0, 1.0], tol=0.05)
        assert cones.contains(w, [0.0, 1.0, 0.0], tol=0.05)
        assert not cones.contains(w, [0.0, 0.0, 1.0], tol=0.05)


class TestStrictCone:
    def test_halfplane_open_lower(self):
        body = halfplane_cloud()
        rng = np.random.default_rng(9)
        comp = geometry.PointCloud(
            rng.uniform([-1.0, 1e-9], [1.0, 1.0], size=(12000, 2)))
        lad = geometry.cloud_ladder(body, [0.0, 0.0])
        s = geometry.strict_cone(body, comp, [0.0, 0.0], lad)
        want = FiberCone.from_arcs([(PI, 2 * PI)])
        assert cones.hausdorff_angle(s, want) <= 0.05

    def test_unreachable_complement_gives_full(self):
        body = halfplane_cloud()
        comp = geometry.PointCloud(np.array([[50.0, 50.0]]))
        lad = geometry.cloud_ladder(body, [0.0, 0.0])
        s = geometry.strict_cone(body, comp, [0.0, 0.0], lad)
        assert cones.hausdorff_angle(s, FiberCone.full(2)) == 0.0


class TestEpigraphCones:
    def test_kink_wedges(self):
        up = geometry.epigraph_strict_cone(funcs.builtin("abs"), [0.0], LAD)
        down = geometry.hypograph_strict_cone(funcs.builtin("abs"), [0.0], LAD)
        assert cones.hausdorff_angle(
            up, FiberCone.from_arcs([(PI / 4, 3 * PI / 4)])) <= 0.02
        assert cones.hausdorff_angle(
            down, FiberCone.from_arcs([(5 * PI / 4, 7 * PI / 4)])) <= 0.02

    def test_non_lipschitz_empty(self):
        up = geometry.epigraph_strict_cone(funcs.builtin("sqrt_abs"), [0.0], LAD)
        assert up.is_zero()

    def test_vector_target_rejected(self):
        h = funcs.parse_expr("x, 2*x", 1)
        with pytest.raises(ValueError):
            geometry.epigraph_strict_cone(h, [0.0], LAD)


class TestConvexityCheck:
    def test_convex_arc(self):
        assert geometry.convexity_check(FiberCone.from_arcs([(0.2, 1.5)]))

    def test_bowtie_not_convex(self):
        c = FiberCone.from_arcs([(0.0, 0.3), (2.0, 2.3)])
        assert not geometry.convexity_check(c)


class TestLocalGraphDirection:
    def test_kink_graph_transversal(self):
        t = np.linspace(-1, 1, 6001)
        cloud = geometry.PointCloud(np.column_stack([t, np.abs(t)]))
        lad = geometry.cloud_ladder(cloud, [0.0, 0.0])
        out = geometry.local_graph_direction(cloud, [0.0, 0.0], 1, lad)
        assert out is not None
        line, clear = out
        gens = cones.generators_of(line)
        vertical = np.abs(gens @ np.array([1.0, 0.0]))
        assert vertical.max() <= 0.1          # transversal is near-vertical
        assert 0.6 <= clear <= PI / 4 + 0.1

    def test_solid_set_has_no_transversal(self):
        c = disk_cloud()
        lad = geometry.cloud_ladder(c, [0.0, 0.0])
        assert geometry.local_graph_direction(c, [0.0, 0.0], 1, lad) is None

    def test_codim_validation(self):
        c = disk_cloud()
        with pytest.raises(ValueError):
            geometry.local_graph_direction(c, [0.0, 0.0], 2,
                                           geometry.cloud_ladder(c, [0.0, 0.0]))


class TestCloudFromFunction:
    def test_graph_samples(self):
        h = funcs.builtin("abs")
        cloud = geometry.cloud_from_function(h, [0.0], LAD)
        assert cloud.dim == 2
        x, y = cloud.points[:, 0], cloud.points[:, 1]
        assert np.allclose(y, np.abs(x))
        # shell-by-shell concentration reaches the deepest radius
        r = np.abs(x[np.abs(x) > 0])
        assert r.min() <= LAD.radii()[-1]
