"""Core cone algebra against brute-force oracles and algebraic laws."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import qmc

from conecalc import (cli, cones, conormal, dini, funcs, geometry, sampling,
                      verify)
from conecalc.cones import FiberCone
from conecalc.errors import DimensionMismatchError

TWO_PI = 2.0 * math.pi
THETA = np.linspace(0.0, TWO_PI, 1440, endpoint=False)


def arc_mask(arcs, tol=1e-9):
    """Membership of the dense probe grid in an arc union (wraps mod 2pi)."""
    m = np.zeros(len(THETA), dtype=bool)
    for lo, hi in arcs:
        t = np.mod(THETA - lo, TWO_PI)
        m |= t <= (hi - lo) + tol
    return m


def masks_equal(a, b, slop_steps=1):
    """Equal up to slop_steps probe cells at the boundaries."""
    if np.array_equal(a, b):
        return True
    diff = a ^ b
    # every disagreement must sit next to a boundary of either mask
    edges = np.zeros_like(diff)
    for m in (a, b):
        e = m ^ np.roll(m, 1)
        for s in range(-slop_steps, slop_steps + 1):
            edges |= np.roll(e, s)
    return bool(np.all(~diff | edges))


# strategy: up to 3 disjoint arcs, possibly degenerate
@st.composite
def arc_sets(draw):
    k = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(
        st.floats(0.0, TWO_PI - 1e-3, allow_nan=False), min_size=2 * k,
        max_size=2 * k, unique=True)))
    return [(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]


class TestArcArithmetic:
    def test_normalize_canonical_full(self):
        assert cones.arcs_normalize([(0.0, TWO_PI)]) == ((0.0, TWO_PI),)
        assert cones.arcs_normalize([(1.0, 1.0 + TWO_PI)]) == ((0.0, TWO_PI),)
        assert cones.arcs_normalize([(0.0, 3.2), (3.1, TWO_PI)]) == ((0.0, TWO_PI),)

    def test_normalize_wraps(self):
        out = cones.arcs_normalize([(6.0, 7.0)])
        assert len(out) == 1
        lo, hi = out[0]
        assert math.isclose(lo, 6.0) and math.isclose(hi, 7.0)

    def test_normalize_merges_adjacent(self):
        assert cones.arcs_normalize([(0.0, 1.0), (1.0, 2.0)]) == ((0.0, 2.0),)

    def test_normalize_rejects_reversed(self):
        with pytest.raises(ValueError):
            cones.arcs_normalize([(2.0, 1.0)])

    @given(arc_sets())
    @settings(max_examples=150, deadline=None)
    def test_complement_involution(self, arcs):
        arcs = cones.arcs_normalize(arcs)
        back = cones.arcs_complement(cones.arcs_complement(arcs))
        assert masks_equal(arc_mask(arcs), arc_mask(back))

    @given(arc_sets())
    @settings(max_examples=150, deadline=None)
    def test_complement_disjoint_cover(self, arcs):
        arcs = cones.arcs_normalize(arcs)
        comp = cones.arcs_complement(arcs)
        cover = arc_mask(arcs) | arc_mask(comp)
        assert cover.all()

    @given(arc_sets(), arc_sets())
    @settings(max_examples=150, deadline=None)
    def test_intersect_union_oracle(self, a, b):
        got_i = arc_mask(cones.arcs_intersect(a, b))
        got_u = arc_mask(cones.arcs_union(a, b))
        assert masks_equal(got_i, arc_mask(a) & arc_mask(b))
        assert masks_equal(got_u, arc_mask(a) | arc_mask(b))

    @given(arc_sets())
    @settings(max_examples=50, deadline=None)
    def test_polar_reads_the_sampled_form(self, arcs):
        c = FiberCone.from_arcs(arcs)
        got, want = cones.polar(c), cones.polar(cones.as_sampled(c))
        assert got.rep.directions.tobytes() == want.rep.directions.tobytes()
        assert got.rep.resolution.hex() == want.rep.resolution.hex()

    def test_polar_of_halfplane_is_ray(self):
        # the lower half-plane's polar is the one grid row at 3pi/2
        out = cones.polar(FiberCone.from_arcs([(math.pi, TWO_PI)]))
        grid = sampling.unit_grid(2)
        ray = grid[[np.argmax(grid @ [0.0, -1.0])]]
        assert np.allclose(ray, [[0.0, -1.0]], rtol=0.0, atol=1e-15)
        assert out.rep.directions.tobytes() == ray.tobytes()

    def test_hausdorff_full_forms_agree(self):
        full_arcs = FiberCone.from_arcs([(0.0, TWO_PI)])
        assert cones.hausdorff_angle(full_arcs, full_arcs) == 0.0
        assert cones.hausdorff_angle(full_arcs, FiberCone.full(2)) == 0.0

    @given(arc_sets(), st.floats(0.0, TWO_PI))
    @settings(max_examples=100, deadline=None)
    def test_point_distance_zero_iff_member(self, arcs, theta):
        arcs = cones.arcs_normalize(arcs)
        d = cones.arcs_point_distance(arcs, theta)
        assert (d <= 1e-9) == cones.arcs_contains(arcs, theta, tol=1e-9)


# the resolutions of the standard grids, which the zero and full cones report
GRID_RESOLUTION_HEX = {1: "0x0.0p+0", 2: "0x1.1df46a2529d39p-7",
                       3: "0x1.b180117b136bap-6", 4: "0x1.8ce19e3831d0cp-5"}


def trivial_json(dim, full):
    """The report form of the zero or the full cone."""
    out = {"dim": dim, "kind": "polyhedral",
           ("halfspaces" if full else "generators"): []}
    if dim == 2:
        out["arcs"] = [[0.0, 6.283185]] if full else []
    return out


class TestTrivialCones:
    """Every operation answers the zero and the full cone exactly, and
    reports write them as polyhedral cones with no generators or no
    halfspaces."""

    def test_full_and_zero(self):
        for dim in (1, 2, 3, 4):
            zero, full = FiberCone.zero(dim), FiberCone.full(dim)
            assert zero.is_zero() and not full.is_zero()
            assert not cones.contains_line(zero) and cones.contains_line(full)
            M = np.eye(dim) + 0.3 * np.tri(dim, k=-1)
            for c, is_full in ((zero, False), (full, True)):
                assert c.resolution().hex() == GRID_RESOLUTION_HEX[dim]
                for same in (c, cones.antipodal(c), cones.linear_image(c, M)):
                    assert cli.cone_to_json(same) == trivial_json(dim, is_full)
                assert cli.cone_to_json(cones.polar(c)) == trivial_json(dim, not is_full)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_membership(self, dim):
        zero, full = FiberCone.zero(dim), FiberCone.full(dim)
        V = np.random.default_rng(dim).standard_normal((20, dim))
        V[0] = 0.0
        for tol in (None, 1e-9, 0.05, 0.4):
            assert [cones.contains(zero, v, tol=tol) for v in V] == [True] + [False] * 19
            assert all(cones.contains(full, v, tol=tol) for v in V)
            if tol is not None:
                norms = cones._row_norms(V)
                assert cones._contains_rows(zero, V, norms, tol).tolist() == [True] + [False] * 19
                assert cones._contains_rows(full, V, norms, tol).all()

    def test_arcs(self):
        zero, full = FiberCone.zero(2), FiberCone.full(2)
        for c, arcs in ((zero, ()), (full, ((0.0, TWO_PI),))):
            assert cones.as_arcs(c).rep.arcs == arcs
            assert cones.arcs_cover(c).rep.arcs == arcs
            assert cones.top(c).rep == cones.Arcs2D(arcs)

    @pytest.mark.parametrize("dim", [1, 3, 4])
    def test_top(self, dim):
        assert cli.cone_to_json(cones.top(FiberCone.zero(dim))) == trivial_json(dim, False)
        top = cones.top(FiberCone.full(dim))
        # every grid row is nearly orthogonal to some other row, so the top
        # of the full cone is the whole grid, answered as the full cone
        # without a dot; in 1-D no row is
        assert cli.cone_to_json(top) == trivial_json(dim, dim > 1)
        want = sampling.unit_grid(dim) if dim > 1 else np.zeros((0, 1))
        assert cones.member_directions(top).tobytes() == want.tobytes()
        assert top.resolution().hex() == GRID_RESOLUTION_HEX[dim]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_sampled_forms(self, dim):
        zero = cones.as_sampled(FiberCone.zero(dim)).rep
        full = cones.as_sampled(FiberCone.full(dim)).rep
        assert zero.directions.shape == (0, dim)
        assert full.directions.tobytes() == sampling.unit_grid(dim).tobytes()
        for rep in (zero, full):
            assert rep.resolution.hex() == GRID_RESOLUTION_HEX[dim]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_intersect_and_join(self, dim):
        # the meet of closed convex cones is the polar of the join of their
        # polars, which for trivial cones is their sum
        zero, full = FiberCone.zero(dim), FiberCone.full(dim)
        for a, b, meet, hull in ((zero, zero, False, False), (zero, full, False, True),
                                 (full, zero, False, True), (full, full, True, True)):
            both = cones.polar(cones.join(cones.polar(a), cones.polar(b)))
            assert cli.cone_to_json(both) == trivial_json(dim, meet)
            assert cli.cone_to_json(cones.join(a, b)) == trivial_json(dim, hull)
            want = 0.0 if meet == hull else math.inf
            assert cones.hausdorff_angle(both, cones.join(a, b)) == want


def dense_directed_angle(a, b):
    """The largest over a's members of the arccos of the largest dot with
    b's members, from the full member-by-member matrix."""
    G = cones.member_directions(a) @ cones.member_directions(b).T
    return float(np.arccos(np.clip(G, -1.0, 1.0).max(axis=1)).max())


class TestDirectedAngle:
    def test_plane_cones_are_exact(self):
        # the farthest ray of the arc is its midpoint, which no sampling
        # of the arc at a step that misses 0.5 reaches
        arc = FiberCone.from_arcs([(0.0, 1.0)])
        ends = FiberCone.from_arcs([(0.0, 0.0), (1.0, 1.0)])
        assert cones.directed_angle(arc, ends) == 0.5
        assert cones.directed_angle(ends, arc) == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_cones(self, dim):
        zero, full = FiberCone.zero(dim), FiberCone.full(dim)
        empty = FiberCone.from_directions(np.zeros((0, dim)), dim)
        for z in (zero, empty):
            assert cones.directed_angle(z, full) == 0.0
            assert cones.directed_angle(z, z) == 0.0
            assert cones.directed_angle(full, z) == math.pi
            assert cones.hausdorff_angle(z, full) == math.inf
            assert cones.hausdorff_angle(z, zero) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_3d_equals_the_dense_matrix(self, seed):
        a = FiberCone.from_directions(random_sampled_cone(3, seed, count=300), 3)
        b = FiberCone.from_directions(random_sampled_cone(3, seed + 50, count=500), 3)
        ab, ba = cones.directed_angle(a, b), cones.directed_angle(b, a)
        # arccos of a dot near 1 loses about sqrt(eps) of the angle
        assert abs(ab - dense_directed_angle(a, b)) <= 1e-7
        assert abs(ba - dense_directed_angle(b, a)) <= 1e-7
        assert cones.hausdorff_angle(a, b) == max(ab, ba)

    def test_memory_stays_linear_in_the_members(self):
        # the dense matrix of these two cones would take 12.8 GB
        a = FiberCone.from_directions(random_sampled_cone(3, 1, count=40_000), 3)
        b = FiberCone.from_directions(random_sampled_cone(3, 2, count=40_000), 3)
        tracemalloc.start()
        try:
            got = cones.directed_angle(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < got < math.pi
        assert peak < 64 << 20


def dense_polar_mask(grid, dirs, thr):
    """Brute-force polar membership: every dot with every member."""
    ok = np.empty(len(grid), dtype=bool)
    for lo in range(0, len(grid), 4096):
        ok[lo:lo + 4096] = np.all(grid[lo:lo + 4096] @ dirs.T >= thr, axis=1)
    return ok


def random_sampled_cone(dim, seed, count=400, spread=None):
    """A noisy cap of unit directions around a random axis."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(dim)
    if spread is None:
        spread = rng.uniform(0.2, 0.9)
    d = axis / np.linalg.norm(axis) + spread * rng.standard_normal((count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def at_threshold(g, slack, toward):
    """The unit member v with <g, v> = -sin(slack) in exact arithmetic, in
    the plane of g and ``toward``."""
    w = toward - (toward @ g) * g
    w /= np.linalg.norm(w)
    return math.cos(math.pi / 2 + slack) * g + math.sin(math.pi / 2 + slack) * w


class TestSampledPolar:
    """The polar of a sampled cone, decided by blocked dense dots, keeps
    the brute-force mask and the mask of the former KD-tree decision."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_mask(self, dim, seed):
        dirs = random_sampled_cone(dim, seed)
        res = sampling.grid_resolution(dim)
        grid = sampling.unit_grid(dim)
        for slack in (None, 0.0, 2.0 * res):
            got = cones.polar(FiberCone.from_directions(dirs, dim, res), slack=slack)
            thr = -math.sin(0.5 * res if slack is None else slack)
            want = grid[dense_polar_mask(grid, dirs, thr)]
            assert np.array_equal(got.rep.directions, want)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_members_at_the_slack_threshold(self, dim):
        # each of the 20 polar rows nearest the threshold gets a tie member,
        # turned a little from its member nearest the threshold; the polar
        # keeps most of its rows, and the deepest tied rows stay in it at
        # the threshold
        res = sampling.grid_resolution(dim)
        slack = 0.5 * res
        thr = -math.sin(slack)
        grid = sampling.unit_grid(dim)
        base = random_sampled_cone(dim, 100 + dim, spread=0.2)
        inside = np.flatnonzero(dense_polar_mask(grid, base, thr))
        dots = grid[inside] @ base.T
        nearest = np.argsort(dots.min(axis=1))[:20]
        rows = inside[nearest]
        ties = np.array([at_threshold(grid[k], slack, base[a]) for k, a
                         in zip(rows, dots.argmin(axis=1)[nearest])])
        dirs = np.vstack([base, ties])
        want = dense_polar_mask(grid, dirs, thr)
        assert want.sum() > len(inside) // 2
        low = (grid[rows] @ dirs.T).min(axis=1)
        assert (want[rows] & (np.abs(low - thr) <= 1e-15)).any()
        got = cones.polar(FiberCone(dim, cones.Sampled(dirs, res)), slack=slack)
        assert np.array_equal(got.rep.directions, grid[want])

    def test_non_unit_members_use_the_dense_product(self):
        dirs = 2.0 * random_sampled_cone(3, 7)
        grid = sampling.unit_grid(3)
        got = cones.polar(FiberCone(3, cones.Sampled(dirs, 0.01)), slack=0.01)
        want = grid[dense_polar_mask(grid, dirs, -math.sin(0.01))]
        assert np.array_equal(got.rep.directions, want)

    # the subset pre-check must leave the mask of the KD path bit-equal

    @staticmethod
    def dense_fan(seed):
        """An epigraph-like fan over the 2-D domain: about 64k members."""
        rng = np.random.default_rng(seed)
        base = sampling.unit_grid(2)[::2]
        step = sampling.grid_resolution(2)
        # a linear slope plus a bump keeps the polar a small cap
        slopes = base @ rng.normal(size=2) + 0.05 * np.abs(rng.normal(size=len(base)))
        return np.vstack([geometry.fan(u, math.atan(h), math.pi / 2.0, step)
                          for u, h in zip(base, slopes)])

    @pytest.mark.parametrize("seed", range(2))
    def test_precheck_on_a_dense_fan(self, seed):
        dirs = self.dense_fan(seed)
        grid = sampling.unit_grid(3)
        kept = 0
        for slack in (0.0, 0.5 * sampling.grid_resolution(2), 0.05, 0.1):
            thr = -math.sin(slack)
            got = cones._dual_mask(grid, dirs, thr)
            assert np.array_equal(got, exact_dual_mask(grid, dirs, thr))
            kept += got.sum()
        assert kept > 0

    @pytest.mark.parametrize("dim", [3, 4])
    def test_precheck_with_rows_at_the_threshold(self, dim):
        # thr is a row's own smallest dot, taken by a probed member or not
        dirs = random_sampled_cone(dim, 200 + dim, count=3000, spread=0.3)
        grid = sampling.unit_grid(dim)
        low = np.empty(len(grid))
        arg = np.empty(len(grid), dtype=int)
        for lo in range(0, len(grid), 4096):
            dots = grid[lo:lo + 4096] @ dirs.T
            low[lo:lo + 4096], arg[lo:lo + 4096] = dots.min(axis=1), dots.argmin(axis=1)
        probed = arg % (len(dirs) // cones.DUAL_PROBES) == 0
        for pick in (probed, ~probed):
            for k in np.flatnonzero(pick)[:: max(1, pick.sum() // 5)][:5]:
                thr = low[k]
                got = cones._dual_mask(grid, dirs, thr)
                assert got[k]
                assert np.array_equal(got, exact_dual_mask(grid, dirs, thr))

    @pytest.mark.parametrize("seed", range(3))
    def test_precheck_in_four_dimensions(self, seed):
        dirs = random_sampled_cone(4, 300 + seed, count=2000)
        grid = sampling.unit_grid(4)
        for slack in (0.0, 0.5 * sampling.grid_resolution(4)):
            thr = -math.sin(slack)
            assert np.array_equal(cones._dual_mask(grid, dirs, thr),
                                  exact_dual_mask(grid, dirs, thr))

    # survivors of the probe pre-check, decided by the dense stage

    @pytest.fixture
    def dot_rows(self, monkeypatch):
        """The row count of each ``cones.min_dots`` call, in call order."""
        rows = []
        min_dots = cones.min_dots

        def counted(points, members, absolute=False):
            rows.append(len(points))
            return min_dots(points, members, absolute)
        monkeypatch.setattr(cones, "min_dots", counted)
        return rows

    @staticmethod
    def two_ray_fan(dim, seed, count=2000, angle=0.3):
        """The flat sector between two unit rays, ``count`` members."""
        rng = np.random.default_rng(seed)
        a, b = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T
        s = np.linspace(0.0, angle, count)[:, None]
        return np.cos(s) * a + np.sin(s) * b

    @pytest.mark.parametrize("dim", [3, 4])
    def test_thin_two_ray_cone(self, dim, dot_rows):
        dirs = self.two_ray_fan(dim, 400 + dim)
        grid = sampling.unit_grid(dim)
        for slack in (0.0, 0.5 * sampling.grid_resolution(dim)):
            thr = -math.sin(slack)
            dot_rows.clear()
            got = cones._dual_mask(grid, dirs, thr)
            # the polar is close to half the sphere: thousands of rows
            # survive the screens and span many dense blocks
            assert dot_rows[-1] > 1000
            assert dot_rows[-1] * len(dirs) > 4 * cones.DENSE_CELLS
            assert np.array_equal(got, exact_dual_mask(grid, dirs, thr))
            assert np.array_equal(got, dense_polar_mask(grid, dirs, thr))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_survivors_over_small_blocks(self, dim, monkeypatch, dot_rows):
        monkeypatch.setattr(cones, "DENSE_CELLS", 1 << 13)
        dirs = random_sampled_cone(dim, 500 + dim, count=1000, spread=0.3)
        grid = sampling.unit_grid(dim)
        for slack in (0.0, 0.1):
            thr = -math.sin(slack)
            dot_rows.clear()
            got = cones._dual_mask(grid, dirs, thr)
            assert dot_rows[-1] > 4 * (cones.DENSE_CELLS // len(dirs))
            assert np.array_equal(got, exact_dual_mask(grid, dirs, thr))
            assert np.array_equal(got, dense_polar_mask(grid, dirs, thr))

    @pytest.mark.parametrize("count", [200, 3000])
    def test_one_survivor(self, count, dot_rows):
        # thr lies just below the largest smallest dot over the probe
        # members, so exactly the row that takes it survives; with 200
        # members every member is a probe and that row is in the polar
        dirs = random_sampled_cone(3, 600, count=count)
        grid = sampling.unit_grid(3)
        probe = dirs[::max(1, len(dirs) // cones.DUAL_PROBES)]
        low = (grid @ probe.T).min(axis=1)
        thr = low.max() - 1e-12
        assert (low >= thr - cones.DUAL_MARGIN).sum() == 1
        got = cones._dual_mask(grid, dirs, thr)
        assert dot_rows[-1] == 1
        assert got.sum() == (count <= cones.DUAL_PROBES)
        assert np.array_equal(got, exact_dual_mask(grid, dirs, thr))
        assert np.array_equal(got, dense_polar_mask(grid, dirs, thr))

    def test_coarse_screen_leaves_no_row(self, dot_rows):
        # members all over the sphere: the coarse screen's ~16 members
        # already leave no row, so neither the fine screen nor the final
        # product runs
        dirs = random_sampled_cone(3, 700, count=3000, spread=4.0)
        grid = sampling.unit_grid(3)
        thr = -math.sin(0.5 * sampling.grid_resolution(3))
        got = cones._dual_mask(grid, dirs, thr)
        assert dot_rows == [len(grid)]
        assert not got.any()
        assert np.array_equal(got, dense_polar_mask(grid, dirs, thr))

    @pytest.mark.parametrize("count", [1, 16])
    def test_few_members_take_one_screen(self, count, dot_rows):
        # with 16 members or fewer both screens would read every member,
        # so one screen runs before the final product
        dirs = self.two_ray_fan(3, 800 + count, count=count)
        grid = sampling.unit_grid(3)
        thr = -math.sin(0.5 * sampling.grid_resolution(3))
        got = cones._dual_mask(grid, dirs, thr)
        assert len(dot_rows) == 2 and dot_rows[0] == len(grid)
        assert dot_rows[1] > 1000
        assert np.array_equal(got, exact_dual_mask(grid, dirs, thr))
        assert np.array_equal(got, dense_polar_mask(grid, dirs, thr))

    def test_builds_no_kd_tree(self, monkeypatch):
        # the polar decides by dense dots alone, with no neighbour index
        def index(*args, **kwargs):
            raise AssertionError("a neighbour index was built")
        monkeypatch.setattr(sampling, "CellIndex", index)
        dirs = random_sampled_cone(3, 7, count=2000, spread=0.3)
        res = sampling.grid_resolution(3)
        got = cones.polar(FiberCone(3, cones.Sampled(dirs, res)))
        grid = sampling.unit_grid(3)
        want = grid[dense_polar_mask(grid, dirs, -math.sin(0.5 * res))]
        assert len(want) and np.array_equal(got.rep.directions, want)


class TestDenseBlocks:
    """``cones.polar`` and every ``cones.min_dots`` block stay small: no
    block holds more than DENSE_CELLS dots, a doubled lone row counted
    twice."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The dot count of every product that ``cones.min_dots`` takes."""
        sizes = []

        class Rows(np.ndarray):
            def __matmul__(self, other):
                sizes.append(self.shape[0] * other.shape[1])
                return np.asarray(self) @ other
        min_dots = cones.min_dots

        def viewed(points, members, absolute=False):
            return min_dots(points.view(Rows), members, absolute)
        monkeypatch.setattr(cones, "min_dots", viewed)
        return sizes

    @pytest.mark.parametrize("count", [600, 10_000])
    def test_polar_memory_is_bounded(self, count, blocks):
        # about 1 MiB here; one block of 2**21 dots took 16 MiB
        dirs = random_sampled_cone(3, 900 + count, count=count, spread=0.2)
        cone = FiberCone(3, cones.Sampled(dirs, sampling.grid_resolution(3)))
        want = cones.polar(cone)
        tracemalloc.start()
        try:
            got = cones.polar(cone)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got.rep.directions) > 0
        assert got.rep.directions.tobytes() == want.rep.directions.tobytes()
        assert peak < 4 << 20
        assert 0 < max(blocks) <= cones.DENSE_CELLS

    @pytest.mark.parametrize("count", [600, 10_000])
    def test_lone_row_block(self, count, blocks):
        # three full blocks and a lone last row, doubled
        grid = sampling.unit_grid(3)
        members = random_sampled_cone(3, 902, count=count)
        step = cones.DENSE_CELLS // count
        rows = grid[:3 * step + 1]
        got = cones.min_dots(rows, members)
        assert blocks == [step * count] * 3 + [2 * count]
        assert max(blocks) <= cones.DENSE_CELLS
        assert got.tobytes() == (rows @ members.T).min(axis=1).tobytes()


def exact_dual_mask(grid, dirs, thr):
    """The former KD-tree decision of the sampled polar: the member nearest
    to -g gives each row's smallest dot, and rows whose dot lies within
    1e-9 of thr are decided again by the dense product."""
    from scipy.spatial import cKDTree

    _, idx = cKDTree(dirs).query(-grid)
    dots = np.einsum("ij,ij->i", grid, dirs[idx])
    ok = dots >= thr
    near = np.flatnonzero(np.abs(dots - thr) <= 1e-9)
    step = max(2, cones.DENSE_CELLS // len(dirs))
    for lo in range(0, len(near), step):
        rows = near[lo:lo + step]
        dense = grid[np.resize(rows, max(2, len(rows)))] @ dirs.T
        ok[rows] = np.all(dense[:len(rows)] >= thr, axis=1)
    return ok


@st.composite
def near_set_cases(draw):
    """Rows and members in dims 2-5: random, at the chord of tol, or on the
    faces of voxels of side chord (1 - NEAR_MARGIN) / sqrt(d), whose
    diagonals fall just short of the chord."""
    dim = draw(st.integers(2, 5))
    tol = draw(st.one_of(
        st.sampled_from((1e-9, 1e-6, 0.0, -1.0, 0.01, 0.05, 0.3, 1.0,
                         math.pi / 2, 2.0, 3.0, math.pi, 4.0, math.inf)),
        st.floats(1e-9, 3.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = st.sampled_from((0, 1, 7, 150))
    rows, count = draw(counts), draw(counts)
    unit = lambda a: a / np.linalg.norm(a, axis=1, keepdims=True)
    members = unit(rng.standard_normal((count, dim)))
    if draw(st.booleans()):
        members *= rng.uniform(0.2, 3.0, size=(count, 1))
    chord = 2.0 * math.sin(0.5 * min(max(tol, 0.0), math.pi))
    side = chord * (1.0 - sampling.NEAR_MARGIN) / math.sqrt(dim)
    layout = draw(st.sampled_from(("random", "chord", "faces")))
    if layout == "faces" and count:
        members = side * rng.integers(-3, 4, size=(count, dim)).astype(float)
    dirs = unit(rng.standard_normal((rows, dim)))
    if count and rows and layout != "random":
        pick = members[rng.integers(0, count, rows)]
        if layout == "chord":
            dirs = pick + chord * unit(rng.standard_normal((rows, dim)))
        else:
            dirs = pick + side * rng.integers(-1, 2, size=(rows, dim))
    return dirs, members, tol


class TestNearSet:
    """``CellIndex(members).near(dirs, tol)``, the near test of every cone
    membership, equals the full nearest-neighbour angle test bit for bit."""

    @given(near_set_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_min_angle_test(self, case):
        dirs, members, tol = case
        want = sampling.min_angle_to_set(dirs, members) <= tol
        assert np.array_equal(sampling.CellIndex(members).near(dirs, tol), want)

    def test_voxel_stage_decides_dense_sets_soundly(self):
        members = sampling.sphere_points(3, 20000, 1)
        dirs = sampling.sphere_points(3, 4000, 2)
        tol = 2.0 * sampling.grid_resolution(3)
        assert np.array_equal(sampling.CellIndex(members).near(dirs, tol),
                              sampling.min_angle_to_set(dirs, members) <= tol)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("tol", [0.01, 0.05, 1.0])
    def test_rows_along_a_voxel_diagonal(self, dim, tol):
        # a member at the low corner of its voxel and rows along the
        # diagonal, from just inside the chord of tol to just outside
        chord = 2.0 * math.sin(0.5 * tol)
        t = 1.0 + 2.0 * sampling.NEAR_MARGIN * np.linspace(-1.0, 1.0, 41)
        dirs = np.outer(chord * t, np.ones(dim) / math.sqrt(dim))
        members = np.zeros((1, dim))
        want = sampling.min_angle_to_set(dirs, members) <= tol
        assert want.any() and not want.all()
        assert np.array_equal(sampling.CellIndex(members).near(dirs, tol), want)

    @pytest.mark.parametrize("dim,tol", [(3, 1e-9), (5, 1e-4), (2, 0.0)])
    def test_voxel_stage_skipped_for_tiny_voxels(self, dim, tol):
        # voxels this small have no int64 key, and every row still finds
        # itself
        pts = sampling.sphere_points(dim, 64, 3)
        side = 2.0 * math.sin(0.5 * tol) / math.sqrt(dim)
        assert sampling.voxel_keys([pts, pts], side) is None
        assert sampling.CellIndex(pts).near(pts, tol).all()


def kd_nearest(members, q, k):
    """Chords and indices of scipy's KD tree, shape (len(q), k)."""
    from scipy.spatial import cKDTree

    d, i = cKDTree(members).query(q, k=k)
    return d.reshape(len(q), k), i.reshape(len(q), k)


def kd_near(members, dirs, tol):
    """The near test made with scipy's KD tree."""
    chord, _ = kd_nearest(members, dirs, 1)
    return 2.0 * np.arcsin(np.clip(chord[:, 0] / 2.0, 0.0, 1.0)) <= tol


def index_cases(dim, seed, count=300):
    """Members and queries: Gaussian clouds with rows far outside the
    members' bounding box, and above 1-D (where they are only +1 and -1)
    unit directions; 2 000 equal rows; and above 1-D a thin set, 3 000
    points about 1e-4 apart on a smooth closed curve, as the members of
    composed relations lie, with queries on it, near it and far off."""
    rng = np.random.default_rng(seed)
    members = rng.standard_normal((count, dim))
    q = rng.standard_normal((200, dim)) * 1.5
    q[:20] *= 10.0
    equal = (np.repeat(rng.standard_normal((1, dim)), 2000, axis=0), q)
    if dim == 1:
        return [(members, q), equal]
    unit = lambda a: a / np.linalg.norm(a, axis=1, keepdims=True)
    t = np.linspace(0.0, 2.0 * np.pi, 3000, endpoint=False)
    curve = np.column_stack([np.cos((j // 2 + 1) * t + j) for j in range(dim)])
    curve *= 3000e-4 / np.linalg.norm(np.diff(curve, axis=0), axis=1).sum()
    near = curve[rng.integers(0, 3000, 150)] + 1e-5 * rng.standard_normal((150, dim))
    thin = (curve, np.vstack([curve[:50], near, 0.1 * q[:50]]))
    return [(members, q), (unit(members), unit(q)), equal, thin]


class TestCellIndex:
    """CellIndex answers both queries with the chords of scipy's KD tree,
    bit for bit; among equal chords the lower member index comes first."""

    @pytest.mark.parametrize("dim", range(1, 10))
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_nearest_equals_the_kd_tree(self, dim, k):
        for members, q in index_cases(dim, 10 * dim + k):
            got_chord, got_idx = sampling.CellIndex(members).nearest(q, k)
            chord, idx = kd_nearest(members, q, k)
            assert got_chord.tobytes() == chord.tobytes()
            if np.all(members == members[0]):
                # equal members tie at every chord: the lowest come first
                assert np.array_equal(got_idx, np.tile(np.arange(k), (len(q), 1)))
                continue
            # no two members lie at exactly one chord from a row here, so
            # the indices are the tree's too
            far, _ = kd_nearest(members, q, k + 1)
            assert np.all(np.diff(far, axis=1) > 0.0)
            assert np.array_equal(got_idx, idx)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_duplicated_members_come_in_index_order(self, dim, k):
        rng = np.random.default_rng(dim + 100 * k)
        base = rng.standard_normal((40, dim))
        members = base[rng.integers(0, len(base), 200)]
        q = np.vstack([base[:10], rng.standard_normal((50, dim))])
        got_chord, got_idx = sampling.CellIndex(members).nearest(q, k)
        chord, _ = kd_nearest(members, q, k)
        assert got_chord.tobytes() == chord.tobytes()
        # every chord of the tree, sorted by chord and then by index
        every, idx = kd_nearest(members, q, len(members))
        for row in range(len(q)):
            first = np.lexsort((idx[row], every[row]))[:k]
            assert np.array_equal(got_idx[row], idx[row, first])

    @pytest.mark.parametrize("dim", range(1, 10))
    @pytest.mark.parametrize("tol", [-1.0, 0.0, 1e-9, 0.05, 0.3, 1.0, 3.0,
                                     math.pi, 4.0])
    def test_near_equals_the_kd_tree(self, dim, tol):
        for members, q in index_cases(dim, dim):
            # some rows on members, some a chord of tol away from one
            q = np.vstack([q, members[:30], members[30:60] + 2.0 * math.sin(
                0.5 * min(max(tol, 0.0), math.pi)) / math.sqrt(dim)])
            got = sampling.CellIndex(members).near(q, tol)
            assert np.array_equal(got, kd_near(members, q, tol))

    @pytest.mark.parametrize("dim", [1, 3, 7])
    def test_empty_members(self, dim):
        index = sampling.CellIndex(np.zeros((0, dim)))
        q = np.ones((3, dim))
        chord, idx = index.nearest(q, 2)
        assert np.all(chord == np.inf) and np.all(idx == 0)
        assert not index.near(q, 1.0).any()

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_sets_of_one_to_three_rows(self, dim, count):
        rng = np.random.default_rng(count * dim)
        members = rng.standard_normal((count, dim))
        q = np.vstack([members, rng.standard_normal((count, dim))])
        for k in (1, count, 4):
            got_chord, got_idx = sampling.CellIndex(members).nearest(q, k)
            chord, idx = kd_nearest(members, q, k)
            assert got_chord.tobytes() == chord.tobytes()
            # past the members the tree reads inf at the index len(members)
            assert np.array_equal(got_idx, idx)
        for tol in (0.0, 0.5):
            got = sampling.CellIndex(members).near(q, tol)
            assert np.array_equal(got, kd_near(members, q, tol))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 9])
    def test_grids_hold_at_most_n_plus_one_entries(self, dim):
        # a grid keeps only the cubes its members occupy, so at any side
        # no array it holds outgrows the members; only the per-axis arrays
        # and the 3^(a-1) + 2 runs around a cube have a length set by the
        # axes
        rng = np.random.default_rng(dim)
        q = rng.standard_normal((50, dim))
        q[:10] *= 1e3
        for n in (1, 3, 2000):
            index = sampling.CellIndex(rng.standard_normal((n, dim)))
            index.nearest(q, 2)
            for tol in (0.0, 1e-9, 0.5):
                index.near(q, tol)
            assert len(index._grids) >= 3
            bound = max(n + 1, 3 ** (index.axes - 1) + 2)
            for g in index._grids.values():
                for name, a in vars(g).items():
                    if isinstance(a, np.ndarray):
                        assert len(a) <= bound, (n, name, len(a))


class TestSharedGrids:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_cached_grid_is_read_only(self, dim):
        grid = sampling.unit_grid(dim)
        with pytest.raises(ValueError):
            grid[0, 0] = 5.0
        assert sampling.unit_grid(dim)[0, 0] != 5.0

    @pytest.mark.parametrize("draw", [sampling.sphere_points,
                                      sampling.ball_points])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sobol_sets_are_drawn_once_and_read_only(self, draw, dim):
        pts = draw(dim, 40, 11)
        assert draw(dim, 40, 11) is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 5.0
        assert draw(dim, 40, 11)[0, 0] != 5.0

    @pytest.mark.parametrize("count", [1, 3, 36, 100])
    def test_sobol_draws_warn_nothing_and_keep_their_points(self, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sphere = sampling.sphere_points(3, count, 7)
            sampling.ball_points(3, count, 7)
        g = ndtri(np.clip(sampling._kronecker(3, count, 7), 1e-12, 1.0 - 1e-12))
        want = g / np.linalg.norm(g, axis=1, keepdims=True)
        assert sphere.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_kronecker_steps_by_the_r_d_root_from_a_seeded_shift(self, dim):
        # np.roots' root is a few ulp off, and the j-th power of alpha
        # carries j times its relative error
        roots = np.roots([1.0] + [0.0] * (dim - 1) + [-1.0, -1.0])
        phi = max(r.real for r in roots if abs(r.imag) <= 1e-9)
        j = np.arange(1, dim + 1)
        alpha = sampling._kronecker_step(dim)
        assert np.all(np.abs(alpha * phi ** j - 1.0) <= 8.0 * j * np.finfo(float).eps)
        for seed in (0, 7, 2 ** 32 - 1, sampling.child_seed(123, 4)):
            pts = sampling._kronecker(dim, 2000, seed)
            assert pts.shape == (2000, dim)
            assert np.all((pts >= 0.0) & (pts < 1.0))
            assert sampling._kronecker(dim, 2000, seed).tobytes() == pts.tobytes()
            assert sampling._kronecker(dim, 1000, seed).tobytes() == pts[:1000].tobytes()
            assert sampling._kronecker(dim, 1, seed).tobytes() == pts[:1].tobytes()

    @pytest.mark.parametrize("dim", [4, 5])
    def test_high_grids_equal_the_scipy_halton_construction(self, dim):
        n = sampling.GRID_SIZES.get(dim, sampling.GRID_SIZES[4])
        h = qmc.Halton(d=dim, scramble=False).random(n + 1)[1:]
        g = ndtri(np.clip(h, 1e-12, 1.0 - 1e-12))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        assert sampling.unit_grid(dim).tobytes() == g.tobytes()


def ndtri_inputs():
    """Inputs of every branch of the Cephes ndtri: uniform draws clipped as
    the samplers clip them, both tails down to the smallest subnormal, and
    each branch edge with its nextafter neighbours."""
    u = np.random.default_rng(0).random(200_000)
    tails = np.concatenate([10.0 ** -np.linspace(12.0, 300.0, 20_000), [5e-324]])
    edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0),
             1.0 - math.exp(-32.0), 0.5]
    near = list(edges)
    for e in edges:
        lo = hi = e
        for _ in range(4):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
            near += [lo, hi]
    return np.concatenate([np.clip(u, 1e-12, 1.0 - 1e-12), tails,
                           1.0 - tails[tails > 1e-16], near])


def scipy_probe_set(draw, dim, count, seed):
    """``sphere_points`` or ``ball_points`` with scipy's own ndtri."""
    u = sampling._kronecker(dim + (draw is sampling.ball_points), count, seed)
    g = ndtri(np.clip(u[:, :dim], 1e-12, 1.0 - 1e-12))
    norm = np.linalg.norm(g, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    if draw is sampling.sphere_points:
        return g / norm
    return g / norm * u[:, dim:] ** (1.0 / dim)


class TestNdtri:
    def test_equals_scipy_bit_for_bit(self):
        y = ndtri_inputs()
        assert sampling._ndtri(y).tobytes() == ndtri(y).tobytes()

    def test_keeps_the_shape(self):
        y = ndtri_inputs()[:120_000].reshape(-1, 4)
        got = sampling._ndtri(y)
        assert got.shape == y.shape
        assert got.tobytes() == ndtri(y).tobytes()

    def test_reaches_every_branch(self):
        # central, both tails with z < 8, and both tails with z >= 8
        y = ndtri_inputs()
        z = np.sqrt(-2.0 * np.log(np.minimum(y, 1.0 - y)))
        central = (y > math.exp(-2.0)) & (y < 1.0 - math.exp(-2.0))
        for side in (y < 0.5, y > 0.5):
            assert (side & central).any()
            assert (side & ~central & (z < 8.0)).any()
            assert (side & (z >= 8.0)).any()

    # the probe sets the analyze goldens draw at seed 0, as (draw, dim,
    # count, seeds): the base offsets and jittered directions of each
    # ladder scale, the graph sample directions, and the 3-D slab scan
    @pytest.mark.parametrize("draw,dim,count,seeds", [
        (sampling.ball_points, 2, 32, [(11, k) for k in range(17)]),
        (sampling.ball_points, 3, 32, [(11, k) for k in range(17)]),
        (sampling.sphere_points, 2, 32, [(23, k) for k in range(17)]),
        (sampling.sphere_points, 3, 32, [(23, k) for k in range(17)]),
        (sampling.sphere_points, 2, 10_000, [(91, k) for k in range(16)]),
        (sampling.sphere_points, 3, 512, [5]),
    ])
    def test_golden_probe_sets_equal_a_scipy_oracle(self, draw, dim, count, seeds):
        for tag in seeds:
            seed = sampling.child_seed(0, *tag) if isinstance(tag, tuple) else tag
            want = scipy_probe_set(draw, dim, count, seed)
            assert draw(dim, count, seed).tobytes() == want.tobytes(), seed


class TestTopDuality:
    def oracle_top_mask(self, arcs):
        # union of perpendicular lines of nonzero members
        member = arc_mask(arcs)
        quarter = len(THETA) // 4
        return np.roll(member, quarter) | np.roll(member, -quarter)

    @given(arc_sets())
    @settings(max_examples=100, deadline=None)
    def test_top_oracle(self, arcs):
        sym = cones.arcs_union(arcs, [(lo + math.pi, hi + math.pi)
                                      for lo, hi in arcs])
        c = FiberCone.from_arcs(sym)
        got = arc_mask(cones.as_arcs(cones.top(c)).rep.arcs)
        want = self.oracle_top_mask(sym)
        assert masks_equal(got, want, slop_steps=2)

    @given(arc_sets())
    @settings(max_examples=100, deadline=None)
    def test_top_involution_symmetric(self, arcs):
        sym = cones.arcs_union(arcs, [(lo + math.pi, hi + math.pi)
                                      for lo, hi in arcs])
        c = FiberCone.from_arcs(sym)
        back = cones.top(cones.top(c))
        assert cones.hausdorff_angle(back, c) <= sampling.grid_resolution(2)

    def test_top_of_bowtie(self):
        # |t| <= |u| maps to |xi| <= |eta| under the top duality
        bowtie = FiberCone.from_arcs([(-0.25 * math.pi, 0.25 * math.pi),
                                      (0.75 * math.pi, 1.25 * math.pi)])
        lam = cones.top(bowtie)
        want = FiberCone.from_arcs([(0.25 * math.pi, 0.75 * math.pi),
                                    (1.25 * math.pi, 1.75 * math.pi)])
        assert cones.hausdorff_angle(lam, want) <= 1e-9


class TestMembership:
    def test_contains_polyhedral(self):
        # the closed first quadrant, sampled on the grid
        grid = sampling.unit_grid(2)
        q = FiberCone.from_directions(grid[(grid >= 0.0).all(axis=1)], 2)
        assert cones.contains(q, [1.0, 1.0])
        assert cones.contains(q, [0.0, 3.0])
        assert not cones.contains(q, [-1.0, 0.2])

    def test_contains_arcs(self):
        c = FiberCone.from_arcs([(0.0, math.pi / 2)])
        assert cones.contains(c, [1.0, 1.0])
        assert not cones.contains(c, [-1.0, -1.0])

    def test_contains_line_detects_subspace(self):
        line = FiberCone.from_directions([[1.0, 0.0], [-1.0, 0.0]], 2)
        ray = FiberCone.from_directions([[1.0, 0.0]], 2)
        assert cones.contains_line(line)
        assert not cones.contains_line(ray)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cones.join(FiberCone.full(2), FiberCone.full(3))


class TestResolution:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8, 9])
    def test_pinned_grid_resolution_equals_the_kd_computation(self, dim):
        # the literal stands in for a query of the grid's probe rows, here
        # asked of scipy's KD tree
        from scipy.spatial import cKDTree

        pts = sampling.unit_grid(dim)
        probe = pts if len(pts) <= 4096 else pts[:: len(pts) // 4096]
        d, _ = cKDTree(pts).query(probe, k=2)
        want = float(np.mean(2.0 * np.arcsin(np.clip(d[:, 1] / 2.0, 0.0, 1.0))))
        assert sampling.grid_resolution(dim).hex() == want.hex()

    @pytest.mark.parametrize("dim", [6, 7, 8, 9])
    def test_pinned_covering_radius_equals_the_probe_estimate(self, dim):
        # above 5-D the literal is the largest nearest-row angle over 2^16
        # scrambled Sobol' probes of seed 0, here drawn by scipy and asked
        # of scipy's KD tree
        from scipy.spatial import cKDTree

        u = qmc.Sobol(d=dim, scramble=True, seed=0).random_base2(16)
        g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        norm = np.linalg.norm(g, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        chord, _ = cKDTree(sampling.unit_grid(dim)).query(g / norm)
        want = float(2.0 * np.arcsin(min(1.0, float(chord.max()) / 2.0)))
        assert sampling.covering_radius(dim).hex() == want.hex()

    def test_an_unpinned_grid_computes_the_pinned_bits(self, monkeypatch):
        # without the literals, the 6-D constants come from CellIndex: the
        # pinned resolution, and the covering radius that scipy's KD tree
        # reads off the package's own 2^16 probes
        from scipy.spatial import cKDTree

        chord, _ = cKDTree(sampling.unit_grid(6)).query(
            sampling.sphere_points(6, 1 << 16, 0))
        want = (sampling.GRID_RESOLUTIONS[6],
                float(2.0 * np.arcsin(min(1.0, float(chord.max()) / 2.0))))
        monkeypatch.setattr(sampling, "GRID_RESOLUTIONS", {})
        monkeypatch.setattr(sampling, "COVERING_RADII", {})
        sampling.grid_resolution.cache_clear()
        sampling.covering_radius.cache_clear()
        try:
            got = sampling.grid_resolution(6), sampling.covering_radius(6)
        finally:
            sampling.grid_resolution.cache_clear()
            sampling.covering_radius.cache_clear()
        assert got == want

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_pinned_covering_radius_equals_the_hull_computation(self, dim):
        from scipy.spatial import ConvexHull

        # the grid's convex hull has the origin inside; each facet's
        # circumcap holds no grid row, and the centre of the widest one is
        # the direction farthest from the grid
        offsets = ConvexHull(sampling.unit_grid(dim)).equations[:, -1]
        want = math.acos(float(-offsets.max()))
        assert sampling.covering_radius(dim) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_no_probe_lies_beyond_the_covering_radius(self, dim):
        probes = np.random.default_rng(dim).standard_normal((100_000, dim))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        far = sampling.min_angle_to_set(probes, sampling.unit_grid(dim)).max()
        assert 0.8 * sampling.covering_radius(dim) <= far
        assert far <= sampling.covering_radius(dim)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_sampled_form_keeps_the_resolution(self, dim):
        # cone.resolution() stands in for as_sampled(cone).rep.resolution
        gens = np.random.default_rng(dim).standard_normal((3, dim))
        cases = [FiberCone.zero(dim), FiberCone.full(dim),
                 FiberCone.from_directions(gens, dim),
                 FiberCone.from_directions(gens, dim, resolution=0.0123)]
        if dim == 2:
            cases.append(FiberCone.from_arcs([(0.2, 1.1), (3.0, 3.0)]))
        for c in cases:
            assert (cones.as_sampled(c).rep.resolution.hex()
                    == c.resolution().hex())


class TestArcsCover:
    def test_dense_members_compact(self):
        th = np.linspace(0.2, 1.2, 400)
        c = FiberCone.from_directions(
            np.column_stack([np.cos(th), np.sin(th)]), 2,
            resolution=sampling.grid_resolution(2))
        arcs = cones.arcs_cover(c).rep.arcs
        assert len(arcs) == 1
        lo, hi = arcs[0]
        assert abs(lo - 0.2) <= 0.02 and abs(hi - 1.2) <= 0.02

    def test_isolated_members_stay_isolated(self):
        c = FiberCone.from_directions([[1.0, 0.0], [0.0, 1.0]], 2,
                                      resolution=1e-9)
        arcs = cones.arcs_cover(c).rep.arcs
        assert len(arcs) == 2


def sampled_graph(L):
    """Dense sampled relation {(u, Lu)} over the 2-D angular grid."""
    th = np.arange(720) * (TWO_PI / 720)
    u = np.column_stack([np.cos(th), np.sin(th)])
    rows = np.hstack([u, u @ np.asarray(L, dtype=float).T])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    cone = FiberCone.from_directions(rows, 4, sampling.grid_resolution(2))
    return cones.ConicRelation(2, 2, cone)


def zero_middle_relations(res, width=0.3):
    """A relation into the zero middle fiber, then one out of it, from
    2-D arcs of this width."""
    left = cones.member_directions(FiberCone.from_arcs([(0.0, width)]))
    right = cones.member_directions(FiberCone.from_arcs([(1.0, 1.0 + width)]))
    r1 = cones.ConicRelation(2, 2, FiberCone.from_directions(
        np.hstack([left, np.zeros_like(left)]), 4, res))
    r2 = cones.ConicRelation(2, 2, FiberCone.from_directions(
        np.hstack([np.zeros_like(right), right]), 4, res))
    return r1, r2


class TestRelations:
    def test_compose_applies_first_relation_first(self):
        L1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        L2 = np.array([[1.0, 0.0], [1.0, 1.0]])
        comp = cones.compose(sampled_graph(L1), sampled_graph(L2))
        d_right = cones.hausdorff_angle(comp.cone, sampled_graph(L2 @ L1).cone)
        d_wrong = cones.hausdorff_angle(comp.cone, sampled_graph(L1 @ L2).cone)
        assert d_right <= 0.1
        assert d_right < d_wrong

    def test_compose_through_zero_middle(self):
        # first relation sends everything to the zero fiber, so the
        # composite relates every left direction to every right one
        r1, r2 = zero_middle_relations(sampling.grid_resolution(2))
        md = cones.member_directions(cones.compose(r1, r2).cone)
        both = (np.linalg.norm(md[:, :2], axis=1) > 0.5) & (
            np.linalg.norm(md[:, 2:], axis=1) > 0.5)
        assert both.any()


def reference_apply_relation(cone, rel, tol=None):
    """``apply_relation`` with one ``contains`` call per member, as it was."""
    d1, d3 = rel.left_dim, rel.right_dim
    members = cones.member_directions(rel.cone)
    if tol is None:
        tol = 2.0 * max(cone.resolution(), rel.cone.resolution())
    out = []
    for w in members:
        u, v = w[:d1], w[d1:]
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nv <= 1e-12:
            continue
        if nu <= math.sin(tol) or cones.contains(cone, u, tol=tol):
            out.append(v / nv)
    res = max(cone.resolution(), rel.cone.resolution())
    return FiberCone.from_directions(np.asarray(out, dtype=float), d3, res)


def reference_compose(r1, r2):
    """``compose`` with one row appended per member, pair and step, as it was."""
    d1, d2, d3 = r1.left_dim, r1.right_dim, r2.right_dim
    A = cones.member_directions(r1.cone)
    B = cones.member_directions(r2.cone)
    res = max(r1.cone.resolution(), r2.cone.resolution())
    out_dim = d1 + d3
    out = []
    thr = math.sin(max(res, 1e-9))
    if len(A):
        a1, a2 = A[:, :d1], A[:, d1:]
        na2 = np.linalg.norm(a2, axis=1)
        avert = na2 <= thr
        for v in a1[avert]:
            if np.linalg.norm(v) > thr:
                out.append(np.concatenate([v / np.linalg.norm(v), np.zeros(d3)]))
    if len(B):
        b2, b3 = B[:, :d2], B[:, d2:]
        nb2 = np.linalg.norm(b2, axis=1)
        bvert = nb2 <= thr
        for v in b3[bvert]:
            if np.linalg.norm(v) > thr:
                out.append(np.concatenate([np.zeros(d1), v / np.linalg.norm(v)]))
    if len(A) and len(B):
        ai = np.where(~avert)[0]
        bi = np.where(~bvert)[0]
        if len(ai) and len(bi):
            ma = a2[ai] / na2[ai, None]
            mb = b2[bi] / nb2[bi, None]
            ii, jj = np.where(ma @ mb.T >= math.cos(max(2.0 * res, 1e-9)))
            if len(ii):
                left = a1[ai[ii]] / na2[ai[ii], None]
                right = b3[bi[jj]] / nb2[bi[jj], None]
                out.extend(np.hstack([left, right]))
        av = np.where(avert)[0]
        bv = np.where(bvert)[0]
        if len(av) * len(bv) > 4096:
            av = av[:: max(1, len(av) // 64)]
            bv = bv[:: max(1, len(bv) // 64)]
        if len(av) and len(bv):
            steps = np.linspace(0.0, np.pi / 2.0, max(2, int(np.pi / 2.0 / max(res, 1e-3))))
            for i in av:
                u = a1[i]
                nu = np.linalg.norm(u)
                if nu <= thr:
                    continue
                for j in bv:
                    w = b3[j]
                    nw = np.linalg.norm(w)
                    if nw <= thr:
                        continue
                    for s in steps:
                        out.append(np.concatenate([math.cos(s) * u / nu,
                                                   math.sin(s) * w / nw]))
    dirs = cones._dedupe_rays(np.asarray(out, dtype=float).reshape(-1, out_dim))
    return cones.ConicRelation(d1, d3, FiberCone(out_dim, cones.Sampled(dirs, res)))


def verify_triples(seed):
    """The relation triples of verify's compose-associativity property."""
    rng = np.random.default_rng(sampling.child_seed(seed, 107))
    for _ in range(20):
        maps = [verify._random_linear_map(rng) for _ in range(3)]
        yield [verify._sampled_graph_relation(L) for L in maps]


class TestComposeEqualsMemberLoop:
    """``compose`` gives the rows of ``reference_compose``, bit for bit."""

    @staticmethod
    def same(r1, r2):
        got, want = cones.compose(r1, r2), reference_compose(r1, r2)
        assert got.cone.rep.directions.shape == want.cone.rep.directions.shape
        assert got.cone.rep.directions.tobytes() == want.cone.rep.directions.tobytes()
        assert got.cone.rep.resolution == want.cone.rep.resolution
        return got

    @pytest.mark.parametrize("seed", range(5))
    def test_verify_triples_in_both_orders(self, seed):
        for r1, r2, r3 in verify_triples(seed):
            self.same(self.same(r1, r2), r3)
            self.same(r1, self.same(r2, r3))

    def test_zero_middle_and_zero_cones(self):
        r1, r2 = zero_middle_relations(sampling.grid_resolution(2))
        zero = cones.ConicRelation(2, 2, FiberCone.zero(4))
        for a, b in [(r1, r2), (r2, r1), (zero, r2), (r1, zero), (zero, zero)]:
            self.same(a, b)

    @pytest.mark.parametrize("inner, outer, x", [
        ("cbrt", "cube", 0.0), ("cube", "cbrt", 0.0), ("cube", "cube", 1.0),
        ("abs", "abs", 0.0)])
    def test_builtin_graph_pairs(self, inner, outer, x):
        f1, f2 = funcs.builtin(inner), funcs.builtin(outer)
        # the graph Whitney cones that chain_rule_check composes
        lad = dini.ScaleLadder(seed=0)
        y = f1(np.array([[x]]))[0]
        w1 = geometry.graph_whitney(f1, np.array([x]), conormal._resolved_ladder(f1, lad))
        w2 = geometry.graph_whitney(f2, y, conormal._resolved_ladder(f2, lad))
        self.same(cones.ConicRelation(1, 1, w1), cones.ConicRelation(1, 1, w2))

    def test_thinned_quarter_arcs_and_mixed_members(self):
        # over 4096 vertical x vertical pairs, so every other one is kept
        rng = np.random.default_rng(5)
        r1 = cones.ConicRelation(2, 1, FiberCone.from_directions(
            np.vstack([np.column_stack([rng.standard_normal((150, 2)), np.zeros(150)]),
                       rng.standard_normal((60, 3))]), 3, 0.05))
        r2 = cones.ConicRelation(1, 2, FiberCone.from_directions(
            np.vstack([np.column_stack([np.zeros(140), rng.standard_normal((140, 2))]),
                       rng.standard_normal((60, 3))]), 3, 0.05))
        assert len(self.same(r1, r2).cone.rep.directions) > 4096

    def test_quarter_arcs_at_fine_resolution(self):
        # vanishing middles on both sides: 8 x 9 quarter arcs of 1570 steps
        r1, r2 = zero_middle_relations(1e-9, width=0.05)
        self.same(r1, r2)
        tracemalloc.start()
        try:
            got = cones.compose(r1, r2).cone.rep.directions
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) > 100_000
        # one array object per row took 10.7 times the composite
        assert peak < 8 * got.nbytes


def reference_contains(cone, v, tol):
    """``contains`` on one vector by its own normalization and test."""
    n = np.linalg.norm(v)
    if n < 1e-14:
        return True
    v = v / n
    rep = cone.rep
    if isinstance(rep, cones.Arcs2D):
        return cones.arcs_contains(rep.arcs, math.atan2(v[1], v[0]), tol=tol)
    if isinstance(rep, cones.Trivial):
        return rep.full
    if len(rep.directions) == 0:
        return False
    return bool(sampling.min_angle_to_set(v[None, :], rep.directions)[0] <= tol)


def membership_cones(dim):
    """One cone of each representation in the given dimension."""
    H = np.random.default_rng(dim).standard_normal((2, dim))
    grid = sampling.unit_grid(dim)
    out = [FiberCone.from_directions(random_sampled_cone(dim, 3, count=300,
                                                         spread=0.6), dim),
           FiberCone.from_directions(np.zeros((0, dim)), dim),
           # the intersection of two halfspaces, sampled on the grid
           FiberCone.from_directions(grid[(grid @ H.T >= 0.0).all(axis=1)], dim),
           FiberCone.zero(dim), FiberCone.full(dim)]
    if dim == 2:
        out.append(FiberCone.from_arcs([(0.3, 1.4), (3.0, 3.5)]))
    return out


class TestBatchedMembership:
    """Row batches answer as one ``contains`` call per row would."""

    @given(st.integers(1, 5).flatmap(lambda d: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-200, 0.6, -0.8, 3.0,
                                  1e150, -7e-9]) | st.floats(-1e3, 1e3),
                 min_size=d, max_size=d), min_size=0, max_size=40)))
    @settings(max_examples=300, deadline=None)
    def test_row_norms_equal_single_norms(self, rows):
        A = np.array(rows, dtype=float).reshape(len(rows), -1) if rows else np.zeros((0, 3))
        want = np.array([np.linalg.norm(a) for a in A], dtype=float)
        assert cones._row_norms(A).tobytes() == want.tobytes()
        # column slices, as the relations take them
        if A.shape[1] > 1:
            B = A[:, 1:]
            want = np.array([np.linalg.norm(b) for b in B], dtype=float)
            assert cones._row_norms(B).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("tol", [1e-9, 0.05, 0.4])
    def test_contains_rows_equal_contains(self, dim, tol):
        rng = np.random.default_rng(7)
        U = rng.standard_normal((500, dim)) * rng.choice([1e-16, 1e-3, 1.0, 50.0],
                                                         size=(500, 1))
        U[:3] = 0.0
        for cone in membership_cones(dim):
            # rows at exactly the cone's members as well
            V = U.copy()
            if isinstance(cone.rep, cones.Sampled) and len(cone.rep.directions):
                V[3:13] = 2.0 * cone.rep.directions[:10]
            want = [reference_contains(cone, v, tol) for v in V]
            assert [cones.contains(cone, v, tol=tol) for v in V] == want
            got = cones._contains_rows(cone, V, cones._row_norms(V), tol)
            assert got.dtype == bool and got.tolist() == want

    @pytest.mark.parametrize("L", [[[1.0, 0.5], [0.0, 1.0]],
                                   [[0.0, 0.0], [1.0, -1.0]],
                                   [[2.0, 0.0], [0.0, 0.0]]])
    @pytest.mark.parametrize("tol", [None, 1e-9, 0.02])
    def test_apply_relation_equals_member_loop(self, L, tol):
        rel = sampled_graph(L)
        for cone in membership_cones(2):
            got = cones.apply_relation(cone, rel, tol=tol)
            want = reference_apply_relation(cone, rel, tol=tol)
            assert got.rep.directions.tobytes() == want.rep.directions.tobytes()
            assert got.rep.resolution == want.rep.resolution
