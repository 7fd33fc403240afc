"""Core cone algebra against brute-force oracles and algebraic laws."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import qmc

from conecalc import cones, sampling
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
    @settings(max_examples=150, deadline=None)
    def test_polar_oracle(self, arcs):
        got = arc_mask(cones.arcs_polar(arcs))
        # brute force: theta is polar iff cos(theta - phi) >= 0 on the arcs;
        # endpoints are added because arcs can be thinner than the probe step
        ends = [e for lo, hi in arcs for e in (lo, hi)]
        phis = np.concatenate([THETA[arc_mask(arcs)], ends])
        want = (np.cos(THETA[:, None] - phis[None, :]) >= -1e-9).all(axis=1)
        assert masks_equal(got, want, slop_steps=2)

    def test_polar_of_halfplane_is_ray(self):
        out = cones.arcs_polar([(math.pi, TWO_PI)])
        assert masks_equal(arc_mask(out),
                           arc_mask([(1.5 * math.pi, 1.5 * math.pi)]))

    @given(arc_sets())
    @settings(max_examples=100, deadline=None)
    def test_hull_contains_and_convex(self, arcs):
        hull = cones.arcs_convex_hull(arcs)
        assert masks_equal(arc_mask(arcs) | arc_mask(hull), arc_mask(hull))
        again = cones.arcs_convex_hull(hull)
        assert masks_equal(arc_mask(hull), arc_mask(again))

    def test_hull_of_spread_points_is_full(self):
        pts = [(t, t) for t in (0.0, math.pi / 2, math.pi, 1.5 * math.pi)]
        assert cones.arcs_convex_hull(pts) == ((0.0, TWO_PI),)

    def test_hull_of_antipodal_points_is_line(self):
        hull = cones.arcs_convex_hull([(0.0, 0.0), (math.pi, math.pi)])
        assert set(np.round(hull, 9).flatten()) == {0.0, round(math.pi, 9)}

    def test_hausdorff_full_forms_agree(self):
        assert cones.arcs_hausdorff(((0.0, TWO_PI),), ((0.0, TWO_PI),)) == 0.0

    @given(arc_sets(), st.floats(0.0, TWO_PI))
    @settings(max_examples=100, deadline=None)
    def test_point_distance_zero_iff_member(self, arcs, theta):
        arcs = cones.arcs_normalize(arcs)
        d = cones.arcs_point_distance(arcs, theta)
        assert (d <= 1e-9) == cones.arcs_contains(arcs, theta, tol=1e-9)


class TestPolyhedral:
    def test_dual_rays_quadrant(self):
        # halfspaces x>=0, y>=0 generate the nonnegative quadrant
        G = cones.dual_rays(np.eye(2), 2)
        want = {(1.0, 0.0), (0.0, 1.0)}
        got = {tuple(np.round(g / np.linalg.norm(g), 9)) for g in G}
        assert got == want

    def test_polar_swaps_descriptions(self):
        c = FiberCone.from_generators([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 3)
        p = cones.polar(c)
        H = cones.halfspaces_of(p)
        G = cones.generators_of(c)
        assert np.all(G @ H.T >= -1e-9)

    def test_bipolar_roundtrip_fixed(self):
        gens = np.array([[1.0, 2.0, 0.5], [-1.0, 1.0, 1.0], [0.3, -0.2, 2.0]])
        c = FiberCone.from_generators(gens, 3)
        cc = cones.polar(cones.polar(c))
        H = cones.halfspaces_of(cc)
        assert np.all(gens @ H.T >= -1e-8)
        H0 = cones.halfspaces_of(c)
        G2 = cones.generators_of(cc)
        assert np.all(G2 @ H0.T >= -1e-8)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bipolar_random(self, seed):
        rng = np.random.default_rng(seed)
        gens = rng.standard_normal((int(rng.integers(2, 6)), 3))
        c = FiberCone.from_generators(gens, 3)
        cc = cones.polar(cones.polar(c))
        for a, b in ((c, cc), (cc, c)):
            G = cones.generators_of(a)
            H = cones.halfspaces_of(b)
            if len(G) and len(H):
                Gn = G / np.linalg.norm(G, axis=1, keepdims=True)
                Hn = H / np.linalg.norm(H, axis=1, keepdims=True)
                assert (Gn @ Hn.T).min() >= -1e-9

    def test_full_and_zero(self):
        full = FiberCone.full(3)
        zero = FiberCone.zero(3)
        assert not full.is_zero() and zero.is_zero()
        assert cones.polar(full).is_zero()
        g = cones.generators_of(cones.polar(zero))
        assert len(g) >= 6  # polar of zero is everything


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


def at_threshold(g, slack, rng):
    """A unit member v with <g, v> = -sin(slack) in exact arithmetic."""
    w = rng.standard_normal(len(g))
    w -= (w @ g) * g
    w /= np.linalg.norm(w)
    return math.cos(math.pi / 2 + slack) * g + math.sin(math.pi / 2 + slack) * w


class TestSampledPolar:
    """The KD-tree polar of a sampled cone keeps the brute-force mask."""

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
        rng = np.random.default_rng(dim)
        res = sampling.grid_resolution(dim)
        slack = 0.5 * res
        grid = sampling.unit_grid(dim)
        base = random_sampled_cone(dim, 100 + dim, spread=0.2)
        inside = np.flatnonzero(dense_polar_mask(grid, base, -math.sin(slack)))
        assert len(inside) > 20
        picks = grid[rng.choice(inside, 20, replace=False)]
        ties = np.array([at_threshold(g, slack, rng) for g in picks])
        dirs = np.vstack([base, ties])
        got = cones.polar(FiberCone(dim, cones.Sampled(dirs, res)), slack=slack)
        want = grid[dense_polar_mask(grid, dirs, -math.sin(slack))]
        assert np.array_equal(got.rep.directions, want)

    def test_non_unit_members_use_the_dense_product(self):
        dirs = 2.0 * random_sampled_cone(3, 7)
        grid = sampling.unit_grid(3)
        got = cones.polar(FiberCone(3, cones.Sampled(dirs, 0.01)), slack=0.01)
        want = grid[dense_polar_mask(grid, dirs, -math.sin(0.01))]
        assert np.array_equal(got.rep.directions, want)


class TestSharedGrids:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_cached_grid_is_read_only(self, dim):
        grid = sampling.unit_grid(dim)
        with pytest.raises(ValueError):
            grid[0, 0] = 5.0
        assert sampling.unit_grid(dim)[0, 0] != 5.0

    @pytest.mark.parametrize("count", [1, 3, 36, 100])
    def test_sobol_draws_warn_nothing_and_keep_their_points(self, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sphere = sampling.sphere_points(3, count, 7)
            sampling.ball_points(3, count, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = qmc.Sobol(d=3, scramble=True, seed=7).random(count)
        assert sampling._sobol(3, count, 7).tobytes() == u.tobytes()
        g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        want = g / np.linalg.norm(g, axis=1, keepdims=True)
        assert sphere.tobytes() == want.tobytes()


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
        q = FiberCone.from_halfspaces(np.eye(2), 2)
        assert cones.contains(q, [1.0, 1.0])
        assert not cones.contains(q, [-1.0, 0.2])

    def test_contains_arcs(self):
        c = FiberCone.from_arcs([(0.0, math.pi / 2)])
        assert cones.contains(c, [1.0, 1.0])
        assert not cones.contains(c, [-1.0, -1.0])

    def test_contains_line_detects_subspace(self):
        line = FiberCone.from_generators([[1.0, 0.0], [-1.0, 0.0]], 2)
        ray = FiberCone.from_generators([[1.0, 0.0]], 2)
        assert cones.contains_line(line)
        assert not cones.contains_line(ray)

    def test_symmetry_check(self):
        sym = FiberCone.from_arcs([(0.0, 0.5), (math.pi, math.pi + 0.5)])
        asym = FiberCone.from_arcs([(0.0, 0.5)])
        assert cones.is_symmetric(sym)
        assert not cones.is_symmetric(asym)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cones.intersect(FiberCone.full(2), FiberCone.full(3))


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


class TestRelations:
    def test_identity_relation_acts_trivially(self):
        rel = cones.identity_relation(2)
        c = FiberCone.from_arcs([(0.1, 0.4)])
        out = cones.apply_relation(c, rel)
        assert cones.hausdorff_angle(out, c) <= 1e-6

    def test_full_input_through_rotation_graph(self):
        rel = cones.graph_relation(np.array([[0.0, -1.0], [1.0, 0.0]]))
        out = cones.apply_relation(FiberCone.full(2), rel)
        assert cones.hausdorff_angle(out, FiberCone.full(2)) <= 1e-9

    def test_graph_relation_transports_wedge_exactly(self):
        L = np.array([[0.0, -1.0], [1.0, 0.0]])  # quarter rotation
        rel = cones.graph_relation(L)
        wedge = FiberCone.from_generators(
            [[1.0, 0.0], [math.cos(0.2), math.sin(0.2)]], 2)
        out = cones.apply_relation(wedge, rel)
        want = FiberCone.from_arcs([(0.5 * math.pi, 0.5 * math.pi + 0.2)])
        assert cones.hausdorff_angle(out, want) <= 1e-6

    def test_compose_polyhedral_graphs_exact(self):
        comp = cones.compose(cones.graph_relation([[2.0]]),
                             cones.graph_relation([[3.0]]))
        assert cones.contains(comp.cone, [1.0, 6.0])
        assert not cones.contains(comp.cone, [1.0, 5.0])

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
        left = cones.as_sampled(FiberCone.from_arcs([(0.0, 0.3)]))
        right = cones.as_sampled(FiberCone.from_arcs([(1.0, 1.3)]))
        r1 = cones.relation_from_cone_pair(left, FiberCone.zero(2))
        r2 = cones.relation_from_cone_pair(FiberCone.zero(2), right)
        comp = cones.compose(r1, r2)
        md = cones.member_directions(comp.cone)
        assert len(md) > 0
