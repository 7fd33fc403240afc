"""Point-cloud and graph cone estimators against known geometric fixtures."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conecalc import cones, conormal, dini, funcs, geometry, sampling
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

    def test_quantile_equals_numpy(self):
        # cloud_ladder's 0.9 quantile of the gaps, bit for bit, with and
        # without ties
        rng = np.random.default_rng(13)
        for n in [*range(1, 201), 6666]:
            for a in (rng.uniform(0.0, 0.1, n),
                      rng.choice(rng.uniform(0.0, 0.1, max(1, n // 4)), n)):
                want = np.quantile(a, 0.9)
                got = geometry._quantile(a.copy(), 0.9)
                assert np.float64(got).tobytes() == want.tobytes(), n


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


def reference_pair_directions(A, B, seed):
    """The pair directions as first written: row-major chords, scaled by
    ``np.linalg.norm``."""
    na, nb = len(A), len(B)
    if na * nb <= geometry.PAIR_BUDGET:
        d = B[None, :, :] - A[:, None, :]
        d = d.reshape(-1, A.shape[1])
    else:
        rng = np.random.default_rng(seed)
        ia = rng.integers(0, na, geometry.PAIR_BUDGET)
        ib = rng.integers(0, nb, geometry.PAIR_BUDGET)
        d = B[ib] - A[ia]
        _, idx = sampling.CellIndex(B).nearest(A, min(4, nb))
        nn = (B[idx] - A[:, None, :]).reshape(-1, A.shape[1])
        d = np.vstack([d, nn])
    nrm = np.linalg.norm(d, axis=1)
    return d[nrm > 0] / nrm[nrm > 0][:, None]


class TestPairDirections:
    """Column by column, the chords keep the row-major code's bits."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 9])
    @pytest.mark.parametrize("na,nb", [(300, 600), (40, 7), (1, 1), (800, 400),
                                       (70_000, 3)])
    def test_equals_the_row_major_chords(self, dim, na, nb):
        # points on a coarse lattice repeat, so some chords are zero; B
        # shares rows with A, as a cloud paired with itself does
        rng = np.random.default_rng(dim * na + nb)
        A = rng.integers(-6, 7, (na, dim)) * 0.125 + rng.uniform(-1e-3, 1e-3, (na, dim)) * (
            rng.random((na, 1)) < 0.5)
        B = np.vstack([A[: nb // 2], rng.integers(-6, 7, (nb - nb // 2, dim)) * 0.125])
        got = geometry._pair_directions(A, B, 77)
        want = reference_pair_directions(A, B, 77)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if nb >= 2 and na * nb <= geometry.PAIR_BUDGET:
            assert len(got) < na * nb

    def test_a_cloud_with_itself(self):
        # the whitney_cone call: every a - a chord is zero and dropped
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (420, 3))
        for A in (pts, pts[:100]):
            got = geometry._pair_directions(A, A, 5)
            assert got.tobytes() == reference_pair_directions(A, A, 5).tobytes()


class TestKeyOrder:
    """Packed-word sorts group keys as a stable argsort does."""

    @pytest.mark.parametrize("high", [False, True])
    def test_equals_stable_argsort(self, high):
        # keys near 2^62 leave room for the index of at most two keys, so
        # longer ones go to the stable argsort fallback
        rng = np.random.default_rng(14)
        for n in (1, 2, 7, 1000, 70_000):
            keys = rng.integers(0, max(1, n // 5), n)
            if high:
                keys += (1 << 62) - n
            order, ordered = sampling._key_order(keys)
            want = np.argsort(keys, kind="stable")
            assert np.array_equal(order, want) and np.array_equal(ordered, keys[want])

    def test_runs_of_equal_keys(self):
        rng = np.random.default_rng(15)
        for n in (0, 1, 2, 1000):
            keys = rng.integers(0, max(1, n // 5), n)
            order, distinct, starts = sampling._key_runs(keys)
            assert np.array_equal(order, np.argsort(keys, kind="stable"))
            assert np.array_equal(distinct, np.unique(keys))
            assert starts[0] == 0 and starts[-1] == n
            assert np.array_equal(np.diff(starts), np.bincount(keys)[distinct])

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_fallback_grouping_keeps_the_rows(self, monkeypatch, dim):
        # persistence grouped through the fallback, forced by keys lifted
        # just below 2^62, keeps the same rows as through packed words
        sets = overlapping_sets(dim, 0)
        tol = 2.0 * sampling.grid_resolution(dim)
        want = geometry._persistent_directions(sets, tol)
        key_order = sampling._key_order
        lifted = []

        def high(keys):
            order, _ = key_order(keys + ((1 << 62) - 1 - int(keys.max())))
            lifted.append(len(keys))
            return order, keys[order]

        monkeypatch.setattr(sampling, "_key_order", high)
        assert geometry._persistent_directions(sets, tol).tobytes() == want.tobytes()
        assert sum(len(s) for s in sets) in lifted


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


def reference_eager_persistence(dir_sets, tol):
    """The persistence filter before candidates: every member is asked of
    every other set through ``sampling.min_angle_to_set``, then the first
    passing member of each voxel stays."""
    members = np.vstack(dir_sets, dtype=float)
    if not all(len(s) for s in dir_sets):
        return members[:0]
    own = np.repeat(np.arange(len(dir_sets)), [len(s) for s in dir_sets])
    keys = sampling.voxel_keys([members], 0.25 * tol / math.sqrt(members.shape[1]))
    if keys is None:
        _, first = np.unique(members, axis=0, return_index=True)
        first.sort()
        members, own, keys = members[first], own[first], [first]
    keep = np.ones(len(members), dtype=bool)
    for j, s in enumerate(dir_sets):
        ask = keep & (own != j)
        if ask.any():
            keep[ask] = sampling.min_angle_to_set(members[ask], s) <= tol
        if not keep.any():
            return members[:0]
    _, first = np.unique(keys[0][keep], return_index=True)
    return members[keep][np.sort(first)]


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


def voxel_side(tol, dim):
    return 0.25 * tol / math.sqrt(dim)


def check_rule(sets, tol):
    """The persistence rule's output, checked against its definition and,
    bit for bit, against the eager filter."""
    got = geometry._persistent_directions(sets, tol)
    assert got.tobytes() == reference_eager_persistence(sets, tol).tobytes()
    members = np.vstack(sets)
    assert got.shape[1:] == members.shape[1:]
    # every output row is an input member, bit for bit
    rows = {r.tobytes() for r in members}
    assert all(r.tobytes() in rows for r in got)
    # each output row passes every set
    for s in sets:
        assert np.all(sampling.min_angle_to_set(got, s) <= tol)
    # every passing member lies within one voxel diameter of an output row
    own = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    passing = np.ones(len(members), dtype=bool)
    for j, s in enumerate(sets):
        passing[own != j] &= sampling.min_angle_to_set(members[own != j], s) <= tol
    assert passing.any() == bool(len(got))
    side = voxel_side(tol, members.shape[1])
    if passing.any() and side > 0:
        gap, _ = cKDTree(got).query(members[passing])
        assert gap.max() <= side * math.sqrt(members.shape[1]) * (1 + 1e-9)
    # no two output rows share a voxel, on the grid the rule anchors at
    # the members' minimum
    keys = sampling.voxel_keys([members, got], side)
    if keys is not None:
        assert len(np.unique(keys[1])) == len(got)
    return got


class TestPersistentDirections:
    """Exact decisions on the raw members, then one member per voxel of
    diameter tol/4, the first in member order."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_overlapping_sets(self, dim, seed):
        # against the filter as first written, which kept every 4-decimal
        # candidate: each side lies within a voxel diameter plus rounding
        # of the other, apart from the few rows whose angle to some set is
        # within rounding of tol, which rounding may decide either way
        tol = 2.0 * sampling.grid_resolution(dim)
        sets = overlapping_sets(dim, seed)
        got = check_rule(sets, tol)
        want = reference_persistent_directions(sets, tol)
        assert 0 < len(got) <= len(want) < 4500
        rounding = 2e-4 * math.sqrt(dim)
        diameter = voxel_side(tol, dim) * math.sqrt(dim)

        def borderline(rows):
            worst = np.max([sampling.min_angle_to_set(rows, s) for s in sets], axis=0)
            return worst >= tol - rounding

        for rows, other, reach in ((got, want, rounding),
                                   (want, got, diameter + rounding)):
            far = sampling.min_angle_to_set(rows, other) > 2.0 * math.asin(0.5 * reach)
            assert np.all(borderline(rows[far]))
            assert far.sum() <= 0.01 * len(rows)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_empty_set_empties_the_result(self, dim):
        sets = overlapping_sets(dim, 2)
        sets.insert(1, np.zeros((0, dim)))
        got = geometry._persistent_directions(sets, 2.0 * sampling.grid_resolution(dim))
        assert got.shape == (0, dim)

    def test_all_sets_empty(self):
        got = geometry._persistent_directions([np.zeros((0, 3))] * 3, 0.1)
        assert got.shape == (0, 3)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_set_that_kills_every_candidate(self, dim):
        rng = np.random.default_rng(3)
        sets = overlapping_sets(dim, 3)
        sets.insert(1, cap(dim, -np.eye(dim)[0], 0.05, 400, rng))
        tol = 2.0 * sampling.grid_resolution(dim)
        got = geometry._persistent_directions(sets, tol)
        assert got.shape == (0, dim)
        assert got.tobytes() == reference_eager_persistence(sets, tol).tobytes()

    def test_zeros_of_both_signs(self):
        # each row has a twin that differs only in the sign of a zero;
        # twins share a voxel, and the first in member order stays
        rng = np.random.default_rng(4)
        base = cap(3, [0.6, 0.8, 0.0], 0.01, 300, rng)
        base[:, 2] = 0.0
        twin = base * [1.0, 1.0, -1.0]
        for sets in ([base, twin, twin], [twin, base, base]):
            got = check_rule(sets, 2.0 * sampling.grid_resolution(3))
            assert len(got)
            assert np.array_equal(np.signbit(got[:, 2]),
                                  np.full(len(got), np.signbit(sets[0][0, 2])))

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_zero_twins_on_the_packed_key(self, dim, column):
        # twins differing in the sign of a zero in one column, mixed with
        # exact duplicates: each voxel keeps the first of its rows, so the
        # output is the same whichever twin a later set lists first
        rng = np.random.default_rng(10 + column)
        center = np.ones(dim)
        center[column] = 0.0
        base = cap(dim, center, 0.05, 400, rng)
        base[:, column] = 0.0
        twin = base.copy()
        twin[:, column] *= -1.0
        tol = 2.0 * sampling.grid_resolution(dim)
        head = np.vstack([base, twin[::3]])
        sets = [head, np.vstack([twin, base[::2]]), np.vstack([base, twin, base])[::-1]]
        assert sampling.voxel_keys([np.vstack(sets)], voxel_side(tol, dim)) is not None
        got = check_rule(sets, tol)
        flipped = [head, np.vstack([base[::2], twin]), np.vstack([twin, base])]
        assert geometry._persistent_directions(flipped, tol).tobytes() == got.tobytes()
        assert not np.signbit(got[:, column]).any()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 2.0 ** 28])
    def test_no_packed_key_for_huge_or_non_finite_rows(self, bad):
        # the voxel key would overflow int64, so persistence merges only
        # equal rows
        rows = np.zeros((3, 2))
        rows[1, 1] = bad
        assert sampling.voxel_keys([rows], 0.01) is None

    def test_packed_key_orders_as_lexsort(self):
        # keys order rows as a lexsort of their voxel indices, and are
        # equal exactly when the voxel indices are
        rng = np.random.default_rng(8)
        rows = rng.uniform(-1.0, 1.0, (5000, 3))
        side = 0.07
        (key,) = sampling.voxel_keys([rows], side)
        cells = np.floor((rows - rows.min(axis=0)) / side)
        _, by_key = np.unique(key, return_inverse=True)
        _, by_cells = np.unique(cells, axis=0, return_inverse=True)
        assert np.array_equal(by_key, by_cells)

    def test_non_unit_members_query_every_set(self):
        sets = [3.0 * s for s in overlapping_sets(3, 5)]
        assert len(check_rule(sets, 2.0 * sampling.grid_resolution(3)))

    def test_tolerance_below_rounding_queries_every_set(self):
        # 1e-5 still keys voxels; 0 leaves them unkeyable, so equal rows
        # merge and only rows shared by every set survive
        sets = overlapping_sets(3, 6)
        check_rule(sets, 1e-5)
        got = check_rule(sets, 0.0)
        shared = set.intersection(*({r.tobytes() for r in s} for s in sets))
        assert sorted(r.tobytes() for r in got) == sorted(shared)

    def test_one_dimensional_members(self):
        # tol = 0 (grid_resolution(1) = 0): equal rows merge, the first stays
        sets = [np.array([[1.0], [-1.0], [1.0]]), np.array([[-1.0], [1.0]]),
                np.array([[1.0], [1.0], [-1.0]])]
        got = check_rule(sets, 0.0)
        assert got.tolist() == [[1.0], [-1.0]]
        assert geometry._persistent_directions(sets[:2] + [np.array([[1.0]])],
                                               0.0).tolist() == [[1.0]]

    def test_later_member_of_a_failing_voxel_stays(self, monkeypatch):
        # a voxel's first member a1 lies just beyond tol of the third set's
        # ray c, the voxel's later member a2 just inside: the retry batch
        # keeps a2.  The rays point away from the bulk rows.
        tol = 2.0 * sampling.grid_resolution(2)
        th, dt = math.pi + 0.3, tol / 100.0
        ray = lambda a: np.array([[math.cos(a), math.sin(a)]])
        bulk = overlapping_sets(2, 7)
        sets = [np.vstack([ray(th), bulk[0]]), np.vstack([bulk[1], ray(th + dt)]),
                np.vstack([bulk[2], ray(th + tol + 0.5 * dt)])]
        a2 = len(sets[0]) + len(bulk[1])
        (keys,) = sampling.voxel_keys([np.vstack(sets)], voxel_side(tol, 2))
        assert keys[0] == keys[a2]
        batches = []
        decide = geometry._near_every_other

        def recorded(sets, starts, cubes, idx, tol, trees):
            out = decide(sets, starts, cubes, idx, tol, trees)
            batches.append((idx[~out].tolist(), idx[out].tolist()))
            return out

        monkeypatch.setattr(geometry, "_near_every_other", recorded)
        got = {r.tobytes() for r in check_rule(sets, tol)}
        assert len(batches) == 2
        assert 0 in batches[0][0] and a2 in batches[1][1]
        assert ray(th + dt).tobytes() in got and ray(th).tobytes() not in got

    def test_whitney_cone_of_a_wedge_cloud(self, monkeypatch):
        # the sets a real 3-D Whitney cone filters, against the eager filter
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1.0, 1.0, (24000, 3))
        pts = pts[(np.linalg.norm(pts, axis=1) <= 1.0) & (pts[:, 2] >= np.abs(pts[:, 0]))]
        cloud = geometry.PointCloud(np.vstack([np.zeros((1, 3)), pts[:4999]]))
        seen = []
        persist = geometry._persistent_directions

        def recorded(sets, tol):
            seen.append((sets, tol, persist(sets, tol)))
            return seen[-1][2]

        monkeypatch.setattr(geometry, "_persistent_directions", recorded)
        w = geometry.whitney_cone(cloud, cloud, [0.0, 0.0, 0.0],
                                  geometry.cloud_ladder(cloud, [0.0, 0.0, 0.0], seed=3))
        (sets, tol, got), = seen
        assert len(got) > 1000 and len(cones.member_directions(w)) == len(got)
        assert got.tobytes() == reference_eager_persistence(sets, tol).tobytes()


class TestPersistenceCounts:
    """Candidates decided and neighbour indexes built are counted, not
    timed: a regression in how much persistence asks shows on any host."""

    def counting(self, monkeypatch):
        log = {"rows": [], "trees": 0}
        decide = geometry._near_every_other

        def counted_decide(sets, starts, cubes, idx, tol, indexes):
            log["rows"].append(len(idx))
            return decide(sets, starts, cubes, idx, tol, indexes)

        class CountedIndex(sampling.CellIndex):
            def __init__(self, members):
                log["trees"] += 1
                super().__init__(members)

        monkeypatch.setattr(geometry, "_near_every_other", counted_decide)
        monkeypatch.setattr(sampling, "CellIndex", CountedIndex)
        return log

    @pytest.mark.parametrize("dim,rows", [(2, [857, 16]), (3, [4233, 48]),
                                          (4, [4491, 71])])
    def test_overlapping_sets(self, monkeypatch, dim, rows):
        # of the 4950 members, the candidates, then the later members of
        # the voxels whose candidate failed; one index per set for both
        log = self.counting(monkeypatch)
        geometry._persistent_directions(overlapping_sets(dim, 0),
                                        2.0 * sampling.grid_resolution(dim))
        assert (log["rows"], log["trees"]) == (rows, 3)

    def test_no_tree_when_no_row_is_open(self, monkeypatch):
        # every set holds every candidate's own row, so the cube stage
        # decides all of them
        log = self.counting(monkeypatch)
        s = cap(3, [0.0, 0.0, 1.0], 0.2, 3000, np.random.default_rng(9))
        got = geometry._persistent_directions([s, s[::-1], s], 2.0 * sampling.grid_resolution(3))
        assert len(got) == log["rows"][0] and log["trees"] == 0


class TestThinSets:
    """Thinned persistence still gives the expected cones of thin sets."""

    def test_two_rays(self):
        u, v = np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])
        t = np.linspace(0.0, 1.0, 3001)[1:, None]
        c = geometry.PointCloud(np.vstack([np.zeros((1, 3)), t * u, t * v]))
        lad = geometry.cloud_ladder(c, [0.0, 0.0, 0.0])
        rho3 = sampling.grid_resolution(3)
        tangent = geometry.tangent_cone(c, [0.0, 0.0, 0.0], lad)
        assert cones.hausdorff_angle(
            tangent, FiberCone.from_directions(np.array([u, v]), 3)) <= 2 * rho3
        # pairs across the rays fill the plane sectors between v and -u
        # and between -v and u
        w = cones.member_directions(
            geometry.whitney_cone(c, c, [0.0, 0.0, 0.0], lad))
        assert np.all(w[:, 2] == 0.0)
        a = math.atan2(v[1], v[0])
        want = FiberCone.from_arcs([(a, PI), (a + PI, 2 * PI)])
        assert cones.hausdorff_angle(
            FiberCone.from_directions(w[:, :2], 2), want) <= 2 * rho3

    def test_wedge_boundary(self):
        # the surface x3 = |x1|: its tangent cone at the edge is itself
        rng = np.random.default_rng(11)
        p = rng.uniform(-1.0, 1.0, size=(20000, 2))
        c = geometry.PointCloud(np.vstack([
            np.zeros((1, 3)), np.column_stack([p[:, 0], p[:, 1], np.abs(p[:, 0])])]))
        tangent = geometry.tangent_cone(c, [0.0, 0.0, 0.0],
                                        geometry.cloud_ladder(c, [0.0, 0.0, 0.0]))
        d = cones.member_directions(tangent)
        assert np.abs(np.abs(d[:, 0]) - d[:, 2]).max() <= 1e-12
        grid = sampling.unit_grid(3)
        rho3 = sampling.grid_resolution(3)
        on = np.abs(np.abs(grid[:, 0]) - grid[:, 2]) <= 0.1 * rho3
        assert on.sum() > 20
        assert sampling.min_angle_to_set(grid[on], d).max() <= rho3

    def test_labeled_plane_cloud(self):
        # A = {x2 <= 0} of a square, B the rest, at the origin on the edge
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.0, 1.0, size=(24000, 2))
        body = geometry.PointCloud(pts[pts[:, 1] <= 0.0])
        comp = geometry.PointCloud(pts[pts[:, 1] > 0.0])
        x = [0.0, 0.0]
        lad = geometry.cloud_ladder(body, x)
        lower = FiberCone.from_arcs([(PI, 2 * PI)])
        tangent = geometry.tangent_cone(body, x, lad)
        assert cones.hausdorff_angle(tangent, lower) <= 3 * RHO
        # the Whitney cone of a solid half-plane is every direction, and
        # its grid cover is one unbroken circle
        whitney = geometry.whitney_cone(body, body, x, lad)
        slack = 0.51 * max(whitney.resolution(), RHO)
        assert np.all(sampling.min_angle_to_set(
            sampling.unit_grid(2), whitney.rep.directions) <= slack)
        strict = geometry.strict_cone(body, comp, x, lad)
        assert cones.hausdorff_angle(strict, lower) <= 0.05


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

    def test_map_chord_cone_is_the_graph_of_the_derivative(self):
        # the exact W of a C^1 map is the graph {(u, Du)} of its derivative
        h = funcs.parse_expr("x1+x2*x2, x1*x2", 2)
        w = geometry.graph_whitney(h, [0.2, -0.1], dini.ScaleLadder(seed=0))
        u = sampling.unit_grid(2)
        exact = FiberCone.from_directions(
            np.hstack([u, u @ np.array([[1.0, -0.2], [-0.1, 0.2]]).T]), 4)
        tol = 2.0 * sampling.grid_resolution(4)
        assert cones.directed_angle(w, exact) <= tol
        assert cones.directed_angle(exact, w) <= tol

    def test_zero_row_puts_the_vertical_in_a_vector_cone(self):
        # sqrt|x1| blows up at 0: the zero row's chords alone persist near
        # the vertical, and so W meets it
        h = funcs.parse_expr("sqrt(abs(x1)), x2", 2)
        sets = []
        dini._scan(h, [0.0, 0.0], np.zeros((1, 2)), LAD, True, sets)
        assert conormal.meets_vertical(geometry._persistent_cone(sets, 4), 2)
        assert conormal.meets_vertical(geometry.graph_whitney(h, [0.0, 0.0], LAD), 2)

    @pytest.mark.parametrize("src,x", [("sin(x1) + x2*x2", [0.3, -0.2]),
                                       ("abs(x1) + x2", [0.0, 0.0]),
                                       ("sin(x1) + x2*x3", [0.3, -0.2, 0.1]),
                                       ("abs(x1) + x2 + x3", [0.0, 0.0, 0.0])])
    def test_half_circle_scan_gives_the_whole_circle(self, src, x):
        # reference: slabs over the whole domain grid (on the circle, every
        # second direction of the fiber's 2-D grid), each -u scanned as a
        # row of its own; a 2-sphere's fans step at the 4-D grid spacing
        m = len(x)
        h = funcs.parse_expr(src, m)
        base = sampling.unit_grid(2)[::2] if m == 2 else dini._direction_grid(m)
        lo, hi, _, _ = dini.slabs(h, x, base, LAD)
        step = sampling.grid_resolution(2 if m == 2 else m + 1)
        want = np.vstack([geometry.fan(u, math.atan(min(a, b)),
                                       math.atan(max(a, b)), step)
                          for u, a, b in zip(base, lo, hi)])
        got = cones.member_directions(geometry.graph_whitney(h, x, LAD))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9

    @pytest.mark.parametrize("m", [2, 3])
    def test_fans_are_linspace_bit_for_bit(self, m):
        # equal ends, signed zeros, a subnormal span, the vertical's +-pi/2
        # and ordinary spans, on grid rows as graph_whitney takes them
        rng = np.random.default_rng(m)
        base = dini._direction_grid(m)[:90]
        a = np.concatenate([[0.0, 0.3, -PI / 2, 0.0, -0.0], rng.uniform(-1.5, 1.5, 85)])
        b = np.concatenate([[0.0, 0.3, PI / 2, 5e-324, 0.0],
                            a[5:] + rng.exponential(0.5, 85)])
        step = sampling.grid_resolution(m if m == 2 else m + 1)
        want = []
        for u, p1, p2 in zip(base, a, b):
            psi = np.linspace(p1, p2, max(2, math.ceil((p2 - p1) / step) + 1))
            want.append(np.column_stack([np.outer(np.cos(psi), u), np.sin(psi)]))
        assert geometry.fan(base, a, b, step).tobytes() == np.vstack(want).tobytes()
        # one row, scalar ends, and no rows at all
        assert geometry.fan(base[7], a[7], b[7], step).tobytes() == want[7].tobytes()
        assert geometry.fan(base[:0], a[:0], PI / 2, step).shape == (0, m + 1)


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

    def test_two_variables_rejected(self):
        h = funcs.parse_expr("x1 + x2", 2)
        with pytest.raises(ValueError):
            geometry.epigraph_strict_cone(h, [0.0, 0.0], LAD)
