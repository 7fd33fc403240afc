"""Cone estimation from point clouds and function graphs.

Three estimators work on sampled sets: ``tangent_cone`` (directions of
single points approaching x), ``whitney_cone`` (directions of point
pairs collapsing at x), and ``strict_cone`` (complement of the Whitney
cone of the set against its complement).  They share one persistence
rule: a direction counts only if it recurs, within twice the grid
resolution rho, at each of the three deepest populated scales; of the
sampled directions that do, one per voxel of diameter rho/2 is kept, so
a cone has about as many members as its resolution can tell apart.  The
rule keys each sampled direction to its voxel once and decides only the
first direction of each voxel, and a later one only where the first
fails.

For the graph of a scalar function the Whitney cone has an exact
description through moving-base quotient slabs, used here over every
domain: one slab scan of a grid of domain directions gives a fan of
graph directions over each, and the same pass reads the point's
fixed-base Dini limits where they are asked for (``whitney_and_bounds``).
A vector map's Whitney cone keeps the graph chords of one moving-base
scan of that grid (``dini.chords``) that persist.

All cones returned are closed numerical approximations; strict cones
are open in exact theory and come back as the sampled complement of a
dilated Whitney estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dini, sampling
from .cones import FiberCone, linear_image, member_directions
from .errors import EmptyShellError

PAIR_BUDGET = 200_000
SHELL_COUNT = 40


@dataclass
class PointCloud:
    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError("a point cloud needs at least one point")
        if self.labels is not None and len(self.labels) != len(self.points):
            raise ValueError("label count must match point count")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def subset(self, label: str) -> "PointCloud":
        if self.labels is None:
            raise ValueError("cloud carries no labels")
        return PointCloud(self.points[self.labels == label])


def cloud_from_csv(path: str) -> PointCloud:
    from .funcs import read_csv_columns

    points, labels = read_csv_columns(path)
    return PointCloud(points, labels)


def cloud_ladder(cloud: PointCloud, x, seed: int = 0) -> dini.ScaleLadder:
    """Scale ladder adapted to the sampling density of the cloud at x.

    The deepest scale grows from the SHELL_COUNT-th nearest sample until
    the directions seen there are dense at the persistence tolerance
    (2 rho nearest-neighbour gaps), so thin sets keep small shells while
    solid sets get enough points per shell to survive persistence.
    """
    x = np.asarray(x, dtype=float).reshape(cloud.dim)
    diffs = cloud.points - x
    dists = np.linalg.norm(diffs, axis=1)
    order = np.argsort(dists)
    order = order[dists[order] > 1e-12]
    if len(order) < 2 * SHELL_COUNT:
        t0 = float(dists[order[-1]]) if len(order) else 0.5
        return dini.ScaleLadder(t0=max(t0, 1e-6), ratio=0.5,
                                k_min=0, k_max=2, seed=seed)
    rho = sampling.grid_resolution(cloud.dim)
    k = SHELL_COUNT
    cap = max(SHELL_COUNT, len(order) // 3)
    while True:
        sel = order[:min(k, len(order))]
        dirs = diffs[sel] / dists[sel][:, None]
        chord, _ = sampling.CellIndex(dirs).nearest(dirs, 2)
        gaps = 2.0 * np.arcsin(np.clip(chord[:, 1] / 2.0, 0.0, 1.0))
        if float(_quantile(gaps, 0.9)) <= 2.0 * rho or k >= cap:
            break
        k *= 2
    t0 = float(dists[order[-1]])
    r_deep = float(dists[sel[-1]])
    k_max = int(math.floor(math.log(max(r_deep, 1e-9) / t0, 0.5)))
    return dini.ScaleLadder(t0=t0, ratio=0.5, k_min=0,
                            k_max=max(2, min(12, k_max)), seed=seed)


def _quantile(a: np.ndarray, q: float) -> float:
    """``np.quantile(a, q)`` of a non-empty 1-D array of finite values, bit
    for bit: its linear interpolation between the two order statistics
    around (n - 1) q, without the ``np.unique`` that loads numpy.ma."""
    n = len(a)
    if n == 1:
        return a[0]
    at = (n - 1) * q
    i = math.floor(at)
    lo, hi = np.partition(a, [i, i + 1])[[i, i + 1]]
    t = at - i
    diff = hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t


def _persistent_directions(dir_sets: list[np.ndarray], tol: float) -> np.ndarray:
    """Members of the sets that lie within tol of every set, one per voxel.

    The result is the first passing member, in member order, of each voxel
    of side tol / (4 sqrt d), rows in member order.  With tol = 2 rho every
    passing member lies within rho/2 of a kept row, below the 0.51 rho
    slack at which ``cones.arcs_cover`` reads a plane cone.

    Each member is keyed once.  Grouping the keys gives each voxel's first
    member, and only those candidates are decided; the voxels whose first
    candidate fails decide their other members in one more batch.  Deciding
    is exact (``_near_every_other``).  Where the voxels are too fine to key
    (tol = 0 in 1-D clouds, non-finite rows) they hold only equal rows,
    which group instead.
    """
    dim = dir_sets[0].shape[1]
    if not all(len(s) for s in dir_sets):
        return np.zeros((0, dim))
    sets = [np.asarray(s, dtype=float) for s in dir_sets]
    starts = np.cumsum([0] + [len(s) for s in sets])
    keyed = sampling.voxel_keys(sets, 0.25 * tol / math.sqrt(dim), merge=3)
    if keyed is None:
        _, keys = np.unique(np.vstack(sets), axis=0, return_inverse=True)
        keys = keys.reshape(-1)
        cubes = None
    else:
        keys = np.concatenate([k for k, _ in keyed])
        # a cube of 3^d voxels has the diagonal 0.75 tol, below the chord of
        # tol less NEAR_MARGIN, 2 sin(tol/2) (1 - NEAR_MARGIN), up to tol 2.5,
        # so a row in a cube that a set occupies lies within tol of it
        fits = 0.75 * tol <= 2.0 * math.sin(0.5 * tol) * (1.0 - sampling.NEAR_MARGIN)
        cubes = _cube_tables([c for _, c in keyed]) if fits else None
    del keyed
    # the key order lists equal keys in member order, so a voxel's first
    # member heads its run
    order, _, runs = sampling._key_runs(keys)
    del keys
    first = np.zeros(len(order), dtype=bool)
    first[order[runs[:-1]]] = True
    cand = np.flatnonzero(first)
    indexes: dict = {}
    passed = _near_every_other(sets, starts, cubes, cand, tol, indexes)
    keep = np.zeros(len(order), dtype=bool)
    keep[cand[passed]] = True
    if not passed.all():
        voxel = np.empty(len(order), dtype=np.int64)
        voxel[order] = np.repeat(np.arange(len(runs) - 1), np.diff(runs))
        failed = np.zeros(len(runs) - 1, dtype=bool)
        failed[voxel[cand[~passed]]] = True
        later = np.flatnonzero(failed[voxel] & ~first)
        later = later[_near_every_other(sets, starts, cubes, later, tol, indexes)]
        _, at = np.unique(voxel[later], return_index=True)
        keep[later[at]] = True
    return _rows(sets, starts, np.flatnonzero(keep))


def _cube_tables(cube_keys: list) -> tuple:
    """Each member's cube as a small index, the sets laid end to end, and
    for each set a table over those indexes of the cubes it occupies.

    The indexes are the keys less their minimum where that range is short,
    else the ranks of the distinct keys.
    """
    keys = np.concatenate(cube_keys)
    low = int(keys.min())
    if int(keys.max()) - low < 8 * len(keys):
        ids = keys - low
    else:
        ids = np.unique(keys, return_inverse=True)[1].reshape(-1)
    size = int(ids.max()) + 1
    tables = []
    for part in np.split(ids, np.cumsum([len(c) for c in cube_keys])[:-1]):
        tables.append(np.zeros(size, dtype=bool))
        tables[-1][part] = True
    return ids, tables


def _persistent_cone(dir_sets: list[np.ndarray], dim: int) -> FiberCone:
    """The cone of the members that persist within 2 rho; zero if none."""
    rho = sampling.grid_resolution(dim)
    kept = _persistent_directions(dir_sets, 2.0 * rho)
    if len(kept) == 0:
        return FiberCone.zero(dim)
    return FiberCone.from_directions(kept, dim, resolution=rho)


def _rows(arrays: list, starts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx (ascending) of the arrays laid end to end; arrays[j]
    starts at row starts[j]."""
    cut = np.searchsorted(idx, starts)
    return np.concatenate([a[idx[cut[j]:cut[j + 1]] - starts[j]]
                           for j, a in enumerate(arrays)])


def _near_every_other(sets: list, starts: np.ndarray, cubes: tuple | None,
                      idx: np.ndarray, tol: float, indexes: dict) -> np.ndarray:
    """Whether each member idx (ascending, rows of the sets laid end to end)
    lies within tol of every set but its own, bit for bit as
    ``sampling.min_angle_to_set`` reads it.

    A member passes its own set.  A member whose cube holds a row of
    another set is near that set (``cubes`` is ``_cube_tables``' pair).
    Each row left open gets ``sampling.CellIndex.near`` against the set's
    index, built once per set into ``indexes`` and only when a row is open.
    """
    rows = _rows(sets, starts, idx)
    cube = None if cubes is None else cubes[0][idx]
    cut = np.searchsorted(idx, starts)
    alive = np.ones(len(idx), dtype=bool)
    for j, s in enumerate(sets):
        ask = alive.copy()
        ask[cut[j]:cut[j + 1]] = False
        ask = np.flatnonzero(ask)
        near = (np.zeros(len(ask), dtype=bool) if cube is None
                else cubes[1][j][cube[ask]])
        rest = np.flatnonzero(~near)
        if len(rest):
            if j not in indexes:
                indexes[j] = sampling.CellIndex(s)
            near[rest] = indexes[j].near(rows[ask[rest]], tol)
        alive[ask] = near
        if not alive.any():
            break
    return alive


def tangent_cone(cloud: PointCloud, x, ladder: dini.ScaleLadder) -> FiberCone:
    """Directions along which cloud points accumulate at x."""
    x = np.asarray(x, dtype=float).reshape(cloud.dim)
    diffs = cloud.points - x
    dists = np.linalg.norm(diffs, axis=1)
    radii = ladder.radii()
    sets = []
    for ki, r in enumerate(radii):
        inner = radii[ki + 1] if ki + 1 < len(radii) else 0.0
        mask = (dists > inner) & (dists <= r)
        if mask.any():
            sets.append(diffs[mask] / dists[mask][:, None])
    if len(sets) < 3:
        raise EmptyShellError(
            f"only {len(sets)} populated shells around {x.tolist()}; "
            "cloud too sparse for the requested ladder")
    return _persistent_cone(sets[-3:], cloud.dim)


def _pair_directions(A: np.ndarray, B: np.ndarray, seed: int) -> np.ndarray:
    """Unit chords b - a of pairs of rows of A and B, in pair order, zero
    chords dropped.

    Every pair, a by a, when there are at most PAIR_BUDGET; else
    PAIR_BUDGET seeded random pairs, then each a with its min(4, nb)
    nearest b.  The chords are formed and scaled one coordinate at a time;
    below 8 coordinates ``np.linalg.norm`` adds the squares from left to
    right, as here, so every row keeps the bits of the row-major chords.
    """
    na, nb = len(A), len(B)
    if na * nb <= PAIR_BUDGET:
        ia = np.repeat(np.arange(na), nb)
        ib = np.tile(np.arange(nb), na)
    else:
        rng = np.random.default_rng(seed)
        ia = rng.integers(0, na, PAIR_BUDGET)
        ib = rng.integers(0, nb, PAIR_BUDGET)
        # random pairs under-sample small separations, where the limit
        # directions actually live; nearest neighbors fill that in
        _, idx = sampling.CellIndex(B).nearest(A, min(4, nb))
        ia = np.concatenate([ia, np.repeat(np.arange(na), idx.shape[1])])
        ib = np.concatenate([ib, idx.ravel()])
    cols = [B[:, j][ib] - A[:, j][ia] for j in range(A.shape[1])]
    if len(cols) < 8:
        nrm = cols[0] * cols[0]
        for c in cols[1:]:
            nrm += c * c
        nrm = np.sqrt(nrm, out=nrm)
    else:
        nrm = np.linalg.norm(np.column_stack(cols), axis=1)
    keep = nrm > 0
    if not keep.all():
        nrm, cols = nrm[keep], [c[keep] for c in cols]
    # column-major, so each chord column is contiguous
    out = np.empty((len(cols), len(nrm))).T
    for j, c in enumerate(cols):
        np.divide(c, nrm, out=out[:, j])
    return out


def whitney_cone(cloud_a: PointCloud, cloud_b: PointCloud, x,
                 ladder: dini.ScaleLadder) -> FiberCone:
    """Limit directions of pairs (a, b) collapsing onto x."""
    if cloud_a.dim != cloud_b.dim:
        raise ValueError("clouds live in different dimensions")
    x = np.asarray(x, dtype=float).reshape(cloud_a.dim)
    da = np.linalg.norm(cloud_a.points - x, axis=1)
    db = np.linalg.norm(cloud_b.points - x, axis=1)
    radii = ladder.radii()
    seed = ladder.resolved_seed()
    present, usable = [], []
    for ki, r in enumerate(radii):
        in_a, in_b = da <= r, db <= r
        if not (in_a.any() and in_b.any()):
            continue
        present.append(ki)
        # a scale contributes only if it can form a nonzero pair
        pts = np.vstack([cloud_a.points[in_a][:2], cloud_b.points[in_b][:2]])
        if len(pts) >= 2 and np.ptp(pts, axis=0).max() > 0:
            usable.append(ki)
        elif in_a.sum() + in_b.sum() > 4:
            usable.append(ki)
    if len(usable) < 3:
        if len(present) >= 3:
            # the clouds collapse to a single point at depth
            return FiberCone.zero(cloud_a.dim)
        raise EmptyShellError(
            f"only {len(present)} populated ball scales around {x.tolist()}")
    sets = []
    for ki in usable[-3:]:
        r = radii[ki]
        A = cloud_a.points[da <= r]
        B = cloud_b.points[db <= r]
        sets.append(_pair_directions(A, B, sampling.child_seed(seed, 77, ki)))
    return _persistent_cone(sets, cloud_a.dim)


def strict_cone(cloud: PointCloud, complement: PointCloud | None, x,
                ladder: dini.ScaleLadder) -> FiberCone:
    """N(A): fiber directions avoiding the Whitney cone C(A, comp).

    A complement that is None or out of reach gives the full cone:
    C(A, empty) is empty, so everything is strict.
    """
    x = np.asarray(x, dtype=float).reshape(cloud.dim)
    radii = ladder.radii()
    if complement is None or not (
            np.linalg.norm(complement.points - x, axis=1) <= radii[0]).any():
        return FiberCone.full(cloud.dim)
    W = whitney_cone(cloud, complement, x, ladder)
    grid = sampling.unit_grid(cloud.dim)
    rho = sampling.grid_resolution(cloud.dim)
    keep = grid[~sampling.CellIndex(member_directions(W)).near(grid, 2.0 * rho)]
    if len(keep) == 0:
        return FiberCone.zero(cloud.dim)
    return FiberCone.from_directions(keep, cloud.dim, resolution=rho)


def fan(base, p1, p2, step: float) -> np.ndarray:
    """Rows (cos psi * u, sin psi) for each row u of base, psi from its p1
    to its p2 at most ``step`` apart, stacked in row order.

    The directions over the domain ray of u whose elevation runs from p1
    to p2; every slab-built cone over a domain of two or more dimensions
    is a union of fans.  p1 and p2 are arrays over the rows or scalars.
    Each fan's elevations are ``np.linspace(p1, p2, count)``'s to the bit:
    k * ((p2 - p1) / (count - 1)) + p1, then p2 last.  linspace's branch
    for a step that underflows never differs here: a span below ``step``
    has count 2, so only an empty span steps by zero.
    """
    base = np.atleast_2d(np.asarray(base, dtype=float))
    p1 = np.broadcast_to(np.asarray(p1, dtype=float), len(base))
    p2 = np.broadcast_to(np.asarray(p2, dtype=float), len(base))
    counts = np.maximum(2, np.ceil((p2 - p1) / step).astype(np.int64) + 1)
    ends = np.cumsum(counts)
    k = np.arange(counts.sum()) - np.repeat(ends - counts, counts)
    psi = k * np.repeat((p2 - p1) / (counts - 1), counts)
    psi += np.repeat(p1, counts)
    psi[ends - 1] = p2
    out = np.empty((len(psi), base.shape[1] + 1))
    np.multiply(np.cos(psi)[:, None], np.repeat(base, counts, axis=0), out=out[:, :-1])
    out[:, -1] = np.sin(psi)
    return out


def _slab_arcs(qlo: float, qhi: float, vertical: bool) -> list[tuple[float, float]]:
    lo, hi = min(qlo, qhi), max(qlo, qhi)
    a1, a2 = math.atan(lo), math.atan(hi)
    arcs = [(a1, a2), (a1 + math.pi, a2 + math.pi)]
    if vertical:
        half = math.pi / 2.0
        arcs += [(half, half), (3.0 * half, 3.0 * half)]
    return arcs


def graph_whitney(f, x, ladder: dini.ScaleLadder) -> FiberCone:
    """Whitney cone of the graph of f at (x, f(x)).

    A scalar f gets one moving-base slab scan (``_slab_cone``).  A vector
    map's cone is the persistent chords of one moving-base scan of the
    domain grid's first half.
    """
    if f.n == 1:
        return _slab_cone(f, x, ladder, False)[0]
    x = np.asarray(x, dtype=float).reshape(f.m)
    half = np.split(dini._direction_grid(f.m), 2)[0]
    return _persistent_cone(dini.chords(f, x, half, ladder), f.m + f.n)


def whitney_and_bounds(f, x, ladder: dini.ScaleLadder
                       ) -> tuple[FiberCone, dini.FixedBounds]:
    """The graph Whitney cone W of f at (x, f(x)) and the point's
    fixed-base Dini limits (``dini.fixed_bounds``).  A scalar f samples
    once: the slab scan that builds W reads the limits off its base points
    at x.  A vector map's limits take a fixed-base scan of their own."""
    if f.n == 1:
        return _slab_cone(f, x, ladder, True)
    return graph_whitney(f, x, ladder), dini.fixed_bounds(f, x, ladder)


def _slab_cone(f, x, ladder: dini.ScaleLadder, bounds: bool):
    """(W, fixed-base limits or None) of a scalar f from one slab scan of
    the domain grid's first half (``dini.slabs``).

    Over the line the two slabs are exact arcs; over a domain of two or
    more dimensions each direction u of the domain grid carries the fan
    from atan(low) to atan(high), and the vertical joins when the zero
    direction's quotient blows up.  ``slabs`` scans every -u as well, so
    the grid's first half gives every fan: the slab over -u is (-high,
    -low).
    """
    x = np.asarray(x, dtype=float).reshape(f.m)
    half = np.split(dini._direction_grid(f.m), 2)[0]
    lo, hi, vertical, fixed = dini.slabs(f, x, half, ladder, bounds)
    if f.m == 1:
        return FiberCone.from_arcs(_slab_arcs(lo[0], hi[0], vertical)), fixed
    base = np.vstack([half, -half])
    lo, hi = np.concatenate([lo, -hi]), np.concatenate([hi, -lo])
    # the circle's fans step at the half-degree of its grid; higher
    # domains step at the fiber grid's spacing
    step = sampling.grid_resolution(2 if f.m == 2 else f.m + 1)
    # math.atan row by row keeps the elevations' bits; np.arctan may
    # round otherwise
    p1, p2 = np.array([(math.atan(min(a, b)), math.atan(max(a, b)))
                       for a, b in zip(lo.tolist(), hi.tolist())]).T
    members = [fan(base, p1, p2, step)]
    if vertical:
        up = np.zeros((2, f.m + 1))
        up[:, -1] = [1.0, -1.0]
        members.append(up)
    return FiberCone.from_directions(np.vstack(members), f.m + 1,
                                     resolution=step), fixed


def epigraph_strict_cone(f, x, ladder: dini.ScaleLadder) -> FiberCone:
    """N at (x, f(x)) of the region above the graph of f: R -> R:
    {(u,t): t > sup-slab}.

    Open in exact theory; the closure is returned.  Empty (zero cone)
    exactly when f is not Lipschitz around x.
    """
    if f.m != 1 or f.n != 1:
        raise ValueError("epigraph cones need a scalar function of one variable")
    lo, hi, vertical, _ = dini.slabs(f, x, [[1.0]], ladder)
    if vertical:
        return FiberCone.zero(2)
    # the upper edge has slope hi along +1 and -lo along -1
    a1 = math.atan(hi[0])
    a2 = math.pi + math.atan(lo[0])
    if a1 > a2:
        return FiberCone.zero(2)
    return FiberCone.from_arcs([(a1, a2)])


def hypograph_strict_cone(f, x, ladder: dini.ScaleLadder) -> FiberCone:
    """N of the region below the graph, via reflection of the epigraph of -f."""
    from .funcs import FunctionHandle

    neg = FunctionHandle(f.m, 1, f"-({f.name})", lambda X: -f(X), "composite",
                         dict(getattr(f, "meta", {}) or {}))
    cone = epigraph_strict_cone(neg, x, ladder)
    flip = np.diag([1.0] * f.m + [-1.0])
    return linear_image(cone, flip)

