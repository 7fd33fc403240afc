"""Cone estimation from point clouds and function graphs.

Three estimators work on sampled sets: ``tangent_cone`` (directions of
single points approaching x), ``whitney_cone`` (directions of point
pairs collapsing at x), and ``strict_cone`` (complement of the Whitney
cone of the set against its complement).  They share one persistence
rule: a direction counts only if it recurs, within twice the grid
resolution, at each of the three deepest populated scales.

For function graphs the Whitney cone has an exact description through
moving-base quotient slabs, used here for one and two dimensional
domains; higher dimensions and vector targets fall back to pair scans
on adaptively sampled graph clouds.

All cones returned are closed numerical approximations; strict cones
are open in exact theory and come back as the sampled complement of a
dilated Whitney estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dini, sampling
from .cones import FiberCone, linear_image, member_directions, as_sampled
from .errors import EmptyShellError

PAIR_BUDGET = 200_000
GRAPH_SAMPLES_PER_SCALE = 10_000


@dataclass
class PointCloud:
    points: np.ndarray
    labels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

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
        mask = self.labels == label
        return PointCloud(self.points[mask], meta=dict(self.meta))


def cloud_from_csv(path: str) -> PointCloud:
    from .funcs import read_csv_columns

    points, labels = read_csv_columns(path)
    return PointCloud(points, labels, {"source": path})


def cloud_ladder(cloud: PointCloud, x, seed: int = 0,
                 shell_count: int = 40) -> dini.ScaleLadder:
    """Scale ladder adapted to the sampling density of the cloud at x.

    The deepest scale grows from the shell_count-th nearest sample until
    the directions seen there are dense at the persistence tolerance
    (2 rho nearest-neighbour gaps), so thin sets keep small shells while
    solid sets get enough points per shell to survive persistence.
    """
    from scipy.spatial import cKDTree

    x = np.asarray(x, dtype=float).reshape(cloud.dim)
    diffs = cloud.points - x
    dists = np.linalg.norm(diffs, axis=1)
    order = np.argsort(dists)
    order = order[dists[order] > 1e-12]
    if len(order) < 2 * shell_count:
        t0 = float(dists[order[-1]]) if len(order) else 0.5
        return dini.ScaleLadder(t0=max(t0, 1e-6), ratio=0.5,
                                k_min=0, k_max=2, seed=seed)
    rho = sampling.grid_resolution(cloud.dim)
    k = shell_count
    cap = max(shell_count, len(order) // 3)
    while True:
        sel = order[:min(k, len(order))]
        dirs = diffs[sel] / dists[sel][:, None]
        chord, _ = cKDTree(dirs).query(dirs, k=2)
        gaps = 2.0 * np.arcsin(np.clip(chord[:, 1] / 2.0, 0.0, 1.0))
        if float(np.quantile(gaps, 0.9)) <= 2.0 * rho or k >= cap:
            break
        k *= 2
    t0 = float(dists[order[-1]])
    r_deep = float(dists[sel[-1]])
    k_max = int(math.floor(math.log(max(r_deep, 1e-9) / t0, 0.5)))
    return dini.ScaleLadder(t0=t0, ratio=0.5, k_min=0,
                            k_max=max(2, min(12, k_max)), seed=seed)


def cloud_from_function(f, x, ladder: dini.ScaleLadder,
                        per_scale: int = GRAPH_SAMPLES_PER_SCALE) -> PointCloud:
    """Graph samples (y, f(y)) concentrated shell by shell around x."""
    x = np.asarray(x, dtype=float).reshape(f.m)
    lad = ladder.for_handle(f)
    seed = lad.resolved_seed()
    radii = lad.radii()
    chunks = [x[None, :]]
    for ki, r in enumerate(radii):
        inner = r * lad.ratio
        dirs = sampling.sphere_points(f.m, per_scale,
                                      sampling.child_seed(seed, 91, lad.k_min + ki))
        rng = np.random.default_rng(sampling.child_seed(seed, 92, lad.k_min + ki))
        rad = rng.uniform(inner, r, size=per_scale)
        chunks.append(x[None, :] + rad[:, None] * dirs)
    Y = np.vstack(chunks)
    vals = f(Y)
    return PointCloud(np.hstack([Y, vals]),
                      meta={"source": getattr(f, "name", "f"),
                            "scale": float(radii[-1])})


def _persistent_directions(dir_sets: list[np.ndarray], tol: float) -> np.ndarray:
    """Directions present (within tol) in every one of the given sets.

    The candidates are the members of all sets, rounded to 4 decimals,
    deduplicated in lexicographic order and normalised.  A candidate
    lies within a chord of 1e-4 sqrt(d) of a member of each unit set it
    came from: 5e-5 per coordinate from the rounding, at most as much
    again from the normalising.  When that bound is below tol/2, the
    query of a set skips its own candidates, which pass it whatever the
    query returns; otherwise every live candidate is queried.  A query is
    ``sampling.near_set``: a candidate sharing a voxel with a member of
    the set passes at once, and only the others get a KD search, bounded
    just above tol, with the same outcome as a full nearest-neighbour
    search.
    """
    pools = [s for s in dir_sets if len(s)]
    if not pools:
        return np.zeros((0, 0))
    rounded = np.round(np.vstack(pools, dtype=float), 4)
    # np.unique(rounded, axis=0) with one stable lexsort
    order = np.lexsort(rounded.T[::-1])
    srt = rounded[order]
    new = np.ones(len(srt), dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    if (srt.view(np.int64)[1:] != srt.view(np.int64)[:-1])[~new[1:]].any():
        # rows equal up to the sign of a zero: np.unique keeps the one
        # its unstable sort puts first, which fixes the sign in reports
        cand = np.unique(rounded, axis=0)
    else:
        cand = srt[new]
    group = np.empty(len(srt), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    own = np.zeros((len(cand), len(dir_sets)), dtype=bool)
    start = 0
    for j, s in enumerate(dir_sets):
        own[group[start:start + len(s)], j] = True
        start += len(s)
    nrm = np.linalg.norm(cand, axis=1)
    nz = nrm > 0
    cand, own = cand[nz] / nrm[nz, None], own[nz]
    unit = all(np.all(np.abs(np.einsum("ij,ij->i", s, s) - 1.0) <= 1e-9)
               for s in pools)
    if not (unit and 1e-4 * math.sqrt(cand.shape[1]) + 1e-9 <= 0.5 * tol):
        own[:] = False
    keep = np.ones(len(cand), dtype=bool)
    for j, s in enumerate(dir_sets):
        if len(s) == 0:
            return cand[:0]
        ask = keep & ~own[:, j]
        if ask.any():
            keep[ask] = sampling.near_set(cand[ask], s, tol)
        if not keep.any():
            break
    return cand[keep]


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
    rho = sampling.grid_resolution(cloud.dim)
    kept = _persistent_directions(sets[-3:], 2.0 * rho)
    if len(kept) == 0:
        return FiberCone.zero(cloud.dim)
    return FiberCone.from_directions(kept, cloud.dim, resolution=rho)


def _pair_directions(A: np.ndarray, B: np.ndarray, seed: int) -> np.ndarray:
    from scipy.spatial import cKDTree

    na, nb = len(A), len(B)
    if na * nb <= PAIR_BUDGET:
        d = B[None, :, :] - A[:, None, :]
        d = d.reshape(-1, A.shape[1])
    else:
        rng = np.random.default_rng(seed)
        ia = rng.integers(0, na, PAIR_BUDGET)
        ib = rng.integers(0, nb, PAIR_BUDGET)
        d = B[ib] - A[ia]
        # random pairs under-sample small separations, where the limit
        # directions actually live; nearest neighbors fill that in
        k = min(4, nb)
        _, idx = cKDTree(B).query(A, k=k)
        nn = (B[np.atleast_2d(idx.T).T.reshape(na, k)]
              - A[:, None, :]).reshape(-1, A.shape[1])
        d = np.vstack([d, nn])
    nrm = np.linalg.norm(d, axis=1)
    d = d[nrm > 0] / nrm[nrm > 0][:, None]
    return d


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
    rho = sampling.grid_resolution(cloud_a.dim)
    kept = _persistent_directions(sets, 2.0 * rho)
    if len(kept) == 0:
        return FiberCone.zero(cloud_a.dim)
    return FiberCone.from_directions(kept, cloud_a.dim, resolution=rho)


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
    if W.is_zero():
        return FiberCone.from_directions(grid, cloud.dim, resolution=rho)
    keep = grid[~sampling.near_set(grid, member_directions(as_sampled(W)), 2.0 * rho)]
    if len(keep) == 0:
        return FiberCone.zero(cloud.dim)
    return FiberCone.from_directions(keep, cloud.dim, resolution=rho)


def convexity_check(cone: FiberCone, seed: int = 0, samples: int = 512) -> bool:
    """Do normalized midpoints of member pairs stay inside the cone?

    The strict tangent cone is convex in exact theory, so failures here
    flag under-sampling rather than being corrected.
    """
    dirs = member_directions(as_sampled(cone))
    if len(dirs) < 2:
        return True
    res = max(cone.resolution(), sampling.grid_resolution(cone.dim))
    rng = np.random.default_rng(seed)
    i = rng.integers(0, len(dirs), samples)
    j = rng.integers(0, len(dirs), samples)
    mids = dirs[i] + dirs[j]
    nrm = np.linalg.norm(mids, axis=1)
    ok = nrm > 1e-9
    if not ok.any():
        return True
    mids = mids[ok] / nrm[ok][:, None]
    inside = sampling.min_angle_to_set(mids, dirs) <= 2.0 * res + 1e-9
    return float(np.mean(inside)) >= 0.98


def fan(u, p1: float, p2: float, step: float) -> np.ndarray:
    """Rows (cos psi * u, sin psi) for psi from p1 to p2 at most ``step`` apart.

    The directions over the domain ray of u whose elevation runs from p1
    to p2; every slab-built cone over a 2-D domain is a union of fans.
    """
    count = max(2, int(math.ceil((p2 - p1) / step)) + 1)
    psi = np.linspace(p1, p2, count)
    return np.column_stack([np.outer(np.cos(psi), u), np.sin(psi)])


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

    Scalar targets use the quotient-slab description; otherwise pair
    scans over sampled graph clouds.
    """
    x = np.asarray(x, dtype=float).reshape(f.m)
    if f.n == 1 and f.m == 1:
        lo, hi, vertical = dini.slabs(f, x, [[1.0]], ladder)
        return FiberCone.from_arcs(_slab_arcs(lo[0], hi[0], vertical))
    if f.n == 1 and f.m == 2:
        base = sampling.unit_grid(2)[::2]
        lo, hi, vertical = dini.slabs(f, x, base, ladder)
        step = sampling.grid_resolution(2)
        members = [fan(u, math.atan(min(l2, h2)), math.atan(max(l2, h2)), step)
                   for u, l2, h2 in zip(base, lo, hi)]
        if vertical:
            members.append(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        return FiberCone.from_directions(np.vstack(members), 3, resolution=step)
    cloud = cloud_from_function(f, x, ladder)
    center = np.concatenate([x, f(x[None, :])[0]])
    return whitney_cone(cloud, cloud, center, ladder)


def epigraph_strict_cone(f, x, ladder: dini.ScaleLadder) -> FiberCone:
    """N at (x, f(x)) of the region above the graph: {(u,t): t > sup-slab}.

    Open in exact theory; the closure is returned.  Empty (zero cone)
    exactly when f is not Lipschitz around x.
    """
    x = np.asarray(x, dtype=float).reshape(f.m)
    if f.n != 1:
        raise ValueError("epigraphs need a scalar function")
    if f.m == 1:
        base = np.array([[1.0]])
    elif f.m == 2:
        base = sampling.unit_grid(2)[::2]
    else:
        base = np.zeros((0, f.m))  # only the vertical test is defined here
    lo, hi, vertical = dini.slabs(f, x, base, ladder)
    if vertical:
        return FiberCone.zero(f.m + 1)
    if f.m == 1:
        # the upper edge has slope hi along +1 and -lo along -1
        a1 = math.atan(hi[0])
        a2 = math.pi + math.atan(lo[0])
        if a1 > a2:
            return FiberCone.zero(2)
        return FiberCone.from_arcs([(a1, a2)])
    if f.m == 2:
        step = sampling.grid_resolution(2)
        members = [np.array([[0.0, 0.0, 1.0]])]
        members += [fan(u, math.atan(h2), math.pi / 2.0, step)
                    for u, h2 in zip(base, hi)
                    if math.atan(h2) < math.pi / 2.0 - 1e-12]
        return FiberCone.from_directions(np.vstack(members), 3, resolution=step)
    raise ValueError("epigraph cones support 1 or 2 input dimensions")


def hypograph_strict_cone(f, x, ladder: dini.ScaleLadder) -> FiberCone:
    """N of the region below the graph, via reflection of the epigraph of -f."""
    from .funcs import FunctionHandle

    neg = FunctionHandle(f.m, 1, f"-({f.name})", lambda X: -f(X), "composite",
                         dict(getattr(f, "meta", {}) or {}))
    cone = epigraph_strict_cone(neg, x, ladder)
    flip = np.diag([1.0] * f.m + [-1.0])
    return linear_image(cone, flip)


def local_graph_direction(cloud: PointCloud, x, codim: int,
                          ladder: dini.ScaleLadder):
    """Search for a codim-dimensional subspace meeting the Whitney cone
    only at the origin; its existence makes the set a local Lipschitz
    graph transverse to it.

    Returns (subspace cone, angular clearance) or None.
    """
    d = cloud.dim
    if not 1 <= codim < d:
        raise ValueError("codim must lie strictly between 0 and the dimension")
    W = whitney_cone(cloud, cloud, x, ladder)
    rho = sampling.grid_resolution(d)
    if W.is_zero():
        basis = np.eye(d)[d - codim:]
        return FiberCone.from_generators(np.vstack([basis, -basis])), math.pi / 2.0
    M = member_directions(as_sampled(W))

    if codim == 1:
        grid = sampling.unit_grid(d)
        dots = np.abs(M @ grid.T).max(axis=0)
        clear = np.arccos(np.clip(dots, -1.0, 1.0))
        best = int(np.argmax(clear))
        if clear[best] <= 2.0 * rho:
            return None
        w = grid[best]
        return FiberCone.from_generators(np.vstack([w, -w])), float(clear[best])

    if codim == d - 1:
        # parameterize the subspace by its normal line
        grid = sampling.unit_grid(d)
        sines = np.abs(M @ grid.T).min(axis=0)
        clear = np.arcsin(np.clip(sines, 0.0, 1.0))
        best = int(np.argmax(clear))
        if clear[best] <= 2.0 * rho:
            return None
        n = grid[best]
        basis = np.linalg.svd(np.eye(d) - np.outer(n, n))[0][:, :d - 1].T
        return FiberCone.from_generators(np.vstack([basis, -basis])), float(clear[best])

    # middle codimensions: coarse scan over direction pairs
    coarse = sampling.sphere_points(d, 72, 3)
    best_clear, best_basis = -1.0, None
    for i in range(len(coarse)):
        for j in range(i + 1, len(coarse)):
            Q = np.linalg.qr(np.column_stack([coarse[i], coarse[j]]))[0]
            if Q.shape[1] < codim:
                continue
            proj = np.linalg.norm(M @ Q, axis=1)
            clear = math.acos(min(1.0, float(proj.max())))
            if clear > best_clear:
                best_clear, best_basis = clear, Q.T
    if best_basis is None or best_clear <= 2.0 * rho:
        return None
    return FiberCone.from_generators(np.vstack([best_basis, -best_basis])), best_clear
