"""Cone containers and operations on them.

A ``FiberCone`` is a closed cone of directions sitting in the fiber of a
(co)tangent space, stored in one of three representations:

``Polyhedral``
    finitely many generators and/or halfspaces, exact algebra.  The
    missing description is completed on demand by a small double
    description sweep (intended for ambient dimension <= 4).
``Arcs2D``
    a union of closed angular intervals on the unit circle, exact
    algebra for two-dimensional fibers.
``Sampled``
    an explicit list of unit member directions together with the
    angular resolution at which the list faithfully covers the cone.

Duality uses the standard inner product throughout: the polar of A is
{xi : <xi, v> >= 0 for all v in A}.

All operations accept and return ``FiberCone``; exact representations
are preserved whenever the operation supports it and fall back to the
sampled grid otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import nnls

from . import sampling
from .errors import DimensionMismatchError
from .sampling import TWO_PI

_EPS = 1e-12
_FULL = ((0.0, TWO_PI),)

# polar of a sampled cone: grid rows whose nearest-member dot lies this
# close to the threshold are decided by the dense product; dense
# grid-by-member products go in blocks of at most DENSE_CELLS dots
DUAL_MARGIN = 1e-9
DENSE_CELLS = 1 << 21
# before that, a row whose smallest dot with about DUAL_PROBES members lies
# DUAL_REJECT margins below the threshold is out
DUAL_PROBES = 256
DUAL_REJECT = 4


# ---------------------------------------------------------------------------
# closed arc algebra on the circle


def _norm_angle(a: float) -> float:
    return float(np.mod(a, TWO_PI))


def _angdist(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def arcs_normalize(arcs: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Canonical form: sorted, merged, lo in [0, 2pi), hi = lo + length."""
    segs = []
    for lo, hi in arcs:
        length = hi - lo
        if length < -_EPS:
            raise ValueError("arc endpoints out of order")
        length = min(max(length, 0.0), TWO_PI)
        if length >= TWO_PI - 1e-9:
            return _FULL
        lo = _norm_angle(lo)
        segs.append([lo, lo + length])
    if not segs:
        return ()
    segs.sort()
    merged = [segs[0]]
    for lo, hi in segs[1:]:
        if lo <= merged[-1][1] + _EPS:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # the last arc may wrap past 2*pi and swallow leading arcs
    while len(merged) > 1 and merged[-1][1] - TWO_PI >= merged[0][0] - _EPS:
        merged[-1][1] = max(merged[-1][1], merged[0][1] + TWO_PI)
        merged.pop(0)
    if sum(hi - lo for lo, hi in merged) >= TWO_PI - 1e-9:
        return _FULL
    out = []
    for lo, hi in merged:
        base = _norm_angle(lo)
        out.append((base, base + (hi - lo)))
    return tuple(sorted(out))


def arcs_contains(arcs, theta: float, tol: float = 0.0) -> bool:
    th = _norm_angle(theta)
    for lo, hi in arcs:
        # th - 2pi covers a tolerance band reaching below an arc's lo = 0
        for t in (th - TWO_PI, th, th + TWO_PI):
            if lo - tol <= t <= hi + tol:
                return True
    return False


def arcs_point_distance(arcs, theta: float) -> float:
    if not arcs:
        return math.inf
    th = _norm_angle(theta)
    best = math.inf
    for lo, hi in arcs:
        if lo <= th <= hi or lo <= th + TWO_PI <= hi:
            return 0.0
        best = min(best, _angdist(th, lo), _angdist(th, hi))
    return best


def arcs_rotate(arcs, delta: float):
    return arcs_normalize([(lo + delta, hi + delta) for lo, hi in arcs])


def arcs_union(a, b):
    return arcs_normalize(list(a) + list(b))


def arcs_complement(arcs):
    """Closure of the complement (gaps keep their endpoints)."""
    arcs = arcs_normalize(arcs)
    if not arcs:
        return _FULL
    if arcs == _FULL:
        return ()
    out = []
    for i, (lo, hi) in enumerate(arcs):
        nxt = arcs[(i + 1) % len(arcs)][0] + (TWO_PI if i == len(arcs) - 1 else 0.0)
        if nxt - hi > _EPS:
            out.append((hi, nxt))
    return arcs_normalize(out)


def arcs_intersect(a, b):
    a = arcs_normalize(a)
    b = arcs_normalize(b)
    if not a or not b:
        return ()
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            for shift in (-TWO_PI, 0.0, TWO_PI):
                lo = max(lo1, lo2 + shift)
                hi = min(hi1, hi2 + shift)
                if hi >= lo - _EPS:
                    out.append((lo, max(lo, hi)))
    return arcs_normalize(out)


def arcs_convex_hull(arcs):
    """Smallest convex cone (as arcs) containing the arc set."""
    arcs = arcs_normalize(arcs)
    if not arcs:
        return ()
    if arcs == _FULL:
        return _FULL
    # gaps straight from consecutive arcs; arcs_complement would merge
    # across degenerate point arcs and lose them
    gaps = []
    for i, (lo, hi) in enumerate(arcs):
        nxt = arcs[(i + 1) % len(arcs)][0] + (TWO_PI if i == len(arcs) - 1 else 0.0)
        if nxt - hi > _EPS:
            gaps.append((hi, nxt))
    if not gaps:
        return _FULL
    glo, ghi = max(gaps, key=lambda g: g[1] - g[0])
    span = TWO_PI - (ghi - glo)
    if span > np.pi + 1e-12:
        return _FULL
    if span >= np.pi - 1e-12:
        # exactly a half turn: a closed halfplane only if something sits
        # strictly between the antipodal extremes, otherwise just a line
        interior = False
        for lo, hi in arcs:
            if hi - lo > _EPS:
                interior = True
            elif _angdist(lo, ghi) > 1e-9 and _angdist(lo, glo) > 1e-9:
                interior = True
        if not interior:
            return arcs_normalize([(ghi, ghi), (glo, glo)])
    return arcs_normalize([(ghi, glo + TWO_PI)])


def arcs_polar(arcs):
    hull = arcs_convex_hull(arcs)
    if not hull:
        return _FULL
    if hull == _FULL:
        return ()
    if len(hull) == 2 and all(hi - lo <= _EPS for lo, hi in hull):
        p = hull[0][0] + np.pi / 2.0
        return arcs_normalize([(p, p), (p + np.pi, p + np.pi)])
    lo, hi = hull[0]
    return arcs_normalize([(hi - np.pi / 2.0, lo + np.pi / 2.0)])


def arcs_hausdorff(a, b) -> float:
    a = arcs_normalize(a)
    b = arcs_normalize(b)
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    return max(_arcs_directed(a, b), _arcs_directed(b, a))


def _arcs_directed(a, b) -> float:
    # the sup of dist(. , b) over a is attained at an endpoint of a or at
    # a midpoint of a gap of b lying inside a
    cands = [e for lo, hi in a for e in (lo, hi)]
    for lo, hi in arcs_complement(b):
        mid = (lo + hi) / 2.0
        if arcs_contains(a, mid, tol=1e-12):
            cands.append(mid)
    return max(arcs_point_distance(b, t) for t in cands)


# ---------------------------------------------------------------------------
# double description: generators of an intersection of halfspaces


def _dedupe_rays(rays: np.ndarray) -> np.ndarray:
    if len(rays) == 0:
        return rays
    n = np.linalg.norm(rays, axis=1)
    rays = rays[n > 1e-12] / n[n > 1e-12, None]
    if len(rays) == 0:
        return rays
    _, idx = np.unique(np.round(rays, 9), axis=0, return_index=True)
    return rays[np.sort(idx)]


def _prune_rays(rays: np.ndarray) -> np.ndarray:
    """Greedily drop rays expressible as nonnegative combinations of the rest."""
    if len(rays) <= 1:
        return rays
    out = [r for r in rays]
    i = 0
    while i < len(out):
        others = out[:i] + out[i + 1 :]
        A = np.array(others).T
        _, res = nnls(A, out[i])
        if res < 1e-8:
            out.pop(i)
        else:
            i += 1
    return np.array(out)


def dual_rays(rows: np.ndarray, dim: int) -> np.ndarray:
    """Generators of {x : <r, x> >= 0 for every row r}.

    Also serves as the generator-to-halfspace converter, because the
    halfspaces of cone(G) are exactly the generators of its polar.
    """
    rays = np.vstack([np.eye(dim), -np.eye(dim)])
    A = np.asarray(rows, dtype=float).reshape(-1, dim)
    norms = np.linalg.norm(A, axis=1)
    A = A[norms > 1e-12] / norms[norms > 1e-12, None]
    for h in A:
        s = rays @ h
        keep = rays[s >= -1e-10]
        plus = rays[s > 1e-10]
        minus = rays[s < -1e-10]
        if len(plus) and len(minus):
            sp = plus @ h
            sm = minus @ h
            combos = sp[:, None, None] * minus[None, :, :] - sm[None, :, None] * plus[:, None, :]
            rays = np.vstack([keep, combos.reshape(-1, dim)])
        else:
            rays = keep
        rays = _dedupe_rays(rays)
        if len(rays) > 6 * dim:
            rays = _prune_rays(rays)
    return _prune_rays(_dedupe_rays(rays))


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class Polyhedral:
    """generators: rows spanning the cone; halfspaces: rows h with <h,v> >= 0."""

    generators: np.ndarray | None = None
    halfspaces: np.ndarray | None = None

    def __post_init__(self):
        if self.generators is None and self.halfspaces is None:
            raise ValueError("need generators or halfspaces")


@dataclass(frozen=True)
class Arcs2D:
    arcs: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Sampled:
    directions: np.ndarray  # (k, dim) unit rows
    resolution: float


Representation = Polyhedral | Arcs2D | Sampled


@dataclass(frozen=True)
class FiberCone:
    dim: int
    rep: Representation
    base_point: np.ndarray | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_generators(gens, dim: int | None = None, base_point=None) -> "FiberCone":
        g = np.asarray(gens, dtype=float)
        if g.size == 0:
            if dim is None:
                raise ValueError("dimension needed for the zero cone")
            g = g.reshape(0, dim)
        else:
            g = np.atleast_2d(g)
        return FiberCone(g.shape[1], Polyhedral(generators=g), _opt_vec(base_point))

    @staticmethod
    def from_halfspaces(rows, dim: int, base_point=None) -> "FiberCone":
        h = np.asarray(rows, dtype=float).reshape(-1, dim)
        return FiberCone(dim, Polyhedral(halfspaces=h), _opt_vec(base_point))

    @staticmethod
    def from_arcs(arcs, base_point=None) -> "FiberCone":
        return FiberCone(2, Arcs2D(arcs_normalize(arcs)), _opt_vec(base_point))

    @staticmethod
    def from_directions(dirs, dim: int, resolution: float | None = None,
                        base_point=None) -> "FiberCone":
        d = np.asarray(dirs, dtype=float).reshape(-1, dim)
        if len(d):
            n = np.linalg.norm(d, axis=1)
            d = d[n > 1e-12] / n[n > 1e-12, None]
        if resolution is None:
            resolution = sampling.grid_resolution(dim)
        return FiberCone(dim, Sampled(d, float(resolution)), _opt_vec(base_point))

    @staticmethod
    def zero(dim: int, base_point=None) -> "FiberCone":
        return FiberCone.from_generators(np.zeros((0, dim)), dim, base_point)

    @staticmethod
    def full(dim: int, base_point=None) -> "FiberCone":
        return FiberCone(dim, Polyhedral(halfspaces=np.zeros((0, dim))),
                         _opt_vec(base_point))

    # -- basic queries -------------------------------------------------

    def is_zero(self, tol: float = 1e-9) -> bool:
        r = self.rep
        if isinstance(r, Arcs2D):
            return not r.arcs
        if isinstance(r, Sampled):
            return len(r.directions) == 0
        if r.generators is not None:
            return len(r.generators) == 0 or bool(
                np.all(np.linalg.norm(r.generators, axis=1) < tol))
        return len(generators_of(self)) == 0

    def resolution(self) -> float:
        if isinstance(self.rep, Sampled):
            return self.rep.resolution
        return sampling.grid_resolution(self.dim) if self.dim > 1 else 0.0


def _opt_vec(v):
    return None if v is None else np.asarray(v, dtype=float)


# ---------------------------------------------------------------------------
# representation access and conversion


def generators_of(cone: FiberCone) -> np.ndarray:
    """Generator rows for a polyhedral cone, completing via duality if needed."""
    rep = cone.rep
    if not isinstance(rep, Polyhedral):
        raise TypeError("generators_of expects a polyhedral cone")
    if rep.generators is not None:
        return rep.generators
    return dual_rays(rep.halfspaces, cone.dim)


def halfspaces_of(cone: FiberCone) -> np.ndarray:
    rep = cone.rep
    if not isinstance(rep, Polyhedral):
        raise TypeError("halfspaces_of expects a polyhedral cone")
    if rep.halfspaces is not None:
        return rep.halfspaces
    return dual_rays(rep.generators, cone.dim)


def member_directions(cone: FiberCone) -> np.ndarray:
    """Unit directions representing the cone (exact reps get sampled)."""
    return as_sampled(cone).rep.directions


def as_sampled(cone: FiberCone) -> FiberCone:
    rep = cone.rep
    if isinstance(rep, Sampled):
        return cone
    dim = cone.dim
    if isinstance(rep, Arcs2D):
        n = sampling.GRID_SIZES[2]
        step = TWO_PI / n
        picks = []
        for lo, hi in rep.arcs:
            k0 = math.ceil((lo - 1e-12) / step)
            k1 = math.floor((hi + 1e-12) / step)
            picks.extend(np.arange(k0, k1 + 1) * step)
            picks.extend([lo, (lo + hi) / 2.0, hi])
        th = np.asarray(picks, dtype=float)
        dirs = np.column_stack([np.cos(th), np.sin(th)])
        return FiberCone(2, Sampled(_dedupe_rays(dirs), step), cone.base_point)
    # polyhedral: grid points within half a grid step, plus the generators
    # themselves; the collar keeps subspace cones (empty interior) populated
    H = halfspaces_of(cone)
    grid = sampling.unit_grid(dim)
    if len(H):
        Hn = H / np.linalg.norm(H, axis=1, keepdims=True)
        thr = -math.sin(0.5 * sampling.grid_resolution(dim))
        ok = np.all(grid @ Hn.T >= thr, axis=1)
        inside = grid[ok]
    else:
        inside = grid
    gens = rep.generators if rep.generators is not None else generators_of(cone)
    dirs = _dedupe_rays(np.vstack([inside, gens.reshape(-1, dim)]))
    return FiberCone(dim, Sampled(dirs, sampling.grid_resolution(dim)), cone.base_point)


def as_arcs(cone: FiberCone) -> FiberCone:
    """Exact 2-D conversion; sampled members become degenerate point arcs."""
    if cone.dim != 2:
        raise DimensionMismatchError("arc form needs a 2-dimensional fiber")
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        return cone
    if isinstance(rep, Sampled):
        th = np.mod(np.arctan2(rep.directions[:, 1], rep.directions[:, 0]), TWO_PI)
        return FiberCone(2, Arcs2D(arcs_normalize([(t, t) for t in th])), cone.base_point)
    gens = generators_of(cone)
    th = np.mod(np.arctan2(gens[:, 1], gens[:, 0]), TWO_PI)
    hull = arcs_convex_hull([(t, t) for t in th])
    return FiberCone(2, Arcs2D(hull), cone.base_point)


def arcs_cover(cone: FiberCone, slack: float | None = None) -> FiberCone:
    """Compact 2-D cover: membership runs on the angular grid merged to arcs.

    Unlike ``as_arcs`` on a sampled cone (one degenerate arc per member)
    this snaps to the grid and merges neighbours, so dense member sets
    come back as a handful of arcs at grid resolution.
    """
    if cone.dim != 2:
        raise DimensionMismatchError("arc cover needs a 2-dimensional fiber")
    if isinstance(cone.rep, (Arcs2D, Polyhedral)):
        return as_arcs(cone)
    mask = grid_membership(cone, slack)
    if not mask.any():
        return FiberCone(2, Arcs2D(()), cone.base_point)
    grid = sampling.unit_grid(2)
    th = np.sort(np.mod(np.arctan2(grid[mask, 1], grid[mask, 0]), TWO_PI))
    step = TWO_PI / len(grid)
    arcs = []
    lo = prev = th[0]
    for t in th[1:]:
        if t - prev > 1.5 * step:
            arcs.append((lo, prev))
            lo = t
        prev = t
    arcs.append((lo, prev))
    return FiberCone(2, Arcs2D(arcs_normalize(arcs)), cone.base_point)


def grid_membership(cone: FiberCone, slack: float | None = None) -> np.ndarray:
    """Boolean mask over the standard grid: within ``slack`` of the cone."""
    dim = cone.dim
    grid = sampling.unit_grid(dim)
    rep = cone.rep
    if slack is None:
        slack = 0.51 * max(cone.resolution(), sampling.grid_resolution(dim))
    if isinstance(rep, Polyhedral):
        H = halfspaces_of(cone)
        if len(H) == 0:
            return np.ones(len(grid), dtype=bool)
        Hn = H / np.linalg.norm(H, axis=1, keepdims=True)
        return np.all(grid @ Hn.T >= -math.sin(slack), axis=1)
    if isinstance(rep, Arcs2D):
        th = np.mod(np.arctan2(grid[:, 1], grid[:, 0]), TWO_PI)
        return np.array([arcs_contains(rep.arcs, t, tol=slack) for t in th])
    if len(rep.directions) == 0:
        return np.zeros(len(grid), dtype=bool)
    return sampling.near_set(grid, rep.directions, slack)


# ---------------------------------------------------------------------------
# unary operations


def antipodal(cone: FiberCone) -> FiberCone:
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        return FiberCone(2, Arcs2D(arcs_rotate(rep.arcs, np.pi)), cone.base_point)
    if isinstance(rep, Sampled):
        return FiberCone(cone.dim, Sampled(-rep.directions, rep.resolution),
                         cone.base_point)
    g = -rep.generators if rep.generators is not None else None
    h = -rep.halfspaces if rep.halfspaces is not None else None
    return FiberCone(cone.dim, Polyhedral(g, h), cone.base_point)


def polar(cone: FiberCone, slack: float | None = None) -> FiberCone:
    """{xi : <xi, v> >= 0 for all v in the cone}; closed and convex."""
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        return FiberCone(2, Arcs2D(arcs_polar(rep.arcs)), cone.base_point)
    if isinstance(rep, Polyhedral):
        return FiberCone(cone.dim, Polyhedral(generators=rep.halfspaces,
                                              halfspaces=rep.generators),
                         cone.base_point)
    dirs = rep.directions
    if len(dirs) == 0:
        return FiberCone.full(cone.dim, cone.base_point)
    grid = sampling.unit_grid(cone.dim)
    if slack is None:
        slack = 0.5 * rep.resolution
    thr = -math.sin(slack)
    return FiberCone(cone.dim, Sampled(grid[_dual_mask(grid, dirs, thr)],
                                       sampling.grid_resolution(cone.dim)),
                     cone.base_point)


def _dual_mask(grid: np.ndarray, dirs: np.ndarray, thr: float) -> np.ndarray:
    """Rows g of grid with <g, v> >= thr for every row v of dirs.

    For unit members a row is first tested against a strided subset of
    about DUAL_PROBES members: a subset dot below thr - DUAL_REJECT *
    DUAL_MARGIN rejects it outright.  The smallest <g, v> over all unit
    members is taken by the member nearest to -g, so one KD-tree query per
    open row replaces the dense product.  Rows whose nearest-member dot
    lies within DUAL_MARGIN of thr are decided again by the dense product,
    which covers the rounding of the tree's distances; a rejected row is
    never that close, so the dense re-check sees the same rows in the same
    blocks as without the subset test.  Members that are not unit vectors
    skip the subset and the tree.  In fibers of dimension 2 and 3 the
    blocked dense product rounds the same for any block of rows, so the
    mask equals the full dense mask bit for bit; above that a row within
    rounding of thr can flip, as it already does with the BLAS thread
    count.
    """
    from scipy.spatial import cKDTree

    if np.abs(np.einsum("ij,ij->i", dirs, dirs) - 1.0).max() > 1e-12:
        near = np.arange(len(grid))
        ok = np.zeros(len(grid), dtype=bool)
    else:
        probe = dirs[::max(1, len(dirs) // DUAL_PROBES)]
        step = max(1, DENSE_CELLS // len(probe))
        low = np.concatenate([(grid[lo:lo + step] @ probe.T).min(axis=1)
                              for lo in range(0, len(grid), step)])
        live = np.flatnonzero(low >= thr - DUAL_REJECT * DUAL_MARGIN)
        _, idx = cKDTree(dirs).query(-grid[live])
        dots = np.einsum("ij,ij->i", grid[live], dirs[idx])
        ok = np.zeros(len(grid), dtype=bool)
        ok[live] = dots >= thr
        near = live[np.abs(dots - thr) <= DUAL_MARGIN]
    step = max(2, DENSE_CELLS // len(dirs))
    for lo in range(0, len(near), step):
        rows = near[lo:lo + step]
        # numpy hands a one-row product to gemv, which rounds differently
        # from the blocked product, so a lone row is doubled
        dense = grid[np.resize(rows, max(2, len(rows)))] @ dirs.T
        ok[rows] = np.all(dense[:len(rows)] >= thr, axis=1)
    return ok


def top(cone: FiberCone, tol: float | None = None) -> FiberCone:
    """Union of the orthogonal hyperplanes of all nonzero members."""
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        half = np.pi / 2.0
        out = arcs_union(arcs_rotate(rep.arcs, half), arcs_rotate(rep.arcs, -half))
        return FiberCone(2, Arcs2D(out), cone.base_point)
    if cone.dim == 2:
        return top(as_arcs(cone))
    members = member_directions(cone)
    if len(members) == 0:
        return FiberCone.zero(cone.dim, cone.base_point)
    grid = sampling.unit_grid(cone.dim)
    if tol is None:
        tol = max(cone.resolution(), sampling.grid_resolution(cone.dim))
    ok = min_abs_dots(grid, np.arange(len(grid)), members) <= math.sin(tol)
    return FiberCone(cone.dim, Sampled(grid[ok], sampling.grid_resolution(cone.dim)),
                     cone.base_point)


def min_abs_dots(grid: np.ndarray, rows: np.ndarray,
                 members: np.ndarray) -> np.ndarray:
    """min |<g, v>| over the members v, for each grid row g = grid[rows].

    The dots go in row blocks of at most DENSE_CELLS cells, so memory stays
    bounded on the 4-D grid and for large member sets.  No block has a
    single row unless ``rows`` does: numpy hands a one-row product to
    gemv, which rounds differently from gemm (see ``_dual_mask``).  gemm
    rounds each dot the same whatever block holds its row, so the result
    equals the full product.
    """
    out = np.empty(len(rows))
    step = max(2, DENSE_CELLS // len(members))
    lo = 0
    while lo < len(rows):
        hi = len(rows) if len(rows) - lo <= step + 1 else lo + step
        dots = grid[rows[lo:hi]] @ members.T
        out[lo:hi] = np.min(np.abs(dots, out=dots), axis=1)
        lo = hi
    return out


def contains(cone: FiberCone, v, tol: float | None = None) -> bool:
    """Angular membership test; ``tol`` defaults to twice the resolution."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != cone.dim:
        raise DimensionMismatchError(f"vector of length {len(v)} in a {cone.dim}-dim fiber")
    n = np.linalg.norm(v)
    if n < 1e-14:
        return True
    v = v / n
    if tol is None:
        tol = 2.0 * max(cone.resolution(), sampling.grid_resolution(cone.dim))
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        return arcs_contains(rep.arcs, math.atan2(v[1], v[0]), tol=tol)
    if isinstance(rep, Polyhedral):
        H = halfspaces_of(cone)
        if len(H) == 0:
            return True
        Hn = H / np.linalg.norm(H, axis=1, keepdims=True)
        return bool(np.all(Hn @ v >= -math.sin(tol)))
    if len(rep.directions) == 0:
        return False
    return bool(sampling.near_set(v[None, :], rep.directions, tol)[0])


def is_symmetric(cone: FiberCone, tol: float | None = None) -> bool:
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        return arcs_rotate(rep.arcs, np.pi) == rep.arcs
    if tol is None:
        tol = max(cone.resolution(), sampling.grid_resolution(cone.dim))
    if isinstance(rep, Polyhedral):
        return all(contains(cone, -g, tol=1e-9) for g in generators_of(cone))
    d = rep.directions
    if len(d) == 0:
        return True
    return bool(sampling.near_set(-d, d, tol).all())


def contains_line(cone: FiberCone, tol: float = 1e-9) -> bool:
    """True when some nonzero v has both v and -v in the cone."""
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        return bool(arcs_intersect(rep.arcs, arcs_rotate(rep.arcs, np.pi)))
    if isinstance(rep, Polyhedral):
        return any(contains(cone, -g, tol=tol) for g in generators_of(cone)
                   if np.linalg.norm(g) > 1e-12)
    d = rep.directions
    if len(d) == 0:
        return False
    return bool(sampling.near_set(-d, d, max(tol, rep.resolution)).any())


# ---------------------------------------------------------------------------
# binary operations


def _check_dims(a: FiberCone, b: FiberCone):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"fiber dims {a.dim} and {b.dim} differ")


def intersect(a: FiberCone, b: FiberCone) -> FiberCone:
    _check_dims(a, b)
    ra, rb = a.rep, b.rep
    if isinstance(ra, Arcs2D) and isinstance(rb, Arcs2D):
        return FiberCone(2, Arcs2D(arcs_intersect(ra.arcs, rb.arcs)), a.base_point)
    if isinstance(ra, Polyhedral) and isinstance(rb, Polyhedral):
        H = np.vstack([halfspaces_of(a), halfspaces_of(b)])
        return FiberCone(a.dim, Polyhedral(halfspaces=H), a.base_point)
    if a.dim == 2:
        return intersect(as_arcs(a), as_arcs(b))
    mask = grid_membership(a) & grid_membership(b)
    grid = sampling.unit_grid(a.dim)
    res = max(as_sampled(a).rep.resolution, as_sampled(b).rep.resolution,
              sampling.grid_resolution(a.dim))
    return FiberCone(a.dim, Sampled(grid[mask], res), a.base_point)


def join(a: FiberCone, b: FiberCone) -> FiberCone:
    """Set union for arc/sampled cones, conic hull for polyhedral ones."""
    _check_dims(a, b)
    ra, rb = a.rep, b.rep
    if isinstance(ra, Arcs2D) and isinstance(rb, Arcs2D):
        return FiberCone(2, Arcs2D(arcs_union(ra.arcs, rb.arcs)), a.base_point)
    if isinstance(ra, Polyhedral) and isinstance(rb, Polyhedral):
        g = np.vstack([generators_of(a), generators_of(b)])
        return FiberCone(a.dim, Polyhedral(generators=g), a.base_point)
    sa, sb = as_sampled(a), as_sampled(b)
    dirs = _dedupe_rays(np.vstack([sa.rep.directions, sb.rep.directions]))
    return FiberCone(a.dim, Sampled(dirs, max(sa.rep.resolution, sb.rep.resolution)),
                     a.base_point)


def hausdorff_angle(a: FiberCone, b: FiberCone) -> float:
    """Angular Hausdorff distance between the two direction sets.

    Returns +inf when exactly one side is the zero cone, 0.0 when both are.
    """
    _check_dims(a, b)
    az, bz = a.is_zero(), b.is_zero()
    if az and bz:
        return 0.0
    if az or bz:
        return math.inf
    if a.dim == 2:
        return arcs_hausdorff(as_arcs(a).rep.arcs, as_arcs(b).rep.arcs)
    da = member_directions(a)
    db = member_directions(b)
    d_ab = float(np.max(sampling.min_angle_to_set(da, db)))
    d_ba = float(np.max(sampling.min_angle_to_set(db, da)))
    return max(d_ab, d_ba)


def linear_image(cone: FiberCone, M: np.ndarray) -> FiberCone:
    """Image cone under an invertible linear map."""
    M = np.asarray(M, dtype=float)
    det = np.linalg.det(M)
    if abs(det) < 1e-12:
        raise ValueError("linear_image needs an invertible matrix")
    rep = cone.rep
    if isinstance(rep, Polyhedral):
        g = rep.generators @ M.T if rep.generators is not None else None
        h = rep.halfspaces @ np.linalg.inv(M) if rep.halfspaces is not None else None
        return FiberCone(cone.dim, Polyhedral(g, h), cone.base_point)
    if isinstance(rep, Sampled):
        d = rep.directions @ M.T
        return FiberCone(cone.dim, Sampled(_dedupe_rays(d), rep.resolution),
                         cone.base_point)
    out = []
    for lo, hi in rep.arcs:
        if hi - lo >= TWO_PI - 1e-9:
            return FiberCone(2, Arcs2D(_FULL), cone.base_point)
        a = _image_angle(M, lo)
        bxy = _image_angle(M, hi)
        if hi - lo <= _EPS:
            out.append((a, a))
        elif det > 0:
            length = (bxy - a) % TWO_PI
            out.append((a, a + length))
        else:
            length = (a - bxy) % TWO_PI
            out.append((bxy, bxy + length))
    return FiberCone(2, Arcs2D(arcs_normalize(out)), cone.base_point)


def _image_angle(M, theta):
    w = M @ np.array([math.cos(theta), math.sin(theta)])
    return math.atan2(w[1], w[0])


# ---------------------------------------------------------------------------
# conic relations and composition


@dataclass(frozen=True)
class ConicRelation:
    """A cone in a product fiber, read as a relation left -> right."""

    left_dim: int
    right_dim: int
    cone: FiberCone

    def __post_init__(self):
        if self.cone.dim != self.left_dim + self.right_dim:
            raise DimensionMismatchError("relation cone dim must equal left+right")


def identity_relation(dim: int) -> ConicRelation:
    eye = np.eye(dim)
    gens = np.vstack([np.hstack([eye, eye]), -np.hstack([eye, eye])])
    half = np.vstack([np.hstack([eye, -eye]), np.hstack([-eye, eye])])
    cone = FiberCone(2 * dim, Polyhedral(generators=gens, halfspaces=half))
    return ConicRelation(dim, dim, cone)


def graph_relation(L: np.ndarray) -> ConicRelation:
    """The graph of a linear map as a polyhedral (subspace) relation."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    n, m = L.shape
    basis = np.hstack([np.eye(m), L.T])
    gens = np.vstack([basis, -basis])
    rows = np.hstack([-L, np.eye(n)])
    half = np.vstack([rows, -rows])
    return ConicRelation(m, n, FiberCone(m + n, Polyhedral(gens, half)))


def _negate_middle(rel: ConicRelation, side: str) -> ConicRelation:
    d1, d2 = rel.left_dim, rel.right_dim
    M = np.eye(d1 + d2)
    if side == "right":
        M[d1:, d1:] *= -1.0
    else:
        M[:d1, :d1] *= -1.0
    return ConicRelation(d1, d2, linear_image(rel.cone, M))


def compose(r1: ConicRelation, r2: ConicRelation, twisted: bool = False) -> ConicRelation:
    """Composite relation; ``twisted`` negates the shared middle factor."""
    if r1.right_dim != r2.left_dim:
        raise DimensionMismatchError("middle dimensions differ")
    if twisted:
        r1 = _negate_middle(r1, "right")
    if isinstance(r1.cone.rep, Polyhedral) and isinstance(r2.cone.rep, Polyhedral):
        total = r1.left_dim + r1.right_dim + r2.right_dim
        if total <= 4:
            return _compose_polyhedral(r1, r2)
    return _compose_sampled(r1, r2)


def _compose_polyhedral(r1: ConicRelation, r2: ConicRelation) -> ConicRelation:
    d1, d2, d3 = r1.left_dim, r1.right_dim, r2.right_dim
    H1 = halfspaces_of(r1.cone)
    H2 = halfspaces_of(r2.cone)
    lifted = []
    for h in H1:
        lifted.append(np.concatenate([h, np.zeros(d3)]))
    for h in H2:
        lifted.append(np.concatenate([np.zeros(d1), h]))
    lifted = np.asarray(lifted, dtype=float).reshape(-1, d1 + d2 + d3)
    G = dual_rays(lifted, d1 + d2 + d3)
    proj = np.hstack([G[:, :d1], G[:, d1 + d2:]]) if len(G) else np.zeros((0, d1 + d3))
    proj = _dedupe_rays(proj)
    proj = _prune_rays(proj) if len(proj) > 1 else proj
    return ConicRelation(d1, d3, FiberCone.from_generators(proj, d1 + d3))


def _compose_sampled(r1: ConicRelation, r2: ConicRelation) -> ConicRelation:
    d1, d2, d3 = r1.left_dim, r1.right_dim, r2.right_dim
    A = member_directions(r1.cone)
    B = member_directions(r2.cone)
    res = max(as_sampled(r1.cone).rep.resolution, as_sampled(r2.cone).rep.resolution)
    out_dim = d1 + d3
    out: list[np.ndarray] = []
    thr = math.sin(max(res, 1e-9))
    if len(A):
        a1, a2 = A[:, :d1], A[:, d1:]
        na2 = np.linalg.norm(a2, axis=1)
        avert = na2 <= thr
        # members with vanishing middle pair with the zero of the other side
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
            match = ma @ mb.T >= math.cos(max(2.0 * res, 1e-9))
            ii, jj = np.where(match)
            if len(ii):
                left = a1[ai[ii]] / na2[ai[ii], None]
                right = b3[bi[jj]] / nb2[bi[jj], None]
                cand = np.hstack([left, right])
                out.extend(cand)
        # vertical x vertical pairs span a quarter arc between the factors
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
    dirs = _dedupe_rays(np.asarray(out, dtype=float).reshape(-1, out_dim))
    return ConicRelation(d1, d3, FiberCone(out_dim, Sampled(dirs, res)))


def relation_from_cone_pair(left: FiberCone, right: FiberCone) -> ConicRelation:
    """Product relation A x B (used to build test relations)."""
    la, lb = member_directions(left), member_directions(right)
    res = max(left.resolution(), right.resolution())
    dirs = []
    for u in la:
        dirs.append(np.concatenate([u, np.zeros(right.dim)]))
        for w in lb:
            for s in np.linspace(0.0, np.pi / 2.0, 7)[1:-1]:
                dirs.append(np.concatenate([math.cos(s) * u, math.sin(s) * w]))
    for w in lb:
        dirs.append(np.concatenate([np.zeros(left.dim), w]))
    cone = FiberCone.from_directions(np.asarray(dirs), left.dim + right.dim, res)
    return ConicRelation(left.dim, right.dim, cone)


def apply_relation(cone: FiberCone, rel: ConicRelation, tol: float | None = None) -> FiberCone:
    """Forward image {w : (v, w) in rel for some v in cone}."""
    if cone.dim != rel.left_dim:
        raise DimensionMismatchError("cone does not match relation's left factor")
    d1, d3 = rel.left_dim, rel.right_dim
    if (isinstance(rel.cone.rep, Polyhedral) and isinstance(cone.rep, Polyhedral)
            and d1 + d3 <= 4):
        HA = halfspaces_of(cone)
        lifted = [np.concatenate([h, np.zeros(d3)]) for h in HA]
        lifted.extend(halfspaces_of(rel.cone))
        G = dual_rays(np.asarray(lifted, dtype=float).reshape(-1, d1 + d3), d1 + d3)
        proj = G[:, d1:] if len(G) else np.zeros((0, d3))
        proj = _dedupe_rays(proj)
        if len(proj) > 1:
            proj = _prune_rays(proj)
        return FiberCone.from_generators(proj, d3)
    if isinstance(rel.cone.rep, Polyhedral) and isinstance(cone.rep, Arcs2D) and d1 == d3 == 2:
        # split each arc into pointed wedges and push them through the
        # exact path; a polyhedral relation is too thin to sample reliably
        segs = []
        for lo, hi in cone.rep.arcs:
            width = hi - lo
            nseg = max(1, math.ceil(width / (0.5 * math.pi)))
            for i in range(nseg):
                a = lo + width * i / nseg
                b = lo + width * (i + 1) / nseg
                gens = np.array([[math.cos(a), math.sin(a)],
                                 [math.cos(b), math.sin(b)]])
                img = apply_relation(FiberCone.from_generators(gens, 2), rel)
                segs.extend(as_arcs(img).rep.arcs)
        return FiberCone(2, Arcs2D(arcs_normalize(segs)), cone.base_point)
    members = member_directions(rel.cone)
    if tol is None:
        tol = 2.0 * max(cone.resolution(), as_sampled(rel.cone).rep.resolution)
    out = []
    for w in members:
        u, v = w[:d1], w[d1:]
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nv <= 1e-12:
            continue
        if nu <= math.sin(tol) or contains(cone, u, tol=tol):
            out.append(v / nv)
    res = max(cone.resolution(), as_sampled(rel.cone).rep.resolution)
    return FiberCone.from_directions(np.asarray(out, dtype=float), d3, res)
