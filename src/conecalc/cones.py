"""Cone containers and operations on them.

A ``FiberCone`` is a closed cone of directions sitting in the fiber of a
(co)tangent space, stored in one of three representations:

``Trivial``
    the zero cone {0} or the whole fiber, which every operation answers
    exactly.
``Arcs2D``
    a union of closed angular intervals on the unit circle, for
    two-dimensional fibers.  Top, union (``join``), intersection
    (``arcs_intersect``), rotation (``antipodal``) and the angle
    distances stay exact on arcs; ``polar`` reads plane cones through
    their sampled form.
``Sampled``
    an explicit list of unit member directions together with the
    angular resolution at which the list faithfully covers the cone.

Every angle between two cones is ``directed_angle``: the largest angle
from a ray of one cone to the nearest ray of the other.
``hausdorff_angle`` is the larger of its two directions.

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

from . import sampling
from .errors import DimensionMismatchError
from .sampling import TWO_PI

_EPS = 1e-12
_FULL = ((0.0, TWO_PI),)

# grid-by-member dot products go in row blocks of at most DENSE_CELLS
# dots, 512 KiB, which stay in a core's L2 cache.  Measured on one 2-core
# host (4 MiB L2, one OpenBLAS thread) on the `analyze` runs of
# abs(x1)+abs(x2) and sqrt(abs(x1*x2)) at 0,0 and of a 3-D max of planes
# at 0,0,0, whose time is mostly slice-top's blocks: 2**15 to 2**17 dots
# time alike, 2**14 and 2**18 are 8-17 % slower and 2**21 35-48 % slower.
# The polar screens each grid row against about sqrt(DUAL_PROBES) strided
# members, then the rows left against about DUAL_PROBES: a row whose
# smallest dot among them lies DUAL_MARGIN below the threshold is out, a
# margin far above the rounding of a dot
DENSE_CELLS = 1 << 16
DUAL_PROBES = 256
DUAL_MARGIN = 4e-9


# ---------------------------------------------------------------------------
# closed arc algebra on the circle


def _norm_angle(a: float) -> float:
    return float(np.mod(a, TWO_PI))


def _angdist(a, b):
    d = abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


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


def arcs_point_distance(arcs, theta):
    """The angle from theta, one angle or an array of them, to canonical
    arcs: 0 inside an arc, +inf without arcs.

    Outside the arcs the nearest point is the end of the last arc that
    starts at or before theta or the start of the next arc, so two
    distances per angle decide it.
    """
    th = np.mod(theta, TWO_PI)
    if not arcs:
        return np.full(np.shape(th), math.inf)
    lo, hi = np.array(arcs).T
    j = np.searchsorted(lo, th, side="right") - 1
    # only the last arc can reach past 2pi
    inside = ((j >= 0) & (th <= hi[j])) | (th + TWO_PI <= hi[-1])
    near = np.minimum(_angdist(th, hi[j]), _angdist(th, lo[(j + 1) % len(lo)]))
    return np.where(inside, 0.0, near)


def arcs_rotate(arcs, delta: float):
    return arcs_normalize([(lo + delta, hi + delta) for lo, hi in arcs])


def arcs_union(a, b):
    return arcs_normalize(list(a) + list(b))


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


def _arcs_gaps(arcs) -> list[tuple[float, float]]:
    """Gaps between consecutive canonical arcs, as (lo, hi) with hi up to
    2pi past lo, not merged."""
    gaps = []
    for i, (lo, hi) in enumerate(arcs):
        nxt = arcs[(i + 1) % len(arcs)][0] + (TWO_PI if i == len(arcs) - 1 else 0.0)
        if nxt - hi > _EPS:
            gaps.append((hi, nxt))
    return gaps


def arcs_complement(arcs):
    """Closure of the complement of nonempty canonical arcs: their gaps,
    which keep their endpoints, merged."""
    return arcs_normalize(_arcs_gaps(arcs))


def _arcs_directed(a, b) -> float:
    # the sup of dist(. , b) over a is attained at an endpoint of a or at
    # a midpoint of a gap of b lying inside a
    mids = np.array([(lo + hi) / 2.0 for lo, hi in _arcs_gaps(b)])
    cands = np.concatenate([np.ravel(a),
                            mids[arcs_point_distance(a, mids) <= 1e-12]])
    return float(arcs_point_distance(b, cands).max())


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class Trivial:
    """The zero cone {0} (full=False) or the whole fiber (full=True)."""

    full: bool


@dataclass(frozen=True)
class Arcs2D:
    arcs: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Sampled:
    directions: np.ndarray  # (k, dim) unit rows
    resolution: float


Representation = Trivial | Arcs2D | Sampled


@dataclass(frozen=True)
class FiberCone:
    dim: int
    rep: Representation

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_arcs(arcs) -> "FiberCone":
        return FiberCone(2, Arcs2D(arcs_normalize(arcs)))

    @staticmethod
    def from_directions(dirs, dim: int,
                        resolution: float | None = None) -> "FiberCone":
        d = np.asarray(dirs, dtype=float).reshape(-1, dim)
        if len(d):
            n = np.linalg.norm(d, axis=1)
            d = d[n > 1e-12] / n[n > 1e-12, None]
        if resolution is None:
            resolution = sampling.grid_resolution(dim)
        return FiberCone(dim, Sampled(d, float(resolution)))

    @staticmethod
    def zero(dim: int) -> "FiberCone":
        return FiberCone(dim, Trivial(False))

    @staticmethod
    def full(dim: int) -> "FiberCone":
        return FiberCone(dim, Trivial(True))

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        r = self.rep
        if isinstance(r, Trivial):
            return not r.full
        if isinstance(r, Arcs2D):
            return not r.arcs
        return len(r.directions) == 0

    def resolution(self) -> float:
        if isinstance(self.rep, Sampled):
            return self.rep.resolution
        return sampling.grid_resolution(self.dim)


# ---------------------------------------------------------------------------
# representation access and conversion


def _dedupe_rays(rays: np.ndarray) -> np.ndarray:
    if len(rays) == 0:
        return rays
    n = np.linalg.norm(rays, axis=1)
    rays = rays[n > 1e-12] / n[n > 1e-12, None]
    if len(rays) == 0:
        return rays
    _, idx = np.unique(np.round(rays, 9), axis=0, return_index=True)
    return rays[np.sort(idx)]


def member_directions(cone: FiberCone) -> np.ndarray:
    """Unit directions representing the cone (exact reps get sampled)."""
    return as_sampled(cone).rep.directions


def as_sampled(cone: FiberCone) -> FiberCone:
    """Sampled form: the full cone is the whole grid, the zero cone no rows.

    Arcs give the 2-D grid directions they hold plus their ends and
    midpoints.
    """
    rep = cone.rep
    if isinstance(rep, Sampled):
        return cone
    if isinstance(rep, Trivial):
        dim = cone.dim
        dirs = sampling.unit_grid(dim) if rep.full else np.zeros((0, dim))
        return FiberCone(dim, Sampled(dirs, sampling.grid_resolution(dim)))
    step = TWO_PI / sampling.GRID_SIZES[2]
    picks = []
    for lo, hi in rep.arcs:
        k0 = math.ceil((lo - 1e-12) / step)
        k1 = math.floor((hi + 1e-12) / step)
        picks.extend(np.arange(k0, k1 + 1) * step)
        picks.extend([lo, (lo + hi) / 2.0, hi])
    th = np.asarray(picks, dtype=float)
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    return FiberCone(2, Sampled(_dedupe_rays(dirs), step))


def as_arcs(cone: FiberCone) -> FiberCone:
    """Exact 2-D conversion; sampled members become degenerate point arcs."""
    if cone.dim != 2:
        raise DimensionMismatchError("arc form needs a 2-dimensional fiber")
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        return cone
    if isinstance(rep, Trivial):
        return FiberCone(2, Arcs2D(_FULL if rep.full else ()))
    th = np.mod(np.arctan2(rep.directions[:, 1], rep.directions[:, 0]), TWO_PI)
    return FiberCone(2, Arcs2D(arcs_normalize([(t, t) for t in th])))


def arcs_cover(cone: FiberCone) -> FiberCone:
    """Compact 2-D cover: the angular grid rows near a member, merged to
    arcs.  Near is within 0.51 times the coarser of the cone's resolution
    and the grid's.

    Unlike ``as_arcs`` on a sampled cone (one degenerate arc per member)
    this snaps to the grid and merges neighbours, so dense member sets
    come back as a handful of arcs at grid resolution.
    """
    if cone.dim != 2:
        raise DimensionMismatchError("arc cover needs a 2-dimensional fiber")
    if isinstance(cone.rep, (Arcs2D, Trivial)):
        return as_arcs(cone)
    grid = sampling.unit_grid(2)
    slack = 0.51 * max(cone.rep.resolution, sampling.grid_resolution(2))
    mask = sampling.CellIndex(cone.rep.directions).near(grid, slack)
    if not mask.any():
        return FiberCone(2, Arcs2D(()))
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
    return FiberCone(2, Arcs2D(arcs_normalize(arcs)))


# ---------------------------------------------------------------------------
# unary operations


def antipodal(cone: FiberCone) -> FiberCone:
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        return FiberCone(2, Arcs2D(arcs_rotate(rep.arcs, np.pi)))
    if isinstance(rep, Sampled):
        return FiberCone(cone.dim, Sampled(-rep.directions, rep.resolution))
    return cone


def polar(cone: FiberCone, slack: float | None = None) -> FiberCone:
    """{xi : <xi, v> >= 0 for all v in the cone}; closed and convex.

    Arcs are read through their sampled form (``as_sampled``), so the
    polar of a plane cone is a set of grid rows, like every other.
    """
    rep = cone.rep
    if isinstance(rep, Trivial):
        return FiberCone(cone.dim, Trivial(not rep.full))
    if isinstance(rep, Arcs2D):
        rep = as_sampled(cone).rep
    dirs = rep.directions
    if len(dirs) == 0:
        return FiberCone.full(cone.dim)
    grid = sampling.unit_grid(cone.dim)
    if slack is None:
        slack = 0.5 * rep.resolution
    thr = -math.sin(slack)
    return FiberCone(cone.dim, Sampled(grid[_dual_mask(grid, dirs, thr)],
                                       sampling.grid_resolution(cone.dim)))


def _dual_mask(grid: np.ndarray, dirs: np.ndarray, thr: float) -> np.ndarray:
    """Rows g of grid with <g, v> >= thr for every row v of dirs.

    The rows are screened coarse to fine: first against about
    sqrt(DUAL_PROBES) strided members, then the rows left against about
    DUAL_PROBES of them (one screen when both strides agree).  A minimum
    over a subset of the members is never below the minimum over all of
    them, so a row whose smallest dot with a screen's members lies
    DUAL_MARGIN below thr is out.  The rows that pass every screen are
    decided by their smallest dot over all members; a screen that leaves
    no row ends the work.
    """
    strides = (max(1, len(dirs) // math.isqrt(DUAL_PROBES)),
               max(1, len(dirs) // DUAL_PROBES))
    live = np.arange(len(grid))
    for stride in dict.fromkeys(strides):
        if len(live):
            live = live[min_dots(grid[live], dirs[::stride]) >= thr - DUAL_MARGIN]
    ok = np.zeros(len(grid), dtype=bool)
    if len(live):
        ok[live] = min_dots(grid[live], dirs) >= thr
    return ok


def top(cone: FiberCone) -> FiberCone:
    """Union of the orthogonal hyperplanes of all nonzero members.

    Plane cones answer in arcs.  Above the plane the zero cone has no
    member, so its top is zero, and every direction is orthogonal to some
    other, so the top of the full cone is full; on the line no direction
    is orthogonal to any.  A sampled cone above the plane keeps the grid
    rows g with min |<g, v>| over its members at most the sine of the
    coarser of its resolution and the grid's.
    """
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        half = np.pi / 2.0
        out = arcs_union(arcs_rotate(rep.arcs, half), arcs_rotate(rep.arcs, -half))
        return FiberCone(2, Arcs2D(out))
    if cone.dim == 2:
        return top(as_arcs(cone))
    if isinstance(rep, Trivial):
        return FiberCone(cone.dim, Trivial(rep.full and cone.dim > 1))
    members = member_directions(cone)
    if len(members) == 0:
        return FiberCone.zero(cone.dim)
    grid = sampling.unit_grid(cone.dim)
    tol = max(cone.resolution(), sampling.grid_resolution(cone.dim))
    ok = min_dots(grid, members, absolute=True) <= math.sin(tol)
    return FiberCone(cone.dim, Sampled(grid[ok], sampling.grid_resolution(cone.dim)))


def min_dots(points: np.ndarray, members: np.ndarray,
             absolute: bool = False) -> np.ndarray:
    """min <p, v> (or min |<p, v>|) over the members v, for each row p.

    The dots go in row blocks of DENSE_CELLS // len(members) rows, so a
    block stays in cache on the 4-D grid and for large member sets; only
    past DENSE_CELLS / 2 members does the floor of two rows hold more.
    Each block is freed before the next product.  No
    block has a single row: numpy hands a one-row product to gemv, which
    can round differently from gemm, so a lone last row is doubled.  A
    dot may still round differently in blocks of other sizes, so a value
    within rounding of a caller's threshold depends on the block that
    holds its row.
    """
    out = np.empty(len(points))
    step = max(2, DENSE_CELLS // len(members))
    for lo in range(0, len(points), step):
        block = points[lo:lo + step]
        dots = (block if len(block) > 1 else points[[lo, lo]]) @ members.T
        if absolute:
            np.abs(dots, out=dots)
        out[lo:lo + step] = dots.min(axis=1)[:len(block)]
        del dots
    return out


def contains(cone: FiberCone, v, tol: float | None = None) -> bool:
    """Angular membership test; ``tol`` defaults to twice the resolution."""
    v = np.asarray(v, dtype=float).reshape(1, -1)
    if v.shape[1] != cone.dim:
        raise DimensionMismatchError(f"vector of length {v.size} in a {cone.dim}-dim fiber")
    if tol is None:
        tol = 2.0 * max(cone.resolution(), sampling.grid_resolution(cone.dim))
    return bool(_contains_rows(cone, v, _row_norms(v), tol)[0])


def _row_norms(A: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row on its own, bit for bit.

    ``vecdot`` runs the dot product that the norm of one vector takes;
    a norm along an axis sums the squares another way and can round
    differently, and membership near a tolerance reads the last bit.
    """
    return np.sqrt(np.vecdot(A, A))


def _contains_rows(cone: FiberCone, U: np.ndarray, norms: np.ndarray,
                   tol: float) -> np.ndarray:
    """``contains(cone, u, tol)`` for every row u of U, given its norm.

    A sampled cone answers all rows with one ``CellIndex.near`` call,
    which decides each row as it would alone; arcs take one angle per row.
    """
    rep = cone.rep
    out = norms < 1e-14
    if isinstance(rep, Trivial):
        return out | rep.full
    ask = ~out
    V = U[ask] / norms[ask, None]
    if isinstance(rep, Arcs2D):
        out[ask] = [arcs_contains(rep.arcs, math.atan2(b, a), tol=tol)
                    for a, b in V.tolist()]
    elif len(rep.directions) and len(V):
        out[ask] = sampling.CellIndex(rep.directions).near(V, tol)
    return out


def contains_line(cone: FiberCone) -> bool:
    """True when some nonzero v has both v and -v in the cone; a sampled
    cone reads -v within its resolution (1e-9 at least) of a member."""
    rep = cone.rep
    if isinstance(rep, Arcs2D):
        return bool(arcs_intersect(rep.arcs, arcs_rotate(rep.arcs, np.pi)))
    if isinstance(rep, Trivial):
        return rep.full
    d = rep.directions
    if len(d) == 0:
        return False
    return bool(sampling.CellIndex(d).near(-d, max(1e-9, rep.resolution)).any())


# ---------------------------------------------------------------------------
# binary operations


def _check_dims(a: FiberCone, b: FiberCone):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"fiber dims {a.dim} and {b.dim} differ")


def join(a: FiberCone, b: FiberCone) -> FiberCone:
    """Set union of the two cones."""
    _check_dims(a, b)
    ra, rb = a.rep, b.rep
    if isinstance(ra, Arcs2D) and isinstance(rb, Arcs2D):
        return FiberCone(2, Arcs2D(arcs_union(ra.arcs, rb.arcs)))
    if isinstance(ra, Trivial) and isinstance(rb, Trivial):
        return FiberCone(a.dim, Trivial(ra.full or rb.full))
    sa, sb = as_sampled(a), as_sampled(b)
    dirs = _dedupe_rays(np.vstack([sa.rep.directions, sb.rep.directions]))
    return FiberCone(a.dim, Sampled(dirs, max(sa.rep.resolution, sb.rep.resolution)))


def directed_angle(a: FiberCone, b: FiberCone) -> float:
    """The largest angle from a ray of a to the nearest ray of b.

    0.0 when a is the zero cone, pi when only b is.  Plane cones are
    answered exactly in arcs; above the plane the members of a go to the
    nearest member of b through ``sampling.min_angle_to_set``, so memory
    stays linear in the member counts.
    """
    _check_dims(a, b)
    if a.is_zero():
        return 0.0
    if b.is_zero():
        return math.pi
    if a.dim == 2:
        return _arcs_directed(as_arcs(a).rep.arcs, as_arcs(b).rep.arcs)
    return float(np.max(sampling.min_angle_to_set(member_directions(a),
                                                  member_directions(b))))


def hausdorff_angle(a: FiberCone, b: FiberCone) -> float:
    """Angular Hausdorff distance between the two direction sets: the
    larger of the two directed angles.

    Returns +inf when exactly one side is the zero cone, 0.0 when both are.
    """
    _check_dims(a, b)
    az, bz = a.is_zero(), b.is_zero()
    if az or bz:
        return 0.0 if az and bz else math.inf
    return max(directed_angle(a, b), directed_angle(b, a))


def linear_image(cone: FiberCone, M: np.ndarray) -> FiberCone:
    """Image cone under an invertible linear map."""
    M = np.asarray(M, dtype=float)
    det = np.linalg.det(M)
    if abs(det) < 1e-12:
        raise ValueError("linear_image needs an invertible matrix")
    rep = cone.rep
    if isinstance(rep, Trivial):
        return cone
    if isinstance(rep, Sampled):
        d = rep.directions @ M.T
        return FiberCone(cone.dim, Sampled(_dedupe_rays(d), rep.resolution))
    out = []
    for lo, hi in rep.arcs:
        if hi - lo >= TWO_PI - 1e-9:
            return FiberCone(2, Arcs2D(_FULL))
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
    return FiberCone(2, Arcs2D(arcs_normalize(out)))


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


def compose(r1: ConicRelation, r2: ConicRelation) -> ConicRelation:
    """Composite relation {(u, w) : (u, v) in r1 and (v, w) in r2 for some v}.

    It works on the sampled members of both cones, in four blocks of
    rows: members of r1, then of r2, whose middle part vanishes; pairs
    whose middle parts agree within twice the resolution; and the
    quarter arcs of vertical x vertical pairs.
    """
    if r1.right_dim != r2.left_dim:
        raise DimensionMismatchError("middle dimensions differ")
    d1, d2, d3 = r1.left_dim, r1.right_dim, r2.right_dim
    A, B = member_directions(r1.cone), member_directions(r2.cone)
    res = max(r1.cone.resolution(), r2.cone.resolution())
    thr = math.sin(max(res, 1e-9))
    a1, a2, b2, b3 = A[:, :d1], A[:, d1:], B[:, :d2], B[:, d2:]
    na2, nb2 = np.linalg.norm(a2, axis=1), np.linalg.norm(b2, axis=1)
    avert, bvert = na2 <= thr, nb2 <= thr
    # members with vanishing middle pair with the zero of the other side
    u, w = a1[avert], b3[bvert]
    nu, nw = _row_norms(u), _row_norms(w)
    ku, kw = nu > thr, nw > thr
    ai, bi = np.flatnonzero(~avert), np.flatnonzero(~bvert)
    ii, jj = np.nonzero((a2[ai] / na2[ai, None]) @ (b2[bi] / nb2[bi, None]).T
                        >= math.cos(max(2.0 * res, 1e-9)))
    ai, bi = ai[ii], bi[jj]
    # vertical x vertical pairs span a quarter arc between the factors
    ia, ib = np.arange(len(u)), np.arange(len(w))
    if len(u) * len(w) > 4096:
        ia, ib = ia[:: max(1, len(u) // 64)], ib[:: max(1, len(w) // 64)]
    ia, ib = ia[ku[ia]], ib[kw[ib]]
    steps = np.linspace(0.0, np.pi / 2.0, max(2, int(np.pi / 2.0 / max(res, 1e-3))))
    # math's cos and sin, which np.cos and np.sin can miss by a bit
    cos = np.fromiter(map(math.cos, steps), float, len(steps))[:, None]
    sin = np.fromiter(map(math.sin, steps), float, len(steps))[:, None]
    n1, n2, n3 = np.cumsum([np.count_nonzero(ku), np.count_nonzero(kw), len(ai)])
    out = np.zeros((n3 + len(ia) * len(ib) * len(steps), d1 + d3))
    out[:n1, :d1] = u[ku] / nu[ku, None]
    out[n1:n2, d1:] = w[kw] / nw[kw, None]
    out[n2:n3, :d1] = a1[ai] / na2[ai, None]
    out[n2:n3, d1:] = b3[bi] / nb2[bi, None]
    arcs = out[n3:].reshape(len(ia), len(ib), len(steps), d1 + d3)
    arcs[..., :d1] = ((cos * u[ia, None]) / nu[ia, None, None])[:, None]
    arcs[..., d1:] = (sin * w[ib, None]) / nw[ib, None, None]
    return ConicRelation(d1, d3, FiberCone(d1 + d3, Sampled(_dedupe_rays(out), res)))


def apply_relation(cone: FiberCone, rel: ConicRelation, tol: float | None = None) -> FiberCone:
    """Forward image {w : (v, w) in rel for some v in cone}."""
    if cone.dim != rel.left_dim:
        raise DimensionMismatchError("cone does not match relation's left factor")
    d1, d3 = rel.left_dim, rel.right_dim
    members = member_directions(rel.cone)
    if tol is None:
        tol = 2.0 * max(cone.resolution(), rel.cone.resolution())
    nu = _row_norms(members[:, :d1])
    nv = _row_norms(members[:, d1:])
    keep = (nv > 1e-12) & (nu <= math.sin(tol))
    ask = (nv > 1e-12) & ~keep
    keep[ask] = _contains_rows(cone, members[ask, :d1], nu[ask], tol)
    res = max(cone.resolution(), rel.cone.resolution())
    return FiberCone.from_directions(members[keep, d1:] / nv[keep, None], d3, res)
