"""Conormal estimation through cone duality.

The conormal of a map is computed exactly in two regimes.  Over a
one-dimensional domain it is the perpendicular union (top) of the graph
Whitney cone; over a one-dimensional codomain the Whitney cone is
conversely recovered as the top of the conormal, which pins the
conormal between computable brackets.  Everywhere else the estimate is
a bracket: an upper bound intersecting the tops of directional Whitney
slices over a grid of domain directions, and a lower bound from the
polar of the epigraph tangent cone (scalar targets only; the zero cone
otherwise).

Closed point sets get the microsupport bracket [polar of the tangent
cone, polar of the strict tangent cone]; sampled submanifolds get the
top of their self-Whitney cone, exact for curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dini, geometry, sampling
from .cones import (DENSE_CELLS, FiberCone, antipodal, as_sampled,
                    hausdorff_angle, intersect, join, member_directions, polar,
                    top)
from .errors import DimensionMismatchError

# domain-direction grids for the slice intersection: one-degree steps on
# a circle, low-discrepancy points on higher spheres
DOMAIN_DIRS_2D = 360
DOMAIN_DIRS_HIGH = 1024

# verification subsample caps; estimates themselves are not capped
CHECK_W_CAP = 512
CHECK_L_CAP = 4096


@dataclass
class ConormalEstimate:
    """Bracketed conormal cone at a point.

    ``exact`` is set only in the equality regimes; the invariant
    ``lower subset exact subset upper`` is sampled by the test suite.
    """

    lower: FiberCone
    upper: FiberCone
    regime: str  # "dimM1" | "dimN1" | "bounds-only"
    exact: FiberCone | None = None
    checks: dict = field(default_factory=dict)


def _resolved_ladder(f, ladder):
    lad = dini.ScaleLadder() if ladder is None else ladder
    return lad.for_handle(f)


# ---------------------------------------------------------------------------
# equality regimes


def conormal_dimM1(f, x, ladder=None) -> FiberCone:
    """Conormal over a 1-dimensional domain: top of the graph Whitney cone."""
    if f.m != 1:
        raise DimensionMismatchError(
            f"domain dimension is {f.m}; the equality route needs 1")
    lad = _resolved_ladder(f, ladder)
    return top(geometry.graph_whitney(f, x, lad))


def whitney_from_conormal_dimN1(lam: FiberCone) -> FiberCone:
    """Whitney cone recovered from a scalar-target conormal: its top."""
    return top(lam)


# ---------------------------------------------------------------------------
# upper bound: intersection of directional slice tops


def _domain_grid(m: int) -> np.ndarray:
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        th = np.linspace(0.0, 2.0 * math.pi, DOMAIN_DIRS_2D, endpoint=False)
        return np.column_stack([np.cos(th), np.sin(th)])
    return sampling.sphere_points(m, DOMAIN_DIRS_HIGH, 5)


def directional_slice(w: FiberCone, m: int, u, half_width: float) -> FiberCone:
    """W ∩ (ray(u) x fiber), thickened to the given angular half-width.

    Members whose domain part vanishes (limits of purely vertical
    chords) belong to every slice.
    """
    u = np.asarray(u, dtype=float).reshape(m)
    d = w.dim
    if m == 1 and d == 2:
        half = math.pi / 2.0
        theta = 0.0 if u[0] > 0 else math.pi
        sector = FiberCone.from_arcs([(theta - half, theta + half)])
        return intersect(w, sector)
    V = member_directions(as_sampled(w))
    if len(V) == 0:
        return FiberCone.zero(d)
    P = V[:, :m]
    pn = np.linalg.norm(P, axis=1)
    vanishing = pn <= math.sin(half_width)
    cosang = np.zeros(len(V))
    nz = ~vanishing
    cosang[nz] = (P[nz] @ (u / np.linalg.norm(u))) / pn[nz]
    aligned = nz & (cosang >= math.cos(half_width))
    keep = V[aligned | vanishing]
    if len(keep) == 0:
        return FiberCone.zero(d)
    return FiberCone.from_directions(keep, d, resolution=as_sampled(w).rep.resolution)


def conormal_upper_bound(f, x, ladder=None) -> FiberCone:
    """Intersection over domain directions u of top(directional slice of W)."""
    lad = _resolved_ladder(f, ladder)
    w = geometry.graph_whitney(f, x, lad)
    return slice_top_intersection(w, f.m)


def _min_abs_dots(grid: np.ndarray, rows: np.ndarray,
                  members: np.ndarray) -> np.ndarray:
    """min |<g, v>| over the members v, for each grid row g = grid[rows].

    The dots go in row blocks of at most DENSE_CELLS cells, so memory stays
    bounded on the 4-D grid.  No block has a single row unless ``rows``
    does: numpy hands a one-row product to gemv, which rounds differently
    from gemm (see ``cones._dual_mask``).  gemm rounds each dot the same
    whatever block holds its row, so the result equals the full product.
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


def slice_top_intersection(w: FiberCone, m: int) -> FiberCone:
    """The upper-bound construction on an already-computed Whitney cone."""
    d = w.dim
    n = d - m
    if n < 1:
        raise DimensionMismatchError("product fiber smaller than the domain part")
    U = _domain_grid(m)
    if m == 1 and d == 2:
        out = None
        for u in U:
            sl = directional_slice(w, m, u, 0.0)
            if sl.is_zero():
                continue
            t = top(sl)
            out = t if out is None else intersect(out, t)
        return FiberCone.zero(2) if out is None else out
    V = member_directions(as_sampled(w))
    if len(V) == 0:
        return FiberCone.zero(d)
    rho = max(as_sampled(w).rep.resolution, sampling.grid_resolution(d))
    # slice half-width follows the domain grid: twice its covering radius,
    # which for the circle grid matches the one-degree slab spacing
    if m == 2:
        hw = 2.0 * sampling.grid_resolution(2)
    else:
        hw = 2.0 * max(rho, math.sqrt(4.0 * math.pi / len(U)))
    grid = sampling.unit_grid(d)
    P = V[:, :m]
    pn = np.linalg.norm(P, axis=1)
    vanishing = pn <= math.sin(hw)
    Pu = np.zeros_like(P)
    Pu[~vanishing] = P[~vanishing] / pn[~vanishing, None]
    thr = math.sin(max(rho, sampling.grid_resolution(d)))
    alive = np.arange(len(grid))
    cos_hw = math.cos(hw)
    for u in U:
        sel = vanishing | (Pu @ u >= cos_hw)
        if not sel.any():
            # an empty slice is a sampling artifact; skipping it only
            # loosens the intersection, which stays a valid upper bound
            continue
        alive = alive[_min_abs_dots(grid, alive, V[sel]) <= thr]
        if len(alive) == 0:
            break
    return FiberCone.from_directions(grid[alive], d,
                                     resolution=sampling.grid_resolution(d))


# ---------------------------------------------------------------------------
# lower information


def _epigraph_tangent(f, x, lad) -> FiberCone:
    """Tangent cone of the region above the graph: t >= lower directional
    derivative of f at x along u, fiberwise in the direction u."""
    x = np.asarray(x, dtype=float).reshape(f.m)
    if f.m == 1:
        d_plus, d_minus = dini.inf_derivatives(f, x, [[1.0], [-1.0]], lad)
        a1 = math.atan(d_plus) if abs(d_plus) <= dini.DIVERGENCE_CAP \
            else math.copysign(math.pi / 2.0, d_plus)
        a2 = math.pi - (math.atan(d_minus) if abs(d_minus) <= dini.DIVERGENCE_CAP
                        else math.copysign(math.pi / 2.0, d_minus))
        if a1 > a2:
            return FiberCone.zero(2)
        return FiberCone.from_arcs([(a1, a2)])
    base = _domain_grid(f.m) if f.m > 2 else _domain_grid(2)[::2]
    step = sampling.grid_resolution(2) if f.m == 2 else sampling.grid_resolution(f.m)
    members = [np.concatenate([np.zeros(f.m), [1.0]])[None, :]]
    for u, lo in zip(base, dini.inf_derivatives(f, x, base, lad)):
        if lo > dini.DIVERGENCE_CAP:
            continue
        p1 = math.atan(lo) if abs(lo) <= dini.DIVERGENCE_CAP else -math.pi / 2.0
        count = max(2, int(math.ceil((math.pi / 2.0 - p1) / step)) + 1)
        psi = np.linspace(p1, math.pi / 2.0, count)
        members.append(np.column_stack([np.outer(np.cos(psi), u), np.sin(psi)]))
    return FiberCone.from_directions(np.vstack(members), f.m + 1, resolution=step)


def _epigraph_polar_lower(f, x, lad) -> FiberCone:
    """Covectors certified inside the conormal: polar of the epigraph
    tangent cone, symmetrized over the two codomain orientations."""
    ct = _epigraph_tangent(f, x, lad)
    # low-dimensional polars (rays, lines) have no interior on the sphere,
    # so the membership slack must cover the ambient grid's covering radius
    slack = None if ct.dim == 2 else sampling.grid_resolution(ct.dim)
    pc = polar(ct, slack=slack)
    return join(pc, antipodal(pc))


def conormal_lower_check(w: FiberCone, lam: FiberCone, m: int, n: int,
                         tol: float | None = None) -> dict:
    """Verify that every Whitney direction admits perpendicular covectors
    in the conormal estimate, one for each codomain covector slice.

    Pure verification; reports the worst violation angle instead of
    modifying either cone.
    """
    d = m + n
    if w.dim != d or lam.dim != d:
        raise DimensionMismatchError("cones do not share the product fiber")
    WD = member_directions(as_sampled(w))
    LD = member_directions(as_sampled(lam))
    if tol is None:
        tol = 2.0 * max(w.resolution(), lam.resolution(), sampling.grid_resolution(d))
    report = {"passed": True, "worst_angle": 0.0, "worst_direction": None,
              "tolerance": float(tol), "w_count": int(len(WD)),
              "lambda_count": int(len(LD)), "scaled_ok": None}
    if len(WD) == 0:
        return report
    if len(WD) > CHECK_W_CAP:
        idx = np.linspace(0, len(WD) - 1, CHECK_W_CAP).astype(int)
        WD = WD[idx]
    if len(LD) > CHECK_L_CAP:
        idx = np.linspace(0, len(LD) - 1, CHECK_L_CAP).astype(int)
        LD = LD[idx]
    if len(LD) == 0:
        report.update(passed=False, worst_angle=math.pi / 2.0,
                      worst_direction=WD[0].tolist())
        return report
    # angle away from perpendicularity, per (w, lambda) pair
    perp = np.arcsin(np.clip(np.abs(WD @ LD.T), 0.0, 1.0))
    F = LD[:, m:]
    fn = np.linalg.norm(F, axis=1)
    if n == 1:
        # any fiber sign realizes some multiple of the slice covector
        viol = perp.min(axis=1)
        worst = int(np.argmax(viol))
        worst_angle = float(viol[worst])
    else:
        etas = sampling.sphere_points(n, 64, 11)
        slice_viol = np.full((len(LD), len(etas)), math.pi / 2.0)
        flat = fn <= math.sin(tol)
        slice_viol[flat] = 0.0
        nz = ~flat
        if nz.any():
            c = np.abs((F[nz] / fn[nz, None]) @ etas.T)
            slice_viol[nz] = np.arccos(np.clip(c, -1.0, 1.0))
        worst_angle, worst = 0.0, 0
        for e in range(len(etas)):
            pair = np.maximum(perp, slice_viol[:, e][None, :])
            per_w = pair.min(axis=1)
            k = int(np.argmax(per_w))
            if per_w[k] > worst_angle:
                worst_angle, worst = float(per_w[k]), k
    report["worst_angle"] = worst_angle
    report["worst_direction"] = WD[worst].tolist()
    report["passed"] = worst_angle <= tol
    return report


def constant_cone_check(lam: FiberCone, c: float, m: int, n: int,
                        tol: float | None = None) -> dict:
    """Check the Lipschitz constant cone: every covector (xi, eta) in the
    estimate satisfies |xi| <= c |eta|, up to an angular slack."""
    LD = member_directions(as_sampled(lam))
    if tol is None:
        tol = 2.0 * max(lam.resolution(), sampling.grid_resolution(m + n))
    if len(LD) == 0:
        return {"passed": True, "worst_excess": 0.0, "constant": float(c)}
    xi = np.linalg.norm(LD[:, :m], axis=1)
    eta = np.linalg.norm(LD[:, m:], axis=1)
    excess = xi - c * eta
    worst = float(np.max(excess))
    return {"passed": worst <= math.sin(tol) * max(1.0, c),
            "worst_excess": worst, "constant": float(c)}


# ---------------------------------------------------------------------------
# epigraph split and the assembled estimate


def epigraph_split(f, x, ladder=None) -> tuple[FiberCone, FiberCone]:
    """(Lambda+, Lambda-): the conormal estimate split by fiber sign.

    Lambda+ collects covectors with nonnegative codomain component;
    Lambda- is exactly its antipode.
    """
    if f.n != 1:
        raise DimensionMismatchError("epigraph split needs a scalar target")
    lad = _resolved_ladder(f, ladder)
    if f.m == 1:
        lam = conormal_dimM1(f, x, lad)
        upper_half = FiberCone.from_arcs([(0.0, math.pi)])
        plus = intersect(lam, upper_half)
        return plus, antipodal(plus)
    lam = conormal_upper_bound(f, x, lad)
    V = member_directions(as_sampled(lam))
    keep = V[V[:, -1] >= -1e-12] if len(V) else V
    plus = FiberCone.from_directions(keep, f.m + 1,
                                     resolution=as_sampled(lam).rep.resolution) \
        if len(keep) else FiberCone.zero(f.m + 1)
    return plus, antipodal(plus)


def conormal(f, x, ladder=None, whitney: FiberCone | None = None) -> ConormalEstimate:
    """Assembled estimate: exact over 1-D domains, bracketed elsewhere.

    ``whitney`` is the graph Whitney cone of f at x when the caller has
    it already; otherwise it is computed here, once.  The exact conormal
    (its top) and the upper bound (``slice_top_intersection``) are both
    read off this one cone.
    """
    lad = _resolved_ladder(f, ladder)
    w = geometry.graph_whitney(f, x, lad) if whitney is None else whitney
    if f.m == 1:
        lam = top(w)
        return ConormalEstimate(lower=lam, upper=lam, regime="dimM1", exact=lam)
    upper = slice_top_intersection(w, f.m)
    if f.n == 1:
        lower = _epigraph_polar_lower(f, x, lad)
        check = conormal_lower_check(w, upper, f.m, f.n)
        est = ConormalEstimate(lower=lower, upper=upper, regime="dimN1")
        est.checks["lower_check"] = check
        est.checks["whitney_roundtrip_angle"] = float(
            hausdorff_angle(whitney_from_conormal_dimN1(upper), w))
        return est
    est = ConormalEstimate(lower=FiberCone.zero(f.m + f.n), upper=upper,
                           regime="bounds-only")
    return est


# ---------------------------------------------------------------------------
# closed sets and submanifolds


def closed_set_bounds(cloud: geometry.PointCloud, x, ladder: dini.ScaleLadder,
                      complement: geometry.PointCloud | None = None
                      ) -> tuple[FiberCone, FiberCone]:
    """Microsupport bracket of a sampled closed set at x.

    lower = polar(tangent cone), upper = polar(strict cone).  The strict
    cone needs samples of the complement; they are taken from a "B"
    label on the cloud when not passed explicitly, and without either
    the strict side degenerates to the absent-complement convention
    (full strict cone, zero upper bound only when warranted).
    """
    comp = complement
    if comp is None and cloud.labels is not None:
        labels = set(np.unique(cloud.labels))
        if {"A", "B"} <= labels:
            comp = cloud.subset("B")
            cloud = cloud.subset("A")
    lower = polar(geometry.tangent_cone(cloud, x, ladder))
    if comp is None:
        comp = geometry.PointCloud(np.full((1, cloud.dim), np.inf))
    upper = polar(geometry.strict_cone(cloud, comp, x, ladder))
    return lower, upper


def _local_dim_estimate(cloud: geometry.PointCloud, x,
                        ladder: dini.ScaleLadder) -> float:
    """Pair-count scaling estimate of the local dimension.

    Works inside a single deep shell so it is insensitive to how the
    sampling density varies with the distance to x; pair counts at
    scales well below the shell radius grow like s^dim.
    """
    x = np.asarray(x, dtype=float).reshape(cloud.dim)
    dist = np.linalg.norm(cloud.points - x, axis=1)
    radii = ladder.radii()
    shell = None
    for i in range(len(radii) - 1, 0, -1):
        mask = (dist > radii[i]) & (dist <= radii[i - 1])
        if int(mask.sum()) >= 160:
            shell = cloud.points[mask]
            r = radii[i - 1]
            break
    if shell is None:
        return float(cloud.dim)
    if len(shell) > 400:
        idx = np.linspace(0, len(shell) - 1, 400).astype(int)
        shell = shell[idx]
    d = np.linalg.norm(shell[:, None, :] - shell[None, :, :], axis=2)
    iu = np.triu_indices(len(shell), k=1)
    d = d[iu]
    slopes = []
    for s in (0.25 * r, 0.125 * r):
        hi = int(np.sum(d <= s))
        lo = int(np.sum(d <= s / 2.0))
        if lo >= 8:
            slopes.append(math.log2(hi / lo))
    return float(np.median(slopes)) if slopes else float(cloud.dim)


def subman_top_bound(cloud: geometry.PointCloud, x,
                     ladder: dini.ScaleLadder) -> tuple[FiberCone, dict]:
    """Microsupport upper bound for a sampled closed submanifold: the top
    of its self-Whitney cone, exact when the detected dimension is 1."""
    w = geometry.whitney_cone(cloud, cloud, x, ladder)
    dim_est = _local_dim_estimate(cloud, x, ladder)
    bound = top(w)
    return bound, {"exact": bool(round(dim_est) == 1), "dim_estimate": dim_est}
