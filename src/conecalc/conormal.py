"""Conormal estimation through cone duality.

The conormal of a map is computed exactly in two regimes.  Over a
one-dimensional domain it is the perpendicular union (top) of the graph
Whitney cone; over a one-dimensional codomain the Whitney cone is
conversely recovered as the top of the conormal, which pins the
conormal between computable brackets.  Everywhere else the estimate is
a bracket: an upper bound intersecting the tops of directional Whitney
slices over a grid of domain directions, and a lower bound from the
polar of the hypograph's tangent cone, read reflected and joined with
its antipode (scalar targets only; the zero cone otherwise).

Closed point sets get the microsupport bracket [polar of the tangent
cone, polar of the strict tangent cone].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dini, geometry, sampling
from .cones import (Arcs2D, FiberCone, antipodal, arcs_intersect,
                    arcs_point_distance, as_arcs, hausdorff_angle, join,
                    member_directions, min_dots, polar, top)
from .errors import DimensionMismatchError

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
# upper bound: intersection of directional slice tops


def vertical_tol(cone: FiberCone) -> float:
    """Angular slack of the Lipschitz verdict: twice the coarser of the
    cone's resolution and its fiber grid's."""
    return 2.0 * max(cone.resolution(), sampling.grid_resolution(cone.dim))


def slice_nontrivial(cone: FiberCone, m: int, tol: float, part: str) -> bool:
    """Does the cone meet {domain part = 0} ("vertical") or {fiber part = 0}
    ("horizontal") away from the origin, up to angular slack ``tol``?"""
    if cone.dim == 2 and m == 1:
        arcs = as_arcs(cone).rep.arcs
        if not arcs:
            return False
        half = 0.5 * math.pi
        probes = (half, 3 * half) if part == "vertical" else (0.0, math.pi)
        return bool((arcs_point_distance(arcs, np.array(probes)) <= tol).any())
    V = member_directions(cone)
    if len(V) == 0:
        return False
    gone = V[:, :m] if part == "vertical" else V[:, m:]
    return bool((np.linalg.norm(gone, axis=1) <= math.sin(min(tol, 0.5 * math.pi))).any())


def meets_vertical(w: FiberCone, m: int) -> bool:
    """Whether the graph Whitney cone W of a map on R^m meets the vertical
    within ``vertical_tol(w)``: the test of the Lipschitz verdict."""
    return slice_nontrivial(w, m, vertical_tol(w), "vertical")


def _thin_slack(dim: int) -> float:
    """Angular slack for a set with no spread (a line, a ray) to reach the
    fiber grid: its spacing, or its covering radius where that is wider."""
    return max(sampling.grid_resolution(dim), sampling.covering_radius(dim))


def slice_top_intersection(w: FiberCone, m: int) -> FiberCone:
    """The upper-bound construction on an already-computed Whitney cone.

    Over a line it is W's top, the exact conormal.  Over a domain of two
    or more dimensions, a W that meets the vertical (``meets_vertical``)
    has a near-vertical member in every slice, so every slice top holds
    the horizontal covectors and the map is not Lipschitz there: the
    bound is answered as the full cone.
    """
    d = w.dim
    if d - m < 1:
        raise DimensionMismatchError("product fiber smaller than the domain part")
    if m == 1:
        return top(w)
    V = member_directions(w)
    if len(V) == 0:
        return FiberCone.zero(d)
    if meets_vertical(w, m):
        return FiberCone.full(d)
    U = dini._direction_grid(m)
    rho = max(w.resolution(), sampling.grid_resolution(d))
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
    thr = math.sin(max(rho, _thin_slack(d)))
    alive = np.arange(len(grid))
    cos_hw = math.cos(hw)
    for u in U:
        sel = vanishing | (Pu @ u >= cos_hw)
        if not sel.any():
            # an empty slice is a sampling artifact; skipping it only
            # loosens the intersection, which stays a valid upper bound
            continue
        alive = alive[min_dots(grid[alive], V[sel], absolute=True) <= thr]
        if len(alive) == 0:
            break
    return FiberCone.from_directions(grid[alive], d,
                                     resolution=sampling.grid_resolution(d))


# ---------------------------------------------------------------------------
# lower information


def _epigraph_tangent(bounds: dini.FixedBounds) -> FiberCone:
    """The antipode of the hypograph's tangent cone {(v, s) : s <=
    D+f(x; v)}, D+ the upper Dini derivative of the fixed-base limits,
    whose rows are -u: over each domain direction u, t >= -D+f(x; -u).  Only
    for a moving base would that be the lower derivative along u, and
    this the epigraph's tangent cone.

    Only ``polar`` reads this cone, so each fan is sampled at eighth-turn
    steps: a row that clears the polar's slack at both ends of such a
    piece stays within 1/cos(pi/8) times it inside.  ``conormal`` answers
    m = 1 exactly, so m >= 2 here.
    """
    m = bounds.rows.shape[1]
    up = np.concatenate([np.zeros(m), [1.0]])[None, :]
    lows = -bounds.highs
    keep = ~(lows > dini.DIVERGENCE_CAP)
    p1 = [math.atan(lo) if abs(lo) <= dini.DIVERGENCE_CAP else -math.pi / 2.0
          for lo in lows[keep].tolist()]
    fans = geometry.fan(-bounds.rows[keep], p1, math.pi / 2.0, math.pi / 4.0)
    return FiberCone.from_directions(np.vstack([up, fans]), m + 1)


def _epigraph_polar_lower(bounds: dini.FixedBounds) -> FiberCone:
    """Covectors of the lower bracket: the polar of the hypograph's
    tangent cone (``_epigraph_tangent``, reflected) joined with its
    antipode.  It is zero at a convex kink such as abs(x1)+x2 at 0."""
    ct = _epigraph_tangent(bounds)
    # low-dimensional polars (rays, lines) have no interior on the sphere,
    # so the membership slack must cover the ambient grid's covering radius
    pc = polar(ct, slack=_thin_slack(ct.dim))
    return join(pc, antipodal(pc))


def conormal_lower_check(w: FiberCone, lam: FiberCone) -> dict:
    """Verify that every Whitney direction of a graph with a scalar target
    admits a perpendicular covector in the conormal estimate.

    With one codomain dimension either fiber sign realizes some multiple
    of a perpendicular covector, so the angle from perpendicularity alone
    decides.  Pure verification; reports the worst violation angle
    instead of modifying either cone, and passes when it is at most twice
    the coarsest of the two cones' resolutions and the fiber grid's.
    """
    if w.dim != lam.dim:
        raise DimensionMismatchError("cones do not share the product fiber")
    WD = member_directions(w)
    LD = member_directions(lam)
    tol = 2.0 * max(w.resolution(), lam.resolution(),
                    sampling.grid_resolution(w.dim))
    report = {"passed": True, "worst_angle": 0.0, "worst_direction": None,
              "tolerance": float(tol), "w_count": int(len(WD)),
              "lambda_count": int(len(LD))}
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
    # angle of each w from perpendicularity to its nearest covector; arcsin
    # is non-decreasing, so it is the arcsin of the smallest |<w, lambda>|
    viol = np.arcsin(np.clip(min_dots(WD, LD, absolute=True), 0.0, 1.0))
    worst = int(np.argmax(viol))
    report["worst_angle"] = float(viol[worst])
    report["worst_direction"] = WD[worst].tolist()
    report["passed"] = report["worst_angle"] <= tol
    return report


def constant_cone_check(lam: FiberCone, c: float, m: int, n: int,
                        tol: float | None = None) -> dict:
    """Check the Lipschitz constant cone: every covector (xi, eta) in the
    estimate satisfies |xi| <= c |eta|, up to an angular slack."""
    LD = member_directions(lam)
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


def epigraph_split(lam: FiberCone, n: int) -> tuple[FiberCone, FiberCone]:
    """(Lambda+, Lambda-): a conormal estimate of a map with n outputs
    split by fiber sign.

    Lambda+ collects covectors with nonnegative codomain component;
    Lambda- is exactly its antipode.
    """
    if n != 1:
        raise DimensionMismatchError("epigraph split needs a scalar target")
    if lam.dim == 2:
        plus = FiberCone(2, Arcs2D(arcs_intersect(as_arcs(lam).rep.arcs,
                                                  [(0.0, math.pi)])))
        return plus, antipodal(plus)
    V = member_directions(lam)
    keep = V[V[:, -1] >= -1e-12] if len(V) else V
    plus = FiberCone.from_directions(keep, lam.dim,
                                     resolution=lam.resolution()) \
        if len(keep) else FiberCone.zero(lam.dim)
    return plus, antipodal(plus)


def conormal(f, x, ladder=None, whitney: FiberCone | None = None,
             bounds: dini.FixedBounds | None = None) -> ConormalEstimate:
    """Assembled estimate: exact over 1-D domains, bracketed elsewhere.

    ``whitney`` (the graph Whitney cone W of f at x) and ``bounds`` (its
    ``dini.fixed_bounds``) are computed here, where read, unless the
    caller has them; both at once for a scalar map given neither
    (``geometry.whitney_and_bounds``).  The exact conormal (W's top) and the upper bound
    (``slice_top_intersection``) are read off W, the same cone over a
    line; the lower bracket of a scalar map, off ``bounds``.
    """
    lad = _resolved_ladder(f, ladder)
    if whitney is None and bounds is None and f.n == 1:
        whitney, bounds = geometry.whitney_and_bounds(f, x, lad)
    w = geometry.graph_whitney(f, x, lad) if whitney is None else whitney
    upper = slice_top_intersection(w, f.m)
    if f.m == 1:
        return ConormalEstimate(lower=upper, upper=upper, regime="dimM1",
                                exact=upper)
    if f.n == 1:
        if bounds is None:
            bounds = dini.fixed_bounds(f, x, lad)
        lower = _epigraph_polar_lower(bounds)
        check = conormal_lower_check(w, upper)
        est = ConormalEstimate(lower=lower, upper=upper, regime="dimN1")
        est.checks["lower_check"] = check
        est.checks["whitney_roundtrip_angle"] = float(
            hausdorff_angle(top(upper), w))
        return est
    est = ConormalEstimate(lower=FiberCone.zero(f.m + f.n), upper=upper,
                           regime="bounds-only")
    return est


# ---------------------------------------------------------------------------
# closed sets


def closed_set_bounds(tangent: FiberCone, strict: FiberCone
                      ) -> tuple[FiberCone, FiberCone]:
    """Microsupport bracket of a sampled closed set at a point, from its
    tangent cone and its strict cone there (``geometry.tangent_cone`` and
    ``geometry.strict_cone``): lower = polar(tangent), upper =
    polar(strict).  Without a complement the strict cone is full and the
    upper bound is the zero cone.
    """
    return polar(tangent), polar(strict)

