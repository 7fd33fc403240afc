"""Pointwise classifiers and theorem-level checks on top of the cone layer.

geometry/conormal build the cones; this module asks them questions:
Lipschitz and strict-differentiability verdicts, first-order extrema with
Fermat verification, mean-value witnesses, chain-rule regularity, 1-D
monotonicity, and causal-morphism / time-function checks against cone
fields.  Everything returns plain dataclasses or dicts that the command
line can serialize.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import cones, conormal, dini, geometry, sampling
from .cones import ConicRelation, FiberCone
from .errors import DimensionMismatchError, EstimationError, ImproperConeError
from .funcs import FunctionHandle, compose_handles

__all__ = [
    "AnalysisReport",
    "classify_point",
    "fo_extremum",
    "mean_value_witness",
    "chain_rule_check",
    "monotone_classify_1d",
    "causal_check",
    "time_function_check",
]

# Angular slack for "this covector is exactly vertical".  Deliberately much
# tighter than the grid step: a submersivity failure should be pinned to the
# genuine degeneracy, not smeared over a resolution-sized interval.
STRICT_VERTICAL_TOL = 1e-4

# monotone template cones: quadrants {uv >= 0} and {uv <= 0}
_INC = FiberCone.from_arcs([(0.0, 0.5 * math.pi), (math.pi, 1.5 * math.pi)])
_DEC = FiberCone.from_arcs([(0.5 * math.pi, math.pi), (1.5 * math.pi, 2.0 * math.pi)])


# ---------------------------------------------------------------------------
# point classification


@dataclass
class AnalysisReport:
    point: list
    lipschitz: bool
    lipschitz_constant: float
    pointwise_lipschitz: float
    strictly_differentiable: bool
    derivative: list | None
    fo_extremum: str | None
    whitney_immersive: bool | None
    microlocally_submersive: bool | None
    whitney: FiberCone
    conormal: conormal.ConormalEstimate
    tolerances: dict
    ladder: dict
    checks: dict = field(default_factory=dict)


def _local_constant(w: FiberCone, m: int) -> float:
    """Local Lipschitz constant read off the graph Whitney cone W: the
    largest |fiber| / |domain| over its members.  +inf when W meets the
    vertical (``conormal.meets_vertical``, the test of the Lipschitz
    verdict); otherwise every member's domain part exceeds the sine of
    that slack, so the ratio is finite."""
    if conormal.meets_vertical(w, m):
        return math.inf
    V = cones.member_directions(w)
    if len(V) == 0:
        return 0.0
    return float((np.linalg.norm(V[:, m:], axis=1)
                  / np.linalg.norm(V[:, :m], axis=1)).max())


def classify_point(f: FunctionHandle, x, ladder: dini.ScaleLadder | None = None,
                   fo_tol: float = 1e-4) -> AnalysisReport:
    """Lipschitz / strict-differentiability report at a single point.

    Every moving-base number comes from the graph Whitney cone W, the
    point's one moving-base scan; every fixed-base one (the pointwise
    constant, the extremum tag, the lower bracket) from its Dini limits
    (``dini.fixed_bounds``).  A scalar map reads both off one slab scan
    (``geometry.whitney_and_bounds``), so f is sampled in one pass; a
    vector map adds a fixed-base scan.  The local constant is the largest
    slope of W's members (+inf when the vertical slice of W is
    nontrivial), floored by the pointwise constant, and Lipschitz holds
    iff that constant is finite.  Strict differentiability
    additionally needs W inside an m-dimensional subspace, detected by
    the relative singular-value gap of its members, and, as part of the
    verdict, that subspace must be the graph of a linear map: its domain
    block's smallest singular value must exceed the sine of the vertical
    slack.  That map is the derivative D, and at a strict point the local
    constant is its operator norm |D| (Rockafellar-Wets 9.13), still
    floored by the pointwise constant: W's largest slope reads low there
    by the spacing of its domain directions.
    The conormal-side verdict (no horizontal covector) is cross-checked in
    regimes where the conormal is trusted.
    """
    lad = conormal._resolved_ladder(f, ladder)
    x = np.asarray(x, dtype=float).reshape(f.m)
    w, fixed = geometry.whitney_and_bounds(f, x, lad)
    est = conormal.conormal(f, x, lad, whitney=w, bounds=fixed)
    vt = conormal.vertical_tol(w)
    lip_pw = dini.pointwise_lipschitz(fixed)
    lip = max(_local_constant(w, f.m), lip_pw)
    # the verdict reads the floored constant: a W with no member near the
    # vertical cannot overrule a blow-up that the fixed-base limits see
    lipschitz = math.isfinite(lip)

    checks: dict = {}
    dual = None
    if est.exact is not None:
        dual = not conormal.slice_nontrivial(est.exact, f.m, vt, "horizontal")
    elif est.regime == "dimN1":
        dual = not conormal.slice_nontrivial(
            est.upper, f.m, conormal.vertical_tol(est.upper), "horizontal")
        checks["dual_from_upper_bound"] = True
    if dual is not None:
        checks["conormal_lipschitz"] = bool(dual)
        checks["dual_agrees"] = bool(dual == lipschitz)

    strict = False
    deriv = None
    if lipschitz:
        V = cones.member_directions(w)
        if len(V):
            _, s, Q = np.linalg.svd(V, full_matrices=False)
            gap = float(s[f.m] / s[0]) if len(s) > f.m and s[0] > 0 else 0.0
            checks["subspace_gap"] = gap
            # the span of the top m right singular vectors is a graph when
            # it is m-dimensional and none of its unit vectors lies within
            # vt of the vertical, the slack the Lipschitz verdict gives W's
            # members.  Then its domain block A is square with every
            # singular value above sin(vt) > 0, so the solve cannot fail.
            A, B = Q[:f.m, :f.m], Q[:f.m, f.m:]
            strict = (gap < math.sin(vt) and len(A) == f.m
                      and np.linalg.svd(A, compute_uv=False)[-1] > math.sin(vt))
            if strict:
                # each row (a, b) of the span has D a = b, so A D^T = B
                deriv = np.linalg.solve(A, B).T
                lip = max(float(np.linalg.norm(deriv, 2)), lip_pw)
    checks["dini_local_constant"] = float(lip)

    fo = None
    if f.n == 1:
        fo = fo_extremum(f, x, lad, tol=fo_tol, whitney=w, bounds=fixed)["tag"]
        if fo == "stationary" and deriv is not None and np.abs(deriv).max() <= 1e-4:
            deriv = np.zeros_like(deriv)

    immersive = submersive = None
    if f.m == 1 and f.n == 1:
        immersive = not conormal.slice_nontrivial(w, 1, vt, "horizontal")
        submersive = not conormal.slice_nontrivial(est.exact, 1, STRICT_VERTICAL_TOL,
                                                   "vertical")

    return AnalysisReport(
        point=x.tolist(),
        lipschitz=bool(lipschitz),
        lipschitz_constant=float(lip),
        pointwise_lipschitz=float(lip_pw),
        strictly_differentiable=bool(strict),
        derivative=None if deriv is None else deriv.tolist(),
        fo_extremum=fo,
        whitney_immersive=immersive,
        microlocally_submersive=submersive,
        whitney=w,
        conormal=est,
        tolerances={"vertical": vt, "strict_vertical": STRICT_VERTICAL_TOL},
        ladder=asdict(lad),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# first-order extrema


def fo_extremum(f: FunctionHandle, x, ladder: dini.ScaleLadder | None = None,
                tol: float = 1e-4, whitney: FiberCone | None = None,
                bounds: dini.FixedBounds | None = None) -> dict:
    """Radial first-order extremum tag with Fermat verification.

    The tag comes from the liminf/limsup of (f(x+v)-f(x))/|v|, the extreme
    fixed-base Dini limits ``bounds``; on a hit the Fermat
    inclusions (horizontal tangents inside W, vertical covector inside the
    conormal where exact) are verified within 2 rho.  ``whitney`` (W) and
    ``bounds`` are computed here unless the caller has them already; both
    at once where neither is given, from the one slab scan of a scalar map.
    """
    if f.n != 1:
        raise DimensionMismatchError("extremum classification needs a scalar function")
    lad = conormal._resolved_ladder(f, ladder)
    x = np.asarray(x, dtype=float).reshape(f.m)
    if bounds is None and whitney is None:
        whitney, bounds = geometry.whitney_and_bounds(f, x, lad)
    elif bounds is None:
        bounds = dini.fixed_bounds(f, x, lad)
    d_lo, d_hi = float(bounds.lows.min()), float(bounds.highs.max())
    is_min = d_lo >= -tol
    is_max = d_hi <= tol
    tag = ("stationary" if is_min and is_max else
           "min" if is_min else "max" if is_max else "none")
    out = {"tag": tag, "radial_low": float(d_lo), "radial_high": float(d_hi),
           "tolerance": tol}
    if tag == "none":
        return out

    w = geometry.graph_whitney(f, x, lad) if whitney is None else whitney
    ft = conormal.vertical_tol(w)
    base = dini._direction_grid(f.m, 64)
    worst = cones.directed_angle(FiberCone.from_directions(
        np.hstack([base, np.zeros((len(base), 1))]), f.m + 1), w)
    fermat = {"whitney_horizontal": bool(worst <= ft),
              "worst_angle": float(worst), "tolerance": ft}
    if f.m == 1:
        lam = cones.top(w)  # the exact conormal over a 1-D domain
        vgap = cones.directed_angle(
            FiberCone.from_directions([[0.0, 1.0], [0.0, -1.0]], 2), lam)
        fermat["conormal_vertical"] = bool(vgap <= ft)
        fermat["conormal_angle"] = float(vgap)
    out["fermat"] = fermat
    return out


# ---------------------------------------------------------------------------
# mean value witnesses


def _mv_ladder(template: dini.ScaleLadder, width: float, k_max: int):
    t0 = max(2.0 * width, 1e-6)
    return dini.ScaleLadder(t0=t0, ratio=template.ratio, k_min=0, k_max=k_max,
                            seed=template.seed)


def mean_value_witness(f: FunctionHandle, a, b, eta0: float = 1.0,
                       ladder: dini.ScaleLadder | None = None,
                       tol: float | None = None, grid: int = 256,
                       depth: int = 8) -> list[dict]:
    """Scan [a,b] for points whose conormal meets the chord perpendicular.

    Scoring runs on a 256-point grid and trisects around the local minima of
    the violation angle; every probe uses a ladder whose scales track the
    current grid spacing, so isolated witnesses (the kink of |.|) stay
    visible at every refinement level.  Returns all passing witnesses sorted
    by angle; the reported covector is the chord-perpendicular representative
    with sign fixed by ``eta0``, and ``angle`` is its angular distance from
    the measured conormal.  An empty result at full refinement is an
    estimation failure, not a refutation.
    """
    if f.n != 1:
        raise DimensionMismatchError("mean value witnesses need a scalar function")
    a = np.asarray(a, dtype=float).reshape(f.m)
    b = np.asarray(b, dtype=float).reshape(f.m)
    gap = float(np.linalg.norm(b - a))
    if gap <= 0.0:
        raise ValueError("need two distinct endpoints")
    template = dini.ScaleLadder() if ladder is None else ladder
    fa = float(f(a[None, :])[0, 0])
    fb = float(f(b[None, :])[0, 0])
    chord = np.concatenate([b - a, [fb - fa]])
    chord_hat = chord / np.linalg.norm(chord)
    if tol is None:
        tol = 2.0 * sampling.grid_resolution(max(2, f.m + 1))
    sgn = math.copysign(1.0, eta0)

    def probe(s: float, lad) -> tuple[float, np.ndarray]:
        c = a + s * (b - a)
        w = geometry.graph_whitney(f, c, lad.for_handle(f))
        # the exact conormal over a 1-D domain, its upper bound above that
        lam = conormal.slice_top_intersection(w, f.m)
        if lam.is_zero():
            return math.pi / 2.0, None
        if f.m == 1:
            arcs = cones.as_arcs(lam).rep.arcs
            perp = math.atan2(chord_hat[0], -chord_hat[1])
            ang = float(cones.arcs_point_distance(
                arcs, np.array([perp, perp + math.pi])).min())
            nu = np.array([fb - fa, a[0] - b[0]])
            return ang, sgn * nu / np.linalg.norm(nu)
        V = cones.member_directions(lam)
        dots = V @ chord_hat
        i = int(np.argmin(np.abs(dots)))
        nu = V[i] if V[i, -1] * eta0 <= 0 else -V[i]
        return float(math.asin(min(1.0, abs(float(dots[i]))))), nu

    # coarse pass: shallow ladders keep narrow witnesses visible between nodes
    ss = np.linspace(0.0, 1.0, grid)
    h0 = 1.0 / (grid - 1)
    lad0 = _mv_ladder(template, h0 * gap, k_max=2)
    coarse = [probe(s, lad0) for s in ss]
    angles = np.array([c[0] for c in coarse])

    minima = [i for i in range(grid)
              if angles[i] <= (angles[i - 1] if i else math.inf)
              and angles[i] <= (angles[i + 1] if i + 1 < grid else math.inf)]
    minima.sort(key=lambda i: angles[i])

    witnesses = []
    refined_params = []
    for i in minima[:4]:
        lo, hi = max(0.0, ss[i] - h0), min(1.0, ss[i] + h0)
        for _ in range(depth):
            lad = _mv_ladder(template, (hi - lo) * gap, k_max=3)
            samples = np.linspace(lo, hi, 9)
            vals = [probe(s, lad) for s in samples]
            va = np.array([v[0] for v in vals])
            # median of the near-minimal nodes: self-centering on flat valleys
            near = np.where(va <= va.min() + 1e-12)[0]
            centre = float(samples[near[len(near) // 2]])
            third = (hi - lo) / 3.0
            lo, hi = max(0.0, centre - third), min(1.0, centre + third)
        s_fin = 0.5 * (lo + hi)
        lad_fin = _mv_ladder(template, (hi - lo) * gap, k_max=3)
        ang, nu = probe(s_fin, lad_fin)
        if ang <= tol and nu is not None:
            c = a + s_fin * (b - a)
            witnesses.append({"c": float(c[0]) if f.m == 1 else c.tolist(),
                              "nu": nu.tolist(), "angle": float(ang),
                              "scale": lad_fin.t0, "refined": True})
            refined_params.append(s_fin)

    for i in range(grid):
        if angles[i] > tol or coarse[i][1] is None:
            continue
        if any(abs(ss[i] - s) <= h0 for s in refined_params):
            continue
        c = a + ss[i] * (b - a)
        witnesses.append({"c": float(c[0]) if f.m == 1 else c.tolist(),
                          "nu": coarse[i][1].tolist(), "angle": float(angles[i]),
                          "scale": lad0.t0, "refined": False})

    witnesses.sort(key=lambda wd: (wd["angle"], not wd["refined"]))
    if not witnesses:
        raise EstimationError(
            "no mean-value witness at full refinement "
            f"(best violation angle {angles.min():.4f} rad)")
    return witnesses


# ---------------------------------------------------------------------------
# chain rule


def _middle_match(w1: FiberCone, w2: FiberCone, m1: int, m2: int) -> bool:
    """A shared middle direction witnessing (W1 x 0) cap (0 x W2) != 0."""
    V1, V2 = cones.member_directions(w1), cones.member_directions(w2)
    if len(V1) == 0 or len(V2) == 0:
        return False
    t1, t2 = conormal.vertical_tol(w1), conormal.vertical_tol(w2)
    dom1 = np.linalg.norm(V1[:, :m1], axis=1)
    A = V1[dom1 <= math.sin(t1), m1:]
    fib2 = np.linalg.norm(V2[:, m2:], axis=1)
    B = V2[fib2 <= math.sin(t2), :m2]
    if len(A) == 0 or len(B) == 0:
        return False
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    B = B / np.linalg.norm(B, axis=1, keepdims=True)
    # Whitney cones are symmetric, so matching up to sign is enough
    return bool((np.abs(A @ B.T) >= math.cos(t1 + t2)).any())


def chain_rule_check(f1: FunctionHandle, f2: FunctionHandle, x,
                     ladder: dini.ScaleLadder | None = None) -> dict:
    """Whitney regularity and the chain-rule inclusion for f2 after f1.

    Regularity = no nonzero middle direction lies in both the vertical slice
    of W_{f1} and the kernel slice of W_{f2}.  The inclusion
    W_{f2 o f1} within W_{f1} o W_{f2} is tested by sampled composition;
    equality is asserted only for regular pairs whose outer factor carries
    the declared ``c1`` flag.
    """
    if f1.n != f2.m:
        raise DimensionMismatchError("f2 must consume the output of f1")
    h = compose_handles(f1, f2)
    x = np.asarray(x, dtype=float).reshape(f1.m)
    y = f1(x[None, :])[0]
    w1 = geometry.graph_whitney(f1, x, conormal._resolved_ladder(f1, ladder))
    w2 = geometry.graph_whitney(f2, y, conormal._resolved_ladder(f2, ladder))
    wh = geometry.graph_whitney(h, x, conormal._resolved_ladder(h, ladder))
    comp = cones.compose(ConicRelation(f1.m, f1.n, w1),
                         ConicRelation(f2.m, f2.n, w2))
    regular = not _middle_match(w1, w2, f1.m, f2.m)
    tol = 2.0 * max(wh.resolution(), comp.cone.resolution(),
                    sampling.grid_resolution(max(2, f1.m + f2.n)))
    worst = cones.directed_angle(wh, comp.cone)
    inclusion = worst <= tol
    overshoot = cones.directed_angle(comp.cone, wh)
    out = {
        "regular": bool(regular),
        "inclusion_holds": bool(inclusion),
        "worst_angle": float(worst),
        "strict_inclusion": bool(inclusion and overshoot > tol),
        "overshoot_angle": float(overshoot),
        "tolerance": float(tol),
        "composite_members": int(len(cones.member_directions(comp.cone))),
        "equality_checked": False,
    }
    if regular and f2.meta.get("c1"):
        # hausdorff_angle(wh, comp.cone) from the two directed angles
        eq = (math.inf if wh.is_zero() != comp.cone.is_zero()
              else max(worst, overshoot))
        out["equality_checked"] = True
        out["equality_angle"] = float(eq)
        out["equality_holds"] = bool(eq <= tol)
    return out


# ---------------------------------------------------------------------------
# monotonicity in one dimension


def _arcs_margin(child, parent) -> float:
    """Smallest distance from the child to the complement of the parent:
    0 where they meet, otherwise that of the nearest child endpoint."""
    comp = cones.arcs_complement(parent)
    if not comp or not child:
        return math.pi
    if cones.arcs_intersect(child, comp):
        return 0.0
    return float(cones.arcs_point_distance(comp, np.ravel(child)).min())


def monotone_classify_1d(f: FunctionHandle, interval,
                         ladder: dini.ScaleLadder | None = None,
                         grid: int = 41) -> dict:
    """Monotonicity tag on an interval from the pointwise Whitney cones.

    Non-decreasing means W stays inside the quadrant pair {uv >= 0} at every
    grid point (the conormal then sits in {xi eta <= 0} automatically by
    duality); the strict tag needs a uniform interior margin, which also
    rules out vertical and horizontal members, hence the Lipschitz-embedding
    reading.  Immersivity/submersivity failures are collected per point.
    """
    if f.m != 1 or f.n != 1:
        raise DimensionMismatchError("monotone classification is one dimensional")
    lo, hi = float(interval[0]), float(interval[1])
    xs = np.linspace(lo, hi, grid)
    lad = conormal._resolved_ladder(f, ladder)
    per = []
    for c in xs:
        w = geometry.graph_whitney(f, np.array([c]), lad)
        lam = cones.top(w)
        arcs_w = cones.as_arcs(w).rep.arcs
        tol = conormal.vertical_tol(w)
        inc_worst = cones.directed_angle(w, _INC)
        inc = inc_worst <= tol
        dec = cones.directed_angle(w, _DEC) <= tol
        margin_inc = _arcs_margin(arcs_w, _INC.rep.arcs)
        margin_dec = _arcs_margin(arcs_w, _DEC.rep.arcs)
        per.append({
            "x": float(c),
            "non_decreasing": bool(inc),
            "non_increasing": bool(dec),
            "strictly_increasing": bool(inc and margin_inc > tol),
            "strictly_decreasing": bool(dec and margin_dec > tol),
            "whitney_immersive": not conormal.slice_nontrivial(w, 1, tol, "horizontal"),
            "microlocally_submersive": not conormal.slice_nontrivial(
                lam, 1, STRICT_VERTICAL_TOL, "vertical"),
            "angle_excess": float(inc_worst),
        })

    def _all(key):
        return all(p[key] for p in per)

    if _all("non_decreasing"):
        tag = ("strictly-increasing-embedding"
               if _all("strictly_increasing") else "non-decreasing")
    elif _all("non_increasing"):
        tag = ("strictly-decreasing-embedding"
               if _all("strictly_decreasing") else "non-increasing")
    else:
        tag = "none"
    return {
        "tag": tag,
        "interval": [lo, hi],
        "per_point": per,
        "immersion_failures": [p["x"] for p in per if not p["whitney_immersive"]],
        "submersion_failures": [p["x"] for p in per
                                if not p["microlocally_submersive"]],
    }


# ---------------------------------------------------------------------------
# causal morphisms


def _field_value(spec, point, dim: int) -> FiberCone:
    g = spec(np.asarray(point, dtype=float)) if callable(spec) else spec
    if not isinstance(g, FiberCone):
        raise TypeError("cone field must yield FiberCone values")
    if g.dim != dim:
        raise DimensionMismatchError(
            f"cone field has dim {g.dim}, expected {dim}")
    if g.is_zero():
        raise ImproperConeError("cone field value is the zero cone")
    if cones.contains_line(g):
        raise ImproperConeError("cone field value contains a line")
    return g


def _dual_causal(lam: FiberCone, gm: FiberCone, gn: FiberCone, m: int,
                 tol: float) -> dict:
    gm_polar = cones.polar(gm)
    gn_polar = cones.polar(gn)
    V = cones.member_directions(lam)
    nx = cones._row_norms(V[:, :m])
    ne = cones._row_norms(V[:, m:])
    # members whose -eta leaves the polar of gamma_N need no check
    ask = ne > math.sin(tol)
    flip = -V[ask, m:] / ne[ask, None]
    skip = np.zeros(len(V), dtype=bool)
    skip[ask] = ~cones._contains_rows(gn_polar, flip, cones._row_norms(flip), tol)
    xi = FiberCone.from_directions(V[~skip & (nx > math.sin(tol)), :m], m)
    worst = cones.directed_angle(xi, gm_polar)
    return {"dual_checked": True, "dual_ok": bool(worst <= tol),
            "dual_worst_angle": float(worst)}


def _causal_entry(f: FunctionHandle, gamma_m, gamma_n, p, lad,
                  tol: float | None) -> tuple[dict, FiberCone, FiberCone]:
    """The per-point verdict of ``causal_check``, the graph Whitney cone
    of f at p that it was read from, and gamma_M at p."""
    p = p.reshape(f.m)
    gm = _field_value(gamma_m, p, f.m)
    y = f(p[None, :])[0]
    gn = _field_value(gamma_n, y, f.n)
    w = geometry.graph_whitney(f, p, lad)
    ptol = tol if tol is not None else 2.0 * max(
        w.resolution(), gn.resolution(),
        sampling.grid_resolution(max(2, f.n)))
    # image membership filtered at half the verdict tolerance so a
    # boundary direction cannot land exactly on the pass/fail line
    img = cones.apply_relation(gm, ConicRelation(f.m, f.n, w), tol=0.5 * ptol)
    worst = cones.directed_angle(img, gn)
    lip = _local_constant(w, f.m)
    entry = {
        "point": p.tolist(),
        "causal": bool(worst <= ptol),
        "worst_angle": float(worst),
        "tolerance": float(ptol),
        "lipschitz": bool(math.isfinite(lip)),
        "lipschitz_constant": float(lip),
        "dual_checked": False,
    }
    if f.m == 1 and f.n == 1:
        # the exact conormal over a 1-D domain
        entry.update(_dual_causal(cones.top(w), gm, gn, f.m, ptol))
    return entry, w, gm


def causal_check(f: FunctionHandle, gamma_m, gamma_n, points,
                 ladder: dini.ScaleLadder | None = None,
                 tol: float | None = None) -> dict:
    """cl(gamma_M) o W_f inside cl(gamma_N) at each sample point.

    Cone fields are FiberCone constants or callables point -> FiberCone and
    must be proper (nonzero, no full line).  In the exact scalar regime the
    dual covector form is cross-checked through the twisted slice of the
    conormal.  Lipschitz status rides along because a causal map must be
    Lipschitz.
    """
    lad = conormal._resolved_ladder(f, ladder)
    per = [_causal_entry(f, gamma_m, gamma_n, p, lad, tol)[0]
           for p in np.atleast_2d(np.asarray(points, dtype=float))]
    return {
        "causal": all(e["causal"] for e in per),
        "per_point": per,
        "lipschitz_when_causal": all(
            e["lipschitz"] for e in per if e["causal"]),
    }


def time_function_check(tau: FunctionHandle, gamma_m, points,
                        ladder: dini.ScaleLadder | None = None,
                        tol: float | None = None) -> dict:
    """Causal into (R, positive ray) plus microlocal submersivity.

    A time function must push gamma_M strictly forward in time and admit no
    purely vertical covector in its conormal at any sample point.
    """
    if tau.n != 1:
        raise DimensionMismatchError("time functions are scalar valued")
    gamma_r = FiberCone.from_directions(np.array([[1.0]]), 1, resolution=1e-9)
    lad = conormal._resolved_ladder(tau, ladder)
    per = []
    for p in np.atleast_2d(np.asarray(points, dtype=float)):
        entry, w, gm = _causal_entry(tau, gamma_m, gamma_r, p, lad, tol)
        # the exact conormal over a 1-D domain, its upper bound above that
        lam = conormal.slice_top_intersection(w, tau.m)
        sub_tol = (STRICT_VERTICAL_TOL if tau.m == 1
                   else conormal.vertical_tol(lam))
        submersive = not conormal.slice_nontrivial(lam, tau.m, sub_tol, "vertical")
        img = cones.apply_relation(gm, ConicRelation(tau.m, 1, w))
        strict_ok = not cones.contains(img, np.array([-1.0]),
                                       tol=entry["tolerance"])
        per.append({**entry,
                    "microlocally_submersive": bool(submersive),
                    "strict_image_positive": bool(strict_ok),
                    "time_function": bool(entry["causal"] and submersive
                                          and strict_ok)})
    return {
        "time_function": all(e["time_function"] for e in per),
        "causal": all(e["causal"] for e in per),
        "per_point": per,
    }
