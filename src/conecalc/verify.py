"""Property suite: randomized and fixture-based checks of the cone calculus.

Each property is a named callable seed -> result dict; `run_suite` collects
them into the pass/fail matrix that `conecalc verify` serializes.  The suite
doubles as the oracle layer for the acceptance tests, so tolerances here are
the binding ones.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, cones, conormal, dini, funcs, geometry, sampling
from .cones import ConicRelation, FiberCone

__all__ = ["PROPERTIES", "run_suite"]

PROPERTIES: dict = {}


def _prop(name):
    def deco(fn):
        PROPERTIES[name] = fn
        return fn
    return deco


def _result(passed, worst, tolerance, cases, **extra):
    out = {"passed": bool(passed), "worst": float(worst),
           "tolerance": float(tolerance), "cases": int(cases)}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# randomized algebraic properties


@_prop("bipolarity")
def _bipolarity(seed: int) -> dict:
    """polar(polar(C)) = C within 2 rho on convex sampled cones in R^3.

    C is the sampled bipolar polar(polar(S)) of 2-5 random directions S,
    the kind of convex cone the commands compute, and rho is the 3-D grid
    resolution.  When S lies in no closed halfspace, its polar is the zero
    cone and C is the full cone, so those cases check the zero and full
    cones too.
    """
    rng = np.random.default_rng(sampling.child_seed(seed, 101))
    tol = 2.0 * sampling.grid_resolution(3)
    worst = 0.0
    for _ in range(16):
        k = int(rng.integers(2, 6))
        s = FiberCone.from_directions(rng.standard_normal((k, 3)), 3)
        c = cones.polar(cones.polar(s))
        worst = max(worst,
                    cones.hausdorff_angle(cones.polar(cones.polar(c)), c))
    return _result(worst <= tol, worst, tol, 16)


def _random_symmetric_arcs(rng) -> FiberCone:
    k = int(rng.integers(1, 4))
    cuts = np.sort(rng.uniform(0.0, math.pi, 2 * k))
    arcs = []
    for i in range(k):
        a, b = cuts[2 * i], cuts[2 * i + 1]
        if b - a < 0.02:
            b = min(a + 0.02, math.pi)
        arcs.append((a, b))
        arcs.append((a + math.pi, b + math.pi))
    return FiberCone.from_arcs(arcs)


@_prop("top-involution")
def _top_involution(seed: int) -> dict:
    """top(top(A)) = A on random symmetric plane cones, within a grid step."""
    rng = np.random.default_rng(sampling.child_seed(seed, 103))
    tol = sampling.grid_resolution(2)
    worst = 0.0
    for _ in range(50):
        a = _random_symmetric_arcs(rng)
        worst = max(worst, cones.hausdorff_angle(cones.top(cones.top(a)), a))
    return _result(worst <= tol + 1e-9, worst, tol, 50)


def _sampled_graph_relation(L: np.ndarray) -> ConicRelation:
    u = sampling.unit_grid(2)
    rows = np.hstack([u, u @ L.T])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    cone = FiberCone.from_directions(rows, 4,
                                     resolution=sampling.grid_resolution(2))
    return ConicRelation(2, 2, cone)


def _random_linear_map(rng) -> np.ndarray:
    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)],
                         [math.sin(t), math.cos(t)]])
    d = rng.uniform(0.7, 1.4)
    return rot(rng.uniform(0, math.tau)) @ np.diag([1.0, d]) @ rot(
        rng.uniform(0, math.tau))


@_prop("compose-associativity")
def _compose_assoc(seed: int) -> dict:
    """(R1 o R2) o R3 = R1 o (R2 o R3) on random sampled relation triples.

    The triples are sampled graphs of well conditioned linear maps, where
    the exact composite is known and both association orders must land on
    it; mismatch beyond one ambient grid step fails.
    """
    rng = np.random.default_rng(sampling.child_seed(seed, 107))
    tol = sampling.grid_resolution(4)
    worst = 0.0
    anchor = 0.0
    for _ in range(20):
        maps = [_random_linear_map(rng) for _ in range(3)]
        rels = [_sampled_graph_relation(L) for L in maps]
        left = cones.compose(cones.compose(rels[0], rels[1]), rels[2])
        right = cones.compose(rels[0], cones.compose(rels[1], rels[2]))
        worst = max(worst, cones.hausdorff_angle(left.cone, right.cone))
        # nonvacuity: the composite must land on the known product graph
        true = _sampled_graph_relation(maps[2] @ maps[1] @ maps[0])
        anchor = max(anchor, cones.hausdorff_angle(left.cone, true.cone))
    return _result(worst <= tol + 1e-9 and anchor <= tol, worst, tol, 20,
                   anchor=float(anchor))


# ---------------------------------------------------------------------------
# duality round trips on the builtin library


_ROUNDTRIP_TAGS = ("abs", "x2sin", "xsin", "cube", "preiss_lip(6)", "abs32")


@_prop("duality-roundtrip")
def _duality_roundtrip(seed: int) -> dict:
    tol = 0.02
    worst = 0.0
    lad = dini.ScaleLadder(seed=seed)
    for tag in _ROUNDTRIP_TAGS:
        f = funcs.builtin(tag)
        w = geometry.graph_whitney(f, np.zeros(1), lad.for_handle(f))
        lam = conormal.conormal(f, np.zeros(1), lad, whitney=w).exact
        worst = max(worst,
                    cones.hausdorff_angle(cones.top(cones.top(w)), w),
                    cones.hausdorff_angle(lam, cones.top(w)),
                    cones.hausdorff_angle(cones.top(lam), w))
    return _result(worst <= tol, worst, tol, len(_ROUNDTRIP_TAGS))


@_prop("epi-hypo-partition")
def _partition(seed: int) -> dict:
    """W, the strict epigraph cone and the strict hypograph cone cover S^1."""
    lad = dini.ScaleLadder(seed=seed)
    tol = 2.0 * sampling.grid_resolution(2)
    worst = 0.0
    for tag in ("abs", "cube", "x2sin"):
        f = funcs.builtin(tag)
        w = geometry.graph_whitney(f, np.zeros(1), lad.for_handle(f))
        ne = geometry.epigraph_strict_cone(f, np.zeros(1), lad)
        nh = geometry.hypograph_strict_cone(f, np.zeros(1), lad)
        union = cones.join(cones.join(w, ne), nh)
        worst = max(worst, cones.hausdorff_angle(union, FiberCone.full(2)))
    return _result(worst <= tol, worst, tol, 3)


# ---------------------------------------------------------------------------
# theorem fixtures


@_prop("fermat")
def _fermat(seed: int) -> dict:
    lad = dini.ScaleLadder(seed=seed)
    fo = analysis.fo_extremum(funcs.builtin("abs"), [0.0], lad)
    ok = (fo["tag"] == "min" and fo["fermat"]["whitney_horizontal"]
          and fo["fermat"]["conormal_vertical"])
    ok = ok and analysis.fo_extremum(
        funcs.parse_expr("x1*x1", 1), [0.0], lad)["tag"] == "stationary"
    ok = ok and analysis.fo_extremum(
        funcs.parse_expr("x1", 1), [0.0], lad)["tag"] == "none"
    worst = max(fo["fermat"]["worst_angle"], fo["fermat"]["conormal_angle"])
    return _result(ok, worst, fo["fermat"]["tolerance"], 3)


@_prop("mean-value")
def _mean_value(seed: int) -> dict:
    lad = dini.ScaleLadder(seed=seed)
    wits = analysis.mean_value_witness(funcs.builtin("abs"), [-1.0], [2.0],
                                       ladder=lad)
    best = wits[0]
    target = np.array([1.0, -3.0]) / math.sqrt(10.0)
    nu_gap = math.acos(min(1.0, abs(float(np.dot(best["nu"], target)))))
    ok = abs(best["c"]) <= 1e-3 and best["angle"] <= 0.02 and nu_gap <= 0.02
    w2 = analysis.mean_value_witness(funcs.parse_expr("x1*x1", 1),
                                     [0.0], [1.0], ladder=lad)
    ok = ok and abs(w2[0]["c"] - 0.5) <= 1e-2
    w3 = analysis.mean_value_witness(funcs.parse_expr("2*x1", 1),
                                     [0.0], [1.0], ladder=lad)
    ok = ok and len(w3) >= 200
    return _result(ok, max(best["angle"], nu_gap), 0.02, 3,
                   witness_c=float(best["c"]))


@_prop("chain-rule")
def _chain_rule(seed: int) -> dict:
    lad = dini.ScaleLadder(seed=seed)
    cbrt, cube = funcs.builtin("cbrt"), funcs.builtin("cube")
    r1 = analysis.chain_rule_check(cbrt, cube, [0.0], lad)
    r2 = analysis.chain_rule_check(cube, cbrt, [0.0], lad)
    r3 = analysis.chain_rule_check(cube, cube, [1.0], lad)
    ok = (not r1["regular"] and not r1["inclusion_holds"]
          and r2["regular"] and r2["inclusion_holds"] and r2["strict_inclusion"]
          and r3["equality_checked"] and r3["equality_holds"])
    return _result(ok, r2["worst_angle"], r2["tolerance"], 3)


@_prop("monotone")
def _monotone(seed: int) -> dict:
    lad = dini.ScaleLadder(seed=seed)
    m1 = analysis.monotone_classify_1d(funcs.builtin("cube"), (-1.0, 1.0), lad)
    sub_ok = (m1["submersion_failures"]
              and all(abs(v) <= 1e-2 for v in m1["submersion_failures"]))
    m2 = analysis.monotone_classify_1d(funcs.parse_expr("2*x1", 1),
                                       (-1.0, 1.0), lad, grid=11)
    m3 = analysis.monotone_classify_1d(funcs.builtin("abs"),
                                       (-0.5, 0.5), lad, grid=11)
    ok = (m1["tag"] == "non-decreasing" and bool(sub_ok)
          and m2["tag"] == "strictly-increasing-embedding"
          and m3["tag"] == "none")
    worst = max((abs(v) for v in m1["submersion_failures"]), default=0.0)
    return _result(ok, worst, 1e-2, 3)


@_prop("causal-fixtures")
def _causal(seed: int) -> dict:
    lad = dini.ScaleLadder(seed=seed)
    light = FiberCone.from_arcs([(0.25 * math.pi, 0.75 * math.pi)])
    origin = [[0.0, 0.0]]
    ident = analysis.causal_check(funcs.parse_expr("x1, x2", 2),
                                  light, light, origin, lad)
    rot = analysis.causal_check(funcs.parse_expr("0 - x1, 0 - x2", 2),
                                light, light, origin, lad)
    tf = analysis.time_function_check(funcs.parse_expr("x2", 2), light,
                                      [[0.0, 0.0], [0.3, -0.2]], lad)
    ray = FiberCone.from_directions(np.array([[1.0]]), 1, resolution=1e-9)
    tf3 = analysis.time_function_check(funcs.builtin("cube"), ray,
                                       [[-0.5], [0.0], [0.7]], lad)
    lip_ok = ident["lipschitz_when_causal"] and rot["lipschitz_when_causal"]
    ok = (ident["causal"] and not rot["causal"] and tf["time_function"]
          and tf3["causal"] and not tf3["time_function"])
    worst = ident["per_point"][0]["worst_angle"]
    return _result(ok and lip_ok, worst, ident["per_point"][0]["tolerance"], 4)


@_prop("lipschitz-agreement")
def _lip_agreement(seed: int) -> dict:
    lad = dini.ScaleLadder(seed=seed)
    fixtures = [
        ("abs", 0.0), ("sqrt_abs", 0.0), ("xsin", 0.0), ("x2sin", 0.0),
        ("cube", 0.0), ("cbrt", 0.0), ("abs32", 0.0), ("preiss_lip(6)", 0.3),
        ("expr:x1*x1", 1.0), ("expr:sin(x1)", 1.0), ("x2sin", 0.5),
        ("cbrt", 1.0),
    ]
    bad = 0
    for tag, x in fixtures:
        f = (funcs.parse_expr(tag[5:], 1) if tag.startswith("expr:")
             else funcs.builtin(tag))
        rep = analysis.classify_point(f, [x], lad)
        if rep.checks.get("dual_agrees") is not True:
            bad += 1
    return _result(bad == 0, float(bad), 0.0, len(fixtures))


def run_suite(seed: int = 0, only=None) -> dict:
    names = sorted(PROPERTIES)
    if only:
        unknown = sorted(set(only) - set(names))
        if unknown:
            raise ValueError(
                f"unknown properties: {', '.join(unknown)}; "
                f"available: {', '.join(names)}")
        names = [n for n in names if n in set(only)]
    results = [{"name": n, **PROPERTIES[n](seed)} for n in names]
    return {"results": results,
            "all_passed": all(r["passed"] for r in results)}
