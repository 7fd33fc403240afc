"""Pointwise classifiers and theorem-level checks."""

import math

import numpy as np
import pytest

from conecalc import analysis, cones, conormal, dini, funcs, geometry, sampling
from conecalc.cones import FiberCone
from conecalc.errors import (DimensionMismatchError, ImproperConeError)

LAD = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=0, k_max=12, seed=0)
LIGHT = FiberCone.from_arcs([(math.pi / 4, 3 * math.pi / 4)])


def dual_agrees(r) -> bool:
    """The dual verdict's agreement, read only off a nonempty upper bound:
    an empty one has no horizontal covector and agrees with any Lipschitz
    verdict."""
    assert not r.conormal.upper.is_zero()
    return r.checks["dual_agrees"]


class TestClassifyPoint:
    def test_kink(self):
        r = analysis.classify_point(funcs.builtin("abs"), [0.0], LAD)
        assert r.lipschitz
        assert r.lipschitz_constant == pytest.approx(1.0, abs=1e-4)
        assert not r.strictly_differentiable
        assert r.derivative is None
        assert r.fo_extremum == "min"
        assert dual_agrees(r)
        # the graph map collapses symmetric pairs and has vertical covectors
        assert r.whitney_immersive is False
        assert r.microlocally_submersive is False

    def test_smooth_regular_point(self):
        r = analysis.classify_point(funcs.builtin("cube"), [1.0], LAD)
        assert r.lipschitz and r.strictly_differentiable
        assert r.derivative[0][0] == pytest.approx(3.0, abs=1e-4)
        assert r.fo_extremum == "none"
        assert r.whitney_immersive is True
        assert r.microlocally_submersive is True

    def test_oscillatory_lipschitz_not_strict(self):
        r = analysis.classify_point(funcs.builtin("x2sin"), [0.0], LAD)
        assert r.lipschitz
        assert not r.strictly_differentiable
        assert r.fo_extremum == "stationary"
        assert dual_agrees(r)

    def test_unbounded_slope(self):
        r = analysis.classify_point(funcs.builtin("sqrt_abs"), [0.0], LAD)
        assert not r.lipschitz
        assert not r.strictly_differentiable
        assert dual_agrees(r)

    def test_report_plumbing(self):
        r = analysis.classify_point(funcs.builtin("abs"), [0.0], LAD)
        assert r.point == [0.0]
        assert set(r.tolerances) == {"vertical", "strict_vertical"}
        assert r.ladder["t0"] == LAD.t0
        assert r.conormal.regime == "dimM1"


class TestWhitneyReadings:
    """The local constant and the derivative come off the graph Whitney
    cone: on C^1 inputs they are the exact operator norm and Jacobian."""

    @pytest.mark.parametrize("src,x,ladder,jac", [
        ("x1+x2*x2, x1*x2", [0.2, -0.1], dini.ScaleLadder(seed=0),
         [[1.0, -0.2], [-0.1, 0.2]]),
        ("x1+x2+x3", [0.0, 0.0, 0.0],
         dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=4, k_max=10, seed=0),
         [[1.0, 1.0, 1.0]]),
        ("sin(x1)+x2*x2", [0.3, -0.2], dini.ScaleLadder(seed=0),
         [[math.cos(0.3), -0.4]]),
        ("x1, x1*x1", [0.3], dini.ScaleLadder(seed=0), [[1.0], [0.6]]),
    ], ids=["map-2d", "3d", "sin-2d", "curve"])
    def test_constant_and_derivative_on_c1_inputs(self, src, x, ladder, jac):
        h = funcs.parse_expr(src, len(x))
        r = analysis.classify_point(h, x, ladder)
        norm = np.linalg.norm(np.array(jac), 2)
        assert r.lipschitz_constant == pytest.approx(norm, rel=1e-4)
        assert r.lipschitz_constant >= r.pointwise_lipschitz
        assert r.strictly_differentiable
        assert np.abs(np.array(r.derivative) - jac).max() <= 1e-5

    @pytest.mark.parametrize("tag,x", [("sqrt_abs", [0.0]), ("cbrt_x1", [0.0, 0.0])])
    def test_vertical_member_gives_an_infinite_constant(self, tag, x):
        r = analysis.classify_point(funcs.builtin(tag), x, dini.ScaleLadder(seed=0))
        assert r.lipschitz_constant == math.inf
        # W gives it without the pointwise floor
        assert analysis._local_constant(r.whitney, len(x)) == math.inf
        assert not r.lipschitz and r.derivative is None

    @pytest.mark.parametrize("src", ["sqrt(abs(x1)), x1", "x1*sin(1/x1), x1"])
    def test_non_lipschitz_vector_map(self, src):
        # W is built from graph chords here, none of them exactly vertical:
        # the infinite constant comes from the vertical-slice verdict
        h = funcs.parse_expr(src, 1)
        r = analysis.classify_point(h, [0.0], LAD)
        assert not r.lipschitz and r.lipschitz_constant == math.inf
        ray = FiberCone.from_directions(np.array([[1.0]]), 1, resolution=1e-9)
        entry = analysis.causal_check(h, ray, LIGHT, [[0.0]], LAD)["per_point"][0]
        assert not entry["lipschitz"] and entry["lipschitz_constant"] == math.inf

    def test_chord_cone_of_a_vector_cusp_meets_the_vertical(self):
        # the zero row's chords reach the vertical, so W alone reads the
        # infinite constant, as the fixed-base scan does
        h = funcs.parse_expr("sqrt(abs(x1)), x2", 2)
        r = analysis.classify_point(h, [0.0, 0.0], LAD)
        assert analysis._local_constant(r.whitney, 2) == math.inf
        assert r.pointwise_lipschitz == math.inf
        assert not r.lipschitz and r.derivative is None

    def test_pointwise_constant_decides_a_sparse_cone(self, monkeypatch):
        # a W with no member near the vertical reads a finite constant; the
        # fixed-base scan's infinite one floors it, and the verdict follows
        u = sampling.unit_grid(2)
        sparse = FiberCone.from_directions(np.hstack([u, u]), 4,
                                           resolution=sampling.grid_resolution(4))
        monkeypatch.setattr(geometry, "graph_whitney", lambda *args: sparse)
        h = funcs.parse_expr("sqrt(abs(x1)), x2", 2)
        r = analysis.classify_point(h, [0.0, 0.0], LAD)
        assert r.whitney is sparse
        assert analysis._local_constant(sparse, 2) == pytest.approx(1.0)
        assert r.pointwise_lipschitz == math.inf
        assert r.lipschitz_constant == math.inf
        assert not r.lipschitz and not r.strictly_differentiable
        assert r.derivative is None

    @pytest.mark.parametrize("src,x,lipschitz,jac", [
        ("18.8*x1", [0.1, 0.0], True, [[18.8, 0.0]]),
        ("18.9*x1 + x2", [0.0, 0.0], False, None),
        ("50*x1 + x2", [0.0, 0.0], False, None),
        ("57.2*x1", [0.0], True, [[57.2]]),
        ("57.4*x1", [0.0], False, None),
        ("18*x1, x1", [0.0], True, [[18.0], [1.0]]),
    ])
    def test_steep_linear_maps_at_the_vertical_slack(self, src, x, lipschitz, jac):
        # slopes on either side of cot(vertical slack): about 18.9 for a
        # 3-D graph cone, 57.3 for a 2-D one.  Both verdicts are the ones
        # the separate moving-base scans gave; the graph condition on the
        # derivative's span flips neither.
        r = analysis.classify_point(funcs.parse_expr(src, len(x)), x,
                                    dini.ScaleLadder(seed=0))
        assert r.lipschitz is lipschitz
        assert r.strictly_differentiable is lipschitz
        if lipschitz:
            assert np.abs(np.array(r.derivative) - jac).max() <= 1e-5
            assert r.lipschitz_constant == pytest.approx(
                np.linalg.norm(np.array(jac), 2), rel=1e-4)
        else:
            assert r.derivative is None and r.lipschitz_constant == math.inf


class TestFoExtremum:
    def test_min_with_fermat(self):
        out = analysis.fo_extremum(funcs.builtin("abs"), [0.0], LAD)
        assert out["tag"] == "min"
        assert out["fermat"]["whitney_horizontal"]
        assert out["fermat"]["conormal_vertical"]
        assert out["fermat"]["worst_angle"] <= out["fermat"]["tolerance"]

    def test_max(self):
        h = funcs.parse_expr("0 - abs(x)", 1)
        assert analysis.fo_extremum(h, [0.0], LAD)["tag"] == "max"

    def test_smooth_critical_point_is_stationary(self):
        # first-order radial bounds vanish both ways at a smooth max too
        h = funcs.parse_expr("0 - x^2", 1)
        assert analysis.fo_extremum(h, [0.0], LAD)["tag"] == "stationary"

    def test_stationary_inflection(self):
        assert analysis.fo_extremum(funcs.builtin("cube"), [0.0], LAD)["tag"] \
            == "stationary"

    def test_none(self):
        out = analysis.fo_extremum(funcs.builtin("cube"), [0.5], LAD)
        assert out["tag"] == "none"
        assert "fermat" not in out

    def test_scalar_only(self):
        with pytest.raises(DimensionMismatchError):
            analysis.fo_extremum(funcs.parse_expr("x, x", 1), [0.0], LAD)


class TestMeanValue:
    def test_parabola_witness_at_midpoint(self):
        h = funcs.parse_expr("x^2", 1)
        ws = analysis.mean_value_witness(h, [0.0], [1.0])
        best = ws[0]
        assert best["c"] == pytest.approx(0.5, abs=1e-2)
        # chord slope 1: covector perpendicular to (1, 1), oriented by eta0
        nu = np.asarray(best["nu"])
        want = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert min(np.linalg.norm(nu - want), np.linalg.norm(nu + want)) <= 0.05

    def test_eta0_flips_covector(self):
        h = funcs.parse_expr("x^2", 1)
        up = analysis.mean_value_witness(h, [0.0], [1.0], eta0=1.0)[0]
        down = analysis.mean_value_witness(h, [0.0], [1.0], eta0=-1.0)[0]
        assert np.allclose(up["nu"], np.negative(down["nu"]), atol=1e-12)

    def test_requires_distinct_endpoints(self):
        with pytest.raises(ValueError):
            analysis.mean_value_witness(funcs.builtin("abs"), [1.0], [1.0])

    def test_scalar_only(self):
        with pytest.raises(DimensionMismatchError):
            analysis.mean_value_witness(funcs.parse_expr("x, x", 1),
                                        [0.0], [1.0])


class TestUpperBoundOnly:
    """mean_value_witness and time_function_check read the exact conormal
    or its upper bound, so neither builds the epigraph lower bound."""

    @pytest.fixture(autouse=True)
    def no_lower_bound(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the epigraph lower bound was built")
        monkeypatch.setattr(conormal, "_epigraph_polar_lower", built)

    def test_the_lower_bound_is_blocked(self):
        with pytest.raises(AssertionError):
            conormal.conormal(funcs.parse_expr("x2", 2), [0.0, 0.0], LAD)

    def test_mean_value_on_a_plane(self):
        ws = analysis.mean_value_witness(funcs.parse_expr("x1 + x2", 2),
                                         [-0.5, 0.2], [0.6, -0.1],
                                         grid=8, depth=1)
        assert ws[0]["angle"] <= 2.0 * sampling.grid_resolution(3)

    def test_time_function_coordinate(self):
        out = analysis.time_function_check(funcs.parse_expr("x2", 2), LIGHT,
                                           [[0.0, 0.0], [0.5, 0.2]], LAD)
        assert out["time_function"]


class TestNoGraphCloud:
    """Every map builds its graph Whitney cone from the kernel's scans: a
    scalar map from one slab scan, a vector map from one chord scan.  No
    map samples a graph cloud for the pair scans of ``whitney_cone``."""

    def test_no_map_samples_a_graph_cloud(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph cloud was scanned for pairs")

        monkeypatch.setattr(geometry, "whitney_cone", refuse)
        lad = dini.ScaleLadder(t0=0.1, ratio=0.5, k_min=4, k_max=10, seed=0)
        for fn, x in [("sin(x1)+x2*x2", [0.3, -0.2]),
                      ("sin(x1)+x2*x3", [0.3, -0.2, 0.1]),
                      ("x1, x2", [0.0, 0.0]), ("x1, x1*x1", [0.3])]:
            r = analysis.classify_point(funcs.parse_expr(fn, len(x)), x, lad)
            assert r.lipschitz and r.strictly_differentiable
        out = analysis.causal_check(funcs.parse_expr("x1, x2", 2), LIGHT, LIGHT,
                                    [[0.0, 0.0], [0.3, -0.1]], LAD)
        assert out["causal"] and out["lipschitz_when_causal"]


class TestKnownAnswers:
    """Verdicts at points with analytic answers, on the default ladder
    (seed 0): they must hold across any change of report bytes."""

    # expression, point, Lipschitz, strictly differentiable, derivative
    # (None: no derivative), exact local constant, dual_agrees (None: not
    # computed for vector maps)
    ROWS = [
        ("abs(x1)+abs(x2)", [0.0, 0.0], True, False, None, math.sqrt(2.0), True),
        ("max(x1,x2)", [0.0, 0.0], True, False, None, 1.0, True),
        ("abs(x1+x2)+0.5*x2", [0.0, 0.0], True, False, None,
         math.hypot(1.0, 1.5), True),
        ("x1*x1*sin(1/x1)", [0.0], True, False, None, 1.0, True),
        ("sqrt(abs(x1))", [0.0], False, False, None, math.inf, True),
        ("x1*abs(x1)", [0.0], True, True, [[0.0]], 0.0, True),
        ("abs(x1)*x2", [0.0, 0.5], True, False, None, 0.5, True),
        ("x1*x2", [0.0, 0.0], True, True, [[0.0, 0.0]], 0.0, True),
        ("abs(x1), x2", [0.0, 0.0], True, False, None, 1.0, None),
        ("sin(x1)+x2*x3", [0.3, -0.2, 0.1], True, True,
         [[math.cos(0.3), 0.1, -0.2]], math.sqrt(math.cos(0.3) ** 2 + 0.05), True),
        ("abs(x1)+x2+x3", [0.0, 0.0, 0.0], True, False, None, math.sqrt(3.0), True),
        ("sqrt(abs(x1))+x2+x3", [0.0, 0.0, 0.0], False, False, None, math.inf,
         True),
    ]

    @pytest.mark.parametrize("fn,x,lip,strict,deriv,const,dual", [
        pytest.param(*row, id=f"{row[0]}@{','.join(f'{v:g}' for v in row[1])}")
        for row in ROWS])
    def test_verdict_table(self, fn, x, lip, strict, deriv, const, dual):
        f = funcs.parse_expr(fn, len(x))
        rep = analysis.classify_point(f, x, dini.ScaleLadder(seed=0))
        assert (rep.lipschitz, rep.strictly_differentiable) == (lip, strict)
        if deriv is None:
            assert rep.derivative is None
        else:
            assert np.abs(np.array(rep.derivative) - deriv).max() <= 1e-3
        # the sampled constant may read up to 1 % low and 0.01 % high; a
        # zero constant reads as a slope below 1e-4
        if math.isinf(const):
            assert math.isinf(rep.lipschitz_constant)
        else:
            assert 0.99 * const <= rep.lipschitz_constant <= 1.0001 * const + 1e-4
        assert rep.checks.get("dual_agrees") == dual
        if dual is not None:
            assert not rep.conormal.upper.is_zero()


class TestChainRule:
    def test_irregular_pair_violates_inclusion(self):
        out = analysis.chain_rule_check(funcs.builtin("cbrt"),
                                        funcs.builtin("cube"), [0.0], LAD)
        assert not out["regular"]
        assert not out["inclusion_holds"]

    def test_regular_pair_strict_inclusion(self):
        out = analysis.chain_rule_check(funcs.builtin("cube"),
                                        funcs.builtin("cbrt"), [0.0], LAD)
        assert out["regular"]
        assert out["inclusion_holds"]
        assert out["strict_inclusion"]

    def test_smooth_pair_equality(self):
        out = analysis.chain_rule_check(funcs.builtin("cube"),
                                        funcs.builtin("cube"), [1.0], LAD)
        assert out["regular"] and out["inclusion_holds"]
        assert out["equality_checked"]
        assert out["equality_holds"]

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            analysis.chain_rule_check(funcs.builtin("x1sq_sin"),
                                      funcs.builtin("x1sq_sin"), [0.0, 0.0], LAD)


class TestMonotone1d:
    def test_cubic_non_decreasing_with_flat_point(self):
        out = analysis.monotone_classify_1d(funcs.builtin("cube"),
                                            [-1.0, 1.0], LAD)
        assert out["tag"] == "non-decreasing"
        assert out["submersion_failures"] == [0.0]
        assert 0.0 in out["immersion_failures"]

    def test_linear_strict_embedding(self):
        out = analysis.monotone_classify_1d(funcs.parse_expr("2*x", 1),
                                            [-1.0, 1.0], LAD)
        assert out["tag"] == "strictly-increasing-embedding"
        assert out["submersion_failures"] == []
        assert out["immersion_failures"] == []

    def test_kink_is_not_monotone(self):
        out = analysis.monotone_classify_1d(funcs.builtin("abs"),
                                            [-0.5, 0.5], LAD)
        assert out["tag"] == "none"

    def test_one_dimensional_only(self):
        with pytest.raises(DimensionMismatchError):
            analysis.monotone_classify_1d(funcs.builtin("x1sq_sin"),
                                          [-1.0, 1.0], LAD)


class TestCausal:
    def test_identity_is_causal(self):
        h = funcs.parse_expr("x1, x2", 2)
        out = analysis.causal_check(h, LIGHT, LIGHT, [[0.0, 0.0], [0.3, -0.1]],
                                    LAD)
        assert out["causal"]
        assert out["lipschitz_when_causal"]

    def test_half_turn_is_not_causal(self):
        h = funcs.parse_expr("0 - x1, 0 - x2", 2)
        out = analysis.causal_check(h, LIGHT, LIGHT, [[0.0, 0.0]], LAD)
        assert not out["causal"]

    def test_scalar_dual_cross_check(self):
        ray = FiberCone.from_directions(np.array([[1.0]]), 1, resolution=1e-9)
        out = analysis.causal_check(funcs.parse_expr("2*x", 1), ray, ray,
                                    [[0.1]], LAD)
        entry = out["per_point"][0]
        assert entry["causal"] and entry["dual_checked"] and entry["dual_ok"]

    def test_improper_fields_rejected(self):
        h = funcs.parse_expr("x1, x2", 2)
        with pytest.raises(ImproperConeError):
            analysis.causal_check(h, FiberCone.zero(2), LIGHT, [[0.0, 0.0]], LAD)
        with pytest.raises(ImproperConeError):
            analysis.causal_check(h, FiberCone.full(2), LIGHT, [[0.0, 0.0]], LAD)
        with pytest.raises(TypeError):
            analysis.causal_check(h, lambda p: 7, LIGHT, [[0.0, 0.0]], LAD)

    def test_time_function_coordinate(self):
        h = funcs.parse_expr("x2", 2)
        out = analysis.time_function_check(h, LIGHT, [[0.0, 0.0], [0.5, 0.2]],
                                           LAD)
        assert out["time_function"] and out["causal"]
        for e in out["per_point"]:
            assert e["microlocally_submersive"] and e["strict_image_positive"]

    def test_causal_but_not_time_function(self):
        ray = FiberCone.from_directions(np.array([[1.0]]), 1, resolution=1e-9)
        out = analysis.time_function_check(funcs.builtin("cube"), ray,
                                           [[0.0]], LAD)
        assert out["causal"]
        assert not out["time_function"]
        assert not out["per_point"][0]["microlocally_submersive"]


def reference_dual_causal(lam, gm, gn, m, tol):
    """``_dual_causal`` with one ``contains`` call and one angle per member:
    the arccos of the largest dot with the members of gm's polar."""
    gm_polar = cones.polar(gm)
    gn_polar = cones.polar(gn)
    P = cones.member_directions(gm_polar)
    worst = 0.0
    for v in cones.member_directions(lam):
        xi, eta = v[:m], v[m:]
        ne, nx = float(np.linalg.norm(eta)), float(np.linalg.norm(xi))
        if ne > math.sin(tol) and not cones.contains(gn_polar, -eta / ne, tol=tol):
            continue
        if nx <= math.sin(tol):
            continue
        gap = (math.acos(min(1.0, max(-1.0, float((P @ (xi / nx)).max()))))
               if len(P) else math.pi)
        worst = max(worst, gap)
    return {"dual_checked": True, "dual_ok": bool(worst <= tol),
            "dual_worst_angle": float(worst)}


class TestDualCausalBatch:
    """One membership batch per cone gives the member loop's verdict."""

    RAY = FiberCone.from_directions(np.array([[1.0]]), 1, resolution=1e-9)
    BACK = FiberCone.from_directions(np.array([[-1.0]]), 1, resolution=1e-9)

    @pytest.mark.parametrize("tag,x", [("cube", 0.4), ("abs", 0.0), ("cbrt", 0.0),
                                       ("x2sin", 0.0)])
    @pytest.mark.parametrize("tol", [1e-6, 0.02, 0.3])
    def test_equals_the_member_loop(self, tag, x, tol):
        w = geometry.graph_whitney(funcs.builtin(tag), np.array([x]), LAD)
        lam = cones.top(w)
        for gm in (self.RAY, self.BACK):
            for gn in (self.RAY, self.BACK):
                got = analysis._dual_causal(lam, gm, gn, 1, tol)
                assert got == reference_dual_causal(lam, gm, gn, 1, tol)
