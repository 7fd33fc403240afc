"""Multiscale estimation of directional derivative bounds.

For a scalar function f, a point x and a direction u, the sup quotient

    limsup of (f(y+tv)-f(y))/t as t -> 0+, v -> u

is read with a fixed base (y = x: the upper Dini derivative) or a moving
base (y also roams a shrinking ball around x: Clarke's generalized
quotient).  The lower counterparts are never estimated on their own:
the antipodal identity inf Q(u) = -sup Q(-u) reads them off the sup side
along -u.  All of this runs on one kernel, ``quotient_scan``, with two
entry points on top of it:

    limits   the extrapolated sup-side limit along every row of U
    slabs    (lows, highs, vertical) from one moving-base scan of U, -U
             and the zero direction, whose blow-up puts the vertical in
             the graph Whitney cone

plus radial first-order bounds and local Lipschitz constants.  All of
them share one discretization, the ``ScaleLadder``: at scale k the base
ball has radius r_k = t0 * ratio**k, steps t run down a geometric
sub-ladder below r_k, and probe directions are jittered inside a window
that shrinks quadratically in r_k.  Per-scale extrema are extrapolated
by the median of the last three scales; a monotone geometric blow-up
past the cap is reported as an infinite sentinel.

``quotient_scan`` takes a stack of direction rows.  Per scale it calls
``f`` once on the base points and once on the whole t sub-ladder of
every row, in t-major order.  A call holds at most ``QUOTIENT_ROW_CAP``
probe points (but always one full t step), so a larger stack splits its
scale over several calls.  Rows never interact, so callers stack all
their directions, the zero direction included, into one scan.

Estimates are heuristic: any finite ladder can be fooled by structure
below its deepest scale.  The full per-scale table is kept on the
returned profile so callers can judge convergence themselves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import sampling

DIVERGENCE_CAP = 1e3
HARD_CAP = 1e9
T_SUBSTEPS = 30          # t sub-ladder: r_k * 2**-(0..29)
QUOTIENT_ROW_CAP = 1 << 18  # probe points per f call in the quotient scan
GROWTH_FACTOR = 1.2      # per-scale growth that counts as monotone blow-up
NOISE_BUDGET = 1e-7      # cancellation noise allowed in a single quotient


def resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return int(seed)
    env = os.environ.get("CONECALC_SEED")
    return int(env) if env else 0


@dataclass(frozen=True)
class ScaleLadder:
    t0: float = 0.1
    ratio: float = 0.5
    k_min: int = 4
    k_max: int = 16
    dir_jitter: int = 32
    base_count: int = 64
    seed: int | None = None

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0,1)")
        if self.t0 <= 0 or self.k_min >= self.k_max:
            raise ValueError("need t0 > 0 and k_min < k_max")
        if self.t0 * self.ratio ** self.k_max <= math.sqrt(np.finfo(float).eps):
            raise ValueError("deepest scale is below sqrt(machine epsilon)")

    def radii(self) -> np.ndarray:
        return self.t0 * self.ratio ** np.arange(self.k_min, self.k_max + 1)

    def clamped(self, scale_floor: float | None) -> "ScaleLadder":
        """Restrict scales to radii >= scale_floor, keeping >= 3 scales."""
        if not scale_floor or scale_floor <= 0:
            return self
        deepest = int(math.floor(math.log(scale_floor / self.t0, self.ratio)))
        if deepest >= self.k_max:
            return self
        k_hi = max(deepest, self.k_min + 2)
        k_lo = min(self.k_min, k_hi - 2)
        return replace(self, k_min=k_lo, k_max=k_hi)

    def for_handle(self, f) -> "ScaleLadder":
        meta = getattr(f, "meta", None) or {}
        return self.clamped(meta.get("scale_floor"))

    def resolved_seed(self) -> int:
        return resolve_seed(self.seed)


@dataclass
class QuotientProfile:
    """Per-scale quotient extrema plus the extrapolated limit."""
    direction: np.ndarray
    scales: np.ndarray
    highs: np.ndarray
    lows: np.ndarray
    limit: float
    diverged: bool
    stable: bool

    def table(self) -> list[dict]:
        return [{"radius": float(r), "high": float(h), "low": float(lo)}
                for r, h, lo in zip(self.scales, self.highs, self.lows)]


def _extrapolate(values: np.ndarray) -> tuple[float, bool, bool]:
    """Median-of-last-3 limit with blow-up detection.

    Divergent ladders grow geometrically while convergent ones plateau,
    so a deep-scale level far above both the cap and the early-scale
    level is read as an infinite sentinel.  Comparing medians of the two
    ends is robust to per-scale sampling noise.
    """
    v = np.asarray(values, dtype=float)
    for sign in (1.0, -1.0):
        w = sign * v
        late = float(np.median(w[-min(3, len(w)):]))
        if late >= DIVERGENCE_CAP:
            if np.max(w) >= HARD_CAP:
                return sign * math.inf, True, False
            if len(w) >= 5 and late >= 5.0 * max(float(np.max(w[:3])), 1e-12):
                return sign * math.inf, True, False
    tail = v[-min(3, len(v)):]
    limit = float(np.median(tail))
    spread = float(np.max(tail) - np.min(tail))
    stable = spread <= 0.05 * max(1.0, abs(limit))
    return limit, False, stable


def _base_offsets(m: int, jitter: int, total: int, seed: int) -> np.ndarray:
    """Window offsets: x repeated for each jitter, then a space-filling rest."""
    fixed = np.zeros((jitter, m))
    rest = total - jitter
    if m == 1:
        # deterministic line coverage beats Monte Carlo in one dimension
        line = np.linspace(-1.0, 1.0, max(rest, 2))[:, None]
        return np.vstack([fixed, line[:rest]])
    return np.vstack([fixed, sampling.ball_points(m, rest, seed)])


def _probe_values(f, Y, V, ts) -> np.ndarray:
    """f at Y[b] + t * V[i, b] for every t in ts, flat in (t, i, b) order.

    Each call takes as many whole t rows as fit in QUOTIENT_ROW_CAP probe
    points, and never less than one row.
    """
    q, B, m = V.shape
    block = q * B
    per_call = max(1, QUOTIENT_ROW_CAP // max(block, 1))
    out = np.empty(len(ts) * block)
    for j in range(0, len(ts), per_call):
        T = ts[j:j + per_call, None, None, None]
        P = (Y[None, None, :, :] + T * V[None]).reshape(-1, m)
        out[j * block:j * block + len(P)] = f(P)[:, 0]
    return out


def quotient_scan(f, x, U, ladder: ScaleLadder, moving_base: bool) -> list[QuotientProfile]:
    """Sup-side quotient profiles, vectorized across direction rows of U.

    Rows never interact: a row's profile is the same whether it is
    scanned alone or stacked with others.
    """
    if f.n != 1:
        raise ValueError("quotient estimation needs a scalar function")
    x = np.asarray(x, dtype=float).reshape(f.m)
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[1] != f.m:
        raise ValueError("direction dimension does not match the function")
    lad = ladder.for_handle(f)
    seed = lad.resolved_seed()
    radii = lad.radii()
    q, m = U.shape

    norms = np.linalg.norm(U, axis=1)
    unit = np.divide(U, np.maximum(norms, 1e-300)[:, None])
    zero_dir = norms == 0.0

    meta = getattr(f, "meta", None) or {}
    floor = meta.get("scale_floor")
    t_floor = floor / 64.0 if floor else 0.0

    nk = len(radii)
    highs = np.full((q, nk), -np.inf)
    lows = np.full((q, nk), np.inf)
    # sup at t = r only; the deep sub-ladder hits its noise floor on every
    # shell, so geometric blow-up is only visible on this shallow track
    shallow = np.full((q, nk), -np.inf)

    for ki, r in enumerate(radii):
        k = lad.k_min + ki
        if moving_base:
            offs = _base_offsets(m, lad.dir_jitter, lad.base_count,
                                 sampling.child_seed(seed, 11, k))
        else:
            offs = np.zeros((lad.dir_jitter, m))
        Y = x[None, :] + r * offs
        B = len(Y)
        G = sampling.sphere_points(m, lad.dir_jitter, sampling.child_seed(seed, 23, k))
        Gc = G[np.arange(B) % len(G)]
        # capped so the jitter can never cancel the unit direction (k = 0)
        delta = min(0.5, lad.ratio ** (2 * k))

        V = unit[:, None, :] + delta * Gc[None, :, :]
        V /= np.linalg.norm(V, axis=2, keepdims=True)
        V *= norms[:, None, None]
        if zero_dir.any():
            # probing u = 0: the direction magnitude itself shrinks, but
            # slowly (sqrt rate), so the quotient vanishes iff f is
            # Lipschitz in the window and blows up otherwise
            V[zero_dir] = math.sqrt(r / lad.t0) * Gc[None, :, :]

        FY = f(Y)[:, 0]
        # quotients difference nearly equal numbers; keep t above the
        # level where argument and value roundoff would pollute them
        y_mag = float(np.max(np.abs(Y))) if Y.size else 0.0
        f_mag = float(np.max(np.abs(FY))) if FY.size else 0.0
        eps = np.finfo(float).eps
        noise_floor = eps * max(y_mag, f_mag) / NOISE_BUDGET
        ts = r * 2.0 ** (-np.arange(T_SUBSTEPS))
        ts = ts[ts >= max(t_floor, noise_floor, 1e-300)]
        if len(ts) == 0:
            ts = np.array([r])
        quot = (_probe_values(f, Y, V, ts).reshape(len(ts), q, B)
                - FY[None, None, :]) / ts[:, None, None]
        # per-t extrema first, then over t in t order, as the loop over t
        # did: the extremum of signed zeros depends on that order
        step_hi = quot.max(axis=2)
        highs[:, ki] = step_hi.max(axis=0)
        lows[:, ki] = quot.min(axis=2).min(axis=0)
        shallow[:, ki] = step_hi[0]

    out = []
    for i in range(q):
        limit, diverged, stable = _extrapolate(highs[i])
        if (not diverged and len(radii) >= 5 and math.isfinite(limit)
                and limit >= DIVERGENCE_CAP):
            # large level whose t = r quotient still grows geometrically:
            # blow-up, even though the sub-ladder noise floor flattens the
            # per-shell sup and hides the growth from the main test
            sh = shallow[i]
            late_sh = float(np.median(sh[-3:]))
            early_sh = max(float(np.max(sh[:3])), 1e-12)
            if late_sh >= 5.0 * early_sh and float(np.mean(np.diff(sh) >= 0)) >= 0.6:
                limit, diverged, stable = math.inf, True, False
        out.append(QuotientProfile(U[i].copy(), radii.copy(), highs[i].copy(),
                                   lows[i].copy(), limit, diverged, stable))
    return out


def limits(f, x, U, ladder: ScaleLadder, moving_base: bool) -> np.ndarray:
    """The extrapolated sup-side limit along every row of U."""
    return np.array([p.limit for p in quotient_scan(f, x, U, ladder, moving_base)])


def slabs(f, x, U, ladder: ScaleLadder):
    """(lows, highs, vertical) from one moving-base scan of U, -U and 0.

    highs are the sup quotients along the rows of U; lows come from the
    antipodal identity inf Q(u) = -sup Q(-u) on the second block, never
    from a second estimate.  ``vertical`` says whether the quotient along
    the zero direction blows up, i.e. whether the vertical belongs to the
    graph Whitney cone.
    """
    U = np.asarray(U, dtype=float).reshape(-1, f.m)
    q = len(U)
    profs = quotient_scan(f, x, np.vstack([U, -U, np.zeros((1, f.m))]),
                          ladder, moving_base=True)
    lim = np.array([p.limit for p in profs])
    vert = profs[-1]
    return -lim[q:2 * q], lim[:q], vert.diverged or abs(vert.limit) > DIVERGENCE_CAP


def radial_bounds(f, x, ladder: ScaleLadder) -> tuple[float, float]:
    """liminf / limsup of (f(x+v)-f(x))/|v| over shrinking balls."""
    if f.n != 1:
        raise ValueError("radial bounds need a scalar function")
    x = np.asarray(x, dtype=float).reshape(f.m)
    lad = ladder.for_handle(f)
    seed = lad.resolved_seed()
    radii = lad.radii()
    m = f.m

    grid = sampling.unit_grid(m)
    stride = max(1, len(grid) // 360)
    dirs = grid[::stride]
    fx = f(x[None, :])[0, 0]

    highs, lows = [], []
    for ki, r in enumerate(radii):
        ball = sampling.ball_points(m, 64, sampling.child_seed(seed, 37, lad.k_min + ki))
        offs = np.vstack([r * dirs, 0.5 * r * dirs, r * ball])
        nrm = np.linalg.norm(offs, axis=1)
        keep = nrm > 0
        vals = f(x[None, :] + offs[keep])[:, 0]
        ratio = (vals - fx) / nrm[keep]
        highs.append(ratio.max())
        lows.append(ratio.min())

    hi, _, _ = _extrapolate(np.array(highs))
    lo, _, _ = _extrapolate(-np.array(lows))
    return -lo, hi


def _direction_grid(m: int, count: int) -> np.ndarray:
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        ang = np.arange(count) * (2.0 * math.pi / count)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    pts = sampling.sphere_points(m, count // 2, 5)
    return np.vstack([pts, -pts])


def _scalar_slice(f, eta):
    """The scalar function <eta, f>."""
    from .funcs import FunctionHandle

    eta = np.asarray(eta, dtype=float)
    return FunctionHandle(f.m, 1, f"<eta,{f.name}>",
                          lambda X: (f(X) @ eta)[:, None], "composite",
                          dict(getattr(f, "meta", {}) or {}))


def lipschitz_constants(f, x, ladder: ScaleLadder,
                        dir_count: int = 72, covector_count: int = 16):
    """(pointwise, local) Lipschitz constants at x.

    Pointwise: sphere maximum of the |limit| of a fixed-base scan.  Local:
    the same for a moving-base scan.  Vector-valued f is reduced over a
    grid of codomain covectors.
    """
    if f.n == 1:
        slices = [f]
    else:
        # the second half of the grid negates the first, which gives the
        # same |limit|
        etas = _direction_grid(f.n, covector_count)
        slices = [_scalar_slice(f, eta) for eta in etas[:len(etas) // 2]]

    U = _direction_grid(f.m, dir_count)
    lip_pw = 0.0
    lip = 0.0
    for g in slices:
        lip_pw = max(lip_pw, float(np.abs(limits(g, x, U, ladder, False)).max()))
        lip = max(lip, float(np.abs(limits(g, x, U, ladder, True)).max()))
    # the moving-base window contains the fixed-base one
    if lip < lip_pw and math.isfinite(lip):
        lip = max(lip, lip_pw)
    return lip_pw, lip
