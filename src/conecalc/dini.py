"""Multiscale estimation of directional derivative bounds.

For a scalar function f, a point x and a direction u, the sup quotient

    limsup of (f(y+tv)-f(y))/t as t -> 0+, v -> u

is read with a fixed base (y = x: the upper Dini derivative) or a moving
base (y also roams a shrinking ball around x: Clarke's generalized
quotient).  A moving base reads the lower counterparts off the sup side
along -u, by the antipodal identity inf Q(u) = -sup Q(-u); a fixed base
keeps the per-scale inf, since the identity fails there.  A moving
base's window holds x itself, with a fixed base's jitter, so one
moving-base scan of a scalar map reads both.  All of this runs on one
kernel with four entry points:

    quotient_scan  per-row profiles: the per-scale table and the limit
    slabs          (lows, highs, vertical) from one moving-base scan of
                   -U, U and the zero direction, whose blow-up puts the
                   vertical in the graph Whitney cone; on request also a
                   scalar map's fixed-base limits, read in the same pass
    fixed_bounds   the point's lower and upper Dini limits, read by the
                   pointwise constant, the extremum tag and the
                   conormal's lower bracket: off the slab scan of a
                   scalar map, from a fixed-base scan of a vector map's
                   own
    chords         a vector map's unit graph chords at the three deepest
                   scales of one moving-base scan of U and the zero row

The moving-base numbers of a point, its local Lipschitz constant and its
strict derivative, get no scan of their own: ``analysis`` reads them off
the graph Whitney cone, which ``slabs`` or ``chords`` builds for any map.

All of these share one discretization, the ``ScaleLadder``: at scale k
the base ball has radius r_k = t0 * ratio**k, steps t run down a
geometric sub-ladder below r_k, and probe directions are jittered inside
a window that shrinks quadratically in r_k.  Per-scale extrema are
extrapolated by the median of the last three scales, for all rows at
once; a monotone geometric blow-up past the cap is reported as an
infinite sentinel.

The kernel takes a stack of direction rows.  Per scale it calls ``f``
once on the base points, then on the t sub-ladder of every row, in
t-major order.  A call holds as many whole t steps as fit in
``QUOTIENT_ROW_CAP`` probe points (but always one full t step), a size
chosen so that a call's arrays stay small (see the cap's comment), so a
scale spans several calls unless the stack is small.  Each call's values go straight to per-t
extrema over the base points, then to extrema over t in t order; the
full array of quotients is never built.  The per-t minima are taken only
where lows are read: by ``quotient_scan``, by a vector map's
``fixed_bounds`` and, over the base points at x alone, by ``slabs`` for
the fixed-base limits; the moving-base rows of ``slabs`` and ``chords``
keep the sup side alone.  Rows never interact, so callers stack all
their directions, the zero direction included, into one scan.

A vector map (n >= 2) is scanned through the Euclidean norm of its
increment, |f(y+tv) - f(y)| / t, with either base; a scalar map keeps
its signed quotient.  The paper's criterion |xi| <= L |eta| on the
graph's microsupport uses Euclidean norms, so the Lipschitz constant of
a map is an operator norm, which the norm quotient reads directly.
``slabs`` takes a scalar f only: its identity needs a signed quotient.

Estimates are heuristic: any finite ladder can be fooled by structure
below its deepest scale.  ``quotient_scan`` keeps the full per-scale
table on each profile so callers can judge convergence themselves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import sampling

DIVERGENCE_CAP = 1e3
HARD_CAP = 1e9
T_SUBSTEPS = 30          # t sub-ladder: r_k * 2**-(0..29)
# probe points per f call in the quotient scan.  Measured on one 2-core
# host, on the scalar 2-D slab and fixed-base scans of sin(x1) + x2*x2:
# caps of 2**14 to 2**16 time alike and 2**18 is 15-20 % slower.  A vector
# map or a wider domain holds more bytes per point; no cap was timed there
QUOTIENT_ROW_CAP = 1 << 15
NOISE_BUDGET = 1e-7      # cancellation noise allowed in a single quotient
DIR_JITTER = 32          # jittered copies of each direction per scale
BASE_COUNT = 64          # moving-base window points per scale, x among them


def resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return int(seed)
    env = os.environ.get("CONECALC_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"CONECALC_SEED must be an integer, not {env!r}") from None


@dataclass(frozen=True)
class ScaleLadder:
    t0: float = 0.1
    ratio: float = 0.5
    k_min: int = 4
    k_max: int = 16
    seed: int | None = None

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0,1)")
        if not (math.isfinite(self.t0) and self.t0 > 0) or self.k_min >= self.k_max:
            raise ValueError("need a finite t0 > 0 and k_min < k_max")
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


def _late(values: np.ndarray) -> np.ndarray:
    """``np.median`` of the last three entries along the last axis.

    np.median takes the mean of the middle one or two sorted entries, and
    that sum starts from +0.0, so a zero median is always +0.0; signed
    zeros of a limit reach the report.  The values are never NaN.
    """
    tail = np.sort(values[..., -3:], axis=-1)
    if tail.shape[-1] == 3:
        return 0.0 + tail[..., 1]
    return (0.0 + tail[..., 0] + tail[..., -1]) / 2.0


def _extrapolate(values: np.ndarray):
    """Median-of-last-3 limit with blow-up detection, along the last axis.

    Divergent ladders grow geometrically while convergent ones plateau,
    so a deep-scale level far above both the cap and the early-scale
    level is read as an infinite sentinel.  Comparing medians of the two
    ends is robust to per-scale sampling noise.  Returns the arrays
    (limit, diverged, stable) over the leading axes.
    """
    v = np.asarray(values, dtype=float)
    limit = _late(v)
    tail = v[..., -3:]
    with np.errstate(invalid="ignore"):
        # a tail of equal infinities has a NaN spread: never stable
        spread = tail.max(axis=-1) - tail.min(axis=-1)
    stable = spread <= 0.05 * np.maximum(1.0, np.abs(limit))
    diverged = np.zeros(limit.shape, dtype=bool)
    # at most one side can blow up: their late levels have opposite signs
    for sign in (1.0, -1.0):
        w = sign * v
        late = _late(w)
        early = np.maximum(w[..., :3].max(axis=-1), 1e-12)
        blow = (late >= DIVERGENCE_CAP) & (
            (w.max(axis=-1) >= HARD_CAP)
            | ((v.shape[-1] >= 5) & (late >= 5.0 * early)))
        limit = np.where(blow, sign * math.inf, limit)
        diverged |= blow
    return limit, diverged, stable & ~diverged


def _limits(highs: np.ndarray, shallow: np.ndarray):
    """(limit, diverged, stable) of per-scale sup quotients, with the
    shallow track's blow-up test on top of ``_extrapolate``."""
    limit, diverged, stable = _extrapolate(highs)
    if highs.shape[-1] >= 5:
        # large level whose t = r quotient still grows geometrically:
        # blow-up, even though the sub-ladder noise floor flattens the
        # per-shell sup and hides the growth from the main test
        large = ~diverged & np.isfinite(limit) & (limit >= DIVERGENCE_CAP)
        if large.any():
            early = np.maximum(shallow[..., :3].max(axis=-1), 1e-12)
            rising = np.mean(np.diff(shallow, axis=-1) >= 0, axis=-1) >= 0.6
            blow = large & (_late(shallow) >= 5.0 * early) & rising
            limit = np.where(blow, math.inf, limit)
            diverged = diverged | blow
            stable = stable & ~blow
    return limit, diverged, stable


def _base_offsets(m: int, seed: int) -> np.ndarray:
    """Window offsets: x repeated for each jitter, then a space-filling rest."""
    fixed = np.zeros((DIR_JITTER, m))
    rest = BASE_COUNT - DIR_JITTER
    if m == 1:
        # deterministic line coverage beats Monte Carlo in one dimension
        line = np.linspace(-1.0, 1.0, max(rest, 2))[:, None]
        return np.vstack([fixed, line[:rest]])
    return np.vstack([fixed, sampling.ball_points(m, rest, seed)])


def _first_per_voxel(kept: np.ndarray, steps, rises) -> np.ndarray:
    """The unit rows kept, then the directions of the chords (steps, rises),
    thinned in row order to the first of each voxel of side rho/(2 sqrt d)
    anchored at -1 per coordinate.  A chord whose norm overflows is dropped."""
    C = np.concatenate([steps, rises], axis=-1).reshape(-1, kept.shape[1])
    size = np.linalg.norm(C, axis=1)
    C = np.vstack([kept, C[np.isfinite(size)] / size[np.isfinite(size), None]])
    d = C.shape[1]
    side = sampling.grid_resolution(d) / (2.0 * math.sqrt(d))
    k, cells = np.floor((C + 1.0) / side).astype(np.int64), int(2.0 / side) + 2
    if cells ** d < 2 ** 62:
        k = np.ravel_multi_index(k.T, (cells,) * d)
    return C[np.sort(np.unique(k, axis=0, return_index=True)[1])]


def _t_count(ts, t_floor: float, Y, FY) -> int:
    """How many steps of the sub-ladder ts to take from the base points Y
    with values FY.  Quotients difference nearly equal numbers; keep t
    above the level where argument and value roundoff would pollute
    them: a prefix of the sub-ladder, never an empty one."""
    noise_floor = (np.finfo(float).eps * max(float(np.max(np.abs(Y))),
                                             float(np.max(np.abs(FY))))
                   / NOISE_BUDGET)
    return max(1, int(np.count_nonzero(ts >= max(t_floor, noise_floor, 1e-300))))


def _scan(f, x, U, ladder: ScaleLadder, moving_base: bool, chord_sets=None,
          keep_lows: bool = True, fixed_rows: slice | None = None):
    """Per-scale quotient extrema along every row of U.

    Returns (radii, highs, lows, shallow, fixed), the middle three of
    shape (q, scales) for q rows.  ``shallow`` is the sup at t = r alone.
    The quotient of a vector map is the norm of its increment over t.
    ``lows`` is None unless ``keep_lows``: the moving-base scans read the
    inf side off the sup side, so only their callers skip the minima.

    ``fixed_rows``, a slice of the rows of a moving-base scan of a scalar
    map, also reads the fixed-base (highs, lows, shallow) of those rows as
    ``fixed``; it is None without them.  A moving base's first
    ``DIR_JITTER`` points are x itself, with the jitter of a fixed base,
    so those columns' quotients are a fixed-base scan's.  But their noise
    floor reads x and f(x) alone, never higher than the whole window's:
    they take their own t prefix, and the steps past the window's run for
    those columns of those rows alone.

    A list ``chord_sets`` gets the unit graph chords (t v, f(y+tv) - f(y))
    of a vector map, then their antipodes, per deepest three scales; each
    call thins its own with the rows kept so far, whatever the split.
    """
    x = np.asarray(x, dtype=float).reshape(f.m)
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[1] != f.m:
        raise ValueError("direction dimension does not match the function")
    lad = ladder.for_handle(f)
    seed = lad.resolved_seed()
    radii = lad.radii()
    q, m = U.shape
    n = f.n

    norms = np.linalg.norm(U, axis=1)
    unit = np.divide(U, np.maximum(norms, 1e-300)[:, None])
    zero_dir = norms == 0.0

    meta = getattr(f, "meta", None) or {}
    floor = meta.get("scale_floor")
    t_floor = floor / 64.0 if floor else 0.0

    nk = len(radii)
    highs = np.full((q, nk), -np.inf)
    lows = np.full((q, nk), np.inf) if keep_lows else None
    # sup at t = r only; the deep sub-ladder hits its noise floor on every
    # shell, so geometric blow-up is only visible on this shallow track
    shallow = np.full((q, nk), -np.inf)
    fixed = None
    if fixed_rows is not None:
        nf = len(range(q)[fixed_rows])
        fixed = (np.empty((nf, nk)), np.empty((nf, nk)), np.empty((nf, nk)))

    for ki, r in enumerate(radii):
        k = lad.k_min + ki
        kept = None if chord_sets is None or ki < nk - 3 else np.empty((0, m + n))
        if moving_base:
            offs = _base_offsets(m, sampling.child_seed(seed, 11, k))
        else:
            offs = np.zeros((DIR_JITTER, m))
        Y = x[None, :] + r * offs
        B = len(Y)
        G = sampling.sphere_points(m, DIR_JITTER, sampling.child_seed(seed, 23, k))
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

        FY = f(Y)
        ts = r * 2.0 ** (-np.arange(T_SUBSTEPS))
        nt = _t_count(ts, t_floor, Y, FY)
        Vc = np.ascontiguousarray(np.moveaxis(V, 2, 0))
        # the t steps of every row on every base point; then, where the
        # fixed rows' x columns have a deeper prefix, its rest on those alone
        passes = [(0, nt, Vc, Y, FY)]
        if fixed is not None:
            nx = _t_count(ts, t_floor, Y[:DIR_JITTER], FY[:DIR_JITTER])
            x_hi, x_lo = np.empty((nx, nf)), np.empty((nx, nf))
            if nx > nt:
                Vx = np.ascontiguousarray(Vc[:, fixed_rows, :DIR_JITTER])
                passes.append((nt, nx, Vx, Y[:DIR_JITTER], FY[:DIR_JITTER]))
        step_hi = np.empty((nt, q))
        step_lo = np.empty((nt, q)) if keep_lows else None
        for t_lo, t_hi, Vp, Yp, FYp in passes:
            # each f call takes as many whole t steps of every row as fit
            # in QUOTIENT_ROW_CAP probe points, never less than one; the
            # probes y + t v go one coordinate per contiguous row of a
            # reused buffer, the increments f(y + t v) - f(y) to buffers
            # the scan owns, never into the array f returned
            block = Vp.shape[1] * Vp.shape[2]
            per_call = max(1, QUOTIENT_ROW_CAP // max(block, 1))
            cap = min(per_call, t_hi - t_lo) * block
            buf = np.empty((m, cap))
            qbuf = np.empty(cap)
            dbuf = np.empty(cap * n) if n > 1 else None
            for j in range(t_lo, t_hi, per_call):
                rows = min(per_call, t_hi - j)
                P = buf[:, :rows * block]
                # a probe past the float range reads inf, and the handle's
                # own finite check reports it
                with np.errstate(over="ignore"):
                    for d in range(m):
                        Pd = P[d].reshape(rows, *Vp.shape[1:])
                        np.multiply(ts[j:j + rows, None, None], Vp[d], out=Pd)
                        Pd += Yp[:, d]
                F = f(P.T)
                quot = qbuf[:rows * block].reshape(rows, *Vp.shape[1:])
                if n == 1:
                    np.subtract(F[:, 0].reshape(quot.shape), FYp[:, 0], out=quot)
                else:
                    dF = dbuf[:rows * block * n].reshape(*quot.shape, n)
                    np.subtract(F.reshape(dF.shape), FYp, out=dF)
                    # a huge map overflows the squares to +inf, a true reading
                    with np.errstate(over="ignore"):
                        if kept is not None:
                            kept = _first_per_voxel(kept, ts[j:j + rows, None, None, None] * V, dF)
                        # the Euclidean norm as np.linalg.norm takes it, in place
                        np.multiply(dF, dF, out=dF)
                        np.add.reduce(dF, axis=3, out=quot)
                    np.sqrt(quot, out=quot)
                quot /= ts[j:j + rows, None, None]
                # the per-t extrema of this call's t steps
                if Vp is Vc:
                    quot.max(axis=2, out=step_hi[j:j + rows])
                    if keep_lows:
                        quot.min(axis=2, out=step_lo[j:j + rows])
                    if fixed is None:
                        continue
                    quot = quot[:, fixed_rows, :DIR_JITTER]
                quot.max(axis=2, out=x_hi[j:j + rows])
                quot.min(axis=2, out=x_lo[j:j + rows])
        # then over t in t order: the extremum of signed zeros depends on
        # that order
        highs[:, ki] = step_hi.max(axis=0)
        shallow[:, ki] = step_hi[0]
        if keep_lows:
            lows[:, ki] = step_lo.min(axis=0)
        if fixed is not None:
            fixed[0][:, ki] = x_hi.max(axis=0)
            fixed[1][:, ki] = x_lo.min(axis=0)
            fixed[2][:, ki] = x_hi[0]
        if kept is not None:
            chord_sets.append(np.vstack([kept, -kept]))
    return radii, highs, lows, shallow, fixed


def quotient_scan(f, x, U, ladder: ScaleLadder, moving_base: bool) -> list:
    """Sup-side quotient profiles, vectorized across direction rows of U.

    Rows never interact: a row's profile is the same whether it is
    scanned alone or stacked with others.
    """
    radii, highs, lows, shallow, _ = _scan(f, x, U, ladder, moving_base)
    limit, diverged, stable = _limits(highs, shallow)
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return [QuotientProfile(U[i].copy(), radii.copy(), highs[i].copy(),
                            lows[i].copy(), float(limit[i]),
                            bool(diverged[i]), bool(stable[i]))
            for i in range(len(U))]


def slabs(f, x, U, ladder: ScaleLadder, bounds: bool = False):
    """(lows, highs, vertical, fixed) from one moving-base scan of -U, U
    and 0.

    highs are the sup quotients along the rows of U; lows come from the
    antipodal identity inf Q(u) = -sup Q(-u) on the block -U, never from
    a second estimate.  ``vertical`` says whether the quotient along the
    zero direction blows up, i.e. whether the vertical belongs to the
    graph Whitney cone.  f is scalar: the identity needs a signed quotient.

    With ``bounds``, ``fixed`` is the point's ``FixedBounds``, read in the
    same pass off the base points at x itself along the rows -U and then
    U; in 2-D along every second of those rows, which on the circle
    grid's first half is every second degree of -U and of U.  Without, it
    is None, and the scan takes no step for it.
    """
    if f.n != 1:
        raise ValueError("slabs need a scalar function")
    U = np.asarray(U, dtype=float).reshape(-1, f.m)
    q = len(U)
    rows = slice(0, 2 * q, 2 if f.m == 2 else 1) if bounds else None
    stack = np.vstack([-U, U, np.zeros((1, f.m))])
    _, highs, _, shallow, fixed = _scan(f, x, stack, ladder, True,
                                        keep_lows=False, fixed_rows=rows)
    lim, div, _ = _limits(highs, shallow)
    vertical = bool(div[-1] or abs(lim[-1]) > DIVERGENCE_CAP)
    if fixed is not None:
        fixed = _fixed_limits(stack[rows], *fixed)
    return -lim[:q], lim[q:2 * q], vertical, fixed


def chords(f, x, U, ladder: ScaleLadder) -> list:
    """A vector map's unit graph chords, one set per deepest three scales of
    one moving-base scan of U and the zero row (vertical where f blows up)."""
    if f.n == 1:
        raise ValueError("chords need a vector map")
    sets: list = []
    _scan(f, x, np.vstack([U, np.zeros((1, f.m))]), ladder, True, sets,
          keep_lows=False)
    return sets


# the domain grid: one-degree steps on the circle, 512 antipodal pairs of
# low-discrepancy points on higher spheres
DOMAIN_DIRS_2D = 360
DOMAIN_DIRS_HIGH = 1024


def _direction_grid(m: int, count: int | None = None) -> np.ndarray:
    """Directions of R^m: ``count`` evenly spaced on the circle, or
    ``count // 2`` seeded Kronecker points (``sampling.sphere_points``)
    and their antipodes above; +1 and -1 on the line.  The default count gives the domain grid, which
    the graph Whitney cone's slab scan, the slice-top upper bound and the
    fixed-base limits all read.  Its first half holds one of each
    antipodal pair: the other half is its negation, exactly above the
    circle and up to rounding on it.
    """
    if count is None:
        count = DOMAIN_DIRS_2D if m == 2 else DOMAIN_DIRS_HIGH
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        ang = np.arange(count) * (2.0 * math.pi / count)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    pts = sampling.sphere_points(m, count // 2, 5)
    return np.vstack([pts, -pts])


class FixedBounds(NamedTuple):
    """Rows read with a fixed base, with their lower and upper Dini limits."""
    rows: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


def _fixed_limits(rows, highs, lows, shallow) -> FixedBounds:
    """The extrapolated per-scale inf and sup quotients of a fixed base.
    Only the sup side gets the shallow track's test."""
    return FixedBounds(rows, _extrapolate(lows)[0], _limits(highs, shallow)[0])


def fixed_bounds(f, x, ladder: ScaleLadder) -> FixedBounds:
    """The point's fixed-base Dini limits.

    A scalar map reads them off its slab scan of the domain grid's first
    half (``slabs``), the pass that builds its graph Whitney cone.  A
    vector map's norm quotient along -u cannot be read from u, so it takes
    a fixed-base scan of its own along the antipodes of the domain grid
    (every second circle row in 2-D).
    """
    if f.n == 1:
        return slabs(f, x, np.split(_direction_grid(f.m), 2)[0], ladder, True)[3]
    rows = -_direction_grid(f.m)[::2 if f.m == 2 else 1]
    _, highs, lows, shallow, _ = _scan(f, x, rows, ladder, False)
    return _fixed_limits(rows, highs, lows, shallow)


def pointwise_lipschitz(bounds: FixedBounds) -> float:
    """lip f(x): the largest |Dini limit| of the fixed-base limits on
    either side; for a vector map, the operator norm of a derivative."""
    return float(max(np.abs(bounds.lows).max(), np.abs(bounds.highs).max()))
