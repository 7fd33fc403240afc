"""Deterministic direction grids and low-discrepancy probe generators.

All randomness in the package flows through the helpers here.  Every
sampler takes an explicit integer seed, and the same seed always yields
the same points, so reports are reproducible byte for byte.

Direction grids:
    dim 2   uniform circle grid, 720 points (0.5 degree step)
    dim 3   Fibonacci sphere, 16384 points
    dim >3  Halton points through the Gaussian quantile map, 32768 on S^3

Probe sets (``sphere_points``, ``ball_points``) come from a seeded
Kronecker sequence (``_kronecker``): the R_d step of Roberts (2018) plus a
random shift, which needs no table of constants.  The Halton
points of the high grids are a numpy reproduction of scipy's
``qmc.Halton(scramble=False)``, pinned bit for bit by the tests.

The package needs numpy alone at run time.  Neighbour queries go to
``CellIndex``, a numpy grid of cubes whose chords equal those of scipy's
KD tree bit for bit.  Its ``near(dirs, tol)`` is the package's one test
of whether a direction lies within tol of a set, equal bit for bit to
``min_angle_to_set(dirs, members) <= tol``.  The Gaussian quantile
``_ndtri`` is a numpy port of the Cephes ``ndtri`` that
``scipy.special.ndtri`` runs, equal to it bit for bit (the tests pin
both).

The nominal angular resolution ``grid_resolution(dim)`` is the mean
nearest-neighbor spacing of the grid; membership tests elsewhere default
to twice this value.  ``covering_radius(dim)`` is the farthest any
direction lies from the grid, which a test that must hit a grid row near
a thin set has to allow.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
# every seeded stream comes from numpy.random, which numpy loads lazily
import numpy.random

TWO_PI = 2.0 * np.pi

GRID_SIZES = {2: 720, 3: 16384, 4: 32768}

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def child_seed(seed: int, *parts: int) -> int:
    """Derive a stream seed from a root seed and integer tags.

    Plain integer mixing (no hash()) so results do not depend on
    PYTHONHASHSEED.
    """
    out = (seed & 0xFFFFFFFF) + 0x9E3779B9
    for p in parts:
        out ^= (p & 0xFFFFFFFF) + 0x85EBCA6B + ((out << 6) & 0xFFFFFFFF) + (out >> 2)
        out &= 0xFFFFFFFF
    return out


@lru_cache(maxsize=8)
def unit_grid(dim: int) -> np.ndarray:
    """Deterministic unit-vector grid on S^{dim-1}, shape (N, dim).

    The array is shared by every caller, so it is read-only.
    """
    grid = _build_grid(dim)
    grid.setflags(write=False)
    return grid


def _build_grid(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValueError("grid dimension must be >= 1")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        n = GRID_SIZES[2]
        theta = np.arange(n) * (TWO_PI / n)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        n = GRID_SIZES[3]
        i = np.arange(n) + 0.5
        z = 1.0 - 2.0 * i / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = TWO_PI * i / _GOLDEN
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    n = GRID_SIZES.get(dim, GRID_SIZES[4])
    # Halton points pushed through the Gaussian quantile map give an
    # even, deterministic spread on higher spheres.
    h = _halton(dim, n + 1)[1:]
    g = _ndtri(np.clip(h, 1e-12, 1.0 - 1e-12))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


# grid_resolution of the fixed 3-D to 9-D grids, pinned by the tests
# against the computation in it, which costs a process from 10-30 ms
# (3-D) to seconds (9-D) on a 2-core x86 host
GRID_RESOLUTIONS = {3: 0.026458756514606142, 4: 0.04844742681739875,
                    5: 0.10553235410724175, 6: 0.1716608664681616,
                    7: 0.2343263530355433, 8: 0.28405967897660944,
                    9: 0.3388343111349011}

# covering radius of each fixed grid: the largest angle from a point of
# the sphere to its nearest grid row.  Up to 5-D it is read off the
# grid's convex hull as the widest facet circumcap (pinned by the tests).
# On the circle it is half a step; on S^2 it is below the mean spacing,
# but the 4-D Halton grid leaves holes 2.5 times its mean spacing wide.
# From 6-D on the hull is out of reach, and the values are the estimate
# of covering_radius over 2^16 probes, which can only read low.
COVERING_RADII = {2: math.pi / GRID_SIZES[2], 3: 0.021313567292288765,
                  4: 0.12212555843554901, 5: 0.21615207155367874,
                  6: 0.2719213798578661, 7: 0.3516031367576242,
                  8: 0.4214244780388775, 9: 0.4899594922334894}


@lru_cache(maxsize=8)
def grid_resolution(dim: int) -> float:
    """Mean nearest-neighbor angle of the grid for this dimension."""
    if dim <= 1:
        return 0.0
    if dim == 2:
        return TWO_PI / GRID_SIZES[2]
    if dim in GRID_RESOLUTIONS:
        return GRID_RESOLUTIONS[dim]
    pts = unit_grid(dim)
    probe = pts if len(pts) <= 4096 else pts[:: len(pts) // 4096]
    chord, _ = CellIndex(pts).nearest(probe, 2)
    return float(np.mean(2.0 * np.arcsin(np.clip(chord[:, 1] / 2.0, 0.0, 1.0))))


@lru_cache(maxsize=8)
def covering_radius(dim: int) -> float:
    """Largest angle from a point of the sphere to its nearest grid row.

    Pinned for the fixed grids (``COVERING_RADII``); any other grid gets
    the largest nearest-row angle over 2^16 seeded probes, which can only
    read low.
    """
    if dim <= 1:
        return 0.0
    if dim in COVERING_RADII:
        return COVERING_RADII[dim]
    chord, _ = CellIndex(unit_grid(dim)).nearest(sphere_points(dim, 1 << 16, 0), 1)
    return float(2.0 * np.arcsin(min(1.0, float(chord.max()) / 2.0)))


def min_angle_to_set(dirs: np.ndarray, members: np.ndarray) -> np.ndarray:
    """For each unit row of dirs, the angle to the closest row of members."""
    dirs = np.atleast_2d(dirs)
    if len(members) == 0:
        return np.full(len(dirs), np.inf)
    chord, _ = CellIndex(members).nearest(dirs, 1)
    return 2.0 * np.arcsin(np.clip(chord[:, 0] / 2.0, 0.0, 1.0))


# persistence's merged voxels (geometry._persistent_directions) are this
# much (relative) smaller than the chord of tol allows, and the cubes of
# CellIndex.near this much larger
NEAR_MARGIN = 1e-6


def _cell_count(lo: np.ndarray, hi: np.ndarray, side: float) -> int:
    """Cubes per axis of the grid of the given side anchored at lo that
    holds every point up to hi, plus one empty layer above; 0 when the
    side is not positive or the packed index of a cube would not fit in
    int64."""
    span = float((hi - lo).max())
    # floor((x - lo) / side) is off by at most span / side * 2^-52 cells,
    # far below NEAR_MARGIN while span / side <= 2^26
    cells = int(span / side) + 2 if side > 0.0 and span / side <= 2.0 ** 26 else 0
    return cells if 0 < cells ** len(lo) < 2 ** 62 else 0


def voxel_keys(arrays: list, side: float, merge: int = 1) -> list | None:
    """One int64 per row of each non-empty array: its voxel on one grid of
    cubes of the given side, anchored at the arrays' common minimum.

    Rows get the same key exactly when they share a voxel.  With merge > 1
    each array gets a pair instead: those keys, and the keys of the cubes
    of side merge * side on the same anchor, each the union of merge^d
    voxels, from the same floored cells.  None when the side is not
    positive or the packed index would not fit in int64.
    """
    # column by column: a strided reduction of one column is several times
    # faster than min(axis=0) over narrow rows, with the same result
    lo = np.min([[a[:, c].min() for c in range(a.shape[1])] for a in arrays], axis=0)
    hi = np.max([[a[:, c].max() for c in range(a.shape[1])] for a in arrays], axis=0)
    cells = _cell_count(lo, hi, side)
    if not cells:
        return None
    wide = (cells - 1) // merge + 1

    def keys(x):
        # the packed index (x1 cells + x2) cells + ..., column by column:
        # ravel_multi_index's integer, exact below 2^62
        out = np.zeros(len(x), dtype=np.int64)
        big = np.zeros(len(x) if merge > 1 else 0, dtype=np.int64)
        for c in range(x.shape[1]):
            k = x[:, c] - lo[c]
            k /= side
            k = np.floor(k, out=k).astype(np.int64)
            out *= cells
            out += k
            if merge > 1:
                k //= merge
                big *= wide
                big += k
        return (out, big) if merge > 1 else out

    return [keys(a) for a in arrays]


def _key_order(keys: np.ndarray) -> tuple:
    """The permutation that sorts non-negative int64 keys, equal keys in
    index order, and the sorted keys.

    One ``np.sort`` of the words (key << b) | index, b the bit length of the
    largest index, gives both; where a word would not fit in int64 a stable
    argsort does.
    """
    bits = max(1, (len(keys) - 1).bit_length())
    if not len(keys) or int(keys.max()) < 1 << (63 - bits):
        words = keys << bits
        words |= np.arange(len(keys))
        words.sort()
        return words & ((1 << bits) - 1), words >> bits
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def _key_runs(keys: np.ndarray) -> tuple:
    """The permutation that sorts non-negative int64 keys (``_key_order``),
    the distinct keys, ascending, and the start of each one's run in that
    order, with len(keys) appended."""
    order, keys = _key_order(keys)
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    return order, keys[starts], np.append(starts, len(keys))


def _squared_chords(diffs: list) -> np.ndarray:
    """The sum of the squares of diffs (one array per coordinate, which it
    overwrites), added in the order of scipy's KD tree, so chords equal its
    distances bit for bit.

    The tree sums four lanes, lane j holding coordinates j, j + 4, ... of
    each full group of four; it adds the lanes 0 + 1 + 2 + 3, then the
    coordinates past the last full group one by one.  Below 8 coordinates
    that is the plain sum from left to right.
    """
    for d in diffs:
        d *= d
    full = len(diffs) // 4 * 4
    if full >= 8:
        lanes = diffs[:4]
        for j in range(4, full):
            lanes[j % 4] += diffs[j]
        out, rest = lanes[0], full
        for lane in lanes[1:]:
            out += lane
    else:
        out, rest = diffs[0], 1
    for d in diffs[rest:]:
        out += d
    return out


# CellIndex buckets rows by at most this many leading coordinates and
# works through candidate pairs in blocks of CELL_BLOCK
CELL_AXES = 6
CELL_BLOCK = 1 << 16
# nearest screens candidate lists at least this long by dot products
CELL_SCREEN = 2048
# nearest starts on cubes of the side at which the members' bounding cube,
# cut evenly, gives each cube CELL_FILL of them, and halves that side while
# the cubes the members occupy hold more than CELL_CROWD each on average
CELL_FILL = 0.5
CELL_CROWD = 8


@lru_cache(maxsize=8)
def _offsets(axes: int) -> tuple:
    """The 3^axes cubes around a cube as runs of cubes next to each other
    along the last axis, nearest first: the cube itself; the two beside it
    and the rows of three one step away along one other axis; then the
    rows one step away along 2, 3, ... other axes.  One pair of arrays per
    stage: the first cube of each run, as an offset, and the run's length."""
    grid = np.indices((3,) * axes).reshape(axes, -1).T - 1
    rows = grid[grid[:, -1] == -1]
    moved = np.count_nonzero(rows[:, :-1], axis=1)
    own = np.zeros((3, axes), dtype=np.int64)
    own[:, -1] = (0, -1, 1)
    first = np.vstack([own, rows[moved > 0]])
    size = np.r_[1, 1, 1, np.full(np.count_nonzero(moved), 3)]
    stage = np.r_[0, 1, 1, moved[moved > 0]]
    out = tuple((first[stage == m], size[stage == m]) for m in range(stage.max() + 1))
    for a in (a for pair in out for a in pair):
        a.setflags(write=False)
    return out


class _CubeGrid:
    """The members of an index in the cubes of one side that they occupy.

    The cubes are anchored at the members' minimum.  ``cubes`` holds the
    packed index of each occupied cube, ascending, and the members of
    ``cubes[i]`` are ``order[starts[i]:starts[i + 1]]``, so no array
    outgrows the members whatever the side.  Query rows are clamped to the
    grid and read the 3^a cubes around their own as runs of cubes next to
    each other along the last axis (``_offsets``, ``runs``).  An offset
    that steps below cube 0 along an axis lands, after the borrow, in the
    empty top layer of that axis or at a negative index, and neither is
    occupied.
    """

    def __init__(self, index: "CellIndex", side: float):
        axes = index.axes
        # at most this many cubes per axis: the floors stay exact
        # (_cell_count) and a packed index below 2^53, where whole floats
        # times the strides add exactly; equal members take a side of at
        # least 1, so that halving it stops
        most = min(1 << 26, int(2.0 ** (53.0 / axes)))
        span = float((index.hi - index.lo).max())
        side = max(side, span / (most - 2.5) if span > 0.0 else 1.0)
        cells = _cell_count(index.lo, index.hi, side)
        if not cells:
            raise ValueError("members must be finite")
        self.side, self.cells, self.lo = side, cells, index.lo
        self.top = np.floor((index.hi - index.lo) / side)
        self.strides = cells ** np.arange(axes - 1, -1, -1, dtype=np.int64)
        self.order, self.cubes, self.starts = _key_runs(self.keys(index.cols))
        # the packed bounds of the runs around a cube, by stage and whole
        self.stages = [(f @ self.strides, f @ self.strides + n) for f, n in _offsets(axes)]
        self.low, self.high = (np.concatenate(b) for b in zip(*self.stages))

    def coord(self, col: np.ndarray, axis: int) -> np.ndarray:
        """The cube coordinate along one axis of each row, clamped to the
        grid, as floats."""
        c = col - self.lo[axis]
        c /= self.side
        np.floor(c, out=c)
        np.clip(c, 0.0, self.cells - 2.0, out=c)
        return c

    def keys(self, cols: list) -> np.ndarray:
        """The packed cube index of each row."""
        key = np.zeros(len(cols[0]), dtype=np.int64)
        for j, stride in enumerate(self.strides):
            c = self.coord(cols[j], j)
            # whole floats below 2^53 times the stride add exactly
            c *= stride
            np.add(key, c, out=key, casting="unsafe")
        return key

    def runs(self, cubes: np.ndarray, low: np.ndarray, high: np.ndarray) -> tuple:
        """Where the members of the cubes cubes[i] + low[j] up to cubes[i] +
        high[j] (excluded) start in order, and their count, both of shape
        (len(low), len(cubes)).

        The cubes of one run lie next to each other along the last axis, so
        their packed indices are consecutive and their members one run of
        order, found by two binary searches.  A cube past either end of a
        row of the grid is empty: below cube 0 lies the top layer of the
        row before, or a negative index.  Ascending cubes search several
        times faster.
        """
        at = np.searchsorted(self.cubes, np.stack([low[:, None] + cubes,
                                                   high[:, None] + cubes]))
        start = self.starts[at[0]]
        return start, self.starts[at[1]] - start

    def walls(self, cols: list) -> np.ndarray:
        """How far each row lies inside the 3^a cubes around its own: no
        member outside them is nearer.  A wall beyond which no member lies
        does not count, so a row that sees every member reads inf."""
        out = np.full(len(cols[0]), np.inf)
        for j, x in enumerate(cols[:len(self.lo)]):
            c = self.coord(x, j)
            low = np.where(c >= 2.0, x - (self.lo[j] + (c - 1.0) * self.side), np.inf)
            high = np.where(c + 2.0 <= self.top[j],
                            (self.lo[j] + (c + 2.0) * self.side) - x, np.inf)
            np.minimum(out, np.minimum(low, high), out=out)
        # rounding in the floors and in the walls stays far below this
        slack = NEAR_MARGIN * self.side + 2.0 ** -40 * (
            float(np.abs(self.lo).max()) + self.cells * self.side)
        return out - slack


class CellIndex:
    """Exact neighbour queries on the rows of members, by grids of cubes.

    Members are bucketed by their first min(d, CELL_AXES) coordinates into
    cubes of one side and sorted by cube; a grid keeps only the cubes they
    occupy, so none of its arrays is longer than n + 1 whatever the side
    (``_CubeGrid``).  A query row reads the 3^a cubes around its own, which
    hold every member that lies within one side of it: in those
    coordinates, and so in full.  Both queries compute chords as
    ``_squared_chords`` does, the bits of scipy's KD tree.

    ``near(dirs, tol)`` decides whether a member lies within the angle tol
    of each row; ``nearest(q, k)`` finds each row's k nearest members.
    """

    def __init__(self, members: np.ndarray):
        members = np.asarray(members, dtype=float)
        self.n, self.dim = members.shape
        self.axes = min(self.dim, CELL_AXES)
        self.cols = [members[:, j] for j in range(self.dim)]
        if self.n:
            self.lo = np.array([c.min() for c in self.cols[:self.axes]])
            self.hi = np.array([c.max() for c in self.cols[:self.axes]])
        self._grids: dict = {}
        self._padded = None

    def grid(self, side: float) -> _CubeGrid:
        """The members in cubes of at least this side, built once."""
        g = self._grids.get(side)
        if g is None:
            g = self._grids[side] = _CubeGrid(self, side)
        return g

    def _chords2(self, cols: list, qcols: list, rows: np.ndarray,
                 ids: np.ndarray) -> np.ndarray:
        """Squared chords from query rows to members ids (columns cols);
        rows broadcasts against ids."""
        diffs = [c[ids] for c in cols]
        for d, q in zip(diffs, qcols):
            d -= q[rows]
        return _squared_chords(diffs)

    def near(self, dirs: np.ndarray, tol: float) -> np.ndarray:
        """Whether each row of dirs lies within tol of a member: the angle
        to its nearest member, 2 arcsin(chord / 2), is at most tol, bit for
        bit as ``min_angle_to_set`` reads it.

        The cubes have at least the side 2 sin(tol/2) (1 + NEAR_MARGIN),
        so a member within tol lies in the 3^a cubes around a row's own,
        and rounding in the floors cannot move it out.  They are read
        nearest first, the row's own cube alone first, and a row is done at
        the first stage that holds a member within tol.  An angle is at most pi, so for tol >= pi every
        row is near, and with no members only tol = inf holds.
        """
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        out = np.full(len(dirs), tol == math.inf
                      or (self.n > 0 and tol >= math.pi))
        if not (self.n and 0.0 <= tol < math.pi and len(dirs)):
            return out
        # the floor keeps the cubes' side a normal float for tol = 0
        g = self.grid(max(2.0 * math.sin(0.5 * tol) * (1.0 + NEAR_MARGIN), 1e-150))
        qcols = [np.ascontiguousarray(dirs[:, j]) for j in range(self.dim)]
        key = g.keys(qcols)
        by_key, _ = _key_order(key)
        step = max(1, CELL_BLOCK // len(g.low))
        for at in range(0, len(dirs), step):
            live = by_key[at:at + step]
            for low, high in g.stages:
                start, count = g.runs(key[live], low, high)
                full = np.flatnonzero(count)
                hit = self._near_runs(qcols, live[full % len(live)],
                                      start.flat[full], count.flat[full], g, tol)
                out[hit] = True
                live = live[~out[live]]
                if not len(live):
                    break
        return out

    def _near_runs(self, qcols, rows, start, count, g, tol) -> np.ndarray:
        """The rows of which some member in its run (the members
        order[start:start + count] of one run of cubes) lies within tol."""
        hit = np.zeros(len(rows), dtype=bool)
        ends = np.cumsum(count)
        a = 0
        while a < len(rows):
            base = ends[a] - count[a]
            b = max(a + 1, int(np.searchsorted(ends, base + CELL_BLOCK, side="right")))
            c = count[a:b]
            heads = np.cumsum(c) - c
            pos = np.repeat(start[a:b] - heads, c) + np.arange(int(ends[b - 1] - base))
            d2 = self._chords2(self.cols, qcols, np.repeat(rows[a:b], c), g.order[pos])
            # the nearest member of a run decides it
            chord = np.sqrt(np.minimum.reduceat(d2, heads))
            hit[a:b] = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)) <= tol
            a = b
        return rows[hit]

    def nearest(self, q: np.ndarray, k: int) -> tuple:
        """The chords (len(q), k) from each row of q to its k nearest
        members, ascending, and their member indices; of members at one
        squared chord the lower index comes first.  Where fewer than k
        members exist the rest read inf and n.

        A row reads the members of the 3^a cubes around its own and is done
        when its k-th chord lies below its distance to the wall of that
        block.  Rows that are not done read again on a grid of twice the
        side.  The first grid cuts the members' bounding cube into cubes of
        CELL_FILL members each, were they spread evenly through it, and
        then halves its side while the cubes the members occupy hold more
        than CELL_CROWD of them on average, as a thin set's do, until the
        side stops shrinking.
        """
        q = np.atleast_2d(np.asarray(q, dtype=float))
        chords = np.full((len(q), k), np.inf)
        ids = np.full((len(q), k), self.n, dtype=np.int64)
        if not (self.n and len(q)):
            return chords, ids
        qcols = [np.ascontiguousarray(q[:, j]) for j in range(self.dim)]
        if self._padded is None:
            # a member at infinity after the last pads candidate lists
            self._padded = [np.append(c, np.inf) for c in self.cols]
        span = float((self.hi - self.lo).max())
        g = self.grid(span * (CELL_FILL / self.n) ** (1.0 / self.axes))
        while len(g.cubes) * CELL_CROWD < self.n:
            finer = self.grid(0.5 * g.side)
            if not finer.side < g.side:
                break
            g = finer
        rows = np.arange(len(q))
        while len(rows):
            self._nearest_pass(g, qcols, rows, k, chords, ids)
            walls = g.walls([c[rows] for c in qcols])
            rows = rows[(walls < np.inf) & ~(chords[rows, -1] < walls)]
            if len(rows):
                g = self.grid(2.0 * g.side)
        ids[chords == np.inf] = self.n
        return chords, ids

    def _nearest_pass(self, g, qcols, rows, k, chords, ids) -> None:
        """Each row's k nearest members among the 3^a cubes around its own
        on grid g, into chords and ids.

        Rows in one cube share its candidate list, sorted by member index
        so that the first of equal chords is the lowest index.  The cubes
        go in blocks in key order, and within a block by descending list
        length, in blocks of rows that pad little.
        """
        order, cubes, starts = _key_runs(g.keys([c[rows] for c in qcols]))
        step = max(1, CELL_BLOCK // len(g.low))
        for at in range(0, len(cubes), step):
            start, count = g.runs(cubes[at:at + step], g.low, g.high)
            length = count.sum(axis=0)
            by = np.argsort(-length, kind="stable")
            head, per = starts[at:at + step][by], np.diff(starts[at:at + step + 1])[by]
            # the rows cube by cube in that order, and the rank of each one's cube
            seq = order[np.repeat(head - (np.cumsum(per) - per), per) + np.arange(per.sum())]
            rank = np.repeat(np.arange(len(by)), per)
            a = 0
            while a < len(seq):
                width = max(int(length[by[rank[a]]]), k)
                if width >= CELL_SCREEN:
                    # a long list: its cube's rows one block at a time
                    u, end = by[rank[a]], a + per[rank[a]]
                    members = self._cube_lists(g, start[:, [u]], count[:, [u]], width)[0]
                    self._screened(qcols, rows[seq[a:end]], members, k, chords, ids)
                    a = end
                    continue
                b = min(len(seq), a + max(1, CELL_BLOCK // width))
                take = by[rank[a]:rank[b - 1] + 1]
                lists = self._cube_lists(g, start[:, take], count[:, take], width)
                out = rows[seq[a:b]]
                at_list = rank[a:b] - rank[a]
                # the members' coordinates are gathered once per cube
                diffs = [c[lists][at_list] for c in self._padded]
                for d, q in zip(diffs, qcols):
                    d -= q[out, None]
                d2 = _squared_chords(diffs)
                line = np.arange(b - a)
                for t in range(k):
                    pick = d2.argmin(axis=1)
                    chords[out, t] = np.sqrt(d2[line, pick])
                    ids[out, t] = lists[at_list, pick]
                    d2[line, pick] = np.inf
                a = b

    def _screened(self, qcols, rows, members, k, chords, ids) -> None:
        """The k nearest of the members (ascending indices) to each row,
        into chords and ids, screened by dot products.

        One matrix product gives every squared chord as |q|^2 + |m|^2 -
        2 q.m, off by at most e = 4 (d + 4) eps (|q| + max |m|)^2.  A
        member among the k nearest lies within 2 e of the k-th smallest of
        those values, so only the members within that reach get their
        chords computed exactly.
        """
        X = np.column_stack([c[members] for c in self.cols])
        xx = np.einsum("ij,ij->i", X, X)
        reach = math.sqrt(float(xx.max()))
        step = max(16, CELL_BLOCK // len(members))
        for at in range(0, len(rows), step):
            part = rows[at:at + step]
            Q = np.column_stack([c[part] for c in qcols])
            qq = np.einsum("ij,ij->i", Q, Q)
            rough = Q @ X.T
            rough *= -2.0
            rough += xx
            rough += qq[:, None]
            kth = (rough.min(axis=1) if k == 1
                   else np.partition(rough, k - 1, axis=1)[:, k - 1])
            err = 4.0 * (self.dim + 4) * np.finfo(float).eps * (np.sqrt(qq) + reach) ** 2
            hit = np.flatnonzero(rough <= (kth + 2.0 * err)[:, None])
            del rough
            line, col = np.divmod(hit, len(members))
            d2 = self._chords2(self.cols, qcols, part[line], members[col])
            order = np.lexsort((members[col], d2, line))
            line, col, d2 = line[order], col[order], d2[order]
            place = np.arange(len(line)) - np.searchsorted(line, line)
            take = place < k
            out = part[line[take]]
            chords[out, place[take]] = np.sqrt(d2[take])
            ids[out, place[take]] = members[col[take]]

    def _cube_lists(self, g, start, count, width) -> np.ndarray:
        """The members of the runs of each column of start and count (as
        ``_CubeGrid.runs`` gives them), one row per column sorted by member
        index and padded with n to the width."""
        length = count.sum(axis=0)
        start, count = start.T.ravel(), count.T.ravel()
        total = int(length.sum())
        pos = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(total)
        col = np.arange(total) - np.repeat(np.cumsum(length) - length, length)
        out = np.full((len(length), width), self.n, dtype=np.int64)
        out[np.repeat(np.arange(len(length)), length), col] = g.order[pos]
        out.sort(axis=1)
        return out


def _primes(count: int) -> list:
    """The first ``count`` primes."""
    out = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def _halton(dim: int, count: int) -> np.ndarray:
    """The first ``count`` points of the plain Halton sequence, from 0.

    Each coordinate is the radical inverse of the index in one of the
    first ``dim`` primes, summed digit by digit in scipy's order.
    """
    out = np.empty((count, dim))
    for j, base in enumerate(_primes(dim)):
        q = np.arange(count, dtype=np.int64)
        col = np.zeros(count)
        r = 1.0 / base
        while q.any():
            col += (q % base) * r
            r /= base
            q //= base
        out[:, j] = col
    return out


def _kronecker_step(dim: int) -> np.ndarray:
    """The step of the R_d sequence (Roberts 2018): phi^-1, ..., phi^-dim,
    phi being the real root above 1 of x^(dim+1) = x + 1."""
    phi = 2.0
    # the iteration contracts by at most a third per step
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return phi ** -np.arange(1.0, dim + 1)


def _kronecker(dim: int, count: int, seed: int) -> np.ndarray:
    """Points 1..count of a seeded Kronecker sequence in [0, 1)^dim.

    Point i is (shift + i alpha) mod 1: the R_d step alpha with a
    Cranley-Patterson random shift (1976) drawn from the seed.  A draw of
    n points is the first n of any longer draw.
    """
    shift = np.random.default_rng(seed).random(dim)
    return (shift + np.arange(1.0, count + 1)[:, None] * _kronecker_step(dim)) % 1.0


# the Cephes ndtri that scipy.special.ndtri runs: a rational function of
# (y - 0.5)^2 between exp(-2) and 1 - exp(-2), and in the tails a
# correction to x = sqrt(-2 log y), a rational function of z = 1 / x from
# (P1, Q1) for x < 8 and (P2, Q2) above.  Each Q carries its implicit leading 1, so one Horner loop serves
# both of Cephes' evaluators with the same operations.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_PQ1 = np.array([
    (4.05544892305962419923e0, 3.15251094599893866154e1,
     5.71628192246421288162e1, 4.40805073893200834700e1,
     1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2,
     -8.57456785154685413611e-4),
    (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
     4.13172038254672030440e1, 1.50425385692907503408e1,
     2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4)])
_NDTRI_PQ2 = np.array([
    (3.23774891776946035970e0, 6.91522889068984211695e0,
     3.93881025292474443415e0, 1.33303460815807542389e0,
     2.01485389549179081538e-1, 1.23716634817820021358e-2,
     3.01581553508235416007e-4, 2.65806974686737550832e-6,
     6.23974539184983293730e-9),
    (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
     1.37702099489081330271e0, 2.16236993594496635890e-1,
     1.34204006088543189037e-2, 3.28014464682127739104e-4,
     2.89247864745380683936e-6, 6.79019408009981274425e-9)])


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Horner's rule, highest coefficient first, as Cephes' ``polevl``."""
    out = coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def _ndtri(y: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each entry of y, for 0 < y < 1.

    Equal to ``scipy.special.ndtri`` bit for bit (the tests pin it).  The
    tails take both logarithms from ``math.log``, the C library's, which
    the compiled Cephes calls; ``np.log`` differs from it in the last bit
    on some inputs.
    """
    y = np.asarray(y, dtype=float)
    flip = y > 1.0 - _EXP_M2
    w = np.where(flip, 1.0 - y, y)
    mid = w > _EXP_M2
    out = np.empty_like(w)
    c = w[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _NDTRI_P0)
                         / _polevl(c2, _NDTRI_Q0))) * _S2PI
    tail = w[~mid]
    x = np.sqrt(-2.0 * np.fromiter(map(math.log, tail.tolist()), float, len(tail)))
    x0 = x - np.fromiter(map(math.log, x.tolist()), float, len(x)) / x
    z = 1.0 / x
    p, q = np.where(x < 8.0, _NDTRI_PQ1[:, :, None], _NDTRI_PQ2[:, :, None])
    x1 = z * _polevl(z, p) / _polevl(z, q)
    out[~mid] = np.where(flip[~mid], x0 - x1, x1 - x0)
    return out


# sphere_points and ball_points are memoized: the analysis draws each
# (dim, count, seed) set several times per point
@lru_cache(maxsize=64)
def sphere_points(dim: int, count: int, seed: int) -> np.ndarray:
    """Seeded low-discrepancy points on S^{dim-1}.

    The array is shared by every caller, so it is read-only.
    """
    if dim == 1:
        out = np.where(np.arange(count) % 2 == 0, 1.0, -1.0).reshape(-1, 1)
    else:
        g = _ndtri(np.clip(_kronecker(dim, count, seed), 1e-12, 1.0 - 1e-12))
        norm = np.linalg.norm(g, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        out = g / norm
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def ball_points(dim: int, count: int, seed: int) -> np.ndarray:
    """Seeded low-discrepancy points in the closed unit ball.

    The array is shared by every caller, so it is read-only.
    """
    u = _kronecker(dim + 1, count, seed)
    if dim == 1:
        out = 2.0 * u[:, :1] - 1.0
    else:
        g = _ndtri(np.clip(u[:, :dim], 1e-12, 1.0 - 1e-12))
        norm = np.linalg.norm(g, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        out = g / norm * u[:, dim:] ** (1.0 / dim)
    out.setflags(write=False)
    return out
