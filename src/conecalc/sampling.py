"""Deterministic direction grids and low-discrepancy probe generators.

All randomness in the package flows through the helpers here.  Every
sampler takes an explicit integer seed, and the same seed always yields
the same points, so reports are reproducible byte for byte.

Direction grids:
    dim 2   uniform circle grid, 720 points (0.5 degree step)
    dim 3   Fibonacci sphere, 16384 points
    dim >3  seeded Gaussian low-discrepancy points, 32768 on S^3

The nominal angular resolution ``grid_resolution(dim)`` is the mean
nearest-neighbor spacing of the grid; membership tests elsewhere default
to twice this value.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtri
from scipy.stats import qmc

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
    h = qmc.Halton(d=dim, scramble=False).random(n + 1)[1:]
    g = ndtri(np.clip(h, 1e-12, 1.0 - 1e-12))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


@lru_cache(maxsize=8)
def grid_resolution(dim: int) -> float:
    """Mean nearest-neighbor angle of the grid for this dimension."""
    if dim <= 1:
        return 0.0
    if dim == 2:
        return TWO_PI / GRID_SIZES[2]
    pts = unit_grid(dim)
    probe = pts if len(pts) <= 4096 else pts[:: len(pts) // 4096]
    d, _ = grid_tree(dim).query(probe, k=2)
    chord = d[:, 1]
    return float(np.mean(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))))


@lru_cache(maxsize=8)
def grid_tree(dim: int) -> cKDTree:
    return cKDTree(unit_grid(dim))


def nearest_grid_index(dirs: np.ndarray, dim: int) -> np.ndarray:
    """Index of the nearest grid direction for each row of ``dirs``."""
    dirs = np.atleast_2d(dirs)
    if dim == 2:
        theta = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), TWO_PI)
        step = TWO_PI / GRID_SIZES[2]
        return np.mod(np.round(theta / step).astype(int), GRID_SIZES[2])
    _, idx = grid_tree(dim).query(dirs)
    return idx


def min_angle_to_set(dirs: np.ndarray, members: np.ndarray) -> np.ndarray:
    """For each unit row of dirs, the angle to the closest row of members."""
    dirs = np.atleast_2d(dirs)
    if len(members) == 0:
        return np.full(len(dirs), np.inf)
    tree = cKDTree(members)
    chord, _ = tree.query(dirs)
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


# near_set: voxels are this much (relative) smaller than the chord of tol
# allows, and the bounded query reaches this much beyond that chord
NEAR_MARGIN = 1e-6
VOXEL_BLOCK = 1 << 15


def near_set(dirs: np.ndarray, members: np.ndarray, tol: float) -> np.ndarray:
    """``min_angle_to_set(dirs, members) <= tol``, bit for bit, for each row.

    The test needs to know only whether some member lies within the chord
    c = 2 sin(tol/2), not which member is nearest, so it runs in two
    stages.  Voxels of side c (1 - NEAR_MARGIN) / sqrt(d) have diagonals
    shorter than c by far more than rounding, so a row sharing a voxel
    with a member is near.  Every other row gets one KD query bounded a
    margin above c; a miss reads as the angle pi.  A row the query finds
    gets the same chord bits as in ``min_angle_to_set``, and goes through
    the same formula.  The voxel stage is skipped where its packed keys
    would overflow int64 or rounding could reach the margin.
    """
    dirs = np.atleast_2d(dirs)
    if len(members) == 0 or len(dirs) == 0:
        return np.full(len(dirs), np.inf) <= tol
    # outside [0, pi] this chord is too short, which sends more rows to the
    # query, and a miss still reads pi
    chord = 2.0 * math.sin(0.5 * tol)
    near = _voxel_hits(dirs, members, chord * (1.0 - NEAR_MARGIN)
                       / math.sqrt(members.shape[1]))
    rest = np.flatnonzero(~near)
    if len(rest):
        # the tree compares squared distances, so the bound keeps a floor
        # whose square is a normal float; the tree's shape does not change
        # the nearest distance, so it takes the faster unbalanced build
        bound = max(chord * (1.0 + NEAR_MARGIN), 1e-150)
        tree = cKDTree(members, balanced_tree=False, compact_nodes=False)
        found, _ = tree.query(dirs[rest], distance_upper_bound=bound)
        near[rest] = 2.0 * np.arcsin(np.clip(found / 2.0, 0.0, 1.0)) <= tol
    return near


def _voxel_hits(dirs: np.ndarray, members: np.ndarray, side: float) -> np.ndarray:
    """Rows of dirs that share a voxel of the given side with some member."""
    lo = np.minimum(dirs.min(axis=0), members.min(axis=0))
    span = float((np.maximum(dirs.max(axis=0), members.max(axis=0)) - lo).max())
    # floor((x - lo) / side) is off by at most span / side * 2^-52 cells,
    # far below NEAR_MARGIN while span / side <= 2^26
    cells = int(span / side) + 2 if side > 0.0 and span / side <= 2.0 ** 26 else 0
    if not 0 < cells ** dirs.shape[1] < 2 ** 62:
        return np.zeros(len(dirs), dtype=bool)

    def keys(x):
        # packed voxel index per row, in row blocks to bound the temporaries
        out = np.empty(len(x), dtype=np.int64)
        for at in range(0, len(x), VOXEL_BLOCK):
            k = np.floor((x[at:at + VOXEL_BLOCK] - lo) / side).astype(np.int64)
            key = out[at:at + VOXEL_BLOCK]
            key[:] = k[:, 0]
            for j in range(1, k.shape[1]):
                key *= cells
                key += k[:, j]
        return out

    return np.isin(keys(dirs), keys(members))


def _sobol(dim: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of a seeded scrambled Sobol' sequence.

    They are drawn as the next power of two and cut, which gives the same
    points as ``random(count)`` without its warning about balance.
    """
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    return eng.random_base2(math.ceil(math.log2(max(count, 1))))[:count]


def sphere_points(dim: int, count: int, seed: int) -> np.ndarray:
    """Seeded low-discrepancy points on S^{dim-1}."""
    if dim == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs.reshape(-1, 1)
    u = _sobol(dim, count, seed)
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norm = np.linalg.norm(g, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return g / norm


def ball_points(dim: int, count: int, seed: int) -> np.ndarray:
    """Seeded low-discrepancy points in the closed unit ball."""
    u = _sobol(dim + 1, count, seed)
    if dim == 1:
        return (2.0 * u[:, :1] - 1.0)
    g = ndtri(np.clip(u[:, :dim], 1e-12, 1.0 - 1e-12))
    norm = np.linalg.norm(g, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    radii = u[:, dim:] ** (1.0 / dim)
    return g / norm * radii
