"""Deterministic direction grids and low-discrepancy probe generators.

All randomness in the package flows through the helpers here.  Every
sampler takes an explicit integer seed, and the same seed always yields
the same points, so reports are reproducible byte for byte.

Direction grids:
    dim 2   uniform circle grid, 720 points (0.5 degree step)
    dim 3   Fibonacci sphere, 16384 points
    dim >3  Halton points through the Gaussian quantile map, 32768 on S^3

Probe sets (``sphere_points``, ``ball_points``) come from a scrambled
Sobol' sequence.  Both generators are numpy reproductions of scipy's
``qmc.Sobol(scramble=True)`` and ``qmc.Halton(scramble=False)``, pinned
bit for bit by the tests: importing ``scipy.stats`` for them would cost
about half a second, as much as many runs spend computing.

Of scipy, only two things are used at run time, and neither through its
package.  The KD tree is scipy's own ``cKDTree``, loaded from the
``scipy.spatial._ckdtree`` extension by file path: importing
``scipy.spatial`` would also run its ``__init__``, which loads
``scipy.linalg``, qhull and ``scipy.special`` and costs a process about a
third of a second, while the extension alone costs about half of that.
The load is eager, since ``cones`` builds trees on every run and a load
inside the run would only move the cost there.  The Gaussian quantile
``_ndtri`` is a numpy port of the Cephes ``ndtri`` that
``scipy.special.ndtri`` runs, equal to it bit for bit (the tests pin it),
so ``scipy.special`` stays unloaded as well.

The nominal angular resolution ``grid_resolution(dim)`` is the mean
nearest-neighbor spacing of the grid; membership tests elsewhere default
to twice this value.  ``covering_radius(dim)`` is the farthest any
direction lies from the grid, which a test that must hit a grid row near
a thin set has to allow.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import zipfile
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

GRID_SIZES = {2: 720, 3: 16384, 4: 32768}

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _load_ckdtree() -> type:
    """scipy's ``cKDTree``, from its extension module alone.

    The module is found on the path of the ``scipy.spatial`` directory,
    so the package's ``__init__`` never runs, and is registered under its
    own name, so a later ``import scipy.spatial`` reuses it.
    """
    name = "scipy.spatial._ckdtree"
    module = sys.modules.get(name)
    if module is None:
        where = importlib.util.find_spec("scipy").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(where[0], "spatial")])
        if spec is None:
            raise ImportError(f"no {name} in {where[0]}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.cKDTree


cKDTree = _load_ckdtree()


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


# grid_resolution of the fixed 3-D to 5-D grids, pinned by the tests
# against the KD computation in it, which costs a process 10-30 ms on a
# 2-core x86 host
GRID_RESOLUTIONS = {3: 0.026458756514606142, 4: 0.04844742681739875,
                    5: 0.10553235410724175}

# covering radius of each fixed grid: the largest angle from a point of
# the sphere to its nearest grid row, read off the grid's convex hull as
# the widest facet circumcap (pinned by the tests).  On the circle it is
# half a step; on S^2 it is below the mean spacing, but the 4-D Halton
# grid leaves holes 2.5 times its mean spacing wide.
COVERING_RADII = {2: math.pi / GRID_SIZES[2], 3: 0.021313567292288765,
                  4: 0.12212555843554901, 5: 0.21615207155367874}


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
    d, _ = grid_tree(dim).query(probe, k=2)
    chord = d[:, 1]
    return float(np.mean(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))))


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
    chord, _ = grid_tree(dim).query(sphere_points(dim, 1 << 16, 0))
    return float(2.0 * np.arcsin(min(1.0, float(chord.max()) / 2.0)))


@lru_cache(maxsize=8)
def grid_tree(dim: int) -> cKDTree:
    return cKDTree(unit_grid(dim))


def min_angle_to_set(dirs: np.ndarray, members: np.ndarray) -> np.ndarray:
    """For each unit row of dirs, the angle to the closest row of members."""
    dirs = np.atleast_2d(dirs)
    if len(members) == 0:
        return np.full(len(dirs), np.inf)
    tree = cKDTree(members)
    chord, _ = tree.query(dirs)
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


# near_set: voxels are this much (relative) smaller than the chord of tol
# allows, and near_query reaches this much beyond that chord
NEAR_MARGIN = 1e-6
VOXEL_BLOCK = 1 << 15


def near_set(dirs: np.ndarray, members: np.ndarray, tol: float) -> np.ndarray:
    """``min_angle_to_set(dirs, members) <= tol``, bit for bit, for each row.

    The test needs to know only whether some member lies within the chord
    c = 2 sin(tol/2), not which member is nearest, so it runs in two
    stages.  Voxels of side c (1 - NEAR_MARGIN) / sqrt(d) have diagonals
    shorter than c by far more than rounding, so a row sharing a voxel
    with a member is near.  Every other row goes to ``near_query``.  The
    voxel stage is skipped where its packed keys would overflow int64 or
    rounding could reach the margin.
    """
    dirs = np.atleast_2d(dirs)
    if len(members) == 0 or len(dirs) == 0:
        return np.full(len(dirs), np.inf) <= tol
    # outside [0, pi] this chord is too short, which sends more rows to the
    # query, and a miss still reads pi
    chord = 2.0 * math.sin(0.5 * tol)
    keys = voxel_keys([dirs, members], chord * (1.0 - NEAR_MARGIN)
                      / math.sqrt(members.shape[1]))
    near = np.zeros(len(dirs), dtype=bool) if keys is None else np.isin(*keys)
    rest = np.flatnonzero(~near)
    if len(rest):
        near[rest] = near_query(near_tree(members), dirs[rest], tol)
    return near


def near_tree(members: np.ndarray) -> cKDTree:
    """The KD tree ``near_query`` asks.  The tree's shape does not change
    the nearest distance, so it takes the faster unbalanced build."""
    return cKDTree(members, balanced_tree=False, compact_nodes=False)


def near_query(tree: cKDTree, dirs: np.ndarray, tol: float) -> np.ndarray:
    """The KD stage of ``near_set``: whether each row of dirs lies within
    tol of the tree's members, bit for bit as ``min_angle_to_set``.

    One query per row, bounded a margin above the chord 2 sin(tol/2); a
    miss reads as the angle pi.  A row the query finds gets the same chord
    bits as in ``min_angle_to_set``, and goes through the same formula.
    """
    # the tree compares squared distances, so the bound keeps a floor
    # whose square is a normal float
    bound = max(2.0 * math.sin(0.5 * tol) * (1.0 + NEAR_MARGIN), 1e-150)
    found, _ = tree.query(dirs, distance_upper_bound=bound)
    return 2.0 * np.arcsin(np.clip(found / 2.0, 0.0, 1.0)) <= tol


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
    span = float((hi - lo).max())
    # floor((x - lo) / side) is off by at most span / side * 2^-52 cells,
    # far below near_set's NEAR_MARGIN while span / side <= 2^26
    cells = int(span / side) + 2 if side > 0.0 and span / side <= 2.0 ** 26 else 0
    if not 0 < cells ** len(lo) < 2 ** 62:
        return None
    shape = (cells,) * len(lo)
    merged = ((cells - 1) // merge + 1,) * len(lo)

    def keys(x):
        # packed voxel index per row, in row blocks to bound the temporaries
        out = np.empty(len(x), dtype=np.int64)
        big = np.empty(len(x) if merge > 1 else 0, dtype=np.int64)
        for at in range(0, len(x), VOXEL_BLOCK):
            k = np.floor((x[at:at + VOXEL_BLOCK] - lo) / side).astype(np.int64)
            out[at:at + VOXEL_BLOCK] = np.ravel_multi_index(k.T, shape)
            if merge > 1:
                big[at:at + VOXEL_BLOCK] = np.ravel_multi_index((k // merge).T, merged)
        return (out, big) if merge > 1 else out

    return [keys(a) for a in arrays]


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


# Sobol' points carry this many bits, as in scipy's default engine
SOBOL_BITS = 30


def _npy_header(f) -> tuple:
    """(shape, fortran_order, dtype) of the .npy stream f, left at its data."""
    version = np.lib.format.read_magic(f)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(f)
    return np.lib.format.read_array_header_2_0(f)


def _sobol_table(dim: int) -> tuple:
    """Primitive polynomials and initial direction numbers (Joe & Kuo 2008)
    of the first ``dim`` dimensions.

    They are read from the table that ships with scipy.  ``find_spec``
    locates ``scipy.stats`` without running its ``__init__``.  Only what
    the dimensions use is read: ``poly[:dim]``, and ``vinit[:dim, j]`` for
    each column j below the largest degree among them.  ``vinit`` is
    stored column by column, so each column prefix is one forward seek
    and one short read inside its compressed member.
    """
    where = importlib.util.find_spec("scipy.stats").submodule_search_locations
    i8 = np.dtype("<i8")
    with zipfile.ZipFile(os.path.join(where[0], "_sobol_direction_numbers.npz")) as z:
        with z.open("poly.npy") as f:
            shape, _, dtype = _npy_header(f)
            if dtype != i8 or len(shape) != 1 or shape[0] < dim:
                raise ValueError(f"poly.npy holds {shape} {dtype}, not {dim} int64")
            poly = np.frombuffer(f.read(dim * i8.itemsize), dtype=i8)
        degree = max(int(p).bit_length() - 1 for p in poly)
        with z.open("vinit.npy") as f:
            shape, fortran, dtype = _npy_header(f)
            if (dtype != i8 or not fortran or len(shape) != 2
                    or shape[0] < dim or shape[1] < degree):
                raise ValueError(f"vinit.npy holds {shape} {dtype} (Fortran "
                                 f"order {fortran}), not {dim} x {degree} int64 "
                                 "in Fortran order")
            start = f.tell()
            vinit = np.empty((dim, degree), dtype=np.int64)
            for j in range(degree):
                f.seek(start + j * shape[0] * i8.itemsize)
                vinit[:, j] = np.frombuffer(f.read(dim * i8.itemsize), dtype=i8)
    return poly, vinit


@lru_cache(maxsize=16)
def _sobol_directions(dim: int) -> np.ndarray:
    """Direction numbers, shape (dim, SOBOL_BITS), as scipy's _initialize_v.

    Row d follows Bratley & Fox's recurrence on the degree-m polynomial
    of dimension d; column j is then scaled by 2^(SOBOL_BITS - 1 - j).
    """
    poly, vinit = _sobol_table(dim)
    v = np.ones((dim, SOBOL_BITS), dtype=np.int64)
    for d in range(1, dim):
        p = int(poly[d])
        m = p.bit_length() - 1
        row = [int(c) for c in vinit[d, :m]]
        for j in range(m, SOBOL_BITS):
            new = row[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    v <<= np.arange(SOBOL_BITS - 1, -1, -1)
    v.setflags(write=False)
    return v


def _sobol(dim: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of a seeded scrambled Sobol' sequence.

    A numpy reproduction of ``qmc.Sobol(dim, scramble=True, seed=seed)``,
    equal to its points bit for bit (the tests pin it), kept here because
    importing ``scipy.stats`` costs about half a second.  The seed's
    generator draws a random digital shift, then one lower triangular
    binary matrix per dimension (Matousek's linear matrix scrambling, unit
    diagonal); each matrix multiplies the bits of its dimension's
    direction numbers, most significant first.  Points are drawn as the
    next power of two in gray-code order, then cut, which gives the same
    points as scipy's ``random(count)``.
    """
    bits = SOBOL_BITS
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32)
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # msb[d, i, j] is bit bits-1-i of direction number j of dimension d;
    # row p of the product mod 2 holds bit bits-1-p of the scrambled
    # numbers (its entries count at most 30 ones, so floats are exact)
    top = np.arange(bits - 1, -1, -1)
    msb = (_sobol_directions(dim)[:, None, :] >> top[:, None]) & 1
    parity = (ltm.astype(float) @ msb).astype(np.int64) & 1
    sv = (parity << top[:, None]).sum(axis=1).astype(np.uint32)
    # point i is the shift xor the columns of sv at the set bits of the
    # gray code of i; each doubling appends the mirror image xor one
    # column.  Dimensions run along rows here, which keeps the mirrored
    # copies long and fast, and are written to columns at the end.
    size = 1 << max(count - 1, 0).bit_length()
    quasi = np.empty((dim, size), dtype=np.uint32)
    quasi[:, 0] = shift @ (np.uint32(1) << np.arange(bits, dtype=np.uint32))
    half = 1
    while half < size:
        np.bitwise_xor(quasi[:, half - 1::-1], sv[:, half.bit_length() - 1, None],
                       out=quasi[:, half:2 * half])
        half *= 2
    out = np.empty((count, dim))
    for j in range(dim):
        np.multiply(quasi[j, :count], 1.0 / 2 ** bits, out=out[:, j])
    return out


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
    x = np.sqrt(-2.0 * np.array([math.log(v) for v in w[~mid].tolist()]))
    x0 = x - np.array([math.log(v) for v in x.tolist()]) / x
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
        g = _ndtri(np.clip(_sobol(dim, count, seed), 1e-12, 1.0 - 1e-12))
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
    u = _sobol(dim + 1, count, seed)
    if dim == 1:
        out = 2.0 * u[:, :1] - 1.0
    else:
        g = _ndtri(np.clip(u[:, :dim], 1e-12, 1.0 - 1e-12))
        norm = np.linalg.norm(g, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        out = g / norm * u[:, dim:] ** (1.0 / dim)
    out.setflags(write=False)
    return out
