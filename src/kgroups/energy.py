"""Energy-distance primitives.

Alpha-powered Euclidean distances, set-to-set dispersion, two-sample energy
statistics, and the disco decomposition of total dispersion into within- and
between-cluster components.  Everything downstream (the solver, the
validation harness) reads distances from one shared DistanceCache so that
all consumers agree numerically.

Summations over distance blocks go through numpy's pairwise-summing
``ndarray.sum``; that is what lets the decomposition identity
total = within + between hold to 1e-10 relative error on desk-scale inputs.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError, NumericInvariantError, check_fields

__all__ = [
    "validate_alpha",
    "as_data_matrix",
    "DistanceCache",
    "dispersion",
    "energy_statistic",
    "DiscoResult",
    "disco",
]


def validate_alpha(alpha) -> float:
    """Check that the distance exponent lies in (0, 2] and return it as float.

    The open lower bound keeps fractional powers well defined; 2 is admitted
    so the squared-distance (k-means) special case lives in the same code
    path.  A non-number, a bool or a non-finite value raises InputError as
    in `check_fields`.
    """
    check_fields({"alpha": alpha}, ("alpha",))
    a = float(alpha)
    if not 0.0 < a <= 2.0:
        raise InputError(f"alpha must be in (0, 2], got {alpha!r}")
    return a


def as_data_matrix(data) -> np.ndarray:
    """Coerce input to a finite float64 matrix of shape (n, p).

    1-D input is treated as a single feature column.  Real numbers (bools,
    integers, floats, or Python objects that are `numbers.Real`) are taken
    as they are; complex, non-numeric or ragged input, and NaN or infinite
    entries, are rejected rather than cast.
    """
    try:
        x = np.asarray(data)
        if x.dtype.kind == "O" and not all(isinstance(v, numbers.Real) for v in x.flat):
            raise TypeError("an entry is not a real number")
        if x.dtype.kind not in "biufO":
            raise TypeError(f"{x.dtype} entries")
        x = x.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:  # ValueError: ragged nesting
        raise InputError(f"data must be a rectangular array of real numbers ({exc})") from exc
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise InputError(
            f"expected a nonempty 2-D data matrix, got shape {np.shape(data)}"
        )
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        raise InputError(f"data contains NaN or Inf (first bad row: {bad})")
    return x


class DistanceCache:
    """Precomputed symmetric n x n matrix of alpha-powered distances.

    Built once per data set and then shared read-only by every statistic and
    by the solver; the matrix and the data `x` it is built from, a C-ordered
    copy, are write-protected after construction.  One `cdist` call fills
    the matrix: (i, j) and (j, i) are computed alike, so symmetry is exact,
    the diagonal is exactly zero, and each entry equals the `pdist` one bit
    for bit (tested).  A cache pickles as its data and alpha, O(n * p)
    bytes, and unpickling builds it afresh: the same `cdist` on the same
    data, so in a fork of the same process the matrix is the same bits.

    Data whose column spans could overflow a float64 sum raise InputError
    before `cdist` runs (`_check_range`).  Distinct points whose distances
    all underflow to 0.0 raise NumericInvariantError.
    """

    def __init__(self, data, alpha):
        self.alpha = validate_alpha(alpha)
        self.x = x = np.array(as_data_matrix(data), order="C")
        x.setflags(write=False)
        self.n = x.shape[0]
        _check_range(x, self.alpha)
        if self.alpha == 2.0:
            dist = cdist(x, x, "sqeuclidean")
        else:
            dist = cdist(x, x, "euclidean")
            if self.alpha != 1.0:  # x ** 1.0 is x: a pass over n x n saved
                dist **= self.alpha
        # row 0 rules the underflow out at once unless point 0 is at distance
        # 0.0 from every point; only then is the whole matrix scanned
        if not dist[0].any() and not dist.any() and (x != x[0]).any():
            raise NumericInvariantError("distances between distinct points all underflow to 0.0")
        dist.setflags(write=False)
        self.dist = dist

    def __reduce__(self):
        return DistanceCache, (self.x, self.alpha)

    def __repr__(self):
        return f"DistanceCache(n={self.n}, alpha={self.alpha})"


# log2 of the float64 range, less 2 bits for the doubling and halving the
# sweep applies to its sums
_LOG2_RANGE = math.log2(sys.float_info.max) - 2


def _check_range(x, alpha):
    """InputError unless the distances of `x` and every sum a fit forms stay
    finite.  No distance exceeds D = sqrt(p) * (largest column span), cdist
    adds up to p squared coordinate differences (at most D^2), and the
    largest sum, a cluster's pair sum, adds at most n^2 powered distances
    (at most n^2 * D^alpha).  O(n * p), from the halved spans, which cannot
    overflow."""
    n, p = x.shape
    half = float((x.max(axis=0) / 2 - x.min(axis=0) / 2).max())
    if half == 0.0:
        return
    log_d = 1.0 + math.log2(half) + math.log2(p) / 2
    if 2 * log_d > _LOG2_RANGE or alpha * log_d + 2 * math.log2(n) > _LOG2_RANGE:
        raise InputError(f"data span too wide: distances up to 2^{log_d:.0f} overflow float64 sums "
                         f"over {n} points at alpha={alpha}")


def _labels(idx, name: str) -> np.ndarray:
    """A label or index array as a new 1-D intp array: InputError unless it
    is nonempty, 1-D and of nonnegative integers (no truncated floats, no bools)."""
    a = np.array(idx)
    if a.dtype.kind not in "iu" or a.ndim != 1 or a.size == 0:
        raise InputError(f"{name} must be an integer array, 1-D and nonempty, got {a.dtype} {a.shape}")
    a = a.astype(np.intp, copy=False)
    if a.min() < 0:
        raise InputError(f"{name} must be nonnegative")
    return a


def _index_set(idx, n: int, name: str) -> np.ndarray:
    a = np.sort(_labels(idx, name))
    if a[-1] >= n:
        raise InputError(f"{name} contains indices outside 0..{n - 1}")
    if (a[1:] == a[:-1]).any():
        raise InputError(f"{name} contains repeated indices")
    return a


def _dist_for(cache) -> np.ndarray:
    # Accept a DistanceCache or a raw distance matrix.
    return cache.dist if hasattr(cache, "dist") else np.asarray(cache)


# Bytes of distance rows that one step of a per-fit pass over the matrix
# (the ledger build, `disco`) gathers: 16 rows at n = 2001, 163 at n = 200.
# A gather of a whole cluster's rows grows with the cluster (over 4 MiB at
# n = 2001), and one past glibc's mmap threshold is mapped fresh and
# page-faulted every time.
_BLOCK_BYTES = 1 << 18


def _row_blocks(dist, idx):
    """dist[idx] as copies of consecutive rows, of _BLOCK_BYTES at most or one row."""
    step = max(1, _BLOCK_BYTES // (dist.itemsize * dist.shape[1]))
    return (dist[idx[s : s + step]] for s in range(0, idx.size, step))


def dispersion(a, b, cache) -> float:
    """Mean alpha-powered distance between two index sets.

    Bitwise symmetric in its arguments (the summed block is oriented
    canonically, so swapping a and b cannot change the rounding);
    dispersion(a, a, cache) averages over all ordered pairs including the
    zero diagonal.
    """
    dist = _dist_for(cache)
    ai = _index_set(a, dist.shape[0], "a")
    bi = _index_set(b, dist.shape[0], "b")
    if (ai.size, ai.tolist()) > (bi.size, bi.tolist()):
        ai, bi = bi, ai
    block = dist[np.ix_(ai, bi)]
    return float(block.sum() / block.size)


def energy_statistic(a, b, cache) -> float:
    """Two-sample energy statistic between disjoint index sets.

    2*G(a,b) - G(a,a) - G(b,b) where G is `dispersion`.  Nonnegative up to
    rounding for every exponent in (0, 2], and zero exactly when the two
    samples have identical empirical distributions.
    """
    dist = _dist_for(cache)
    n = dist.shape[0]
    ai = _index_set(a, n, "a")
    bi = _index_set(b, n, "b")
    if np.intersect1d(ai, bi).size:
        raise InputError("index sets overlap; the two samples must be disjoint")
    g_a = dispersion(ai, ai, cache)
    g_b = dispersion(bi, bi, cache)
    # canonical evaluation order keeps the statistic bitwise symmetric
    if (ai.size, ai.tolist()) > (bi.size, bi.tolist()):
        g_a, g_b = g_b, g_a
    return 2.0 * dispersion(ai, bi, cache) - g_a - g_b


def _within_term(dist, groups, between=False):
    """`disco`'s within term, each cluster's mean pair distance and the table
    pair[i][j], j >= i, of summed distances between the clusters `groups`.

    Each block of a cluster's rows is summed against the cluster and, only
    when `between` is asked for, every later one: within is the same bits.
    """
    k = len(groups)
    pair = [[0.0] * k for _ in range(k)]
    for i, gi in enumerate(groups):
        for rows in _row_blocks(dist, gi):
            for j in range(i, k if between else i + 1):
                pair[i][j] += float(rows[:, groups[j]].sum())
    g_within = [pair[j][j] / (g.size * g.size) for j, g in enumerate(groups)]
    within = sum((groups[j].size / 2.0) * g_within[j] for j in range(k))
    return within, g_within, pair


@dataclass(frozen=True)
class DiscoResult:
    """Total, within-cluster, and between-cluster dispersion."""

    total: float
    within: float
    between: float


def disco(partition, cache) -> DiscoResult:
    """Decompose total dispersion into within and between components.

    `partition` may be a Partition object or a plain label array.  All three
    components are evaluated from their own formulas; in particular
    `between` is never derived as total - within, so the identity
    total = within + between remains a meaningful consistency check.

    The block sums come from one pass over each cluster's rows through
    `_row_blocks`, the one row-block reader, which the ledger build shares:
    `_within_term` sums each block against its own and every later cluster
    into a k x k table of pair sums.  No |C_i| x |C_j| block is copied
    whole, so the temporaries stay near _BLOCK_BYTES whatever the cluster
    sizes: at n = 2001 the decomposition went from 41-57 to 16-22 ms under
    a 4 MiB mmap threshold (numpy 2.4).  A fit's final check calls
    `_within_term` alone and skips the total and between terms.
    """
    dist = _dist_for(cache)
    labels = _labels(getattr(partition, "labels", partition), "labels")
    n = dist.shape[0]
    if labels.shape[0] != n:
        raise InputError(f"partition covers {labels.shape[0]} points, cache has {n}")
    k = getattr(partition, "k", int(labels.max()) + 1)
    if k > n:
        raise InputError(f"k={k} clusters exceed the n={n} points")
    groups = [np.flatnonzero(labels == j) for j in range(k)]
    for j, g in enumerate(groups):
        if g.size == 0:
            raise InputError(f"cluster {j} is empty")

    total = (n / 2.0) * float(dist.sum()) / (n * n)
    within, g_within, pair = _within_term(dist, groups, between=True)

    between = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            gi, gj = groups[i], groups[j]
            cross = pair[i][j] / (gi.size * gj.size)
            xi = 2.0 * cross - g_within[i] - g_within[j]
            between += (gi.size * gj.size) / (2.0 * n) * xi

    return DiscoResult(total=float(total), within=float(within), between=float(between))
