"""Partition bookkeeping for local-search clustering.

A Partition is a full assignment of n points to k nonempty clusters.  The
ClusterSumLedger caches, for every point, its summed alpha-powered distance
to each cluster, plus each cluster's internal pair sum.  Together these make
one candidate-move evaluation O(1) and an applied move O(n), which is what
keeps a full relocation pass at O(n*k) instead of O(n^2 * k).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .energy import _block_rows, _dist_for
from .errors import InputError, RejectedMoveError, check_fields

__all__ = [
    "Partition",
    "ClusterSumLedger",
    "random_partition",
    "move_point",
]


class Partition:
    """Cluster labels for n points plus maintained cluster sizes.

    Every cluster id in 0..k-1 must be nonempty, and stays nonempty through
    any mutation applied via `move_point` (moves that would empty their
    source cluster are rejected).
    """

    __slots__ = ("labels", "sizes", "k")

    def __init__(self, labels, k=None):
        lab = np.asarray(labels, dtype=np.intp).copy().ravel()
        if lab.size == 0:
            raise InputError("partition needs at least one point")
        if lab.min() < 0:
            raise InputError("cluster labels must be nonnegative")
        if k is not None:
            check_fields({"k": k}, k=1)
        kk = int(lab.max()) + 1 if k is None else int(k)
        if lab.max() >= kk:
            raise InputError(f"labels exceed cluster count k={kk}")
        sizes = np.bincount(lab, minlength=kk)
        if sizes.min() < 1:
            empty = int(np.flatnonzero(sizes == 0)[0])
            raise InputError(f"cluster {empty} is empty")
        self.labels = lab
        self.sizes = sizes
        self.k = kk

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def cluster_indices(self, j) -> np.ndarray:
        return np.flatnonzero(self.labels == j)

    def _apply_move(self, i: int, to: int) -> int:
        """Relabel point i, keeping sizes consistent.  Returns the old label.

        Internal: callers are responsible for updating any ledger.
        """
        frm = self.labels.item(i)
        if to == frm:
            raise InputError(f"point {i} is already in cluster {to}")
        if not 0 <= to < self.k:
            raise InputError(f"cluster id {to} outside 0..{self.k - 1}")
        if self.sizes[frm] < 2:
            raise RejectedMoveError(
                f"moving point {i} would empty cluster {frm}"
            )
        self.labels[i] = to
        self.sizes[frm] -= 1
        self.sizes[to] += 1
        return frm

    def __repr__(self):
        return f"Partition(n={self.n}, k={self.k}, sizes={self.sizes.tolist()})"


# every start that needs fewer draws is the one plain rejection gives
_REJECTION_DRAWS = 10_000


def _surjective_labels(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random labels conditioned on every cluster being nonempty.

    Labels are redrawn until every cluster is hit, which takes k^n / (k! S(n, k))
    draws on average: over a million at n = 30, k = 25.  After
    `_REJECTION_DRAWS` failures the cluster sizes are drawn instead, as i.i.d.
    zero-truncated Poisson counts redrawn until they sum to n, and shuffled
    onto the points.  Given their sum, the counts weigh sizes c by
    prod 1/c_j!, as a uniform surjection does, so this is exact too.

    A draw hits every cluster with chance at most (1 - (1 - 1/k)^n)^k, the
    product of the chances that each cluster is hit, since the counts of a
    multinomial draw are negatively associated.  When that bound is below
    1 / `_REJECTION_DRAWS`, rejection expects more draws than it may take,
    and the sizes are drawn at once; the draws would cost 0.1-0.3 s per
    start at n = 30, k = 29 or n = 2001, k = 1990.  Every (n, k) that
    expects at most `_REJECTION_DRAWS` draws is above the bound and still
    draws by rejection.
    """
    if k == n:
        return rng.permutation(n)
    tries = _REJECTION_DRAWS if _REJECTION_DRAWS * (1.0 - (1.0 - 1.0 / k) ** n) ** k >= 1.0 else 0
    for _ in range(tries):
        lab = rng.integers(0, k, size=n)
        if np.bincount(lab, minlength=k).min() >= 1:
            return lab
    # the zero-truncated Poisson mean lam / (1 - exp(-lam)) is n / k
    lam = brentq(lambda t: t / -np.expm1(-t) - n / k, 1e-12, n / k)
    while True:
        # the first arrival of a Poisson process on [0, 1) that has one, then the rest
        first = -np.log1p(rng.random(k) * np.expm1(-lam)) / lam
        sizes = 1 + rng.poisson(lam * (1.0 - first))
        if sizes.sum() == n:
            return rng.permutation(np.repeat(np.arange(k), sizes))


def random_partition(n, k, rng_seed) -> Partition:
    """Random initial partition of n points into k nonempty clusters.

    Deterministic for a fixed integer seed; also accepts an existing
    numpy Generator for callers that manage their own streams.
    """
    check_fields({"n": n, "k": k}, n=1, k=1)
    n, k = int(n), int(k)
    if k > n:
        raise InputError(f"cannot split {n} points into {k} nonempty clusters")
    return Partition(_surjective_labels(n, k, np.random.default_rng(rng_seed)), k)


def _dispersion(within, sizes) -> float:
    """The clustering objective, sum of within[j]/n_j, its terms summed in
    sorted order so the value is bitwise invariant under relabeling clusters."""
    return float(np.sort(within / sizes).sum())


class ClusterSumLedger:
    """Maintained point-to-cluster distance sums.

    sums[i, j]  = sum of dist[i, m] over points m in cluster j
    within[j]   = sum of dist[i, m] over unordered pairs {i, m} inside j

    A build adds each cluster's distances one member after another in index
    order: sums[:, j] is (dist[:, m1] + dist[:, m2]) + dist[:, m3] + ... over
    the members m1 < m2 < ... of cluster j (tested bit for bit).  It reads
    the members' rows of the symmetric matrix, which are contiguous, in
    blocks of a fixed byte budget (`energy._block_rows`) and sums each
    block down the columns, adding the running sum of the blocks before
    into the block's first row: the same values in the same order as one
    sum over all the rows.  Gathering a cluster's rows whole copied
    |C_j| x n floats on every build, over 4 MiB at n = 2001, where each
    copy is mapped fresh and page-faulted once past glibc's mmap threshold.
    The blocks keep the temporary at 256 KiB: a build at n = 2001, k = 6
    went from 34-38 to 7.4-8.3 ms under a 4 MiB threshold (numpy 2.4).
    After construction the ledger is kept consistent by
    `move_point`; a from-scratch rebuild must agree to 1e-10 relative
    (tested).

    `sums` is stored cluster-major: it is the transposed view of a C-ordered
    (k, n) array, so each column sums[:, j] is contiguous.  Indexing is the
    same sums[i, j] as for an (n, k) array.  `cols[j]` is the view sums[:, j],
    made once per ledger: `move_point` writes its two column updates through
    them into contiguous memory, and does not pay for making the views,
    some 0.35 us each, on every move.  A traced move at n = 2001, k = 6
    takes a median 8.0 us, against 10.6 us when it made them (four
    benchmark runs each, numpy 2.4).
    """

    __slots__ = ("dist", "sums", "within", "cols")

    def __init__(self, partition: Partition, cache):
        dist = _dist_for(cache)
        n = partition.n
        if dist.shape != (n, n):
            raise InputError(
                f"distance matrix is {dist.shape}, partition has {n} points"
            )
        self.dist = dist
        cols = np.empty((partition.k, n), dtype=np.float64)
        within = np.empty(partition.k, dtype=np.float64)
        step = _block_rows(n)
        for j in range(partition.k):
            idx = partition.cluster_indices(j)
            col = dist[idx[:step]].sum(axis=0)
            for s in range(step, idx.size, step):
                rows = dist[idx[s : s + step]]
                rows[0] += col
                col = rows.sum(axis=0)
            cols[j] = col
            within[j] = 0.5 * col[idx].sum()
        self.sums = cols.T
        self.within = within
        self.cols = list(cols)

    def within_dispersion(self, partition: Partition) -> float:
        """Current value of the clustering objective (sum of within[j]/n_j)."""
        return _dispersion(self.within, partition.sizes)


def move_point(partition: Partition, ledger: ClusterSumLedger, i, to) -> None:
    """Move point i to cluster `to`, updating partition and ledger in O(n).

    Raises RejectedMoveError when the move would empty the source cluster.
    """
    i, to = int(i), int(to)
    frm = partition._apply_move(i, to)
    cols, within = ledger.cols, ledger.within
    within[frm] -= cols[frm][i]
    within[to] += cols[to][i]
    dcol = ledger.dist[i]
    cols[frm] -= dcol
    cols[to] += dcol
