"""Partition bookkeeping for local-search clustering.

A Partition is a full assignment of n points to k nonempty clusters.  The
ClusterSumLedger caches, for every point, its summed alpha-powered distance
to each cluster, plus each cluster's internal pair sum.  Together these make
one candidate-move evaluation O(1) and an applied move O(n), which is what
keeps a full relocation pass at O(n*k) instead of O(n^2 * k).
"""

from __future__ import annotations

import numpy as np

from .energy import _dist_for, _labels, _row_blocks
from .errors import InputError, RejectedMoveError, check_fields, check_index

__all__ = [
    "Partition",
    "ClusterSumLedger",
    "move_point",
]


class Partition:
    """Cluster labels for n points plus their cluster sizes.

    `counts` is the list of the sizes, Python ints.  `move_point` keeps it
    equal to the labels and every cluster id in 0..k-1 nonempty: a move
    that would empty its source cluster is rejected.
    """

    __slots__ = ("labels", "counts", "k")

    def __init__(self, labels, k=None):
        lab = _labels(labels, "labels")
        if k is not None:
            check_fields({"k": k}, k=1)
        kk = int(lab.max()) + 1 if k is None else int(k)
        if kk > lab.size:
            raise InputError(f"k={kk} clusters exceed the n={lab.size} points")
        if lab.max() >= kk:
            raise InputError(f"labels exceed cluster count k={kk}")
        sizes = np.bincount(lab, minlength=kk)
        if sizes.min() < 1:
            empty = int(np.flatnonzero(sizes == 0)[0])
            raise InputError(f"cluster {empty} is empty")
        self.labels = lab
        self.counts = sizes.tolist()
        self.k = kk

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def cluster_indices(self, j) -> np.ndarray:
        return np.flatnonzero(self.labels == j)

    def __repr__(self):
        return f"Partition(n={self.n}, k={self.k}, sizes={self.counts})"


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
    # imported here: scipy.optimize adds about 11 MB to every process that imports kgroups
    from scipy.optimize import brentq

    # the zero-truncated Poisson mean lam / (1 - exp(-lam)) is n / k
    lam = brentq(lambda t: t / -np.expm1(-t) - n / k, 1e-12, n / k)
    while True:
        # the first arrival of a Poisson process on [0, 1) that has one, then the rest
        first = -np.log1p(rng.random(k) * np.expm1(-lam)) / lam
        sizes = 1 + rng.poisson(lam * (1.0 - first))
        if sizes.sum() == n:
            return rng.permutation(np.repeat(np.arange(k), sizes))


def _dispersion(within, sizes) -> float:
    """The clustering objective, sum of within[j]/n_j, its terms summed in
    sorted order so the value is bitwise invariant under relabeling clusters;
    `within` and `sizes` may be lists."""
    terms = np.divide(within, sizes)
    terms.sort()
    return float(terms.sum())


class ClusterSumLedger:
    """Maintained point-to-cluster distance sums.

    sums[i, j]    = sum of dist[i, m] over points m in cluster j
    pair_sums[j]  = sum of dist[i, m] over unordered pairs {i, m} inside j

    A build adds each cluster's distances one member after another in index
    order: sums[:, j] is (dist[:, m1] + dist[:, m2]) + dist[:, m3] + ... over
    the members m1 < m2 < ... of cluster j (tested bit for bit).  It reads
    the members' rows of the symmetric matrix, which are contiguous, in
    blocks through `energy._row_blocks`, the one row-block reader, which
    the statistics of `energy` share.  It sums each block down the columns,
    adding the running sum of the blocks before into the block's first row:
    the same values in the same order as one sum over all the rows, in
    temporaries of 256 KiB at most (`energy._BLOCK_BYTES`): a build at
    n = 2001, k = 6 took 7.4-8.3 ms, and 34-38 ms gathering each cluster's
    rows whole under a 4 MiB mmap threshold (numpy 2.4).
    After construction the ledger is kept consistent by `move_point`; a
    from-scratch rebuild must agree to 1e-10 relative (tested).

    `pair_sums` is a list of Python floats.  `sums` is cluster-major, the
    transposed view of a C-ordered (k, n) array, so each column
    sums[:, j] is contiguous; it indexes as sums[i, j] all the same.
    `cols[j]` is the view sums[:, j], made once per ledger, so a move does
    not pay some 0.35 us per view for its two column updates (numpy 2.4).
    """

    __slots__ = ("dist", "sums", "pair_sums", "cols")

    def __init__(self, partition: Partition, cache):
        dist = _dist_for(cache)
        n = partition.n
        if dist.shape != (n, n):
            raise InputError(
                f"distance matrix is {dist.shape}, partition has {n} points"
            )
        self.dist = dist
        cols = np.empty((partition.k, n), dtype=np.float64)
        pair_sums = []
        for j in range(partition.k):
            cols[j], pair_sum = _cluster_column(dist, partition.cluster_indices(j))
            pair_sums.append(pair_sum)
        self.sums = cols.T
        self.pair_sums = pair_sums
        self.cols = list(cols)


def _cluster_column(dist, idx):
    """A build's column sums[:, j] of the cluster with members `idx`, summed
    as `ClusterSumLedger` describes, and its pair sum pair_sums[j]."""
    blocks = _row_blocks(dist, idx)
    col = next(blocks).sum(axis=0)
    for rows in blocks:
        rows[0] += col
        col = rows.sum(axis=0)
    return col, 0.5 * col[idx].sum().item()


def move_point(partition: Partition, ledger: ClusterSumLedger, i, to) -> None:
    """Move point i to cluster `to`, updating partition and ledger in O(n).

    The one update of the partition's labels and counts and the ledger's
    pair sums and columns.  Raises InputError for ids that are not integers
    in range or a move within one cluster, and RejectedMoveError when the
    move would empty the source cluster.
    """
    labels, counts, k = partition.labels, partition.counts, partition.k
    # Python ints in range skip the full check: the sweep makes every move
    if not (type(i) is int and type(to) is int and 0 <= i < labels.shape[0] and 0 <= to < k):
        i, to = check_index(i, labels.shape[0], "point"), check_index(to, k, "cluster")
    frm = labels.item(i)
    if to == frm:
        raise InputError(f"point {i} is already in cluster {to}")
    if counts[frm] < 2:
        raise RejectedMoveError(f"moving point {i} would empty cluster {frm}")
    labels[i] = to
    counts[frm] -= 1
    counts[to] += 1
    cols, pair_sums = ledger.cols, ledger.pair_sums
    pair_sums[frm] -= cols[frm].item(i)
    pair_sums[to] += cols[to].item(i)
    dcol = ledger.dist[i]
    cols[frm] -= dcol
    cols[to] += dcol
