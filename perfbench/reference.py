"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports kgroups.  Distances come from
``scipy.spatial.distance.cdist`` in row blocks, so no n x n matrix is ever
held, and every formula is written out from the definitions:

    W = sum_j 1/(2 n_j) * sum_{a, b in C_j} |x_a - x_b|^alpha

A relocation gain is W before the move minus W after it, evaluated from
per-point cluster sums; a converged local search must leave no gain above a
small relative tolerance.
"""

from __future__ import annotations

import zlib

import numpy as np
from scipy.spatial.distance import cdist

BLOCK_ROWS = 512
W_RTOL = 1e-9  # agreement of FitResult.within with the reference W
GAIN_RTOL = 1e-9  # largest relocation gain, as a share of W, a local optimum may show


class CheckFailure(AssertionError):
    """An output of the program disagrees with the reference computation.
    `check` names the check that fired, so the self-test can tell them apart."""

    def __init__(self, message, check="other"):
        super().__init__(message)
        self.check = check


def _powered(d, alpha):
    return d if alpha == 1.0 else d**alpha


def _block_distances(x, rows, alpha):
    if alpha == 2.0:
        return cdist(x[rows], x, "sqeuclidean")
    return _powered(cdist(x[rows], x, "euclidean"), alpha)


def cluster_sums(x, labels, k, alpha):
    """S[i, j] = sum over m in cluster j of |x_i - x_m|^alpha."""
    n = x.shape[0]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    sums = np.empty((n, k))
    for lo in range(0, n, BLOCK_ROWS):
        rows = slice(lo, min(n, lo + BLOCK_ROWS))
        sums[rows] = _block_distances(x, rows, alpha) @ onehot
    return sums


class Reference:
    """Per-cluster sums of one partition, and the quantities derived from them."""

    def __init__(self, x, labels, k, alpha):
        self.x = np.asarray(x, dtype=np.float64)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        self.labels = np.asarray(labels, dtype=np.intp)
        self.k = int(k)
        self.alpha = float(alpha)
        self.sizes = np.bincount(self.labels, minlength=self.k)
        self.sums = cluster_sums(self.x, self.labels, self.k, self.alpha)
        n = self.labels.shape[0]
        # D[j] = sum over ordered pairs inside cluster j
        self.pair_sums = np.bincount(
            self.labels, weights=self.sums[np.arange(n), self.labels], minlength=self.k
        )

    def objective(self) -> float:
        nonempty = self.sizes > 0
        return float((self.pair_sums[nonempty] / (2.0 * self.sizes[nonempty])).sum())

    def point_gains(self):
        """Gain of every single-point relocation, shape (n, k); -inf where not allowed."""
        n = self.labels.shape[0]
        own = self.labels
        n1 = self.sizes[own].astype(np.float64)
        d1 = self.pair_sums[own]
        s1 = self.sums[np.arange(n), own]
        with np.errstate(divide="ignore", invalid="ignore"):
            source = d1 / (2.0 * n1) - (d1 - 2.0 * s1) / (2.0 * (n1 - 1.0))
        n2 = self.sizes[None, :].astype(np.float64)
        d2 = self.pair_sums[None, :]
        target = d2 / (2.0 * n2) - (d2 + 2.0 * self.sums) / (2.0 * (n2 + 1.0))
        gains = source[:, None] + target
        gains[np.arange(n), own] = -np.inf
        gains[n1 < 2] = -np.inf
        return gains

    def pair_gains(self, pairs, dist_ab):
        """Gain of moving each pair (a, b) of one cluster into every other cluster."""
        a = np.asarray([p[0] for p in pairs], dtype=np.intp)
        b = np.asarray([p[1] for p in pairs], dtype=np.intp)
        own = self.labels[a]
        n1 = self.sizes[own].astype(np.float64)
        d1 = self.pair_sums[own]
        s1 = self.sums[a, own] + self.sums[b, own]
        with np.errstate(divide="ignore", invalid="ignore"):
            source = d1 / (2.0 * n1) - (d1 - 2.0 * s1 + 2.0 * dist_ab) / (2.0 * (n1 - 2.0))
        n2 = self.sizes[None, :].astype(np.float64)
        d2 = self.pair_sums[None, :]
        s2 = self.sums[a] + self.sums[b]
        target = d2 / (2.0 * n2) - (d2 + 2.0 * s2 + 2.0 * dist_ab[:, None]) / (2.0 * (n2 + 2.0))
        gains = source[:, None] + target
        gains[np.arange(len(pairs)), own] = -np.inf
        gains[n1 <= 2] = -np.inf
        return gains


def greedy_pairs(x):
    """Scan points in index order; each unpaired point takes its nearest
    unpaired neighbour, ties broken by the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n % 2:
        raise ValueError("pairing needs an even number of points")
    used = np.zeros(n, dtype=bool)
    pairs = []
    for i in range(n):
        if used[i]:
            continue
        used[i] = True
        row = cdist(x[i : i + 1], x, "euclidean")[0]
        row[used] = np.inf
        j = int(np.argmin(row))
        used[j] = True
        pairs.append((i, j))
    return pairs


def check_fit(x, cfg, result, *, pairs=None):
    """Check one FitResult against the reference; raise CheckFailure on a mismatch.

    `cfg` is the FitConfig the fit ran with.  `pairs` is the reference
    pairing, needed for second variation on an even point count.
    """
    labels = np.asarray(result.partition.labels)
    ref = Reference(x, labels, cfg.k, cfg.alpha)
    if int((ref.sizes > 0).sum()) != cfg.k:
        raise CheckFailure(f"{cfg.mode}: {int((ref.sizes > 0).sum())} nonempty clusters, expected {cfg.k}", "clusters")
    w_ref = ref.objective()
    w = float(result.within)
    if not abs(w - w_ref) <= W_RTOL * max(1.0, abs(w_ref)):
        raise CheckFailure(f"{cfg.mode}: within {w!r} disagrees with reference {w_ref!r}", "within")
    if len(result.per_restart_within) != cfg.restarts or w != min(result.per_restart_within):
        raise CheckFailure(f"{cfg.mode}: within is not the minimum of per_restart_within", "restarts")
    if not result.passes < cfg.max_passes:
        raise CheckFailure(f"{cfg.mode}: fit used all {cfg.max_passes} passes", "passes")
    tol = GAIN_RTOL * max(1.0, abs(w_ref))
    if cfg.mode in ("first_variation", "kmeans_alpha2"):
        worst = float(ref.point_gains().max())
        if worst > tol:
            raise CheckFailure(f"{cfg.mode}: a single-point move gains {worst!r} (W={w_ref!r})", "point_gain")
    elif pairs is not None:
        a = np.asarray([p[0] for p in pairs])
        b = np.asarray([p[1] for p in pairs])
        if (labels[a] != labels[b]).any():
            raise CheckFailure("second_variation: a reference pair is split across clusters", "pair_split")
        dist_ab = _powered(np.linalg.norm(ref.x[a] - ref.x[b], axis=1), cfg.alpha)
        worst = float(ref.pair_gains(pairs, dist_ab).max())
        if worst > tol:
            raise CheckFailure(f"second_variation: a pair move gains {worst!r} (W={w_ref!r})", "pair_gain")
    return w_ref


def adjusted_rand(truth, pred) -> float:
    """Hubert-Arabie adjusted Rand index (the corrected Rand, cRand)."""
    truth = np.unique(np.asarray(truth), return_inverse=True)[1]
    pred = np.unique(np.asarray(pred), return_inverse=True)[1]
    table = np.zeros((truth.max() + 1, pred.max() + 1))
    np.add.at(table, (truth, pred), 1.0)
    n = truth.shape[0]

    def comb2(v):
        return (v * (v - 1.0) / 2.0).sum()

    index = comb2(table)
    rows = comb2(table.sum(axis=1))
    cols = comb2(table.sum(axis=0))
    expected = rows * cols / (n * (n - 1.0) / 2.0)
    top = 0.5 * (rows + cols)
    if top == expected:
        return 1.0
    return float((index - expected) / (top - expected))


def lognormal_pair(seed, n, separation):
    """The two-component lognormal draw of the bench harness, from its
    documented recipe: membership by PCG64 `choice` on equal weights, then
    exp(mu + standard normal) per component in component order.
    Returns (data, truth, crc32 of the data bytes)."""
    rng = np.random.default_rng(seed)
    truth = rng.choice(2, size=n, p=[0.5, 0.5])
    data = np.empty((n, 1))
    for c, mu in enumerate((0.0, float(separation))):
        rows = np.flatnonzero(truth == c)
        if rows.size:
            data[rows] = np.exp(mu + rng.standard_normal((rows.size, 1)))
    return data, truth, zlib.crc32(data.tobytes())
