"""Shared oracles and instance builders.

The oracles here recompute everything from first principles with plain
loops, independent of the package's cached/ledgered code paths, so they can
serve as ground truth for the incremental formulas.
"""

import os
from pathlib import Path

import numpy as np
import pytest

# Child processes (the console-script test) import kgroups from this checkout
# as well, so a plain `pytest` run needs no installed package.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def brute_powered_distance(x, y, alpha):
    diff = np.asarray(x, dtype=float).ravel() - np.asarray(y, dtype=float).ravel()
    d2 = float((diff * diff).sum())
    return d2 ** (alpha / 2.0)


def brute_within(x, labels, alpha):
    """Within-cluster dispersion from scratch: per cluster, the sum of all
    ordered-pair powered distances divided by twice the cluster size."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and x.shape[1] > 1 and len(np.asarray(labels).ravel()) > 1:
        x = x.T
    labels = np.asarray(labels).ravel()
    total = 0.0
    for j in np.unique(labels):
        idx = np.flatnonzero(labels == j)
        s = 0.0
        for a in idx:
            for b in idx:
                s += brute_powered_distance(x[a], x[b], alpha)
        total += s / (2.0 * idx.size)
    return total


def hartigan_wong_transfers(x, labels, k, max_passes=50):
    """Move trace of Hartigan and Wong's single-point transfer sweep (k >= 2).

    Plain numpy over maintained centroids, with no distance matrix: point i
    leaves its cluster of size n1 >= 2 for the cluster j of size n2 that
    minimises n2*d2(i, c_j)/(n2+1), when that is below n1*d2(i, c_own)/(n1-1)
    (ties keep the lowest j).  Points are visited in index order until n
    consecutive visits move nothing or max_passes passes are done.  Returns
    the (i, source, target) moves and the final labels.
    """
    labels = np.array(labels, dtype=np.intp).ravel()
    n = labels.size
    x = np.asarray(x, dtype=float).reshape(n, -1)
    sizes = np.bincount(labels, minlength=k)
    coord_sums = np.array([x[labels == j].sum(axis=0) for j in range(k)])
    trace = []
    passes = still = 0
    while passes < max_passes and still < n:
        for i in range(n):
            frm = int(labels[i])
            n1 = int(sizes[frm])
            d2 = ((coord_sums / sizes[:, None] - x[i]) ** 2).sum(axis=1)
            cost = sizes * d2 / (sizes + 1.0)
            cost[frm] = np.inf
            to = int(np.argmin(cost))
            if n1 >= 2 and n1 * float(d2[frm]) / (n1 - 1.0) > cost[to]:
                labels[i] = to
                sizes[frm] -= 1
                sizes[to] += 1
                coord_sums[frm] -= x[i]
                coord_sums[to] += x[i]
                trace.append((i, frm, to))
                still = 0
            else:
                still += 1
                if still >= n:
                    break
        passes += 1
    return trace, labels


def brute_pair_counts(a, b):
    """Pair-agreement counts by direct enumeration over all point pairs."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    n = a.size
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                ss += 1
            elif same_a:
                sd += 1
            elif same_b:
                ds += 1
            else:
                dd += 1
    return ss, sd, ds, dd


def brute_rand(a, b):
    ss, sd, ds, dd = brute_pair_counts(a, b)
    return (ss + dd) / (ss + sd + ds + dd)


def brute_adjusted_rand(a, b):
    ss, sd, ds, dd = brute_pair_counts(a, b)
    num = 2.0 * (ss * dd - sd * ds)
    den = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if den == 0.0:
        return 1.0 if sd == 0 and ds == 0 else 0.0
    return num / den


def random_instance(rng, n_lo=8, n_hi=40, p_hi=3, k_hi=4):
    """Random data plus a valid partition with every cluster nonempty."""
    n = int(rng.integers(n_lo, n_hi + 1))
    p = int(rng.integers(1, p_hi + 1))
    k = int(rng.integers(2, min(k_hi, n - 1) + 1))
    x = rng.standard_normal((n, p)) * float(rng.uniform(0.5, 3.0))
    while True:
        labels = rng.integers(0, k, size=n)
        if np.bincount(labels, minlength=k).min() >= 1:
            break
    return x, labels.astype(np.intp), k


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
