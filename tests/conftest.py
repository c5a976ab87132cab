"""Shared oracles and instance builders.

The oracles here recompute everything from first principles with plain
loops, independent of the package's cached/ledgered code paths, so they can
serve as ground truth for the incremental formulas.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import kgroups.solver

# Child processes (the console-script test) import kgroups from this checkout
# as well, so a plain `pytest` run needs no installed package.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def open_descriptors() -> dict:
    """{descriptor: what it names} for this process; {} without /proc/self/fd."""
    fds = {}
    if os.path.isdir("/proc/self/fd"):
        for name in os.listdir("/proc/self/fd"):
            try:
                fds[int(name)] = os.readlink(f"/proc/self/fd/{name}")
            except FileNotFoundError:  # the listing's own descriptor, closed since
                pass
    return fds


def leaked_descriptors(before) -> dict:
    """The open descriptors that `before`, an `open_descriptors()`, lacks."""
    return {fd: what for fd, what in open_descriptors().items() if fd not in before}


@pytest.fixture(autouse=True)
def _fresh_workers():
    # warm restart workers see the code as it was when they were forked, so
    # each test starts without any and forks its own after its patches.  A
    # descriptor still open once they are reaped fails the test: a
    # multiprocessing Pipe end left open warns of nothing, not even in dev mode
    before = open_descriptors()
    yield
    kgroups.solver._reap_workers()
    leaked = leaked_descriptors(before)
    if leaked:
        pytest.fail(f"descriptors left open: {leaked}")


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


def _weighted_cost(cross, within, nj, spread, m, leaving):
    # m*nj/(2*(nj -/+ m)) * xi(S, C_j), in the solver's operation order so
    # that objectives and traces can be compared bit for bit
    xi = 2.0 * cross / (m * nj) - spread - 2.0 * within / (nj * nj)
    return m * nj / (2.0 * ((nj - m) if leaving else (nj + m))) * xi


def first_variation_reference(x, k, alpha, restarts, seed, max_passes=50):
    """First variation visiting every point in index order, on numpy state.

    Each restart starts from `_surjective_labels` on the restart's stream and
    visits every point in turn (no screen), reading the partition's labels
    and sizes and the ledger's sums as numpy arrays.  A point leaves its
    cluster of size n1 >= 2 for the cluster j != own of lowest cost (ties
    keep the lowest j) when its removal cost exceeds that cost, moved by
    `move_point`.  The sweep ends after n consecutive visits move nothing or
    max_passes passes; then, or at max_passes, a ledger whose objective
    drifted from disco's by more than 1e-9 relative is rebuilt and the sweep
    resumes.  Besides that draw and the objective (`_dispersion` of the
    ledger's pair sums), only public pieces are used.  Returns the winning
    restart's labels, objective, passes, moves and (point, source, target,
    within_after) trace, every restart's objective and the rebuilds over
    all restarts.
    """
    from kgroups import ClusterSumLedger, DistanceCache, Partition, disco, move_point
    from kgroups.partition import _dispersion, _surjective_labels

    cache = DistanceCache(x, alpha)
    n = cache.n
    results = []
    rebuilds = 0
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        part = Partition(_surjective_labels(n, k, rng), k)
        ledger = ClusterSumLedger(part, cache)
        trace = []
        passes = moves = still = 0
        while passes < max_passes and still < n:
            for i in range(n):
                frm = int(part.labels[i])
                moved = False
                if part.sizes[frm] > 1:
                    sizes = part.sizes.tolist()
                    within = ledger.within.tolist()
                    cross = ledger.sums[i].tolist()
                    removal = _weighted_cost(cross[frm], within[frm], sizes[frm], 0.0, 1, True)
                    best, to = np.inf, -1
                    for j in range(k):
                        if j != frm:
                            cost = _weighted_cost(cross[j], within[j], sizes[j], 0.0, 1, False)
                            if cost < best:
                                best, to = cost, j
                    if removal > best:
                        move_point(part, ledger, i, to)
                        moves += 1
                        trace.append((i, frm, to, _dispersion(ledger.pair_sums, part.counts)))
                        moved = True
                still = 0 if moved else still + 1
                if still >= n:
                    break
            passes += 1
            if still >= n or passes == max_passes:
                fresh = disco(part, cache).within
                if abs(_dispersion(ledger.pair_sums, part.counts) - fresh) > 1e-9 * abs(fresh):
                    ledger = ClusterSumLedger(part, cache)
                    rebuilds += 1
                    still = 0
        w = _dispersion(ledger.pair_sums, part.counts)
        results.append((w, part.labels.copy(), passes, moves, trace))
    w, labels, passes, moves, trace = min(results, key=lambda res: res[0])
    return {"labels": labels, "within": w, "passes": passes, "moves": moves, "trace": trace,
            "per_restart_within": [res[0] for res in results], "rebuilds": rebuilds}


def odd_second_variation_reference(x, k, alpha, restarts, seed, max_passes=50):
    """Second variation on an odd n with the held-out point cut out of the matrix.

    Each restart draws the held-out point and the pairs' labels from the
    restart's stream, pairs the (n-1) x (n-1) submatrix without that point,
    sweeps the pairs over a ledger on the submatrix (rebuilt when its
    objective drifts from disco's by more than 1e-9 relative), then inserts
    the point where it costs least and rebuilds the ledger on the full
    cache.  Besides the objective (`_dispersion` of a ledger's pair sums),
    only public pieces are used.  Returns the winning restart's
    labels, objective, passes, moves and (pair, source, target,
    within_after) trace in full indices, plus every restart's objective.
    """
    from kgroups import ClusterSumLedger, DistanceCache, Partition, disco
    from kgroups import min_distance_pairs, move_point
    from kgroups.partition import _dispersion

    cache = DistanceCache(x, alpha)
    n = cache.n
    assert n % 2 == 1
    results = []
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        held = int(rng.integers(n))
        active = np.delete(np.arange(n), held)
        sub = cache.dist[np.ix_(active, active)]
        pairs = min_distance_pairs(sub)
        if k == len(pairs):
            pair_labels = rng.permutation(k)
        else:
            while True:
                pair_labels = rng.integers(0, k, size=len(pairs))
                if np.bincount(pair_labels, minlength=k).min() >= 1:
                    break
        labels = np.empty(n - 1, dtype=np.intp)
        for (a, b), lab in zip(pairs, pair_labels):
            labels[a] = labels[b] = lab
        part = Partition(labels, k)
        ledger = ClusterSumLedger(part, sub)
        trace = []
        passes = moves = still = 0
        while passes < max_passes and still < len(pairs):
            for a, b in pairs:
                frm = int(part.labels[a])
                sizes = part.sizes.tolist()
                moved = False
                if sizes[frm] > 2:
                    cross = (ledger.sums[a] + ledger.sums[b]).tolist()
                    within = ledger.within.tolist()
                    spread = float(sub[a, b]) / 2.0
                    removal = _weighted_cost(cross[frm], within[frm], sizes[frm], spread, 2, True)
                    best, to = np.inf, -1
                    for j in range(k):
                        if j != frm:
                            cost = _weighted_cost(cross[j], within[j], sizes[j], spread, 2, False)
                            if cost < best:
                                best, to = cost, j
                    if removal > best:
                        move_point(part, ledger, a, to)
                        move_point(part, ledger, b, to)
                        moves += 1
                        trace.append(((int(active[a]), int(active[b])), frm, to,
                                      _dispersion(ledger.pair_sums, part.counts)))
                        moved = True
                still = 0 if moved else still + 1
                if still >= len(pairs):
                    break
            passes += 1
            if still >= len(pairs) or passes == max_passes:
                fresh = disco(part, sub).within
                if abs(_dispersion(ledger.pair_sums, part.counts) - fresh) > 1e-9 * abs(fresh):
                    ledger = ClusterSumLedger(part, sub)
                    still = 0
        full = np.insert(part.labels, held, -1)
        row = cache.dist[held]
        within = ledger.within.tolist()
        sizes = part.sizes.tolist()
        costs = [_weighted_cost(float(row[full == j].sum()), within[j], sizes[j], 0.0, 1, False)
                 for j in range(k)]
        full[held] = int(np.argmin(costs))
        final = Partition(full, k)
        w = _dispersion(ClusterSumLedger(final, cache).pair_sums, final.counts)
        results.append((w, final.labels, passes, moves, trace))
    w, labels, passes, moves, trace = min(results, key=lambda res: res[0])
    return {"labels": labels, "within": w, "passes": passes, "moves": moves,
            "trace": trace, "per_restart_within": [res[0] for res in results]}


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


def all_partitions(n):
    """Every set partition of range(n), as canonical label vectors."""
    out = []

    def grow(prefix, k):
        if len(prefix) == n:
            out.append(np.array(prefix, dtype=np.intp))
            return
        for lab in range(k + 1):
            grow(prefix + [lab], k + 1 if lab == k else k)

    grow([], 0)
    return out


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
