"""K-groups fitting by local relocation search.

Three fit modes, each listed once in `ALGORITHMS`, which maps the algorithm
name the harness and the CLI use to the `FitConfig.mode` name, share one
entry point (`fit`, which runs the mode cfg.mode names), the n x n distance
cache, one start (`_start`) and one ledger sweep (`_LedgerState`) over
items of m points that move together, the rows of an (items, m) array:

* first_variation  - items are the (n, 1) single points; a point moves when
  the weighted energy statistic against its own cluster exceeds the
  minimum weighted statistic against any other cluster.
* second_variation - the first variation applied to m = 2 points: items are
  the (n/2, 2) pairs of greedy closest matching, which lets the search
  escape some single-point local minima.  With an odd n each restart holds
  one random point out of its pairing; the point waits in a cluster of its
  own on the same cache and ledger, which the sweep never reads or
  targets, and is inserted by the single-point rule at the end.
  The restart's objective is then a fresh ledger's on the final labels:
  the last re-anchor's fresh pair sums for the clusters the point did not
  join, and the joined cluster's summed afresh.
* kmeans_alpha2    - first variation with alpha fixed at 2.  There the
  statistic of a point against a cluster is twice its squared distance to
  the centroid, so the sweep is Hartigan and Wong's k-means transfer.

Relocation gains are exact: moving points S (|S| = m) from a cluster of
size n1 into one of size n2 changes the objective by

    m*n1/(2*(n1-m)) * xi(S, source)  -  m*n2/(2*(n2+m)) * xi(S, target)

where xi is the two-sample energy statistic between S and the cluster
(including S itself on the source side).  One kernel, `_relocation_costs`,
evaluates both terms: the removal cost once, from the source cluster's
factors, then the insertion cost of every other cluster in increasing id
order, so ties go to the lowest id.  The sweep, the insertion of a
held-out point and `mth_variation_delta` all call it.  A move is applied
only when this gain, as computed in floating point, is strictly positive.
A move whose exact gain is 0 is taken when rounding makes it positive, so
the exact objective need not strictly decrease; `max_passes` bounds the
search as well.  When a sweep stops, its maintained objective is checked
against that of a fresh `ClusterSumLedger`, which is bound, and the sweep
resumed, when the two drifted apart.  No BLAS call decides a move, so a
fit is the same under every BLAS thread count.

Most visits move nothing, and they come in long runs: on the benchmark's
n = 2001, k = 6 first-variation fit, 60 % of the visits fall in runs of
more than 32 idle visits.  Like the live set of Hartigan and Wong's AS 136,
the sweep skips items that cannot move.  Once `_SCREEN_AFTER` visits in a
row have moved nothing, `_LedgerState.screen` evaluates the kernel's
costs for whole blocks of the items ahead in numpy, in the same operations
and order, and the sweep jumps to the first item that moves.  The
skipped items count as idle visits and the scalar visit still decides and
makes every move, so passes, moves and traces are those of visiting every
item.  The sweep waits for a streak because a screen costs several visits
and moves come in bursts: screening after every visit was slower than not
screening at all.

The visits that remain, and the bookkeeping of every move, are interpreted
Python, and numpy scalars were their dearest part: reading one value out
of an array costs 100-250 ns, a list item about 20 ns (numpy 2.4).  So the
partition keeps its cluster counts and the ledger its pair sums as Python
lists, which `move_point`, the one update of both, changes once per point.
The sweep makes each move itself: it calls `move_point` for each of the
item's points and refreshes its two clusters' kernel factors from those
lists.  A visit reads the factors, a list copy of the labels and, with one
`tolist`, its item's distance sums through the ledger's row views
(`_LedgerState`).

A fit's restarts are independent, so `fit` runs them on this process and
warm workers (`_crew`, `_run_jobs`, the bench's replicate runner too); its
docstring gives their number W.  A restart job reaches a worker as one
pickled message on its `multiprocessing.Pipe`, the cache as its data and
alpha, and the worker rebuilds the matrix: the same `cdist` on the same
input in a fork of the same process, so it is the caller's bit for bit.
Each process makes the sweep items from its own matrix (`_fit_items`), so
the job carries no points or pairs.  Restart r runs on worker r mod W, each
restart's record is its own one-restart `FitResult`, and `fit` takes the
best of them in restart order, so a fit is bit-identical for every W.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import math
import multiprocessing
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

# `disco` is not called here; it stays a solver name because the traced
# benchmark run (perfbench/spans.py) wraps kgroups.solver.disco
from .energy import DistanceCache, _dist_for, _index_set, _within_term, as_data_matrix, disco, validate_alpha  # noqa: F401
from .errors import InputError, NumericInvariantError, RejectedMoveError, check_fields, check_index, check_sequence
from .partition import (
    ClusterSumLedger,
    Partition,
    _cluster_column,
    _dispersion,
    _surjective_labels,
    move_point,
)

__all__ = [
    "ALGORITHMS",
    "fit_config",
    "FitConfig",
    "FitResult",
    "mth_variation_delta",
    "min_distance_pairs",
    "fit",
]


# algorithm name (harness, dermatology, `kgroups fit --mode`) -> FitConfig.mode
ALGORITHMS = {"kgroups_first": "first_variation", "kgroups_second": "second_variation", "kmeans": "kmeans_alpha2"}


def fit_config(algorithm, **settings) -> FitConfig:
    """A FitConfig for the mode `algorithm` names; kmeans sets alpha to 2."""
    if algorithm not in tuple(ALGORITHMS):  # compared, not hashed: a list is refused too
        raise InputError(f"algorithm must be one of {tuple(ALGORITHMS)}, got {algorithm!r}")
    if algorithm == "kmeans":
        settings["alpha"] = 2.0
    return FitConfig(mode=ALGORITHMS[algorithm], **settings)


def _check_algorithms(algorithms) -> tuple:
    """`algorithms` as a tuple of distinct names from ALGORITHMS, else InputError."""
    names = check_sequence(algorithms, "algorithms", choices=ALGORITHMS)
    if len(set(names)) != len(names):
        raise InputError("algorithms must be unique")
    return names


@dataclass(frozen=True)
class FitConfig:
    """Settings for one clustering fit."""

    k: int
    alpha: float = 1.0
    restarts: int = 10
    max_passes: int = 50
    rng_seed: int = 0
    mode: str = "first_variation"

    def __post_init__(self):
        check_fields(vars(self), k=1, restarts=1, max_passes=1, rng_seed=0)
        validate_alpha(self.alpha)
        if self.mode not in ALGORITHMS.values():
            raise InputError(f"mode must be one of {tuple(ALGORITHMS.values())}, got {self.mode!r}")
        if self.mode == "kmeans_alpha2" and self.alpha != 2.0:
            raise InputError(f"{self.mode} requires alpha=2")


@dataclass
class FitResult:
    """Outcome of a fit: best partition over restarts plus run metadata.

    `within` is the final objective of the winning restart; in what `fit`
    returns it agrees with a from-scratch recomputation to 1e-9 relative.
    `converged` says that the winner's sweep stopped because a full round
    of visits moved nothing, not at `max_passes`.  `trace`, when requested, holds one (item,
    source, target, within_after) entry per accepted relocation of the
    winning restart.
    """

    partition: Partition
    within: float
    passes: int
    moves: int
    converged: bool
    seed: int
    per_restart_within: list = field(default_factory=list)
    trace: list | None = None


# ---------------------------------------------------------------------------
# Exact relocation gains


def _cluster_coef(nj, within_j, m):
    """The factors of cluster j in `_relocation_costs` for sets of m points.

    `nj` is |C_j| (an int) and `within_j` its pair sum (a float).  Returns
    m*n_j, 2*within_j/n_j^2, the removal weight m*n_j/(2*(n_j-m)) (None when
    removing m points would empty the cluster) and the insertion weight
    m*n_j/(2*(n_j+m)).
    """
    mn = m * nj
    removal = mn / (2.0 * (nj - m)) if nj > m else None
    return float(mn), 2.0 * within_j / (nj * nj), removal, mn / (2.0 * (nj + m))


def _relocation_costs(cross, coefs, spread, frm):
    """Weighted statistics m*n_j/(2*(n_j -/+ m)) * xi(S, C_j) of a set S of m points.

    Per cluster j, `cross[j]` sums the distances from S to C_j and
    `coefs[j]` holds the `_cluster_coef` factors of C_j for sets of m
    points; `spread` is the mean distance inside S over all m*m ordered
    pairs.  S sits in cluster `frm` (-1: in none).  Returns the cost of
    removing S from `frm` (inf for -1), the lowest cost of adding S to
    another cluster and that cluster (ties keep the lowest id).  `cross`
    and `coefs` are Python lists, like everything else a sweep visit reads
    (`_LedgerState`): a list item costs about 20 ns to index, a numpy
    scalar 100-250 ns.  The loop counts j itself: with `enumerate` a call
    at k = 6 took about 5 % longer (CPython 3.11).
    """
    removal = best = math.inf
    if frm >= 0:
        mn, wterm, remove_w, _ = coefs[frm]
        removal = remove_w * (2.0 * cross[frm] / mn - spread - wterm)
    best_j = -1
    j = 0
    for mn, wterm, _, insert_w in coefs:
        if j != frm:
            cost = insert_w * (2.0 * cross[j] / mn - spread - wterm)
            if cost < best:
                best = cost
                best_j = j
        j += 1
    return removal, best, best_j


def mth_variation_delta(partition, ledger, points, to) -> float:
    """Exact objective change from moving a set of m points together.

    Positive means the move lowers the within-cluster dispersion.  Raises
    RejectedMoveError when the move would empty the source cluster.
    """
    pts = _index_set(points, partition.n, "point set")
    to = check_index(to, partition.k, "cluster")
    frm = partition.labels.item(pts[0])
    if not (partition.labels[pts] == frm).all():
        raise InputError("all moved points must share one source cluster")
    if to == frm:
        raise InputError("target cluster equals the source cluster")
    if partition.counts[frm] <= pts.size:
        raise RejectedMoveError(f"moving {pts.size} points would empty cluster {frm}")
    m = pts.size
    both = [frm, to]
    cross = [float(ledger.sums[pts, j].sum()) for j in both]
    spread = float(ledger.dist[np.ix_(pts, pts)].sum()) / (m * m)
    coefs = [_cluster_coef(partition.counts[j], ledger.pair_sums[j], m) for j in both]
    removal, insertion, _ = _relocation_costs(cross, coefs, spread, 0)
    return removal - insertion


# ---------------------------------------------------------------------------
# The sweep


# A sweep screens the items ahead only once this many visits in a row have
# moved nothing.  A screen has a fixed cost of some 20-40 us, four or more
# visits, and moves come in bursts: screening after every visit made
# first-variation fits at n = 200 and n = 358 1.8-3 times slower.  Streaks
# of 16 to 64 and first blocks of 64 to 256 items timed alike within the
# run-to-run noise (numpy 2.4).
_SCREEN_AFTER = 32
# Items in a screen's first block; each further block doubles, so a screen
# that crosses a whole idle pass takes few numpy calls.
_SCREEN_BLOCK = 128


class _Items(NamedTuple):
    """A sweep's items, each a set of m points that moves together: the
    (items, m) point array and each item's spread, half the distance
    between its points (0.0, dist[i, i] / 2, for a single point), as arrays
    for `screen` and as (points, spread) tuples for the visits."""

    items: list
    points: np.ndarray
    spreads: np.ndarray


def _items(dist, points) -> _Items:
    """The items of `points`: np.arange(n)[:, None] for single points, or
    the (n/2, 2) closest pairs."""
    spreads = dist[points[:, 0], points[:, -1]] / 2.0
    return _Items(list(zip(zip(*points.T.tolist()), spreads.tolist())), points, spreads)


class _LedgerState:
    """Ledger-backed sweep over `_Items` of m = 1 or m = 2 points.

    Each item is (points, spread), spread being the mean distance inside the
    points over their m*m ordered pairs.  The partition and the ledger
    cover all n points of the cache.  With pairs on an odd n, one point
    `held` is in no pair: it sits alone in an extra cluster k, which the
    sweep never reads or targets (`coefs` and the objective cover clusters
    0..k-1 only).  With pairs, `finish` returns the objective of the last
    re-anchor's fresh ledger; with a held point it inserts the point first
    and sums afresh only the cluster that it joins.

    `counts` and `pair_sums` are the partition's own count list and the
    ledger's own pair-sum list, which `move_point` updates.  The visits
    also read `labels`, a list copy of the partition's labels, `rows`, the
    ledger's row views sums[i], and `coefs`, each cluster's `_cluster_coef`
    factors: `_sweep` keeps them equal to the state as it moves items, and
    `bind` makes `rows` and `coefs` afresh with each ledger.
    """

    def __init__(self, cache, partition, items: _Items, held=None):
        self.partition = partition
        self.items, self.points, self.spreads = items
        self.m = self.points.shape[1]
        self.held = held
        self.k = partition.k - (held is not None)
        self.labels = partition.labels.tolist()
        self.counts = partition.counts
        self.bind(ClusterSumLedger(partition, cache))

    def bind(self, ledger):
        self.ledger = ledger
        self.pair_sums = ledger.pair_sums
        self.rows = list(ledger.sums)
        self.coefs = [_cluster_coef(self.counts[j], self.pair_sums[j], self.m) for j in range(self.k)]

    def screen(self, t):
        """The first item at or after t that a visit moves, else the item count.

        The numpy twin of the sweep's visit over blocks of items: the same
        operations in the same order, so the costs are bit-equal to the
        visit's (an item's point columns add in order, as the visit adds
        their rows).  An item is kept when its removal cost exceeds its
        lowest insertion cost, the visit's own rule; fmin skips a NaN cost
        as the visit's `cost < best` does.  An item whose cluster has
        n_j <= m gets a NaN removal weight, and never moves.
        """
        n_items = len(self.items)
        mn, wterm, remove_w, insert_w = np.array(self.coefs, dtype=float).T[..., None]
        sums = self.ledger.sums.T[: self.k]  # (k, n), C-ordered; no held cluster
        labels = self.partition.labels
        block = _SCREEN_BLOCK
        while t < n_items:
            end = min(t + block, n_items)
            pts = self.points[t:end].T
            frm = labels[pts[0]]
            xi = sums.take(pts[0], axis=1)
            for col in pts[1:]:
                xi += sums.take(col, axis=1)
            xi = 2.0 * xi / mn - self.spreads[t:end] - wterm
            cols = np.arange(end - t)
            removal = remove_w[frm, 0] * xi[frm, cols]
            costs = insert_w * xi
            costs[frm, cols] = np.inf
            might = removal > np.fmin.reduce(costs, axis=0)
            if might.any():
                return t + int(np.argmax(might))
            t = end
            block *= 2
        return n_items

    def within_value(self) -> float:
        # over clusters 0..k-1 only: a held-out term would regroup numpy's
        # sum once there are 8 or more
        return _dispersion(self.pair_sums[: self.k], self.counts[: self.k])

    def reanchor(self) -> bool:
        """Rebuild the ledger when its objective drifted from a fresh ledger's.

        On mixed-scale data the distances that moves between far clusters
        add and subtract swamp the sums inside clusters.  The fresh
        `ClusterSumLedger` sums the distance rows in a fixed order, so no
        BLAS call, whose sums vary with its thread count, decides a move.
        Keeps the fresh objective (`fresh_within`) and pair sums
        (`fresh_pair_sums`); returns whether it rebuilt.
        """
        fresh = ClusterSumLedger(self.partition, self.ledger.dist)
        self.fresh_pair_sums = fresh.pair_sums
        value = self.fresh_within = _dispersion(fresh.pair_sums[: self.k], self.counts[: self.k])
        # a rebuild cannot mend NaN or inf; the final check reports them
        if not abs(self.within_value() - value) > 1e-9 * abs(value):
            return False
        self.bind(fresh)
        return True

    def finish(self):
        """The final partition and objective: the maintained one for single
        points, else a fresh ledger's on the final labels, bit for bit."""
        if self.held is None:
            return self.partition, self.fresh_within if self.m > 1 else self.within_value()
        labels = self.partition.labels.copy()
        # summed afresh: the ledger's row of the held point adds in another order
        row = self.ledger.dist[self.held]
        cross = [float(row[labels == j].sum()) for j in range(self.k)]
        coefs = [_cluster_coef(self.counts[j], self.pair_sums[j], 1) for j in range(self.k)]
        to = labels[self.held] = _relocation_costs(cross, coefs, 0.0, -1)[2]
        final = Partition(labels, self.k)
        # the last re-anchor's fresh pair sums, but the joined cluster's afresh
        pair_sums = self.fresh_pair_sums[: self.k]
        pair_sums[to] = _cluster_column(self.ledger.dist, final.cluster_indices(to))[1]
        return final, _dispersion(pair_sums, final.counts)


def _sweep(state, max_passes, trace):
    """Cycle items until one full round of consecutive visits moves nothing.

    A visit reads the state's Python mirrors: the item's cluster, its
    summed distances to every cluster (one ledger row, or the sum of two)
    and the clusters' factors, and moves the item when `_relocation_costs`
    puts its removal cost above its best insertion cost: `move_point` for
    each of its points, then the two clusters' factors afresh.  Once
    _SCREEN_AFTER visits in a row have moved nothing, `state.screen` jumps
    to the next item that moves; the items it skips count as visits that
    moved nothing.  The pass loop's condition is where a pass ends: after its
    last item, or after n_items idle visits in a row, when the sweep converged.
    Returns the passes, the moves and whether it converged (not cut off by
    max_passes, nor by it just after a re-anchor rebuilt the ledger).
    """
    items, m = state.items, state.m
    partition, labels, counts = state.partition, state.labels, state.counts
    n_items = len(items)
    passes = moves = still = 0
    while passes < max_passes and still < n_items:
        # bound per pass: a re-anchor binds a new ledger and its mirrors
        ledger, pair_sums, rows, coefs = state.ledger, state.pair_sums, state.rows, state.coefs
        t = 0
        while t < n_items and still < n_items:
            if still >= _SCREEN_AFTER:
                ahead = state.screen(t)
                still += ahead - t
                t = ahead
                if t == n_items or still >= n_items:
                    break
            pts, spread = items[t]
            a = pts[0]
            frm = labels[a]
            still += 1
            if coefs[frm][2] is not None:
                cross = (rows[a] + rows[pts[1]]).tolist() if m > 1 else rows[a].tolist()
                removal, best, to = _relocation_costs(cross, coefs, spread, frm)
                if removal > best:
                    for i in pts:
                        move_point(partition, ledger, i, to)
                        labels[i] = to
                    coefs[frm] = _cluster_coef(counts[frm], pair_sums[frm], m)
                    coefs[to] = _cluster_coef(counts[to], pair_sums[to], m)
                    moves += 1
                    still = 0
                    if trace is not None:
                        trace.append((pts if m > 1 else a, frm, to, state.within_value()))
            t += 1
        passes += 1
        # a drifted ledger is rebuilt, then swept again while passes are left
        if (still >= n_items or passes == max_passes) and state.reanchor():
            still = 0
    return passes, moves, still >= n_items


# ---------------------------------------------------------------------------
# Pairing for second variation


def min_distance_pairs(dist, held=None) -> list:
    """Pair every point with its nearest available neighbor.

    Points are scanned in index order; each not-yet-paired point takes the
    closest point that is still unpaired (ties by lowest index).  A point
    `held` out is marked paired before the scan, so it is in no pair and
    never taken; the rest must be an even count, so n is even without a
    held point and odd with one.  The pairs are those of the matrix with
    the held point's row and column deleted, in the full matrix's indices.
    Deterministic, O(n^2), and invariant to any strictly increasing
    transform of the distances (so the exponent alpha does not change the
    matching).  `dist` is a DistanceCache or a square real matrix.
    """
    dist = _dist_for(dist)
    n = dist.shape[0]
    used = np.zeros(n, dtype=bool)
    if held is not None:
        used[check_index(held, n, "held-out point")] = True
    if (n - (held is not None)) % 2:
        raise InputError("pairing needs an even number of points besides the held-out one")
    pairs = []
    for i in range(n):
        if used[i]:
            continue
        used[i] = True
        row = np.where(used, np.inf, dist[i])
        j = int(np.argmin(row))
        if used[j]:  # every unpaired distance is inf: take the lowest unpaired index
            j = int(np.argmin(used))
        used[j] = True
        pairs.append((i, j))
    return pairs


# ---------------------------------------------------------------------------
# Fits


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    # spawn_key separates these streams from any default_rng(seed) consumer,
    # e.g. the data generators seeded with the same integer.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(restart,))
    )


def _start(cache, k, rng, items, start=None) -> _LedgerState:
    """A restart's state: from `start`, else one random nonempty cluster
    label per item, `_surjective_labels`' draw over the items.  `items`
    None: with pairs on an odd n, one random point sits out in cluster k and
    the rest are paired afresh."""
    n, held = cache.n, None
    if items is None:
        held = int(rng.integers(n))
        items = _items(cache.dist, np.array(min_distance_pairs(cache.dist, held), dtype=np.intp))
    if start is None:
        labels = np.full(n, k, dtype=np.intp)
        labels[items.points] = _surjective_labels(len(items.items), k, rng)[:, None]
        start = Partition(labels, k + (held is not None))
    return _LedgerState(cache, start, items, held)


def _restart(r, cfg, cache, start, items, collect_trace) -> FitResult:
    """Restart r of a fit, as the fit of that one restart: a sweep from its
    own random start, or from `start` when r is 0 and one is given.  `items`
    are `_fit_items`' (None: each odd-n second-variation restart pairs
    afresh); `converged` is as `_sweep` returns it."""
    state = _start(cache, cfg.k, _restart_rng(cfg.rng_seed, r), items, start if r == 0 else None)
    trace = [] if collect_trace else None
    passes, moves, converged = _sweep(state, cfg.max_passes, trace)
    part, w = state.finish()
    return FitResult(part, w, passes, moves, converged, cfg.rng_seed, [w], trace)


# Each worker gets at least this many points times restarts of work.  A job
# reaches a warm worker in one message, a round trip of about 0.1 ms, where
# forking a worker and reaping it took about 3 ms; a fit's worker then
# rebuilds the cache, 0.08-0.12 ms at n = 200, p <= 2.  Timed on 2 CPUs
# (lognormal data, R = 5, k = 2 and 6, all three modes, nine serial and
# nine W = 2 fits interleaved, three runs), two workers took 0.73-1.49
# times the serial time at n * R = 200, 0.66-1.11 at 300, 0.63-0.97 at
# 500, 0.60-1.02 at 750 and 0.61-0.78 at 1000, a bench cell's fit (n = 200,
# R = 5).  So two workers start at n * R = 1000; W > 2 has not been timed.
_WORK_PER_WORKER = 500


def _usable_cpus() -> int:
    # sched_getaffinity is Linux-only: elsewhere the restarts run serially
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


# The workers' own n x n matrices together take at most this many bytes:
# W - 1 <= _COPY_BYTES // (8 n^2), so a fit with n > 5792 runs serially.
_COPY_BYTES = 1 << 28


def _worker_count(restarts, n) -> int:
    """W = min(R, usable CPUs, n * R // _WORK_PER_WORKER, 1 + _COPY_BYTES
    // (8 n^2)), at least 1: each worker has work enough to pay for its
    jobs' messages, and their matrices stay within _COPY_BYTES."""
    return max(1, min(restarts, _usable_cpus(), n * restarts // _WORK_PER_WORKER, 1 + _COPY_BYTES // (8 * n * n)))


_workers = []  # (pid, this process's end of its Pipe) of each warm worker
_lock = threading.Lock()  # held by a call from hire to last reply, and by a worker for good


def _forget_workers():
    """In a forked child: the caller's workers are not its own, so close the
    inherited ends of their pipes and neither use nor reap them."""
    global _lock
    for _, conn in _workers:
        conn.close()
    _workers.clear()
    _lock = threading.Lock()


def _reap_workers():
    """Kill and reap every worker; the next call that wants some forks them afresh."""
    while _workers:
        pid, conn = _workers.pop()
        conn.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)
atexit.register(_reap_workers)


def _share(make, ids):
    """({i: job(i)}, {i: exception}) for the jobs `ids` in order, job =
    make(); stops at the first job that raises, as the serial loop would,
    and files its exception, under ids[0] when make() raises."""
    done, failed = {}, {}
    i = ids[0] if ids else 0
    try:
        job = make()
        for i in ids:
            done[i] = job(i)
    except Exception as exc:
        failed[i] = exc
    return done, failed


def _serve(conn):
    """A warm worker's life: run each job the caller sends, on the CPUs it
    names, and send back its records and failures, the latter as
    (exception, formatted traceback) pairs, until the caller closes its
    end.  The job is unpickled in its share, so a failure to rebuild its
    cache, a MemoryError say, is its first job's.  Leaves with os._exit,
    whatever happens."""
    try:
        _lock.acquire()  # for good: a runner inside a job runs serially
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
        placed = None
        while True:
            try:
                message, ids, cpus = conn.recv()
            except EOFError:
                os._exit(0)
            if cpus != placed:
                with contextlib.suppress(OSError):  # placement is a hint
                    os.sched_setaffinity(0, cpus)
                placed = cpus
            done, failed = _share(lambda: pickle.loads(message)(), ids)
            for i, exc in failed.items():
                failed[i] = exc, "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
            try:
                reply = pickle.dumps((done, failed), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                reply = pickle.dumps(({}, {ids[0]: (ChildProcessError(f"unpicklable results: {exc!r}"), "")}))
            del message, done, failed  # let go of the job's results before waiting
            conn.send_bytes(reply)
    finally:
        os._exit(1)


_sched_getcpu = None


def _placement() -> frozenset:
    """The usable CPUs but the one this process runs on, where the workers
    run their jobs.  Woken unpinned, a worker was put on the caller's CPU:
    n = 200, R = 5 fits on 2 CPUs took 1.06-1.23 times the serial time
    unpinned and 0.66-0.83 pinned."""
    global _sched_getcpu
    if _sched_getcpu is None:
        _sched_getcpu = ctypes.CDLL(None).sched_getcpu
        _sched_getcpu.argtypes, _sched_getcpu.restype = [], ctypes.c_int
    cpus = os.sched_getaffinity(0)
    return frozenset(cpus - {_sched_getcpu()}) or frozenset(cpus)


@contextlib.contextmanager
def _crew(workers):
    """The processes at hand for a call that wants `workers`, this one
    included: takes `_lock` without blocking, forks warm workers until there
    are workers - 1 (a failed fork leaves fewer) and holds the lock until
    the call's last reply.  1, holding nothing, when workers < 2, in a
    multiprocessing worker, whose siblings already use the CPUs, or when
    the lock is taken: by another thread, by the runner whose job this
    call is part of, or in a worker, which holds its own."""
    if workers < 2 or multiprocessing.parent_process() is not None or not _lock.acquire(blocking=False):
        yield 1
        return
    try:
        while len(_workers) < workers - 1:
            mine, theirs = multiprocessing.Pipe()
            try:
                pid = os.fork()
            except OSError:  # e.g. at a process limit
                mine.close()
                theirs.close()
                break
            if pid == 0:
                mine.close()
                _serve(theirs)
            theirs.close()
            _workers.append((pid, mine))
        yield min(workers, 1 + len(_workers))
    finally:
        _lock.release()


def _run_jobs(make_job, args, count, workers) -> list:
    """[job(0), ..., job(count - 1)], job = make_job(*args), on `workers` processes.

    Called inside `_crew`, which gives `workers`: this process and the
    crew's warm workers; job i runs on worker i mod W.  A worker gets
    make_job, by name, with args, pickled once for all workers (a fit's
    cache goes as its data, `DistanceCache.__reduce__`), and its job ids
    as one message on its Pipe, and sends its records back, so they must
    pickle.  A job depends on its index alone, so the records are those of
    the serial loop for every W.  When jobs raise, the exception of the
    lowest one is raised, with a worker's traceback as its cause; a worker
    that ends without its results raises ChildProcessError.  A failure
    while workers have jobs kills and reaps them all.
    """
    shares = [(pid, conn, range(s, count, workers)) for s, (pid, conn) in enumerate(_workers[: workers - 1], 1)]
    make = functools.partial(make_job, *args)
    finished = False
    try:
        if shares:
            cpus = _placement()
            message = pickle.dumps(make, pickle.HIGHEST_PROTOCOL)
        for pid, conn, ids in shares:
            try:
                conn.send((message, ids, cpus))
            except OSError:
                raise _lost(pid, ids) from None
        done, failed = _share(make, range(0, count, workers))
        for pid, conn, ids in shares:
            try:
                theirs, their_failures = conn.recv()
            except (EOFError, OSError):
                raise _lost(pid, ids) from None
            done.update(theirs)
            for i, (exc, text) in their_failures.items():
                exc.__cause__ = ChildProcessError(f"job {i} in worker {pid}:\n{text}")
                failed[i] = exc
        finished = not failed
    finally:
        if shares and not finished:
            _reap_workers()
    if failed:
        raise failed[min(failed)]
    return [done[i] for i in range(count)]


def _lost(pid, ids) -> ChildProcessError:
    return ChildProcessError(f"worker {pid} ended without the results of jobs {list(ids)}")


def _fit_items(cache, pairs) -> _Items | None:
    """A fit's sweep items: the single points, or with `pairs` the closest
    pairs of an even n, or None for an odd n (each restart pairs afresh)."""
    if not pairs:
        return _items(cache.dist, np.arange(cache.n)[:, None])
    return None if cache.n % 2 else _items(cache.dist, np.array(min_distance_pairs(cache), dtype=np.intp))


def _restarts(cfg, cache, start, collect_trace):
    """The job of a fit: restart r.  Each process makes the items itself,
    once per job, from the cache it holds."""
    items = _fit_items(cache, cfg.mode == "second_variation")
    return lambda r: _restart(r, cfg, cache, start, items, collect_trace)


def fit(data, cfg: FitConfig, *, init_labels=None, collect_trace=False) -> FitResult:
    """Fit k-groups in the mode named by cfg.mode.

    Runs cfg.restarts one-restart fits from random nonempty partitions and
    returns the lowest-objective one (ties keep the earliest restart) with
    every restart's objective in `per_restart_within`.
    When `init_labels` is given, the first restart starts from that
    partition instead of a random one (not in second variation, whose
    restarts start from random pairs).  The winner's objective must match a
    from-scratch recomputation, the within term of `disco`
    (`energy._within_term`), to 1e-9 relative, NaN included; the total and
    between terms are not computed.

    The restarts run on W = min(R, usable CPUs, n * R // 500, 1 + 2^28 //
    (8 n^2)) processes (`_run_jobs`): this one and warm workers, forked on
    Linux when first wanted and kept for later fits, each of which rebuilds
    the cache from the data, bit for bit.  Their matrices together take at
    most 256 MiB, so a fit with n > 5792 runs serially.  The fit holds
    them (`_crew`) from before it builds its cache to its last reply.  W is
    1 inside a multiprocessing worker and while their lock is taken: by
    another thread, or by a runner whose job this fit is.  The affinity
    mask, e.g. `taskset`, sets the usable CPUs.  The result is
    bit-identical for every W.

    Second variation pairs the points by greedy closest matching on the
    cached powered distances and relocates pairs together; with an odd n
    each restart holds one random point out of the pairing and inserts it
    afterwards by the single-point rule.  In kmeans_alpha2 `within` is the
    total within-cluster sum of squared deviations from the centroids.
    """
    pairs = cfg.mode == "second_variation"
    x = as_data_matrix(data)
    n = x.shape[0]
    if cfg.k > n:
        raise InputError(f"k={cfg.k} exceeds the number of points n={n}")
    if pairs and n // 2 < cfg.k:
        raise InputError(f"second variation needs at least k={cfg.k} pairs, got {n} points")
    start = None
    if init_labels is not None:
        if pairs:
            raise InputError("second variation starts from random pairs, not from init_labels")
        start = Partition(init_labels, cfg.k)
        if start.n != n:
            raise InputError("init_labels length does not match the data")
    # the workers are forked before the cache is built, so none holds it for life
    with _crew(_worker_count(cfg.restarts, n)) as workers:
        cache = DistanceCache(x, cfg.alpha)
        results = _run_jobs(_restarts, (cfg, cache, start, collect_trace), cfg.restarts, workers)
    best = min(results, key=lambda res: res.within)

    part = best.partition
    fresh = _within_term(cache.dist, [part.cluster_indices(j) for j in range(part.k)])[0]
    if not abs(best.within - fresh) <= 1e-9 * abs(fresh):
        raise NumericInvariantError(
            f"{cfg.mode} objective {best.within!r} disagrees with recomputation {fresh!r}"
        )
    return replace(best, per_restart_within=[res.within for res in results])
