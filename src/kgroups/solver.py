"""K-groups fitting by local relocation search.

Three fit modes, each listed once in `FIT_MODES` under its `FitConfig.mode`
name and the algorithm name the harness and the CLI use, share one entry
point (`fit`, which runs the mode cfg.mode names), one ledger sweep
(`_LedgerState`) and the n x n distance cache:

* first_variation  - move one point at a time; a point is relocated when the
  weighted energy statistic against its own cluster exceeds the minimum
  weighted statistic against any other cluster.
* second_variation - the first variation applied to m = 2 points: points are
  pre-paired by greedy closest matching and pairs move together, which lets
  the search escape some single-point local minima.
* kmeans_alpha2    - first variation with alpha fixed at 2.  There the
  statistic of a point against a cluster is twice its squared distance to
  the centroid, so the sweep is Hartigan and Wong's k-means transfer.

Relocation gains are exact: moving points S (|S| = m) from a cluster of
size n1 into one of size n2 changes the objective by

    m*n1/(2*(n1-m)) * xi(S, source)  -  m*n2/(2*(n2+m)) * xi(S, target)

where xi is the two-sample energy statistic between S and the cluster
(including S itself on the source side).  One kernel, `_relocation_costs`,
evaluates both terms against every cluster; the single-point and pair
sweeps, the insertion of a held-out point and `mth_variation_delta` all
call it.  A move is applied only when this gain, as computed in floating
point, is strictly positive.  A move whose exact gain is 0 is taken when
rounding makes it positive, so the exact objective need not strictly
decrease; `max_passes` bounds the search as well.  When a sweep stops, its
maintained objective is checked against a fresh one and a drifted ledger
is rebuilt before the sweep resumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .energy import DistanceCache, as_data_matrix, disco, validate_alpha
from .errors import InputError, NumericInvariantError, RejectedMoveError
from .partition import (
    ClusterSumLedger,
    Partition,
    _surjective_labels,
    move_point,
    random_partition,
)

__all__ = [
    "MODES",
    "FIT_MODES",
    "fit_mode",
    "FitConfig",
    "FitResult",
    "mth_variation_delta",
    "move_points",
    "min_distance_pairs",
    "fit",
]


class FitMode(NamedTuple):
    """One fit mode under the name each layer knows it by."""

    mode: str  # FitConfig.mode
    algorithm: str  # harness, dermatology and `kgroups fit --mode` name
    alpha2: bool  # the exponent is fixed at 2

    def config(self, alpha, **settings) -> FitConfig:
        """A FitConfig for this mode; `alpha` is overridden when fixed at 2."""
        return FitConfig(alpha=2.0 if self.alpha2 else alpha, mode=self.mode, **settings)


FIT_MODES = (
    FitMode("first_variation", "kgroups_first", False),
    FitMode("second_variation", "kgroups_second", False),
    FitMode("kmeans_alpha2", "kmeans", True),
)
MODES = tuple(m.mode for m in FIT_MODES)


def fit_mode(**key) -> FitMode:
    """The FIT_MODES entry matching one field, e.g. fit_mode(algorithm="kmeans")."""
    ((attr, value),) = key.items()
    for m in FIT_MODES:
        if getattr(m, attr) == value:
            return m
    choices = tuple(getattr(m, attr) for m in FIT_MODES)
    raise InputError(f"{attr} must be one of {choices}, got {value!r}")


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
        if self.k < 1:
            raise InputError("k must be at least 1")
        validate_alpha(self.alpha)
        if self.restarts < 1:
            raise InputError("restarts must be at least 1")
        if self.max_passes < 1:
            raise InputError("max_passes must be at least 1")
        if int(self.rng_seed) < 0:
            raise InputError("rng_seed must be a nonnegative integer")
        if fit_mode(mode=self.mode).alpha2 and self.alpha != 2.0:
            raise InputError(f"{self.mode} requires alpha=2")


@dataclass
class FitResult:
    """Outcome of a fit: best partition over restarts plus run metadata.

    `within` is the converged objective of the winning restart and must agree
    with a from-scratch recomputation to 1e-9 relative.  `trace`, when
    requested, holds one (item, source, target, within_after) entry per
    accepted relocation of the winning restart.
    """

    partition: Partition
    within: float
    passes: int
    moves: int
    seed: int
    per_restart_within: list = field(default_factory=list)
    trace: list | None = None


# ---------------------------------------------------------------------------
# Exact relocation gains


def _relocation_costs(cross, within, sizes, spread, m, frm):
    """Weighted statistics m*n_j/(2*(n_j -/+ m)) * xi(S, C_j) of a set S of m points.

    Per cluster j, `cross[j]` sums the distances from S to C_j, `within[j]`
    is the pair sum inside C_j and `sizes[j]` is |C_j|; `spread` is the mean
    distance inside S over all m*m ordered pairs.  S sits in cluster `frm`
    (-1: in none).  Returns the cost of removing S from `frm`, the lowest
    cost of adding S to another cluster and that cluster (ties keep the
    lowest id).  The arguments are Python lists: indexing them is what keeps
    a sweep visit cheap.
    """
    removal = best = math.inf
    best_j = -1
    for j, nj in enumerate(sizes):
        xi = 2.0 * cross[j] / (m * nj) - spread - 2.0 * within[j] / (nj * nj)
        if j == frm:
            removal = m * nj / (2.0 * (nj - m)) * xi
        else:
            cost = m * nj / (2.0 * (nj + m)) * xi
            if cost < best:
                best = cost
                best_j = j
    return removal, best, best_j


def _checked_point_set(partition, points):
    # the points of a legal joint move: distinct, in one cluster, not all of it
    pts = np.asarray(points, dtype=np.intp).ravel()
    if pts.size == 0:
        raise InputError("point set is empty")
    if np.unique(pts).size != pts.size:
        raise InputError("point set contains repeated indices")
    if pts.min() < 0 or pts.max() >= partition.n:
        raise InputError("point indices outside the partition")
    frm = int(partition.labels[pts[0]])
    if not (partition.labels[pts] == frm).all():
        raise InputError("all moved points must share one source cluster")
    if int(partition.sizes[frm]) <= pts.size:
        raise RejectedMoveError(f"moving {pts.size} points would empty cluster {frm}")
    return pts, frm


def mth_variation_delta(partition, ledger, points, to) -> float:
    """Exact objective change from moving a set of m points together.

    Positive means the move lowers the within-cluster dispersion.  Raises
    RejectedMoveError when the move would empty the source cluster.
    """
    pts, frm = _checked_point_set(partition, points)
    to = int(to)
    if to == frm:
        raise InputError("target cluster equals the source cluster")
    if not 0 <= to < partition.k:
        raise InputError(f"cluster id {to} outside 0..{partition.k - 1}")
    m = pts.size
    both = [frm, to]
    cross = [float(ledger.sums[pts, j].sum()) for j in both]
    spread = float(ledger.dist[np.ix_(pts, pts)].sum()) / (m * m)
    removal, insertion, _ = _relocation_costs(
        cross, ledger.within[both].tolist(), partition.sizes[both].tolist(), spread, m, 0
    )
    return removal - insertion


def move_points(partition, ledger, points, to) -> None:
    """Apply a joint move of several same-cluster points (ledger maintained)."""
    pts, _ = _checked_point_set(partition, points)
    for i in pts:
        move_point(partition, ledger, int(i), int(to))


# ---------------------------------------------------------------------------
# The sweep


class _LedgerState:
    """Ledger-backed sweep over items of m = 1 points or m = 2 points.

    Each item is (points, spread), spread being the mean distance inside the
    points over their m*m ordered pairs.  The partition and ledger cover the
    points the items are drawn from, indexed from 0.  With pairs (`full`
    given) that may be every point but one held out of an odd n: `finish`
    inserts it into the cluster where it costs least and rebuilds the ledger
    on the full cache.
    """

    def __init__(self, dist, partition, items, ids, full=None, held=None):
        self.partition = partition
        self.ledger = ClusterSumLedger(partition, dist)
        self.items = items
        self.ids = ids
        self.full = full
        self.held = held

    def visit(self, t):
        pts, spread = self.items[t]
        part = self.partition
        ledger = self.ledger
        frm = int(part.labels[pts[0]])
        m = len(pts)
        sizes = part.sizes.tolist()
        if sizes[frm] <= m:
            return None
        cross = ledger.sums[pts[0]] if m == 1 else ledger.sums[pts[0]] + ledger.sums[pts[1]]
        removal, best, to = _relocation_costs(
            cross.tolist(), ledger.within.tolist(), sizes, spread, m, frm
        )
        if removal > best:
            for i in pts:
                move_point(part, ledger, i, to)
            return frm, to
        return None

    def within_value(self) -> float:
        return self.ledger.within_dispersion(self.partition)

    def reanchor(self) -> bool:
        """Rebuild a ledger whose objective drifted from a fresh one.

        On mixed-scale data the distances that moves between far clusters
        add and subtract swamp the sums inside clusters.  Returns whether
        the ledger was rebuilt.
        """
        part = self.partition
        dist = self.ledger.dist
        onehot = np.eye(part.k)[part.labels]
        within = 0.5 * (onehot * (dist @ onehot)).sum(axis=0)
        fresh = float(np.sort(within / part.sizes).sum())
        # a rebuild cannot mend NaN or inf; the final check reports them
        if not abs(self.within_value() - fresh) > 1e-9 * abs(fresh):
            return False
        self.ledger = ClusterSumLedger(part, dist)
        return True

    def finish(self):
        part = self.partition
        if self.full is None:
            return part, self.within_value()
        labels = part.labels
        if self.held is not None:
            labels = np.insert(labels, self.held, -1)
            row = self.full.dist[self.held]
            cross = [float(row[labels == j].sum()) for j in range(part.k)]
            labels[self.held] = _relocation_costs(
                cross, self.ledger.within.tolist(), part.sizes.tolist(), 0.0, 1, -1
            )[2]
        final = Partition(labels, part.k)
        return final, ClusterSumLedger(final, self.full).within_dispersion(final)


def _sweep(state, max_passes, trace):
    """Cycle items until one full round of consecutive visits moves nothing."""
    n_items = len(state.ids)
    passes = moves = still = 0
    while passes < max_passes and still < n_items:
        for t in range(n_items):
            mv = state.visit(t)
            if mv is None:
                still += 1
                if still >= n_items:
                    break
            else:
                moves += 1
                still = 0
                if trace is not None:
                    trace.append((state.ids[t], mv[0], mv[1], state.within_value()))
        passes += 1
        # a drifted ledger is rebuilt, then swept again while passes are left
        if (still >= n_items or passes == max_passes) and state.reanchor():
            still = 0
    return passes, moves


# ---------------------------------------------------------------------------
# Pairing for second variation


def min_distance_pairs(dist) -> list:
    """Pair every point with its nearest available neighbor.

    Points are scanned in index order; each not-yet-paired point takes the
    closest point that is still unpaired (ties by lowest index).  Requires an
    even point count.  Deterministic, O(n^2), and invariant to any strictly
    increasing transform of the distances (so the exponent alpha does not
    change the matching).
    """
    dist = np.asarray(dist)
    n = dist.shape[0]
    if n % 2:
        raise InputError("pairing needs an even number of points")
    used = np.zeros(n, dtype=bool)
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


def _pair_items(dist) -> list:
    # sweep items of second variation: closest pairs with half their distance
    return [((a, b), float(dist[a, b]) / 2.0) for a, b in min_distance_pairs(dist)]


def _pair_state(cache, k, rng, even_items) -> _LedgerState:
    """Second-variation start: with an odd n one random point sits out and
    the rest are paired afresh; pairs get random nonempty cluster labels."""
    n = cache.n
    held = int(rng.integers(n)) if n % 2 else None
    if held is None:
        active, sub, items = np.arange(n), cache.dist, even_items
    else:
        active = np.delete(np.arange(n), held)
        sub = cache.dist[np.ix_(active, active)]
        items = _pair_items(sub)
    labels = np.empty(active.shape[0], dtype=np.intp)
    for ((a, b), _), lab in zip(items, _surjective_labels(len(items), k, rng)):
        labels[a] = labels[b] = lab
    ids = [(int(active[a]), int(active[b])) for (a, b), _ in items]
    return _LedgerState(sub, Partition(labels, k), items, ids, full=cache, held=held)


def fit(data, cfg: FitConfig, *, init_labels=None, collect_trace=False) -> FitResult:
    """Fit k-groups in the mode named by cfg.mode.

    Runs cfg.restarts independent sweeps from random nonempty partitions and
    returns the lowest-objective result (ties keep the earliest restart).
    When `init_labels` is given, the first restart starts from that
    partition instead of a random one (not in second variation, whose
    restarts start from random pairs).  The winner's objective must match a
    from-scratch recomputation by disco to 1e-9 relative, NaN included.

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
    cache = DistanceCache(x, cfg.alpha)
    even_items = _pair_items(cache.dist) if pairs and n % 2 == 0 else None
    points = [((i,), 0.0) for i in range(n)]

    results = []
    for r in range(cfg.restarts):
        rng = _restart_rng(cfg.rng_seed, r)
        if pairs:
            state = _pair_state(cache, cfg.k, rng, even_items)
        else:
            part = start if r == 0 and start is not None else random_partition(n, cfg.k, rng)
            state = _LedgerState(cache, part, points, range(n))
        trace = [] if collect_trace else None
        passes, moves = _sweep(state, cfg.max_passes, trace)
        part, w = state.finish()
        results.append((w, part, passes, moves, trace))
    w, part, passes, moves, trace = min(results, key=lambda res: res[0])

    fresh = disco(part, cache).within
    if not abs(w - fresh) <= 1e-9 * abs(fresh):
        raise NumericInvariantError(
            f"{cfg.mode} objective {w!r} disagrees with recomputation {fresh!r}"
        )
    per_restart = [res[0] for res in results]
    return FitResult(part, w, passes, moves, cfg.rng_seed, per_restart, trace)
