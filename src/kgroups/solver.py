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
  the search escape some single-point local minima.  With an odd n each
  restart holds one random point out of its pairing; the point waits in a
  cluster of its own on the same cache and ledger, which the sweep never
  reads or targets, and is inserted by the single-point rule at the end.
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
of an array costs 100-250 ns, a list item about 20 ns (numpy 2.4).  So a
visit reads Python mirrors of the state (`_LedgerState`): the labels, the
cluster sizes and pair sums and the clusters' kernel factors as lists, and
its item's distance sums through a list of the ledger's row views, with
one `tolist`.  The numpy partition and ledger stay the state that the
screen, the re-anchor check, `finish` and the trace read, and `move_point`
stays their only update; the mirrors are made afresh with every ledger and
kept equal through every move.  In traced benchmark runs this took the
sweep's own time per fit from a median of 0.59 to 0.43 s at n = 2001,
k = 6, R = 5, and from 0.099 to 0.076 s at n = 358, k = 6, R = 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .energy import DistanceCache, as_data_matrix, disco, validate_alpha
from .errors import InputError, NumericInvariantError, RejectedMoveError, check_fields
from .partition import (
    ClusterSumLedger,
    Partition,
    _dispersion,
    _surjective_labels,
    move_point,
    random_partition,
)

__all__ = [
    "FIT_MODES",
    "fit_mode",
    "FitConfig",
    "FitResult",
    "mth_variation_delta",
    "min_distance_pairs",
    "fit",
]


class FitMode(NamedTuple):
    """One fit mode under the name each layer knows it by."""

    mode: str  # FitConfig.mode
    algorithm: str  # harness, dermatology and `kgroups fit --mode` name
    alpha2: bool  # the exponent is fixed at 2

    def config(self, **settings) -> FitConfig:
        """A FitConfig for this mode; `alpha` is set to 2 when fixed there."""
        if self.alpha2:
            settings["alpha"] = 2.0
        return FitConfig(mode=self.mode, **settings)


FIT_MODES = (
    FitMode("first_variation", "kgroups_first", False),
    FitMode("second_variation", "kgroups_second", False),
    FitMode("kmeans_alpha2", "kmeans", True),
)


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
        check_fields(vars(self), ("alpha",), k=1, restarts=1, max_passes=1, rng_seed=0)
        validate_alpha(self.alpha)
        if fit_mode(mode=self.mode).alpha2 and self.alpha != 2.0:
            raise InputError(f"{self.mode} requires alpha=2")


@dataclass
class FitResult:
    """Outcome of a fit: best partition over restarts plus run metadata.

    `within` is the final objective of the winning restart and must agree
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
    removing S from `frm`, the lowest cost of adding S to another cluster
    and that cluster (ties keep the lowest id).  `cross` and `coefs` are
    Python lists, like everything else a sweep visit reads (`_LedgerState`):
    a list item costs about 20 ns to index, a numpy scalar 100-250 ns.
    """
    removal = best = math.inf
    best_j = -1
    for j, (mn, wterm, remove_w, insert_w) in enumerate(coefs):
        xi = 2.0 * cross[j] / mn - spread - wterm
        if j == frm:
            removal = remove_w * xi
        else:
            cost = insert_w * xi
            if cost < best:
                best = cost
                best_j = j
    return removal, best, best_j


def mth_variation_delta(partition, ledger, points, to) -> float:
    """Exact objective change from moving a set of m points together.

    Positive means the move lowers the within-cluster dispersion.  Raises
    RejectedMoveError when the move would empty the source cluster.
    """
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
    to = int(to)
    if to == frm:
        raise InputError("target cluster equals the source cluster")
    if not 0 <= to < partition.k:
        raise InputError(f"cluster id {to} outside 0..{partition.k - 1}")
    m = pts.size
    both = [frm, to]
    cross = [float(ledger.sums[pts, j].sum()) for j in both]
    spread = float(ledger.dist[np.ix_(pts, pts)].sum()) / (m * m)
    coefs = [_cluster_coef(int(partition.sizes[j]), float(ledger.within[j]), m) for j in both]
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
    """A sweep's items: (points, spread) tuples for `visit`, the ids its
    trace records and, for `screen`, the (items, m) points and the spreads
    as arrays.  Built once per item list, not once per restart."""

    items: list
    ids: list
    points: np.ndarray
    spreads: np.ndarray


def _sweep_items(items, ids) -> _Items:
    points = np.array([pts for pts, _ in items], dtype=np.intp)
    return _Items(items, ids, points, np.array([spread for _, spread in items]))


def _point_items(n) -> _Items:
    # single points, traced by their index
    return _sweep_items([((i,), 0.0) for i in range(n)], range(n))


class _LedgerState:
    """Ledger-backed sweep over items of m = 1 points or m = 2 points.

    Each item is (points, spread), spread being the mean distance inside the
    points over their m*m ordered pairs; single points are the items
    ((0,), 0.0), ((1,), 0.0), ... in index order.  `items` also carries
    them as arrays (`_Items`).  The partition and the ledger cover all n
    points of the cache.  With pairs on an odd n, one point `held` is in
    no pair: it sits alone in an extra cluster k, which the sweep never
    reads or targets (`coefs` and the objective cover clusters 0..k-1
    only).  `finish` inserts the held point into the cluster where it costs
    least, and with pairs rebuilds the ledger for the final objective.

    The partition and the ledger are the state; `screen`, `reanchor`,
    `finish` and the trace read them.  The sweep's visits read Python
    mirrors of them instead: `labels`, `sizes` and `within` copy the
    partition's labels and sizes and the ledger's pair sums, `rows` holds
    the ledger's row views sums[i] and `coefs` each cluster's
    `_cluster_coef` factors.  `bind` makes them all afresh with each
    ledger; `move` keeps them equal to the state through every move.
    """

    def __init__(self, cache, partition, items: _Items, held=None):
        self.partition = partition
        self.items, self.ids, self.points, self.spreads = items
        self.m = items.points.shape[1]
        self.pairs = self.m == 2
        self.held = held
        self.k = partition.k - (held is not None)
        self.bind(ClusterSumLedger(partition, cache))

    def bind(self, ledger):
        part = self.partition
        self.ledger = ledger
        self.labels = part.labels.tolist()
        self.sizes = part.sizes.tolist()
        self.within = ledger.within.tolist()
        self.rows = list(ledger.sums)
        self.coefs = [_cluster_coef(self.sizes[j], self.within[j], self.m) for j in range(self.k)]

    def move(self, pts, frm, to):
        """Move an item's points from cluster frm to cluster to."""
        for i in pts:
            move_point(self.partition, self.ledger, i, to)
            self.labels[i] = to
        m, sizes = self.m, self.sizes
        sizes[frm] -= m
        sizes[to] += m
        within = self.within = self.ledger.within.tolist()
        for j in (frm, to):
            self.coefs[j] = _cluster_coef(sizes[j], within[j], m)

    def screen(self, t):
        """The first item at or after t that a visit moves, else the item count.

        The numpy twin of the sweep's visit over blocks of items: the same
        operations in the same order, so the costs are bit-equal to the
        visit's.  An item is kept when its removal cost exceeds its lowest
        insertion cost, the visit's own rule; fmin skips a NaN cost as the
        visit's `cost < best` does.  An item whose cluster has n_j <= m gets
        a NaN removal weight, and never moves.
        """
        n_items = len(self.items)
        mn, wterm, remove_w, insert_w = np.array(self.coefs, dtype=float).T[..., None]
        sums = self.ledger.sums.T[: self.k]  # (k, n), C-ordered; no held cluster
        block = _SCREEN_BLOCK
        while t < n_items:
            end = min(t + block, n_items)
            pts = self.points[t:end]
            cross = sums[:, pts[:, 0]]
            if self.pairs:
                cross = cross + sums[:, pts[:, 1]]
            xi = 2.0 * cross / mn - self.spreads[t:end] - wterm
            frm = self.partition.labels[pts[:, 0]]
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
        return _dispersion(self.ledger.within[: self.k], self.partition.sizes[: self.k])

    def reanchor(self) -> bool:
        """Rebuild a ledger whose objective drifted from a fresh one.

        On mixed-scale data the distances that moves between far clusters
        add and subtract swamp the sums inside clusters.  Returns whether
        the ledger was rebuilt.
        """
        part = self.partition
        dist = self.ledger.dist
        onehot = np.eye(part.k, self.k)[part.labels]
        within = 0.5 * (onehot * (dist @ onehot)).sum(axis=0)
        fresh = _dispersion(within, part.sizes[: self.k])
        # a rebuild cannot mend NaN or inf; the final check reports them
        if not abs(self.within_value() - fresh) > 1e-9 * abs(fresh):
            return False
        self.bind(ClusterSumLedger(part, dist))
        return True

    def finish(self):
        part = self.partition
        if not self.pairs:
            return part, self.within_value()
        dist = self.ledger.dist
        labels = part.labels.copy()
        if self.held is not None:
            # summed afresh: the ledger's row of the held point adds in another order
            row = dist[self.held]
            cross = [float(row[labels == j].sum()) for j in range(self.k)]
            coefs = [_cluster_coef(self.sizes[j], self.within[j], 1) for j in range(self.k)]
            labels[self.held] = _relocation_costs(cross, coefs, 0.0, -1)[2]
        final = Partition(labels, self.k)
        return final, ClusterSumLedger(final, dist).within_dispersion(final)


def _sweep(state, max_passes, trace):
    """Cycle items until one full round of consecutive visits moves nothing.

    A visit reads the state's Python mirrors: the item's cluster, its
    summed distances to every cluster (one ledger row, or the sum of two)
    and the clusters' factors, and moves the item when `_relocation_costs`
    puts its removal cost above its best insertion cost.  Once
    _SCREEN_AFTER visits in a row have moved nothing, `state.screen` jumps
    to the next item that moves; the items it skips count as visits that
    moved nothing, so the sweep ends in the pass where visiting them would
    end it.
    """
    items, pairs = state.items, state.pairs
    n_items = len(items)
    passes = moves = still = 0
    while passes < max_passes and still < n_items:
        # bound per pass: a re-anchor binds new mirrors
        labels, rows, coefs = state.labels, state.rows, state.coefs
        t = 0
        while t < n_items:
            if still >= _SCREEN_AFTER:
                ahead = state.screen(t)
                still += ahead - t
                t = ahead
                if still >= n_items or t == n_items:
                    break
            pts, spread = items[t]
            a = pts[0]
            frm = labels[a]
            if coefs[frm][2] is not None:
                cross = (rows[a] + rows[pts[1]]).tolist() if pairs else rows[a].tolist()
                removal, best, to = _relocation_costs(cross, coefs, spread, frm)
                if removal > best:
                    state.move(pts, frm, to)
                    moves += 1
                    still = 0
                    if trace is not None:
                        trace.append((state.ids[t], frm, to, state.within_value()))
                    t += 1
                    continue
            still += 1
            if still >= n_items:
                break
            t += 1
        passes += 1
        # a drifted ledger is rebuilt, then swept again while passes are left
        if (still >= n_items or passes == max_passes) and state.reanchor():
            still = 0
    return passes, moves


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
    matching).
    """
    dist = np.asarray(dist)
    n = dist.shape[0]
    used = np.zeros(n, dtype=bool)
    if held is not None:
        if not 0 <= held < n:
            raise InputError(f"held-out point {held} outside 0..{n - 1}")
        used[held] = True
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


def _pair_items(dist, held=None) -> _Items:
    # sweep items of second variation: closest pairs with half their distance
    items = [((a, b), float(dist[a, b]) / 2.0) for a, b in min_distance_pairs(dist, held)]
    return _sweep_items(items, [pts for pts, _ in items])


def _pair_state(cache, k, rng, even_items) -> _LedgerState:
    """Second-variation start: with an odd n one random point sits out in
    cluster k and the rest are paired afresh; pairs get random nonempty
    cluster labels."""
    n = cache.n
    held = int(rng.integers(n)) if n % 2 else None
    items = even_items if held is None else _pair_items(cache.dist, held)
    labels = np.full(n, k, dtype=np.intp)
    for (a, b), lab in zip(items.ids, _surjective_labels(len(items.ids), k, rng)):
        labels[a] = labels[b] = lab
    part = Partition(labels, k + (held is not None))
    return _LedgerState(cache, part, items, held)


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
    points = None if pairs else _point_items(n)

    results = []
    for r in range(cfg.restarts):
        rng = _restart_rng(cfg.rng_seed, r)
        if pairs:
            state = _pair_state(cache, cfg.k, rng, even_items)
        else:
            part = start if r == 0 and start is not None else random_partition(n, cfg.k, rng)
            state = _LedgerState(cache, part, points)
        trace = [] if collect_trace else None
        passes, moves = _sweep(state, cfg.max_passes, trace)
        part, w = state.finish()
        results.append((w, part, passes, moves, trace))
        # else its ledger and row views outlive it into the next start and disco
        del state
    w, part, passes, moves, trace = min(results, key=lambda res: res[0])

    fresh = disco(part, cache).within
    if not abs(w - fresh) <= 1e-9 * abs(fresh):
        raise NumericInvariantError(
            f"{cfg.mode} objective {w!r} disagrees with recomputation {fresh!r}"
        )
    per_restart = [res[0] for res in results]
    return FitResult(part, w, passes, moves, cfg.rng_seed, per_restart, trace)
