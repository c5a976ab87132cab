import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgroups
import kgroups.energy as kenergy
import kgroups.partition as kpartition
import kgroups.solver as solver
from kgroups import (
    ClusterSumLedger,
    ContingencyTable,
    DistanceCache,
    FitConfig,
    InputError,
    NumericInvariantError,
    Partition,
    RejectedMoveError,
    adjusted_rand,
    disco,
    energy_statistic,
    fit,
    min_distance_pairs,
    move_point,
    mth_variation_delta,
)

from conftest import (
    brute_within,
    first_variation_reference,
    hartigan_wong_transfers,
    leaked_descriptors,
    odd_second_variation_reference,
    open_descriptors,
    random_instance,
)

ALPHAS = (0.5, 1.0, 1.5, 2.0)


def _ledger_for(x, labels, k, alpha):
    cache = DistanceCache(x, alpha)
    p = Partition(labels, k)
    return cache, p, ClusterSumLedger(p, cache)


def _movable_point(rng, p):
    movable = np.flatnonzero(p.sizes[p.labels] >= 2)
    return int(rng.choice(movable))


class TestFirstVariationDelta:
    def test_bad_move_has_negative_delta(self):
        # moving the middle point of a tight pair into the far cluster
        x = np.array([[0.0], [0.1], [10.0]])
        cache, p, ledger = _ledger_for(x, [0, 0, 1], 2, 1.0)
        assert mth_variation_delta(p, ledger, [1], 1) < 0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_scratch_recomputation(self, alpha):
        rng = np.random.default_rng(17)
        for _ in range(25):
            x, labels, k = random_instance(rng)
            cache, p, ledger = _ledger_for(x, labels, k, alpha)
            i = _movable_point(rng, p)
            to = int((p.labels[i] + 1) % k)
            delta = mth_variation_delta(p, ledger, [i], to)
            before = brute_within(x, labels, alpha)
            moved = labels.copy()
            moved[i] = to
            after = brute_within(x, moved, alpha)
            assert delta == pytest.approx(before - after, rel=1e-9, abs=1e-9)

    def test_alpha2_matches_centroid_transfer_criterion(self):
        # n1*D(i,own)^2/(n1-1) - n2*D(i,other)^2/(n2+1), centroids from raw means
        rng = np.random.default_rng(23)
        for _ in range(40):
            x, labels, k = random_instance(rng)
            cache, p, ledger = _ledger_for(x, labels, k, 2.0)
            i = _movable_point(rng, p)
            frm = int(p.labels[i])
            to = int((frm + 1) % k)
            n1 = int(p.sizes[frm])
            n2 = int(p.sizes[to])
            c1 = x[p.cluster_indices(frm)].mean(axis=0)
            c2 = x[p.cluster_indices(to)].mean(axis=0)
            oracle = n1 * float(((x[i] - c1) ** 2).sum()) / (n1 - 1) - n2 * float(
                ((x[i] - c2) ** 2).sum()
            ) / (n2 + 1)
            delta = mth_variation_delta(p, ledger, [i], to)
            assert delta == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_singleton_source_rejected(self):
        x = np.array([[0.0], [1.0], [9.0]])
        cache, p, ledger = _ledger_for(x, [0, 0, 1], 2, 1.0)
        with pytest.raises(RejectedMoveError):
            mth_variation_delta(p, ledger, [2], 0)


class TestMthVariationDelta:
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_scratch_recomputation(self, m):
        rng = np.random.default_rng(37 + m)
        done = 0
        while done < 25:
            x, labels, k = random_instance(rng, n_lo=12)
            alpha = float(rng.choice(ALPHAS))
            cache, p, ledger = _ledger_for(x, labels, k, alpha)
            frm = int(np.argmax(p.sizes))
            members = p.cluster_indices(frm)
            if members.size < m + 1:
                continue
            pts = rng.choice(members, size=m, replace=False)
            to = int((frm + 1) % k)
            delta = mth_variation_delta(p, ledger, pts, to)
            moved = labels.copy()
            moved[pts] = to
            oracle = brute_within(x, labels, alpha) - brute_within(x, moved, alpha)
            assert delta == pytest.approx(oracle, rel=1e-9, abs=1e-9)
            done += 1

    def test_move_and_return_deltas_cancel(self, rng):
        x, labels, k = random_instance(rng, n_lo=14)
        cache, p, ledger = _ledger_for(x, labels, k, 1.0)
        frm = int(np.argmax(p.sizes))
        pts = p.cluster_indices(frm)[:2]
        to = int((frm + 1) % k)
        d_out = mth_variation_delta(p, ledger, pts, to)
        for i in pts:
            move_point(p, ledger, i, to)
        d_back = mth_variation_delta(p, ledger, pts, frm)
        for i in pts:
            move_point(p, ledger, i, frm)
        assert d_out + d_back == pytest.approx(0.0, abs=1e-10)

    def test_emptying_source_rejected(self):
        x = np.array([[0.0], [1.0], [5.0], [6.0]])
        cache, p, ledger = _ledger_for(x, [0, 0, 1, 1], 2, 1.0)
        with pytest.raises(RejectedMoveError):
            mth_variation_delta(p, ledger, [0, 1], 1)

    def test_mixed_source_clusters_rejected(self):
        x = np.array([[0.0], [1.0], [5.0], [6.0]])
        cache, p, ledger = _ledger_for(x, [0, 0, 1, 1], 2, 1.0)
        with pytest.raises(InputError):
            mth_variation_delta(p, ledger, [0, 2], 1)

    @pytest.mark.parametrize("points, to", [
        ([2.7], 1), ([2.0], 1), ([True], 1), ([0, 1.0], 1), ([2], 1.9), ([2], True),
        ([2], 2), ([2], -1), ([-1], 1), ([6], 1),
    ])
    def test_ill_typed_or_out_of_range_ids_rejected(self, points, to):
        # scored as given or not at all: no truncation of 2.7 to 2 or True to 1
        x = np.arange(6.0)
        cache, p, ledger = _ledger_for(x, [0, 0, 0, 1, 1, 1], 2, 1.0)
        with pytest.raises(InputError):
            mth_variation_delta(p, ledger, points, to)


class TestPairing:
    def test_covers_all_points_once(self, rng):
        x = rng.standard_normal((20, 2))
        cache = DistanceCache(x, 1.0)
        pairs = min_distance_pairs(cache.dist)
        flat = [i for pair in pairs for i in pair]
        assert sorted(flat) == list(range(20))

    def test_first_point_gets_nearest_neighbor(self):
        x = np.array([[0.0], [10.0], [0.4], [10.3]])
        cache = DistanceCache(x, 1.0)
        pairs = min_distance_pairs(cache.dist)
        assert pairs == [(0, 2), (1, 3)]

    def test_odd_count_rejected(self):
        cache = DistanceCache(np.arange(5.0), 1.0)
        with pytest.raises(InputError):
            min_distance_pairs(cache.dist)

    def test_alpha_invariant(self, rng):
        x = rng.standard_normal((16, 3))
        pairs_a = min_distance_pairs(DistanceCache(x, 0.5).dist)
        pairs_b = min_distance_pairs(DistanceCache(x, 2.0).dist)
        assert pairs_a == pairs_b

    def test_held_out_point_needs_an_odd_count(self):
        with pytest.raises(InputError):
            min_distance_pairs(DistanceCache(np.arange(6.0), 1.0).dist, held=2)
        with pytest.raises(InputError):
            min_distance_pairs(DistanceCache(np.arange(5.0), 1.0).dist, held=5)

    @pytest.mark.parametrize("dist, held", [
        (np.zeros((5, 5)), True),  # not read as point 1, nor as a mask of every point
        (np.zeros((5, 5)), 1.5),
        (np.zeros((4, 6)), None),
        (np.arange(4.0), None),
    ])
    def test_ill_formed_inputs_raise_input_error(self, dist, held):
        with pytest.raises(InputError):
            min_distance_pairs(dist, held)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_held_out_pairing_equals_submatrix_pairing(self, seed):
        # half-integer values tie many distances, so the lowest-index rule
        # must survive the shift from submatrix to full indices
        gen = np.random.default_rng(seed)
        n = 2 * int(gen.integers(0, 30)) + 1
        x = np.round(gen.standard_normal((n, int(gen.integers(1, 4)))) * 2) / 2
        dist = DistanceCache(x, float(gen.choice([0.5, 1.0, 2.0]))).dist
        held = int(gen.integers(n))
        active = np.delete(np.arange(n), held)
        on_sub = min_distance_pairs(dist[np.ix_(active, active)])
        assert min_distance_pairs(dist, held) == [(int(active[a]), int(active[b])) for a, b in on_sub]

    def test_all_infinite_rows_still_pair_each_point_once(self):
        dist = np.full((6, 6), np.inf)
        np.fill_diagonal(dist, 0.0)
        pairs = min_distance_pairs(dist)
        assert sorted(i for pair in pairs for i in pair) == list(range(6))


def _sweep_cases():
    # small normal clusters, half-integer ties, and two sites 1e8 apart
    # whose moves make the ledger drift until a re-anchor rebuilds it
    g = np.random.default_rng(11)
    yield "normal", g.standard_normal((41, 2)) + 3.0 * g.integers(0, 3, (41, 1)), 3
    yield "half_integer", np.round(g.standard_normal((48, 1)) * 2) / 2, 4
    yield "mixed_scale", g.standard_normal((61, 2)) * 1e-8 + 1e8 * (np.arange(61) % 2)[:, None], 5


SWEEP_CASES = list(_sweep_cases())


class TestFitFirstVariation:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("name, x, k", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
    def test_matches_the_plain_sweep_reference(self, name, x, k, alpha):
        # every point visited in order on the numpy partition and ledger
        rebuilds = 0
        for seed in range(3):
            cfg = FitConfig(k=k, alpha=alpha, restarts=3, rng_seed=seed)
            got = fit(x, cfg, collect_trace=True)
            ref = first_variation_reference(x, k, alpha, 3, seed)
            assert np.array_equal(got.partition.labels, ref["labels"])
            assert got.within == ref["within"]
            assert got.per_restart_within == ref["per_restart_within"]
            assert (got.passes, got.moves) == (ref["passes"], ref["moves"])
            assert got.trace == ref["trace"]
            rebuilds += ref["rebuilds"]
        assert (rebuilds > 0) == (name == "mixed_scale")

    def test_recovers_separated_clusters(self):
        x = np.array([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])
        truth = np.array([0, 0, 0, 1, 1, 1])
        for seed in range(5):
            cfg = FitConfig(k=2, alpha=1.0, restarts=3, rng_seed=seed)
            result = fit(x, cfg)
            assert adjusted_rand(ContingencyTable.from_labels(truth, result.partition.labels)) == 1.0

    def test_objective_never_increases_along_trace(self, rng):
        x, _, _ = random_instance(rng, n_lo=30, n_hi=60)
        cfg = FitConfig(k=3, alpha=1.0, restarts=2, rng_seed=5)
        result = fit(x, cfg, collect_trace=True)
        ws = [w for _, _, _, w in result.trace]
        for a, b in zip(ws, ws[1:]):
            assert b <= a * (1 + 1e-12) + 1e-12

    def test_within_matches_disco(self, rng):
        x, _, _ = random_instance(rng, n_lo=20, n_hi=50)
        for alpha in ALPHAS:
            cfg = FitConfig(k=3, alpha=alpha, restarts=2, rng_seed=2)
            result = fit(x, cfg)
            cache = DistanceCache(x, alpha)
            fresh = disco(result.partition, cache).within
            assert result.within == pytest.approx(fresh, rel=1e-9)

    def test_deterministic_reproduction(self, rng):
        x = rng.standard_normal((50, 2))
        cfg = FitConfig(k=3, alpha=1.0, restarts=4, rng_seed=11)
        r1 = fit(x, cfg)
        r2 = fit(x, cfg)
        assert np.array_equal(r1.partition.labels, r2.partition.labels)
        assert r1.within == r2.within
        assert r1.per_restart_within == r2.per_restart_within
        assert (r1.passes, r1.moves, r1.seed) == (r2.passes, r2.moves, r2.seed)

    def test_best_restart_selected(self, rng):
        x = rng.standard_normal((40, 2))
        cfg = FitConfig(k=4, alpha=1.0, restarts=6, rng_seed=3)
        result = fit(x, cfg)
        assert result.within == min(result.per_restart_within)

    def test_initial_relabeling_leaves_objective_trajectory_unchanged(self, rng):
        x = rng.standard_normal((40, 2))
        init = np.array([i % 3 for i in range(40)])
        perm = np.array([2, 0, 1])
        cfg = FitConfig(k=3, alpha=1.0, restarts=1, rng_seed=0)
        r1 = fit(x, cfg, init_labels=init, collect_trace=True)
        r2 = fit(x, cfg, init_labels=perm[init], collect_trace=True)
        ws1 = [w for _, _, _, w in r1.trace]
        ws2 = [w for _, _, _, w in r2.trace]
        assert ws1 == ws2
        assert r1.within == r2.within

    def test_terminates_within_max_passes(self, rng):
        for seed in range(10):
            x, _, _ = random_instance(rng, n_lo=20, n_hi=40)
            cfg = FitConfig(k=3, alpha=0.5, restarts=1, max_passes=50, rng_seed=seed)
            result = fit(x, cfg)
            assert result.passes <= cfg.max_passes

    def test_k_equals_n_returns_singletons_with_zero_moves(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        cfg = FitConfig(k=4, alpha=1.0, restarts=2, rng_seed=0)
        result = fit(x, cfg)
        assert result.moves == 0
        assert result.partition.sizes.tolist() == [1, 1, 1, 1]
        assert result.within == 0.0

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(InputError):
            fit(np.arange(3.0), FitConfig(k=4, alpha=1.0))


class TestFitSecondVariation:
    def test_recovers_pairable_blobs(self):
        x = np.array([0.0, 0.1, 0.2, 0.3, 10.0, 10.1, 10.2, 10.3])
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        for seed in range(5):
            cfg = FitConfig(k=2, alpha=1.0, restarts=3, rng_seed=seed, mode="second_variation")
            result = fit(x, cfg)
            assert adjusted_rand(ContingencyTable.from_labels(truth, result.partition.labels)) == 1.0

    def test_pair_scores_match_mth_variation_delta(self, rng):
        # the sweep's E1 - E2 equals the m=2 relocation gain
        for _ in range(20):
            x, labels, k = random_instance(rng, n_lo=14, n_hi=30)
            cache, p, ledger = _ledger_for(x, labels, k, 1.0)
            frm = int(np.argmax(p.sizes))
            members = p.cluster_indices(frm)
            if members.size < 4:
                continue
            pair = members[:2]
            n1 = int(p.sizes[frm])
            dab = float(cache.dist[pair[0], pair[1]])
            xi1 = (
                float(ledger.sums[pair[0], frm] + ledger.sums[pair[1], frm]) / n1
                - dab / 2.0
                - 2.0 * float(ledger.within[frm]) / (n1 * n1)
            )
            e1 = n1 / (n1 - 2.0) * xi1
            to = int((frm + 1) % k)
            n2 = int(p.sizes[to])
            xi2 = (
                float(ledger.sums[pair[0], to] + ledger.sums[pair[1], to]) / n2
                - dab / 2.0
                - 2.0 * float(ledger.within[to]) / (n2 * n2)
            )
            e2 = n2 / (n2 + 2.0) * xi2
            dm = mth_variation_delta(p, ledger, pair, to)
            assert e1 - e2 == pytest.approx(dm, rel=1e-10, abs=1e-10)

    def test_odd_count_inserts_held_out_point(self, rng):
        x = np.concatenate([rng.normal(0, 0.3, 9), rng.normal(12, 0.3, 10)])
        truth = np.array([0] * 9 + [1] * 10)
        cfg = FitConfig(k=2, alpha=1.0, restarts=4, rng_seed=1, mode="second_variation")
        result = fit(x, cfg)
        assert result.partition.n == 19
        assert adjusted_rand(ContingencyTable.from_labels(truth, result.partition.labels)) == 1.0

    def test_within_matches_disco(self, rng):
        x, _, _ = random_instance(rng, n_lo=21, n_hi=41)
        cfg = FitConfig(k=3, alpha=0.5, restarts=2, rng_seed=9, mode="second_variation")
        result = fit(x, cfg)
        cache = DistanceCache(x, 0.5)
        assert result.within == pytest.approx(disco(result.partition, cache).within, rel=1e-9)

    def test_odd_n_matches_submatrix_reference(self):
        # the held-out point shares the full cache and ledger; every result
        # must equal cutting it out of the matrix, k = 2..9 included
        for s in range(20):
            gen = np.random.default_rng(700 + s)
            k = 2 + s % 8
            n = 2 * int(gen.integers(k, 30)) + 1
            x = gen.standard_normal((n, int(gen.integers(1, 4)))) * 2
            if s % 3 == 0:
                x = np.round(x) / 2
            alpha = (0.5, 1.0, 2.0)[s % 3]
            cfg = FitConfig(k=k, alpha=alpha, restarts=3, rng_seed=s, mode="second_variation")
            got = fit(x, cfg, collect_trace=True)
            ref = odd_second_variation_reference(x, k, alpha, 3, s)
            assert np.array_equal(got.partition.labels, ref["labels"])
            assert got.within == ref["within"]
            assert got.per_restart_within == ref["per_restart_within"]
            assert (got.passes, got.moves) == (ref["passes"], ref["moves"])
            assert got.trace == ref["trace"]

    def test_odd_n_peak_memory_stays_near_the_cache(self):
        # the held-out point needs no (n-1) x (n-1) copy of the cache
        n = 801
        x = np.random.default_rng(5).standard_normal((n, 2))
        cfg = FitConfig(k=3, alpha=1.0, restarts=2, rng_seed=0, mode="second_variation")
        tracemalloc.start()
        try:
            fit(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8

    def test_too_few_pairs_rejected(self):
        with pytest.raises(InputError):
            fit(np.arange(5.0), FitConfig(k=3, alpha=1.0, mode="second_variation"))

    def test_deterministic_reproduction(self, rng):
        x = rng.standard_normal((30, 2))
        cfg = FitConfig(k=2, alpha=1.0, restarts=3, rng_seed=8, mode="second_variation")
        r1 = fit(x, cfg)
        r2 = fit(x, cfg)
        assert np.array_equal(r1.partition.labels, r2.partition.labels)
        assert r1.per_restart_within == r2.per_restart_within


class TestFitKmeansAlpha2:
    def test_point_versus_cluster_update_identity(self):
        # 1-D cluster {1,2,3} and outside point 0: the energy statistic is 8,
        # twice the squared distance 4 to the cluster mean 2
        cache = DistanceCache(np.array([0.0, 1.0, 2.0, 3.0]), 2.0)
        xi = energy_statistic([0], [1, 2, 3], cache)
        assert xi == pytest.approx(8.0, rel=1e-12)
        assert xi / 2.0 == pytest.approx(4.0, rel=1e-12)

    def test_member_point_update_identity(self, rng):
        # for points inside the cluster the same halving identity holds,
        # evaluated through the ledger sums
        x, labels, k = random_instance(rng)
        cache, p, ledger = _ledger_for(x, labels, k, 2.0)
        for i in range(p.n):
            j = int(p.labels[i])
            nj = int(p.sizes[j])
            xi = 2.0 * float(ledger.sums[i, j]) / nj - 2.0 * float(ledger.within[j]) / (nj * nj)
            c = x[p.cluster_indices(j)].mean(axis=0)
            assert xi / 2.0 == pytest.approx(float(((x[i] - c) ** 2).sum()), rel=1e-9, abs=1e-12)

    def test_same_move_trace_as_first_variation(self):
        rng = np.random.default_rng(3)
        for t in range(20):
            n = int(rng.integers(20, 60))
            p_dim = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            x = rng.standard_normal((n, p_dim)) * 2
            cfg_a = FitConfig(k=k, alpha=2.0, restarts=1, rng_seed=t, mode="first_variation")
            cfg_b = FitConfig(k=k, alpha=2.0, restarts=1, rng_seed=t, mode="kmeans_alpha2")
            ra = fit(x, cfg_a, collect_trace=True)
            rb = fit(x, cfg_b, collect_trace=True)
            assert [(i, f, to) for i, f, to, _ in ra.trace] == [
                (i, f, to) for i, f, to, _ in rb.trace
            ]
            assert np.array_equal(ra.partition.labels, rb.partition.labels)

    def test_objective_equals_alpha2_disco(self, rng):
        x = rng.standard_normal((40, 3))
        cfg = FitConfig(k=3, alpha=2.0, restarts=2, rng_seed=4, mode="kmeans_alpha2")
        result = fit(x, cfg)
        cache = DistanceCache(x, 2.0)
        assert result.within == pytest.approx(disco(result.partition, cache).within, rel=1e-9)

    def test_k1_reports_total_sum_of_squares(self, rng):
        x = rng.standard_normal((25, 2))
        cfg = FitConfig(k=1, alpha=2.0, restarts=1, rng_seed=0, mode="kmeans_alpha2")
        result = fit(x, cfg)
        assert result.moves == 0
        twss = float(((x - x.mean(axis=0)) ** 2).sum())
        assert result.within == pytest.approx(twss, rel=1e-12)

    def test_requires_alpha_two(self):
        with pytest.raises(InputError):
            FitConfig(k=2, alpha=1.0, mode="kmeans_alpha2")

    def test_kmeans_reproduces_hartigan_wong_transfers(self):
        # the instances of acceptance criterion 3(c), each from a random start
        for seed in range(20):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(20, 60))
            p = int(gen.integers(1, 4))
            k = int(gen.integers(2, 5))
            x = gen.standard_normal((n, p)) * 2
            labels = np.arange(n) % k
            gen.shuffle(labels)
            cfg = FitConfig(k=k, alpha=2.0, restarts=1, rng_seed=seed, mode="kmeans_alpha2")
            result = fit(x, cfg, init_labels=labels, collect_trace=True)
            moves, final = hartigan_wong_transfers(x, labels, k)
            assert [m[:3] for m in result.trace] == moves
            assert np.array_equal(result.partition.labels, final)


class TestDispatcher:
    def test_fit_routes_by_mode(self, rng):
        x = rng.standard_normal((20, 2))
        for mode in ("first_variation", "second_variation", "kmeans_alpha2"):
            alpha = 2.0 if mode == "kmeans_alpha2" else 1.0
            cfg = FitConfig(k=2, alpha=alpha, restarts=1, rng_seed=0, mode=mode)
            result = fit(x, cfg)
            assert result.partition.n == 20

    def test_config_validation(self):
        with pytest.raises(InputError):
            FitConfig(k=0, alpha=1.0)
        with pytest.raises(InputError):
            FitConfig(k=2, alpha=3.0)
        with pytest.raises(InputError):
            FitConfig(k=2, alpha=1.0, restarts=0)
        with pytest.raises(InputError):
            FitConfig(k=2, alpha=1.0, mode="lloyd")

    @pytest.mark.parametrize("name", ["lloyd", "first_variation", None, ["kmeans"]])
    def test_fit_config_takes_an_algorithm_name(self, name):
        assert solver.fit_config("kmeans", k=2, alpha=1.0) == FitConfig(k=2, alpha=2.0, mode="kmeans_alpha2")
        assert solver.fit_config("kgroups_second", k=2, alpha=0.5) == FitConfig(k=2, alpha=0.5, mode="second_variation")
        with pytest.raises(InputError, match="^algorithm must be one of"):
            solver.fit_config(name, k=2)


def _two_clusters(seed, n=200):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.standard_normal(n // 2), rng.standard_normal(n - n // 2) + 4.0])


class TestNumericInvariant:
    @pytest.mark.parametrize("mode", ["first_variation", "second_variation", "kmeans_alpha2"])
    def test_overflowing_scale_fails_loudly(self, mode, monkeypatch):
        # squared distances would overflow to inf: the cache refuses the data.
        # Past that check, inf - inf is NaN, which the objective check must
        # treat as a failure, not as agreement
        alpha = 2.0 if mode == "kmeans_alpha2" else 1.0
        cfg = FitConfig(k=2, alpha=alpha, restarts=2, rng_seed=0, mode=mode)
        x = _two_clusters(0, n=40) * 1e170
        with pytest.raises(InputError, match="data span too wide"):
            fit(x, cfg)
        monkeypatch.setattr(kenergy, "_check_range", lambda x, alpha: None)
        with pytest.raises(NumericInvariantError), np.errstate(all="ignore"):
            fit(x, cfg)

    @pytest.mark.parametrize("offset", [2e3, 5e3, 1e6])
    def test_kmeans_objective_survives_common_offset(self, offset):
        failures = 0
        for seed in range(20):
            x = _two_clusters(seed) + offset
            cfg = FitConfig(k=2, alpha=2.0, restarts=2, rng_seed=seed, mode="kmeans_alpha2")
            try:
                result = fit(x, cfg)
            except NumericInvariantError:
                failures += 1
                continue
            labels = result.partition.labels
            twss = sum(float(((x[labels == j] - x[labels == j].mean()) ** 2).sum()) for j in (0, 1))
            assert result.within == pytest.approx(twss, rel=1e-9)
        assert failures == 0

    @pytest.mark.parametrize("mode", ["first_variation", "second_variation", "kmeans_alpha2"])
    def test_underflowing_scale_fails_loudly(self, mode):
        # every distance underflows to 0.0, so no move gains and the random
        # start would pass the objective check
        alpha = 2.0 if mode == "kmeans_alpha2" else 1.0
        cfg = FitConfig(k=2, alpha=alpha, restarts=2, rng_seed=0, mode=mode)
        with pytest.raises(NumericInvariantError):
            fit(_two_clusters(0, n=40) * 1e-200, cfg)

    @pytest.mark.parametrize("mode", ["first_variation", "second_variation", "kmeans_alpha2"])
    def test_identical_points_fit_with_zero_objective(self, mode):
        alpha = 2.0 if mode == "kmeans_alpha2" else 1.0
        cfg = FitConfig(k=2, alpha=alpha, restarts=2, rng_seed=0, mode=mode)
        assert fit(np.full((20, 2), 3.0), cfg).within == 0.0


class TestFitDriver:
    def test_second_variation_rejects_init_labels(self, rng):
        x = rng.standard_normal((20, 2))
        cfg = FitConfig(k=2, alpha=1.0, restarts=1, mode="second_variation")
        with pytest.raises(InputError):
            fit(x, cfg, init_labels=np.arange(20) % 2)

    @pytest.mark.parametrize("k", range(24, 30))
    def test_k_close_to_n_finishes(self, k):
        # uniform random starts by plain rejection would take over 1e6 draws
        x = np.random.default_rng(0).standard_normal((30, 1))
        result = fit(x, FitConfig(k=k, restarts=1))
        assert result.partition.sizes.min() >= 1

    @pytest.mark.parametrize("data", [np.ones(4) * 1j, ["a", "b"], [[1, 2], [3]]])
    def test_complex_non_numeric_or_ragged_data_rejected(self, data):
        with pytest.raises(InputError):
            fit(data, FitConfig(k=1))

    def test_second_variation_with_k_close_to_the_pair_count_finishes(self):
        # 30 pairs and a held-out point in 29 nonempty clusters
        x = np.random.default_rng(1).standard_normal((61, 2))
        result = fit(x, FitConfig(k=29, restarts=2, mode="second_variation"))
        assert result.partition.k == 29
        assert result.partition.sizes.min() >= 1


def _far_pair(n, sep, spread, seed=0):
    rng = np.random.default_rng(seed)
    truth = np.arange(n) >= n // 2
    return rng.standard_normal(n) * spread + sep * truth, truth


class TestMixedScale:
    @pytest.mark.parametrize("n", [200, 201])
    @pytest.mark.parametrize(
        "mode, alpha",
        [
            ("first_variation", 1.0),
            ("first_variation", 2.0),
            ("second_variation", 1.0),
            ("second_variation", 2.0),
            ("kmeans_alpha2", 2.0),
        ],
    )
    def test_far_tight_clusters_fit(self, n, mode, alpha):
        # clusters 1e8 apart with spread 1e-8: moves between them swamp the
        # maintained within-cluster sums, which the re-anchored ledger repairs
        x, truth = _far_pair(n, 1e8, 1e-8)
        result = fit(x, FitConfig(k=2, alpha=alpha, restarts=3, rng_seed=0, mode=mode))
        labels = result.partition.labels
        assert np.array_equal(labels == labels[0], truth == truth[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_rebuilt_ledgers_match_the_submatrix_reference(self, seed):
        # two sites 1e8 apart shared by 4-9 clusters: sweeps rebuild drifted
        # ledgers and then move again, which must use the rebuilt sums
        g = np.random.default_rng(seed)
        n, k, p = 2 * int(g.integers(20, 80)) + 1, int(g.integers(4, 10)), int(g.integers(1, 4))
        x = g.standard_normal((n, p)) * 1e-8 + 1e8 * (np.arange(n) % 2)[:, None]
        for alpha in (1.0, 2.0):
            cfg = FitConfig(k=k, alpha=alpha, restarts=3, rng_seed=seed, mode="second_variation")
            got = fit(x, cfg, collect_trace=True)
            ref = odd_second_variation_reference(x, k, alpha, 3, seed)
            assert np.array_equal(got.partition.labels, ref["labels"])
            assert got.per_restart_within == ref["per_restart_within"]
            assert (got.passes, got.moves, got.trace) == (ref["passes"], ref["moves"], ref["trace"])

    @pytest.mark.parametrize("mode", ["first_variation", "second_variation", "kmeans_alpha2"])
    def test_objective_below_one_is_exact(self, mode):
        # clusters 100 apart with spread 1e-6: the objective is ~2e-10, far
        # below 1, yet must still be exact
        x, _ = _far_pair(200, 1e2, 1e-6)
        result = fit(x, FitConfig(k=2, alpha=2.0, restarts=2, rng_seed=0, mode=mode))
        assert result.within == pytest.approx(brute_within(x, result.partition.labels, 2.0), rel=1e-9)

    @pytest.mark.parametrize("ratio", [1e6, 1e8, 1e12])
    def test_kmeans_separation_to_spread_range(self, ratio):
        for seed in range(3):
            x, truth = _far_pair(200, ratio, 1.0, seed)
            cfg = FitConfig(k=2, alpha=2.0, restarts=2, rng_seed=seed, mode="kmeans_alpha2")
            labels = fit(x, cfg).partition.labels
            assert np.array_equal(labels == labels[0], truth == truth[0])

    @pytest.mark.parametrize("mode", ["first_variation", "kmeans_alpha2"])
    def test_final_check_catches_drift_below_one(self, mode, monkeypatch):
        # with the re-anchor disabled the maintained objective of ~2e-10 is
        # wrong by more than itself; the final check must see that below 1
        monkeypatch.setattr(solver._LedgerState, "reanchor", lambda self: False)
        for seed in range(3):
            x, _ = _far_pair(200, 1e2, 1e-6, seed)
            cfg = FitConfig(k=2, alpha=2.0, restarts=2, rng_seed=seed, mode=mode)
            with pytest.raises(NumericInvariantError):
                fit(x, cfg)


# Fits the data saved at argv[1] and prints their labels, objectives and traces
# and the count of re-anchor rebuilds, as JSON: floats print exactly.
_BLAS_THREADS_SCRIPT = """
import json, sys
import numpy as np
import kgroups.solver as solver
from kgroups import FitConfig, fit

rebuilds = []
reanchor = solver._LedgerState.reanchor

def counted(state):
    rebuilds.append(reanchor(state))
    return rebuilds[-1]

solver._LedgerState.reanchor = counted
x = np.load(sys.argv[1])
fits = []
for alpha in (0.5, 1.0, 1.5):
    for seed in range(3):
        r = fit(x, FitConfig(k=5, alpha=alpha, restarts=3, rng_seed=seed), collect_trace=True)
        fits.append([r.partition.labels.tolist(), r.within, r.per_restart_within, r.trace])
print(json.dumps({"fits": fits, "rebuilds": sum(rebuilds)}))
"""


class TestBlasThreads:
    def test_fits_agree_under_one_and_two_threads(self, tmp_path):
        # the mixed_scale sweep case rebuilds drifted ledgers: a rebuild
        # decided by a threaded BLAS sum could differ between the two runs
        x = next(x for name, x, _ in SWEEP_CASES if name == "mixed_scale")
        np.save(tmp_path / "x.npy", x)
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_SCRIPT, str(tmp_path / "x.npy")],
                                  env=env, capture_output=True, text=True, check=True, timeout=120)
            runs.append(json.loads(proc.stdout))
        assert runs[0]["rebuilds"] > 0
        assert runs[0] == runs[1]


class TestPublicSurface:
    def test_exported_names_resolve(self):
        for module in (kgroups, solver):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_mode_named_entry_points_are_gone(self):
        for name in ("fit_first_variation", "fit_second_variation", "fit_kmeans_alpha2",
                     "first_variation_delta"):
            assert not hasattr(kgroups, name)
        assert not hasattr(solver, "MODES")

    def test_second_copies_are_gone(self):
        import inspect

        import kgroups.datagen as datagen
        import kgroups.harness as harness
        import kgroups.partition as partition
        from kgroups.dermatology import run_dermatology

        gone = ((kgroups, "contingency"), (partition, "contingency"),
                (kgroups, "cauchy_sample"), (datagen, "cauchy_sample"),
                (harness, "table_from_csv"), (harness, "records_from_csv"),
                (kgroups.IndexReport, "as_dict"))
        for owner, name in gone:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        assert list(inspect.signature(ContingencyTable.from_labels).parameters) == ["a", "b"]
        assert not {"alpha", "max_passes"} & set(inspect.signature(run_dermatology).parameters)
        # the fresh objective of a re-anchor comes from a fresh ledger, and
        # labels are read by energy._labels alone
        reanchor = inspect.getsource(solver._LedgerState.reanchor)
        for call in (" @ ", "np.eye", ".dot(", "matmul", "einsum"):
            assert call not in reanchor, call
        for reader in (Partition.__init__, ContingencyTable.from_labels, disco):
            assert "dtype=np.intp" not in inspect.getsource(reader), reader.__qualname__

    def test_uncalled_names_are_gone(self):
        import inspect

        import kgroups.energy as energy
        import kgroups.harness as harness
        import kgroups.indices as indices
        import kgroups.io as kio
        import kgroups.partition as partition
        from kgroups.charts import line_chart_svg

        gone = ((kgroups, "alpha_distance"), (energy, "alpha_distance"),
                (kgroups, "weighted_energy_statistic"), (energy, "weighted_energy_statistic"),
                (kgroups, "move_points"), (solver, "move_points"),
                (kio, "write_sample_csv"), (Partition, "copy"), (partition, "_as_rng"),
                (kgroups, "FIT_MODES"), (solver, "FIT_MODES"), (kgroups, "fit_mode"), (solver, "fit_mode"),
                (solver, "FitMode"), (kgroups, "ResultTable"), (harness, "ResultTable"),
                (harness.ExperimentSpec, "meta"), (kgroups, "diag_index"), (indices, "diag_index"),
                (kgroups, "kappa_index"), (indices, "kappa_index"), (kgroups, "random_partition"),
                (partition, "random_partition"), (ClusterSumLedger, "within_dispersion"))
        for owner, name in gone:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        assert not {"width", "height"} & set(inspect.signature(line_chart_svg).parameters)


MODE_RUNS = [("first_variation", 1.0), ("second_variation", 1.0), ("kmeans_alpha2", 2.0)]


def _fit_items(cache, pairs):
    # a fit's sweep items: single points, the pairs of an even n, or None
    # (each odd-n restart pairs afresh)
    if not pairs:
        return solver._items(cache.dist, np.arange(cache.n)[:, None])
    return None if cache.n % 2 else solver._items(cache.dist, np.array(min_distance_pairs(cache.dist)))


def _sweep_state(x, k, alpha, mode, rng):
    # a restart's state as `fit` builds it, from a random start
    cache = DistanceCache(x, alpha)
    return solver._start(cache, k, rng, _fit_items(cache, mode == "second_variation"))


class TestStart:
    @pytest.mark.parametrize("n, k", [(30, 1), (30, 2), (30, 6), (30, 29), (30, 30), (7, 7), (200, 6)])
    def test_single_point_items_draw_surjective_labels(self, n, k):
        # one label per (n, 1) item is `_surjective_labels`' draw of n labels
        # from the same generator, bit for bit; k = n takes its permutation
        # and n = 30, k = 29 its Poisson sizes, which no fit of the trace
        # corpus reaches
        cache = DistanceCache(np.random.default_rng(n).standard_normal((n, 2)), 1.0)
        items = _fit_items(cache, pairs=False)
        assert items.items == [((i,), 0.0) for i in range(n)]
        for seed in range(3):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            state = solver._start(cache, k, rng, items)
            drawn = Partition(kpartition._surjective_labels(n, k, twin), k)
            assert state.m == 1 and state.held is None and state.k == k
            assert state.partition.labels.dtype == drawn.labels.dtype
            assert np.array_equal(state.partition.labels, drawn.labels)
            assert state.partition.counts == drawn.counts
            assert rng.bit_generator.state == twin.bit_generator.state


class TestSweepState:
    @pytest.mark.parametrize("mode, alpha", MODE_RUNS)
    def test_mirrors_equal_the_numpy_state(self, mode, alpha):
        # the sweep's counts and pair sums are the partition's and the
        # ledger's own lists, of Python ints and floats (an np.float64 would
        # slow every visit and change no output bit); its label copy and the
        # row and column views equal the state after 1, 2 and 50 more
        # passes, rebuilds included, and after `finish`
        g = np.random.default_rng(23)
        cases = [(g.standard_normal((n, int(g.integers(1, 4)))), int(g.integers(2, 6)))
                 for n in (24, 25, 40, 57, 90, 91)]
        for n, k in ((61, 5), (160, 6)):
            far = g.standard_normal((n, 2)) * 1e-8 + 1e8 * (np.arange(n) % 2)[:, None]
            cases += [(far, k)] * 3
        rebuilt = 0
        for x, k in cases:
            state = _sweep_state(x, k, alpha, mode, g)
            for passes in (1, 2, 50):
                ledger = state.ledger
                solver._sweep(state, passes, None)
                rebuilt += state.ledger is not ledger
                part, ledger = state.partition, state.ledger
                assert state.labels == part.labels.tolist()
                assert state.sizes is part.counts and state.within is ledger.pair_sums
                assert {type(c) for c in part.counts} == {int}
                assert {type(w) for w in ledger.pair_sums} == {float}
                assert state.sizes == part.sizes.tolist()
                assert state.within == ledger.within.tolist()
                assert len(state.rows) == part.n and len(ledger.cols) == part.k
                for i, row in enumerate(state.rows):
                    assert np.shares_memory(row, ledger.sums)
                    assert np.array_equal(row, ledger.sums[i])
                for j, col in enumerate(ledger.cols):
                    assert np.shares_memory(col, ledger.sums)
                    assert np.array_equal(col, ledger.sums[:, j])
                coefs = [solver._cluster_coef(int(part.sizes[j]), float(ledger.within[j]), state.m)
                         for j in range(state.k)]
                assert state.coefs == coefs
            final, w = state.finish()
            assert type(w) is float and {type(c) for c in final.counts} == {int}
            assert state.sizes is state.partition.counts
            assert state.within is state.ledger.pair_sums
        assert rebuilt > 0

    @pytest.mark.parametrize("mode, alpha", MODE_RUNS)
    def test_every_move_goes_through_move_point(self, mode, alpha, monkeypatch):
        # the traced benchmark times `partition.move_point` on this name
        calls = []
        inner = solver.move_point

        def counted(*args):
            calls.append(args[2])
            return inner(*args)

        monkeypatch.setattr(solver, "move_point", counted)
        x = np.random.default_rng(5).standard_normal((60, 2))
        result = fit(x, FitConfig(k=3, alpha=alpha, restarts=1, rng_seed=2, mode=mode))
        m = 2 if mode == "second_variation" else 1
        assert result.moves > 0
        assert len(calls) == m * result.moves


def _fit_record(x, cfg):
    # everything a fit reports
    r = fit(x, cfg, collect_trace=True)
    return (r.partition.labels.tolist(), r.within, r.passes, r.moves,
            r.per_restart_within, r.trace)


def _screen_cases():
    # half-integers on which the sweep takes a move of exact gain 0 that
    # rounds positive (restart 2 of seed 30 moves point 6 from cluster 1 to 2)
    g = np.random.default_rng(1030)
    g.integers(12, 70), g.integers(1, 4), g.integers(1, 6)
    yield "zero_gain_tie", np.round(g.standard_normal((32, 1)) * 2) / 2, 4, 30
    g = np.random.default_rng(7)
    yield "half_integer", np.round(g.standard_normal((301, 1)) * 2) / 2, 5, 1
    yield "duplicates", g.standard_normal((12, 2))[g.integers(0, 12, 240)], 9, 2
    yield "mixed_scale_odd", _far_pair(201, 1e8, 1e-8)[0], 2, 3
    yield "mixed_scale_even", _far_pair(200, 1e8, 1e-8)[0], 3, 4
    yield "lognormal_odd", g.lognormal(0.0, 1.0, (401, 2)), 6, 5
    yield "normal_even", g.standard_normal((300, 3)), 9, 6


SCREEN_CASES = list(_screen_cases())
SCREEN_RUNS = [(m, a) for m in ("first_variation", "second_variation") for a in (0.5, 1.0, 2.0)]
SCREEN_RUNS.append(("kmeans_alpha2", 2.0))


class TestScreen:
    @pytest.mark.parametrize("name, x, k, seed", SCREEN_CASES, ids=[c[0] for c in SCREEN_CASES])
    def test_screened_fits_equal_the_plain_sweep(self, name, x, k, seed, monkeypatch):
        skipped = []
        screen = solver._LedgerState.screen

        def counted(state, t):
            c = screen(state, t)
            skipped.append(c - t)
            return c

        monkeypatch.setattr(solver._LedgerState, "screen", counted)
        for mode, alpha in SCREEN_RUNS:
            cfg = FitConfig(k=k, alpha=alpha, restarts=3, rng_seed=seed, mode=mode)
            screened = _fit_record(x, cfg)
            with monkeypatch.context() as plain:
                plain.setattr(solver, "_SCREEN_AFTER", float("inf"))
                assert _fit_record(x, cfg) == screened, (mode, alpha)
        if x.shape[0] > solver._SCREEN_AFTER:
            assert sum(skipped) > 0

    @pytest.mark.parametrize("pairs", [False, True])
    def test_screen_returns_the_first_item_the_kernel_keeps(self, pairs):
        # kept: the kernel's removal cost is > its best insertion cost, the
        # visit's own rule, so the screen stops at exactly the item the visit
        # moves; exact ties (counted) are skipped
        rng = np.random.default_rng(41 + pairs)
        skips = ties = 0
        for trial in range(24):
            n = int(rng.integers(20, 90))
            k = int(rng.integers(2, 7))
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            x = rng.standard_normal((n, 2))
            if trial % 3 == 1:
                x = rng.integers(-2, 3, (n, 1)).astype(float)  # exact ties
            cache = DistanceCache(x, alpha)
            start = None if pairs else Partition(rng.permutation(np.arange(n) % k), k)
            state = solver._start(cache, k, rng, _fit_items(cache, pairs), start)
            # from the start, then nearer convergence, where most items stay
            for passes in (0, 1, 3):
                if passes:
                    solver._sweep(state, passes, None)
                sums = state.ledger.sums
                kept = []
                for pts, spread in state.items:
                    frm = int(state.partition.labels[pts[0]])
                    if state.coefs[frm][2] is None:
                        kept.append(False)
                        continue
                    cross = sums[pts[0]] + sums[pts[1]] if pairs else sums[pts[0]]
                    removal, best, _ = solver._relocation_costs(cross.tolist(), state.coefs, spread, frm)
                    kept.append(removal > best)
                    ties += removal == best
                n_items = len(kept)
                for t in range(n_items):
                    first = next((i for i in range(t, n_items) if kept[i]), n_items)
                    assert state.screen(t) == first, (trial, passes, t)
                    skips += first - t
        assert skips > 0 and ties > 0


class TestRowBlocks:
    @pytest.mark.parametrize("n", [60, 61])
    @pytest.mark.parametrize("mode, alpha", SCREEN_RUNS)
    def test_one_row_blocks_give_the_default_fit(self, n, mode, alpha, monkeypatch):
        # ledger builds (start and re-anchor), the held point's cluster in
        # `finish` and the final within check read one row at a time;
        # everything the fit reports is unchanged
        g = np.random.default_rng(n)
        x = g.standard_normal((n, 2)) + 2.0 * g.integers(0, 3, (n, 1))
        cfg = FitConfig(k=3, alpha=alpha, restarts=3, rng_seed=n, mode=mode)
        default = _fit_record(x, cfg)
        monkeypatch.setattr(kenergy, "_BLOCK_BYTES", 1)
        assert _fit_record(x, cfg) == default


class TestLedgerBuilds:
    @pytest.mark.parametrize("n", [40, 41])
    @pytest.mark.parametrize("mode, alpha", MODE_RUNS)
    def test_each_restart_builds_a_ledger_at_its_start_and_its_re_anchor(self, n, mode, alpha,
                                                                          monkeypatch):
        # normal data, no drift rebuild: a start and a fresh ledger at the
        # sweep's end.  A held point inserted after the sweep (odd-n second
        # variation) joins one cluster, and only that cluster is summed
        # afresh: the objective is still that of a fresh ledger on the final
        # labels, bit for bit
        builds = []
        inner = solver.ClusterSumLedger

        def counted(partition, cache):
            builds.append(partition.labels.copy())
            return inner(partition, cache)

        monkeypatch.setattr(solver, "ClusterSumLedger", counted)
        x = np.random.default_rng(n).standard_normal((n, 2))
        for seed in range(3):
            builds.clear()
            result = fit(x, FitConfig(k=3, alpha=alpha, restarts=1, rng_seed=seed, mode=mode))
            assert len(builds) == 2
            final = result.partition
            if mode == "second_variation" and n % 2:
                fresh = inner(final, DistanceCache(x, alpha))
                assert result.within == kpartition._dispersion(fresh.pair_sums, final.counts)
            else:
                assert np.array_equal(builds[-1], final.labels)

    def test_even_pairs_finish_on_the_re_anchor_objective(self):
        g = np.random.default_rng(3)
        state = _sweep_state(g.standard_normal((40, 2)), 3, 1.0, "second_variation", g)
        solver._sweep(state, 50, None)
        final, w = state.finish()
        assert final is state.partition
        fresh = ClusterSumLedger(final, state.ledger.dist)
        assert w == kpartition._dispersion(fresh.pair_sums, final.counts)


SCALE_MODES = [("first_variation", 1.0), ("first_variation", 2.0), ("second_variation", 1.0),
               ("second_variation", 2.0), ("kmeans_alpha2", 2.0)]


class TestPowerOfTwoScale:
    @given(seed=st.integers(0, 10**6), s=st.integers(-30, 40),
           run=st.sampled_from(SCALE_MODES), n=st.integers(8, 120))
    @settings(max_examples=40, deadline=None)
    def test_scaling_by_a_power_of_two_scales_the_fit_exactly(self, seed, s, run, n):
        mode, alpha = run
        g = np.random.default_rng(seed)
        k = int(g.integers(1, min(5, n // 2) + 1))
        x = g.standard_normal((n, int(g.integers(1, 4)))) + 3.0 * g.integers(0, k, (n, 1))
        cfg = FitConfig(k=k, alpha=alpha, restarts=2, rng_seed=seed, mode=mode)
        base = fit(x, cfg, collect_trace=True)
        scaled = fit(x * 2.0**s, cfg, collect_trace=True)
        factor = 2.0 ** (s * alpha)
        assert np.array_equal(scaled.partition.labels, base.partition.labels)
        assert (scaled.passes, scaled.moves) == (base.passes, base.moves)
        assert scaled.within == base.within * factor
        assert scaled.per_restart_within == [w * factor for w in base.per_restart_within]
        assert scaled.trace == [(i, a, b, w * factor) for i, a, b, w in base.trace]


HOSTILE_RUNS = [("first_variation", 0.5), ("first_variation", 1.5), ("second_variation", 1.0),
                ("kmeans_alpha2", 2.0)]


class TestHostileScale:
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 40), run=st.sampled_from(HOSTILE_RUNS),
           s=st.integers(0, 1100) | st.integers(490, 520))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_a_scaled_fit_returns_or_refuses_its_input(self, seed, n, run, s):
        # data scaled by 2^s, up to and past where float64 sums over its
        # distances overflow (about s = 505 here): a fit or an InputError,
        # never a defect and never a warning
        mode, alpha = run
        g = np.random.default_rng(seed)
        x = g.standard_normal((n, int(g.integers(1, 4)))) + 3.0 * g.integers(0, 2, (n, 1))
        with np.errstate(over="ignore"):
            scaled = np.ldexp(x, s)
        cfg = FitConfig(k=2, alpha=alpha, restarts=2, rng_seed=seed, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = fit(scaled, cfg)
            except InputError:
                return
        assert np.isfinite(result.within)


class TestConvergence:
    def test_a_sweep_cut_off_by_max_passes_is_not_converged(self, rng):
        x = rng.standard_normal((60, 2)) + 4.0 * rng.integers(0, 3, (60, 1))
        for mode, alpha in (("first_variation", 1.0), ("second_variation", 1.0), ("kmeans_alpha2", 2.0)):
            cut = fit(x, FitConfig(k=3, alpha=alpha, restarts=2, max_passes=1, mode=mode))
            assert cut.passes == 1 and cut.moves > 0 and cut.converged is False
            done = fit(x, FitConfig(k=3, alpha=alpha, restarts=2, mode=mode))
            assert done.passes < 50 and done.converged is True

    def test_a_pass_that_moves_nothing_converges_at_max_passes_one(self):
        # k = n: every cluster is a singleton and nothing can move
        result = fit(np.arange(5.0), FitConfig(k=5, restarts=1, max_passes=1))
        assert (result.passes, result.moves, result.converged) == (1, 0, True)


def _forks(monkeypatch):
    # counts os.fork calls made in this process
    calls = []
    real = os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _on_workers(monkeypatch, cpus, per_worker=1):
    # restarts run on min(R, cpus, n * R // per_worker) workers
    monkeypatch.setattr(solver, "_WORK_PER_WORKER", per_worker)
    monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)


def _everything(r):
    return (r.partition.labels.tolist(), r.within, r.per_restart_within, r.passes, r.moves,
            r.converged, r.trace)


def _assert_only_workers_left():
    # every child of this process is a warm worker: once they are reaped, none is left
    solver._reap_workers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_room():
    raise MemoryError("no room for the matrix")


def _forks_in_a_pool_worker(x, cfg):
    calls = []
    real = os.fork
    os.fork = lambda: calls.append(1) or real()
    try:
        fit(x, cfg)
    finally:
        os.fork = real
    return len(calls)


PARALLEL_RUNS = [("first_variation", 0.5), ("second_variation", 1.0), ("kmeans_alpha2", 2.0)]


def _fit_sequence():
    # fits that differ in n (odd and even), alpha, mode, restarts and start
    out = []
    for n in (40, 61, 150):
        g = np.random.default_rng(n)
        x = g.standard_normal((n, 2)) + 3.0 * g.integers(0, 3, (n, 1))
        for mode, alpha in (*PARALLEL_RUNS, ("first_variation", 1.5)):
            init = None if mode == "second_variation" else np.arange(n) % 3
            out.append((x, FitConfig(k=3, alpha=alpha, restarts=5 + n % 2, rng_seed=n, mode=mode), init))
    return out


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list")
def test_the_descriptor_check_sees_a_pipe_end_left_open():
    # conftest's per-test check; the ends are closed here, so this test passes it
    before = open_descriptors()
    ends = multiprocessing.Pipe()
    try:
        leaked = leaked_descriptors(before)
        assert sorted(leaked) == sorted(end.fileno() for end in ends)
        assert all(what.startswith("socket:") for what in leaked.values())
    finally:
        for end in ends:
            end.close()


class TestParallelRestarts:
    """`fit` runs restart r on worker r mod W, W = min(R, usable CPUs,
    n * R // _WORK_PER_WORKER), the workers being this process and W - 1
    warm workers; a fit is the same whatever W.  No test runs more than 3
    processes."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("restarts", [1, 2, 5, 7])
    @pytest.mark.parametrize("n", [40, 41])
    @pytest.mark.parametrize("mode, alpha", PARALLEL_RUNS)
    def test_results_equal_the_serial_run(self, mode, alpha, n, restarts, workers, monkeypatch):
        g = np.random.default_rng(n + restarts)
        x = g.standard_normal((n, 2)) + 3.0 * g.integers(0, 3, (n, 1))
        cfg = FitConfig(k=3, alpha=alpha, restarts=restarts, rng_seed=workers, mode=mode)
        init = None if mode == "second_variation" else np.arange(n) % 3
        _on_workers(monkeypatch, 1)
        serial = _everything(fit(x, cfg, init_labels=init, collect_trace=True))
        forks = _forks(monkeypatch)
        _on_workers(monkeypatch, workers)
        assert _everything(fit(x, cfg, init_labels=init, collect_trace=True)) == serial
        assert len(forks) == min(restarts, workers) - 1
        _assert_only_workers_left()

    def test_warm_workers_give_every_fit_of_a_sequence_its_serial_result(self, monkeypatch):
        # one sequence of fits across n, alpha and modes, on W = 1, 2 and 3:
        # the workers are forked once and then serve every later fit
        fits = _fit_sequence()
        _on_workers(monkeypatch, 1)
        serial = [_everything(fit(x, cfg, init_labels=init, collect_trace=True)) for x, cfg, init in fits]
        forks = _forks(monkeypatch)
        for workers in (2, 3):
            _on_workers(monkeypatch, workers)
            for (x, cfg, init), expected in zip(fits, serial):
                assert _everything(fit(x, cfg, init_labels=init, collect_trace=True)) == expected
            assert len(forks) == workers - 1  # one per worker, none per fit
        _assert_only_workers_left()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_a_job_carries_the_data_not_the_matrix(self, alpha):
        # a pickled cache is its data and alpha, O(n * p) bytes; unpickling
        # rebuilds the same matrix bit for bit, read-only
        n, p = 200, 2
        cache = DistanceCache(np.random.default_rng(5).standard_normal((n, p)), alpha)
        message = pickle.dumps(cache, pickle.HIGHEST_PROTOCOL)
        assert 8 * n * p < len(message) < 8 * n * p + 1000
        got = pickle.loads(message)
        assert (got.n, got.alpha) == (n, alpha)
        assert got.dist.tobytes() == cache.dist.tobytes() and not got.dist.flags.writeable

    def test_a_worker_that_cannot_rebuild_the_cache_reports_why(self, monkeypatch):
        # a worker out of memory while it unpickles its job: the caller
        # raises the worker's MemoryError, with its traceback, not a lost worker
        monkeypatch.setattr(DistanceCache, "__reduce__", lambda self: (_no_room, ()))
        _on_workers(monkeypatch, 2)
        with pytest.raises(MemoryError, match="no room for the matrix") as got:
            fit(np.arange(30.0), FitConfig(k=2, restarts=3))
        assert "job 1 in worker" in str(got.value.__cause__)
        assert "in _no_room" in str(got.value.__cause__)
        assert solver._workers == []  # reaped after the failure
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_refused_fit_keeps_the_warm_workers(self, monkeypatch):
        # the cache refuses the data after the crew has hired: no job was out,
        # so the worker stays, the lock is free and the next fit forks nothing
        _on_workers(monkeypatch, 2)
        with pytest.raises(InputError, match="data span too wide"):
            fit(np.array([0.0, 1e200, 2e200, -1e200, 5.0, 6.0]), FitConfig(k=2, restarts=4))
        (pid, _), = solver._workers
        os.kill(pid, 0)  # alive
        assert not solver._lock.locked()
        x = np.random.default_rng(7).standard_normal((30, 2))
        cfg = FitConfig(k=2, restarts=4)
        forks = _forks(monkeypatch)
        got = _everything(fit(x, cfg, collect_trace=True))
        assert forks == [] and solver._workers[0][0] == pid
        _on_workers(monkeypatch, 1)
        assert got == _everything(fit(x, cfg, collect_trace=True))
        _assert_only_workers_left()

    def test_a_worker_runs_off_the_callers_cpu_and_leaves_its_mask_alone(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        if len(mask) < 2:
            pytest.skip("needs two usable CPUs")
        _on_workers(monkeypatch, 2)
        fit(np.arange(40.0), FitConfig(k=2, restarts=4))
        assert os.sched_getaffinity(0) == mask
        (pid, _), = solver._workers
        placed = os.sched_getaffinity(pid)
        assert placed < mask and len(placed) == len(mask) - 1

    def test_threads_sharing_the_workers_get_their_serial_results(self, monkeypatch):
        # more threads than CPUs, switching often: each fit takes the warm
        # worker or runs in its thread, and every result is the serial one
        fits = _fit_sequence()[:6]
        _on_workers(monkeypatch, 1)
        serial = [_everything(fit(x, cfg, init_labels=init, collect_trace=True)) for x, cfg, init in fits]
        _on_workers(monkeypatch, 2)
        fit(*fits[0][:2])  # forks the worker before any thread starts
        got = {}

        def run(t):
            for j, (x, cfg, init) in enumerate(fits):
                got[t, j] = _everything(fit(x, cfg, init_labels=init, collect_trace=True))

        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {(t, j): serial[j] for t in range(4) for j in range(len(fits))}
        with solver._crew(2) as at_hand:
            assert at_hand == 2  # no thread left the lock taken
        _assert_only_workers_left()

    def test_a_call_while_another_thread_holds_the_workers_runs_here(self, monkeypatch):
        x = np.random.default_rng(3).standard_normal((30, 2))
        cfg = FitConfig(k=2, restarts=5)
        serial = _everything(fit(x, cfg, collect_trace=True))
        forks = _forks(monkeypatch)
        _on_workers(monkeypatch, 2)
        with solver._lock:
            assert _everything(fit(x, cfg, collect_trace=True)) == serial
        assert forks == []

    @pytest.mark.parametrize("failing", [(1,), (2, 4), (1, 3), (0, 5), (3, 4)])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_lowest_failed_restart_raises(self, failing, workers, monkeypatch):
        real = solver._restart

        def failing_restart(r, *args):
            if r in failing:
                raise NumericInvariantError(f"restart {r} failed")
            return real(r, *args)

        monkeypatch.setattr(solver, "_restart", failing_restart)
        x = np.random.default_rng(0).standard_normal((30, 2))
        cfg = FitConfig(k=2, restarts=7)
        _on_workers(monkeypatch, 1)
        with pytest.raises(NumericInvariantError) as serial:
            fit(x, cfg)
        _on_workers(monkeypatch, workers)
        with pytest.raises(NumericInvariantError) as parallel:
            fit(x, cfg)
        assert str(parallel.value) == str(serial.value) == f"restart {min(failing)} failed"
        if min(failing) % workers:  # raised in a worker: its traceback is the cause
            assert "in failing_restart" in str(parallel.value.__cause__)
        assert solver._workers == []  # reaped after the failure
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_that_dies_is_reported_and_reaped(self, monkeypatch):
        real, here = solver._restart, os.getpid()
        dies = lambda r, *a: os._exit(3) if r == 1 and os.getpid() != here else real(r, *a)  # noqa: E731
        monkeypatch.setattr(solver, "_restart", dies)
        _on_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="without the results of jobs"):
            fit(np.arange(30.0), FitConfig(k=2, restarts=3))
        assert solver._workers == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_killed_mid_job_is_reported_and_the_next_fit_gets_fresh_ones(self, monkeypatch):
        real, here = solver._restart, os.getpid()
        kill = lambda r, *a: (os.kill(os.getpid(), signal.SIGKILL) if r == 1 and os.getpid() != here  # noqa: E731
                              else real(r, *a))
        monkeypatch.setattr(solver, "_restart", kill)
        _on_workers(monkeypatch, 2)
        x = np.random.default_rng(1).standard_normal((30, 2))
        with pytest.raises(ChildProcessError, match=r"without the results of jobs \[1\]"):
            fit(x, FitConfig(k=2, restarts=3))
        assert solver._workers == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(solver, "_restart", real)
        forks = _forks(monkeypatch)
        again = _everything(fit(x, FitConfig(k=2, restarts=3), collect_trace=True))
        assert len(forks) == 1
        _on_workers(monkeypatch, 1)
        assert again == _everything(fit(x, FitConfig(k=2, restarts=3), collect_trace=True))
        _assert_only_workers_left()

    def test_workers_are_killed_when_this_process_raises(self, monkeypatch):
        real = solver._restart

        def restart(r, *args):
            if r == 0:
                raise KeyboardInterrupt
            time.sleep(60)  # a worker still busy
            return real(r, *args)

        monkeypatch.setattr(solver, "_restart", restart)
        _on_workers(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            fit(np.arange(30.0), FitConfig(k=2, restarts=3))
        assert time.perf_counter() - start < 30
        assert solver._workers == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_share_whose_fork_fails_runs_here(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")

        x = np.random.default_rng(2).standard_normal((30, 2))
        cfg = FitConfig(k=2, restarts=5)
        serial = _everything(fit(x, cfg, collect_trace=True))
        monkeypatch.setattr(os, "fork", no_fork)
        _on_workers(monkeypatch, 3)
        assert _everything(fit(x, cfg, collect_trace=True)) == serial

    def test_a_forked_child_neither_uses_nor_reaps_the_callers_workers(self, monkeypatch):
        _on_workers(monkeypatch, 2)
        x = np.random.default_rng(4).standard_normal((30, 2))
        cfg = FitConfig(k=2, restarts=4)
        expected = _everything(fit(x, cfg, collect_trace=True))
        mine = list(solver._workers)
        pid = os.fork()
        if pid == 0:  # the child: the at-exit reaper finds no worker of its own
            ok = False
            try:
                ok = solver._workers == [] and solver._reap_workers() is None
                ok = ok and _everything(fit(x, cfg, collect_trace=True)) == expected
                solver._reap_workers()  # its own worker
            finally:
                os._exit(0 if ok else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert solver._workers == mine
        forks = _forks(monkeypatch)
        assert _everything(fit(x, cfg, collect_trace=True)) == expected
        assert forks == []
        _assert_only_workers_left()

    def test_no_worker_outlives_its_caller(self):
        code = (
            "import numpy as np, kgroups.solver as s\n"
            "s._WORK_PER_WORKER = 1; s._usable_cpus = lambda: 2\n"
            "s.fit(np.arange(30.0), s.FitConfig(k=2, restarts=4))\n"
            "print(*[pid for pid, _ in s._workers])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == 1
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("cpus, restarts, per_worker, forks", [
        (1, 5, 1, 0),  # one usable CPU
        (2, 1, 1, 0),  # one restart
        (2, 5, 30 * 5 // 2 + 1, 0),  # n * R too small for two workers
        (2, 5, 30 * 5 // 2, 1),  # n * R just enough for two
        (3, 5, 30 * 5 // 2, 1),  # three CPUs, work enough for two
        (3, 5, 30 * 5 // 3, 2),  # and for three
    ])
    def test_the_work_and_the_cpus_set_the_worker_count(self, cpus, restarts, per_worker, forks,
                                                        monkeypatch):
        calls = _forks(monkeypatch)
        _on_workers(monkeypatch, cpus, per_worker)
        fit(np.arange(30.0), FitConfig(k=2, restarts=restarts))
        assert len(calls) == forks

    def test_serial_inside_a_multiprocessing_worker(self, monkeypatch):
        _on_workers(monkeypatch, 2)  # inherited by the forked pool worker
        x = np.random.default_rng(0).standard_normal((30, 2))
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            assert pool.submit(_forks_in_a_pool_worker, x, FitConfig(k=2, restarts=5)).result() == 0
        assert _forks_in_a_pool_worker(x, FitConfig(k=2, restarts=5)) == 1  # here it forks

    def test_no_affinity_call_means_one_cpu(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert solver._usable_cpus() == 1

    @pytest.mark.parametrize("n, restarts, workers", [
        (200, 5, 2),  # the benchmark's study cell
        (100, 5, 1),
        (200, 20, 8),
        (358, 20, 14),  # the dermatology case study
        (2001, 5, 5),
        (4000, 1, 1),
        (2001, 10, 9),  # nine matrices of 32 MB: eight within _COPY_BYTES
        (5792, 10, 2),  # the largest n with a worker
        (5793, 10, 1),
    ])
    def test_the_default_constant_ties_the_workers_to_the_work(self, n, restarts, workers,
                                                               monkeypatch):
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 64)
        assert solver._worker_count(restarts, n) == workers
