import numpy as np
import pytest

import kgroups
import kgroups.solver as solver
from kgroups import (
    ClusterSumLedger,
    DistanceCache,
    FitConfig,
    InputError,
    NumericInvariantError,
    Partition,
    RejectedMoveError,
    adjusted_rand,
    contingency,
    disco,
    energy_statistic,
    fit,
    min_distance_pairs,
    move_points,
    mth_variation_delta,
)

from conftest import brute_within, hartigan_wong_transfers, random_instance

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
        move_points(p, ledger, pts, to)
        d_back = mth_variation_delta(p, ledger, pts, frm)
        move_points(p, ledger, pts, frm)
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

    def test_all_infinite_rows_still_pair_each_point_once(self):
        dist = np.full((6, 6), np.inf)
        np.fill_diagonal(dist, 0.0)
        pairs = min_distance_pairs(dist)
        assert sorted(i for pair in pairs for i in pair) == list(range(6))


class TestFitFirstVariation:
    def test_recovers_separated_clusters(self):
        x = np.array([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])
        truth = np.array([0, 0, 0, 1, 1, 1])
        for seed in range(5):
            cfg = FitConfig(k=2, alpha=1.0, restarts=3, rng_seed=seed)
            result = fit(x, cfg)
            assert adjusted_rand(contingency(truth, result.partition.labels)) == 1.0

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
            assert adjusted_rand(contingency(truth, result.partition.labels)) == 1.0

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
        assert adjusted_rand(contingency(truth, result.partition.labels)) == 1.0

    def test_within_matches_disco(self, rng):
        x, _, _ = random_instance(rng, n_lo=21, n_hi=41)
        cfg = FitConfig(k=3, alpha=0.5, restarts=2, rng_seed=9, mode="second_variation")
        result = fit(x, cfg)
        cache = DistanceCache(x, 0.5)
        assert result.within == pytest.approx(disco(result.partition, cache).within, rel=1e-9)

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


def _two_clusters(seed, n=200):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.standard_normal(n // 2), rng.standard_normal(n - n // 2) + 4.0])


class TestNumericInvariant:
    @pytest.mark.parametrize("mode", ["first_variation", "second_variation", "kmeans_alpha2"])
    def test_overflowing_scale_fails_loudly(self, mode):
        # squared distances overflow to inf; inf - inf is NaN, which the
        # objective check must treat as a failure, not as agreement
        alpha = 2.0 if mode == "kmeans_alpha2" else 1.0
        cfg = FitConfig(k=2, alpha=alpha, restarts=2, rng_seed=0, mode=mode)
        with pytest.raises(NumericInvariantError), np.errstate(all="ignore"):
            fit(_two_clusters(0, n=40) * 1e170, cfg)

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


class TestPublicSurface:
    def test_exported_names_resolve(self):
        for module in (kgroups, solver):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_mode_named_entry_points_are_gone(self):
        for name in ("fit_first_variation", "fit_second_variation", "fit_kmeans_alpha2",
                     "first_variation_delta"):
            assert not hasattr(kgroups, name)
