import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import kgroups.energy as kenergy
import kgroups.partition as kpartition

from kgroups import (
    ClusterSumLedger,
    ContingencyTable,
    DistanceCache,
    InputError,
    Partition,
    RejectedMoveError,
    disco,
    move_point,
)

from conftest import random_instance


class TestPartition:
    def test_counts_track_labels(self):
        p = Partition([0, 1, 1, 2, 0])
        assert p.k == 3
        assert p.counts == [2, 2, 1]
        assert p.n == 5

    def test_empty_cluster_rejected(self):
        with pytest.raises(InputError):
            Partition([0, 0, 2])  # cluster 1 empty

    def test_labels_must_fit_k(self):
        with pytest.raises(InputError):
            Partition([0, 1, 3], k=3)

    @pytest.mark.parametrize("labels, k", [([0, 1], 3), ([0, 1], 50), ([0, 4], None), ([9, 0], None)])
    def test_k_past_n_rejected_before_counting(self, labels, k):
        # the counts would be an array of k entries
        want = k if k is not None else max(labels) + 1
        with pytest.raises(InputError, match=rf"k={want} clusters exceed the n=2 points"):
            Partition(labels, k)


class _CountingRng:
    """A Generator that counts the calls of each method."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


def _surjective(n, k, seed):
    return kpartition._surjective_labels(n, k, np.random.default_rng(seed))


class TestSurjectiveLabels:
    def test_n_equals_k_gives_singletons(self):
        assert sorted(_surjective(4, 4, 123).tolist()) == [0, 1, 2, 3]

    def test_deterministic_for_seed(self):
        assert np.array_equal(_surjective(200, 2, 42), _surjective(200, 2, 42))

    def test_every_cluster_nonempty(self):
        for seed in range(50):
            assert np.bincount(_surjective(7, 6, seed), minlength=6).min() >= 1

    def test_mean_cluster_size_unbiased(self):
        # Monte-Carlo over 1000 seeds: E[size of cluster 0] = 100 for n=200, k=2
        sizes = [np.bincount(_surjective(200, 2, seed), minlength=2)[0] for seed in range(1000)]
        assert abs(float(np.mean(sizes)) - 100.0) <= 5.0

    @pytest.mark.parametrize("n, k", [(30, 29), (200, 100), (2001, 1990)])
    def test_k_close_to_n_falls_back_to_block_sizes(self, n, k):
        # plain rejection would need ~1e10, ~5e7 and far more draws here
        assert np.bincount(_surjective(n, k, 3), minlength=k).min() >= 1

    @pytest.mark.parametrize("n, k", [(30, 29), (200, 100), (2001, 1990)])
    def test_starts_past_the_draw_bound_skip_rejection(self, n, k, monkeypatch):
        # (1 - (1 - 1/k)^n)^k < 1/_REJECTION_DRAWS: the block sizes are drawn
        # at once, as with no rejection draws at all
        rng = _CountingRng(np.random.default_rng(n))
        labels = kpartition._surjective_labels(n, k, rng)
        assert rng.calls["integers"] == 0
        monkeypatch.setattr(kpartition, "_REJECTION_DRAWS", 0)
        exact = kpartition._surjective_labels(n, k, np.random.default_rng(n))
        assert np.array_equal(labels, exact)

    @pytest.mark.parametrize("n, k", [(7, 6), (30, 25), (12, 4), (200, 2)])
    def test_starts_within_the_draw_bound_keep_rejection(self, n, k):
        # the bound does not fire; where rejection succeeds within its draws
        # (all but (30, 25), which expects about 1e6) the start is its draw
        rng = _CountingRng(np.random.default_rng(k))
        kpartition._surjective_labels(n, k, rng)
        assert rng.calls["integers"] >= 1
        if (n, k) == (30, 25):
            return
        for seed in range(30):
            plain = np.random.default_rng(seed)
            while True:
                want = plain.integers(0, k, size=n)
                if np.bincount(want, minlength=k).min() >= 1:
                    break
            got = kpartition._surjective_labels(n, k, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    def test_block_size_fallback_is_uniform_over_surjections(self, monkeypatch):
        monkeypatch.setattr(kpartition, "_REJECTION_DRAWS", 0)
        rng = np.random.default_rng(7)
        draws = 9000
        counts = Counter(
            tuple(kpartition._surjective_labels(5, 3, rng).tolist()) for _ in range(draws)
        )
        # all 150 surjections of 5 points onto 3 labels, and nothing else
        assert len(counts) == 150
        assert all(len(set(labels)) == 3 for labels in counts)
        expected = draws / 150
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stats.chi2.sf(chi2, 149) > 1e-3


def _rebuilt(ledger, partition, cache):
    return ClusterSumLedger(partition, cache)


class TestLedger:
    def test_build_matches_direct_sums(self, rng):
        x, labels, k = random_instance(rng)
        cache = DistanceCache(x, 1.0)
        p = Partition(labels, k)
        ledger = ClusterSumLedger(p, cache)
        for j in range(k):
            idx = p.cluster_indices(j)
            for i in range(p.n):
                assert ledger.sums[i, j] == pytest.approx(
                    float(cache.dist[i, idx].sum()), rel=1e-12, abs=1e-12
                )
            direct = sum(
                float(cache.dist[a, b]) for a in idx for b in idx if a < b
            )
            assert ledger.pair_sums[j] == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_move_then_move_back_restores(self, rng):
        x, labels, k = random_instance(rng, n_lo=10)
        cache = DistanceCache(x, 0.8)
        p = Partition(labels, k)
        ledger = ClusterSumLedger(p, cache)
        sums0 = ledger.sums.copy()
        within0 = list(ledger.pair_sums)
        i = int(np.flatnonzero(np.array(p.counts)[p.labels] >= 2)[0])
        frm = int(p.labels[i])
        to = (frm + 1) % k
        move_point(p, ledger, i, to)
        move_point(p, ledger, i, frm)
        assert np.allclose(ledger.sums, sums0, rtol=0, atol=1e-12)
        assert np.allclose(ledger.pair_sums, within0, rtol=0, atol=1e-12)
        assert p.labels[i] == frm

    def test_singleton_source_rejected(self):
        cache = DistanceCache([[0.0], [1.0], [5.0]], 1.0)
        p = Partition([0, 0, 1])
        ledger = ClusterSumLedger(p, cache)
        with pytest.raises(RejectedMoveError):
            move_point(p, ledger, 2, 0)

    def test_move_to_same_cluster_rejected(self):
        cache = DistanceCache([[0.0], [1.0]], 1.0)
        p = Partition([0, 1])
        ledger = ClusterSumLedger(p, cache)
        with pytest.raises(InputError):
            move_point(p, ledger, 0, 0)

    @pytest.mark.parametrize("i, to", [
        (2.7, 1), (2, 1.9), (2.0, 1), (True, 1), (2, True), (np.float64(2), 1),
        (-1, 1), (6, 1), (2, -1), (2, 2), (np.int64(6), 1), (np.int64(2), np.int64(-1)),
    ])
    def test_ill_typed_or_out_of_range_ids_rejected(self, i, to):
        # no truncation, no negative indexing, no numpy IndexError; the
        # partition and the ledger are left as they were
        cache = DistanceCache(np.arange(6.0), 1.0)
        p = Partition([0, 0, 0, 1, 1, 1])
        ledger = ClusterSumLedger(p, cache)
        sums = ledger.sums.copy()
        with pytest.raises(InputError):
            move_point(p, ledger, i, to)
        assert p.labels.tolist() == [0, 0, 0, 1, 1, 1] and p.counts == [3, 3]
        assert ledger.pair_sums == [4.0, 4.0] and np.array_equal(ledger.sums, sums)

    def test_numpy_integer_ids_accepted(self):
        cache = DistanceCache(np.arange(6.0), 1.0)
        p = Partition([0, 0, 0, 1, 1, 1])
        ledger = ClusterSumLedger(p, cache)
        move_point(p, ledger, np.int64(2), np.intp(1))
        assert p.labels.tolist() == [0, 0, 1, 1, 1, 1] and p.counts == [2, 4]
        assert [type(c) for c in p.counts] == [int, int]
        assert [type(w) for w in ledger.pair_sums] == [float, float]

    def test_a_move_updates_the_count_and_pair_sum_lists_in_place(self):
        # the sweep holds these two lists across moves
        cache = DistanceCache(np.arange(6.0), 1.0)
        p = Partition([0, 0, 0, 1, 1, 1])
        ledger = ClusterSumLedger(p, cache)
        counts, pair_sums = p.counts, ledger.pair_sums
        move_point(p, ledger, 2, 1)
        assert p.counts is counts and ledger.pair_sums is pair_sums
        assert counts == [2, 4] and pair_sums == [1.0, 10.0]

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_build_adds_members_in_index_order(self, seed):
        # bit-equal to a plain running sum: the order fits rely on to be
        # reproducible, whichever way the build gathers the distances
        gen = np.random.default_rng(seed)
        x, labels, k = random_instance(gen, n_lo=5, n_hi=120, p_hi=4, k_hi=8)
        cache = DistanceCache(x, float(gen.choice([0.5, 1.0, 2.0])))
        p = Partition(labels, k)
        ledger = ClusterSumLedger(p, cache)
        for j in range(k):
            acc = np.zeros(p.n)
            for m in p.cluster_indices(j):
                acc += cache.dist[:, m]
            assert np.array_equal(ledger.sums[:, j], acc)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_blocked_build_adds_members_in_index_order(self, rows, monkeypatch):
        # blocks of a few rows, each carrying the running sum of the blocks
        # before, add the members in the order of one plain running sum
        gen = np.random.default_rng(50 + rows)
        for _ in range(30):
            x, labels, k = random_instance(gen, n_lo=5, n_hi=120, p_hi=4, k_hi=8)
            cache = DistanceCache(x, float(gen.choice([0.5, 1.0, 2.0])))
            p = Partition(labels, k)
            monkeypatch.setattr(kenergy, "_BLOCK_BYTES", rows * 8 * p.n)
            ledger = ClusterSumLedger(p, cache)
            for j in range(k):
                acc = np.zeros(p.n)
                for m in p.cluster_indices(j):
                    acc += cache.dist[:, m]
                assert np.array_equal(ledger.sums[:, j], acc)

    @pytest.mark.parametrize("pass_", [ClusterSumLedger, disco], ids=["ledger", "disco"])
    def test_memory_is_bounded(self, pass_):
        # a lopsided split: gathering the large cluster's rows whole would
        # copy 1400 x 1500 floats (16.8 MB), its block 1400 x 1400 (15.7 MB);
        # the ledger's own arrays are 24 KB
        n = 1500
        cache = DistanceCache(np.random.default_rng(8).standard_normal((n, 2)), 1.0)
        labels = np.zeros(n, dtype=np.intp)
        labels[np.random.default_rng(9).choice(n, 100, replace=False)] = 1
        p = Partition(labels, 2)
        tracemalloc.start()
        try:
            pass_(p, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_random_move_sequences_match_rebuild(self, seed):
        gen = np.random.default_rng(seed)
        x, labels, k = random_instance(gen, n_lo=10)
        alpha = float(gen.choice([0.5, 1.0, 2.0]))
        cache = DistanceCache(x, alpha)
        p = Partition(labels, k)
        ledger = ClusterSumLedger(p, cache)
        for _ in range(p.n):
            movable = np.flatnonzero(np.array(p.counts)[p.labels] >= 2)
            if movable.size == 0:
                break
            i = int(gen.choice(movable))
            to = int((p.labels[i] + 1 + gen.integers(k - 1)) % k)
            move_point(p, ledger, i, to)
            assert p.counts == np.bincount(p.labels, minlength=k).tolist()
        fresh = _rebuilt(ledger, p, cache)
        scale = max(1.0, float(np.abs(fresh.pair_sums).max()))
        assert np.allclose(ledger.pair_sums, fresh.pair_sums, rtol=1e-10, atol=1e-10 * scale)
        assert np.allclose(ledger.sums, fresh.sums, rtol=1e-10, atol=1e-10)


class TestContingency:
    def test_identical_partitions_diagonal(self):
        p = Partition([0, 0, 1, 1, 2, 2])
        t = ContingencyTable.from_labels(p.labels, p.labels)
        assert np.array_equal(t.cells, np.diag([2, 2, 2]))

    def test_crossed_pairs(self):
        t = ContingencyTable.from_labels(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
        assert t.cells.tolist() == [[1, 1], [1, 1]]

    def test_cell_sum_is_n(self, rng):
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 4, size=50)
        assert ContingencyTable.from_labels(a, b).n == 50

    def test_marginals_match_cluster_sizes(self):
        p1 = Partition([0, 0, 0, 1, 1])
        p2 = Partition([0, 1, 1, 1, 0])
        t = ContingencyTable.from_labels(p1.labels, p2.labels)
        assert t.row_sums.tolist() == p1.counts
        assert t.col_sums.tolist() == p2.counts

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            ContingencyTable.from_labels(np.array([0, 1]), np.array([0, 1, 1]))

    @pytest.mark.parametrize("call, error", [
        (lambda: ClusterSumLedger(Partition([0, 1, 1]), np.zeros((2, 2))),
         "distance matrix is (2, 2), partition has 3 points"),
        (lambda: ContingencyTable([1, 2]), "contingency table must be a nonempty 2-D array"),
        (lambda: ContingencyTable(np.zeros((0, 2), dtype=int)), "contingency table must be a nonempty 2-D array"),
        (lambda: ContingencyTable([[3, -1]]), "contingency counts must be nonnegative"),
    ])
    def test_raises_input_error_naming_its_input(self, call, error):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == error

    def test_sparse_labels_accepted(self):
        # unlike a Partition, a table may have more label values than points
        t = ContingencyTable.from_labels([0, 5], [0, 1])
        assert t.cells.shape == (6, 2) and t.n == 2

    def test_table_without_points_rejected(self):
        # every index divides by n; a zero table is rejected when it is built
        with pytest.raises(InputError, match="no points"):
            ContingencyTable([[0, 0]])

    @pytest.mark.parametrize("cells", [[[0.5, 1]], [[True, False]], [[np.nan, 1]], [["1", "2"]]])
    def test_non_integer_cells_rejected(self, cells):
        # were truncated to [[0, 1]], read as 0/1, or let numpy's ValueError out
        with pytest.raises(InputError, match="integers"):
            ContingencyTable(cells)

    def test_ragged_cells_rejected(self):
        with pytest.raises(InputError, match="rectangular"):
            ContingencyTable([[1, 2], [3]])

    def test_integer_cells_of_any_width_accepted(self):
        t = ContingencyTable(np.array([[1, 2], [3, 0]], dtype=np.uint8))
        assert t.cells.dtype == np.int64 and t.cells.tolist() == [[1, 2], [3, 0]]
