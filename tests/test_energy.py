import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

import kgroups.energy as kenergy
from kgroups import (
    DistanceCache,
    InputError,
    disco,
    dispersion,
    energy_statistic,
)
from kgroups.energy import as_data_matrix, validate_alpha

from conftest import brute_powered_distance, brute_within, random_instance


class TestAlphaDistance:
    """The distance exponent alpha: `validate_alpha` admits exactly (0, 2]."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, 2.5, float("nan")])
    def test_invalid_alpha(self, bad):
        with pytest.raises(InputError):
            validate_alpha(bad)

    @pytest.mark.parametrize("bad", ["abc", None, [1], True, float("inf")])
    def test_non_numbers_raise_input_error(self, bad):
        with pytest.raises(InputError, match="^alpha must be a finite number, got "):
            validate_alpha(bad)
        with pytest.raises(InputError, match="^alpha must be a finite number, got "):
            DistanceCache(np.zeros((2, 1)), bad)

    def test_alpha_bounds_accepted(self):
        assert validate_alpha(2.0) == 2.0
        assert validate_alpha(1e-9) == 1e-9


class TestDataMatrix:
    def test_column_vector_from_1d(self):
        x = as_data_matrix([1.0, 2.0, 3.0])
        assert x.shape == (3, 1)

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            as_data_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(InputError):
            as_data_matrix([[1.0], [np.inf]])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            as_data_matrix(np.empty((0, 3)))

    @pytest.mark.parametrize("data", [
        np.ones(4) * 1j,  # was cast to its real part with only a ComplexWarning
        np.array([1.0, 2j], dtype=object),
        ["a", "b"],
        ["1.5", "2"],  # numeric strings were parsed
        [1.0, None],
        [[1, 2], [3]],  # ragged
        [10**400, 1],  # beyond float64
        np.array(["2020-01-01"], dtype="datetime64[D]"),
    ])
    def test_rejects_complex_non_numeric_and_ragged(self, data):
        with pytest.raises(InputError, match="rectangular array of real numbers"):
            as_data_matrix(data)

    @pytest.mark.parametrize("data, values", [
        ([True, False], [1.0, 0.0]),
        (np.array([[1, -2]], dtype=np.int8), [1.0, -2.0]),
        (np.float32([0.1]), [float(np.float32(0.1))]),
        ([1, 2**70], [1.0, 2.0**70]),
    ])
    def test_real_numbers_are_kept(self, data, values):
        assert as_data_matrix(data).ravel().tolist() == values

    def test_float64_input_is_not_copied(self, rng):
        x = rng.random((5, 2))
        assert as_data_matrix(x) is x


class TestDistanceCache:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_matches_pointwise_kernel(self, rng, alpha):
        x = rng.standard_normal((25, 3))
        cache = DistanceCache(x, alpha)
        for _ in range(60):
            i, j = rng.integers(25, size=2)
            expected = brute_powered_distance(x[i], x[j], alpha)
            assert cache.dist[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_symmetric_zero_diagonal_nonnegative(self, rng):
        x = rng.standard_normal((30, 2))
        cache = DistanceCache(x, 0.7)
        assert np.array_equal(cache.dist, cache.dist.T)
        assert np.all(np.diag(cache.dist) == 0.0)
        assert np.all(cache.dist >= 0.0)

    def test_alpha2_is_squared_euclidean(self, rng):
        x = rng.standard_normal((10, 4))
        cache = DistanceCache(x, 2.0)
        diff = x[3] - x[7]
        assert cache.dist[3, 7] == pytest.approx(float(diff @ diff), rel=1e-12)

    def test_immutable(self, rng):
        cache = DistanceCache(rng.standard_normal((5, 2)), 1.0)
        with pytest.raises(ValueError):
            cache.dist[0, 1] = 3.0

    @settings(max_examples=80, deadline=None)
    @given(
        x=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 6)),
                 elements=st.integers(-2**20, 2**20).map(lambda v: v / 1024)),
        scale=st.sampled_from([1e-8, 1.0, 3.7e5]),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_bit_equal_to_condensed_reference(self, x, scale, alpha):
        # the matrix the cache was built from before: pdist mirrored by squareform
        x = x * scale
        if alpha == 2.0:
            ref = squareform(pdist(x, "sqeuclidean"))
        else:
            ref = squareform(pdist(x, "euclidean") ** alpha)
        assert DistanceCache(x, alpha).dist.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_build_holds_one_matrix(self, alpha):
        x = np.random.default_rng(5).standard_normal((801, 2))
        tracemalloc.start()
        try:
            cache = DistanceCache(x, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * cache.dist.nbytes


class TestDispersion:
    def test_same_singleton_is_zero(self):
        cache = DistanceCache([[0.0], [2.0]], 1.0)
        assert dispersion([0], [0], cache) == 0.0

    def test_two_point_self_dispersion(self):
        # hand enumeration: (0 + 2 + 2 + 0) / 4
        cache = DistanceCache([[0.0], [2.0]], 1.0)
        assert dispersion([0, 1], [0, 1], cache) == 1.0

    def test_single_pair(self):
        cache = DistanceCache([[0.0], [2.0]], 1.0)
        assert dispersion([0], [1], cache) == 2.0

    def test_symmetric(self, rng):
        cache = DistanceCache(rng.standard_normal((12, 2)), 1.3)
        a, b = [0, 3, 5], [1, 2, 8, 9]
        assert dispersion(a, b, cache) == dispersion(b, a, cache)

    def test_empty_set_rejected(self):
        cache = DistanceCache([[0.0], [2.0]], 1.0)
        with pytest.raises(InputError):
            dispersion([], [0], cache)

    @pytest.mark.parametrize("a", [[0.7], [1.0], [True], [0, 1.5]])
    def test_non_integer_ids_rejected(self, a):
        # no truncation of 0.7 to 0 or True to 1
        cache = DistanceCache([[0.0], [2.0], [5.0]], 1.0)
        with pytest.raises(InputError):
            dispersion(a, [2], cache)
        with pytest.raises(InputError):
            energy_statistic([2], a, cache)


class TestEnergyStatistic:
    def test_singletons(self):
        cache = DistanceCache([[0.0], [3.0]], 1.0)
        assert energy_statistic([0], [1], cache) == 2.0 * 3.0

    def test_point_versus_pair(self):
        # direct evaluation: 2*mean(1,2) - 0 - mean(0,1,1,0) = 3 - 0.5
        cache = DistanceCache([[0.0], [1.0], [2.0]], 1.0)
        assert energy_statistic([0], [1, 2], cache) == pytest.approx(2.5, rel=1e-15)

    def test_exactly_symmetric(self, rng):
        cache = DistanceCache(rng.standard_normal((14, 2)), 0.8)
        a, b = [0, 2, 4], [1, 3, 5, 7]
        assert energy_statistic(a, b, cache) == energy_statistic(b, a, cache)

    def test_overlap_rejected(self):
        cache = DistanceCache([[0.0], [1.0], [2.0]], 1.0)
        with pytest.raises(InputError):
            energy_statistic([0, 1], [1, 2], cache)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_same_distribution_near_zero_never_negative(self, alpha):
        # Monte-Carlo: equal splits of one sample stay >= -1e-12 and small.
        rng = np.random.default_rng(99)
        vals = []
        for _ in range(40):
            x = rng.standard_normal((60, 2))
            cache = DistanceCache(x, alpha)
            xi = energy_statistic(np.arange(30), np.arange(30, 60), cache)
            assert xi >= -1e-12
            vals.append(xi)
        # population value is 0; the empirical statistic carries an O(1/n)
        # positive bias, so the mean over draws stays small but not tiny
        assert np.mean(vals) < 0.5

    def test_identical_multisets_give_zero(self):
        x = np.array([[0.0], [2.0], [5.0], [0.0], [2.0], [5.0]])
        cache = DistanceCache(x, 1.0)
        assert abs(energy_statistic([0, 1, 2], [3, 4, 5], cache)) <= 1e-12


class TestDisco:
    def test_two_singletons(self):
        cache = DistanceCache([[0.0], [2.0]], 1.0)
        d = disco([0, 1], cache)
        assert (d.total, d.within, d.between) == (1.0, 0.0, 1.0)

    def test_single_cluster(self, rng):
        x = rng.standard_normal((12, 2))
        cache = DistanceCache(x, 1.0)
        d = disco(np.zeros(12, dtype=int), cache)
        assert d.between == 0.0
        assert d.total == pytest.approx(d.within, rel=1e-12)

    def test_empty_cluster_rejected(self):
        cache = DistanceCache([[0.0], [2.0]], 1.0)
        with pytest.raises(InputError):
            disco(np.array([0, 2]), cache)  # cluster 1 missing

    @pytest.mark.parametrize("labels", [[0, 2], [0, 50], [9, 0]])
    def test_labels_past_n_rejected_before_grouping(self, labels):
        # grouping takes a pass over the labels per cluster up to the largest
        cache = DistanceCache([[0.0], [2.0]], 1.0)
        with pytest.raises(InputError, match=rf"k={max(labels) + 1} clusters exceed the n=2 points"):
            disco(labels, cache)

    def test_within_matches_brute_force(self, rng):
        for _ in range(10):
            x, labels, _ = random_instance(rng)
            for alpha in (0.5, 1.0, 2.0):
                cache = DistanceCache(x, alpha)
                d = disco(labels, cache)
                assert d.within == pytest.approx(brute_within(x, labels, alpha), rel=1e-10)

    def test_one_row_blocks_match_brute_force(self, rng, monkeypatch):
        monkeypatch.setattr(kenergy, "_BLOCK_BYTES", 1)
        for _ in range(10):
            x, labels, _ = random_instance(rng)
            for alpha in (0.5, 1.0, 2.0):
                d = disco(labels, DistanceCache(x, alpha))
                assert d.within == pytest.approx(brute_within(x, labels, alpha), rel=1e-10)
                assert abs(d.total - (d.within + d.between)) <= 1e-10 * max(1.0, d.total)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_identity_and_nonnegativity(self, seed):
        gen = np.random.default_rng(seed)
        x, labels, _ = random_instance(gen)
        alpha = float(gen.choice([0.3, 0.5, 1.0, 1.5, 2.0]))
        cache = DistanceCache(x, alpha)
        d = disco(labels, cache)
        assert abs(d.total - (d.within + d.between)) <= 1e-10 * max(1.0, d.total)
        assert d.within >= 0.0
        assert d.between >= -1e-12


class TestWithinTerm:
    """The final check of a fit computes disco's within term alone."""

    @pytest.mark.parametrize("block_bytes", [kenergy._BLOCK_BYTES, 1])
    def test_equals_disco_within_bit_for_bit(self, block_bytes, monkeypatch):
        # mixed scale (rows from 1e-8 to 1e8, two sites 1e8 apart), k <= 8,
        # some clusters of one point
        monkeypatch.setattr(kenergy, "_BLOCK_BYTES", block_bytes)
        g = np.random.default_rng(block_bytes)
        singles = 0
        for _ in range(60):
            n = int(g.integers(2, 80))
            k = int(g.integers(1, min(8, n) + 1))
            alone = int(g.integers(0, k))
            labels = g.permutation(np.concatenate([np.arange(alone), alone + np.arange(n - alone) % (k - alone)]))
            x = g.standard_normal((n, int(g.integers(1, 4)))) * 10.0 ** g.integers(-8, 9, (n, 1))
            x += 1e8 * g.integers(0, 2, (n, 1))
            groups = [np.flatnonzero(labels == j) for j in range(k)]
            singles += alone
            for alpha in (0.5, 1.0, 2.0):
                cache = DistanceCache(x, alpha)
                within = kenergy._within_term(cache.dist, groups)[0]
                assert within == disco(labels, cache).within
                assert type(within) is float
        assert singles > 0


class TestRowBlocks:
    @pytest.mark.parametrize("budget", [1, 8 * 29, 8 * 30, 8 * 65, 8 * 30 * 7, 1 << 18])
    def test_blocks_join_to_the_gathered_rows(self, budget, monkeypatch):
        # blocks are at most the budget, unless one row alone exceeds it
        monkeypatch.setattr(kenergy, "_BLOCK_BYTES", budget)
        gen = np.random.default_rng(budget)
        dist = DistanceCache(gen.standard_normal((30, 2)), 1.0).dist
        for idx in (np.arange(30), np.array([4]), np.sort(gen.choice(30, 17, replace=False))):
            blocks = list(kenergy._row_blocks(dist, idx))
            assert np.array_equal(np.concatenate(blocks), dist[idx])
            for b in blocks:
                assert b.nbytes <= max(budget, dist[0].nbytes)
                assert b.shape[0] == 1 or b.nbytes <= budget


class TestInputErrors:
    SQUARE = "cache must be a DistanceCache or a square 2-D matrix of real numbers, got "

    @pytest.mark.parametrize("call, error", [
        (lambda cache: disco([0, 1], "ab"), SQUARE + "<U2 ()"),
        (lambda cache: disco([0, 1], None), SQUARE + "object ()"),
        (lambda cache: dispersion([0], [1], np.zeros(3)), SQUARE + "float64 (3,)"),
        (lambda cache: disco([0, 1], np.zeros((2, 3))), SQUARE + "float64 (2, 3)"),
        (lambda cache: energy_statistic([0], [1], np.ones((2, 2), dtype=bool)), SQUARE + "bool (2, 2)"),
        (lambda cache: disco([0, 0, 1], cache), "partition covers 3 points, cache has 2"),
        (lambda cache: disco([2, 0, 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]), "cluster 1 is empty"),
    ])
    def test_raises_input_error_naming_its_input(self, call, error):
        cache = DistanceCache([[0.0], [2.0]], 1.0)
        with pytest.raises(InputError, match=f"^{re.escape(error)}$"):
            call(cache)


class TestOneReader:
    def test_energy_statistic_checks_each_set_once_in_one_pass(self, monkeypatch):
        calls = []
        for name in ("_index_set", "_within_term"):
            counted = lambda *a, _f=getattr(kenergy, name), _n=name, **kw: calls.append(_n) or _f(*a, **kw)
            monkeypatch.setattr(kenergy, name, counted)
        energy_statistic([0, 2], [1, 3, 4], DistanceCache(np.arange(5.0), 1.0))
        assert sorted(calls) == ["_index_set", "_index_set", "_within_term"]

    def test_block_sums_copy_no_whole_block(self):
        cache = DistanceCache(np.random.default_rng(0).standard_normal((600, 2)), 1.0)
        idx = np.arange(600)
        tracemalloc.start()
        try:
            dispersion(idx, idx, cache)
            energy_statistic(idx[:300], idx[300:], cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cache.dist.nbytes / 3


class TestAlpha2Centroid:
    def test_within_equals_sum_of_squared_deviations(self, rng):
        # 1-D and multi-dimensional checks of the centroid identity
        for p in (1, 4):
            x = rng.standard_normal((30, p)) * 2.0
            cache = DistanceCache(x, 2.0)
            idx = np.arange(30)
            g = dispersion(idx, idx, cache)
            lhs = 30 / 2.0 * g
            c = x.mean(axis=0)
            rhs = float(((x - c) ** 2).sum())
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_one_dimensional_moment_form(self, rng):
        x = rng.standard_normal(20)
        cache = DistanceCache(x, 2.0)
        idx = np.arange(20)
        lhs = 20 / 2.0 * dispersion(idx, idx, cache)
        rhs = float((x**2).sum() - 20 * x.mean() ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)
