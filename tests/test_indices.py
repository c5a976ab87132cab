import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgroups import (
    ContingencyTable,
    InputError,
    adjusted_rand,
    diag_index,
    index_report,
    kappa_index,
    rand_index,
)

import kgroups.indices as kindices

from conftest import all_partitions, brute_adjusted_rand, brute_rand


def table(a, b):
    return ContingencyTable.from_labels(a, b)


CROSSED = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))


class TestRand:
    def test_identical_partitions(self):
        a = np.array([0, 0, 1, 1, 2])
        assert rand_index(table(a, a)) == 1.0

    def test_crossed_pairs(self):
        # 6 pairs, 2 agreements (both split): hand enumeration gives 1/3
        assert rand_index(table(*CROSSED)) == pytest.approx(1 / 3)

    def test_singletons_versus_one_cluster(self):
        a = np.arange(4)
        b = np.zeros(4, dtype=int)
        assert rand_index(table(a, b)) == 0.0

    def test_too_few_points(self):
        with pytest.raises(InputError):
            rand_index(ContingencyTable([[1]]))


class TestAdjustedRand:
    def test_identical_partitions(self):
        a = np.array([0, 1, 1, 2, 2, 2])
        assert adjusted_rand(table(a, a)) == 1.0

    def test_crossed_pairs(self):
        # brute-force pair counting: ss=0, sd=2, ds=2, dd=2
        # -> 2*(0*2 - 2*2) / ((0+2)*(2+2) + (0+2)*(2+2)) = -1/2
        expected = brute_adjusted_rand(*CROSSED)
        assert expected == -0.5
        assert adjusted_rand(table(*CROSSED)) == pytest.approx(expected)

    def test_null_mean_near_zero(self):
        # random labelings: chance-corrected index has expectation 0
        rng = np.random.default_rng(7)
        vals = []
        for _ in range(1000):
            a = rng.integers(0, 2, size=200)
            b = rng.integers(0, 2, size=200)
            vals.append(adjusted_rand(ContingencyTable.from_labels(a, b)))
        assert abs(float(np.mean(vals))) <= 0.02

    def test_degenerate_single_cluster_both(self):
        a = np.zeros(5, dtype=int)
        assert adjusted_rand(table(a, a)) == 1.0

    def test_degenerate_all_singletons_both(self):
        a = np.arange(5)
        b = np.array([4, 3, 2, 1, 0])
        assert adjusted_rand(table(a, b)) == 1.0  # same set partition

    def test_at_most_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.integers(0, 3, size=12)
            b = rng.integers(0, 3, size=12)
            assert adjusted_rand(table(a, b)) <= 1.0 + 1e-12


class TestDiag:
    def test_identical_partitions(self):
        a = np.array([0, 0, 1, 1])
        assert diag_index(table(a, a)) == 1.0

    def test_swapped_labels_resolved_by_matching(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert diag_index(table(a, b)) == 1.0

    def test_crossed_pairs(self):
        # best one-to-one matching places 2 of the 4 points on the diagonal
        assert diag_index(table(*CROSSED)) == 0.5

    def test_rectangular_table_padded(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([0, 0, 1, 1, 1, 1])
        assert diag_index(table(a, b)) == pytest.approx(4 / 6)

    def test_matches_exhaustive_permutation_search(self):
        # Diag is the largest matched diagonal; among the matchings that reach
        # it, Kappa takes the one with the least chance agreement.  Tables with
        # cells in {0, 1, 2} make many matchings tie on the diagonal.
        rng = np.random.default_rng(11)
        tables = []
        for _ in range(30):
            k = int(rng.integers(2, 7))
            tables.append(table(rng.integers(0, k, size=40), rng.integers(0, k, size=40)))
        for _ in range(200):
            side = int(rng.integers(2, 6))
            cells = rng.integers(0, 3, size=(side, side))
            cells[np.arange(side), rng.permutation(side)] += 1  # no empty row or column
            tables.append(ContingencyTable(cells))
        tied = 0
        for t in tables:
            side = max(t.cells.shape)
            padded = np.zeros((side, side), dtype=int)
            padded[: t.cells.shape[0], : t.cells.shape[1]] = t.cells
            rows, cols = padded.sum(axis=1), padded.sum(axis=0)
            scores = sorted(
                (
                    -sum(int(padded[r, perm[r]]) for r in range(side)),
                    sum(int(rows[r] * cols[perm[r]]) for r in range(side)),
                )
                for perm in itertools.permutations(range(side))
            )
            (least, chance), rest = scores[0], scores[1:]
            tied += any(d == least and c != chance for d, c in rest)
            p_o, p_e = -least / t.n, chance / t.n**2
            assert diag_index(t) == p_o
            assert kappa_index(t) == ((p_o - p_e) / (1.0 - p_e) if p_e != 1.0 else 1.0)
        assert tied >= 20  # the tie-break decided kappa on many of these tables

    def test_assignment_matches_scipy_optimal_total(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(17)
        for _ in range(300):
            s = int(rng.integers(1, 31))
            cost = rng.integers(-int(rng.choice([2, 100, 10**6])), 10**6, size=(s, s))
            rows = kindices._min_cost_assignment(cost.tolist())
            assert sorted(rows) == list(range(s))
            ref_rows, ref_cols = linear_sum_assignment(cost)
            total = sum(int(cost[i, j]) for j, i in enumerate(rows))
            assert total == int(cost[ref_rows, ref_cols].sum())

    def test_assignment_exact_beyond_float64(self):
        # costs above 2**53 differ by 1, which float64 cannot tell apart;
        # the anti-diagonal is cheaper, so column 0 takes row 1 and column 1 row 0
        big = 2**60
        assert kindices._min_cost_assignment([[big, big + 1], [big + 1, big + 3]]) == [1, 0]


class TestKappa:
    def test_identical_partitions(self):
        a = np.array([0, 0, 1, 1, 2])
        assert kappa_index(table(a, a)) == 1.0

    def test_crossed_pairs(self):
        # matched table has p_o = p_e = 0.5, so chance-corrected agreement is 0
        assert kappa_index(table(*CROSSED)) == 0.0

    def test_chance_only_agreement_small_positive(self):
        # matching to the best diagonal overfits chance slightly, so the
        # null mean sits a little above zero rather than at it
        rng = np.random.default_rng(5)
        vals = []
        for _ in range(300):
            a = rng.integers(0, 2, size=100)
            b = rng.integers(0, 2, size=100)
            vals.append(kappa_index(table(a, b)))
        mean = float(np.mean(vals))
        assert 0.0 <= mean <= 0.15


class TestIndexReport:
    def test_one_matching_per_report(self, monkeypatch):
        calls = []
        matched = kindices._matched_pairs
        monkeypatch.setattr(kindices, "_matched_pairs", lambda t: calls.append(t) or matched(t))
        a = np.array([0, 0, 1, 1, 2])
        b = np.array([0, 1, 1, 2, 2])
        rep = index_report(table(a, b))
        assert len(calls) == 1
        assert (rep.diag, rep.kappa) == (diag_index(table(a, b)), kappa_index(table(a, b)))


class TestSparseLabels:
    """A table is counted over the distinct labels once the label values
    would size it past `_DENSE_CELLS` cells."""

    def test_huge_labels_give_the_table_of_the_distinct_labels(self):
        a = np.array([0, 0, 1, 1, 1, 0])
        b = np.array([1, 0, 1, 1, 0, 0])
        huge = table(a * 2**33, b * (2**40 + 7))
        assert huge.cells.tolist() == table(a, b).cells.tolist() == [[2, 1], [1, 2]]
        assert index_report(huge) == index_report(table(a, b))

    def test_largest_label_does_not_size_the_table(self):
        tracemalloc.start()
        try:
            t = table([0, 3000], [0, 3000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.cells.tolist() == [[1, 0], [0, 1]]
        assert peak < 1 << 20  # the dense 3001 x 3001 table was 72 MB

    def test_tables_under_the_cap_keep_every_label_value(self):
        side = int(kindices._DENSE_CELLS**0.5)
        assert table([0, side - 1], [0, side - 1]).cells.shape == (side, side)
        assert table([0, side], [0, side - 1]).cells.shape == (2, 2)


class TestInvariance:
    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_relabeling_either_side_changes_nothing(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(4, 30))
        ka = int(gen.integers(2, 5))
        kb = int(gen.integers(2, 5))
        a = gen.integers(0, ka, size=n)
        b = gen.integers(0, kb, size=n)
        perm_a = gen.permutation(ka)
        perm_b = gen.permutation(kb)
        base = index_report(table(a, b))
        permuted = index_report(table(perm_a[a], perm_b[b]))
        for name in ("diag", "kappa", "rand", "crand"):
            assert getattr(base, name) == pytest.approx(getattr(permuted, name), abs=1e-12)

    def test_ranges(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = rng.integers(0, 3, size=15)
            b = rng.integers(0, 4, size=15)
            rep = index_report(table(a, b))
            assert 0.0 <= rep.diag <= 1.0
            assert 0.0 <= rep.rand <= 1.0
            assert rep.crand <= 1.0
            assert -1.0 <= rep.kappa <= 1.0


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_small_n(self, n):
        parts = all_partitions(n)
        for a in parts:
            for b in parts:
                t = table(a, b)
                assert rand_index(t) == pytest.approx(brute_rand(a, b), abs=1e-12)
                assert adjusted_rand(t) == pytest.approx(
                    brute_adjusted_rand(a, b), abs=1e-12
                )

    def test_identical_iff_crand_one(self):
        parts = all_partitions(5)
        for a in parts:
            for b in parts:
                same = np.array_equal(a, b)  # canonical form: equality == same partition
                crand = adjusted_rand(table(a, b))
                if same:
                    assert crand == pytest.approx(1.0, abs=1e-12)
                else:
                    assert crand < 1.0 - 1e-12
