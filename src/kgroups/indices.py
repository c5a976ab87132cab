"""External cluster-validity indices: Diag, Kappa, Rand, corrected Rand.

Rand and corrected Rand are pair-counting indices computed straight from the
contingency table.  Diag and Kappa need a correspondence between found and
true labels; here the correspondence is the optimal one-to-one matching
(maximum-weight assignment on the table), which makes all four indices
invariant to relabeling either partition.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import linear_sum_assignment

from .energy import _labels
from .errors import InputError

__all__ = [
    "ContingencyTable",
    "IndexReport",
    "INDEX_NAMES",
    "rand_index",
    "adjusted_rand",
    "diag_index",
    "kappa_index",
    "index_report",
]


class ContingencyTable:
    """R x C cross-tabulation of two labelings of the same n points."""

    __slots__ = ("cells", "row_sums", "col_sums", "n")

    def __init__(self, cells):
        c = np.asarray(cells, dtype=np.int64)
        if c.ndim != 2 or c.size == 0:
            raise InputError("contingency table must be a nonempty 2-D array")
        if c.min() < 0:
            raise InputError("contingency counts must be nonnegative")
        if not c.any():
            raise InputError("contingency table holds no points")
        self.cells = c
        self.row_sums = c.sum(axis=1)
        self.col_sums = c.sum(axis=0)
        self.n = int(c.sum())

    @classmethod
    def from_labels(cls, a, b) -> "ContingencyTable":
        av, bv = _labels(a, "a"), _labels(b, "b")
        if av.shape != bv.shape:
            raise InputError(f"label arrays differ in length: {av.size} vs {bv.size}")
        r, c = int(av.max()) + 1, int(bv.max()) + 1
        return cls(np.bincount(av * c + bv, minlength=r * c).reshape(r, c))

    def __repr__(self):
        return f"ContingencyTable(shape={self.cells.shape}, n={self.n})"


def _comb2(x) -> int:
    # Python ints: no numpy overhead on these tiny arrays, and no overflow
    return sum(v * (v - 1) // 2 for v in np.ravel(x).tolist())


def _pair_counts(table: ContingencyTable):
    if table.n < 2:
        raise InputError("pair-counting indices need at least 2 points")
    together_both = _comb2(table.cells)
    together_rows = _comb2(table.row_sums)
    together_cols = _comb2(table.col_sums)
    total = table.n * (table.n - 1) // 2
    return together_both, together_rows, together_cols, total


def rand_index(table: ContingencyTable) -> float:
    """Proportion of point pairs on which the two partitions agree."""
    both, rows, cols, total = _pair_counts(table)
    return float((total + 2 * both - rows - cols) / total)


def adjusted_rand(table: ContingencyTable) -> float:
    """Hubert-Arabie chance-corrected Rand index.

    1 for identical partitions, expectation 0 under independent random
    labelings with the observed marginals.  The degenerate case (both
    partitions trivial, so max agreement equals its expectation) is defined
    as 1 when the partitions are identical and 0 otherwise.
    """
    both, rows, cols, total = _pair_counts(table)
    expected = rows * cols / total
    maximum = (rows + cols) / 2.0
    if maximum == expected:
        return 1.0 if both == maximum else 0.0
    return float((both - expected) / (maximum - expected))


def _matched_pairs(table: ContingencyTable):
    """Optimal row/column matching on the zero-padded square table.

    Rows and columns with no points are dropped first: an unused label id
    says nothing about the partitions, and keeping it would alter which
    matchings are feasible.  Primary objective: maximize diagonal mass.
    Among equally good matchings, the one with the smallest chance
    agreement (sum of matched marginal products) is selected, which pins
    down a single well-defined kappa value and keeps it invariant under
    relabelings.  Both objectives live in one integer assignment problem,
    so the solution is exact (equal combined scores imply an identical
    (diagonal, chance) pair).
    """
    core = table.cells[np.ix_(table.row_sums > 0, table.col_sums > 0)]
    r, c = core.shape
    side = max(r, c)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[:r, :c] = core
    row_tot = padded.sum(axis=1)
    col_tot = padded.sum(axis=0)
    penalty = np.outer(row_tot, col_tot)
    scale = int(penalty.sum()) + 1
    rows, cols = linear_sum_assignment(padded * scale - penalty, maximize=True)
    return padded, rows, cols


def diag_index(table: ContingencyTable) -> float:
    """Best-case proportion of points on the matched diagonal."""
    padded, rows, cols = _matched_pairs(table)
    return float(padded[rows, cols].sum() / table.n)


def kappa_index(table: ContingencyTable) -> float:
    """Cohen's kappa on the optimally matched table.

    p_o is the matched diagonal mass, p_e the chance agreement implied by
    the matched marginals; kappa = (p_o - p_e) / (1 - p_e), with the p_e = 1
    boundary defined as 1 when agreement is perfect and 0 otherwise.
    """
    padded, rows, cols = _matched_pairs(table)
    n = table.n
    p_o = float(padded[rows, cols].sum() / n)
    row_tot = padded.sum(axis=1)
    col_tot = padded.sum(axis=0)
    p_e = float((row_tot[rows] * col_tot[cols]).sum() / (n * n))
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


@dataclass(frozen=True)
class IndexReport:
    """The four agreement indices for one pair of partitions."""

    diag: float
    kappa: float
    rand: float
    crand: float


# the index names in report order: the columns of every index table
INDEX_NAMES = tuple(f.name for f in fields(IndexReport))


def index_report(table: ContingencyTable) -> IndexReport:
    """All four indices computed from one contingency table."""
    return IndexReport(
        diag=diag_index(table),
        kappa=kappa_index(table),
        rand=rand_index(table),
        crand=adjusted_rand(table),
    )
