"""CSV ingestion and emission for the CLI.

Data CSVs hold numeric columns with an optional header row; a column named
"label" (any case) is treated as the ground-truth labels.  Missing markers
("?" or empty cells) and non-finite features ("nan", "inf") are rejected
with row/column diagnostics, since the clustering input must be complete.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .errors import InputError

__all__ = [
    "read_data_csv",
    "read_labels_csv",
    "write_labels_csv",
]

_MISSING = ("", "?")


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _read_rows(path) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        raise InputError(f"{path} contains no data")
    return rows


def read_data_csv(path, truth_last=False):
    """Load a numeric data CSV; returns (matrix, truth_labels_or_None).

    Truth labels come from a header column named "label", or from the last
    column when `truth_last` is set.
    """
    rows = _read_rows(path)
    header = None
    if any(not _is_float(tok) and tok.strip() not in _MISSING for tok in rows[0]):
        header = [tok.strip() for tok in rows[0]]
        rows = rows[1:]
        if not rows:
            raise InputError(f"{path} has a header but no data rows")

    width = len(rows[0])
    label_col = None
    if header is not None:
        if len(header) != width:
            raise InputError(f"{path}: header has {len(header)} fields, rows have {width}")
        names = [h.lower() for h in header]
        if "label" in names:
            label_col = names.index("label")
    if label_col is None and truth_last:
        label_col = width - 1
    if label_col is not None and width < 2:
        raise InputError(f"{path}: no feature columns besides the label column")

    data = []
    labels = []
    for rn, row in enumerate(rows, start=1):
        if len(row) != width:
            raise InputError(f"{path}: row {rn} has {len(row)} fields, expected {width}")
        vals = []
        for cn, tok in enumerate(row):
            tok = tok.strip()
            if tok in _MISSING:
                raise InputError(f"{path}: missing value at row {rn}, column {cn + 1}")
            if not _is_float(tok):
                raise InputError(f"{path}: non-numeric value {tok!r} at row {rn}, column {cn + 1}")
            val = float(tok)
            if cn != label_col and not math.isfinite(val):
                raise InputError(f"{path}: non-finite value {tok!r} at row {rn}, column {cn + 1}")
            vals.append(val)
        if label_col is not None:
            lab = vals.pop(label_col)
            if not lab.is_integer():  # also NaN and Inf
                raise InputError(f"{path}: non-integer label {lab} at row {rn}")
            labels.append(int(lab))
        data.append(vals)

    x = np.asarray(data, dtype=np.float64)
    truth = None
    if label_col is not None:
        raw = np.asarray(labels, dtype=np.intp)
        # normalize arbitrary integer codes to 0..k-1 in sorted order
        _, truth = np.unique(raw, return_inverse=True)
        truth = truth.astype(np.intp)
    return x, truth


def read_labels_csv(path) -> np.ndarray:
    """Load a single-column label CSV (optional 'label' header)."""
    rows = _read_rows(path)
    if any(len(r) != 1 for r in rows):
        raise InputError(f"{path}: expected exactly one column of labels")
    toks = [r[0].strip() for r in rows]
    if not _is_float(toks[0]):
        toks = toks[1:]
        if not toks:
            raise InputError(f"{path} has a header but no labels")
    vals = []
    for rn, tok in enumerate(toks, start=1):
        if not _is_float(tok) or not float(tok).is_integer():
            raise InputError(f"{path}: bad label {tok!r} at row {rn}")
        vals.append(int(float(tok)))
    raw = np.asarray(vals, dtype=np.intp)
    _, norm = np.unique(raw, return_inverse=True)
    return norm.astype(np.intp)


def write_labels_csv(path, labels) -> None:
    lines = ["label"] + [str(int(v)) for v in np.asarray(labels).ravel()]
    Path(path).write_text("\n".join(lines) + "\n")

