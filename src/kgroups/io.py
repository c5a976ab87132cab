"""CSV ingestion and emission for the CLI.

Data CSVs hold numeric columns with an optional header row; a column named
"label" (any case) is treated as the ground-truth labels.  Missing markers
("?" or empty cells) and non-finite features ("nan", "inf") are rejected
with row/column diagnostics, since the clustering input must be complete.
Row 1 is a header only when none of its cells is a number, and a UTF-8
byte-order mark is skipped, so a typo or an editor's mark loses no data row.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .errors import InputError

__all__ = [
    "compact_labels",
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


def _label(tok: str, path, rn) -> int:
    # int first: through float, 2^53 + 1 would read as 2^53; "3.0" is 3
    try:
        return int(tok)
    except ValueError:
        val = float(tok) if _is_float(tok) else math.nan
    if not val.is_integer():  # also NaN and inf
        raise InputError(f"{path}: bad label {tok!r} at row {rn}")
    return int(val)


def compact_labels(values) -> np.ndarray:
    """Integer label codes as 0..k-1 in sorted code order, an intp array."""
    return np.unique(np.asarray(values), return_inverse=True)[1].astype(np.intp)


def _is_header(row) -> bool:
    # a row of names: no number, and not only missing markers
    toks = [tok.strip() for tok in row]
    return not any(map(_is_float, toks)) and any(tok not in _MISSING for tok in toks)


def _read_rows(path) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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
    if _is_header(rows[0]):
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
            vals.pop(label_col)
            labels.append(_label(row[label_col].strip(), path, rn))
        data.append(vals)

    x = np.asarray(data, dtype=np.float64)
    return x, None if label_col is None else compact_labels(labels)


def read_labels_csv(path) -> np.ndarray:
    """Load a single-column label CSV (optional 'label' header)."""
    rows = _read_rows(path)
    if any(len(r) != 1 for r in rows):
        raise InputError(f"{path}: expected exactly one column of labels")
    toks = [r[0].strip() for r in rows]
    if _is_header(rows[0]):
        toks = toks[1:]
        if not toks:
            raise InputError(f"{path} has a header but no labels")
    return compact_labels([_label(tok, path, rn) for rn, tok in enumerate(toks, start=1)])


def write_labels_csv(path, labels) -> None:
    lines = ["label"] + [str(int(v)) for v in np.asarray(labels).ravel()]
    Path(path).write_text("\n".join(lines) + "\n")

