"""UCI dermatology case study: ingestion, standardization, clustering.

The raw file has 366 comma-separated records of 34 attributes plus a
disease class in 1..6; eight records are missing the age attribute
(marker "?").  Rows with any missing value are dropped, every attribute is
standardized to zero mean and unit standard deviation, and the six disease
classes become the ground-truth partition for a k=6 comparison of the
clustering algorithms.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from .datagen import LabeledSample
from .errors import IngestionError
from .indices import ContingencyTable, index_report
from .io import compact_labels
from .solver import fit, fit_config

__all__ = [
    "DERMATOLOGY_URL",
    "N_ATTRIBUTES",
    "load_dermatology",
    "fetch_dermatology",
    "find_dermatology",
    "run_dermatology",
]

DERMATOLOGY_URL = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/dermatology/dermatology.data"
)
N_ATTRIBUTES = 34
ENV_VAR = "KGROUPS_DERMATOLOGY_DATA"
_DEFAULT_PATHS = ("data/dermatology.data", "dermatology.data")


def load_dermatology(path, expected_sha256=None) -> LabeledSample:
    """Parse, filter, and standardize the dermatology data file.

    Rows containing any missing marker "?" are excluded (on the canonical
    UCI file that removes exactly the 8 records with missing age, leaving
    358).  Attributes are standardized columnwise to mean 0 and sample
    standard deviation 1; class codes map to 0-based truth labels.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if expected_sha256:
        digest = hashlib.sha256(raw).hexdigest()
        if digest != expected_sha256.lower():
            raise IngestionError(
                f"{path}: sha256 {digest} does not match expected {expected_sha256}"
            )

    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc})") from exc

    rows = []
    classes = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != N_ATTRIBUTES + 1:
            raise IngestionError(
                f"{path}: row {ln} has {len(fields)} fields, expected {N_ATTRIBUTES + 1}"
            )
        if any(f.strip() == "?" for f in fields):
            continue
        try:
            values = [float(f) for f in fields[:N_ATTRIBUTES]]
            cls = int(fields[N_ATTRIBUTES])
        except ValueError as exc:
            raise IngestionError(f"{path}: row {ln}: {exc}") from exc
        if cls < 1:
            raise IngestionError(f"{path}: row {ln} has class {cls}, expected >= 1")
        rows.append(values)
        classes.append(cls)
    if len(rows) < 2:
        raise IngestionError(f"{path}: only {len(rows)} usable rows")

    x = np.asarray(rows, dtype=np.float64)
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    flat = np.flatnonzero(sd == 0)
    if flat.size:
        raise IngestionError(
            f"{path}: column {int(flat[0]) + 1} is constant and cannot be standardized"
        )
    z = (x - mean) / sd
    return LabeledSample(data=z, truth=compact_labels(classes))


def fetch_dermatology(dest, url=DERMATOLOGY_URL, timeout=60) -> Path:
    """Download the raw data file to `dest` (network required)."""
    # imported here: only a download needs it, and every import of kgroups would pay for it
    import urllib.request

    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            dest.write_bytes(resp.read())
    except OSError as exc:
        raise IngestionError(f"could not fetch {url}: {exc}") from exc
    return dest


def find_dermatology() -> Path | None:
    """Locate a local copy: $KGROUPS_DERMATOLOGY_DATA, then ./data/, then cwd."""
    env = os.environ.get(ENV_VAR)
    candidates = ([env] if env else []) + list(_DEFAULT_PATHS)
    for c in candidates:
        p = Path(c)
        if p.is_file():
            return p
    return None


def run_dermatology(sample: LabeledSample, algorithms, restarts, seed) -> dict:
    """Fit each algorithm with k=6, alpha=1 and score it against the disease classes."""
    k = int(np.max(sample.truth)) + 1
    reports = {}
    for algorithm in algorithms:
        cfg = fit_config(algorithm, k=k, alpha=1.0, restarts=restarts, rng_seed=seed)
        result = fit(sample.data, cfg)
        table = ContingencyTable.from_labels(sample.truth, result.partition.labels)
        reports[algorithm] = index_report(table)
    return reports
