"""Replicated benchmark harness.

Runs seeded mixture experiments over a parameter sweep: every replicate
draws one data set (seed = base_seed + replicate), fits every requested
algorithm on that same draw, and scores the result against the generating
labels.  Per-replicate raw scores are always kept alongside the aggregated
means and standard errors, and emission to CSV/JSON is byte-deterministic.
`<prefix>.json` is the machine-readable artifact; the library reads no CSV back.
"""

from __future__ import annotations

import csv
import io as _io
import json
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .charts import line_chart_svg
from .datagen import Component, MixtureSpec, generate
from .energy import validate_alpha
from .errors import InputError, NumericInvariantError, check_fields, check_sequence
from .indices import INDEX_NAMES, ContingencyTable, index_report
from .solver import ALGORITHMS, _check_algorithms, _hire, _run_jobs, fit, fit_config

__all__ = [
    "DESIGNS",
    "SWEEP_PARAMS",
    "default_alpha",
    "design_mixture",
    "ExperimentSpec",
    "ReplicateRecord",
    "ExperimentResult",
    "run_experiment",
    "emit_outputs",
    "csv_text",
]

DESIGNS = ("normal", "lognormal", "cauchy", "cubic")
SWEEP_PARAMS = ("separation", "alpha", "dim")
FORMATS = ("csv", "json", "svg")

SCHEMA_VERSION = 1

# Wall-clock fields are volatile: they live on the in-memory objects and in
# the timings sidecar, but stay out of the byte-deterministic artifacts.
TABLE_COLUMNS = ("algorithm", "sweep_value", "reps", "failures") + tuple(
    f"{name}_{stat}" for name in INDEX_NAMES for stat in ("mean", "se")
)
RAW_COLUMNS = (
    "sweep_value", "replicate", "seed", "draw_checksum", "algorithm", *INDEX_NAMES, "failed", "error"
)
TIMING_COLUMNS = ("sweep_value", "replicate", "algorithm", "runtime_s")


def default_alpha(design: str) -> float:
    """Distance exponent policy: 0.5 for the heavy-tailed cauchy design
    (finite moments demand alpha < 1 there), 1.0 everywhere else."""
    return 0.5 if design == "cauchy" else 1.0


def design_mixture(design, *, separation=3.0, dim=1, n=200, seed=0) -> MixtureSpec:
    """Two-component benchmark mixture for one of the named designs.

    normal/lognormal/cauchy: equal-weight location mixtures with the second
    component shifted by `separation`.  cubic: equal-weight uniform cubes
    [0,1]^dim vs [0.3,0.7]^dim (separation is ignored).
    """
    if design not in DESIGNS:
        raise InputError(f"unknown design {design!r}, expected one of {DESIGNS}")
    if design == "cubic":
        comps = (Component(0.5, "cubic_uniform", (0.0, 1.0)), Component(0.5, "cubic_uniform", (0.3, 0.7)))
    else:
        comps = (Component(0.5, design, (0.0, 1.0)), Component(0.5, design, (separation, 1.0)))
    return MixtureSpec(components=comps, dim=dim, n=n, seed=seed)


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark: a design, a sweep, algorithms, and replicate budget."""

    design: str
    sweep_param: str
    sweep_values: tuple
    algorithms: tuple = tuple(ALGORITHMS)
    reps: int = 100
    base_seed: int = 0
    n: int = 200
    k: int = 2
    alpha: float | None = None  # None -> default_alpha(design) for k-groups
    separation: float = 3.0
    dim: int = 1
    restarts: int = 5
    max_passes: int = 50

    def __post_init__(self):
        check_fields(vars(self), ("separation",), reps=1, n=1, k=1, dim=1, restarts=1, max_passes=1, base_seed=0)
        if self.design not in DESIGNS:
            raise InputError(f"unknown design {self.design!r}")
        if self.sweep_param not in SWEEP_PARAMS:
            raise InputError(f"unknown sweep parameter {self.sweep_param!r}")
        vals = check_sequence(self.sweep_values, "sweep_values", numbers=True)  # the CLI passes strings
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise InputError("sweep_values must be strictly increasing")
        object.__setattr__(self, "sweep_values", vals)
        object.__setattr__(self, "algorithms", _check_algorithms(self.algorithms))
        alphas = vals if self.sweep_param == "alpha" else ()
        for a in alphas if self.alpha is None else (*alphas, self.alpha):
            validate_alpha(a)
        if self.sweep_param == "dim" and any(v < 1 or not v.is_integer() for v in vals):
            raise InputError(f"dim sweep values must be integers >= 1, got {vals}")
        if self.k > self.n:
            raise InputError(f"k must lie in 1..n = {self.n}, got {self.k}")
        if "kgroups_second" in self.algorithms and self.k > self.n // 2:
            raise InputError(f"kgroups_second needs k <= n // 2 = {self.n // 2}, got {self.k}")


@dataclass(frozen=True)
class ReplicateRecord:
    """Raw scores for one (sweep value, replicate, algorithm) cell."""

    sweep_value: float
    replicate: int
    seed: int
    draw_checksum: int
    algorithm: str
    diag: float | None
    kappa: float | None
    rand: float | None
    crand: float | None
    runtime_s: float | None
    failed: bool = False
    error: str = ""


@dataclass
class ExperimentResult:
    """A spec, its index means and standard errors per (algorithm, sweep value), its raw records."""

    spec: ExperimentSpec
    rows: list
    records: list


def _mixture_for(spec: ExperimentSpec, value: float, seed: int) -> MixtureSpec:
    separation = spec.separation
    dim = spec.dim
    if spec.sweep_param == "separation":
        separation = value
    elif spec.sweep_param == "dim":
        dim = int(value)
    return design_mixture(
        spec.design, separation=separation, dim=dim, n=spec.n, seed=seed
    )


def _alpha_for(spec: ExperimentSpec, value: float) -> float:
    # the k-groups exponent; fit_config overrides it where fixed at 2
    if spec.sweep_param == "alpha":
        return value
    if spec.alpha is not None:
        return spec.alpha
    return default_alpha(spec.design)


def _run_replicate(spec: ExperimentSpec, value: float, b: int) -> list:
    """All algorithm scores for one replicate, one job of `run_experiment`."""
    seed = spec.base_seed + b
    sample = generate(_mixture_for(spec, value, seed))
    checksum = zlib.crc32(sample.data.tobytes())
    records = []
    for algorithm in spec.algorithms:
        cfg = fit_config(algorithm, k=spec.k, alpha=_alpha_for(spec, value), restarts=spec.restarts,
                         max_passes=spec.max_passes, rng_seed=seed)
        scores = dict.fromkeys(INDEX_NAMES)  # None on a failed cell
        error = ""
        start = time.perf_counter()
        try:
            result = fit(sample.data, cfg)
            runtime = time.perf_counter() - start
            table = ContingencyTable.from_labels(sample.truth, result.partition.labels)
            scores = asdict(index_report(table))
        except NumericInvariantError:
            raise  # a defect, not a failed cell
        except Exception as exc:  # recorded as a missing cell, never dropped
            runtime, error = None, f"{type(exc).__name__}: {exc}"
        records.append(
            ReplicateRecord(
                sweep_value=value,
                replicate=b,
                seed=seed,
                draw_checksum=checksum,
                algorithm=algorithm,
                runtime_s=runtime,
                failed=bool(error),
                error=error,
                **scores,
            )
        )
    return records


def _mean_se(values):
    if not values:
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, None
    se = float(arr.std(ddof=1) / np.sqrt(arr.size))
    return mean, se


def _aggregate(spec: ExperimentSpec, records: list) -> list:
    rows = []
    for value in spec.sweep_values:
        for algorithm in spec.algorithms:
            cell = [
                r
                for r in records
                if r.sweep_value == value and r.algorithm == algorithm
            ]
            ok = [r for r in cell if not r.failed]
            row = {"algorithm": algorithm, "sweep_value": value}
            row["reps"] = len(cell)
            row["failures"] = len(cell) - len(ok)
            for name in INDEX_NAMES:
                mean, se = _mean_se([getattr(r, name) for r in ok])
                row[f"{name}_mean"] = mean
                row[f"{name}_se"] = se
            rows.append(row)
    return rows


def _replicates(spec: ExperimentSpec):
    """The job of `run_experiment`: job i is replicate i of the (sweep value,
    replicate) grid in order."""
    grid = [(value, b) for value in spec.sweep_values for b in range(spec.reps)]
    return lambda i: _run_replicate(spec, *grid[i])


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run the full sweep x replicate grid and aggregate the scores.

    Fully deterministic for a fixed spec, independent of `workers`: each
    replicate derives everything from base_seed + replicate index, and
    results are reduced in (sweep value, replicate) order.  `workers` is an
    integer >= 1: the replicates run on min(workers, replicates) processes,
    this one and warm workers of `solver._run_jobs`, whose fits' restarts
    then run serially.
    """
    check_fields({"workers": workers}, workers=1)
    count = len(spec.sweep_values) * spec.reps
    chunks = _run_jobs(_replicates, (spec,), count, _hire(min(workers, count)))
    records = [r for chunk in chunks for r in chunk]
    return ExperimentResult(spec=spec, rows=_aggregate(spec, records), records=records)


# ---------------------------------------------------------------------------
# Emission


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_text(rows, columns, head="") -> str:
    """CSV text of `rows` (mappings) under a header of `columns`, after `head`.

    A cell spells None as empty, a bool as true/false and a float by its repr.
    """
    buf = _io.StringIO()
    buf.write(head)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


def _json_text(meta: dict, rows: list, records: list) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "meta": meta,
        "rows": rows,
        "raw": [{c: r[c] for c in RAW_COLUMNS} for r in records],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _svg_text(result: ExperimentResult) -> str:
    spec = result.spec
    series = []
    for algorithm in spec.algorithms:
        xs, ys = [], []
        for row in result.rows:
            if row["algorithm"] == algorithm and row["crand_mean"] is not None:
                xs.append(row["sweep_value"])
                ys.append(row["crand_mean"])
        series.append((algorithm, xs, ys))
    return line_chart_svg(
        series,
        title=f"{spec.design} mixture: mean corrected Rand vs {spec.sweep_param}",
        x_label=spec.sweep_param,
        y_label="mean cRand",
    )


def check_formats(formats=FORMATS) -> tuple:
    """`formats` as a tuple: InputError unless a nonempty sequence of FORMATS."""
    return check_sequence(formats, "formats", choices=FORMATS)


def emit_outputs(result: ExperimentResult, out_dir, formats=FORMATS, prefix="experiment") -> dict:
    """Write the experiment outputs; returns {kind: path}.

    Raw per-replicate scores are always persisted next to whichever formats
    were requested, and every artifact except the wall-clock timings
    sidecar is byte-identical across repeated runs of the same spec.
    """
    formats = check_formats(formats)
    if not result.rows:
        raise InputError("refusing to emit an empty result table")
    records = [asdict(r) for r in result.records]
    meta = {**asdict(result.spec), "schema_version": SCHEMA_VERSION}
    meta_line = "#meta=" + json.dumps(meta, sort_keys=True) + "\n"
    # kind: (file name, text); the raw scores and the timings are always written
    artifacts = {
        "raw": (f"{prefix}_replicates.csv", lambda: csv_text(records, RAW_COLUMNS)),
        "timings": (f"{prefix}_timings.csv", lambda: csv_text(records, TIMING_COLUMNS)),
        "csv": (f"{prefix}_table.csv", lambda: csv_text(result.rows, TABLE_COLUMNS, meta_line)),
        "json": (f"{prefix}.json", lambda: _json_text(meta, result.rows, records)),
        "svg": (f"{prefix}_crand.svg", lambda: _svg_text(result)),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, (name, text) in artifacts.items():
        if kind in ("raw", "timings", *formats):
            paths[kind] = out / name
            paths[kind].write_text(text())
    return paths
