"""The trace corpus: a fixed set of fits whose every output bit is recorded.

Each fit of the set below is hashed (sha256) over its labels, the bits of
`within`, passes, moves, `converged`, the bits of each restart's objective
and every trace entry; one small `kgroups bench` spec's artifacts are
hashed too, at `--workers` 1 and 2.  `trace_corpus.json`, next to this
file, holds the digests, and `test_trace_corpus.py` recomputes them and
names every fit whose digest changed.  A speed or refactor change moves no
digest.  A change that moves some on purpose regenerates the file:

    PYTHONPATH=src python tests/trace_corpus.py

which prints the combined digest, a sha256 over every name and digest.

The fit set:
* data: normal clusters, lognormal, half-integer ties, duplicated rows and
  mixed scale (two sites 1e8 apart, spread 1e-8), at n in {24, 25, 60, 61,
  150, 151};
* every mode at each alpha in {0.5, 1, 1.5, 2} it allows, seeds 0 and 1,
  R = 3, traces on;
* first variation and kmeans from `init_labels` at n = 24 and 151;
* first variation from `init_labels` at n = 151 and second variation at
  alpha = 1, seed 0 and n = 150 once more with their restarts on warm
  workers: `solver._WORK_PER_WORKER` is set so that W is at most 3.  The
  workers serve every such fit in turn, across n, data and modes; they are
  reaped at the end, and no other child may be left.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import kgroups.solver as solver
from kgroups import FitConfig, fit
from kgroups.cli import main as cli_main

CORPUS_FILE = Path(__file__).with_name("trace_corpus.json")

SIZES = (24, 25, 60, 61, 150, 151)
RESTARTS = 3
SEEDS = (0, 1)
RUNS = [("first_variation", a) for a in (0.5, 1.0, 1.5, 2.0)]
RUNS += [("second_variation", a) for a in (0.5, 1.0, 1.5, 2.0)]
RUNS += [("kmeans_alpha2", 2.0)]
INIT_SIZES = (24, 151)
FORKED_RUNS = ("n=151/first_variation/alpha=1.0/init_labels", "n=150/second_variation/alpha=1.0/seed=0")
MAX_WORKERS = 3

BENCH_SPEC = {"design": "lognormal", "sweep_param": "separation", "sweep_values": [1.0, 3.0],
              "reps": 2, "n": 40, "k": 2, "restarts": 2}


def _data(kind, n):
    """(data, k) of one corpus data set."""
    g = np.random.default_rng([sum(map(ord, kind)), n])
    if kind == "normal":
        return g.standard_normal((n, 2)) + 3.0 * g.integers(0, 3, (n, 1)), 3
    if kind == "lognormal":
        return np.exp(g.standard_normal((n, 2))), 3
    if kind == "half_integer":
        return np.round(g.standard_normal((n, 1)) * 2) / 2, 4
    if kind == "duplicates":
        return g.standard_normal((n // 4, 2))[g.integers(0, n // 4, n)], 3
    if kind == "mixed_scale":
        return g.standard_normal((n, 2)) * 1e-8 + 1e8 * (np.arange(n) % 2)[:, None], 4
    raise ValueError(kind)


DATA_KINDS = ("normal", "lognormal", "half_integer", "duplicates", "mixed_scale")


def fit_set():
    """(name, data, FitConfig, init_labels) of every serial corpus fit."""
    for kind in DATA_KINDS:
        for n in SIZES:
            x, k = _data(kind, n)
            for mode, alpha in RUNS:
                for seed in SEEDS:
                    cfg = FitConfig(k=k, alpha=alpha, restarts=RESTARTS, rng_seed=seed, mode=mode)
                    yield f"{kind}/n={n}/{mode}/alpha={alpha}/seed={seed}", x, cfg, None
            if n not in INIT_SIZES:
                continue
            init = np.arange(n) % k
            for mode, alpha in (("first_variation", 1.0), ("kmeans_alpha2", 2.0)):
                cfg = FitConfig(k=k, alpha=alpha, restarts=RESTARTS, rng_seed=2, mode=mode)
                yield f"{kind}/n={n}/{mode}/alpha={alpha}/init_labels", x, cfg, init


def digest(result) -> str:
    """sha256 over every output bit of a FitResult fitted with its trace."""
    trace = [[list(item) if isinstance(item, tuple) else item, frm, to, w.hex()]
             for item, frm, to, w in result.trace]
    fields = [result.within.hex(), result.passes, result.moves, result.converged,
              [w.hex() for w in result.per_restart_within], trace]
    h = hashlib.sha256(result.partition.labels.astype("<i8").tobytes())
    h.update(json.dumps(fields).encode())
    return h.hexdigest()


def _fit_digest(x, cfg, init):
    return digest(fit(x, cfg, init_labels=init, collect_trace=True))


@contextlib.contextmanager
def _forked_restarts(n):
    """Restarts of an n-point fit on at most MAX_WORKERS workers."""
    saved = solver._WORK_PER_WORKER
    solver._WORK_PER_WORKER = n * RESTARTS // MAX_WORKERS
    try:
        yield
    finally:
        solver._WORK_PER_WORKER = saved


def fit_digests() -> dict:
    """{name: digest} of every corpus fit, the forked ones named fork/..."""
    out = {name: _fit_digest(x, cfg, init) for name, x, cfg, init in fit_set()}
    for name, x, cfg, init in fit_set():
        if name.endswith(FORKED_RUNS):
            with _forked_restarts(x.shape[0]):
                out[f"fork/{name}"] = _fit_digest(x, cfg, init)
    solver._reap_workers()
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return out
    raise AssertionError(f"a forked fit left child process {pid} behind")


def bench_digests() -> dict:
    """{workers=W/artifact: digest} of BENCH_SPEC's artifacts at W = 1 and 2,
    the wall-clock timings left out."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "spec.json")
        spec.write_text(json.dumps(BENCH_SPEC))
        for workers in (1, 2):
            target = Path(tmp, f"workers{workers}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["bench", "--spec", str(spec), "--workers", str(workers),
                                 "--out-dir", str(target)])
            if code != 0:
                raise AssertionError(f"kgroups bench --workers {workers} exited {code}")
            for path in sorted(target.iterdir()):
                if not path.name.endswith("_timings.csv"):
                    out[f"workers={workers}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def combined(fits: dict, bench: dict) -> str:
    lines = [f"{name} {d}\n" for part in (fits, bench) for name, d in sorted(part.items())]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def main() -> int:
    fits, bench = fit_digests(), bench_digests()
    payload = {"combined": combined(fits, bench), "fits": fits, "bench": bench}
    CORPUS_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"trace corpus: {len(fits)} fits, {len(bench)} bench artifacts, combined {payload['combined']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
