"""The three benchmark workloads.

Each workload builds its inputs in `setup` (from the run's seed, where the
spread of work allows it: see each class), and `round` runs one whole round
of timed operations (modes in round-robin order) and returns the per-fit
wall times it measured.  `check` compares everything the
rounds produced against `reference`, which shares no code with kgroups.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

import kgroups.cli
import kgroups.datagen
import kgroups.dermatology
import kgroups.harness
import kgroups.indices
import kgroups.solver
from kgroups import FitConfig, KGroupsError
from kgroups.datagen import Component, MixtureSpec
from kgroups.indices import ContingencyTable

import reference
from reference import CheckFailure

MODES = (
    ("first_variation", "fit_first_s", 1.0),
    ("second_variation", "fit_second_s", 1.0),
    ("kmeans_alpha2", "fit_kmeans_s", 2.0),
)
METRIC_FOR_ALGORITHM = {"kgroups_first": "fit_first_s", "kgroups_second": "fit_second_s", "kmeans": "fit_kmeans_s"}


def _timed_fit(x, cfg):
    gc.collect()
    start = time.perf_counter()
    result = kgroups.solver.fit(x, cfg)
    return result, time.perf_counter() - start


class _Workload:
    name = ""

    def __init__(self, seed, out_dir):
        self.seed = int(seed)
        self.out = Path(out_dir)
        self.attempted = 0
        self.failed = 0

    def setup(self):
        raise NotImplementedError

    def round(self):
        raise NotImplementedError

    def check(self):
        raise NotImplementedError

    def fit_log(self):
        """(data, FitConfig, FitResult) of every successful fit of the first round."""
        raise NotImplementedError

    def artifact_bytes(self):
        return 0


# ---------------------------------------------------------------------------
# study_cell: one lognormal bench cell through the CLI, in-process


class StudyCell(_Workload):
    """`kgroups bench` on one lognormal cell: separation 3, B = 100, n = 200,
    p = 1, k = 2, R = 5, all three algorithms, one worker, csv/json/svg."""

    name = "study_cell"
    REPS = 100
    N = 200
    SEPARATION = 3.0

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        # acceptance tests use replicate seeds 0-19, 400-799 and 902-906
        self.base_seed = 10_000 + 1_000 * self.seed
        self.captured = []  # per round: [(data, cfg, FitResult)] in call order
        self.artifacts = []  # per round: {file name: bytes} without the timings sidecar
        self.n = self.N

    def _bench(self, reps, out_dir):
        argv = [
            "bench", "--design", "lognormal", "--sweep-param", "separation",
            "--sweep-values", str(self.SEPARATION), "--reps", str(reps),
            "--seed", str(self.base_seed), "--n", str(self.N), "--k", "2",
            "--restarts", "5", "--workers", "1", "--out-dir", str(out_dir),
            "--prefix", "cell", "--format", "csv,json,svg",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = kgroups.cli.main(argv)
        if code != 0:
            raise CheckFailure(f"kgroups bench exited {code}")

    def setup(self):
        warm = self.out / "warm"
        self._bench(2, warm)
        shutil.rmtree(warm)

    def round(self):
        captured = []
        inner = kgroups.harness.fit

        def capturing_fit(data, cfg, **kwargs):
            result = inner(data, cfg, **kwargs)
            captured.append((data, cfg, result))
            return result

        cell_dir = self.out / "cell"
        kgroups.harness.fit = capturing_fit
        try:
            gc.collect()
            self._bench(self.REPS, cell_dir)
        finally:
            kgroups.harness.fit = inner
        self.captured.append(captured)
        self.artifacts.append(
            {p.name: p.read_bytes() for p in sorted(cell_dir.iterdir()) if not p.name.endswith("_timings.csv")}
        )
        samples = {m: [] for _, m, _ in MODES}
        with open(cell_dir / "cell_timings.csv") as fh:
            next(fh)
            for line in fh:
                _, _, algorithm, runtime = line.rstrip("\n").split(",")
                if runtime:
                    samples[METRIC_FOR_ALGORITHM[algorithm]].append(float(runtime))
        payload = json.loads(self.artifacts[-1]["cell.json"])
        self.attempted += len(payload["raw"])
        self.failed += sum(1 for r in payload["raw"] if r["failed"])
        return samples

    def artifact_bytes(self):
        return sum(len(b) for b in self.artifacts[0].values())

    def fit_log(self):
        return self.captured[0]

    def check(self):
        payload = json.loads(self.artifacts[0]["cell.json"])
        raw = payload["raw"]
        algorithms = [a for a in METRIC_FOR_ALGORITHM]
        if len(raw) != len(algorithms) * self.REPS:
            raise CheckFailure(f"study_cell: {len(raw)} records, expected {len(algorithms) * self.REPS}")
        if any(r["failed"] for r in raw) or any(row["failures"] for row in payload["rows"]):
            raise CheckFailure("study_cell: the artifacts record failed replicates")
        fits = self.captured[0]
        if len(fits) != len(raw):
            raise CheckFailure(f"study_cell: {len(fits)} fits ran, {len(raw)} records written")
        crand = {a: [] for a in algorithms}
        for rec, (data, cfg, result) in zip(raw, fits):
            b = rec["replicate"]
            x, truth, checksum = reference.lognormal_pair(self.base_seed + b, self.N, self.SEPARATION)
            if rec["seed"] != self.base_seed + b or rec["draw_checksum"] != checksum:
                raise CheckFailure(f"study_cell: replicate {b} is not the documented lognormal draw")
            if not np.array_equal(np.asarray(data), x):
                raise CheckFailure(f"study_cell: replicate {b} was fitted on other data")
            pairs = reference.greedy_pairs(x) if cfg.mode == "second_variation" else None
            reference.check_fit(x, cfg, result, pairs=pairs)
            mine = reference.adjusted_rand(truth, result.partition.labels)
            if not -1.0 <= rec["crand"] <= 1.0 or abs(mine - rec["crand"]) > 1e-12:
                raise CheckFailure(f"study_cell: cRand {rec['crand']!r} for replicate {b}, reference {mine!r}")
            crand[rec["algorithm"]].append(mine)
        means = {a: float(np.mean(v)) for a, v in crand.items()}
        if not (means["kgroups_first"] > means["kmeans"] and means["kgroups_second"] > means["kmeans"]):
            raise CheckFailure(f"study_cell: k-groups does not beat kmeans on lognormal data: {means}")
        for captured, artifacts in zip(self.captured[1:], self.artifacts[1:]):
            if artifacts != self.artifacts[0]:
                raise CheckFailure("study_cell: a later round wrote different artifacts")
            for (_, _, r0), (_, _, r) in zip(fits, captured):
                if not np.array_equal(r0.partition.labels, r.partition.labels):
                    raise CheckFailure("study_cell: a later round found a different partition")
        return means


# ---------------------------------------------------------------------------
# large_n: library fit calls on one large odd-n input


class _FitRounds(_Workload):
    """Rounds of `fit` calls, one per mode in round-robin order, each result
    scored against the planted classes with `index_report`."""

    restarts = 0
    k = 0

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        # per round: (x, truth, [(cfg, FitResult or the exception, IndexReport or None)])
        self.results = []

    def round_input(self, r):
        """(data matrix, planted classes, restart seed) of round r."""
        raise NotImplementedError

    def configs(self, seed):
        return [
            (metric, FitConfig(k=self.k, alpha=alpha, restarts=self.restarts, rng_seed=seed, mode=mode))
            for mode, metric, alpha in MODES
        ]

    def warm_up(self, x):
        for _, cfg in self.configs(0):
            kgroups.solver.fit(x, FitConfig(k=cfg.k, alpha=cfg.alpha, restarts=1, rng_seed=0, mode=cfg.mode))

    def round(self):
        x, truth, seed = self.round_input(len(self.results))
        samples = {}
        results = []
        for metric, cfg in self.configs(seed):
            self.attempted += 1
            try:
                result, seconds = _timed_fit(x, cfg)
            except KGroupsError as exc:
                self.failed += 1
                results.append((cfg, exc, None))
                continue
            samples[metric] = [seconds]
            report = kgroups.indices.index_report(ContingencyTable.from_labels(truth, result.partition.labels))
            results.append((cfg, result, report))
        self.results.append((x, truth, results))
        return samples

    def fit_log(self):
        x, _, results = self.results[0]
        return [(x, cfg, r) for cfg, r, _ in results if not isinstance(r, Exception)]

    def check(self):
        """Check every distinct (input, config) fit and its cRand score
        against the reference; a round that repeats both must repeat the
        result exactly.  Returns [(cfg, reference cRand)] of the distinct
        successful fits."""
        checked = {}
        scores = []
        for x, truth, results in self.results:
            for cfg, result, report in results:
                first = checked.setdefault((id(x), cfg), result)
                if first is not result:
                    if type(first) is not type(result):
                        raise CheckFailure(f"{self.name}: a fit failed in one round only")
                    if not isinstance(result, Exception) and (
                        first.within != result.within
                        or not np.array_equal(first.partition.labels, result.partition.labels)
                    ):
                        raise CheckFailure(f"{self.name}: a repeated fit found a different partition")
                    continue
                if isinstance(result, Exception):
                    continue
                pairs = None
                if cfg.mode == "second_variation" and x.shape[0] % 2 == 0:
                    pairs = reference.greedy_pairs(x)
                reference.check_fit(x, cfg, result, pairs=pairs)
                mine = reference.adjusted_rand(truth, result.partition.labels)
                if abs(mine - report.crand) > 1e-12:
                    raise CheckFailure(f"{self.name}: index_report cRand {report.crand!r}, reference {mine!r}")
                scores.append((cfg, mine))
        return scores


class LargeN(_FitRounds):
    """k = 6 lognormal location mixture (component j is exp(j + N(0, 1)) per
    coordinate, equal weights), p = 2, odd n = 2001, R = 5, drawn once with
    `kgroups.datagen.generate`; every round fits it with restart seed 0.

    Neither the draw nor the restart seed follows the run seed: the time of
    one fit varies from draw to draw by about 15 %, and from restart seed to
    restart seed by up to 1.5x (first_variation, 1.4-2.1 s over twelve
    seeds), while a run holds only five or six fits of each mode.  With both
    fixed, every fit of a mode does the same work, so the median moves with
    the machine alone.  n = 2001 rather than 3001 gives each mode about six
    fits in a 30 s run instead of three."""

    name = "large_n"
    N = 2001
    P = 2
    k = 6
    restarts = 5
    DRAW_SEED = 3001

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.n = self.N

    def round_input(self, r):
        return self.x, self.truth, 0

    def setup(self):
        spec = MixtureSpec(
            components=tuple(Component(1.0 / self.k, "lognormal", (float(j), 1.0)) for j in range(self.k)),
            dim=self.P,
            n=self.N,
            seed=self.DRAW_SEED,
        )
        sample = kgroups.datagen.generate(spec)
        self.x, self.truth = sample.data, sample.truth
        self.warm_up(self.x[:301])


# ---------------------------------------------------------------------------
# case_study: the dermatology case study's shape on synthetic files

CLASS_SIZES = (112, 61, 72, 49, 52, 20)  # the UCI file's six disease classes
N_ORDINAL = 33
N_MISSING_AGE = 8


def write_dermatology_like(path, entropy):
    """Write 366 rows in the UCI dermatology layout: 33 ordinal attributes in
    0..3, age (8 of them '?'), class 1..6 with the real class sizes.

    Each class has its own level per attribute; a row rounds its class
    levels plus unit-scale noise and clips them to 0..3, so the classes
    overlap but stay recoverable and many distances tie.
    """
    rng = np.random.default_rng(np.random.SeedSequence([*entropy, 366]))
    levels = rng.integers(0, 4, size=(len(CLASS_SIZES), N_ORDINAL))
    ages = rng.integers(15, 60, size=len(CLASS_SIZES))
    classes = np.repeat(np.arange(len(CLASS_SIZES)), CLASS_SIZES)
    rng.shuffle(classes)
    n = classes.shape[0]
    ordinal = np.clip(np.rint(levels[classes] + rng.normal(0.0, 1.0, size=(n, N_ORDINAL))), 0, 3).astype(int)
    age = np.clip(np.rint(ages[classes] + rng.normal(0.0, 12.0, size=n)), 0, 75).astype(int)
    missing = set(rng.choice(n, size=N_MISSING_AGE, replace=False).tolist())
    lines = []
    for i in range(n):
        fields = [str(v) for v in ordinal[i]]
        fields.append("?" if i in missing else str(age[i]))
        fields.append(str(classes[i] + 1))
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")


class CaseStudy(_FitRounds):
    """k = 6, R = 20, fit seed 0, alpha = 1 (kmeans at alpha = 2), the
    `run_dermatology` settings, on synthetic 366 x 34 dermatology-format
    files read by `load_dermatology`.

    Set-up writes and loads FILES files; round r fits file r mod FILES.  The
    cost of one fit varies from file to file by up to 25 % (second
    variation).  A run holds 30-40 rounds, so FILES = 40 gives each round
    its own file: with eight files cycled, the run's median rested on eight
    draws and moved with the seed by 0.10-0.13 of itself (0.03-0.05 over
    runs of one seed)."""

    name = "case_study"
    k = 6
    restarts = 20
    FILES = 40
    CRAND_FLOOR = 0.5  # chance level is 0

    def setup(self):
        self.samples = []
        for f in range(self.FILES):
            path = self.out / f"dermatology-{f}.data"
            write_dermatology_like(path, [self.seed, f])
            self.samples.append(kgroups.dermatology.load_dermatology(path))
        self.n = self.samples[0].data.shape[0]
        self.warm_up(self.samples[0].data)

    def round_input(self, r):
        sample = self.samples[r % self.FILES]
        return sample.data, sample.truth, 0  # restart seed 0, as run_dermatology

    def check(self):
        for sample in self.samples:
            if sample.data.shape != (358, 34):
                raise CheckFailure(f"case_study: loaded shape {sample.data.shape}, expected (358, 34)")
        scores = super().check()
        for cfg, crand in scores:
            if crand < self.CRAND_FLOOR:
                raise CheckFailure(f"case_study: {cfg.mode} cRand {crand:.3f} is below {self.CRAND_FLOOR}")
        return scores


WORKLOADS = {w.name: w for w in (StudyCell, LargeN, CaseStudy)}
