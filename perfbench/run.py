"""Offline benchmark of the kgroups library: one workload per process.

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --repeat 10 --seconds 30       # every workload, 10 seeds each

A single run sets the workload up, times two more cold set-ups in child
processes (set-up time is the median of the three), then runs whole rounds of
operations until `--seconds` have passed, checks every output against
`reference.py` and prints a table followed by one JSON line.  End-to-end
times are scaled by PROBE_REF_S over the median of a fixed probe timed before
every round; the table shows the raw values beside them.  `--trace 0` reports
the end-to-end metrics, `--trace 1` wraps the program's layer boundaries in
spans and reports the per-layer metrics.  `--repeat N` runs each workload N
times in fresh processes, plus one traced run, and prints the median and
quartiles of every metric.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One interpreter thread, no BLAS/OpenMP pools and a fixed hash seed.  The
# allocator gets fixed thresholds: glibc's default raises its mmap threshold
# to the size of the last large block freed (up to 32 MiB), after which the
# heap kept freed n x n blocks of large_n resident in a layout that differed
# from run to run, and peak_rss_mb took any of 196, 205, 212 and 220 MB.  At
# 4 MiB, the 1 MB and smaller matrices of study_cell and case_study come from
# the heap, as they do by default once warm, while every n x n block of
# large_n is mapped fresh and unmapped when freed, as any block above 32 MiB
# (n >= 2049) is by default.  The trim threshold is twice the mmap threshold,
# as glibc sets it.  Numpy asks for no transparent huge pages, so the host's
# supply of them does not enter either.
FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(4 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(8 << 20),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
SETUPS = 3  # cold set-ups per run: this process's own, and SETUPS - 1 children
# End-to-end times are scaled to a machine whose probe takes PROBE_REF_S
# (see README: the host's speed drifts by up to 1.5x between runs).
PROBE_REF_S = 0.025
PROBE_SHARE = 0.03  # probe time before a round, as a share of the last round


def ref_probe(block, out):
    """A fixed computation that calls no kgroups code: an interpreter loop
    and in-place elementwise numpy passes over `block` (no allocation, so
    the process's heap state does not enter), about half the time each."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += (i % 7) * 0.5
    for _ in range(8):
        np.multiply(block, 1.0001, out=out)
        np.add(out, 1.0, out=out)
    return time.perf_counter() - start


def quantiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# one run


def run_once(args):
    if not (SRC / "kgroups" / "__init__.py").is_file():
        print(f"error: no kgroups sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import resource

    import reference
    import selftest
    import workloads
    from spans import Tracer, median_or_zero

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    if tracer:
        tracer.call("benchmark.setup", workload.setup)
    else:
        workload.setup()
    setup_times = [time.perf_counter() - T0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_times[0]}))
        shutil.rmtree(out_dir)  # only the run's own inputs are kept
        return 0
    if not tracer:
        setup_times += [cold_setup(args.workload, args.seed) for _ in range(SETUPS - 1)]
    setup_s = statistics.median(setup_times)

    samples = {m: [] for _, m, _ in workloads.MODES}
    block = np.random.default_rng(0).random((1000, 1000))
    out = np.empty_like(block)
    probes = []
    region = 0.0
    rounds = 0
    last = 0.0
    while True:
        spent = 0.0
        while not probes or spent < PROBE_SHARE * last:
            probes.append(ref_probe(block, out))
            spent += probes[-1]
        start = time.perf_counter()
        got = tracer.call("benchmark.round", workload.round) if tracer else workload.round()
        last = time.perf_counter() - start
        region += last
        rounds += 1
        for metric, values in got.items():
            samples[metric].extend(values)
        # whole rounds only; stop when the next one would end more than
        # half a round past --seconds
        if region + 0.5 * region / rounds >= args.seconds:
            break
    fits = sum(len(v) for v in samples.values())
    fits_per_s = fits / region
    probe = statistics.median(probes)
    scale = PROBE_REF_S / probe
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.restore()  # the checks and self-test below are not the workload's
    correct = workload.failed == 0
    if not correct:
        print(f"FAILED: {workload.failed} of {workload.attempted} operations raised", file=sys.stderr)
    try:
        workload.check()
        selftest.run()
    except reference.CheckFailure as exc:
        correct = False
        print(f"CHECK FAILED: {exc}", file=sys.stderr)

    rows = []  # (name, value or None, unit, samples, raw value or None, p90 or None)
    if not tracer:
        rows.append(("setup_s", setup_s * scale, "s", len(setup_times), setup_s, None))
        for _, metric, _ in workloads.MODES:
            values = samples[metric]
            if not values:  # every fit of this mode failed: no time to report
                rows.append((metric, None, "s", 0, None, None))
                continue
            p90 = statistics.quantiles(values, n=10)[-1] * scale if len(values) >= 100 else None
            raw = statistics.median(values)
            rows.append((metric, raw * scale, "s", len(values), raw, p90))
        rows.append(("fits_per_s", fits_per_s / scale, "1/s", rounds, fits_per_s, None))
        rows.append(("peak_rss_mb", peak_rss_mb, "MB", 1, None, None))
    else:
        print(f"traced fits_per_s {fits_per_s / scale:.6g} 1/s over {rounds} rounds")
        rows.extend(layer_metrics(tracer, workload, median_or_zero))
        rows.append(("host.ref_probe_s", probe, "s", len(probes), None, None))
        tracer.write(out_dir / "spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  fits {fits}  "
          f"attempted {workload.attempted}  failed {workload.failed}  "
          f"region {region:.3f} s  probe median {probe * 1e3:.3f} ms of {len(probes)}")
    for name, value, unit, count, raw, p90 in rows:
        if value is None:
            shown = " no successful fit"
        elif tracer and value == 0:
            shown = "      absent"
        else:
            shown = f"{value:14.6g}"
        extra = f"  n={count}" if count is not None else ""
        extra += f"  raw {raw:.6g}" if raw is not None else ""
        extra += f"  p90 {p90:.6g}" if p90 is not None else ""
        print(f"  {name:28s} {shown} {unit:6s}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _, _, _ in rows},
    }))
    return 0 if correct else 1


def layer_metrics(tracer, workload, med):
    """Per-layer metrics from the spans of a traced run (0 where a layer
    did not run on this workload)."""
    from workloads import MODES

    # set-up work: the file load, and the first draw of large_n
    load = tracer.durations("dermatology.load_dermatology")
    generate = tracer.durations("datagen.generate")
    first_round = next(s[0] for s in tracer.spans if s[1] == "benchmark.round")
    tracer = tracer.since(first_round)  # leave the warm-up fits of set-up out
    n_fits = len(tracer.durations("solver.fit"))
    per_fit = (lambda count: count / n_fits) if n_fits else (lambda count: 0.0)
    children = ("energy.DistanceCache", "energy.disco", "partition.ClusterSumLedger",
                "partition.move_point", "solver.min_distance_pairs")
    sweep_self = []
    for span, covered in tracer.self_times("solver.fit", children):
        own = span[4] - span[3] - covered
        if own < 0:
            raise RuntimeError("child spans cover more than their fit span")
        sweep_self.append(own)
    scoring = ("solver.fit", "datagen.generate", "indices.contingency", "indices.index_report")
    harness_self = [s[4] - s[3] - covered for s, covered in tracer.self_times("harness.run_experiment", scoring)]
    log = workload.fit_log()
    results = [r for _, _, r in log]
    rounds = len(tracer.durations("benchmark.round"))
    second_fits = rounds * sum(1 for _, cfg, _ in log if cfg.mode == "second_variation")
    counts = {name: len(tracer.durations(name)) for name in
              ("partition.ClusterSumLedger", "partition.move_point", "solver.min_distance_pairs")}
    contingency = med(tracer.durations("indices.contingency"))
    report = med(tracer.durations("indices.index_report"))
    rows = [
        ("energy.cache_build_s", med(tracer.durations("energy.DistanceCache")), "s"),
        ("energy.cache_mb", 8.0 * workload.n**2 / 2**20, "MB"),
        ("energy.disco_s", med(tracer.durations("energy.disco")), "s"),
        ("partition.ledger_build_s", med(tracer.durations("partition.ClusterSumLedger")), "s"),
        ("partition.ledger_builds", per_fit(counts["partition.ClusterSumLedger"]), "count"),
        ("partition.move_point_us", 1e6 * med(tracer.durations("partition.move_point")), "us"),
        ("partition.move_points", per_fit(counts["partition.move_point"]), "count"),
        ("solver.sweep_self_s", med(sweep_self), "s"),
        ("solver.pairing_s", med(tracer.durations("solver.min_distance_pairs")), "s"),
        ("solver.pairing_calls", counts["solver.min_distance_pairs"] / second_fits if second_fits else 0.0, "count"),
    ]
    peaks = traced_peaks(log)
    for mode, _, _ in MODES:
        rows.append((f"solver.{mode.split('_')[0]}_peak_mb", peaks.get(mode, 0.0), "MB"))
    rows += [
        ("solver.passes", statistics.fmean(r.passes for r in results), "count"),
        ("solver.moves", statistics.fmean(r.moves for r in results), "count"),
        ("solver.best_restart_share", statistics.fmean(best_share(r) for r in results), "ratio"),
        ("datagen.generate_s", med(generate), "s"),
        ("indices.index_report_s", contingency + report, "s"),
        ("harness.self_s", med(harness_self), "s"),
        ("harness.emit_s", med(tracer.durations("harness.emit_outputs")), "s"),
        ("harness.artifact_bytes", float(workload.artifact_bytes()), "B"),
        ("dermatology.load_s", med(load), "s"),
    ]
    return [(name, value, unit, None, None, None) for name, value, unit in rows]


def traced_peaks(log):
    """Peak traced allocation (tracemalloc) during one fit of each mode, run
    with two restarts: tracemalloc slows the sweep several times over, and
    two restarts already show what one restart leaves alive into the next."""
    import dataclasses
    import gc
    import tracemalloc

    import kgroups.solver

    peaks = {}
    for data, cfg, _ in log:
        if cfg.mode in peaks:
            continue
        gc.collect()
        tracemalloc.start()
        try:
            kgroups.solver.fit(data, dataclasses.replace(cfg, restarts=min(2, cfg.restarts)))
            peaks[cfg.mode] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def best_share(result):
    best = min(result.per_restart_within)
    tol = 1e-9 * max(1.0, abs(best))
    return sum(1 for w in result.per_restart_within if w - best <= tol) / len(result.per_restart_within)


# ---------------------------------------------------------------------------
# repeat mode


def repeat(args):
    for name in WORKLOAD_NAMES:
        runs = []
        for i in range(args.repeat):
            runs.append(child_run(name, args.seed + i, args.seconds, 0))
        traced = child_run(name, args.seed, args.seconds, 1)
        print(f"== {name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} unit")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = quantiles(values)
            print(f"  {metric:28s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / q2:8.4f} "
                  f"{runs[0]['metrics'][metric]['unit']}")
        print(f"  correct {all(r['correct'] for r in runs)}  attempted "
              f"{[r['attempted'] for r in runs]}  failed {[r['failed'] for r in runs]}  probe "
              f"{min(r['probe_ms'] for r in runs):.1f}-{max(r['probe_ms'] for r in runs):.1f} ms")
        untraced = statistics.median(r["metrics"]["fits_per_s"]["value"] for r in runs)
        print(f"  traced run, seed {args.seed}: fits_per_s {traced['fits_per_s_traced']:.6g} 1/s, "
              f"tracing overhead {1.0 - traced['fits_per_s_traced'] / untraced:+.1%} of the untraced median")
        for metric, m in traced["metrics"].items():
            print(f"  traced {metric:28s} {m['value']:14.6g} {m['unit']}")
    return 0


def cold_setup(workload, seed):
    """Set-up time of `workload` in a fresh process, from its first line to
    the end of set-up, so every set-up counted pays the imports and first
    calls."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: set-up exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def child_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    traced_line = [ln for ln in lines if ln.startswith("traced fits_per_s")]
    result = json.loads(lines[-1])
    result["probe_ms"] = float(next(ln for ln in lines if ln.startswith("workload ")).split()[-4])
    if traced_line:
        result["fits_per_s_traced"] = float(traced_line[0].split()[2])
    return result


WORKLOAD_NAMES = ("study_cell", "large_n", "case_study")


def main(argv=None):
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **FIXED_ENV})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload (fresh processes)")
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.repeat:
        return repeat(args)
    if not args.workload:
        parser.error("--workload is required unless --repeat is given")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
