"""Acceptance suite: one test per release criterion.

Each test prints an `ACCEPTANCE <id> <PASS|FAIL>` line (visible with
`pytest -v -s`) and then asserts, so the printed verdict always matches the
test outcome.  The dermatology criterion needs the real UCI data file and
skips, with instructions, when no copy is available.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from kgroups import (
    ClusterSumLedger,
    DistanceCache,
    ExperimentSpec,
    FitConfig,
    Partition,
    adjusted_rand,
    disco,
    emit_outputs,
    energy_statistic,
    fit,
    mth_variation_delta,
    rand_index,
    run_experiment,
)
from kgroups.dermatology import find_dermatology, load_dermatology, run_dermatology
from kgroups.indices import ContingencyTable

from conftest import all_partitions, brute_within, random_instance

WORKERS = 2
ALPHA_GRID = (0.5, 1.0, 1.5, 2.0)


def report(cid, ok, detail):
    print(f"\nACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def crand_by_algorithm(result, value):
    return {
        row["algorithm"]: row["crand_mean"]
        for row in result.rows
        if row["sweep_value"] == value
    }


def test_criterion_1_disco_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    min_between = np.inf
    for t in range(500):
        x, labels, _ = random_instance(rng, n_lo=6, n_hi=50)
        alpha = float(rng.uniform(0.05, 2.0)) if t % 5 else ALPHA_GRID[t % 4]
        d = disco(labels, DistanceCache(x, alpha))
        worst = max(worst, abs(d.total - (d.within + d.between)) / max(1.0, d.total))
        min_between = min(min_between, d.between)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and min_between >= 0.0 and elapsed < 10.0
    report(
        1,
        ok,
        f"disco identity on 500 triples: worst rel gap {worst:.2e}, "
        f"min between {min_between:.2e}, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_update_formula_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_first = worst_mth = 0.0
    for t in range(200):
        x, labels, k = random_instance(rng, n_lo=10, n_hi=36)
        alpha = ALPHA_GRID[t % 4]
        cache = DistanceCache(x, alpha)
        part = Partition(labels, k)
        ledger = ClusterSumLedger(part, cache)
        w_before = brute_within(x, labels, alpha)

        movable = np.flatnonzero(part.sizes[part.labels] >= 2)
        i = int(rng.choice(movable))
        to = int((part.labels[i] + 1) % k)
        delta = mth_variation_delta(part, ledger, [i], to)
        moved = labels.copy()
        moved[i] = to
        oracle = w_before - brute_within(x, moved, alpha)
        worst_first = max(worst_first, abs(delta - oracle) / max(1.0, abs(oracle)))

        m = t % 3 + 1
        frm = int(np.argmax(part.sizes))
        members = part.cluster_indices(frm)
        if members.size >= m + 1:
            pts = rng.choice(members, size=m, replace=False)
            dm = mth_variation_delta(part, ledger, pts, (frm + 1) % k)
            moved = labels.copy()
            moved[pts] = (frm + 1) % k
            oracle = w_before - brute_within(x, moved, alpha)
            worst_mth = max(worst_mth, abs(dm - oracle) / max(1.0, abs(oracle)))
    elapsed = time.perf_counter() - start
    ok = worst_first <= 1e-9 and worst_mth <= 1e-9 and elapsed < 30.0
    report(
        2,
        ok,
        f"relocation gains vs scratch on 200 moves: worst rel err "
        f"single {worst_first:.2e}, m-point {worst_mth:.2e}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_alpha2_equivalence():
    rng = np.random.default_rng(303)

    # (a) objective equality with the squared-deviation form
    worst_obj = 0.0
    for _ in range(50):
        x, labels, k = random_instance(rng)
        d = disco(labels, DistanceCache(x, 2.0))
        twss = 0.0
        for j in range(k):
            pts = x[np.flatnonzero(labels == j)]
            twss += float(((pts - pts.mean(axis=0)) ** 2).sum())
        worst_obj = max(worst_obj, abs(d.within - twss) / max(1.0, twss))

    # (b) point-to-cluster statistic halves to the squared centroid distance
    worst_upd = 0.0
    for t in range(200):
        x, labels, k = random_instance(rng)
        cache = DistanceCache(x, 2.0)
        part = Partition(labels, k)
        if t % 2:
            i = int(rng.integers(part.n))
            j = int(part.labels[i])
            ledger = ClusterSumLedger(part, cache)
            nj = int(part.sizes[j])
            xi = 2.0 * float(ledger.sums[i, j]) / nj - 2.0 * float(ledger.within[j]) / (nj * nj)
            members = part.cluster_indices(j)
        else:
            j = int(rng.integers(k))
            members = part.cluster_indices(j)
            outside = np.flatnonzero(labels != j)
            i = int(rng.choice(outside))
            xi = energy_statistic([i], members, cache)
        d2 = float(((x[i] - x[members].mean(axis=0)) ** 2).sum())
        worst_upd = max(worst_upd, abs(xi / 2.0 - d2) / max(1.0, d2))

    # (c) identical move traces, centroid path vs powered-distance path
    trace_matches = 0
    for seed in range(20):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(20, 60))
        p = int(gen.integers(1, 4))
        k = int(gen.integers(2, 5))
        x = gen.standard_normal((n, p)) * 2
        ra = fit(
            x, FitConfig(k=k, alpha=2.0, restarts=1, rng_seed=seed), collect_trace=True
        )
        rb = fit(
            x,
            FitConfig(k=k, alpha=2.0, restarts=1, rng_seed=seed, mode="kmeans_alpha2"),
            collect_trace=True,
        )
        if [m[:3] for m in ra.trace] == [m[:3] for m in rb.trace]:
            trace_matches += 1

    ok = worst_obj <= 1e-9 and worst_upd <= 1e-9 and trace_matches == 20
    report(
        3,
        ok,
        f"alpha=2 equivalence: objective rel err {worst_obj:.2e}, update rel err "
        f"{worst_upd:.2e}, move traces identical on {trace_matches}/20 instances",
    )


def test_criterion_4_normal_mixture_parity():
    spec = ExperimentSpec(
        design="normal",
        sweep_param="separation",
        sweep_values=(3.0,),
        reps=100,
        base_seed=400,
        n=200,
        k=2,
        alpha=1.0,
    )
    means = crand_by_algorithm(run_experiment(spec, workers=WORKERS), 3.0)
    gaps = {
        f"{a}-{b}": abs(means[a] - means[b])
        for a in means
        for b in means
        if a < b
    }
    ok = all(g <= 0.05 for g in gaps.values())
    report(
        4,
        ok,
        "normal mixture parity (B=100): "
        + ", ".join(f"{k}={v:.3f}" for k, v in sorted(means.items()))
        + f"; max pairwise gap {max(gaps.values()):.3f} (<= 0.05)",
    )


def test_criterion_5_lognormal_dominance():
    spec = ExperimentSpec(
        design="lognormal",
        sweep_param="separation",
        sweep_values=(3.0,),
        reps=100,
        base_seed=500,
        n=200,
        k=2,
        alpha=1.0,
    )
    means = crand_by_algorithm(run_experiment(spec, workers=WORKERS), 3.0)
    margin_first = means["kgroups_first"] - means["kmeans"]
    margin_second = means["kgroups_second"] - means["kmeans"]
    ok = margin_first >= 0.05 and margin_second >= 0.05
    report(
        5,
        ok,
        f"lognormal dominance (B=100): first +{margin_first:.3f}, "
        f"second +{margin_second:.3f} over kmeans (each >= 0.05)",
    )


def test_criterion_6_cauchy_robustness():
    spec = ExperimentSpec(
        design="cauchy",
        sweep_param="separation",
        sweep_values=(3.0,),
        reps=100,
        base_seed=600,
        n=200,
        k=2,
        alpha=0.5,
    )
    means = crand_by_algorithm(run_experiment(spec, workers=WORKERS), 3.0)
    ok = (
        means["kgroups_first"] > means["kmeans"]
        and means["kgroups_second"] > means["kmeans"]
    )
    report(
        6,
        ok,
        "cauchy mixture at alpha=0.5 (B=100): "
        + ", ".join(f"{k}={v:.3f}" for k, v in sorted(means.items())),
    )


def test_criterion_7_cubic_dimension_sweep():
    spec = ExperimentSpec(
        design="cubic",
        sweep_param="dim",
        sweep_values=(20.0, 40.0),
        reps=100,
        base_seed=700,
        n=200,
        k=2,
        alpha=1.0,
    )
    result = run_experiment(spec, workers=WORKERS)
    at20 = crand_by_algorithm(result, 20.0)
    at40 = crand_by_algorithm(result, 40.0)
    ok = (
        at20["kgroups_first"] >= 0.95
        and at20["kmeans"] <= 0.15
        and 0.10 <= at20["kgroups_second"] <= 0.40
        and at40["kgroups_first"] >= 0.99
    )
    report(
        7,
        ok,
        f"cubic sweep (B=100): d=20 first={at20['kgroups_first']:.3f} (>=0.95), "
        f"kmeans={at20['kmeans']:.3f} (<=0.15), second={at20['kgroups_second']:.3f} "
        f"(in [0.10,0.40]); d=40 first={at40['kgroups_first']:.3f} (>=0.99)",
    )


def test_criterion_8_dermatology_case_study():
    path = find_dermatology()
    if path is None:
        pytest.skip(
            "dermatology data file not available (no copy vendored and this "
            "environment cannot reach the UCI archive); place the raw file at "
            "data/dermatology.data or set KGROUPS_DERMATOLOGY_DATA to run "
            "criterion 8"
        )
    start = time.perf_counter()
    sample = load_dermatology(path)
    n, p = sample.data.shape
    reports = run_dermatology(
        sample,
        algorithms=("kgroups_first", "kgroups_second", "kmeans"),
        restarts=20,
        seed=0,
    )
    elapsed = time.perf_counter() - start
    first = reports["kgroups_first"]
    km = reports["kmeans"]
    ok = (
        (n, p) == (358, 34)
        and 0.88 <= first.crand <= 0.95
        and 0.96 <= first.rand <= 0.98
        and 0.78 <= km.crand <= 0.88
        and elapsed < 300.0
    )
    report(
        8,
        ok,
        f"dermatology (n={n}, p={p}): first cRand={first.crand:.4f} "
        f"(in [0.88,0.95]) Rand={first.rand:.4f} (in [0.96,0.98]); "
        f"kmeans cRand={km.crand:.4f} (in [0.78,0.88]); {elapsed:.0f}s (< 300s)",
    )


def test_criterion_9a_descent_and_termination():
    rng = np.random.default_rng(901)
    violations = 0
    for seed in range(15):
        x, _, _ = random_instance(rng, n_lo=25, n_hi=60)
        for mode, alpha in (
            ("first_variation", 0.5),
            ("first_variation", 1.0),
            ("second_variation", 1.0),
            ("kmeans_alpha2", 2.0),
        ):
            cfg = FitConfig(
                k=3, alpha=alpha, restarts=2, max_passes=50, rng_seed=seed, mode=mode
            )
            res = fit(x, cfg, collect_trace=True)
            ws = [w for *_, w in res.trace]
            if any(b > a * (1 + 1e-12) + 1e-12 for a, b in zip(ws, ws[1:])):
                violations += 1
            if res.passes > cfg.max_passes:
                violations += 1
    report(
        "9a",
        violations == 0,
        f"descent monotonicity and termination within max_passes: "
        f"{violations} violations over 15 seeds x 4 fit modes",
    )


def test_criterion_9b_seed_determinism_byte_identical():
    spec = ExperimentSpec(
        design="normal",
        sweep_param="separation",
        sweep_values=(2.0, 3.0),
        reps=5,
        base_seed=902,
        n=60,
        k=2,
        restarts=2,
    )
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        p1 = emit_outputs(run_experiment(spec, workers=1), tmp / "a")
        p2 = emit_outputs(run_experiment(spec, workers=1), tmp / "b")
        p3 = emit_outputs(run_experiment(spec, workers=WORKERS), tmp / "c")
        identical = all(
            p1[kind].read_bytes() == p2[kind].read_bytes() == p3[kind].read_bytes()
            for kind in ("csv", "json", "raw", "svg")
        )
    report(
        "9b",
        identical,
        "byte-identical CSV/JSON/raw/SVG outputs across reruns and worker counts",
    )


def _pair_mask(labels):
    mask = 0
    bit = 0
    n = labels.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                mask |= 1 << bit
            bit += 1
    return mask


def test_criterion_9c_index_brute_force_equivalence():
    # exhaustive agreement between the contingency-table formulas and a
    # direct pair-membership enumeration, over all partition pairs, n <= 7
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for n in range(2, 8):
        parts = all_partitions(n)
        masks = [_pair_mask(p) for p in parts]
        total = n * (n - 1) // 2
        for i, a in enumerate(parts):
            mi = masks[i]
            ri = bin(mi).count("1")
            for j in range(i, len(parts)):
                b = parts[j]
                mj = masks[j]
                t = ContingencyTable.from_labels(a, b)
                both = bin(mi & mj).count("1")
                rj = bin(mj).count("1")
                agree = total - bin(mi ^ mj).count("1")
                rand_oracle = agree / total
                expected = ri * rj / total
                maximum = (ri + rj) / 2.0
                if maximum == expected:
                    ari_oracle = 1.0 if both == maximum else 0.0
                else:
                    ari_oracle = (both - expected) / (maximum - expected)
                worst = max(
                    worst,
                    abs(rand_index(t) - rand_oracle),
                    abs(adjusted_rand(t) - ari_oracle),
                )
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        "9c",
        worst <= 1e-12,
        f"rand/crand equal independent pair counting on {checked} partition "
        f"pairs (n<=7, exhaustive), worst gap {worst:.1e}, {elapsed:.0f}s",
    )


def test_criterion_9d_null_crand_mean():
    rng = np.random.default_rng(904)
    vals = []
    for _ in range(1000):
        a = rng.integers(0, 2, size=200)
        b = rng.integers(0, 2, size=200)
        vals.append(adjusted_rand(ContingencyTable.from_labels(a, b)))
    mean = float(np.mean(vals))
    report(
        "9d",
        abs(mean) <= 0.02,
        f"null corrected Rand over 1000 random-label trials: mean {mean:+.4f} (|.| <= 0.02)",
    )
