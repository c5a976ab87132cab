"""Self-test of the reference checks: each must catch a perturbed output,
and the check that fires must be the one aimed at.

Every benchmark run calls `run()` after its own checks, so a check that has
gone blind fails the run.  Standalone: `python3 perfbench/selftest.py`.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference
from reference import CheckFailure


def _fake(result, labels=None, within=None, restarts=None):
    """A FitResult look-alike with the partition labels, `within` or
    `per_restart_within` replaced.  A new `within` is also every restart's
    objective, unless `restarts` is given, so the restart check passes and
    the checks after it are reached."""
    fake = SimpleNamespace(
        partition=SimpleNamespace(labels=np.array(result.partition.labels)),
        within=result.within,
        per_restart_within=list(result.per_restart_within),
        passes=result.passes,
    )
    if labels is not None:
        fake.partition.labels = labels
    if within is not None:
        fake.within = within
        fake.per_restart_within = [within] * len(fake.per_restart_within)
    if restarts is not None:
        fake.per_restart_within = restarts
    return fake


def _must_fail(what, check, fn):
    """`fn` must raise CheckFailure from the check named `check`."""
    try:
        fn()
    except CheckFailure as exc:
        if exc.check == check:
            return
        raise CheckFailure(f"self-test: {what} tripped the {exc.check} check, not the {check} check") from exc
    raise CheckFailure(f"self-test: the {check} check missed {what}")


def run():
    from kgroups import FitConfig, fit

    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(0.0, 1.0, (30, 2)), rng.normal(4.0, 1.0, (30, 2))])
    pairs = reference.greedy_pairs(x)
    for mode, alpha in (("first_variation", 1.0), ("second_variation", 1.0), ("kmeans_alpha2", 2.0)):
        cfg = FitConfig(k=2, alpha=alpha, restarts=3, rng_seed=1, mode=mode)
        result = fit(x, cfg)
        mode_pairs = pairs if mode == "second_variation" else None

        def check(fake, cfg=cfg, mode_pairs=mode_pairs):
            return lambda: reference.check_fit(x, cfg, fake, pairs=mode_pairs)

        def relabelled(labels, alpha=alpha):
            return _fake(result, labels=labels, within=reference.Reference(x, labels, 2, alpha).objective())

        check(result)()
        w = result.within
        _must_fail(f"{mode}: within off by 1e-8", "within", check(_fake(result, within=w * (1 + 1e-8))))
        _must_fail(f"{mode}: a restart below within", "restarts",
                   check(_fake(result, restarts=[w] * (cfg.restarts - 1) + [w * (1 - 1e-6)])))
        late = copy.copy(result)
        late.passes = cfg.max_passes
        _must_fail(f"{mode}: a fit that hit max_passes", "passes", check(late))
        labels = np.asarray(result.partition.labels)
        _must_fail(f"{mode}: an empty cluster", "clusters", check(relabelled(np.zeros_like(labels))))
        # one point of point 0's cluster moved to the other cluster
        moved = labels.copy()
        i = int(np.flatnonzero(moved == moved[0])[-1])
        moved[i] = 1 - moved[i]
        if mode == "second_variation":
            _must_fail(f"{mode}: one point moved", "pair_split", check(relabelled(moved)))
            # the reference pair of point 0, moved whole
            a, b = next(p for p in pairs if 0 in p)
            moved = labels.copy()
            moved[[a, b]] = 1 - moved[a]
            _must_fail(f"{mode}: one pair moved", "pair_gain", check(relabelled(moved)))
        else:
            _must_fail(f"{mode}: one point moved", "point_gain", check(relabelled(moved)))

    truth = np.repeat([0, 1, 2], 4)
    if reference.adjusted_rand(truth, truth[::-1] + 5) != 1.0:
        raise CheckFailure("self-test: adjusted Rand of a relabelled partition is not 1")
    if not abs(reference.adjusted_rand(truth, np.tile([0, 1, 2], 4)) - (-7.0 / 48.0)) < 1e-12:
        raise CheckFailure("self-test: adjusted Rand of a crossed partition is not -7/48")


if __name__ == "__main__":
    root = Path(__file__).resolve().parent
    sys.path[:0] = [str(root.parent / "src"), str(root)]
    run()
    print("reference checks: every perturbation caught")
