import csv
import json
import os
import typing
import xml.etree.ElementTree as ET
from dataclasses import fields, replace

import numpy as np
import pytest

import kgroups.harness as harness
import kgroups.solver as solver
from kgroups import (
    Component,
    ContingencyTable,
    DistanceCache,
    ExperimentSpec,
    FitConfig,
    InputError,
    MixtureSpec,
    NumericInvariantError,
    disco,
    emit_outputs,
    fit,
    run_experiment,
)
from kgroups.harness import default_alpha, design_mixture
from kgroups.partition import Partition, random_partition
from test_solver import _assert_only_workers_left, _forks, _on_workers


def tiny_spec(**overrides):
    base = dict(
        design="normal",
        sweep_param="separation",
        sweep_values=(1.0, 3.0),
        algorithms=("kgroups_first", "kmeans"),
        reps=3,
        base_seed=10,
        n=40,
        k=2,
        restarts=2,
        max_passes=30,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def raw_dicts(records):
    return [{c: getattr(r, c) for c in harness.RAW_COLUMNS} for r in records]


def assert_csv_matches(lines, columns, expected):
    """Each CSV cell spells the JSON value of the same column: None as empty, bools lower-case."""

    def same(cell, value):
        if value is None:
            return cell == ""
        if isinstance(value, bool):
            return cell == ("true" if value else "false")
        if isinstance(value, float):
            return float(cell) == value
        return cell == str(value)

    header, *body = csv.reader(lines)
    assert tuple(header) == columns
    assert len(body) == len(expected)
    for cells, record in zip(body, expected):
        for name, cell in zip(columns, cells, strict=True):
            assert same(cell, record[name]), (name, cell, record[name])


class TestSpecValidation:
    def test_sweep_must_increase(self):
        with pytest.raises(InputError):
            tiny_spec(sweep_values=(3.0, 1.0))

    def test_algorithms_must_be_known(self):
        with pytest.raises(InputError):
            tiny_spec(algorithms=("kgroups_first", "dbscan"))

    def test_algorithms_must_be_nonempty(self):
        with pytest.raises(InputError):
            tiny_spec(algorithms=())

    def test_reps_positive(self):
        with pytest.raises(InputError):
            tiny_spec(reps=0)

    @pytest.mark.parametrize("k", [0, 41])
    def test_k_must_lie_in_one_to_n(self, k):
        with pytest.raises(InputError):
            tiny_spec(n=40, k=k)

    def test_second_variation_needs_k_pairs(self):
        with pytest.raises(InputError):
            tiny_spec(algorithms=("kgroups_second",), n=5, k=3)
        tiny_spec(algorithms=("kgroups_second",), n=6, k=3)
        tiny_spec(n=5, k=3)  # the single-point modes can fit it

    @pytest.mark.parametrize("settings, field", [
        (dict(sweep_values="35"), "sweep_values"),  # not the sweep (3.0, 5.0)
        (dict(sweep_values=b"12"), "sweep_values"),  # not (49.0, 50.0)
        (dict(sweep_values=3.0), "sweep_values"),
        (dict(sweep_values=None), "sweep_values"),
        (dict(sweep_values=(1.0, "x")), "sweep_values"),
        (dict(sweep_values=(1.0, None)), "sweep_values"),
        (dict(sweep_values=(True, 3.0)), "sweep_values"),  # not the sweep (1.0, 3.0)
        (dict(algorithms="kmeans"), "algorithms"),
        (dict(algorithms=None), "algorithms"),
        (dict(algorithms=3), "algorithms"),
    ])
    def test_ill_typed_sequence_fields_raise_input_error(self, settings, field):
        with pytest.raises(InputError, match=f"^{field} must be a nonempty sequence"):
            tiny_spec(**settings)

    @pytest.mark.parametrize("values", [(1, 1.5), (0, 1), (1, float("inf"))])
    def test_dim_sweep_values_must_be_positive_integers(self, values):
        with pytest.raises(InputError):
            tiny_spec(sweep_param="dim", sweep_values=values)

    @pytest.mark.parametrize("build, field", [
        (lambda: FitConfig(k=2.5), "k"),
        (lambda: FitConfig(k=True), "k"),
        (lambda: FitConfig(k="2"), "k"),
        (lambda: FitConfig(k=2, restarts=1.5), "restarts"),
        (lambda: FitConfig(k=2, max_passes=2.5), "max_passes"),
        (lambda: FitConfig(k=2, rng_seed=1.5), "rng_seed"),
        (lambda: FitConfig(k=2, rng_seed=-1), "rng_seed"),
        (lambda: MixtureSpec((Component(1.0, "normal", (0, 1)),), dim=1, n=5, seed=-1), "seed"),
        (lambda: MixtureSpec((Component(1.0, "normal", (0, 1)),), dim=1, n=5.5, seed=0), "n"),
        (lambda: MixtureSpec((Component(1.0, "normal", (0, 1)),), dim=True, n=5, seed=0), "dim"),
        (lambda: tiny_spec(n=20.5), "n"),
        (lambda: tiny_spec(k=True), "k"),
        (lambda: tiny_spec(reps=1.5), "reps"),
        (lambda: tiny_spec(base_seed=-1), "base_seed"),
        (lambda: tiny_spec(restarts=2.0), "restarts"),
    ])
    def test_ill_typed_integer_fields_raise_input_error(self, build, field):
        with pytest.raises(InputError, match=f"^{field} must be a"):
            build()

    @pytest.mark.parametrize("build, field", [
        (lambda: design_mixture("normal", dim=2.5), "dim"),
        (lambda: design_mixture("normal", n=20.7), "n"),
        (lambda: random_partition(10, 2.5, 0), "k"),
        (lambda: Partition([0, 1, 1], 2.9), "k"),
        # label arrays: no float truncated, no bool read as 0 or 1, no 2-D array flattened
        (lambda: Partition([0.5, 1.7, 0.2], 2), "labels"),
        (lambda: Partition([True, False]), "labels"),
        (lambda: Partition([[0, 1], [1, 0]]), "labels"),
        (lambda: ContingencyTable.from_labels([0.5, 1.7, 0.2], [0, 1, 1]), "a"),
        (lambda: disco([0.2, 0.9, 0.5, 1.1, 1.7, 1.2], DistanceCache(np.arange(6.0), 1.0)), "labels"),
        (lambda: fit(np.arange(6.0), FitConfig(k=2, restarts=1),
                     init_labels=[0.9, 0.1, 0.4, 1.2, 1.5, 1.9]), "labels"),
    ])
    def test_counts_are_not_truncated(self, build, field):
        with pytest.raises(InputError, match=f"^{field} must be an integer"):
            build()

    @pytest.mark.parametrize("cls, base", [
        (FitConfig, dict(k=2)),
        (ExperimentSpec, dict(design="normal", sweep_param="separation", sweep_values=(3.0,), n=20)),
        (MixtureSpec, dict(components=(Component(1.0, "normal", (0, 1)),), dim=1, n=5, seed=0)),
        (Component, dict(weight=1.0, family="normal", params=(0, 1))),
    ])
    def test_every_number_field_is_checked(self, cls, base):
        # read from the annotations, so a number field added later is covered too
        hints = typing.get_type_hints(cls)
        checked = 0
        for f in fields(cls):
            if hints[f.name] is int:
                bad = [1.5, True, "2", -1 if "seed" in f.name else 0]
            elif hints[f.name] in (float, float | None):
                bad = ["abc", True, float("nan"), float("inf")]
            else:
                continue
            checked += 1
            for value in bad:
                with pytest.raises(InputError, match=f"^{f.name} "):
                    cls(**{**base, f.name: value})
        assert checked

    def test_numpy_integers_are_integers(self):
        cfg = FitConfig(k=np.int64(2), rng_seed=np.uint32(7))
        assert (cfg.k, cfg.rng_seed) == (2, 7)

    def test_alpha_policy(self):
        assert default_alpha("cauchy") == 0.5
        assert default_alpha("normal") == 1.0
        assert default_alpha("cubic") == 1.0

    def test_design_mixture_families(self):
        assert design_mixture("cauchy").components[0].family == "cauchy"
        cubic = design_mixture("cubic", dim=7)
        assert cubic.dim == 7
        assert cubic.components[1].params == (0.3, 0.7)


class TestRunExperiment:
    def test_table_shape_and_raw_persistence(self):
        spec = tiny_spec()
        result = run_experiment(spec)
        assert len(result.rows) == len(spec.sweep_values) * len(spec.algorithms)
        assert len(result.records) == len(spec.sweep_values) * len(spec.algorithms) * spec.reps
        for row in result.rows:
            assert row["failures"] == 0
            assert -1.0 <= row["crand_mean"] <= 1.0
            assert row["crand_se"] >= 0.0

    def test_same_draw_shared_by_algorithms(self):
        result = run_experiment(tiny_spec())
        by_rep = {}
        for r in result.records:
            by_rep.setdefault((r.sweep_value, r.replicate), set()).add(r.draw_checksum)
        assert all(len(v) == 1 for v in by_rep.values())

    def test_aggregate_matches_recomputation_from_raw(self):
        spec = tiny_spec()
        result = run_experiment(spec)
        for row in result.rows:
            vals = [
                r.crand
                for r in result.records
                if r.algorithm == row["algorithm"]
                and r.sweep_value == row["sweep_value"]
                and not r.failed
            ]
            assert row["crand_mean"] == pytest.approx(float(np.mean(vals)), rel=1e-12)
            assert row["crand_se"] == pytest.approx(
                float(np.std(vals, ddof=1) / np.sqrt(len(vals))), rel=1e-12
            )

    def test_single_replicate_marks_se_undefined(self):
        result = run_experiment(tiny_spec(reps=1))
        for row in result.rows:
            assert row["crand_se"] is None
            assert row["crand_mean"] is not None

    def test_deterministic_across_runs_and_workers(self):
        spec = tiny_spec()
        serial = run_experiment(spec, workers=1)
        again = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)

        def scores(result):
            return [replace(r, runtime_s=None) for r in result.records]

        assert scores(serial) == scores(again)
        assert scores(serial) == scores(parallel)
        assert serial.rows == again.rows
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("workers", [0, -3, True, 2.0, "2", None])
    def test_workers_must_be_an_integer_of_at_least_one(self, workers):
        with pytest.raises(InputError, match="workers must be an integer >= 1"):
            run_experiment(tiny_spec(reps=1), workers=workers)

    @pytest.mark.parametrize("values, reps, workers, forks", [
        ((3.0,), 1, 8, 0), ((1.0, 3.0), 1, 64, 1), ((1.0, 3.0), 3, 4, 3), ((1.0, 3.0), 3, 1, 0),
    ])
    def test_no_more_processes_than_replicates(self, values, reps, workers, forks, monkeypatch):
        # min(workers, replicates) workers: this process and warm workers
        spec = tiny_spec(sweep_values=values, reps=reps)
        serial = run_experiment(spec, workers=1)
        solver._reap_workers()  # the worker its fits' restarts ran on
        calls = _forks(monkeypatch)
        result = run_experiment(spec, workers=workers)
        assert len(calls) == forks
        assert [replace(r, runtime_s=None) for r in result.records] == \
            [replace(r, runtime_s=None) for r in serial.records]
        _assert_only_workers_left()

    def test_fits_inside_forked_replicates_run_serially(self, tmp_path, monkeypatch):
        # forks counted in this process and in its children, one line per fork
        log = tmp_path / "forks"
        real = os.fork

        def counted():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real()

        monkeypatch.setattr(os, "fork", counted)
        # each fit alone would run its restarts on two workers: n * R = 4000
        _on_workers(monkeypatch, 2, solver._WORK_PER_WORKER)
        spec = tiny_spec(sweep_values=(3.0,), reps=2, n=800, restarts=5)
        parallel = run_experiment(spec, workers=2)
        assert log.read_text().splitlines() == [str(os.getpid())]
        log.unlink()
        # at --workers 1 every fit runs its restarts on the replicates' warm worker
        serial = run_experiment(spec, workers=1)
        assert not log.exists()
        assert [replace(r, runtime_s=None) for r in parallel.records] == \
            [replace(r, runtime_s=None) for r in serial.records]
        _assert_only_workers_left()

    def test_a_defect_in_a_forked_replicate_reaches_the_caller(self, monkeypatch):
        real_fit = harness.fit
        spec = tiny_spec(sweep_values=(3.0,), reps=2)

        def broken_fit(data, cfg):
            if cfg.rng_seed == spec.base_seed + 1:  # replicate 1: the child's share
                raise NumericInvariantError("injected objective mismatch")
            return real_fit(data, cfg)

        monkeypatch.setattr(harness, "fit", broken_fit)
        with pytest.raises(NumericInvariantError, match="injected objective mismatch") as raised:
            run_experiment(spec, workers=2)
        assert isinstance(raised.value.__cause__, ChildProcessError)
        assert "in broken_fit" in str(raised.value.__cause__)
        _assert_only_workers_left()

    def test_fit_failure_recorded_not_dropped(self, monkeypatch):
        calls = {"count": 0}
        real_fit = harness.fit

        def flaky_fit(data, cfg):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("synthetic failure")
            return real_fit(data, cfg)

        monkeypatch.setattr(harness, "fit", flaky_fit)
        spec = tiny_spec(sweep_values=(3.0,), reps=2)
        result = run_experiment(spec)
        failed = [r for r in result.records if r.failed]
        assert len(failed) == 1
        assert "synthetic failure" in failed[0].error
        assert failed[0].crand is None
        assert all((r.runtime_s is None) == r.failed for r in result.records)
        assert sum(row["failures"] for row in result.rows) == 1

    def test_scoring_failure_has_no_runtime(self, monkeypatch):
        calls = {"count": 0}
        real_report = harness.index_report

        def flaky_report(table):
            calls["count"] += 1
            if calls["count"] == 1:
                raise ValueError("synthetic scoring failure")
            return real_report(table)

        monkeypatch.setattr(harness, "index_report", flaky_report)
        result = run_experiment(tiny_spec(sweep_values=(3.0,), reps=1))
        failed = [r for r in result.records if r.failed]
        assert len(failed) == 1
        assert failed[0].runtime_s is None
        assert (failed[0].diag, failed[0].kappa, failed[0].rand, failed[0].crand) == (None,) * 4
        assert failed[0].error == "ValueError: synthetic scoring failure"

    def test_alpha_sweep_drives_kgroups_only(self):
        spec = tiny_spec(
            design="normal", sweep_param="alpha", sweep_values=(0.5, 1.0), reps=2
        )
        result = run_experiment(spec)
        assert len(result.rows) == 4


class TestEmission:
    def test_files_and_byte_determinism(self, tmp_path):
        spec = tiny_spec()
        result = run_experiment(spec)
        paths1 = emit_outputs(result, tmp_path / "a")
        result2 = run_experiment(spec)
        paths2 = emit_outputs(result2, tmp_path / "b")
        for kind in ("csv", "json", "raw"):
            assert paths1[kind].read_bytes() == paths2[kind].read_bytes()

    def test_artifacts_match_across_worker_counts(self, tmp_path):
        spec = tiny_spec()
        one = emit_outputs(run_experiment(spec), tmp_path / "one")
        two = emit_outputs(run_experiment(spec, workers=2), tmp_path / "two")
        assert sorted(one) == sorted(two) == ["csv", "json", "raw", "svg", "timings"]
        for kind in ("csv", "json", "raw", "svg"):
            assert one[kind].read_bytes() == two[kind].read_bytes(), kind

        def without_runtime(path):  # the timings sidecar's last column is wall-clock
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert without_runtime(one["timings"]) == without_runtime(two["timings"])

    def test_csv_round_trip(self, tmp_path):
        result = run_experiment(tiny_spec())
        paths = emit_outputs(result, tmp_path, formats=("csv", "json"))
        payload = json.loads(paths["json"].read_text())
        meta = dict(payload["meta"])
        assert meta.pop("schema_version") == harness.SCHEMA_VERSION
        assert ExperimentSpec(**meta) == result.spec
        assert payload["rows"] == result.rows
        meta_line, *table_lines = paths["csv"].read_text().splitlines()
        assert json.loads(meta_line.removeprefix("#meta=")) == payload["meta"]
        assert_csv_matches(table_lines, harness.TABLE_COLUMNS, payload["rows"])

    def test_raw_round_trip(self, tmp_path):
        result = run_experiment(tiny_spec(reps=2))
        paths = emit_outputs(result, tmp_path, formats=("csv", "json"))
        payload = json.loads(paths["json"].read_text())
        assert payload["raw"] == raw_dicts(result.records)
        assert_csv_matches(paths["raw"].read_text().splitlines(), harness.RAW_COLUMNS, payload["raw"])

    def test_json_schema_versioned(self, tmp_path):
        result = run_experiment(tiny_spec(reps=1))
        paths = emit_outputs(result, tmp_path, formats=("json",))
        payload = json.loads(paths["json"].read_text())
        assert payload["schema_version"] == 1
        assert len(payload["raw"]) == len(result.records)

    def test_svg_polyline_per_algorithm_point_per_sweep_value(self, tmp_path):
        spec = tiny_spec(
            algorithms=("kgroups_first", "kgroups_second", "kmeans"),
            sweep_values=(1.0, 2.0, 3.0),
            reps=1,
            n=30,
        )
        result = run_experiment(spec)
        paths = emit_outputs(result, tmp_path, formats=("svg",))
        root = ET.fromstring(paths["svg"].read_text())
        ns = "{http://www.w3.org/2000/svg}"
        lines = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "series"]
        assert len(lines) == 3
        for line in lines:
            assert len(line.get("points").split()) == 3

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        result = run_experiment(tiny_spec(reps=1))
        target = tmp_path / "nothing"
        with pytest.raises(InputError):
            emit_outputs(result, target, formats=("csv", "pdf"))
        assert not target.exists()

    def test_empty_format_list_rejected(self, tmp_path):
        result = run_experiment(tiny_spec(reps=1))
        with pytest.raises(InputError):
            emit_outputs(result, tmp_path, formats=())

    def test_unwritable_path_raises_os_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        result = run_experiment(tiny_spec(reps=1))
        with pytest.raises(OSError):
            emit_outputs(result, blocker / "out", formats=("csv",))


class TestRecordParsing:
    def test_failed_record_round_trips(self, tmp_path, monkeypatch):
        real_fit = harness.fit

        def flaky_fit(data, cfg):
            if cfg.mode == "kmeans_alpha2" and cfg.rng_seed == 11:
                raise RuntimeError("synthetic failure")
            return real_fit(data, cfg)

        monkeypatch.setattr(harness, "fit", flaky_fit)
        result = run_experiment(tiny_spec(reps=2))
        paths = emit_outputs(result, tmp_path, formats=("csv", "json"))
        payload = json.loads(paths["json"].read_text())
        assert payload["raw"] == raw_dicts(result.records)
        failed = [r for r in payload["raw"] if r["failed"]]
        assert len(failed) == 2  # kmeans, seed 11, per sweep value
        for r in failed:
            assert r["error"] == "RuntimeError: synthetic failure"
            assert all(r[c] is None for c in ("diag", "kappa", "rand", "crand"))
        assert_csv_matches(paths["raw"].read_text().splitlines(), harness.RAW_COLUMNS, payload["raw"])


def test_invariant_violation_is_raised_not_recorded(monkeypatch):
    from kgroups.errors import NumericInvariantError

    def broken_fit(data, cfg):
        raise NumericInvariantError("injected objective mismatch")

    monkeypatch.setattr(harness, "fit", broken_fit)
    with pytest.raises(NumericInvariantError):
        run_experiment(tiny_spec(sweep_values=(3.0,), reps=1))
