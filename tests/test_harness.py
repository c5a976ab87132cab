import json
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import kgroups.harness as harness
from kgroups import ExperimentSpec, InputError, run_experiment, emit_outputs
from kgroups.harness import (
    ReplicateRecord,
    default_alpha,
    design_mixture,
    records_from_csv,
    table_from_csv,
)


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
        assert len(result.table.rows) == len(spec.sweep_values) * len(spec.algorithms)
        assert len(result.records) == len(spec.sweep_values) * len(spec.algorithms) * spec.reps
        for row in result.table.rows:
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
        for row in result.table.rows:
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
        for row in result.table.rows:
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
        assert serial.table == again.table
        assert serial.table == parallel.table

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
        assert sum(row["failures"] for row in result.table.rows) == 1

    def test_alpha_sweep_drives_kgroups_only(self):
        spec = tiny_spec(
            design="normal", sweep_param="alpha", sweep_values=(0.5, 1.0), reps=2
        )
        result = run_experiment(spec)
        assert len(result.table.rows) == 4


class TestEmission:
    def test_files_and_byte_determinism(self, tmp_path):
        spec = tiny_spec()
        result = run_experiment(spec)
        paths1 = emit_outputs(result, tmp_path / "a")
        result2 = run_experiment(spec)
        paths2 = emit_outputs(result2, tmp_path / "b")
        for kind in ("csv", "json", "raw"):
            assert paths1[kind].read_bytes() == paths2[kind].read_bytes()

    def test_csv_round_trip(self, tmp_path):
        result = run_experiment(tiny_spec())
        paths = emit_outputs(result, tmp_path, formats=("csv",))
        parsed = table_from_csv(paths["csv"].read_text())
        assert parsed == result.table

    def test_raw_round_trip(self, tmp_path):
        result = run_experiment(tiny_spec(reps=2))
        paths = emit_outputs(result, tmp_path, formats=("csv",))
        parsed = records_from_csv(paths["raw"].read_text())
        assert parsed == [replace(r, runtime_s=None) for r in result.records]

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
    def test_failed_record_round_trips(self):
        rec = ReplicateRecord(
            sweep_value=1.0,
            replicate=0,
            seed=10,
            draw_checksum=123,
            algorithm="kmeans",
            diag=None,
            kappa=None,
            rand=None,
            crand=None,
            runtime_s=None,
            failed=True,
            error="ValueError: boom",
        )  # runtime-free record survives the raw round trip exactly
        text = harness._raw_csv_text([rec])
        assert records_from_csv(text) == [rec]


def test_invariant_violation_is_raised_not_recorded(monkeypatch):
    from kgroups.errors import NumericInvariantError

    def broken_fit(data, cfg):
        raise NumericInvariantError("injected objective mismatch")

    monkeypatch.setattr(harness, "fit", broken_fit)
    with pytest.raises(NumericInvariantError):
        run_experiment(tiny_spec(sweep_values=(3.0,), reps=1))
