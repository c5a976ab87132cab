import json
import subprocess
import sys

import numpy as np
import pytest

from kgroups.cli import build_parser, main
from kgroups.harness import ALGORITHMS
from kgroups.io import read_data_csv, read_labels_csv, write_labels_csv


def write_csv(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["x0,x1,label"]
    for i in range(30):
        c = i % 2
        x = rng.normal(c * 12, 0.5, size=2)
        rows.append(f"{x[0]},{x[1]},{c}")
    return write_csv(tmp_path / "blobs.csv", "\n".join(rows) + "\n")


class TestIo:
    def test_header_label_column_detected(self, blob_csv):
        x, truth = read_data_csv(blob_csv)
        assert x.shape == (30, 2)
        assert truth is not None and truth.shape == (30,)

    def test_headerless_numeric(self, tmp_path):
        f = write_csv(tmp_path / "plain.csv", "1,2\n3,4\n")
        x, truth = read_data_csv(f)
        assert x.shape == (2, 2)
        assert truth is None

    def test_truth_last_flag(self, tmp_path):
        f = write_csv(tmp_path / "plain.csv", "1,2,0\n3,4,1\n")
        x, truth = read_data_csv(f, truth_last=True)
        assert x.shape == (2, 2)
        assert truth.tolist() == [0, 1]

    def test_missing_marker_rejected_with_location(self, tmp_path):
        f = write_csv(tmp_path / "holes.csv", "1,2\n?,4\n")
        from kgroups import InputError

        with pytest.raises(InputError, match="row 2, column 1"):
            read_data_csv(f)

    def test_labels_round_trip(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv(p, [2, 0, 1, 1])
        assert read_labels_csv(p).tolist() == [2, 0, 1, 1]

    def test_sample_export_round_trips_with_truth_column(self, tmp_path):
        from kgroups import Component, MixtureSpec, generate
        from kgroups.io import write_sample_csv

        spec = MixtureSpec(
            components=(
                Component(0.5, "normal", (0.0, 1.0)),
                Component(0.5, "normal", (5.0, 1.0)),
            ),
            dim=3,
            n=25,
            seed=12,
        )
        sample = generate(spec)
        p = tmp_path / "sample.csv"
        write_sample_csv(p, sample)
        x, truth = read_data_csv(p)
        assert np.array_equal(x, sample.data)
        assert np.array_equal(truth, sample.truth)


class TestFitCommand:
    def test_writes_labels_and_json(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "fit", "--input", blob_csv, "--k", "2", "--alpha", "1",
            "--seed", "3", "--out-dir", str(out),
        ])
        assert code == 0
        labels = read_labels_csv(out / "labels.csv")
        assert labels.shape == (30,)
        payload = json.loads((out / "fit.json").read_text())
        assert payload["k"] == 2
        assert payload["indices"]["crand"] == 1.0  # separated blobs

    def test_kmeans_mode_forces_alpha2(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "fit", "--input", blob_csv, "--k", "2", "--mode", "kmeans",
            "--out-dir", str(out),
        ])
        assert code == 0
        assert json.loads((out / "fit.json").read_text())["alpha"] == 2.0

    def test_second_variation_mode_recorded(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "fit", "--input", blob_csv, "--k", "2", "--mode", "kgroups_second",
            "--out-dir", str(out),
        ])
        assert code == 0
        assert json.loads((out / "fit.json").read_text())["mode"] == "second_variation"

    def test_mode_choices_are_the_algorithm_names(self):
        (subparsers,) = build_parser()._subparsers._group_actions
        (mode,) = [a for a in subparsers.choices["fit"]._actions if a.dest == "mode"]
        assert tuple(mode.choices) == ALGORITHMS

    def test_missing_input_is_exit_2(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "none.csv"), "--k", "2"]) == 2

    def test_bad_k_is_exit_2(self, blob_csv):
        assert main(["fit", "--input", blob_csv, "--k", "0"]) == 2


class TestBenchCommand:
    def test_flags_run_and_emit(self, tmp_path):
        out = tmp_path / "bench"
        code = main([
            "bench", "--design", "normal", "--sweep-param", "separation",
            "--sweep-values", "3.0", "--algorithms", "kgroups_first,kmeans",
            "--reps", "2", "--n", "30", "--restarts", "1", "--seed", "5",
            "--out-dir", str(out), "--format", "csv,json",
        ])
        assert code == 0
        assert (out / "experiment_table.csv").exists()
        assert (out / "experiment.json").exists()
        assert (out / "experiment_replicates.csv").exists()

    def test_spec_file(self, tmp_path):
        spec = {
            "design": "normal",
            "sweep_param": "separation",
            "sweep_values": [2.0],
            "algorithms": ["kmeans"],
            "reps": 1,
            "n": 20,
            "restarts": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "bench"
        code = main(["bench", "--spec", str(spec_path), "--out-dir", str(out),
                     "--format", "csv"])
        assert code == 0
        assert (out / "experiment_table.csv").exists()

    def test_incomplete_flags_exit_2(self):
        assert main(["bench", "--design", "normal"]) == 2

    def test_bad_sweep_exit_2(self, tmp_path):
        code = main([
            "bench", "--design", "normal", "--sweep-param", "separation",
            "--sweep-values", "3.0,1.0", "--reps", "1",
            "--out-dir", str(tmp_path),
        ])
        assert code == 2


class TestValidateCommand:
    def test_scores_two_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_labels_csv(a, [0, 0, 1, 1])
        write_labels_csv(b, [1, 1, 0, 0])
        assert main(["validate", "--truth", str(a), "--pred", str(b), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["crand"] == 1.0
        assert out["diag"] == 1.0

    def test_crossed_partitions(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_labels_csv(a, [0, 0, 1, 1])
        write_labels_csv(b, [0, 1, 0, 1])
        assert main(["validate", "--truth", str(a), "--pred", str(b), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["crand"] == pytest.approx(-0.5)
        assert out["rand"] == pytest.approx(1 / 3)


class TestDermatologyCommand:
    def test_missing_data_is_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.delenv("KGROUPS_DERMATOLOGY_DATA", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["dermatology"]) == 3

    def test_runs_on_fixture(self, tmp_path, capsys):
        from test_dermatology import make_fixture

        f = make_fixture(tmp_path / "derm.data", n_rows=60, n_missing_age=1)
        out = tmp_path / "rep"
        code = main([
            "dermatology", "--path", str(f), "--algorithms", "kmeans",
            "--restarts", "2", "--out-dir", str(out),
        ])
        assert code == 0
        assert (out / "dermatology.csv").exists()
        text = capsys.readouterr().out
        assert "kmeans" in text


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kgroups.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "bench" in proc.stdout


class TestBenchDefect:
    def test_invariant_violation_exits_4(self, tmp_path, monkeypatch):
        import kgroups.harness as harness
        from kgroups.errors import NumericInvariantError

        def broken_fit(data, cfg):
            raise NumericInvariantError("injected objective mismatch")

        monkeypatch.setattr(harness, "fit", broken_fit)
        code = main([
            "bench", "--design", "normal", "--sweep-param", "separation",
            "--sweep-values", "3.0", "--algorithms", "kmeans", "--reps", "1",
            "--n", "20", "--restarts", "1", "--out-dir", str(tmp_path / "bench"),
        ])
        assert code == 4
        assert not (tmp_path / "bench").exists()
