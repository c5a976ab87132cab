import csv
import json
import re
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from kgroups.cli import build_parser, main
from kgroups.solver import ALGORITHMS
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

    @pytest.mark.parametrize("first", ["x0,x1", "x0,label", "a,?"])
    def test_row_1_of_names_is_a_header(self, tmp_path, first):
        x, truth = read_data_csv(write_csv(tmp_path / "h.csv", f"{first}\n3,4\n5,6\n7,8\n"))
        assert x.shape == ((3, 1) if "label" in first else (3, 2))
        assert (truth is None) == ("label" not in first)

    @pytest.mark.parametrize("first, error", [
        ("1.2.3,4", "non-numeric value '1.2.3'"), ("x,2", "non-numeric value 'x'"),
        ("?,?", "missing value"), ("nan,2", "non-finite value 'nan'"),
    ])
    def test_row_1_with_a_number_or_no_name_is_data(self, tmp_path, first, error):
        # a mixed row is data, so a typo is reported, not read as a header
        from kgroups import InputError

        f = write_csv(tmp_path / "d.csv", f"{first}\n3,4\n5,6\n7,8\n")
        with pytest.raises(InputError, match=re.escape(f"{error} at row 1, column 1")):
            read_data_csv(f)

    def test_fit_refuses_a_typo_in_row_1(self, tmp_path, capsys):
        f = write_csv(tmp_path / "typo.csv", "1.2.3,4\n5,6\n7,8\n9,10\n")
        out = tmp_path / "out"
        assert main(["fit", "--input", f, "--k", "2", "--out-dir", str(out)]) == 2
        assert "non-numeric value '1.2.3' at row 1, column 1" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        data = tmp_path / "bom.csv"
        data.write_text("\ufeff1,2\n3,4\n5,6\n", encoding="utf-8")
        x, truth = read_data_csv(data)
        assert x.tolist() == [[1, 2], [3, 4], [5, 6]] and truth is None
        data.write_text("\ufeffx,label\n1,0\n3,1\n", encoding="utf-8")
        assert read_data_csv(data)[1].tolist() == [0, 1]
        labels = tmp_path / "bom_labels.csv"
        labels.write_text("\ufeff0\n1\n1\n", encoding="utf-8")
        assert read_labels_csv(labels).tolist() == [0, 1, 1]
        labels.write_text("\ufefflabel\n1\n0\n", encoding="utf-8")
        assert read_labels_csv(labels).tolist() == [1, 0]

    def test_missing_marker_rejected_with_location(self, tmp_path):
        f = write_csv(tmp_path / "holes.csv", "1,2\n?,4\n")
        from kgroups import InputError

        with pytest.raises(InputError, match="row 2, column 1"):
            read_data_csv(f)

    def test_labels_round_trip(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv(p, [2, 0, 1, 1])
        assert read_labels_csv(p).tolist() == [2, 0, 1, 1]

    def test_labels_above_2_to_the_53_stay_distinct(self, tmp_path):
        # float64 reads 2^53 + 1 as 2^53: integer tokens are parsed as ints
        big = [2**53 + 1, 2**53, 0, 2**64 + 1, 2**64]
        text = "\n".join(map(str, big)) + "\n"
        codes = [2, 1, 0, 4, 3]
        assert read_labels_csv(write_csv(tmp_path / "l.csv", "label\n" + text)).tolist() == codes
        rows = "".join(f"{i}.5,{lab}\n" for i, lab in enumerate(big))
        _, truth = read_data_csv(write_csv(tmp_path / "d.csv", "x,label\n" + rows))
        assert truth.tolist() == codes
        _, truth = read_data_csv(write_csv(tmp_path / "t.csv", rows), truth_last=True)
        assert truth.tolist() == codes

    def test_float_labels_of_integer_value_are_read_and_others_refused(self, tmp_path):
        from kgroups import InputError

        assert read_labels_csv(write_csv(tmp_path / "l.csv", "3.0\n-1.0\n1e3\n")).tolist() == [1, 0, 2]
        _, truth = read_data_csv(write_csv(tmp_path / "d.csv", "1,3.0\n2,-1\n"), truth_last=True)
        assert truth.tolist() == [1, 0]
        for bad in ("1.5", "nan", "inf", "-inf", "1e400"):
            with pytest.raises(InputError, match=f"bad label '{bad}' at row 2"):
                read_labels_csv(write_csv(tmp_path / "l.csv", f"0\n{bad}\n"))
            with pytest.raises(InputError, match=f"bad label '{bad}' at row 2"):
                read_data_csv(write_csv(tmp_path / "d.csv", f"1,0\n2,{bad}\n"), truth_last=True)

    def test_sample_export_round_trips_with_truth_column(self, tmp_path):
        from kgroups import Component, MixtureSpec, csv_text, generate

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
        columns = [f"x{j}" for j in range(3)] + ["label"]
        rows = [dict(zip(columns, [*row.tolist(), int(lab)]))
                for row, lab in zip(sample.data, sample.truth)]
        p.write_text(csv_text(rows, columns))
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

    @pytest.mark.parametrize("alpha", ["0.5", "1", "nan"])
    def test_kmeans_refuses_another_alpha_and_writes_nothing(self, blob_csv, tmp_path, capsys, alpha):
        out = tmp_path / "out"
        argv = ["fit", "--input", blob_csv, "--k", "2", "--mode", "kmeans", "--out-dir", str(out)]
        assert main([*argv, "--alpha", alpha]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: --mode kmeans fits at alpha 2; got --alpha {float(alpha)!r}\n"
        assert not out.exists()
        assert main([*argv, "--alpha", "2"]) == 0
        assert json.loads((out / "fit.json").read_text())["alpha"] == 2.0

    def test_second_variation_mode_recorded(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "fit", "--input", blob_csv, "--k", "2", "--mode", "kgroups_second",
            "--out-dir", str(out),
        ])
        assert code == 0
        assert json.loads((out / "fit.json").read_text())["mode"] == "second_variation"

    def test_converged_flag_and_warning(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["fit", "--input", blob_csv, "--k", "3", "--seed", "1", "--out-dir", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "fit.json").read_text())["converged"] is True
        assert "warning" not in capsys.readouterr().err
        assert main([*argv, "--max-passes", "1"]) == 0
        assert json.loads((out / "fit.json").read_text())["converged"] is False
        assert "stopped at max_passes=1 before it converged" in capsys.readouterr().err

    def test_prints_the_indices_of_fit_json(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fit", "--input", blob_csv, "--k", "3", "--out-dir", str(out)]) == 0
        indices = json.loads((out / "fit.json").read_text())["indices"]
        line = capsys.readouterr().out.splitlines()[1]
        assert line == " ".join(
            f"{name}={indices[name]:.4f}" for name in ("diag", "kappa", "rand", "crand")
        )

    def test_mode_choices_are_the_algorithm_names(self):
        (subparsers,) = build_parser()._subparsers._group_actions
        (mode,) = [a for a in subparsers.choices["fit"]._actions if a.dest == "mode"]
        assert tuple(mode.choices) == tuple(ALGORITHMS)

    def test_missing_input_is_exit_2(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "none.csv"), "--k", "2"]) == 2

    def test_bad_k_is_exit_2(self, blob_csv):
        assert main(["fit", "--input", blob_csv, "--k", "0"]) == 2

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_is_exit_2(self, tmp_path, capsys, label):
        path = write_csv(tmp_path / "d.csv", f"x0,label\n0.0,0\n1.0,{label}\n2.0,1\n")
        assert main(["fit", "--input", path, "--k", "2"]) == 2
        assert "row 2" in capsys.readouterr().err
        headerless = write_csv(tmp_path / "e.csv", f"0.0,0\n1.0,{label}\n")
        assert main(["fit", "--input", headerless, "--k", "1", "--truth-last"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", ""])
    def test_bad_feature_is_exit_2_with_its_data_row(self, tmp_path, capsys, value):
        # a non-finite feature is numbered like a missing one: data rows from 1
        path = write_csv(tmp_path / "d.csv", f"x0,x1\n0.0,1.0\n{value},2.0\n3.0,4.0\n")
        assert main(["fit", "--input", path, "--k", "2"]) == 2
        assert "row 2, column 1" in capsys.readouterr().err


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

    def test_unknown_format_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        import kgroups.harness as harness

        calls = []
        monkeypatch.setattr(harness, "fit", lambda *a, **kw: calls.append(a))
        code = main(["bench", "--design", "normal", "--sweep-param", "separation",
                     "--sweep-values", "3.0", "--reps", "2", "--n", "20",
                     "--out-dir", str(tmp_path / "bench"), "--format", "xml"])
        assert code == 2
        assert "input error: formats must be a nonempty sequence of names" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "bench").exists()

    def test_incomplete_flags_exit_2(self):
        assert main(["bench", "--design", "normal"]) == 2

    def test_bad_sweep_exit_2(self, tmp_path):
        code = main([
            "bench", "--design", "normal", "--sweep-param", "separation",
            "--sweep-values", "3.0,1.0", "--reps", "1",
            "--out-dir", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("extra", [
        ["--n", "5", "--k", "10"],
        ["--n", "5", "--k", "3", "--algorithms", "kgroups_second"],
        ["--sweep-param", "dim", "--sweep-values", "1,1.5"],
        ["--seed", "-1"],
        ["--workers", "0"],
        ["--workers", "-3"],
    ])
    def test_impossible_spec_exit_2(self, tmp_path, extra):
        base = ["bench", "--design", "normal", "--sweep-param", "separation",
                "--sweep-values", "3", "--reps", "2", "--out-dir", str(tmp_path)]
        assert main(base + extra) == 2
        assert not tmp_path.joinpath("experiment.json").exists()


    @pytest.mark.parametrize("settings", [
        {"base_seed": -1}, {"n": 20.5}, {"k": True}, {"reps": 1.5},
    ])
    def test_ill_typed_spec_exit_2(self, tmp_path, capsys, settings):
        spec = {"design": "normal", "sweep_param": "separation", "sweep_values": [3],
                "reps": 1, "n": 20, **settings}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["bench", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 2
        assert f"{next(iter(settings))} must be a" in capsys.readouterr().err


    @pytest.mark.parametrize("settings, field", [
        ({"sweep_param": "alpha", "sweep_values": [0.5, 1], "alpha": "abc"}, "alpha"),
        ({"separation": "x"}, "separation"),
        ({"alpha": True}, "alpha"),
        ({"sweep_values": [1, float("nan")]}, "sweep_values"),
        ({"restarts": 0}, "restarts"),
        ({"dim": 0}, "dim"),
        ({"sweep_values": "35"}, "sweep_values"),  # not the sweep (3.0, 5.0)
        ({"algorithms": "kmeans"}, "algorithms"),
    ])
    def test_bad_spec_field_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch, settings, field):
        import kgroups.harness as harness

        calls = []
        monkeypatch.setattr(harness, "fit", lambda *a, **kw: calls.append(a))
        spec = {"design": "normal", "sweep_param": "separation", "sweep_values": [3],
                "reps": 1, "n": 20, **settings}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["bench", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 2
        assert f"input error: {field} " in capsys.readouterr().err
        assert calls == []


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

    def test_plain_output_is_one_csv_row_of_reprs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_labels_csv(a, [0, 0, 1, 1])
        write_labels_csv(b, [0, 1, 0, 1])
        assert main(["validate", "--truth", str(a), "--pred", str(b)]) == 0
        assert capsys.readouterr().out == (
            "diag,kappa,rand,crand\n0.5,0.0,0.3333333333333333,-0.49999999999999994\n"
        )

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_is_exit_2(self, tmp_path, capsys, label):
        a = write_csv(tmp_path / "a.csv", f"label\n0\n{label}\n")
        b = tmp_path / "b.csv"
        write_labels_csv(b, [0, 1])
        assert main(["validate", "--truth", a, "--pred", str(b)]) == 2
        assert "row 2" in capsys.readouterr().err


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

    def test_unknown_algorithm_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        import kgroups.dermatology as dermatology
        from test_dermatology import make_fixture

        calls = []
        inner = dermatology.fit
        monkeypatch.setattr(dermatology, "fit", lambda *a, **kw: calls.append(a) or inner(*a, **kw))
        f = make_fixture(tmp_path / "derm.data", n_rows=60, n_missing_age=1)
        for path in (f, tmp_path / "absent.data"):  # checked before the file is read
            assert main(["dermatology", "--path", str(path), "--algorithms", "kgroups_first,foo"]) == 2
            assert "input error: algorithms must be" in capsys.readouterr().err
        assert calls == []

    def test_repeated_algorithm_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        import kgroups.dermatology as dermatology
        from test_dermatology import make_fixture

        calls = []
        monkeypatch.setattr(dermatology, "fit", lambda *a, **kw: calls.append(a))
        f = make_fixture(tmp_path / "derm.data", n_rows=60, n_missing_age=1)
        for path in (f, tmp_path / "absent.data"):  # checked before the file is read
            assert main(["dermatology", "--path", str(path), "--algorithms", "kmeans,kmeans"]) == 2
            assert "input error: algorithms must be unique" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("flag, value, message", [("--restarts", "0", "restarts must be an integer >= 1"),
                                                      ("--seed", "-1", "seed must be an integer >= 0")])
    def test_bad_restarts_or_seed_exits_2_before_the_file_is_found_or_fetched(
            self, flag, value, message, tmp_path, capsys, monkeypatch):
        import kgroups.cli as cli

        fetches = []
        monkeypatch.setattr(cli, "fetch_dermatology", lambda *a, **kw: fetches.append(a))
        monkeypatch.delenv("KGROUPS_DERMATOLOGY_DATA", raising=False)
        monkeypatch.chdir(tmp_path)
        for extra in ([], ["--fetch"], ["--path", str(tmp_path / "absent.data")]):
            assert main(["dermatology", flag, value, *extra]) == 2
            assert f"input error: {message}, got {value}" in capsys.readouterr().err
        assert fetches == []

    def test_report_rows_and_files(self, tmp_path, capsys):
        from test_dermatology import make_fixture

        from kgroups.dermatology import load_dermatology, run_dermatology

        f = make_fixture(tmp_path / "derm.data", n_rows=60, n_missing_age=1)
        out = tmp_path / "rep"
        algorithms = ["kmeans", "kgroups_first"]
        code = main([
            "dermatology", "--path", str(f), "--algorithms", ",".join(algorithms),
            "--restarts", "2", "--seed", "4", "--out-dir", str(out),
        ])
        assert code == 0
        reports = run_dermatology(load_dermatology(f), algorithms=algorithms, restarts=2, seed=4)
        names = ("diag", "kappa", "rand", "crand")
        header = "algorithm," + ",".join(names)
        printed = capsys.readouterr().out.splitlines()
        assert printed[1:4] == [header] + [
            a + "".join(f",{getattr(reports[a], c):.4f}" for c in names) for a in algorithms
        ]
        payload = json.loads((out / "dermatology.json").read_text())
        assert payload == {
            "rows": [{"algorithm": a, **asdict(reports[a])} for a in algorithms],
            "seed": 4,
            "restarts": 2,
        }
        assert (out / "dermatology.csv").read_text().splitlines() == [header] + [
            a + "".join(f",{getattr(reports[a], c)!r}" for c in names) for a in algorithms
        ]


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kgroups.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "bench" in proc.stdout

    def test_import_leaves_heavy_modules_out(self):
        # scipy.optimize (~11 MB resident) and urllib.request are imported only
        # where the rare size-sampling fallback and a download need them; the
        # stdlib process pool not at all: jobs run on the solver's fork runner
        code = (
            "import sys, kgroups, kgroups.cli; print(sorted("
            "{'scipy.optimize', 'urllib.request', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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


class TestOverflowingData:
    """Coordinates whose distances overflow float64 are an input error (exit
    2), not a numeric defect (exit 4), and no warning is printed on the way."""

    @pytest.mark.parametrize("mode", ALGORITHMS)
    def test_fit_exits_2(self, mode, tmp_path, capsys):
        f = write_csv(tmp_path / "wide.csv", "0\n1e200\n2e200\n-1e200\n5\n6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--k", "2", "--mode", mode, "--input", f]) == 2
        assert "input error: data span too wide" in capsys.readouterr().err

    def test_bench_records_every_cell_as_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "bench"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bench", "--design", "normal", "--sweep-param", "separation",
                         "--sweep-values", "1e200", "--n", "40", "--reps", "2", "--out-dir", str(out)])
        assert code == 2  # every cell failed
        with open(out / "experiment_replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(ALGORITHMS)
        assert all(r["failed"] == "true" and r["error"].startswith("InputError: data span too wide")
                   for r in rows)

    def test_bench_whose_every_cell_failed_names_the_first_cause(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--design", "normal", "--sweep-param", "separation",
                     "--sweep-values", "1e200", "--n", "40", "--reps", "2", "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert ("input error: every fit failed, the first (kgroups_first at separation 1e+200, replicate 0) "
                "with InputError: data span too wide") in err
        assert "chart" not in err
        with open(out / "experiment_replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(ALGORITHMS) and all(r["failed"] == "true" for r in rows)
        assert sorted(path.name for path in out.iterdir()) == ["experiment_replicates.csv", "experiment_timings.csv"]


@pytest.fixture
def captured(monkeypatch):
    """The FitConfig or ExperimentSpec the CLI builds; the command stops there."""
    import kgroups.cli as cli
    from kgroups import InputError

    seen = []

    def capture(config):
        seen.append(config)
        raise InputError("captured")

    monkeypatch.setattr(cli, "fit", lambda data, cfg: capture(cfg))
    monkeypatch.setattr(cli, "run_experiment", lambda spec, **run: capture(spec))
    return seen


class TestSettingsByFieldName:
    @pytest.mark.parametrize("flags, expected", [
        ([], {}),
        (["--alpha", "0.5", "--mode", "kgroups_second", "--restarts", "4",
          "--max-passes", "7", "--seed", "9"],
         {"alpha": 0.5, "mode": "second_variation", "restarts": 4, "max_passes": 7,
          "rng_seed": 9}),
        (["--mode", "kmeans"], {"alpha": 2.0, "mode": "kmeans_alpha2"}),
    ])
    def test_fit_flags_fill_fit_config(self, blob_csv, captured, flags, expected):
        from kgroups import FitConfig

        assert main(["fit", "--input", blob_csv, "--k", "2", *flags]) == 2
        assert captured == [FitConfig(k=2, **expected)]

    def test_bench_flags_left_out_take_the_spec_defaults(self, captured):
        from kgroups import ExperimentSpec

        argv = ["bench", "--design", "normal", "--sweep-param", "separation",
                "--sweep-values", "3"]
        assert main(argv) == 2
        assert captured == [ExperimentSpec("normal", "separation", (3.0,))]

    def test_every_bench_spec_flag_fills_its_field(self, captured):
        from kgroups import ExperimentSpec

        argv = ["bench", "--design", "cauchy", "--sweep-param", "alpha",
                "--sweep-values", "0.5,1", "--algorithms", "kmeans,kgroups_first",
                "--reps", "3", "--seed", "7", "--n", "30", "--k", "3", "--alpha", "0.7",
                "--separation", "4", "--dim", "2", "--restarts", "2", "--max-passes", "20"]
        assert main(argv) == 2
        assert captured == [ExperimentSpec(
            design="cauchy", sweep_param="alpha", sweep_values=(0.5, 1.0),
            algorithms=("kmeans", "kgroups_first"), reps=3, base_seed=7, n=30, k=3,
            alpha=0.7, separation=4.0, dim=2, restarts=2, max_passes=20,
        )]

    def test_json_and_flags_build_equal_specs(self, tmp_path, captured):
        spec = {"design": "lognormal", "sweep_param": "dim", "sweep_values": [1, 3],
                "algorithms": ["kgroups_second"], "reps": 4, "base_seed": 2, "n": 50}
        js = tmp_path / "spec.json"
        js.write_text(json.dumps(spec))
        flags = ["--design", "lognormal", "--sweep-param", "dim", "--sweep-values", "1,3",
                 "--algorithms", "kgroups_second", "--reps", "4", "--seed", "2", "--n", "50"]
        for argv in (["--spec", str(js)], flags):
            assert main(["bench", *argv]) == 2
        assert len(captured) == 2
        assert captured[0] == captured[1]
        assert captured[0].sweep_values == (1.0, 3.0)

    @pytest.mark.parametrize("flag", [
        ["--reps", "3"], ["--n", "40"], ["--seed", "1"], ["--algorithms", "kmeans"],
        ["--design", "normal"],
    ])
    def test_spec_file_excludes_spec_flags(self, tmp_path, capsys, flag):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "design": "normal", "sweep_param": "separation", "sweep_values": [2.0],
            "reps": 2, "n": 20, "restarts": 1,
        }))
        out = tmp_path / "bench"
        code = main(["bench", "--spec", str(spec_path), *flag, "--out-dir", str(out),
                     "--workers", "1", "--prefix", "p", "--format", "csv"])
        assert code == 2
        assert "--spec excludes the spec flags" in capsys.readouterr().err
        assert not out.exists()


class TestUnreadableInput:
    @pytest.mark.parametrize("argv, code, kind", [
        ("fit --k 2 --input {bad}.csv", 2, "input"),
        ("validate --pred {labels} --truth {bad}.csv", 2, "input"),
        ("dermatology --path {bad}.data", 3, "ingestion"),
        ("bench --spec {bad}.json", 2, "input"),
        ("bench --spec {bad}.toml", 2, "input"),
        # JSON is the one spec format, whatever the suffix or the interpreter
        ("bench --spec {valid}.toml", 2, "input"),
    ])
    def test_undecodable_file_is_a_reported_error(self, tmp_path, capsys, argv, code, kind):
        for suffix in (".csv", ".data", ".json", ".toml"):
            (tmp_path / f"bad{suffix}").write_bytes(b"label\n\x80\x81\xfe\n")
        (tmp_path / "valid.toml").write_text('design = "normal"\nsweep_param = "dim"\n')
        labels = tmp_path / "labels.csv"
        write_labels_csv(labels, [0, 1])
        paths = {"bad": tmp_path / "bad", "valid": tmp_path / "valid", "labels": labels}
        assert main(argv.format(**paths).split()) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{kind} error: ")
        assert "Traceback" not in err


class TestErrorBranches:
    # (file text, command with {f} for the file, stderr before any OS detail)
    @pytest.mark.parametrize("text, argv, error", [
        ("", "fit --k 1 --input {f}", "input error: {f} contains no data"),
        ("x0,x1\n", "fit --k 1 --input {f}", "input error: {f} has a header but no data rows"),
        ("label\n", "validate --truth {f} --pred {f}", "input error: {f} has a header but no labels"),
        ("a,b,c\n1,2\n", "fit --k 1 --input {f}", "input error: {f}: header has 3 fields, rows have 2"),
        ("label\n0\n1\n", "fit --k 1 --input {f}",
         "input error: {f}: no feature columns besides the label column"),
        ("1,2\n3\n", "fit --k 1 --input {f}", "input error: {f}: row 2 has 1 fields, expected 2"),
        ("0,1\n1,0\n", "validate --truth {f} --pred {f}",
         "input error: {f}: expected exactly one column of labels"),
        ("", "bench --design normal --sweep-param separation --sweep-values 3 --algorithms ,",
         "input error: empty list argument: ','"),
        ("[1]", "bench --spec {f}", "input error: {f}: expected an object at top level"),
        # an existing file as the output directory
        ("0,0\n1,1\n", "fit --k 1 --input {f} --out-dir {f}", "i/o error: "),
    ])
    def test_exit_2_names_the_input(self, tmp_path, capsys, text, argv, error):
        f = tmp_path / "in.csv"
        f.write_text(text)
        assert main(argv.format(f=f).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith(error.format(f=f))
        assert str(f) in err or "{f}" not in argv


class TestPublicNames:
    MODULES = ("datagen", "energy", "errors", "harness", "indices", "partition", "solver")

    def test_package_reexports_each_module_all(self):
        import importlib

        import kgroups

        names = {"__version__"}
        for module in self.MODULES:
            names |= set(importlib.import_module(f"kgroups.{module}").__all__)
        assert set(kgroups.__all__) == names
        assert len(kgroups.__all__) == len(names)
        namespace = {}
        exec("from kgroups import *", namespace)
        assert set(namespace) - {"__builtins__"} == names
