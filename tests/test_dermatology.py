import hashlib
import re

import numpy as np
import pytest

from kgroups import IngestionError
from kgroups.cli import main
from kgroups.dermatology import (
    N_ATTRIBUTES,
    fetch_dermatology,
    find_dermatology,
    load_dermatology,
    run_dermatology,
)


def make_fixture(path, n_rows=366, n_missing_age=8, seed=0):
    """Write a file with the raw dermatology layout: 34 attributes + class,
    with `n_missing_age` rows carrying '?' in the age column."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n_rows):
        cls = i % 6 + 1
        attrs = list(rng.integers(0, 4, size=N_ATTRIBUTES - 1).astype(str))
        # class-dependent shift keeps columns non-constant and clusters real
        attrs[0] = str(int(attrs[0]) + cls)
        age = "?" if i < n_missing_age else str(int(rng.integers(10, 80)))
        lines.append(",".join(attrs + [age, str(cls)]))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoader:
    def test_drops_missing_rows_and_standardizes(self, tmp_path):
        f = make_fixture(tmp_path / "derm.data")
        sample = load_dermatology(f)
        assert sample.data.shape == (358, 34)
        assert int(sample.truth.max()) + 1 == 6
        means = sample.data.mean(axis=0)
        sds = sample.data.std(axis=0, ddof=1)
        assert np.all(np.abs(means) <= 1e-10)
        assert np.all(np.abs(sds - 1.0) <= 1e-10)

    def test_truth_labels_zero_based(self, tmp_path):
        sample = load_dermatology(make_fixture(tmp_path / "derm.data"))
        assert sorted(np.unique(sample.truth)) == [0, 1, 2, 3, 4, 5]

    def test_wrong_column_count_rejected(self, tmp_path):
        f = tmp_path / "bad.data"
        f.write_text("1,2,3\n")
        with pytest.raises(IngestionError, match="fields"):
            load_dermatology(f)

    def test_non_numeric_cell_rejected(self, tmp_path):
        f = tmp_path / "bad.data"
        row = ",".join(["1"] * N_ATTRIBUTES + ["x"])
        f.write_text(row + "\n" + ",".join(["2"] * N_ATTRIBUTES + ["1"]) + "\n")
        with pytest.raises(IngestionError):
            load_dermatology(f)

    @pytest.mark.parametrize("token", ["nan", "inf", "1e999"])
    def test_non_finite_attribute_names_its_row_and_column(self, tmp_path, token):
        # refused before standardising, which would turn the whole column to NaN
        f = make_fixture(tmp_path / "derm.data", n_rows=20, n_missing_age=0)
        lines = f.read_text().splitlines()
        fields = lines[5].split(",")
        fields[3] = token
        lines[5] = ",".join(fields)
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match=f"row 6, column 4: '{token}' is not finite"):
            load_dermatology(f)

    def test_checksum_mismatch_rejected(self, tmp_path):
        f = make_fixture(tmp_path / "derm.data")
        with pytest.raises(IngestionError, match="sha256"):
            load_dermatology(f, expected_sha256="0" * 64)

    def test_checksum_match_accepted(self, tmp_path):
        f = make_fixture(tmp_path / "derm.data")
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        sample = load_dermatology(f, expected_sha256=digest)
        assert sample.data.shape[0] == 358

    def test_constant_column_rejected(self, tmp_path):
        f = tmp_path / "const.data"
        rows = []
        for i in range(10):
            fields = ["1"] * N_ATTRIBUTES + [str(i % 2 + 1)]
            rows.append(",".join(fields))
        f.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="constant"):
            load_dermatology(f)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(IngestionError):
            load_dermatology(tmp_path / "nope.data")


class TestRunner:
    def test_reports_for_each_algorithm(self, tmp_path):
        # a shrunken fixture keeps this quick; k comes from the truth labels
        f = make_fixture(tmp_path / "derm.data", n_rows=90, n_missing_age=2)
        sample = load_dermatology(f)
        reports = run_dermatology(
            sample, algorithms=("kgroups_first", "kmeans"), restarts=2, seed=0
        )
        assert set(reports) == {"kgroups_first", "kmeans"}
        for rep in reports.values():
            assert 0.0 <= rep.diag <= 1.0
            assert rep.crand <= 1.0


class TestDiscovery:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        f = make_fixture(tmp_path / "derm.data", n_rows=20, n_missing_age=0)
        monkeypatch.setenv("KGROUPS_DERMATOLOGY_DATA", str(f))
        assert find_dermatology() == f

    def test_env_var_naming_no_file_is_ingestion_error(self, tmp_path, monkeypatch, capsys):
        # not a fall back to another copy: ./data/dermatology.data is here
        (tmp_path / "data").mkdir()
        make_fixture(tmp_path / "data" / "dermatology.data", n_rows=20, n_missing_age=0)
        monkeypatch.chdir(tmp_path)
        missing = tmp_path / "absent.data"
        monkeypatch.setenv("KGROUPS_DERMATOLOGY_DATA", str(missing))
        with pytest.raises(IngestionError, match=re.escape(f"KGROUPS_DERMATOLOGY_DATA={missing} names no file")):
            find_dermatology()
        assert main(["dermatology", "--out-dir", str(tmp_path / "out")]) == 3
        assert str(missing) in capsys.readouterr().err

    def test_absent_everywhere_returns_none(self, tmp_path, monkeypatch):
        monkeypatch.delenv("KGROUPS_DERMATOLOGY_DATA", raising=False)
        monkeypatch.chdir(tmp_path)
        assert find_dermatology() is None

    def test_fetch_failure_is_ingestion_error(self, tmp_path):
        with pytest.raises(IngestionError):
            fetch_dermatology(tmp_path / "x.data", url="http://127.0.0.1:1/none", timeout=1)
