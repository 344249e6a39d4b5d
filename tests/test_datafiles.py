import numpy as np
import pytest

from amp_retrain.datafiles import (
    read_logit_file,
    read_table,
    write_logit_file,
    write_table,
    write_targets_file,
)
from amp_retrain.errors import ParseError


class TestTables:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "table.tsv"
        write_table(path, {"config": "{}", "seed": "7"},
                    ["a", "b"], [(1, 0.1), (2, 0.30000000000000004)])
        meta, columns, rows = read_table(path)
        assert meta["seed"] == "7"
        assert columns == ["a", "b"]
        assert float(rows[1][1]) == 0.30000000000000004

    def test_reproducible_bytes(self, tmp_path):
        rows = [(i, float(np.float64(i) / 3.0)) for i in range(5)]
        p1, p2 = tmp_path / "one.tsv", tmp_path / "two.tsv"
        write_table(p1, {"k": "v"}, ["i", "x"], rows)
        write_table(p2, {"k": "v"}, ["i", "x"], rows)
        assert p1.read_bytes() == p2.read_bytes()


class TestLogitFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "logits.tsv"
        write_logit_file(path, ["a", "b"], np.array([0.5, -1.25]), np.array([1.0, -1.0]),
                         meta={"source": "unit-test"})
        assert path.read_text().splitlines()[-2:] == ["a\t0.5\t1", "b\t-1.25\t-1"]
        ids, z, yhat = read_logit_file(path)
        assert ids == ["a", "b"]
        assert z.tolist() == [0.5, -1.25] and yhat.tolist() == [1.0, -1.0]

    def test_targets_file(self, tmp_path):
        path = tmp_path / "targets.tsv"
        write_targets_file(path, ["a", "b"], np.array([0.25, -0.5]))
        meta, columns, rows = read_table(path)
        assert "bayesmix-targets" in meta["schema"]
        assert columns == ["id", "target"]
        assert rows[0] == ["a", "0.25"]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\tz\tyhat\nx\t0.5\t1\ny\tnot-a-number\t1\n")
        with pytest.raises(ParseError) as excinfo:
            read_logit_file(path)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("label", ["2", "1.5", "-1.7", "nan", "inf"])
    def test_bad_label_rejected(self, tmp_path, label):
        path = tmp_path / "bad2.tsv"
        path.write_text(f"id\tz\tyhat\nx\t0.5\t1\ny\t0.5\t{label}\n")
        with pytest.raises(ParseError) as excinfo:
            read_logit_file(path)
        assert excinfo.value.line == 3
        assert "yhat" in str(excinfo.value)

    def test_labels_equal_to_one(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("id\tz\tyhat\nx\t0.5\t1.0\ny\t0.5\t-1\nw\t0.5\t+1e0\n")
        assert read_logit_file(path)[2].tolist() == [1.0, -1.0, 1.0]

    @pytest.mark.parametrize("logit", ["nan", "inf", "-inf"])
    def test_non_finite_logit_names_line(self, tmp_path, logit):
        path = tmp_path / "bad3.tsv"
        path.write_text(f"id\tz\tyhat\nx\t0.5\t1\ny\t{logit}\t1\n")
        with pytest.raises(ParseError) as excinfo:
            read_logit_file(path)
        assert excinfo.value.line == 3
        assert "finite" in str(excinfo.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_logit_file(path)
