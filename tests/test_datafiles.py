import numpy as np
import pytest

from amp_retrain.bayesmix import LogitRecord
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
        records = [LogitRecord(z=0.5, yhat=1, id="a"),
                   LogitRecord(z=-1.25, yhat=-1, id="b")]
        path = tmp_path / "logits.tsv"
        write_logit_file(path, records, meta={"source": "unit-test"})
        back = read_logit_file(path)
        assert back == records

    def test_targets_file(self, tmp_path):
        path = tmp_path / "targets.tsv"
        write_targets_file(path, [("a", 0.25), (None, -0.5)])
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

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad2.tsv"
        path.write_text("id\tz\tyhat\nx\t0.5\t2\n")
        with pytest.raises(ParseError) as excinfo:
            read_logit_file(path)
        assert excinfo.value.line == 2

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_logit_file(path)
