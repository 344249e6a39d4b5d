"""The tables of golden.COMMANDS against tests/data/golden/, byte for byte."""

import math

import pytest

import golden


def test_tables_match_the_golden_files(tmp_path):
    found = golden.compare(golden.run_all(tmp_path))
    assert found is None, f"{found}; if the move is intended, run python tests/golden.py " \
                          f"--update and list it in CHANGES.md"


def test_a_moved_cell_is_named_by_file_row_and_column():
    want = "# config: {}\nt\teta\tpredicted_error\n1\t0.5\t0.25\n2\t0.75\t0.125\n"
    got = want.replace("0.125", "0.126")
    assert golden.first_difference("se.tsv", want, got) == (
        "se.tsv: row 4, column predicted_error: '2\\t0.75\\t0.125' != '2\\t0.75\\t0.126' "
        "(golden first)")
    assert golden.first_difference("se.tsv", want, want) is None
    assert golden.first_difference("se.tsv", want, want + "3\t1.0\t0.0\n") == (
        "se.tsv: 4 rows in the golden file, 5 written")


def test_each_numeric_column_reports_its_largest_move(tmp_path, monkeypatch, capsys):
    want = "# config: {}\nt\teta\tstatus\n1\t0.5\tok\n2\t0.0\tok\n3\t2.0\tok\n"
    got = "# config: {}\nt\teta\tstatus\n1\t0.5\tok\n2\t1e-9\tok\n3\t2.5\tok\n"
    moves = golden.column_moves(want, got)
    assert list(moves) == ["t", "eta"]
    assert moves["t"] == (0.0, 0.0)
    assert moves["eta"] == (0.5, math.inf)   # 0.0 -> 1e-9 is an infinite relative move
    assert golden.column_moves(want, want.replace("2.0\t", "1.5\t")) == {
        "t": (0.0, 0.0), "eta": (0.5, 0.25)}
    fit = '{\n  "fit": {\n    "loglik": -200.0,\n    "sigma_clamped": false\n  }\n}\n'
    assert golden.column_moves(fit, fit.replace("-200.0", "-200.5")) == {
        "fit.loglik": pytest.approx((0.5, 0.0025))}

    # the script lists every moved file's columns, then names the first difference
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    (tmp_path / "a.se.tsv").write_text(want)
    (tmp_path / "b.se.tsv").write_text(want)
    monkeypatch.setattr(golden, "run_all", lambda work: {"a.se.tsv": got, "b.se.tsv": want})
    assert golden.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.se.tsv: t: largest move 0 absolute, 0 relative",
        "a.se.tsv: eta: largest move 0.5 absolute, inf relative",
        "a.se.tsv: row 4, column eta: '2\\t0.0\\tok' != '2\\t1e-9\\tok' (golden first)"]
