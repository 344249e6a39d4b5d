"""The tables of golden.COMMANDS against tests/data/golden/, byte for byte."""

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
