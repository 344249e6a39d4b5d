"""Each script in scripts/ runs at a tiny size and writes finite tables."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from amp_retrain.datafiles import read_table

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CASES = {
    "gmm_retraining_comparison": (
        ["--n", "200", "--iters", "3", "--reps", "2"],
        {"comparison.tsv": ["t", "theory", "opt", "ft_hard", "ct_hard", "vanilla"]},
    ),
    "glm_sign_comparison": (
        ["--n", "400", "--iters", "3", "--reps", "2"],
        {"comparison.tsv": ["t", "theory", "opt", "ft_hard", "ct_hard"]},
    ),
    "se_map_comparison": (
        ["--p-list", "0.3", "--grid", "8", "--u-max", "2.0"],
        {"maps_p0_30.tsv": ["u", "F_opt", "F_ft", "F_ct"],
         "cobweb_opt.tsv": ["start", "step", "u", "F_u"]},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_finite_tables(name, tmp_path, monkeypatch):
    argv, tables = CASES[name]
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv, "--out", str(tmp_path)])
    module.main()
    for table, expected in tables.items():
        _meta, columns, rows = read_table(tmp_path / table)
        assert columns == expected
        assert rows
        for row in rows:
            cells = row[1:] if columns[0] == "start" else row
            assert all(math.isfinite(float(cell)) for cell in cells), (table, row)
