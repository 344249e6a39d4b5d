"""Each script in scripts/ runs at a tiny size and writes finite tables."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from amp_retrain import retrain
from amp_retrain.cli import main as cli_main
from amp_retrain.datafiles import read_table
from amp_retrain.errors import DivergenceError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CASES = {
    "se_map_comparison": (
        ["--p-list", "0.3", "--grid", "8", "--u-max", "2.0"],
        {"maps_p0_30.tsv": ["u", "F_opt", "F_ft", "F_ct"],
         "cobweb_opt.tsv": ["start", "step", "u", "F_u"]},
    ),
}

# tiny versions of the configs README gives for the comparison script
CONFIGS = {
    "gmm": {"model": "gmm", "gamma": 1.5, "alpha": 0.8, "p": 0.4, "pi_plus": 0.3,
            "n": 200, "iterations": 3, "replications": 2, "master_seed": 1},
    "glm_sign": {"model": "glm", "link": "sign", "gamma": 1.0, "alpha": 0.5, "p": 0.2,
                 "n": 400, "iterations": 3, "replications": 2, "master_seed": 1},
}

COMPARISON_COLUMNS = ["t", "theory", "opt", "ft_hard", "ct_hard", "n_reps"]


def run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


def assert_finite(rows, first=0):
    for row in rows:
        assert all(math.isfinite(float(cell)) for cell in row[first:]), row


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_finite_tables(name, tmp_path, monkeypatch):
    argv, tables = CASES[name]
    run_script(name, [*argv, "--out", str(tmp_path)], monkeypatch)
    for table, expected in tables.items():
        _meta, columns, rows = read_table(tmp_path / table)
        assert columns == expected
        assert rows
        assert_finite(rows, first=1 if columns[0] == "start" else 0)


def compare(config, tmp_path, monkeypatch):
    """The comparison script's table for a config, and the config file's path."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run_script("retraining_comparison",
               ["--config", str(path), "--out", str(tmp_path / "cmp")], monkeypatch)
    _meta, columns, rows = read_table(tmp_path / "cmp" / "comparison.tsv")
    assert columns == COMPARISON_COLUMNS
    assert_finite(rows)
    return rows, path


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_retraining_comparison_matches_simulate(name, tmp_path, monkeypatch):
    # one loop, one result: the opt run and its theory are simulate's, cell
    # for cell, and every rule's first step is the same one-shot estimator
    rows, path = compare(CONFIGS[name], tmp_path, monkeypatch)
    assert cli_main(["simulate", "--config", str(path), "--jobs", "1",
                     "--out", str(tmp_path / "sim")]) == 0
    _meta, columns, report = read_table(tmp_path / "sim" / "report.tsv")
    assert columns[:3] == ["t", "predicted_error", "empirical_mean"] and columns[5] == "n_reps"
    assert [[r[0], r[1], r[2], r[5]] for r in report if r[0] != "0"] == \
        [[r[0], r[1], r[2], r[5]] for r in rows]
    assert rows[0][3] == rows[0][4] == rows[0][2]


def test_retraining_comparison_survives_a_diverged_replication(tmp_path, monkeypatch):
    # the first replication's opt run diverges at step 3: rows 1 and 2
    # average both replications, row 3 the one that reached it
    amp_step, forced = retrain.amp_step, []

    def diverging(state, *args):
        if state.t == 2 and not forced:
            forced.append(state.t)
            raise DivergenceError("forced", iteration=3)
        return amp_step(state, *args)

    monkeypatch.setattr(retrain, "amp_step", diverging)
    rows, _path = compare(CONFIGS["gmm"], tmp_path, monkeypatch)
    assert forced == [2]
    assert [(row[0], row[-1]) for row in rows] == [("1", "2"), ("2", "2"), ("3", "1")]
