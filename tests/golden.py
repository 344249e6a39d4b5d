"""Golden tables: the data rows of a fixed set of small commands.

``tests/data/golden/`` holds every file each command in :data:`COMMANDS`
writes, named ``<command>.<file>``, without the lines that name the package
version (``# version:`` in a table, ``"version"`` in ``fit.json``).
``test_golden.py`` reruns the commands in-process and compares the files
byte for byte.  A change that moves a table rewrites the files with

    python tests/golden.py --update

and says in CHANGES.md, per column, how far the rows moved: without
``--update`` the script prints, for every file that differs, the largest
absolute and relative move in each numeric column, then the first difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from amp_retrain.cli import main as cli_main
from amp_retrain.datafiles import write_logit_file
from amp_retrain.numerics import RngStream

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

# the files `bayesmix fit` and `apply` read, in the work directory: the
# logits of write_logits and the fit of the command bayesmix_fit
LOGITS = "logits.tsv"
FIT = "bayesmix_fit/fit.json"

_GMM = ["--model", "gmm", "--gamma", "1.5", "--alpha", "2.0", "--p", "0.3", "--pi-plus", "0.3",
        "--iterations", "12"]
_GLM = {"sign": ["--gamma", "1.0", "--alpha", "0.5", "--p", "0.2"],
        "logistic": ["--gamma", "2.0", "--alpha", "0.5", "--p", "0.2"],
        "probit": ["--gamma", "2.0", "--alpha", "0.5", "--p", "0.2"]}
_SIMULATE = ["--n", "400", "--iterations", "6", "--replications", "2", "--seed", "1",
             "--jobs", "1"]
_GMM_VARIANTS = {"opt": [], "identity": [], "smoothed_ft": ["--beta", "20"],
                 "smoothed_ct": ["--beta", "20"], "ft_limit": [], "ct_limit": []}
_GLM_VARIANTS = {"opt": [], "identity": [], "smoothed_ft": ["--beta", "5"],
                 "smoothed_ct": ["--beta", "5"]}


def _glm(link: str) -> List[str]:
    return ["--model", "glm", "--link", link, *_GLM[link], "--iterations", "8"]


COMMANDS: Dict[str, List[str]] = {
    **{f"se_gmm_{v}": ["se", *_GMM, "--variant", v, *extra] for v, extra in _GMM_VARIANTS.items()},
    **{f"se_glm_{link}_{v}": ["se", *_glm(link), "--aggregator", v, *extra]
       for link in _GLM for v, extra in _GLM_VARIANTS.items()},
    # the label-blind smoothed_ft where the GLM's mu' is exactly 0
    "se_glm_probit_smoothed_ft_steep": ["se", "--model", "glm", "--link", "probit", "--gamma", "8",
                                        "--alpha", "0.05", "--p", "0.1", "--iterations", "8",
                                        "--aggregator", "smoothed_ft", "--beta", "5"],
    "se_glm_logistic_smoothed_ft_20": ["se", *_glm("logistic"), "--aggregator", "smoothed_ft",
                                       "--beta", "20"],
    "cobweb_gmm_opt": ["cobweb", *_GMM, "--u1", "0.04"],
    "cobweb_gmm_smoothed_ft_u0": ["cobweb", *_GMM, "--aggregator", "smoothed_ft", "--beta", "20",
                                  "--u1", "0"],
    "cobweb_gmm_smoothed_ft": ["cobweb", *_GMM, "--aggregator", "smoothed_ft", "--beta", "20",
                               "--u1", "0.04"],
    # the exact limits: p = 0, pi_plus in {0, 1}, beta 300, from u1 = 0
    "cobweb_gmm_smoothed_ct_edge": ["cobweb", "--model", "gmm", "--gamma", "1.5", "--alpha", "2.0",
                                    "--p", "0", "--pi-plus", "1.0", "--aggregator", "smoothed_ct",
                                    "--beta", "300", "--u1", "0", "--steps", "5"],
    "cobweb_gmm_smoothed_ft_edge": ["cobweb", "--model", "gmm", "--gamma", "1.5", "--alpha", "2.0",
                                    "--p", "0.2", "--pi-plus", "0.0", "--aggregator", "smoothed_ft",
                                    "--beta", "300", "--u1", "0", "--steps", "5"],
    "cobweb_glm_logistic": ["cobweb", *_glm("logistic"), "--u1", "0.5"],
    # acceptance criterion 03's configuration and p-list
    "crossover": ["crossover", "--gamma", "1.5", "--alpha", "2.0", "--pi-plus", "0.3",
                  "--p-list", "0.2,0.25,0.3"],
    "simulate_gmm": ["simulate", "--model", "gmm", "--gamma", "1.5", "--alpha", "0.8", "--p",
                     "0.4", "--pi-plus", "0.3", *_SIMULATE],
    **{f"simulate_glm_{link}": ["simulate", "--model", "glm", "--link", link, *_GLM[link],
                                *_SIMULATE]
       for link in _GLM},
    "bayesmix_demo": ["bayesmix", "demo", "--p", "0.45", "--gamma", "1.5", "--alpha", "0.8",
                      "--n", "400", "--rounds", "5", "--seed", "0"],
    "bayesmix_fit": ["bayesmix", "fit", "--input", LOGITS],
    "bayesmix_apply": ["bayesmix", "apply", "--input", LOGITS, "--fit", FIT,
                       "--p", "0.3"],
}


def write_logits(path: Path) -> None:
    """200 logits of a two-class mixture (means +-1.5, sd 1), rounded to 6
    digits, each with its class label flipped with probability 0.3."""
    gen = RngStream(2024).generator()
    labels = np.where(gen.random(200) < 0.6, 1.0, -1.0)
    z = np.round(1.5 * labels + gen.standard_normal(200), 6)
    yhat = np.where(gen.random(200) < 0.3, -labels, labels)
    write_logit_file(path, [f"s{i:03d}" for i in range(200)], z, yhat)


def _data(text: str) -> str:
    """The file without the lines that name the package version."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(("# version:", '  "version":')))


def run_all(work: Path) -> Dict[str, str]:
    """Run every command with its outputs under ``work`` and return each
    written file's data, keyed by its golden file name."""
    write_logits(work / LOGITS)
    tables: Dict[str, str] = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in COMMANDS.items():
            argv = [str(work / a) if a in (LOGITS, FIT) else a for a in argv]
            status = cli_main([*argv, "--out", str(work / name)])
            if status != 0:
                raise RuntimeError(f"{name} exited {status}: amp-retrain {' '.join(argv)}")
            for path in sorted((work / name).iterdir()):
                tables[f"{name}.{path.name}"] = _data(path.read_text())
    return tables


def first_difference(name: str, want: str, got: str) -> Optional[str]:
    """Where ``got`` first differs from ``want``: the file, its row (line
    number) and column (the header's name for a table cell), or None."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    header = next((line.split("\t") for line in want_lines if not line.startswith("#")), [])
    for row, (a, b) in enumerate(zip(want_lines, got_lines), 1):
        if a != b:
            cells = list(zip(a.split("\t"), b.split("\t")))
            col = next((k for k, (x, y) in enumerate(cells) if x != y), len(cells))
            label = header[col] if col < len(header) and "\t" in a else col + 1
            return f"{name}: row {row}, column {label}: {a!r} != {b!r} (golden first)"
    if len(want_lines) != len(got_lines):
        return f"{name}: {len(want_lines)} rows in the golden file, {len(got_lines)} written"
    return None


def _numeric_cells(text: str) -> Dict[Tuple[int, str], float]:
    """A file's numeric cells keyed by (data row, column): a table's columns
    are its header's names, a JSON file's are the key paths of its leaves."""
    if text.startswith("{"):
        def leaves(obj, path):
            if isinstance(obj, dict):
                return [leaf for k, v in obj.items() for leaf in leaves(v, f"{path}{k}.")]
            is_number = isinstance(obj, (int, float)) and not isinstance(obj, bool)
            return [((0, path[:-1]), float(obj))] if is_number else []
        return dict(leaves(json.loads(text), ""))
    rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
    cells = {}
    for r, row in enumerate(rows[1:]):
        for name, cell in zip(rows[0], row):
            try:
                cells[r, name] = float(cell)
            except ValueError:
                pass
    return cells


def column_moves(want: str, got: str) -> Dict[str, Tuple[float, float]]:
    """The largest absolute and relative move (against ``want``) of each
    numeric column over the rows both files have, in column order."""
    got_cells = _numeric_cells(got)
    moves: Dict[str, Tuple[float, float]] = {}
    for key, a in _numeric_cells(want).items():
        if key not in got_cells:
            continue
        b = got_cells[key]
        move = 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(b - a)
        move = math.inf if math.isnan(move) else move
        rel = move / abs(a) if 0.0 < abs(a) < math.inf else (math.inf if move else 0.0)
        old = moves.get(key[1], (0.0, 0.0))
        moves[key[1]] = (max(old[0], move), max(old[1], rel))
    return moves


def compare(tables: Dict[str, str]) -> Optional[str]:
    """The first difference between ``tables`` and the golden files, or None."""
    stored = {path.name for path in GOLDEN_DIR.iterdir()}
    if stored != set(tables):
        return (f"golden files missing: {sorted(set(tables) - stored)}; "
                f"golden files no command writes: {sorted(stored - set(tables))}")
    for name in sorted(tables):
        found = first_difference(name, (GOLDEN_DIR / name).read_text(), tables[name])
        if found:
            return found
    return None


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--update", action="store_true",
                    help="rewrite tests/data/golden/ from this tree")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        tables = run_all(Path(work))
    if not args.update:
        for name in sorted(tables):
            path = GOLDEN_DIR / name
            want = path.read_text() if path.exists() else tables[name]
            if want != tables[name]:
                for column, (move, rel) in column_moves(want, tables[name]).items():
                    print(f"{name}: {column}: largest move {move:.3g} absolute, "
                          f"{rel:.3g} relative")
        found = compare(tables)
        print(found or f"{len(tables)} golden files match")
        return 1 if found else 0
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for path in GOLDEN_DIR.iterdir():
        path.unlink()
    for name, text in tables.items():
        (GOLDEN_DIR / name).write_text(text)
    print(f"wrote {len(tables)} files to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
