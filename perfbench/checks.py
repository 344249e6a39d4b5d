"""Output checks on what one pass wrote; their failures feed ``fail_ratio``.

An operation is one replication for ``simulate`` and one command (or the
fixed-point scan) otherwise.  It fails on a nonzero exit code, a diverged
replication, a non-finite value, or a failed check.  A failure that concerns
the whole ``simulate`` call (exit code, report row, gap) fails all of its
replications.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from amp_retrain.datafiles import read_table
from workloads import CROSSOVER_EXPECTED, CROSSOVER_TOLERANCE, GAP_TOLERANCE


@dataclass
class OpCheck:
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def digests(out_dir: Path) -> Dict[str, str]:
    """sha256 of every file an operation wrote, keyed by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def _is_finite_cell(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True   # a label such as "ok" or "map"


def _finite_problems(out_dir: Path) -> List[str]:
    problems = []
    for path in sorted(Path(out_dir).glob("*.tsv")):
        _meta, _columns, rows = read_table(path)
        bad = sum(not all(_is_finite_cell(c) for c in row) for row in rows)
        if bad:
            problems.append(f"{path.name}: {bad} rows with non-finite values")
    return problems


def check_simulate(out_dir: Path, code: Optional[int], replications: int) -> OpCheck:
    """Exit 0, finite tables, every gap within tolerance, no diverged replication."""
    whole: List[str] = []      # problems that fail every replication of the call
    bad_reps = set()
    if code != 0:
        whole.append(f"simulate exited with {code}")
    else:
        try:
            whole += _finite_problems(out_dir)
            _meta, columns, rows = read_table(out_dir / "report.tsv")
            gap_col, reps_col = columns.index("abs_gap"), columns.index("n_reps")
            for row in rows:
                if not float(row[gap_col]) <= GAP_TOLERANCE:
                    whole.append(f"t={row[0]}: abs_gap {row[gap_col]} > {GAP_TOLERANCE}")
                if int(row[reps_col]) != replications:
                    whole.append(f"t={row[0]}: {row[reps_col]} of {replications} replications")
            _meta, columns, rows = read_table(out_dir / "trajectories.tsv")
            status_col = columns.index("status")
            bad_reps = {row[0] for row in rows
                        if row[status_col] != "ok" or not all(map(_is_finite_cell, row))}
        except (OSError, ValueError, IndexError) as exc:
            whole.append(f"unreadable simulate output: {exc!r}")
    check = OpCheck(attempted=replications, problems=list(whole))
    if bad_reps:
        check.problems.append(f"diverged or non-finite replications: {sorted(bad_reps)}")
    check.failed = replications if whole else len(bad_reps)
    return check


def check_command(name: str, out_dir: Path, code: Optional[int]) -> OpCheck:
    """Exit 0 and finite tables; the crossover table also matches its references."""
    check = OpCheck(attempted=1)
    if code != 0:
        check.problems.append(f"{name} exited with {code}")
    else:
        try:
            check.problems += _finite_problems(out_dir)
            if name == "crossover":
                check.problems += _crossover_problems(out_dir / "crossover.tsv")
        except (OSError, ValueError, IndexError) as exc:
            check.problems.append(f"unreadable {name} output: {exc!r}")
    check.failed = int(bool(check.problems))
    return check


def _crossover_problems(path: Path) -> List[str]:
    _meta, columns, rows = read_table(path)
    found = {float(r[columns.index("p")]): float(r[columns.index("u_star")]) for r in rows}
    problems = []
    for p, expected in CROSSOVER_EXPECTED.items():
        u = found.get(p, math.nan)
        if not abs(u - expected) <= CROSSOVER_TOLERANCE:
            problems.append(f"crossover p={p}: u*={u} not within "
                            f"{CROSSOVER_TOLERANCE} of {expected}")
    return problems


def check_fixed_points(points: Optional[Sequence[float]]) -> OpCheck:
    check = OpCheck(attempted=1)
    if not points or not all(math.isfinite(u) for u in points):
        check.problems.append(f"fixed points missing or non-finite: {points!r}")
        check.failed = 1
    return check
