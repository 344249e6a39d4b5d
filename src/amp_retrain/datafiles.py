"""File formats: tab-separated tables with metadata headers, and the
logit/target exchange files for the soft-label pipeline.

Every emitted file embeds the resolved configuration and seed in its header
comments, and float formatting uses shortest round-trip repr so re-running a
command with the same seed reproduces the file byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bayesmix import LogitRecord
from .errors import ParseError

LOGIT_SCHEMA = "bayesmix-logits v1"
TARGET_SCHEMA = "bayesmix-targets v1"


def _fmt(value) -> str:
    # shortest round-trip repr, identical across runs (numpy scalars included)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_table(
    path,
    meta: Dict[str, str],
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    """Tab-separated table with '# key: value' metadata lines."""
    path = Path(path)
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_table(path) -> Tuple[Dict[str, str], List[str], List[List[str]]]:
    meta: Dict[str, str] = {}
    columns: List[str] = []
    rows: List[List[str]] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, value = body.split(":", 1)
                meta[key.strip()] = value.strip()
            continue
        if not columns:
            columns = line.split("\t")
        else:
            rows.append(line.split("\t"))
    return meta, columns, rows


# --------------------------------------------------------------------------
# logit / target exchange files
# --------------------------------------------------------------------------

def write_logit_file(path, records: Sequence[LogitRecord], meta: Optional[Dict] = None) -> None:
    header = {"schema": LOGIT_SCHEMA, **(meta or {})}
    write_table(path, header, ["id", "z", "yhat"],
                [(r.id if r.id is not None else i, r.z, r.yhat)
                 for i, r in enumerate(records)])


def read_logit_file(path) -> List[LogitRecord]:
    records: List[LogitRecord] = []
    saw_header = False
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if not saw_header:
            if parts[:3] != ["id", "z", "yhat"]:
                raise ParseError(f"expected header 'id\\tz\\tyhat', got {line!r}", line=lineno)
            saw_header = True
            continue
        if len(parts) != 3:
            raise ParseError(f"expected 3 columns, got {len(parts)}", line=lineno)
        try:
            z = float(parts[1])
            yhat = int(float(parts[2]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if yhat not in (-1, 1):
            raise ParseError(f"yhat must be +1 or -1, got {parts[2]}", line=lineno)
        records.append(LogitRecord(z=z, yhat=yhat, id=parts[0]))
    if not saw_header:
        raise ParseError("empty logit file (missing header)", line=1)
    return records


def write_targets_file(path, targets: Sequence[Tuple[Optional[str], float]],
                       meta: Optional[Dict] = None) -> None:
    header = {"schema": TARGET_SCHEMA, **(meta or {})}
    write_table(path, header, ["id", "target"],
                [(tid if tid is not None else i, t) for i, (tid, t) in enumerate(targets)])
