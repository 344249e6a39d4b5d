"""File formats: tab-separated tables with metadata headers, and the
logit/target exchange files for the soft-label pipeline.

Every emitted file embeds the resolved configuration and seed in its header
comments, and float formatting uses shortest round-trip repr so re-running a
command with the same seed reproduces the file byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

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

def write_logit_file(path, ids: Sequence[str], z, yhat, meta: Optional[Dict] = None) -> None:
    """One (id, z, yhat) row per sample; labels are written as the integers +-1."""
    header = {"schema": LOGIT_SCHEMA, **(meta or {})}
    write_table(path, header, ["id", "z", "yhat"],
                [(name, float(a), int(b)) for name, a, b in zip(ids, z, yhat)])


def read_logit_file(path) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """(ids, z, yhat) of a logit file.  A logit must be finite and a label
    equal to +1 or -1; anything else raises :class:`ParseError` naming the line."""
    ids: List[str] = []
    zs: List[float] = []
    labels: List[float] = []
    saw_header = False
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}",
                         line=exc.object[:exc.start].count(b"\n") + 1) from None
    for lineno, line in enumerate(text.splitlines(), start=1):
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
            z, yhat = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not math.isfinite(z):
            raise ParseError(f"logit must be finite, got {parts[1]}", line=lineno)
        if yhat not in (-1.0, 1.0):
            raise ParseError(f"yhat must be +1 or -1, got {parts[2]}", line=lineno)
        ids.append(parts[0])
        zs.append(z)
        labels.append(yhat)
    if not saw_header:
        raise ParseError("empty logit file (missing header)", line=1)
    return ids, np.array(zs), np.array(labels)


def write_targets_file(path, ids: Sequence[str], targets, meta: Optional[Dict] = None) -> None:
    header = {"schema": TARGET_SCHEMA, **(meta or {})}
    write_table(path, header, ["id", "target"], zip(ids, targets))
