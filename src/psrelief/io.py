"""Instance and table file formats.

Instances are JSON objects keyed by the fields of ``ReliefInstance``;
matrices are row-major lists of lists (see docs/instance-schema.md).
Matrices travel as CSV with header ``k,l,value`` and 1-based indices; lines
starting with ``#`` carry embedded metadata and are skipped on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from psrelief.relief import ReliefInstance


class InputError(ValueError):
    """User-input problem (bad file, bad shape); carries a positioned message."""


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file, newlines translated as text mode
    does.  An unreadable file or bytes that are not UTF-8 raise
    ``InputError`` naming the file; the latter are positioned at the first
    bad byte (1-based line, byte column)."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, line_start) + 1
        raise InputError(f"{path}:{line}:{exc.start - line_start + 1}: not UTF-8 text") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_instance(path: str | Path) -> ReliefInstance:
    path = Path(path)
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}:1:1: expected a JSON object")
    missing = [f.name for f in fields(ReliefInstance) if f.name not in data]
    if missing:
        raise InputError(f"{path}:1:1: missing keys: {', '.join(missing)}")
    try:
        return ReliefInstance.from_dict(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}:1:1: malformed instance: {exc}") from exc


def format_matrix_csv(matrix: np.ndarray, header_comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append("k,l,value")
    m, n = matrix.shape
    for k in range(m):
        for l in range(n):
            lines.append(f"{k + 1},{l + 1},{float(matrix[k][l])!r}")
    return "\n".join(lines) + "\n"


def load_matrix_csv(path: str | Path) -> np.ndarray:
    return parse_matrix_csv(read_text(path), origin=str(Path(path)))


def parse_matrix_csv(text: str, origin: str = "<memory>") -> np.ndarray:
    entries: dict[tuple[int, int], float] = {}
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if [c.strip() for c in line.split(",")] != ["k", "l", "value"]:
                raise InputError(f"{origin}:{line_no}:1: expected header 'k,l,value'")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise InputError(f"{origin}:{line_no}:1: expected 'k,l,value'")
        try:
            k, l, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InputError(f"{origin}:{line_no}:1: {exc}") from exc
        if k < 1 or l < 1:
            raise InputError(f"{origin}:{line_no}:1: indices are 1-based")
        if not math.isfinite(value):
            raise InputError(f"{origin}:{line_no}:1: value {parts[2].strip()!r} is not finite")
        if (k, l) in entries:
            raise InputError(f"{origin}:{line_no}:1: duplicate cell ({k},{l})")
        entries[(k, l)] = value
    if not header_seen:
        raise InputError(f"{origin}:1:1: empty table")
    if not entries:
        raise InputError(f"{origin}:1:1: table has no cells")
    m = max(k for k, _ in entries)
    n = max(l for _, l in entries)
    if len(entries) != m * n:
        raise InputError(f"{origin}:1:1: table is not a full {m}x{n} matrix")
    out = np.zeros((m, n))
    for (k, l), value in entries.items():
        out[k - 1][l - 1] = value
    return out
