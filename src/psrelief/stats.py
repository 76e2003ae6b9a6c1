"""Percent-error statistics between a candidate and a reference table."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ErrorStats:
    """Cellwise percent errors |candidate - reference| / |reference| * 100.

    Cells whose reference value is zero cannot be scored; they are excluded
    from the aggregates and reported in ``excluded_zero_reference`` instead of
    being silently dropped.  The reference is always the denominator, so the
    comparison is not symmetric in value (it is symmetric in shape checking).
    A percent error or aggregate that leaves the float range is a
    ``ValueError``, never an infinite or NaN figure.
    """

    per_cell: np.ndarray
    average: float
    median: float
    max: float
    excluded_zero_reference: list[tuple[int, int]] = field(default_factory=list)

    @property
    def scored_cells(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.per_cell)))


@np.errstate(over="ignore")  # an overflow is reported as ValueError below
def compare(candidate: np.ndarray, reference: np.ndarray) -> ErrorStats:
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if candidate.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: candidate {candidate.shape} vs reference {reference.shape}"
        )
    per_cell = np.full(reference.shape, np.nan)
    excluded: list[tuple[int, int]] = []
    values: list[float] = []
    for idx in np.ndindex(reference.shape):
        ref = reference[idx]
        if ref == 0.0:
            excluded.append(tuple(int(i) for i in idx))
            continue
        err = abs(candidate[idx] - ref) / abs(ref) * 100.0
        if not math.isfinite(err):
            cell = ", ".join(f"{name}={i + 1}" for name, i in zip("kl", idx))
            raise ValueError(f"percent error of cell {cell} is not finite")
        per_cell[idx] = err
        values.append(err)
    if not values:
        raise ValueError("no scorable cells: every reference value is zero")
    result = ErrorStats(
        per_cell=per_cell,
        average=float(sum(values) / len(values)),
        median=float(statistics.median(values)),
        max=float(max(values)),
        excluded_zero_reference=excluded,
    )
    for name in ("average", "median"):
        if not math.isfinite(getattr(result, name)):
            raise ValueError(f"{name} percent error is not finite")
    return result
