"""Per-subject glycemic variability indices for the scalar comparison path:
MG, SD, CV, IQR, TAR, time-normalized AUC, MAGE, and CONGA.

MAGE follows the classic turning-point convention (plateaus collapsed,
amplitudes above one sample SD, both directions averaged); CONGA is the
sample SD of glucose differences at a fixed lag. The exact published
variants differ between tools, so the convention names are surfaced in
CLI metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import SubjectSeries
from .quantiles import empirical_quantile, write_csv

__all__ = [
    "IndexVector",
    "mage",
    "conga",
    "compute_indices",
    "write_indices_csv",
]

MAGE_CONVENTION = "classic"
# New trapezoid segment when the time delta exceeds this (gaps across
# discarded days are never bridged; retained in-day gaps are shorter).
AUC_BRIDGE_MAX_MINUTES = 120.0

INDEX_COLUMNS = (
    "mg", "sd", "cv", "iqr", "mage", "conga", "auc_index", "tar140", "tar180",
)


@dataclass(frozen=True)
class IndexVector:
    subject_id: str
    mg: float
    sd: float
    cv: float
    iqr: float
    mage: float
    conga: float
    auc_index: float
    tar140: float
    tar180: float


def _tar(values: np.ndarray, threshold: float, inclusive: bool) -> float:
    if inclusive:
        return float(np.mean(values >= threshold))
    return float(np.mean(values > threshold))


def _auc_index(series: SubjectSeries) -> float:
    """Trapezoidal time-weighted mean glucose over contiguous segments."""
    t = series.times.astype(float)
    v = series.values
    bridge_max = AUC_BRIDGE_MAX_MINUTES * 60.0
    breaks = np.flatnonzero(np.diff(t) > bridge_max)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [t.size]])
    area = 0.0
    duration = 0.0
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        area += float(np.trapezoid(v[s:e], t[s:e]))
        duration += float(t[e - 1] - t[s])
    if duration == 0.0:
        raise ValueError("no contiguous segments for the AUC index")
    return area / duration


def mage(series: SubjectSeries) -> float:
    """Mean amplitude of glycemic excursions, classic convention.

    Collapses plateaus, walks the alternating extrema sequence (endpoints
    included once an interior turning point exists), and averages the
    amplitudes strictly greater than one sample SD of the full series.
    Monotone or constant series have no excursions: 0.
    """
    if series.n_records < 3:
        raise ValueError("need at least 3 records for MAGE")
    v = series.values
    sd = float(np.std(v, ddof=1))
    collapsed = v[np.concatenate([[True], np.diff(v) != 0])]
    if collapsed.size < 3:
        return 0.0
    step = np.sign(np.diff(collapsed))
    turning = np.flatnonzero(step[1:] != step[:-1]) + 1
    if turning.size == 0:
        return 0.0
    extrema = collapsed[np.concatenate([[0], turning, [collapsed.size - 1]])]
    amplitudes = np.abs(np.diff(extrema))
    qualifying = amplitudes[amplitudes > sd]
    return float(qualifying.mean()) if qualifying.size else 0.0


def conga(series: SubjectSeries, horizon_hours: float = 1.0) -> float:
    """Sample SD of G(t) - G(t - horizon) over all pairable samples.

    A sample pairs with the nearest earlier sample within half the nominal
    interval of the target time t - horizon.
    """
    if not horizon_hours > 0:
        raise ValueError("horizon must be positive")
    t = series.times.astype(float)
    v = series.values
    horizon = horizon_hours * 3600.0
    if t.size < 2 or t[-1] - t[0] <= horizon:
        raise ValueError("series span does not exceed the CONGA horizon")
    tolerance = series.nominal_interval_minutes * 60.0 / 2.0

    targets = t - horizon
    right = np.searchsorted(t, targets)
    left = np.maximum(right - 1, 0)
    right = np.minimum(right, t.size - 1)
    pick_left = np.abs(t[left] - targets) <= np.abs(t[right] - targets)
    nearest = np.where(pick_left, left, right)
    valid = np.abs(t[nearest] - targets) <= tolerance
    valid &= nearest < np.arange(t.size)
    diffs = v[valid] - v[nearest[valid]]
    if diffs.size < 2:
        raise ValueError("no valid sample pairs for the CONGA horizon")
    return float(np.std(diffs, ddof=1))


def compute_indices(
    series: SubjectSeries,
    conga_horizon_hours: float = 1.0,
    tar_inclusive: bool = True,
) -> IndexVector:
    """Every index of one subject.

    sd uses the n-1 denominator; cv = 100*sd/mg (NaN when mg <= 0, which
    clamped CGM data never produces); iqr is Q(0.75)-Q(0.25) under the
    same left-continuous quantile definition the curves use; tar is the
    fraction of samples at or above the threshold (above it when not
    tar_inclusive).
    """
    if series.n_records < 2:
        raise ValueError("need at least 2 records for the basic indices")
    v = series.values
    mg = float(np.mean(v))
    sd = float(np.std(v, ddof=1))
    quart = empirical_quantile(v, np.array([0.25, 0.75]))
    auc_index = _auc_index(series)
    return IndexVector(
        subject_id=series.subject_id,
        mg=mg,
        sd=sd,
        cv=100.0 * sd / mg if mg > 0 else float("nan"),
        iqr=float(quart[1] - quart[0]),
        mage=mage(series),
        conga=conga(series, conga_horizon_hours),
        auc_index=auc_index,
        tar140=_tar(v, 140.0, tar_inclusive),
        tar180=_tar(v, 180.0, tar_inclusive),
    )


def write_indices_csv(path, rows: list[IndexVector]) -> None:
    write_csv(path, ["subject_id", *INDEX_COLUMNS],
              ([r.subject_id] + [float(getattr(r, col)) for col in INDEX_COLUMNS]
               for r in rows))
