"""Exact scalar cut-point optimization over a labeled score sample.

Scores are either functional margins or raw biomarker values; a subject is
classified positive iff score >= c. Sensitivity and specificity are step
functions of c that change only at observed score values, so scanning the
distinct scores plus one sentinel above the maximum is an exact search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CRITERIA
from .quantiles import write_csv, write_json

__all__ = [
    "CRITERIA",
    "CutpointResult",
    "validate_sample",
    "confusion_at",
    "candidate_set",
    "sweep_metrics",
    "sorted_sweeps",
    "counted_sweeps",
    "rates",
    "row_aucs",
    "candidates",
    "zero_candidate",
    "pick",
    "optimize",
    "roc_points",
    "auc",
    "write_sweep_csv",
    "write_roc_csv",
    "write_result_json",
]

# Batched callers (both bootstraps and the replicate study) sweep their
# replicates in chunks, as many at once as keep each replicate's candidate
# columns (the width of its sweep) within _CHUNK_ELEMENTS elements.
# Caps of 2^12, 2^13, 2^14 and 2^16 on the benchmark's steps (2-core Xeon,
# numpy 2.4; times in-process, median of 5 to 9 calls interleaved across
# the caps, one session per row; peak RSS of the CLI step, median of 3 or
# more runs):
#   functional bootstrap (n = 1000, B = 1000): 0.93, 0.89, 0.88, 0.86 s;
#     53.5, 53.4, 53.9, 54.8 MB
#   scalar bootstrap (n = 1000, K = 79, B = 2000): 0.18, 0.18, 0.18, 0.20 s;
#     60.8, 61.0, 61.4, 71.7 MB
#   study (8 cells, n = 100 and 1000, R = 200): 0.71, 0.71, 0.68, 0.68 s;
#     39.6, 39.5, 39.7, 41.7 MB
# 2^13 is the largest cap that keeps the study's peak at that of one cohort
# swept at a time (39.6 MB).
_CHUNK_ELEMENTS = 1 << 13


@dataclass(frozen=True)
class CutpointResult:
    criterion: str
    c_hat: float
    sensitivity: float
    specificity: float
    youden: float
    sweep_c: np.ndarray
    sweep_sensitivity: np.ndarray
    sweep_specificity: np.ndarray
    sweep_youden: np.ndarray
    roc_fpr: np.ndarray
    roc_tpr: np.ndarray
    auc: float

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "c_hat": self.c_hat,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "youden": self.youden,
            "auc": self.auc,
            "sweep": {
                "c": [float(v) for v in self.sweep_c],
                "sensitivity": [float(v) for v in self.sweep_sensitivity],
                "specificity": [float(v) for v in self.sweep_specificity],
                "youden": [float(v) for v in self.sweep_youden],
            },
            "roc": {
                "fpr": [float(v) for v in self.roc_fpr],
                "tpr": [float(v) for v in self.roc_tpr],
            },
        }


def validate_sample(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be 1-d and equally long")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    labels = labels.astype(int, copy=False)
    # Labels are 0 or 1 here, so one class is missing iff min == max.
    if labels.size == 0 or labels.min() == labels.max():
        raise ValueError("degenerate sample: need at least one case and one control")
    return scores, labels


def confusion_at(scores, labels, c: float):
    """(sensitivity, specificity, youden) of the rule score >= c."""
    scores, labels = validate_sample(scores, labels)
    if np.isnan(c):
        raise ValueError("c must not be NaN")
    sens, spec = (float(v[0]) for v in sweep_metrics(scores, labels, [c]))
    return sens, spec, sens + spec - 1.0


def candidate_set(scores) -> np.ndarray:
    """Distinct scores plus one sentinel above the maximum: the independent
    reference that the test oracles check `optimize` against."""
    scores = np.asarray(scores, dtype=float)
    distinct = np.unique(scores)
    return np.append(distinct, distinct[-1] + 1.0)


def sweep_metrics(scores, labels, cs):
    """Vectorized (sensitivity, specificity) arrays at thresholds cs: the
    independent reference that the test oracles check `optimize` against."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    cases = np.sort(scores[labels == 1])
    ctrls = np.sort(scores[labels == 0])
    cs = np.asarray(cs, dtype=float)
    sens = (cases.size - np.searchsorted(cases, cs, side="left")) / cases.size
    spec = np.searchsorted(ctrls, cs, side="left") / ctrls.size
    return sens, spec


def roc_points(scores, labels):
    """ROC over the full candidate sweep, sorted by false-positive rate: the
    independent reference that the test oracles check `optimize` against."""
    cs = candidate_set(scores)
    sens, spec = sweep_metrics(scores, labels, cs)
    return (1.0 - spec)[::-1], sens[::-1]


def auc(scores, labels) -> float:
    """Trapezoidal area under the full-sweep ROC.

    Equals the concordance probability P(case > control) + 0.5 P(equal).
    The independent reference that the tests check optimize's AUC against,
    and that the acceptance gate checks against the rank statistic.
    """
    scores, labels = validate_sample(scores, labels)
    fpr, tpr = roc_points(scores, labels)
    return float(np.trapezoid(tpr, fpr))


def pick(sens, spec, criterion: str, present=None):
    """Index of optimize's optimum along the last axis of a sweep.

    Tie-break order: criterion value, then the secondary metric, then the
    first (smallest-c) index. With `present`, a boolean array of the same
    shape, only the candidates marked True compete: the others' criterion
    value is -inf. A 2-d sweep gives one index per row.
    """
    if criterion == "youden":
        primary, secondary = sens + spec - 1.0, None
    elif criterion == "max_sensitivity":
        primary, secondary = sens, spec
    elif criterion == "max_specificity":
        primary, secondary = spec, sens
    else:
        raise ValueError(f"unknown criterion: {criterion!r}")
    if present is not None:
        primary = np.where(present, primary, -np.inf)
    if secondary is not None:
        best = primary == primary.max(axis=-1, keepdims=True)
        primary = np.where(best, secondary, -np.inf)
    # argmax returns the first maximiser.
    return np.argmax(primary, axis=-1)


def rates(below, case_lt):
    """(sensitivity, specificity) of the rule score >= c at every column of
    a sweep, where below[..., k] scores, case_lt[..., k] of them cases, lie
    under column k's threshold; the last column, above every score, counts
    a sample's n scores and n_case cases (arrays broadcast, a row a sample).
    These are the integer counts sweep_metrics divides, over the same class
    sizes, so the quotients are bit-identical to its own."""
    n_case = case_lt[..., -1:]
    return (n_case - case_lt) / n_case, (below - case_lt) / (below[..., -1:] - n_case)


def _chunks(count: int, width: int):
    """Slices of range(count), each as many items as keep a (rows, width)
    array within _CHUNK_ELEMENTS elements, and at least one."""
    chunk = max(1, _CHUNK_ELEMENTS // width)
    for start in range(0, count, chunk):
        yield slice(start, min(start + chunk, count))


def sorted_sweeps(scores, labels):
    """Sort each row of a 2-d array of samples once.

    Column k < n of a row is the threshold at its k-th sorted score and
    column n the sentinel above them all, so k scores lie below column k.
    Returns the sorted scores, cases_below, where cases_below[r, k] counts
    the cases among values[r, :k], and present, which marks the candidates:
    the first score of each run of equal scores, and the sentinel.
    """
    rows, n = scores.shape
    # Flat indices of each row's sorted order: one 1-d gather per array.
    order = np.argsort(scores, axis=1)
    order += np.arange(0, rows * n, n)[:, None]
    values = scores.ravel()[order]
    cases_below = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(labels.ravel()[order], axis=1, out=cases_below[:, 1:])
    present = np.ones((rows, n + 1), dtype=bool)
    np.not_equal(values[:, 1:], values[:, :-1], out=present[:, 1:-1])
    return values, cases_below, present


def counted_sweeps(counts):
    """The sweeps of a chunk of resamples of one sorted sample, from counts.

    counts[r, k, y] is the number of draws of resample r whose score is the
    k-th of the K distinct values and whose label is y. Column k < K is the
    threshold at the k-th distinct value and column K the sentinel. Returns
    below and case_lt, the draws and case draws under each column, and
    present, which marks the values drawn, plus the sentinel.
    """
    rows, K, _ = counts.shape
    below = np.zeros((rows, K + 1), dtype=np.int64)
    np.cumsum(counts.sum(axis=2), axis=1, out=below[:, 1:])
    case_lt = np.zeros((rows, K + 1), dtype=np.int64)
    np.cumsum(counts[:, :, 1], axis=1, out=case_lt[:, 1:])
    present = np.ones((rows, K + 1), dtype=bool)
    np.not_equal(below[:, 1:], below[:, :-1], out=present[:, :-1])
    return below, case_lt, present


def row_aucs(sens, spec, present):
    """np.trapezoid(sens[r, kept][::-1], (1 - spec[r, kept])[::-1]) for
    every row r, where kept = present[r], with the same arithmetic: the
    trapezoidal area under each row's ROC.

    np.trapezoid sums, in reverse candidate order, the terms
    (fpr[i] - fpr[i + 1]) * (sens[i] + sens[i + 1]) / 2.0 with np.add.reduce;
    reversing the terms of all rows at once leaves each row's terms
    contiguous and in that order, so each row's sum is the same reduce.
    The optimize and batched scalar bootstrap tests check it against
    np.trapezoid bit for bit. It saves about 12 us per replicate over a
    np.trapezoid call per row: the bootstrap-cohort scalar step (B = 2000)
    took 0.254 s against 0.278 s in median of 10 alternating pairs, and was
    faster in 8.
    """
    s = sens[present]
    fpr = 1.0 - spec[present]
    terms = ((fpr[:-1] - fpr[1:]) * (s[:-1] + s[1:]) / 2.0)[::-1].copy()
    sizes = present.sum(axis=1)
    firsts = s.size - np.cumsum(sizes)
    return np.array([np.add.reduce(terms[first:first + k - 1])
                     for first, k in zip(firsts, sizes)])


def candidates(values, present, cols, sample_of):
    """The candidates at columns cols[r, :] of row r of a sweep, as
    candidate_set(sample_of(r)) prints them.

    values holds the sorted values that columns 0..W-1 stand for, a row
    per sweep (sorted_sweeps) or one row all share (counted_sweeps' distinct
    values). Column W is the sentinel, the largest present value + 1; a row
    where that rounds back to the value has no cut-off above it and fails
    with FloatingPointError, whichever columns it asks for. +0.0 and -0.0
    compare equal, so a zero takes zero_candidate's sign over sample_of(r),
    asked for only then; sample_of may instead return the zero itself when
    its sign is already known.
    """
    rows, width = present.shape[0], values.shape[1]
    row = np.arange(rows) % len(values)  # 0 for every sweep when one row is shared
    top = values[row, width - 1 - np.argmax(present[:, width - 1::-1], axis=1)]
    above = top + 1.0
    stuck = above <= top
    if stuck.any():
        raise FloatingPointError(f"no cut-off above the maximum score {float(top[stuck][0])!r}: "
                                 "max + 1.0 rounds back to it")
    cs = np.where(cols == width, above[:, None], values[row[:, None], np.minimum(cols, width - 1)])
    if (cs == 0.0).any():
        for r, j in zip(*np.nonzero((cs == 0.0) & (cols < width))):
            zero = sample_of(int(r))
            cs[r, j] = zero if np.ndim(zero) == 0 else zero_candidate(zero)
    return cs


def zero_candidate(sample) -> float:
    """The zero that candidate_set(sample) keeps: the one sign of the
    sample's zeros, or np.unique's zero when both signs occur (np.unique's
    sort, not argsort's, decides which comes first)."""
    signs = np.signbit(sample[sample == 0.0])
    if not signs.any():
        return 0.0
    if signs.all():
        return -0.0
    distinct = np.unique(sample)
    return distinct[np.searchsorted(distinct, 0.0)]


def optimize(
    scores,
    labels,
    criterion: str = "youden",
    bounds: tuple[float, float] | None = None,
    c_grid=None,
) -> CutpointResult:
    """Maximize the criterion over the candidate set (exact) or a user grid.

    Tie-break order: criterion value, then the stated secondary metric
    (specificity for max_sensitivity, sensitivity for max_specificity,
    none for youden), then smallest c. The ROC and AUC always come from
    the unrestricted candidate sweep; `bounds` and `c_grid` only restrict
    where c_hat may lie.

    The sample is the one row of sorted_sweeps: its rates at every column,
    its candidates and its row AUC are what the batched callers read, and
    every rate is the quotient sweep_metrics gives.
    """
    scores, labels = validate_sample(scores, labels)
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion!r}")
    values, cases_below, present = sorted_sweeps(scores[None], labels[None])
    sens, spec = rates(np.arange(scores.size + 1), cases_below)
    auc = float(row_aucs(sens, spec, present)[0])
    sens, spec = sens[0], spec[0]
    at = np.flatnonzero(present[0])
    cs = candidates(values, present, at[None], lambda r: scores)[0]
    fpr, tpr = (1.0 - spec[at])[::-1], sens[at][::-1]
    if c_grid is not None:
        cs = np.asarray(c_grid, dtype=float)
        if cs.ndim != 1 or cs.size == 0:
            raise ValueError("c grid must be a nonempty 1-d array")
        cs = np.sort(cs)
        at = np.searchsorted(values[0], cs, side="left")
    if bounds is not None:
        lo, hi = bounds
        if not lo <= hi:
            raise ValueError("bounds must satisfy l <= u")
        inside = (cs >= lo) & (cs <= hi)
        cs, at = cs[inside], at[inside]
        if cs.size == 0:
            raise ValueError("no candidate cut-points inside bounds")
    sens, spec = sens[at], spec[at]
    youden = sens + spec - 1.0
    i = int(pick(sens, spec, criterion))
    return CutpointResult(
        criterion=criterion,
        c_hat=float(cs[i]),
        sensitivity=float(sens[i]),
        specificity=float(spec[i]),
        youden=float(youden[i]),
        sweep_c=cs,
        sweep_sensitivity=sens,
        sweep_specificity=spec,
        sweep_youden=youden,
        roc_fpr=fpr,
        roc_tpr=tpr,
        auc=auc,
    )


def write_sweep_csv(path, result: CutpointResult) -> None:
    write_csv(path, ["c", "sensitivity", "specificity", "youden"],
              zip(result.sweep_c, result.sweep_sensitivity, result.sweep_specificity,
                  result.sweep_youden))


def write_roc_csv(path, result: CutpointResult) -> None:
    write_csv(path, ["fpr", "tpr"], zip(result.roc_fpr, result.roc_tpr))


def write_result_json(path, result: CutpointResult, extra: dict | None = None) -> None:
    write_json(path, {**result.to_dict(), **(extra or {})})
