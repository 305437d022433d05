"""Exact scalar cut-point optimization over a labeled score sample.

Scores are either functional margins or raw biomarker values; a subject is
classified positive iff score >= c. Sensitivity and specificity are step
functions of c that change only at observed score values, so scanning the
distinct scores plus one sentinel above the maximum is an exact search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantiles import write_csv, write_json

__all__ = [
    "CRITERIA",
    "CutpointResult",
    "validate_sample",
    "confusion_at",
    "candidate_set",
    "sweep_metrics",
    "sorted_sweeps",
    "rates",
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

CRITERIA = ("youden", "max_sensitivity", "max_specificity")
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
    cases = scores[labels == 1]
    ctrls = scores[labels == 0]
    sens = float(np.mean(cases >= c))
    spec = float(np.mean(ctrls < c))
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


def _result(criterion, cs, sens, spec, fpr, tpr) -> CutpointResult:
    i = int(pick(sens, spec, criterion))
    youden = sens + spec - 1.0
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
        auc=float(np.trapezoid(tpr, fpr)),
    )


def rates(case_lt, below, n_case, n):
    """(sensitivity, specificity) of the rule score >= c at thresholds where
    `below` scores, `case_lt` of them cases, lie under c, in a sample of n
    scores, n_case of them cases (arrays broadcast, one row per sample).

    These are the integer counts sweep_metrics divides, over the same class
    sizes, so the quotients are bit-identical to its own.
    """
    return (n_case - case_lt) / n_case, (below - case_lt) / (n - n_case)


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


def candidates(scores, values, cols):
    """The candidates at columns cols[r, :] of row r of sorted_sweeps, as
    candidate_set(scores[r]) prints them: the sorted score there, or the
    row's max + 1 at the sentinel. +0.0 and -0.0 compare equal, so a zero
    candidate takes zero_candidate's sign."""
    rows, n = values.shape
    flat = np.minimum(cols, n - 1)
    flat += np.arange(0, rows * n, n)[:, None]
    cs = values.ravel()[flat]
    sentinel = cols == n
    np.add(cs, 1.0, out=cs, where=sentinel)
    if (cs == 0.0).any():
        for r, j in zip(*np.nonzero((cs == 0.0) & ~sentinel)):
            run = values[r, cols[r, j]:np.searchsorted(values[r], 0.0, side="right")]
            cs[r, j] = zero_candidate(run, scores[r])
    return cs


def zero_candidate(zeros, scores) -> float:
    """The zero that candidate_set(scores) keeps, given the sample's zero
    scores: their one sign, or np.unique's zero when both signs occur
    (np.unique's sort, not argsort's, decides which comes first)."""
    signs = np.signbit(zeros)
    if not signs.any():
        return 0.0
    if signs.all():
        return -0.0
    distinct = np.unique(scores)
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

    The sample is sorted once, as the one row of sorted_sweeps, so the
    rates are the quotients sweep_metrics gives at the candidates.
    """
    scores, labels = validate_sample(scores, labels)
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion!r}")
    values, cases_below, present = (a[0] for a in sorted_sweeps(scores[None], labels[None]))
    below = np.flatnonzero(present)
    cs = candidates(scores[None], values[None], below[None])[0]
    sens, spec = rates(cases_below[below], below, cases_below[-1], scores.size)
    fpr, tpr = (1.0 - spec)[::-1], sens[::-1]
    if c_grid is not None:
        cs = np.asarray(c_grid, dtype=float)
        if cs.ndim != 1 or cs.size == 0:
            raise ValueError("c grid must be a nonempty 1-d array")
        cs = np.sort(cs)
        below = np.searchsorted(values, cs, side="left")
        sens, spec = rates(cases_below[below], below, cases_below[-1], scores.size)
    if bounds is not None:
        lo, hi = bounds
        if not lo <= hi:
            raise ValueError("bounds must satisfy l <= u")
        inside = (cs >= lo) & (cs <= hi)
        cs, sens, spec = cs[inside], sens[inside], spec[inside]
        if cs.size == 0:
            raise ValueError("no candidate cut-points inside bounds")
    return _result(criterion, cs, sens, spec, fpr, tpr)


def write_sweep_csv(path, result: CutpointResult) -> None:
    write_csv(path, ["c", "sensitivity", "specificity", "youden"],
              zip(result.sweep_c, result.sweep_sensitivity, result.sweep_specificity,
                  result.sweep_youden))


def write_roc_csv(path, result: CutpointResult) -> None:
    write_csv(path, ["fpr", "tpr"], zip(result.roc_fpr, result.roc_tpr))


def write_result_json(path, result: CutpointResult, extra: dict | None = None) -> None:
    write_json(path, {**result.to_dict(), **(extra or {})})
