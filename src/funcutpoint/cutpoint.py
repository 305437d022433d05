"""Exact scalar cut-point optimization over a labeled score sample.

Scores are either functional margins or raw biomarker values; a subject is
classified positive iff score >= c. Sensitivity and specificity are step
functions of c that change only at observed score values, so scanning the
distinct scores plus one sentinel above the maximum is an exact search.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "CRITERIA",
    "CutpointResult",
    "validate_sample",
    "confusion_at",
    "candidate_set",
    "sweep_metrics",
    "Sweep",
    "sweep",
    "optimize",
    "roc_points",
    "auc",
    "write_sweep_csv",
    "write_roc_csv",
    "write_result_json",
]

CRITERIA = ("youden", "max_sensitivity", "max_specificity")


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
    if np.any(~np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    labels = labels.astype(int)
    if not (np.any(labels == 1) and np.any(labels == 0)):
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
    """Distinct scores plus one sentinel above the maximum."""
    scores = np.asarray(scores, dtype=float)
    distinct = np.unique(scores)
    return np.append(distinct, distinct[-1] + 1.0)


def sweep_metrics(scores, labels, cs):
    """Vectorized (sensitivity, specificity) arrays at thresholds cs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    cases = np.sort(scores[labels == 1])
    ctrls = np.sort(scores[labels == 0])
    cs = np.asarray(cs, dtype=float)
    sens = (cases.size - np.searchsorted(cases, cs, side="left")) / cases.size
    spec = np.searchsorted(ctrls, cs, side="left") / ctrls.size
    return sens, spec


def roc_points(scores, labels):
    """ROC over the full candidate sweep, sorted by false-positive rate."""
    cs = candidate_set(scores)
    sens, spec = sweep_metrics(scores, labels, cs)
    return (1.0 - spec)[::-1], sens[::-1]


def auc(scores, labels) -> float:
    """Trapezoidal area under the full-sweep ROC.

    Equals the concordance probability P(case > control) + 0.5 P(equal).
    """
    scores, labels = validate_sample(scores, labels)
    fpr, tpr = roc_points(scores, labels)
    return float(np.trapezoid(tpr, fpr))


def _pick(sens, spec, criterion: str) -> int:
    """Index of the optimum under optimize's tie-break order."""
    if criterion == "youden":
        # argmax returns the first, i.e. smallest-c, maximiser.
        return int(np.argmax(sens + spec - 1.0))
    if criterion == "max_sensitivity":
        primary, secondary = sens, spec
    elif criterion == "max_specificity":
        primary, secondary = spec, sens
    else:
        raise ValueError(f"unknown criterion: {criterion!r}")
    best = np.flatnonzero(primary == primary.max())
    sec = secondary[best]
    return int(best[sec == sec.max()][0])


def _result(criterion, cs, sens, spec, fpr, tpr) -> CutpointResult:
    i = _pick(sens, spec, criterion)
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


class Sweep(NamedTuple):
    """One sorted sample and its exact sweep over the candidate set.

    cases_below[k] is the number of cases among values[:k]; cs, sens and
    spec are the sweep over the distinct scores plus the sentinel, equal
    to candidate_set and sweep_metrics bit for bit.
    """

    values: np.ndarray
    cases_below: np.ndarray
    cs: np.ndarray
    sens: np.ndarray
    spec: np.ndarray

    def rates_at(self, cs):
        """(sensitivity, specificity) at arbitrary thresholds cs, as
        sweep_metrics gives them, without sorting again."""
        below = np.searchsorted(self.values, cs, side="left")
        return _rates(self.cases_below, below)

    def roc(self):
        """(fpr, tpr): the full candidate sweep, sorted by false-positive
        rate, as roc_points gives it."""
        return (1.0 - self.spec)[::-1], self.sens[::-1]

    def pick(self, criterion: str) -> int:
        """Index into the sweep of optimize's c_hat for the criterion."""
        return _pick(self.sens, self.spec, criterion)

    def result(self, criterion: str) -> CutpointResult:
        """optimize's unrestricted result."""
        return _result(criterion, self.cs, self.sens, self.spec, *self.roc())


def _rates(cases_below, below):
    # The integer counts sweep_metrics divides, over the same class sizes,
    # so the quotients are bit-identical to its own.
    n_case = int(cases_below[-1])
    n_ctrl = cases_below.size - 1 - n_case
    case_lt = cases_below[below]
    return (n_case - case_lt) / n_case, (below - case_lt) / n_ctrl


def sweep(scores, labels) -> Sweep:
    """Validate a sample and sort it once into its candidate sweep.

    The candidates are the first value of each run of equal sorted scores
    plus max + 1, and the class counts come from one cumsum of the sorted
    labels. +0.0 and -0.0 compare equal, and candidate_set keeps whichever
    zero np.unique's own sort puts first; when the zero run holds both
    signs, the zero candidate is taken from np.unique so that c_hat and
    the sweep print the same sign.
    """
    scores, labels = validate_sample(scores, labels)
    order = np.argsort(scores)
    values = scores[order]
    cases_below = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(labels[order], out=cases_below[1:])
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    cs = np.append(values[starts], values[-1] + 1.0)
    below = np.append(starts, values.size)
    k = int(np.searchsorted(cs, 0.0))
    if k < starts.size and cs[k] == 0.0:
        signs = np.signbit(values[below[k]:below[k + 1]])
        if signs.any() and not signs.all():
            cs[k] = np.unique(scores)[k]
    sens, spec = _rates(cases_below, below)
    return Sweep(values, cases_below, cs, sens, spec)


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
    """
    full = sweep(scores, labels)
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion!r}")
    cs, sens, spec = full.cs, full.sens, full.spec
    if c_grid is not None:
        cs = np.asarray(c_grid, dtype=float)
        if cs.ndim != 1 or cs.size == 0:
            raise ValueError("c grid must be a nonempty 1-d array")
        cs = np.sort(cs)
        sens, spec = full.rates_at(cs)
    if bounds is not None:
        lo, hi = bounds
        if not lo <= hi:
            raise ValueError("bounds must satisfy l <= u")
        inside = (cs >= lo) & (cs <= hi)
        cs, sens, spec = cs[inside], sens[inside], spec[inside]
        if cs.size == 0:
            raise ValueError("no candidate cut-points inside bounds")
    return _result(criterion, cs, sens, spec, *full.roc())


def write_sweep_csv(path, result: CutpointResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "sensitivity", "specificity", "youden"])
        for row in zip(
            result.sweep_c,
            result.sweep_sensitivity,
            result.sweep_specificity,
            result.sweep_youden,
        ):
            writer.writerow([repr(float(v)) for v in row])


def write_roc_csv(path, result: CutpointResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for f, t in zip(result.roc_fpr, result.roc_tpr):
            writer.writerow([repr(float(f)), repr(float(t))])


def write_result_json(path, result: CutpointResult, extra: dict | None = None) -> None:
    payload = result.to_dict()
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
