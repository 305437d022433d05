"""Threshold family h_c(rho) = mu(rho) + c * sigma(rho).

Classifying a curve against the family at level c is equivalent to
comparing its scalar margin (the largest c at which the curve stays on or
above h_c everywhere) with c. That reduction is what makes the functional
rule exactly optimizable in one dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CRITERIA, MU_MODES
from .quantiles import (QuantileCurve, check_grid, curve_matrix, json_number, json_numbers,
                        label_array, load_json_object, write_json)

__all__ = [
    "ThresholdFamily",
    "standardise",
    "estimate_mu",
    "margin_vector",
    "row_margins",
    "classify",
    "cutoff_curve",
    "write_cutoff_json",
    "read_cutoff_json",
]

SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class ThresholdFamily:
    grid: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        grid = check_grid(self.grid)
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if mu.shape != grid.shape or sigma.shape != grid.shape:
            raise ValueError("mu and sigma must match the grid length")
        if np.any(~np.isfinite(mu)):
            raise ValueError("mu must be finite")
        if np.any(~np.isfinite(sigma)) or np.any(sigma <= 0.0):
            raise ValueError("sigma must be positive everywhere")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


def standardise(
    matrix: np.ndarray,
    labels: np.ndarray | None,
    mode: str = "pooled-mean",
    group: int = 0,
    with_sigma: bool = False,
    k_split: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit mu and sigma on the leading k_split rows of `matrix` (all rows
    when 0), standardise the other rows in place to (Y - mu) / sigma and
    return (mu, sigma, margins), margins being their row minima.

    mu is the rows' mean ("pooled-mean"), the mean of those whose label
    equals `group` ("group-mean"), or their lower middle value
    ("pointwise-median"). sigma is their sample standard deviation,
    floored at SIGMA_FLOOR, with `with_sigma`, else 1 and not divided by
    (x / 1.0 == x). mu and sigma never alias `matrix`.
    """
    if mode not in MU_MODES:
        raise ValueError(f"unknown mu mode: {mode!r}")
    # Leading rows of a C-contiguous array reduce in the same order as a
    # copy of them, so mu and sigma are those of the estimation rows alone.
    est = matrix[:k_split] if k_split else matrix
    scored = matrix[k_split:]
    n_est = est.shape[0]
    if with_sigma and n_est < 2:
        raise ValueError("sigma estimation needs at least two curves")
    if mode == "pooled-mean":
        mu = est.mean(axis=0)
    elif mode == "group-mean":
        if labels is None:
            raise ValueError("group-mean mode requires labels")
        mask = labels[:n_est] == group
        if not mask.any():
            raise ValueError(f"no curves with label {group}")
        mu = est[mask].mean(axis=0)
    else:
        mu = np.sort(est, axis=0)[(n_est - 1) // 2]

    # Without a split the pooled mean is the mean of the scored rows, so
    # sigma is taken from them once they are centred, with np.std's own
    # steps: the sum of squares along axis 0, over n - 1, then sqrt.
    centred_sigma = with_sigma and mode == "pooled-mean" and not k_split
    sigma = None
    if with_sigma and not centred_sigma:
        sigma = np.maximum(est.std(axis=0, ddof=1), SIGMA_FLOOR)
    scored -= mu
    if centred_sigma:
        sigma = np.add.reduce(np.square(scored), axis=0)
        sigma /= n_est - 1
        sigma = np.maximum(np.sqrt(sigma, out=sigma), SIGMA_FLOOR)
    margins = _row_minima(scored, sigma)
    return mu, np.ones_like(mu) if sigma is None else sigma, margins


def _row_minima(centred: np.ndarray, sigma: np.ndarray | None) -> np.ndarray:
    """Row minima of centred / sigma, divided in place (None means 1)."""
    if sigma is not None:
        centred /= sigma
    return np.minimum.reduce(centred, axis=1)


def estimate_mu(
    curves: list[QuantileCurve],
    mode: str = "pooled-mean",
    labels: dict[str, int] | None = None,
    group: int = 0,
    with_sigma: bool = False,
) -> ThresholdFamily:
    """Estimate the centrality curve mu(rho); sigma is 1 unless requested.

    The list form of `standardise` over all curves, with labels keyed by
    subject id (group-mean mode requires them).
    """
    grid, matrix = curve_matrix(curves)
    labels_arr = None
    if mode == "group-mean" and labels is not None:
        labels_arr = label_array([c.subject_id for c in curves], labels)
    mu, sigma, _ = standardise(matrix, labels_arr, mode, group, with_sigma)
    return ThresholdFamily(grid, mu, sigma)


def margin_vector(curves: list[QuantileCurve], family: ThresholdFamily) -> dict[str, float]:
    """Each curve's margin against the family, keyed by subject id:
    min over the grid of (Y(rho) - mu(rho)) / sigma(rho)."""
    grid, matrix = curve_matrix(curves)
    if grid.shape != family.grid.shape or np.any(grid != family.grid):
        raise ValueError("grid mismatch")
    return dict(zip([c.subject_id for c in curves], row_margins(matrix, family).tolist()))


def row_margins(matrix: np.ndarray, family: ThresholdFamily) -> np.ndarray:
    """Each row's margin against the family, standardising `matrix` in place."""
    matrix -= family.mu
    return _row_minima(matrix, family.sigma)


def classify(margins: dict[str, float], c: float) -> dict[str, int]:
    """Label 1 iff the margin reaches c (boundary inclusive)."""
    return {sid: int(m >= c) for sid, m in margins.items()}


def cutoff_curve(family: ThresholdFamily, c: float) -> np.ndarray:
    return family.mu + c * family.sigma


def write_cutoff_json(
    path,
    family: ThresholdFamily,
    c_hat: float,
    criterion: str,
    smoothed_curve=None,
) -> None:
    payload = {
        "grid": [float(g) for g in family.grid],
        "mu": [float(v) for v in family.mu],
        "sigma": [float(v) for v in family.sigma],
        "c_hat": float(c_hat),
        "criterion": criterion,
    }
    if smoothed_curve is not None:
        payload["smoothed_curve"] = [float(v) for v in smoothed_curve]
    write_json(path, payload)


def read_cutoff_json(path):
    payload = load_json_object(path, "cutoff", ["grid", "mu", "sigma", "c_hat", "criterion"])
    grid, mu, sigma = (json_numbers(payload, key, path, "cutoff")
                       for key in ("grid", "mu", "sigma"))
    try:
        family = ThresholdFamily(grid, mu, sigma)
    except ValueError as exc:
        raise ValueError(f"cutoff file {path}: {exc}") from None
    smoothed = None
    if payload.get("smoothed_curve") is not None:
        smoothed = json_numbers(payload, "smoothed_curve", path, "cutoff")
    c_hat = json_number(payload, "c_hat", path, "cutoff")
    criterion = str(payload["criterion"])
    if not np.isfinite(c_hat):
        raise ValueError(f"cutoff file {path}: c_hat must be finite, got {c_hat!r}")
    if criterion not in CRITERIA:
        raise ValueError(f"cutoff file {path}: unknown criterion {criterion!r}")
    return family, c_hat, criterion, smoothed
