"""Threshold family h_c(rho) = mu(rho) + c * sigma(rho).

Classifying a curve against the family at level c is equivalent to
comparing its scalar margin (the largest c at which the curve stays on or
above h_c everywhere) with c. That reduction is what makes the functional
rule exactly optimizable in one dimension.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cutpoint import CRITERIA
from .quantiles import QuantileCurve, check_grid

__all__ = [
    "ThresholdFamily",
    "estimate_mu",
    "margin",
    "margin_vector",
    "classify",
    "cutoff_curve",
    "write_cutoff_json",
    "read_cutoff_json",
]

MU_MODES = ("pooled-mean", "group-mean", "pointwise-median")
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


def _curve_matrix(curves: list[QuantileCurve]) -> np.ndarray:
    if not curves:
        raise ValueError("need at least one curve")
    grid = curves[0].grid
    for c in curves[1:]:
        if c.grid.shape != grid.shape or np.any(c.grid != grid):
            raise ValueError("curves do not share one probability grid")
    return np.vstack([c.values for c in curves])


def estimate_mu(
    curves: list[QuantileCurve],
    mode: str = "pooled-mean",
    labels: dict[str, int] | None = None,
    group: int = 0,
    with_sigma: bool = False,
) -> ThresholdFamily:
    """Estimate the centrality curve mu(rho); sigma is 1 unless requested.

    Modes: "pooled-mean" (mean over all curves), "group-mean" (mean over
    the curves whose label equals `group`; requires labels), and
    "pointwise-median" (lower of the two middle values for even counts).
    With `with_sigma` the pointwise sample standard deviation of the pooled
    curves is used, floored at 1e-6 to keep sigma positive.
    """
    if mode not in MU_MODES:
        raise ValueError(f"unknown mu mode: {mode!r}")
    matrix = _curve_matrix(curves)
    grid = curves[0].grid

    if mode == "pooled-mean":
        mu = matrix.mean(axis=0)
    elif mode == "group-mean":
        if labels is None:
            raise ValueError("group-mean mode requires labels")
        mask = np.array([labels[c.subject_id] == group for c in curves])
        if not mask.any():
            raise ValueError(f"no curves with label {group}")
        mu = matrix[mask].mean(axis=0)
    else:
        ordered = np.sort(matrix, axis=0)
        mu = ordered[(len(curves) - 1) // 2]

    if with_sigma:
        if len(curves) < 2:
            raise ValueError("sigma estimation needs at least two curves")
        sigma = np.maximum(matrix.std(axis=0, ddof=1), SIGMA_FLOOR)
    else:
        sigma = np.ones_like(mu)
    return ThresholdFamily(grid, mu, sigma)


def margin(curve: QuantileCurve, family: ThresholdFamily) -> float:
    """Largest c with the curve on or above h_c at every grid point:
    min over the grid of (Y(rho) - mu(rho)) / sigma(rho)."""
    if curve.grid.shape != family.grid.shape or np.any(curve.grid != family.grid):
        raise ValueError("grid mismatch")
    return float(np.min((curve.values - family.mu) / family.sigma))


def margin_vector(curves: list[QuantileCurve], family: ThresholdFamily) -> dict[str, float]:
    matrix = _curve_matrix(curves)
    if curves[0].grid.shape != family.grid.shape or np.any(curves[0].grid != family.grid):
        raise ValueError("grid mismatch")
    margins = np.min((matrix - family.mu) / family.sigma, axis=1)
    return {c.subject_id: float(m) for c, m in zip(curves, margins)}


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
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_cutoff_json(path):
    payload = json.loads(Path(path).read_text())
    family = ThresholdFamily(
        np.asarray(payload["grid"], dtype=float),
        np.asarray(payload["mu"], dtype=float),
        np.asarray(payload["sigma"], dtype=float),
    )
    smoothed = payload.get("smoothed_curve")
    if smoothed is not None:
        smoothed = np.asarray(smoothed, dtype=float)
    c_hat, criterion = float(payload["c_hat"]), str(payload["criterion"])
    if not np.isfinite(c_hat):
        raise ValueError(f"cutoff file {path}: c_hat must be finite, got {c_hat!r}")
    if criterion not in CRITERIA:
        raise ValueError(f"cutoff file {path}: unknown criterion {criterion!r}")
    return family, c_hat, criterion, smoothed
