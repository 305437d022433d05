"""Distributional representation: empirical quantile curves on a shared
probability grid, CDF helpers, in-range fractions, and a density estimate
for plotting.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .normal import norm_cdf

__all__ = [
    "default_grid",
    "QuantileCurve",
    "empirical_quantile",
    "empirical_cdf",
    "time_in_range",
    "fraction_at_or_below",
    "fraction_at_or_above",
    "density_plot_data",
    "write_grid_json",
    "read_grid_json",
    "write_curves_csv",
    "read_curves_csv",
]


def default_grid(m: int = 100) -> np.ndarray:
    """Interior probability grid rho_k = k / (m + 1) for k = 1..m."""
    if m < 1:
        raise ValueError("grid size must be >= 1")
    return np.arange(1, m + 1, dtype=float) / (m + 1.0)


def check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("probability grid must be a nonempty 1-d array")
    if np.any(~np.isfinite(g)) or np.any(g <= 0.0) or np.any(g > 1.0):
        raise ValueError("probability grid points must lie in (0, 1]")
    if np.any(np.diff(g) <= 0.0):
        raise ValueError("probability grid must be strictly increasing")
    return g


@dataclass(frozen=True)
class QuantileCurve:
    """A subject's distribution as quantile values on a probability grid.

    Values must be nondecreasing along the grid; this is asserted on
    construction. Units are mg/dL in the CGM pipeline, but the
    representation itself is scale-agnostic (the simulation harness uses
    an abstract scale).
    """

    subject_id: str
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = check_grid(self.grid)
        values = np.asarray(self.values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("curve values and grid must have equal length")
        if np.any(~np.isfinite(values)):
            raise ValueError("curve values must be finite")
        if np.any(np.diff(values) < 0.0):
            raise ValueError("quantile curve must be nondecreasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.grid.size


def empirical_quantile(observations, grid, subject_id: str = "") -> QuantileCurve:
    """Left-continuous inverse of the empirical CDF on the grid.

    For each rho the value is the smallest observation t such that the
    fraction of observations <= t reaches rho.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        raise ValueError("no data for subject")
    if np.any(~np.isfinite(obs)):
        raise ValueError("observations must be finite")
    grid = check_grid(grid)
    ordered = np.sort(obs)
    n = obs.size
    fractions = np.arange(1, n + 1, dtype=float) / n
    idx = np.searchsorted(fractions, grid, side="left")
    idx = np.minimum(idx, n - 1)
    return QuantileCurve(subject_id, grid, ordered[idx])


def empirical_cdf(observations, t):
    """Fraction of observations <= t. Accepts scalar or array t."""
    obs = np.sort(np.asarray(observations, dtype=float))
    if obs.size == 0:
        raise ValueError("no data for subject")
    counts = np.searchsorted(obs, t, side="right")
    out = counts / obs.size
    return float(out) if np.ndim(t) == 0 else out


def time_in_range(observations, lo: float, hi: float) -> float:
    """Fraction of samples with lo <= x < hi."""
    if not lo < hi:
        raise ValueError("lo must be below hi")
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        raise ValueError("no data for subject")
    return float(np.mean((obs >= lo) & (obs < hi)))


def fraction_at_or_below(observations, t: float) -> float:
    """Fraction of samples with x <= t (hypoglycemia-style rule)."""
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        raise ValueError("no data for subject")
    return float(np.mean(obs <= t))


def fraction_at_or_above(observations, t: float) -> float:
    """Fraction of samples with x >= t (time-above-range rule)."""
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        raise ValueError("no data for subject")
    return float(np.mean(obs >= t))


GLUCOSE_LO = 40.0
GLUCOSE_HI = 400.0
_DENSITY_POINTS = 361


def density_plot_data(curve: QuantileCurve, bandwidth: float):
    """Gaussian-kernel density over [40, 400] at 361 equally spaced points.

    Each kernel is renormalized by its mass inside the glucose range so the
    trapezoid integral stays within 1e-3 of 1. Plotting convenience only;
    curve values are expected to lie inside the range. Bandwidths much
    below the 1 mg/dL grid step undersample the kernels.
    """
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    x = np.linspace(GLUCOSE_LO, GLUCOSE_HI, _DENSITY_POINTS)
    vals = curve.values
    z = (x[None, :] - vals[:, None]) / bandwidth
    kernels = np.exp(-0.5 * z * z) / (bandwidth * math.sqrt(2.0 * math.pi))
    mass = norm_cdf((GLUCOSE_HI - vals) / bandwidth) - norm_cdf(
        (GLUCOSE_LO - vals) / bandwidth
    )
    density = np.mean(kernels / mass[:, None], axis=0)
    return x, density


def write_grid_json(path, grid) -> None:
    grid = check_grid(grid)
    payload = {"m": int(grid.size), "points": [float(g) for g in grid]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_grid_json(path) -> np.ndarray:
    payload = json.loads(Path(path).read_text())
    grid = check_grid(payload["points"])
    if "m" in payload and int(payload["m"]) != grid.size:
        raise ValueError(f"grid file {path}: m does not match point count")
    return grid


def write_curves_csv(path, curves) -> None:
    """Wide CSV: subject_id,rho_1,...,rho_m. Grid goes in a sidecar JSON."""
    curves = list(curves)
    if not curves:
        raise ValueError("no curves to write")
    m = curves[0].m
    for c in curves:
        if c.m != m or np.any(c.grid != curves[0].grid):
            raise ValueError("curves must share one probability grid")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id"] + [f"rho_{k}" for k in range(1, m + 1)])
        for c in curves:
            writer.writerow([c.subject_id] + [repr(float(v)) for v in c.values])


def read_curves_csv(path, grid) -> list[QuantileCurve]:
    grid = check_grid(grid)
    expected = ["subject_id"] + [f"rho_{k}" for k in range(1, grid.size + 1)]
    curves = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ValueError(f"curves file {path}: header does not match grid")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise ValueError(f"curves file {path} line {line_no}: wrong column count")
            if row[0] in seen:
                raise ValueError(
                    f"curves file {path} line {line_no}: duplicate subject_id {row[0]!r}"
                )
            seen.add(row[0])
            try:
                values = np.array([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ValueError(
                    f"curves file {path} line {line_no}: non-numeric value"
                ) from exc
            try:
                curves.append(QuantileCurve(row[0], grid, values))
            except ValueError as exc:
                raise ValueError(f"curves file {path} line {line_no}: {exc}") from None
    if not curves:
        raise ValueError(f"curves file {path}: no data rows")
    return curves
