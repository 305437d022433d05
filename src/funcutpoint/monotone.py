"""Monotone projection of reported cutoff curves.

A fitted cutoff curve must be nondecreasing in rho to be a valid quantile
curve. The projection is weighted isotonic regression via the
pool-adjacent-violators algorithm, optionally preceded by a centered
moving average.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["SmoothConfig", "pava", "moving_average", "monotone_smooth",
           "write_curve_values_csv"]


@dataclass(frozen=True)
class SmoothConfig:
    """window: odd moving-average width; 1 disables pre-smoothing."""

    window: int = 1

    def __post_init__(self) -> None:
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be an odd integer >= 1")


def pava(values, weights=None) -> np.ndarray:
    """Weighted least-squares nondecreasing fit (pool adjacent violators).

    Returns the unique projection of `values` onto the nondecreasing cone
    under the weighted squared error. Idempotent; preserves the weighted
    mean.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    if weights is None:
        w = np.ones_like(v)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape:
            raise ValueError("weights length does not match values")
        if np.any(w <= 0.0) or np.any(~np.isfinite(w)):
            raise ValueError("weights must be positive and finite")

    # Stack of merged blocks: running (mean, weight, count) triples.
    means: list[float] = []
    wsums: list[float] = []
    counts: list[int] = []
    for val, wt in zip(v, w):
        means.append(float(val))
        wsums.append(float(wt))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, w2, c2 = means.pop(), wsums.pop(), counts.pop()
            m1, w1, c1 = means.pop(), wsums.pop(), counts.pop()
            wt_sum = w1 + w2
            means.append((m1 * w1 + m2 * w2) / wt_sum)
            wsums.append(wt_sum)
            counts.append(c1 + c2)
    return np.concatenate([np.full(c, m) for m, c in zip(means, counts)])


def moving_average(values, window: int) -> np.ndarray:
    """Centered moving average; the window shrinks at the boundaries."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 1")
    v = np.asarray(values, dtype=float)
    if window == 1:
        return v.copy()
    half = window // 2
    out = np.empty_like(v)
    for i in range(v.size):
        lo = max(0, i - half)
        hi = min(v.size, i + half + 1)
        out[i] = v[lo:hi].mean()
    return out


def monotone_smooth(values, cfg: SmoothConfig = SmoothConfig()):
    """Moving average (optional) followed by pava.

    Returns (smoothed values, max absolute change from the input).
    """
    v = np.asarray(values, dtype=float)
    smoothed = pava(moving_average(v, cfg.window))
    return smoothed, float(np.max(np.abs(smoothed - v)))


def write_curve_values_csv(path, rho, values) -> None:
    rho = np.asarray(rho, dtype=float)
    values = np.asarray(values, dtype=float)
    if rho.shape != values.shape:
        raise ValueError("rho and values must have equal length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "value"])
        for r, v in zip(rho, values):
            writer.writerow([repr(float(r)), repr(float(v))])

