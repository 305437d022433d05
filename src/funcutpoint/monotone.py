"""Monotone projection of reported cutoff curves.

A fitted cutoff curve must be nondecreasing in rho to be a valid quantile
curve. The projection is isotonic least squares via the
pool-adjacent-violators algorithm, optionally preceded by a centered
moving average.
"""

from __future__ import annotations

import numpy as np

from .quantiles import write_csv

__all__ = ["pava", "moving_average", "monotone_smooth", "write_curve_values_csv"]


def pava(values) -> np.ndarray:
    """Least-squares nondecreasing fit (pool adjacent violators).

    Returns the unique projection of `values` onto the nondecreasing cone
    under the squared error. Idempotent; preserves the mean.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d array")

    # Stack of merged blocks: running (mean, count) pairs.
    means: list[float] = []
    counts: list[int] = []
    for val in v:
        means.append(float(val))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
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


def monotone_smooth(values, window: int = 1):
    """Moving average of odd width `window` (1 disables it) followed by pava.

    Returns (smoothed values, max absolute change from the input).
    """
    v = np.asarray(values, dtype=float)
    smoothed = pava(moving_average(v, window))
    return smoothed, float(np.max(np.abs(smoothed - v)))


def write_curve_values_csv(path, rho, values) -> None:
    rho = np.asarray(rho, dtype=float)
    values = np.asarray(values, dtype=float)
    if rho.shape != values.shape:
        raise ValueError("rho and values must have equal length")
    write_csv(path, ["rho", "value"], zip(rho, values))

