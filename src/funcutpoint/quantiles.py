"""Distributional representation: empirical quantile curves on a shared
probability grid, and their grid and curves files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "default_grid",
    "QuantileCurve",
    "empirical_quantile",
    "curve_matrix",
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


def write_grid_json(path, grid) -> None:
    grid = check_grid(grid)
    payload = {"m": int(grid.size), "points": [float(g) for g in grid]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_json_object(path, kind: str, keys) -> dict:
    """The JSON object in `path`, with every key in `keys`; any other
    content fails with a ValueError naming the file as "<kind> file"."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{kind} file {path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} file {path}: expected a JSON object")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{kind} file {path}: missing key {key!r}")
    return payload


def csv_rows(path, name: str):
    """The rows of a CSV file, read lazily. A malformed record (csv.Error,
    such as a field over the csv module's size limit) fails with a
    ValueError naming `name`, the file as messages call it, and the line;
    bytes that are not UTF-8 fail naming it."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except csv.Error as exc:
            raise ValueError(f"{name} line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{name}: not UTF-8 text ({exc.reason})") from None


def _is_number(value) -> bool:
    # JSON true and false load as bool, a subclass of int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_number(payload: dict, key: str, path, kind: str) -> float:
    """payload[key], a JSON number, as a float; any other value fails with
    a ValueError naming the file and the key."""
    value = payload[key]
    if _is_number(value):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{kind} file {path}: {key} must be a number")


def json_numbers(payload: dict, key: str, path, kind: str) -> np.ndarray:
    """payload[key], a JSON list of numbers, as a float array; any other
    value fails with a ValueError naming the file and the key."""
    value = payload[key]
    if isinstance(value, list) and all(_is_number(v) for v in value):
        try:
            return np.array(value, dtype=float)
        except OverflowError:
            pass
    raise ValueError(f"{kind} file {path}: {key} must be a list of numbers")


def read_grid_json(path) -> np.ndarray:
    payload = load_json_object(path, "grid", ["points"])
    points = json_numbers(payload, "points", path, "grid")
    try:
        grid = check_grid(points)
    except ValueError as exc:
        raise ValueError(f"grid file {path}: {exc}") from None
    if "m" in payload and json_number(payload, "m", path, "grid") != grid.size:
        raise ValueError(f"grid file {path}: m does not match point count")
    return grid


def curve_matrix(curves) -> tuple[np.ndarray, np.ndarray]:
    """The curves' shared probability grid, and their values as an n x m
    matrix with one row per curve, in order."""
    if not curves:
        raise ValueError("need at least one curve")
    grid = curves[0].grid
    for c in curves[1:]:
        if c.grid is not grid and (c.grid.shape != grid.shape or np.any(c.grid != grid)):
            raise ValueError("curves do not share one probability grid")
    return grid, np.vstack([c.values for c in curves])


def write_curves_csv(path, curves) -> None:
    """Wide CSV: subject_id,rho_1,...,rho_m. Grid goes in a sidecar JSON."""
    curves = list(curves)
    grid, matrix = curve_matrix(curves)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id"] + [f"rho_{k}" for k in range(1, grid.size + 1)])
        for c, values in zip(curves, matrix.tolist()):
            writer.writerow([c.subject_id] + [repr(v) for v in values])


def read_curves_csv(path, grid) -> list[QuantileCurve]:
    grid = check_grid(grid)
    expected = ["subject_id"] + [f"rho_{k}" for k in range(1, grid.size + 1)]
    curves = []
    seen = set()
    reader = csv_rows(path, f"curves file {path}")
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
