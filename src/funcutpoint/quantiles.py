"""Distributional representation: empirical quantile curves on a shared
probability grid, and the grid, curves, scores and labels files.

Every artifact the package writes goes through write_json or write_csv,
which own its format.
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
    "read_scores_csv",
    "parse_labels",
    "label_array",
    "write_json",
    "write_csv",
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


def check_curve_values(values: np.ndarray) -> None:
    """Fails unless the quantile values are finite and nondecreasing."""
    if np.any(~np.isfinite(values)):
        raise ValueError("curve values must be finite")
    # A comparison, unlike np.diff, cannot overflow on values of opposite sign.
    if np.any(values[1:] < values[:-1]):
        raise ValueError("quantile curve must be nondecreasing")


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
        check_curve_values(values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def empirical_quantile(observations, grid) -> np.ndarray:
    """Left-continuous inverse of the empirical CDF on the grid.

    For each rho the value is the smallest observation t such that the
    fraction of observations <= t reaches rho: a finite, nondecreasing
    array the size of the grid.
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
    return ordered[idx]


def write_json(path, payload) -> None:
    """A JSON artifact: 2-space indent, sorted keys, a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """A CSV artifact: the csv module's default dialect (rows end in \\r\\n).
    str and int cells are written as they are; any other cell, such as a
    numpy float, as repr(float(cell)), which reads back bit for bit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [v if isinstance(v, (str, int)) else repr(float(v)) for v in row]
            for row in rows
        )


def write_grid_json(path, grid) -> None:
    grid = check_grid(grid)
    write_json(path, {"m": int(grid.size), "points": [float(g) for g in grid]})


def load_json_object(path, kind: str, keys) -> dict:
    """The JSON object in `path`, with every key in `keys`; any other
    content fails with a ValueError naming the file as "<kind> file"."""
    try:
        payload = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        raise ValueError(f"{kind} file {path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} file {path}: expected a JSON object")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{kind} file {path}: missing key {key!r}")
    return payload


def subject_rows(path, name: str, check_header, strip: bool = True, unique: bool = True):
    """The data rows of a subject-keyed CSV file, read lazily, as (line,
    subject id, fields); the header, which check_header(header) checks
    (an empty file's is []), is line 1 and each record one line.

    The id is the first field, stripped of spaces when `strip`. A row with
    another field count than the header, an empty id, an id seen before
    (when `unique`), a file without rows, a malformed record (csv.Error)
    and bytes that are not UTF-8 fail with a ValueError naming `name`,
    the file as messages call it, and the line.
    """
    seen = set()
    line_no = 1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            check_header(header)
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ValueError(f"{name} line {line_no}: expected {len(header)} fields, "
                                     f"got {len(row)}")
                sid = row[0].strip() if strip else row[0]
                if not sid:
                    raise ValueError(f"{name} line {line_no}: empty subject_id")
                if unique and sid in seen:
                    raise ValueError(f"{name} line {line_no}: duplicate subject_id {sid!r}")
                seen.add(sid)
                yield line_no, sid, row
        except csv.Error as exc:
            raise ValueError(f"{name} line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{name}: not UTF-8 text ({exc.reason})") from None
    if line_no == 1:
        raise ValueError(f"{name}: no data rows")


def _header_is(path, names):
    """subject_rows' check_header for a file whose stripped header is `names`."""
    def check_header(header):
        if [h.strip() for h in header] != names:
            raise ValueError(f"{path}: expected header {','.join(names)}")
    return check_header


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


def write_curves_csv(path, ids, matrix) -> None:
    """Wide CSV: subject_id,rho_1,...,rho_m, one row per id. Grid goes in a sidecar JSON."""
    write_csv(path, ["subject_id"] + [f"rho_{k}" for k in range(1, matrix.shape[1] + 1)],
              ([sid] + values for sid, values in zip(ids, matrix.tolist())))


def read_curves_csv(path, grid) -> tuple[list[str], np.ndarray]:
    """The ids of a curves file on `grid` and its n x m matrix of values, in file order."""
    grid = check_grid(grid)
    name = f"curves file {path}"
    expected = ["subject_id"] + [f"rho_{k}" for k in range(1, grid.size + 1)]

    def check_header(header):
        if header != expected:
            raise ValueError(f"{name}: header does not match grid")

    rows = {}
    for line_no, sid, row in subject_rows(path, name, check_header, strip=False):
        try:
            values = np.array([float(v) for v in row[1:]])
        except ValueError as exc:
            raise ValueError(f"{name} line {line_no}: non-numeric value") from exc
        try:
            check_curve_values(values)
        except ValueError as exc:
            raise ValueError(f"{name} line {line_no}: {exc}") from None
        rows[sid] = values
    return list(rows), np.vstack(list(rows.values()))


def read_scores_csv(path, column: str) -> tuple[list[str], np.ndarray]:
    """The ids of a scores file and its `column` of finite scores, in file order."""
    col = 0

    def check_header(header):
        nonlocal col
        names = [h.strip() for h in header]
        if not names or names[0] != "subject_id":
            raise ValueError(f"{path}: first column must be subject_id")
        if column not in names:
            raise ValueError(f"{path}: no column named {column!r}")
        col = names.index(column)

    ids, values = [], []
    for line_no, sid, row in subject_rows(path, str(path), check_header):
        ids.append(sid)
        try:
            values.append(float(row[col]))
        except ValueError:
            raise ValueError(f"{path} line {line_no}: non-numeric score {row[col]!r}") from None
        if not np.isfinite(values[-1]):
            raise ValueError(f"{path} line {line_no}: non-finite score {row[col]!r}")
    return ids, np.asarray(values)


def parse_labels(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    check_header = _header_is(path, ["subject_id", "label"])
    for line_no, sid, row in subject_rows(path, str(path), check_header):
        raw = row[1].strip()
        if raw not in ("0", "1"):
            raise ValueError(f"{path} line {line_no}: label must be 0 or 1, got {raw!r}")
        labels[sid] = int(raw)
    return labels


def label_array(ids, labels: dict[str, int], source=None) -> np.ndarray:
    """The labels of `ids`, in order; the first id without one fails, naming source."""
    try:
        return np.array([labels[sid] for sid in ids], dtype=int)
    except KeyError as exc:
        where = f"{source}: " if source is not None else ""
        raise ValueError(f"{where}no label for subject {exc.args[0]!r}") from None
