"""Synthetic benchmark harness.

Generates labeled cohorts of quantile curves with a location separation
(a) and a scale separation (b) between cases and controls, then runs the
replicate study that tabulates in-sample sensitivity and specificity of
the fitted cut-point under each criterion.

The disease-spread term has two readings, selected by spread_mode:

- "shared-base" (default): Q(rho) = a*Z + U1 + U2*v + (5 + b*Z*U3)*Q0(rho).
  Both groups share the base spread 5*Q0; disease adds b*U3*Q0 on top.
  With a = b = 0 the two groups are identically distributed, so the null
  cell really is a null.
- "literal": the spread coefficient is (5 + b)*Z*U3, which makes control
  curves constant in rho. Kept for compatibility with the flat-control
  reading; the a = b = 0 cell still separates almost perfectly under it
  because cases alone carry the Q0 shape.

U2 enters as a constant (u2_mode "literal") or scaled by rho
("rho-scaled"). The literal spread mode combined with rho-scaled U2 can
produce decreasing control curves, which generation rejects.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .cutpoint import CRITERIA, sweep
from .normal import TruncNormalSpec, tn_quantile
from .quantiles import QuantileCurve, check_grid, default_grid
from .threshold import standardise

__all__ = [
    "SPREAD_MODES",
    "U2_MODES",
    "DgpParams",
    "generate_arrays",
    "generate",
    "run_study",
    "summarize_study",
    "write_study_csv",
    "write_summary_csv",
]

SPREAD_MODES = ("shared-base", "literal")
U2_MODES = ("literal", "rho-scaled")
BASE_SPREAD = 5.0
_MAX_REGENERATIONS = 1000


@dataclass(frozen=True)
class DgpParams:
    a: float
    b: float
    n: int
    v: float = 2.0
    grid: np.ndarray = None
    seed: int = 0
    spread_mode: str = "shared-base"
    u2_mode: str = "literal"
    tn: TruncNormalSpec = field(default_factory=TruncNormalSpec)
    # tn_quantile(tn, grid), the spread shape every cohort of these
    # parameters shares.
    q0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < np.inf and 0.0 <= self.b < np.inf):
            raise ValueError("a and b must be finite and nonnegative")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not np.isfinite(self.v):
            raise ValueError("v must be finite")
        if self.spread_mode not in SPREAD_MODES:
            raise ValueError(f"unknown spread mode: {self.spread_mode!r}")
        if self.u2_mode not in U2_MODES:
            raise ValueError(f"unknown u2 mode: {self.u2_mode!r}")
        grid = default_grid() if self.grid is None else check_grid(self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "q0", tn_quantile(self.tn, grid))


def generate_arrays(params: DgpParams, rng: np.random.Generator):
    """One cohort as (curve matrix of shape (n, m), labels z).

    Per subject the draws are consumed in the fixed order Z, U1, U2, U3
    (one row of uniforms each), so the stream is stable across modes and
    parameter values.
    """
    draws = rng.random((params.n, 4))
    z = (draws[:, 0] < 0.5).astype(int)
    u1 = 2.0 * draws[:, 1] - 1.0
    u2 = 2.0 * draws[:, 2] - 1.0
    u3 = 0.8 + 0.4 * draws[:, 3]

    q0 = params.q0
    zf = z.astype(float)
    if params.spread_mode == "literal":
        coef = (BASE_SPREAD + params.b) * zf * u3
    else:
        coef = BASE_SPREAD + params.b * zf * u3

    base = params.a * zf + u1
    if params.u2_mode == "literal":
        base = base + u2 * params.v
        # coef*q0 + base in place: the same sums as base + coef*q0.
        matrix = np.multiply.outer(coef, q0)
        matrix += base[:, None]
    else:
        matrix = (
            base[:, None]
            + (u2 * params.v)[:, None] * params.grid[None, :]
            + coef[:, None] * q0[None, :]
        )
    if np.any(matrix[:, 1:] < matrix[:, :-1]):
        raise ValueError(
            "generated curves are not monotone (literal spread with "
            "rho-scaled u2 can produce decreasing control curves)"
        )
    return matrix, z


def generate(params: DgpParams, rng: np.random.Generator | None = None):
    """One cohort as ([QuantileCurve], {subject_id: label})."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    matrix, z = generate_arrays(params, rng)
    width = len(str(params.n))
    curves = []
    labels = {}
    for i in range(params.n):
        sid = f"s{i + 1:0{width}d}"
        curves.append(QuantileCurve(sid, params.grid, matrix[i]))
        labels[sid] = int(z[i])
    return curves, labels


def _replicate(cell_index, r, params, seed, criteria):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cell_index, r)))
    matrix, z = generate_arrays(params, rng)
    regenerated = 0
    while z.min() == z.max():
        regenerated += 1
        if regenerated > _MAX_REGENERATIONS:
            raise RuntimeError("could not draw a cohort with both classes")
        matrix, z = generate_arrays(params, rng)
    _, _, margins = standardise(matrix, z)
    # One sweep serves every criterion: it is what optimize(margins, z, c)
    # scans, so each pick equals that call's sensitivity and specificity.
    cohort = sweep(margins, z)
    results = []
    for criterion in criteria:
        i = cohort.pick(criterion)
        results.append((criterion, float(cohort.sens[i]), float(cohort.spec[i])))
    return results, regenerated


def run_study(
    cells,
    criteria=CRITERIA,
    R: int = 100,
    seed: int = 0,
    threads: int = 1,
    v: float = 2.0,
    grid=None,
    spread_mode: str = "shared-base",
    u2_mode: str = "literal",
    tn: TruncNormalSpec = TruncNormalSpec(),
):
    """Replicate study over (a, b, n) cells.

    Each replicate draws a fresh cohort from its own seed substream
    (seed, cell_index, r), fits the pooled-mean margin cut-point under
    every criterion on that same cohort, and records in-sample
    sensitivity and specificity. Single-class cohorts are regenerated
    from the same substream and counted. Replicates run one after
    another: `threads` is accepted for compatibility and affects neither
    the results nor their order.
    """
    cells = [(float(a), float(b), int(n)) for a, b, n in cells]
    if not cells:
        raise ValueError("study needs at least one (a, b, n) cell")
    criteria = tuple(criteria)
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion: {criterion!r}")
    if R < 1:
        raise ValueError("R must be at least 1")
    grid = default_grid() if grid is None else check_grid(grid)

    rows = []
    regenerated = 0
    for ci, (a, b, n) in enumerate(cells):
        params = DgpParams(a=a, b=b, n=n, v=v, grid=grid,
                           spread_mode=spread_mode, u2_mode=u2_mode, tn=tn)
        for r in range(R):
            results, regen = _replicate(ci, r, params, seed, criteria)
            regenerated += regen
            for criterion, sens, spec in results:
                rows.append({
                    "a": a, "b": b, "n": n,
                    "criterion": criterion,
                    "replicate": r,
                    "sensitivity": sens,
                    "specificity": spec,
                })
    return rows, {"regenerated": regenerated}


_SUMMARY_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)


def summarize_study(rows):
    """Per-cell, per-criterion quantiles of sensitivity and specificity."""
    groups: dict[tuple, dict[str, list[float]]] = {}
    for row in rows:
        key = (row["a"], row["b"], row["n"], row["criterion"])
        g = groups.setdefault(key, {"sensitivity": [], "specificity": []})
        g["sensitivity"].append(row["sensitivity"])
        g["specificity"].append(row["specificity"])
    summary = []
    for key in groups:
        a, b, n, criterion = key
        for metric in ("sensitivity", "specificity"):
            vals = np.asarray(groups[key][metric])
            qs = np.quantile(vals, _SUMMARY_QUANTILES, method="linear")
            summary.append({
                "a": a, "b": b, "n": n,
                "criterion": criterion,
                "metric": metric,
                "mean": float(vals.mean()),
                "q025": float(qs[0]),
                "q250": float(qs[1]),
                "median": float(qs[2]),
                "q750": float(qs[3]),
                "q975": float(qs[4]),
            })
    return summary


def write_study_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "n", "criterion", "replicate",
                         "sensitivity", "specificity"])
        for row in rows:
            writer.writerow([
                repr(float(row["a"])), repr(float(row["b"])), int(row["n"]),
                row["criterion"], int(row["replicate"]),
                repr(float(row["sensitivity"])), repr(float(row["specificity"])),
            ])


def write_summary_csv(path, summary) -> None:
    cols = ["mean", "q025", "q250", "median", "q750", "q975"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "n", "criterion", "metric"] + cols)
        for row in summary:
            writer.writerow(
                [repr(float(row["a"])), repr(float(row["b"])), int(row["n"]),
                 row["criterion"], row["metric"]]
                + [repr(float(row[c])) for c in cols]
            )
