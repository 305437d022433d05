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

from dataclasses import dataclass, field

import numpy as np

from . import CRITERIA, SPREAD_MODES, U2_MODES
from .cutpoint import _chunks, pick, rates, sorted_sweeps
from .normal import TruncNormalSpec, tn_quantile
from .quantiles import QuantileCurve, check_grid, default_grid, linear_quantiles, write_csv
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
    # parameters shares, and whether it is finite and nondecreasing.
    q0: np.ndarray = field(init=False, repr=False, compare=False)
    q0_sorted: bool = field(init=False, repr=False, compare=False)

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
        q0 = tn_quantile(self.tn, grid)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q0_sorted", _sorted_finite(q0))


def _sorted_finite(q0: np.ndarray) -> bool:
    return bool(np.isfinite(q0).all() and not (q0[1:] < q0[:-1]).any())


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

    zf = z.astype(float)
    if params.spread_mode == "literal":
        coef = (BASE_SPREAD + params.b) * zf * u3
    else:
        coef = BASE_SPREAD + params.b * zf * u3

    return _curves(params, coef, params.a * zf + u1, u2 * params.v), z


def _curves(params, coef, base, u2v):
    """The n x m curve matrix base + u2v + coef*q0, with u2v times rho in
    rho-scaled-u2 mode, rejected unless every row is nondecreasing.

    In literal-u2 mode row i is fl(coef[i]*q0[k]) + (base[i] + u2v[i]).
    Rounding is monotone, so when coef >= 0 and q0 is finite and
    nondecreasing that row is nondecreasing in k, and the O(n*m) scan
    cannot fire: it runs only when that certificate fails.
    """
    q0 = params.q0
    if params.u2_mode == "literal":
        base = base + u2v
        # coef*q0 + base in place: the same sums as base + coef*q0.
        matrix = np.multiply.outer(coef, q0)
        matrix += base[:, None]
        if params.q0_sorted and coef.min() >= 0.0:
            return matrix
    else:
        matrix = (
            base[:, None]
            + u2v[:, None] * params.grid[None, :]
            + coef[:, None] * q0[None, :]
        )
    if np.any(matrix[:, 1:] < matrix[:, :-1]):
        raise ValueError(
            "generated curves are not monotone (literal spread with "
            "rho-scaled u2 can produce decreasing control curves)"
        )
    return matrix


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


def _optima(margins, labels, criteria):
    """Per criterion, (criterion, sensitivities, specificities) of each row's
    cohort at optimize's optimum.

    One sweep of each cohort serves every criterion: the rates at its
    candidates are what optimize(margins[r], labels[r], c) scans, so each
    pick equals that call's sensitivity and specificity. The sweep's arrays
    die on return, before the next chunk's cohorts are drawn.
    """
    size, n = margins.shape
    case_lt, present = sorted_sweeps(margins, labels)[1:]
    sens, spec = rates(np.arange(n + 1), case_lt)
    each = np.arange(size)
    optima = []
    for criterion in criteria:
        i = pick(sens, spec, criterion, present)
        optima.append((criterion, sens[each, i].tolist(), spec[each, i].tolist()))
    return optima


def run_study(
    cells,
    criteria=CRITERIA,
    R: int = 100,
    seed: int = 0,
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
    from the same substream and counted. Replicates are drawn one by one,
    in order, from their substreams; their margins are then sorted and
    swept in chunks (cutpoint.sorted_sweeps), each rate the same quotient
    optimize gives. The work is serial.
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
        for span in _chunks(R, n + 1):
            size = span.stop - span.start
            margins = np.empty((size, n))
            # Labels are 0 or 1, so a byte holds each; sorted_sweeps counts
            # them in int64.
            labels = np.empty((size, n), dtype=np.int8)
            # Huge a or b overflow to inf and nan; the finiteness check
            # below reports that once per chunk, in place of numpy warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                for row, r in enumerate(range(span.start, span.stop)):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(seed, spawn_key=(ci, r)))
                    matrix, z = generate_arrays(params, rng)
                    regen = 0
                    while z.min() == z.max():
                        regen += 1
                        if regen > _MAX_REGENERATIONS:
                            raise RuntimeError("could not draw a cohort with both classes")
                        matrix, z = generate_arrays(params, rng)
                    regenerated += regen
                    labels[row] = z
                    margins[row] = standardise(matrix, z)[2]
                    # Else the next cohort's n x m matrix is built beside it.
                    del matrix
            if not np.isfinite(margins).all():
                raise ValueError(f"cell (a, b, n) = ({a!r}, {b!r}, {n}): "
                                 "generated margins are not finite")
            optima = _optima(margins, labels, criteria)
            for row, r in enumerate(range(span.start, span.stop)):
                for criterion, sens_at, spec_at in optima:
                    rows.append({
                        "a": a, "b": b, "n": n,
                        "criterion": criterion,
                        "replicate": r,
                        "sensitivity": sens_at[row],
                        "specificity": spec_at[row],
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
            mean = float(vals.mean())  # before linear_quantiles reorders vals
            qs = linear_quantiles(vals, _SUMMARY_QUANTILES)
            summary.append({
                "a": a, "b": b, "n": n,
                "criterion": criterion,
                "metric": metric,
                "mean": mean,
                "q025": float(qs[0]),
                "q250": float(qs[1]),
                "median": float(qs[2]),
                "q750": float(qs[3]),
                "q975": float(qs[4]),
            })
    return summary


def write_study_csv(path, rows) -> None:
    write_csv(path, ["a", "b", "n", "criterion", "replicate", "sensitivity", "specificity"],
              ([float(row["a"]), float(row["b"]), int(row["n"]), row["criterion"],
                int(row["replicate"]), float(row["sensitivity"]), float(row["specificity"])]
               for row in rows))


def write_summary_csv(path, summary) -> None:
    cols = ["mean", "q025", "q250", "median", "q750", "q975"]
    write_csv(path, ["a", "b", "n", "criterion", "metric"] + cols,
              ([float(row["a"]), float(row["b"]), int(row["n"]), row["criterion"],
                row["metric"]] + [float(row[c]) for c in cols] for row in summary))
