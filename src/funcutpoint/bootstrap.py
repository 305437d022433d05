"""Subject-level bootstrap for the fitted cut-point.

Each replicate resamples subjects with replacement, re-estimates the
centrality curve on the resample, recomputes margins against it, and
re-optimizes the criterion. Percentile intervals come from the replicate
cut-points; pointwise bands cover the cutoff curve (in rho) and the
sensitivity/specificity sweep (on a fixed reference c-grid).

Replicate b draws only from its own seed substream (seed, b), so results
are byte-identical across runs. Replicates run serially; bootstrap_cutpoint
keeps a `threads` keyword for its callers, which changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutpoint import (_chunks, candidates, counted_sweeps, optimize, pick, rates, row_aucs,
                       sorted_sweeps, validate_sample)
from .quantiles import curve_matrix, label_array, write_csv, write_json
from .threshold import standardise

__all__ = [
    "BootstrapConfig",
    "BootstrapSummary",
    "bootstrap_cutpoint",
    "bootstrap_curves",
    "bootstrap_scalar",
    "write_bootstrap_summary_json",
    "write_curve_band_csv",
    "write_sweep_band_csv",
]

SWEEP_BAND_POINTS = 512
# Sweep band rows whose rates _aggregate rebuilds at once. On the benchmark's
# scalar step (n = 1000, B = 2000), blocks of 16, 64 and 128 rows peak at
# 42.8, 45.6 and 49.2 MB, and _aggregate takes about 40 ms with each.
_BAND_ROWS = 16
METRIC_NAMES = ("sensitivity", "specificity", "youden", "auc")


@dataclass(frozen=True)
class BootstrapConfig:
    B: int = 1000
    alpha: float = 0.05
    seed: int = 0
    max_redraws: int = 100

    def __post_init__(self) -> None:
        if self.B < 1:
            raise ValueError("B must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.max_redraws < 1:
            raise ValueError("max_redraws must be at least 1")


@dataclass
class BootstrapSummary:
    criterion: str
    c_hat: float
    ci: tuple[float, float]
    c_hats: np.ndarray
    metric_cis: dict[str, tuple[float, float]]
    sweep_c: np.ndarray
    sens_lower: np.ndarray
    sens_upper: np.ndarray
    spec_lower: np.ndarray
    spec_upper: np.ndarray
    redraws: int
    B: int
    alpha: float
    seed: int
    curve_grid: np.ndarray | None = None
    curve_lower: np.ndarray | None = None
    curve_upper: np.ndarray | None = None


def _percentile_ci(values: np.ndarray, alpha: float) -> tuple[float, float]:
    # Linear interpolation between order statistics at positions 1+(B-1)p.
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0], method="linear")
    return float(lo), float(hi)


def _draw_indices(rng, n: int, max_redraws: int, acceptable) -> tuple[np.ndarray, int]:
    fails = 0
    while True:
        idx = rng.integers(0, n, size=n)
        if acceptable(idx):
            return idx, fails
        fails += 1
        if fails > max_redraws:
            raise RuntimeError("bootstrap infeasible: class too rare")


def _columns(B: int, n: int, curve_m: int | None = None) -> dict[str, np.ndarray]:
    """Preallocated replicate results: entry or column b is replicate b.

    The band arrays hold one row per threshold or grid point, so the band
    quantiles select along contiguous rows; the sweep band's rows hold
    counts (see _evaluate), in the smallest type that holds n.
    """
    cols = {name: np.empty(B) for name in ("c_hat", *METRIC_NAMES)}
    cols["below"] = np.empty((SWEEP_BAND_POINTS + 1, B), dtype=np.min_scalar_type(n))
    cols["case_lt"] = np.empty_like(cols["below"])
    cols["fails"] = np.zeros(B, dtype=np.int64)
    if curve_m is not None:
        cols["curve"] = np.empty((curve_m, B))
    return cols


def _aggregate(criterion, point_c, cols, ref_grid, cfg, curve_grid=None):
    c_hats = cols["c_hat"]
    metric_cis = {name: _percentile_ci(cols[name], cfg.alpha) for name in METRIC_NAMES}
    qs = [cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0]
    # The sweep band's rates are rebuilt _BAND_ROWS rows at a time, each
    # block with the sentinel row, so no (points, B) float array is built.
    band = np.empty((2, 2, SWEEP_BAND_POINTS))
    for start in range(0, SWEEP_BAND_POINTS, _BAND_ROWS):
        rows = np.r_[start:min(start + _BAND_ROWS, SWEEP_BAND_POINTS), -1]
        for out, rate in zip(band, rates(cols["below"][rows].T, cols["case_lt"][rows].T)):
            out[:, rows[:-1]] = np.quantile(rate[:, :-1], qs, axis=0, method="linear",
                                            overwrite_input=True)
    (sens_lo, sens_hi), (spec_lo, spec_hi) = band
    summary = BootstrapSummary(
        criterion=criterion,
        c_hat=point_c,
        ci=_percentile_ci(c_hats, cfg.alpha),
        c_hats=c_hats,
        metric_cis=metric_cis,
        sweep_c=ref_grid,
        sens_lower=sens_lo,
        sens_upper=sens_hi,
        spec_lower=spec_lo,
        spec_upper=spec_hi,
        redraws=int(cols["fails"].sum()),
        B=cfg.B,
        alpha=cfg.alpha,
        seed=cfg.seed,
    )
    if curve_grid is not None:
        lo, hi = np.quantile(cols["curve"], qs, axis=1, method="linear", overwrite_input=True)
        summary.curve_grid = curve_grid
        summary.curve_lower = lo
        summary.curve_upper = hi
    return summary


def _substream(seed: int, b: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))


def _evaluate(cols, span, below, case_lt, present, criterion, grid_cols):
    """Record a chunk of exact sweeps; returns each row's optimal column.

    Row r is one resample; column k holds the integer counts optimize
    divides at one threshold: below[r, k] draws and case_lt[r, k] case
    draws lie under it, and the last column, above every draw, is the
    sentinel. present marks the candidates, grid_cols the columns of the
    reference grid's thresholds, whose counts the bands keep with the
    sentinel's. Every rate is the same quotient as optimize's.
    """
    sens, spec = rates(below, case_lt)
    i = pick(sens, spec, criterion, present)
    rows = np.arange(i.size)
    cols["sensitivity"][span] = sens[rows, i]
    cols["specificity"][span] = spec[rows, i]
    cols["youden"][span] = sens[rows, i] + spec[rows, i] - 1.0
    cols["auc"][span] = row_aucs(sens, spec, present)
    at = np.pad(grid_cols, [(0, 0), (0, 1)], constant_values=-1)
    cols["below"][:, span] = np.take_along_axis(np.broadcast_to(below, case_lt.shape), at, 1).T
    cols["case_lt"][:, span] = np.take_along_axis(case_lt, at, axis=1).T
    return i


def bootstrap_cutpoint(curves, labels: dict[str, int], *args, threads: int = 1,
                       **kwargs) -> BootstrapSummary:
    """bootstrap_curves on a list of curves, with labels keyed by subject id."""
    labels_arr = label_array([c.subject_id for c in curves], labels)
    return bootstrap_curves(*curve_matrix(curves), labels_arr, *args, **kwargs)


def bootstrap_curves(
    grid: np.ndarray,
    matrix: np.ndarray,
    labels_arr: np.ndarray,
    criterion: str = "youden",
    cfg: BootstrapConfig = BootstrapConfig(),
    mu_mode: str = "pooled-mean",
    group: int = 0,
    with_sigma: bool = False,
    split_fraction: float | None = None,
) -> BootstrapSummary:
    """Bootstrap the functional cut-point of the n x m matrix of curves on
    `grid` with labels `labels_arr` (centrality re-estimated per replicate).

    With split_fraction f, the first ceil(f*n) subjects of each resample
    estimate the centrality curve and the rest are scored against it;
    the point estimate itself is never split. Each replicate's margins come
    from threshold.standardise on its own resample; a chunk of them is then
    sorted and swept at once (cutpoint.sorted_sweeps). Replicates run
    serially. `matrix` is left unchanged.
    """
    n, m = matrix.shape
    # Every replicate gathers its rows into one buffer rather than a fresh
    # n x m array, whose pages a cold process would fault in anew; the point
    # estimate is standardised in it first, since standardise works in place.
    buf = matrix.copy()
    _, _, margins = standardise(buf, labels_arr, mu_mode, group, with_sigma)
    point = optimize(margins, labels_arr, criterion)
    ref_grid = np.linspace(margins.min(), margins.max(), SWEEP_BAND_POINTS)

    k_split = 0
    if split_fraction is not None:
        if not 0.0 < split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0, 1)")
        k_split = math.ceil(split_fraction * n)
        if k_split >= n:
            raise ValueError("split_fraction leaves no subjects to score")
        if with_sigma and k_split < 2:
            raise ValueError("sigma estimation needs at least 2 estimation subjects")
    n_eval = n - k_split

    def acceptable(idx) -> bool:
        lab_eval = labels_arr[idx[k_split:]]
        if lab_eval.min() == lab_eval.max():
            return False
        if mu_mode == "group-mean" and k_split > 0:
            if not np.any(labels_arr[idx[:k_split]] == group):
                return False
        return True

    cols = _columns(cfg.B, n, m)
    # Mode "clip" keeps np.take from copying the buffer first, as mode
    # "raise" does; every index is in range.
    for span in _chunks(cfg.B, n_eval + 1):
        size = span.stop - span.start
        scores = np.empty((size, n_eval))
        lab = np.empty((size, n_eval), dtype=labels_arr.dtype)
        mus = np.empty((size, m))
        sigmas = np.empty((size, m))
        for r, b in enumerate(range(span.start, span.stop)):
            idx, cols["fails"][b] = _draw_indices(
                _substream(cfg.seed, b), n, cfg.max_redraws, acceptable)
            np.take(matrix, idx, axis=0, out=buf, mode="clip")
            lab_b = labels_arr[idx]
            mus[r], sigmas[r], scores[r] = standardise(buf, lab_b, mu_mode, group,
                                                       with_sigma, k_split)
            if not np.isfinite(scores[r]).all():
                raise ValueError("scores must be finite")
            lab[r] = lab_b[k_split:]

        values, case_lt, present = sorted_sweeps(scores, lab)
        grid_cols = np.array([np.searchsorted(v, ref_grid, side="left") for v in values])
        i = _evaluate(cols, span, np.arange(n_eval + 1), case_lt, present, criterion, grid_cols)
        cols["c_hat"][span] = c_hat = candidates(values, present, i[:, None],
                                                 lambda r: scores[r])[:, 0]
        cols["curve"][:, span] = (mus + c_hat[:, None] * sigmas).T

    return _aggregate(criterion, point.c_hat, cols, ref_grid, cfg, curve_grid=grid)


def bootstrap_scalar(
    scores,
    labels,
    criterion: str = "youden",
    cfg: BootstrapConfig = BootstrapConfig(),
) -> BootstrapSummary:
    """Bootstrap a scalar-marker cut-point (scores fixed per subject).

    The sample is sorted once into its K distinct values. Replicate b is
    its draw counts per distinct value, for all draws and for cases, so
    cumulative counts give the integer counts below each candidate that
    optimize divides: every rate, c_hat and band row is the same
    quotient, bit for bit, and cutpoint.candidates prints each c_hat.
    Replicates are drawn from their substreams in order, in chunks.
    """
    scores, labels_arr = validate_sample(scores, labels)
    n = scores.size
    # Before the point estimate, so a span that overflows is what fails.
    ref_grid = np.linspace(scores.min(), scores.max(), SWEEP_BAND_POINTS)
    point = optimize(scores, labels_arr, criterion)

    # The sign of a zero in distinct is np.unique's; candidates gives each
    # zero c_hat its resample's.
    distinct, run = np.unique(scores, return_inverse=True)
    K = distinct.size
    # -0.0 draws are counted in an extra row K, apart from the zero run's
    # +0.0 draws, and summed back into it for the sweep.
    zero = run[scores == 0.0][:1]
    code = 2 * np.where(np.signbit(scores) & (scores == 0.0), K, run) + labels_arr
    # All draws at the distinct values below a reference threshold lie
    # below it.
    grid_cols = np.searchsorted(distinct, ref_grid, side="left")[None]

    def acceptable(idx) -> bool:
        lab = labels_arr[idx]
        return lab.min() != lab.max()

    def draw(b):
        return _draw_indices(_substream(cfg.seed, b), n, cfg.max_redraws, acceptable)

    cols = _columns(cfg.B, n)
    for span in _chunks(cfg.B, K + 1):
        # Each replicate's draws are counted as they are drawn, so a chunk
        # holds K + 1 candidate columns per replicate, not n draws.
        counts = np.empty((span.stop - span.start, K + 1, 2), dtype=np.int64)
        for r, b in enumerate(range(span.start, span.stop)):
            idx, cols["fails"][b] = draw(b)
            counts[r] = np.bincount(code[idx], minlength=2 * K + 2).reshape(K + 1, 2)
        # Whether each replicate drew -0.0 and +0.0: a zero c_hat takes the
        # one sign drawn, and only a replicate that drew both signs is drawn
        # again for zero_candidate.
        drew = counts[:, [K, *zero]].any(axis=2)
        counts[:, zero] += counts[:, K:]
        below, case_lt, present = counted_sweeps(counts[:, :K])
        i = _evaluate(cols, span, below, case_lt, present, criterion, grid_cols)

        def zeros_of(r):
            negative, positive = drew[r]
            if negative and positive:
                return scores[draw(span.start + r)[0]]
            return -0.0 if negative else 0.0

        cols["c_hat"][span] = candidates(distinct[None], present, i[:, None], zeros_of)[:, 0]

    return _aggregate(criterion, point.c_hat, cols, ref_grid, cfg)


def write_bootstrap_summary_json(path, summary: BootstrapSummary) -> None:
    write_json(path, {
        "c_hat": summary.c_hat,
        "ci": [summary.ci[0], summary.ci[1]],
        "B": summary.B,
        "alpha": summary.alpha,
        "seed": summary.seed,
        "redraws": summary.redraws,
        "metric_cis": {
            name: [lo, hi] for name, (lo, hi) in sorted(summary.metric_cis.items())
        },
    })


def write_curve_band_csv(path, summary: BootstrapSummary) -> None:
    if summary.curve_grid is None:
        raise ValueError("summary has no cutoff-curve band (scalar bootstrap)")
    write_csv(path, ["rho", "lower", "upper"],
              zip(summary.curve_grid, summary.curve_lower, summary.curve_upper))


def write_sweep_band_csv(path, summary: BootstrapSummary) -> None:
    write_csv(path, ["c", "sens_lo", "sens_hi", "spec_lo", "spec_hi"],
              zip(summary.sweep_c, summary.sens_lower, summary.sens_upper,
                  summary.spec_lower, summary.spec_upper))
