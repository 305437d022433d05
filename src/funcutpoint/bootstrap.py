"""Subject-level bootstrap for the fitted cut-point.

Each replicate resamples subjects with replacement, re-estimates the
centrality curve on the resample, recomputes margins against it, and
re-optimizes the criterion. Percentile intervals come from the replicate
cut-points; pointwise bands cover the cutoff curve (in rho) and the
sensitivity/specificity sweep (on a fixed reference c-grid). A band point
keeps only the tails of its replicate values that its percentile limits
read (_Band), not all B of them. Intervals and band limits are
np.quantile's linear ones (Hyndman & Fan's type 7), taken with
quantiles.linear_quantiles, which leaves numpy.ma unloaded.

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
from .quantiles import (curve_matrix, label_array, linear_interpolate, linear_neighbours,
                        linear_quantiles, write_csv, write_json)
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
# Values each band point takes between two selections of its tails (_Band).
_BAND_BATCH = 32
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
    # Linear interpolation between order statistics at positions 1+(B-1)p,
    # on a copy: values may be a summary's c_hats.
    lo, hi = linear_quantiles(values.copy(), [alpha / 2.0, 1.0 - alpha / 2.0])
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


def _columns(B: int) -> dict[str, np.ndarray]:
    """Preallocated replicate results: entry b is replicate b."""
    cols = {name: np.empty(B) for name in ("c_hat", *METRIC_NAMES)}
    cols["fails"] = np.zeros(B, dtype=np.int64)
    return cols


class _Band:
    """Pointwise percentile band of a stream of B replicate values.

    np.quantile's linear method at alpha/2 and 1 - alpha/2 reads order
    statistics floor(h) and floor(h) + 1 of each point's values, at
    h = (B - 1) q, so its limits need only each point's k smallest and k
    largest values. A point's workspace row holds those tails and up to
    _BAND_BATCH newer values; when the rows fill, one partition keeps the
    tails. The limits interpolate the held order statistics with
    quantiles.linear_interpolate, so they are np.quantile(values,
    [alpha/2, 1 - alpha/2], method="linear") over all B values; only where
    a point's values hold zeros of both signs may a zero limit's sign
    differ. When the tails and a batch cover B, every value is kept and
    quantiles.linear_quantiles takes the limits, bit for bit.
    """

    def __init__(self, points: int, B: int, alpha: float):
        self.B = B
        self.q = np.array([alpha / 2.0, 1.0 - alpha / 2.0])
        below, above, self.gamma = linear_neighbours(B, self.q)
        self.at = np.stack([below, above], axis=1) % B
        self.k = int(max(self.at[0, 1] + 1, B - self.at[1, 0]))
        self.ws = np.empty((points, min(B, 2 * self.k + _BAND_BATCH)))
        self.fill = 0

    def add(self, values: np.ndarray) -> None:
        """Take a chunk of replicates' values, a row per replicate."""
        k, cap = self.k, self.ws.shape[1]
        done = 0
        while done < len(values):
            if self.fill == cap:
                self.ws.partition((k - 1, cap - k), axis=1)
                self.ws[:, k:2 * k] = self.ws[:, cap - k:]
                self.fill = 2 * k
            take = min(len(values) - done, cap - self.fill)
            self.ws[:, self.fill:self.fill + take] = values[done:done + take].T
            self.fill += take
            done += take

    def limits(self) -> np.ndarray:
        """The (2, points) lower and upper limits."""
        if self.ws.shape[1] == self.B:
            return linear_quantiles(self.ws, self.q)
        # Order statistic j of the B values is at j in the held values'
        # order below the middle, and at j - (B - fill) above it; the last
        # held value is a NaN if any was.
        pos = self.at - [[0], [self.B - self.fill]]
        return linear_interpolate(self.ws[:, :self.fill], pos[:, 0], pos[:, 1], self.gamma)


def _summary(criterion, point_c, cols, ref_grid, cfg, sens_band, spec_band, points=slice(None)):
    """The summary of a bootstrap's replicate columns and sweep bands; the
    bands' limits at points give those at the reference grid's."""
    (sens_lo, sens_hi), (spec_lo, spec_hi) = (band.limits()[:, points]
                                              for band in (sens_band, spec_band))
    return BootstrapSummary(
        criterion=criterion,
        c_hat=point_c,
        ci=_percentile_ci(cols["c_hat"], cfg.alpha),
        c_hats=cols["c_hat"],
        metric_cis={name: _percentile_ci(cols[name], cfg.alpha) for name in METRIC_NAMES},
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


def _substream(seed: int, b: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))


def _evaluate(cols, span, below, case_lt, present, criterion, grid_cols, bands):
    """Record a chunk of exact sweeps; returns each row's optimal column.

    Row r is one resample; column k holds the integer counts optimize
    divides at one threshold: below[r, k] draws and case_lt[r, k] case
    draws lie under it, and the last column, above every draw, is the
    sentinel. present marks the candidates, grid_cols the columns whose
    rates the sensitivity and specificity bands take. Every rate is the
    same quotient as optimize's.
    """
    sens, spec = rates(below, case_lt)
    i = pick(sens, spec, criterion, present)
    rows = np.arange(i.size)
    cols["sensitivity"][span] = sens[rows, i]
    cols["specificity"][span] = spec[rows, i]
    cols["youden"][span] = sens[rows, i] + spec[rows, i] - 1.0
    cols["auc"][span] = row_aucs(sens, spec, present)
    for band, rate in zip(bands, (sens, spec)):
        band.add(np.take_along_axis(rate, grid_cols, axis=1))
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

    cols = _columns(cfg.B)
    bands = [_Band(SWEEP_BAND_POINTS, cfg.B, cfg.alpha) for _ in range(2)]
    curve_band = _Band(m, cfg.B, cfg.alpha)
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
        i = _evaluate(cols, span, np.arange(n_eval + 1), case_lt, present, criterion, grid_cols,
                      bands)
        cols["c_hat"][span] = c_hat = candidates(values, present, i[:, None],
                                                 lambda r: scores[r])[:, 0]
        curve_band.add(mus + c_hat[:, None] * sigmas)

    # The working set goes before the bands' last selection.
    del buf, scores, lab, mus, sigmas, values, case_lt, present, grid_cols
    summary = _summary(criterion, point.c_hat, cols, ref_grid, cfg, *bands)
    summary.curve_grid = grid
    summary.curve_lower, summary.curve_upper = curve_band.limits()
    return summary


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
    optimize divides: every rate, c_hat and band value is the same
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
    # below it, so thresholds between the same two distinct values have the
    # same rates in every replicate: the bands keep one point per column.
    points, expand = np.unique(np.searchsorted(distinct, ref_grid, side="left"),
                               return_inverse=True)

    def acceptable(idx) -> bool:
        lab = labels_arr[idx]
        return lab.min() != lab.max()

    def draw(b):
        return _draw_indices(_substream(cfg.seed, b), n, cfg.max_redraws, acceptable)

    cols = _columns(cfg.B)
    bands = [_Band(points.size, cfg.B, cfg.alpha) for _ in range(2)]
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
        i = _evaluate(cols, span, below, case_lt, present, criterion, points[None], bands)

        def zeros_of(r):
            negative, positive = drew[r]
            if negative and positive:
                return scores[draw(span.start + r)[0]]
            return -0.0 if negative else 0.0

        cols["c_hat"][span] = candidates(distinct[None], present, i[:, None], zeros_of)[:, 0]

    return _summary(criterion, point.c_hat, cols, ref_grid, cfg, *bands, points=expand)


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
