"""Subject-level bootstrap for the fitted cut-point.

Each replicate resamples subjects with replacement, re-estimates the
centrality curve on the resample, recomputes margins against it, and
re-optimizes the criterion. Percentile intervals come from the replicate
cut-points; pointwise bands cover the cutoff curve (in rho) and the
sensitivity/specificity sweep (on a fixed reference c-grid).

Replicate b draws only from its own seed substream (seed, b), so results
are byte-identical across runs. Replicates run serially; the `threads`
arguments are kept for compatibility and do not change the work.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cutpoint import (_chunks, candidates, optimize, pick, rates, sorted_sweeps,
                       validate_sample, zero_candidate)
from .quantiles import curve_matrix
from .threshold import ThresholdFamily, standardise

__all__ = [
    "BootstrapConfig",
    "BootstrapSummary",
    "bootstrap_cutpoint",
    "bootstrap_scalar",
    "write_bootstrap_summary_json",
    "write_curve_band_csv",
    "write_sweep_band_csv",
]

SWEEP_BAND_POINTS = 512
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


def _columns(B: int, curve_m: int | None = None) -> dict[str, np.ndarray]:
    """Preallocated replicate results: entry or column b is replicate b.

    The band arrays hold one row per threshold or grid point, so the band
    quantiles select along contiguous rows.
    """
    cols = {name: np.empty(B) for name in ("c_hat", *METRIC_NAMES)}
    cols["sens"] = np.empty((SWEEP_BAND_POINTS, B))
    cols["spec"] = np.empty((SWEEP_BAND_POINTS, B))
    cols["fails"] = np.zeros(B, dtype=np.int64)
    if curve_m is not None:
        cols["curve"] = np.empty((curve_m, B))
    return cols


def _aggregate(criterion, point_c, cols, ref_grid, cfg, curve_grid=None):
    c_hats = cols["c_hat"]
    metric_cis = {name: _percentile_ci(cols[name], cfg.alpha) for name in METRIC_NAMES}
    qs = [cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0]
    sens_lo, sens_hi = np.quantile(cols["sens"], qs, axis=1, method="linear")
    spec_lo, spec_hi = np.quantile(cols["spec"], qs, axis=1, method="linear")
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
        lo, hi = np.quantile(cols["curve"], qs, axis=1, method="linear")
        summary.curve_grid = curve_grid
        summary.curve_lower = lo
        summary.curve_upper = hi
    return summary


def _substream(seed: int, b: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))


def _row_aucs(sens, spec, present):
    """np.trapezoid(sens[r, kept][::-1], (1 - spec[r, kept])[::-1]) for
    every row r, where kept = present[r], with the same arithmetic.

    np.trapezoid sums, in reverse candidate order, the terms
    (fpr[i] - fpr[i + 1]) * (sens[i] + sens[i + 1]) / 2.0 with np.add.reduce;
    reversing the terms of all rows at once leaves each row's terms
    contiguous and in that order, so each row's sum is the same reduce.
    The batched scalar bootstrap test checks it against np.trapezoid bit
    for bit. It saves about 12 us per replicate over a np.trapezoid call
    per row: the bootstrap-cohort scalar step (B = 2000) took 0.254 s
    against 0.278 s in median of 10 alternating pairs, and was faster in 8.
    """
    s = sens[present]
    fpr = 1.0 - spec[present]
    terms = ((fpr[:-1] - fpr[1:]) * (s[:-1] + s[1:]) / 2.0)[::-1].copy()
    sizes = present.sum(axis=1)
    firsts = s.size - np.cumsum(sizes)
    return np.array([np.add.reduce(terms[first:first + k - 1])
                     for first, k in zip(firsts, sizes)])


def _evaluate(cols, span, n, below, case_lt, present, criterion, grid_below, grid_case):
    """Record a chunk of exact sweeps; returns each row's optimal column.

    Row r is one resample of n draws; column k holds the integer counts
    cutpoint.sweep divides at one threshold: below[r, k] draws and
    case_lt[r, k] case draws lie under it, and the last column, above every
    draw, is the sentinel. present marks the candidates, grid_below and
    grid_case the counts at the reference grid. Every rate is the same
    quotient as sweep's.
    """
    n_case = case_lt[:, -1:]
    sens, spec = rates(case_lt, below, n_case, n)
    i = pick(sens, spec, criterion, present)
    rows = np.arange(i.size)
    cols["sensitivity"][span] = sens[rows, i]
    cols["specificity"][span] = spec[rows, i]
    cols["youden"][span] = sens[rows, i] + spec[rows, i] - 1.0
    cols["auc"][span] = _row_aucs(sens, spec, present)
    grid_sens, grid_spec = rates(grid_case, grid_below, n_case, n)
    cols["sens"][:, span] = grid_sens.T
    cols["spec"][:, span] = grid_spec.T
    return i


def bootstrap_cutpoint(
    curves,
    labels: dict[str, int],
    criterion: str = "youden",
    cfg: BootstrapConfig = BootstrapConfig(),
    mu_mode: str = "pooled-mean",
    group: int = 0,
    with_sigma: bool = False,
    split_fraction: float | None = None,
    threads: int = 1,
) -> BootstrapSummary:
    """Bootstrap the functional cut-point (centrality re-estimated per
    replicate).

    With split_fraction f, the first ceil(f*n) subjects of each resample
    estimate the centrality curve and the rest are scored against it;
    the point estimate itself is never split. Each replicate's margins come
    from threshold.standardise on its own resample; a chunk of them is then
    sorted and swept at once (cutpoint.sorted_sweeps). Replicates run serially; `threads` is
    accepted for compatibility and affects nothing.
    """
    try:
        labels_arr = np.array([labels[c.subject_id] for c in curves], dtype=int)
    except KeyError as exc:
        raise ValueError(f"no label for subject {exc.args[0]!r}") from None

    grid, matrix = curve_matrix(curves)
    n, m = matrix.shape
    # standardise works in place, and the matrix itself is resampled below.
    mu, sigma, margins = standardise(matrix.copy(), labels_arr, mu_mode, group, with_sigma)
    family = ThresholdFamily(grid, mu, sigma)
    validate_sample(margins, labels_arr)
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

    cols = _columns(cfg.B, m)
    # Every replicate gathers its rows into one buffer rather than a fresh
    # n x m array, whose pages a cold process would fault in anew. Mode
    # "clip" keeps np.take from copying the buffer first, as mode "raise"
    # does; every index is in range.
    buf = np.empty_like(matrix)
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
        grid_below = np.array([np.searchsorted(v, ref_grid, side="left") for v in values])
        i = _evaluate(cols, span, n_eval, np.arange(n_eval + 1), case_lt, present,
                      criterion, grid_below, np.take_along_axis(case_lt, grid_below, axis=1))
        cols["c_hat"][span] = c_hat = candidates(scores, values, i[:, None])[:, 0]
        cols["curve"][:, span] = (mus + c_hat[:, None] * sigmas).T

    return _aggregate(criterion, point.c_hat, cols, ref_grid, cfg,
                      curve_grid=family.grid)


def _count_sweeps(counts):
    """Counts of a chunk of resamples of a sorted sample, for _evaluate.

    counts[r, k, y] is the number of draws of resample r whose score is the
    k-th of the K distinct values and whose label is y. Column k < K is the
    threshold at the k-th distinct value and column K the sentinel; present
    marks the values drawn, plus the sentinel.
    """
    rows, K, _ = counts.shape
    below = np.zeros((rows, K + 1), dtype=np.int64)
    np.cumsum(counts.sum(axis=2), axis=1, out=below[:, 1:])
    case_lt = np.zeros((rows, K + 1), dtype=np.int64)
    np.cumsum(counts[:, :, 1], axis=1, out=case_lt[:, 1:])
    present = np.ones((rows, K + 1), dtype=bool)
    np.not_equal(below[:, 1:], below[:, :-1], out=present[:, :-1])
    return below, case_lt, present


def bootstrap_scalar(
    scores,
    labels,
    criterion: str = "youden",
    cfg: BootstrapConfig = BootstrapConfig(),
    threads: int = 1,
) -> BootstrapSummary:
    """Bootstrap a scalar-marker cut-point (scores fixed per subject).

    The sample is sorted once into its K distinct values. Replicate b is
    its draw counts per distinct value, for all draws and for cases, so
    cumulative counts give the integer counts below each candidate that
    cutpoint.sweep divides: every rate, c_hat and band row is the same
    quotient, bit for bit. Replicates are drawn from their own substreams
    in order and processed in chunks. `threads` is accepted for
    compatibility and affects nothing.
    """
    scores, labels_arr = validate_sample(scores, labels)
    point = optimize(scores, labels_arr, criterion)
    n = scores.size
    ref_grid = np.linspace(scores.min(), scores.max(), SWEEP_BAND_POINTS)

    order = np.argsort(scores)
    values = scores[order]
    starts = np.concatenate(([True], values[1:] != values[:-1]))
    distinct = values[starts]
    K = distinct.size
    run = np.empty(n, dtype=np.intp)
    run[order] = np.cumsum(starts) - 1
    code = 2 * run + labels_arr
    # All draws at the distinct values below a reference threshold lie
    # below it.
    grid_cols = np.searchsorted(distinct, ref_grid, side="left")
    # distinct holds the first zero of the sorted sample; a resample's zero
    # candidate can differ only if the sample has zeros of both signs.
    zero_signs = np.signbit(scores[scores == 0.0])
    mixed_zeros = zero_signs.any() and not zero_signs.all()
    zero = int(np.searchsorted(distinct, 0.0))

    def acceptable(idx) -> bool:
        lab = labels_arr[idx]
        return lab.min() != lab.max()

    cols = _columns(cfg.B)
    for span in _chunks(cfg.B, K + 1):
        # Each replicate's draws are counted as they are drawn, so a chunk
        # holds K + 1 candidate columns per replicate, not n draws; the
        # draws themselves are kept only where a zero candidate needs them.
        counts = np.empty((span.stop - span.start, K, 2), dtype=np.int64)
        kept = []
        for r, b in enumerate(range(span.start, span.stop)):
            idx, cols["fails"][b] = _draw_indices(
                _substream(cfg.seed, b), n, cfg.max_redraws, acceptable)
            counts[r] = np.bincount(code[idx], minlength=2 * K).reshape(K, 2)
            if mixed_zeros:
                kept.append(idx)
        below, case_lt, present = _count_sweeps(counts)
        i = _evaluate(cols, span, n, below, case_lt, present, criterion,
                      below[:, grid_cols], case_lt[:, grid_cols])
        c_hat = distinct[np.minimum(i, K - 1)]
        # The sentinel is the largest value drawn plus one.
        sentinel = i == K
        top = K - 1 - np.argmax(present[sentinel, K - 1::-1], axis=1)
        c_hat[sentinel] = distinct[top] + 1.0
        if mixed_zeros:
            for r in np.flatnonzero(i == zero):
                drawn = scores[kept[r]]
                c_hat[r] = zero_candidate(drawn[drawn == 0.0], drawn)
        cols["c_hat"][span] = c_hat

    return _aggregate(criterion, point.c_hat, cols, ref_grid, cfg)


def write_bootstrap_summary_json(path, summary: BootstrapSummary) -> None:
    payload = {
        "c_hat": summary.c_hat,
        "ci": [summary.ci[0], summary.ci[1]],
        "B": summary.B,
        "alpha": summary.alpha,
        "seed": summary.seed,
        "redraws": summary.redraws,
        "metric_cis": {
            name: [lo, hi] for name, (lo, hi) in sorted(summary.metric_cis.items())
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_curve_band_csv(path, summary: BootstrapSummary) -> None:
    if summary.curve_grid is None:
        raise ValueError("summary has no cutoff-curve band (scalar bootstrap)")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "lower", "upper"])
        for r, lo, hi in zip(summary.curve_grid, summary.curve_lower,
                             summary.curve_upper):
            writer.writerow([repr(float(r)), repr(float(lo)), repr(float(hi))])


def write_sweep_band_csv(path, summary: BootstrapSummary) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "sens_lo", "sens_hi", "spec_lo", "spec_hi"])
        for row in zip(summary.sweep_c, summary.sens_lower, summary.sens_upper,
                       summary.spec_lower, summary.spec_upper):
            writer.writerow([repr(float(v)) for v in row])
