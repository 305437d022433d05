"""Subject-level bootstrap for the fitted cut-point.

Each replicate resamples subjects with replacement, re-estimates the
centrality curve on the resample, recomputes margins against it, and
re-optimizes the criterion. Percentile intervals come from the replicate
cut-points; pointwise bands cover the cutoff curve (in rho) and the
sensitivity/specificity sweep (on a fixed reference c-grid).

Replicate b draws only from its own seed substream (seed, b), so results
are byte-identical across runs and across thread counts.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cutpoint import optimize, sweep, validate_sample
from .threshold import SIGMA_FLOOR, estimate_mu, margin_vector

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


def _estimate_mu_matrix(matrix, labels, mode, group, with_sigma):
    if mode == "pooled-mean":
        mu = matrix.mean(axis=0)
    elif mode == "group-mean":
        mu = matrix[labels == group].mean(axis=0)
    else:
        ordered = np.sort(matrix, axis=0)
        mu = ordered[(matrix.shape[0] - 1) // 2]
    if with_sigma:
        sigma = np.maximum(matrix.std(axis=0, ddof=1), SIGMA_FLOOR)
    else:
        sigma = np.ones_like(mu)
    return mu, sigma


def _aggregate(criterion, point_c, replicates, ref_grid, cfg, curve_grid=None):
    c_hats = np.array([r["c_hat"] for r in replicates])
    metric_cis = {
        name: _percentile_ci(np.array([r[name] for r in replicates]), cfg.alpha)
        for name in METRIC_NAMES
    }
    qs = [cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0]
    sens_rows = np.vstack([r["sens_row"] for r in replicates])
    spec_rows = np.vstack([r["spec_row"] for r in replicates])
    sens_lo, sens_hi = np.quantile(sens_rows, qs, axis=0, method="linear")
    spec_lo, spec_hi = np.quantile(spec_rows, qs, axis=0, method="linear")
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
        redraws=int(sum(r["fails"] for r in replicates)),
        B=cfg.B,
        alpha=cfg.alpha,
        seed=cfg.seed,
    )
    if curve_grid is not None:
        curve_rows = np.vstack([r["curve_row"] for r in replicates])
        lo, hi = np.quantile(curve_rows, qs, axis=0, method="linear")
        summary.curve_grid = curve_grid
        summary.curve_lower = lo
        summary.curve_upper = hi
    return summary


def _run_replicates(cfg: BootstrapConfig, one_replicate, threads: int):
    def work(b: int):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(b,)))
        return one_replicate(rng)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, range(cfg.B)))
    return [work(b) for b in range(cfg.B)]


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
    the point estimate itself is never split.
    """
    try:
        labels_arr = np.array([labels[c.subject_id] for c in curves], dtype=int)
    except KeyError as exc:
        raise ValueError(f"no label for subject {exc.args[0]!r}") from None

    family = estimate_mu(curves, mu_mode, labels=labels, group=group,
                         with_sigma=with_sigma)
    margins = np.array(list(margin_vector(curves, family).values()))
    validate_sample(margins, labels_arr)
    point = optimize(margins, labels_arr, criterion)

    matrix = np.vstack([c.values for c in curves])
    n = matrix.shape[0]
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

    def acceptable(idx) -> bool:
        lab_eval = labels_arr[idx[k_split:]]
        if lab_eval.min() == lab_eval.max():
            return False
        if mu_mode == "group-mean" and k_split > 0:
            if not np.any(labels_arr[idx[:k_split]] == group):
                return False
        return True

    def one_replicate(rng):
        idx, fails = _draw_indices(rng, n, cfg.max_redraws, acceptable)
        # One gather per replicate. Leading rows of a C-contiguous array
        # reduce in the same order as a copy of them, so mu and sigma are
        # exact; the evaluation rows are then standardised in place (mu_b
        # and sigma_b never alias them).
        sample = matrix[idx]
        k_est = k_split or n
        mu_b, sigma_b = _estimate_mu_matrix(
            sample[:k_est], labels_arr[idx[:k_est]], mu_mode, group, with_sigma
        )
        ev = sample[k_split:]
        ev -= mu_b
        ev /= sigma_b
        lab_eval = labels_arr[idx[k_split:]]
        sample_sweep = sweep(ev.min(axis=1), lab_eval)
        res = sample_sweep.result(criterion)
        sens_row, spec_row = sample_sweep.rates_at(ref_grid)
        return {
            "c_hat": res.c_hat,
            "sensitivity": res.sensitivity,
            "specificity": res.specificity,
            "youden": res.youden,
            "auc": res.auc,
            "sens_row": sens_row,
            "spec_row": spec_row,
            "curve_row": mu_b + res.c_hat * sigma_b,
            "fails": fails,
        }

    replicates = _run_replicates(cfg, one_replicate, threads)
    return _aggregate(criterion, point.c_hat, replicates, ref_grid, cfg,
                      curve_grid=family.grid)


def bootstrap_scalar(
    scores,
    labels,
    criterion: str = "youden",
    cfg: BootstrapConfig = BootstrapConfig(),
    threads: int = 1,
) -> BootstrapSummary:
    """Bootstrap a scalar-marker cut-point (scores fixed per subject)."""
    scores, labels_arr = validate_sample(scores, labels)
    point = optimize(scores, labels_arr, criterion)
    n = scores.size
    ref_grid = np.linspace(scores.min(), scores.max(), SWEEP_BAND_POINTS)

    def acceptable(idx) -> bool:
        lab = labels_arr[idx]
        return lab.min() != lab.max()

    def one_replicate(rng):
        idx, fails = _draw_indices(rng, n, cfg.max_redraws, acceptable)
        sample_sweep = sweep(scores[idx], labels_arr[idx])
        res = sample_sweep.result(criterion)
        sens_row, spec_row = sample_sweep.rates_at(ref_grid)
        return {
            "c_hat": res.c_hat,
            "sensitivity": res.sensitivity,
            "specificity": res.specificity,
            "youden": res.youden,
            "auc": res.auc,
            "sens_row": sens_row,
            "spec_row": spec_row,
            "fails": fails,
        }

    replicates = _run_replicates(cfg, one_replicate, threads)
    return _aggregate(criterion, point.c_hat, replicates, ref_grid, cfg)


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
