"""Shared test helpers: independent brute-force oracles and fixture builders.

The oracles deliberately use a different algorithmic route than the
library (explicit loops, exhaustive enumeration) so agreement is evidence,
not tautology.
"""

from __future__ import annotations

import csv
import itertools
import math
from datetime import datetime, timezone

import numpy as np

from funcutpoint.cutpoint import (
    CRITERIA,
    CutpointResult,
    candidate_set,
    optimize,
    roc_points,
    sweep_metrics,
    validate_sample,
)
from funcutpoint.ingest import SubjectSeries
from funcutpoint.normal import TruncNormalSpec
from funcutpoint.simulate import DgpParams, generate_arrays
from funcutpoint.threshold import SIGMA_FLOOR, estimate_mu, margin_vector

DAY = 86400


def brute_force_cutpoint(scores, labels, criterion):
    """Exhaustive cut-point search with the declared tie-break order.

    Scans distinct scores plus a sentinel, computes the confusion counts
    with explicit loops, and returns (c, sensitivity, specificity).
    """
    scores = list(map(float, scores))
    labels = list(map(int, labels))
    candidates = sorted(set(scores))
    candidates.append(candidates[-1] + 1.0)
    n_case = sum(labels)
    n_ctrl = len(labels) - n_case

    best = None
    for c in candidates:
        tp = sum(1 for s, z in zip(scores, labels) if z == 1 and s >= c)
        tn = sum(1 for s, z in zip(scores, labels) if z == 0 and s < c)
        sens = tp / n_case
        spec = tn / n_ctrl
        if criterion == "youden":
            key = (sens + spec - 1.0,)
        elif criterion == "max_sensitivity":
            key = (sens, spec)
        else:
            key = (spec, sens)
        # Strict > keeps the earliest (smallest c) among exact ties.
        if best is None or key > best[0]:
            best = (key, c, sens, spec)
    return best[1], best[2], best[3]


def optimize_oracle(scores, labels, criterion="youden", bounds=None, c_grid=None):
    """optimize over the candidate set, or the sorted grid, restricted to
    the bounds, by candidate_set and sweep_metrics: two sorts per class and
    an np.unique per sweep, with the ROC from roc_points.

    The reference for optimize's single-argsort sweep, which must match
    every field bit for bit, signed zeros included.
    """
    scores, labels = validate_sample(scores, labels)
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion: {criterion!r}")
    cs = candidate_set(scores) if c_grid is None else np.sort(np.asarray(c_grid, dtype=float))
    if bounds is not None:
        cs = cs[(cs >= bounds[0]) & (cs <= bounds[1])]
        if cs.size == 0:
            raise ValueError("no candidate cut-points inside bounds")
    sens, spec = sweep_metrics(scores, labels, cs)
    youden = sens + spec - 1.0
    if criterion == "youden":
        primary, secondary = youden, None
    elif criterion == "max_sensitivity":
        primary, secondary = sens, spec
    else:
        primary, secondary = spec, sens
    best = np.flatnonzero(primary == primary.max())
    if secondary is not None:
        sec = secondary[best]
        best = best[sec == sec.max()]
    i = int(best[0])
    fpr, tpr = roc_points(scores, labels)
    return CutpointResult(
        criterion=criterion,
        c_hat=float(cs[i]),
        sensitivity=float(sens[i]),
        specificity=float(spec[i]),
        youden=float(youden[i]),
        sweep_c=cs,
        sweep_sensitivity=sens,
        sweep_specificity=spec,
        sweep_youden=youden,
        roc_fpr=fpr,
        roc_tpr=tpr,
        auc=float(np.trapezoid(tpr, fpr)),
    )


def mann_whitney(scores, labels) -> float:
    """Concordance probability by explicit pair comparison."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    cases = scores[labels == 1]
    ctrls = scores[labels == 0]
    gt = (cases[:, None] > ctrls[None, :]).sum()
    eq = (cases[:, None] == ctrls[None, :]).sum()
    return (gt + 0.5 * eq) / (cases.size * ctrls.size)


def brute_force_isotonic(values, weights=None):
    """Exhaustive weighted monotone least squares over block partitions.

    Enumerates every contiguous partition, keeps those whose block means
    are nondecreasing, and returns the fit with minimal weighted SSE.
    Exponential in the length; intended for length <= ~10.
    """
    v = np.asarray(values, dtype=float)
    w = np.ones_like(v) if weights is None else np.asarray(weights, dtype=float)
    n = v.size
    best_sse = None
    best_fit = None
    for cuts in itertools.product([False, True], repeat=n - 1):
        bounds = [0] + [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
        means = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            means.append(np.sum(v[lo:hi] * w[lo:hi]) / np.sum(w[lo:hi]))
        if any(m2 < m1 for m1, m2 in zip(means[:-1], means[1:])):
            continue
        fit = np.concatenate([
            np.full(hi - lo, m)
            for (lo, hi), m in zip(zip(bounds[:-1], bounds[1:]), means)
        ])
        sse = float(np.sum(w * (v - fit) ** 2))
        if best_sse is None or sse < best_sse - 1e-15:
            best_sse = sse
            best_fit = fit
    return best_fit, best_sse


def curve_above_threshold(curve_values, mu, sigma, c) -> bool:
    """Direct per-point check: Y(rho_k) >= mu(rho_k) + c*sigma(rho_k) for all k."""
    for y, m, s in zip(curve_values, mu, sigma):
        if y < m + c * s:
            return False
    return True


def make_series(subject_id, minute_offsets, values, nominal=5.0,
                start="2024-03-01T00:00:00Z") -> SubjectSeries:
    base = int(
        datetime.fromisoformat(start.replace("Z", "+00:00")).timestamp()
    )
    times = base + np.asarray(minute_offsets, dtype=np.int64) * 60
    return SubjectSeries(subject_id, times, np.asarray(values, dtype=float),
                         nominal_interval_minutes=nominal)


def write_series_file(path, rows) -> None:
    """rows: iterable of (subject_id, iso timestamp, glucose text)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "timestamp", "glucose"])
        writer.writerows(rows)


def write_labels_file(path, labels: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "label"])
        for sid, lab in labels.items():
            writer.writerow([sid, lab])


def uniform_day_rows(subject_id, day_index, level, step_minutes=5,
                     jitter=None, rng=None):
    """One full UTC day of samples at a constant-ish level."""
    rows = []
    base = datetime(2024, 3, 1, tzinfo=timezone.utc).timestamp() + day_index * DAY
    for k in range(0, DAY // 60, step_minutes):
        value = level if jitter is None else level + rng.uniform(-jitter, jitter)
        stamp = datetime.fromtimestamp(base + k * 60, tz=timezone.utc)
        rows.append(
            (subject_id, stamp.strftime("%Y-%m-%dT%H:%M:%SZ"), repr(float(value)))
        )
    return rows


def parse_series_oracle(path, nominal_interval_minutes=5.0):
    """Per-row series parser: csv rows, datetime.fromisoformat and float().

    Same series, counts and error texts as ingest_cohort; the reference
    for its columnar fast path.
    """
    groups, clamped = {}, {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["subject_id", "timestamp", "glucose"]:
            raise ValueError(f"{path}: expected header subject_id,timestamp,glucose")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValueError(f"{path} line {line_no}: expected 3 fields, got {len(row)}")
            sid = row[0].strip()
            if not sid:
                raise ValueError(f"{path} line {line_no}: empty subject_id")
            text = row[1].strip()
            if text.endswith("Z"):
                text = text[:-1] + "+00:00"
            try:
                stamp = datetime.fromisoformat(text)
            except ValueError:
                raise ValueError(f"{path} line {line_no}: invalid timestamp {row[1]!r}") from None
            if stamp.tzinfo is None:
                stamp = stamp.replace(tzinfo=timezone.utc)
            try:
                g = float(row[2])
            except ValueError:
                raise ValueError(f"{path} line {line_no}: non-numeric glucose {row[2]!r}") from None
            if not np.isfinite(g):
                raise ValueError(f"{path} line {line_no}: non-finite glucose {row[2]!r}")
            if g < 40.0 or g > 400.0:
                clamped[sid] = clamped.get(sid, 0) + 1
                g = min(max(g, 40.0), 400.0)
            groups.setdefault(sid, []).append((int(stamp.timestamp()), g))
    if not groups:
        raise ValueError(f"{path}: no data rows")
    series, stats = [], {}
    for sid, rows in groups.items():
        # Sort by time keeping file order among equal times, then keep the
        # first row of each timestamp.
        rows = sorted(rows, key=lambda r: r[0])
        kept = [r for k, r in enumerate(rows) if k == 0 or r[0] != rows[k - 1][0]]
        series.append(SubjectSeries(sid, [t for t, _ in kept], [g for _, g in kept],
                                    nominal_interval_minutes))
        stats[sid] = {"records_in": len(rows), "deduped": len(rows) - len(kept),
                      "clamped": clamped.get(sid, 0)}
    return series, stats


def filter_days_oracle(series, max_gap_minutes=120.0, gap_mode="cumulative"):
    """Per-day loop: one mask per UTC day, gaps summed as floats.

    Returns (kept times, kept values, retained day count).
    """
    t = series.times
    tol = 1.5 * series.nominal_interval_minutes * 60.0
    max_gap = max_gap_minutes * 60.0
    days = t // DAY
    keep = np.zeros(t.size, dtype=bool)
    retained = 0
    for day in np.unique(days):
        mask = days == day
        start = day * DAY
        gaps = np.diff(t[mask], prepend=start, append=start + DAY).astype(float)
        if gap_mode == "single":
            bad = bool(np.any(gaps > max_gap))
        else:
            bad = float(gaps[gaps > tol].sum()) > max_gap
        if not bad:
            keep[mask] = True
            retained += 1
    return t[keep], series.values[keep], retained


def bootstrap_cutpoint_oracle(curves, labels, criterion="youden", B=20, alpha=0.05,
                              seed=0, max_redraws=100, mu_mode="pooled-mean",
                              group=0, with_sigma=False, split_fraction=None):
    """Per-replicate functional bootstrap with fresh temporaries.

    Gathers the estimation and evaluation rows separately, computes the
    margins out of place as min((rows - mu) / sigma), and calls optimize and
    sweep_metrics on each replicate. Same seed substreams and redraw rule
    as bootstrap.bootstrap_cutpoint; the reference its in-place replicate
    must match bit for bit. Returns c_hats, metric_cis, the sweep bands and
    the curve band as a dict.
    """
    labels_arr = np.array([labels[c.subject_id] for c in curves], dtype=int)
    family = estimate_mu(curves, mu_mode, labels=labels, group=group,
                         with_sigma=with_sigma)
    margins = np.array(list(margin_vector(curves, family).values()))
    ref_grid = np.linspace(margins.min(), margins.max(), 512)
    matrix = np.vstack([c.values for c in curves])
    n = matrix.shape[0]
    k = 0 if split_fraction is None else math.ceil(split_fraction * n)

    c_hats, metrics, sens_rows, spec_rows, curve_rows = [], [], [], [], []
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        for _ in range(max_redraws + 1):
            idx = rng.integers(0, n, size=n)
            lab_eval = labels_arr[idx[k:]]
            ok = lab_eval.min() != lab_eval.max()
            if ok and mu_mode == "group-mean" and k > 0:
                ok = bool(np.any(labels_arr[idx[:k]] == group))
            if ok:
                break
        else:
            raise RuntimeError("bootstrap infeasible: class too rare")
        est_idx = idx[:k] if k else idx
        eval_idx = idx[k:]
        est = matrix[est_idx]
        if mu_mode == "pooled-mean":
            mu = est.mean(axis=0)
        elif mu_mode == "group-mean":
            mu = est[labels_arr[est_idx] == group].mean(axis=0)
        else:
            mu = np.sort(est, axis=0)[(est.shape[0] - 1) // 2]
        if with_sigma:
            sigma = np.maximum(est.std(axis=0, ddof=1), SIGMA_FLOOR)
        else:
            sigma = np.ones_like(mu)
        margins_b = np.min((matrix[eval_idx] - mu) / sigma, axis=1)
        res = optimize(margins_b, labels_arr[eval_idx], criterion)
        sens_row, spec_row = sweep_metrics(margins_b, labels_arr[eval_idx], ref_grid)
        c_hats.append(res.c_hat)
        metrics.append((res.sensitivity, res.specificity, res.youden, res.auc))
        sens_rows.append(sens_row)
        spec_rows.append(spec_row)
        curve_rows.append(mu + res.c_hat * sigma)

    qs = [alpha / 2.0, 1.0 - alpha / 2.0]

    def band(rows):
        return np.quantile(np.vstack(rows), qs, axis=0, method="linear")

    metrics = np.array(metrics)
    return {
        "c_hats": np.array(c_hats),
        "metric_cis": {
            name: tuple(float(v) for v in np.quantile(metrics[:, j], qs, method="linear"))
            for j, name in enumerate(("sensitivity", "specificity", "youden", "auc"))
        },
        "sweep_c": ref_grid,
        "sens_band": band(sens_rows),
        "spec_band": band(spec_rows),
        "curve_band": band(curve_rows),
    }


def bootstrap_scalar_oracle(scores, labels, criterion="youden", B=20, alpha=0.05,
                            seed=0, max_redraws=100):
    """Per-replicate scalar bootstrap: optimize_oracle and sweep_metrics
    on each resample. Same seed substreams and redraw rule as
    bootstrap.bootstrap_scalar; the reference its single-sort replicate
    must match bit for bit. Returns c_hats, metric_cis, the sweep bands
    and the redraw count as a dict.
    """
    scores, labels = validate_sample(scores, labels)
    n = scores.size
    ref_grid = np.linspace(scores.min(), scores.max(), 512)
    c_hats, metrics, sens_rows, spec_rows, redraws = [], [], [], [], 0
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        for _ in range(max_redraws + 1):
            idx = rng.integers(0, n, size=n)
            if labels[idx].min() != labels[idx].max():
                break
            redraws += 1
        else:
            raise RuntimeError("bootstrap infeasible: class too rare")
        res = optimize_oracle(scores[idx], labels[idx], criterion)
        sens_row, spec_row = sweep_metrics(scores[idx], labels[idx], ref_grid)
        c_hats.append(res.c_hat)
        metrics.append((res.sensitivity, res.specificity, res.youden, res.auc))
        sens_rows.append(sens_row)
        spec_rows.append(spec_row)

    qs = [alpha / 2.0, 1.0 - alpha / 2.0]
    metrics = np.array(metrics)
    return {
        "c_hats": np.array(c_hats),
        "metric_cis": {
            name: tuple(float(v) for v in np.quantile(metrics[:, j], qs, method="linear"))
            for j, name in enumerate(("sensitivity", "specificity", "youden", "auc"))
        },
        "sweep_c": ref_grid,
        "sens_band": np.quantile(np.vstack(sens_rows), qs, axis=0, method="linear"),
        "spec_band": np.quantile(np.vstack(spec_rows), qs, axis=0, method="linear"),
        "redraws": redraws,
    }


def run_study_oracle(cells, criteria=CRITERIA, R=100, seed=0, v=2.0, grid=None,
                     spread_mode="shared-base", u2_mode="literal",
                     tn=TruncNormalSpec()):
    """Per-replicate study loop: DgpParams (and with it q0) rebuilt for
    every replicate, margins out of place, one optimize_oracle
    per criterion. Same seed substreams (seed, cell, r) and regeneration
    rule as simulate.run_study; the reference its rows and meta must equal.
    """
    rows, regenerated = [], 0
    for ci, (a, b, n) in enumerate(cells):
        for r in range(R):
            params = DgpParams(a=float(a), b=float(b), n=int(n), v=v, grid=grid,
                               spread_mode=spread_mode, u2_mode=u2_mode, tn=tn)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci, r)))
            matrix, z = generate_arrays(params, rng)
            while z.min() == z.max():
                regenerated += 1
                matrix, z = generate_arrays(params, rng)
            margins = np.min(matrix - matrix.mean(axis=0), axis=1)
            for criterion in criteria:
                res = optimize_oracle(margins, z, criterion)
                rows.append({
                    "a": float(a), "b": float(b), "n": int(n),
                    "criterion": criterion,
                    "replicate": r,
                    "sensitivity": res.sensitivity,
                    "specificity": res.specificity,
                })
    return rows, {"regenerated": regenerated}
