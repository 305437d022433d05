"""Command-line pipeline. Subcommands: ingest, fit, bootstrap, classify,
simulate, indices, roc. Every run writes its artifacts plus a manifest
(command, argv, seed, input digests, version, wall time) into --out.

Exit codes: 0 success, 1 computation error, 2 usage or file error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import (
    BootstrapConfig,
    bootstrap_cutpoint,
    bootstrap_scalar,
    write_bootstrap_summary_json,
    write_curve_band_csv,
    write_sweep_band_csv,
)
from .cutpoint import (
    CRITERIA,
    confusion_at,
    optimize,
    write_result_json,
    write_roc_csv,
    write_sweep_csv,
)
from .indices import MAGE_CONVENTION, compute_indices, write_indices_csv
from .ingest import GAP_MODES, ingest_cohort, parse_labels, write_report_json
from .monotone import SmoothConfig, monotone_smooth, write_curve_values_csv
from .quantiles import (
    csv_rows,
    curve_matrix,
    default_grid,
    empirical_quantile,
    read_curves_csv,
    read_grid_json,
    write_curves_csv,
    write_grid_json,
)
from .simulate import SPREAD_MODES, U2_MODES, run_study, summarize_study, \
    write_study_csv, write_summary_csv
from .threshold import (
    MU_MODES,
    ThresholdFamily,
    classify,
    cutoff_curve,
    margin_vector,
    read_cutoff_json,
    standardise,
    write_cutoff_json,
)

__all__ = ["main"]


def _bounds_type(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("bounds must look like L:U")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("bounds must be numeric") from None
    if not lo <= hi:
        raise argparse.ArgumentTypeError("bounds must satisfy L <= U")
    return lo, hi


def _c_grid_type(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("c grid must look like L:U:M")
    try:
        lo, hi, m = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("c grid must be L:U:M numeric") from None
    if m < 1 or not lo <= hi:
        raise argparse.ArgumentTypeError("c grid needs L <= U and M >= 1")
    return np.linspace(lo, hi, m)


def _float_list(text: str):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated number list") from None


def _int_list(text: str):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list") from None


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return count


def _criteria_list(text: str):
    names = [v for v in text.split(",") if v != ""]
    for name in names:
        if name not in CRITERIA:
            raise argparse.ArgumentTypeError(f"unknown criterion {name!r}")
    if not names:
        raise argparse.ArgumentTypeError("need at least one criterion")
    return names


def _sha256(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, argv, seed: int, inputs, t0: float) -> None:
    payload = {
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _read_scores(scores_path, column: str, labels_path):
    ids = []
    values = []
    seen = set()
    reader = csv_rows(scores_path, str(scores_path))
    header = next(reader, None)
    if header is None or header[0].strip() != "subject_id":
        raise ValueError(f"{scores_path}: first column must be subject_id")
    names = [h.strip() for h in header]
    if column not in names:
        raise ValueError(f"{scores_path}: no column named {column!r}")
    col = names.index(column)
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(names):
            raise ValueError(f"{scores_path} line {line_no}: wrong column count")
        sid = row[0].strip()
        if sid in seen:
            raise ValueError(f"{scores_path} line {line_no}: duplicate subject_id {sid!r}")
        seen.add(sid)
        ids.append(sid)
        try:
            values.append(float(row[col]))
        except ValueError:
            raise ValueError(
                f"{scores_path} line {line_no}: non-numeric score {row[col]!r}"
            ) from None
        if not np.isfinite(values[-1]):
            raise ValueError(f"{scores_path} line {line_no}: non-finite score {row[col]!r}")
    if not ids:
        raise ValueError(f"{scores_path}: no data rows")
    return ids, np.asarray(values), _label_array(ids, labels_path)


def _label_array(ids, labels_path) -> np.ndarray:
    labels = parse_labels(labels_path)
    missing = [sid for sid in ids if sid not in labels]
    if missing:
        raise ValueError(f"no label for subject {missing[0]!r}")
    return np.array([labels[sid] for sid in ids], dtype=int)


def _scored_sample(args):
    """(family, scores, labels) in file order: the fitted family and each
    curve's margin on the functional route; None and the scores, negated
    for --direction low, on the scalar route."""
    if args.scores:
        _, scores, labels_arr = _read_scores(args.scores, args.score_column, args.labels)
        return None, (-scores if args.direction == "low" else scores), labels_arr
    curves = read_curves_csv(args.curves, read_grid_json(args.grid))
    grid, matrix = curve_matrix(curves)
    labels_arr = _label_array([c.subject_id for c in curves], args.labels)
    mu, sigma, scores = standardise(matrix, labels_arr, args.mu_mode, args.group,
                                    args.with_sigma)
    return ThresholdFamily(grid, mu, sigma), scores, labels_arr


def cmd_ingest(args, out_dir: Path) -> None:
    kept, _, report = ingest_cohort(
        args.series,
        args.labels,
        max_gap_minutes=args.max_gap_minutes,
        gap_mode=args.gap_mode,
        min_days=args.min_days,
        nominal_interval_minutes=args.nominal_interval,
    )
    write_report_json(out_dir / "report.json", report)
    if not kept:
        raise ValueError("no subjects retained after day filtering")
    grid = default_grid(args.grid_size)
    curves = [empirical_quantile(s.values, grid, s.subject_id) for s in kept]
    write_curves_csv(out_dir / "curves.csv", curves)
    write_grid_json(out_dir / "grid.json", grid)


def cmd_fit(args, out_dir: Path) -> None:
    family, scores, labels_arr = _scored_sample(args)
    result = optimize(scores, labels_arr, args.criterion,
                      bounds=args.bounds, c_grid=args.c_grid)
    extra = {"n_subjects": int(labels_arr.size)}
    if family is not None:
        smoothed = None
        if args.smooth:
            smoothed, max_change = monotone_smooth(
                cutoff_curve(family, result.c_hat), SmoothConfig(args.window)
            )
            write_curve_values_csv(out_dir / "smoothed_curve.csv", family.grid, smoothed)
            extra["smoothing_max_change"] = max_change
        write_cutoff_json(out_dir / "cutoff.json", family, result.c_hat,
                          args.criterion, smoothed)
    else:
        extra["direction"] = args.direction
        if args.direction == "low":
            extra["score_scale"] = "negated"
    write_result_json(out_dir / "result.json", result, extra)
    write_sweep_csv(out_dir / "sweep.csv", result)
    write_roc_csv(out_dir / "roc.csv", result)


def cmd_bootstrap(args, out_dir: Path) -> None:
    cfg = BootstrapConfig(B=args.B, alpha=args.alpha, seed=args.seed,
                          max_redraws=args.max_redraws)
    try:
        if args.curves:
            # bootstrap_cutpoint names the first curve without a label.
            summary = bootstrap_cutpoint(
                read_curves_csv(args.curves, read_grid_json(args.grid)),
                parse_labels(args.labels),
                args.criterion,
                cfg,
                mu_mode=args.mu_mode,
                group=args.group,
                with_sigma=args.with_sigma,
                split_fraction=args.split_fraction,
                threads=args.threads,
            )
            write_curve_band_csv(out_dir / "curve_band.csv", summary)
        else:
            _, scores, labels_arr = _scored_sample(args)
            summary = bootstrap_scalar(scores, labels_arr, args.criterion, cfg,
                                       threads=args.threads)
    except ValueError as exc:
        if "degenerate sample" in str(exc):
            raise RuntimeError("bootstrap infeasible: class too rare") from None
        raise
    write_bootstrap_summary_json(out_dir / "bootstrap.json", summary)
    write_sweep_band_csv(out_dir / "sweep_band.csv", summary)


def cmd_classify(args, out_dir: Path) -> None:
    family, c_hat, criterion, _ = read_cutoff_json(args.cutoff)
    curves = read_curves_csv(args.curves, read_grid_json(args.grid))
    margins = margin_vector(curves, family)
    predictions = classify(margins, c_hat)
    with open(out_dir / "predictions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "margin", "prediction"])
        for sid in margins:
            writer.writerow([sid, repr(float(margins[sid])), predictions[sid]])
    if args.labels:
        scores = np.array(list(margins.values()))
        labels_arr = _label_array(list(margins), args.labels)
        sens, spec, youden = confusion_at(scores, labels_arr, c_hat)
        payload = {
            "c_hat": c_hat,
            "criterion": criterion,
            "sensitivity": sens,
            "specificity": spec,
            "youden": youden,
            "n_cases": int(labels_arr.sum()),
            "n_controls": int((1 - labels_arr).sum()),
        }
        (out_dir / "metrics.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def cmd_simulate(args, out_dir: Path) -> None:
    cells = [(a, b, n) for a in args.a for b in args.b for n in args.n]
    rows, meta = run_study(
        cells,
        criteria=args.criteria,
        R=args.R,
        seed=args.seed,
        threads=args.threads,
        v=args.v,
        grid=default_grid(args.grid_size),
        spread_mode=args.spread_mode,
        u2_mode=args.u2_mode,
    )
    write_study_csv(out_dir / "study.csv", rows)
    write_summary_csv(out_dir / "study_summary.csv", summarize_study(rows))
    print(f"cells: {len(cells)}  replicates: {args.R}  "
          f"regenerated cohorts: {meta['regenerated']}")


def cmd_indices(args, out_dir: Path) -> None:
    kept, _, report = ingest_cohort(
        args.series,
        None,
        max_gap_minutes=args.max_gap_minutes,
        gap_mode=args.gap_mode,
        min_days=args.min_days,
        nominal_interval_minutes=args.nominal_interval,
    )
    write_report_json(out_dir / "report.json", report)
    if not kept:
        raise ValueError("no subjects retained after day filtering")
    rows = [
        compute_indices(s, args.conga_horizon_hours, not args.tar_exclusive)
        for s in kept
    ]
    write_indices_csv(out_dir / "indices.csv", rows)
    meta = {
        "mage_convention": MAGE_CONVENTION,
        "conga_horizon_hours": args.conga_horizon_hours,
        "tar_inclusive": not args.tar_exclusive,
    }
    (out_dir / "indices_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )


def cmd_roc(args, out_dir: Path) -> None:
    _, scores, labels_arr = _scored_sample(args)
    result = optimize(scores, labels_arr)
    write_roc_csv(out_dir / "roc.csv", result)
    payload = {
        "auc": result.auc,
        "n_cases": int(labels_arr.sum()),
        "n_controls": int((1 - labels_arr).sum()),
    }
    (out_dir / "auc.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _add_scored_input_args(sub, functional_required: bool = False):
    sub.add_argument("--curves", help="curves CSV (functional route)")
    sub.add_argument("--grid", help="probability grid JSON (with --curves)")
    sub.add_argument("--scores", help="scalar scores CSV (comparison route)")
    sub.add_argument("--score-column", default="score")
    sub.add_argument("--direction", choices=("high", "low"), default="high",
                     help="scalar route: 'low' means lower scores indicate disease")
    sub.add_argument("--labels", required=True, help="labels CSV")
    sub.add_argument("--mu-mode", choices=MU_MODES, default="pooled-mean")
    sub.add_argument("--group", type=int, default=0,
                     help="label used by the group-mean mu mode")
    sub.add_argument("--with-sigma", action="store_true",
                     help="estimate pointwise sigma instead of sigma = 1")


def _scored_inputs(args):
    if bool(args.curves) == bool(args.scores):
        raise _UsageError("exactly one of --curves or --scores is required")
    if args.curves and not args.grid:
        raise _UsageError("--curves requires --grid")
    paths = [args.labels]
    if args.curves:
        paths += [args.curves, args.grid]
    else:
        paths.append(args.scores)
    return paths


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=_thread_count, default=1,
                        help="accepted for compatibility; bootstrap and simulate "
                             "run their replicates serially")

    parser = argparse.ArgumentParser(
        prog="funcutpoint",
        description="Optimal cut-off curves for distribution-valued biomarkers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse and filter CGM series, write quantile curves")
    p.add_argument("--series", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--max-gap-minutes", type=float, default=120.0)
    p.add_argument("--gap-mode", choices=GAP_MODES, default="cumulative")
    p.add_argument("--min-days", type=int, default=2)
    p.add_argument("--nominal-interval", type=float, default=5.0)
    p.add_argument("--grid-size", type=int, default=100)
    p.set_defaults(handler=cmd_ingest,
                   inputs=lambda a: [a.series, a.labels])

    p = sub.add_parser("fit", parents=[common], help="fit the optimal cut-point")
    _add_scored_input_args(p)
    p.add_argument("--criterion", choices=CRITERIA, default="youden")
    p.add_argument("--bounds", type=_bounds_type, default=None,
                   help="restrict c to L:U")
    p.add_argument("--c-grid", type=_c_grid_type, default=None,
                   help="optimize over the explicit grid L:U:M instead")
    p.add_argument("--smooth", action="store_true",
                   help="write a monotone-smoothed cutoff curve")
    p.add_argument("--window", type=int, default=1,
                   help="odd moving-average window for --smooth")
    p.set_defaults(handler=cmd_fit, inputs=_scored_inputs)

    p = sub.add_parser("bootstrap", parents=[common],
                       help="percentile intervals and bands for the cut-point")
    _add_scored_input_args(p)
    p.add_argument("--criterion", choices=CRITERIA, default="youden")
    p.add_argument("--B", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--max-redraws", type=int, default=100)
    p.add_argument("--split-fraction", type=float, default=None)
    p.set_defaults(handler=cmd_bootstrap, inputs=_scored_inputs)

    p = sub.add_parser("classify", parents=[common],
                       help="apply a frozen cutoff to a new cohort")
    p.add_argument("--cutoff", required=True)
    p.add_argument("--curves", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--labels", default=None)
    p.set_defaults(handler=cmd_classify,
                   inputs=lambda a: [a.cutoff, a.curves, a.grid]
                   + ([a.labels] if a.labels else []))

    p = sub.add_parser("simulate", parents=[common], help="replicate benchmark study")
    p.add_argument("--a", type=_float_list, required=True)
    p.add_argument("--b", type=_float_list, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--R", type=int, default=100)
    p.add_argument("--criteria", type=_criteria_list, default=list(CRITERIA))
    p.add_argument("--v", type=float, default=2.0)
    p.add_argument("--grid-size", type=int, default=100)
    p.add_argument("--spread-mode", choices=SPREAD_MODES, default="shared-base")
    p.add_argument("--u2-mode", choices=U2_MODES, default="literal")
    p.set_defaults(handler=cmd_simulate, inputs=lambda a: [])

    p = sub.add_parser("indices", parents=[common],
                       help="per-subject glycemic variability indices")
    p.add_argument("--series", required=True)
    p.add_argument("--max-gap-minutes", type=float, default=120.0)
    p.add_argument("--gap-mode", choices=GAP_MODES, default="cumulative")
    p.add_argument("--min-days", type=int, default=2)
    p.add_argument("--nominal-interval", type=float, default=5.0)
    p.add_argument("--conga-horizon-hours", type=float, default=1.0)
    p.add_argument("--tar-exclusive", action="store_true",
                   help="use strict > for time above range")
    p.set_defaults(handler=cmd_indices, inputs=lambda a: [a.series])

    p = sub.add_parser("roc", parents=[common], help="ROC curve and AUC")
    _add_scored_input_args(p)
    p.set_defaults(handler=cmd_roc, inputs=_scored_inputs)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        input_paths = args.inputs(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in input_paths:
        if not Path(path).exists():
            print(f"error: input file not found: {path}", file=sys.stderr)
            return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        args.handler(args, out_dir)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_manifest(out_dir, args.command, argv, args.seed, input_paths, t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
