"""Command-line pipeline. Subcommands: ingest, fit, bootstrap, classify,
simulate, indices, roc. Every run writes its artifacts plus a manifest
(command, argv, seed, input digests, version, wall time) into --out;
an input that is not a regular file, such as a pipe, has a null digest.

Each cmd_* handler returns its artifacts as (file name, writer, *payload);
main writes them and the manifest once it has returned, so a failed run writes none.
Each handler imports the modules it runs, so a process loads only its command's.

Exit codes: 0 success, 1 computation error, 2 usage or file error.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from pathlib import Path

# No command makes a float BLAS call (tests/test_exports.py keeps it so),
# so one OpenBLAS thread is enough, and numpy spins up no idle workers
# that burn CPU in every process. Set before numpy is first imported; a
# value set by the user wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import CRITERIA, GAP_MODES, MU_MODES, SPREAD_MODES, U2_MODES, __version__

__all__ = ["main", "run"]


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
    if not np.isfinite(hi - lo):
        raise argparse.ArgumentTypeError("c grid needs finite L and U and a finite span U - L")
    return lo, hi, m


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


# Inputs are hashed in chunks of this many bytes, not read whole again.
_HASH_CHUNK = 1 << 20


def _sha256(path) -> str | None:
    """The SHA-256 of a regular file; None for a pipe or any other input,
    which the command has already read and which cannot be read again.
    hashlib loads OpenSSL, several MB resident, so it is imported here,
    once the artifacts are written and the command's arrays are freed."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _join_labels(ids, labels_path):
    """The labels of `ids` from the labels file, in order."""
    from .quantiles import label_array, parse_labels
    return label_array(ids, parse_labels(labels_path), labels_path)


def _labelled_sample(args):
    """The grid (None on the scalar route), the n x m matrix of --curves or
    the scores of --scores, and the labels of their rows, in file order."""
    from .quantiles import read_curves_csv, read_grid_json, read_scores_csv
    grid = None
    if args.scores:
        ids, values = read_scores_csv(args.scores, args.score_column)
    else:
        grid = read_grid_json(args.grid)
        ids, values = read_curves_csv(args.curves, grid)
    return grid, values, _join_labels(ids, args.labels)


def _scored_sample(args):
    """(family, scores, labels) in file order: the fitted family and each
    curve's margin on the functional route; None and the scores, negated
    for --direction low, on the scalar route."""
    grid, values, labels_arr = _labelled_sample(args)
    if grid is None:
        return None, (-values if args.direction == "low" else values), labels_arr
    from .threshold import ThresholdFamily, standardise
    mu, sigma, scores = standardise(values, labels_arr, args.mu_mode, args.group, args.with_sigma)
    return ThresholdFamily(grid, mu, sigma), scores, labels_arr


def _ingest(args, labels_path):
    """The subjects of --series kept by the day filter and the ingest
    report; fails naming the series file when no subject is kept."""
    from .ingest import ingest_cohort
    kept, _, report = ingest_cohort(
        args.series,
        labels_path,
        max_gap_minutes=args.max_gap_minutes,
        gap_mode=args.gap_mode,
        min_days=args.min_days,
        nominal_interval_minutes=args.nominal_interval,
    )
    if not kept:
        raise ValueError(f"{args.series}: no subjects retained after day filtering "
                         f"({len(report['subjects'])} below --min-days {args.min_days})")
    return kept, report


def cmd_ingest(args):
    from .quantiles import (default_grid, empirical_quantile, write_curves_csv,
                            write_grid_json, write_json)
    grid = default_grid(args.grid_size)
    kept, report = _ingest(args, args.labels)
    return [("report.json", write_json, report), ("grid.json", write_grid_json, grid),
            ("curves.csv", write_curves_csv, [s.subject_id for s in kept],
             np.vstack([empirical_quantile(s.values, grid) for s in kept]))]


def cmd_fit(args):
    from .cutpoint import optimize, write_result_json, write_roc_csv, write_sweep_csv
    family, scores, labels_arr = _scored_sample(args)
    c_grid = None if args.c_grid is None else np.linspace(*args.c_grid)
    result = optimize(scores, labels_arr, args.criterion, bounds=args.bounds, c_grid=c_grid)
    extra = {"n_subjects": int(labels_arr.size)}
    artifacts = [("sweep.csv", write_sweep_csv, result), ("roc.csv", write_roc_csv, result)]
    if family is not None:
        from .threshold import cutoff_curve, write_cutoff_json
        smoothed = None
        if args.smooth:
            from .monotone import monotone_smooth, write_curve_values_csv
            smoothed, extra["smoothing_max_change"] = monotone_smooth(
                cutoff_curve(family, result.c_hat), args.window
            )
            artifacts.append(("smoothed_curve.csv", write_curve_values_csv, family.grid,
                              smoothed))
        artifacts.append(("cutoff.json", write_cutoff_json, family, result.c_hat,
                          args.criterion, smoothed))
    else:
        extra["direction"] = args.direction
        if args.direction == "low":
            extra["score_scale"] = "negated"
    return artifacts + [("result.json", write_result_json, result, extra)]


def cmd_bootstrap(args):
    from .bootstrap import (BootstrapConfig, bootstrap_curves, bootstrap_scalar,
                            write_bootstrap_summary_json, write_curve_band_csv,
                            write_sweep_band_csv)
    cfg = BootstrapConfig(B=args.B, alpha=args.alpha, seed=args.seed,
                          max_redraws=args.max_redraws)
    try:
        if args.curves:
            summary = bootstrap_curves(
                *_labelled_sample(args), args.criterion, cfg,
                mu_mode=args.mu_mode,
                group=args.group,
                with_sigma=args.with_sigma,
                split_fraction=args.split_fraction,
            )
        else:
            _, scores, labels_arr = _scored_sample(args)
            summary = bootstrap_scalar(scores, labels_arr, args.criterion, cfg)
    except ValueError as exc:
        if "degenerate sample" in str(exc):
            raise RuntimeError("bootstrap infeasible: class too rare") from None
        raise
    artifacts = [("bootstrap.json", write_bootstrap_summary_json, summary),
                 ("sweep_band.csv", write_sweep_band_csv, summary)]
    if args.curves:
        artifacts.append(("curve_band.csv", write_curve_band_csv, summary))
    return artifacts


def cmd_classify(args):
    from .quantiles import read_curves_csv, read_grid_json, write_csv, write_json
    from .threshold import read_cutoff_json, row_margins
    family, c_hat, criterion, _ = read_cutoff_json(args.cutoff)
    grid = read_grid_json(args.grid)
    if not np.array_equal(grid, family.grid):
        raise ValueError(f"cutoff file {args.cutoff}: grid differs from grid file {args.grid}")
    ids, matrix = read_curves_csv(args.curves, grid)
    labels_arr = _join_labels(ids, args.labels) if args.labels else None
    margins = row_margins(matrix, family)
    # Python int cells: write_csv writes a bool as True and a numpy int as a float.
    artifacts = [("predictions.csv", write_csv, ["subject_id", "margin", "prediction"],
                  zip(ids, margins.tolist(), (margins >= c_hat).astype(int).tolist()))]
    if labels_arr is not None:
        from .cutpoint import confusion_at
        sens, spec, youden = confusion_at(margins, labels_arr, c_hat)
        artifacts.append(("metrics.json", write_json, {
            "c_hat": c_hat,
            "criterion": criterion,
            "sensitivity": sens,
            "specificity": spec,
            "youden": youden,
            "n_cases": int(labels_arr.sum()),
            "n_controls": int((1 - labels_arr).sum()),
        }))
    return artifacts


def cmd_simulate(args):
    from .quantiles import default_grid
    from .simulate import run_study, summarize_study, write_study_csv, write_summary_csv
    cells = [(a, b, n) for a in args.a for b in args.b for n in args.n]
    rows, meta = run_study(
        cells,
        criteria=args.criteria,
        R=args.R,
        seed=args.seed,
        v=args.v,
        grid=default_grid(args.grid_size),
        spread_mode=args.spread_mode,
        u2_mode=args.u2_mode,
    )
    print(f"cells: {len(cells)}  replicates: {args.R}  "
          f"regenerated cohorts: {meta['regenerated']}")
    return [("study.csv", write_study_csv, rows),
            ("study_summary.csv", write_summary_csv, summarize_study(rows))]


def cmd_indices(args):
    if not args.conga_horizon_hours > 0:
        raise ValueError("--conga-horizon-hours must be positive")
    if not np.isfinite(args.conga_horizon_hours * 3600.0):
        raise ValueError("--conga-horizon-hours must be finite in seconds")
    from .indices import MAGE_CONVENTION, compute_indices, write_indices_csv
    from .quantiles import write_json
    kept, report = _ingest(args, None)
    rows = []
    for s in kept:
        try:
            rows.append(compute_indices(s, args.conga_horizon_hours, not args.tar_exclusive))
        except ValueError as exc:
            raise ValueError(f"{args.series}: subject {s.subject_id!r}: {exc}") from None
    return [("report.json", write_json, report), ("indices.csv", write_indices_csv, rows),
            ("indices_meta.json", write_json, {
                "mage_convention": MAGE_CONVENTION,
                "conga_horizon_hours": args.conga_horizon_hours,
                "tar_inclusive": not args.tar_exclusive,
            })]


def cmd_roc(args):
    from .cutpoint import optimize, write_roc_csv
    from .quantiles import write_json
    _, scores, labels_arr = _scored_sample(args)
    result = optimize(scores, labels_arr)
    return [("roc.csv", write_roc_csv, result), ("auc.json", write_json, {
        "auc": result.auc,
        "n_cases": int(labels_arr.sum()),
        "n_controls": int((1 - labels_arr).sum()),
    })]


def _add_scored_input_args(sub):
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


def _add_day_filter_args(sub):
    sub.add_argument("--max-gap-minutes", type=float, default=120.0)
    sub.add_argument("--gap-mode", choices=GAP_MODES, default="cumulative")
    sub.add_argument("--min-days", type=int, default=2)
    sub.add_argument("--nominal-interval", type=float, default=5.0)


def _scored_inputs(args):
    if bool(args.curves) == bool(args.scores):
        raise _UsageError("exactly one of --curves or --scores is required")
    if args.curves and not args.grid:
        raise _UsageError("--curves requires --grid")
    if args.scores and getattr(args, "split_fraction", None) is not None:
        raise _UsageError("--split-fraction applies to --curves only")
    return [args.labels] + ([args.curves, args.grid] if args.curves else [args.scores])


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
    _add_day_filter_args(p)
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
    _add_day_filter_args(p)
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
    # The commands that read a curves or scores file run with overflow raised:
    # an overflow from its values, or a top score with no cut-off above it,
    # fails naming that file, with no numpy warning.
    kind = "curves" if getattr(args, "curves", None) else "scores"
    path = getattr(args, kind, None)
    try:
        with np.errstate(over="raise" if path else None):
            artifacts = args.handler(args)
        for name, write, *payload in artifacts:
            write(out_dir / name, *payload)
    except FloatingPointError as exc:
        if path is None:
            raise
        print(f"error: {kind} file {path}: values too large ({exc})", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .quantiles import write_json
    write_json(out_dir / "manifest.json", {
        "command": args.command,
        "argv": argv,
        "seed": args.seed,
        "inputs": {str(p): _sha256(p) for p in input_paths},
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
    })
    return 0


def run() -> None:
    """Run main() on sys.argv and end the process with its exit code.

    The entry point of the `funcutpoint` console script and of
    `python -m funcutpoint.cli`. Every artifact is closed when main returns,
    so after flushing stdout and stderr the process ends with os._exit and
    skips the interpreter's teardown, which frees every object one by one.
    Standard output that cannot be written is a file error.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = code or 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
