"""Relations between whole CLI runs (metamorphic tests).

Each test draws a small valid cohort and one transformation of an input
file, runs `cli.main` on the input before and after it, and checks that
the runs relate as the method promises. The transformed file keeps its
path, so every message and artifact that names it can be compared.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funcutpoint.cli import main
from funcutpoint.cutpoint import CRITERIA
from funcutpoint.quantiles import default_grid, write_csv, write_curves_csv, write_grid_json
from funcutpoint.threshold import MU_MODES

# Rounded values tie within and across subjects; signed zeros tie too.
VALUES = st.one_of(st.floats(-5.0, 5.0).map(lambda x: round(x, 1)), st.sampled_from([0.0, -0.0]))


@st.composite
def cohorts(draw):
    """(ids, labels, curve rows, scores, a permutation of the rows): both
    classes present, curves nondecreasing on a grid of 1 to 5 points."""
    n = draw(st.integers(3, 10))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                  .filter(lambda labs: 0 < sum(labs) < n))
    m = draw(st.integers(1, 5))
    curves = [sorted(draw(st.lists(VALUES, min_size=m, max_size=m))) for _ in range(n)]
    scores = draw(st.lists(VALUES, min_size=n, max_size=n))
    return [f"s{k}" for k in range(n)], labels, curves, scores, draw(st.permutations(range(n)))


def run(argv, out: Path, zero_sign=True):
    """main's exit code, its stderr and every artifact but the manifest;
    without zero_sign, each -0.0 in an artifact reads 0.0."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    artifacts = {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.name != "manifest.json"}
    if not zero_sign:
        artifacts = {name: re.sub(rb"-0\.0\b", b"0.0", data) for name, data in artifacts.items()}
    return code, err.getvalue(), artifacts


def same_runs_when_permuted(rows_file: Path, header, rows, order, argv, out: Path,
                            zero_sign=True) -> None:
    """Runs of argv with rows_file holding `rows`, then the same rows in
    `order`, are byte-identical (but for the sign of zeros without
    zero_sign); their artifacts go under `out`."""
    write_csv(rows_file, header, rows)
    before = run(argv, out / "before", zero_sign)
    write_csv(rows_file, header, [rows[k] for k in order])
    assert run(argv, out / "after", zero_sign) == before


def scored_inputs(root: Path, ids, curves, scores):
    """--curves and --grid arguments, and --scores arguments."""
    grid, curves_file, scores_file = root / "grid.json", root / "curves.csv", root / "scores.csv"
    write_grid_json(grid, default_grid(len(curves[0])))
    write_curves_csv(curves_file, ids, np.array(curves))
    write_csv(scores_file, ["subject_id", "score"], zip(ids, scores))
    return (["--curves", str(curves_file), "--grid", str(grid)],
            ["--scores", str(scores_file)])


@settings(max_examples=40, deadline=None)
@given(cohorts(), st.sampled_from(CRITERIA), st.sampled_from(MU_MODES), st.booleans(),
       st.booleans(), st.sampled_from(["high", "low"]))
def test_labels_row_order_leaves_fit_unchanged(cohort, criterion, mu_mode, with_sigma, smooth,
                                               direction):
    """Labels rows in any order: every fit artifact, exit code and message
    is byte-identical, on the curves route and on the scores route."""
    ids, labels, curves, scores, order = cohort
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        curves_args, scores_args = scored_inputs(root, ids, curves, scores)
        labels_file = root / "labels.csv"
        options = ["--labels", str(labels_file), "--criterion", criterion]
        routes = {
            "curves": ["fit", *curves_args, *options, "--mu-mode", mu_mode]
                      + ["--with-sigma"] * with_sigma + ["--smooth", "--window", "3"] * smooth,
            "scores": ["fit", *scores_args, *options, "--direction", direction],
        }
        for route, argv in routes.items():
            same_runs_when_permuted(labels_file, ["subject_id", "label"],
                                    list(zip(ids, labels)), order, argv, root / route)


@settings(max_examples=40, deadline=None)
@given(cohorts(), st.sampled_from(CRITERIA), st.sampled_from(["high", "low"]))
@example((["s0", "s1", "s2"], [0, 0, 1], [[0.0]] * 3, [0.0, 0.0, -0.0], [2, 1, 0]),
         "youden", "high")
def test_scores_row_order_leaves_fit_unchanged(cohort, criterion, direction):
    """Scores rows in any order: every fit --scores artifact, exit code and
    message is byte-identical. The one exception: when the scores hold zeros
    of both signs, a zero c_hat or sweep threshold takes the sign that
    np.unique's sort puts first (cutpoint.zero_candidate), and that sort
    is not stable, so only the sign of those zeros may change (the example
    above: c_hat is -0.0 in file order and 0.0 reversed)."""
    ids, labels, _, scores, order = cohort
    signs = {math.copysign(1.0, s) for s in scores if s == 0.0}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        labels_file = root / "labels.csv"
        write_csv(labels_file, ["subject_id", "label"], zip(ids, labels))
        scores_file = root / "scores.csv"
        argv = ["fit", "--scores", str(scores_file), "--labels", str(labels_file),
                "--criterion", criterion, "--direction", direction]
        same_runs_when_permuted(scores_file, ["subject_id", "score"], list(zip(ids, scores)),
                                order, argv, root, zero_sign=len(signs) < 2)
