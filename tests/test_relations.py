"""Relations between whole CLI runs (metamorphic tests).

Each test draws a small valid cohort and one transformation of an input
file, runs `cli.main` on the input before and after it, and checks that
the runs relate as the method promises. The transformed file keeps its
path, so every message and artifact that names it can be compared.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import uniform_day_rows
from funcutpoint.cli import main
from funcutpoint.cutpoint import CRITERIA
from funcutpoint.ingest import GLUCOSE_HI, GLUCOSE_LO
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


def same_row_set(a: bytes, b: bytes) -> bool:
    """Whether two CSV artifacts have the same header and the same rows in
    some order."""
    (head_a, *rows_a), (head_b, *rows_b) = a.splitlines(), b.splitlines()
    return head_a == head_b and sorted(rows_a) == sorted(rows_b)


@st.composite
def series_cohorts(draw):
    """(rows, crlf, ingest options) of a series file: 1 to 3 subjects over 1
    to 3 UTC days at one reading an hour, with readings missing (so days
    break the gap rule), readings the device range clamps, and exact copies
    of rows (so the dedupe drops some). No timestamp holds two values."""
    rows = []
    for k in range(draw(st.integers(1, 3))):
        readings = [row for day in range(draw(st.integers(1, 3)))
                    for row in uniform_day_rows(f"s{k}", day, 0.0, step_minutes=60)]
        missing = draw(st.sets(st.integers(0, len(readings) - 1), max_size=4))
        tenths = draw(st.lists(st.integers(300, 4200), min_size=len(readings),
                               max_size=len(readings)))
        rows += [(*row[:2], f"{t // 10}.{t % 10}")
                 for j, (row, t) in enumerate(zip(readings, tenths)) if j not in missing]
    assume(rows)
    copies = draw(st.lists(st.sampled_from(rows), max_size=3))
    options = ["--nominal-interval", "60", "--min-days", str(draw(st.integers(1, 3))),
               "--gap-mode", draw(st.sampled_from(["single", "cumulative"]))]
    return rows + copies, draw(st.booleans()), options


def series_runs(root: Path, rows, crlf, options, out_name):
    """ingest on a series of `rows` (a header first, lines ending in CRLF or
    LF) and labels for every subject plus one the series lacks."""
    end = "\r\n" if crlf else "\n"
    series, labels = root / "series.csv", root / "labels.csv"
    series.write_text("".join(",".join(row) + end
                              for row in [("subject_id", "timestamp", "glucose"), *rows]),
                      newline="")
    write_csv(labels, ["subject_id", "label"], [(f"s{k}", k % 2) for k in range(4)])
    return run(["ingest", "--series", str(series), "--labels", str(labels), *options],
               root / out_name)


@settings(max_examples=30, deadline=None)
@given(series_cohorts(), st.data())
def test_series_row_order_leaves_ingest_unchanged(cohort, data):
    """Series rows in any order: report.json and grid.json are
    byte-identical, and curves.csv holds the same rows (each subject's row
    takes its place by the subject's first appearance in the file)."""
    rows, crlf, options = cohort
    order = data.draw(st.permutations(range(len(rows))), label="order")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        before = series_runs(root, rows, crlf, options, "before")
        after = series_runs(root, [rows[k] for k in order], crlf, options, "after")
    assert after[:2] == before[:2]
    before, after = before[2], after[2]
    if "curves.csv" in before:
        assert same_row_set(before.pop("curves.csv"), after.pop("curves.csv"))
    assert after == before


@settings(max_examples=30, deadline=None)
@given(series_cohorts(), st.data())
def test_extra_copy_of_a_series_row_is_counted_and_dropped(cohort, data):
    """One more exact copy of a series row, anywhere in the file: records_in
    and deduped rise by one for its subject and in the totals, and so does
    clamped when the copy's reading is outside the device range (clamped
    counts the records read, as records_in does). Nothing else changes:
    grid.json is byte-identical and curves.csv holds the same rows."""
    rows, crlf, options = cohort
    copy = data.draw(st.sampled_from(rows), label="copy")
    at = data.draw(st.integers(0, len(rows)), label="at")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        before = series_runs(root, rows, crlf, options, "before")
        after = series_runs(root, rows[:at] + [copy] + rows[at:], crlf, options, "after")
    assert after[:2] == before[:2]
    before, after = before[2], after[2]
    if "report.json" in before:
        report = json.loads(before.pop("report.json"))
        steps = ["records_in", "deduped"]
        if not GLUCOSE_LO <= float(copy[2]) <= GLUCOSE_HI:
            steps.append("clamped")
        for counts in (report["subjects"][copy[0]], report["totals"]):
            for key in steps:
                counts[key] += 1
        assert json.loads(after.pop("report.json")) == report
        assert same_row_set(before.pop("curves.csv"), after.pop("curves.csv"))
    assert after == before


@settings(max_examples=30, deadline=None)
@given(cohorts())
def test_curves_row_order_leaves_classify_unchanged(cohort):
    """Curves rows in any order: classify's metrics.json is byte-identical,
    and predictions.csv holds the same rows, against one fitted cut-off."""
    ids, labels, curves, _, order = cohort
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        curves_args, _ = scored_inputs(root, ids, curves, [0.0] * len(ids))
        labels_file = root / "labels.csv"
        write_csv(labels_file, ["subject_id", "label"], zip(ids, labels))
        assert run(["fit", *curves_args, "--labels", str(labels_file)], root / "fit")[0] == 0
        argv = ["classify", "--cutoff", str(root / "fit" / "cutoff.json"), *curves_args,
                "--labels", str(labels_file)]
        before = run(argv, root / "before")
        write_curves_csv(curves_args[1], [ids[k] for k in order], np.array(curves)[order])
        after = run(argv, root / "after")
    assert after[:2] == before[:2] == (0, "")
    assert after[2]["metrics.json"] == before[2]["metrics.json"]
    assert same_row_set(after[2]["predictions.csv"], before[2]["predictions.csv"])
    assert after[2].keys() == before[2].keys()
