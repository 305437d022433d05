"""Valid input files whose numbers sit at the extremes of float64 (the
largest and smallest magnitudes, signed zeros, 2**53 and its neighbours,
all-equal samples), run through every command that reads curves or scores.

Each run ends one of two ways: exit 0 with every float cell finite and the
artifacts' claims true of the input, or exit 1 with one error line naming
an input file and nothing written. Numpy warnings are errors throughout.
"""

import csv
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_labels_file
from funcutpoint.cli import main
from funcutpoint.cutpoint import confusion_at
from funcutpoint.quantiles import default_grid, write_curves_csv, write_grid_json
from funcutpoint.threshold import ThresholdFamily, write_cutoff_json

BIG = 1.7e308
TINY = 5e-324
P53 = 2.0 ** 53
# BIG / 2: two of them sum to BIG, three overflow.
EXTREMES = [BIG, -BIG, BIG / 2, -BIG / 2, TINY, -TINY, 0.0, -0.0, 1.0, -1.0,
            P53, math.nextafter(P53, 0.0), math.nextafter(P53, math.inf), -P53]
POSITIVE = [TINY, 1.0, P53, BIG]

# (argv head, route); --with-sigma is drawn per example on the curves route.
ROUTES = [
    (["fit"], "scores"), (["fit"], "curves"), (["roc"], "scores"), (["roc"], "curves"),
    (["bootstrap", "--B", "5"], "scores"), (["bootstrap", "--B", "5"], "curves"),
    (["classify"], "curves"), (["classify", "--labels"], "curves"),
]


def _finite_cells(path):
    """Fails unless every number in a JSON or CSV artifact is finite."""
    if path.suffix == ".json":
        def walk(value):
            if isinstance(value, float):
                assert math.isfinite(value), path.name
            elif isinstance(value, dict):
                for item in value.values():
                    walk(item)
            elif isinstance(value, list):
                for item in value:
                    walk(item)
        walk(json.loads(path.read_text(), parse_constant=float))
        return
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path.name, row)


def _draw_sample(data, n):
    """n labels with both classes, and the first two fixed as 0 and 1."""
    return [0, 1] + data.draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))


def _draw_values(data, size, pool=EXTREMES):
    value = st.sampled_from(pool)
    if data.draw(st.booleans(), label="all equal"):
        return [data.draw(value)] * size
    return data.draw(st.lists(value, min_size=size, max_size=size))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("command, route", ROUTES)
def test_extreme_valid_inputs_succeed_or_fail_naming_a_file(tmp_path, capsys, command, route,
                                                            data):
    _check_run(Path(tempfile.mkdtemp(dir=tmp_path)), capsys, command, route, data)


# About 2 % of drawn cohorts overflow only in the moving average of the
# smoothed cut-off curve, after every other artifact is computed: the run
# that most needs the commit point, so it gets more examples.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_extreme_valid_inputs_to_smoothed_fit(tmp_path, capsys, data):
    _check_run(Path(tempfile.mkdtemp(dir=tmp_path)), capsys, ["fit", "--smooth"], "curves", data)


def _check_run(tmp_path, capsys, command, route, data):
    """Write drawn files to tmp_path, run `command` on them and check how
    the run ended."""
    n = data.draw(st.integers(2, 4), label="n")
    m = data.draw(st.integers(1, 5), label="m")
    labels_list = _draw_sample(data, n)
    ids = [f"s{i}" for i in range(n)]
    labels = tmp_path / "labels.csv"
    write_labels_file(labels, dict(zip(ids, labels_list)))
    argv = list(command)
    if route == "scores":
        scores = _draw_values(data, n)
        path = tmp_path / "scores.csv"
        path.write_text("subject_id,score\n"
                        + "".join(f"{sid},{v!r}\n" for sid, v in zip(ids, scores)))
        inputs = [path, labels]
        argv += ["--scores", str(path), "--labels", str(labels)]
    else:
        grid = default_grid(m)
        matrix = np.sort(np.array(_draw_values(data, n * m)).reshape(n, m), axis=1)
        path, grid_path = tmp_path / "curves.csv", tmp_path / "grid.json"
        write_curves_csv(path, ids, matrix)
        write_grid_json(grid_path, grid)
        inputs = [path, grid_path, labels]
        if command[0] == "classify":
            mu = _draw_values(data, m)
            sigma = _draw_values(data, m, POSITIVE)
            c_hat = data.draw(st.sampled_from(EXTREMES), label="c_hat")
            cutoff = tmp_path / "cutoff.json"
            write_cutoff_json(cutoff, ThresholdFamily(grid, mu, sigma), c_hat, "youden")
            inputs.append(cutoff)
            argv = ["classify", "--cutoff", str(cutoff)] + (
                ["--labels", str(labels)] if "--labels" in command else [])
        else:
            if data.draw(st.booleans(), label="with sigma"):
                argv.append("--with-sigma")
            if "--smooth" in command:
                argv += ["--window", str(data.draw(st.sampled_from([1, 3, 5]), label="w"))]
            argv += ["--labels", str(labels)]
        argv += ["--curves", str(path), "--grid", str(grid_path)]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert any(str(p) in err for p in inputs), err
        assert list(out.iterdir()) == []
        return
    assert (rc, err) == (0, "")
    for artifact in out.iterdir():
        _finite_cells(artifact)
    if command[0] == "classify":
        margins = np.min((matrix - np.array(mu)) / np.array(sigma), axis=1)
        with open(out / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[1]) for r in rows] == margins.tolist()
        assert [int(r[2]) for r in rows] == (margins >= c_hat).astype(int).tolist()
        if "--labels" in command:
            metrics = json.loads((out / "metrics.json").read_text())
            assert metrics["c_hat"] == c_hat
            assert ((metrics["sensitivity"], metrics["specificity"])
                    == confusion_at(margins, labels_list, c_hat)[:2])
    elif command[0] == "fit":
        result = json.loads((out / "result.json").read_text())
        if route == "scores":
            margins = np.array(scores)
        else:
            cut = json.loads((out / "cutoff.json").read_text())
            margins = np.min((matrix - np.array(cut["mu"])) / np.array(cut["sigma"]), axis=1)
        assert ((result["sensitivity"], result["specificity"])
                == confusion_at(margins, labels_list, result["c_hat"])[:2])
