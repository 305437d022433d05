import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import uniform_day_rows, write_labels_file, write_series_file
from funcutpoint.cli import _read_scores, main
from funcutpoint.cutpoint import roc_points
from funcutpoint.quantiles import default_grid, read_curves_csv, read_grid_json
from funcutpoint.threshold import ThresholdFamily, write_cutoff_json

SEED = 20240820


@pytest.fixture(scope="module")
def cohort_files(tmp_path_factory):
    """Two subjects, two clean 15-minute days, perfectly separated levels."""
    root = tmp_path_factory.mktemp("cohort")
    rows = []
    for day in range(2):
        rows += uniform_day_rows("low", day, 100.0, step_minutes=15)
        rows += uniform_day_rows("high", day, 180.0, step_minutes=15)
    series = root / "series.csv"
    labels = root / "labels.csv"
    write_series_file(series, rows)
    write_labels_file(labels, {"low": 0, "high": 1})
    return series, labels


@pytest.fixture(scope="module")
def ingested(cohort_files, tmp_path_factory):
    series, labels = cohort_files
    out = tmp_path_factory.mktemp("ingested")
    rc = main([
        "ingest", "--series", str(series), "--labels", str(labels),
        "--nominal-interval", "15", "--out", str(out),
    ])
    assert rc == 0
    return out, labels


@pytest.fixture(scope="module")
def scores_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("scores")
    scores = root / "scores.csv"
    labels = root / "labels.csv"
    rng = np.random.default_rng(SEED)
    with open(scores, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "age", "score"])
        lab = {}
        for i in range(40):
            sid = f"p{i:02d}"
            case = i % 2
            writer.writerow([
                sid,
                int(rng.integers(40, 80)),
                repr(float(rng.normal(2.0 * case, 1.0))),
            ])
            lab[sid] = case
    write_labels_file(labels, lab)
    return scores, labels


def test_ingest_artifacts(ingested):
    out, _ = ingested
    for name in ("curves.csv", "grid.json", "report.json", "manifest.json"):
        assert (out / name).exists(), name
    grid = read_grid_json(out / "grid.json")
    assert grid.size == 100
    curves = read_curves_csv(out / "curves.csv", grid)
    assert {c.subject_id for c in curves} == {"low", "high"}
    report = json.loads((out / "report.json").read_text())
    assert report["subjects"]["low"]["retained_days"] == 2
    assert report["subjects"]["low"]["excluded"] is False


def test_ingest_missing_input(tmp_path, capsys):
    rc = main([
        "ingest", "--series", str(tmp_path / "absent.csv"),
        "--labels", str(tmp_path / "alsoabsent.csv"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "input file not found" in capsys.readouterr().err


def test_manifest_contents(ingested, cohort_files):
    out, _ = ingested
    series, labels = cohort_files
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["seed"] == 0
    assert manifest["version"]
    assert manifest["wall_time_s"] >= 0.0
    digest = hashlib.sha256(series.read_bytes()).hexdigest()
    assert manifest["inputs"][str(series)] == digest
    assert str(labels) in manifest["inputs"]
    assert "--nominal-interval" in manifest["argv"]


def fit_dir(ingested, tmp_path, name, extra_args=()):
    out_dir = tmp_path / name
    curves_dir, labels = ingested
    rc = main([
        "fit", "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"),
        "--labels", str(labels), "--out", str(out_dir), *extra_args,
    ])
    assert rc == 0
    return out_dir


def test_fit_functional(ingested, tmp_path):
    out = fit_dir(ingested, tmp_path, "fit")
    result = json.loads((out / "result.json").read_text())
    # Constant curves at 100 and 180 give margins -40 and +40 around the
    # pooled mean, so the smallest perfect cut sits at +40.
    assert result["c_hat"] == 40.0
    assert result["youden"] == 1.0
    assert result["auc"] == 1.0
    assert result["n_subjects"] == 2
    cutoff = json.loads((out / "cutoff.json").read_text())
    assert cutoff["criterion"] == "youden"
    assert len(cutoff["mu"]) == 100
    assert (out / "sweep.csv").exists()
    assert (out / "roc.csv").exists()


def test_fit_smooth_writes_curve(ingested, tmp_path):
    out = fit_dir(ingested, tmp_path, "fit_smooth", ("--smooth", "--window", "3"))
    assert (out / "smoothed_curve.csv").exists()
    result = json.loads((out / "result.json").read_text())
    assert "smoothing_max_change" in result
    cutoff = json.loads((out / "cutoff.json").read_text())
    assert "smoothed_curve" in cutoff
    smoothed = cutoff["smoothed_curve"]
    assert all(b >= a for a, b in zip(smoothed, smoothed[1:]))


def test_fit_outputs_are_reproducible(ingested, tmp_path):
    out1 = fit_dir(ingested, tmp_path, "r1")
    out2 = fit_dir(ingested, tmp_path, "r2")
    for name in ("result.json", "cutoff.json", "sweep.csv", "roc.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_fit_scalar_low_direction(scores_files, tmp_path):
    scores, labels = scores_files
    out = tmp_path / "low"
    rc = main([
        "fit", "--scores", str(scores), "--labels", str(labels),
        "--direction", "low", "--out", str(out),
    ])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["direction"] == "low"
    assert result["score_scale"] == "negated"
    # Negating flips the ranking, so low-direction AUC is 1 - high-direction AUC.
    out_high = tmp_path / "high"
    assert main([
        "fit", "--scores", str(scores), "--labels", str(labels),
        "--out", str(out_high),
    ]) == 0
    high = json.loads((out_high / "result.json").read_text())
    assert result["auc"] == pytest.approx(1.0 - high["auc"], abs=1e-12)


def test_fit_score_column_lookup(scores_files, tmp_path, capsys):
    scores, labels = scores_files
    rc = main([
        "fit", "--scores", str(scores), "--labels", str(labels),
        "--score-column", "bmi", "--out", str(tmp_path / "col"),
    ])
    assert rc == 1
    assert "no column named" in capsys.readouterr().err


def test_fit_usage_errors(ingested, scores_files, tmp_path, capsys):
    curves_dir, labels = ingested
    scores, _ = scores_files
    rc = main([
        "fit", "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"), "--scores", str(scores),
        "--labels", str(labels), "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "exactly one of --curves or --scores" in capsys.readouterr().err

    rc = main([
        "fit", "--curves", str(curves_dir / "curves.csv"),
        "--labels", str(labels), "--out", str(tmp_path / "y"),
    ])
    assert rc == 2
    assert "--curves requires --grid" in capsys.readouterr().err

    assert main(["fit"]) == 2
    assert main(["frobnicate", "--out", str(tmp_path / "z")]) == 2


def test_fit_bounds_and_grid_flags(scores_files, tmp_path):
    scores, labels = scores_files
    out = tmp_path / "bounded"
    rc = main([
        "fit", "--scores", str(scores), "--labels", str(labels),
        "--bounds", "0.5:1.5", "--out", str(out),
    ])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert 0.5 <= result["c_hat"] <= 1.5

    out2 = tmp_path / "cgrid"
    rc = main([
        "fit", "--scores", str(scores), "--labels", str(labels),
        "--c-grid", "0:2:21", "--out", str(out2),
    ])
    assert rc == 0
    result2 = json.loads((out2 / "result.json").read_text())
    assert result2["c_hat"] in np.linspace(0.0, 2.0, 21)

    assert main([
        "fit", "--scores", str(scores), "--labels", str(labels),
        "--bounds", "oops", "--out", str(tmp_path / "bad"),
    ]) == 2


def test_bootstrap_functional_outputs(ingested, tmp_path):
    curves_dir, labels = ingested
    args = [
        "bootstrap", "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"), "--labels", str(labels),
        "--B", "25", "--seed", "3",
    ]
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
    for name in ("bootstrap.json", "sweep_band.csv", "curve_band.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    payload = json.loads((out1 / "bootstrap.json").read_text())
    assert payload["B"] == 25
    assert payload["seed"] == 3
    assert payload["ci"][0] <= payload["c_hat"] <= payload["ci"][1]


def test_bootstrap_scalar_alpha_nesting(scores_files, tmp_path):
    scores, labels = scores_files
    cis = {}
    for alpha in ("0.05", "0.5"):
        out = tmp_path / f"a{alpha}"
        rc = main([
            "bootstrap", "--scores", str(scores), "--labels", str(labels),
            "--B", "80", "--alpha", alpha, "--seed", "6", "--out", str(out),
        ])
        assert rc == 0
        cis[alpha] = json.loads((out / "bootstrap.json").read_text())["ci"]
        assert not (out / "curve_band.csv").exists()
    assert cis["0.05"][0] <= cis["0.5"][0] <= cis["0.5"][1] <= cis["0.05"][1]


def test_bootstrap_single_class_is_infeasible(ingested, tmp_path, capsys):
    curves_dir, _ = ingested
    bad_labels = tmp_path / "labels.csv"
    write_labels_file(bad_labels, {"low": 1, "high": 1})
    rc = main([
        "bootstrap", "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"), "--labels", str(bad_labels),
        "--B", "10", "--out", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "bootstrap infeasible: class too rare" in capsys.readouterr().err


def test_classify_roundtrip(ingested, tmp_path):
    curves_dir, labels = ingested
    fit_out = tmp_path / "fit"
    assert main([
        "fit", "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"), "--labels", str(labels),
        "--out", str(fit_out),
    ]) == 0
    cls_out = tmp_path / "cls"
    rc = main([
        "classify", "--cutoff", str(fit_out / "cutoff.json"),
        "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"),
        "--labels", str(labels), "--out", str(cls_out),
    ])
    assert rc == 0
    with open(cls_out / "predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["subject_id", "margin", "prediction"]
    preds = {r[0]: int(r[2]) for r in rows[1:]}
    assert preds == {"low": 0, "high": 1}
    metrics = json.loads((cls_out / "metrics.json").read_text())
    assert metrics["youden"] == 1.0
    assert metrics["n_cases"] == 1 and metrics["n_controls"] == 1


def test_classify_without_labels(ingested, tmp_path):
    curves_dir, labels = ingested
    fit_out = tmp_path / "fit"
    assert main([
        "fit", "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"), "--labels", str(labels),
        "--out", str(fit_out),
    ]) == 0
    cls_out = tmp_path / "cls"
    assert main([
        "classify", "--cutoff", str(fit_out / "cutoff.json"),
        "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"), "--out", str(cls_out),
    ]) == 0
    assert (cls_out / "predictions.csv").exists()
    assert not (cls_out / "metrics.json").exists()


def test_classify_grid_mismatch(ingested, tmp_path, capsys):
    curves_dir, labels = ingested
    small = default_grid(5)
    cutoff = tmp_path / "cutoff.json"
    write_cutoff_json(cutoff, ThresholdFamily(small, np.zeros(5), np.ones(5)),
                      c_hat=0.0, criterion="youden")
    rc = main([
        "classify", "--cutoff", str(cutoff),
        "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "grid mismatch" in capsys.readouterr().err


def test_simulate_repro_and_shape(tmp_path, capsys):
    args = [
        "simulate", "--a", "0,2", "--b", "0", "--n", "30", "--R", "5",
        "--criteria", "youden", "--seed", "12",
    ]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(args + ["--out", str(out1)]) == 0
    assert "regenerated" in capsys.readouterr().out
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
    lines = (out1 / "study.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 5
    assert (out1 / "study_summary.csv").exists()


@pytest.mark.parametrize("value", ["0", "-1", "-8"])
def test_threads_below_one_are_rejected(tmp_path, capsys, value):
    rc = main(["simulate", "--a", "1", "--b", "0", "--n", "10", "--R", "2",
               "--threads", value, "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_indices_command(cohort_files, tmp_path):
    series, _ = cohort_files
    out = tmp_path / "idx"
    rc = main([
        "indices", "--series", str(series), "--nominal-interval", "15",
        "--out", str(out),
    ])
    assert rc == 0
    with open(out / "indices.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    by_id = {r[0]: r for r in rows[1:]}
    header = rows[0]
    sd_col = header.index("sd")
    assert float(by_id["low"][sd_col]) == 0.0
    meta = json.loads((out / "indices_meta.json").read_text())
    assert meta == {"mage_convention": "classic", "conga_horizon_hours": 1.0,
                    "tar_inclusive": True}
    assert (out / "report.json").exists()


def test_roc_functional(ingested, tmp_path):
    curves_dir, labels = ingested
    out = tmp_path / "roc"
    rc = main([
        "roc", "--curves", str(curves_dir / "curves.csv"),
        "--grid", str(curves_dir / "grid.json"), "--labels", str(labels),
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "auc.json").read_text())
    assert payload["auc"] == 1.0
    assert payload["n_cases"] == 1
    lines = (out / "roc.csv").read_text().splitlines()
    assert lines[0] == "fpr,tpr"


def test_roc_scalar_known_value(tmp_path):
    scores = tmp_path / "scores.csv"
    labels = tmp_path / "labels.csv"
    with open(scores, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "score"])
        for sid, s in (("a", 0.0), ("b", 2.0), ("c", 1.0), ("d", 3.0)):
            writer.writerow([sid, repr(s)])
    write_labels_file(labels, {"a": 1, "b": 1, "c": 0, "d": 0})
    out = tmp_path / "out"
    rc = main([
        "roc", "--scores", str(scores), "--labels", str(labels),
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "auc.json").read_text())
    assert payload["auc"] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("direction", ["high", "low"])
def test_roc_agrees_with_fit_and_roc_points(scores_files, tmp_path, direction):
    """On tied scores (integer ages) roc writes fit's roc.csv byte for byte,
    the full-sweep roc_points rows, and fit's AUC."""
    scores, labels = scores_files
    args = ["--scores", str(scores), "--score-column", "age", "--labels", str(labels),
            "--direction", direction]
    assert main(["roc", *args, "--out", str(tmp_path / "roc")]) == 0
    assert main(["fit", *args, "--out", str(tmp_path / "fit")]) == 0
    roc_csv = (tmp_path / "roc" / "roc.csv").read_bytes()
    assert roc_csv == (tmp_path / "fit" / "roc.csv").read_bytes()

    with open(scores, newline="") as fh:
        ages = np.array([float(row["age"]) for row in csv.DictReader(fh)])
    z = np.arange(ages.size) % 2
    fpr, tpr = roc_points(-ages if direction == "low" else ages, z)
    rows = ["fpr,tpr"] + [f"{float(f)!r},{float(t)!r}" for f, t in zip(fpr, tpr)]
    assert roc_csv.decode().splitlines() == rows
    fit_auc = json.loads((tmp_path / "fit" / "result.json").read_text())["auc"]
    assert json.loads((tmp_path / "roc" / "auc.json").read_text())["auc"] == fit_auc


def duplicated_curves(ingested, tmp_path):
    """The ingested curves file with its last row repeated (line 4)."""
    curves_dir, _ = ingested
    text = (curves_dir / "curves.csv").read_text()
    lines = text.splitlines(keepends=True)
    dup = tmp_path / "curves_dup.csv"
    dup.write_text(text + lines[-1])
    return dup, lines[-1].split(",")[0]


@pytest.mark.parametrize("command", [
    ["fit"],
    ["bootstrap", "--B", "10"],
    ["classify"],
])
def test_duplicate_curve_ids_are_rejected(ingested, tmp_path, capsys, command):
    curves_dir, labels = ingested
    dup, sid = duplicated_curves(ingested, tmp_path)
    args = ["--curves", str(dup), "--grid", str(curves_dir / "grid.json"),
            "--labels", str(labels), "--out", str(tmp_path / "out")]
    if command[0] == "classify":
        fit_out = tmp_path / "fit"
        assert main(["fit", "--curves", str(curves_dir / "curves.csv"),
                     "--grid", str(curves_dir / "grid.json"), "--labels", str(labels),
                     "--out", str(fit_out)]) == 0
        args += ["--cutoff", str(fit_out / "cutoff.json")]
    assert main(command + args) == 1
    err = capsys.readouterr().err
    assert f"{dup} line 4: duplicate subject_id {sid!r}" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command", [["fit"], ["bootstrap", "--B", "10"], ["roc"]])
def test_duplicate_score_ids_are_rejected(tmp_path, capsys, command):
    scores = tmp_path / "scores.csv"
    scores.write_text("subject_id,score\na,0.0\nb,1.0\nc,2.0\nb,3.0\n")
    labels = tmp_path / "labels.csv"
    write_labels_file(labels, {"a": 0, "b": 1, "c": 1})
    rc = main(command + ["--scores", str(scores), "--labels", str(labels),
                         "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{scores} line 5: duplicate subject_id 'b'" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("c_hat", float("nan"), "c_hat must be finite"),
    ("c_hat", float("inf"), "c_hat must be finite"),
    ("criterion", "accuracy", "unknown criterion 'accuracy'"),
])
def test_classify_rejects_bad_cutoff(ingested, tmp_path, capsys, field, value, message):
    curves_dir, labels = ingested
    fit_out = tmp_path / "fit"
    assert main(["fit", "--curves", str(curves_dir / "curves.csv"),
                 "--grid", str(curves_dir / "grid.json"), "--labels", str(labels),
                 "--out", str(fit_out)]) == 0
    cutoff = fit_out / "cutoff.json"
    payload = json.loads(cutoff.read_text())
    payload[field] = value
    cutoff.write_text(json.dumps(payload))
    rc = main(["classify", "--cutoff", str(cutoff),
               "--curves", str(curves_dir / "curves.csv"),
               "--grid", str(curves_dir / "grid.json"), "--out", str(tmp_path / "cls")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"cutoff file {cutoff}: {message}" in err
    assert not (tmp_path / "cls" / "predictions.csv").exists()



@pytest.mark.parametrize("data, message", [
    (b"[0.25, 0.5]", "expected a JSON object"),
    (b'{"m": 2}', "missing key 'points'"),
    (b'{"points": [0.5]', "invalid JSON: Expecting ',' delimiter: line 1 column 17 (char 16)"),
    (b"\xff{}", "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte"),
    (b'{"points": "abc"}', "points must be a list of numbers"),
    (b'{"points": [0.5, "abc"]}', "points must be a list of numbers"),
    (b'{"points": [0.5], "m": [1]}', "m must be a number"),
    (b'{"points": [0.5], "m": 1' + b"0" * 400 + b"}", "m must be a number"),
    (b'{"points": [1' + b"0" * 400 + b"]}", "points must be a list of numbers"),
    (b'{"points": [0.5, 0.25]}', "probability grid must be strictly increasing"),
])
def test_bad_grid_file_is_named(ingested, tmp_path, capsys, data, message):
    curves_dir, labels = ingested
    grid = tmp_path / "grid.json"
    grid.write_bytes(data)
    rc = main(["fit", "--curves", str(curves_dir / "curves.csv"), "--grid", str(grid),
               "--labels", str(labels), "--out", str(tmp_path / "fit")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: grid file {grid}: {message}\n"


@pytest.mark.parametrize("data, message", [
    (b"[]", "expected a JSON object"),
    (b'{"grid": [0.5], "sigma": [1.0], "c_hat": 0.0, "criterion": "youden"}',
     "missing key 'mu'"),
    (b'{"grid": [0.5], ', "invalid JSON: Expecting property name enclosed in double "
                         "quotes: line 1 column 17 (char 16)"),
    (b'{"grid": [0.5], "mu": [1.0], "sigma": [1.0], "c_hat": [0.0], "criterion": "youden"}',
     "c_hat must be a number"),
    (b'{"grid": [0.5], "mu": [1.0], "sigma": [1.0], "c_hat": true, "criterion": "youden"}',
     "c_hat must be a number"),
    (b'{"grid": [0.5], "mu": "abc", "sigma": [1.0], "c_hat": 0.0, "criterion": "youden"}',
     "mu must be a list of numbers"),
    (b'{"grid": [0.5], "mu": [1.0, 2.0], "sigma": [1.0], "c_hat": 0.0, '
     b'"criterion": "youden"}', "mu and sigma must match the grid length"),
])
def test_bad_cutoff_file_is_named(ingested, tmp_path, capsys, data, message):
    curves_dir, _ = ingested
    cutoff = tmp_path / "cutoff.json"
    cutoff.write_bytes(data)
    rc = main(["classify", "--cutoff", str(cutoff),
               "--curves", str(curves_dir / "curves.csv"),
               "--grid", str(curves_dir / "grid.json"), "--out", str(tmp_path / "cls")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: cutoff file {cutoff}: {message}\n"


def corrupt_line_3(path, tmp_path, defect):
    """A copy of `path` whose line 3 starts with a 140,000-character field
    or with a byte that is not UTF-8."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = (b"x" * 140_000 if defect == "field" else b"\xff") + lines[2]
    bad = tmp_path / f"bad_{path.name}"
    bad.write_bytes(b"".join(lines))
    return bad


@pytest.mark.parametrize("defect, message", [
    ("field", "{name} line 3: field larger than field limit (131072)"),
    ("byte", "{name}: not UTF-8 text (invalid start byte)"),
])
@pytest.mark.parametrize("kind", ["series", "labels", "curves", "scores"])
def test_malformed_csv_inputs_name_the_file(cohort_files, ingested, scores_files, tmp_path,
                                            capsys, kind, defect, message):
    series, cohort_labels = cohort_files
    curves_dir, labels = ingested
    curves = curves_dir / "curves.csv"
    scores, score_labels = scores_files
    if kind == "series":
        bad = corrupt_line_3(series, tmp_path, defect)
        argv = ["ingest", "--series", str(bad), "--labels", str(cohort_labels)]
    elif kind == "scores":
        bad = corrupt_line_3(scores, tmp_path, defect)
        argv = ["fit", "--scores", str(bad), "--labels", str(score_labels)]
    else:
        bad = corrupt_line_3(curves if kind == "curves" else labels, tmp_path, defect)
        argv = ["fit", "--curves", str(bad if kind == "curves" else curves),
                "--grid", str(curves_dir / "grid.json"),
                "--labels", str(bad if kind == "labels" else labels)]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    name = f"curves file {bad}" if kind == "curves" else str(bad)
    assert capsys.readouterr().err == f"error: {message.format(name=name)}\n"


@pytest.mark.parametrize("flag, value", [
    ("--a", "nan"), ("--a", "inf"), ("--b", "nan"), ("--b", "inf"),
])
def test_simulate_rejects_non_finite_separation(tmp_path, capsys, flag, value):
    ab = {"--a": "1", "--b": "0", flag: value}
    rc = main(["simulate", "--a", ab["--a"], "--b", ab["--b"], "--n", "10", "--R", "2",
               "--out", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == "error: a and b must be finite and nonnegative\n"
    assert not (tmp_path / "s" / "study.csv").exists()

SCORE_IDS = st.text(alphabet="abXY09_-.", min_size=1, max_size=6)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(SCORE_IDS, st.floats(-1e300, 1e300), st.integers(0, 1)),
                min_size=1, max_size=10, unique_by=lambda row: row[0]),
       st.integers(0, 2))
def test_scores_csv_round_trip_is_exact(tmp_path, rows, position):
    """The scores reader returns the ids in file order, the written floats
    bit for bit from any column, and each id's label."""
    names = ["other_a", "other_b"]
    names.insert(position, "score")
    scores = tmp_path / "scores.csv"
    with open(scores, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", *names])
        for sid, value, _ in rows:
            fields = ["1.5", "x"]
            fields.insert(position, repr(value))
            writer.writerow([sid, *fields])
    labels = tmp_path / "labels.csv"
    write_labels_file(labels, {sid: z for sid, _, z in reversed(rows)})
    ids, values, labs = _read_scores(scores, "score", labels)
    assert ids == [sid for sid, _, _ in rows]
    assert [v.hex() for v in values] == [v.hex() for _, v, _ in rows]
    assert labs.tolist() == [z for _, _, z in rows]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 4), st.sampled_from([
    ("a,9.0", "duplicate subject_id 'a'"),
    ("d", "wrong column count"),
    ("d,1.0,2.0", "wrong column count"),
    ("d,abc", "non-numeric score 'abc'"),
    ("d,", "non-numeric score ''"),
    ("d,nan", "non-finite score 'nan'"),
    ("d,-inf", "non-finite score '-inf'"),
]))
def test_scores_csv_rejects_bad_rows_with_file_and_line(tmp_path, line_no, defect):
    bad, message = defect
    rows = ["a,0.5", "b,1.5", "c,2.5"]
    if line_no == 2 and message.startswith("duplicate"):
        line_no = 3
    rows[line_no - 2] = bad
    scores = tmp_path / "scores.csv"
    scores.write_text("subject_id,score\n" + "\n".join(rows) + "\n")
    labels = tmp_path / "labels.csv"
    write_labels_file(labels, {"a": 0, "b": 1, "c": 1, "d": 0})
    with pytest.raises(ValueError) as exc:
        _read_scores(scores, "score", labels)
    assert str(exc.value) == f"{scores} line {line_no}: {message}"
