import ast
import csv
import hashlib
import inspect
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import uniform_day_rows, write_labels_file, write_series_file
from funcutpoint import cli, ingest
from funcutpoint.cli import main
from funcutpoint.cutpoint import roc_points
from funcutpoint.ingest import ingest_cohort
from funcutpoint.quantiles import (QuantileCurve, default_grid, label_array, parse_labels,
                                   read_curves_csv, read_grid_json, read_scores_csv,
                                   write_curves_csv, write_grid_json)
from funcutpoint.threshold import ThresholdFamily, read_cutoff_json, write_cutoff_json

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
    ids, matrix = read_curves_csv(out / "curves.csv", grid)
    assert set(ids) == {"low", "high"}
    assert matrix.shape == (2, 100)
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


def test_manifest_hashes_inputs_in_chunks(cohort_files, tmp_path, monkeypatch):
    """Inputs are hashed chunk by chunk: the digests equal hashlib.sha256 of
    the whole file for files longer than one chunk and not a multiple of it."""
    series, labels = cohort_files
    big = tmp_path / "big.bin"
    big.write_bytes(np.random.default_rng(SEED).bytes(2 * cli._HASH_CHUNK + 123))
    assert cli._sha256(big) == hashlib.sha256(big.read_bytes()).hexdigest()
    monkeypatch.setattr(cli, "_HASH_CHUNK", 1000)
    assert series.stat().st_size > 3000 and series.stat().st_size % 1000
    out = tmp_path / "out"
    assert main(["ingest", "--series", str(series), "--labels", str(labels),
                 "--nominal-interval", "15", "--out", str(out)]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in (series, labels)}


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


@pytest.mark.parametrize("exists", [True, False])
def test_bootstrap_split_fraction_applies_to_curves_only(scores_files, tmp_path, capsys, exists):
    """--split-fraction with --scores is a usage error, raised before any
    input is read (a missing scores file is not reached), not ignored."""
    scores, labels = scores_files
    rc = main(["bootstrap", "--scores", str(scores if exists else tmp_path / "missing.csv"),
               "--labels", str(labels), "--split-fraction", "2", "--B", "50",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --split-fraction applies to --curves only\n"
    assert not (tmp_path / "out").exists()


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
    assert capsys.readouterr().err == (
        f"error: cutoff file {cutoff}: grid differs from grid file {curves_dir / 'grid.json'}\n")


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


def test_curve_commands_build_no_per_row_curves(ingested, tmp_path, monkeypatch):
    """fit, bootstrap, roc and classify take each curves file as one
    matrix and build no QuantileCurve."""
    built = []
    monkeypatch.setattr(QuantileCurve, "__post_init__", lambda self: built.append(self))
    curves_dir, labels = ingested
    inputs = ["--curves", str(curves_dir / "curves.csv"), "--grid", str(curves_dir / "grid.json"),
              "--labels", str(labels)]
    for command in (["fit"], ["bootstrap", "--B", "10"], ["roc"]):
        assert main(command + inputs + ["--out", str(tmp_path / command[0])]) == 0
    assert main(["classify", "--cutoff", str(tmp_path / "fit" / "cutoff.json"), *inputs,
                 "--out", str(tmp_path / "classify")]) == 0
    assert built == []


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


@pytest.mark.parametrize("kind, text", [
    ("scores", "subject_id,score\n,1.0\n"),
    ("scores", "subject_id,score\n  ,1.0\n"),
    ("labels", "subject_id,label\n,0\n"),
    ("curves", "subject_id,rho_1,rho_2,rho_3\n,1,2,3\n"),
])
def test_empty_subject_id_is_rejected(tmp_path, capsys, kind, text):
    """Every id column, like the series reader's, rejects an id that is
    empty after the reader's strip (the curves reader strips nothing)."""
    bad = tmp_path / f"{kind}.csv"
    bad.write_text(text)
    scores, labels, grid = tmp_path / "scores.csv", tmp_path / "labels.csv", tmp_path / "g.json"
    if kind != "scores":
        scores.write_text("subject_id,score\na,1.0\n")
    if kind != "labels":
        write_labels_file(labels, {"a": 0, "": 1})
    if kind == "curves":
        grid.write_text(json.dumps({"m": 3, "points": [0.25, 0.5, 0.75]}))
        argv = ["fit", "--curves", str(bad), "--grid", str(grid), "--labels", str(labels)]
    else:
        argv = ["fit", "--scores", str(scores), "--labels", str(labels)]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    name = f"curves file {bad}" if kind == "curves" else str(bad)
    assert capsys.readouterr().err == f"error: {name} line 2: empty subject_id\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command, route", [
    (["fit"], "curves"),
    (["fit"], "scores"),
    (["bootstrap", "--B", "10"], "curves"),
    (["bootstrap", "--B", "10"], "scores"),
    (["roc"], "curves"),
    (["classify"], "curves"),
])
def test_missing_label_names_the_labels_file(ingested, tmp_path, capsys, command, route):
    curves_dir, labels = ingested
    curves, grid = str(curves_dir / "curves.csv"), str(curves_dir / "grid.json")
    partial = tmp_path / "labels_without_high.csv"
    write_labels_file(partial, {"low": 0})
    if route == "scores":
        scores = tmp_path / "scores.csv"
        scores.write_text("subject_id,score\nlow,0.5\nhigh,1.5\n")
        args = ["--scores", str(scores)]
    else:
        args = ["--curves", curves, "--grid", grid]
    if command == ["classify"]:
        fit_out = tmp_path / "fit"
        assert main(["fit", *args, "--labels", str(labels), "--out", str(fit_out)]) == 0
        args += ["--cutoff", str(fit_out / "cutoff.json")]
    rc = main(command + args + ["--labels", str(partial), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {partial}: no label for subject 'high'\n"


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


@pytest.mark.parametrize("kind", ["grid", "cutoff"])
def test_too_deeply_nested_json_file_is_named(ingested, tmp_path, capsys, kind):
    curves_dir, labels = ingested
    curves, grid = str(curves_dir / "curves.csv"), str(curves_dir / "grid.json")
    bad = tmp_path / f"{kind}.json"
    bad.write_text("[" * 100_000)
    if kind == "grid":
        argv = ["fit", "--curves", curves, "--grid", str(bad), "--labels", str(labels)]
    else:
        argv = ["classify", "--cutoff", str(bad), "--curves", curves, "--grid", grid]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file {bad}: invalid JSON: ")
    assert err.count("\n") == 1


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


@pytest.fixture(scope="module")
def fuzz_routes(ingested, cohort_files, scores_files, tmp_path_factory):
    """For each file input, the argv of a run whose other inputs are the
    valid fixtures, as a function of the fuzzed file's path."""
    curves_dir, labels = (str(p) for p in ingested)
    curves, grid = f"{curves_dir}/curves.csv", f"{curves_dir}/grid.json"
    series_labels = str(cohort_files[1])
    scores, score_labels = (str(p) for p in scores_files)
    fit_out = tmp_path_factory.mktemp("fuzz_fit")
    assert main(["fit", "--curves", curves, "--grid", grid, "--labels", labels,
                 "--out", str(fit_out)]) == 0
    cutoff = str(fit_out / "cutoff.json")
    return {
        "grid": lambda p: ["fit", "--curves", curves, "--grid", p, "--labels", labels],
        "cutoff": lambda p: ["classify", "--cutoff", p, "--curves", curves, "--grid", grid],
        "curves": lambda p: ["fit", "--curves", p, "--grid", grid, "--labels", labels],
        "scores": lambda p: ["fit", "--scores", p, "--labels", score_labels],
        "labels": lambda p: ["fit", "--scores", scores, "--labels", p],
        "series": lambda p: ["ingest", "--series", p, "--labels", series_labels],
        "indices-series": lambda p: ["indices", "--series", p],
        "classify-labels": lambda p: ["classify", "--cutoff", cutoff, "--curves", curves,
                                      "--grid", grid, "--labels", p],
    }


# JSON values whose objects use the grid and cutoff keys, so that the type
# and shape checks behind them are reached as well as the parser's.
FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["points", "m", "grid", "mu", "sigma", "c_hat", "criterion", "x"]),
        inner, max_size=6),
    max_leaves=12,
)
JSON_READERS = {"grid": read_grid_json, "cutoff": read_cutoff_json}


def _accepted(reader, path) -> bool:
    try:
        reader(path)
    except ValueError:
        return False
    return True


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("kind", ["grid", "cutoff", "curves", "scores", "labels", "series",
                                  "indices-series", "classify-labels"])
def test_fuzzed_input_file_is_one_error_line(fuzz_routes, tmp_path, capsys, kind, data):
    """Random bytes, or for grid and cutoff also random JSON, in one file
    input: main returns 1 or 2 with one error line naming that file."""
    contents = st.binary(max_size=200)
    if kind in JSON_READERS:
        contents |= FUZZ_JSON.map(lambda value: json.dumps(value).encode())
    path = tmp_path / f"fuzzed_{kind}"
    path.write_bytes(data.draw(contents))
    if kind in JSON_READERS:
        # A file its reader accepts can only fail against the other inputs.
        assume(not _accepted(JSON_READERS[kind], path))
    rc = main(fuzz_routes[kind](str(path)) + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc in (1, 2)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert str(path) in err


CROSS_FILE_CASES = [(command, defect) for command in ("fit", "bootstrap", "roc", "classify")
                    for defect in ("missing label", "grid size")] + [("classify", "cutoff grid")]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CROSS_FILE_CASES), m=st.integers(1, 5), data=st.data())
def test_disagreeing_input_files_are_one_error_line(tmp_path, capsys, case, m, data):
    """Files that are each valid but disagree (a curves id with no label,
    a grid file whose point count differs from the curves header, a cutoff
    fitted on another grid): main returns 1 with one error line naming a
    file that takes part in the disagreement."""
    command, defect = case
    n = data.draw(st.integers(2, 6), label="n")
    rows = data.draw(st.lists(st.lists(st.floats(-100.0, 100.0), min_size=m, max_size=m),
                              min_size=n, max_size=n), label="rows")
    ids = [f"s{i}" for i in range(n)]
    curves, grid, labels, cutoff = (tmp_path / name for name in
                                    ("curves.csv", "grid.json", "labels.csv", "cutoff.json"))
    write_curves_csv(curves, ids, np.sort(np.array(rows), axis=1))
    cutoff_grid = file_grid = default_grid(m)
    labelled = ids
    if defect == "missing label":
        missing = data.draw(st.sets(st.sampled_from(ids), min_size=1, max_size=n - 1))
        labelled = [sid for sid in ids if sid not in missing]
        involved = [labels]
    elif defect == "grid size":
        file_grid = default_grid(data.draw(st.integers(1, 6).filter(lambda k: k != m)))
        involved = [curves, grid] + ([cutoff] if command == "classify" else [])
    else:
        k = data.draw(st.integers(1, 6), label="cutoff points")
        cutoff_grid = default_grid(k) if k != m else default_grid(m) / 2.0
        involved = [cutoff, grid]
    write_grid_json(grid, file_grid)
    write_labels_file(labels, {sid: i % 2 for i, sid in enumerate(ids) if sid in labelled})
    family = ThresholdFamily(cutoff_grid, np.zeros(cutoff_grid.size), np.ones(cutoff_grid.size))
    write_cutoff_json(cutoff, family, 0.0, "youden")
    argv = {"bootstrap": ["bootstrap", "--B", "5"],
            "classify": ["classify", "--cutoff", str(cutoff)]}.get(command, [command])
    out = tmp_path / "out"
    rc = main(argv + ["--curves", str(curves), "--grid", str(grid), "--labels", str(labels),
                      "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert any(str(path) in err for path in involved), err
    assert not (out / "manifest.json").exists()


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


@pytest.mark.parametrize("a, b, cell", [
    ("1e308", "0", "(1e+308, 0.0, 10)"),
    ("0", "1e308", "(0.0, 1e+308, 10)"),
])
def test_simulate_overflowing_cell_is_one_error_line(tmp_path, capsys, a, b, cell):
    """Finite but huge separations overflow the generated margins: one
    error line names the cell, and no numpy warning precedes it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--a", a, "--b", b, "--n", "10", "--R", "2",
                   "--out", str(tmp_path / "s")])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: cell (a, b, n) = {cell}: generated margins are not finite\n")
    assert not (tmp_path / "s" / "study.csv").exists()


def overflow_inputs(tmp_path, rows):
    """A curves file of `rows` on a two-point grid, and labels a=0, b=1, c=1."""
    curves, grid, labels = tmp_path / "curves.csv", tmp_path / "grid.json", tmp_path / "labels.csv"
    curves.write_text("subject_id,rho_1,rho_2\n" + "".join(f"{row}\n" for row in rows))
    grid.write_text(json.dumps({"m": 2, "points": [0.25, 0.75]}))
    write_labels_file(labels, {"a": 0, "b": 1, "c": 1})
    return curves, grid, labels


@pytest.mark.parametrize("sigma", [[], ["--with-sigma"]])
@pytest.mark.parametrize("command", [["fit"], ["roc"], ["bootstrap", "--B", "10"]])
def test_overflowing_curves_are_one_error_line(tmp_path, capsys, command, sigma):
    """Finite curves whose column mean overflows: one error line names the
    curves file, and no numpy warning precedes it."""
    curves, grid, labels = overflow_inputs(
        tmp_path, ["a,1e308,1.7e308", "b,1.7e308,1.7e308", "c,1,2"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(command + sigma + ["--curves", str(curves), "--grid", str(grid),
                                     "--labels", str(labels), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: curves file {curves}: values too large (overflow encountered in reduce)\n")
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_scores_spanning_the_float_range_are_one_error_line(tmp_path, capsys):
    """Finite scores whose span overflows: the scalar bootstrap fails with
    one error line naming the scores file, and no numpy warning precedes it."""
    scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
    scores.write_text("subject_id,score\na,-1.7e308\nb,1.7e308\nc,1\n")
    write_labels_file(labels, {"a": 0, "b": 1, "c": 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["bootstrap", "--B", "10", "--scores", str(scores), "--labels", str(labels),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: scores file {scores}: values too large (overflow encountered in subtract)\n")
    assert not (tmp_path / "out" / "sweep_band.csv").exists()
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("route", ["scores", "curves"])
@pytest.mark.parametrize("command", [["fit", "--criterion", "max_specificity"], ["roc"],
                                     ["bootstrap", "--B", "10"]])
def test_maximum_with_no_cut_off_above_it_is_one_error_line(tmp_path, capsys, command, route):
    """Scores, or curve margins, whose max + 1.0 rounds back to the max
    leave no cut-off above them: one error line names the file, and no
    artifact is written."""
    curves, grid, labels = overflow_inputs(tmp_path, ["a,4e16,4e16", "b,0,0", "c,0,0"])
    if route == "scores":
        path, top = tmp_path / "scores.csv", "3e+16"
        path.write_text("subject_id,score\na,3e16\nb,1e16\nc,2e16\n")
        inputs = ["--scores", str(path)]
    else:
        # Margins against the pooled mean 4e16 / 3: a's is the maximum.
        path, top = curves, "2.6666666666666664e+16"
        inputs = ["--curves", str(curves), "--grid", str(grid)]
    out = tmp_path / "out"
    rc = main(command + inputs + ["--labels", str(labels), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {route} file {path}: values too large (no cut-off above the maximum "
        f"score {top}: max + 1.0 rounds back to it)\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["fit", "--c-grid", "0:1:1000000000000000"],
    ["simulate", "--a", "0", "--b", "0", "--n", "10", "--R", "2",
     "--grid-size", "1000000000000000"],
])
def test_allocation_beyond_the_address_space_is_one_error_line(tmp_path, capsys, command):
    """An array of 10**15 floats (8 PB) cannot be allocated under any
    overcommit setting: the MemoryError is one error line, with no
    traceback, and no artifact is written."""
    scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
    scores.write_text("subject_id,score\na,1\nb,2\n")
    write_labels_file(labels, {"a": 0, "b": 1})
    if command[0] == "fit":
        command = command + ["--scores", str(scores), "--labels", str(labels)]
    out = tmp_path / "out"
    assert main(command + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert "(1000000000000000,)" in err
    assert list(out.iterdir()) == []


def test_classify_takes_opposite_sign_extremes_without_warnings(tmp_path, capsys):
    """A curve from -1.7e308 to 1.7e308 is nondecreasing: classify checks
    it without the overflow of a difference and writes its margin."""
    good, grid, labels = overflow_inputs(tmp_path, ["a,1,2", "b,3,4", "c,2,5"])
    assert main(["fit", "--curves", str(good), "--grid", str(grid), "--labels", str(labels),
                 "--out", str(tmp_path / "fit")]) == 0
    extreme = tmp_path / "extreme.csv"
    extreme.write_text("subject_id,rho_1,rho_2\na,-1.7e308,1.7e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["classify", "--cutoff", str(tmp_path / "fit" / "cutoff.json"),
                   "--curves", str(extreme), "--grid", str(grid),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "predictions.csv").read_text().splitlines()[1:] == [
        "a,-1.7e+308,0"]


@pytest.mark.parametrize("labels", [None, {"a": 0, "b": 1, "c": 1}, {"a": 0, "b": 1}])
def test_classify_overflowing_margins_are_one_error_line(tmp_path, capsys, labels):
    """Curves at 1.7e308 against a cutoff whose mu is -1.7e308: each margin
    a - mu overflows. classify fails with one error line naming the file at
    fault (the labels file when it lacks a subject, else the curves file),
    with no numpy warning, and writes no predictions.csv."""
    curves, grid, _ = overflow_inputs(tmp_path, ["a,1.7e308,1.7e308", "b,0,1", "c,1,2"])
    cutoff = tmp_path / "cutoff.json"
    write_cutoff_json(cutoff, ThresholdFamily(read_grid_json(grid), [-1.7e308] * 2, [1.0] * 2),
                      0.0, "youden")
    out = tmp_path / "out"
    argv = ["classify", "--cutoff", str(cutoff), "--curves", str(curves), "--grid", str(grid),
            "--out", str(out)]
    message = f"curves file {curves}: values too large (overflow encountered in subtract)"
    if labels is not None:
        path = tmp_path / "probe_labels.csv"
        write_labels_file(path, labels)
        argv += ["--labels", str(path)]
        if "c" not in labels:
            message = f"{path}: no label for subject 'c'"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def test_smoothed_cutoff_overflow_is_one_error_line(tmp_path, capsys):
    """Finite, nondecreasing curves whose column means fit but whose cut-off
    curve's moving average overflows: fit --smooth fails with one error line
    naming the curves file, with no numpy warning, and writes nothing."""
    curves, grid, labels = tmp_path / "curves.csv", tmp_path / "grid.json", tmp_path / "labels.csv"
    write_curves_csv(curves, list("abcd"), np.array([
        [4e307, 4.05e307, 4.1e307, 4.15e307, 4.2e307],
        [4e307, 4e307, 4.1e307, 4.1e307, 4.2e307],
        [4e307, 4.01e307, 4.02e307, 4.03e307, 4.04e307],
        [4e307, 4.1e307, 4.1e307, 4.2e307, 4.2e307],
    ]))
    write_grid_json(grid, default_grid(5))
    write_labels_file(labels, {"a": 1, "b": 0, "c": 0, "d": 1})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["fit", "--smooth", "--window", "5", "--curves", str(curves),
                   "--grid", str(grid), "--labels", str(labels), "--out", str(out)])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: curves file {curves}: values too large (overflow encountered in reduce)\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("c_grid", ["-inf:inf:3", "0:inf:3", "-inf:0:3", "inf:inf:2",
                                    "-1.7e308:1.7e308:5"])
def test_c_grid_must_be_finite(scores_files, tmp_path, capsys, c_grid):
    """A --c-grid with an infinite end, or whose span U - L overflows, is a
    usage error: exit 2 before any file is read, and no output directory."""
    scores, labels = scores_files
    out = tmp_path / "out"
    rc = main(["fit", f"--c-grid={c_grid}", "--scores", str(scores), "--labels", str(labels),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --c-grid: c grid needs finite L and U and a finite span U - L\n")
    assert not out.exists()


@pytest.fixture
def three_day_series(tmp_path):
    series = tmp_path / "series.csv"
    write_series_file(series, [row for day in range(3)
                               for row in uniform_day_rows("x", day, 100.0, step_minutes=15)])
    write_labels_file(tmp_path / "labels.csv", {"x": 1})
    return series, tmp_path / "labels.csv"


def test_indices_error_names_series_and_subject(three_day_series, tmp_path, capsys):
    """A CONGA horizon longer than a subject's span fails with one error
    line naming the series file and the subject, and writes nothing."""
    series, _ = three_day_series
    out = tmp_path / "out"
    rc = main(["indices", "--series", str(series), "--nominal-interval", "15",
               "--conga-horizon-hours", "100", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {series}: subject 'x': series span does not exceed the CONGA horizon\n")
    assert list(out.iterdir()) == []


def test_ingest_with_no_subject_left_writes_nothing(three_day_series, tmp_path, capsys):
    """When every subject falls below --min-days, ingest fails with one
    error line naming the series file and the count, and writes no
    report.json."""
    series, labels = three_day_series
    out = tmp_path / "out"
    rc = main(["ingest", "--series", str(series), "--labels", str(labels),
               "--nominal-interval", "15", "--min-days", "9", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {series}: no subjects retained after day filtering (1 below --min-days 9)\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["ingest", "indices"])
@pytest.mark.parametrize("min_days", [0, -1])
def test_min_days_below_one_is_one_error_line(three_day_series, tmp_path, capsys, command,
                                              min_days):
    """A --min-days below 1 would exclude no subject, so ingest and indices
    reject it with one error line, exit 1 and write nothing."""
    series, labels = three_day_series
    out = tmp_path / "out"
    labels_args = ["--labels", str(labels)] if command == "ingest" else []
    rc = main([command, "--series", str(series), *labels_args, "--nominal-interval", "15",
               "--min-days", str(min_days), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: min_days must be at least 1\n"
    assert list(out.iterdir()) == []


BAD_OPTIONS = [
    ("ingest", "--grid-size", "0", "grid size must be >= 1"),
    ("indices", "--conga-horizon-hours", "0", "--conga-horizon-hours must be positive"),
    ("indices", "--conga-horizon-hours", "nan", "--conga-horizon-hours must be positive"),
    ("indices", "--conga-horizon-hours", "inf", "--conga-horizon-hours must be finite in seconds"),
    ("indices", "--conga-horizon-hours", "1e308",
     "--conga-horizon-hours must be finite in seconds"),
] + [(command, option, value, message) for command in ("ingest", "indices")
     for option, value, message in [
         ("--max-gap-minutes", "0", "max_gap_minutes must be positive"),
         ("--max-gap-minutes", "nan", "max_gap_minutes must be positive"),
         ("--max-gap-minutes", "inf", "max_gap_minutes must be finite in seconds"),
         ("--max-gap-minutes", "1e308", "max_gap_minutes must be finite in seconds"),
         ("--nominal-interval", "0", "nominal interval must be positive"),
         ("--nominal-interval", "-5", "nominal interval must be positive"),
         ("--nominal-interval", "inf", "nominal interval must be finite in seconds"),
         ("--nominal-interval", "1e308", "nominal interval must be finite in seconds"),
     ]]


@pytest.mark.parametrize("command, option, value, message", BAD_OPTIONS,
                         ids=[f"{c}{o}={v}" for c, o, v, _ in BAD_OPTIONS])
def test_bad_options_fail_before_the_series_is_read(three_day_series, tmp_path, monkeypatch,
                                                    capsys, command, option, value, message):
    """A bad option fails with one error line about the option, not about
    the series file or a subject, before the series is parsed; exit 1 and
    nothing written."""
    series, labels = three_day_series
    out = tmp_path / "out"
    for reader in ("_parse_columns", "_parse_series_rows"):
        monkeypatch.setattr(ingest, reader, lambda *args: pytest.fail("series parsed"))
    labels_args = ["--labels", str(labels)] if command == "ingest" else []
    rc = main([command, "--series", str(series), *labels_args, option, value,
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def test_bad_labels_fail_before_the_series_is_read(three_day_series, tmp_path, monkeypatch,
                                                   capsys):
    """ingest reads the labels file before the series: a bad label fails
    with one error line naming the labels file and line, before any row of
    the series is decoded; exit 1 and nothing written."""
    series, labels = three_day_series
    labels.write_text("subject_id,label\nx,2\n")
    out = tmp_path / "out"
    for reader in ("_parse_columns", "_parse_series_rows"):
        monkeypatch.setattr(ingest, reader, lambda *args: pytest.fail("series parsed"))
    rc = main(["ingest", "--series", str(series), "--labels", str(labels), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {labels} line 2: label must be 0 or 1, got '2'\n"
    assert list(out.iterdir()) == []


def test_handlers_return_their_artifacts():
    """Each cmd_* handler takes args alone: main writes what it returns."""
    handlers = [name for name in dir(cli) if name.startswith("cmd_")]
    assert len(handlers) == 7
    for name in handlers:
        assert list(inspect.signature(getattr(cli, name)).parameters) == ["args"], name


def test_scores_file_with_blank_first_line_is_one_error_line(tmp_path, capsys):
    scores = tmp_path / "blank.csv"
    scores.write_text("\ns1,1\n")
    labels = tmp_path / "labels.csv"
    write_labels_file(labels, {"s1": 1})
    rc = main(["fit", "--scores", str(scores), "--labels", str(labels),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {scores}: first column must be subject_id\n"


def _read_scores(scores, labels):
    """The scores reader and the label join of the scalar route, as the CLI runs them."""
    ids, values = read_scores_csv(scores, "score")
    return ids, values, label_array(ids, parse_labels(labels), labels)


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
    ids, values, labs = _read_scores(scores, labels)
    assert ids == [sid for sid, _, _ in rows]
    assert [v.hex() for v in values] == [v.hex() for _, v, _ in rows]
    assert labs.tolist() == [z for _, _, z in rows]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 4), st.sampled_from([
    ("a,9.0", "duplicate subject_id 'a'"),
    ("d", "expected 2 fields, got 1"),
    ("d,1.0,2.0", "expected 2 fields, got 3"),
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
        _read_scores(scores, labels)
    assert str(exc.value) == f"{scores} line {line_no}: {message}"


# Each subject-keyed CSV reader: its header, two good rows and how it reads
# a file (scores need a labels file, which the row faults never reach).
ROW_READERS = {
    "series": ("subject_id,timestamp,glucose",
               ["a,2024-03-01T00:00:00Z,100", "b,2024-03-01T00:05:00Z,110"],
               lambda path: ingest_cohort(path, min_days=1, gap_mode="single",
                                          max_gap_minutes=1440.0)),
    "labels": ("subject_id,label", ["a,0", "b,1"], lambda path: parse_labels(path)),
    "scores": ("subject_id,score", ["a,0.5", "b,1.5"],
               lambda path: _read_scores(path, path.with_name("labels.csv"))),
    "curves": ("subject_id,rho_1,rho_2", ["a,1.0,2.0", "b,1.5,2.5"],
               lambda path: read_curves_csv(path, default_grid(2))),
}
# Each shared fault: line 3 of a file, made from the reader's second good
# row (None drops every row; "\udcff" is written as the byte 0xff), and the
# expected message.
ROW_FAULTS = {
    "width": (lambda row: row + ",9", "{name} line 3: expected {k} fields, got {k1}"),
    "empty id": (lambda row: row[row.index(","):], "{name} line 3: empty subject_id"),
    "duplicate id": (lambda row: "a" + row[row.index(","):],
                     "{name} line 3: duplicate subject_id 'a'"),
    "no rows": (None, "{name}: no data rows"),
    "not UTF-8": (lambda row: "\udcff" + row, "{name}: not UTF-8 text (invalid start byte)"),
    "csv.Error": (lambda row: row[:row.rindex(",") + 1] + "1" * 140_000,
                  "{name} line 3: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("kind, fault", [
    (kind, fault) for kind in ROW_READERS for fault in ROW_FAULTS
    if (kind, fault) != ("series", "duplicate id")  # series rows repeat their id
])
def test_every_reader_applies_the_shared_row_rules(tmp_path, kind, fault):
    """The four subject-keyed readers share one row rule and its messages:
    the field count, a non-empty id, a unique id, at least one row, UTF-8
    text and csv's own record errors, each naming the file and line."""
    header, rows, read = ROW_READERS[kind]
    make_line, message = ROW_FAULTS[fault]
    path = tmp_path / f"{kind}.csv"
    write_labels_file(tmp_path / "labels.csv", {"a": 0, "b": 1})
    lines = [header] if make_line is None else [header, rows[0], make_line(rows[1])]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    k = header.count(",") + 1
    name = f"curves file {path}" if kind == "curves" else str(path)
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == message.format(name=name, k=k, k1=k + 1)


def _golden_routes(ingested, scores_files, cohort_files, root):
    """Every subcommand and route on the small fixtures, as (name, argv)."""
    curves_dir, labels = ingested
    scores, score_labels = scores_files
    series, _ = cohort_files
    curves = ["--curves", str(curves_dir / "curves.csv"),
              "--grid", str(curves_dir / "grid.json")]
    scalar = ["--scores", str(scores), "--labels", str(score_labels)]
    cutoff = str(root / "fit" / "cutoff.json")
    return [
        ("ingest", ["ingest", "--series", str(series), "--labels", str(labels),
                    "--nominal-interval", "15"]),
        ("fit", ["fit", *curves, "--labels", str(labels)]),
        ("fit-smooth", ["fit", *curves, "--labels", str(labels),
                        "--smooth", "--window", "3"]),
        ("fit-scores", ["fit", *scalar, "--direction", "low"]),
        ("bootstrap-curves", ["bootstrap", *curves, "--labels", str(labels),
                              "--B", "25", "--seed", "3"]),
        ("bootstrap-scores", ["bootstrap", *scalar, "--B", "80", "--seed", "6"]),
        ("classify", ["classify", "--cutoff", cutoff, *curves, "--labels", str(labels)]),
        ("classify-unlabelled", ["classify", "--cutoff", cutoff, *curves]),
        ("roc", ["roc", *scalar, "--score-column", "age"]),
        ("simulate", ["simulate", "--a", "0,2", "--b", "0,1", "--n", "30", "--R", "5",
                      "--seed", "12"]),
        ("indices", ["indices", "--series", str(series), "--nominal-interval", "15"]),
    ]


# SHA-256 of every artifact but manifest.json, recorded before the writers
# shared one artifact format (quantiles.write_json and write_csv).
GOLDEN_DIGESTS = {
    "ingest/curves.csv":
        "32f80fbe6d8d8e32466df535d8a2e89563565839fa3d52a1bef848d7eec2fd49",
    "ingest/grid.json":
        "21e087440f490345db25921a0f2f1fd59f9bd356674639472714000af0d1645d",
    "ingest/report.json":
        "87f6e64af9604e8f2c39053348cb8d194c589395a7e9dfd946d7e16c1423545a",
    "fit/cutoff.json":
        "462a04303dea1c890a0092a1f03dc5db13093951aec325431de99171426ba9ef",
    "fit/result.json":
        "3eba0f7e55791516833450bda6d8d4ea95c326a75e44b3465668d25111fdeca7",
    "fit/roc.csv":
        "7470d1b86d018982341d720e1c2c0eab8e7a2dd46d0eb10985d510857b15c484",
    "fit/sweep.csv":
        "43f12d9434a6aeeb33d6d8aec38117848b6dcca56edf9ac3e5174543aeff32eb",
    "fit-smooth/cutoff.json":
        "be87fae786eb9aa25546b4b1cceff1ec9332baf6c3abb7ab842bf82fd27cfd71",
    "fit-smooth/result.json":
        "f3611cba5a0979b4cf812e74e8a161559550d9bd3a475fde36013119f4af11f3",
    "fit-smooth/roc.csv":
        "7470d1b86d018982341d720e1c2c0eab8e7a2dd46d0eb10985d510857b15c484",
    "fit-smooth/smoothed_curve.csv":
        "5d0c645d800ede4de76a9e02d30cb7799b928d8387f803e482486a97e0304132",
    "fit-smooth/sweep.csv":
        "43f12d9434a6aeeb33d6d8aec38117848b6dcca56edf9ac3e5174543aeff32eb",
    "fit-scores/result.json":
        "62fe1bc07d1bd3e12e41daa4b92d5cc53f2ff27e4905067dfcef8f3364ebde2b",
    "fit-scores/roc.csv":
        "108630826aed2c769bc537b8ff3b8ac3aeedf13101130f42285051434f63c46d",
    "fit-scores/sweep.csv":
        "13f2377a0513b3f1568a72f15ae9dd272f06d4c870517bf5ab315c24cf68bd1a",
    "bootstrap-curves/bootstrap.json":
        "61e5162551cda7f9997f66093fd746387d14f266fe66e5c7cd2b8b7d67e4d0f3",
    "bootstrap-curves/curve_band.csv":
        "fb44b9cad58b1817f5f407836689266027c8f0a5cab0a96a127c845a3c0f0e96",
    "bootstrap-curves/sweep_band.csv":
        "a5c63c0aae1e81becdaa7e9b47fd698da76c99d2aed08909794cc9f21b92d91f",
    "bootstrap-scores/bootstrap.json":
        "1d328a3df8b6efe97524e29b951f06f2032e257eedf146c947532f499eb16de1",
    "bootstrap-scores/sweep_band.csv":
        "11fffbde006eb7c0e6e1853f1ad93442ee3f4bd6fe588f27421e7a82cce5877a",
    "classify/metrics.json":
        "1bbbc4d1f1c5e6ac17cdcd2dd86f64bb6f8a52b9bf943cf99f332a4d3114a9db",
    "classify/predictions.csv":
        "1f9329234252b8774e04ecab5ed96b5f0451cd5014f4cc3e94f01f151dc434c7",
    "classify-unlabelled/predictions.csv":
        "1f9329234252b8774e04ecab5ed96b5f0451cd5014f4cc3e94f01f151dc434c7",
    "roc/auc.json":
        "efd643b3ad2d99d4fc7d2bd98d6f1f73c88c7ac23760ddc610d012f19e0e7d52",
    "roc/roc.csv":
        "430fa48627ce32c1b64fa453b6a1700f7aed17a2b62054ee79540765448cb26e",
    "simulate/study.csv":
        "98772b74f8fb9599884cdbffb280810a2c92e54d315cfbb03600be663f072c48",
    "simulate/study_summary.csv":
        "5b434298bed8852b7f9653d1b0e168889e5befa64a8b26f87ea85789aa5a1661",
    "indices/indices.csv":
        "0d7d82116845d06a337f4c5a5186c961b06567653d6a40d7f07772153dc994fe",
    "indices/indices_meta.json":
        "2afbaf5ba9695c92b5c77dbeb565f2a7411bf34389d2671cf0ea6389e23eb1f4",
    "indices/report.json":
        "87f6e64af9604e8f2c39053348cb8d194c589395a7e9dfd946d7e16c1423545a",
}


def test_artifacts_match_recorded_digests(ingested, scores_files, cohort_files, tmp_path):
    digests = {}
    for name, argv in _golden_routes(ingested, scores_files, cohort_files, tmp_path):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0, name
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_DIGESTS


# ------------------------------------------------------------ process lifecycle

SRC = str(Path(cli.__file__).resolve().parents[1])
SIMULATE = ["simulate", "--a", "0,2", "--b", "1", "--n", "20", "--R", "3", "--seed", "5"]


def _python(args, env=None, **kwargs):
    """Run `python *args` in a fresh process on this checkout's package,
    buffered as Python buffers a pipe by default, so an output line that
    is never flushed is lost."""
    env = dict(os.environ if env is None else env)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, stderr=subprocess.PIPE, text=True,
                          timeout=120, **kwargs)


def _cli(argv, **kwargs):
    return _python(["-m", "funcutpoint.cli", *argv], **kwargs)


def test_cli_process_writes_what_main_writes(tmp_path):
    """A `python -m funcutpoint.cli` process exits 0 through run(), its
    summary line reaches the pipe on stdout, and its artifacts equal those
    of main() in this process byte for byte."""
    proc = _cli(SIMULATE + ["--out", str(tmp_path / "process")])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "cells: 2  replicates: 3  regenerated cohorts: 0\n"
    assert main(SIMULATE + ["--out", str(tmp_path / "main")]) == 0
    names = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "process").iterdir())
    for name in names:
        if name != "manifest.json":
            assert ((tmp_path / "process" / name).read_bytes()
                    == (tmp_path / "main" / name).read_bytes()), name


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_ingest_reads_a_fifo_once_and_records_no_digest_for_it(cohort_files, tmp_path):
    """A canonical series on a FIFO is read once: the process exits 0, the
    manifest records a null digest for the FIFO and the labels file's
    SHA-256, and every other artifact equals that of a run on a regular
    file with the same bytes."""
    _, labels = cohort_files
    series, fifo = tmp_path / "series.csv", tmp_path / "series.fifo"
    series.write_bytes(cohort_files[0].read_bytes().replace(b"\r\n", b"\n"))
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(series.read_bytes(),), daemon=True)
    writer.start()
    args = ["--labels", str(labels), "--nominal-interval", "15"]
    proc = _cli(["ingest", "--series", str(fifo), *args, "--out", str(tmp_path / "fifo")])
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads((tmp_path / "fifo" / "manifest.json").read_text())["inputs"] == {
        str(fifo): None, str(labels): hashlib.sha256(labels.read_bytes()).hexdigest()}
    assert main(["ingest", "--series", str(series), *args, "--out", str(tmp_path / "file")]) == 0
    names = sorted(p.name for p in (tmp_path / "file").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "fifo").iterdir())
    for name in names:
        if name != "manifest.json":
            assert ((tmp_path / "fifo" / name).read_bytes()
                    == (tmp_path / "file" / name).read_bytes()), name


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_ingest_fails_on_a_fifo_the_decoder_declines(cohort_files, tmp_path):
    """A CRLF series on a FIFO is declined by the column-wise decoder, which
    has consumed it: the process exits 2 within _python's timeout, with one
    error line naming the FIFO and no manifest, instead of opening it again."""
    series, labels = cohort_files
    assert b"\r\n" in series.read_bytes()
    fifo = tmp_path / "series.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(series.read_bytes(),), daemon=True)
    writer.start()
    out = tmp_path / "out"
    proc = _cli(["ingest", "--series", str(fifo), "--labels", str(labels),
                 "--nominal-interval", "15", "--out", str(out)])
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: {fifo}: a series on a pipe or FIFO must be in the "
                           "canonical form; any other form is read from a regular file\n")
    assert not (out / "manifest.json").exists()


def test_console_script_and_module_exit_through_run():
    """The `funcutpoint` console script and `python -m funcutpoint.cli`
    both end through cli.run."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(SRC).parent
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"funcutpoint": "funcutpoint.cli:run"}
    tree = ast.parse(Path(cli.__file__).read_text())
    main_block = [node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in main_block[0].body] == ["run()"]


def test_cli_process_exit_codes(tmp_path):
    """Exit codes 1 (computation error) and 2 (usage or file error) come
    through run() with one error line each."""
    curves, grid, labels = overflow_inputs(tmp_path, ["a,1e308,1.7e308", "b,1.7e308,1.7e308",
                                                      "c,1,2"])
    proc = _cli(["fit", "--curves", str(curves), "--grid", str(grid), "--labels", str(labels),
                 "--out", str(tmp_path / "fit")])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: curves file {curves}: values too large (overflow encountered in reduce)\n")
    missing = tmp_path / "missing.csv"
    proc = _cli(["indices", "--series", str(missing), "--out", str(tmp_path / "idx")])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: input file not found: {missing}\n"
    proc = _cli(["fit", "--out", str(tmp_path / "usage")])
    assert proc.returncode == 2
    assert "error: the following arguments are required: --labels" in proc.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_cli_process_fails_when_stdout_cannot_be_written(tmp_path):
    """A summary line that cannot be flushed is a file error: exit 2 with
    one error line, not a silent success."""
    with open("/dev/full", "w") as full:
        proc = _cli(SIMULATE + ["--out", str(tmp_path / "out")], stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: [Errno 28] ") and proc.stderr.count("\n") == 1


THREADS_PROBE = ("import os, funcutpoint.cli; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.parametrize("user_value", [None, "2"])
def test_cli_defaults_to_one_blas_thread(user_value):
    """Importing the CLI sets OPENBLAS_NUM_THREADS to 1 before numpy loads,
    so the process runs one thread; a value the user set is kept."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    proc = _python(["-c", THREADS_PROBE], env=env)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == (user_value or "1")
    if user_value is None:
        assert threads == "1"


def test_package_import_is_lazy():
    """`import funcutpoint` loads neither numpy nor any submodule; an
    exported name loads its submodule on first use."""
    proc = _python(["-c", "import sys, funcutpoint; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' "
                          "or m.startswith('funcutpoint.'))); "
                          "funcutpoint.optimize; print('funcutpoint.cutpoint' in sys.modules)"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\nTrue\n"
