"""Workloads of the CLI benchmark: input generators, CLI chains and output checks.

Every workload builds its inputs from the workload seed with numpy and the
standard library only, and every check is an independent oracle written with
plain numpy or loops. Nothing here imports funcutpoint: the program is only
ever run as a CLI in a child process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from statistics import NormalDist

import numpy as np


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_digests(out_root: Path) -> dict[str, str]:
    """SHA-256 of every artifact under out_root except manifest.json, whose
    wall time differs from run to run."""
    return {
        p.relative_to(out_root).as_posix(): sha256(p)
        for p in sorted(out_root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def exhaustive_youden(scores: np.ndarray, labels: np.ndarray):
    """Youden-optimal cut-point by scanning every distinct score plus a
    sentinel above the maximum; exact ties go to the smallest c."""
    candidates = np.append(np.unique(scores), scores.max() + 1.0)
    cases = scores[labels == 1]
    ctrls = scores[labels == 0]
    best = None
    for c in candidates:
        sens = int(np.count_nonzero(cases >= c)) / cases.size
        spec = int(np.count_nonzero(ctrls < c)) / ctrls.size
        youden = sens + spec - 1.0
        if best is None or youden > best[0]:
            best = (youden, float(c), sens, spec)
    return best[1], best[2], best[3]


def mann_whitney(scores: np.ndarray, labels: np.ndarray) -> float:
    """Concordance probability by counting every case-control pair."""
    cases = scores[labels == 1]
    ctrls = scores[labels == 0]
    gt = int((cases[:, None] > ctrls[None, :]).sum())
    eq = int((cases[:, None] == ctrls[None, :]).sum())
    return (gt + 0.5 * eq) / (cases.size * ctrls.size)


@dataclass
class Step:
    name: str
    argv: list[str]


@dataclass
class Inputs:
    """What a generator wrote, plus what the checks expect from it."""

    shape: dict
    expect: dict = field(default_factory=dict)


class Workload:
    name = ""
    key_step = ""
    # Artifacts that must be byte-identical across the passes of a run.
    stable_artifacts: tuple[str, ...] = ()

    def generate(self, seed: int, in_dir: Path) -> Inputs:
        raise NotImplementedError

    def chain(self, in_dir: Path, out: Path, seed: int, threads: int) -> list[Step]:
        raise NotImplementedError

    def key_items(self, inputs: Inputs) -> float:
        raise NotImplementedError

    def check(self, out: Path, inputs: Inputs) -> list[str]:
        raise NotImplementedError

    def thread_baseline(self, in_dir: Path, out: Path, seed: int, threads: int):
        """The chain step whose thread count can change, run at the other
        count: (Step named as the chain step, the artifact both must write
        identically, True when the mirror runs at threads=1), or None."""
        return None


# ---------------------------------------------------------------- cgm-cohort

CGM_SUBJECTS = 120
CGM_DAYS = 14
CGM_PER_DAY = 288
CGM_STEP_S = 300
CGM_GRID = 100  # the CLI's default grid size
CGM_JITTER_S = 20
CGM_START = int(datetime(2024, 3, 4, tzinfo=timezone.utc).timestamp())
CGM_EXCLUDED = 4
CGM_MISSING = 4
CGM_LONG_GAP_DAYS = 200
CGM_SHORT_GAP_DAYS = 150
CGM_CLAMP_FRAC = 0.002
CGM_DUP_FRAC = 0.003


class CgmCohort(Workload):
    """Raw CGM rows with every ingest defect, through the whole CLI chain."""

    name = "cgm-cohort"
    key_step = "ingest"

    def generate(self, seed: int, in_dir: Path) -> Inputs:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        n, days, per_day = CGM_SUBJECTS, CGM_DAYS, CGM_PER_DAY
        ids = [f"cgm{i:03d}" for i in range(1, n + 1)]
        labels = np.zeros(n, dtype=int)
        labels[rng.permutation(n)[: n // 2]] = 1

        # Day status: 0 complete, 1 short gaps (kept), 2 long gap (dropped).
        status = np.zeros((n, days), dtype=int)
        excluded = np.sort(rng.choice(n, size=CGM_EXCLUDED, replace=False))
        normal = np.setdiff1d(np.arange(n), excluded)
        flat = rng.choice(normal.size * days, CGM_LONG_GAP_DAYS + CGM_SHORT_GAP_DAYS,
                          replace=False)
        long_, short = flat[:CGM_LONG_GAP_DAYS], flat[CGM_LONG_GAP_DAYS:]
        status[normal[long_ // days], long_ % days] = 2
        status[normal[short // days], short % days] = 1
        for k, i in enumerate(excluded):
            status[i] = 2
            if k:  # one excluded subject keeps no day, the others keep one
                status[i, rng.integers(days)] = 0
        retained_days = (status != 2).sum(axis=1)
        if np.any(retained_days[normal] < 2):
            raise RuntimeError("cgm generator: a regular subject lost too many days")

        k = np.arange(days * per_day)
        day_of = k // per_day
        slot = k % per_day
        sid_parts, t_parts, g_parts = [], [], []
        for i in range(n):
            keep = np.ones(k.size, dtype=bool)
            for d in range(days):
                if status[i, d] == 0:
                    continue
                width = int(rng.integers(30, 73) if status[i, d] == 2 else rng.integers(2, 16))
                first = int(rng.integers(12, per_day - 12 - width))
                keep[d * per_day + first: d * per_day + first + width] = False
            jitter = rng.integers(-CGM_JITTER_S, CGM_JITTER_S + 1, size=k.size)
            t = CGM_START + day_of * 86400 + slot * CGM_STEP_S + jitter
            base = 115.0 + 35.0 * labels[i] + rng.normal(0.0, 12.0)
            amp = rng.uniform(15.0, 40.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            noise = np.convolve(rng.normal(0.0, 25.0, k.size + 11), np.ones(12) / 12.0,
                                mode="valid")
            g = base + amp * np.sin(2.0 * math.pi * slot / per_day + phase) + noise
            g = np.clip(np.rint(g), 45, 380).astype(np.int64)
            sid_parts.append(np.full(int(keep.sum()), i))
            t_parts.append(t[keep])
            g_parts.append(g[keep])
        sid = np.concatenate(sid_parts)
        t = np.concatenate(t_parts)
        g = np.concatenate(g_parts)

        n_clamp = int(round(CGM_CLAMP_FRAC * sid.size))
        at = rng.choice(sid.size, n_clamp, replace=False)
        low = rng.random(n_clamp) < 0.5
        g[at] = np.where(low, rng.integers(25, 40, n_clamp), rng.integers(401, 451, n_clamp))
        repeat = np.ones(sid.size, dtype=np.int64)
        repeat[rng.choice(sid.size, int(round(CGM_DUP_FRAC * sid.size)), replace=False)] = 2
        deduped = np.bincount(sid[repeat == 2], minlength=n)
        sid, t, g = np.repeat(sid, repeat), np.repeat(t, repeat), np.repeat(g, repeat)

        stamps = np.datetime_as_string(t.astype("datetime64[s]"), unit="s").tolist()
        names = [ids[s] for s in sid.tolist()]
        with open(in_dir / "series.csv", "w", newline="") as fh:
            fh.write("subject_id,timestamp,glucose\n")
            fh.writelines(f"{s},{ts}Z,{v}\n" for s, ts, v in zip(names, stamps, g.tolist()))

        missing = [f"cgm{i:03d}" for i in range(n + 1, n + 1 + CGM_MISSING)]
        with open(in_dir / "labels.csv", "w", newline="") as fh:
            fh.write("subject_id,label\n")
            for sid_name, lab in zip(ids + missing,
                                     labels.tolist() + rng.integers(0, 2, CGM_MISSING).tolist()):
                fh.write(f"{sid_name},{lab}\n")

        excluded_set = set(excluded.tolist())
        records_in = np.bincount(sid, minlength=n)
        clamped = np.bincount(sid, weights=(g < 40) | (g > 400), minlength=n)
        kept_subjects = n - CGM_EXCLUDED
        return Inputs(
            shape={"rows": int(sid.size), "subjects": n, "labelled": n + CGM_MISSING,
                   "kept_subjects": kept_subjects, "days": n * days,
                   "curve_values": kept_subjects * CGM_GRID},
            expect={
                "subjects": {
                    ids[i]: {
                        "records_in": int(records_in[i]),
                        "clamped": int(clamped[i]),
                        "deduped": int(deduped[i]),
                        "retained_days": int(retained_days[i]),
                        "excluded": i in excluded_set,
                    }
                    for i in range(n)
                },
                "missing": missing,
            },
        )

    def chain(self, in_dir: Path, out: Path, seed: int, threads: int) -> list[Step]:
        series, labels = str(in_dir / "series.csv"), str(in_dir / "labels.csv")
        curves, grid = str(out / "ingest" / "curves.csv"), str(out / "ingest" / "grid.json")
        functional = ["--curves", curves, "--grid", grid, "--labels", labels]
        return [
            Step("ingest", ["ingest", "--series", series, "--labels", labels,
                            "--out", str(out / "ingest")]),
            Step("fit", ["fit", *functional, "--mu-mode", "pointwise-median", "--smooth",
                         "--out", str(out / "fit")]),
            Step("bootstrap", ["bootstrap", *functional, "--mu-mode", "pointwise-median",
                               "--B", "200", "--seed", str(seed), "--out", str(out / "bootstrap")]),
            Step("classify", ["classify", "--cutoff", str(out / "fit" / "cutoff.json"),
                              "--curves", curves, "--grid", grid, "--labels", labels,
                              "--out", str(out / "classify")]),
            Step("indices", ["indices", "--series", series, "--out", str(out / "indices")]),
        ]

    def key_items(self, inputs: Inputs) -> float:
        return inputs.shape["rows"]

    def check(self, out: Path, inputs: Inputs) -> list[str]:
        failures = []
        report = _read_json(out / "ingest" / "report.json")
        expect = inputs.expect
        keys = ("records_dropped_day_filter", "records_dropped_exclusion", "records_retained")
        for sid, want in expect["subjects"].items():
            got = report["subjects"].get(sid)
            if got is None:
                failures.append(f"report.json: subject {sid} missing")
                continue
            for key, value in want.items():
                if got[key] != value:
                    failures.append(f"report.json: {sid} {key}={got[key]}, generator {value}")
            if got["records_in"] != got["deduped"] + sum(got[k] for k in keys):
                failures.append(f"report.json: {sid} does not conserve records")
        if sorted(report["subjects"]) != sorted(expect["subjects"]):
            failures.append("report.json: subject set differs from the generator's")
        if report["missing_subjects"] != expect["missing"]:
            failures.append("report.json: missing_subjects differ from the generator's")
        totals = report["totals"]
        if totals["records_in"] != inputs.shape["rows"]:
            failures.append(f"report.json: records_in {totals['records_in']} != "
                            f"{inputs.shape['rows']} rows written")
        if totals["records_in"] != totals["deduped"] + sum(totals[k] for k in keys):
            failures.append("report.json: totals do not conserve records")
        for key in ("deduped", "clamped"):
            want = sum(s[key] for s in expect["subjects"].values())
            if totals[key] != want:
                failures.append(f"report.json: total {key} {totals[key]}, generator {want}")

        kept = sorted(s for s, v in expect["subjects"].items() if not v["excluded"])
        curve_ids = [row[0] for row in _read_csv(out / "ingest" / "curves.csv")[1:]]
        if sorted(curve_ids) != kept:
            failures.append("curves.csv: subjects differ from the retained set")
        index_ids = [row[0] for row in _read_csv(out / "indices" / "indices.csv")[1:]]
        if sorted(index_ids) != kept:
            failures.append("indices.csv: subjects differ from the retained set")

        fit = _read_json(out / "fit" / "result.json")
        metrics = _read_json(out / "classify" / "metrics.json")
        for key in ("sensitivity", "specificity"):
            if metrics[key] != fit[key]:
                failures.append(f"classify {key} {metrics[key]} != fit {fit[key]}")
        if metrics["c_hat"] != fit["c_hat"]:
            failures.append("classify c_hat differs from fit c_hat")
        return failures


# ---------------------------------------------------------- bootstrap-cohort

BOOT_N = 1000
BOOT_M = 100
BOOT_A, BOOT_B, BOOT_V = 1.0, 1.0, 2.0
BOOT_B_FUNCTIONAL = 1000
BOOT_B_SCALAR = 2000


def _tn_quantile(grid: np.ndarray, mean=1.0, sd=1.0, lower=-5.0, upper=5.0) -> np.ndarray:
    nd = NormalDist()
    lo, hi = nd.cdf((lower - mean) / sd), nd.cdf((upper - mean) / sd)
    return np.array([mean + sd * nd.inv_cdf(lo + p * (hi - lo)) for p in grid.tolist()])


class BootstrapCohort(Workload):
    """Simulated curves and a tied scalar score: fit, both bootstraps, ROC."""

    name = "bootstrap-cohort"
    key_step = "bootstrap"
    stable_artifacts = ("bootstrap/bootstrap.json", "bootstrap-scores/bootstrap.json")

    def generate(self, seed: int, in_dir: Path) -> Inputs:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        grid = np.arange(1, BOOT_M + 1, dtype=float) / (BOOT_M + 1.0)
        draws = rng.random((BOOT_N, 4))
        z = (draws[:, 0] < 0.5).astype(int)
        u1, u2 = 2.0 * draws[:, 1] - 1.0, 2.0 * draws[:, 2] - 1.0
        u3 = 0.8 + 0.4 * draws[:, 3]
        coef = 5.0 + BOOT_B * z * u3
        matrix = (BOOT_A * z + u1 + u2 * BOOT_V)[:, None] + coef[:, None] * _tn_quantile(grid)[None, :]
        scores = np.round(matrix.mean(axis=1), 1)
        ids = [f"b{i:04d}" for i in range(1, BOOT_N + 1)]

        (in_dir / "grid.json").write_text(json.dumps({"m": BOOT_M, "points": grid.tolist()}))
        with open(in_dir / "curves.csv", "w", newline="") as fh:
            fh.write("subject_id," + ",".join(f"rho_{k}" for k in range(1, BOOT_M + 1)) + "\n")
            for sid, row in zip(ids, matrix.tolist()):
                fh.write(sid + "," + ",".join(map(repr, row)) + "\n")
        with open(in_dir / "labels.csv", "w", newline="") as fh:
            fh.write("subject_id,label\n")
            fh.writelines(f"{sid},{lab}\n" for sid, lab in zip(ids, z.tolist()))
        with open(in_dir / "scores.csv", "w", newline="") as fh:
            fh.write("subject_id,score\n")
            fh.writelines(f"{sid},{s!r}\n" for sid, s in zip(ids, scores.tolist()))
        return Inputs(
            shape={"subjects": BOOT_N, "grid": BOOT_M, "cases": int(z.sum()),
                   "curve_values": BOOT_N * BOOT_M,
                   "replicates": BOOT_B_FUNCTIONAL + BOOT_B_SCALAR},
            expect={"matrix": matrix, "labels": z, "scores": scores},
        )

    def _functional(self, in_dir: Path) -> list[str]:
        return ["--curves", str(in_dir / "curves.csv"), "--grid", str(in_dir / "grid.json"),
                "--labels", str(in_dir / "labels.csv")]

    def chain(self, in_dir: Path, out: Path, seed: int, threads: int) -> list[Step]:
        functional = self._functional(in_dir)
        one = ["--threads", "1", "--seed", str(seed)]
        return [
            Step("fit", ["fit", *functional, "--with-sigma", "--smooth", *one,
                         "--out", str(out / "fit")]),
            Step("bootstrap", ["bootstrap", *functional, "--with-sigma",
                               "--B", str(BOOT_B_FUNCTIONAL), *one,
                               "--out", str(out / "bootstrap")]),
            Step("bootstrap-scores", ["bootstrap", "--scores", str(in_dir / "scores.csv"),
                                      "--labels", str(in_dir / "labels.csv"),
                                      "--B", str(BOOT_B_SCALAR), *one,
                                      "--out", str(out / "bootstrap-scores")]),
            Step("roc", ["roc", *functional, "--with-sigma", *one, "--out", str(out / "roc")]),
        ]

    def key_items(self, inputs: Inputs) -> float:
        return BOOT_B_FUNCTIONAL

    def thread_baseline(self, in_dir: Path, out: Path, seed: int, threads: int):
        step = Step("bootstrap", ["bootstrap", *self._functional(in_dir), "--with-sigma",
                                  "--B", str(BOOT_B_FUNCTIONAL), "--threads", str(threads),
                                  "--seed", str(seed), "--out", str(out / "bootstrap")])
        return step, "bootstrap/bootstrap.json", False

    def check(self, out: Path, inputs: Inputs) -> list[str]:
        failures = []
        labels = inputs.expect["labels"]
        cutoff = _read_json(out / "fit" / "cutoff.json")
        mu, sigma = np.array(cutoff["mu"]), np.array(cutoff["sigma"])
        margins = np.min((inputs.expect["matrix"] - mu) / sigma, axis=1)
        fit = _read_json(out / "fit" / "result.json")
        c_hat, sens, spec = exhaustive_youden(margins, labels)
        if not (_close(fit["c_hat"], c_hat) and _close(fit["sensitivity"], sens)
                and _close(fit["specificity"], spec)):
            failures.append(f"fit (c_hat, sens, spec) ({fit['c_hat']}, {fit['sensitivity']}, "
                            f"{fit['specificity']}) != exhaustive search ({c_hat}, {sens}, {spec})")
        if fit["c_hat"] != cutoff["c_hat"]:
            failures.append("cutoff.json c_hat differs from result.json")
        auc = mann_whitney(margins, labels)
        roc_auc = _read_json(out / "roc" / "auc.json")["auc"]
        for where, got in (("roc auc.json", roc_auc), ("fit result.json", fit["auc"])):
            if not _close(got, auc, 1e-9):
                failures.append(f"{where} AUC {got} != Mann-Whitney {auc}")
        scalar = _read_json(out / "bootstrap-scores" / "bootstrap.json")
        c_scalar, _, _ = exhaustive_youden(inputs.expect["scores"], labels)
        if not _close(scalar["c_hat"], c_scalar):
            failures.append(f"scalar bootstrap c_hat {scalar['c_hat']} != exhaustive {c_scalar}")
        boot = _read_json(out / "bootstrap" / "bootstrap.json")
        if boot["c_hat"] != fit["c_hat"]:
            failures.append("functional bootstrap point c_hat differs from fit")
        for name, payload, b in (("bootstrap", boot, BOOT_B_FUNCTIONAL),
                                 ("bootstrap-scores", scalar, BOOT_B_SCALAR)):
            lo, hi = payload["ci"]
            if payload["B"] != b or not lo <= hi:
                failures.append(f"{name}/bootstrap.json: B or interval malformed")
        return failures


# ------------------------------------------------------------ simulate-study

SIM_A = (0.0, 2.0)
SIM_B = (0.0, 2.0)
SIM_N = (100, 1000)
SIM_R = 200
SIM_CRITERIA = 3


class SimulateStudy(Workload):
    """The replicate study: no file input, many small optimize calls."""

    name = "simulate-study"
    key_step = "simulate"
    stable_artifacts = ("simulate/study.csv", "simulate/study_summary.csv")

    def generate(self, seed: int, in_dir: Path) -> Inputs:
        cells = len(SIM_A) * len(SIM_B) * len(SIM_N)
        return Inputs(shape={"cells": cells, "R": SIM_R, "replicates": cells * SIM_R,
                             "curve_values": 0})

    def _argv(self, out: Path, seed: int, threads: int) -> list[str]:
        return ["simulate", "--a", ",".join(map(repr, SIM_A)), "--b", ",".join(map(repr, SIM_B)),
                "--n", ",".join(map(str, SIM_N)), "--R", str(SIM_R), "--seed", str(seed),
                "--threads", str(threads), "--out", str(out / "simulate")]

    def chain(self, in_dir: Path, out: Path, seed: int, threads: int) -> list[Step]:
        # One thread: on a few shared cores a pool's wall time follows the
        # neighbours' load more than the program. The mirror runs the pool.
        return [Step("simulate", self._argv(out, seed, 1))]

    def key_items(self, inputs: Inputs) -> float:
        return inputs.shape["replicates"]

    def thread_baseline(self, in_dir: Path, out: Path, seed: int, threads: int):
        return Step("simulate", self._argv(out, seed, threads)), "simulate/study.csv", False

    def check(self, out: Path, inputs: Inputs) -> list[str]:
        failures = []
        rows = _read_csv(out / "simulate" / "study.csv")
        header, body = rows[0], rows[1:]
        if header != ["a", "b", "n", "criterion", "replicate", "sensitivity", "specificity"]:
            return ["study.csv: unexpected header"]
        want = inputs.shape["replicates"] * SIM_CRITERIA
        if len(body) != want:
            failures.append(f"study.csv: {len(body)} rows, expected {want}")
        keys = {(r[0], r[1], r[2], r[3], r[4]) for r in body}
        if len(keys) != len(body):
            failures.append("study.csv: repeated (cell, criterion, replicate) rows")
        rates = np.array([[float(r[5]), float(r[6])] for r in body])
        if rates.size and not np.all((rates >= 0.0) & (rates <= 1.0)):
            failures.append("study.csv: a sensitivity or specificity lies outside [0, 1]")
        return failures


WORKLOADS = {w.name: w for w in (CgmCohort(), BootstrapCohort(), SimulateStudy())}
