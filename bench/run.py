"""Fresh-process CLI benchmark for funcutpoint.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from its src/.
Each workload's CLI chain runs the way a user runs it: one fresh
`python -m funcutpoint.cli` process per subcommand, one after another, a
closed loop with a single client. Passes of the chain repeat for S seconds.

--trace 0 prints the end-to-end metrics (medians over the passes).
--trace 1 prints the per-layer metrics. Each traced iteration runs one
untraced pass, the same chain again under bench/trace_child.py, which records
spans around the layers' functions, and the thread-count mirror of one step.

Every pass's outputs go through the workload's independent checks. The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
exit code is 1 when a step or a check failed, 2 when the benchmark could not
run at all (no src/funcutpoint in the checkout, say), in which case no
result is printed. A fuller record (env block, input shape, artifact
digests, per-pass values) goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Inputs, Step, Workload, artifact_digests, sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable
SETUP_REPEATS = 5
STARTUP_PROBES = 3
STEP_TIMEOUT_S = 170.0
PROBE = "import funcutpoint, funcutpoint.cli; print(funcutpoint.__file__)"

STEPS = ("ingest", "fit", "bootstrap", "bootstrap-scores", "classify", "indices", "roc",
         "simulate")

END_TO_END = {
    "setup_s": "s",
    "chain_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "key_step_items_per_s": "1/s",
}

PER_LAYER = {}
for _step in STEPS:
    PER_LAYER.update({f"cli.{_step}.s": "s", f"cli.{_step}.sys_s": "s",
                      f"cli.{_step}.minflt": "count", f"cli.{_step}.maxrss_mb": "MB",
                      f"cli.{_step}.unaccounted_s": "s"})
PER_LAYER.update({
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "ingest.parse_series.s": "s",
    "ingest.parse_series.rows_per_s": "rows/s",
    "ingest.filter_days.s": "s",
    "ingest.filter_days.calls": "count",
    "ingest.ingest_cohort.self_s": "s",
    "ingest.records_retained_frac": "ratio",
    "ingest.days_retained_frac": "ratio",
    "quantiles.empirical_quantile.s": "s",
    "quantiles.write_curves_csv.s": "s",
    "quantiles.read_curves_csv.s": "s",
    "quantiles.read_curves_csv.values_per_s": "values/s",
    "threshold.estimate_mu.s": "s",
    "threshold.margin_vector.s": "s",
    "threshold.classify.s": "s",
    "cutpoint.optimize.s": "s",
    "cutpoint.optimize.calls": "count",
    "cutpoint.optimize.us_per_call": "us",
    "cutpoint.optimize.us_p99": "us",
    "cutpoint.optimize.tail_pct": "%",
    "cutpoint.sweep_metrics.s": "s",
    "cutpoint.writers.s": "s",
    "monotone.monotone_smooth.s": "s",
    "bootstrap.bootstrap_cutpoint.self_s": "s",
    "bootstrap.bootstrap_cutpoint.ms_per_replicate": "ms",
    "bootstrap.bootstrap_scalar.self_s": "s",
    "bootstrap.bootstrap_scalar.ms_per_replicate": "ms",
    "bootstrap.redraws": "count",
    "bootstrap.draw_accept_frac": "ratio",
    "bootstrap.thread_speedup": "ratio",
    "bootstrap.writers.s": "s",
    "simulate.run_study.self_s": "s",
    "simulate.run_study.ms_per_replicate": "ms",
    "simulate.generate_arrays.s": "s",
    "simulate.regenerated": "count",
    "simulate.thread_speedup": "ratio",
    "simulate.writers.s": "s",
    "normal.tn_quantile.s": "s",
    "normal.tn_quantile.calls": "count",
    "indices.compute_indices.s": "s",
    "trace.overhead_s": "s",
    "ops_failed_frac": "ratio",
})

WRITERS = {
    "cutpoint.writers.s": ("cutpoint.write_result_json", "cutpoint.write_sweep_csv",
                           "cutpoint.write_roc_csv"),
    "bootstrap.writers.s": ("bootstrap.write_bootstrap_summary_json",
                            "bootstrap.write_curve_band_csv", "bootstrap.write_sweep_band_csv"),
    "simulate.writers.s": ("simulate.write_study_csv", "simulate.write_summary_csv"),
}
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    code: int
    wall: float
    utime: float
    stime: float
    minflt: int
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


ENV = child_env()


class Launcher:
    """The small process that starts every child and returns its rusage.

    os.wait4 gives the resource usage of exactly one child, so CPU time, page
    faults and max RSS are per step and come only from the benchmark's own
    children. See launcher.py for why the children are not started here.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([PY, str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=ENV, cwd=ROOT, text=True)

    def run(self, argv: list[str], log: Path) -> Proc:
        request = {"argv": argv, "stdout": str(log.with_suffix(".out")),
                   "stderr": str(log.with_suffix(".err")), "timeout": STEP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the launcher process ended")
        r = json.loads(reply)
        return Proc(r["code"], r["wall"], r["utime"], r["stime"], r["minflt"],
                    r["maxrss_kb"] / 1024.0)

    def close(self) -> None:
        """End of input stops an idle launcher; a busy one is terminated,
        which kills its child first."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


def probe_program(launcher: Launcher, log: Path) -> Proc:
    """Import the CLI in a fresh process; fail unless it is this checkout's."""
    proc = launcher.run([PY, "-c", PROBE], log)
    where = log.with_suffix(".out").read_text().strip()
    if proc.code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"cannot import funcutpoint from {SRC}")
    return proc


def setup(launcher: Launcher, workload: Workload, seed: int, in_dir: Path, logs: Path):
    """Check the program imports, then write the workload's inputs."""
    t0 = time.perf_counter()
    shutil.rmtree(in_dir, ignore_errors=True)
    in_dir.mkdir(parents=True)
    probe_program(launcher, logs / "probe")
    inputs = workload.generate(seed, in_dir)
    return inputs, time.perf_counter() - t0


@dataclass
class Pass:
    steps: dict[str, Proc]
    failures: list[str]

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.steps.values())


def run_chain(launcher: Launcher, steps: list[Step], out: Path, logs: Path,
              spans: Path | None = None) -> Pass:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    done: dict[str, Proc] = {}
    failures = []
    for step in steps:
        if spans is None:
            argv = [PY, "-m", "funcutpoint.cli", *step.argv]
        else:
            argv = [PY, str(BENCH / "trace_child.py"), str(spans / f"{step.name}.json"), "--",
                    *step.argv]
        proc = launcher.run(argv, logs / step.name)
        done[step.name] = proc
        if proc.code != 0:
            failures.append(f"step {step.name} exited {proc.code}")
            break
    return Pass(done, failures)


def checked(workload: Workload, p: Pass, out: Path, inputs: Inputs) -> Pass:
    """Run the workload's output checks on a pass whose steps all succeeded."""
    if not p.failures:
        try:
            p.failures.extend(workload.check(out, inputs))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            p.failures.append(f"check could not read the outputs: {exc!r}")
    return p


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# --------------------------------------------------------------- end to end

def end_to_end(launcher: Launcher, workload: Workload, seed: int, seconds: float, threads: int,
               run_dir: Path):
    in_dir, out = run_dir / "inputs", run_dir / "out"
    logs = run_dir / "logs"
    logs.mkdir(parents=True)
    setups = []
    input_digests = None
    for _ in range(SETUP_REPEATS):
        inputs, took = setup(launcher, workload, seed, in_dir, logs)
        setups.append(took)
        digests = {p.name: sha256(p) for p in sorted(in_dir.iterdir())}
        if input_digests is not None and digests != input_digests:
            raise BenchError("the input generator is not deterministic for this seed")
        input_digests = digests

    steps = workload.chain(in_dir, out, seed, threads)
    passes: list[Pass] = []
    stable = None
    started = time.perf_counter()
    while True:
        p = checked(workload, run_chain(launcher, steps, out, logs), out, inputs)
        artifacts = artifact_digests(out) if not p.failures else {}
        if artifacts:
            now = {k: artifacts.get(k) for k in workload.stable_artifacts}
            if stable is not None and now != stable:
                p.failures.append("stable artifacts differ between passes")
            stable = now
        passes.append(p)
        elapsed = time.perf_counter() - started
        if p.failures or elapsed + elapsed / len(passes) > seconds:
            break

    ok = [p for p in passes if not p.failures and len(p.steps) == len(steps)]
    items = workload.key_items(inputs)
    metrics = {
        "setup_s": median(setups),
        "chain_s": median([p.wall for p in ok]),
        "cpu_s": median([sum(s.utime + s.stime for s in p.steps.values()) for p in ok]),
        "peak_rss_mb": median([max(s.maxrss_mb for s in p.steps.values()) for p in ok]),
        "key_step_items_per_s": median([items / p.steps[workload.key_step].wall for p in ok]),
    }
    record = {
        "inputs": input_digests,
        "artifacts": artifacts,
        "shape": inputs.shape,
        "setups_s": setups,
        "passes": [{k: vars(v) for k, v in p.steps.items()} for p in passes],
    }
    return passes, metrics, record


# ---------------------------------------------------------------- per layer

class Spans:
    """Spans of one traced step, with self time per span."""

    def __init__(self, path: Path):
        payload = json.loads(path.read_text())
        self.unwrapped = payload["unwrapped"]
        self.rows = [{"id": r[0], "name": r[1], "parent": r[2], "start": r[3], "end": r[4],
                      "counts": r[6]} for r in payload["spans"]]
        children: dict[int, list] = {}
        for r in self.rows:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append(r)
        for r in self.rows:
            r["self"] = (r["end"] - r["start"]) - _covered(r, children.get(r["id"], []))

    def named(self, name: str) -> list[dict]:
        return [r for r in self.rows if r["name"] == name]


def _covered(span: dict, children: list[dict]) -> float:
    """Length of the union of the children's intervals inside the span.

    A union, not a sum, because children on worker threads overlap."""
    total, reach = 0.0, span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], reach), min(c["end"], span["end"])
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(inputs: Inputs, plain: Pass, traced: Pass, spans: dict[str, Spans],
                  startup: float, mirror, out: Path) -> dict:
    m = {name: 0.0 for name in PER_LAYER}
    rows = [r for s in spans.values() for r in s.rows]

    def busy(name):
        return sum(r["end"] - r["start"] for r in rows if r["name"] == name)

    def calls(name):
        return sum(1 for r in rows if r["name"] == name)

    def self_time(name):
        return sum(r["self"] for r in rows if r["name"] == name)

    for step, proc in traced.steps.items():
        main_span = spans[step].named("cli.main")
        main_dur = sum(r["end"] - r["start"] for r in main_span)
        m[f"cli.{step}.s"] = proc.wall
        m[f"cli.{step}.sys_s"] = proc.stime
        m[f"cli.{step}.minflt"] = proc.minflt
        m[f"cli.{step}.maxrss_mb"] = proc.maxrss_mb
        m[f"cli.{step}.unaccounted_s"] = proc.wall - startup - main_dur
    m["cli.startup_s"] = startup
    m["cli.main.self_s"] = self_time("cli.main")

    for name in ("ingest.parse_series", "ingest.filter_days", "quantiles.empirical_quantile",
                 "quantiles.write_curves_csv", "quantiles.read_curves_csv",
                 "threshold.estimate_mu", "threshold.margin_vector", "threshold.classify",
                 "cutpoint.optimize", "cutpoint.sweep_metrics", "monotone.monotone_smooth",
                 "simulate.generate_arrays", "normal.tn_quantile", "indices.compute_indices"):
        m[f"{name}.s"] = busy(name)
    for name, parts in WRITERS.items():
        m[name] = sum(busy(p) for p in parts)
    for name in ("ingest.filter_days", "cutpoint.optimize", "normal.tn_quantile"):
        m[f"{name}.calls"] = calls(name)
    for name in ("ingest.ingest_cohort", "bootstrap.bootstrap_cutpoint",
                 "bootstrap.bootstrap_scalar", "simulate.run_study"):
        m[f"{name}.self_s"] = self_time(name)

    if m["ingest.parse_series.s"] > 0:
        m["ingest.parse_series.rows_per_s"] = (calls("ingest.parse_series") * inputs.shape["rows"]
                                               / m["ingest.parse_series.s"])
    if m["quantiles.read_curves_csv.s"] > 0:
        m["quantiles.read_curves_csv.values_per_s"] = (
            calls("quantiles.read_curves_csv") * inputs.shape["curve_values"]
            / m["quantiles.read_curves_csv.s"])
    report = out / "ingest" / "report.json"
    if "ingest" in traced.steps and report.exists():
        rep = json.loads(report.read_text())
        totals = rep["totals"]
        m["ingest.records_retained_frac"] = totals["records_retained"] / totals["records_in"]
        kept = sum(s["retained_days"] for s in rep["subjects"].values())
        dropped = sum(s["dropped_days"] for s in rep["subjects"].values())
        m["ingest.days_retained_frac"] = kept / (kept + dropped)

    durations = sorted((r["end"] - r["start"]) * 1e6 for r in rows
                       if r["name"] == "cutpoint.optimize")
    if durations:
        m["cutpoint.optimize.us_per_call"] = float(np.median(durations))
        for pct in TAIL_PERCENTILES:
            if len(durations) * (100.0 - pct) / 100.0 >= MIN_BEYOND_TAIL or pct == 50.0:
                m["cutpoint.optimize.us_p99"] = float(np.percentile(durations, pct))
                m["cutpoint.optimize.tail_pct"] = pct
                break

    replicates, redraws = 0, 0
    for step, kind in (("bootstrap", "bootstrap_cutpoint"),
                       ("bootstrap-scores", "bootstrap_scalar")):
        summary = out / step / "bootstrap.json"
        if step in traced.steps and summary.exists():
            payload = json.loads(summary.read_text())
            replicates += payload["B"]
            redraws += payload["redraws"]
            m[f"bootstrap.{kind}.ms_per_replicate"] = (busy(f"bootstrap.{kind}") * 1e3
                                                       / payload["B"])
    m["bootstrap.redraws"] = redraws
    if replicates:
        m["bootstrap.draw_accept_frac"] = replicates / (replicates + redraws)

    studies = [r for r in rows if r["name"] == "simulate.run_study"]
    if studies:
        m["simulate.run_study.ms_per_replicate"] = (busy("simulate.run_study") * 1e3
                                                    / inputs.shape["replicates"])
        m["simulate.regenerated"] = sum((r["counts"] or {}).get("regenerated", 0)
                                        for r in studies)

    if mirror is not None:
        mirror_pass, mirror_is_single = mirror
        step, proc = next(iter(mirror_pass.steps.items()))
        chain_wall = plain.steps[step].wall
        layer = "simulate" if step == "simulate" else "bootstrap"
        m[f"{layer}.thread_speedup"] = (proc.wall / chain_wall if mirror_is_single
                                        else chain_wall / proc.wall)
    m["trace.overhead_s"] = traced.wall - plain.wall
    return m


def thread_mirror(launcher: Launcher, workload: Workload, in_dir: Path, out: Path, logs: Path,
                  seed: int, threads: int, plain_digests: dict[str, str]):
    """Run the workload's step at the other thread count, untraced.

    Returns (pass, True when the mirror runs at threads=1), or None when the
    workload has no mirror. The mirror must write its artifact byte for byte
    as the chain did."""
    baseline = workload.thread_baseline(in_dir, out, seed, threads)
    if baseline is None:
        return None
    step, artifact, mirror_is_single = baseline
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    proc = launcher.run([PY, "-m", "funcutpoint.cli", *step.argv], logs / "mirror")
    mirror = Pass({step.name: proc}, [])
    if proc.code != 0:
        mirror.failures.append(f"thread mirror of {step.name} exited {proc.code}")
    elif sha256(out / artifact) != plain_digests.get(artifact):
        mirror.failures.append(f"{artifact} depends on the thread count")
    return mirror, mirror_is_single


def per_layer(launcher: Launcher, workload: Workload, seed: int, seconds: float, threads: int,
              run_dir: Path):
    in_dir, logs, spans_dir = run_dir / "inputs", run_dir / "logs", run_dir / "spans"
    logs.mkdir(parents=True)
    inputs, _ = setup(launcher, workload, seed, in_dir, logs)

    def chain_pass(out: Path, spans: Path | None = None) -> Pass:
        steps = workload.chain(in_dir, out, seed, threads)
        return checked(workload, run_chain(launcher, steps, out, logs, spans), out, inputs)

    iterations, passes, unwrapped = [], [], set()
    started = time.perf_counter()
    while True:
        startup = median([probe_program(launcher, logs / f"startup{i}").wall
                          for i in range(STARTUP_PROBES)])
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
        plain = chain_pass(run_dir / "plain")
        traced = chain_pass(run_dir / "traced", spans_dir)
        passes += [plain, traced]
        mirror = None
        if not (plain.failures or traced.failures):
            plain_digests = artifact_digests(run_dir / "plain")
            if artifact_digests(run_dir / "traced") != plain_digests:
                traced.failures.append("traced outputs differ from untraced outputs")
            mirror = thread_mirror(launcher, workload, in_dir, run_dir / "mirror", logs, seed,
                                   threads, plain_digests)
            if mirror is not None:
                passes.append(mirror[0])
        if any(p.failures for p in passes):
            break
        spans = {step: Spans(spans_dir / f"{step}.json") for step in traced.steps}
        for s in spans.values():
            unwrapped.update(s.unwrapped)
        iterations.append(layer_metrics(inputs, plain, traced, spans, startup, mirror,
                                        run_dir / "traced"))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(iterations) > seconds:
            break

    metrics = {name: median([it[name] for it in iterations]) for name in PER_LAYER}
    record = {"shape": inputs.shape, "iterations": iterations, "unwrapped": sorted(unwrapped)}
    return passes, metrics, record


# ---------------------------------------------------------------------- main

def env_block(workload: str, seed: int, threads: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    threads = min(2, len(os.sched_getaffinity(0)))
    run_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    launcher = Launcher()
    try:
        measure = per_layer if args.trace else end_to_end
        passes, metrics, record = measure(launcher, workload, args.seed, args.seconds, threads,
                                          run_dir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.steps) for p in passes)
    failed = len(failures)
    if args.trace:
        metrics["ops_failed_frac"] = failed / attempted
    units = PER_LAYER if args.trace else END_TO_END
    env = env_block(workload.name, args.seed, threads)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "failures": failures, "result": result, **record},
                   indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for failure in failures:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
