"""Run one funcutpoint CLI command with spans around its layer calls.

    python bench/trace_child.py SPANS_JSON -- CLI_ARGS...

The program is not changed: this driver replaces each traced function under
the names the CLI and the modules look it up by with a wrapper that records
a span, then calls funcutpoint.cli.main(CLI_ARGS). Spans are kept in memory
and written to SPANS_JSON when main returns. The exit code is main's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (module that defines the function, function, modules that look it up by name)
WRAPS = [
    ("ingest", "ingest_cohort", ["cli"]),
    ("ingest", "parse_series", ["ingest"]),
    ("ingest", "parse_labels", ["cli", "ingest"]),
    ("ingest", "filter_days", ["ingest"]),
    ("ingest", "write_report_json", ["cli"]),
    ("quantiles", "empirical_quantile", ["cli"]),
    ("quantiles", "write_curves_csv", ["cli"]),
    ("quantiles", "write_grid_json", ["cli"]),
    ("quantiles", "read_curves_csv", ["cli"]),
    ("quantiles", "read_grid_json", ["cli"]),
    ("threshold", "estimate_mu", ["cli", "bootstrap"]),
    ("threshold", "margin_vector", ["cli", "bootstrap"]),
    ("threshold", "classify", ["cli"]),
    ("threshold", "read_cutoff_json", ["cli"]),
    ("threshold", "write_cutoff_json", ["cli"]),
    ("cutpoint", "validate_sample", ["cli", "bootstrap"]),
    ("cutpoint", "optimize", ["cli", "bootstrap", "simulate"]),
    ("cutpoint", "sweep_metrics", ["bootstrap"]),
    ("cutpoint", "confusion_at", ["cli"]),
    ("cutpoint", "roc_points", ["cli"]),
    ("cutpoint", "auc", ["cli"]),
    ("cutpoint", "write_result_json", ["cli"]),
    ("cutpoint", "write_sweep_csv", ["cli"]),
    ("cutpoint", "write_roc_csv", ["cli"]),
    ("monotone", "monotone_smooth", ["cli"]),
    ("monotone", "write_curve_values_csv", ["cli"]),
    ("bootstrap", "bootstrap_cutpoint", ["cli"]),
    ("bootstrap", "bootstrap_scalar", ["cli"]),
    ("bootstrap", "write_bootstrap_summary_json", ["cli"]),
    ("bootstrap", "write_curve_band_csv", ["cli"]),
    ("bootstrap", "write_sweep_band_csv", ["cli"]),
    ("simulate", "run_study", ["cli"]),
    ("simulate", "generate_arrays", ["simulate"]),
    ("simulate", "summarize_study", ["cli"]),
    ("simulate", "write_study_csv", ["cli"]),
    ("simulate", "write_summary_csv", ["cli"]),
    ("normal", "tn_quantile", ["simulate"]),
    ("indices", "compute_indices", ["cli"]),
    ("indices", "write_indices_csv", ["cli"]),
]


def _run_study_counts(result) -> dict:
    return {"regenerated": int(result[1]["regenerated"])}


COUNTS = {"simulate.run_study": _run_study_counts}


class Recorder:
    """Spans as [name, parent id, start, end, thread id, counts], keyed by id.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the main thread as parent: the pools in the
    program are entered from the main thread, which waits inside that span.
    """

    def __init__(self) -> None:
        self.spans: dict[int, list] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counts_of = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            span = [name, parent, time.perf_counter(), None, threading.get_ident(), None]
            self.spans[span_id] = span
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counts_of is not None:
                span[5] = counts_of(result)
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every function in WRAPS; returns the lookups that do not exist."""
    missing = []
    for module, func, lookups in WRAPS:
        target = importlib.import_module(f"funcutpoint.{module}")
        original = getattr(target, func, None)
        if original is None:
            missing.append(f"funcutpoint.{module}.{func}")
            continue
        wrapper = recorder.wrap(f"{module}.{func}", original)
        for lookup in lookups:
            where = importlib.import_module(f"funcutpoint.{lookup}")
            if getattr(where, func, None) is original:
                setattr(where, func, wrapper)
            else:
                missing.append(f"funcutpoint.{lookup}.{func}")
    return missing


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: trace_child.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    import funcutpoint.cli

    recorder = Recorder()
    missing = install(recorder)
    code = recorder.wrap("cli.main", funcutpoint.cli.main)(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": [[i, *s] for i, s in sorted(recorder.spans.items())],
                   "unwrapped": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
