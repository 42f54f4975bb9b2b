"""Run one ragharness command with the package's public functions traced.

Usage: python3 perfbench/tracer.py SPANS_JSON [ragharness arguments ...]

Every public function of each package module is wrapped in a span recorder,
and the wrapper replaces the function in every module namespace that binds
it (``cli`` binds ``pareto_front`` by name, ``report`` binds ``bootstrap_ci``
and ``token_f1``, and ``cli._COMMANDS`` holds the ``cmd_*`` functions);
patching only the defining module would silently drop those spans. A span is
``[name, start, end, parent, key]``: ``parent`` is the index of the enclosing
span or -1, and ``key`` is ``[seed, resamples, n]`` for the bootstrap
functions. Spans stay in memory until the command ends, then SPANS_JSON
receives ``{"exit": code, "spans": [...]}``. The process exits with the
command's exit code. ``ragharness`` must be importable (PYTHONPATH).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

MODULES = (
    "dataset", "ingest", "retrieval", "metrics", "stats", "pareto", "report",
    "lora_grid", "cli",
)
# Leaves called once per bootstrap replicate, per normalised answer or per
# dominance test. Their time stays inside the caller's span; wrapping them
# would cost more than the work they do and distort every parent span.
UNWRAPPED = {"stats.subseed", "metrics.normalize_answer", "pareto.dominates"}
BOOTSTRAP = {"stats.bootstrap_ci", "stats.paired_bootstrap_delta", "stats.pooled_pair_delta"}


def _resample_key(fn):
    """Key function giving [master seed, resamples, n] of a bootstrap call."""
    signature = inspect.signature(fn)

    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        if "values" in bound:
            data = bound["values"]
        elif "a" in bound:
            data = bound["a"]
        else:
            data = bound["pairs"][0][0]
        plan = bound["plan"]
        return [plan.master_seed, plan.n_resamples, len(data)]

    return key


class Recorder:
    """Collects spans in memory; one recorder per traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, key=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1,
                    key(args, kwargs) if key else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced


def install(recorder: Recorder) -> dict:
    """Wrap every public function of the package in every namespace binding it.

    Returns the patched modules by short name.
    """
    modules = {name: importlib.import_module(f"ragharness.{name}") for name in MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            qualname = f"{short}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and qualname not in UNWRAPPED
            ):
                key = _resample_key(obj) if qualname in BOOTSTRAP else None
                wrapped[obj] = recorder.wrap(qualname, obj, key)
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):
                for k, v in obj.items():
                    if inspect.isfunction(v) and v in wrapped:
                        obj[k] = wrapped[v]
    return modules


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    cli = install(recorder)["cli"]
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"exit": code, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
