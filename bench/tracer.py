"""Timing wrappers installed over spcluster's module attributes.

The program's callers look functions up as module attributes
(``clustering.run_trials``, ``hopfield.converge_many``, ...), so replacing
those attributes from outside ``src/`` puts a span around every call
without editing the program.  A span records its duration and the part of
it covered by child spans, which gives each function's self time.  Traced
runs use one worker, so every span is recorded in this process.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# module -> public functions wrapped with a span
WRAPPED = {
    "spcluster.spchart": ("parse_chart", "take_rows", "classify_type", "average_caution"),
    "spcluster.hopfield": ("hebbian_learn", "bipolar_from_binary", "check_weights", "converge_many"),
    "spcluster.clustering": (
        "run_trials",
        "trial_seed",
        "select_representatives",
        "rnn_cluster",
        "f1",
        "f2",
    ),
    "spcluster.report": ("build_cluster_report", "report_json"),
    "spcluster.cli": ("main",),
}
REPORT_HELPERS = {"spchart.take_rows", "spchart.classify_type", "spchart.average_caution"}
REPORT_ROOT = "report.build_cluster_report"


def short_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _row_keys(states: np.ndarray) -> np.ndarray:
    """One integer key per row of a +-1 matrix (rows equal iff keys equal)."""
    bits = (np.asarray(states) > 0).astype(np.int64)
    if bits.shape[1] <= 62:
        return bits @ (np.int64(1) << np.arange(bits.shape[1], dtype=np.int64))
    return np.unique(bits, axis=0, return_inverse=True)[1].ravel()


class Tracer:
    """Per-process span aggregates: calls, total and self seconds by name,
    counters measured from call arguments and results, and the duration of
    every trial (``trial_seed`` entry to ``f2`` exit)."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.trial_ms: list[float] = []
        self._trial_start: float | None = None

    def span(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "clustering.trial_seed":
                self._trial_start = time.perf_counter()
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self._close(name, end - start, frame[1])
            if after is not None:
                # bookkeeping is charged to nobody: add it to the parent's
                # child time so that parent self times exclude it
                t = time.perf_counter()
                after(self, args, result)
                if self.stack:
                    self.stack[-1][1] += time.perf_counter() - t
            if name == "clustering.f2" and self._trial_start is not None:
                self.trial_ms.append((end - self._trial_start) * 1e3)
                self._trial_start = None
            return result

        return wrapper

    def _close(self, name: str, duration: float, child: float) -> None:
        self.calls[name] += 1
        self.total[name] += duration
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][1] += duration
        if name in REPORT_HELPERS and any(f[0] == REPORT_ROOT for f in self.stack):
            self.counters["report_helpers_s"] += duration

    def snapshot(self) -> dict:
        return {
            "spans": {k: [self.calls[k], self.total[k], self.self_s[k]] for k in self.calls},
            "counters": dict(self.counters),
            "trial_ms": list(self.trial_ms),
        }


def _after_parse(tracer: Tracer, args, result) -> None:
    data = args[0]
    tracer.counters["parse_bytes"] += len(data if isinstance(data, bytes) else data.encode())


def _after_converge(tracer: Tracer, args, result) -> None:
    states = np.asarray(args[0])
    _, sweeps, _ = result
    rows, n = states.shape
    done = int(np.asarray(sweeps).sum())
    tracer.counters["converge_rows"] += rows
    tracer.counters["converge_sweeps"] += done
    tracer.counters["field_evals"] += done * n
    tracer.counters["madds"] += done * n * n
    tracer.counters["dup_rows"] += rows - np.unique(_row_keys(states)).size


def _after_report_json(tracer: Tracer, args, result) -> None:
    tracer.counters["report_bytes"] += len(result.encode())


_AFTER = {
    "spchart.parse_chart": _after_parse,
    "hopfield.converge_many": _after_converge,
    "report.report_json": _after_report_json,
}


def targets() -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every attribute ``installed`` replaces."""
    out = []
    for module_name, attrs in WRAPPED.items():
        module = importlib.import_module(module_name)
        out.extend((module, a, short_name(module_name, a)) for a in attrs)
    return out


@contextmanager
def installed(tracer: Tracer):
    """Replace every target attribute with a wrapper; restore them on exit."""
    replaced = []
    try:
        for module, attr, name in targets():
            original = getattr(module, attr)
            replaced.append((module, attr, original))
            setattr(module, attr, tracer.span(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)
