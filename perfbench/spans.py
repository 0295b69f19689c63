"""Call counting and span tracing around the public functions of `snipe`.

The tracer replaces each listed function with a wrapper in every `snipe`
module that holds a reference to it, so calls made between modules (for
example `harness` calling `evaluate`) pass through the wrapper too. The
originals are put back on exit.

Every wrapped call is counted under (name, caller span name); the counts
feed the coverage guard. With `timed_all` every call also records a span
(name, start, end, parent id, replication id); without it only the
once-per-graph set-up calls are timed, so the end-to-end figures stay free
of tracing cost. Estimator calls are also checked: one that returns a
non-finite value or raises anything but `UndefinedEstimateError` counts as
a failed operation.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from snipe.baselines import UndefinedEstimateError

# wrapped functions, named `<module>.<function>` after their `snipe` module
TRACED = [
    "graph.gen_erdos_renyi",
    "outcomes.gen_experiment_model",
    "outcomes.ground_truth",
    "outcomes.evaluate",
    "design.sample",
    "estimators.snipe_tte",
    "estimators.snipe_tte_uniform",
    "estimators.snipe_ate",
    "estimators.snipe_cate",
    "estimators.snipe_te_alpha",
    "estimators.snipe_weights",
    "baselines.ht_tte",
    "baselines.dm_tte",
    "baselines.dm_thresh_tte",
    "baselines.ls_fit",
    "baselines.ls_tte",
    "variance.conservative_variance",
    "variance.worst_case_variance_bound",
    "oracle.exact_moments",
    "harness.substream",
    "harness.run_experiment",
    "harness.run_variance_report",
]

# once-per-graph calls whose time makes up `setup_s`
SETUP = (
    "graph.gen_erdos_renyi",
    "outcomes.gen_experiment_model",
    "outcomes.ground_truth",
    "variance.worst_case_variance_bound",
)

# calls whose return value is an estimate the user reads
ESTIMATES = frozenset(
    [
        "estimators.snipe_tte",
        "estimators.snipe_tte_uniform",
        "estimators.snipe_ate",
        "estimators.snipe_cate",
        "estimators.snipe_te_alpha",
        "baselines.ht_tte",
        "baselines.dm_tte",
        "baselines.dm_thresh_tte",
        "baselines.ls_tte",
        "variance.conservative_variance",
    ]
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rep: int | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps the `TRACED` functions while active."""

    def __init__(self, timed_all: bool):
        self.timed_all = timed_all
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._rep_counter = 0
        self.rep: int | None = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.ops = 0
        self.failed_ops = 0
        self.undefined: Counter = Counter()  # UndefinedEstimateError raises per span
        self.errors: list[str] = []

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sorted(sys.modules.items()) if k == "snipe" or k.startswith("snipe.")]
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"snipe.{mod_name}"), fn_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        timed = self.timed_all or name in SETUP
        checks_estimate = name in ESTIMATES
        substream = name == "harness.substream"
        entry = name.startswith("harness.run_")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent_id, parent_name = stack[-1] if stack else (None, None)
            tracer.counts[(name, parent_name)] += 1
            if substream:
                # the harness keys replication `rep` of a graph as 2 + rep;
                # keys 0 and 1 seed the graph and the model
                if int(args[-1]) >= 2:
                    tracer._rep_counter += 1
                    tracer.rep = tracer._rep_counter
                else:
                    tracer.rep = None
            sid = tracer._next_id
            tracer._next_id += 1
            stack.append((sid, name))
            rep = tracer.rep
            start = perf_counter() if timed else 0.0
            try:
                out = fn(*args, **kwargs)
            except UndefinedEstimateError:
                if checks_estimate:
                    tracer.ops += 1
                    tracer.undefined[name] += 1
                raise
            except Exception as exc:
                if checks_estimate:
                    tracer.ops += 1
                    tracer.failed_ops += 1
                    tracer.errors.append(f"{name} raised {exc!r}")
                raise
            finally:
                stack.pop()
                if entry:
                    tracer.rep = None
                if timed:
                    tracer.spans.append(Span(sid, name, start, perf_counter(), parent_id, rep))
            if checks_estimate:
                tracer.ops += 1
                if not np.all(np.isfinite(out)):
                    tracer.failed_ops += 1
                    tracer.errors.append(f"{name} returned a non-finite value")
            return out

        return wrapper

    def seconds(self, names) -> float:
        """Total time of the recorded spans called any of `names`."""
        return sum(s.dur for s in self.spans if s.name in names)


def guard(counts: Counter, expected: dict, allowed: frozenset) -> list[str]:
    """Coverage guard: every (span, caller) pair in `expected` must have
    exactly that many calls, and no other pair may occur unless `allowed`.
    Returns one message per violation."""
    problems = []
    for key, want in sorted(expected.items(), key=str):
        got = counts.get(key, 0)
        if got != want:
            problems.append(f"span {key[0]} under {key[1]}: {got} calls, expected {want}")
    for key, got in sorted(counts.items(), key=str):
        if key not in expected and key not in allowed:
            problems.append(f"span {key[0]} under {key[1]}: {got} unexpected calls")
    return problems


def self_seconds(spans: list[Span], name: str) -> float:
    """Duration of the `name` spans minus the time their child spans cover."""
    child = Counter()
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    return sum(s.dur - child[s.sid] for s in spans if s.name == name)
