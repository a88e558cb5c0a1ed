"""Span tracer that wraps the package's public functions from outside.

The tracer replaces each target function in every ``alphapath`` module
namespace that holds it, so calls between modules go through the wrapper
too; ``uninstall`` puts the originals back. A span records its name, start,
end, parent span and operation id (one operation is one CLI call). Spans
stay in memory until the benchmark dumps them at exit.

Targets are ``cli.main``, ``config.load_config``, ``expr.compile_evaluator``
and every function in ``alphapath.__all__``. A target the package no longer
has is absent: its metrics are reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "alphapath"
EXTRA_TARGETS = ("cli.main", "config.load_config", "expr.compile_evaluator")

# called once per integration step: counted only, because a span per call
# would dominate both the memory and the overhead of the traced run
COUNT_ONLY = frozenset({"solver.rk4_step"})


def _row_steps(result) -> int:
    return sum(len(p.times) - 1 for p in result.paths)


# units of work a call did, read from its result
WORK = {
    "solver.solve_fan": _row_steps,
    "solver.solve_alpha_path": lambda r: len(r.times) - 1,
    "solver.solve_sample_path": lambda r: len(r.times) - 1,
    "analysis.check_condition_h": lambda r: r.sampled_points,
    "oracle.dominance_check": lambda r: r.paths_tested,
}

GATE = frozenset(
    {
        "analysis.check_hypotheses",
        "analysis.check_regularity",
        "analysis.check_condition_h",
    }
)

# per-layer metric -> (kind, span name); every value is per round, i.e. per
# pass through the workload's four commands
LAYER_METRICS = {
    "config.load_s": ("time", "config.load_config"),
    "expr.compile_calls": ("calls", "expr.compile_evaluator"),
    "expr.compile_s": ("time", "expr.compile_evaluator"),
    "solver.solve_fan_calls": ("calls", "solver.solve_fan"),
    "solver.solve_fan_s": ("time", "solver.solve_fan"),
    "solver.fan_row_steps_per_s": ("rate", "solver.solve_fan"),
    "solver.solve_alpha_path_calls": ("calls", "solver.solve_alpha_path"),
    "solver.sample_path_calls": ("calls", "solver.solve_sample_path"),
    "solver.sample_path_s": ("time", "solver.solve_sample_path"),
    "solver.sample_row_steps_per_s": ("rate", "solver.solve_sample_path"),
    "solver.rk4_step_calls": ("count", "solver.rk4_step"),
    "analysis.regularity_s": ("time", "analysis.check_regularity"),
    "analysis.condition_h_s": ("time", "analysis.check_condition_h"),
    "analysis.condition_h_points": ("work", "analysis.check_condition_h"),
    "analysis.monotone_s": ("time", "analysis.check_monotone"),
    "analysis.inverse_distribution_s": ("time", "analysis.inverse_distribution"),
    "analysis.expected_value_s": ("time", "analysis.expected_value"),
    "oracle.dominance_check_s": ("time", "oracle.dominance_check"),
    "oracle.gate_s": ("gate", "analysis.check_hypotheses"),
    "oracle.paths_per_s": ("rate", "oracle.dominance_check"),
    "cli.self_s": ("self", "cli.main"),
    "cli.solve.self_s": ("self:solve", "cli.main"),
    "cli.check.self_s": ("self:check", "cli.main"),
    "cli.dist.self_s": ("self:dist", "cli.main"),
    "cli.oracle.self_s": ("self:oracle", "cli.main"),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int
    work: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def discover_targets() -> dict[str, object]:
    """Map span name (module.function, without the package prefix) to the
    original function, for every target the package still defines."""
    package = importlib.import_module(PACKAGE)
    found: dict[str, object] = {}
    for qualified in EXTRA_TARGETS:
        module_name, _, attr = qualified.rpartition(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            continue
        fn = getattr(module, attr, None)
        if inspect.isfunction(fn):
            found[qualified] = fn
    for attr in getattr(package, "__all__", ()):
        fn = getattr(package, attr, None)
        if inspect.isfunction(fn):
            module = fn.__module__.removeprefix(PACKAGE + ".")
            found[f"{module}.{fn.__name__}"] = fn
    return found


class Tracer:
    def __init__(self) -> None:
        self.targets = discover_targets()
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()  # (op, name) -> calls, COUNT_ONLY targets
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {
            id(fn): (fn, self._wrap(name, fn)) for name, fn in self.targets.items()
        }

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[(self.op, name)] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, work_of = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if work_of is not None:
                try:
                    spans[index].work = int(work_of(result))
                except (AttributeError, TypeError):
                    pass  # the result no longer carries the field: rate absent
            return result

        return traced

    def install(self) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                out.write(
                    json.dumps([s.name, s.start, s.end, s.parent, s.op, s.work]) + "\n"
                )
            for (op, name), calls in sorted(self.counts.items()):
                out.write(json.dumps({"op": op, "name": name, "calls": calls}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(tracer: Tracer, rounds: list[list[tuple[int, str]]], scale: dict[int, float]):
    """Median over traced rounds of every per-layer metric.

    ``rounds`` lists, per traced round, the (op id, command) of each call;
    ``scale`` maps an op id to its nominal/wall ratio, which converts span
    times to the nominal seconds of the end-to-end metrics. Returns
    (values, absent): absent names the metrics whose function the package
    no longer has; their value is reported as 0.
    """
    spans = tracer.spans  # complete: no call is in flight here
    seconds = [s.duration * scale[s.op] for s in spans]
    own = [o * scale[s.op] for o, s in zip(self_times(spans), spans)]
    command_of = {op: cmd for r in rounds for op, cmd in r}
    per_round: dict[str, list[float]] = {m: [] for m in LAYER_METRICS}
    by_op: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_op.setdefault(s.op, []).append(i)

    for r in rounds:
        idx = [i for op, _ in r for i in by_op.get(op, ())]
        for metric, (kind, name) in LAYER_METRICS.items():
            mine = [i for i in idx if spans[i].name == name]
            if kind == "calls":
                value = len(mine)
            elif kind == "count":
                value = sum(tracer.counts[(op, name)] for op, _ in r)
            elif kind == "time":
                value = sum(seconds[i] for i in mine)
            elif kind == "work":
                value = sum(spans[i].work or 0 for i in mine)
            elif kind == "rate":
                busy = sum(seconds[i] for i in mine)
                done = sum(spans[i].work or 0 for i in mine)
                value = done / busy if busy > 0 else 0.0
            elif kind == "gate":
                value = sum(
                    seconds[i]
                    for i in idx
                    if command_of[spans[i].op] == "oracle"
                    and spans[i].name in GATE
                    and not (
                        spans[i].parent >= 0
                        and spans[spans[i].parent].name in GATE
                    )
                )
            else:  # self time of cli.main, all commands or one
                command = kind.partition(":")[2]
                value = sum(
                    own[i]
                    for i in mine
                    if not command or command_of[spans[i].op] == command
                )
            per_round[metric].append(value)
    values = {m: float(statistics.median(v)) for m, v in per_round.items()}
    absent = sorted(
        m for m, (_, name) in LAYER_METRICS.items() if name not in tracer.targets
    )
    for m in absent:
        values[m] = 0.0
    return values, absent
