"""Shared spec builders for the test suite.

The two workhorse problems: a driver-only polynomial case with known
closed-form paths, and a nonlinear case whose drift/diffusion satisfy the
positivity and position-monotonicity hypotheses everywhere.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time

import numpy as np
import pytest

from alphapath import AlphaGridSpec, RegularityCheck, UdeSpec, alpha_grid, solve_fan
from alphapath import engine, render, solver
from alphapath.analysis import TOL_CONDITION_H
from alphapath.expr import _emit, _exec, evaluate, state_variables


# the seconds of each gcc run of ``engine._build`` in the pytest process,
# and the builds the session's memo answered instead; both are reported in
# the terminal summary. The CLI tests that run a subprocess build in it,
# unseen here
BUILD_SECONDS: list[float] = []
# each library built in the session by (compiler, args, source): a C text
# is built once and every later build of it returns the loaded library. A
# failed build is never kept. A test marked ``fresh_builds`` runs every
# build it makes
BUILT: dict[tuple, object] = {}
MEMO = {"on": True, "hits": 0}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "fresh_builds: every engine._build runs the compiler (the test patches "
        "the build or asserts on its files, count or time)",
    )


def pytest_sessionstart(session):
    build = engine._build

    @functools.wraps(build)
    def memoised(source, args, signatures):
        key = (engine.COMPILER, tuple(args), source)
        library = BUILT.get(key) if MEMO["on"] else None
        if library is None:
            start = time.perf_counter()
            try:
                library = build(source, args, signatures)
            finally:
                BUILD_SECONDS.append(time.perf_counter() - start)
            if library is not None and MEMO["on"]:
                BUILT[key] = library
            return library
        MEMO["hits"] += 1
        try:  # the caller's signatures, as a build applies them
            for name, types in signatures.items():
                function = getattr(library, name)
                function.argtypes, function.restype = types
        except AttributeError:
            return None
        return library

    engine._build = memoised


@pytest.fixture(autouse=True)
def _build_memo(request):
    """The session's build memo, off for a test marked ``fresh_builds``."""
    MEMO["on"] = request.node.get_closest_marker("fresh_builds") is None
    yield
    MEMO["on"] = True


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"gcc builds in the pytest process: {len(BUILD_SECONDS)} calls, "
        f"{sum(BUILD_SECONDS):.1f} s, {MEMO['hits']} memo hits (builds in "
        "CLI-subprocess tests not counted)"
    )


def polynomial_spec(order: int, initial=None, horizon=1.0, step=1e-3) -> UdeSpec:
    """x^(n) driven purely by the constant driver: f = 0, g = 1."""
    if initial is None:
        initial = [0.0] * order
    return UdeSpec.from_strings(order, "0", "1", initial, horizon, step)


def tanh_spec(order: int, initial=None, horizon=1.0, step=1e-3) -> UdeSpec:
    """Nonlinear case with f = x0 and g = 2 + tanh(x0) (both hypotheses hold)."""
    if initial is None:
        initial = [0.1] + [0.0] * (order - 1)
    return UdeSpec.from_strings(order, "x0", "2+tanh(x0)", initial, horizon, step)


def one_step_spec(order: int, f: str, g: str, initial, h: float) -> UdeSpec:
    """Spec whose grid is a single step of size h: solving it takes one RK4 step."""
    return UdeSpec.from_strings(order, f, g, initial, h, h)


def driven(spec: UdeSpec, slopes):
    """Full states (rows, N+1, order) and g (rows, N+1) of the pathwise ODE,
    one row per row of driver slopes over the segments of [0, horizon] that
    ``solver.segment_counts`` gives."""
    slopes = np.array(slopes, dtype=float)
    counts = solver.segment_counts(spec.step_count, slopes.shape[1])
    states, diffusion, failures = solver._solve_rows(
        spec, True, counts, slopes, spec.order, None
    )
    assert not failures
    return states, diffusion


# the tests that build C steps need the compiler the engine names
HAVE_COMPILER = os.access(engine.COMPILER, os.X_OK)
needs_compiler = pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")


@pytest.fixture
def engines(monkeypatch):
    """``for _ in engines():`` runs a body once per engine: first with the
    C libraries forced off (the Python row loop, the condition-H audit on
    the Python text and the fan's text by repr), then forced on (every solve
    builds or reuses its problem's C library and runs every row in C, every
    batch of two rows or more cut into at least two slices that run on
    threads, whatever the host's CPU count, an audit runs in the library
    that is built for its problem, and the fan's text is written by the
    renderer library, built at the first fan text). Yields the engine's
    name. Without a compiler at ``engine.COMPILER`` only the Python round
    runs."""
    cpus = max(2, engine._cpu_count())

    def force(compiled: bool):
        monkeypatch.setattr(engine, "_LIBRARIES", {})
        monkeypatch.setattr(render, "_RENDERER", [])
        monkeypatch.setattr(render, "_REPR_VALUES", 0)
        limit = 0 if compiled else math.inf
        monkeypatch.setattr(engine, "COMPILE_MIN_ROW_STEPS", limit)
        monkeypatch.setattr(render, "RENDER_MIN_VALUES", limit)
        if compiled:
            monkeypatch.setattr(engine, "SPLIT_MIN_ROW_STEPS", 0)
            monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)

    def rounds():
        force(compiled=False)
        yield "python"
        assert not engine._LIBRARIES and not render._RENDERER  # nothing was built
        if not HAVE_COMPILER:
            return
        threads = threading.active_count()
        force(compiled=True)
        yield "compiled"
        # every problem solved had its library built and loaded, and so did
        # the renderer if a fan was written; every slice's thread was joined
        assert engine._LIBRARIES and all(engine._LIBRARIES.values())
        assert all(render._RENDERER)
        assert threading.active_count() == threads

    return rounds


def build_in_compiled_round(spec: UdeSpec) -> None:
    """Build the problem's C library in the compiled round of ``engines``
    (nothing in the Python round): the condition-H audit builds none of its
    own, so an audit of an f and g that no solve has run needs this."""
    engine._library(spec, 0)


def companion_rhs(spec: UdeSpec, c: float, weight=abs):
    """Reference right-hand side (y1, ..., x^(n-1), f + weight(g) * c) built on
    the tree-walking evaluator."""

    def rhs(t, y):
        env = {"t": t, **{f"x{k}": v for k, v in enumerate(y)}}
        top = evaluate(spec.drift, env) + weight(evaluate(spec.diffusion, env)) * c
        return (*y[1:], top)

    return rhs


def reference_rk4_step(rhs, t, y, h):
    """Classical RK4 written out generically; the solver's generated step
    must reproduce it bit for bit."""
    k1 = rhs(t, y)
    y1 = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
    k2 = rhs(t + 0.5 * h, y1)
    y2 = tuple(a + 0.5 * h * b for a, b in zip(y, k2))
    k3 = rhs(t + 0.5 * h, y2)
    y3 = tuple(a + h * b for a, b in zip(y, k3))
    k4 = rhs(t + h, y3)
    w = h / 6.0
    return tuple(
        a + w * (p + 2.0 * (q + r) + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)
    )


def reference_partial_fd(ast, var, env, eps=1e-6):
    """Central difference of the tree-walking evaluator with step
    eps * max(1, |env[var]|); the condition-h audit must reproduce it bit
    for bit."""
    x = env[var]
    h = eps * max(1.0, abs(x))
    hi = {**env, var: x + h}
    lo = {**env, var: x - h}
    return (evaluate(ast, hi) - evaluate(ast, lo)) / (2.0 * h)


def compile_evaluator(ast, order: int):
    """The tree compiled to a Python function of (t, y), y[k] binding xk, in
    the namespace of the generated Python code: the same operations in the
    same order as evaluate(), so results are bit-identical where evaluate
    succeeds; domain failures surface as ValueError / OverflowError /
    ZeroDivisionError."""
    row = [f"y[{k}]" for k in range(order)]
    names = dict(zip(state_variables(order), ["t", *row]))
    source = f"def _compiled(t, y):\n    return {_emit(ast, names)}\n"
    return _exec(source)["_compiled"]


def reference_condition_h(spec, fan, samples, seed):
    """The condition-h audit written out over env dicts and the tree-walking
    evaluator: every node of every path, then the sampled points, f before
    g. Returns the first smallest (function, env, partial) and the
    violations."""
    names = state_variables(spec.order)
    states = fan.states.reshape(-1, spec.order)
    lo, hi = states.min(axis=0), states.max(axis=0)
    pad = 0.05 * (hi - lo)
    rng = np.random.default_rng(seed)
    t_draw = rng.uniform(0.0, spec.horizon, samples)
    state_draw = rng.uniform(lo - pad, hi + pad, size=(samples, spec.order))
    points = [(t, row) for rows in fan.states for t, row in zip(fan.times, rows)]
    points += list(zip(t_draw, state_draw))
    partials = []
    for t, row in points:
        env = dict(zip(names, [float(t), *map(float, row)]))
        for label, tree in (("f", spec.drift), ("g", spec.diffusion)):
            partials.append((label, env, reference_partial_fd(tree, "x0", env)))
    minimum = min(partials, key=lambda entry: entry[2])
    violations = [
        {"function": label, "env": env, "value": value}
        for label, env, value in partials
        if value < -TOL_CONDITION_H
    ]
    return minimum, violations


def reference_regularity(fan) -> RegularityCheck:
    """g evaluated again by the compiled evaluator at every stored node, path
    by path, nan where it fails, the minimum kept on strict <; the regularity
    check, which reads the values the solver recorded, must reproduce every
    field bit for bit."""
    g_fn = compile_evaluator(fan.spec.diffusion, fan.spec.order)
    min_value = math.inf
    min_alpha = math.nan
    min_time = math.nan
    violations = []
    for alpha, rows in zip(fan.grid, fan.states):
        for t, row in zip(fan.times.tolist(), rows.tolist()):
            try:
                gv = g_fn(t, row)
            except (ValueError, OverflowError, ZeroDivisionError):
                gv = math.nan
            if not math.isnan(gv) and gv < min_value:
                min_value = gv
                min_alpha = alpha
                min_time = t
            if not gv > 0.0:
                violations.append((alpha, t, gv))
    return RegularityCheck(
        passed=not violations,
        min_value=min_value,
        min_alpha=min_alpha,
        min_time=min_time,
        violations=violations,
    )


def reference_fan_csv(fan) -> str:
    """fan.csv built as one string, every float repr'd on its own; the
    streamed writer must reproduce it byte for byte."""
    n = fan.spec.order
    header = "alpha,t," + ",".join(f"x{k}" for k in range(n))
    lines = [header]
    tlist = fan.times.tolist()
    for alpha, rows in zip(fan.grid, fan.states):
        alpha_text = repr(alpha)
        for t, row in zip(tlist, rows.tolist()):
            lines.append(
                alpha_text + "," + repr(t) + "," + ",".join(repr(v) for v in row)
            )
    return "\n".join(lines) + "\n"


def reference_fan_json(fan) -> str:
    """fan.json as json.dumps renders the fan payload with indent=2 and
    sorted keys; the streamed writer must reproduce it byte for byte."""
    payload = {
        "order": fan.spec.order,
        "alphas": fan.grid,
        "times": fan.times.tolist(),
        "states": {repr(a): rows.tolist() for a, rows in zip(fan.grid, fan.states)},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


SMALL_GRID = AlphaGridSpec(count=9, lo=0.1)


@pytest.fixture(scope="session")
def tanh_fan_small():
    """9-alpha fan of the order-2 nonlinear problem at a coarse step."""
    spec = tanh_spec(2, step=1e-2)
    return spec, solve_fan(spec, alpha_grid(SMALL_GRID))


@pytest.fixture(scope="session")
def poly_fan_small():
    """9-alpha fan of the order-2 polynomial problem at a coarse step."""
    spec = polynomial_spec(2, step=1e-2)
    return spec, solve_fan(spec, alpha_grid(SMALL_GRID))
