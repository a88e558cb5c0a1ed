"""Integrator tests: frozen one-step oracles, closed-form paths, the
integral-form residual, sample-path solves, and convergence properties."""

from __future__ import annotations

import math
import os
import re
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from alphapath import (
    AlphaFan,
    AlphaGridSpec,
    UdeSpec,
    alpha_grid,
    check_hypotheses,
    check_regularity,
    integral_residual,
    phi_inv,
    solve_fan,
)
from alphapath import emit, engine, expr, render, solver
from alphapath.errors import (
    BlowUpError,
    ConfigError,
    FanSolveError,
)
from alphapath.expr import BinOp, Const

from conftest import (
    HAVE_COMPILER,
    companion_rhs,
    driven,
    needs_compiler,
    one_step_spec,
    polynomial_spec,
    reference_rk4_step,
    tanh_spec,
)


# one-step solves: at alpha = 0.5 the driver term is exactly zero, so the
# top row is f alone


def test_rk4_constant_solution():
    spec = one_step_spec(1, "0", "1", [1.0], 0.37)
    assert tuple(solve_fan(spec, [0.5]).states[0, -1]) == (1.0,)


def test_rk4_exact_for_constant_forcing_chain():
    # chain y0' = y1, y1' = c has closed form [c h^2/2, c h] from rest
    c = 1.75
    h = 0.2
    spec = one_step_spec(2, "1.75", "1", [0.0, 0.0], h)
    out = solve_fan(spec, [0.5]).states[0, -1]
    assert out[0] == pytest.approx(c * h * h / 2.0, rel=1e-14)
    assert out[1] == pytest.approx(c * h, rel=1e-14)


def test_rk4_exponential_one_step():
    h = 0.1
    spec = one_step_spec(1, "x0", "1", [1.0], h)
    (out,) = solve_fan(spec, [0.5]).states[0, -1]
    # one RK4 step on y' = y is the degree-4 Taylor sum of e^h
    taylor = 1.0 + h + h**2 / 2.0 + h**3 / 6.0 + h**4 / 24.0
    assert out == pytest.approx(taylor, abs=1e-15)
    # truncation against e^0.1 is bounded by h^5/5! * e^h ~ 8.5e-8
    assert abs(out - math.exp(h)) < 1e-7


def test_rk4_detects_nonfinite_stage():
    spec = one_step_spec(1, "1/t", "1", [1.0], 0.1)
    with pytest.raises(FanSolveError) as excinfo:
        solve_fan(spec, [0.5])
    assert excinfo.value.failures[0][1].last_good_time == 0.0


def test_rk4_detects_overflowing_state():
    spec = one_step_spec(1, "x0*x0", "1", [1e200], 1.0)
    with pytest.raises(FanSolveError) as excinfo:
        solve_fan(spec, [0.5])
    assert excinfo.value.failures[0][1].last_good_time == 0.0


REFERENCE_CASES = [
    (1, "sin(t) - x0", "1 + t*t", [0.3]),
    (2, "0.5*x0 + sin(3*t)*x1", "1.5 + tanh(x0) + 0.25*cos(t)", [0.1, 0.0]),
    (3, "x0 - x2/(1 + t)", "2 + tanh(x0)", [0.1, -0.2, 0.4]),
    (2, "x0^2 - exp(-t)", "t - 0.5", [0.2, 0.1]),
]


@pytest.mark.parametrize("order,f,g,initial", REFERENCE_CASES)
def test_solves_match_reference_rk4_bitwise(engines, order, f, g, initial):
    spec = UdeSpec.from_strings(order, f, g, initial, 0.5, 0.05)
    times = np.linspace(0.0, 0.5, 11).tolist()

    def reference(rhs_for_step):
        y = spec.initial
        states = [y]
        for i, t in enumerate(times[:-1]):
            y = reference_rk4_step(rhs_for_step(i), t, y, spec.step)
            states.append(y)
        return np.array(states)

    slopes = (0.7, -1.3)
    signed = [companion_rhs(spec, m, weight=lambda g: g) for m in slopes]
    for _ in engines():
        for alpha in (0.1, 0.5, 0.8):
            rhs = companion_rhs(spec, phi_inv(alpha))
            expected = reference(lambda i: rhs)
            assert np.array_equal(solve_fan(spec, [alpha]).states[0], expected)

        expected = reference(lambda i: signed[i // 5])
        assert np.array_equal(driven(spec, [slopes])[0][0], expected)


def _poly_reference(spec, alpha, times):
    n = spec.order
    c = phi_inv(alpha)
    out = np.zeros_like(times)
    for k in range(n):
        out += times**k / math.factorial(k) * spec.initial[k]
    return out + c * times**n / math.factorial(n)


@pytest.mark.parametrize("order", [2, 3])
def test_alpha_path_polynomial_closed_form(order):
    spec = polynomial_spec(order)
    for alpha in (0.1, 0.5, 0.9):
        path = solve_fan(spec, [alpha])
        exact = _poly_reference(spec, alpha, path.times)
        assert np.max(np.abs(path.positions[0] - exact)) <= 1e-12


def test_alpha_path_initial_state_exact():
    spec = polynomial_spec(2, initial=[0.3, -0.7])
    path = solve_fan(spec, [0.8])
    assert tuple(path.states[0, 0]) == spec.initial


def test_alpha_path_grid_uniform():
    spec = tanh_spec(2, step=1e-2)
    path = solve_fan(spec, [0.7])
    diffs = np.diff(path.times)
    assert np.max(np.abs(diffs - spec.step)) <= 1e-12 * spec.horizon
    assert path.times[0] == 0.0
    assert path.times[-1] == spec.horizon


def test_alpha_path_median_matches_drift_only():
    spec = tanh_spec(2, step=1e-2)
    driftless = UdeSpec.from_strings(2, "x0", "0", [0.1, 0.0], 1.0, 1e-2)
    a = solve_fan(spec, [0.5])
    b = solve_fan(driftless, [0.8])  # |0| * anything contributes nothing
    assert np.array_equal(a.states, b.states)


def test_alpha_path_records_diffusion_warnings():
    spec = UdeSpec.from_strings(2, "0", "t-0.5", [0.0, 0.0], 1.0, 1e-2)
    warnings = check_regularity(solve_fan(spec, [0.7])).violations
    assert warnings
    assert all(t <= 0.5 + 1e-12 for _, t, _ in warnings)
    assert all(g <= 0.0 for _, _, g in warnings)
    clean = solve_fan(tanh_spec(2, step=1e-2), [0.7])
    assert check_regularity(clean).violations == []


def test_alpha_path_blowup_reports_last_good_time():
    spec = UdeSpec.from_strings(2, "exp(x0)", "1", [2.0, 2.0], 4.0, 1e-3)
    with pytest.raises(FanSolveError) as excinfo:
        solve_fan(spec, [0.9])
    blowup = excinfo.value.failures[0][1]
    assert 0.0 < blowup.last_good_time < 4.0
    assert blowup.alpha == 0.9


def test_alpha_path_rejects_invalid_spec():
    spec = UdeSpec.from_strings(2, "0", "1", [0.0], 1.0, 1e-3)
    with pytest.raises(ConfigError):
        solve_fan(spec, [0.5])


def test_solve_deterministic_bit_identical():
    spec = tanh_spec(2, step=1e-2)
    a = solve_fan(spec, [0.77])
    b = solve_fan(spec, [0.77])
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_fan_orders_parabolas(poly_fan_small):
    spec, fan = poly_fan_small
    end = fan.positions[:, -1]
    assert all(b > a for a, b in zip(end, end[1:]))
    assert len(fan.states) == len(fan.grid)


def test_fan_shares_time_grid(poly_fan_small):
    spec, fan = poly_fan_small
    nodes = spec.step_count + 1
    assert fan.times.shape == (nodes,)
    assert fan.states.shape == (len(fan.grid), nodes, spec.order)
    assert fan.diffusion.shape == (len(fan.grid), nodes)


def test_fan_single_alpha():
    spec = tanh_spec(2, step=1e-2)
    fan = solve_fan(spec, [0.5])
    assert fan.states.shape == (1, spec.step_count + 1, spec.order)
    wider = solve_fan(spec, [0.3, 0.5, 0.7])
    assert np.array_equal(fan.states[0], wider.states[1])


def test_fan_blowup_names_offending_alpha():
    spec = UdeSpec.from_strings(2, "exp(x0)", "1", [2.0, 2.0], 4.0, 1e-3)
    with pytest.raises(FanSolveError) as excinfo:
        solve_fan(spec, [0.5, 0.9])
    failed = {alpha for alpha, _ in excinfo.value.failures}
    assert failed  # every failure carries its alpha
    assert failed <= {0.5, 0.9}
    assert str(excinfo.value.failures[0][0]) in str(excinfo.value)


def test_fan_blowup_failures_pinned():
    # alphas and last good times measured with the generic RK4 stepper
    spec = UdeSpec.from_strings(2, "x0^2", "1", [1.0, 0.0], 3.0, 1e-3)
    with pytest.raises(FanSolveError) as excinfo:
        solve_fan(spec, [0.1, 0.3, 0.5, 0.7, 0.9])
    failures = [(a, exc.last_good_time) for a, exc in excinfo.value.failures]
    assert failures == [(0.5, 2.974), (0.7, 2.759), (0.9, 2.539)]
    assert [exc.alpha for _, exc in excinfo.value.failures] == [0.5, 0.7, 0.9]


def test_blowup_in_stage_hidden_by_result():
    # exp(710) overflows inside the first stage; tanh would map the infinity
    # back to 1.0, and the solve must fail all the same
    spec = UdeSpec.from_strings(2, "tanh(exp(x0))", "1", [710.0, 0.0], 1.0, 1e-2)
    with pytest.raises(FanSolveError) as excinfo:
        solve_fan(spec, [0.7])
    blowup = excinfo.value.failures[0][1]
    assert blowup.last_good_time == 0.0
    assert blowup.alpha == 0.7


def test_single_alpha_equals_its_fan_row():
    # a path's bits do not depend on the fan it was solved in
    spec = tanh_spec(2)
    grid = alpha_grid(AlphaGridSpec())
    fan = solve_fan(spec, grid)
    alpha = grid[17]
    alone = solve_fan(spec, [alpha])
    assert np.array_equal(alone.states[0], fan.states[17])
    assert np.array_equal(alone.diffusion[0], fan.diffusion[17])
    assert (alone.diffusion > 0.0).all()


# wide batches: specs that use every DSL function and ^; the last one's
# diffusion changes sign, so rows record diffusion warnings
BLOCK_CASES = [
    (1, "cos(x0) + sqrt(1 + t) - ln(2 + x0^2)", "2 + tanh(x0) + 0.5*sin(t)", [0.3]),
    (
        2,
        "0.5*x0 + sin(3*t)*x1 - abs(x1)^1.5",
        "1.5 + tanh(x0) + 0.25*cos(t) + 0.1*exp(-x1^2)",
        [0.1, 0.0],
    ),
    (
        3,
        "x0 - x2/(1 + t) + 0.1*ln(1 + abs(x1)) + sqrt(1 + x0^2)",
        "sin(4*t) + 0.2*tanh(x0) + 0.1*cos(x1) + 0.01*exp(x2)",
        [0.1, -0.2, 0.4],
    ),
]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# 64 and 200 rows: two widths of a wide batch, at which a wrong row offset in
# the C runner's strided reads and writes would show
@pytest.mark.parametrize("rows", [64, 200])
@pytest.mark.parametrize("order,f,g,initial", BLOCK_CASES)
def test_batched_rows_equal_single_rows_bitwise(engines, order, f, g, initial, rows):
    # a block of rows through the batch entry point, in the row loop and in
    # the C runner, against each row solved alone in Python
    spec = UdeSpec.from_strings(order, f, g, initial, 1.0, 1.0 / 64)
    grid = np.linspace(0.01, 0.99, rows).tolist()
    # surrogate rows: signed g, slopes that change per segment and per row
    signed_slopes = np.random.default_rng(order).uniform(-3.0, 3.0, (rows, 4))
    for kind in engines():
        if kind == "python":
            alone = [solve_fan(spec, [alpha]) for alpha in grid]
            driven_alone = [driven(spec, signed_slopes[r : r + 1]) for r in range(rows)]
        fan = solve_fan(spec, grid)
        for r in range(rows):
            assert _same_bits(fan.states[r], alone[r].states[0])
            assert _same_bits(fan.diffusion[r], alone[r].diffusion[0])
        if order == 3:
            assert not (fan.diffusion[0] > 0.0).all()  # warnings were compared

        states, diffusion = driven(spec, signed_slopes)
        positions = solver.sample_positions(spec, signed_slopes)
        assert _same_bits(positions, states[:, :, 0])
        for r, (alone_states, alone_diffusion) in enumerate(driven_alone):
            assert _same_bits(states[r], alone_states[0])
            assert _same_bits(diffusion[r], alone_diffusion[0])


def test_wide_fan_blowup_failures_match_scalar(engines):
    # the C runner marks rows, the rows are rerun alone, and the failures
    # name the same alphas and last good times as row-by-row solves, on both
    # engines of the fixture (65 rows x 300 steps are 19,500 row-steps, below
    # COMPILE_MIN_ROW_STEPS, so outside it the fan would not build)
    spec = UdeSpec.from_strings(2, "x0^2", "1", [1.0, 0.0], 3.0, 1e-2)
    grid = np.linspace(0.02, 0.98, 65).tolist()
    for _ in engines():
        with pytest.raises(FanSolveError) as excinfo:
            solve_fan(spec, grid)
        expected = []
        for alpha in grid:
            try:
                solve_fan(spec, [alpha])
            except FanSolveError as exc:
                blowup = exc.failures[0][1]
                expected.append((alpha, blowup.last_good_time, str(blowup)))
        failures = [(a, e.last_good_time, str(e)) for a, e in excinfo.value.failures]
        assert failures == expected
        assert 0 < len(expected) < len(grid)


def test_rows_the_c_runner_flags_are_rerun_alone_in_python(engines, monkeypatch):
    # a domain error in some rows of a 64-row fan: the C runner marks the
    # rows whose ln(x0) raises a flag, they are rerun alone in Python, and
    # only the failing alphas are reported, on both engines alike
    spec = UdeSpec.from_strings(1, "ln(x0)", "1", [1.0], 1.0, 1e-2)
    grid = np.linspace(0.01, 0.99, 64).tolist()
    reruns = []
    original = solver._integrate

    def spy(*args):
        reruns.append(args[3])
        return original(*args)

    monkeypatch.setattr(solver, "_integrate", spy)
    reports = []
    for kind in engines():
        reruns.clear()
        with pytest.raises(FanSolveError) as excinfo:
            solve_fan(spec, grid)
        failed = [a for a, _ in excinfo.value.failures]
        assert failed and failed == sorted(failed) and failed[-1] < 0.5
        if kind == "compiled":  # the marked rows, the failing ones among them
            assert set(failed) <= set(reruns) and len(reruns) < len(grid)
        failures = excinfo.value.failures
        reports.append([(a, e.last_good_time, str(e)) for a, e in failures])
    assert all(report == reports[0] for report in reports)


# the fans whose rows the split must not move: ln(x0) raises a flag in the
# rows below alpha 0.5, which several slices share, and x0^2 blows up in
# some rows; tanh has no failure, and its surrogates keep positions only
SPLIT_CASES = [
    (UdeSpec.from_strings(1, "ln(x0)", "1", [1.0], 1.5, 1e-2), 64),
    (UdeSpec.from_strings(2, "x0^2", "1", [1.0, 0.0], 3.0, 1e-2), 65),
    (tanh_spec(3, step=1.0 / 64), 40),
]


def _split_solves(spec, rows):
    """Every array, rerun index and failure of the C runner's fan rows and
    surrogate rows of a problem, as comparable values."""
    grid = np.linspace(0.02, 0.98, rows).tolist()
    fan_slopes = np.array([[phi_inv(a)] for a in grid])
    slopes = np.random.default_rng(rows).uniform(-3.0, 3.0, (rows, 4))
    counts = solver.segment_counts(spec.step_count, 4)
    library = engine._library(spec, 0)
    out = []
    for signed, row_slopes, row_counts, kept, keep_g in [
        (False, fan_slopes, [spec.step_count], spec.order, True),
        (True, slopes, counts, 1, False),
    ]:
        args = (spec, signed, row_counts, row_slopes, kept)
        times = solver.time_grid(spec)
        states, diffusion, reruns = engine._run_compiled(library, *args, keep_g, times)
        final = np.delete(np.arange(rows), reruns)  # a marked row is not final
        solved, solved_g, failures = solver._solve_rows(*args, grid, keep_g)
        out.append(
            [
                states[final].tobytes(),
                None if diffusion is None else diffusion[final].tobytes(),
                reruns,
                solved.tobytes(),
                None if solved_g is None else solved_g.tobytes(),
                [(r, e.last_good_time, str(e)) for r, e in failures],
            ]
        )
    return out


@needs_compiler
@pytest.mark.parametrize("spec,rows", SPLIT_CASES)
def test_split_batches_have_the_bits_of_one_slice(monkeypatch, spec, rows):
    # 1, 2 and 3 slices, and more CPUs than rows (a slice per row, more
    # threads than cores, switching as often as the interpreter allows):
    # every state, g, rerun mark and failure is the same, bit for bit
    monkeypatch.setattr(engine, "_LIBRARIES", {})
    monkeypatch.setattr(engine, "COMPILE_MIN_ROW_STEPS", 0)
    monkeypatch.setattr(engine, "SPLIT_MIN_ROW_STEPS", 0)
    results = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cpus in (1, 2, 3, rows + 5):
            monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
            bounds = engine._slice_bounds(rows, spec.step_count)
            assert len(bounds) == min(cpus, rows) + 1
            results.append(_split_solves(spec, rows))
    finally:
        sys.setswitchinterval(interval)
    assert all(result == results[0] for result in results)
    (_, _, reruns, *_, failures), _ = results[0]
    if spec.order < 3:  # some rows, but not all, are rerun and fail
        assert 0 < len(failures) <= len(reruns) < rows
    if spec.order == 1:  # the marked rows span slices at 3 slices
        bounds = [rows * k // 3 for k in range(4)]
        assert len({np.searchsorted(bounds, r, "right") for r in reruns}) > 1


class _SpyLibrary:
    """A problem's library whose ``run`` is replaced."""

    def __init__(self, library, run):
        self._library, self.run = library, run

    def __getattr__(self, name):
        return getattr(self._library, name)


def _os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


@needs_compiler
def test_a_split_batch_holds_at_most_a_thread_per_cpu(monkeypatch):
    # a large sample_positions at the constant and the process's own CPU
    # count: while it runs, the process holds no more threads than its CPUs
    # (beyond those it held before), and none outlives the call
    spec = tanh_spec(3, step=1.0 / 800)
    slopes = np.random.default_rng(8).uniform(-3.0, 3.0, (400, 32))
    monkeypatch.setattr(engine, "_LIBRARIES", {})
    library = engine._library(spec, math.inf)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    held = []

    def run(*args):
        held.append((_os_threads(), threading.active_count()))
        library.run(*args)

    engine._LIBRARIES[emit._library_key(spec)] = _SpyLibrary(library, run)
    before = _os_threads(), threading.active_count()
    positions = solver.sample_positions(spec, slopes)
    cpus = len(os.sched_getaffinity(0))
    slices = len(engine._slice_bounds(400, spec.step_count)) - 1
    assert slices == min(cpus, 400 * 800 // engine.SPLIT_MIN_ROW_STEPS)
    assert len(held) == slices and len(started) == slices - 1
    assert max(os_threads for os_threads, _ in held) <= before[0] + cpus - 1
    assert max(active for _, active in held) <= before[1] + cpus - 1
    assert (_os_threads(), threading.active_count()) == before
    assert not any(thread.is_alive() for thread in started)
    # the bits of one slice
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
    assert _same_bits(positions, solver.sample_positions(spec, slopes))


@needs_compiler
def test_a_failing_slice_reaches_the_caller_and_shapes_are_checked_first(
    monkeypatch,
):
    # an exception in a worker's slice is raised by the call, once every
    # slice's thread is joined; a batch that does not fit the problem is
    # refused before any thread starts
    spec = tanh_spec(2, step=1.0 / 64)
    slopes = np.random.default_rng(9).uniform(-3.0, 3.0, (8, 4))
    monkeypatch.setattr(engine, "_LIBRARIES", {})
    monkeypatch.setattr(engine, "SPLIT_MIN_ROW_STEPS", 0)
    monkeypatch.setattr(engine, "_cpu_count", lambda: 3)
    library = engine._library(spec, math.inf)
    calls = []

    def run(*args):
        calls.append(threading.current_thread())
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("slice failed")
        library.run(*args)

    spy = _SpyLibrary(library, run)
    engine._LIBRARIES[emit._library_key(spec)] = spy
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="slice failed"):
        solver.sample_positions(spec, slopes)
    assert len(calls) == 3 and threading.active_count() == before
    started = []
    monkeypatch.setattr(threading, "Thread", lambda *a, **k: started.append(a))
    counts = solver.segment_counts(spec.step_count, 4)
    times = solver.time_grid(spec)
    for bad_slopes, kept, bad_times in [
        (slopes[:, :3], 1, times),
        (slopes, 0, times),
        (slopes, 3, times),
        (slopes, 1, times[:-1]),
    ]:
        calls.clear()
        with pytest.raises(ValueError, match="do not fit the problem"):
            engine._run_compiled(
                spy, spec, True, counts, bad_slopes, kept, False, bad_times
            )
        assert not calls and not started


def _solved_bits(spec, grid, slopes):
    """Fan rows and surrogate rows of a problem, as comparable bytes."""
    fan = solve_fan(spec, grid)
    states, diffusion = driven(spec, slopes)
    return [a.tobytes() for a in (fan.states, fan.diffusion, states, diffusion)]


def test_the_generated_texts_depend_on_the_order_f_and_g_alone():
    # the step size is an input of the step, so specs that differ only in
    # step, horizon or initial state share one C text, one library key and
    # one compiled Python step; another order, f or g is another text. The
    # key is not the trees: Const(-0.0) == Const(0.0), but they emit apart
    base = tanh_spec(2)
    same = [
        tanh_spec(2, step=5e-4),
        tanh_spec(2, horizon=2.0),
        tanh_spec(2, initial=[0.3, -1.0]),
    ]
    other = [
        tanh_spec(3),
        UdeSpec.from_strings(2, "x0 + 1", "2+tanh(x0)", [0.1, 0.0], 1.0, 1e-3),
        UdeSpec.from_strings(2, "x0", "2+tanh(x1)", [0.1, 0.0], 1.0, 1e-3),
    ]
    zeros = [
        replace(base, drift=BinOp("+", base.drift, Const(zero))) for zero in (0.0, -0.0)
    ]
    assert zeros[0] == zeros[1]
    source, key = emit._c_source(base), emit._library_key(base)
    step = emit._compile_step(base, False)[0].__code__
    for spec in same:
        assert emit._c_source(spec) == source
        assert emit._library_key(spec) == key
        assert emit._compile_step(spec, False)[0].__code__ is step
    for spec in [*other, *zeros]:
        assert emit._c_source(spec) != source
        assert emit._library_key(spec) != key
    assert emit._c_source(zeros[0]) != emit._c_source(zeros[1])
    assert emit._library_key(zeros[0]) != emit._library_key(zeros[1])


def test_one_library_serves_every_step_size(engines, monkeypatch):
    # one problem at two steps in one process: its fans and surrogate rows
    # build one library between them, and every array has the bits of the
    # same solve in a fresh cache, on both engines alike
    specs = [tanh_spec(2, step=1e-3), tanh_spec(2, step=5e-4)]
    grid = [0.1, 0.5, 0.9]
    slopes = np.random.default_rng(6).uniform(-3.0, 3.0, (3, 4))

    def solved(spec):
        fan = solve_fan(spec, grid)
        positions = solver.sample_positions(spec, slopes)
        return [a.tobytes() for a in (fan.states, fan.diffusion, positions)]

    results = []
    for kind in engines():
        shared = [solved(spec) for spec in specs]
        assert len(engine._LIBRARIES) == (kind == "compiled")
        for spec, bits in zip(specs, shared):
            monkeypatch.setattr(engine, "_LIBRARIES", {})
            assert solved(spec) == bits
        results.append(shared)
    assert all(result == results[0] for result in results)


def test_compiled_steps_keep_libm_bits_of_calls_on_constants(engines):
    # gcc folds tanh and exp of a constant at compile time with its own
    # arithmetic unless -fno-builtin forbids it, and those bits differ from
    # the libm calls the Python step makes
    spec = UdeSpec.from_strings(
        1, "x0 + tanh(0.478)", "1 + 0.1*exp(2.467)", [0.1], 1.0, 1.0 / 16
    )
    slopes = np.random.default_rng(3).uniform(-3.0, 3.0, (3, 4))
    results = [_solved_bits(spec, [0.1, 0.5, 0.9], slopes) for _ in engines()]
    assert all(bits == results[0] for bits in results)


def test_rows_that_raise_a_flag_are_rerun_in_python(engines, monkeypatch):
    # x0*1e200*1e200 overflows to inf, silently in Python, where tanh(inf)
    # is 1, and with FE_OVERFLOW raised in C: every compiled row is rerun in
    # Python, with the same bits and no error
    spec = UdeSpec.from_strings(2, "tanh(x0*1e200*1e200)", "1", [0.1, 0.0], 1.0, 0.1)
    slopes = np.random.default_rng(4).uniform(-3.0, 3.0, (2, 5))
    reruns = []
    original = solver._integrate

    def spy(*args):
        reruns.append(args[3])
        return original(*args)

    monkeypatch.setattr(solver, "_integrate", spy)
    results = []
    for _ in engines():
        reruns.clear()
        results.append(_solved_bits(spec, [0.2, 0.7], slopes))
        assert reruns == [0.2, 0.7, None, None]  # every row ran in Python
    assert all(bits == results[0] for bits in results)


@needs_compiler
def test_the_build_runs_a_fixed_command_in_a_fixed_environment(
    monkeypatch, tmp_path
):
    # the compiler by its absolute path, the fixed flags, PATH alone as its
    # environment, a timeout, and a private directory that is gone once the
    # library is loaded; the build works with the process's environment
    # emptied, so it reads none of it. The fan's one build also serves the
    # surrogates and the condition-H audit of the same problem
    import subprocess

    calls = []
    original = subprocess.run

    def spy(argv, **kwargs):
        calls.append((argv, kwargs))
        return original(argv, **kwargs)

    def no_rerun(*args):
        raise AssertionError("the audit ran in Python")

    monkeypatch.setattr(subprocess, "run", spy)
    monkeypatch.setattr(solver, "_python_partials", no_rerun)
    monkeypatch.setattr(engine, "_BUILD_ROOT", str(tmp_path))
    monkeypatch.setattr(engine, "_LIBRARIES", {})
    monkeypatch.setattr(engine, "COMPILE_MIN_ROW_STEPS", 0)
    for key in list(os.environ):
        monkeypatch.delenv(key)
    spec = tanh_spec(1, step=0.1)
    fan = solve_fan(spec, [0.5])
    solver.sample_positions(spec, np.ones((2, 3)))  # the same library
    assert check_hypotheses(fan).passed  # and again
    assert len(engine._LIBRARIES) == 1
    assert engine.COMPILER == "/usr/bin/gcc"
    ((argv, kwargs),) = calls
    flags = ["-O0", "-fno-builtin", "-ffp-contract=off", "-shared", "-fPIC"]
    assert argv[:6] == ["/usr/bin/gcc", *flags]
    assert argv[6] == "-o" and argv[-1] == "-lm"
    folder = os.path.dirname(argv[7])
    assert os.path.dirname(folder) == str(tmp_path)
    assert argv[8] == os.path.join(folder, "source.c")
    assert kwargs["env"] == {"PATH": "/usr/bin:/bin"}
    assert 0 < kwargs["timeout"] <= 60
    assert all(engine._LIBRARIES.values())
    assert os.listdir(tmp_path) == []


def test_renderer_powers_are_the_schubfach_table():
    # the fan renderer's table: for k = -324 .. 292, g = floor(10^-k * 2^-r)
    # + 1 with r the integer that puts g in [2^125, 2^126), exactly; the C
    # text holds each g as its upper and lower 63-bit halves
    powers = render._powers()
    assert len(powers) == 617
    assert powers[324] == 2**125 + 1  # k = 0
    for k, g in zip(range(-324, 293), powers):
        r = math.floor(-k * math.log2(10)) - 125
        assert 2**125 <= g < 2**126
        assert (g - 1) * Fraction(2) ** r <= Fraction(10) ** -k < g * Fraction(2) ** r
    source = render._renderer_source()
    halves = re.findall(r"\{(0x[0-9a-f]+)u, (0x[0-9a-f]+)u\}", source)
    assert [(int(hi, 16) << 63) + int(lo, 16) for hi, lo in halves] == list(powers)
    assert all(int(lo, 16) < 2**63 for _, lo in halves)


def test_fan_rejects_an_empty_grid():
    with pytest.raises(ConfigError, match="alpha grid is empty"):
        solve_fan(polynomial_spec(2, step=1e-2), [])


def test_fan_rejects_unsorted_grid():
    with pytest.raises(ConfigError):
        solve_fan(polynomial_spec(2, step=1e-2), [0.5, 0.5])


def test_residual_polynomial_case():
    spec = polynomial_spec(2)
    result = integral_residual(solve_fan(spec, [0.9]), 0)
    assert result.max_residual <= 1e-10


def test_residual_single_step_path():
    # two-node path: the t=0 term is exactly zero and the only prefix is a
    # single interval, handled by the trapezoid fallback
    spec = polynomial_spec(2, horizon=0.5, step=0.5)
    result = integral_residual(solve_fan(spec, [0.8]), 0)
    assert result.max_residual <= 1e-14


def test_residual_division_by_zero_raises_like_the_solver():
    # the forcing sees Python floats, so x0/t at t = 0 raises as in a step
    spec = UdeSpec.from_strings(1, "x0/t", "1", [1.0], 1.0, 0.5)
    times = np.array([0.0, 0.5, 1.0])
    fan = AlphaFan(spec, [0.5], times, np.ones((1, 3, 1)), np.ones((1, 3)))
    with pytest.raises(ZeroDivisionError):
        integral_residual(fan, 0)
    with pytest.raises(FanSolveError):
        solve_fan(spec, [0.5])


def test_residual_nonlinear_decays_with_step():
    coarse_spec = tanh_spec(2, step=2e-2)
    fine_spec = tanh_spec(2, step=1e-2)
    coarse = integral_residual(solve_fan(coarse_spec, [0.9]), 0)
    fine = integral_residual(solve_fan(fine_spec, [0.9]), 0)
    assert coarse.max_residual / fine.max_residual >= 8.0


def test_sample_path_zero_slopes_is_drift_only():
    spec = tanh_spec(2, step=1e-2)
    states = driven(spec, [[0.0, 0.0]])[0][0]
    reference = solve_fan(spec, [0.5])
    assert np.array_equal(states, reference.states[0])


def test_sample_path_single_slope_closed_form():
    spec = polynomial_spec(2, step=1e-2)
    m = -1.3
    position = solver.sample_positions(spec, np.array([[m]]))[0]
    exact = m * solver.time_grid(spec) ** 2 / 2.0
    assert np.max(np.abs(position - exact)) <= 1e-13


def test_sample_path_two_segments_piecewise_quadratic():
    spec = polynomial_spec(2, step=1e-2)
    m1, m2 = 0.8, -0.4
    split = 0.5  # two equal segments of [0, 1]
    states = driven(spec, [[m1, m2]])[0][0]
    times = solver.time_grid(spec)
    x_split = m1 * split**2 / 2.0
    v_split = m1 * split
    exact = np.where(
        times <= split,
        m1 * times**2 / 2.0,
        x_split + v_split * (times - split) + m2 * (times - split) ** 2 / 2.0,
    )
    assert np.max(np.abs(states[:, 0] - exact)) <= 1e-12
    # velocity is continuous across the breakpoint as well
    j = int(round(split / spec.step))
    assert states[j, 1] == pytest.approx(v_split, abs=1e-12)


def test_sample_path_alignment_required():
    # the column count is the segment count, and each segment needs a step:
    # more columns than the 100 steps are refused, not integrated on a driver
    # that runs out
    spec = polynomial_spec(2, step=1e-2)
    message = "segments must be <= the 100 solver steps, got 101"
    with pytest.raises(ConfigError, match=message):
        solver.sample_positions(spec, np.ones((2, 101)))
    # no column is no segment: refused before the step count is divided by it
    with pytest.raises(ConfigError, match="segments must be >= 1, got 0"):
        solver.sample_positions(spec, np.empty((2, 0)))
    assert solver.segment_counts(100, 4) == [25] * 4
    # 3 segments do not divide 100 steps: they span 34, 33 and 33 steps, so
    # the breakpoints t = 0.34 and 0.67 fall on nodes and the path is the
    # piecewise quadratic with those breakpoints, exact to roundoff
    assert solver.segment_counts(100, 3) == [34, 33, 33]
    slopes = [0.8, -0.4, 1.5]
    position = solver.sample_positions(spec, np.array([slopes]))[0]
    times = solver.time_grid(spec)
    exact = np.zeros_like(times)
    start, x, v = 0.0, 0.0, 0.0
    for m, end in zip(slopes, (0.34, 0.67, 1.0)):
        inside = (times >= start) & (times <= end + 1e-12)
        s = times[inside] - start
        exact[inside] = x + v * s + m * s**2 / 2.0
        span = end - start
        start, x, v = end, x + v * span + m * span**2 / 2.0, v + m * span
    assert np.max(np.abs(position - exact)) <= 1e-12


@pytest.mark.parametrize("rows", [2, 64])
def test_unequal_segments_are_their_slopes_step_by_step(engines, rows):
    # 3 slopes over 10 steps span 4, 3 and 3 steps; writing each slope once
    # per step as 10 one-step segments gives the same driver, and the same
    # bits, in the row loop and in the C runner, for a narrow batch and a
    # wide one
    spec = tanh_spec(2, step=0.1)
    assert solver.segment_counts(spec.step_count, 3) == [4, 3, 3]
    slopes = np.random.default_rng(rows).uniform(-3.0, 3.0, (rows, 3))
    per_step = np.repeat(slopes, [4, 3, 3], axis=1)
    results = []
    for _ in engines():
        positions = solver.sample_positions(spec, slopes)
        assert _same_bits(positions, solver.sample_positions(spec, per_step))
        results.append(positions)
    assert all(_same_bits(results[0], other) for other in results)


def test_shift_structure_by_finite_differences():
    # stored component k+1 is the derivative of component k, so interior
    # central differences agree to O(h^2)
    spec = tanh_spec(2)
    states = solve_fan(spec, [0.8]).states[0]
    h = spec.step
    for k in range(spec.order - 1):
        fd = (states[2:, k] - states[:-2, k]) / (2.0 * h)
        assert np.max(np.abs(fd - states[1:-1, k + 1])) <= 1e-4


def test_convergence_order_across_three_halvings():
    def endpoint(step):
        spec = tanh_spec(2, step=step)
        return solve_fan(spec, [0.8]).positions[0, -1]

    reference = endpoint(1.25e-3 / 16.0)
    errors = [abs(endpoint(h) - reference) for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 13.0


# the long-narrow benchmark problem: f and g each hold one time term
LONG_NARROW = ("0.5*x0 + sin(3*t)*x1", "1.5 + tanh(x0) + 0.25*cos(t)")


def _row_bits(solved) -> tuple:
    """States, g and failures of a ``_solve_rows`` call, as comparable bytes."""
    states, diffusion, failures = solved
    errors = tuple((r, e.last_good_time, str(e)) for r, e in failures)
    return states.tobytes(), diffusion.tobytes(), errors


def test_rows_with_time_terms_have_the_bits_of_python_rows(engines, monkeypatch):
    # alpha rows (abs) and three-segment surrogate rows (signed) of 1 to 5
    # rows, in the C runner as one slice and as two, its time terms read from
    # one table per batch: every state, g and failure has the bits of the
    # Python row loop
    spec = UdeSpec.from_strings(2, *LONG_NARROW, [0.1, 0.0], 1.0, 1e-3)
    assert emit._term_count(spec) == 2 and "int fill(" in emit._c_source(spec)
    alphas = [0.1, 0.3, 0.5, 0.7, 0.9]
    alpha_slopes = np.array([[phi_inv(a)] for a in alphas])
    slopes = np.random.default_rng(27).uniform(-3.0, 3.0, (5, 3))
    counts = solver.segment_counts(spec.step_count, 3)
    results: dict[tuple, list] = {}
    for kind in engines():
        for cpus in (1, 2) if kind == "compiled" else (1,):
            monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
            for rows in range(1, 6):
                fan = solver._solve_rows(
                    spec, False, [spec.step_count], alpha_slopes[:rows], 2, alphas
                )
                driven = solver._solve_rows(spec, True, counts, slopes[:rows], 2, None)
                results.setdefault(rows, []).append((_row_bits(fan), _row_bits(driven)))
    for rows, found in results.items():
        assert len(found) == (3 if HAVE_COMPILER else 1)
        assert all(bits == found[0] for bits in found), rows


@pytest.mark.parametrize(
    "f, g, failed_at",
    [
        # ln(t) at t = 0 divides by zero in the first node's terms
        ("x0", "1.5 + tanh(x0) + 0.01*ln(t)", 0.0),
        # exp(800*t) overflows only from t = 0.887..., in the last nodes
        ("x0 + 1e-300*exp(800*t)", "2 + tanh(x0)", 0.887),
    ],
)
def test_a_time_term_that_raises_a_flag_reruns_the_batch(
    engines, monkeypatch, f, g, failed_at
):
    # the table's fill raises a flag: no row runs in C, every row runs again
    # in Python and fails there, with the alpha, time and message of the
    # Python row loop, for alpha rows and surrogate rows alike
    spec = UdeSpec.from_strings(2, f, g, [0.1, 0.0], 1.0, 1e-3)
    assert emit._term_count(spec) == 1
    slopes = np.random.default_rng(6).uniform(-3.0, 3.0, (3, 4))
    integrated, batches = [], []
    integrate, run_slices = solver._integrate, engine._run_slices

    def integrate_spy(*args):
        integrated.append(args[3])
        return integrate(*args)

    def run_slices_spy(*args):
        batches.append(args)
        return run_slices(*args)

    monkeypatch.setattr(solver, "_integrate", integrate_spy)
    monkeypatch.setattr(engine, "_run_slices", run_slices_spy)
    results = []
    for _ in engines():
        integrated.clear()
        with pytest.raises(FanSolveError) as fan_error:
            solve_fan(spec, [0.2, 0.5, 0.8])
        with pytest.raises(BlowUpError) as driven_error:
            solver.sample_positions(spec, slopes)
        assert integrated == [0.2, 0.5, 0.8, None, None, None]
        assert batches == []
        failures = [(a, e.last_good_time, str(e)) for a, e in fan_error.value.failures]
        results.append((failures, driven_error.value.last_good_time))
    assert all(result == results[0] for result in results)
    assert [t for _, t, _ in results[0][0]] == [pytest.approx(failed_at)] * 3


def test_a_problem_without_time_terms_keeps_its_step_text(engines, monkeypatch):
    # f and g with no call or power on t alone: the classical tableau's
    # lines as they are, no table fill in the C text, the steps' signature
    # without a table, and every batch given NULL for it
    spec = tanh_spec(2, step=0.01)
    assert emit._step_lines(spec, False) == [
        ("hh", "0.5 * h"),
        ("w", "h / 6.0"),
        ("g", "((2.0) + tanh(y0))"),
        ("p", "y0 + abs(g) * c"),
        ("u", "t + hh"),
        ("a0", "y0 + hh * y1"),
        ("a1", "y1 + hh * p"),
        ("q", "a0 + abs(((2.0) + tanh(a0))) * c"),
        ("b0", "y0 + hh * a1"),
        ("b1", "y1 + hh * q"),
        ("r", "b0 + abs(((2.0) + tanh(b0))) * c"),
        ("e0", "y0 + h * b1"),
        ("e1", "y1 + h * r"),
        ("v", "t + h"),
        ("s", "e0 + abs(((2.0) + tanh(e0))) * c"),
        ("z0", "y0 + w * (y1 + 2.0 * (a1 + b1) + e1)"),
        ("z1", "y1 + w * (p + 2.0 * (q + r) + s)"),
    ]
    source = emit._c_source(spec)
    assert "fill" not in source and "m[" not in source
    assert "double *state, double *g_out) {" in source
    tables = []
    for kind in engines():
        if kind == "compiled":
            library = engine._library(spec, math.inf)

            def run(*args):
                tables.append(args[7])
                library.run(*args)

            spy = _SpyLibrary(library, run)
            engine._LIBRARIES[emit._library_key(spec)] = spy
        solve_fan(spec, [0.25, 0.5, 0.75])
    assert tables == ([None, None] if HAVE_COMPILER else [])


# the problems of the README (wide-fan's too) and the other two benchmark
# workloads, and one with a time term in each of f and g
PAIR_PROBLEMS = {
    "readme": (2, "x0", "2 + tanh(x0)"),
    "oracle-sweep": (3, "x0", "2 + tanh(x0)"),
    "long-narrow": (2, *LONG_NARROW),
    "time-terms": (1, "x0 + tanh(0.5)", "1 + t^2"),
}


def _c_function(source: str, name: str) -> str:
    """The body of the C function ``name`` in ``source``."""
    start = source.index(f"static int {name}(")
    return source[start : source.index("\n}\n", start)]


@pytest.mark.parametrize("order, f, g", PAIR_PROBLEMS.values(), ids=PAIR_PROBLEMS)
def test_the_c_pair_step_is_the_step_text_in_lanes_0_and_1(order, f, g):
    # each C step is the two lanes' lines of the one step text, line by
    # line, a grid line that both lanes share once and a time term read
    # from its node's row of the table; it loads lane l's component k from
    # state[l * n + k], and stores g and the next state the same way
    spec = UdeSpec.from_strings(order, f, g, [0.1] * order, 1.0, 0.01)
    source = emit._c_source(spec)
    terms = expr.time_terms([spec.drift, spec.diffusion])[0]
    declared = re.compile(r"    double (\w+) __attribute__\(\(unused\)\) = (.*);")
    places = [(k, l) for k in range(order) for l in (0, 1)]
    loads = [(f"y{k}{l}", f"state[{l * order + k}]") for k, l in places]
    for name, signed in (("step_abs", False), ("step_signed", True)):
        body = _c_function(source, name)
        found = [m.groups() for m in map(declared.fullmatch, body.split("\n")) if m]
        expected = []
        lanes = (emit._step_lines(spec, signed, lane) for lane in "01")
        for zero, one in zip(*lanes):
            assert (zero[0] == one[0]) == (zero == one)  # shared by name and text
            expected += [zero] if zero == one else [zero, one]
        assert found[: len(loads)] == loads
        assert [v for v, _ in found[len(loads) :]] == [v for v, _ in expected]
        for (v, rhs), (_, text) in zip(found[len(loads) :], expected):
            is_term = re.fullmatch(r"m\d+[tuv]", v) and rhs.startswith("m[")
            assert rhs == text or is_term
        assert sum(rhs.startswith("m[") for _, rhs in found) == 3 * len(terms)
        assert "g_out[0] = g0;\n    g_out[1] = g1;\n" in body
        for k, l in places:
            assert f"state[{l * order + k}] = z{k}{l};" in body
    assert emit._step_lines(spec, False, "") == emit._step_lines(spec, False)


def test_rows_in_pairs_have_the_bits_of_python_rows(engines, monkeypatch):
    # 1, 2, 3 and 5 rows: a row alone, a pair, a pair and an odd row, two
    # pairs and an odd row, and at two slices 3 rows are a row alone and a
    # pair; alpha rows and surrogate rows of a problem without time terms
    # (test_rows_with_time_terms_have_the_bits_of_python_rows has them)
    spec = tanh_spec(2, step=1.0 / 64)
    alphas = [0.1, 0.3, 0.5, 0.7, 0.9]
    alpha_slopes = np.array([[phi_inv(a)] for a in alphas])
    slopes = np.random.default_rng(31).uniform(-3.0, 3.0, (5, 4))
    counts = solver.segment_counts(spec.step_count, 4)
    results: dict[int, list] = {}
    for kind in engines():
        for cpus in (1, 2) if kind == "compiled" else (1,):
            monkeypatch.setattr(engine, "_cpu_count", lambda: cpus)
            for rows in (1, 2, 3, 5):
                fan = solver._solve_rows(
                    spec, False, [spec.step_count], alpha_slopes[:rows], 2, alphas
                )
                driven = solver._solve_rows(spec, True, counts, slopes[:rows], 2, None)
                results.setdefault(rows, []).append((_row_bits(fan), _row_bits(driven)))
    for rows, found in results.items():
        assert len(found) == (3 if HAVE_COMPILER else 1)
        assert all(bits == found[0] for bits in found), rows


# a pair of which exactly one lane raises a flag (ln(x0) below alpha 0.32)
# or blows up (x0^2 from alpha 0.5), in either lane, and an odd row alone;
# the rows the runner of one row at a time marked, and their failures
PAIR_FAILURES = [
    (
        UdeSpec.from_strings(1, "ln(x0)", "1", [1.0], 1.0, 1e-2),
        [0.3, 0.34, 0.36, 0.28, 0.2],
        [0, 3, 4],
        [(0, 0.96), (3, 0.9), (4, 0.71)],
    ),
    (
        UdeSpec.from_strings(2, "x0^2", "1", [1.0, 0.0], 3.0, 1e-2),
        [0.46, 0.5, 0.52, 0.48, 0.3],
        [1, 2],
        [(1, 2.98), (2, 2.95)],
    ),
]


@needs_compiler
@pytest.mark.parametrize("spec, grid, reruns, failed", PAIR_FAILURES)
def test_a_pair_with_one_failing_lane_keeps_each_rows_own_results(
    monkeypatch, spec, grid, reruns, failed
):
    # the failing lane's row is marked and rerun alone in Python, its
    # partner keeps the bits of the Python row, and the failures are the
    # Python row loop's
    monkeypatch.setattr(engine, "_cpu_count", lambda: 1)
    slopes = np.array([[phi_inv(a)] for a in grid])
    args = (spec, False, [spec.step_count], slopes, spec.order)
    monkeypatch.setattr(engine, "_LIBRARIES", {})
    monkeypatch.setattr(engine, "COMPILE_MIN_ROW_STEPS", math.inf)
    python = solver._solve_rows(*args, grid)
    monkeypatch.setattr(engine, "COMPILE_MIN_ROW_STEPS", 0)
    library = engine._library(spec, 0)
    times = solver.time_grid(spec)
    states, diffusion, marked = engine._run_compiled(library, *args, True, times)
    assert marked == reruns
    final = np.delete(np.arange(len(grid)), reruns)
    assert _same_bits(states[final], python[0][final])
    assert _same_bits(diffusion[final], python[1][final])
    solved = solver._solve_rows(*args, grid)
    assert _row_bits(solved) == _row_bits(python)
    assert [(r, round(e.last_good_time, 9)) for r, e in solved[2]] == failed


def _terms_per_node(spec, times):
    """Every time term at each node's t, t + h/2 and t + h, a node at a
    time in Python: the table ``fill`` writes."""
    terms = expr.time_terms([spec.drift, spec.diffusion])[0]
    lines = [line for time in "tuv" for line in emit._term_lines(terms, time)]
    names = ", ".join(name for name, _ in lines)
    source = "def row(t, h):\n    hh = 0.5 * h\n    u = t + hh\n    v = t + h\n"
    source += "".join(f"    {name} = {rhs}\n" for name, rhs in lines)
    row = expr._exec(source + f"    return [{names}]\n")["row"]
    h = spec.horizon / spec.step_count
    return np.array([row(t, h) for t in times[:-1].tolist()]).reshape(-1, 3, len(terms))


@needs_compiler
@pytest.mark.parametrize("nudged", [False, True], ids=["long-narrow", "nudged-grid"])
def test_the_table_has_the_bits_of_a_fill_per_node(monkeypatch, nudged):
    # the fill copies a node's terms at v into the next node's terms at t
    # where the two times are the same double, and computes them where they
    # are not: on long-narrow's grid, and on one with every seventh time
    # moved up an ulp, the table has the bits of every term at every node
    spec = UdeSpec.from_strings(2, *LONG_NARROW, [0.1, 0.0], 1.0, 1e-4)
    times = solver.time_grid(spec)
    if nudged:
        times[1::7] = np.nextafter(times[1::7], math.inf)
    h = spec.horizon / spec.step_count
    reused = times[:-2] + h == times[1:-1]
    assert 0.5 < reused.mean() < 0.9
    monkeypatch.setattr(engine, "_LIBRARIES", {})
    library = engine._library(spec, math.inf)
    assert library.term_count == emit._term_count(spec) == 2
    table = np.empty((spec.step_count, 3, 2))
    assert library.fill(spec.step_count, h, times.ctypes.data, table.ctypes.data) == 0
    assert _same_bits(table, _terms_per_node(spec, times))
