"""Integrator tests: frozen one-step oracles, closed-form paths, the
integral-form residual, sample-path solves, and convergence properties."""

from __future__ import annotations

import math

import numpy as np
import pytest

from alphapath import (
    AlphaFan,
    AlphaGridSpec,
    UdeSpec,
    alpha_grid,
    check_regularity,
    integral_residual,
    phi_inv,
    solve_fan,
)
from alphapath import solver
from alphapath.errors import (
    ConfigError,
    FanSolveError,
)

from conftest import (
    companion_rhs,
    driven,
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
def test_solves_match_reference_rk4_bitwise(order, f, g, initial):
    spec = UdeSpec.from_strings(order, f, g, initial, 0.5, 0.05)
    times = np.linspace(0.0, 0.5, 11).tolist()

    def reference(rhs_for_step):
        y = spec.initial
        states = [y]
        for i, t in enumerate(times[:-1]):
            y = reference_rk4_step(rhs_for_step(i), t, y, spec.step)
            states.append(y)
        return np.array(states)

    for alpha in (0.1, 0.5, 0.8):
        rhs = companion_rhs(spec, phi_inv(alpha))
        expected = reference(lambda i: rhs)
        assert np.array_equal(solve_fan(spec, [alpha]).states[0], expected)

    slopes = (0.7, -1.3)
    signed = [companion_rhs(spec, m, weight=lambda g: g) for m in slopes]
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


# the block engine: specs that use every DSL function and ^; the last one's
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


@pytest.mark.parametrize("rows", [solver.BLOCK_MIN_ROWS, 200])
@pytest.mark.parametrize("order,f,g,initial", BLOCK_CASES)
def test_block_rows_equal_scalar_rows_bitwise(order, f, g, initial, rows):
    spec = UdeSpec.from_strings(order, f, g, initial, 1.0, 1.0 / 64)
    grid = np.linspace(0.01, 0.99, rows).tolist()
    slopes = np.array([[phi_inv(a)] for a in grid])
    block = solver._integrate_block(spec, False, [64], slopes, order)
    assert block is not None  # no fallback: the block itself is compared
    states, diffusion = block
    fan = solve_fan(spec, grid)  # the same block, through the entry point
    for r, alpha in enumerate(grid):
        alone = solve_fan(spec, [alpha])
        assert _same_bits(states[r], alone.states[0])
        assert _same_bits(diffusion[r], alone.diffusion[0])
        assert _same_bits(fan.states[r], alone.states[0])
        assert _same_bits(fan.diffusion[r], alone.diffusion[0])
    if order == 3:
        assert not (fan.diffusion[0] > 0.0).all()  # the comparison covered warnings

    # surrogate rows: signed g, slopes that change per segment and per row
    slopes = np.random.default_rng(order).uniform(-3.0, 3.0, (rows, 4))
    block = solver._integrate_block(spec, True, [16] * 4, slopes, order)
    assert block is not None
    states, diffusion = block
    assert _same_bits(solver.sample_positions(spec, slopes), states[:, :, 0])
    for r in range(rows):
        alone_states, alone_diffusion = driven(spec, slopes[r : r + 1])
        assert _same_bits(states[r], alone_states[0])
        assert _same_bits(diffusion[r], alone_diffusion[0])


def test_wide_fan_blowup_failures_match_scalar():
    # the block fails, every row is rerun alone, and the failures name the
    # same alphas and last good times as row-by-row solves
    spec = UdeSpec.from_strings(2, "x0^2", "1", [1.0, 0.0], 3.0, 1e-2)
    grid = np.linspace(0.02, 0.98, solver.BLOCK_MIN_ROWS + 1).tolist()
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


def test_block_falls_back_when_a_step_raises():
    # a domain error in one row of a wide fan: the fallback reruns the
    # rows alone and only the failing ones are reported
    spec = UdeSpec.from_strings(1, "ln(x0)", "1", [1.0], 1.0, 1e-2)
    grid = np.linspace(0.01, 0.99, solver.BLOCK_MIN_ROWS).tolist()
    slopes = np.array([[phi_inv(a)] for a in grid])
    assert solver._integrate_block(spec, False, [100], slopes, 1) is None
    with pytest.raises(FanSolveError) as excinfo:
        solve_fan(spec, grid)
    failed = [a for a, _ in excinfo.value.failures]
    assert failed and failed == sorted(failed) and failed[-1] < 0.5


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
    # single interval, handled by the flagged trapezoid fallback
    spec = polynomial_spec(2, horizon=0.5, step=0.5)
    result = integral_residual(solve_fan(spec, [0.8]), 0)
    assert result.used_trapezoid
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


@pytest.mark.parametrize("rows", [2, solver.BLOCK_MIN_ROWS])
def test_unequal_segments_are_their_slopes_step_by_step(rows):
    # 3 slopes over 10 steps span 4, 3 and 3 steps; writing each slope once
    # per step as 10 one-step segments gives the same driver, and the same
    # bits, in the row loop and in the block
    spec = tanh_spec(2, step=0.1)
    assert solver.segment_counts(spec.step_count, 3) == [4, 3, 3]
    slopes = np.random.default_rng(rows).uniform(-3.0, 3.0, (rows, 3))
    per_step = np.repeat(slopes, [4, 3, 3], axis=1)
    assert _same_bits(
        solver.sample_positions(spec, slopes), solver.sample_positions(spec, per_step)
    )


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
