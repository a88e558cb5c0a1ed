"""Tests for the hypothesis checkers, fan ordering, and distribution outputs."""

from __future__ import annotations

import numpy as np
import pytest

from alphapath import (
    AlphaFan,
    AlphaGridSpec,
    AlphaPath,
    UdeSpec,
    alpha_grid,
    check_condition_h,
    check_hypotheses,
    check_monotone,
    check_regularity,
    distribution_at,
    expected_value,
    inverse_distribution,
    phi_inv,
    solve_fan,
)
from alphapath.analysis import TOL_CONDITION_H
from alphapath.errors import (
    ConfigError,
    DomainError,
    MonotonicityError,
    NonFiniteError,
)
from alphapath.expr import state_variables

from conftest import SMALL_GRID, polynomial_spec, reference_partial_fd, tanh_spec


def _synthetic_fan(columns: np.ndarray, grid: list[float], initial=0.0) -> AlphaFan:
    """Build a fan directly from position columns (one row per alpha)."""
    m, nodes = columns.shape
    times = np.linspace(0.0, 1.0, nodes)
    spec = polynomial_spec(1, initial=[initial], step=1.0 / (nodes - 1))
    paths = [
        AlphaPath(
            times=times,
            states=columns[i].reshape(-1, 1).copy(),
            diffusion_warnings=[],
            alpha=grid[i],
        )
        for i in range(m)
    ]
    return AlphaFan(spec=spec, grid=grid, paths=paths)


def test_regularity_constant_diffusion(poly_fan_small):
    _, fan = poly_fan_small
    report = check_regularity(fan)
    assert report.passed
    assert report.min_value == 1.0
    assert report.violations == []


def test_regularity_bounded_nonlinear(tanh_fan_small):
    _, fan = tanh_fan_small
    report = check_regularity(fan)
    assert report.passed
    assert report.min_value > 1.0  # tanh >= -1 keeps g = 2 + tanh above 1


def test_regularity_sign_change_localized():
    spec = UdeSpec.from_strings(2, "0", "t-0.5", [0.0, 0.0], 1.0, 1e-2)
    fan = solve_fan(spec, alpha_grid(SMALL_GRID))
    report = check_regularity(fan)
    assert not report.passed
    assert report.violations
    assert all(t <= 0.5 + 1e-12 for _, t, _ in report.violations)
    assert max(t for _, t, _ in report.violations) == pytest.approx(0.5, abs=1e-12)
    assert report.min_value <= -0.5 + 1e-12


def test_condition_h_positive_drift_passes(tanh_fan_small):
    spec, fan = tanh_fan_small
    report = check_condition_h(spec, fan, samples=64, seed=5)
    assert report.passed
    assert report.min_partial > 0.0
    assert report.sampled_points > 64


def test_condition_h_negative_drift_fails():
    spec = UdeSpec.from_strings(2, "0-x0", "1", [0.1, 0.0], 1.0, 1e-2)
    fan = solve_fan(spec, alpha_grid(SMALL_GRID))
    report = check_condition_h(spec, fan, samples=32, seed=5)
    assert not report.passed
    assert report.min_partial == pytest.approx(-1.0, abs=1e-6)
    assert report.min_function == "f"
    # df/dx0 = -1 everywhere, so every sampled point violates for f
    assert len(report.violations) == report.sampled_points


def test_condition_h_zero_partials_pass_boundary():
    spec = UdeSpec.from_strings(2, "t", "1", [0.0, 0.0], 1.0, 1e-2)
    fan = solve_fan(spec, alpha_grid(SMALL_GRID))
    report = check_condition_h(spec, fan, samples=32, seed=5)
    assert report.passed
    assert report.min_partial == 0.0


def test_condition_h_deterministic():
    spec = tanh_spec(2, step=5e-2)
    fan = solve_fan(spec, alpha_grid(AlphaGridSpec(count=3, lo=0.2)))
    a = check_condition_h(spec, fan, samples=32, seed=9)
    b = check_condition_h(spec, fan, samples=32, seed=9)
    assert a == b


def _reference_condition_h(spec, fan, samples, seed):
    """The audit written out over env dicts and the tree-walking evaluator:
    every node of every path, then the sampled points, f before g. Returns
    the first smallest (function, env, partial) and the violations."""
    names = state_variables(spec.order)
    states = np.concatenate([p.states for p in fan.paths], axis=0)
    lo, hi = states.min(axis=0), states.max(axis=0)
    pad = 0.05 * (hi - lo)
    rng = np.random.default_rng(seed)
    t_draw = rng.uniform(0.0, spec.horizon, samples)
    state_draw = rng.uniform(lo - pad, hi + pad, size=(samples, spec.order))
    points = [(t, row) for p in fan.paths for t, row in zip(p.times, p.states)]
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


@pytest.mark.parametrize(
    "order, f, g",
    [
        (2, "x0", "2 + tanh(x0)"),
        (2, "0-x0", "1"),
        (2, "t", "3 - tanh(x0)"),
        (2, "t", "1"),  # every partial is 0.0: the first point holds the minimum
        (3, "x0*sin(t) + x1 - x2^2", "2 + tanh(x0) - 0.1*x2"),
        # the difference of two finite values overflows: partials of +-inf
        (2, "1.7e308*tanh(1e9*(x0 - 0.1))", "0 - 1.7e308*tanh(1e9*(x0 - 0.1))"),
    ],
)
def test_condition_h_matches_reference_bitwise(order, f, g):
    fan = solve_fan(tanh_spec(order, step=1e-2), alpha_grid(SMALL_GRID))
    spec = UdeSpec.from_strings(order, f, g, fan.spec.initial, 1.0, 1e-2)
    report = check_condition_h(spec, fan, samples=64, seed=11)
    (label, env, value), violations = _reference_condition_h(spec, fan, 64, 11)
    assert report.min_partial.hex() == value.hex()
    assert (report.min_function, report.min_env) == (label, env)
    assert report.violations == violations
    assert [v["value"].hex() for v in report.violations] == [
        v["value"].hex() for v in violations
    ]
    assert report.passed == (not violations)


def test_condition_h_rejects_nonfinite_values_that_do_not_raise():
    # every point sits at x0 = 0.1, where f overflows to +inf above and to
    # -inf below without a Python exception; the partial would read +inf
    fan = _synthetic_fan(np.full((1, 3), 0.1), [0.5], initial=0.1)
    spec = UdeSpec.from_strings(1, "(x0 - 0.1)*1e308*1e308", "1", [0.1], 1.0, 0.5)
    with pytest.raises(NonFiniteError, match=r"\(x0 - 0.1\) \* 1e\+308 \* 1e\+308"):
        check_condition_h(spec, fan, samples=4)


def test_hypothesis_report_combines(tanh_fan_small):
    spec, fan = tanh_fan_small
    report = check_hypotheses(spec, fan, samples=32, seed=1)
    assert report.passed
    assert report.sampled_points == report.condition_h.sampled_points


def test_monotone_parabola_gap_formula(poly_fan_small):
    _, fan = poly_fan_small
    report = check_monotone(fan)
    assert report.passed and not report.vacuous
    # gap between adjacent paths is (phi_inv(a2) - phi_inv(a1)) * t^2/2
    t = report.min_gap_time
    a1, a2 = report.min_gap_pair
    expected = (phi_inv(a2) - phi_inv(a1)) * t * t / 2.0
    assert report.min_gap == pytest.approx(expected, rel=1e-9)


def test_monotone_requires_equality_at_start(poly_fan_small):
    _, fan = poly_fan_small
    positions = np.stack([p.position for p in fan.paths])
    assert (np.diff(positions[:, 0], axis=0) == 0.0).all()


def test_monotone_single_alpha_vacuous():
    spec = polynomial_spec(2, step=1e-2)
    fan = solve_fan(spec, [0.5])
    report = check_monotone(fan)
    assert report.passed
    assert report.vacuous
    assert report.note == "insufficient grid"


def test_monotone_localizes_first_crossing():
    # synthetic fan: upper path dips below the lower one from node 3 onward
    lower = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    upper = np.array([0.0, 1.5, 2.5, 2.5, 3.5, 4.5])
    fan = _synthetic_fan(np.stack([lower, upper]), [0.4, 0.6])
    report = check_monotone(fan)
    assert not report.passed
    assert report.first_crossing is not None
    t, a_lo, a_hi, gap = report.first_crossing
    assert t == pytest.approx(3.0 / 5.0)
    assert (a_lo, a_hi) == (0.4, 0.6)
    assert gap <= 0.0


def test_monotone_on_condition_violating_spec_reports_consistently():
    # with df/dx0 < 0 the ordering guarantee is lost; whatever the outcome,
    # the report must be internally consistent
    spec = UdeSpec.from_strings(2, "0-x0", "1", [0.1, 0.0], 1.0, 1e-2)
    fan = solve_fan(spec, alpha_grid(SMALL_GRID))
    report = check_monotone(fan)
    if report.passed:
        assert report.min_gap > 0.0
        assert report.first_crossing is None
    else:
        assert report.first_crossing is not None


def test_inverse_distribution_closed_form(poly_fan_small):
    _, fan = poly_fan_small
    table = inverse_distribution(fan, 1.0)
    assert not table.degenerate
    for (a, x) in table.entries:
        assert x == pytest.approx(phi_inv(a) / 2.0, abs=1e-12)
    values = [x for _, x in table.entries]
    assert all(b > a for a, b in zip(values, values[1:]))
    # the median entry is the drift-only solution (identically zero here)
    median = dict(table.entries)[0.5]
    assert median == 0.0


def test_inverse_distribution_at_zero_is_degenerate(poly_fan_small):
    _, fan = poly_fan_small
    table = inverse_distribution(fan, 0.0)
    assert table.degenerate
    assert all(x == 0.0 for _, x in table.entries)


def test_inverse_distribution_snaps_to_nearest_node(poly_fan_small):
    _, fan = poly_fan_small
    h = 1e-2
    table = inverse_distribution(fan, 0.5 + 0.4 * h)
    assert table.t == pytest.approx(0.5, abs=1e-12)


def test_inverse_distribution_rejects_out_of_range(poly_fan_small):
    _, fan = poly_fan_small
    with pytest.raises(DomainError):
        inverse_distribution(fan, 2.0)
    with pytest.raises(DomainError):
        inverse_distribution(fan, -0.5)


def test_inverse_distribution_monotonicity_gate():
    lower = np.array([0.0, 1.0, 2.0])
    upper = np.array([0.0, 0.5, 1.0])  # out of order everywhere after t=0
    fan = _synthetic_fan(np.stack([lower, upper]), [0.4, 0.6])
    with pytest.raises(MonotonicityError):
        inverse_distribution(fan, 1.0)


def test_distribution_at_node_inversion(poly_fan_small):
    _, fan = poly_fan_small
    table = inverse_distribution(fan, 1.0)
    for a, x in table.entries:
        result = distribution_at(table, x)
        assert result.alpha == pytest.approx(a, abs=1e-12)
        assert not result.saturated


def test_distribution_at_clamps_with_flag(poly_fan_small):
    _, fan = poly_fan_small
    table = inverse_distribution(fan, 1.0)
    lo = distribution_at(table, float(table.values[0]) - 1.0)
    assert lo.alpha == float(table.alphas[0]) and lo.saturated
    hi = distribution_at(table, float(table.values[-1]) + 1.0)
    assert hi.alpha == float(table.alphas[-1]) and hi.saturated


def test_distribution_at_midpoint_interpolates(poly_fan_small):
    _, fan = poly_fan_small
    table = inverse_distribution(fan, 1.0)
    alphas = table.alphas
    i = 3
    x_mid = 0.5 * (table.values[i] + table.values[i + 1])
    result = distribution_at(table, float(x_mid))
    expected = 0.5 * (alphas[i] + alphas[i + 1])
    assert result.alpha == pytest.approx(float(expected), abs=1e-12)


def test_expected_value_odd_driver_cancels():
    spec = polynomial_spec(2)
    fan = solve_fan(spec, alpha_grid(AlphaGridSpec()))
    for t in (0.25, 1.0):
        assert abs(expected_value(fan, t)) <= 1e-12


def test_expected_value_reproduces_drift_line():
    spec = polynomial_spec(2, initial=[1.0, 2.0])
    fan = solve_fan(spec, alpha_grid(AlphaGridSpec()))
    for t in (0.5, 1.0):
        assert expected_value(fan, t) == pytest.approx(1.0 + 2.0 * t, abs=1e-12)


def test_expected_value_requires_grid():
    spec = polynomial_spec(2, step=1e-2)
    fan = solve_fan(spec, [0.5])
    with pytest.raises(ConfigError, match="insufficient grid"):
        expected_value(fan, 1.0)


def test_expected_value_requires_symmetric_grid():
    spec = polynomial_spec(2, step=1e-2)
    fan = solve_fan(spec, [0.2, 0.5, 0.6])
    with pytest.raises(ConfigError, match="symmetric"):
        expected_value(fan, 1.0)


def test_expected_value_monotonicity_gate():
    lower = np.array([0.0, 1.0, 2.0])
    upper = np.array([0.0, 0.5, 1.0])  # out of order everywhere after t=0
    fan = _synthetic_fan(np.stack([lower, upper]), [0.4, 0.6])
    with pytest.raises(MonotonicityError):
        expected_value(fan, 1.0)
    assert expected_value(fan, 0.0) == 0.0  # the shared start carries no order


def test_reports_serialize(tanh_fan_small):
    spec, fan = tanh_fan_small
    import json

    hyp = check_hypotheses(spec, fan, samples=16, seed=2)
    mono = check_monotone(fan)
    text = json.dumps({"h": hyp.to_dict(), "m": mono.to_dict()})
    assert "condition_h" in text
