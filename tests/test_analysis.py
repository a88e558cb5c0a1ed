"""Tests for the hypothesis checkers, fan ordering, and distribution outputs."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from alphapath import (
    AlphaFan,
    AlphaGridSpec,
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
from alphapath import analysis, engine, expr, solver
from alphapath.errors import (
    ConfigError,
    DomainError,
    MonotonicityError,
    NonFiniteError,
)

from conftest import (
    SMALL_GRID,
    build_in_compiled_round,
    polynomial_spec,
    reference_condition_h,
    reference_regularity,
    tanh_spec,
)


def _synthetic_fan(columns: np.ndarray, grid: list[float], initial=0.0) -> AlphaFan:
    """Build a fan directly from position columns (one row per alpha)."""
    times = np.linspace(0.0, 1.0, columns.shape[1])
    spec = polynomial_spec(1, initial=[initial], step=1.0 / (len(times) - 1))
    return AlphaFan(
        spec=spec,
        grid=grid,
        times=times,
        states=columns[:, :, None].copy(),
        diffusion=np.ones(columns.shape),  # g = 1
    )


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


def _hexed(*values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def _regularity_bits(report):
    """Every field, floats as hex: nan-aware and telling -0.0 from 0.0."""
    return (
        report.passed,
        _hexed(report.min_value, report.min_alpha, report.min_time),
        [_hexed(*v) for v in report.violations],
    )


NARROW_GRID = alpha_grid(SMALL_GRID)  # 9 alphas
WIDE_GRID = alpha_grid(AlphaGridSpec())  # 99 alphas: 99 x 100 steps or more

# (order, f, g, initial, step, grid); "0*(t-0.5)" is -0.0 before t = 0.5 and
# 0.0 after, so every node ties for the minimum; ln(x0) fails at the last
# node only, where x0 reaches 0 and the last stage did not
REGULARITY_CASES = {
    "sign-change-rows": (2, "0", "t-0.5", [0.0, 0.0], 1e-2, NARROW_GRID),
    "sign-change-block": (2, "0", "t-0.5", [0.0, 0.0], 1e-2, WIDE_GRID),
    "readme-fan": (2, "x0", "2 + tanh(x0)", [0.1, 0.0], 1e-3, WIDE_GRID),
    "signed-zero-rows": (2, "x0", "0*(t-0.5)", [0.1, 0.0], 1e-2, NARROW_GRID),
    "signed-zero-block": (2, "x0", "0*(t-0.5)", [0.1, 0.0], 1e-2, WIDE_GRID),
    "nan-at-last-node": (1, "0-3*t^2", "ln(x0)", [1.0], 0.25, [0.5]),
    # every value positive, every node tied: the first node of the first path
    "all-positive-tied": (2, "x0", "2", [0.1, 0.0], 1e-2, WIDE_GRID),
    # every value positive but the nan where ln(x0) fails at the last node
    "positive-but-nan": (1, "0-3*t^2", "1 + 0*ln(x0)", [1.0], 0.25, [0.5]),
}


@pytest.mark.parametrize(
    "order,f,g,initial,step,grid",
    REGULARITY_CASES.values(),
    ids=REGULARITY_CASES.keys(),
)
def test_regularity_matches_reference_bitwise(order, f, g, initial, step, grid):
    spec = UdeSpec.from_strings(order, f, g, initial, 1.0, step)
    fan = solve_fan(spec, grid)
    report = check_regularity(fan)
    assert _regularity_bits(report) == _regularity_bits(reference_regularity(fan))
    if g == "0*(t-0.5)":  # the first of the tied minima, with its sign
        assert _regularity_bits(report)[1] == _hexed(-0.0, grid[0], 0.0)
    if g == "ln(x0)":
        assert math.isnan(report.violations[-1][2])
    if g == "2":
        assert report.passed
        assert _regularity_bits(report)[1] == _hexed(2.0, grid[0], 0.0)
    if g == "1 + 0*ln(x0)":
        assert [v for *_, v in report.violations if not math.isnan(v)] == []
        assert len(report.violations) == 1 and report.min_value == 1.0


def test_regularity_reads_the_recorded_diffusion(tanh_fan_small, monkeypatch):
    # the check neither compiles nor evaluates g: it reads the solver's record
    _, fan = tanh_fan_small
    expected = reference_regularity(fan)

    def forbidden(*args, **kwargs):
        raise AssertionError("g evaluated again")

    monkeypatch.setattr(expr, "_exec", forbidden)
    monkeypatch.setattr(expr, "evaluate", forbidden)
    assert _regularity_bits(check_regularity(fan)) == _regularity_bits(expected)


def test_condition_h_positive_drift_passes(tanh_fan_small):
    _, fan = tanh_fan_small
    report = check_condition_h(fan, samples=64, seed=5)
    assert report.passed
    assert report.min_partial > 0.0
    assert report.sampled_points > 64


def test_condition_h_rejects_a_negative_seed(tanh_fan_small):
    _, fan = tanh_fan_small
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        check_condition_h(fan, seed=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        check_hypotheses(fan, seed=-1)


def test_condition_h_negative_drift_fails():
    spec = UdeSpec.from_strings(2, "0-x0", "1", [0.1, 0.0], 1.0, 1e-2)
    fan = solve_fan(spec, alpha_grid(SMALL_GRID))
    report = check_condition_h(fan, samples=32, seed=5)
    assert not report.passed
    assert report.min_partial == pytest.approx(-1.0, abs=1e-6)
    assert report.min_function == "f"
    # df/dx0 = -1 everywhere, so every sampled point violates for f
    assert len(report.violations) == report.sampled_points


def test_condition_h_zero_partials_pass_boundary():
    spec = UdeSpec.from_strings(2, "t", "1", [0.0, 0.0], 1.0, 1e-2)
    fan = solve_fan(spec, alpha_grid(SMALL_GRID))
    report = check_condition_h(fan, samples=32, seed=5)
    assert report.passed
    assert report.min_partial == 0.0


def test_condition_h_deterministic():
    spec = tanh_spec(2, step=5e-2)
    fan = solve_fan(spec, alpha_grid(AlphaGridSpec(count=3, lo=0.2)))
    a = check_condition_h(fan, samples=32, seed=9)
    b = check_condition_h(fan, samples=32, seed=9)
    assert a == b


# position columns of order-1 fans: in the first, only the middle path has a
# node (x0 = 0.5) where a difference overflows; in the second, no path node
# lies where the partial of 1.7e308*tanh(2*x0) overflows (|x0| < 0.41), but
# sampled points do
ONE_PATH_FALLS_BACK = np.array(
    [
        [1.0, 1.25, 1.5, 1.75, 2.0],
        [0.3, 0.4, 0.5, 0.6, 0.7],
        [3.0, 3.25, 3.5, 3.75, 4.0],
    ]
)
SAMPLES_FALL_BACK = np.array(
    [[1.0, 1.25, 1.5, 1.75, 2.0], [-2.0, -1.75, -1.5, -1.25, -1.0]]
)

# (order, f, g, position columns or None for the solved 9-alpha tanh fan,
# the groups whose C call is flagged or not finite and that are rerun through
# the Python text: path indices, "samples")
CONDITION_H_CASES = [
    (2, "x0", "2 + tanh(x0)", None, []),
    (2, "0-x0", "1", None, []),
    (2, "t", "3 - tanh(x0)", None, []),
    # every partial is 0.0: the first point holds the minimum
    (2, "t", "1", None, []),
    (3, "x0*sin(t) + x1 - x2^2", "2 + tanh(x0) - 0.1*x2", None, []),
    # the difference of two finite values overflows at x0 = 0.1, where every
    # path starts: partials of +-inf, every path rerun
    (
        2,
        "1.7e308*tanh(1e9*(x0 - 0.1))",
        "0 - 1.7e308*tanh(1e9*(x0 - 0.1))",
        None,
        list(range(9)),
    ),
    (2, "1", "2 + tanh(x0)", None, []),
    # time terms, each computed once per point for hi and lo: long-narrow's
    # f and g, and terms beside partials that fail the condition
    (2, "0.5*x0 + sin(3*t)*x1", "1.5 + tanh(x0) + 0.25*cos(t)", None, []),
    (2, "sin(3*t)*x1 - x0*exp(-t)", "1 + 0.25*cos(t)^2 - x0^2", None, []),
    (2, "abs(x0 - 0.2) + x1^2", "sqrt(x0 + 5) + (x0 + 5)^1.5 - x0^3", None, []),
    # the minimum (-inf, for g) lies in the rerun path, violations (f) in all
    (1, "0 - x0", "0 - 1.7e308*tanh(1e9*(x0 - 0.5))", ONE_PATH_FALLS_BACK, [1]),
    # +inf partials of f; the minimum and the violations of g in the samples
    (1, "1.7e308*tanh(2*x0)", "x0^3 - 2*x0", SAMPLES_FALL_BACK, ["samples"]),
]


@pytest.mark.parametrize(
    "order, f, g, columns, rerun",
    CONDITION_H_CASES,
    ids=[f"{order}-{f}-{g}" for order, f, g, _, _ in CONDITION_H_CASES],
)
def test_condition_h_matches_reference_bitwise(
    engines, order, f, g, columns, rerun, monkeypatch
):
    if columns is None:
        fan = solve_fan(tanh_spec(order, step=1e-2), alpha_grid(SMALL_GRID))
    else:
        fan = _synthetic_fan(columns, [0.25, 0.5, 0.75][: len(columns)])
    spec = UdeSpec.from_strings(order, f, g, fan.spec.initial, 1.0, fan.spec.step)
    fan = dataclasses.replace(fan, spec=spec)  # audit this f and g over the states
    every_group = [*range(len(fan.states)), "samples"]
    scalar_groups = []

    def spy(spec, partials, times, states, h):
        paths = [
            k for k, row in enumerate(fan.states) if np.shares_memory(row, states)
        ]
        scalar_groups.extend(paths or ["samples"])
        return scalar_partials(spec, partials, times, states, h)

    scalar_partials = solver._python_partials
    monkeypatch.setattr(solver, "_python_partials", spy)
    (label, env, value), violations = reference_condition_h(spec, fan, 64, 11)
    for kind in engines():
        build_in_compiled_round(spec)
        scalar_groups.clear()
        report = check_condition_h(fan, samples=64, seed=11)
        # without a library every group runs on the Python text
        assert scalar_groups == (rerun if kind == "compiled" else every_group)
        assert report.min_partial.hex() == value.hex()
        assert (report.min_function, report.min_env) == (label, env)
        assert report.violations == violations
        assert [v["value"].hex() for v in report.violations] == [
            v["value"].hex() for v in violations
        ]
        assert report.passed == (not violations)
    if rerun == [1]:
        assert (label, value, env["x0"]) == ("g", -math.inf, 0.5)
    if rerun == ["samples"]:  # no path node has |x0| < 1
        assert label == "g" and abs(env["x0"]) < 1.0


def test_condition_h_keeps_an_overflow_that_a_later_operation_absorbs(
    engines, tanh_fan_small, monkeypatch
):
    # 1e308*(x0 + 10) overflows to inf and tanh takes it to 1.0: the C call
    # raises the overflow flag over finite partials, its group is rerun on
    # the Python text, which absorbs the overflow as the solver's step does,
    # and every partial of f reads 0.0; evaluate would refuse the point
    _, fan = tanh_fan_small
    spec = UdeSpec.from_strings(2, "tanh(1e308*(x0 + 10))", "1", [0.1, 0.0], 1.0, 1e-2)
    fan = dataclasses.replace(fan, spec=spec)
    flagged, reruns = [], []
    run_partials, scalar_partials = engine._run_partials, solver._python_partials

    def c_spy(spec, library, times, states, h):
        values = np.empty((len(times), 2))
        arrays = (times, np.ascontiguousarray(states), h, values)
        raised = library.partials(len(times), *(a.ctypes.data for a in arrays))
        flagged.append(bool(raised) and np.isfinite(values).all())
        return run_partials(spec, library, times, states, h)

    def scalar_spy(*args):
        reruns.append(len(args[2]))
        return scalar_partials(*args)

    monkeypatch.setattr(engine, "_run_partials", c_spy)
    monkeypatch.setattr(solver, "_python_partials", scalar_spy)
    for kind in engines():
        build_in_compiled_round(spec)
        flagged.clear()
        reruns.clear()
        report = check_condition_h(fan, samples=16, seed=3)
        assert report.passed
        assert report.min_partial.hex() == (0.0).hex()
        # every group runs on the Python text: after a flagged C call, or
        # without a library
        assert reruns == [len(fan.times)] * len(fan.states) + [16]
        assert flagged == ([True] * len(reruns) if kind == "compiled" else [])
    with pytest.raises(NonFiniteError):
        expr.evaluate(spec.drift, {"t": 0.0, "x0": 0.1, "x1": 0.0})


def test_condition_h_rejects_nonfinite_values_that_do_not_raise(engines):
    # every point sits at x0 = 0.1, where f overflows to +inf above and to
    # -inf below without a Python exception; the partial would read +inf
    fan = _synthetic_fan(np.full((1, 3), 0.1), [0.5], initial=0.1)
    spec = UdeSpec.from_strings(1, "(x0 - 0.1)*1e308*1e308", "1", [0.1], 1.0, 0.5)
    for _ in engines():
        build_in_compiled_round(spec)
        with pytest.raises(NonFiniteError, match=r"\(x0 - 0.1\) \* 1e\+308 \* 1e\+308"):
            check_condition_h(dataclasses.replace(fan, spec=spec), samples=4)


def test_hypothesis_report_combines(tanh_fan_small):
    _, fan = tanh_fan_small
    report = check_hypotheses(fan, samples=32, seed=1)
    assert report.passed
    assert report.monotone == check_monotone(fan)
    assert report.failed == []


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
    assert (np.diff(fan.positions[:, 0], axis=0) == 0.0).all()


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


def test_distribution_at_refuses_a_nan_x(tanh_fan_small):
    # a NaN x lies nowhere in the table: a DomainError that names it, not a
    # point of alpha nan
    _, fan = tanh_fan_small
    table = inverse_distribution(fan, 1.0)
    with pytest.raises(DomainError, match="^x=nan is not a number$"):
        distribution_at(table, math.nan)


@pytest.mark.parametrize("x, end", [(-math.inf, 0), (math.inf, -1)])
def test_distribution_at_clamps_an_infinite_x_with_flag(tanh_fan_small, x, end):
    _, fan = tanh_fan_small
    table = inverse_distribution(fan, 1.0)
    point = distribution_at(table, x)
    assert point.alpha == float(table.alphas[end]) and point.saturated


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
        assert abs(expected_value(inverse_distribution(fan, t))) <= 1e-12


def test_expected_value_reproduces_drift_line():
    spec = polynomial_spec(2, initial=[1.0, 2.0])
    fan = solve_fan(spec, alpha_grid(AlphaGridSpec()))
    for t in (0.5, 1.0):
        table = inverse_distribution(fan, t)
        assert expected_value(table) == pytest.approx(1.0 + 2.0 * t, abs=1e-12)


def test_expected_value_requires_grid():
    spec = polynomial_spec(2, step=1e-2)
    fan = solve_fan(spec, [0.5])
    with pytest.raises(ConfigError, match="insufficient grid"):
        expected_value(inverse_distribution(fan, 1.0))


def test_expected_value_requires_symmetric_grid():
    spec = polynomial_spec(2, step=1e-2)
    fan = solve_fan(spec, [0.2, 0.5, 0.6])
    with pytest.raises(ConfigError, match="symmetric"):
        expected_value(inverse_distribution(fan, 1.0))


def test_expected_value_monotonicity_gate():
    lower = np.array([0.0, 1.0, 2.0])
    upper = np.array([0.0, 0.5, 1.0])  # out of order everywhere after t=0
    fan = _synthetic_fan(np.stack([lower, upper]), [0.4, 0.6])
    with pytest.raises(MonotonicityError):
        expected_value(inverse_distribution(fan, 1.0))
    # the shared start carries no order
    assert expected_value(inverse_distribution(fan, 0.0)) == 0.0


def test_reports_serialize(tanh_fan_small):
    _, fan = tanh_fan_small
    import json

    hyp = check_hypotheses(fan, samples=16, seed=2)
    mono = check_monotone(fan)
    text = json.dumps({"h": hyp.to_dict(), "m": mono.to_dict()})
    assert "condition_h" in text


def test_regularity_export_caps_violations_beside_their_total():
    violations = [(0.5, k / 1024, -1.0) for k in range(1001)]
    report = analysis.RegularityCheck(
        passed=False, min_value=-1.0, min_alpha=0.5, min_time=0.0,
        violations=violations,
    )
    assert report.to_dict() == {
        "passed": False,
        "min_value": -1.0,
        "min_alpha": 0.5,
        "min_time": 0.0,
        "violations_total": 1001,
        "violations": violations[:1000],
    }


def test_condition_h_export():
    env = {"t": 0.25, "x0": 0.1, "x1": 0.0}
    report = analysis.ConditionHCheck(
        passed=False, sampled_points=7, min_partial=-1.0, min_function="f",
        min_env=env, violations=[{"function": "f", "env": env, "value": -1.0}],
    )
    assert report.to_dict() == {
        "passed": False,
        "sampled_points": 7,
        "min_partial": -1.0,
        "min_function": "f",
        "min_env": env,
        "violations_total": 1,
        "violations": [{"function": "f", "env": env, "value": -1.0}],
    }


def test_monotone_exports():
    vacuous = check_monotone(solve_fan(polynomial_spec(2, step=1e-2), [0.5]))
    # the report's nan is math.nan itself, so the dicts compare equal
    assert vacuous.to_dict() == {
        "passed": True,
        "vacuous": True,
        "note": "insufficient grid",
        "min_gap": math.nan,
        "min_gap_time": math.nan,
        "min_gap_pair": None,
        "first_crossing": None,
    }
    lower = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    upper = np.array([0.0, 1.5, 2.5, 2.5, 3.5, 4.5])
    fan = _synthetic_fan(np.stack([lower, upper]), [0.4, 0.6])
    t = float(fan.times[3])  # 0.6000000000000001
    assert check_monotone(fan).to_dict() == {
        "passed": False,
        "vacuous": False,
        "note": "",
        "min_gap": -0.5,
        "min_gap_time": t,
        "min_gap_pair": (0.4, 0.6),
        "first_crossing": (t, 0.4, 0.6, -0.5),
    }


def test_hypothesis_report_names_failures_in_field_order():
    fan = _synthetic_fan(np.stack([np.zeros(3), np.zeros(3)]), [0.4, 0.6])
    spec = UdeSpec.from_strings(1, "0-x0", "1", [0.0], 1.0, 0.5)
    report = check_hypotheses(dataclasses.replace(fan, spec=spec), samples=4)
    assert report.failed == ["condition_h", "monotone"]
    assert not report.passed
    exported = report.to_dict()
    assert sorted(exported) == ["condition_h", "monotone", "passed", "regularity"]
    assert exported["passed"] is False
    assert exported["monotone"] == report.monotone.to_dict()


def test_every_report_exports_through_one_method():
    from alphapath.oracle import DominanceReport

    for cls in (
        analysis.RegularityCheck,
        analysis.ConditionHCheck,
        analysis.MonotoneCheck,
        analysis.HypothesisReport,
        DominanceReport,
    ):
        assert cls.to_dict is analysis.Report.to_dict
