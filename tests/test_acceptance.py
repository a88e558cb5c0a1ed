"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and runtimes. Every tolerance is pinned here; the runtime budgets are
asserted against wall-clock time of the criterion body.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from alphapath import (
    AlphaGridSpec,
    UdeSpec,
    alpha_grid,
    check_condition_h,
    check_monotone,
    check_regularity,
    distribution_at,
    dominance_checks,
    expected_value,
    integral_residual,
    inverse_distribution,
    phi_inv,
    solve_fan,
)
from alphapath.cli import main

from conftest import polynomial_spec, tanh_spec

DEFAULT_GRID = AlphaGridSpec()  # 99 symmetric alphas, 0.01 .. 0.99


@contextmanager
def criterion(number: int, label: str, budget_seconds: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(
            f"[FAIL] criterion {number}: {label} "
            f"(runtime {elapsed:.3f}s > {budget_seconds}s budget)"
        )
        pytest.fail(
            f"criterion {number} exceeded its runtime budget: "
            f"{elapsed:.3f}s > {budget_seconds}s"
        )
    print(f"[PASS] criterion {number}: {label} ({elapsed:.4g}s)")


def test_criterion_1_quantile_function():
    phi_inv(0.123)  # warm up before timing
    with criterion(1, "inverse uncertainty quantile", budget_seconds=1e-3):
        assert phi_inv(0.5) == 0.0
        # dyadic 1023-point grid: the mirror value 1 - alpha is exact, so the
        # check isolates the function's antisymmetry from subtraction rounding
        values = [phi_inv(k / 1024.0) for k in range(1, 1024)]
        assert all(
            abs(values[k - 1] + values[1023 - k]) <= 1e-14 for k in range(1, 1024)
        )
        assert abs(phi_inv(0.9) - 1.21139) <= 1e-5


def test_criterion_2_closed_form_paths():
    grid = alpha_grid(DEFAULT_GRID)
    with criterion(2, "closed-form paths for constant driver", budget_seconds=None):
        for order, initial in ((2, [0.3, -0.2]), (3, [0.3, -0.2, 0.1])):
            spec = polynomial_spec(order, initial=initial, horizon=1.0, step=1e-3)
            start = time.perf_counter()
            fan = solve_fan(spec, grid)
            fan_seconds = time.perf_counter() - start
            assert fan_seconds < 1.0, f"order {order} fan took {fan_seconds:.2f}s"
            times = fan.times
            poly = sum(
                times**k / math.factorial(k) * initial[k] for k in range(order)
            )
            tail = times**order / math.factorial(order)
            for alpha, position in zip(fan.grid, fan.positions):
                exact = poly + phi_inv(alpha) * tail
                assert np.max(np.abs(position - exact)) <= 1e-10


def test_criterion_3_rk4_convergence_order():
    with criterion(3, "fourth-order convergence of the integrator", 5.0):
        alpha = 0.8

        def endpoint(step: float) -> float:
            spec = tanh_spec(2, initial=[0.1, 0.0], horizon=1.0, step=step)
            return float(solve_fan(spec, [alpha]).positions[0, -1])

        errors = []
        for h in (1e-2, 5e-3, 2.5e-3):
            errors.append(abs(endpoint(h) - endpoint(h / 16.0)))
        assert errors[0] / errors[1] >= 13.0
        assert errors[1] / errors[2] >= 13.0


def test_criterion_4_integral_residual():
    with criterion(4, "integral-form residual", 5.0):
        poly = polynomial_spec(2, horizon=1.0, step=1e-3)
        r_poly = integral_residual(solve_fan(poly, [0.9]), 0)
        assert r_poly.max_residual <= 1e-10

        tanh_h = tanh_spec(2, step=1e-3)
        r_tanh = integral_residual(solve_fan(tanh_h, [0.9]), 0)
        assert r_tanh.max_residual <= 1e-6

        tanh_h2 = tanh_spec(2, step=5e-4)
        r_half = integral_residual(solve_fan(tanh_h2, [0.9]), 0)
        assert r_tanh.max_residual / r_half.max_residual >= 8.0


def test_criterion_5_fan_monotonicity():
    grid = alpha_grid(DEFAULT_GRID)
    with criterion(5, "strict fan ordering in alpha", 10.0):
        cases = [
            polynomial_spec(2, step=1e-3),
            polynomial_spec(3, step=1e-3),
            tanh_spec(2, step=1e-3),
            tanh_spec(3, step=1e-3),
        ]
        for spec in cases:
            fan = solve_fan(spec, grid)
            report = check_monotone(fan)
            assert report.passed and not report.vacuous, spec
            assert report.min_gap > 0.0


def test_criterion_6_dominance_oracle():
    with criterion(6, "trajectory dominance for sampled drivers", 60.0):
        step = 1.0 / 800  # 25 solver steps per surrogate segment
        cases = [
            polynomial_spec(2, step=step),
            polynomial_spec(3, step=step),
            tanh_spec(2, step=step),
            tanh_spec(3, step=step),
        ]
        for spec in cases:
            reports = dominance_checks(
                spec,
                alphas=[0.2, 0.8],
                delta=0.05,
                n_paths=200,
                segments=32,
                seed=20240811,
            )
            assert [(r.alpha, r.side) for r in reports] == [
                (0.2, "below"), (0.2, "above"), (0.8, "below"), (0.8, "above")
            ]
            for report in reports:
                key = (spec.order, report.alpha, report.side)
                assert report.passed, (*key, report.violations[:3])
                assert report.paths_tested == 200


def test_criterion_7_hypothesis_checkers():
    grid = alpha_grid(DEFAULT_GRID)
    small = alpha_grid(AlphaGridSpec(count=9, lo=0.1))
    with criterion(7, "hypothesis checkers localize failures", 5.0):
        bad_drift = UdeSpec.from_strings(2, "0-x0", "1", [0.1, 0.0], 1.0, 1e-2)
        fan = solve_fan(bad_drift, small)
        report = check_condition_h(fan, samples=64, seed=3)
        assert not report.passed
        assert abs(report.min_partial - (-1.0)) <= 1e-6

        bad_diffusion = UdeSpec.from_strings(2, "0", "t-0.5", [0.0, 0.0], 1.0, 1e-2)
        fan = solve_fan(bad_diffusion, small)
        reg = check_regularity(fan)
        assert not reg.passed
        assert reg.violations and max(t for _, t, _ in reg.violations) <= 0.5 + 1e-12

        for spec in (polynomial_spec(2, step=1e-3), tanh_spec(2, step=1e-3)):
            fan = solve_fan(spec, grid)
            assert check_regularity(fan).passed
            assert check_condition_h(fan, samples=256, seed=3).passed


def test_criterion_8_distribution_round_trip():
    grid = alpha_grid(DEFAULT_GRID)
    spec = polynomial_spec(2, initial=[1.0, 2.0], horizon=1.0, step=1e-3)
    with criterion(8, "distribution round trip and expected value", 1.0):
        fan = solve_fan(spec, grid)
        table = inverse_distribution(fan, 1.0)
        for alpha, x in table.entries:
            result = distribution_at(table, x)
            assert abs(result.alpha - alpha) <= 1e-12
            assert not result.saturated
        for t in (0.5, 1.0):
            mean = expected_value(inverse_distribution(fan, t))
            assert abs(mean - (1.0 + 2.0 * t)) <= 1e-12


def test_criterion_9_reproducibility(tmp_path):
    config_text = """\
order   = 2
f       = "x0"
g       = "2 + tanh(x0)"
initial = [0.1, 0]
horizon = 1.0
step    = 0.00125
alpha.count = 99
alpha.lo    = 0.01
oracle.delta    = 0.05
oracle.n_paths  = 200
oracle.segments = 32
oracle.seed     = 20240811
output.formats  = [csv, json]
"""
    config_path = tmp_path / "run.conf"
    config_path.write_text(config_text, encoding="utf-8")
    compared = ("fan.csv", "fan.json", "oracle.json")
    with criterion(9, "byte-identical artifacts across reruns", 60.0):
        artifacts = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
            assert (
                main(
                    ["oracle", "--config", str(config_path), "--out", str(out), "--force"]
                )
                == 0
            )
            artifacts.append(
                {artifact: (out / artifact).read_bytes() for artifact in compared}
            )
        for artifact in compared:
            assert artifacts[0][artifact] == artifacts[1][artifact], artifact
