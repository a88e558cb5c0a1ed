"""Tests for the quantile function, alpha grids, spec validation, and the
companion first-order reduction, observed through one-step solves."""

from __future__ import annotations

import math
import random

import pytest

from alphapath import (
    AlphaGridSpec,
    UdeSpec,
    alpha_grid,
    phi_inv,
    solve_fan,
    validate_spec,
)
from alphapath.errors import ConfigError, DomainError
from alphapath.expr import evaluate, parse_source

from conftest import (
    companion_rhs,
    driven,
    one_step_spec,
    reference_rk4_step,
    tanh_spec,
)


def test_phi_inv_center_is_exactly_zero():
    assert phi_inv(0.5) == 0.0


def test_phi_inv_antisymmetry():
    # dyadic grid so the mirror value 1 - alpha is exact
    for k in range(1, 1024):
        a = k / 1024
        assert abs(phi_inv(a) + phi_inv(1.0 - a)) <= 1e-14


def test_phi_inv_spot_value():
    # direct evaluation of (sqrt(3)/pi) * ln(0.9/0.1)
    assert phi_inv(0.9) == pytest.approx(1.21139, abs=1e-5)


def test_phi_inv_strictly_increasing_on_fine_grid():
    values = [phi_inv(k / 1001) for k in range(1, 1001)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7, math.nan])
def test_phi_inv_domain(alpha):
    with pytest.raises(DomainError):
        phi_inv(alpha)


def test_alpha_grid_three_points():
    assert alpha_grid(AlphaGridSpec(count=3, lo=0.25)) == [0.25, 0.5, 0.75]


def test_alpha_grid_default_resolution():
    grid = alpha_grid(AlphaGridSpec())
    assert len(grid) == 99
    assert grid[0] == 0.01
    assert grid[-1] == pytest.approx(0.99, abs=1e-15)
    assert grid[49] == 0.5
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert all(0.0 < a < 1.0 for a in grid)


def test_alpha_grid_symmetry_pairs():
    grid = alpha_grid(AlphaGridSpec(count=99, lo=0.01))
    for a, b in zip(grid, reversed(grid)):
        assert abs(a + b - 1.0) <= 1e-15


def test_alpha_grid_rejects_even_count():
    with pytest.raises(ConfigError):
        alpha_grid(AlphaGridSpec(count=2, lo=0.25))


@pytest.mark.parametrize("count,lo", [(1, 0.25), (9, 0.0), (9, 0.5), (9, -0.1)])
def test_alpha_grid_rejects_bad_parameters(count, lo):
    with pytest.raises(ConfigError):
        alpha_grid(AlphaGridSpec(count=count, lo=lo))


def _one_step(spec, alpha):
    return tuple(solve_fan(spec, [alpha]).states[0, -1])


def test_companion_constant_driver():
    h = 0.3
    c = phi_inv(0.9)
    x, v = _one_step(one_step_spec(2, "0", "1", [2.0, 5.0], h), 0.9)
    assert v == pytest.approx(5.0 + c * h, rel=1e-14)
    assert x == pytest.approx(2.0 + 5.0 * h + c * h * h / 2.0, rel=1e-14)
    assert (v - 5.0) / h == pytest.approx(1.21139, abs=1e-5)


def test_companion_median_alpha_drops_driver():
    h = 0.25
    x, v = _one_step(one_step_spec(2, "0", "1", [1.0, 2.0], h), 0.5)
    assert v == 2.0
    assert x == pytest.approx(1.0 + 2.0 * h, rel=1e-15)


def test_companion_median_equals_drift_only():
    f = parse_source("x0", 2)

    def drift_only(t, y):
        return (y[1], evaluate(f, {"t": t, "x0": y[0], "x1": y[1]}))

    rng = random.Random(3)
    for _ in range(20):
        h = rng.uniform(0.01, 0.5)
        y = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        spec = one_step_spec(2, "x0", "2+tanh(x0)", y, h)
        assert _one_step(spec, 0.5) == reference_rk4_step(drift_only, 0.0, y, h)


def test_companion_order_three_structure():
    alpha = 0.73
    h = 0.1
    y = (0.4, -1.1, 2.2)
    spec = one_step_spec(3, "x0", "2+tanh(x0)", y, h)
    # the reference right-hand side is (x1, x2, x0 + (2 + tanh(x0)) * c)
    rhs = companion_rhs(spec, phi_inv(alpha))
    assert rhs(0.0, y)[:2] == (-1.1, 2.2)
    assert _one_step(spec, alpha) == reference_rk4_step(rhs, 0.0, y, h)


def test_companion_shift_components_pass_through():
    # with a zero top row, each chain row's stage derivatives are the stage
    # states of the row above, taken as they are
    h = 0.25
    hh, w = 0.5 * h, h / 6.0
    y0, y1, y2 = 1.5, -0.75, 2.5
    spec = one_step_spec(3, "0", "0", [y0, y1, y2], h)
    a1 = y1 + hh * y2
    e1 = y1 + h * y2
    z1 = y1 + w * (y2 + 2.0 * (y2 + y2) + y2)
    z0 = y0 + w * (y1 + 2.0 * (a1 + a1) + e1)
    assert _one_step(spec, 0.25) == (z0, z1, y2)


def test_companion_uses_absolute_diffusion():
    h = 0.2
    negative = _one_step(one_step_spec(2, "0", "0-1", [0.0, 0.0], h), 0.9)
    positive = _one_step(one_step_spec(2, "0", "1", [0.0, 0.0], h), 0.9)
    # g is -1 but the driver weight is |g|
    assert negative == positive
    assert negative[1] == pytest.approx(phi_inv(0.9) * h, rel=1e-14)


def test_pathwise_system_keeps_diffusion_sign():
    h = 0.2
    spec = one_step_spec(2, "0", "0-1", [0.0, 0.0], h)
    mirrored = one_step_spec(2, "0", "1", [0.0, 0.0], h)
    out = driven(spec, [[2.0]])[0][0, -1]
    reference = driven(mirrored, [[-2.0]])[0][0, -1]
    assert tuple(out) == tuple(reference)
    assert out[1] == pytest.approx(-2.0 * h, rel=1e-14)


def test_validate_spec_accepts_valid():
    assert validate_spec(tanh_spec(2)) == []


def test_validate_spec_initial_count():
    spec = UdeSpec.from_strings(2, "0", "1", [0.0], 1.0, 1e-3)
    report = validate_spec(spec)
    assert any("initial condition count" in p for p in report)


def test_validate_spec_unknown_variable():
    # g referencing x2 inside an order-2 spec (tree built against order 3)
    g = parse_source("x2", 3)
    spec = UdeSpec(
        order=2,
        drift=parse_source("0", 2),
        diffusion=g,
        initial=(0.0, 0.0),
        horizon=1.0,
        step=1e-3,
    )
    report = validate_spec(spec)
    assert any("unknown variable" in p for p in report)


def test_validate_spec_reports_all_failures():
    g = parse_source("x2", 3)
    spec = UdeSpec(
        order=2,
        drift=parse_source("0", 2),
        diffusion=g,
        initial=(0.0,),
        horizon=1.0,
        step=0.3,
    )
    report = validate_spec(spec)
    assert len(report) >= 3  # count, ratio, unknown variable


def test_validate_spec_step_ratio():
    spec = UdeSpec.from_strings(2, "0", "1", [0.0, 0.0], 1.0, 0.3)
    assert any("node count" in p for p in validate_spec(spec))
    ok = UdeSpec.from_strings(2, "0", "1", [0.0, 0.0], 1.0, 0.125)
    assert validate_spec(ok) == []


def test_validate_spec_nonfinite_initial():
    spec = UdeSpec.from_strings(2, "0", "1", [math.inf, 0.0], 1.0, 1e-3)
    assert any("finite" in p for p in validate_spec(spec))


def test_validate_spec_step_exceeds_horizon():
    spec = UdeSpec.from_strings(2, "0", "1", [0.0, 0.0], 1.0, 2.0)
    assert any("exceeds horizon" in p for p in validate_spec(spec))
