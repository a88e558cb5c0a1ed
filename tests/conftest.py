"""Shared spec builders for the test suite.

The two workhorse problems: a driver-only polynomial case with known
closed-form paths, and a nonlinear case whose drift/diffusion satisfy the
positivity and position-monotonicity hypotheses everywhere.
"""

from __future__ import annotations

import math

import pytest

from alphapath import AlphaGridSpec, RegularityCheck, UdeSpec, alpha_grid, solve_fan
from alphapath.expr import compile_evaluator, evaluate


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
    for path in fan.paths:
        for t, row in zip(path.times.tolist(), path.states.tolist()):
            try:
                gv = g_fn(t, row)
            except (ValueError, OverflowError, ZeroDivisionError):
                gv = math.nan
            if not math.isnan(gv) and gv < min_value:
                min_value = gv
                min_alpha = path.alpha
                min_time = t
            if not gv > 0.0:
                violations.append((path.alpha, t, gv))
    return RegularityCheck(
        passed=not violations,
        min_value=min_value,
        min_alpha=min_alpha,
        min_time=min_time,
        violations=violations,
    )


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
