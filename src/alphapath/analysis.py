"""Hypothesis checks and distribution-level outputs over a solved fan.

Two hypotheses make the alpha-path family a valid inverse uncertainty
distribution: the diffusion must stay strictly positive along trajectories
(regularity), and both drift and diffusion must be non-decreasing in the
position argument x0 (the monotonicity condition used by the comparison
argument). The checkers here evaluate both constructively on a computed
fan and report every violation found rather than stopping at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .core import UdeSpec
from .errors import ConfigError, DomainError, MonotonicityError
from .solver import AlphaFan

# finite-difference noise must not fail boundary cases like df/dx0 == 0,
# so the monotonicity condition is tested against -TOL_CONDITION_H, not 0
TOL_CONDITION_H = 1e-8

# relative step of the condition-h central differences: h = step * max(1, |x0|),
# balancing truncation against roundoff in doubles
FD_STEP_CONDITION_H = 1e-6

# JSON exports keep at most this many violation entries (full lists stay
# on the report objects); the total count is always exported
MAX_EXPORTED_VIOLATIONS = 1000


@dataclass
class RegularityCheck:
    """Sign audit of the diffusion along every stored path at every node."""

    passed: bool
    min_value: float
    min_alpha: float
    min_time: float
    violations: list[tuple[float, float, float]]  # (alpha, t, g value)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_value": self.min_value,
            "min_alpha": self.min_alpha,
            "min_time": self.min_time,
            "violations_total": len(self.violations),
            "violations": [
                list(v) for v in self.violations[:MAX_EXPORTED_VIOLATIONS]
            ],
        }


@dataclass
class ConditionHCheck:
    """Finite-difference audit of df/dx0 and dg/dx0 over path nodes and
    sampled points near the fan."""

    passed: bool
    sampled_points: int
    min_partial: float
    min_function: str  # 'f' or 'g'
    min_env: dict[str, float]
    violations: list[dict]  # {"function", "env", "value"}

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "sampled_points": self.sampled_points,
            "min_partial": self.min_partial,
            "min_function": self.min_function,
            "min_env": self.min_env,
            "violations_total": len(self.violations),
            "violations": self.violations[:MAX_EXPORTED_VIOLATIONS],
        }


@dataclass
class HypothesisReport:
    """Combined regularity plus position-monotonicity verdict for one fan."""

    regularity: RegularityCheck
    condition_h: ConditionHCheck

    @property
    def passed(self) -> bool:
        return self.regularity.passed and self.condition_h.passed

    @property
    def sampled_points(self) -> int:
        return self.condition_h.sampled_points

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "regularity": self.regularity.to_dict(),
            "condition_h": self.condition_h.to_dict(),
            "sampled_points": self.sampled_points,
        }


@dataclass
class MonotoneCheck:
    """Strict ordering audit of adjacent alpha-paths at every node t >= h."""

    passed: bool
    vacuous: bool
    note: str
    min_gap: float
    min_gap_time: float
    min_gap_pair: tuple[float, float] | None
    first_crossing: tuple[float, float, float, float] | None  # (t, a_lo, a_hi, gap)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "vacuous": self.vacuous,
            "note": self.note,
            "min_gap": self.min_gap,
            "min_gap_time": self.min_gap_time,
            "min_gap_pair": list(self.min_gap_pair) if self.min_gap_pair else None,
            "first_crossing": list(self.first_crossing)
            if self.first_crossing
            else None,
        }


def check_regularity(fan: AlphaFan) -> RegularityCheck:
    """Read g along every path at every node, as the solver recorded it; pass
    iff every value is strictly positive. The minimum is the first smallest
    value in path order, then node order; nan is a violation, never the
    minimum."""
    min_value, min_alpha, min_time = math.inf, math.nan, math.nan
    for path in fan.paths:
        g = path.diffusion
        j = int(np.argmin(np.where(np.isnan(g), math.inf, g)))
        if g[j] < min_value:
            min_value = float(g[j])
            min_alpha = path.alpha
            min_time = float(path.times[j])
    violations = [
        (path.alpha, t, gv) for path in fan.paths for t, gv in path.diffusion_warnings
    ]
    return RegularityCheck(
        passed=not violations,
        min_value=min_value,
        min_alpha=min_alpha,
        min_time=min_time,
        violations=violations,
    )


def check_condition_h(
    spec: UdeSpec,
    fan: AlphaFan,
    samples: int = 256,
    seed: int = 0,
) -> ConditionHCheck:
    """Finite-difference check that df/dx0 >= 0 and dg/dx0 >= 0.

    Partials are sampled (a) at every node of every path and (b) at
    ``samples`` pseudo-random points drawn from the bounding box of the
    fan's states inflated by 10 percent, with t uniform over the horizon.
    Each is a central difference with step FD_STEP_CONDITION_H * max(1, |x0|)
    on the compiled f and g the solver integrates. A value is a violation
    when it falls below -TOL_CONDITION_H. A point where f or g fails or is
    not finite is re-run through ``expr.evaluate``, whose NonFiniteError
    names the failing subexpression.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    names = expr.state_variables(spec.order)
    trees = (spec.drift, spec.diffusion)
    f_fn, g_fn = (expr.compile_evaluator(tree, spec.order) for tree in trees)

    all_states = np.concatenate([p.states for p in fan.paths], axis=0)
    lo = all_states.min(axis=0)
    hi = all_states.max(axis=0)
    pad = 0.05 * (hi - lo)  # 10% total inflation, centered
    rng = np.random.default_rng(seed)
    t_draw = rng.uniform(0.0, spec.horizon, samples)
    state_draw = rng.uniform(lo - pad, hi + pad, size=(samples, spec.order))

    def points():
        # one path's rows at a time, so the audit never holds every node
        for path in fan.paths:
            yield from zip(path.times.tolist(), path.states.tolist())
        yield from zip(t_draw.tolist(), state_draw.tolist())

    min_partial = math.inf
    min_function = "f"
    min_env: dict[str, float] = {}
    violations: list[dict] = []
    for t, row in points():
        x = row[0]
        h = FD_STEP_CONDITION_H * max(1.0, abs(x))
        try:
            row[0] = x + h
            f_hi, g_hi = f_fn(t, row), g_fn(t, row)
            row[0] = x - h
            f_lo, g_lo = f_fn(t, row), g_fn(t, row)
            df = (f_hi - f_lo) / (2.0 * h)
            dg = (g_hi - g_lo) / (2.0 * h)
        except (ValueError, OverflowError, ZeroDivisionError):
            df = dg = math.nan
        row[0] = x
        if not (math.isfinite(df) and math.isfinite(dg)):
            hi_env = dict(zip(names, [t, x + h, *row[1:]]))
            lo_env = dict(zip(names, [t, x - h, *row[1:]]))
            df, dg = (
                (expr.evaluate(tree, hi_env) - expr.evaluate(tree, lo_env)) / (2.0 * h)
                for tree in trees
            )
        for label, value in (("f", df), ("g", dg)):
            if value < min_partial:
                min_partial = value
                min_function = label
                min_env = dict(zip(names, [t, *row]))
            if value < -TOL_CONDITION_H:
                env = dict(zip(names, [t, *row]))
                violations.append({"function": label, "env": env, "value": value})
    return ConditionHCheck(
        passed=not violations,
        sampled_points=samples + sum(len(path.times) for path in fan.paths),
        min_partial=min_partial,
        min_function=min_function,
        min_env=min_env,
        violations=violations,
    )


def check_hypotheses(
    spec: UdeSpec,
    fan: AlphaFan,
    samples: int = 256,
    seed: int = 0,
) -> HypothesisReport:
    """Run both hypothesis checks and bundle the fragments."""
    return HypothesisReport(
        regularity=check_regularity(fan),
        condition_h=check_condition_h(spec, fan, samples=samples, seed=seed),
    )


def check_monotone(fan: AlphaFan) -> MonotoneCheck:
    """Assert x_t^alpha strictly increasing across adjacent alphas at t >= h.

    At t = 0 all paths share the initial value, so equality is required
    there instead. Strictness means a positive gap in double precision; no
    fixed margin is imposed. A single-alpha fan passes vacuously, flagged.
    """
    if len(fan.paths) < 2:
        return MonotoneCheck(
            passed=True,
            vacuous=True,
            note="insufficient grid",
            min_gap=math.nan,
            min_gap_time=math.nan,
            min_gap_pair=None,
            first_crossing=None,
        )
    positions = np.stack([p.position for p in fan.paths])  # (m, N+1)
    gaps = np.diff(positions, axis=0)  # (m-1, N+1)
    times = fan.paths[0].times
    start_equal = bool((gaps[:, 0] == 0.0).all())
    interior = gaps[:, 1:]
    strictly_ordered = bool((interior > 0.0).all())

    flat = int(np.argmin(interior))
    pair_i, col_j = divmod(flat, interior.shape[1])
    min_gap = float(interior[pair_i, col_j])
    min_gap_time = float(times[col_j + 1])
    min_gap_pair = (fan.grid[pair_i], fan.grid[pair_i + 1])

    first_crossing = None
    if not strictly_ordered:
        bad_cols = np.nonzero((interior <= 0.0).any(axis=0))[0]
        j = int(bad_cols[0])
        i = int(np.nonzero(interior[:, j] <= 0.0)[0][0])
        first_crossing = (
            float(times[j + 1]),
            fan.grid[i],
            fan.grid[i + 1],
            float(interior[i, j]),
        )
    note = "" if start_equal else "paths do not coincide at t=0"
    return MonotoneCheck(
        passed=strictly_ordered and start_equal,
        vacuous=False,
        note=note,
        min_gap=min_gap,
        min_gap_time=min_gap_time,
        min_gap_pair=min_gap_pair,
        first_crossing=first_crossing,
    )


@dataclass
class DistributionTable:
    """Tabulated inverse uncertainty distribution alpha -> x at one time.

    ``degenerate`` marks t = 0 where every path starts from the same value
    and the table carries no distributional information.
    """

    t: float
    alphas: np.ndarray
    values: np.ndarray
    degenerate: bool = False

    @property
    def entries(self) -> list[tuple[float, float]]:
        return [(float(a), float(x)) for a, x in zip(self.alphas, self.values)]


@dataclass(frozen=True)
class DistributionPoint:
    """Forward-distribution estimate; ``saturated`` marks clamping at the
    table's alpha range."""

    alpha: float
    saturated: bool


def _snap_to_node(fan: AlphaFan, t: float) -> int:
    times = fan.paths[0].times
    horizon = float(times[-1])
    if len(times) < 2:
        raise ConfigError("fan has no interior nodes")
    h = float(times[1] - times[0])
    if not math.isfinite(t) or t < -0.5 * h or t > horizon + 0.5 * h:
        raise DomainError(f"t={t} out of range [0, {horizon}]")
    j = int(round(t / h))
    j = min(max(j, 0), len(times) - 1)
    if abs(t - float(times[j])) > 0.5 * h * (1.0 + 1e-9):
        raise DomainError(f"t={t} is not within h/2 of a grid node")
    return j


def inverse_distribution(fan: AlphaFan, t: float) -> DistributionTable:
    """Read the fan at (the node nearest) t as a table (alpha, x_t^alpha).

    Requires strict monotonicity across alphas at that node; at t = 0 the
    table is the common initial value, returned flagged degenerate instead.
    """
    j = _snap_to_node(fan, t)
    column = np.array([p.position[j] for p in fan.paths])
    if j > 0 and len(fan.paths) > 1 and not (np.diff(column) > 0.0).all():
        raise MonotonicityError(
            f"fan is not strictly increasing in alpha at t={float(fan.paths[0].times[j])}"
        )
    return DistributionTable(
        t=float(fan.paths[0].times[j]),
        alphas=np.array(fan.grid, dtype=float),
        values=column,
        degenerate=(j == 0),
    )


def distribution_at(table: DistributionTable, x: float) -> DistributionPoint:
    """Invert the monotone table by piecewise-linear interpolation.

    Outside the tabulated x range the result clamps to the table's alpha
    endpoints with the saturation flag set. Assumes the table is strictly
    increasing in x.
    """
    xs = table.values
    if x < xs[0]:
        return DistributionPoint(float(table.alphas[0]), True)
    if x > xs[-1]:
        return DistributionPoint(float(table.alphas[-1]), True)
    return DistributionPoint(float(np.interp(x, xs, table.alphas)), False)


def expected_value(fan: AlphaFan, t: float) -> float:
    """Mean of the tabulated distribution at t by trapezoid quadrature.

    The quadrature runs over the covered alpha range [lo, 1-lo] and is
    normalized by its width; the uncovered tails are not extrapolated. On a
    symmetric grid the odd part of the fan cancels pairwise, so the result
    reproduces the drift-only trajectory for driver-independent means.
    """
    grid = fan.grid
    if len(grid) < 2:
        raise ConfigError("insufficient grid: expected value needs >= 2 alphas")
    for a, b in zip(grid, reversed(grid)):
        if abs((a + b) - 1.0) > 1e-12:
            raise ConfigError("alpha grid is not symmetric about 0.5")
    table = inverse_distribution(fan, t)
    alphas, column = table.alphas, table.values
    widths = np.diff(alphas)
    integral = float(np.sum(0.5 * widths * (column[:-1] + column[1:])))
    return integral / float(alphas[-1] - alphas[0])
