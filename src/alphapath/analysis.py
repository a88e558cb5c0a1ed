"""Hypothesis checks and distribution-level outputs over a solved fan.

Two hypotheses make the alpha-path family a valid inverse uncertainty
distribution: the diffusion must stay strictly positive along trajectories
(regularity), and both drift and diffusion must be non-decreasing in the
position argument x0 (the monotonicity condition used by the comparison
argument); and the fan must be strictly ordered in alpha. The checkers
here evaluate each constructively on a computed fan and report every
violation found rather than stopping at the first. ``check_hypotheses`` runs
all three: its report is the one verdict, and its ``to_dict`` is checks.json.
Each reads the fan's arrays (``diffusion``, ``states``, ``positions``) whole;
condition H's partials come from ``solver``, which alone decides where they
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import expr, solver
from .errors import ConfigError, DomainError, MonotonicityError
from .solver import AlphaFan

# finite-difference noise must not fail boundary cases like df/dx0 == 0,
# so the monotonicity condition is tested against -TOL_CONDITION_H, not 0
TOL_CONDITION_H = 1e-8

# relative step of the condition-h central differences: h = step * max(1, |x0|),
# balancing truncation against roundoff in doubles
FD_STEP_CONDITION_H = 1e-6

# violation entries a JSON export keeps; the report keeps them all
MAX_EXPORTED_VIOLATIONS = 1000


class Report:
    """Base of the check reports, for their one JSON export."""

    def to_dict(self) -> dict:
        """Every dataclass field, a nested report as its own dict, and
        ``passed``; ``violations`` is capped at MAX_EXPORTED_VIOLATIONS, with
        the full count in ``violations_total``."""
        out = {
            f.name: v.to_dict() if isinstance(v := getattr(self, f.name), Report) else v
            for f in fields(self)
        }
        out["passed"] = self.passed
        if "violations" in out:
            out["violations_total"] = len(self.violations)
            out["violations"] = self.violations[:MAX_EXPORTED_VIOLATIONS]
        return out


@dataclass
class RegularityCheck(Report):
    """Sign audit of the diffusion along every stored path at every node."""

    passed: bool
    min_value: float
    min_alpha: float
    min_time: float
    violations: list[tuple[float, float, float]]  # (alpha, t, g value)


@dataclass
class ConditionHCheck(Report):
    """Finite-difference audit of df/dx0 and dg/dx0 over path nodes and
    sampled points near the fan."""

    passed: bool
    sampled_points: int
    min_partial: float
    min_function: str  # 'f' or 'g'
    min_env: dict[str, float]
    violations: list[dict]  # {"function", "env", "value"}


@dataclass
class MonotoneCheck(Report):
    """Strict ordering audit of adjacent alpha-paths at every node t >= h."""

    passed: bool
    vacuous: bool
    note: str
    min_gap: float
    min_gap_time: float
    min_gap_pair: tuple[float, float] | None
    first_crossing: tuple[float, float, float, float] | None  # (t, a_lo, a_hi, gap)


@dataclass
class HypothesisReport(Report):
    """The verdict on one fan: every check, in the order it is reported."""

    regularity: RegularityCheck
    condition_h: ConditionHCheck
    monotone: MonotoneCheck

    @property
    def failed(self) -> list[str]:
        """Names of the failing checks, in field order."""
        return [f.name for f in fields(self) if not getattr(self, f.name).passed]

    @property
    def passed(self) -> bool:
        return not self.failed


def check_regularity(fan: AlphaFan) -> RegularityCheck:
    """Read g along every path at every node, as the solver recorded it; pass
    iff every value is strictly positive. The minimum is the first smallest
    value in path order, then node order; nan is a violation, never the
    minimum. When every value is positive, as on a fan that passes, g is
    read once more for its minimum and there is nothing else to find."""
    g = fan.diffusion
    positive = bool((g > 0.0).all())  # no nan and no violation
    first = np.argmin(g if positive else np.where(np.isnan(g), math.inf, g))
    r, j = np.unravel_index(first, g.shape)  # row-major
    min_value, min_alpha, min_time = math.inf, math.nan, math.nan
    if g[r, j] < min_value:
        min_value, min_alpha = float(g[r, j]), fan.grid[r]
        min_time = float(fan.times[j])
    violations = []
    if not positive:
        low = ~(g > 0.0)
        rows, nodes = np.nonzero(low)  # row-major: path order, then node order
        alphas = [fan.grid[i] for i in rows.tolist()]
        violations = list(zip(alphas, fan.times[nodes].tolist(), g[low].tolist()))
    return RegularityCheck(
        passed=not violations,
        min_value=min_value,
        min_alpha=min_alpha,
        min_time=min_time,
        violations=violations,
    )


def check_condition_h(
    fan: AlphaFan, samples: int = 256, seed: int = 0
) -> ConditionHCheck:
    """Finite-difference check that df/dx0 >= 0 and dg/dx0 >= 0 for the f and
    g of ``fan.spec``.

    Partials are taken (a) at every node of every path and (b) at
    ``samples`` pseudo-random points drawn from the bounding box of the
    fan's states inflated by 10 percent, with t uniform over the horizon.
    Each is a central difference with step FD_STEP_CONDITION_H * max(1, |x0|)
    on the f and g the solver integrates, taken by
    ``solver.condition_h_partials`` once per path and once over the sampled
    points. A value is a violation when it falls below -TOL_CONDITION_H. The
    minimum is the first smallest partial in point order, f before g at each
    point.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    spec = fan.spec
    names = expr.state_variables(spec.order)

    # column by column: a reduction along axis 0 of the (points, n) states
    # is about 15 times slower for the same values
    columns = fan.states.reshape(-1, spec.order).T
    lo = np.array([column.min() for column in columns])
    hi = np.array([column.max() for column in columns])
    pad = 0.05 * (hi - lo)  # 10% total inflation, centered
    rng = np.random.default_rng(seed)
    t_draw = rng.uniform(0.0, spec.horizon, samples)
    state_draw = rng.uniform(lo - pad, hi + pad, size=(samples, spec.order))
    points = [(fan.times, states) for states in fan.states] + [(t_draw, state_draw)]
    groups = [
        (times, states, FD_STEP_CONDITION_H * np.maximum(1.0, np.abs(states[:, 0])))
        for times, states in points
    ]

    min_partial = math.inf
    min_function = "f"
    min_env: dict[str, float] = {}
    violations: list[dict] = []
    partials = solver.condition_h_partials(spec, groups)
    for (times, states, _), values in zip(groups, partials):
        flat = values.ravel()  # point by point, f then g

        def env(i: int) -> dict[str, float]:
            point = i // 2
            return dict(zip(names, [float(times[point]), *states[point].tolist()]))

        first = int(np.argmin(flat))
        if flat[first] < min_partial:
            min_partial = float(flat[first])
            min_function = "fg"[first % 2]
            min_env = env(first)
        for i in np.nonzero(flat < -TOL_CONDITION_H)[0].tolist():
            label, value = "fg"[i % 2], float(flat[i])
            violations.append({"function": label, "env": env(i), "value": value})
    return ConditionHCheck(
        passed=not violations,
        sampled_points=samples + fan.diffusion.size,
        min_partial=min_partial,
        min_function=min_function,
        min_env=min_env,
        violations=violations,
    )


def check_hypotheses(
    fan: AlphaFan, samples: int = 256, seed: int = 0
) -> HypothesisReport:
    """Run every check on the fan: regularity, condition H (``samples`` and
    ``seed`` are its sampled points) and fan order."""
    return HypothesisReport(
        regularity=check_regularity(fan),
        condition_h=check_condition_h(fan, samples=samples, seed=seed),
        monotone=check_monotone(fan),
    )


def check_monotone(fan: AlphaFan) -> MonotoneCheck:
    """Assert x_t^alpha strictly increasing across adjacent alphas at t >= h.

    At t = 0 all paths share the initial value, so equality is required
    there instead. Strictness means a positive gap in double precision; no
    fixed margin is imposed. A single-alpha fan passes vacuously, flagged.
    """
    if len(fan.grid) < 2:
        return MonotoneCheck(
            passed=True,
            vacuous=True,
            note="insufficient grid",
            min_gap=math.nan,
            min_gap_time=math.nan,
            min_gap_pair=None,
            first_crossing=None,
        )
    gaps = np.diff(fan.positions, axis=0)  # (m-1, N+1)
    times = fan.times
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


def snap_to_node(times: np.ndarray, t: float) -> int:
    """Index of the node of the uniform grid ``times`` nearest t (h/2 at most)."""
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
    j = snap_to_node(fan.times, t)
    column = fan.positions[:, j].copy()  # the table does not alias the fan
    if j > 0 and len(column) > 1 and not (np.diff(column) > 0.0).all():
        raise MonotonicityError(
            f"fan is not strictly increasing in alpha at t={float(fan.times[j])}"
        )
    return DistributionTable(
        t=float(fan.times[j]),
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


def expected_value(table: DistributionTable) -> float:
    """Mean of the tabulated distribution by trapezoid quadrature.

    The quadrature runs over the covered alpha range [lo, 1-lo] and is
    normalized by its width; the uncovered tails are not extrapolated. On a
    symmetric grid the odd part of the fan cancels pairwise, so the result
    reproduces the drift-only trajectory for driver-independent means. A
    degenerate table (t = 0) gives the common initial value exactly.
    """
    alphas, column = table.alphas, table.values
    if len(alphas) < 2:
        raise ConfigError("insufficient grid: expected value needs >= 2 alphas")
    for a, b in zip(alphas, reversed(alphas)):
        if abs((a + b) - 1.0) > 1e-12:
            raise ConfigError("alpha grid is not symmetric about 0.5")
    if table.degenerate:
        return float(column[0])
    widths = np.diff(alphas)
    integral = float(np.sum(0.5 * widths * (column[:-1] + column[1:])))
    return integral / float(alphas[-1] - alphas[0])
