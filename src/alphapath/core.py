"""Problem specifications, the inverse normal uncertainty quantile, and
alpha grids.

An order-n problem prescribes x^(n) = f(t, x0..x{n-1}) + g(t, x0..x{n-1}) * dC/dt
with n initial values (position and derivatives at t = 0). For a fixed
alpha in (0, 1) the driver derivative is replaced by the constant
phi_inv(alpha), weighted by |g|, which turns the problem into an ordinary
ODE whose solution is the alpha-path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import expr
from .errors import ConfigError, DomainError

SQRT3_OVER_PI = math.sqrt(3.0) / math.pi


def phi_inv(alpha: float) -> float:
    """Inverse standard normal uncertainty distribution: (sqrt(3)/pi) * ln(a/(1-a)).

    Strictly increasing on (0, 1), odd about alpha = 0.5, and exactly zero
    at 0.5. This is the uncertainty-theory normal, not the Gaussian quantile.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return SQRT3_OVER_PI * math.log(alpha / (1.0 - alpha))


@dataclass(frozen=True)
class UdeSpec:
    """Order-n problem definition.

    ``initial`` holds exactly n values: position and its first n-1
    derivatives at t = 0. ``horizon`` / ``step`` must give an integer node
    count, within 1e-9 or, beyond about 2 * 10**6 nodes, within 4 units in
    the last place of the ratio (see ``grid_problems``).
    """

    order: int
    drift: expr.ExprAst  # f
    diffusion: expr.ExprAst  # g
    initial: tuple[float, ...]
    horizon: float
    step: float

    @classmethod
    def from_strings(
        cls,
        order: int,
        f: str,
        g: str,
        initial: Sequence[float],
        horizon: float,
        step: float,
    ) -> "UdeSpec":
        """Parse f and g source text against the given order."""
        return cls(
            order=order,
            drift=expr.parse_source(f, order),
            diffusion=expr.parse_source(g, order),
            initial=tuple(float(v) for v in initial),
            horizon=float(horizon),
            step=float(step),
        )

    @property
    def step_count(self) -> int:
        return int(round(self.horizon / self.step))


def grid_problems(horizon: float, step: float) -> list[tuple[str, str]]:
    """Problems of the time grid, each with the key (``horizon`` or ``step``)
    whose value is at fault; empty when horizon / step is a positive integer
    node count, within the larger of 1e-9 and 4 units in the last place of
    the ratio. The tolerance scales with the spacing of doubles there, so a
    large node count is judged by the size cap, not refused for a rounding
    error finer than a double can resolve."""
    problems: list[tuple[str, str]] = []
    horizon_ok = math.isfinite(horizon) and horizon > 0
    step_ok = math.isfinite(step) and step > 0
    if not horizon_ok:
        problems.append(
            ("horizon", f"horizon must be positive and finite, got {horizon!r}")
        )
    if not step_ok:
        problems.append(("step", f"step must be positive and finite, got {step!r}"))
    if horizon_ok and step_ok:
        if step > horizon:
            problems.append(("step", f"step {step} exceeds horizon {horizon}"))
        else:
            ratio = horizon / step
            # a refused ratio is off by more than 1e-9 whatever the tolerance
            if abs(ratio - round(ratio)) > max(1e-9, 4 * math.ulp(ratio)):
                problems.append(
                    (
                        "step",
                        f"horizon/step = {ratio!r} is not an integer node count "
                        "(within 1e-9)",
                    )
                )
    return problems


def validate_spec(spec: UdeSpec) -> list[str]:
    """Check every spec invariant; returns all problems found (empty = valid)."""
    problems: list[str] = []
    order_ok = isinstance(spec.order, int) and spec.order >= 1
    if not order_ok:
        problems.append(f"order must be a positive integer, got {spec.order!r}")
    if len(spec.initial) != spec.order:
        problems.append(
            f"initial condition count: expected {spec.order} values, "
            f"got {len(spec.initial)}"
        )
    if any(not math.isfinite(v) for v in spec.initial):
        problems.append("initial conditions must all be finite")
    problems += [problem for _, problem in grid_problems(spec.horizon, spec.step)]
    if order_ok:
        legal = set(expr.state_variables(spec.order))
        exposed = ", ".join(expr.state_variables(spec.order))
        for label, tree in (("f", spec.drift), ("g", spec.diffusion)):
            for name in sorted(expr.variables_of(tree) - legal):
                problems.append(
                    f"unknown variable: {label} references {name!r} "
                    f"(order {spec.order} exposes {exposed})"
                )
    return problems


@dataclass(frozen=True)
class AlphaGridSpec:
    """Discretization of alpha in (0, 1): odd count, endpoints lo and 1 - lo."""

    count: int = 99
    lo: float = 0.01


def alpha_grid_problems(gspec: AlphaGridSpec) -> list[tuple[str, str]]:
    """Problems of the alpha grid, each with the key whose value is at fault;
    empty when ``alpha_grid`` can build the grid."""
    count, lo = gspec.count, gspec.lo
    problems: list[tuple[str, str]] = []
    if not isinstance(count, int) or count < 3 or count % 2 == 0:
        problems.append(
            ("alpha.count", f"alpha count must be an odd integer >= 3, got {count!r}")
        )
    if not (math.isfinite(lo) and 0.0 < lo < 0.5):
        problems.append(("alpha.lo", f"alpha lo must lie in (0, 0.5), got {lo!r}"))
    return problems


def alpha_grid(gspec: AlphaGridSpec) -> list[float]:
    """Strictly increasing alpha values from lo to 1 - lo.

    The grid is built by mirroring the lower half about 0.5, so paired
    values satisfy a_i + a_{count-1-i} = 1 up to one rounding, and 0.5 is a
    grid point exactly.
    """
    problems = alpha_grid_problems(gspec)
    if problems:
        raise ConfigError(problems[0][1])
    count, lo = gspec.count, gspec.lo
    step = (1.0 - 2.0 * lo) / (count - 1)
    lower = [lo + i * step for i in range(count // 2)]
    return lower + [0.5] + [1.0 - v for v in reversed(lower)]
