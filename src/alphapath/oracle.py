"""Constructive trajectory-dominance verification.

The mechanism under test: a driver path whose difference quotients stay
strictly below phi_inv(alpha - delta) must produce a trajectory strictly
below the alpha-path at every positive time (and symmetrically above, for
quotients strictly above phi_inv(alpha + delta)). Piecewise-linear
surrogates make the global difference-quotient envelope equal to the
extreme segment slope, so the bound is checkable exactly rather than
estimated.

Sampled frequencies carry no measure-theoretic meaning here; only the
universally quantified dominance is being tested, path by path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import check_hypotheses
from .core import UdeSpec, phi_inv
from .errors import AlignmentError, ConfigError, DomainError, HypothesisError
from .solver import (
    AlphaFan,
    AlphaPath,
    _require_valid,
    sample_positions,
    solve_alpha_path,
)

SLOPE_WINDOW = 2.0  # W: how far below/above the bound slopes are drawn
SLOPE_MARGIN = 1e-6  # eps: strict standoff from the bound itself

SIDES = ("below", "above")

# surrogates integrated together in one dominance run; bounds the memory of a
# run to CHUNK_PATHS trajectories whatever n_paths is
CHUNK_PATHS = 1024


@dataclass(frozen=True)
class SamplePath:
    """Piecewise-linear driver surrogate starting at 0.

    Because the path is piecewise linear, every difference quotient
    (C_s - C_t)/(s - t) for s > t lies within [min slope, max slope], so the
    slope extremes certify the global envelope.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) < 2:
            raise ConfigError("sample path needs at least one segment")
        if len(self.slopes) != len(self.breakpoints) - 1:
            raise ConfigError(
                f"expected {len(self.breakpoints) - 1} slopes, got {len(self.slopes)}"
            )
        if self.breakpoints[0] != 0.0:
            raise ConfigError("sample path must start at t=0 (origin C_0 = 0)")
        if any(b <= a for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ConfigError("breakpoints must be strictly increasing")

    @property
    def max_slope(self) -> float:
        return max(self.slopes)

    @property
    def min_slope(self) -> float:
        return min(self.slopes)

    def value(self, t: float) -> float:
        """C(t) by integrating the segment slopes from the origin."""
        if t < self.breakpoints[0] or t > self.breakpoints[-1]:
            raise DomainError(f"t={t} outside the sample path's span")
        acc = 0.0
        for left, right, slope in zip(
            self.breakpoints, self.breakpoints[1:], self.slopes
        ):
            if t <= right:
                return acc + slope * (t - left)
            acc += slope * (right - left)
        return acc


@dataclass
class DominanceReport:
    """Outcome of one dominance run: all sampled trajectories vs one alpha-path.

    ``min_margin`` is the closest approach over every path and node t >= h:
    x_t^alpha - x_t(sample) on the below side, the reverse above. It is
    located at the first smallest margin, in path order and then node order:
    path index ``min_margin_path`` at time ``min_margin_time``. Violations
    are sorted by (path index, t).
    """

    alpha: float
    delta: float
    side: str
    paths_tested: int
    violations: list[tuple[int, float, float, float]]  # (path, t, x_sample, x_alpha)
    min_margin: float
    min_margin_path: int
    min_margin_time: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "delta": self.delta,
            "side": self.side,
            "paths_tested": self.paths_tested,
            "passed": self.passed,
            "min_margin": self.min_margin,
            "min_margin_path": self.min_margin_path,
            "min_margin_time": self.min_margin_time,
            "violations_total": len(self.violations),
            "violations": [list(v) for v in self.violations[:1000]],
        }


def _path_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % (2**63)


def sample_lipschitz_path(
    bound: float, side: str, horizon: float, segments: int, seed: int
) -> SamplePath:
    """Draw a surrogate whose slopes sit strictly on one side of ``bound``.

    below: slopes uniform in [bound - W, bound - eps]; above: mirrored to
    [bound + eps, bound + W]. Equal-length segments; deterministic given the
    seed.
    """
    if side not in SIDES:
        raise ConfigError(f"side must be one of {SIDES}, got {side!r}")
    if segments < 1:
        raise ConfigError(f"segments must be >= 1, got {segments}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ConfigError(f"horizon must be positive, got {horizon!r}")
    rng = np.random.default_rng(seed)
    if side == "below":
        draws = rng.uniform(bound - SLOPE_WINDOW, bound - SLOPE_MARGIN, segments)
    else:
        draws = rng.uniform(bound + SLOPE_MARGIN, bound + SLOPE_WINDOW, segments)
    breakpoints = tuple(horizon * k / segments for k in range(segments + 1))
    return SamplePath(breakpoints=breakpoints, slopes=tuple(map(float, draws)))


def _nearest_divisors(n: int, k: int) -> list[int]:
    """The largest divisor of n below k and the smallest above it, if any."""
    divisors = [
        d for i in range(1, math.isqrt(n) + 1) if n % i == 0 for d in (i, n // i)
    ]
    below = [d for d in divisors if d < k]
    above = [d for d in divisors if d > k]
    return ([max(below)] if below else []) + ([min(above)] if above else [])


def _check_arguments(
    spec: UdeSpec, alpha: float, delta: float, n_paths: int, segments: int, side: str
) -> None:
    """Every precondition of a dominance run that needs no solve: the
    arguments, a valid spec, and surrogate breakpoints on solver nodes."""
    if side not in SIDES:
        raise ConfigError(f"side must be one of {SIDES}, got {side!r}")
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if side == "below" and not alpha - delta > 0:
        raise DomainError(f"need alpha - delta > 0, got alpha={alpha}, delta={delta}")
    if side == "above" and not alpha + delta < 1:
        raise DomainError(f"need alpha + delta < 1, got alpha={alpha}, delta={delta}")
    if n_paths < 1:
        raise ConfigError(f"n_paths must be >= 1, got {n_paths}")
    if segments < 1:
        raise ConfigError(f"segments must be >= 1, got {segments}")
    _require_valid(spec)
    steps = spec.step_count
    if steps % segments:
        divisors = ", ".join(map(str, _nearest_divisors(steps, segments)))
        raise AlignmentError(
            f"{segments} segments do not divide the {steps} solver steps, so "
            f"the breakpoint t={spec.horizon / segments!r} does not fall on a "
            f"solver node; nearest divisors of {steps}: {divisors}"
        )


def _gated_target(spec: UdeSpec, alpha: float, seed: int) -> AlphaPath:
    """Solve the alpha-path, refusing (HypothesisError) when the regularity or
    position-monotonicity checks fail, since dominance is only guaranteed
    under them. Both sides of one alpha share the result."""
    target = solve_alpha_path(spec, alpha)
    gate_fan = AlphaFan(spec=spec, grid=[alpha], paths=[target])
    hypotheses = check_hypotheses(spec, gate_fan, samples=128, seed=seed)
    if not hypotheses.passed:
        raise HypothesisError(
            "dominance is only guaranteed under regularity and the position-"
            f"monotonicity condition (regularity pass={hypotheses.regularity.passed}, "
            f"condition_h pass={hypotheses.condition_h.passed}); "
            "run the hypothesis checks for details"
        )
    return target


def dominance_check(
    spec: UdeSpec,
    alpha: float,
    delta: float,
    n_paths: int,
    segments: int,
    side: str,
    seed: int,
    *,
    target: AlphaPath | None = None,
) -> DominanceReport:
    """Solve the alpha-path once, then verify dominance for sampled drivers.

    Each sampled surrogate is bounded by phi_inv(alpha - delta) from below
    (or phi_inv(alpha + delta) from above) and its trajectory must stay
    strictly on that side of the alpha-path at every node t >= h; at t = 0
    both trajectories share the initial state exactly, so the first node is
    excluded. Refuses to run (HypothesisError) when the regularity or
    position-monotonicity checks fail, since dominance is only guaranteed
    under them; before that, raises AlignmentError when ``segments`` does
    not divide the spec's step count. A ``target`` given by the caller
    replaces that solve and gate: it must be the alpha-path of this spec and
    alpha that passed the gate for this seed, as ``_gated_target`` returns
    it.

    The surrogates share their breakpoints, so they are integrated together
    (see ``sample_positions``), in chunks of at most CHUNK_PATHS.
    """
    _check_arguments(spec, alpha, delta, n_paths, segments, side)
    if target is None:
        target = _gated_target(spec, alpha, seed)

    bound = phi_inv(alpha - delta) if side == "below" else phi_inv(alpha + delta)
    reference = target.position
    times = target.times
    violations: list[tuple[int, float, float, float]] = []
    min_margin, min_margin_path, min_margin_time = math.inf, -1, math.nan
    for first in range(0, n_paths, CHUNK_PATHS):
        chunk = range(first, min(first + CHUNK_PATHS, n_paths))
        slopes = np.empty((len(chunk), segments))
        for row, k in enumerate(chunk):
            surrogate = sample_lipschitz_path(
                bound, side, spec.horizon, segments, _path_seed(seed, k)
            )
            slopes[row] = surrogate.slopes
        positions = sample_positions(spec, surrogate.breakpoints, slopes)
        for k, sampled in zip(chunk, positions):
            if side == "below":
                margin = reference[1:] - sampled[1:]
            else:
                margin = sampled[1:] - reference[1:]
            j = int(np.argmin(margin))
            if margin[j] < min_margin:
                min_margin = float(margin[j])
                min_margin_path, min_margin_time = k, float(times[j + 1])
            for j in np.nonzero(margin <= 0.0)[0]:
                violations.append(
                    (
                        k,
                        float(times[j + 1]),
                        float(sampled[j + 1]),
                        float(reference[j + 1]),
                    )
                )
    return DominanceReport(
        alpha=alpha,
        delta=delta,
        side=side,
        paths_tested=n_paths,
        violations=violations,
        min_margin=min_margin,
        min_margin_path=min_margin_path,
        min_margin_time=min_margin_time,
    )
