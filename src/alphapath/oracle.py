"""Constructive trajectory-dominance verification.

The mechanism under test: a driver path whose difference quotients stay
strictly below phi_inv(alpha - delta) must produce a trajectory strictly
below the alpha-path at every positive time (and symmetrically above, for
quotients strictly above phi_inv(alpha + delta)). Each surrogate driver is
piecewise linear from C_0 = 0: one row of slopes over equal segments of
[0, horizon]. For such a driver every difference quotient (C_s - C_t)/(s - t),
s > t, is a weighted mean of segment slopes, so it lies within
[min slope, max slope] and the slope extremes certify the global envelope:
the bound is checkable exactly rather than estimated.

``dominance_checks`` is the one entry point: it runs every alpha on both
sides, below then above. Sampled frequencies carry no measure-theoretic
meaning here; only the universally quantified dominance is being tested,
path by path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .analysis import Report, check_hypotheses
from .core import UdeSpec, phi_inv
from .errors import ConfigError, HypothesisError
from .solver import _require_valid, sample_positions, segment_counts, solve_fan

SLOPE_WINDOW = 2.0  # W: how far below/above the bound slopes are drawn
SLOPE_MARGIN = 1e-6  # eps: strict standoff from the bound itself

SIDES = ("below", "above")

# surrogates integrated together in one dominance run; bounds the memory of a
# run to CHUNK_PATHS trajectories whatever n_paths is
CHUNK_PATHS = 1024


@dataclass
class DominanceReport(Report):
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


def _path_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % (2**63)


def _draw_slopes(bound: float, side: str, segments: int, seed: int) -> np.ndarray:
    """One surrogate's slopes, strictly on one side of ``bound``.

    below: uniform in [bound - W, bound - eps]; above: mirrored to
    [bound + eps, bound + W]. Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    if side == "below":
        return rng.uniform(bound - SLOPE_WINDOW, bound - SLOPE_MARGIN, segments)
    return rng.uniform(bound + SLOPE_MARGIN, bound + SLOPE_WINDOW, segments)


def setting_problems(
    alphas: Sequence[float], delta: float, n_paths: int, segments: int
) -> list[tuple[str, str]]:
    """Problems of the oracle's settings, each with the config key whose
    value is at fault; empty when a dominance run can take them. Every alpha
    is checked on both sides: alpha - delta and alpha + delta must lie in
    (0, 1)."""
    problems: list[tuple[str, str]] = []
    if not delta > 0:
        problems.append(("oracle.delta", f"delta must be positive, got {delta}"))
    if not n_paths >= 1:
        problems.append(("oracle.n_paths", f"n_paths must be >= 1, got {n_paths}"))
    if not segments >= 1:
        problems.append(("oracle.segments", f"segments must be >= 1, got {segments}"))
    for alpha in alphas:
        for holds, need in (
            (alpha - delta > 0, "alpha - delta > 0"),
            (alpha + delta < 1, "alpha + delta < 1"),
        ):
            if not holds:
                problems.append(
                    ("oracle.alphas", f"need {need}, got alpha={alpha}, delta={delta}")
                )
    return problems


def dominance_checks(
    spec: UdeSpec,
    alphas: Sequence[float],
    delta: float,
    n_paths: int,
    segments: int,
    seed: int,
) -> list[DominanceReport]:
    """Verify dominance for sampled drivers: one report per (alpha, side),
    alpha by alpha and each alpha's sides in the order of SIDES.

    Before any solve, the settings are checked (ConfigError, the first of
    ``setting_problems``), then the spec, and ``segments`` must divide the
    spec's step count (AlignmentError). Each alpha-path is then solved once,
    and the run refuses (HypothesisError, naming the failing checks) when
    ``check_hypotheses`` fails on it, since dominance is only guaranteed
    under its hypotheses.

    Each surrogate is one row of ``segments`` slopes, all below
    phi_inv(alpha - delta) (or above phi_inv(alpha + delta)), and its
    trajectory must stay strictly on that side of the alpha-path at every
    node t >= h; at t = 0 both share the initial state exactly. The rows
    are integrated together (see ``sample_positions``), in chunks of at
    most CHUNK_PATHS, and each chunk's margins are scanned as one matrix.
    """
    problems = setting_problems(alphas, delta, n_paths, segments)
    if problems:
        raise ConfigError(problems[0][1])
    _require_valid(spec)
    segment_counts(spec, segments)
    reports = []
    for alpha in alphas:
        target = solve_fan(spec, [alpha])
        hypotheses = check_hypotheses(target, samples=128, seed=seed)
        if not hypotheses.passed:
            raise HypothesisError(
                "dominance is only guaranteed under regularity and the position-"
                f"monotonicity condition (failed: {', '.join(hypotheses.failed)})"
            )
        reference, times = target.positions[0, 1:], target.times[1:]
        for side in SIDES:
            bound = phi_inv(alpha - delta if side == "below" else alpha + delta)
            report = DominanceReport(  # no violation and no margin yet
                alpha, delta, side, n_paths, [], math.inf, -1, math.nan
            )
            for first in range(0, n_paths, CHUNK_PATHS):
                chunk = range(first, min(first + CHUNK_PATHS, n_paths))
                slopes = np.array(
                    [
                        _draw_slopes(bound, side, segments, _path_seed(seed, k))
                        for k in chunk
                    ]
                )
                sampled = sample_positions(spec, slopes)[:, 1:]
                # (chunk, N): row-major order is path order, then node order
                margins = (
                    reference - sampled if side == "below" else sampled - reference
                )
                i, j = np.unravel_index(np.argmin(margins), margins.shape)
                if margins[i, j] < report.min_margin:
                    report.min_margin = float(margins[i, j])
                    report.min_margin_path = first + int(i)
                    report.min_margin_time = float(times[j])
                paths, nodes = np.nonzero(margins <= 0.0)
                report.violations += zip(
                    (paths + first).tolist(),
                    times[nodes].tolist(),
                    sampled[paths, nodes].tolist(),
                    reference[nodes].tolist(),
                )
                del sampled, margins  # one chunk's trajectories in memory at a time
            reports.append(report)
    return reports
