"""Constructive trajectory-dominance verification.

The mechanism under test: a driver path whose difference quotients stay
strictly below phi_inv(alpha - delta) must produce a trajectory strictly
below the alpha-path at every positive time (and symmetrically above, for
quotients strictly above phi_inv(alpha + delta)). Each surrogate driver is
piecewise linear from C_0 = 0: one row of slopes over segments of
[0, horizon] whose breakpoints fall on solver nodes (``segment_counts``:
step counts that differ by at most one). For such a driver every difference
quotient (C_s - C_t)/(s - t), s > t, is a weighted mean of segment slopes,
whatever the segments' lengths, so it lies within [min slope, max slope] and
the slope extremes certify the global envelope: the bound is checkable
exactly rather than estimated.

``dominance_checks`` is the one entry point and owns the oracle's run: its
setting rules (``setting_problems``) and its chunk size (``chunk_rows``). It
runs every alpha on both sides, below then above. An alpha's surrogates are
integrated in chunks of paths, each chunk holding both sides' rows of its
paths, and only their positions are stored. Path k's slopes on either side
and for every alpha map the same uniforms (``_uniforms``) onto the side's
window (``_slopes``), so a run draws each path's uniforms once for all of
them (a later chunk's, once per alpha). Sampled frequencies carry no
measure-theoretic meaning here; only the universally quantified dominance
is being tested, path by path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .analysis import Report, check_hypotheses
from .core import UdeSpec, phi_inv
from .errors import ConfigError, HypothesisError
from .solver import (
    AlphaFan,
    _require_valid,
    sample_positions,
    segment_problem,
    solve_fan,
)

SLOPE_WINDOW = 2.0  # W: how far below/above the bound slopes are drawn
SLOPE_MARGIN = 1e-6  # eps: strict standoff from the bound itself

SIDES = ("below", "above")

# paths of one alpha integrated together, their below rows and then their
# above rows; bounds the memory of a run to chunk_rows(n_paths) positions-only
# trajectories whatever n_paths is, plus the first chunk's uniforms, which a
# run holds for every alpha: at most CHUNK_PATHS x segments doubles, half a
# chunk's positions or less since segments <= steps
CHUNK_PATHS = 512


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


def _uniforms(seed: int, first: int, last: int, segments: int) -> np.ndarray:
    """The uniforms in [0, 1) of paths first, first + 1, ..., last - 1: row
    k - first is ``segments`` draws of a generator seeded with
    ``_path_seed(seed, k)``. A path's row serves both sides and every alpha;
    only the window it is mapped onto (``_slopes``) differs."""
    rows = np.empty((last - first, segments))
    for k, row in enumerate(rows, first):
        np.random.default_rng(_path_seed(seed, k)).random(out=row)
    return rows


def _slopes(bounds: tuple[float, float], uniforms: np.ndarray) -> np.ndarray:
    """Both sides' surrogate slopes of a chunk's paths, strictly on their
    side of ``bounds`` (one bound a side, in the order of SIDES): the below
    rows in [bound - W, bound - eps], then the above rows in
    [bound + eps, bound + W]. A row is lo + (hi - lo) * u, the values
    ``Generator.uniform(lo, hi)`` gives from the generator of ``u``."""
    below, above = bounds
    windows = (
        (below - SLOPE_WINDOW, below - SLOPE_MARGIN),
        (above + SLOPE_MARGIN, above + SLOPE_WINDOW),
    )
    return np.concatenate([lo + (hi - lo) * uniforms for lo, hi in windows])


def chunk_rows(n_paths: int) -> int:
    """Rows of the widest chunk a run of ``n_paths`` paths a side integrates:
    both sides' rows of at most CHUNK_PATHS paths."""
    return len(SIDES) * min(n_paths, CHUNK_PATHS)


def setting_problems(
    alphas: Sequence[float],
    delta: float,
    n_paths: int,
    segments: int,
    seed: int,
    step_count: int,
) -> list[tuple[str, str]]:
    """Problems of the oracle's settings on a spec of ``step_count`` steps,
    each with the config key whose value is at fault; empty when a dominance
    run can take them. The segments must span the steps (``segment_problem``:
    1 <= segments <= step_count). Every alpha is checked on both sides:
    alpha - delta and alpha + delta must lie in (0, 1)."""
    problems: list[tuple[str, str]] = []
    if not seed >= 0:
        problems.append(("oracle.seed", f"`oracle.seed` must be >= 0, got {seed}"))
    if not alphas:
        message = "`oracle.alphas` must be a non-empty list of numbers, got []"
        problems.append(("oracle.alphas", message))
    if not delta > 0:
        problems.append(("oracle.delta", f"delta must be positive, got {delta}"))
    if not n_paths >= 1:
        problems.append(("oracle.n_paths", f"n_paths must be >= 1, got {n_paths}"))
    problem = segment_problem(step_count, segments)
    if problem:
        problems.append(("oracle.segments", problem))
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


def _scan(
    report: DominanceReport,
    reference: np.ndarray,
    times: np.ndarray,
    block: np.ndarray,
    first: int,
) -> None:
    """Fold one side's rows of a chunk into its report. ``block`` (paths,
    N+1) holds the positions of paths first, first + 1, ... at every node;
    it is overwritten with their margins, so the scan copies nothing.

    A margin is <= 0 exactly where the position reaches the reference (the
    difference of two finite doubles is 0 only when they are equal and keeps
    their order), so violations are read off the positions before the
    margins are written over them.
    """
    later, ahead = block[:, 1:], reference[1:]
    below = report.side == "below"
    paths, nodes = np.nonzero(later >= ahead if below else later <= ahead)
    nodes += 1
    report.violations += zip(
        (paths + first).tolist(),
        times[nodes].tolist(),
        block[paths, nodes].tolist(),
        reference[nodes].tolist(),
    )
    if below:
        np.subtract(reference, block, out=block)
    else:
        np.subtract(block, reference, out=block)
    block[:, 0] = math.inf  # t = 0 is shared exactly and is not scanned
    # row-major order is path order, then node order
    i, j = divmod(int(np.argmin(block)), block.shape[1])
    if block[i, j] < report.min_margin:
        report.min_margin = float(block[i, j])
        report.min_margin_path = first + i
        report.min_margin_time = float(times[j])


def _gated_path(spec: UdeSpec, alpha: float, seed: int) -> AlphaFan:
    """Alpha's path, once ``check_hypotheses`` passes on it."""
    target = solve_fan(spec, [alpha])
    hypotheses = check_hypotheses(target, samples=128, seed=seed)
    if not hypotheses.passed:
        raise HypothesisError(
            "dominance is only guaranteed under regularity and the position-"
            f"monotonicity condition (failed: {', '.join(hypotheses.failed)})"
        )
    return target


def _check_alpha(
    spec: UdeSpec,
    target: AlphaFan,
    delta: float,
    n_paths: int,
    seed: int,
    head: np.ndarray,
) -> list[DominanceReport]:
    """Sample one gated alpha-path: its reports in the order of SIDES.
    ``head`` holds the uniforms of the first chunk's paths, drawn once for
    every alpha; a later chunk's are drawn here, once for both sides."""
    (alpha,), segments = target.grid, head.shape[1]
    reference, times = target.positions[0], target.times
    bounds = (phi_inv(alpha - delta), phi_inv(alpha + delta))
    reports = [  # no violation and no margin yet
        DominanceReport(alpha, delta, side, n_paths, [], math.inf, -1, math.nan)
        for side in SIDES
    ]
    for first in range(0, n_paths, CHUNK_PATHS):
        last = min(first + CHUNK_PATHS, n_paths)
        uniforms = head if first == 0 else _uniforms(seed, first, last, segments)
        chunk = sample_positions(spec, _slopes(bounds, uniforms))
        for report, block in zip(reports, np.split(chunk, len(SIDES))):
            _scan(report, reference, times, block, first)
        del chunk, block  # one chunk's trajectories in memory at a time
    return reports


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

    Before any solve, the spec is checked, then the settings against its step
    count (ConfigError, the first of ``setting_problems``): any ``segments``
    from 1 to the step count runs. Each alpha-path is then solved once, and
    the run refuses (HypothesisError, naming the failing checks) when
    ``check_hypotheses`` fails on it, since dominance is only guaranteed
    under its hypotheses; an alpha is gated before it is sampled, and
    before any later alpha is solved.

    Each surrogate is one row of ``segments`` slopes, one per segment of
    ``segment_counts`` steps, all below phi_inv(alpha - delta) (or above
    phi_inv(alpha + delta)), and its trajectory must stay strictly on that
    side of the alpha-path at every node t >= h; at t = 0 both share the
    initial state exactly. Path k's slopes map ``segments`` uniforms drawn
    from ``_path_seed(seed, k)`` onto each side's window, the same uniforms
    for both sides and every alpha. An alpha's paths are integrated in
    chunks of at most CHUNK_PATHS paths (see ``sample_positions``), each
    chunk the below rows and then the above rows of its paths, and each
    side's rows of a chunk are scanned in place as one margin matrix. The
    first chunk's uniforms are drawn once, after the first alpha passes its
    gate, and serve every alpha; a later chunk's are drawn for each alpha,
    once for both sides. A run refused before its first gate passes draws
    none.
    """
    _require_valid(spec)  # before the step count divides by the step
    steps = spec.step_count
    problems = setting_problems(alphas, delta, n_paths, segments, seed, steps)
    if problems:
        raise ConfigError(problems[0][1])
    reports: list[DominanceReport] = []
    head = None  # the first chunk's uniforms, drawn once the first alpha passes
    for alpha in alphas:
        target = _gated_path(spec, alpha, seed)
        if head is None:
            head = _uniforms(seed, 0, min(n_paths, CHUNK_PATHS), segments)
        reports += _check_alpha(spec, target, delta, n_paths, seed, head)
    return reports
