"""Fixed-step RK4 integration of alpha-path families and pathwise sample
trajectories, on one uniform grid per solve (no adaptivity): fan-wide
monotonicity checks and the Simpson residual both need aligned nodes.

Every solve goes through ``_solve_rows``, where a row has one driver slope
per segment (an alpha-path: one segment, slope phi_inv(alpha)). Rows run
through the problem's generated step (``emit``) in its C library
(``engine``), and on Python floats (``_integrate``), the reference and the
fallback, where there is no library and for every row C marks; the audit's
differences (``condition_h_partials``) choose the same way. ``solve_fan``
returns the rows, with g at every node, as an ``AlphaFan``;
``sample_positions`` keeps positions only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import emit, engine, expr
from .core import UdeSpec, phi_inv, validate_spec
from .errors import BlowUpError, ConfigError, FanSolveError

# failures a generated step can raise: domain errors of the math functions,
# float division by zero, and OverflowError for a state that is not finite
# or beyond emit.BLOWUP_LIMIT
_STEP_FAILURES = (ValueError, OverflowError, ZeroDivisionError)


@dataclass
class AlphaFan:
    """The alpha-path surface as the solver computed it: row k holds the
    alpha-path of grid[k], every row on the one uniform time grid.

    Column j of ``positions``, read across alphas, tabulates the inverse
    uncertainty distribution alpha -> x_t^alpha at t = times[j]. Component 0
    of the states is the path itself, component k its k-th derivative.
    ``diffusion`` holds g at every node as the solver's step computed it, nan
    at the last node if g fails there; a node where g is not strictly
    positive voids the regularity hypothesis but does not stop the solve.
    """

    spec: UdeSpec
    grid: list[float]
    times: np.ndarray  # (N+1,)
    states: np.ndarray  # (alphas, N+1, n)
    diffusion: np.ndarray  # (alphas, N+1)

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, :, 0]


def time_grid(spec: UdeSpec) -> np.ndarray:
    """Uniform node times 0 = t_0 < ... < t_N = horizon."""
    return np.linspace(0.0, spec.horizon, spec.step_count + 1)


def _integrate(
    spec: UdeSpec,
    compiled: tuple[Callable, Callable],
    drivers: Iterable[float],
    alpha: float | None,
    kept: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The row loop: one generated step per grid interval, with the driver
    constant c of each step taken from ``drivers``. Returns the first
    ``kept`` state components, (N+1, kept), and g, (N+1,), at every node. A
    failure inside a step aborts with BlowUpError at the step's start, the
    last good node; g failing at the last node is nan."""
    step, diffusion = compiled
    h = spec.horizon / spec.step_count
    tlist = time_grid(spec).tolist()
    record = (math.nan, *(float(v) for v in spec.initial))
    records = [record]
    try:
        for t, c in zip(tlist, drivers):
            record = step(t, record, c, h)
            records.append(record)
    except _STEP_FAILURES as exc:
        raise BlowUpError(t, alpha) from exc
    try:
        g = diffusion(tlist[-1], record)
    except _STEP_FAILURES:
        g = math.nan
    table = np.array(records, dtype=float)
    return table[:, 1 : kept + 1], np.append(table[1:, 0], g)


def _solve_rows(
    spec: UdeSpec,
    signed: bool,
    counts: Sequence[int],
    slopes: np.ndarray,
    kept: int,
    alphas: Sequence[float] | None,
    keep_g: bool = True,
) -> tuple[np.ndarray, np.ndarray | None, list[tuple[int, BlowUpError]]]:
    """Integrate one row per row of ``slopes`` (rows, segments); segment k
    spans counts[k] steps. Returns the first ``kept`` state components,
    (rows, N+1, kept), and g, (rows, N+1), at every node (None without
    ``keep_g``), and each failing row's index and BlowUpError, naming
    alphas[row] (None without ``alphas``); failed rows hold nan.

    The problem's C library, when there is one (``engine._library``), runs
    every row, and the rows it marks are rerun alone in Python. Without it,
    every row runs alone in Python. The errors are always those of
    row-by-row solves.
    """
    library = engine._library(spec, len(slopes) * spec.step_count)
    if library is not None:
        states, diffusion, rows = engine._run_compiled(
            library, spec, signed, counts, slopes, kept, keep_g, time_grid(spec)
        )
    else:
        states = np.empty((len(slopes), spec.step_count + 1, kept))
        diffusion = np.empty(states.shape[:2]) if keep_g else None
        rows = range(len(slopes))
    failures: list[tuple[int, BlowUpError]] = []
    compiled = emit._compile_step(spec, signed) if len(rows) else None
    for r in rows:
        drivers = chain.from_iterable(map(repeat, slopes[r].tolist(), counts))
        alpha = None if alphas is None else alphas[r]
        try:
            states[r], g = _integrate(spec, compiled, drivers, alpha, kept)
        except BlowUpError as exc:
            failures.append((r, exc))
            states[r], g = math.nan, math.nan
        if keep_g:
            diffusion[r] = g
    return states, diffusion, failures


def _python_partials(
    spec: UdeSpec,
    partials: Callable,
    times: np.ndarray,
    states: np.ndarray,
    h: np.ndarray,
) -> np.ndarray:
    """(points, 2) partials of f and g point by point through the Python
    text ``partials`` (``emit._compile_partials``). A point where it fails or
    is not finite is evaluated again by ``expr.evaluate``, whose
    NonFiniteError names the failing subexpression."""
    names = expr.state_variables(spec.order)
    values = np.empty((len(times), 2))
    points = zip(times.tolist(), states.tolist(), h.tolist())
    for i, (t, (x, *rest), step) in enumerate(points):
        try:
            df, dg = partials(t, x, *rest, step)
        except _STEP_FAILURES:
            df = dg = math.nan
        if not (math.isfinite(df) and math.isfinite(dg)):
            hi, lo = (dict(zip(names, [t, x + d, *rest])) for d in (step, -step))
            df, dg = (
                (expr.evaluate(tree, hi) - expr.evaluate(tree, lo)) / (2.0 * step)
                for tree in (spec.drift, spec.diffusion)
            )
        values[i] = df, dg
    return values


def condition_h_partials(
    spec: UdeSpec, groups: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> Iterator[np.ndarray]:
    """(points, 2) partials of f and g in x0 per group (times, states, h),
    the text of ``emit._partials_lines`` at each point. The problem's
    library, if a solve has built it (this builds none), runs each group; a
    group it flags, and every group without it, runs point by point in
    Python (``_python_partials``)."""
    library = engine._LIBRARIES.get(emit._library_key(spec))
    python = None
    for group in groups:
        values = None
        if library is not None:
            values = engine._run_partials(spec, library, *group)
        if values is None:
            python = python or emit._compile_partials(spec)
            values = _python_partials(spec, python, *group)
        yield values


def _require_valid(spec: UdeSpec) -> None:
    problems = validate_spec(spec)
    if problems:
        raise ConfigError("invalid spec: " + "; ".join(problems))


def solve_fan(spec: UdeSpec, grid: Sequence[float]) -> AlphaFan:
    """Integrate one alpha-path per grid value over [0, horizon] with the
    spec's step; a single alpha-path is the fan of a one-value grid.

    The top row of alpha's path is f + |g| * phi_inv(alpha). Solves are
    independent, and a path's bits do not depend on the grid it is solved
    in. The fan fails only if a path leaves the finite range, with a
    FanSolveError that names every failing alpha and its BlowUpError (the
    last good time); non-positive diffusion is recorded, not an error.
    """
    _require_valid(spec)
    grid = [float(a) for a in grid]
    if not grid:
        raise ConfigError("alpha grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("alpha grid must be strictly increasing")
    slopes = np.array([[phi_inv(a)] for a in grid])
    states, diffusion, failures = _solve_rows(
        spec, False, [spec.step_count], slopes, spec.order, grid
    )
    if failures:
        raise FanSolveError([(grid[r], exc) for r, exc in failures])
    return AlphaFan(spec, grid, time_grid(spec), states, diffusion)


def segment_problem(steps: int, segments: int) -> str:
    """Why ``segments`` driver segments cannot span ``steps`` solver steps,
    or "" when they can: every segment needs at least one step, so that its
    breakpoints fall on solver nodes."""
    if segments < 1:
        return f"segments must be >= 1, got {segments}"
    if segments > steps:
        return f"segments must be <= the {steps} solver steps, got {segments}"
    return ""


def segment_counts(steps: int, segments: int) -> list[int]:
    """Solver steps per driver segment when ``segments`` segments span
    ``steps`` steps (ConfigError when ``segment_problem`` finds they cannot).
    The counts differ by at most one, and the first ``steps % segments``
    segments take the extra step. Every breakpoint falls on a solver node,
    so each RK4 step lies inside a single segment and every stage sees that
    segment's slope."""
    problem = segment_problem(steps, segments)
    if problem:
        raise ConfigError(problem)
    base, longer = divmod(steps, segments)
    return [base + 1] * longer + [base] * (segments - longer)


def sample_positions(spec: UdeSpec, slopes: np.ndarray) -> np.ndarray:
    """Positions of the pathwise ODE, one row per driver.

    Row k of ``slopes`` (paths, segments) holds driver k's slope on each of
    ``segments`` segments of [0, horizon], of the step counts
    ``segment_counts`` gives, so there must be between 1 and N of them
    (ConfigError otherwise); the top row of the companion system is
    f + g * slope. Row k of the result (paths, N+1), a fresh C-contiguous
    array, is driver k's position at every node, the same bits however many
    rows are passed. Only positions are stored: no other component and no g,
    so a row costs N+1 values. Raises the first failing row's BlowUpError.
    """
    _require_valid(spec)
    counts = segment_counts(spec.step_count, slopes.shape[1])
    states, _, failures = _solve_rows(spec, True, counts, slopes, 1, None, False)
    if failures:
        raise failures[0][1]
    return states[:, :, 0]
