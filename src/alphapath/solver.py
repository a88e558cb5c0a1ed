"""Fixed-step RK4 integration of alpha-path families and pathwise sample
trajectories, plus the integral-form residual diagnostic.

The step size is fixed (no adaptivity) so that every path in a fan shares
one uniform grid: fan-wide monotonicity checks and the Simpson residual
both need aligned nodes, and node placement stays reproducible.

Every solve goes through ``_solve_rows``, where a row has one driver slope
per segment; an alpha-path is one segment with slope phi_inv(alpha). Rows are
integrated by one RK4 step generated per problem with f and g inlined
(``_compile_step``), one row at a time (``_integrate``) or, for
BLOCK_MIN_ROWS rows or more, over numpy columns (``_integrate_block``) with
the same bits. The step also returns g at its starting node, so a fan solve
carries g at every node for the regularity check to read. ``solve_fan``
returns these arrays as an ``AlphaFan``; an alpha-path is a fan of one.
``sample_positions`` records positions only: no other component and no g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from . import expr
from .core import UdeSpec, phi_inv, validate_spec
from .errors import AlignmentError, BlowUpError, ConfigError, FanSolveError

# any |state| beyond this aborts a solve: distinguishes hypothesis failure
# from numeric overflow noise
BLOWUP_LIMIT = 1e12

# failures a generated step can raise: domain errors of the math functions,
# float division by zero, and OverflowError for a state that is not finite
# or beyond BLOWUP_LIMIT
_STEP_FAILURES = (ValueError, OverflowError, ZeroDivisionError)

# batches of at least this many rows are integrated as one numpy block; below
# it the per-step cost of numpy calls outweighs what they save (the crossover
# measured at 32-48 rows)
BLOCK_MIN_ROWS = 64


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


def _forcing(
    spec: UdeSpec, signed: bool, time: str, row: Sequence[str], g: str = ""
) -> str:
    """Source of the companion system's top row, f + w(g) * c, over the
    given source text for t and x0 .. x{n-1}.

    The driver weight w is abs for alpha-paths (c = phi_inv(alpha)) and the
    identity for surrogate drivers, whose slope c keeps the sign of dC/dt.
    A non-empty ``g`` names an already computed diffusion value.
    """
    names = dict(zip(expr.state_variables(spec.order), [time, *row]))
    g = g or expr._emit(spec.diffusion, names)
    weight = g if signed else f"abs({g})"
    return f"{expr._emit(spec.drift, names)} + {weight} * c"


def _compile_step(
    spec: UdeSpec, signed: bool, block: bool = False
) -> tuple[Callable, Callable]:
    """Generate one classical RK4 step of the companion system, f and g inlined.

    ``step(t, y, c)`` takes a record (g, y0, ..., y{n-1}) whose state is the
    state at t, and returns the record one step later: g at the given node,
    then the next state. It raises OverflowError for a state that is not
    finite or beyond BLOWUP_LIMIT. ``diffusion(t, y)`` is g alone at the
    record's state. Each stage derivative is the stage state shifted up one
    row with the forcing on top, and the arithmetic is the classical
    tableau's, operation for operation.

    With ``block`` the same text runs in the expression compiler's block
    namespace, where y and c hold one (B,) column per component and the
    blow-up test reduces over the rows.
    """
    n = spec.order
    h = spec.horizon / spec.step_count
    hh, w = 0.5 * h, h / 6.0
    y, a, b, e, z = ([f"{v}{k}" for k in range(n)] for v in "yabez")
    k1, k2, k3, k4 = y[1:] + ["p"], a[1:] + ["q"], b[1:] + ["r"], e[1:] + ["s"]
    g = expr._emit(spec.diffusion, dict(zip(expr.state_variables(n), ["t", *y])))

    def stage(out: list[str], coef: float, derivative: list[str]) -> list[str]:
        return [f"{o} = {s} + {coef!r} * {d}" for o, s, d in zip(out, y, derivative)]

    within = [f"abs({v}) <= {BLOWUP_LIMIT!r}" for v in z]
    if block:
        within = [f"all({test})" for test in within]
    unpack = f"_, {', '.join(y)}, = y"
    body = [
        unpack,
        f"g = {g}",
        f"p = {_forcing(spec, signed, 't', y, 'g')}",
        f"u = t + {hh!r}",
        *stage(a, hh, k1),
        f"q = {_forcing(spec, signed, 'u', a)}",
        *stage(b, hh, k2),
        f"r = {_forcing(spec, signed, 'u', b)}",
        *stage(e, h, k3),
        f"v = t + {h!r}",
        f"s = {_forcing(spec, signed, 'v', e)}",
        *(
            f"{o} = {s} + {w!r} * ({p} + 2.0 * ({q} + {r}) + {d})"
            for o, s, p, q, r, d in zip(z, y, k1, k2, k3, k4)
        ),
        "if " + " and ".join(within) + ":",
        f"    return g, {', '.join(z)}",
        "raise OverflowError('state left the finite range')",
    ]
    source = "def step(t, y, c):\n" + "".join(f"    {line}\n" for line in body)
    source += f"def diffusion(t, y):\n    {unpack}\n    return {g}\n"
    namespace = expr._exec(source, block)
    return namespace["step"], namespace["diffusion"]


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
    tlist = time_grid(spec).tolist()
    record = (math.nan, *(float(v) for v in spec.initial))
    records = [record]
    try:
        for t, c in zip(tlist, drivers):
            record = step(t, record, c)
            records.append(record)
    except _STEP_FAILURES as exc:
        raise BlowUpError(t, alpha) from exc
    try:
        g = diffusion(tlist[-1], record)
    except _STEP_FAILURES:
        g = math.nan
    table = np.array(records, dtype=float)
    return table[:, 1 : kept + 1], np.append(table[1:, 0], g)


def _integrate_block(
    spec: UdeSpec,
    signed: bool,
    counts: Sequence[int],
    slopes: np.ndarray,
    kept: int,
    keep_g: bool = True,
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The block loop: the state is one column per component, each step
    advances every row at once, and the driver column c holds the rows'
    slopes of the step's segment. Returns what ``_solve_rows`` does, or None
    when any step fails, meets a numpy floating-point error or puts a row
    beyond BLOWUP_LIMIT. Without ``keep_g`` no g array is allocated or
    filled, and None stands in its place."""
    step, diffusion = _compile_step(spec, signed, block=True)
    columns = np.ascontiguousarray(slopes.T)
    drivers = (c for c, count in zip(columns, counts) for _ in range(count))
    tlist = time_grid(spec).tolist()
    rows = len(slopes)
    record = (None, *(np.full(rows, float(v)) for v in spec.initial))
    states = np.empty((rows, len(tlist), kept))
    g_nodes = np.empty((rows, len(tlist))) if keep_g else None
    states[:, 0] = spec.initial[:kept]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for j, (t, c) in enumerate(zip(tlist, drivers), 1):
                record = step(t, record, c)
                if keep_g:
                    g_nodes[:, j - 1] = record[0]
                for k in range(kept):
                    states[:, j, k] = record[k + 1]
            if keep_g:
                g_nodes[:, -1] = diffusion(tlist[-1], record)
    except (*_STEP_FAILURES, FloatingPointError):
        return None
    return states, g_nodes


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
    BLOCK_MIN_ROWS rows or more run as one block; if it fails, every row is
    rerun alone, so the errors are those of row-by-row solves.
    """
    if len(slopes) >= BLOCK_MIN_ROWS:
        block = _integrate_block(spec, signed, counts, slopes, kept, keep_g)
        if block is not None:
            return (*block, [])
    compiled = _compile_step(spec, signed)
    states = np.full((len(slopes), spec.step_count + 1, kept), math.nan)
    diffusion = np.full(states.shape[:2], math.nan) if keep_g else None
    failures: list[tuple[int, BlowUpError]] = []
    for r, row in enumerate(slopes.tolist()):
        drivers = chain.from_iterable(map(repeat, row, counts))
        alpha = None if alphas is None else alphas[r]
        try:
            states[r], g = _integrate(spec, compiled, drivers, alpha, kept)
        except BlowUpError as exc:
            failures.append((r, exc))
            continue
        if keep_g:
            diffusion[r] = g
    return states, diffusion, failures


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


@dataclass(frozen=True)
class IntegralResidual:
    """Worst deviation of a path from its own integral-form restatement."""

    max_residual: float
    at_time: float
    used_trapezoid: bool  # some prefix had too few nodes for Simpson


def _composite_simpson(values: np.ndarray, h: float) -> tuple[float, bool]:
    """Integrate uniformly spaced samples at fourth order.

    Even interval counts use composite Simpson; odd counts close the last
    three intervals with the 3/8 rule, keeping the error O(h^4) so halving
    the step keeps shrinking the residual by ~16x. A single interval has too
    few nodes for either rule and falls back to the trapezoid, flagged.
    """
    m = len(values) - 1
    if m == 0:
        return 0.0, False
    if m == 1:
        return 0.5 * h * (values[0] + values[1]), True
    tail = 0.0
    if m % 2 == 1:
        tail = (
            3.0
            * h
            / 8.0
            * (values[-4] + 3.0 * values[-3] + 3.0 * values[-2] + values[-1])
        )
        values = values[:-3]
        m -= 3
    if m == 0:
        return float(tail), False
    s = (
        values[0]
        + values[-1]
        + 4.0 * values[1:-1:2].sum()
        + 2.0 * values[2:-2:2].sum()
    )
    return h / 3.0 * float(s) + float(tail), False


def integral_residual(fan: AlphaFan, k: int) -> IntegralResidual:
    """Check the fan's k-th path against its equivalent integral equation.

    An order-n path satisfies
        x(t) = sum_i t^i/i! * x_i(0)
               + 1/(n-1)! * integral_0^t (t-s)^(n-1) * F(s) ds
    where F is the top row of the companion system, f + |g| * phi_inv(alpha),
    evaluated along the stored states. The integral is approximated node-wise
    by composite Simpson quadrature (3/8 closure for odd interval counts);
    prefixes with fewer than 3 nodes fall back to the trapezoid, flagged.
    Returns the maximum absolute deviation over all grid nodes.
    """
    spec, times, states = fan.spec, fan.times, fan.states[k]
    n = spec.order
    c = phi_inv(fan.grid[k])
    top = _forcing(spec, False, "t", [f"y[{i}]" for i in range(n)])
    forcing_fn = expr._exec(f"def forcing(t, y, c):\n    return {top}\n")["forcing"]
    # Python floats, so the forcing fails as the solver's step does
    tlist, rows = times.tolist(), states.tolist()
    forcing = np.array([forcing_fn(t, row, c) for t, row in zip(tlist, rows)])
    positions = states[:, 0]
    factor = 1.0 / math.factorial(n - 1)
    h = spec.horizon / spec.step_count

    max_residual = -1.0
    at_time = 0.0
    used_trapezoid = False
    for j in range(len(times)):
        tj = tlist[j]
        poly = sum(tj**i / math.factorial(i) * spec.initial[i] for i in range(n))
        if j == 0:
            integral = 0.0
        else:
            kernel = (tj - times[: j + 1]) ** (n - 1)
            integral, trap = _composite_simpson(kernel * forcing[: j + 1], h)
            used_trapezoid = used_trapezoid or trap
        residual = abs(positions[j] - (poly + factor * integral))
        if residual > max_residual:
            max_residual = residual
            at_time = tj
    return IntegralResidual(float(max_residual), at_time, used_trapezoid)


def _nearest_divisors(n: int, k: int) -> list[int]:
    """The largest divisor of n below k and the smallest above it, if any."""
    divisors = [
        d for i in range(1, math.isqrt(n) + 1) if n % i == 0 for d in (i, n // i)
    ]
    below = [d for d in divisors if d < k]
    above = [d for d in divisors if d > k]
    return ([max(below)] if below else []) + ([min(above)] if above else [])


def segment_counts(spec: UdeSpec, segments: int) -> list[int]:
    """Solver steps per driver segment when ``segments`` equal segments span
    [0, horizon]. There must be at least one (ConfigError otherwise), and
    they must divide the step count (AlignmentError otherwise), so that each
    RK4 step lies inside a single segment and every stage sees that
    segment's slope."""
    if segments < 1:
        raise ConfigError(f"segments must be >= 1, got {segments}")
    steps = spec.step_count
    if steps % segments:
        divisors = ", ".join(map(str, _nearest_divisors(steps, segments)))
        raise AlignmentError(
            f"{segments} segments do not divide the {steps} solver steps, so "
            f"the breakpoint t={spec.horizon / segments!r} does not fall on a "
            f"solver node; nearest divisors of {steps}: {divisors}"
        )
    return [steps // segments] * segments


def sample_positions(spec: UdeSpec, slopes: np.ndarray) -> np.ndarray:
    """Positions of the pathwise ODE, one row per driver.

    Row k of ``slopes`` (paths, segments) holds driver k's slope on each of
    ``segments`` equal segments of [0, horizon], which must divide the step
    count (see ``segment_counts``); the top row of the companion system is
    f + g * slope. Row k of the result (paths, N+1), a fresh C-contiguous
    array, is driver k's position at every node, the same bits however many
    rows are passed. Only positions are stored: no other component and no g,
    so a row costs N+1 values. Raises the first failing row's BlowUpError.
    """
    _require_valid(spec)
    counts = segment_counts(spec, slopes.shape[1])
    states, _, failures = _solve_rows(spec, True, counts, slopes, 1, None, False)
    if failures:
        raise failures[0][1]
    return states[:, :, 0]
