"""The C engine: gcc builds (``_build``), the process's problem libraries,
one per (order, f, g), built by the first call whose rows x steps reach
COMPILE_MIN_ROW_STEPS (``_library``), and their callers (``_run_partials``,
``_run_compiled``). A batch's rows run two at a time, an odd last row
paired with itself, and a pair that raises a floating-point flag or leaves
the bound runs again as two rows alone. A batch of 2 * SPLIT_MIN_ROW_STEPS
row-steps or more is cut into slices of rows, at most one per CPU, that run
on threads at once (``_run_slices``). A row's bits and rerun do not depend
on its pair, its slice or the CPU count.
"""

from __future__ import annotations

import ctypes
import os
import threading
from itertools import count
from typing import Callable, Sequence

import numpy as np

from . import emit
from .core import UdeSpec

# a call whose rows x steps reach this many builds its problem's library;
# once it is built, calls of any size use it. Below it the row loop, the only
# runner besides C, integrates the batch. A build of the README and the
# three benchmark problems takes 0.06-0.09 s (medians of 21 and 31, 2-core
# Intel Xeon x86-64): 30,000 to 75,000 row-steps of the row loop at 1.2-2.1
# us each, at 1, 20 or 200 rows alike (C: 0.08-0.10 us on one CPU at 100
# rows), but also about 2 us saved per node of the condition-H audit, so a
# solve and its audit break even near this count
COMPILE_MIN_ROW_STEPS = 20_000

# a C batch is cut into slices of at least this many row-steps each, at most
# one per CPU the process may run on, and the slices run on threads at once.
# Starting and joining a thread costs 0.14-0.15 ms, an order-3 row of 800
# steps 0.08-0.11 ms; split in two, 2 and 4 such rows lose (0.22-0.28 ->
# 0.44-0.50 ms at 2 rows), 8 to 16 rows are near even and from 24 rows it
# wins (64 rows: 5.4-6.0 -> 3.3-3.8 ms; medians of 101, 2-core Intel Xeon
# x86-64). So a batch splits in two from 20,000 row-steps
SPLIT_MIN_ROW_STEPS = 10_000

# the C step is built by this compiler, named by a fixed path and run in a
# fixed environment (gcc needs PATH to find the linker), so a build consults
# no environment variable; -fno-builtin keeps gcc from folding libm calls on
# constants with its own arithmetic, whose bits differ from libm's, and
# -ffp-contract=off keeps it from fusing a multiply and an add
COMPILER = "/usr/bin/gcc"
_BUILD_ARGS = ("-O0", "-fno-builtin", "-ffp-contract=off", "-shared", "-fPIC")
_BUILD_ENV = {"PATH": "/usr/bin:/bin"}
_BUILD_TIMEOUT_S = 60.0
# each build runs in a private directory made here, not where TMPDIR points,
# and removed as soon as the library is loaded
_BUILD_ROOT = "/tmp"

# the process's loaded libraries by ``emit._library_key``; None marks a
# failed build
_LIBRARIES: dict[tuple[int, str, str], ctypes.CDLL | None] = {}
# library file names are never reused: the loader hands back an already
# loaded library for a path it has seen
_BUILD_NUMBERS = count()


def _build(source: str, args: Sequence[str], signatures: dict) -> ctypes.CDLL | None:
    """Compile C ``source`` with the compiler ``args`` into a shared library
    in a private directory, load it, remove the directory and return the
    library with each function of ``signatures`` typed by its (argument
    types, result type); None when the compiler is missing, fails or runs
    out of time, or the library does not load or lacks one of those
    functions. Nothing reaches stderr."""
    # a run that builds nothing never imports subprocess
    import shutil
    import subprocess
    import tempfile

    try:
        folder = tempfile.mkdtemp(prefix="alphapath-", dir=_BUILD_ROOT)
    except OSError:
        return None
    try:
        c_file = os.path.join(folder, "source.c")
        library = os.path.join(folder, f"library{next(_BUILD_NUMBERS)}.so")
        with open(c_file, "w") as out:
            out.write(source)
        subprocess.run(
            [COMPILER, *args, "-o", library, c_file, "-lm"],
            env=_BUILD_ENV,
            timeout=_BUILD_TIMEOUT_S,
            check=True,
            stdin=subprocess.DEVNULL,
            # pipes, not DEVNULL: with pipes the wait ends when gcc exits,
            # without them a timed wait polls with sleeps of up to 50 ms
            capture_output=True,
        )
        loaded = ctypes.CDLL(library)
        for name, types in signatures.items():
            function = getattr(loaded, name)
            function.argtypes, function.restype = types
        return loaded
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    finally:
        shutil.rmtree(folder, ignore_errors=True)


def _library(spec: UdeSpec, row_steps: int) -> ctypes.CDLL | None:
    """The problem's C library, built first if ``row_steps`` reaches
    COMPILE_MIN_ROW_STEPS; None without one (a smaller call before any
    build, no compiler or a failed build). Its ``term_count`` is the
    problem's ``emit._term_count``."""
    key = emit._library_key(spec)
    if key not in _LIBRARIES:
        if row_steps < COMPILE_MIN_ROW_STEPS:
            return None
        terms = emit._term_count(spec)
        i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
        ptr = ctypes.c_void_p
        signatures = {  # each function's argument types and result type
            "run": ([i32, f64, i64, i64, *[ptr] * 5, i64, *[ptr] * 3], None),
            "partials": ([i64, *[ptr] * 4], ctypes.c_int),
        }
        if terms:
            signatures["fill"] = ([i64, f64, ptr, ptr], ctypes.c_int)
        library = _build(emit._c_source(spec), _BUILD_ARGS, signatures)
        if library is not None:  # read by every batch, found once
            library.term_count = terms
        _LIBRARIES[key] = library
    return _LIBRARIES[key]


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _slice_bounds(rows: int, steps: int) -> list[int]:
    """Row bounds of the contiguous slices a C batch of ``rows`` rows of
    ``steps`` steps is cut into: one slice per SPLIT_MIN_ROW_STEPS
    row-steps, but no more than the rows or the CPUs and at least one,
    their row counts differing by at most one."""
    slices = min(rows, rows * steps // max(SPLIT_MIN_ROW_STEPS, 1))
    if slices > 1:
        slices = min(slices, _cpu_count())
    slices = max(slices, 1)
    return [rows * k // slices for k in range(slices + 1)]


def _run_slices(work: Callable[[int, int], None], bounds: Sequence[int]) -> None:
    """``work(start, stop)`` for each slice of ``bounds``, at once: the last
    on the calling thread, every other on a thread of its own, each joined
    before this returns, however it returns. The calling thread's exception
    is raised first, else the first to be raised in a worker."""
    slices = list(zip(bounds, bounds[1:]))
    errors: list[BaseException] = []

    def worker(start: int, stop: int) -> None:
        try:
            work(start, stop)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = []
    try:
        for bound in slices[:-1]:
            thread = threading.Thread(target=worker, args=bound)
            thread.start()
            threads.append(thread)
        work(*slices[-1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _run_compiled(
    library: ctypes.CDLL,
    spec: UdeSpec,
    signed: bool,
    counts: Sequence[int],
    slopes: np.ndarray,
    kept: int,
    keep_g: bool,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
    """Every row through the library's ``run`` on the node ``times``: the
    first ``kept`` state components and g (None without ``keep_g``) as
    ``solver._solve_rows`` returns them, and the indices of the rows to
    rerun in Python, whose values are not final.

    A problem with time terms first has the library's ``fill`` write them
    at every node into one table, on the calling thread, that every slice
    reads. A fill that raises an invalid, division-by-zero or overflow flag
    marks every row for the rerun and runs none: a row that completes
    computes every node's terms and would raise the flag itself, and a row
    that stops early is rerun anyway. The rows are cut into the slices of
    ``_slice_bounds``, each a ``run`` on pointers offset into the same
    arrays, run at once by ``_run_slices``; ctypes releases the GIL for the
    call. ``run`` steps a slice's rows two at a time, an odd last row paired
    with itself, its copy writing the same bits (``emit._C_RUNNER``). A row's bits
    and its rerun mark are those of the row alone, in any slice and any
    pair: the two lanes of a pair share only the grid's values, each pair
    starts by clearing the FP flags, a pair that raises one or leaves the
    bound is run again as two rows alone, the FP environment is per thread,
    and the library holds no mutable static state."""
    rows, nodes = len(slopes), spec.step_count + 1
    # the runner reads and writes these shapes through raw pointers
    spans = slopes.shape[1:] == (len(counts),) and sum(counts) == spec.step_count
    if not spans or not 1 <= kept <= spec.order or np.shape(times) != (nodes,):
        raise ValueError("slopes, counts, kept and times do not fit the problem")
    counts_in, slopes_in, times, initial = (
        np.array(counts, dtype=np.int64),
        np.ascontiguousarray(slopes, dtype=float),
        np.ascontiguousarray(times, dtype=float),
        np.array(spec.initial, dtype=float),
    )
    states = np.empty((rows, nodes, kept))
    diffusion = np.empty((rows, nodes)) if keep_g else None
    rerun = np.zeros(rows, dtype=np.uint8)
    h = spec.horizon / spec.step_count
    terms = library.term_count
    table = np.empty((spec.step_count, 3, terms))
    if terms and library.fill(spec.step_count, h, times.ctypes.data, table.ctypes.data):
        return states, diffusion, list(range(rows))
    table_in = table.ctypes.data if terms else None

    def run(start: int, stop: int) -> None:
        g_nodes = None if diffusion is None else diffusion[start:].ctypes.data
        library.run(
            signed,
            h,
            stop - start,
            len(counts),
            counts_in.ctypes.data,
            slopes_in[start:].ctypes.data,
            times.ctypes.data,
            table_in,
            initial.ctypes.data,
            kept,
            states[start:].ctypes.data,
            g_nodes,
            rerun[start:].ctypes.data,
        )

    _run_slices(run, _slice_bounds(rows, spec.step_count))
    return states, diffusion, np.flatnonzero(rerun).tolist()


def _run_partials(
    spec: UdeSpec,
    library: ctypes.CDLL,
    times: np.ndarray,
    states: np.ndarray,
    h: np.ndarray,
) -> np.ndarray | None:
    """(points, 2) partials of f and g, the text of ``emit._partials_lines`` at
    each (times[i], states[i], h[i]) through the library's ``partials``; None
    when the group raised an invalid, division-by-zero or overflow flag or
    gave a partial that is not finite."""
    times, states, h = (np.ascontiguousarray(a, float) for a in (times, states, h))
    points = len(states)
    # the library reads these shapes through raw pointers
    if states.shape != (points, spec.order) or not times.shape == h.shape == (points,):
        raise ValueError("times, states and steps do not fit the problem")
    values = np.empty((points, 2))
    arrays = (times, states, h, values)
    if library.partials(points, *(a.ctypes.data for a in arrays)):
        return None
    return values if np.isfinite(values).all() else None
