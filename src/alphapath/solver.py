"""Fixed-step RK4 integration of alpha-path families and pathwise sample
trajectories, plus the integral-form residual diagnostic.

The step size is fixed (no adaptivity) so that every path in a fan shares
one uniform grid: fan-wide monotonicity checks and the Simpson residual
both need aligned nodes, and node placement stays reproducible.

Every solve goes through ``_solve_rows``, where a row has one driver slope
per segment; an alpha-path is one segment with slope phi_inv(alpha). Rows are
integrated by one RK4 step generated per problem with f and g inlined
(``_step_lines``), and the condition-H audit takes its differences by one
generated text beside it (``_partials_lines``). Each text has two runners
with the same bits: C (``_c_source``), one library per (order, f, g) and
process, whatever the step, horizon or initial state, that runs every row
of a batch, or every point of an audit group; and Python floats
(``_compile_step``, ``_compile_partials``), the reference and the fallback,
which runs a row or a point at a time where there is no library and reruns
every row or group that raised a floating-point flag in C. The step reads
its step size as an input and also returns g at its starting node, so a fan
solve carries g at every node for the regularity check to read.
``solve_fan`` returns these arrays as an ``AlphaFan``; an alpha-path is a
fan of one. ``sample_positions`` records positions only: no other component
and no g.

The same library also renders the fan's states as text (``_render_paths``):
a fixed C text finds each float's shortest round-trip digits by Schubfach
and lays them out as float.__repr__ does, every value included. Only
``_solve_rows``, ``condition_h_partials`` and ``path_texts`` choose between
C and Python.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache
from itertools import chain, count, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import expr
from .core import UdeSpec, phi_inv, validate_spec
from .errors import BlowUpError, ConfigError, FanSolveError

if TYPE_CHECKING:
    import ctypes

# any |state| beyond this aborts a solve: distinguishes hypothesis failure
# from numeric overflow noise
BLOWUP_LIMIT = 1e12

# failures a generated step can raise: domain errors of the math functions,
# float division by zero, and OverflowError for a state that is not finite
# or beyond BLOWUP_LIMIT
_STEP_FAILURES = (ValueError, OverflowError, ZeroDivisionError)

# a call whose rows x steps reach this many builds its problem's library;
# once it is built, calls of any size use it. Below it the row loop, the only
# runner besides C, integrates the batch: one build, the fan renderer's text
# included, takes about 0.08 s (median of 12, 2-core Intel Xeon x86-64; the
# renderer adds about 0.012 s), what the row loop spends on 18,000 to 27,000
# row-steps at 3-4.5 us each
COMPILE_MIN_ROW_STEPS = 20_000

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

# the process's loaded libraries by ``_library_key``; None marks a failed build
_LIBRARIES: dict[tuple[int, str, str], ctypes.CDLL | None] = {}
# library file names are never reused: the loader hands back an already
# loaded library for a path it has seen
_BUILD_NUMBERS = count()


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


def _step_lines(spec: UdeSpec, signed: bool) -> list[tuple[str, str]]:
    """One classical RK4 step of the companion system, f and g inlined, as
    assignments (name, rhs) in order: hh = h/2 and w = h/6, g at the step's
    node, the four stage forcings p q r s with the stage states a b e between
    them, then the next state z0 .. z{n-1}. Each stage derivative is the stage state shifted up
    one row with the forcing on top, and the arithmetic is the classical
    tableau's, operation for operation. The right-hand sides read t, the
    step size h, c and the state y0 .. y{n-1}, and are valid Python and C
    alike; the text depends on the order, f and g alone."""
    y, a, b, e, z = ([f"{v}{k}" for k in range(spec.order)] for v in "yabez")
    k1, k2, k3, k4 = y[1:] + ["p"], a[1:] + ["q"], b[1:] + ["r"], e[1:] + ["s"]

    def stage(out: list[str], coef: str, derivative: list[str]):
        return [(o, f"{s} + {coef} * {d}") for o, s, d in zip(out, y, derivative)]

    return [
        ("hh", "0.5 * h"),
        ("w", "h / 6.0"),
        ("g", _diffusion_source(spec)),
        ("p", _forcing(spec, signed, "t", y, "g")),
        ("u", "t + hh"),
        *stage(a, "hh", k1),
        ("q", _forcing(spec, signed, "u", a)),
        *stage(b, "hh", k2),
        ("r", _forcing(spec, signed, "u", b)),
        *stage(e, "h", k3),
        ("v", "t + h"),
        ("s", _forcing(spec, signed, "v", e)),
        *(
            (o, f"{s} + w * ({p} + 2.0 * ({q} + {r}) + {d})")
            for o, s, p, q, r, d in zip(z, y, k1, k2, k3, k4)
        ),
    ]


def _diffusion_source(spec: UdeSpec) -> str:
    """g over t and the state y0 .. y{n-1}."""
    names = [f"y{k}" for k in range(spec.order)]
    variables = expr.state_variables(spec.order)
    return expr._emit(spec.diffusion, dict(zip(variables, ["t", *names])))


def _partials_lines(spec: UdeSpec) -> list[tuple[str, str]]:
    """The condition-H audit's central differences in x0, f and g inlined,
    as assignments (name, rhs) in order: hi = y0 + h, lo = y0 - h,
    w = 2.0 * h, then df = (f(hi) - f(lo)) / w and dg, the same of g. The
    right-hand sides read t, h and the state y0 .. y{n-1}, and are valid
    Python and C alike."""
    y = [f"y{k}" for k in range(spec.order)]
    names = expr.state_variables(spec.order)
    hi, lo = (dict(zip(names, ["t", x, *y[1:]])) for x in ("hi", "lo"))
    return [
        ("hi", "y0 + h"),
        ("lo", "y0 - h"),
        ("w", "2.0 * h"),
        *(
            (name, f"({expr._emit(tree, hi)} - {expr._emit(tree, lo)}) / w")
            for name, tree in (("df", spec.drift), ("dg", spec.diffusion))
        ),
    ]


def _compile_partials(spec: UdeSpec) -> Callable:
    """The text of ``_partials_lines`` as Python:
    ``partials(t, y0, ..., y{n-1}, h)`` returns (df, dg) on floats."""
    state = ", ".join(f"y{k}" for k in range(spec.order))
    body = [f"{name} = {rhs}" for name, rhs in _partials_lines(spec)]
    source = f"def partials(t, {state}, h):\n" + "".join(
        f"    {line}\n" for line in [*body, "return df, dg"]
    )
    return expr._exec(source)["partials"]


def _compile_step(spec: UdeSpec, signed: bool) -> tuple[Callable, Callable]:
    """The step of ``_step_lines`` as Python.

    ``step(t, y, c, h)`` takes a record (g, y0, ..., y{n-1}) whose state is
    the state at t, and returns the record a step h later: g at the given
    node, then the next state. It raises OverflowError for a state that is not
    finite or beyond BLOWUP_LIMIT. ``diffusion(t, y)`` is g alone at the
    record's state.
    """
    z = [f"z{k}" for k in range(spec.order)]
    within = [f"abs({v}) <= {BLOWUP_LIMIT!r}" for v in z]
    unpack = f"_, {', '.join(f'y{k}' for k in range(spec.order))}, = y"
    body = [
        unpack,
        *(f"{name} = {rhs}" for name, rhs in _step_lines(spec, signed)),
        "if " + " and ".join(within) + ":",
        f"    return g, {', '.join(z)}",
        "raise OverflowError('state left the finite range')",
    ]
    source = "def step(t, y, c, h):\n" + "".join(f"    {line}\n" for line in body)
    g = _diffusion_source(spec)
    source += f"def diffusion(t, y):\n    {unpack}\n    return {g}\n"
    namespace = expr._exec(source)
    return namespace["step"], namespace["diffusion"]


# the loops of the C translation unit. The batch loop goes row by row, the
# FP flags cleared at the row's start, g and the kept components stored at
# every node; the audit loop clears the flags once before its first point
# and tests them once after its last
_C_RUNNER = """\
static double diffusion(double t, const double *state) {{
{load}    return {g};
}}

void run(int32_t signed_rows, double h, int64_t rows, int64_t segments,
         const int64_t *counts, const double *slopes, const double *times,
         const double *initial, int64_t kept, double *states,
         double *g_nodes, uint8_t *rerun) {{
    int (*step)(double, double, double, double *, double *) =
        signed_rows ? step_signed : step_abs;
    int64_t steps = 0;
    for (int64_t k = 0; k < segments; k++) steps += counts[k];
    for (int64_t row = 0; row < rows; row++) {{
        double state[{order}], g = 0.0;
        double *out = states + row * (steps + 1) * kept;
        double *gs = g_nodes ? g_nodes + row * (steps + 1) : 0;
        int ok = 1;
        int64_t node = 0;
        feclearexcept(FE_ALL_EXCEPT);
        for (int64_t k = 0; k < {order}; k++) state[k] = initial[k];
        for (int64_t k = 0; k < kept; k++) out[k] = initial[k];
        for (int64_t seg = 0; ok && seg < segments; seg++) {{
            double c = slopes[row * segments + seg];
            for (int64_t i = 0; ok && i < counts[seg]; i++, node++) {{
                ok = step(times[node], h, c, state, &g);
                if (gs) gs[node] = g;
                for (int64_t k = 0; k < kept; k++)
                    out[(node + 1) * kept + k] = state[k];
            }}
        }}
        if (ok && gs) gs[steps] = diffusion(times[steps], state);
        rerun[row] = !ok || fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW);
    }}
    feclearexcept(FE_ALL_EXCEPT);
}}

int partials(int64_t points, const double *times, const double *states,
             const double *steps, double *out) {{
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i = 0; i < points; i++)
        partial(times[i], states + i * {order}, steps[i], out + 2 * i);
    int flagged = fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW) != 0;
    feclearexcept(FE_ALL_EXCEPT);
    return flagged;
}}
"""


# the fan renderer of the C translation unit: Schubfach (Giulietti, "The
# Schubfach way to render doubles", 2020), which finds the shortest digits
# that read back to the double and are closest to it from three products
# rounded to odd, then CPython's repr layout of those digits. It reads the
# table of ``_powers`` that ``_renderer_source`` writes above it
_C_RENDERER = """\
/* g * cp / 2^127 rounded to odd, with g = g1 2^63 + g0 */
static uint64_t rop(uint64_t g1, uint64_t g0, uint64_t cp) {
    uint64_t low = ((uint64_t)1 << 63) - 1;
    unsigned __int128 x = (unsigned __int128)g0 * cp, y = (unsigned __int128)g1 * cp;
    uint64_t z = ((uint64_t)y >> 1) + (uint64_t)(x >> 64);
    return ((uint64_t)(y >> 64) + (z >> 63)) | (((z & low) + low) >> 63);
}

/* the shortest digits s of the finite positive double of these bits that
   read back to it and, among those, are closest to it (ties to even), and
   the exponent k with value = s * 10^k */
static uint64_t shortest(uint64_t bits, int *k) {
    uint64_t c = bits & (((uint64_t)1 << 52) - 1);
    int biased = (int)(bits >> 52), q = biased ? biased - 1075 : -1074;
    if (biased) c |= (uint64_t)1 << 52;
    /* the rounding interval [cbl, cbr] * 2^(q-2), closed when c is even;
       it is narrower below a power of two, and 10^k is at most its width */
    uint64_t out = c & 1, cb = c << 2, cbr = cb + 2, cbl = cb - 2;
    if (c == (uint64_t)1 << 52 && biased > 1) {
        cbl = cb - 1;
        *k = (int)((q * 661971961083LL - 274743187321LL) >> 41);
    } else {
        *k = (int)((q * 661971961083LL) >> 41);
    }
    int h = q + (int)(-*k * 913124641741LL >> 38) + 2;
    const uint64_t *g = powers[*k + 324];
    uint64_t vb = rop(g[0], g[1], cb << h), vbl = rop(g[0], g[1], cbl << h);
    uint64_t vbr = rop(g[0], g[1], cbr << h), s = vb >> 2, t = s + 1;
    /* the interval is narrower than 10^(k+1), so it holds at most one of the
       multiples of 10^(k+1) around the double, the only shorter candidates;
       unlike Java's Double.toString, which wants two digits, this test runs
       for every s, so that tiny subnormals get repr's one digit (5e-324) */
    uint64_t down = s / 10 * 10, up = down + 10;
    int upin = vbl + out <= down << 2, wpin = (up << 2) + out <= vbr;
    if (upin != wpin) return upin ? down : up;
    int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (uin != win) return uin ? s : t;
    int64_t cmp = (int64_t)(vb - ((s + t) << 1));
    return cmp < 0 || (cmp == 0 && !(s & 1)) ? s : t;
}

/* repr of the double at out; its length */
static int64_t format_double(double value, char *out) {
    union { double d; uint64_t u; } cast = {value};
    uint64_t bits = cast.u & ~((uint64_t)1 << 63), inf = (uint64_t)2047 << 52;
    char *p = out, buffer[20], *digits = buffer + 20;
    int k, length, i;
    if (bits > inf) { *p++ = 'n'; *p++ = 'a'; *p++ = 'n'; return p - out; }
    if (cast.u >> 63) *p++ = '-';
    if (bits == inf) { *p++ = 'i'; *p++ = 'n'; *p++ = 'f'; return p - out; }
    if (!bits) { *p++ = '0'; *p++ = '.'; *p++ = '0'; return p - out; }
    uint64_t s = shortest(bits, &k);
    for (; s % 10 == 0; s /= 10) k++;
    for (; s; s /= 10) *--digits = (char)('0' + s % 10);
    length = (int)(buffer + 20 - digits);
    int point = length + k; /* value = 0.digits * 10^point */
    if (point <= -4 || point > 16) {
        int e = point - 1;
        *p++ = digits[0];
        if (length > 1) *p++ = '.';
        for (i = 1; i < length; i++) *p++ = digits[i];
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0) e = -e;
        if (e >= 100) *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (point <= 0) {
        *p++ = '0';
        *p++ = '.';
        for (i = point; i < 0; i++) *p++ = '0';
        for (i = 0; i < length; i++) *p++ = digits[i];
    } else {
        for (i = 0; i < length || i < point; i++) {
            if (i == point) *p++ = '.';
            *p++ = i < length ? digits[i] : '0';
        }
        if (point >= length) { *p++ = '.'; *p++ = '0'; }
    }
    return p - out;
}

int64_t render(int64_t rows, int64_t cols, const double *values, char *text) {
    char *p = text;
    for (int64_t i = 0; i < rows * cols; i++) {
        if (i % cols) { *p++ = ','; *p++ = ' '; }
        else if (i) { *p++ = ']'; *p++ = ','; *p++ = ' '; *p++ = '['; }
        p += format_double(values[i], p);
    }
    return p - text;
}
"""

# bytes of ``render``'s text per value: the longest repr of a double,
# "-2.2250738585072014e-308", and the row separator "], ["
_RENDER_BYTES = 24 + 4


@cache
def _powers() -> tuple[int, ...]:
    """The renderer's table: g = floor(10^-k * 2^-r) + 1 for k = -324 .. 292,
    r the integer that puts g in [2^125, 2^126), in exact integer
    arithmetic."""
    table = []
    for k in range(-324, 293):
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        top = num.bit_length() - den.bit_length()  # floor(log2 10^-k) or one above
        if (num << max(-top, 0)) < (den << max(top, 0)):
            top -= 1
        r = top - 125
        table.append((num << max(-r, 0)) // (den << max(r, 0)) + 1)
    return tuple(table)


@cache
def _renderer_source() -> str:
    """The table of ``_powers`` as a C array of 63-bit halves, then
    ``_C_RENDERER``."""
    low = (1 << 63) - 1
    rows = ",\n".join(f"    {{{g >> 63:#x}u, {g & low:#x}u}}" for g in _powers())
    return f"\nstatic const uint64_t powers[][2] = {{\n{rows}\n}};\n\n{_C_RENDERER}"


def _c_source(spec: UdeSpec) -> str:
    """The texts of ``_step_lines`` and ``_partials_lines`` as one C
    translation unit: ``step_abs`` (alpha-paths) and ``step_signed``
    (surrogates), each a static function that advances ``state`` in place
    by a step h and returns whether it stayed within BLOWUP_LIMIT; ``run``,
    which integrates every row of a batch into the caller's arrays and marks
    for a rerun in Python a row that leaves the bound or raises an invalid,
    division-by-zero or overflow flag; ``partials``, which writes (df, dg)
    at every point of an audit group and returns whether the group raised
    one of those flags; and ``render``, the fixed text ``_C_RENDERER`` after
    the table of ``_powers``, which writes a path's states as
    ``_render_paths`` describes. It reads the spec's order, f and g alone,
    as ``_library_key`` does."""
    n = spec.order
    load = "".join(f"    double y{k} = state[{k}];\n" for k in range(n))
    store = "".join(f"    state[{k}] = z{k};\n" for k in range(n))
    within = " && ".join(f"abs(z{k}) <= {BLOWUP_LIMIT!r}" for k in range(n))
    parts = [
        "#include <fenv.h>\n#include <math.h>\n#include <stdint.h>\n",
        "#define ln log\n#define abs fabs\n",
    ]
    params = "double t, double h, double c, double *state, double *g_out"
    for name, signed in (("step_abs", False), ("step_signed", True)):
        lines = _step_lines(spec, signed)
        body = "".join(f"    double {v} = {rhs};\n" for v, rhs in lines)
        parts.append(
            f"\nstatic int {name}({params}) {{\n"
            f"{load}{body}    *g_out = g;\n{store}    return {within};\n}}\n"
        )
    body = "".join(f"    double {v} = {rhs};\n" for v, rhs in _partials_lines(spec))
    signature = "void partial(double t, const double *state, double h, double *out)"
    parts.append(
        f"\nstatic {signature} {{\n{load}{body}"
        "    out[0] = df;\n    out[1] = dg;\n}\n"
    )
    parts.append("\n" + _C_RUNNER.format(load=load, g=_diffusion_source(spec), order=n))
    parts.append(_renderer_source())
    return "".join(parts)


def _build(source: str) -> ctypes.CDLL | None:
    """Compile C ``source`` into a shared library in a private directory,
    load it, remove the directory and return the library, its ``run``,
    ``partials`` and ``render`` typed; None when the compiler is missing,
    fails or runs out of time, or the library does not load or lacks one of
    those functions. Nothing reaches stderr."""
    # a run that builds nothing never imports subprocess
    import ctypes
    import shutil
    import subprocess
    import tempfile

    try:
        folder = tempfile.mkdtemp(prefix="alphapath-", dir=_BUILD_ROOT)
    except OSError:
        return None
    try:
        c_file = os.path.join(folder, "step.c")
        library = os.path.join(folder, f"step{next(_BUILD_NUMBERS)}.so")
        with open(c_file, "w") as out:
            out.write(source)
        subprocess.run(
            [COMPILER, *_BUILD_ARGS, "-o", library, c_file, "-lm"],
            env=_BUILD_ENV,
            timeout=_BUILD_TIMEOUT_S,
            check=True,
            stdin=subprocess.DEVNULL,
            # pipes, not DEVNULL: with pipes the wait ends when gcc exits,
            # without them a timed wait polls with sleeps of up to 50 ms
            capture_output=True,
        )
        loaded = ctypes.CDLL(library)
        pointer, int64, double = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        run, partials, render = loaded.run, loaded.partials, loaded.render
        run.argtypes = [
            ctypes.c_int32, double, int64, int64, *[pointer] * 4, int64, *[pointer] * 3
        ]
        run.restype = None
        partials.argtypes = [int64, *[pointer] * 4]
        partials.restype = ctypes.c_int
        render.argtypes = [int64, int64, pointer, pointer]
        render.restype = int64
        return loaded
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    finally:
        shutil.rmtree(folder, ignore_errors=True)


def _library_key(spec: UdeSpec) -> tuple[int, str, str]:
    """What ``_c_source`` reads of a spec: the order, and f and g emitted
    over their own variable names. Not the trees themselves, which compare
    Const(-0.0) equal to Const(0.0) though the two emit different texts."""
    names = {v: v for v in expr.state_variables(spec.order)}
    return spec.order, expr._emit(spec.drift, names), expr._emit(spec.diffusion, names)


def _built_library(spec: UdeSpec) -> ctypes.CDLL | None:
    """The problem's C library if a solve has built it; None otherwise (no
    build yet, no compiler or a failed build). Never builds."""
    return _LIBRARIES.get(_library_key(spec))


def _library(spec: UdeSpec, row_steps: int) -> ctypes.CDLL | None:
    """The problem's C library, built first if ``row_steps`` reaches
    COMPILE_MIN_ROW_STEPS; None without one (a smaller call before any
    build, no compiler or a failed build)."""
    key = _library_key(spec)
    if key not in _LIBRARIES:
        if row_steps < COMPILE_MIN_ROW_STEPS:
            return None
        _LIBRARIES[key] = _build(_c_source(spec))
    return _LIBRARIES[key]


def _run_compiled(
    library: ctypes.CDLL,
    spec: UdeSpec,
    signed: bool,
    counts: Sequence[int],
    slopes: np.ndarray,
    kept: int,
    keep_g: bool,
) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
    """Every row through the library's ``run``: the first ``kept`` state
    components and g (None without ``keep_g``) as ``_solve_rows`` returns
    them, and the indices of the rows to rerun in Python, whose values are
    not final."""
    rows, nodes = len(slopes), spec.step_count + 1
    # the runner reads and writes these shapes through raw pointers
    spans = slopes.shape[1:] == (len(counts),) and sum(counts) == spec.step_count
    if not spans or not 1 <= kept <= spec.order:
        raise ValueError("slopes, segment counts and kept do not fit the problem")
    inputs = (
        np.array(counts, dtype=np.int64),
        np.ascontiguousarray(slopes, dtype=float),
        time_grid(spec),
        np.array(spec.initial, dtype=float),
    )
    states = np.empty((rows, nodes, kept))
    diffusion = np.empty((rows, nodes)) if keep_g else None
    rerun = np.zeros(rows, dtype=np.uint8)
    g_nodes = None if diffusion is None else diffusion.ctypes.data
    library.run(
        signed,
        spec.horizon / spec.step_count,
        rows,
        len(counts),
        *(a.ctypes.data for a in inputs),
        kept,
        states.ctypes.data,
        g_nodes,
        rerun.ctypes.data,
    )
    return states, diffusion, np.flatnonzero(rerun).tolist()


def _run_partials(
    spec: UdeSpec,
    library: ctypes.CDLL,
    times: np.ndarray,
    states: np.ndarray,
    h: np.ndarray,
) -> np.ndarray | None:
    """(points, 2) partials of f and g, the text of ``_partials_lines`` at
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


def _render_paths(library: ctypes.CDLL, states: np.ndarray) -> Iterator[str]:
    """Each path of ``states`` (paths, nodes, n) as the text
    ``repr(path.tolist())[2:-2]``, values joined by ", " and rows by
    "], [", written by the library's ``render`` into one buffer that every
    path reuses."""
    paths = np.ascontiguousarray(states, dtype=float)
    if paths.ndim != 3:  # the library reads this shape through raw pointers
        raise ValueError("states must be (paths, nodes, n)")
    nodes, n = paths.shape[1:]
    text = np.empty(nodes * n * _RENDER_BYTES, dtype=np.uint8)
    for path in paths:
        length = library.render(nodes, n, path.ctypes.data, text.ctypes.data)
        yield text[:length].tobytes().decode("ascii")


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

    The problem's C library, when there is one (``_library``), runs every
    row, and the rows it marks are rerun alone in Python. Without it, every
    row runs alone in Python. The errors are always those of row-by-row
    solves.
    """
    library = _library(spec, len(slopes) * spec.step_count)
    if library is not None:
        states, diffusion, rows = _run_compiled(
            library, spec, signed, counts, slopes, kept, keep_g
        )
    else:
        states = np.empty((len(slopes), spec.step_count + 1, kept))
        diffusion = np.empty(states.shape[:2]) if keep_g else None
        rows = range(len(slopes))
    failures: list[tuple[int, BlowUpError]] = []
    compiled = _compile_step(spec, signed) if len(rows) else None
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
    text ``partials`` (``_compile_partials``). A point where it fails or is
    not finite is evaluated again by ``expr.evaluate``, whose NonFiniteError
    names the failing subexpression."""
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
    the text of ``_partials_lines`` at each point. A built library (this
    builds none) runs each group; a group it flags, and every group without
    one, runs point by point in Python (``_python_partials``)."""
    library = _built_library(spec)
    python = None
    for group in groups:
        values = None if library is None else _run_partials(spec, library, *group)
        if values is None:
            python = python or _compile_partials(spec)
            values = _python_partials(spec, python, *group)
        yield values


def path_texts(fan: AlphaFan) -> Iterator[str]:
    """Each path of the fan as the text ``repr(path.tolist())[2:-2]``:
    values joined by ", " and rows by "], [". The problem's C library
    writes it when a solve has built it (this builds none), repr when not."""
    library = _built_library(fan.spec)
    if library is None:
        return (repr(states.tolist())[2:-2] for states in fan.states)
    return _render_paths(library, fan.states)


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


def _composite_simpson(values: np.ndarray, h: float) -> float:
    """Integrate uniformly spaced samples at fourth order.

    Even interval counts use composite Simpson; odd counts close the last
    three intervals with the 3/8 rule, keeping the error O(h^4) so halving
    the step keeps shrinking the residual by ~16x. A single interval has too
    few nodes for either rule and falls back to the trapezoid.
    """
    m = len(values) - 1
    if m == 0:
        return 0.0
    if m == 1:
        return 0.5 * h * (values[0] + values[1])
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
        return float(tail)
    s = (
        values[0]
        + values[-1]
        + 4.0 * values[1:-1:2].sum()
        + 2.0 * values[2:-2:2].sum()
    )
    return h / 3.0 * float(s) + float(tail)


def integral_residual(fan: AlphaFan, k: int) -> IntegralResidual:
    """Check the fan's k-th path against its equivalent integral equation.

    An order-n path satisfies
        x(t) = sum_i t^i/i! * x_i(0)
               + 1/(n-1)! * integral_0^t (t-s)^(n-1) * F(s) ds
    where F is the top row of the companion system, f + |g| * phi_inv(alpha),
    evaluated along the stored states. The integral is approximated node-wise
    by composite Simpson quadrature (3/8 closure for odd interval counts);
    the one prefix with 2 nodes falls back to the trapezoid.
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
    for j in range(len(times)):
        tj = tlist[j]
        poly = sum(tj**i / math.factorial(i) * spec.initial[i] for i in range(n))
        if j == 0:
            integral = 0.0
        else:
            kernel = (tj - times[: j + 1]) ** (n - 1)
            integral = _composite_simpson(kernel * forcing[: j + 1], h)
        residual = abs(positions[j] - (poly + factor * integral))
        if residual > max_residual:
            max_residual = residual
            at_time = tj
    return IntegralResidual(float(max_residual), at_time)


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
