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
process, whatever the step, horizon or initial state, that runs every point
of an audit group, and every row of a batch two at a time, through one step
of two rows whose lanes share only the grid's values, so that a CPU
overlaps the two rows' chains of libm calls (an odd last row is paired with
itself, and a pair that raises a floating-point flag or leaves the bound is
run again as two rows alone); and Python floats (``_compile_step``,
``_compile_partials``), the reference and the fallback, which runs a row or
a point at a time where there is no library and reruns every row or group
that raised a floating-point flag in C. A batch of at
least 2 * SPLIT_MIN_ROW_STEPS row-steps is cut into contiguous slices of
rows, at most one per CPU of the process, that C runs on threads at once
(``_run_compiled``); a row's bits, rerun and error do not depend on the
slice it falls in or on the CPU count. The step reads its step size as an
input and also returns g at its starting node, so a fan solve carries g at
every node for the regularity check to read. The parts of f and g that
depend on the time alone (``expr.time_terms``) are computed once per stage
time: in C once per batch, into a table of every node that every slice
reads, whose fill reruns the whole batch in Python if it raises a flag and
reuses a node's terms at t + h as the next node's at t where the two are
the same double; in Python once per step, and once per point of the audit.
``solve_fan`` returns these arrays as an ``AlphaFan``; an alpha-path is a
fan of one. ``sample_positions`` records positions only: no other component
and no g.

The fan's text comes from one more library per process, the same for every
problem (``_renderer_source``): it writes each float as float.__repr__ does,
its digits found by Schubfach and written two at a time, the fan's time
texts once per solve, and a path in fan.csv's or fan.json's layout; without
it one repr of each path's values, split and joined, writes the same bytes.
Under the library the layouts of a solve are written at once, each on a
thread of its own; under repr, one after the other (``path_texts``). Only
``_solve_rows``, ``condition_h_partials`` and ``path_texts`` choose between
C and Python.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cache, partial
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

# a fan write builds the renderer library once the values that repr has
# rendered in the process, the write's own once per layout, reach this many
# (rent or buy): the build takes 0.13 s, and C writes a value in 0.08 us
# against repr's 1.4 us, so they break even at 94,000 to 97,000 values
# (medians of 11 on the wide-fan benchmark fan, one layout at a time, 2-core
# Intel Xeon x86-64)
RENDER_MIN_VALUES = 100_000

# the C step is built by this compiler, named by a fixed path and run in a
# fixed environment (gcc needs PATH to find the linker), so a build consults
# no environment variable; -fno-builtin keeps gcc from folding libm calls on
# constants with its own arithmetic, whose bits differ from libm's, and
# -ffp-contract=off keeps it from fusing a multiply and an add
COMPILER = "/usr/bin/gcc"
_BUILD_ARGS = ("-O0", "-fno-builtin", "-ffp-contract=off", "-shared", "-fPIC")
# the renderer only reads a double's bits, with no floating-point arithmetic
# and no libm call, so optimisation cannot change the text it writes
_RENDER_BUILD_ARGS = ("-O1", "-shared", "-fPIC")
_BUILD_ENV = {"PATH": "/usr/bin:/bin"}
_BUILD_TIMEOUT_S = 60.0
# each build runs in a private directory made here, not where TMPDIR points,
# and removed as soon as the library is loaded
_BUILD_ROOT = "/tmp"

# the process's loaded libraries by ``_library_key``; None marks a failed build
_LIBRARIES: dict[tuple[int, str, str], ctypes.CDLL | None] = {}
# the process's renderer library, [None] after a failed build, and the
# values of fan texts that repr has rendered in this process
_RENDERER: list[ctypes.CDLL | None] = []
_REPR_VALUES = 0
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


def _names(spec: UdeSpec, time: str, row: Sequence[str], terms: int = 0) -> dict:
    """The source text of t, x0 .. x{n-1} and each of ``terms`` time terms
    m0 .. (``expr.time_terms``) at the stage time ``time``."""
    names = dict(zip(expr.state_variables(spec.order), [time, *row]))
    names.update((f"m{k}", f"m{k}{time}") for k in range(terms))
    return names


def _forcing(
    drift: expr.ExprAst,
    diffusion: expr.ExprAst,
    signed: bool,
    names: dict,
    g: str = "",
    c: str = "c",
) -> str:
    """Source of the companion system's top row, f + w(g) * c, over the
    source texts ``names`` (``_names``), the slope named ``c``.

    The driver weight w is abs for alpha-paths (c = phi_inv(alpha)) and the
    identity for surrogate drivers, whose slope c keeps the sign of dC/dt.
    A non-empty ``g`` names an already computed diffusion value.
    """
    g = g or expr._emit(diffusion, names)
    weight = g if signed else f"abs({g})"
    return f"{expr._emit(drift, names)} + {weight} * {c}"


def _term_lines(terms: list, time: str) -> list[tuple[str, str]]:
    """Each time term at the stage time ``time`` as an assignment (name,
    rhs), its name m{k}{time}."""
    return [(f"m{k}{time}", expr._emit(m, {"t": time})) for k, m in enumerate(terms)]


def _step_lines(spec: UdeSpec, signed: bool, lane: str = "") -> list[tuple[str, str]]:
    """One classical RK4 step of the companion system, f and g inlined, as
    assignments (name, rhs) in order: hh = h/2 and w = h/6, each time term
    of f and g at t (``_term_lines``), g at the step's node, the four stage
    forcings p q r s with the stage states a b e between them, each stage
    time u = t + hh and v = t + h followed by the time terms there, then the
    next state z0 .. z{n-1}. Each stage derivative is the stage state
    shifted up one row with the forcing on top, and the arithmetic is the
    classical tableau's, operation for operation; a time term is computed
    once per stage time, q and r sharing it at u. The right-hand sides read
    t, the step size h, c and the state y0 .. y{n-1}, and are valid Python
    and C alike; the text depends on the order, f and g alone.

    ``lane`` is appended to every name that belongs to the row: c, the
    state, the stage states, g, p q r s and the next state (y0 becomes y00
    in lane "0"). t, h, hh, w, u, v and the time terms are the grid's and
    keep their names, so the steps of two lanes can share them; lane ""
    is the step of one row."""
    terms, (drift, diffusion) = expr.time_terms([spec.drift, spec.diffusion])
    y, a, b, e, z = ([f"{v}{k}{lane}" for k in range(spec.order)] for v in "yabez")
    p, q, r, s, g, c = (f"{v}{lane}" for v in "pqrsgc")
    k1, k2, k3, k4 = y[1:] + [p], a[1:] + [q], b[1:] + [r], e[1:] + [s]

    def stage(out: list[str], coef: str, derivative: list[str]):
        return [(o, f"{x} + {coef} * {d}") for o, x, d in zip(out, y, derivative)]

    def forcing(time: str, row: list[str], known: str = "") -> str:
        names = _names(spec, time, row, len(terms))
        return _forcing(drift, diffusion, signed, names, known, c)

    return [
        ("hh", "0.5 * h"),
        ("w", "h / 6.0"),
        *_term_lines(terms, "t"),
        (g, expr._emit(diffusion, _names(spec, "t", y, len(terms)))),
        (p, forcing("t", y, g)),
        ("u", "t + hh"),
        *_term_lines(terms, "u"),
        *stage(a, "hh", k1),
        (q, forcing("u", a)),
        *stage(b, "hh", k2),
        (r, forcing("u", b)),
        *stage(e, "h", k3),
        ("v", "t + h"),
        *_term_lines(terms, "v"),
        (s, forcing("v", e)),
        *(
            (o, f"{x} + w * ({d1} + 2.0 * ({d2} + {d3}) + {d4})")
            for o, x, d1, d2, d3, d4 in zip(z, y, k1, k2, k3, k4)
        ),
    ]


def _diffusion_source(spec: UdeSpec) -> str:
    """g over t and the state y0 .. y{n-1}."""
    state = [f"y{k}" for k in range(spec.order)]
    return expr._emit(spec.diffusion, _names(spec, "t", state))


def _partials_lines(spec: UdeSpec) -> list[tuple[str, str]]:
    """The condition-H audit's central differences in x0, f and g inlined,
    as assignments (name, rhs) in order: hi = y0 + h, lo = y0 - h,
    w = 2.0 * h, each time term of f and g at t, shared by hi and lo, then
    df = (f(hi) - f(lo)) / w and dg, the same of g. The right-hand sides
    read t, h and the state y0 .. y{n-1}, and are valid Python and C
    alike."""
    terms, (drift, diffusion) = expr.time_terms([spec.drift, spec.diffusion])
    y = [f"y{k}" for k in range(spec.order)]
    hi, lo = (_names(spec, "t", [x, *y[1:]], len(terms)) for x in ("hi", "lo"))
    return [
        ("hi", "y0 + h"),
        ("lo", "y0 - h"),
        ("w", "2.0 * h"),
        *_term_lines(terms, "t"),
        *(
            (name, f"({expr._emit(tree, hi)} - {expr._emit(tree, lo)}) / w")
            for name, tree in (("df", drift), ("dg", diffusion))
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


# generated code declares every value of its text, whether f and g read it
# or not (a stage time, a component of the state)
_UNUSED = "__attribute__((unused))"

# the loops of the C translation unit. The batch loop steps its rows two at
# a time, an odd last row paired with itself, through ``pair``: the FP flags
# cleared at the pair's start and tested at its end, g and the kept
# components of each row stored at every node, each step given its node's
# row of the time-term table (NULL without time terms). A pair that leaves
# the bound or raises a flag is run again as two pairs of one row each, so
# that each row's values and rerun mark are those of the row alone. The
# audit loop clears the flags once before its first point and tests them
# once after its last
_C_RUNNER = """\
static double diffusion(double t {unused}, const double *state) {{
{load}    return {g};
}}

/* a batch as ``run`` is given it, and the step its rows take */
struct batch {{
    int (*step)({params});
    double h;
    int64_t segments, steps, kept;
    const int64_t *counts;
    const double *slopes, *times, *terms, *initial;
    double *states, *g_nodes;
}};

/* rows first and second of the batch, one in each lane of the pair step,
   from the initial state to the last node or the first step that leaves
   the bound, each row's values stored in its own place; a row paired with
   itself writes its copy's values, the same bits, over its own. Whether
   both lanes stayed within the bound and raised no invalid,
   division-by-zero or overflow flag */
static int pair(const struct batch *b, int64_t first, int64_t second) {{
    int64_t steps = b->steps, kept = b->kept, segments = b->segments, node = 0;
    int (*step)({params}) = b->step;
    const double *times = b->times;
    double h = b->h;
    double state[2 * {order}], g[2] = {{0.0, 0.0}};
    double *out0 = b->states + first * (steps + 1) * kept;
    double *out1 = b->states + second * (steps + 1) * kept;
    double *gs0 = b->g_nodes ? b->g_nodes + first * (steps + 1) : 0;
    double *gs1 = b->g_nodes ? b->g_nodes + second * (steps + 1) : 0;
    int ok = 1;
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t k = 0; k < {order}; k++) state[k] = state[{order} + k] = b->initial[k];
    for (int64_t k = 0; k < kept; k++) out0[k] = out1[k] = b->initial[k];
    for (int64_t seg = 0; ok && seg < segments; seg++) {{
        double c0 = b->slopes[first * segments + seg];
        double c1 = b->slopes[second * segments + seg];
        for (int64_t i = 0; ok && i < b->counts[seg]; i++, node++) {{
            ok = step(times[node], h, c0, c1, state, g{node_terms});
            if (gs0) {{ gs0[node] = g[0]; gs1[node] = g[1]; }}
            for (int64_t k = 0; k < kept; k++) {{
                out0[(node + 1) * kept + k] = state[k];
                out1[(node + 1) * kept + k] = state[{order} + k];
            }}
        }}
    }}
    if (ok && gs0) {{
        gs0[steps] = diffusion(times[steps], state);
        gs1[steps] = diffusion(times[steps], state + {order});
    }}
    return ok && !fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW);
}}

void run(int32_t signed_rows, double h, int64_t rows, int64_t segments,
         const int64_t *counts, const double *slopes, const double *times,
         const double *terms, const double *initial, int64_t kept,
         double *states, double *g_nodes, uint8_t *rerun) {{
    struct batch b = {{
        signed_rows ? step_signed : step_abs, h, segments, 0, kept, counts,
        slopes, times, terms, initial, states, g_nodes,
    }};
    for (int64_t k = 0; k < segments; k++) b.steps += counts[k];
    for (int64_t row = 0; row < rows; row += 2) {{
        int64_t second = row + 1 < rows ? row + 1 : row;
        rerun[row] = rerun[second] = 0;
        if (!pair(&b, row, second)) {{
            rerun[row] = !pair(&b, row, row);
            if (second != row) rerun[second] = !pair(&b, second, second);
        }}
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


# the time-term table's loop: every term at every node's stage times, the
# FP flags cleared before the first node and tested after the last. A node
# whose t is the last node's v, as doubles, copies the terms at v into its
# terms at t: the same terms at the same double, computed once
_C_FILL = """
int fill(int64_t steps, double h, const double *times, double *terms) {{
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t node = 0; node < steps; node++) {{
{declared}        double *m = terms + node * {width};
        if (node && times[node - 1] + h == t) {{
            for (int64_t k = 0; k < {count}; k++) m[k] = m[k - {count}];
        }} else {{
{at_t}        }}
{written}    }}
    int flagged = fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW) != 0;
    feclearexcept(FE_ALL_EXCEPT);
    return flagged;
}}
"""


# the renderer library's C text: Schubfach (Giulietti, "The Schubfach way to
# render doubles", 2020), which finds the shortest digits that read back to
# the double and are closest to it from three products rounded to odd, then
# CPython's repr layout of those digits, then fan.csv's or fan.json's layout
# of a path. It reads the table of ``_powers`` written above it
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

#define COPY(p, text, length) (memcpy(p, text, length), p + (length))
/* the 2 digits of v < 100 from the table of pairs, written at p */
#define PAIR(p, v) memcpy(p, pairs + 2 * (v), 2)

/* the digits of 0 < v < 10^9, written backwards so that they end just
   before end, two at a time; where they start */
static char *digits32(uint32_t v, char *end) {
    for (; v >= 100; v /= 100) PAIR(end -= 2, v % 100);
    if (v >= 10) PAIR(end -= 2, v);
    else *--end = (char)('0' + v);
    return end;
}

/* repr of the double at out, at most 24 bytes; its length */
static int64_t format_double(double value, char *out) {
    union { double d; uint64_t u; } cast = {value};
    uint64_t bits = cast.u & ~((uint64_t)1 << 63), inf = (uint64_t)2047 << 52;
    char *p = out, buffer[20], *end = buffer + 20, *digits = end;
    int k;
    if (bits > inf) return COPY(p, "nan", 3) - out;
    if (cast.u >> 63) *p++ = '-';
    if (bits == inf) return COPY(p, "inf", 3) - out;
    if (!bits) return COPY(p, "0.0", 3) - out;
    uint64_t s = shortest(bits, &k);
    for (; s % 10 == 0; s /= 10) k++;
    /* s < 10^17: a high part below 10^9 and a low part of 8 digits, zeros
       included, each in 32-bit arithmetic */
    if (s >= 100000000) {
        uint32_t low = (uint32_t)(s % 100000000);
        for (int i = 0; i < 4; i++, low /= 100) PAIR(digits -= 2, low % 100);
        s /= 100000000;
    }
    digits = digits32((uint32_t)s, digits);
    int length = (int)(end - digits), point = length + k; /* 0.digits * 10^point */
    if (point <= -4 || point > 16) {
        int e = point - 1;
        *p++ = digits[0];
        if (length > 1) {
            *p++ = '.';
            p = COPY(p, digits + 1, length - 1);
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0) e = -e;
        if (e >= 100) *p++ = (char)('0' + e / 100);
        PAIR(p, e % 100);
        p += 2;
    } else if (point <= 0) {
        p = COPY(p, "0.000", 2 - point);
        p = COPY(p, digits, length);
    } else if (point < length) {
        p = COPY(p, digits, point);
        *p++ = '.';
        p = COPY(p, digits + point, length - point);
    } else {
        p = COPY(p, digits, length);
        memset(p, '0', point - length);
        p = COPY(p + point - length, ".0", 2);
    }
    return p - out;
}

/* the separators of json.dumps(indent=2) between a path's values and rows */
static const char value_sep[] = ",\\n        ";
static const char row_sep[] = "\\n      ],\\n      [\\n        ";

/* one path of rows x cols values at text, in layout 0 (fan.csv's rows) or 1
   (fan.json's body), as ``_render_paths`` describes; its length. Row i's
   time text is times[ends[i - 1] .. ends[i]) */
int64_t render(int32_t layout, int64_t rows, int64_t cols, const double *values,
               double alpha, const char *times, const int64_t *ends, char *text) {
    char *p = text, head[24];
    int64_t head_length = format_double(alpha, head);
    for (int64_t i = 0, start = 0; i < rows; start = ends[i++]) {
        if (!layout) {
            p = COPY(p, head, head_length);
            *p++ = ',';
            p = COPY(p, times + start, ends[i] - start);
        } else if (i) {
            p = COPY(p, row_sep, sizeof row_sep - 1);
        }
        for (int64_t k = 0; k < cols; k++) {
            if (!layout) *p++ = ',';
            else if (k) p = COPY(p, value_sep, sizeof value_sep - 1);
            p += format_double(values[i * cols + k], p);
        }
        if (!layout) *p++ = '\\n';
    }
    return p - text;
}

/* the repr of each of count values at text, one after the other, at most
   24 bytes each, and the end of each in ends; their length */
int64_t render_values(int64_t count, const double *values, char *text,
                      int64_t *ends) {
    char *p = text;
    for (int64_t i = 0; i < count; i++) {
        p += format_double(values[i], p);
        ends[i] = p - text;
    }
    return p - text;
}
"""

# the layouts of ``render``, by its layout argument
_LAYOUTS = ("csv", "json")


def _row_bytes(cols: int, time_bytes: int) -> int:
    """A bound on the bytes ``render`` writes per row of ``cols`` values and
    a time text of at most ``time_bytes``: 24 per repr and 10 per separator
    before a value, and 26 + ``time_bytes`` for the rest, fan.json's row
    separator or fan.csv's alpha, "," after it, time and newline."""
    return 26 + time_bytes + 34 * cols


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
    """The renderer library's C translation unit, the same for every
    problem: the table of ``_powers`` as a C array of 63-bit halves, the
    digit pairs "00" .. "99" as one string, then ``_C_RENDERER``."""
    low = (1 << 63) - 1
    rows = ",\n".join(f"    {{{g >> 63:#x}u, {g & low:#x}u}}" for g in _powers())
    pairs = "\n".join(
        '    "' + "".join(f"{v:02d}" for v in range(k, k + 20)) + '"'
        for k in range(0, 100, 20)
    )
    return (
        "#include <stdint.h>\n#include <string.h>\n\n"
        f"static const uint64_t powers[][2] = {{\n{rows}\n}};\n\n"
        f"static const char pairs[] =\n{pairs};\n\n{_C_RENDERER}"
    )


def _pair_lines(spec: UdeSpec, signed: bool) -> list[tuple[str, str]]:
    """The lines of ``_step_lines`` in lanes "0" and "1" interleaved line by
    line, a line the two lanes share (the grid's) once: one step of two rows
    at once, whose two chains of libm calls a CPU can overlap."""
    lanes = zip(_step_lines(spec, signed, "0"), _step_lines(spec, signed, "1"))
    return [line for pair in lanes for line in dict.fromkeys(pair)]


def _c_source(spec: UdeSpec) -> str:
    """The texts of ``_step_lines`` and ``_partials_lines`` as one C
    translation unit: ``step_abs`` (alpha-paths) and ``step_signed``
    (surrogates), each a static function of the lines of ``_pair_lines``
    that advances the two rows of ``state`` (lane 0's state, then lane 1's)
    in place by a step h, one at slope c0 and one at c1, and returns whether
    both stayed within BLOWUP_LIMIT; ``run``, which integrates the rows of a
    batch two at a time into the caller's arrays and marks for a rerun in
    Python a row that leaves the bound or raises an invalid,
    division-by-zero or overflow flag; ``partials``, which writes (df, dg)
    at every point of an audit group and returns whether the group raised
    one of those flags. With time terms (``expr.time_terms``) also ``fill``,
    which writes every term at each node's stage times t, u and v into a
    table of (steps, 3, terms) and returns whether it raised one of those
    flags; a step reads its node's row of the table where its text computes
    a term, and the audit computes its terms itself. It reads the spec's
    order, f and g alone, as ``_library_key`` does."""
    n = spec.order
    terms = expr.time_terms([spec.drift, spec.diffusion])[0]
    load = "".join(f"    double y{k} {_UNUSED} = state[{k}];\n" for k in range(n))
    # abs is gcc's fabs, inline despite -fno-builtin: it clears the sign bit
    # as libm's does, exactly and with no flag, but without a call on the
    # stages' chain of dependent operations
    parts = [
        "#include <fenv.h>\n#include <math.h>\n#include <stdint.h>\n",
        "#define ln log\n#define abs __builtin_fabs\n",
    ]
    # each term at each stage time, by its name, and its place in a row
    staged = list(chain.from_iterable(_term_lines(terms, time) for time in "tuv"))
    slots = {name: k for k, (name, _) in enumerate(staged)}
    params = "double t, double h, double c0, double c1, double *state, double *g_out"
    params += ", const double *m" if terms else ""
    # lane l's component k is state[l * n + k]
    places = [(k, lane, lane * n + k) for k in range(n) for lane in (0, 1)]
    pair_load = "".join(
        f"    double y{k}{lane} {_UNUSED} = state[{i}];\n" for k, lane, i in places
    )
    store = "".join(f"    state[{i}] = z{k}{lane};\n" for k, lane, i in places)
    within = " && ".join(f"abs(z{k}{l}) <= {BLOWUP_LIMIT!r}" for k, l, _ in places)
    for name, signed in (("step_abs", False), ("step_signed", True)):
        body = "".join(
            f"    double {v} {_UNUSED} = {f'm[{slots[v]}]' if v in slots else rhs};\n"
            for v, rhs in _pair_lines(spec, signed)
        )
        parts.append(
            f"\nstatic int {name}({params}) {{\n{pair_load}{body}"
            f"    g_out[0] = g0;\n    g_out[1] = g1;\n{store}    return {within};\n}}\n"
        )
    body = "".join(
        f"    double {v} {_UNUSED} = {rhs};\n" for v, rhs in _partials_lines(spec)
    )
    signature = (
        f"void partial(double t {_UNUSED}, const double *state, double h, double *out)"
    )
    parts.append(
        f"\nstatic {signature} {{\n{load}{body}"
        "    out[0] = df;\n    out[1] = dg;\n}\n"
    )
    width = len(slots)
    parts.append(
        "\n"
        + _C_RUNNER.format(
            load=load,
            g=_diffusion_source(spec),
            order=n,
            unused=_UNUSED,
            params=params,
            node_terms=f", b->terms + node * {width}" if terms else "",
        )
    )
    if terms:  # the stage times as the step computes them
        stage = dict(_step_lines(spec, False))
        clock = [("t", "times[node]"), *((v, stage[v]) for v in ("hh", "u", "v"))]
        declared = "".join(f"        double {v} {_UNUSED} = {x};\n" for v, x in clock)
        at_t, at_u_v = staged[: len(terms)], staged[len(terms) :]
        parts.append(
            _C_FILL.format(
                width=width,
                count=len(terms),
                declared=declared,
                at_t="".join(f"            m[{slots[v]}] = {x};\n" for v, x in at_t),
                written="".join(f"        m[{slots[v]}] = {x};\n" for v, x in at_u_v),
            )
        )
    return "".join(parts)


def _build(source: str, args: Sequence[str], names: list[str]) -> ctypes.CDLL | None:
    """Compile C ``source`` with the compiler ``args`` into a shared library
    in a private directory, load it, remove the directory and return the
    library with its functions ``names`` typed; None when the compiler is
    missing, fails or runs out of time, or the library does not load or
    lacks one of those functions. Nothing reaches stderr."""
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
        i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
        ptr = ctypes.c_void_p
        types = {  # each function's argument types and result type
            "run": ([i32, f64, i64, i64, *[ptr] * 5, i64, *[ptr] * 3], None),
            "partials": ([i64, *[ptr] * 4], ctypes.c_int),
            "fill": ([i64, f64, ptr, ptr], ctypes.c_int),
            "render": ([i32, i64, i64, ptr, f64, *[ptr] * 3], i64),
            "render_values": ([i64, *[ptr] * 3], i64),
        }
        for name in names:
            function = getattr(loaded, name)
            function.argtypes, function.restype = types[name]
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


def _term_count(spec: UdeSpec) -> int:
    """The time terms of the spec's f and g (``expr.time_terms``)."""
    return len(expr.time_terms([spec.drift, spec.diffusion])[0])


def _library(spec: UdeSpec, row_steps: int) -> ctypes.CDLL | None:
    """The problem's C library, built first if ``row_steps`` reaches
    COMPILE_MIN_ROW_STEPS; None without one (a smaller call before any
    build, no compiler or a failed build). Its ``term_count`` is the
    problem's ``_term_count``."""
    key = _library_key(spec)
    if key not in _LIBRARIES:
        if row_steps < COMPILE_MIN_ROW_STEPS:
            return None
        terms = _term_count(spec)
        names = ["run", "partials"] + (["fill"] if terms else [])
        library = _build(_c_source(spec), _BUILD_ARGS, names)
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
) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
    """Every row through the library's ``run``: the first ``kept`` state
    components and g (None without ``keep_g``) as ``_solve_rows`` returns
    them, and the indices of the rows to rerun in Python, whose values are
    not final.

    A problem with time terms first has the library's ``fill`` write them
    at every node into one table, on the calling thread, that every slice
    reads. A fill that raises an invalid, division-by-zero or overflow flag
    marks every row for the rerun and runs none: a row that completes
    computes every node's terms and would raise the flag itself, and a row
    that stops early is rerun anyway. The rows are cut into the slices of
    ``_slice_bounds``, each a ``run`` on pointers offset into the same
    arrays, run at once by ``_run_slices``; ctypes releases the GIL for the
    call. ``run`` steps a slice's rows two at a time, an odd last row paired
    with itself, its copy writing the same bits (``_C_RUNNER``). A row's bits
    and its rerun mark are those of the row alone, in any slice and any
    pair: the two lanes of a pair share only the grid's values, each pair
    starts by clearing the FP flags, a pair that raises one or leaves the
    bound is run again as two rows alone, the FP environment is per thread,
    and the library holds no mutable static state."""
    rows, nodes = len(slopes), spec.step_count + 1
    # the runner reads and writes these shapes through raw pointers
    spans = slopes.shape[1:] == (len(counts),) and sum(counts) == spec.step_count
    if not spans or not 1 <= kept <= spec.order:
        raise ValueError("slopes, segment counts and kept do not fit the problem")
    counts_in, slopes_in, times, initial = (
        np.array(counts, dtype=np.int64),
        np.ascontiguousarray(slopes, dtype=float),
        time_grid(spec),
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


def _float_texts(values: list[float]) -> list[str]:
    """repr of each value, from one list repr: a float's repr holds no ", "."""
    return repr(values)[1:-1].split(", ")


def _render_values(
    library: ctypes.CDLL, values: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """The texts of ``_float_texts`` as the renderer library's
    ``render_values`` writes them: one after the other in one bytes, and
    the end of each."""
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 1:  # the library reads it through a raw pointer
        raise ValueError("values are not one list")
    ends = np.empty(len(values), dtype=np.int64)
    text = np.empty(24 * len(values), dtype=np.uint8)
    pointers = values.ctypes.data, text.ctypes.data, ends.ctypes.data
    return text[: library.render_values(len(values), *pointers)].tobytes(), ends


def _render_paths(
    library: ctypes.CDLL,
    layout: str,
    states: Sequence[np.ndarray],
    alphas: list,
    times: tuple[bytes, np.ndarray],
) -> Iterator[bytes]:
    """The texts of ``_python_paths`` as the renderer library's ``render``
    writes them, each copied out of the one buffer it writes every path in;
    ``times`` the time texts as ``_render_values`` returns them."""
    joined, ends = times
    ends = np.ascontiguousarray(ends, dtype=np.int64)
    widths = np.diff(ends, prepend=0)
    nodes = len(ends)
    n = np.shape(states[0])[-1] if len(states) else 0
    # the library reads these shapes through raw pointers
    fits = ends.ndim == 1 and (widths >= 0).all() and ends[-1:].sum() == len(joined)
    if not fits or len(alphas) != len(states):
        raise ValueError("states, alphas and times do not fit")
    text = np.empty(nodes * _row_bytes(n, int(widths.max(initial=0))), dtype=np.uint8)
    pointers = joined, ends.ctypes.data, text.ctypes.data
    code = _LAYOUTS.index(layout)
    for path, alpha in zip(states, alphas):
        path = np.ascontiguousarray(path, dtype=float)
        if path.shape != (nodes, n):
            raise ValueError("states, alphas and times do not fit")
        length = library.render(code, nodes, n, path.ctypes.data, alpha, *pointers)
        yield text[:length].tobytes()


def _python_paths(
    layout: str, states: Sequence[np.ndarray], alphas: list, times: list
) -> Iterator[bytes]:
    """Each path of ``states`` (nodes, n) in ``layout``, from repr's text of
    its values, one flat list per path: fan.csv's rows, alpha's repr, the
    time text from ``times`` and the row's values, or fan.json's body,
    json.dumps(indent=2)'s separators between values and rows. A repr holds
    no ", ", so splitting on it is exact."""
    for path, alpha in zip(states, alphas):
        values = [iter(_float_texts(path.ravel().tolist()))] * path.shape[1]
        if layout == "json":  # zip(*values) yields each row's n values
            rows = map(",\n        ".join, zip(*values))
            text = "\n      ],\n      [\n        ".join(rows)
        else:
            rows = map(",".join, zip(repeat(repr(alpha)), times, *values))
            text = "\n".join(rows) + "\n"
        yield text.encode("ascii")


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
    the text of ``_partials_lines`` at each point. The problem's library, if
    a solve has built it (this builds none), runs each group; a group it
    flags, and every group without it, runs point by point in Python
    (``_python_partials``)."""
    library = _LIBRARIES.get(_library_key(spec))
    python = None
    for group in groups:
        values = None if library is None else _run_partials(spec, library, *group)
        if values is None:
            python = python or _compile_partials(spec)
            values = _python_partials(spec, python, *group)
        yield values


def path_texts(
    fan: AlphaFan, layouts: Sequence[str]
) -> tuple[Callable, Callable, Callable]:
    """A function of a layout and grid indices that yields those paths'
    texts in order, "csv" a path's fan.csv rows and "json" its rows as
    fan.json lays them out; a function of a separator that joins the texts
    of the fan's times with it; and a function that calls each of a list of
    functions of no argument, such as the writes of those layouts. One
    engine, chosen here, serves every layout in ``layouts``: the renderer
    library, built once this process's repr values and those of every
    layout reach RENDER_MIN_VALUES, or else repr, alike. Either writes the
    time texts once, here, for every layout. Under the library the functions
    run at once, each on a thread of its own (``_run_slices``) while there
    are CPUs for them, as ctypes releases the GIL while ``render`` writes a
    path; under repr, which holds the GIL throughout, one after the other on
    the calling thread."""
    global _REPR_VALUES
    values = fan.states.size * len(layouts)
    if not _RENDERER and _REPR_VALUES + values >= RENDER_MIN_VALUES:
        names = ["render", "render_values"]
        _RENDERER.append(_build(_renderer_source(), _RENDER_BUILD_ARGS, names))
    library = _RENDERER[0] if _RENDERER else None
    if library is None:
        _REPR_VALUES += values
        engine, times = _python_paths, _float_texts(fan.times.tolist())
    else:
        engine = partial(_render_paths, library)
        times = _render_values(library, fan.times)

    def texts(layout: str, paths: Sequence[int]) -> Iterator[bytes]:
        states = [fan.states[k] for k in paths]  # views, not a copy
        return engine(layout, states, [fan.grid[k] for k in paths], times)

    def joined(separator: str) -> str | bytes:
        if library is None:
            return separator.join(times)
        text, ends = times[0], times[1].tolist()
        words = map(slice, [0, *ends[:-1]], ends)
        return separator.encode("ascii").join(map(text.__getitem__, words))

    def run(jobs: Sequence[Callable[[], None]]) -> None:
        def work(start: int, stop: int) -> None:
            for job in jobs[start:stop]:
                job()

        slices = 1 if library is None else max(min(len(jobs), _cpu_count()), 1)
        _run_slices(work, [len(jobs) * k // slices for k in range(slices + 1)])

    return texts, joined, run


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
    names = _names(spec, "t", [f"y[{i}]" for i in range(n)])
    top = _forcing(spec.drift, spec.diffusion, False, names)
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
