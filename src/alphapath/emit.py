"""A problem's RK4 step (``_step_lines``) and condition-H differences
(``_partials_lines``), f and g inlined, as lists of (name, rhs) lines, and
their two renderers: ``_python`` writes Python on floats, the reference and
the fallback (``_compile_step``, ``_compile_partials``, ``_compile_forcing``);
``_kernel`` writes the kernels of one C unit per (order, f, g) (``_c_source``,
``_library_key``), whose loops are one text for every problem. The C step
takes two rows at once, in lanes that share only the grid's values, so that
a CPU overlaps their chains of libm calls. Terms of f and g that read only
the time (``expr.time_terms``) are computed once per stage time: in C once
per batch into a table of every node, in Python once per step. ``engine``
builds and runs the C text.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

from . import expr
from .core import UdeSpec

# any |state| beyond this aborts a solve: distinguishes hypothesis failure
# from numeric overflow noise
BLOWUP_LIMIT = 1e12


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


def _python(*functions: tuple[str, list, list[str]]) -> list[Callable]:
    """Each (head, lines, tail) as a Python function, all run as one text:
    ``def head:``, then each line (name, rhs) as an assignment and each
    statement of the tail. The functions in the order given."""
    source = "".join(
        f"def {head}:\n"
        + "".join(f"    {x}\n" for x in [*(f"{v} = {rhs}" for v, rhs in lines), *tail])
        for head, lines, tail in functions
    )
    namespace = expr._exec(source)
    return [namespace[head.partition("(")[0]] for head, _, _ in functions]


def _compile_partials(spec: UdeSpec) -> Callable:
    """The text of ``_partials_lines`` as Python:
    ``partials(t, y0, ..., y{n-1}, h)`` returns (df, dg) on floats."""
    state = ", ".join(f"y{k}" for k in range(spec.order))
    head = f"partials(t, {state}, h)"
    return _python((head, _partials_lines(spec), ["return df, dg"]))[0]


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
    unpack = (f"_, {', '.join(f'y{k}' for k in range(spec.order))},", "y")
    tail = [
        "if " + " and ".join(within) + ":",
        f"    return g, {', '.join(z)}",
        "raise OverflowError('state left the finite range')",
    ]
    step = ("step(t, y, c, h)", [unpack, *_step_lines(spec, signed)], tail)
    diffusion = ("diffusion(t, y)", [unpack], [f"return {_diffusion_source(spec)}"])
    return tuple(_python(step, diffusion))


def _compile_forcing(spec: UdeSpec) -> Callable:
    """The alpha-path companion system's top row (``_forcing``, w = abs) as
    Python: ``forcing(t, y, c)`` over t, a state row y and the slope c."""
    names = _names(spec, "t", [f"y[{i}]" for i in range(spec.order)])
    top = _forcing(spec.drift, spec.diffusion, False, names)
    return _python(("forcing(t, y, c)", [], [f"return {top}"]))[0]


# generated code declares every value of its text, whether f and g read it
# or not (a stage time, a component of the state)
_UNUSED = "__attribute__((unused))"

# the loops of the C translation unit, one text for every problem, after
# the problem's ORDER, WIDTH and kernels (``_c_source``). ``run`` steps a
# batch's rows two at a time, an odd last row paired with itself, through
# ``pair``: the FP flags cleared at the pair's start and tested at its end,
# g and the kept components of each row stored at every node, each step
# given its node's row of the time-term table (NULL, folded at compile
# time, when WIDTH is 0). A pair that leaves the bound or raises an
# invalid, division-by-zero or overflow flag is run again as two pairs of
# one row each, and a row that fails alone is marked for a rerun in Python,
# so that each row's values and mark are those of the row alone. The audit
# loop ``partials`` clears the flags once before its first point and tests
# them once after its last
_C_RUNNER = """
/* a batch as ``run`` is given it, and the step its rows take */
struct batch {
    int (*step)(double, double, double, double, double *, double *, const double *);
    double h;
    int64_t segments, steps, kept;
    const int64_t *counts;
    const double *slopes, *times, *terms, *initial;
    double *states, *g_nodes;
};

/* rows first and second of the batch, one in each lane of the pair step,
   from the initial state to the last node or the first step that leaves
   the bound, each row's values stored in its own place; a row paired with
   itself writes its copy's values, the same bits, over its own. Whether
   both lanes stayed within the bound and raised no invalid,
   division-by-zero or overflow flag */
static int pair(const struct batch *b, int64_t first, int64_t second) {
    int64_t steps = b->steps, kept = b->kept, segments = b->segments, node = 0;
    int (*step)(double, double, double, double, double *, double *, const double *) =
        b->step;
    const double *times = b->times;
    double h = b->h;
    double state[2 * ORDER], g[2] = {0.0, 0.0};
    double *out0 = b->states + first * (steps + 1) * kept;
    double *out1 = b->states + second * (steps + 1) * kept;
    double *gs0 = b->g_nodes ? b->g_nodes + first * (steps + 1) : 0;
    double *gs1 = b->g_nodes ? b->g_nodes + second * (steps + 1) : 0;
    int ok = 1;
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t k = 0; k < ORDER; k++) state[k] = state[ORDER + k] = b->initial[k];
    for (int64_t k = 0; k < kept; k++) out0[k] = out1[k] = b->initial[k];
    for (int64_t seg = 0; ok && seg < segments; seg++) {
        double c0 = b->slopes[first * segments + seg];
        double c1 = b->slopes[second * segments + seg];
        for (int64_t i = 0; ok && i < b->counts[seg]; i++, node++) {
            ok = step(times[node], h, c0, c1, state, g,
                      WIDTH ? b->terms + node * WIDTH : 0);
            if (gs0) { gs0[node] = g[0]; gs1[node] = g[1]; }
            for (int64_t k = 0; k < kept; k++) {
                out0[(node + 1) * kept + k] = state[k];
                out1[(node + 1) * kept + k] = state[ORDER + k];
            }
        }
    }
    if (ok && gs0) {
        gs0[steps] = diffusion(times[steps], state);
        gs1[steps] = diffusion(times[steps], state + ORDER);
    }
    return ok && !fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW);
}

void run(int32_t signed_rows, double h, int64_t rows, int64_t segments,
         const int64_t *counts, const double *slopes, const double *times,
         const double *terms, const double *initial, int64_t kept,
         double *states, double *g_nodes, uint8_t *rerun) {
    struct batch b = {
        signed_rows ? step_signed : step_abs, h, segments, 0, kept, counts,
        slopes, times, terms, initial, states, g_nodes,
    };
    for (int64_t k = 0; k < segments; k++) b.steps += counts[k];
    for (int64_t row = 0; row < rows; row += 2) {
        int64_t second = row + 1 < rows ? row + 1 : row;
        rerun[row] = rerun[second] = 0;
        if (!pair(&b, row, second)) {
            rerun[row] = !pair(&b, row, row);
            if (second != row) rerun[second] = !pair(&b, second, second);
        }
    }
    feclearexcept(FE_ALL_EXCEPT);
}

int partials(int64_t points, const double *times, const double *states,
             const double *steps, double *out) {
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t i = 0; i < points; i++)
        partial(times[i], states + i * ORDER, steps[i], out + 2 * i);
    int flagged = fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW) != 0;
    feclearexcept(FE_ALL_EXCEPT);
    return flagged;
}
"""

# the time-term table's loop: every term at every node's stage times, one
# row of WIDTH per node, the FP flags cleared before the first node and
# tested after the last. A node whose t is the last node's t + h, as
# doubles, has ``node_terms`` copy the terms there into its terms at t: the
# same terms at the same double, computed once
_C_FILL = """
int fill(int64_t steps, double h, const double *times, double *terms) {
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t node = 0; node < steps; node++)
        node_terms(times[node], h, node && times[node - 1] + h == times[node],
                   terms + node * WIDTH);
    int flagged = fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW) != 0;
    feclearexcept(FE_ALL_EXCEPT);
    return flagged;
}
"""


def _pair_lines(spec: UdeSpec, signed: bool) -> list[tuple[str, str]]:
    """The lines of ``_step_lines`` in lanes "0" and "1" interleaved line by
    line, a line the two lanes share (the grid's) once: one step of two rows
    at once, whose two chains of libm calls a CPU can overlap."""
    lanes = zip(_step_lines(spec, signed, "0"), _step_lines(spec, signed, "1"))
    return [line for pair in lanes for line in dict.fromkeys(pair)]


def _kernel(head: str, lines: list[tuple[str, str]], tail: list[str]) -> str:
    """The C function ``head``: each line (name, rhs) declared as a double
    in order, then the statements of ``tail``."""
    body = [*(f"double {v} {_UNUSED} = {rhs};" for v, rhs in lines), *tail]
    return f"\n{head} {{\n" + "".join(f"    {x}\n" for x in body) + "}\n"


def _c_source(spec: UdeSpec) -> str:
    """The texts of ``_step_lines`` and ``_partials_lines`` as one C
    translation unit: the problem's ORDER, its table's WIDTH and its
    kernels, each rendered by ``_kernel``, then the loops of ``_C_RUNNER``
    and ``_C_FILL``. ``step_abs`` (alpha-paths) and ``step_signed``
    (surrogates), the lines of ``_pair_lines``, advance the two rows of
    ``state`` (lane 0's, then lane 1's) in place by a step h, at slopes c0
    and c1, read each time term from their node's row ``m`` of the table,
    and return whether both stayed within BLOWUP_LIMIT; ``partial`` writes
    (df, dg) at a point, computing its terms itself; ``diffusion`` is g at
    a state; ``node_terms`` writes every term at a node's stage times t, u
    and v into its row of (3, terms). It reads the spec's order, f and g
    alone, as ``_library_key`` does."""
    n = spec.order
    terms = expr.time_terms([spec.drift, spec.diffusion])[0]
    # each term at each stage time, by its name, and its place in a row
    staged = list(chain.from_iterable(_term_lines(terms, time) for time in "tuv"))
    slots = {name: k for k, (name, _) in enumerate(staged)}
    # lane l's component k is state[l * n + k]
    places = [(k, lane, lane * n + k) for k in range(n) for lane in (0, 1)]
    within = " && ".join(f"abs(z{k}{l}) <= {BLOWUP_LIMIT!r}" for k, l, _ in places)
    pair = "double c0, double c1, double *state, double *g_out, const double *m"
    point = f"double t {_UNUSED}, const double *state"
    load = [(f"y{k}", f"state[{k}]") for k in range(n)]
    g = _diffusion_source(spec)
    stage, count = dict(_step_lines(spec, False)), len(terms)
    kernels = [
        *(
            (
                f"static int {name}(double t, double h, {pair} {_UNUSED})",
                [(f"y{k}{lane}", f"state[{i}]") for k, lane, i in places]
                + [(v, f"m[{slots[v]}]" if v in slots else x) for v, x in lines],
                ["g_out[0] = g0;", "g_out[1] = g1;"]
                + [f"state[{i}] = z{k}{lane};" for k, lane, i in places]
                + [f"return {within};"],
            )
            for name, lines in (
                ("step_abs", _pair_lines(spec, False)),
                ("step_signed", _pair_lines(spec, True)),
            )
        ),
        (
            f"static void partial({point}, double h, double *out)",
            load + _partials_lines(spec),
            ["out[0] = df;", "out[1] = dg;"],
        ),
        (f"static double diffusion({point})", load, [f"return {g};"]),
        # the stage times as the step computes them; the terms at t are the
        # last node's terms at v where its row shares t
        (
            f"static void node_terms(double t, double h, int shared {_UNUSED}, "
            f"double *m {_UNUSED})",
            [(v, stage[v]) for v in ("hh", "u", "v")]
            + [(v, f"shared ? m[{slots[v] - count}] : {x}") for v, x in staged[:count]]
            + staged[count:],
            [f"m[{k}] = {v};" for v, k in slots.items()],
        ),
    ]
    # abs is gcc's fabs, inline despite -fno-builtin: it clears the sign bit
    # as libm's does, exactly and with no flag, but without a call on the
    # stages' chain of dependent operations
    head = (
        "#include <fenv.h>\n#include <math.h>\n#include <stdint.h>\n"
        "#define ln log\n#define abs __builtin_fabs\n"
        f"\nenum {{ ORDER = {n}, WIDTH = {len(slots)} }};\n"
    )
    return "".join([head, *(_kernel(*k) for k in kernels), _C_RUNNER, _C_FILL])


def _library_key(spec: UdeSpec) -> tuple[int, str, str]:
    """What ``_c_source`` reads of a spec: the order, and f and g emitted
    over their own variable names. Not the trees themselves, which compare
    Const(-0.0) equal to Const(0.0) though the two emit different texts."""
    names = {v: v for v in expr.state_variables(spec.order)}
    return spec.order, expr._emit(spec.drift, names), expr._emit(spec.diffusion, names)


def _term_count(spec: UdeSpec) -> int:
    """The time terms of the spec's f and g (``expr.time_terms``)."""
    return len(expr.time_terms([spec.drift, spec.diffusion])[0])
