"""The texts of a problem's RK4 step (``_step_lines``) and condition-H
differences (``_partials_lines``), f and g inlined, written on Python floats
(``_compile_step``, ``_compile_partials``), the reference and the fallback,
and as one C unit per (order, f, g) (``_c_source``, ``_library_key``)
whose step takes two rows at once, in lanes that share only the grid's
values, so that a CPU overlaps their chains of libm calls. The step reads
its step size and returns g at its starting node. Terms of f and g that
read only the time (``expr.time_terms``) are computed once per stage time:
in C once per batch into a table of every node, in Python once per step.
``engine`` builds and runs the C text.
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


def _library_key(spec: UdeSpec) -> tuple[int, str, str]:
    """What ``_c_source`` reads of a spec: the order, and f and g emitted
    over their own variable names. Not the trees themselves, which compare
    Const(-0.0) equal to Const(0.0) though the two emit different texts."""
    names = {v: v for v in expr.state_variables(spec.order)}
    return spec.order, expr._emit(spec.drift, names), expr._emit(spec.diffusion, names)


def _term_count(spec: UdeSpec) -> int:
    """The time terms of the spec's f and g (``expr.time_terms``)."""
    return len(expr.time_terms([spec.drift, spec.diffusion])[0])
