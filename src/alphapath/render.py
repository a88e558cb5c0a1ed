"""fan.csv and fan.json, byte for byte (``fan_files``): by one C library per
process (``_renderer_source``), which writes each float as float.__repr__
does, its digits found by Schubfach, and a path in either file's layout,
or by repr of each path's values, split and joined, with the same bytes.
The library is built once the values repr has rendered in the process reach
RENDER_MIN_VALUES (rent or buy). Under it the files of a solve are written
at once, each on a thread of its own; under repr, one after the other.
"""

from __future__ import annotations

import ctypes
from functools import cache, partial
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from . import engine

if TYPE_CHECKING:
    from .solver import AlphaFan

# a fan write builds the renderer library once the values that repr has
# rendered in the process, the write's own once per layout, reach this many
# (rent or buy): the build takes 0.13 s, and C writes a value in 0.08 us
# against repr's 1.4 us, so they break even at 94,000 to 97,000 values
# (medians of 11 on the wide-fan benchmark fan, one layout at a time, 2-core
# Intel Xeon x86-64)
RENDER_MIN_VALUES = 100_000

# the renderer only reads a double's bits, with no floating-point arithmetic
# and no libm call, so optimisation cannot change the text it writes
_RENDER_BUILD_ARGS = ("-O1", "-shared", "-fPIC")

# the process's renderer library, [None] after a failed build, and the
# values of fan texts that repr has rendered in this process
_RENDERER: list[ctypes.CDLL | None] = []
_REPR_VALUES = 0


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


def _csv_chunks(
    fan: AlphaFan, paths: Callable, times: list[str] | tuple[bytes, np.ndarray]
) -> Iterator[str | bytes]:
    """fan.csv: its header, then each path's rows from ``paths`` in grid
    order."""
    yield "alpha,t," + ",".join(f"x{k}" for k in range(fan.spec.order)) + "\n"
    yield from paths("csv", list(fan.states), fan.grid, times)


def _json_chunks(
    fan: AlphaFan, paths: Callable, times: list[str] | tuple[bytes, np.ndarray]
) -> Iterator[str | bytes]:
    """fan.json in the layout of ``json.dumps(payload, indent=2,
    sort_keys=True) + "\\n"`` for the payload {order, alphas, times, states}:
    each path's body from ``paths`` between its key and brackets, in the
    order of the ``states`` keys sorted as strings, then the time texts
    ``times``, repr's list or the renderer's text and ends, one to a line."""
    keys = [repr(alpha) for alpha in fan.grid]
    yield (
        '{\n  "alphas": [\n    '
        + ",\n    ".join(keys)
        + f'\n  ],\n  "order": {fan.spec.order!r},\n  "states": {{\n'
    )
    order = sorted(range(len(keys)), key=keys.__getitem__)
    states = [fan.states[k] for k in order]  # views, not a copy
    bodies = paths("json", states, [fan.grid[k] for k in order], times)
    for i, body in enumerate(bodies):
        yield (",\n" if i else "") + f'    "{keys[order[i]]}": [\n      [\n        '
        yield body
        yield "\n      ]\n    ]"
    yield '\n  },\n  "times": [\n    '
    if isinstance(times, list):  # repr's texts
        yield ",\n    ".join(times)
    else:  # the renderer's one text, and the end of each
        text, ends = times[0], times[1].tolist()
        yield b",\n    ".join(map(text.__getitem__, map(slice, [0, *ends[:-1]], ends)))
    yield "\n  ]\n}\n"


def fan_files(
    fan: AlphaFan, formats: Sequence[str]
) -> tuple[list[tuple[str, Iterator[str | bytes]]], Callable]:
    """The fan's file in each of ``formats``, fan.csv before fan.json, as
    its name and its text in chunks, str or bytes; and a function that
    calls a function of (start, stop) once per slice of those files'
    indices, such as their writes.

    One engine, chosen here, writes every file: the renderer library, built
    once this process's repr values and those of every file reach
    RENDER_MIN_VALUES, or else repr, alike. Either writes the time texts
    once, here, for every file. Under the library the slices are one file
    each and run at once, each on a thread of its own
    (``engine._run_slices``) while there are CPUs for them, as ctypes
    releases the GIL while ``render`` writes a path; under repr, which holds
    the GIL throughout, one slice runs on the calling thread."""
    global _REPR_VALUES
    values = fan.states.size * len(formats)
    if not _RENDERER and _REPR_VALUES + values >= RENDER_MIN_VALUES:
        i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
        ptr = ctypes.c_void_p
        signatures = {  # each function's argument types and result type
            "render": ([i32, i64, i64, ptr, f64, *[ptr] * 3], i64),
            "render_values": ([i64, *[ptr] * 3], i64),
        }
        library = engine._build(_renderer_source(), _RENDER_BUILD_ARGS, signatures)
        _RENDERER.append(library)
    library = _RENDERER[0] if _RENDERER else None
    if library is None:
        _REPR_VALUES += values
        paths, times = _python_paths, _float_texts(fan.times.tolist())
    else:
        paths = partial(_render_paths, library)
        times = _render_values(library, fan.times)
    files = [
        (f"fan.{layout}", chunks(fan, paths, times))
        for layout, chunks in zip(_LAYOUTS, (_csv_chunks, _json_chunks))
        if layout in formats
    ]
    threads = 1 if library is None else max(min(len(files), engine._cpu_count()), 1)
    bounds = [len(files) * k // threads for k in range(threads + 1)]
    return files, partial(engine._run_slices, bounds=bounds)
