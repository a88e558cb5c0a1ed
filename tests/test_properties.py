"""Property tests of the expression DSL, the solver's engines, the
condition-H audit, the config loader and the CLI.

Examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import json
import math
import subprocess
import tempfile
from decimal import Decimal
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from alphapath import AlphaFan, UdeSpec, check_condition_h, integral_residual, phi_inv
from alphapath import solver
from alphapath.cli import main
from alphapath.config import KNOWN_KEYS, RunConfig, build_config, parse_config_text
from alphapath.errors import ConfigError, NonFiniteError, ParseError
from alphapath.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Neg,
    Var,
    depth,
    evaluate,
    parse_source,
    pretty,
    time_terms,
    variables_of,
)
from alphapath.solver import _compile_step, segment_counts

from conftest import (
    build_in_compiled_round,
    compile_evaluator,
    needs_compiler,
    reference_condition_h,
)

ORDER = 3
SETTINGS = settings(derandomize=True, max_examples=50, deadline=None, database=None)

# lexed literals are non-negative; a sign is a Neg node
constants = st.floats(0.0, 1e6, allow_nan=False).map(abs).map(Const)
variables = st.sampled_from(["t", "x0", "x1", "x2"]).map(Var)
leaves = constants | variables
operators = st.sampled_from("+-*/^")
functions = st.sampled_from(sorted(FUNCTIONS))


def _extend(children):
    return (
        children.map(Neg)
        | st.builds(BinOp, operators, children, children)
        | st.builds(Call, functions, children)
    )


trees = st.recursive(leaves, _extend, max_leaves=16)

# one wrapper per level: chains around MAX_DEPTH deep, on either side of it
wrappers = st.one_of(
    st.just(Neg),
    functions.map(lambda name: lambda node: Call(name, node)),
    st.tuples(operators, leaves).map(lambda p: lambda n: BinOp(p[0], n, p[1])),
    st.tuples(operators, leaves).map(lambda p: lambda n: BinOp(p[0], p[1], n)),
)
wrapper_chains = st.lists(wrappers, min_size=MAX_DEPTH - 5, max_size=MAX_DEPTH + 5)


@st.composite
def deep_trees(draw):
    node = draw(leaves)
    for wrap in draw(wrapper_chains):
        node = wrap(node)
    return node


points = st.lists(st.floats(-3.0, 3.0), min_size=ORDER + 1, max_size=ORDER + 1)


@SETTINGS
@given(trees)
def test_pretty_parses_back_to_the_tree(tree):
    assert parse_source(pretty(tree), ORDER) == tree


@SETTINGS
@given(trees, points)
def test_compiled_equals_evaluate_bitwise(tree, point):
    t, *y = point
    try:
        expected = evaluate(tree, {"t": t, "x0": y[0], "x1": y[1], "x2": y[2]})
    except NonFiniteError:
        return
    assert compile_evaluator(tree, ORDER)(t, y).hex() == expected.hex()


state_trees = trees.filter(lambda tree: variables_of(tree) - {"t"})


@needs_compiler
@settings(SETTINGS, max_examples=100)
@given(state_trees, st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_condition_h_c_text_equals_python_text_bitwise(tree, t, seed):
    # the condition-H text in C over a block of 64 states, as the audit runs
    # it, against the Python text point by point: every partial has the
    # Python result's bits, and a point where the Python text fails or is not
    # finite makes the C call return None (the audit then reruns the group)
    states = np.random.default_rng(seed).uniform(-3.0, 3.0, (64, ORDER))
    times = np.full(64, t)
    h = 1e-6 * np.maximum(1.0, np.abs(states[:, 0]))
    spec = UdeSpec(ORDER, tree, tree, (0.5,) * ORDER, 1.0, 1.0)
    source = solver._c_source(spec)
    library = solver._build(source, solver._BUILD_ARGS, ["run", "partials"])
    assert library is not None
    values = solver._run_partials(spec, library, times, states, h)
    if values is None:
        return
    python = solver._compile_partials(spec)
    for value, row, step in zip(values.tolist(), states.tolist(), h.tolist()):
        assert [v.hex() for v in value] == [v.hex() for v in python(t, *row, step)]


@cache
def _render_library():
    """The renderer library, built from its own text alone, for every
    example of the renderer tests."""
    source = solver._renderer_source()
    library = solver._build(source, solver._RENDER_BUILD_ARGS, ["render"])
    assert library is not None
    return library


def _rendered(layout, states, alpha, times) -> tuple[str, str]:
    """A one-path ``states`` (1, nodes, n) in ``layout``, as the renderer
    library writes it and as the repr reference does."""
    ends = np.cumsum([len(t) for t in times], dtype=np.int64)
    joined = ("".join(times).encode("ascii"), ends)
    (got,) = solver._render_paths(_render_library(), layout, states, [alpha], joined)
    (want,) = solver._python_paths(layout, states, [alpha], times)
    return got.decode("ascii"), want.decode("ascii")


def _double(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# a double whose shortest digits Grisu3 could not certify, found on the
# README fan, where an earlier renderer left it out for repr to fill in
GRISU3_REJECTS = float.fromhex("-0x1.3064d1b15df6fp-2")

finite_doubles = st.one_of(
    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite),
    st.floats(allow_nan=False, allow_infinity=False),
)


@needs_compiler
@settings(SETTINGS, max_examples=500)
@given(finite_doubles)
@example(5e-324)
@example(2.225073858507201e-308)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(2.0**-1022)
@example(1e16)
@example(1e15)
@example(1e-05)
@example(0.0001)
@example(1e22)
@example(1e23)
@example(1e100)
@example(1e-100)
@example(-0.0)
@example(GRISU3_REJECTS)
def test_c_renderer_writes_repr(value):
    # a path of two rows holding the value and its negation, with the value
    # as its alpha: in both layouts the C text is the repr reference's, every
    # value written, none left for repr to splice in
    states = np.array([[[value, -value], [1.0, value]]])
    for layout in ("csv", "json"):
        got, want = _rendered(layout, states, value, ["0.0", "0.5"])
        assert got == want


@needs_compiler
def test_c_renderer_sweep_writes_repr():
    # one path, one value per row, through every power of two and its
    # neighbours one ulp away, every subnormal significand below 2^16, every
    # 10^k, the zeros, the values that are not finite and 200,000 seeded
    # random bit patterns, each value also negated: the C text is repr's
    powers = [2.0**e for e in range(-1074, 1024)]
    near = [math.nextafter(p, towards) for p in powers for towards in (0.0, math.inf)]
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    special = [0.0, math.nan, math.inf]
    subnormals = np.arange(1, 2**16, dtype=np.uint64).view(np.float64)
    random = np.random.default_rng(20).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = np.concatenate(
        [powers, near, tens, special, subnormals, random.view(float)]
    )
    states = np.concatenate([values, -values]).reshape(1, -1, 1)
    texts = _rendered("csv", states, 0.5, [""] * states.shape[1])
    # compared row by row, so that a failure names the values
    got, want = (text.splitlines() for text in texts)
    assert len(got) == len(want) == states.size
    assert [(g, w) for g, w in zip(got, want) if g != w] == []


@needs_compiler
@pytest.mark.parametrize("layout", ["csv", "json"])
@pytest.mark.parametrize("cols", [1, 2, 3])
def test_c_renderer_rows_stay_within_their_bound(layout, cols):
    # rows of values whose repr is the longest, 24 characters, then rows of
    # nan and -inf, with the longest alpha and time texts: the text is the
    # repr reference's, its first k rows take at most k times
    # ``_row_bytes``, and nothing is written past its end
    longest = [-2.2250738585072014e-308, -1.7976931348623157e308]
    assert {len(repr(v)) for v in longest} == {24}
    rows = [[v] * cols for v in longest * 3] + [[math.nan] * cols, [-math.inf] * cols]
    times = [repr(longest[k % 2]) for k in range(len(rows))]
    bound = solver._row_bytes(cols, 24)
    library = _render_library()
    for k in range(1, len(rows) + 1):
        states = np.array([rows[:k]])
        got, want = _rendered(layout, states, longest[0], times[:k])
        assert got == want
        assert len(got) <= k * bound
        # the raw call, into a buffer of exactly the bound and a guard
        joined = "".join(times[:k]).encode()
        ends = np.cumsum([len(t) for t in times[:k]], dtype=np.int64)
        text = np.full(k * bound + 64, 0xA5, dtype=np.uint8)
        length = library.render(
            solver._LAYOUTS.index(layout), k, cols, states.ctypes.data,
            longest[0], joined, ends.ctypes.data, text.ctypes.data,
        )
        assert text[:length].tobytes().decode() == want
        assert (text[length:] == 0xA5).all()


def _digits_and_point(value: float) -> tuple[int, int]:
    """The count of repr's shortest digits of a finite nonzero ``value``
    and its decimal point's position: |value| = 0.digits * 10^point."""
    _, digits, exponent = Decimal(repr(abs(value))).normalize().as_tuple()
    return len(digits), len(digits) + exponent


def _with_digits(count: int, point: int) -> float:
    """A double near 0.31415926535897932 * 10^point whose repr has
    ``count`` digits and that point."""
    value = float(f"0.{'31415926535897932'[:count]}e{point}")
    for _ in range(1000):
        if _digits_and_point(value) == (count, point):
            return value
        value = math.nextafter(value, math.inf)
    raise AssertionError(f"no double of {count} digits at point {point}")


@needs_compiler
def test_c_renderer_grid_writes_repr():
    # a grid of values in both signs, both layouts: every digit count from 1
    # to 17 at every decimal point position from -6 to 18, across repr's
    # switches to exponents below 1e-4 and from 1e16; digits either side of
    # the split at 10^8 (99,999,999, 10^8, 10^8 + 1, 10^16 - 1, 10^16 + 2);
    # the subnormals' edges and every power of two, where the rounding
    # interval narrows. The text is the repr reference's, and a row of each
    # value alone stays within its bound, no byte written past its end
    grid = [_with_digits(c, p) for c in range(1, 18) for p in range(-6, 19)]
    near_split = ("99999999", "1", "100000001", "9999999999999999", "10000000000000002")
    split = [
        float(f"0.{digits}e{point}")
        for digits in near_split
        for point in (-5, -4, -3, 0, 1, 8, 9, 16, 17)
    ]
    subnormals = [5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308]
    powers = [2.0**e for e in range(-1074, 1024)]
    values = np.array([*grid, *split, *subnormals, *powers])
    assert {_digits_and_point(v) for v in grid} == {
        (c, p) for c in range(1, 18) for p in range(-6, 19)
    }
    states = np.concatenate([values, -values]).reshape(1, -1, 1)
    for layout in ("csv", "json"):
        got, want = _rendered(layout, states, 0.5, [""] * states.shape[1])
        # compared line by line, so that a failure names the values
        lines = zip(got.split("\n"), want.split("\n"))
        assert [(g, w) for g, w in lines if g != w] == []
        assert got == want
        # each value alone in a row of its own, raw, into a buffer of the
        # row's bound and a guard
        bound, ends = solver._row_bytes(1, 0), np.zeros(1, dtype=np.int64)
        code, render = solver._LAYOUTS.index(layout), _render_library().render
        for row in states[0]:
            text = np.full(bound + 64, 0xA5, dtype=np.uint8)
            pointers = row.ctypes.data, 0.5, b"", ends.ctypes.data, text.ctypes.data
            length = render(code, 1, 1, *pointers)
            assert length <= bound and (text[length:] == 0xA5).all(), row[0]


def _builds_clean(tmp_path, text: str, args) -> tuple[int, str]:
    """The exit code and stderr of the compiler on C ``text`` with the build
    ``args`` and -Wall -Wextra -Werror."""
    source = tmp_path / "source.c"
    source.write_text(text, encoding="ascii")
    warnings = ("-Wall", "-Wextra", "-Werror")
    library = str(tmp_path / "library.so")
    done = subprocess.run(
        [solver.COMPILER, *args, *warnings, "-o", library, str(source)],
        env=solver._BUILD_ENV,
        capture_output=True,
        text=True,
        timeout=solver._BUILD_TIMEOUT_S,
    )
    return done.returncode, done.stderr


@needs_compiler
def test_the_renderer_builds_clean_with_warnings_as_errors(tmp_path):
    # the renderer's C text under -Wall -Wextra -Werror: no warning at all
    text = solver._renderer_source()
    assert _builds_clean(tmp_path, text, solver._RENDER_BUILD_ARGS) == (0, "")


@needs_compiler
@pytest.mark.parametrize(
    "order, f, g",
    [
        (2, "x0", "2 + tanh(x0)"),  # reads no t, and g no x1
        (3, "x0 - x2/(1 + t)", "2 + tanh(x0)"),  # reads t, but no time term
        (2, "0.5*x0 + sin(3*t)*x1", "1.5 + tanh(x0) + 0.25*cos(t)"),
        (1, "x0 + tanh(0.5)", "1 + t^2"),  # terms that read no t, or are g
    ],
    ids=["no-t", "t-without-terms", "time-terms", "constant-terms"],
)
def test_the_problem_library_builds_clean_with_warnings_as_errors(
    tmp_path, order, f, g
):
    # a problem's C text, with and without time terms and their table fill,
    # under -Wall -Wextra -Werror: no warning at all
    spec = UdeSpec.from_strings(order, f, g, [0.1] * order, 1.0, 0.01)
    assert ("int fill(" in solver._c_source(spec)) == bool(solver._term_count(spec))
    text = solver._c_source(spec)
    assert _builds_clean(tmp_path, text, solver._BUILD_ARGS) == (0, "")


@settings(
    SETTINGS,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(state_trees, trees, st.integers(0, 2**32 - 1))
def test_condition_h_equals_the_reference_bitwise(engines, f, g, seed):
    # two paths of four nodes at random states, 8 sampled points: each group
    # runs in C or, where the C call is flagged or there is no library, point
    # by point on the Python text; wherever the tree-walking reference is
    # defined, every field has its bits on both engines
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, 4)
    states = np.stack([rng.uniform(-3.0, 3.0, (4, ORDER)) for _ in range(2)])
    spec = UdeSpec(ORDER, f, g, tuple(states[0, 0]), 1.0, 1.0 / 3.0)
    fan = AlphaFan(spec, [0.25, 0.75], times, states, np.ones((2, 4)))
    try:
        (label, env, value), violations = reference_condition_h(spec, fan, 8, seed)
    except NonFiniteError:
        return
    for _ in engines():
        build_in_compiled_round(spec)
        report = check_condition_h(fan, samples=8, seed=seed)
        assert (report.min_function, report.min_env) == (label, env)
        assert report.min_partial.hex() == value.hex()
        assert report.violations == violations
        assert [v["value"].hex() for v in report.violations] == [
            v["value"].hex() for v in violations
        ]


def _tree(text):
    return parse_source(text, ORDER)


@settings(
    SETTINGS,
    max_examples=20,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(state_trees, trees, st.integers(0, 2**32 - 1))
@example(_tree("x0 + tanh(0.478)"), _tree("1 + 0.1*exp(2.467)"), 0)
@example(_tree("tanh(x0*1e200*1e200)"), _tree("1"), 0)
@example(_tree("x1/(x0 - x0)"), _tree("2 + tanh(x0)"), 0)
@example(_tree("ln(x0) + sqrt(x2)"), _tree("t - 0.5"), 1)
@example(_tree("x0^x1 - x2"), _tree("cos(x1) + 2"), 2)
@example(_tree("exp(x0*800)"), _tree("sin(t)"), 3)
@example(_tree("tanh(" * (MAX_DEPTH - 1) + "x0" + ")" * (MAX_DEPTH - 1)), _tree("1"), 4)
def test_compiled_rows_equal_python_rows_bitwise(engines, f, g, seed):
    # alpha rows and two-segment surrogate rows through the Python row loop
    # and through the C runner: the same states, g and failures, bit for bit
    spec = UdeSpec(ORDER, f, g, (0.5, -0.25, 0.125), 1.0, 1.0 / 8)
    alphas = [0.1, 0.5, 0.9]
    alpha_slopes = np.array([[phi_inv(a)] for a in alphas])
    surrogate_slopes = np.random.default_rng(seed).uniform(-3.0, 3.0, (3, 2))
    results = []
    for _ in engines():
        solves = [
            solver._solve_rows(spec, False, [8], alpha_slopes, ORDER, alphas),
            solver._solve_rows(spec, True, [4, 4], surrogate_slopes, ORDER, None),
        ]
        results.append(
            [
                (states.tobytes(), diffusion.tobytes())
                + tuple((r, e.last_good_time, str(e)) for r, e in failures)
                for states, diffusion, failures in solves
            ]
        )
    assert all(result == results[0] for result in results)


# trees of t and small constants alone that are time terms themselves, and
# trees that join one to a tree of the state by an operator, either side first
time_trees = st.recursive(
    st.floats(0.0, 4.0).map(Const) | st.just(Var("t")), _extend, max_leaves=6
).filter(lambda tree: time_terms([tree])[0] == [tree])
mixed_trees = st.builds(
    lambda op, term, tree, swap: BinOp(op, *((tree, term) if swap else (term, tree))),
    st.sampled_from("+-*"),
    time_trees,
    state_trees,
    st.booleans(),
)


@settings(
    SETTINGS,
    max_examples=15,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mixed_trees, mixed_trees, st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(_tree("0.5*x0 + sin(3*t)*x1"), _tree("1.5 + tanh(x0) + 0.25*cos(t)"), 5, 0)
@example(_tree("x0 + ln(t)"), _tree("2 + tanh(x1)"), 3, 1)
@example(_tree("x1 - exp(40*t)*x0"), _tree("tanh(x2) + t^0.5"), 4, 2)
def test_time_terms_have_the_bits_of_python_rows(
    engines, monkeypatch, f, g, rows, seed
):
    # f and g that mix time terms with terms of the state: alpha rows (abs)
    # and two-segment surrogate rows (signed) of 1 to 5 rows, through the
    # Python row loop and through the C runner in one slice and in two, its
    # terms read from one table per batch: the same states, g and failures,
    # bit for bit, a fill that raises a flag included
    spec = UdeSpec(ORDER, f, g, (0.5, -0.25, 0.125), 1.0, 1.0 / 8)
    alphas = [(k + 1) / (rows + 1) for k in range(rows)]
    alpha_slopes = np.array([[phi_inv(a)] for a in alphas])
    surrogate_slopes = np.random.default_rng(seed).uniform(-3.0, 3.0, (rows, 2))
    results = []
    for engine in engines():
        for cpus in (1, 2) if engine == "compiled" else (1,):
            monkeypatch.setattr(solver, "_cpu_count", lambda: cpus)
            solves = [
                solver._solve_rows(spec, False, [8], alpha_slopes, ORDER, alphas),
                solver._solve_rows(spec, True, [4, 4], surrogate_slopes, ORDER, None),
            ]
            results.append(
                [
                    (states.tobytes(), diffusion.tobytes())
                    + tuple((r, e.last_good_time, str(e)) for r, e in failures)
                    for states, diffusion, failures in solves
                ]
            )
    assert all(result == results[0] for result in results)


@settings(SETTINGS, max_examples=20)
@given(deep_trees())
def test_every_accepted_tree_compiles(tree):
    try:
        parsed = parse_source(pretty(tree), ORDER)
    except ParseError:
        assert depth(tree) > MAX_DEPTH
        return
    assert depth(parsed) <= MAX_DEPTH
    spec = UdeSpec(ORDER, parsed, parsed, (0.5,) * ORDER, 1.0, 1.0)
    compile_evaluator(parsed, ORDER)
    _compile_step(spec, signed=False)
    _compile_step(spec, signed=True)
    fan = AlphaFan(
        spec, [0.5], np.array([0.0, 1.0]), np.full((1, 2, ORDER), 0.5), np.ones((1, 2))
    )
    try:
        integral_residual(fan, 0)
    except (ValueError, OverflowError, ZeroDivisionError):
        pass  # the forcing compiled; it fails at these states


CONFIG = {
    "order": "2",
    "g": '"2 + tanh(x0)"',
    "initial": "[0.1, 0]",
    "horizon": "1.0",
    "step": "0.001",
}

# DSL characters plus a superscript and an Arabic-Indic digit, which Python
# counts as digits but the grammar does not
expression_text = st.text(alphabet="x0123456789t+-*/^()., e\u00b2\u0663", max_size=12)
values = st.one_of(
    st.sampled_from("0 2 -1 1e300 nan inf true [] [0.1,0] [abc] [csv,json]".split()),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=12),
    expression_text.map(lambda s: f'"{s}"'),
)
overrides = st.lists(
    st.tuples(st.sampled_from(sorted(KNOWN_KEYS) + ["bogus"]), values), max_size=4
)


@SETTINGS
@given(expression_text, overrides, st.text(max_size=20))
def test_config_text_builds_or_raises_config_error(f, changes, noise):
    lines = {**CONFIG, "f": f'"{f}"', **dict(changes)}
    text = "".join(f"{k} = {v}\n" for k, v in lines.items()) + noise
    try:
        config = build_config(*parse_config_text(text))
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


# a small valid run (16 steps, 5 alphas, 2 oracle paths of 2 segments), its
# f and g drawn from expressions that hold, fail, overflow or violate the
# hypotheses, and up to three keys replaced by values valid or not; the one
# large value, an alpha count, is refused by the run-size cap
SMALL_RUN = {
    "order": "2",
    "initial": "[0.1, 0]",
    "horizon": "1.0",
    "step": "0.0625",
    "alpha.count": "5",
    "alpha.lo": "0.1",
    "oracle.n_paths": "2",
    "oracle.segments": "2",
}
expressions = st.sampled_from(
    [
        "x0", "2 + tanh(x0)", "x0 + t", "1", "t - 0.5", "0-x0", "x1",
        "ln(x0)", "1/(x0 - 0.1)", "exp(1000*x0)", "1e308*x0*10", "x0 +",
    ]
).map(lambda s: f'"{s}"')
CLI_VALUES = {
    "order": ["1", "3", "0", "x"],
    "initial": ["[0.1]", "[0.1, 0, 0]", "[]", "[nan, 0]", "[1e300, 0]"],
    "horizon": ["0.5", "0", "-1", "nan"],
    "step": ["0.25", "0.125", "0.3", "0", "2"],
    "alpha.count": ["3", "4", "1", "1000000001"],
    "alpha.lo": ["0.01", "0", "0.7"],
    "oracle.delta": ["0.5", "0", "-1", "nan", "inf"],
    "oracle.n_paths": ["1", "0"],
    "oracle.segments": ["1", "3", "0"],
    "oracle.seed": ["7", "-1"],
    "oracle.alphas": ["[0.5]", "[]", "[1.5]", "[0.01]", "[nan]"],
    "output.formats": ["[json]", "[csv, json]", "[xml]"],
}
overrides = st.lists(
    st.sampled_from(sorted(CLI_VALUES)).flatmap(
        lambda key: st.sampled_from(CLI_VALUES[key]).map(lambda v: (key, v))
    ),
    max_size=3,
)


step_segments = st.integers(1, 2000).flatmap(
    lambda steps: st.tuples(st.just(steps), st.integers(1, steps))
)


@SETTINGS
@given(step_segments)
@example((1000, 32))
@example((1000, 25))
@example((10, 3))
@example((7, 7))
def test_segment_counts_split_the_steps_evenly_longer_first(steps_segments):
    steps, segments = steps_segments
    counts = segment_counts(steps, segments)
    assert len(counts) == segments
    assert sum(counts) == steps
    assert max(counts) - min(counts) <= 1
    assert counts == sorted(counts, reverse=True)  # the longer segments first
    if steps % segments == 0:
        assert counts == [steps // segments] * segments


@settings(SETTINGS, max_examples=80)
@given(expressions, expressions, overrides, st.sampled_from(["1.0", "0.5", "0", "2"]))
@example('"x0"', '"1"', [("oracle.delta", "nan")], "1.0")
@example('"x0"', '"1"', [("oracle.alphas", "[nan]")], "1.0")
@example('"x0"', '"1"', [("horizon", "1" + "0" * 400)], "1.0")
@example('"x0"', '"2 + tanh(x0)"', [("oracle.segments", "3")], "1.0")
@example('"x0"', '"1"', [("oracle.segments", "17")], "1.0")
def test_every_command_maps_a_generated_config_to_an_exit_code(f, g, changes, t):
    config = {**SMALL_RUN, "f": f, "g": g, **dict(changes)}
    text = "".join(f"{key} = {value}\n" for key, value in config.items())
    with tempfile.TemporaryDirectory() as workdir:
        path = f"{workdir}/run.conf"
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
        codes = {}
        for command in ("solve", "check", "dist", "oracle"):
            argv = [command, "--config", path, "--out", f"{workdir}/out", "--force"]
            if command == "dist":
                argv += ["--t", t]
            codes[command] = main(argv)
            assert codes[command] in (0, 2, 3, 4, 5), (command, text)
        # more segments than the at most 16 steps: refused by every command
        if config["oracle.segments"] == "17":
            assert set(codes.values()) == {2}, text
        # every command merges into the run.json of the same config
        if codes["solve"] == 0 and codes["check"] in (0, 4):
            with open(f"{workdir}/out/run.json", encoding="utf-8") as stream:
                assert "solver" in json.load(stream), text
