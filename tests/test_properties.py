"""Property tests of the expression DSL, the condition-H audit, the config
loader and the CLI.

Examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import json
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphapath import AlphaFan, UdeSpec, check_condition_h, integral_residual
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
    _emit,
    _exec,
    depth,
    evaluate,
    parse_source,
    pretty,
    state_variables,
    variables_of,
)
from alphapath.solver import _compile_step, segment_counts

from conftest import compile_evaluator, reference_condition_h

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


@settings(SETTINGS, max_examples=100)
@given(state_trees, st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_block_equals_compiled_bitwise(tree, t, seed):
    # the block namespace over a column of 64 states, as the solver runs it:
    # every element has the scalar result's bits, and a point where the
    # scalar code fails makes the block fail (the solver then reruns the rows)
    columns = np.random.default_rng(seed).uniform(-3.0, 3.0, (ORDER, 64))
    names = dict(zip(state_variables(ORDER), ["t", "y[0]", "y[1]", "y[2]"]))
    source = f"def _block(t, y):\n    return {_emit(tree, names)}\n"
    block = _exec(source, block=True)["_block"]
    scalar = compile_evaluator(tree, ORDER)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            values = np.broadcast_to(block(t, columns), (64,))
    except (ValueError, OverflowError, ZeroDivisionError, FloatingPointError):
        return
    for value, row in zip(values.tolist(), columns.T.tolist()):
        assert value.hex() == scalar(t, row).hex()


@settings(SETTINGS, max_examples=100)
@given(state_trees, trees, st.integers(0, 2**32 - 1))
def test_condition_h_equals_the_reference_bitwise(f, g, seed):
    # two paths of four nodes at random states, 8 sampled points: each group
    # runs as a block or, where the block fails, point by point; wherever the
    # tree-walking reference is defined, every field has its bits
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, 4)
    states = np.stack([rng.uniform(-3.0, 3.0, (4, ORDER)) for _ in range(2)])
    spec = UdeSpec(ORDER, f, g, tuple(states[0, 0]), 1.0, 1.0 / 3.0)
    fan = AlphaFan(spec, [0.25, 0.75], times, states, np.ones((2, 4)))
    try:
        (label, env, value), violations = reference_condition_h(spec, fan, 8, seed)
    except NonFiniteError:
        return
    report = check_condition_h(fan, samples=8, seed=seed)
    assert (report.min_function, report.min_env) == (label, env)
    assert report.min_partial.hex() == value.hex()
    assert report.violations == violations
    assert [v["value"].hex() for v in report.violations] == [
        v["value"].hex() for v in violations
    ]


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
