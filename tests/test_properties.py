"""Property tests of the expression DSL and the config loader.

Examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alphapath import UdeSpec, integral_residual
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
    compile_evaluator,
    depth,
    evaluate,
    parse_source,
    pretty,
)
from alphapath.solver import AlphaPath, _compile_step

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
    path = AlphaPath(np.array([0.0, 1.0]), np.full((2, ORDER), 0.5), alpha=0.5)
    try:
        integral_residual(path, spec, 0.5)
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
