"""Tokenizer, parser and evaluator tests for the DSL, and checks of the
finite-difference reference the condition-h audit is compared against."""

from __future__ import annotations

import random

import pytest

from alphapath.errors import (
    LexError,
    NonFiniteError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)
from alphapath.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Neg,
    Var,
    depth,
    evaluate,
    parse,
    parse_source,
    pretty,
    state_variables,
    time_terms,
    tokenize,
    variables_of,
)

from conftest import compile_evaluator, reference_partial_fd

# expressions exercised by the round-trip and compilation tests
CORPUS = [
    "x0 + 2*t",
    "1+2*3",
    "2^3^2",
    "-x0^2",
    "(x0 + x1) * t",
    "sin(x0)*cos(t) + tanh(x1)",
    "2 + tanh(x0)",
    "x0/(1 + t*t)",
    "-(x0*t)",
    "x0^-2",
    "sqrt(abs(x0)) + ln(exp(t))",
    "1e-3*x1 - 2.5",
    "0.5^t",
    "--x0",
    "x0 - -x1",
    "t - 0.5",
    "0-x0",
    "(1 - t)^3 * x2",
    "abs(0 - x0) + 1",
]


def test_tokenize_segments_identifiers_and_operators():
    kinds = [(tok.kind, tok.lexeme) for tok in tokenize("x0 + 2*t")]
    assert kinds == [
        ("identifier", "x0"),
        ("operator", "+"),
        ("number", "2"),
        ("operator", "*"),
        ("identifier", "t"),
    ]


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_rejects_illegal_character():
    with pytest.raises(LexError) as excinfo:
        tokenize("x0 $ t")
    assert excinfo.value.position == 3
    assert excinfo.value.character == "$"
    # Python counts these as digits; the grammar's digits are ASCII
    for source in ("\u00b2", "1.\u00b2", "\u0663"):
        with pytest.raises(LexError):
            tokenize(source)


def test_tokenize_rejects_nonfinite_literal():
    with pytest.raises(LexError):
        tokenize("1e999")


def test_tokenize_positions_strictly_increase():
    for source in CORPUS:
        positions = [tok.position for tok in tokenize(source)]
        assert positions == sorted(set(positions))


def test_tokenize_lexemes_reproduce_input():
    for source in CORPUS:
        joined = "".join(tok.lexeme for tok in tokenize(source))
        assert joined == "".join(source.split())


def test_parse_precedence():
    assert evaluate(parse_source("1+2*3", 1), {}) == 7.0


def test_parse_power_right_associative():
    assert evaluate(parse_source("2^3^2", 1), {}) == 512.0


def test_parse_power_binds_tighter_than_negation():
    assert evaluate(parse_source("-2^2", 1), {}) == -4.0
    tree = parse_source("-x0^2", 1)
    assert isinstance(tree, Neg)
    assert isinstance(tree.operand, BinOp) and tree.operand.op == "^"


def test_parse_unknown_variable_for_order():
    with pytest.raises(UnknownVariableError):
        parse_source("x2", 2)
    # the same name is legal one order up
    assert parse_source("x2", 3) == Var("x2")


def test_parse_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse_source("sinh(x0)", 1)


def test_parse_errors_carry_position_and_expectation():
    with pytest.raises(ParseError) as excinfo:
        parse_source("x0 + ", 1)
    assert excinfo.value.expected == "a value"
    with pytest.raises(ParseError):
        parse_source("(x0", 1)
    with pytest.raises(ParseError):
        parse_source("x0 x1", 2)
    with pytest.raises(ParseError):
        parse_source("", 1)


def test_no_implicit_multiplication():
    # "2x0" lexes as number then identifier, which the grammar rejects
    with pytest.raises(ParseError):
        parse_source("2x0", 1)


def test_function_arity_is_one():
    with pytest.raises(ParseError):
        parse_source("sin(x0, t)", 1)


def test_round_trip_corpus():
    for source in CORPUS:
        tree = parse_source(source, 3)
        assert parse_source(pretty(tree), 3) == tree, source


def test_eval_examples():
    assert evaluate(parse_source("x0+2*t", 1), {"x0": 1.0, "t": 3.0}) == 7.0
    assert evaluate(parse_source("tanh(0)", 1), {}) == 0.0


def test_eval_pole_raises():
    with pytest.raises(NonFiniteError):
        evaluate(parse_source("1/(t-1)", 1), {"t": 1.0})


def test_eval_domain_failures():
    with pytest.raises(NonFiniteError):
        evaluate(parse_source("ln(0-t)", 1), {"t": 1.0})
    with pytest.raises(NonFiniteError):
        evaluate(parse_source("exp(t)", 1), {"t": 1e4})
    with pytest.raises(NonFiniteError):
        evaluate(parse_source("sqrt(0-1)", 1), {})
    with pytest.raises(NonFiniteError):
        evaluate(parse_source("(0-2)^0.5", 1), {})


def test_eval_missing_binding():
    with pytest.raises(UnknownVariableError):
        evaluate(parse_source("x0", 1), {})


def test_eval_deterministic_bit_identical():
    tree = parse_source("sin(x0)*cos(t) + tanh(x1)^3", 2)
    env = {"x0": 0.37, "x1": -1.2, "t": 2.25}
    first = evaluate(tree, env)
    assert all(evaluate(tree, env) == first for _ in range(5))


def test_partial_fd_quadratic():
    tree = parse_source("x0^2", 1)
    got = reference_partial_fd(tree, "x0", {"x0": 3.0}, 1e-6)
    assert got == pytest.approx(6.0, abs=1e-5)


def test_partial_fd_no_dependence():
    tree = parse_source("t", 1)
    assert reference_partial_fd(tree, "x0", {"t": 5.0, "x0": 1.0}, 1e-6) == 0.0


def test_partial_fd_tanh_at_origin():
    tree = parse_source("tanh(x0)", 1)
    got = reference_partial_fd(tree, "x0", {"x0": 0.0}, 1e-6)
    assert got == pytest.approx(1.0, abs=1e-8)


def test_partial_fd_matches_analytic_for_low_degree():
    # d/dx0 of a*x0^2 + b*x0 + c is 2*a*x0 + b; relative error within 1e-6
    rng = random.Random(20240811)
    tree = parse_source("2.5*x0^2 + 0.75*x0 - 3.25 + t", 1)
    for _ in range(25):
        x = rng.uniform(-8.0, 8.0)
        env = {"x0": x, "t": rng.uniform(-2.0, 2.0)}
        exact = 5.0 * x + 0.75
        got = reference_partial_fd(tree, "x0", env, 1e-6)
        assert got == pytest.approx(exact, rel=1e-6, abs=1e-9)


DEEP_SHAPES = {
    "sum": lambda n: "x0" + "+x0" * (n - 1),
    "negation": lambda n: "-" * (n - 1) + "x0",
    "call": lambda n: "tanh(" * (n - 1) + "x0" + ")" * (n - 1),
    "parentheses": lambda n: "(" * (n - 1) + "x0" + ")" * (n - 1),
    "power": lambda n: "^".join(["x0"] * n),
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_parse_depth_limit(shape):
    source = DEEP_SHAPES[shape]
    tree = parse_source(source(MAX_DEPTH), 1)
    compile_evaluator(tree, 1)
    with pytest.raises(ParseError, match=f"at most {MAX_DEPTH} levels of nesting"):
        parse_source(source(MAX_DEPTH + 1), 1)


@pytest.mark.parametrize("source", ["(" * 3000 + "x0" + ")" * 3000, "-" * 5000 + "x0"])
def test_parse_rejects_far_too_deep_input(source):
    with pytest.raises(ParseError, match=f"at most {MAX_DEPTH} levels"):
        parse_source(source, 1)


def test_depth():
    assert depth(parse_source("x0", 1)) == 1
    assert depth(parse_source("-(x0 + 2*t)", 1)) == 4
    # far deeper than any parse: measured without recursion
    tree = Var("x0")
    for _ in range(4999):
        tree = BinOp("+", tree, Const(1.0))
    assert depth(tree) == 5000


def test_variables_of():
    tree = parse_source("x0 + tanh(x1)*t", 2)
    assert variables_of(tree) == {"x0", "x1", "t"}
    assert variables_of(Const(2.0)) == set()


def test_state_variables():
    assert state_variables(2) == ["t", "x0", "x1"]


def test_compiled_matches_evaluate_bitwise():
    rng = random.Random(7)
    for source in CORPUS:
        tree = parse_source(source, 3)
        fn = compile_evaluator(tree, 3)
        for _ in range(10):
            y = [rng.uniform(0.1, 3.0) for _ in range(3)]
            t = rng.uniform(0.1, 3.0)
            env = {"t": t, "x0": y[0], "x1": y[1], "x2": y[2]}
            try:
                expected = evaluate(tree, env)
            except NonFiniteError:
                continue
            assert fn(t, y) == expected, source


def test_compiled_rejects_out_of_order_variables():
    tree = parse_source("x2", 3)
    with pytest.raises(UnknownVariableError):
        compile_evaluator(tree, 2)


def test_ast_nodes_are_immutable():
    tree = parse_source("x0 + 1", 1)
    with pytest.raises(AttributeError):
        tree.op = "-"  # type: ignore[misc]


def test_parse_trees_structural():
    assert parse_source("x0+2*t", 2) == BinOp(
        "+", Var("x0"), BinOp("*", Const(2.0), Var("t"))
    )
    assert parse_source("abs(x0)", 1) == Call("abs", Var("x0"))


@pytest.mark.parametrize(
    "f, g, terms, rewritten",
    [
        # long-narrow: one term in each, inside a product and a sum
        (
            "0.5*x0 + sin(3*t)*x1",
            "1.5 + tanh(x0) + 0.25*cos(t)",
            ["sin(3.0 * t)", "0.25 * cos(t)"],
            ["0.5 * x0 + m0 * x1", "1.5 + tanh(x0) + m1"],
        ),
        # no call or power on t alone: no term, the trees as they are
        ("x0 + 2*t", "2 + tanh(x0)", [], ["x0 + 2.0 * t", "2.0 + tanh(x0)"]),
        # a power and a constant call are terms; a whole tree can be one;
        # one text is one term, in f and in g alike
        (
            "x0*t^2 + tanh(0.5)",
            "exp(-t) + t^2",
            ["t^2.0", "tanh(0.5)", "exp(-t) + t^2.0"],
            ["x0 * m0 + m1", "m2"],
        ),
        # the maximal subtree: cos(t) inside sin(1 + cos(t)) is no term of
        # its own, and a call on the state is none
        (
            "sin(1 + cos(t)) * sqrt(x1)",
            "ln(x0 + t)",
            ["sin(1.0 + cos(t))"],
            ["m0 * sqrt(x1)", "ln(x0 + t)"],
        ),
    ],
)
def test_time_terms_are_the_maximal_calls_and_powers_on_t_alone(
    f, g, terms, rewritten
):
    trees = [parse_source(f, 2), parse_source(g, 2)]
    found, trees = time_terms(trees)
    assert [pretty(term) for term in found] == terms
    assert [pretty(tree) for tree in trees] == rewritten
    assert all(variables_of(term) <= {"t"} for term in found)


def test_time_terms_are_told_apart_by_their_text():
    # Const(0.0) == Const(-0.0), but the terms emit apart and stay two
    terms = [Call("sin", BinOp("*", Const(z), Var("t"))) for z in (0.0, -0.0)]
    trees = [BinOp("+", term, Var("x0")) for term in terms]
    found, rewritten = time_terms(trees)
    assert len(found) == 2
    assert [pretty(tree) for tree in rewritten] == ["m0 + x0", "m1 + x0"]
