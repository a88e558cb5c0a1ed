"""Arithmetic expression DSL for drift and diffusion functions.

Expressions are written over the time variable ``t`` and the state variables
``x0 .. x{n-1}`` (position and its derivatives) of an order-n problem, e.g.
``"x0 + 2*t"`` or ``"2 + tanh(x0)"``. The grammar supports ``+ - * / ^``,
unary negation, parentheses, and a fixed whitelist of functions. ``^`` is
right-associative and binds tighter than unary minus, so ``-x0^2`` means
``-(x0^2)``. There is no implicit multiplication: ``2x0`` is a lex/parse
error, never ``2*x0``.

Trees are immutable and safe to share across concurrent solves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import CodeType
from typing import Callable, Mapping, Union

import numpy as np

from .errors import (
    LexError,
    NonFiniteError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_OPERATORS = "+-*/^"

# ASCII only: str.isdigit also accepts digits such as '²' that float() rejects
_DIGITS = "0123456789"

# deepest expression the parser accepts, both as nodes on a root-to-leaf path
# of the tree and as nested parentheses, negations, powers and calls in the
# source (each costs the recursive parser up to 6 frames); this keeps every
# accepted tree inside the recursion limit and the Python compiler's 200
# levels of nesting in every function generated from it
MAX_DEPTH = 100


def state_variables(order: int) -> list[str]:
    """Legal variable names for an order-n problem: t, x0 .. x{n-1}."""
    return ["t"] + [f"x{k}" for k in range(order)]


@dataclass(frozen=True)
class Token:
    kind: str  # number | identifier | operator | lparen | rparen | comma
    lexeme: str
    position: int


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"


ExprAst = Union[Const, Var, Neg, BinOp, Call]


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; whitespace is skipped, anything else must lex.

    Concatenating the lexemes (ignoring whitespace) reproduces the input.
    Raises LexError for characters outside the DSL alphabet and for numeric
    literals that do not represent finite doubles.
    """
    tokens: list[Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    while k < n and source[k] in _DIGITS:
                        k += 1
                    j = k
            lexeme = source[i:j]
            if not math.isfinite(float(lexeme)):
                raise LexError(i, lexeme)
            tokens.append(Token("number", lexeme, i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("identifier", source[i:j], i))
            i = j
        elif ch in _OPERATORS:
            tokens.append(Token("operator", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(Token("rparen", ch, i))
            i += 1
        elif ch == ",":
            tokens.append(Token("comma", ch, i))
            i += 1
        else:
            raise LexError(i, ch)
    return tokens


class _Parser:
    """Recursive descent with precedence ^ > unary-neg > * / > + -."""

    def __init__(self, tokens: list[Token], order: int):
        self.tokens = tokens
        self.pos = 0
        self.variables = frozenset(state_variables(order))
        self.nesting = 0

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _end_position(self) -> int:
        if self.tokens:
            last = self.tokens[-1]
            return last.position + len(last.lexeme)
        return 0

    def _at_operator(self, ops: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "operator" and tok.lexeme in ops

    def parse(self) -> ExprAst:
        if not self.tokens:
            raise ParseError(0, "an expression")
        node = self.expression()
        tok = self._peek()
        if tok is not None:
            raise ParseError(tok.position, "end of input")
        if depth(node) > MAX_DEPTH:
            raise ParseError(0, f"at most {MAX_DEPTH} levels of nesting")
        return node

    def expression(self) -> ExprAst:
        node = self.term()
        while self._at_operator("+-"):
            op = self._advance().lexeme
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self._at_operator("*/"):
            op = self._advance().lexeme
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> ExprAst:
        # every recursion of the parser passes through here
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            tok = self._peek()
            raise ParseError(
                tok.position if tok else self._end_position(),
                f"at most {MAX_DEPTH} levels of nesting",
            )
        if self._at_operator("-"):
            self._advance()
            node: ExprAst = Neg(self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> ExprAst:
        node = self.primary()
        if self._at_operator("^"):
            self._advance()
            # right-associative; the exponent slot admits a leading unary minus
            return BinOp("^", node, self.unary())
        return node

    def primary(self) -> ExprAst:
        tok = self._peek()
        if tok is None:
            raise ParseError(self._end_position(), "a value")
        if tok.kind == "number":
            self._advance()
            return Const(float(tok.lexeme))
        if tok.kind == "identifier":
            self._advance()
            nxt = self._peek()
            if nxt is not None and nxt.kind == "lparen":
                return self._call(tok)
            if tok.lexeme not in self.variables:
                raise UnknownVariableError(tok.lexeme, tok.position)
            return Var(tok.lexeme)
        if tok.kind == "lparen":
            self._advance()
            node = self.expression()
            closing = self._peek()
            if closing is None or closing.kind != "rparen":
                raise ParseError(
                    closing.position if closing else self._end_position(), "')'"
                )
            self._advance()
            return node
        raise ParseError(tok.position, "a value")

    def _call(self, name: Token) -> ExprAst:
        if name.lexeme not in FUNCTIONS:
            raise UnknownFunctionError(name.lexeme, name.position)
        self._advance()  # lparen
        args = [self.expression()]
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "comma":
                self._advance()
                args.append(self.expression())
                continue
            break
        closing = self._peek()
        if closing is None or closing.kind != "rparen":
            raise ParseError(
                closing.position if closing else self._end_position(), "')'"
            )
        self._advance()
        if len(args) != 1:
            raise ParseError(name.position, f"exactly one argument to {name.lexeme}")
        return Call(name.lexeme, args[0])


def parse(tokens: list[Token], order: int) -> ExprAst:
    """Parse a token stream for a problem of the given order."""
    return _Parser(tokens, order).parse()


def parse_source(source: str, order: int) -> ExprAst:
    """Tokenize and parse in one call."""
    return parse(tokenize(source), order)


# ── Rendering ────────────────────────────────────────────────────────

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3
_ATOM_PRECEDENCE = 9


def pretty(node: ExprAst) -> str:
    """Render to DSL source that parses back to a structurally identical tree."""
    return _render(node, 0)


def _render(node: ExprAst, min_prec: int) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg, 0)})"
    if isinstance(node, Neg):
        text = "-" + _render(node.operand, _NEG_PRECEDENCE)
        return f"({text})" if _NEG_PRECEDENCE < min_prec else text
    prec = _PRECEDENCE[node.op]
    if node.op == "^":
        # left operand must be an atom-level item; the exponent slot is `unary`
        text = _render(node.left, prec + 1) + "^" + _render(node.right, _NEG_PRECEDENCE)
    else:
        text = f"{_render(node.left, prec)} {node.op} {_render(node.right, prec + 1)}"
    return f"({text})" if prec < min_prec else text


# ── Evaluation ───────────────────────────────────────────────────────


def evaluate(ast: ExprAst, env: Mapping[str, float]) -> float:
    """Evaluate with IEEE doubles.

    Any non-finite intermediate (division by zero, ln of a non-positive
    value, overflow, fractional power of a negative base) raises
    NonFiniteError naming the offending subexpression. Pure and
    deterministic: identical (ast, env) give bit-identical results.
    """
    if isinstance(ast, Const):
        if not math.isfinite(ast.value):
            raise NonFiniteError(repr(ast.value))
        return ast.value
    if isinstance(ast, Var):
        try:
            return env[ast.name]
        except KeyError:
            raise UnknownVariableError(ast.name) from None
    if isinstance(ast, Neg):
        return -evaluate(ast.operand, env)
    if isinstance(ast, BinOp):
        a = evaluate(ast.left, env)
        b = evaluate(ast.right, env)
        try:
            if ast.op == "+":
                value = a + b
            elif ast.op == "-":
                value = a - b
            elif ast.op == "*":
                value = a * b
            elif ast.op == "/":
                value = a / b
            else:
                value = math.pow(a, b)
        except (ValueError, OverflowError, ZeroDivisionError):
            raise NonFiniteError(pretty(ast)) from None
        if not math.isfinite(value):
            raise NonFiniteError(pretty(ast))
        return value
    a = evaluate(ast.arg, env)
    try:
        value = FUNCTIONS[ast.func](a)
    except (ValueError, OverflowError):
        raise NonFiniteError(pretty(ast)) from None
    if not math.isfinite(value):
        raise NonFiniteError(pretty(ast))
    return float(value)


def depth(ast: ExprAst) -> int:
    """Nodes on the longest root-to-leaf path; walks level by level, so a
    tree of any depth is measured without recursion."""
    level, count = [ast], 0
    while level:
        count += 1
        level = [child for node in level for child in _children(node)]
    return count


def _children(node: ExprAst) -> tuple[ExprAst, ...]:
    if isinstance(node, BinOp):
        return node.left, node.right
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def variables_of(ast: ExprAst) -> set[str]:
    """All variable names referenced by the tree."""
    if isinstance(ast, Var):
        return {ast.name}
    if isinstance(ast, Neg):
        return variables_of(ast.operand)
    if isinstance(ast, BinOp):
        return variables_of(ast.left) | variables_of(ast.right)
    if isinstance(ast, Call):
        return variables_of(ast.arg)
    return set()


# ── Compilation for tight solver loops ───────────────────────────────

# generated code calls the DSL's functions by their DSL names
_COMPILE_NAMESPACE = {
    **FUNCTIONS,
    "pow": math.pow,
    "OverflowError": OverflowError,
    "__builtins__": {},
}


def _elementwise(fn: Callable[[float], float]) -> Callable:
    """``fn`` applied element by element: the same libm call the scalar
    namespace makes, so each element gets the scalar result's bits. numpy's
    own sin, tanh, exp, ... differ from libm in the last bits."""

    def apply(x):
        if isinstance(x, np.ndarray):
            return np.fromiter(map(fn, x.tolist()), float, len(x))
        return fn(x)

    return apply


def _elementwise_pow(base, exponent):
    if isinstance(base, np.ndarray) or isinstance(exponent, np.ndarray):
        base, exponent = np.broadcast_arrays(base, exponent)
        values = map(math.pow, base.tolist(), exponent.tolist())
        return np.fromiter(values, float, base.size)
    return math.pow(base, exponent)


# the block namespace runs the same generated source over (B,) columns:
# + - * / abs and sqrt are numpy's IEEE-exact operations, the transcendental
# functions stay on libm, and ``all`` reduces a column of tests (a ufunc, as
# ndarray methods may import, which the empty builtins forbid)
_BLOCK_NAMESPACE = {
    **_COMPILE_NAMESPACE,
    **{name: _elementwise(fn) for name, fn in FUNCTIONS.items()},
    "abs": abs,
    "sqrt": np.sqrt,
    "pow": _elementwise_pow,
    "all": np.logical_and.reduce,
}


def _exec(source: str, block: bool = False) -> dict:
    """Run generated source in a fresh copy of the compile namespace, or of
    the block namespace, where its variables may be numpy columns."""
    namespace = dict(_BLOCK_NAMESPACE if block else _COMPILE_NAMESPACE)
    exec(_compile_source(source), namespace)
    return namespace


@functools.lru_cache(maxsize=64)
def _compile_source(source: str) -> CodeType:
    # code objects are immutable and can be shared; the oracle generates its
    # step once per chunk, and a step or partials text generated again for
    # another alpha, side or command is compiled only once
    return compile(source, "<expr>", "exec")


def _emit(node: ExprAst, names: Mapping[str, str]) -> str:
    """Python source for the tree, each variable replaced by names[variable].

    Every result is an atom (a name, a call or a parenthesized expression),
    so callers can splice it into larger expressions as is.
    """
    if isinstance(node, Const):
        return f"({node.value!r})"
    if isinstance(node, Var):
        try:
            return names[node.name]
        except KeyError:
            raise UnknownVariableError(node.name) from None
    if isinstance(node, Neg):
        return f"(-{_emit(node.operand, names)})"
    if isinstance(node, BinOp):
        left, right = _emit(node.left, names), _emit(node.right, names)
        if node.op == "^":
            return f"pow({left}, {right})"
        return f"({left} {node.op} {right})"
    return f"{node.func}({_emit(node.arg, names)})"
