"""Payload assertion expressions.

Assertions are written in a small Python-expression subset ("pyexpr-like"):
comparisons (including chains), ``and``/``or``/``not``, integer arithmetic with
``+ - * /`` (division is floor division), the builtin ``size(x)`` giving the
byte length of a string or data value, integer and quoted string literals, and
the keyword constants ``true``/``false``. Anything else is rejected at compile
time.

``compile_predicate`` validates an assertion and compiles it once into a
tree of closures, one per syntax node. The parser calls it for each
``@{...}``, and the :class:`CompiledPredicate` it returns is the assertion
itself, from the protocol tree through projection and the FSM to the
monitor's check; nothing compiles it again.

Each closure's operator is picked and its literals captured at compile
time. ``size()`` takes a fast path for an exact ``bytes`` value, and a
single comparison against an integer literal takes one for an exact ``int``
operand; every other operand goes through the shared checks (``_compare``,
``_require_int``, ``_require_bool``, ``_size``), so the fast paths change no
verdict and no error's detail.

Evaluation is total: type errors, unbound variables, division by zero and
the size of a string that does not encode as UTF-8 (one holding a lone
surrogate) produce an :class:`EvalError` value instead of raising, so a
monitor can turn them into verdicts without exception handling on the hot
path.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

BUILTIN_FUNCTIONS = frozenset({"size"})
KEYWORD_CONSTANTS = {"true": True, "false": False}


class PredicateSyntaxError(ValueError):
    """Raised when an assertion source is not in the supported subset."""


@dataclass(frozen=True)
class EvalError:
    """A failed evaluation; ``detail`` says what went wrong."""

    detail: str


EvalResult = Union[bool, EvalError]

_CMP_FUNCS = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}


def _floordiv(left: int, right: int) -> int:
    if right == 0:
        raise _EvalFailure("division by zero")
    return left // right


_ARITH_FUNCS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: _floordiv,
}


def _compile(node: ast.AST, source: str):
    """Validate ``node`` and return a closure computing its value from an
    environment; the closure raises ``_EvalFailure`` where evaluation fails."""
    if isinstance(node, ast.BoolOp):
        return _compile_boolop(node, source)
    if isinstance(node, ast.UnaryOp):
        return _compile_unaryop(node, source)
    if isinstance(node, ast.BinOp):
        return _compile_binop(node, source)
    if isinstance(node, ast.Compare):
        return _compile_compare(node, source)
    if isinstance(node, ast.Call):
        return _compile_size(node, source)
    if isinstance(node, ast.Name):
        if node.id in KEYWORD_CONSTANTS:
            return _constant(KEYWORD_CONSTANTS[node.id])
        return _lookup(node.id)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, str, bool)) or isinstance(node.value, float):
            raise PredicateSyntaxError(f"unsupported literal {node.value!r} in {source!r}")
        return _constant(node.value)
    raise PredicateSyntaxError(
        f"unsupported syntax ({type(node).__name__}) in {source!r}"
    )


def _constant(value):
    return lambda env: value


def _lookup(name: str):
    def lookup(env):
        try:
            return env[name]
        except KeyError:
            raise _EvalFailure(f"unbound variable: {name}") from None

    return lookup


def _compile_boolop(node: ast.BoolOp, source: str):
    # Short-circuit left to right; unevaluated operands never fail.
    operands = [_compile(value, source) for value in node.values]
    if isinstance(node.op, ast.And):

        def conjunction(env):
            for operand in operands:
                value = operand(env)
                if value is False:
                    return False
                if value is not True:
                    _require_bool(value, "and/or")
            return True

        return conjunction

    def disjunction(env):
        for operand in operands:
            value = operand(env)
            if value is True:
                return True
            if value is not False:
                _require_bool(value, "and/or")
        return False

    return disjunction


def _compile_unaryop(node: ast.UnaryOp, source: str):
    if not isinstance(node.op, (ast.Not, ast.USub)):
        raise PredicateSyntaxError(f"unsupported operator in {source!r}")
    operand = _compile(node.operand, source)
    if isinstance(node.op, ast.Not):

        def negation(env):
            value = operand(env)
            if value is True:
                return False
            if value is False:
                return True
            return not _require_bool(value, "not")

        return negation

    def minus(env):
        return -_require_int(operand(env), "unary minus")

    return minus


def _compile_binop(node: ast.BinOp, source: str):
    func = _ARITH_FUNCS.get(type(node.op))
    if func is None:
        raise PredicateSyntaxError(f"unsupported operator in {source!r}")
    left = _compile(node.left, source)
    right = _compile(node.right, source)

    def arithmetic(env):
        a = _require_int(left(env), "arithmetic")
        return func(a, _require_int(right(env), "arithmetic"))

    return arithmetic


def _compile_compare(node: ast.Compare, source: str):
    for op in node.ops:
        if type(op) not in _CMP_FUNCS:
            raise PredicateSyntaxError(f"unsupported comparison in {source!r}")
    first = _compile(node.left, source)
    operands = [_compile(cmp, source) for cmp in node.comparators]
    last = node.comparators[-1]
    if len(operands) == 1 and isinstance(last, ast.Constant) and type(last.value) is int:
        return _compare_to_int_literal(node.ops[0], first, last.value)
    steps = list(zip(node.ops, operands))

    def chain(env):
        left = first(env)
        for op, operand in steps:
            right = operand(env)
            if not _compare(op, left, right):
                return False
            left = right
        return True

    return chain


def _compare_to_int_literal(op: ast.cmpop, left, literal: int):
    func = _CMP_FUNCS[type(op)]

    def compare(env):
        value = left(env)
        if type(value) is int:
            return func(value, literal)
        return _compare(op, value, literal)

    return compare


def _compile_size(node: ast.Call, source: str):
    if not isinstance(node.func, ast.Name) or node.func.id not in BUILTIN_FUNCTIONS:
        raise PredicateSyntaxError(f"only size(...) calls are allowed in {source!r}")
    if len(node.args) != 1 or node.keywords:
        raise PredicateSyntaxError(f"size takes exactly one argument in {source!r}")
    arg = _compile(node.args[0], source)

    def size(env):
        value = arg(env)
        if type(value) is bytes:
            return len(value)
        return _size(value)

    return size


def _free_names(tree: ast.Expression) -> frozenset:
    # ast.walk yields parents before children, so every callee Name is marked
    # before it is visited as a Name node.
    names = set()
    callees = set()
    for child in ast.walk(tree):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
            callees.add(id(child.func))
        if isinstance(child, ast.Name) and id(child) not in callees:
            names.add(child.id)
    names -= set(KEYWORD_CONSTANTS)
    return frozenset(names)


@dataclass(frozen=True)
class CompiledPredicate:
    """A payload assertion: its source, its free variables and its closures.

    Equality and hashing go by the source text alone, so equal assertions
    compiled apart still merge where projection and the FSM compiler merge
    equal branches and transitions.
    """

    source_text: str
    free_vars: frozenset
    _evaluate: Callable[[Mapping], object] = field(repr=False, compare=False)

    def eval(self, env: Mapping) -> EvalResult:
        try:
            value = self._evaluate(env)
        except _EvalFailure as exc:
            return EvalError(exc.detail)
        if value is True or value is False:
            return value
        return EvalError(f"assertion is not boolean: {self.source_text!r}")


def compile_predicate(source: str) -> CompiledPredicate:
    """Parse and validate an assertion source; raises PredicateSyntaxError."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise PredicateSyntaxError(f"bad assertion {source!r}: {exc.msg}") from None
    return CompiledPredicate(source, _free_names(tree), _compile(tree.body, source))


def evaluate(source: str, env: Mapping) -> EvalResult:
    """One-shot compile and evaluate; syntax problems become EvalError."""
    try:
        pred = compile_predicate(source)
    except PredicateSyntaxError as exc:
        return EvalError(str(exc))
    return pred.eval(env)


class _EvalFailure(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


def _size(value) -> int:
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        try:
            return len(value.encode("utf-8"))
        except UnicodeEncodeError:
            # only a lone surrogate does not encode
            raise _EvalFailure(
                "size() has no byte length for a string holding a lone surrogate"
            ) from None
    raise _EvalFailure(f"size() needs a string or data value, got {_type_name(value)}")


def _type_name(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, str):
        return "string"
    if isinstance(value, bytes):
        return "data"
    return type(value).__name__


def _require_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _EvalFailure(f"{context} needs int operands, got {_type_name(value)}")
    return value


def _require_bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise _EvalFailure(f"{context} needs bool operands, got {_type_name(value)}")
    return value


def _compare(op: ast.cmpop, left, right) -> bool:
    if isinstance(op, (ast.Eq, ast.NotEq)):
        if _type_name(left) != _type_name(right):
            raise _EvalFailure(
                f"cannot compare {_type_name(left)} with {_type_name(right)}"
            )
        return (left == right) if isinstance(op, ast.Eq) else (left != right)
    ordered = (int, str)
    if isinstance(left, bool) or isinstance(right, bool):
        raise _EvalFailure("ordering is not defined for bool")
    if not isinstance(left, ordered) or _type_name(left) != _type_name(right):
        raise _EvalFailure(
            f"cannot order {_type_name(left)} against {_type_name(right)}"
        )
    if isinstance(op, ast.Lt):
        return left < right
    if isinstance(op, ast.LtE):
        return left <= right
    if isinstance(op, ast.Gt):
        return left > right
    return left >= right
