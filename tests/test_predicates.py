import ast

import pytest
from hypothesis import given, settings, strategies as st

from parley.predicates import (
    KEYWORD_CONSTANTS,
    CompiledPredicate,
    EvalError,
    PredicateSyntaxError,
    _compare,
    _EvalFailure,
    _require_bool,
    _require_int,
    _size,
    compile_predicate,
    evaluate,
    free_variables,
)


# The tree-walking evaluator the closures replaced, kept as the oracle the
# differential test below holds them to.
def _eval_node(node: ast.AST, env):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id in KEYWORD_CONSTANTS:
            return KEYWORD_CONSTANTS[node.id]
        try:
            return env[node.id]
        except KeyError:
            raise _EvalFailure(f"unbound variable: {node.id}") from None
    if isinstance(node, ast.Call):
        return _size(_eval_node(node.args[0], env))
    if isinstance(node, ast.BoolOp):
        # Short-circuit left to right; unevaluated operands never fail.
        is_and = isinstance(node.op, ast.And)
        for value in node.values:
            result = _require_bool(_eval_node(value, env), "and/or")
            if is_and and not result:
                return False
            if not is_and and result:
                return True
        return is_and
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return not _require_bool(_eval_node(node.operand, env), "not")
        return -_require_int(_eval_node(node.operand, env), "unary minus")
    if isinstance(node, ast.BinOp):
        left = _require_int(_eval_node(node.left, env), "arithmetic")
        right = _require_int(_eval_node(node.right, env), "arithmetic")
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if right == 0:
            raise _EvalFailure("division by zero")
        return left // right
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left, env)
        for op, comparator in zip(node.ops, node.comparators):
            right = _eval_node(comparator, env)
            if not _compare(op, left, right):
                return False
            left = right
        return True
    raise _EvalFailure(f"unsupported syntax at evaluation: {type(node).__name__}")


def _oracle(source: str, env):
    try:
        value = _eval_node(ast.parse(source, mode="eval").body, env)
    except _EvalFailure as exc:
        return EvalError(exc.detail)
    if not isinstance(value, bool):
        return EvalError(f"assertion is not boolean: {source!r}")
    return value


def test_keyword_constants():
    assert evaluate("true", {}) is True
    assert evaluate("false", {}) is False
    assert evaluate("not false", {}) is True


def test_comparison_chain():
    assert evaluate("1 <= x <= 5", {"x": 3}) is True
    assert evaluate("1 <= x <= 5", {"x": 9}) is False


def test_division_is_floor_and_guards_zero():
    assert evaluate("7 / 2 == 3", {}) is True
    assert evaluate("(0 - 7) / 2 == 0 - 4", {}) is True  # floor, not truncation
    result = evaluate("1 / 0 == 1", {})
    assert isinstance(result, EvalError)
    assert "zero" in result.detail


def test_short_circuit_masks_late_errors():
    assert evaluate("false and 1 / 0 == 1", {}) is False
    assert evaluate("true or 1 / 0 == 1", {}) is True
    # the unguarded side still fails
    assert isinstance(evaluate("true and 1 / 0 == 1", {}), EvalError)


def test_strict_typing():
    assert isinstance(evaluate("1 and true", {}), EvalError)
    assert isinstance(evaluate("1 + true == 2", {}), EvalError)
    assert isinstance(evaluate("1 < 'a'", {}), EvalError)
    assert isinstance(evaluate("x >= 0", {"x": True}), EvalError)
    assert isinstance(evaluate("7 / 2", {}), EvalError)  # not boolean


def test_size_counts_bytes():
    assert evaluate("size(x) == 3", {"x": "abc"}) is True
    assert evaluate("size(x) == 2", {"x": "é"}) is True  # utf-8 bytes, not chars
    assert evaluate("size(x) == 4", {"x": b"\x00\x01\x02\x03"}) is True
    assert isinstance(evaluate("size(x) == 1", {"x": 5}), EvalError)


def test_unbound_variable():
    result = evaluate("x >= 0", {})
    assert isinstance(result, EvalError)
    assert "unbound variable: x" in result.detail


def test_free_variables_exclude_builtins_and_keywords():
    assert free_variables("size(data) <= limit") == frozenset({"data", "limit"})
    assert free_variables("true or false") == frozenset()
    assert free_variables("a < b and b < c") == frozenset({"a", "b", "c"})


def test_compile_reports_free_vars():
    pred = compile_predicate("size(data) <= 512")
    assert isinstance(pred, CompiledPredicate)
    assert pred.free_vars == frozenset({"data"})
    assert pred.eval({"data": b"x" * 512}) is True
    assert pred.eval({"data": b"x" * 513}) is False


@pytest.mark.parametrize(
    "bad",
    [
        "x ==",
        "lambda: 1",
        "x.attr == 1",
        "xs[0] == 1",
        "1.5 < 2",
        "2 ** 3 == 8",
        "f(x)",
        "size(x, y) == 1",
        "[1] == [1]",
        "",
    ],
)
def test_rejected_syntax(bad):
    with pytest.raises(PredicateSyntaxError):
        compile_predicate(bad)


@given(
    a=st.integers(min_value=-50, max_value=50),
    b=st.integers(min_value=-50, max_value=50),
    c=st.integers(min_value=1, max_value=50),
)
def test_arithmetic_matches_python(a, b, c):
    env = {"a": a, "b": b, "c": c}
    assert evaluate("a + b < c", env) is (a + b < c)
    assert evaluate("a - b >= c", env) is (a - b >= c)
    assert evaluate("a * b == b * a", env) is True
    assert evaluate("a / c == d", {**env, "d": a // c}) is True  # floor division


@given(value=st.one_of(st.text(max_size=30), st.binary(max_size=30)))
def test_size_matches_byte_length(value):
    length = len(value.encode("utf-8")) if isinstance(value, str) else len(value)
    assert evaluate("size(v) == n", {"v": value, "n": length}) is True


def test_size_of_a_string_that_does_not_encode_is_an_error():
    result = evaluate("size(x) <= 512", {"x": "\ud800"})
    assert isinstance(result, EvalError)
    assert "lone surrogate" in result.detail


def test_size_is_a_variable_where_it_is_not_called():
    assert free_variables("size > 0") == frozenset({"size"})
    assert free_variables("size(size) > 0") == frozenset({"size"})
    assert evaluate("size > 0", {"size": 3}) is True
    result = evaluate("size > 0", {})
    assert isinstance(result, EvalError)
    assert result.detail == "unbound variable: size"


class _Text(str):
    pass


class _Count(int):
    pass


_NAMES = ("a", "b", "c", "size")
_LEAVES = st.one_of(
    st.integers(min_value=-3, max_value=3).map(str),
    st.sampled_from(["'x'", "''", "'é'", "true", "false", "True", "zz"]),
    st.sampled_from(_NAMES),
)


_CMPOPS = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])


def _grow(inner):
    pair = st.tuples(inner, inner)
    return st.one_of(
        st.tuples(
            inner,
            st.lists(
                st.tuples(_CMPOPS, inner),
                min_size=1,
                max_size=3,
            ),
        ).map(lambda t: "(" + t[0] + "".join(f" {op} {e}" for op, e in t[1]) + ")"),
        st.tuples(
            st.sampled_from([" and ", " or "]), st.lists(inner, min_size=2, max_size=3)
        ).map(lambda t: "(" + t[0].join(t[1]) + ")"),
        inner.map(lambda e: f"(not {e})"),
        inner.map(lambda e: f"(-{e})"),
        st.tuples(st.sampled_from("+-*/"), pair).map(
            lambda t: f"({t[1][0]} {t[0]} {t[1][1]})"
        ),
        inner.map(lambda e: f"size({e})"),
    )


# Half the examples compare a name, or its size(), with a leaf: the shape of
# most assertions and of the literal fast path. The rest nest freely.
_EXPRESSIONS = st.one_of(
    st.tuples(
        st.sampled_from(_NAMES + tuple(f"size({name})" for name in _NAMES)), _CMPOPS, _LEAVES
    ).map(" ".join),
    st.recursive(_LEAVES, _grow, max_leaves=8),
)
_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.sampled_from(["", "x", "é", "\ud800", b"", b"xy", None]),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.integers(min_value=-3, max_value=3).map(_Count),
    st.sampled_from(["", "x", "é"]).map(_Text),
)


@settings(max_examples=600)
@given(
    source=_EXPRESSIONS,
    env=st.fixed_dictionaries(
        {name: _VALUES for name in _NAMES[:3]}, optional={"size": _VALUES}
    ),
)
def test_compiled_closures_agree_with_the_tree_walk(source, env):
    expected = _oracle(source, env)
    result = compile_predicate(source).eval(env)
    assert type(result) is type(expected)
    assert result == expected
