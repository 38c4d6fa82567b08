"""Whitelist expression interpreter for generated cost predicates.

Remote proposers return source text; executing it natively would hand the
counterparty an arbitrary-code channel. Instead the first code block must
reduce to a single arithmetic/boolean expression over named observation
fields (or indexed access into the raw observation), and that expression
is walked directly over the AST. Anything outside the whitelist, imports,
attribute access, loops, string operations, is rejected up front.
"""

from __future__ import annotations

import ast
from typing import Sequence

import numpy as np

from .cmdp import Predicate


class ExpressionRejected(ValueError):
    """Source uses constructs outside the whitelist."""


_ALLOWED_CALLS = {"abs": abs, "min": min, "max": max}

_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
}

_CMP_OPS = {
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
}


def extract_expression(source: str) -> tuple[ast.expr, list[str], dict]:
    """Pull the single expression out of a code block.

    Accepts either a bare expression or one function definition whose
    body (docstring aside) is a single ``return EXPRESSION``. For the
    function form the first argument names the observation vector and any
    further arguments must carry constant defaults, which become named
    constants inside the expression.

    Returns (expression, vector-aliases, constant-bindings).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        raise ExpressionRejected(f"source does not parse: {err}") from err

    body = tree.body
    if len(body) == 1 and isinstance(body[0], ast.Expr):
        return body[0].value, [], {}
    if len(body) == 1 and isinstance(body[0], ast.FunctionDef):
        fn = body[0]
        args = fn.args.posonlyargs + fn.args.args
        if not args:
            raise ExpressionRejected("the function must take the observation")
        aliases = [args[0].arg]
        constants: dict = {}
        defaults = fn.args.defaults
        tail = args[len(args) - len(defaults):]
        if len(tail) != len(args) - 1:
            raise ExpressionRejected(
                "extra function arguments must all have constant defaults")
        for arg, default in zip(tail, defaults):
            if not (isinstance(default, ast.Constant)
                    and isinstance(default.value, (int, float, bool))):
                raise ExpressionRejected(
                    f"default for {arg.arg!r} must be a numeric constant")
            constants[arg.arg] = default.value
        stmts = fn.body
        if stmts and isinstance(stmts[0], ast.Expr) and isinstance(
                stmts[0].value, ast.Constant) and isinstance(stmts[0].value.value, str):
            stmts = stmts[1:]  # drop the docstring
        if len(stmts) == 1 and isinstance(stmts[0], ast.Return) and stmts[0].value is not None:
            return stmts[0].value, aliases, constants
        raise ExpressionRejected(
            "function body must be a single return of an expression")
    raise ExpressionRejected("need exactly one expression or one function")


def _check(node: ast.expr, names: set[str]) -> None:
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, bool)):
            raise ExpressionRejected(f"constant {node.value!r} is not numeric")
        return
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise ExpressionRejected(f"unknown name {node.id!r}")
        return
    if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
        _check(node.left, names)
        _check(node.right, names)
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd, ast.Not)):
        _check(node.operand, names)
        return
    if isinstance(node, ast.BoolOp) and isinstance(node.op, (ast.And, ast.Or)):
        for v in node.values:
            _check(v, names)
        return
    if isinstance(node, ast.Compare):
        if any(type(op) not in _CMP_OPS for op in node.ops):
            raise ExpressionRejected("comparison operator outside the whitelist")
        _check(node.left, names)
        for comp in node.comparators:
            _check(comp, names)
        return
    if isinstance(node, ast.IfExp):
        _check(node.test, names)
        _check(node.body, names)
        _check(node.orelse, names)
        return
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
            raise ExpressionRejected("only abs/min/max calls are allowed")
        if node.keywords:
            raise ExpressionRejected("keyword arguments are not allowed")
        for arg in node.args:
            _check(arg, names)
        return
    if isinstance(node, ast.Subscript):
        if not (isinstance(node.value, ast.Name) and node.value.id in names):
            raise ExpressionRejected("only direct indexing of the observation")
        idx = node.slice
        if isinstance(idx, ast.UnaryOp) and isinstance(idx.op, ast.USub):
            idx = idx.operand
            if not (isinstance(idx, ast.Constant) and isinstance(idx.value, int)):
                raise ExpressionRejected("indices must be integer constants")
            return
        if not (isinstance(idx, ast.Constant) and isinstance(idx.value, int)):
            raise ExpressionRejected("indices must be integer constants")
        return
    raise ExpressionRejected(f"construct {type(node).__name__} is not allowed")


def _eval(node: ast.expr, env: dict) -> object:
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.BinOp):
        return _BIN_OPS[type(node.op)](_eval(node.left, env), _eval(node.right, env))
    if isinstance(node, ast.UnaryOp):
        val = _eval(node.operand, env)
        if isinstance(node.op, ast.USub):
            return -val
        if isinstance(node.op, ast.UAdd):
            return +val
        return not val
    if isinstance(node, ast.BoolOp):
        if isinstance(node.op, ast.And):
            result = True
            for v in node.values:
                result = _eval(v, env)
                if not result:
                    return result
            return result
        for v in node.values:
            result = _eval(v, env)
            if result:
                return result
        return result
    if isinstance(node, ast.Compare):
        left = _eval(node.left, env)
        for op, comp in zip(node.ops, node.comparators):
            right = _eval(comp, env)
            if not _CMP_OPS[type(op)](left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.IfExp):
        return _eval(node.body, env) if _eval(node.test, env) else _eval(node.orelse, env)
    if isinstance(node, ast.Call):
        return _ALLOWED_CALLS[node.func.id](*[_eval(a, env) for a in node.args])
    if isinstance(node, ast.Subscript):
        seq = env[node.value.id]
        idx = node.slice
        if isinstance(idx, ast.UnaryOp):
            return seq[-idx.operand.value]
        return seq[idx.value]
    raise ExpressionRejected(f"cannot evaluate {type(node).__name__}")


def compile_predicate(source: str, field_names: Sequence[str],
                      obs_name: str = "observation") -> Predicate:
    """Turn whitelisted source into a batch-first cost predicate.

    The predicate maps states of shape (n, d_s) to an int array of 0/1
    labels of shape (n,), evaluating the expression on each row with the
    scalar interpreter. Per row, the observation vector is bound to
    ``obs_name``, to the function's own argument name when the source is
    a function, and to each field name individually.
    """
    expr, aliases, constants = extract_expression(source)
    vector_names = {obs_name, "obs", "s", *aliases}
    names = set(field_names) | vector_names | set(constants)
    _check(expr, names)

    fields = list(field_names)

    def label(vec: np.ndarray) -> int:
        env: dict = dict(constants)
        for name in vector_names:
            env[name] = vec
        for i, name in enumerate(fields):
            if i < len(vec):
                env[name] = float(vec[i])
        return int(bool(_eval(expr, env)))

    def predicate(states: np.ndarray) -> np.ndarray:
        rows = np.asarray(states, dtype=float)
        return np.fromiter((label(vec) for vec in rows), dtype=int, count=len(rows))

    return predicate
