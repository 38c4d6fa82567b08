"""Whitelist gate and evaluator for generated cost predicates.

A remote proposer's reply is untrusted text, so it never runs as given.
Its first code block must reduce to one arithmetic/boolean expression,
and the gate (``_check``) is the security boundary: it admits no
attribute access, no lambda, no comprehension, no call but ``abs``,
``min`` and ``max``, no name outside the row's bindings, and no power but
by a constant of magnitude at most 8 of a base with no power in it (a
label of ``9 ** 9 ** 9`` would never finish). Only the
checked tree is compiled, never the text, and it runs with empty builtins
and ``abs``, ``min``, ``max`` and ``bool`` as its only globals, which no
binding may shadow.

Each comparison is wrapped in ``bool(...)``: on a numpy scalar it gives
``np.bool_``, which refuses unary minus and adds as a logical or, while
the labels count a comparison as the Python bool 0 or 1.
"""

from __future__ import annotations

import ast
from typing import Sequence

import numpy as np

from .cmdp import Predicate


class ExpressionRejected(ValueError):
    """Source uses constructs outside the whitelist."""


_ALLOWED_CALLS = ("abs", "min", "max")
# The compiled expression's only globals; ``bool`` is the comparison wrap.
_SCOPE = {"__builtins__": {}, "abs": abs, "min": min, "max": max, "bool": bool}
_BIN_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
_CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


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
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BIN_OPS):
        if isinstance(node.op, ast.Pow):
            exp = getattr(node.right, "operand", node.right)  # a sign is allowed
            if (not (isinstance(exp, ast.Constant) and isinstance(exp.value, (int, float))
                     and abs(exp.value) <= 8)
                    or any(isinstance(n, ast.Pow) for n in ast.walk(node.left))):
                raise ExpressionRejected("a power needs a constant exponent of at most 8 "
                                         "in magnitude and a base with no power in it")
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
        if not all(isinstance(op, _CMP_OPS) for op in node.ops):
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
    raise ExpressionRejected(f"construct {type(node).__name__} is not allowed")


class _WrapCompare(ast.NodeTransformer):
    def visit_Compare(self, node: ast.Compare) -> ast.Call:
        self.generic_visit(node)
        return ast.Call(func=ast.Name(id="bool", ctx=ast.Load()), args=[node], keywords=[])


def compile_predicate(source: str, field_names: Sequence[str]) -> Predicate:
    """Turn whitelisted source into a batch-first cost predicate.

    The predicate maps states of shape (n, d_s) to an int array of 0/1
    labels of shape (n,), evaluating the compiled expression on each row.
    Per row, the observation vector is bound to ``observation``, ``obs``,
    ``s`` and the function's own argument name when the source is a
    function, and each field name to its entry as a Python float.
    """
    expr, aliases, constants = extract_expression(source)
    vector_names = {"observation", "obs", "s", *aliases}
    names = set(field_names) | vector_names | set(constants)
    shadowed = sorted(names & _SCOPE.keys())
    if shadowed:
        raise ExpressionRejected(f"the name {shadowed[0]!r} would shadow a builtin")
    _check(expr, names)
    tree = ast.fix_missing_locations(_WrapCompare().visit(ast.Expression(body=expr)))
    code = compile(tree, "<predicate>", "eval")

    def label(vec: np.ndarray) -> int:
        bindings = dict(constants)
        bindings.update(dict.fromkeys(vector_names, vec))
        bindings.update(zip(field_names, map(float, vec)))
        return int(bool(eval(code, _SCOPE, bindings)))

    def predicate(states: np.ndarray) -> np.ndarray:
        rows = np.asarray(states, dtype=float)
        return np.fromiter((label(vec) for vec in rows), dtype=int, count=len(rows))

    return predicate
