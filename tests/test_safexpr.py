"""The whitelist gate and the compiled predicate.

The interpreter that once walked the checked tree is kept here as the
reference, unchanged but for its name: the compiled predicate must give
its label, or raise its exception type, on every whitelisted source and
finite state.
"""

import ast

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reachsafe.safexpr import ExpressionRejected, compile_predicate, extract_expression


FIELDS = ("x", "v")

# ---------------------------------------------------------------------------
# Reference: the tree-walking interpreter, as it stood before compilation.
# ---------------------------------------------------------------------------

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


def reference_eval(node: ast.expr, env: dict) -> object:
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.BinOp):
        return _BIN_OPS[type(node.op)](reference_eval(node.left, env),
                                       reference_eval(node.right, env))
    if isinstance(node, ast.UnaryOp):
        val = reference_eval(node.operand, env)
        if isinstance(node.op, ast.USub):
            return -val
        if isinstance(node.op, ast.UAdd):
            return +val
        return not val
    if isinstance(node, ast.BoolOp):
        if isinstance(node.op, ast.And):
            result = True
            for v in node.values:
                result = reference_eval(v, env)
                if not result:
                    return result
            return result
        for v in node.values:
            result = reference_eval(v, env)
            if result:
                return result
        return result
    if isinstance(node, ast.Compare):
        left = reference_eval(node.left, env)
        for op, comp in zip(node.ops, node.comparators):
            right = reference_eval(comp, env)
            if not _CMP_OPS[type(op)](left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.IfExp):
        return (reference_eval(node.body, env) if reference_eval(node.test, env)
                else reference_eval(node.orelse, env))
    if isinstance(node, ast.Call):
        return _ALLOWED_CALLS[node.func.id](*[reference_eval(a, env) for a in node.args])
    if isinstance(node, ast.Subscript):
        seq = env[node.value.id]
        idx = node.slice
        if isinstance(idx, ast.UnaryOp):
            return seq[-idx.operand.value]
        return seq[idx.value]
    raise ExpressionRejected(f"cannot evaluate {type(node).__name__}")


def reference_label(source: str, field_names, vec: np.ndarray) -> int:
    """One row's label as the walker gave it, with the same row bindings."""
    expr, aliases, constants = extract_expression(source)
    env: dict = dict(constants)
    for name in {"observation", "obs", "s", *aliases}:
        env[name] = vec
    for i, name in enumerate(field_names):
        if i < len(vec):
            env[name] = float(vec[i])
    return int(bool(reference_eval(expr, env)))


# ---------------------------------------------------------------------------
# Random whitelisted sources, depth 1-4. A power's exponent is a constant
# the gate admits and its base holds no power, as the gate requires.
# ---------------------------------------------------------------------------

_NUMBERS = st.one_of(st.integers(-3, 9).map(str),
                     st.sampled_from(["0.5", "-0.25", "1e-3", "0.0", "True", "False"]),
                     st.floats(-4.0, 4.0, allow_nan=False).map(repr))
_EXPONENTS = st.sampled_from(["2", "3", "0", "-1", "0.5", "8", "-8"])
_BARE_LEAVES = ("obs[0]", "observation[1]", "s[-1]", "obs[-2]", "x", "v", "obs[2]", "obs")
_FUNCTION_LEAVES = _BARE_LEAVES + ("o[0]", "o[-1]", "lim")


def _expressions(leaves, depth, powers=True):
    atom = st.one_of(st.sampled_from(leaves), _NUMBERS)
    if depth == 1:
        return atom
    sub = _expressions(leaves, depth - 1, powers)
    base = _expressions(leaves, depth - 1, powers=False)
    compare = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
    # Comparisons come first and twice, so that arithmetic on a comparison's
    # result (where numpy's bool and Python's bool part ways) is common.
    comparison = st.one_of(
        st.tuples(sub, compare, sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, compare, sub, compare, sub).map(lambda t: "({} {} {} {} {})".format(*t)))
    return st.one_of(
        comparison,
        atom,
        st.tuples(st.sampled_from(["-", "+", "not "]), st.one_of(comparison, sub)).map(
            lambda t: f"({t[0]}{t[1]})"),
        st.tuples(st.one_of(comparison, sub), st.sampled_from(["+", "-", "*", "/", "//", "%"]),
                  st.one_of(comparison, sub)).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        *([st.tuples(base, _EXPONENTS).map(lambda t: f"({t[0]} ** {t[1]})")] if powers else []),
        st.tuples(sub, st.sampled_from(["and", "or"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, sub, sub).map(lambda t: f"({t[0]} if {t[1]} else {t[2]})"),
        sub.map(lambda a: f"abs({a})"),
        st.tuples(st.sampled_from(["min", "max"]), st.lists(sub, min_size=1, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"),
    )


def _sources():
    bare = st.integers(1, 4).flatmap(lambda d: _expressions(_BARE_LEAVES, d))
    function = st.integers(1, 4).flatmap(lambda d: _expressions(_FUNCTION_LEAVES, d)).map(
        lambda e: f"def get_cost(o, lim=0.5):\n    return {e}\n")
    return st.one_of(bare, function)


def _outcome(fn):
    """The value ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as err:  # noqa: BLE001 - the type is what is compared
        return type(err)


@pytest.mark.slow
@settings(max_examples=500, deadline=None)
@given(_sources(),
       hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(2)),
                  elements=st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                                     st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]))))
# A comparison on a numpy scalar gives np.bool_, which adds as a logical or
# and refuses unary minus; the walker counted it as the Python bool 0 or 1.
@example("(obs[0] > 0) + (obs[1] > 0) >= 2", np.array([[1.0, 1.0], [1.0, -1.0]]))
@example("-(0.5 > observation[1])", np.array([[0.0, 0.0], [0.0, 1.0]]))
# A vector entry divides as a numpy scalar (inf), a field as a float (raises).
@example("obs[0] / 0 > 1", np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]))
@example("x / 0 > 1", np.array([[1.0, 0.0]]))
def test_compiled_predicate_matches_the_reference_walker(source, states):
    predicate = compile_predicate(source, FIELDS)
    with np.errstate(all="ignore"):
        for vec in states:
            want = _outcome(lambda: reference_label(source, FIELDS, vec))
            got = _outcome(lambda: int(predicate(vec[None])[0]))
            assert got == want, (source, vec)


@pytest.mark.parametrize("source", [
    "def get_cost(observation, abs=1):\n    return abs(observation[0]) > 0\n",
    "def get_cost(bool):\n    return bool[0] > 0\n",
    "def get_cost(obs, min=0.5, max=1.0):\n    return obs[0] > min\n",
])
def test_rejects_arguments_that_shadow_the_scope(source):
    with pytest.raises(ExpressionRejected, match="shadow"):
        compile_predicate(source, FIELDS)


def test_threshold_expression():
    pred = compile_predicate("abs(x) > 0.8", FIELDS)
    assert pred(np.array([[0.9, 0.0]]))[0] == 1
    assert pred(np.array([[0.5, 0.0]]))[0] == 0


def test_boolean_composition_and_ifexp():
    pred = compile_predicate("1 if (abs(x) > 0.9 or abs(v) > 0.5) else 0", FIELDS)
    assert pred(np.array([[0.0, 0.6]]))[0] == 1
    assert pred(np.array([[0.0, 0.4]]))[0] == 0


def test_indexed_access_including_negative():
    pred = compile_predicate("observation[0] > 0.5 and observation[-1] < 0", FIELDS)
    assert pred(np.array([[0.7, -0.1]]))[0] == 1
    assert pred(np.array([[0.7, 0.1]]))[0] == 0


def test_function_form_with_docstring():
    src = '''
def get_cost(observation):
    """Flag positions outside the band."""
    return 1 if abs(observation[0]) > 0.85 else 0
'''
    pred = compile_predicate(src, FIELDS)
    assert pred(np.array([[0.9, 0.0]]))[0] == 1
    assert pred(np.array([[0.0, 0.0]]))[0] == 0


def test_function_form_binds_constant_defaults():
    src = (
        "def get_cost(obs_vec, limit=0.8, margin=0.1):\n"
        "    return 1 if abs(obs_vec[0]) >= limit - margin else 0\n"
    )
    pred = compile_predicate(src, FIELDS)
    assert pred(np.array([[0.75, 0.0]]))[0] == 1
    assert pred(np.array([[0.5, 0.0]]))[0] == 0


def test_chained_comparison():
    pred = compile_predicate("-0.5 < x < 0.5", FIELDS)
    assert pred(np.array([[0.0, 0.0]]))[0] == 1
    assert pred(np.array([[0.7, 0.0]]))[0] == 0


def test_rejects_imports_and_attributes():
    with pytest.raises(ExpressionRejected):
        compile_predicate("__import__('os').system('true')", FIELDS)
    with pytest.raises(ExpressionRejected):
        compile_predicate("x.real > 0", FIELDS)


def test_rejects_file_access_function():
    src = "def get_cost(observation):\n    return open('/etc/passwd')\n"
    with pytest.raises(ExpressionRejected):
        compile_predicate(src, FIELDS)


def test_rejects_unknown_names_and_calls():
    with pytest.raises(ExpressionRejected):
        compile_predicate("hazard_distance(x) > 1", FIELDS)
    with pytest.raises(ExpressionRejected):
        compile_predicate("y > 1", FIELDS)


def test_rejects_multi_statement_bodies():
    src = "def get_cost(observation):\n    t = 1\n    return t\n"
    with pytest.raises(ExpressionRejected):
        compile_predicate(src, FIELDS)


def test_rejects_lambda_comprehension_strings():
    for bad in (
        "(lambda: 1)()",
        "[x for x in observation]",
        "'a' < 'b'",
        "min(x, key=abs)",
    ):
        with pytest.raises(ExpressionRejected):
            compile_predicate(bad, FIELDS)


def test_rejects_non_constant_default():
    src = "def get_cost(observation, limit=abs(-1)):\n    return observation[0] > limit\n"
    with pytest.raises(ExpressionRejected):
        compile_predicate(src, FIELDS)


@pytest.mark.parametrize("source", [
    "9 ** 9 ** 9 > x",
    "9 ** 99999999 > x",
    "((9 ** 8) ** 8) ** 8 > x",
    "2 ** x > 1",
    "x ** obs[1] > 1",
    "x ** 8.5 > 1",
    "abs(x ** 2) ** 2 > 1",
])
def test_rejects_powers_that_could_run_unbounded(source):
    with pytest.raises(ExpressionRejected, match="power"):
        compile_predicate(source, FIELDS)


def test_small_constant_powers_still_label():
    states = np.array([[0.9, 0.04], [0.5, 0.0], [-0.8, -0.25]])
    assert compile_predicate("x ** 2 > 0.5", FIELDS)(states).tolist() == [1, 0, 1]
    assert compile_predicate("abs(v) ** 0.5 > 0.1", FIELDS)(states).tolist() == [1, 0, 1]
    assert compile_predicate("x ** -8 > 100", FIELDS)(states).tolist() == [0, 1, 0]


def test_rejects_variable_index():
    with pytest.raises(ExpressionRejected):
        compile_predicate("observation[x] > 1", FIELDS)
