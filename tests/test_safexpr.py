import numpy as np
import pytest

from reachsafe.safexpr import ExpressionRejected, compile_predicate


FIELDS = ("x", "v")


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


def test_rejects_variable_index():
    with pytest.raises(ExpressionRejected):
        compile_predicate("observation[x] > 1", FIELDS)
