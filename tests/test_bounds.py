import math

import numpy as np
import pytest

from caplab import bounds as bd
from caplab.errors import InvalidInputError


def test_shatter_lower_precondition_named():
    with pytest.raises(InvalidInputError, match="128"):
        bd.shatter_lower_bound(1, 1, 1.0)


def test_shatter_lower_formula():
    rep = bd.shatter_lower_bound(8, 8, 1.0)
    assert rep.log_value == 4096.0
    assert rep.value == math.inf  # overflow reported as +inf, log kept


def test_shatter_lower_doubling_B_quadruples_exponent():
    a = bd.shatter_lower_bound(8, 8, 1.0)
    b = bd.shatter_lower_bound(16, 8, 1.0)
    assert b.log_value == pytest.approx(4 * a.log_value)


def test_exp_class_examples():
    assert bd.exp_class_sample_bound(1, 1, 1).value == 1.0
    assert bd.exp_class_sample_bound(2, 1, 1).value == 16.0


def test_exp_class_log_ratio_near_shatter_exponent():
    # log of each bound is Theta-tilde of L^2 B^2 / eps^2
    for B in (2.0, 4.0):
        for L in (1.0, 2.0):
            for eps in (0.5, 1.0):
                if L * B / eps < 2:
                    continue
                a = bd.shatter_lower_bound(max(B, 8), max(L, 8), eps)
                b = bd.exp_class_sample_bound(max(B, 8), max(L, 8), eps)
                ratio = b.log_value / a.log_value
                assert 1.0 <= ratio <= math.log(
                    max(L, 8) * max(B, 8) / eps) * 1.001


def test_deep_general_identity_and_guards():
    a = bd.deep_general_bound(2, [1.5, 2.0], 0.9)
    b = bd.exp_class_sample_bound(2, 3.0, 0.9)
    assert a.value == b.value and a.log_value == b.log_value
    assert bd.deep_general_bound(2, [1.0, 1.0], 1.0).value == \
        bd.exp_class_sample_bound(2, 1.0, 1.0).value
    with pytest.raises(InvalidInputError):
        bd.deep_general_bound(2, [], 0.9)


def test_sgd_sample_examples():
    assert bd.sgd_sample_bound(1, 1, 1).value == 1.0
    assert bd.sgd_sample_bound(1, 2, 0.5).value == 16.0


def test_smooth_one_layer_example_and_guard():
    assert bd.smooth_one_layer_bound(1, 1, 2, 0, 1, 0, 1).value == 9.0
    with pytest.raises(InvalidInputError, match="B b_x"):
        bd.smooth_one_layer_bound(1, 0.5, 2, 0, 1, 0, 1)


def test_smooth_one_layer_quadratic_in_B0():
    for B0 in (32.0, 64.0, 256.0):
        a = bd.smooth_one_layer_bound(1, 1, 2, B0, 1, 0, 0.5).value
        b = bd.smooth_one_layer_bound(1, 1, 2, 2 * B0, 1, 0, 0.5).value
        assert abs(b / a - 4.0) < 0.05 * 4.0


def test_smooth_one_layer_zero_init_comparison_scaling():
    # B0 = 0: value scales like ((mu+L) b b_x B)^2 / eps^2 for large budgets
    v1 = bd.smooth_one_layer_bound(2, 3, 50, 0, 1.5, 0.5, 1).value
    core = 2 * 3 * (0.5 + 1.5) * 50
    assert v1 == pytest.approx((1 + core) ** 2)


def test_deep_elementwise_example_and_reduction():
    assert bd.deep_elementwise_bound(2, 1, 1, 1, [], [1], 1, math.e).value == \
        pytest.approx(4.0)
    # k=2 reduces to the one-hidden-layer form with R0 = b_x
    v = bd.deep_elementwise_bound(2, 2.0, 3.0, 1.5, [], [2.5], 0.5, math.e).value
    want = (2 * 1.5 * 2.0 * 3.0 * 2.5) ** 2 / 0.25
    assert v == pytest.approx(want)


def test_deep_elementwise_guards():
    with pytest.raises(InvalidInputError):
        bd.deep_elementwise_bound(1, 1, 1, 1, [], [], 1, math.e)
    with pytest.raises(InvalidInputError):
        bd.deep_elementwise_bound(3, 1, 1, 1, [], [1, 1], 1, math.e)


def test_deep_elementwise_monotone():
    prev = 0.0
    for k in (2, 3, 4):
        v = bd.deep_elementwise_bound(
            k, 1, 1, 1.5, [1.5] * (k - 2), [2.0] * (k - 1), 1, 10.0).value
        assert v >= prev
        prev = v
    a = bd.deep_elementwise_bound(3, 1, 1, 1, [1], [1, 1], 1, 10.0).value
    b = bd.deep_elementwise_bound(3, 1, 1, 1, [1], [2, 1], 1, 10.0).value
    assert b >= a


def test_global_monotonicity_grid():
    grid = (0.1, 0.5, 1.0, 2.0, 4.0)
    # eps monotone non-increasing for each evaluator where preconditions hold
    for f, base in (
        (lambda eps: bd.exp_class_sample_bound(4, 4, eps).log_value, None),
        (lambda eps: bd.sgd_sample_bound(2, 2, eps).value, None),
        (lambda eps: bd.smooth_one_layer_bound(1, 1, 2, 1, 1, 1, eps).value, None),
    ):
        vals = []
        for eps in grid:
            try:
                vals.append(f(eps))
            except InvalidInputError:
                continue
        assert np.all(np.diff(vals) <= 1e-9)


def test_no_size_inputs():
    import inspect
    for fn in (bd.shatter_lower_bound, bd.exp_class_sample_bound,
               bd.deep_general_bound, bd.sgd_sample_bound,
               bd.smooth_one_layer_bound, bd.deep_elementwise_bound):
        params = inspect.signature(fn).parameters
        assert "n" not in params and "d" not in params


def test_evaluate_dispatch():
    rep = bd.evaluate("sgd-sample", {"B": 1, "L": 2, "eps": 0.5})
    assert rep.value == 16.0
    with pytest.raises(InvalidInputError):
        bd.evaluate("nope", {})
    with pytest.raises(InvalidInputError):
        bd.evaluate("sgd-sample", {"B": 1})
