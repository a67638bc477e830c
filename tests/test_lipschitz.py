import numpy as np
import pytest

from caplab import lipschitz as lz
from caplab.constructions import EncodedMaxAffine
from caplab.errors import BudgetTooSmallError, InvalidInputError


def test_budget_examples():
    eps, L0 = 0.25, 4.0
    assert lz.budget([-eps, eps], 2 * eps / L0) == pytest.approx(L0)
    assert lz.budget([1.0, 1.0, 1.0], 0.3) == 0.0
    assert lz.budget([0.0, 1.0, 5.0], 2.0) == pytest.approx(2.5)
    with pytest.raises(InvalidInputError):
        lz.budget([], 1.0)
    with pytest.raises(InvalidInputError):
        lz.budget([1.0], 0.0)


def test_budget_times_alpha_identity():
    # for values {+-eps} the needed slope times the separation is 2 eps
    for eps in (0.1, 0.25, 0.5):
        for alpha in (0.125, 0.4, 1.0):
            assert lz.budget([-eps, eps], alpha) * alpha == pytest.approx(2 * eps)


def test_mcshane_single_anchor():
    f = lz.mcshane_extend([[0.0, 0.0]], [3.0], 1.0)
    assert f([0.0, 0.0]) == pytest.approx(3.0)
    assert f([3.0, 4.0]) == pytest.approx(8.0)


def test_mcshane_midpoint():
    f = lz.mcshane_extend([[0.0], [2.0]], [0.0, 2.0], 1.0)
    assert f([1.0]) == pytest.approx(1.0)


def test_mcshane_interpolates_exactly():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((50, 5))
    p = rng.standard_normal(50)
    for metric in ("euclidean-vector", "infinity"):
        slope = lz.min_feasible_slope(A, p, metric)
        f = lz.mcshane_extend(A, p, slope * 1.5, metric)
        assert np.abs(f.eval(A) - p).max() <= 1e-12


def test_mcshane_measured_slope_within_budget():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((50, 5))
    p = rng.standard_normal(50)
    for metric in ("euclidean-vector", "infinity"):
        L = lz.min_feasible_slope(A, p, metric) * 1.2
        f = lz.mcshane_extend(A, p, L, metric)
        meas = lz.empirical_lipschitz(
            f, lambda r: 2 * r.standard_normal(5), metric, 10000, 3, anchors=A)
        assert meas <= L + 1e-9


def test_mcshane_budget_too_small():
    with pytest.raises(BudgetTooSmallError) as ei:
        lz.mcshane_extend([[0.0], [1.0]], [0.0, 5.0], 1.0)
    assert ei.value.minimal == pytest.approx(5.0)


def test_duplicate_anchor_conflict():
    with pytest.raises(InvalidInputError):
        lz.min_feasible_slope([[1.0], [1.0]], [0.0, 1.0], "euclidean-vector")


def _thm36_style(m, eps, kappa=0.5):
    n = (1 << m) + m
    return EncodedMaxAffine(m, n, eps, kappa), n


def test_max_affine_margin_cases():
    m, eps = 3, 0.25
    f, n = _thm36_style(m, eps)
    # +eps labeled point: input 4 eps e_i + e_{m+y} with bit i of y set
    x = np.zeros(n)
    y = 0b101
    x[0] = 4 * eps
    x[m + y] = 1.0
    assert f(x) == pytest.approx(eps, abs=1e-12)
    # all-negative labeling: y = 0, any point index
    x = np.zeros(n)
    x[1] = 4 * eps
    x[m + 0] = 1.0
    assert f(x) == pytest.approx(-eps, abs=1e-12)


def test_max_affine_midpoint_convexity():
    f, n = _thm36_style(3, 0.2)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((10000, n))
    B = rng.standard_normal((10000, n))
    slack = 0.5 * (f.eval(A) + f.eval(B)) - f.eval(0.5 * (A + B))
    assert slack.min() >= -1e-12


def test_max_affine_lipschitz_bound():
    f, n = _thm36_style(3, 0.2)
    meas = lz.empirical_lipschitz(
        f, lambda r: r.standard_normal(n), "euclidean-vector", 10000, 9)
    assert meas <= f.piece_dual_norm() + 1e-9


def test_max_affine_dimension_mismatch():
    f, n = _thm36_style(2, 0.2)
    with pytest.raises(InvalidInputError):
        f.eval(np.zeros((1, n + 1)))


def test_empirical_lipschitz_linear():
    w = np.array([1.2, -1.6])  # norm 2
    f = lambda x: float(w @ x)
    got = lz.empirical_lipschitz(
        f, lambda r: r.standard_normal(2), "euclidean-vector", 2000, 0)
    assert got <= 2.0 + 1e-12
    assert got >= 1.5  # random pairs get close to the true constant


def test_empirical_lipschitz_constant():
    got = lz.empirical_lipschitz(
        lambda x: 7.0, lambda r: r.standard_normal(3),
        "euclidean-vector", 100, 1)
    assert got == 0.0
