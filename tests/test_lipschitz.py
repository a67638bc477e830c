import numpy as np
import pytest

from caplab import lipschitz as lz
from caplab.constructions import EncodedMaxAffine
from caplab.errors import InvalidInputError


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


# The McShane extension of anchor values at slope L is the min-form
# interpolant AnchoredLipschitz; min_feasible_slope is the least such L.

def test_mcshane_single_anchor():
    f = lz.AnchoredLipschitz([[0.0, 0.0]], [3.0], 1.0, "euclidean-vector")
    assert f([0.0, 0.0]) == pytest.approx(3.0)
    assert f([3.0, 4.0]) == pytest.approx(8.0)


def test_mcshane_midpoint():
    f = lz.AnchoredLipschitz([[0.0], [2.0]], [0.0, 2.0], 1.0, "euclidean-vector")
    assert f([1.0]) == pytest.approx(1.0)


def test_mcshane_interpolates_exactly():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((50, 5))
    p = rng.standard_normal(50)
    for metric in ("euclidean-vector", "infinity"):
        slope = lz.min_feasible_slope(A, p, metric)
        f = lz.AnchoredLipschitz(A, p, slope * 1.5, metric)
        assert np.abs(f.eval(A) - p).max() <= 1e-12


def test_mcshane_measured_slope_within_budget():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((50, 5))
    p = rng.standard_normal(50)
    for metric in ("euclidean-vector", "infinity"):
        L = lz.min_feasible_slope(A, p, metric) * 1.2
        f = lz.AnchoredLipschitz(A, p, L, metric)
        meas = lz.empirical_lipschitz(
            f, lambda r: 2 * r.standard_normal(5), metric, 10000, 3, anchors=A)
        assert meas <= L + 1e-9


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


# ---------------------------------------------------------------------------
# the euclidean min-form against the Gram scan it replaces, bit for bit

def gram_min_form_eval(f, X, chunk=1024):
    """The Gram scan: every anchor's distance, as sqrt(max(d2, 0)) of
    |q|^2 + |a|^2 - (2q).a, or np.linalg.norm of the difference where that
    distance is below 1e-6; then the min of p + L d over all anchors."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(X.shape[0])
    A = f.anchors
    a_sq = np.sum(A * A, axis=1)
    for s in range(0, X.shape[0], chunk):
        Q = X[s : s + chunk]
        d2 = np.sum(Q * Q, axis=1)[:, None] + a_sq[None, :] - 2.0 * Q @ A.T
        d = np.sqrt(np.maximum(d2, 0.0))
        near = np.argwhere(d < 1e-6)
        if near.size:
            qi, ai = near[:, 0], near[:, 1]
            d[qi, ai] = np.linalg.norm(Q[qi] - A[ai], axis=1)
        out[s : s + chunk] = np.min(f.values[None, :] + f.L * d, axis=1)
    return out


def _same_bits(f, X):
    return f.eval(X).tobytes() == gram_min_form_eval(f, X).tobytes()


def _zero_init_table(m, seed):
    from caplab.constructions import zero_init_instance
    inst = zero_init_instance(4, 4, 0.25, m, seed)
    Q = np.vstack([inst.points @ inst.witness_for(y).T for y in range(1 << m)])
    return inst.witness_fn, Q


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zero_init_table_bit_equal_to_gram_scan(m, seed):
    f, Q = _zero_init_table(m, seed)
    # row k is anchor k up to rounding, so every row takes the near path
    own = np.sum(Q * Q, axis=1) + np.sum(f.anchors**2, axis=1) \
        - 2.0 * np.einsum("ij,ij->i", Q, f.anchors)
    assert (own < lz.T_NEAR).all()
    assert _same_bits(f, Q)


def test_row_counts_that_cut_the_blocks_bit_equal_to_gram_scan():
    f, Q = _zero_init_table(9, 1)
    rows = lz.ANCHOR_BLOCK_BYTES // (8 * f.anchors.shape[0])
    assert 2 < rows < 1024
    rng = np.random.default_rng(3)
    Q = np.vstack([Q[rng.permutation(len(Q))[: 3 * rows]],
                   0.05 * rng.standard_normal((rows, Q.shape[1]))])
    # a lone last row joins the block before it
    for n in (0, 1, 2, rows - 1, rows + 1, 2 * rows + 1, 3 * rows + 5):
        assert _same_bits(f, Q[:n])


# OpenBLAS can round an entry of Q A^T differently when its column falls in
# a partial tile of 8 columns, or when the product has only a few rows
# against a few hundred columns (seen up to 5 rows at 160 columns).  So these
# anchor counts are multiples of 8 and each X is one block, as in the Gram
# scan: the sorted anchors then get the same product entries.
def _random_min_form(rng, values, L=1.3, d=7):
    return lz.AnchoredLipschitz(rng.standard_normal((len(values), d)), values,
                                L, "euclidean-vector")


@pytest.mark.parametrize("values", ["distinct", "ties", "single"])
def test_random_queries_bit_equal_to_gram_scan(values):
    rng = np.random.default_rng(21)
    p = {"distinct": rng.standard_normal(304),
         "ties": rng.integers(-2, 3, 304) * 0.25,
         "single": np.full(304, 0.5)}[values]
    f = _random_min_form(rng, p)
    X = np.vstack([rng.standard_normal((500, 7)),
                   f.anchors[::7] + 1e-9 * rng.standard_normal((44, 7))])
    for k in range(6):
        assert _same_bits(f, X[:k])
    assert _same_bits(f, X)
    assert _same_bits(f, np.asfortranarray(X))


def test_nan_query_row_bit_equal_to_gram_scan():
    rng = np.random.default_rng(4)
    f = _random_min_form(rng, rng.integers(0, 2, 200) * 0.5)
    X = rng.standard_normal((9, 7))
    X[3, 2] = np.nan
    got = f.eval(X)
    assert np.isnan(got[3]) and np.isfinite(np.delete(got, 3)).all()
    assert _same_bits(f, X)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_zero_slope_bit_equal_to_gram_scan():
    rng = np.random.default_rng(6)
    f = _random_min_form(rng, rng.integers(0, 3, 48) * 0.5, L=0.0)
    X = rng.standard_normal((20, 7))
    assert (f.eval(X) == f.values.min()).all()
    assert _same_bits(f, X)
    # d2 overflows to +inf on one anchor only: 0 * inf = NaN
    g = lz.AnchoredLipschitz([[0.0, 0.0], [0.0, 1e154]], [1.0, 1.0], 0.0,
                             "euclidean-vector")
    X = np.array([[1.3e154, 0.0], [1.0, 0.0], [1.0, 2.0]])
    assert np.isnan(g.eval(X)[0])
    assert _same_bits(g, X)


def test_t_near_is_the_least_square_at_the_near_distance():
    t = lz.T_NEAR
    assert np.sqrt(t) >= lz.NEAR_DIST > np.sqrt(np.nextafter(t, 0.0))
    assert lz.NEAR_DIST == 1e-6


def test_gram_distance_on_each_side_of_t_near():
    # one anchor at 1 in R^1: the Gram d2 of the query q is (q*q + 1) - 2q
    f = lz.AnchoredLipschitz([[1.0]], [0.0], 1.0, "euclidean-vector")
    q = 1.0 + np.linspace(1e-6 - 1e-9, 1e-6 + 1e-9, 20001)
    d2 = (q * q + 1.0) - 2.0 * q
    below = q[d2 < lz.T_NEAR][np.argmax(d2[d2 < lz.T_NEAR])]
    above = q[d2 >= lz.T_NEAR][np.argmin(d2[d2 >= lz.T_NEAR])]
    for x, exact in ((below, True), (above, False)):
        got = f.eval([[x]])[0]
        assert (got == abs(x - 1.0)) == exact
        assert _same_bits(f, [[x]])
        assert _same_bits(f, [[x], [x]])


def test_anchor_values_must_be_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="finite"):
            lz.AnchoredLipschitz([[0.0], [1.0]], [0.0, bad], 1.0, "euclidean-vector")
    with pytest.raises(InvalidInputError, match="at least one anchor"):
        lz.AnchoredLipschitz(np.empty((0, 2)), [], 1.0, "infinity")


@pytest.mark.parametrize("block_bytes", [8, 8 * 40 * 3 * 4])
def test_max_metric_blocks_do_not_change_values(block_bytes, monkeypatch):
    rng = np.random.default_rng(8)
    f = lz.AnchoredLipschitz(rng.standard_normal((40, 3)), rng.standard_normal(40),
                             2.0, "infinity")
    X = rng.standard_normal((11, 3))
    want = f.eval(X)
    monkeypatch.setattr(lz, "ANCHOR_BLOCK_BYTES", block_bytes)
    assert f.eval(X).tobytes() == want.tobytes()
