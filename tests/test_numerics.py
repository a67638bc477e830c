import numpy as np
import pytest

from caplab import numerics as nm
from caplab.errors import CapacityExceededError, InvalidInputError, NumericalFailureError


def test_norm_diag_examples():
    assert nm.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)


def test_norm_vector_kinds():
    # a vector is taken as one column: its spectral norm is its length
    assert nm.spectral_norm(np.array([3.0, -4.0])) == pytest.approx(5.0)


def test_norm_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError):
            nm.spectral_norm(np.array([[1.0, bad]]))


def _orthonormal_factors(k, rows, cols, seed):
    """Random U (rows x k) and V (cols x k) with orthonormal columns."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    V, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return U, V


def _matrix_with_singular_values(s, rows, cols, seed):
    """U diag(s) V^T with orthonormal columns U (rows x k) and V (cols x k),
    k = len(s): a matrix whose singular values are known."""
    U, V = _orthonormal_factors(len(s), rows, cols, seed)
    return (U * s) @ V.T


def _gapped_matrix(gap):
    """A 60x40 matrix with singular values 1 and 1 - gap, then 0.5 down to 0.01."""
    s = np.concatenate([[1.0, 1.0 - gap], np.linspace(0.5, 0.01, 38)])
    return _matrix_with_singular_values(s, 60, 40, 31)


@pytest.mark.parametrize("gap", [1e-3, 1e-4])
def test_spectral_norm_exact_at_small_singular_value_gap(gap):
    # power iteration's step-change stopping rule ends 1e-8 to 1e-7 short here
    assert abs(nm.spectral_norm(_gapped_matrix(gap)) - 1.0) <= 1e-12


def test_spectral_matches_svd_oracle():
    # the top singular value is built in, so the check does not compare
    # LAPACK with itself; a Frobenius-norm stand-in fails it
    rng = np.random.default_rng(11)
    for trial in range(25):
        rows, cols = rng.integers(2, 9, size=2)
        s = 3.0 * np.sort(0.1 + rng.random(min(rows, cols)))[::-1]
        M = _matrix_with_singular_values(s, rows, cols, trial)
        sp = nm.spectral_norm(M)
        assert abs(sp - s[0]) <= 1e-12 * s[0], trial
        assert sp <= np.linalg.norm(M) + 1e-12


def test_norm_sandwich():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows, cols = rng.integers(2, 9, size=2)
        M = rng.standard_normal((rows, cols))
        sp = nm.spectral_norm(M)
        fro = np.linalg.norm(M)
        assert sp <= fro + 1e-10
        assert fro <= np.sqrt(min(rows, cols)) * sp + 1e-10


def test_jacobi_svd_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.standard_normal((7, 5))
        U, s, Vt = nm.jacobi_svd(M)
        assert np.allclose((U * s) @ Vt, M, atol=1e-10)
        assert np.allclose(s, np.linalg.svd(M, compute_uv=False), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)


def test_svd_truncate_diag():
    W = np.diag([2.0, 0.1])
    Wt = nm.svd_truncate(W, 0.5)
    assert np.allclose(Wt, np.diag([2.0, 0.0]), atol=1e-12)
    assert np.linalg.norm(W - Wt, 2) == pytest.approx(0.1, abs=1e-12)


def test_svd_truncate_zero_matrix():
    assert not nm.svd_truncate(np.zeros((3, 4)), 0.3).any()


def test_svd_truncate_rank_and_error():
    # U diag(s) V^T with known s on both sides of eps = 0.5 and
    # ||W||_F < 2, tall and wide, every rank from 0 to full: the truncation
    # is U_r diag(s_r) V_r^T and its spectral error is s[r]
    rng = np.random.default_rng(17)
    for trial in range(20):
        rows, cols = [(8, 6), (6, 8), (12, 3), (3, 12)][trial % 4]
        k = min(rows, cols)
        r = trial % (k + 1)
        s = np.concatenate([np.sort(rng.uniform(0.6, 0.8, r))[::-1],
                            np.sort(rng.uniform(0.01, 0.45, k - r))[::-1]])
        U, V = _orthonormal_factors(k, rows, cols, trial)
        W = (U * s) @ V.T
        assert np.linalg.norm(s) < 2.0
        Wt = nm.svd_truncate(W, 0.5)
        assert np.abs(Wt - (U[:, :r] * s[:r]) @ V[:, :r].T).max() <= 1e-12, trial
        assert np.linalg.matrix_rank(Wt, tol=1e-10) == r <= 16
        err = np.linalg.norm(W - Wt, 2)
        assert err <= 0.5 + 1e-10
        assert abs(err - (s[r] if r < k else 0.0)) <= 1e-12, trial


@pytest.mark.parametrize("rows,cols", [(7, 7), (9, 7), (7, 9)])
def test_svd_truncate_at_the_tie_tolerance(rows, cols):
    # a signed, permuted diagonal: LAPACK returns its singular values
    # exactly, so the ones at eps + SV_TIE_TOL and below are dropped and
    # the ones above kept, bit for bit
    eps, tol = 0.5, nm.SV_TIE_TOL
    s = np.array([2.0, eps + 2 * tol, eps + tol, eps + tol / 2, eps, eps - tol, 0.1])
    rng = np.random.default_rng(rows * cols)
    W = np.zeros((rows, cols))
    W[rng.permutation(rows)[:7], rng.permutation(cols)[:7]] = \
        s * rng.choice([-1.0, 1.0], 7)
    want = np.where(np.abs(W) > eps + tol, W, 0.0)
    assert np.count_nonzero(want) == 2
    assert np.array_equal(nm.svd_truncate(W, eps), want)
    # rank 0 and full rank
    assert not nm.svd_truncate(W, 2.0).any()
    assert np.array_equal(nm.svd_truncate(W, 0.05), W)


def test_lapack_failure_is_a_numerical_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalFailureError, match="did not converge"):
        nm.svd_truncate(np.eye(3), 0.5)
    monkeypatch.setattr(np.linalg, "norm", fail)
    with pytest.raises(NumericalFailureError, match="did not converge"):
        nm.spectral_norm(np.eye(3))


def test_svd_truncate_unit_vector_property():
    rng = np.random.default_rng(23)
    W = rng.standard_normal((6, 6))
    eps = 0.8
    Wt = nm.svd_truncate(W, eps)
    X = rng.standard_normal((1000, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    errs = np.linalg.norm(X @ (W - Wt).T, axis=1)
    assert errs.max() <= eps * (1 + 1e-8)


def test_svd_truncate_idempotent():
    rng = np.random.default_rng(29)
    for _ in range(10):
        W = rng.standard_normal((5, 7))
        Wt = nm.svd_truncate(W, 0.7)
        assert np.allclose(nm.svd_truncate(Wt, 0.7), Wt, atol=1e-12)


def nearest_center_dist(net, points):
    """Distance from each point to its nearest net center."""
    d = np.linalg.norm(points[:, None, :] - net.centers[None, :, :], axis=2)
    return d.min(axis=1)


def size_limit(r, B, eps):
    """Volume bound on an eps-packing of the radius-B ball in R^r."""
    return (1.0 + 2.0 * B / eps) ** r


def test_ball_net_line():
    net = nm.ball_net(1, 1.0, 0.5)
    assert net.size <= 5
    rng = np.random.default_rng(0)
    probes = (2 * rng.random((1000, 1)) - 1)
    assert nearest_center_dist(net, probes).max() <= 0.5 * 1.01


def test_ball_net_degenerate():
    net = nm.ball_net(2, 0.0, 0.1)
    assert net.size == 1 and not net.centers.any()


def test_ball_net_size_limit():
    assert nm.ball_net(2, 1.0, 1.0).size <= 9
    for r in (1, 2, 3):
        net = nm.ball_net(r, 2.0, 0.75)
        assert net.size <= size_limit(r, 2.0, 0.75)
        # packing property and ball membership
        C = net.centers
        assert np.linalg.norm(C, axis=1).max() <= 2.0 + 1e-12
        d = np.linalg.norm(C[:, None] - C[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.75 - 1e-12


def test_ball_net_guards():
    with pytest.raises(CapacityExceededError):
        nm.ball_net(5, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        nm.ball_net(2, 1.0, 0.0)
