"""Dense linear algebra primitives: the spectral norm, SVD truncation, ball
nets."""

import numpy as np

from . import _kernels
from .errors import CapacityExceededError, InvalidInputError, NumericalFailureError

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60
SV_TIE_TOL = 1e-12

_BALL_NET_STREAM_SEED = 0xC0FFEE
_BALL_NET_STREAM_SIZE = 50_000


def as_matrix(M):
    A = np.asarray(M, dtype=np.float64)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix has non-finite entries")
    return A


def spectral_norm(M):
    """Largest singular value, from LAPACK."""
    A = as_matrix(M)
    try:
        return float(np.linalg.norm(A, 2))
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError(f"spectral norm: {e}") from e


# reached by no command; kept as the tests' oracle and a benchmark trace target
def jacobi_svd(M):
    """One-sided Jacobi SVD.  Returns (U, s, Vt) with s descending."""
    A = as_matrix(M)
    transposed = A.shape[0] < A.shape[1]
    if transposed:
        A = A.T
    n, d = A.shape
    B = np.ascontiguousarray(A.copy())
    V = np.eye(d)
    sweeps = _kernels.jacobi_orthogonalize(B, V, JACOBI_TOL, JACOBI_MAX_SWEEPS)
    if sweeps < 0:
        raise NumericalFailureError("Jacobi SVD did not converge")
    s = np.linalg.norm(B, axis=0)
    order = np.argsort(-s)
    s = s[order]
    B = B[:, order]
    V = V[:, order]
    U = np.zeros_like(B)
    nz = s > 0
    U[:, nz] = B[:, nz] / s[nz]
    if transposed:
        return V, s, U.T
    return U, s, V.T


def svd_truncate(W, eps):
    """Drop singular values <= eps (ties within SV_TIE_TOL count as dropped)."""
    if not eps > 0:
        raise InvalidInputError("eps must be positive")
    A = as_matrix(W)
    if not A.any():
        return np.zeros_like(A)
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError(f"SVD: {e}") from e
    r = int(np.sum(s > eps + SV_TIE_TOL))
    if r == 0:
        return np.zeros_like(A)
    return (U[:, :r] * s[:r]) @ Vt[:r]


class BallNet:
    """Greedy maximal packing of a Euclidean ball, doubling as a cover."""

    def __init__(self, centers):
        self.centers = np.asarray(centers, dtype=np.float64)

    @property
    def size(self):
        return self.centers.shape[0]


def ball_net(r, B, eps):
    """Greedy eps-packing of the radius-B ball in R^r.

    The candidate stream is a fixed-seed sequence of uniform ball points, so
    the output is reproducible.  r is capped at 4: the net size is
    exponential in r.
    """
    if r < 1 or int(r) != r:
        raise InvalidInputError("dimension must be a positive integer")
    if r > 4:
        raise CapacityExceededError(f"dimension {r} > 4: net size is exponential in r")
    if not eps > 0:
        raise InvalidInputError("eps must be positive")
    if B < 0:
        raise InvalidInputError("radius must be nonnegative")
    if B == 0:
        return BallNet(np.zeros((1, r)))
    rng = np.random.default_rng(_BALL_NET_STREAM_SEED)
    g = rng.standard_normal((_BALL_NET_STREAM_SIZE, r))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = B * rng.random(_BALL_NET_STREAM_SIZE) ** (1.0 / r)
    cands = np.vstack([np.zeros((1, r)), g * radii[:, None]])
    kept = _kernels.greedy_pack(cands, eps)
    return BallNet(cands[kept])
