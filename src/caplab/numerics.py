"""Dense linear algebra primitives: norms, SVD truncation, ball nets."""

import math

import numpy as np

from . import _kernels
from .errors import CapacityExceededError, InvalidInputError, NumericalFailureError

NORM_KINDS = ("frobenius", "spectral", "euclidean-vector", "infinity")

POWER_MAX_ITERS = 10_000
POWER_REL_TOL = 1e-10
JACOBI_TOL = 1e-12
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


def spectral_norm(M, max_iters=POWER_MAX_ITERS, rel_tol=POWER_REL_TOL):
    """Largest singular value via power iteration on the Gram matrix.

    Deterministic: the start vector comes from a fixed-seed generator.
    """
    A = as_matrix(M)
    if A.size == 0 or not A.any():
        return 0.0
    # iterate on the smaller Gram matrix
    if A.shape[0] < A.shape[1]:
        A = A.T
    G = A.T @ A
    d = G.shape[0]
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = G @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_lam = float(v @ (G @ v))
        if abs(new_lam - lam) <= rel_tol * max(new_lam, 1e-300):
            return math.sqrt(max(new_lam, 0.0))
        lam = new_lam
    raise NumericalFailureError("power iteration did not converge")


def norm(M, kind):
    """Matrix/vector norm of the requested kind."""
    if kind not in NORM_KINDS:
        raise InvalidInputError(f"unknown norm kind {kind!r}")
    A = as_matrix(M)
    if kind == "frobenius":
        return float(np.linalg.norm(A))
    if kind == "spectral":
        return spectral_norm(A)
    if min(A.shape) != 1:
        raise InvalidInputError(f"{kind} norm applies to vectors, got shape {A.shape}")
    v = A.ravel()
    if kind == "euclidean-vector":
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v))) if v.size else 0.0


def jacobi_svd(M, tol=JACOBI_TOL, max_sweeps=60):
    """One-sided Jacobi SVD.  Returns (U, s, Vt) with s descending."""
    A = as_matrix(M)
    transposed = A.shape[0] < A.shape[1]
    if transposed:
        A = A.T
    n, d = A.shape
    B = np.ascontiguousarray(A.copy())
    V = np.eye(d)
    sweeps = _kernels.jacobi_orthogonalize(B, V, tol, max_sweeps)
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
    U, s, Vt = jacobi_svd(A)
    keep = s > eps + SV_TIE_TOL
    if not keep.any():
        return np.zeros_like(A)
    r = int(np.sum(keep))
    return (U[:, :r] * s[:r]) @ Vt[:r]


class BallNet:
    """Greedy maximal packing of a Euclidean ball, doubling as a cover."""

    def __init__(self, radius, dim, resolution, centers):
        self.radius = float(radius)
        self.dim = int(dim)
        self.resolution = float(resolution)
        self.centers = np.asarray(centers, dtype=np.float64)

    @property
    def size(self):
        return self.centers.shape[0]

    def size_limit(self):
        return (1.0 + 2.0 * self.radius / self.resolution) ** self.dim

    def nearest_center_dist(self, points):
        P = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d2 = (
            np.sum(P * P, axis=1)[:, None]
            + np.sum(self.centers**2, axis=1)[None, :]
            - 2.0 * P @ self.centers.T
        )
        return np.sqrt(np.maximum(d2.min(axis=1), 0.0))


def ball_net(r, B, eps, stream_size=_BALL_NET_STREAM_SIZE):
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
        return BallNet(B, r, eps, np.zeros((1, r)))
    rng = np.random.default_rng(_BALL_NET_STREAM_SEED)
    g = rng.standard_normal((stream_size, r))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = B * rng.random(stream_size) ** (1.0 / r)
    cands = np.vstack([np.zeros((1, r)), g * radii[:, None]])
    kept = _kernels.greedy_pack(cands, eps)
    return BallNet(B, r, eps, cands[kept])
