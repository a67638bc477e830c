"""Lipschitz witness functions: min-form interpolation from finite anchors,
the slope-budget formula, and empirical slope measurement."""

import numpy as np

from .errors import BudgetTooSmallError, InvalidInputError

PERTURB_FRACTION = 0.1   # anchor-pair radius, as a fraction of the anchor spacing


def _pairwise_dist(X, metric):
    if metric == "euclidean-vector":
        sq = np.sum(X * X, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * X @ X.T
        return np.sqrt(np.maximum(d2, 0.0))
    if metric == "infinity":
        return np.max(np.abs(X[:, None, :] - X[None, :, :]), axis=2)
    raise InvalidInputError(f"unsupported metric {metric!r}")


def budget(values, alpha):
    """Slope needed to hit the given values on an alpha-separated point set.

    Closed form of (2/alpha) * min over C of max |p_i - C|: the optimal C is
    the mid-range, so the value is (max - min) / alpha.
    """
    if alpha <= 0:
        raise InvalidInputError("alpha must be positive")
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise InvalidInputError("values must be nonempty")
    return float((vals.max() - vals.min()) / alpha)


class AnchoredLipschitz:
    """Min-form interpolant f(x) = min_i (p_i + L * d(x, x_i)).

    Interpolates every anchor exactly and is L-Lipschitz in the chosen
    metric, provided L is feasible for the anchor values.
    """

    def __init__(self, anchors, values, L, metric):
        self.anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
        self.values = np.asarray(values, dtype=np.float64)
        if self.anchors.shape[0] != self.values.shape[0]:
            raise InvalidInputError("anchor/value count mismatch")
        if L < 0:
            raise InvalidInputError("L must be nonnegative")
        if metric not in ("euclidean-vector", "infinity"):
            raise InvalidInputError(f"unsupported metric {metric!r}")
        self.L = float(L)
        self.metric = metric

    def eval(self, X, chunk=1024):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty(X.shape[0])
        A = self.anchors
        if self.metric == "euclidean-vector":
            a_sq = np.sum(A * A, axis=1)
            for s in range(0, X.shape[0], chunk):
                Q = X[s : s + chunk]
                d2 = (
                    np.sum(Q * Q, axis=1)[:, None]
                    + a_sq[None, :]
                    - 2.0 * Q @ A.T
                )
                d = np.sqrt(np.maximum(d2, 0.0))
                # the Gram form cancels badly near zero (error ~sqrt(ulp));
                # recompute tiny distances from the actual differences
                near = np.argwhere(d < 1e-6)
                if near.size:
                    qi, ai = near[:, 0], near[:, 1]
                    d[qi, ai] = np.linalg.norm(Q[qi] - A[ai], axis=1)
                out[s : s + chunk] = np.min(self.values[None, :] + self.L * d, axis=1)
        else:
            for s in range(0, X.shape[0], chunk):
                Q = X[s : s + chunk]
                d = np.max(np.abs(Q[:, None, :] - A[None, :, :]), axis=2)
                out[s : s + chunk] = np.min(self.values[None, :] + self.L * d, axis=1)
        return out

    def __call__(self, x):
        return float(self.eval(np.atleast_2d(x))[0])


def min_feasible_slope(anchors, values, metric):
    """max over anchor pairs of |p_i - p_j| / d(x_i, x_j)."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    values = np.asarray(values, dtype=np.float64)
    n = anchors.shape[0]
    if n < 2:
        return 0.0
    d = _pairwise_dist(anchors, metric)
    vd = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(d, np.inf)
    if np.any((d == 0) & (vd > 0)):
        raise InvalidInputError("duplicate anchors with conflicting values")
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.where(d > 0, vd / d, 0.0)
    return float(slopes.max())


def mcshane_extend(anchors, values, L, metric="euclidean-vector"):
    """Min-form extension of the anchor values at slope budget L.

    Raises BudgetTooSmallError (reporting the minimal feasible slope) when L
    cannot interpolate the anchors.
    """
    slope = min_feasible_slope(anchors, values, metric)
    if L < slope * (1.0 - 1e-12):
        raise BudgetTooSmallError(L, slope)
    return AnchoredLipschitz(anchors, values, L, metric)


def empirical_lipschitz(f, sampler, metric, pairs, seed, anchors=None):
    """Max sampled slope |f(u)-f(v)| / d(u,v): a lower estimate of the true
    Lipschitz constant.

    When an anchor set is supplied, half the pairs are drawn as small
    perturbations of random anchors (the max slope of min-form interpolants
    is attained near anchors); the rest come from the sampler.
    """
    if pairs < 1:
        raise InvalidInputError("pairs must be >= 1")
    rng = np.random.default_rng(seed)
    n_anchor_pairs = 0
    if anchors is not None and len(anchors) >= 1:
        anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
        n_anchor_pairs = pairs // 2
        if anchors.shape[0] >= 2:
            d = _pairwise_dist(anchors[: min(len(anchors), 512)], metric)
            np.fill_diagonal(d, np.inf)
            radius = PERTURB_FRACTION * float(d.min())
        else:
            radius = PERTURB_FRACTION
    us, vs = [], []
    for k in range(pairs):
        if k < n_anchor_pairs:
            i, j = rng.integers(0, anchors.shape[0], size=2)
            us.append(anchors[i] + radius * rng.standard_normal(anchors.shape[1]))
            vs.append(anchors[j] + radius * rng.standard_normal(anchors.shape[1]))
        else:
            us.append(np.asarray(sampler(rng), dtype=np.float64))
            vs.append(np.asarray(sampler(rng), dtype=np.float64))
    U = np.vstack(us)
    V = np.vstack(vs)
    if metric == "euclidean-vector":
        d = np.linalg.norm(U - V, axis=1)
    else:
        d = np.max(np.abs(U - V), axis=1)
    if hasattr(f, "eval"):
        fu, fv = f.eval(U), f.eval(V)
    else:
        fu = np.array([f(u) for u in U])
        fv = np.array([f(v) for v in V])
    ok = d > 0.0
    if not ok.any():
        return 0.0
    return float(np.max(np.abs(fu[ok] - fv[ok]) / d[ok]))
