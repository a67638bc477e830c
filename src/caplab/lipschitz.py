"""Lipschitz witness functions: min-form interpolation from finite anchors,
the slope-budget formula, and empirical slope measurement."""

import numpy as np

from .errors import InvalidInputError

PERTURB_FRACTION = 0.1   # anchor-pair radius, as a fraction of the anchor spacing
ANCHOR_BLOCK_BYTES = 1 << 23    # one (rows, anchors) block of squared distances
NEAR_DIST = 1e-6         # Gram distances below this are recomputed exactly


def _least_sqrt_at_least(x):
    """The least double t with sqrt(t) >= x."""
    t = np.float64(x) * np.float64(x)
    while np.sqrt(t) < x:
        t = np.nextafter(t, np.inf)
    while np.sqrt(np.nextafter(t, 0.0)) >= x:
        t = np.nextafter(t, 0.0)
    return float(t)


# sqrt(max(t, 0)) < NEAR_DIST exactly when t < T_NEAR
T_NEAR = _least_sqrt_at_least(NEAR_DIST)


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
        if self.values.size == 0:
            raise InvalidInputError("need at least one anchor")
        if not np.isfinite(self.values).all():
            raise InvalidInputError("anchor values must be finite")
        if L < 0:
            raise InvalidInputError("L must be nonnegative")
        if metric not in ("euclidean-vector", "infinity"):
            raise InvalidInputError(f"unsupported metric {metric!r}")
        self.L = float(L)
        self.metric = metric
        if metric == "euclidean-vector":
            # the anchors sorted by value, so each value's anchors are one run
            order = np.argsort(self.values, kind="stable")
            v = self.values[order]
            self._sorted = self.anchors[order]
            self._sorted_sq = np.sum(self._sorted * self._sorted, axis=1)
            self._starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
            self._group_values = v[self._starts]

    def eval(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.metric == "euclidean-vector":
            return self._eval_euclidean(X)
        out = np.empty(X.shape[0])
        A = self.anchors
        rows = max(1, ANCHOR_BLOCK_BYTES // (8 * max(A.size, 1)))
        for s in range(0, X.shape[0], rows):
            Q = X[s : s + rows]
            d = np.max(np.abs(Q[:, None, :] - A[None, :, :]), axis=2)
            out[s : s + rows] = np.min(self.values[None, :] + self.L * d, axis=1)
        return out

    def _eval_euclidean(self, X):
        """min over anchors of p + L sqrt(max(d2, 0)), d2 the Gram form
        |q|^2 + |a|^2 - (2q).a, or the exact sum of squared differences
        where the Gram distance is below NEAR_DIST (the Gram form cancels
        badly near zero, error ~sqrt(ulp)).

        max(., 0), sqrt, times L and plus p each round monotonically, so they
        commute with min: each value's anchors are reduced to their least d2
        first, and the rest is applied to a (rows, values) array.  With
        L = 0 the one distance that matters is +inf (0 * inf = NaN), so
        the reduction takes the max instead.  A lone row goes through a matrix-vector
        product, whose rounding differs from the matrix product's; no block
        of a multi-row X is left with one row."""
        A, a_sq, starts = self._sorted, self._sorted_sq, self._starts
        n, N = X.shape[0], A.shape[0]
        rows = max(2, ANCHOR_BLOCK_BYTES // (8 * N))
        size = min(n, rows + 1)
        D2, G = np.empty((size, N)), np.empty((size, N))
        near = np.empty((size, N), dtype=bool)
        reduce = np.maximum if self.L == 0 else np.minimum
        out = np.empty(n)
        s = 0
        while s < n:
            e = n if n - (s + rows) < 2 else s + rows
            Q = X[s:e]
            d2, g = D2[: e - s], G[: e - s]
            np.matmul(2.0 * Q, A.T, out=g)
            np.add(np.sum(Q * Q, axis=1)[:, None], a_sq[None, :], out=d2)
            d2 -= g
            idx = np.flatnonzero(np.less(d2, T_NEAR, out=near[: e - s]))
            if idx.size:
                qi, ai = np.divmod(idx, N)
                diff = Q[qi] - A[ai]
                d2.reshape(-1)[idx] = np.add.reduce(diff * diff, axis=1)
            d = np.sqrt(np.maximum(reduce.reduceat(d2, starts, axis=1), 0.0))
            out[s:e] = np.min(self._group_values[None, :] + self.L * d, axis=1)
            s = e
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
