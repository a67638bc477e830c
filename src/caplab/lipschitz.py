"""Lipschitz witness functions: min-form interpolation from finite anchors,
the slope-budget formula, and empirical slope measurement."""

import numpy as np

from ._kernels import cuts
from .errors import InvalidInputError

ANCHOR_BLOCK_BYTES = 1 << 23    # one (rows, anchors) block of squared distances
PROBE_BLOCK_BYTES = 1 << 22     # one (pairs, n) array of empirical_lipschitz's points
SQUARE_BLOCK_BYTES = 1 << 20    # one (rows, n) block of the anchors' squared entries
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

UNIT_ROUNDOFF = 2.0**-53
BOUND_SLACK = 2.0**-40   # relative room for the roundings of a bound's own few operations


def gram_error(n):
    """c with |d2 - |q - a|^2| <= c (|q|^2 + |a|^2) for the Gram distance
    d2 = (|q|^2 + |a|^2) - (2q).a of two rows of R^n, each norm and the
    product summed in any order: twice the first-order bound.

    A float sum or dot product of k terms, in any order and with or without
    fused multiply-adds, is off from the exact value by at most
    gamma_k = k u / (1 - k u) times the sum of its terms' magnitudes.  The
    norms are off by gamma_n times themselves, and the product by
    gamma_n (|q|^2 + |a|^2), as 2 sum |q_c a_c| <= sum q_c^2 + a_c^2; the
    sum and the difference add (1 + 2) u (|q|^2 + |a|^2).  That is at most
    2 gamma_{n+2} (|q|^2 + |a|^2), and the factor 2 covers computed norms
    standing in for the exact ones."""
    k = (n + 2) * UNIT_ROUNDOFF
    return 4.0 * k / (1.0 - k)


def _pairwise_dist(X, metric):
    if metric == "euclidean-vector":
        sq = np.sum(X * X, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * X @ X.T
        return np.sqrt(np.maximum(d2, 0.0))
    if metric == "infinity":
        return np.max(np.abs(X[:, None, :] - X[None, :, :]), axis=2)
    raise InvalidInputError(f"unsupported metric {metric!r}")


def _row_squares(A):
    """np.sum(A * A, axis=1), one SQUARE_BLOCK_BYTES block of rows at a
    time: the sum along the last axis reduces each row on its own, so the
    result is bit-equal, without an A-sized temporary."""
    out = np.empty(A.shape[0])
    step = max(1, SQUARE_BLOCK_BYTES // (8 * max(1, A.shape[1])))
    for s in range(0, A.shape[0], step):
        block = A[s : s + step]
        np.sum(block * block, axis=1, out=out[s : s + step])
    return out


def anchor_block_rows(N):
    """Rows per block of AnchoredLipschitz.eval over N anchors: as many as
    fill ANCHOR_BLOCK_BYTES, but at least 2."""
    return max(2, ANCHOR_BLOCK_BYTES // (8 * N))


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
    """Min-form interpolant f(x) = min_i (p_i + L |x - x_i|), Euclidean.

    Interpolates every anchor exactly and is L-Lipschitz, provided L is
    feasible for the anchor values.
    """

    metric = "euclidean-vector"

    def __init__(self, anchors, values, L):
        anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
        self.values = np.asarray(values, dtype=np.float64)
        if anchors.shape[0] != self.values.shape[0]:
            raise InvalidInputError("anchor/value count mismatch")
        if self.values.size == 0:
            raise InvalidInputError("need at least one anchor")
        if not np.isfinite(self.values).all():
            raise InvalidInputError("anchor values must be finite")
        if L < 0:
            raise InvalidInputError("L must be nonnegative")
        self.L = float(L)
        # the anchors are held once, sorted by value, so each value's
        # anchors are one run; anchor k is _sorted[_rank[k]]
        order = np.argsort(self.values, kind="stable")
        v = self.values[order]
        self._sorted = anchors[order]
        self._rank = np.empty_like(order)
        self._rank[order] = np.arange(order.size)
        self._sorted_sq = _row_squares(self._sorted)
        self._starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
        self._group_values = v[self._starts]

    @property
    def anchors(self):
        """The anchors in the order given, as a new array."""
        return self._sorted[self._rank]

    def anchor_rows(self, own):
        """Anchors own (indices in the order given), as a new array."""
        return self._sorted[self._rank[own]]

    @property
    def block_rows(self):
        """Rows of X per block of eval: a row's value can depend on how many
        rows its block has, as the Gram product can round differently."""
        return anchor_block_rows(self._sorted.shape[0])

    def eval(self, X):
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
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        A, a_sq, starts = self._sorted, self._sorted_sq, self._starts
        n, N, rows = X.shape[0], A.shape[0], self.block_rows
        size = min(n, rows + 1)
        D2, G = np.empty((size, N)), np.empty((size, N))
        near = np.empty((size, N), dtype=bool)
        reduce = np.maximum if self.L == 0 else np.minimum
        out = np.empty(n)
        for s, e in cuts(n, rows):
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
        return out

    def own_anchor_values(self, own, separation):
        """eval's values on the anchors own, taken as rows, in O(1) per row,
        and which rows are certified bit-equal to eval's.

        `separation` must be a lower bound on the exact distance between
        any two anchors.  A row is its own anchor, at exact squared distance
        s = 0, so its value is p + L sqrt(0), with p the anchor's value,
        when:
          (i) the Gram error bound on the row's d2 to its own anchor is
              below T_NEAR, so eval takes s for that anchor;
          (ii) D = separation^2 less the Gram error is at least T_NEAR: every
              other anchor's Gram d2 is at least D, so none takes the near
              path or undercuts s in its value's reduction;
          (iii) p' + L sqrt(D) >= p + L sqrt(0), with p' the least other
              value: max(., 0), sqrt, times L and plus p' round
              monotonically, so no other value's term is below the row's.
        A row with L = 0, a non-finite entry or any check failing is not
        certified, and its returned value may differ from eval's."""
        p = self.values[own]
        vals = p + self.L * 0.0
        if not self.L > 0:
            return vals, np.zeros(vals.shape, dtype=bool)
        a_sq, sq = self._sorted_sq[self._rank[own]], self._sorted_sq
        err = gram_error(self._sorted.shape[1]) * (1.0 + BOUND_SLACK)
        near = 2.0 * err * a_sq < T_NEAR
        D = separation * separation * (1.0 - BOUND_SLACK) - err * (a_sq + sq.max())
        g = self._group_values
        other = np.where(p == g[0], g[1] if g.size > 1 else np.inf, g[0])
        beats = other + self.L * np.sqrt(np.maximum(D, 0.0)) >= vals
        return vals, near & (D >= T_NEAR) & beats

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


def empirical_lipschitz(f, sampler, metric, pairs, seed):
    """Max sampled slope |f(u)-f(v)| / d(u,v) over pairs (u, v) drawn from
    the sampler: a lower estimate of the true Lipschitz constant.  d is the
    Euclidean ("euclidean-vector") or the max ("infinity") metric.

    The pairs are drawn u, v, u, v, ... and evaluated and reduced a block
    at a time, each block's points one array of about PROBE_BLOCK_BYTES.
    The max is exact and a witness with `block_rows` gets blocks that are
    multiples of it, cut as its eval cuts them (a lone last pair joins the
    block before it), so the slope is the one all pairs at once give."""
    if metric not in ("euclidean-vector", "infinity"):
        raise InvalidInputError(f"unsupported metric {metric!r}")
    if pairs < 1:
        raise InvalidInputError("pairs must be >= 1")
    rng = np.random.default_rng(seed)
    u = np.asarray(sampler(rng), dtype=np.float64)
    step = getattr(f, "block_rows", 1)
    size = step * max(1, PROBE_BLOCK_BYTES // (8 * u.size * step))
    U, V = np.empty((2, min(pairs, size + 1), u.size))
    best = 0.0      # below every slope, which is >= +0 or NaN
    for s, e in cuts(pairs, size):
        X, Y = U[: e - s], V[: e - s]
        for k in range(e - s):
            X[k] = sampler(rng) if s + k else u
            Y[k] = sampler(rng)
        if hasattr(f, "eval"):
            fu, fv = f.eval(X), f.eval(Y)
        else:
            fu = np.array([f(x) for x in X])
            fv = np.array([f(y) for y in Y])
        X -= Y   # the distances, in place
        d = (np.linalg.norm(X, axis=1) if metric == "euclidean-vector"
             else np.max(np.abs(X, out=X), axis=1))
        ok = d > 0.0
        if ok.any():    # np.maximum keeps a NaN slope, as np.max does
            best = np.maximum(best, np.max(np.abs(fu[ok] - fv[ok]) / d[ok]))
    return float(best)
