"""Hot inner loops, compiled with numba when available.

Setting the environment variable ``CAPLAB_NO_NUMBA=1`` forces the pure-numpy
fallback path (same results).
"""

import os

import numpy as np

USE_NUMBA = os.environ.get("CAPLAB_NO_NUMBA", "0") != "1"

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

if not USE_NUMBA:
    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap


# ---------------------------------------------------------------------------
# greedy packing of a candidate stream (maximal eps-separated subset)

@njit(cache=True)
def _greedy_pack_jit(cands, eps):
    n, r = cands.shape
    kept = np.empty(n, dtype=np.int64)
    nkept = 0
    eps2 = eps * eps
    for i in range(n):
        ok = True
        for k in range(nkept):
            j = kept[k]
            d2 = 0.0
            for c in range(r):
                diff = cands[i, c] - cands[j, c]
                d2 += diff * diff
            if d2 < eps2:
                ok = False
                break
        if ok:
            kept[nkept] = i
            nkept += 1
    return kept[:nkept]


def _greedy_pack_np(cands, eps):
    kept = []
    centers = np.empty((0, cands.shape[1]))
    for i in range(cands.shape[0]):
        if centers.shape[0] == 0:
            kept.append(i)
            centers = cands[i : i + 1]
            continue
        d2 = np.sum((centers - cands[i]) ** 2, axis=1)
        if d2.min() >= eps * eps:
            kept.append(i)
            centers = np.vstack([centers, cands[i : i + 1]])
    return np.asarray(kept, dtype=np.int64)


def greedy_pack(cands, eps):
    """Indices of a maximal eps-separated subset, scanned in stream order."""
    cands = np.ascontiguousarray(cands, dtype=np.float64)
    if USE_NUMBA:
        return _greedy_pack_jit(cands, float(eps))
    return _greedy_pack_np(cands, float(eps))


# ---------------------------------------------------------------------------
# one-sided Jacobi SVD: orthogonalize the columns of A, accumulating V

@njit(cache=True)
def _jacobi_orthogonalize_jit(A, V, tol, max_sweeps):
    n, d = A.shape
    for sweep in range(max_sweeps):
        off = 0
        for p in range(d - 1):
            for q in range(p + 1, d):
                app = 0.0
                aqq = 0.0
                apq = 0.0
                for i in range(n):
                    app += A[i, p] * A[i, p]
                    aqq += A[i, q] * A[i, q]
                    apq += A[i, p] * A[i, q]
                if apq == 0.0 or app == 0.0 or aqq == 0.0:
                    continue
                if abs(apq) <= tol * np.sqrt(app * aqq):
                    continue
                off += 1
                zeta = (aqq - app) / (2.0 * apq)
                if zeta >= 0.0:
                    t = 1.0 / (zeta + np.sqrt(1.0 + zeta * zeta))
                else:
                    t = -1.0 / (-zeta + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                for i in range(n):
                    ap = A[i, p]
                    aq = A[i, q]
                    A[i, p] = c * ap - s * aq
                    A[i, q] = s * ap + c * aq
                for i in range(d):
                    vp = V[i, p]
                    vq = V[i, q]
                    V[i, p] = c * vp - s * vq
                    V[i, q] = s * vp + c * vq
        if off == 0:
            return sweep + 1
    return -1


def _jacobi_orthogonalize_np(A, V, tol, max_sweeps):
    n, d = A.shape
    for sweep in range(max_sweeps):
        off = 0
        for p in range(d - 1):
            for q in range(p + 1, d):
                ap = A[:, p]
                aq = A[:, q]
                app = ap @ ap
                aqq = aq @ aq
                apq = ap @ aq
                if apq == 0.0 or app == 0.0 or aqq == 0.0:
                    continue
                if abs(apq) <= tol * np.sqrt(app * aqq):
                    continue
                off += 1
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) if zeta != 0 else 1.0
                t = t / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                new_p = c * ap - s * aq
                new_q = s * ap + c * aq
                A[:, p] = new_p
                A[:, q] = new_q
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
        if off == 0:
            return sweep + 1
    return -1


def jacobi_orthogonalize(A, V, tol, max_sweeps):
    """One-sided Jacobi column orthogonalization, in place.

    Returns the number of sweeps used, or -1 on non-convergence.
    """
    if USE_NUMBA:
        return _jacobi_orthogonalize_jit(A, V, tol, max_sweeps)
    return _jacobi_orthogonalize_np(A, V, tol, max_sweeps)


# ---------------------------------------------------------------------------
# minimum pairwise Euclidean distance (overall, and among rows with
# differing attached values) for separation / slope measurements

def min_pairwise_dist(X, values=None, chunk=512):
    """(min distance over all pairs, min distance over differing-value pairs).

    The second entry is inf when `values` is None or constant.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    best = np.inf
    best_diff = np.inf
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        d2 = sq[a:b, None] + sq[None, :] - 2.0 * (X[a:b] @ X.T)
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(a, b)
        d2[rows - a, rows] = np.inf
        # only count each unordered pair once: mask j <= i (global index)
        mask = np.arange(n)[None, :] <= rows[:, None]
        d2m = np.where(mask, np.inf, d2)
        if d2m.size:
            best = min(best, float(np.sqrt(d2m.min())))
        if values is not None:
            vals = np.asarray(values)
            diff = vals[a:b, None] != vals[None, :]
            d2v = np.where(mask | ~diff, np.inf, d2)
            if d2v.size:
                best_diff = min(best_diff, float(np.sqrt(d2v.min())))
    return best, best_diff


# ---------------------------------------------------------------------------
# evaluation of the two-hot encoded min-form interpolant in the max metric
#
# Anchors are indexed by (j, z): the anchor vector is a*e_j + b*e_{m+z}
# in R^n, carrying value vals[z*m + j].  For each query row we need
#   min over anchors of  vals + max(max_{c not in {j, m+z}} |q_c|,
#                                   |q_j - a|, |q_{m+z} - b|)
# The excluded max comes from the query's top-3 |q_c| entries.  Two-hot
# rows never get here: EncodedMinForm.eval evaluates them in closed form.

@njit(cache=True)
def _encoded_min_eval_jit(Q, top3v, top3i, j_arr, zc_arr, vals, a, b):
    nq = Q.shape[0]
    na = j_arr.shape[0]
    out = np.empty(nq)
    for qi in range(nq):
        t0, t1, t2 = top3v[qi, 0], top3v[qi, 1], top3v[qi, 2]
        i0, i1, i2 = top3i[qi, 0], top3i[qi, 1], top3i[qi, 2]
        best = np.inf
        for k in range(na):
            j = j_arr[k]
            zc = zc_arr[k]
            if i0 != j and i0 != zc:
                mex = t0
            elif i1 != j and i1 != zc:
                mex = t1
            else:
                mex = t2
            d = mex
            dj = abs(Q[qi, j] - a)
            if dj > d:
                d = dj
            dz = abs(Q[qi, zc] - b)
            if dz > d:
                d = dz
            v = vals[k] + d
            if v < best:
                best = v
        out[qi] = best
    return out


def _encoded_min_eval_np(Q, top3v, top3i, j_arr, zc_arr, vals, a, b):
    nq = Q.shape[0]
    out = np.empty(nq)
    for qi in range(nq):
        i0, i1, i2 = top3i[qi]
        t0, t1, t2 = top3v[qi]
        mex = np.full(j_arr.shape, t0)
        hit0 = (i0 == j_arr) | (i0 == zc_arr)
        hit1 = (i1 == j_arr) | (i1 == zc_arr)
        mex[hit0 & ~hit1] = t1
        mex[hit0 & hit1] = t2
        d = np.maximum(mex, np.abs(Q[qi, j_arr] - a))
        np.maximum(d, np.abs(Q[qi, zc_arr] - b), out=d)
        out[qi] = float(np.min(vals + d))
    return out


def _top3_abs(Q):
    """Per-row top-3 |entry| values and their indices, descending."""
    absq = np.abs(Q)
    k = min(3, Q.shape[1])
    idx = np.argpartition(-absq, kth=k - 1, axis=1)[:, :k]
    part = np.take_along_axis(absq, idx, axis=1)
    order = np.argsort(-part, axis=1)
    top3i = np.take_along_axis(idx, order, axis=1).astype(np.int64)
    top3v = np.take_along_axis(part, order, axis=1)
    if k < 3:  # pad degenerate low-dimension queries
        pad_v = np.zeros((Q.shape[0], 3 - k))
        pad_i = np.full((Q.shape[0], 3 - k), -1, dtype=np.int64)
        top3v = np.hstack([top3v, pad_v])
        top3i = np.hstack([top3i, pad_i])
    return top3v, top3i


def encoded_min_eval(Q, j_arr, zc_arr, vals, a, b):
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    top3v, top3i = _top3_abs(Q)
    args = (Q, top3v, top3i, j_arr, zc_arr, vals, float(a), float(b))
    if USE_NUMBA:
        return _encoded_min_eval_jit(*args)
    return _encoded_min_eval_np(*args)
