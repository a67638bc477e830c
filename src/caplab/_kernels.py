"""Hot inner loops, in numpy."""

import numpy as np

# no compiled kernels; the benchmark's environment record reads this flag
USE_NUMBA = False


def cuts(n, size):
    """Start and end of each block of n rows, size at a time, a lone last
    row joining the block before it: numpy takes a one-row product through
    gemv, whose sums can differ from gemm's in the last bit."""
    s = 0
    while s < n:
        e = n if n - (s + size) < 2 else s + size
        yield s, e
        s = e


# ---------------------------------------------------------------------------
# greedy packing of a candidate stream (maximal eps-separated subset)
#
# Candidate x is kept iff np.sum((C - x)**2, axis=1).min() >= eps*eps over
# the centres C kept before it.  A block of candidates is first screened
# against C with one expanded product sq_x + sq_c - 2 x.c, whose rounding
# error is a few r ulps of sq_x + sq_c, far below PACK_MARGIN times the
# largest squared norm for any r below 10^5.  A candidate screened below
# eps^2 - margin is surely rejected; the others take the exact test above,
# in stream order, against the centres screened within eps^2 + margin and
# those kept earlier in the same block.  Centres screened beyond eps^2 +
# margin cannot decide the exact test, so the kept indices are the scalar
# loop's.

PACK_MARGIN = 1e-9
PACK_BLOCK_BYTES = 1 << 21      # cap on one block's candidate x centre matrix
PACK_MIN_ROWS = 64


def greedy_pack(cands, eps):
    """Indices of a maximal eps-separated subset, scanned in stream order."""
    cands = np.ascontiguousarray(cands, dtype=np.float64)
    n, r = cands.shape
    eps2 = float(eps) * float(eps)
    sq = np.einsum("ij,ij->i", cands, cands)
    margin = PACK_MARGIN * (1.0 + float(sq.max())) if n else 0.0
    lo, hi = eps2 - margin, eps2 + margin
    centers = np.empty((n, r))
    neg2c = np.empty((n, r))        # -2 C, exact
    sqc = np.empty(n)
    kept = np.empty(n, dtype=np.int64)
    nk = 0
    start = 0
    while start < n:
        # blocks grow with the centre list, capped in bytes
        cap = PACK_BLOCK_BYTES // (8 * max(nk, 1))
        rows = max(1, min(max(nk, PACK_MIN_ROWS), cap))
        stop = min(n, start + rows)
        old = nk
        if old:
            S = cands[start:stop] @ neg2c[:old].T
            S += sqc[:old]
            live = np.flatnonzero(~(S.min(axis=1) + sq[start:stop] < lo))
        else:
            live = range(stop - start)
        for s in live:
            i = start + s
            x = cands[i]
            ref = centers[old:nk]
            if old:
                near = centers[np.flatnonzero(~(S[s] + sq[i] > hi))]
                ref = np.concatenate([near, ref]) if nk > old else near
            if ref.shape[0] == 0 or np.sum((ref - x) ** 2, axis=1).min() >= eps2:
                centers[nk] = x
                neg2c[nk] = -2.0 * x
                sqc[nk] = sq[i]
                kept[nk] = i
                nk += 1
        start = stop
    return kept[:nk]


# ---------------------------------------------------------------------------
# one-sided Jacobi SVD: orthogonalize the columns of A, accumulating V

# reached by no command; kept as the tests' oracle and a benchmark trace target
def jacobi_orthogonalize(A, V, tol, max_sweeps):
    """One-sided Jacobi column orthogonalization, in place.

    Returns the number of sweeps used, or -1 on non-convergence.
    """
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
                vp = V[:, p]
                vq = V[:, q]
                new_vp = c * vp - s * vq
                new_vq = s * vp + c * vq
                V[:, p] = new_vp
                V[:, q] = new_vq
        if off == 0:
            return sweep + 1
    return -1


# ---------------------------------------------------------------------------
# squared row norms, a block of rows at a time

SQUARE_BLOCK_BYTES = 1 << 20    # one (rows, n) block of squared entries


def row_squares(A):
    """np.sum(A * A, axis=1), one SQUARE_BLOCK_BYTES block of rows at a
    time: the sum along the last axis reduces each row on its own, so the
    result is bit-equal, without an A-sized temporary."""
    out = np.empty(A.shape[0])
    step = max(1, SQUARE_BLOCK_BYTES // (8 * max(1, A.shape[1])))
    for s in range(0, A.shape[0], step):
        block = A[s : s + step]
        np.sum(block * block, axis=1, out=out[s : s + step])
    return out


# ---------------------------------------------------------------------------
# minimum pairwise Euclidean distance, for separation measurements
#
# Each block of rows a:b takes the upper product G = 2 X[a:b] X[a:]^T, so
# the squared Gram distances |x_i|^2 + |x_j|^2 - G_ij are formed only for
# j >= a, one PAIR_TILE_BYTES tile of G's columns at a time; the pairs
# j <= i are masked.  The product is taken whole per block: a product over
# a slice of X[a:]'s rows can round differently.  max(., 0) and the square
# root round monotonically, so they commute with min: the scan keeps the
# least squared distance and takes one root at the end.  A block whose
# minimum is NaN is skipped, as min(best, nan) keeps best.  At zero-init
# m_cap 12 (49,152 rows of 256) the scan holds a 50 MB product block and
# a 1 MB tile; a second block-sized buffer held another 50 MB.

PAIR_BLOCK_BYTES = 1 << 23      # a block's (rows, n) product
PAIR_TILE_BYTES = 1 << 20       # a (rows, cols) tile of its squared distances
# thinner blocks take longer in all: at n = 49,152 (zero-init m_cap 12) the
# scan took 11.0 s in 128-row blocks, 12.4 s in 64 and 17.0 s in 21 (8 MB)
PAIR_MIN_ROWS = 128


def _pair_block_rows(n):
    """Rows of a min_pairwise_dist block over n rows: as many as fill
    PAIR_BLOCK_BYTES, but at least PAIR_MIN_ROWS, and at most n."""
    return max(1, min(n, max(PAIR_MIN_ROWS, PAIR_BLOCK_BYTES // (8 * max(n, 1)))))


def min_pairwise_dist(X):
    """Minimum distance over all pairs of rows (inf for fewer than two)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    sq = row_squares(X)
    chunk = _pair_block_rows(n)
    width = max(1, PAIR_TILE_BYTES // (8 * chunk))
    gbuf, tbuf = np.empty(chunk * n), np.empty(chunk * min(width, n))
    best = np.inf
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        rows, cols = b - a, n - a
        G = gbuf[: rows * cols].reshape(rows, cols)
        np.matmul(X[a:b], X[a:].T, out=G)
        G *= 2.0
        low = np.inf        # NaN if any tile's is, as the whole block's min was
        for c in range(0, cols, width):
            e = min(c + width, cols)
            d2 = tbuf[: rows * (e - c)].reshape(rows, e - c)
            np.add(sq[a:b, None], sq[None, a + c : a + e], out=d2)
            d2 -= G[:, c:e]
            if c < rows:    # the tile cuts the diagonal block: mask j <= i
                d2[np.tri(rows, e - c, -c, dtype=bool)] = np.inf
            low = np.minimum(low, d2.min())
        best = min(best, float(low))
    return float(np.sqrt(np.maximum(best, 0.0)))


# ---------------------------------------------------------------------------
# evaluation of the two-hot encoded min-form interpolant in the max metric
#
# Anchors are indexed by (j, z): the anchor vector is a*e_j + b*e_{m+z}
# in R^n, carrying value vals[z*m + j].  For each query row we need
#   min over anchors of  vals + max(max_{c not in {j, m+z}} |q_c|,
#                                   |q_j - a|, |q_{m+z} - b|)
# The excluded max comes from the query's top-3 |q_c| entries.
# EncodedMinForm.eval evaluates the same min in closed form on TwoHotRows and
# by a subset-min recurrence on dense rows, so no command gets here.

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


# reached by no command; kept as the tests' oracle and a benchmark trace target
def encoded_min_eval(Q, j_arr, zc_arr, vals, a, b):
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    a, b = float(a), float(b)
    top3v, top3i = _top3_abs(Q)
    out = np.empty(Q.shape[0])
    for qi in range(Q.shape[0]):
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
