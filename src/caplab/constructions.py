"""Shattering instances: the randomized zero-reference family, and the
explicit index-encoding family and its convex variant, both built on the unit
ball; exhaustive margin verification."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import CapacityExceededError, InvalidInputError
from .lipschitz import (BOUND_SLACK, AnchoredLipschitz, anchor_block_rows, budget,
                        gram_error)
from .numerics import spectral_norm

ENUMERATION_M_CAP = 14   # 2^m witnesses are materialized/enumerated
LAZY_M_CAP = 16          # implicit witnesses: only single matrices realized
# zero-init holds its m 2^m anchors, which are also its queries (its
# witnesses are drawn a block at a time and not held), and its separation
# scan compares every pair of anchors: each unit of m costs ~4x the time and
# ~2x the memory.  At m_cap = 12 construct and verify take 11.6-11.8 s at
# 0.23 GB (2 cores); m_cap = 14 would need ~0.9 GB (extrapolated)
ZERO_INIT_M_CAP = 12
# zero-init sizes whose estimate (_zero_init_bytes) exceeds this are refused
ZERO_INIT_MAX_BYTES = 3 << 30
TABULATE_BLOCK = 128     # labelings per block of a zero-init table
FAMILY_BLOCK_BYTES = 1 << 23    # matrices whose Frobenius norms are taken at once
DENSE_BLOCK_BYTES = 1 << 19     # one (rows, n) array of a dense min-form block

SEPARATION_TARGET = 0.25   # min pairwise distance of the unscaled W_s x_i
SLACK_TOL = 1e-12
MAX_FAILURES = 32        # failing checks a VerifyReport lists
NORM_TOL = 1e-9


def labeling_bits(y, m):
    """Labeling index -> 0/1 vector (bit i of y is the label of point i)."""
    return (y >> np.arange(m)) & 1


# ---------------------------------------------------------------------------
# structured witnesses for the index-encoding constructions.
#
# Anchor (j, z) is the vector a*e_j + b*e_{m+z} in R^n with value +/-eps
# according to bit j of z.  The coordinates a, b are taken from an actual
# matrix-vector product so evaluation at the encoded points is bit-exact.
#
# Every encoded query W_y x_i is two-hot: q_a at coordinate i, q_b at m+y,
# zero elsewhere.  witness_values hands such queries to a witness as
# TwoHotRows, which are evaluated in closed form, grouping the anchors/pieces
# by whether they share i and/or y; a dense array of rows takes the dense
# path.  q_a = (W0 x_i)_i is finite on every instance, and with a finite q_a
# the closed form equals the dense path also where q_b is NaN or +-inf.


def _subset_reduce(a, ufunc, empty):
    """g[:, z] = ufunc over a[:, j] for the bits j of z, and `empty` at
    z = 0: one ufunc call per bit, as bits(z + 2^b) = bits(z) + {b} for
    z < 2^b.  NaN in a[:, j] reaches every z with bit j set."""
    rows, m = a.shape
    g = np.empty((rows, 1 << m))
    g[:, 0] = empty
    for b in range(m):
        ufunc(g[:, : 1 << b], a[:, b : b + 1], out=g[:, 1 << b : 2 << b])
    return g


def _largest_three_abs(Q):
    """Per row: the indices i0, i1 of the largest and second largest |q_c|,
    and the three largest values t0 >= t1 >= t2 (exact; ties in any order)."""
    absq = np.abs(Q)
    rows = np.arange(Q.shape[0])
    i0 = absq.argmax(axis=1)
    t0 = absq[rows, i0]
    absq[rows, i0] = -1.0
    i1 = absq.argmax(axis=1)
    t1 = absq[rows, i1]
    absq[rows, i1] = -1.0
    return i0, i1, t0, t1, absq.max(axis=1)


@dataclass
class TwoHotRows:
    """Rows q_a e_i + q_b e_{m+y} of R^n, held by their two entries: the
    encoded queries as witness_values hands them to a witness's eval."""

    n: int
    i: np.ndarray
    y: np.ndarray
    q_a: np.ndarray
    q_b: np.ndarray
    ndim = 2    # a (rows, n) batch, as callers that count rows by shape expect

    @property
    def shape(self):
        return (self.i.shape[0], self.n)


def _eval_rows(fn, X, chunk):
    """fn on every row of X: TwoHotRows through fn._eval_two_hot, an array
    of rows through fn._eval_dense, chunk rows at a time."""
    if isinstance(X, TwoHotRows):
        if X.n != fn.n:
            raise InvalidInputError("dimension mismatch")
        return fn._eval_two_hot(X.i, X.y, X.q_a, X.q_b)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != fn.n:
        raise InvalidInputError("dimension mismatch")
    out = np.empty(X.shape[0])
    for s in range(0, X.shape[0], chunk):
        out[s : s + chunk] = fn._eval_dense(X[s : s + chunk])
    return out


class EncodedMinForm:
    """Min-form interpolant over the m*2^m encoded points, max metric, slope 1."""

    metric = "infinity"
    L = 1.0

    def __init__(self, m, n, eps, coord_a, coord_b):
        self.m = int(m)
        self.n = int(n)
        self.eps = float(eps)
        self.coord_a = float(coord_a)
        self.coord_b = float(coord_b)

    def eval(self, X, chunk=None):
        """Values on the rows of X; dense rows go `chunk` at a time, by
        default as many as fill DENSE_BLOCK_BYTES."""
        rows = max(1, DENSE_BLOCK_BYTES // (8 * self.n))
        return _eval_rows(self, X, chunk or rows)

    def _eval_dense(self, Q):
        """The min over the m 2^m anchors on dense rows, in O(2^m) per row.

        Anchor (z, j) reads v + max(x, |q_j - a|, |q_{m+z} - b|): v is +eps
        if bit j of z is set and -eps if not, and x is the largest |q_c| off
        the anchor's two coordinates.  Taking x = t0, the row's largest
        |q_c|, is exact for every anchor off its index i0 and too large for
        the others, and the min over j then reads eps + max(t0, E_z, S_z)
        and -eps + max(t0, E_z, S'_z), with S_z (S'_z) the least |q_j - a|
        over the set (clear) bits of z.  The anchors on i0 (a column j = i0
        or a row z = i0 - m) are then taken exactly, with x = t1, or t2 on
        the one that also holds i1.  max and min are exact and adding +-eps
        rounds monotonically, so this is the anchor-by-anchor min bit for
        bit, and NaN on a row with a NaN."""
        m, eps = self.m, self.eps
        D = np.abs(Q[:, :m] - self.coord_a)
        E = np.abs(Q[:, m:] - self.coord_b)
        i0, i1, t0, t1, t2 = _largest_three_abs(Q)
        M = np.maximum(E, t0[:, None])
        S = _subset_reduce(D, np.minimum, np.inf)
        clear = np.maximum(M, S[:, ::-1]).min(axis=1) - eps
        out = np.minimum(np.maximum(M, S, out=S).min(axis=1) + eps, clear)
        r = np.flatnonzero(i0 < m)      # the anchors (z, i0), every z
        if r.size:
            j0 = i0[r]
            x = np.repeat(t1[r, None], 1 << m, axis=1)
            both = np.flatnonzero(i1[r] >= m)
            x[both, i1[r][both] - m] = t2[r][both]
            d = np.maximum(np.maximum(x, D[r, j0][:, None]), E[r])
            v = np.where((np.arange(1 << m) >> j0[:, None]) & 1 == 1, eps, -eps)
            out[r] = np.minimum(out[r], (v + d).min(axis=1))
        r = np.flatnonzero(i0 >= m)     # the anchors (i0 - m, j), every j
        if r.size:
            z0 = i0[r] - m
            x = np.repeat(t1[r, None], m, axis=1)
            both = np.flatnonzero(i1[r] < m)
            x[both, i1[r][both]] = t2[r][both]
            d = np.maximum(np.maximum(x, D[r]), E[r, z0][:, None])
            v = np.where((z0[:, None] >> np.arange(m)) & 1 == 1, eps, -eps)
            out[r] = np.minimum(out[r], (v + d).min(axis=1))
        return out

    def _eval_two_hot(self, i, y, q_a, q_b):
        """Dense kernel's value on rows q_a*e_i + q_b*e_{m+y}, in closed form.

        The anchors fall into four groups by whether they share i and/or y;
        within a group the max-metric distance d is one value, so the group
        contributes fl(min value + d), which equals the dense min over the
        group because rounding is monotone."""
        m, eps = self.m, self.eps
        abs_a, abs_b = np.abs(q_a), np.abs(q_b)
        da, db = np.abs(q_a - self.coord_a), np.abs(q_b - self.coord_b)
        a0, b0 = abs(0.0 - self.coord_a), abs(0.0 - self.coord_b)
        bit_set = ((y >> i) & 1) == 1
        # (i, y): the anchor nearest the query
        out = np.where(bit_set, eps, -eps) + np.maximum(da, db)
        # (i, z != y): some z != y has bit i clear unless m = 1 and y's is clear
        v = np.where(bit_set | (m >= 2), -eps, eps)
        out = np.minimum(out, v + np.maximum(np.maximum(abs_b, da), b0))
        if m >= 2:
            # (j != i, y): -eps iff y has a clear bit besides i
            v = np.where((y | (1 << i)) != (1 << m) - 1, -eps, eps)
            out = np.minimum(out, v + np.maximum(np.maximum(abs_a, a0), db))
            # (j != i, z != y): some such anchor always carries -eps
            d = np.maximum(np.maximum(abs_a, abs_b), max(a0, b0))
            out = np.minimum(out, -eps + d)
        return out

    def __call__(self, x):
        return float(self.eval(np.atleast_2d(x))[0])


class EncodedMaxAffine:
    """Pointwise max of the two-hot affine pieces 0.5*(x_j + x_{m+z}) over
    all (j, z) with bit j of z set, floored at kappa, shifted down."""

    metric = "infinity"

    def __init__(self, m, n, eps, kappa=0.5):
        self.m = int(m)
        self.n = int(n)
        self.eps = float(eps)
        self.kappa = float(kappa)
        self.shift = -(0.5 + self.eps)

    @property
    def num_pieces(self):
        return self.m << (self.m - 1)   # each j lies in half of the 2^m z

    def eval(self, X):
        return _eval_rows(self, X, 256) + self.shift

    def _eval_dense(self, Q):
        return np.maximum(self._best_pieces(Q).max(axis=1), self.kappa)

    def _best_pieces(self, Q):
        """The best piece of each z >= 1 (column z - 1) on each row of Q.

        Piece (j, z) reads 0.5*(a_j + t_z) with a = Q[:, :m], t = Q[:, m:],
        and rounding is monotone, so the best piece of z reads
        0.5*(g_z + t_z) with g_z the max of a_j over the bits j of z: the
        max over the gathered pieces, bit for bit and NaN for NaN, except
        that a row holding both +inf and -inf can read +inf for its NaN."""
        m = self.m
        g = _subset_reduce(Q[:, :m], np.maximum, -np.inf)
        g[:, 0] = 0.0   # z = 0 has no pieces; 0.0 keeps the add below valid
        # in place on all of g: faster than on g[:, 1:]
        g += Q[:, m : m + (1 << m)]
        g *= 0.5
        return g[:, 1:]

    def _eval_two_hot(self, i, y, q_a, q_b):
        """Floored max over the pieces on rows q_a*e_i + q_b*e_{m+y}: each
        piece reads 0.5*(q_a + q_b), 0.5*(q_a + 0), 0.5*(0 + q_b) or 0 by
        whether it shares i and/or y; only the kinds that exist are taken."""
        m = self.m
        bit_set = ((y >> i) & 1) == 1
        best = np.where(bit_set, 0.5 * (q_a + q_b), -np.inf)
        # (i, z != y) with bit i of z set: exists unless m = 1 and y's is set
        best = np.maximum(best, np.where(~bit_set | (m >= 2),
                                         0.5 * (q_a + 0.0), -np.inf))
        # (j != i, y) with bit j of y set
        best = np.maximum(best, np.where((y & ~(1 << i)) != 0,
                                         0.5 * (0.0 + q_b), -np.inf))
        if m >= 2:  # (j != i, z != y) with bit j of z set
            best = np.maximum(best, 0.0)
        return np.maximum(best, self.kappa)

    def __call__(self, x):
        return float(self.eval(np.atleast_2d(x))[0])

    def piece_dual_norm(self):
        # Euclidean dual norm of each two-hot direction
        return 0.5 * math.sqrt(2.0)

    def loss_subgrad(self, live, W, X):
        """Loss and subgradient of W -> f(W x) for S runs at once.

        W is (S, len(live), d), each run's matrix on the rows `live`, zero on
        every other row, and X is (S, d).  Returns (loss (S,), rows (S, 2),
        G (S, 2, d)): run s's subgradient is zero off rows[s] = (j, m+z),
        the best piece, where it is (x/2, x/2) if that piece reaches kappa
        and zero otherwise.  The best piece is the first maximum in (z, j)
        order, as an argmax over all pieces would pick, found without
        gathering them: _best_pieces gives the best piece of each z, and
        the first j in z that reaches it is the piece.  Exact for W and X
        without infinities."""
        m = self.m
        runs = np.arange(W.shape[0])
        q = np.zeros((len(W), self.n))
        q[:, live] = np.matmul(W, X[:, :, None])[:, :, 0]
        tops = self._best_pieces(q)
        # np.argmax takes the first max, or the first NaN
        col = np.argmax(tops, axis=1)
        z = col + 1
        top = tops[runs, col][:, None]
        t_z = q[:, m:][runs, z][:, None]
        pieces = 0.5 * (q[:, :m] + t_z)            # (j, z) for every j
        in_z = ((z[:, None] >> np.arange(m)) & 1) == 1
        j = np.argmax(in_z & ((pieces == top) | np.isnan(pieces)), axis=1)
        best = pieces[runs, j]
        fires = best >= self.kappa
        loss = np.where(fires, best, self.kappa) + self.shift
        half = np.where(fires[:, None], 0.5 * X, 0.0)
        return loss, np.stack([j, m + z], axis=1), np.stack([half, half], axis=1)


# ---------------------------------------------------------------------------

def _family_block(rng, count, n, d):
    """count Gaussian (n, d) matrices divided by sqrt(n); one whose
    Frobenius norm exceeds sqrt(2 d) is scaled down onto that norm."""
    W = rng.standard_normal((count, n, d))
    W /= math.sqrt(n)
    fro = np.linalg.norm(W.reshape(count, -1), axis=1)
    cap = math.sqrt(2.0 * d)
    over = fro > cap
    if over.any():
        W[over] *= (cap / fro[over])[:, None, None]
    return W


@dataclass
class SeparatedFamily:
    """Unit points and, of one matrix W_s per labeling, what an instance
    reads: the anchors X (scale W_s)^T and the norms |scale W_s|_F.  The
    matrices are drawn a block at a time and let go."""

    points: np.ndarray          # (m, d), unit rows
    anchors: np.ndarray         # (m 2^m, n): rows s m .. s m + m - 1 are X (scale W_s)^T
    norms: np.ndarray           # (2^m,): |scale W_s|_F
    separation: float           # measured min pairwise distance of the anchors
    separation_ok: bool         # reached scale * SEPARATION_TARGET
    resamples_used: int = 0     # draws made


def _draw_family(rng, m, n, d, scale):
    """One draw of the family, one FAMILY_BLOCK_BYTES block of matrices at
    a time, and the separation scan of its anchors."""
    S = 1 << m
    block = max(1, FAMILY_BLOCK_BYTES // (8 * n * d))
    X = rng.standard_normal((m, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    anchors, norms = np.empty((m << m, n)), np.empty(S)
    for s in range(0, S, block):
        W = _family_block(rng, min(block, S - s), n, d)
        W *= scale
        for k in range(len(W)):
            anchors[(s + k) * m : (s + k + 1) * m] = X @ W[k].T
            norms[s + k] = np.linalg.norm(W[k])
        del W       # before the next block is drawn, and before the scan
    sep = _kernels.min_pairwise_dist(anchors)
    return SeparatedFamily(X, anchors, norms, sep, sep >= scale * SEPARATION_TARGET)


def random_separated_family(d, m, n, seed, max_resamples=20, scale=1.0):
    """Sphere points plus Gaussian matrices W_s, drawn anew until the m*2^m
    anchors X (scale W_s)^T are pairwise at least scale * SEPARATION_TARGET
    apart (or resamples run out); the family keeps the best draw."""
    if d < 20:
        raise InvalidInputError(f"d={d} < 20")
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if m > ENUMERATION_M_CAP:
        raise CapacityExceededError(f"m={m} > {ENUMERATION_M_CAP}")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if max_resamples < 1:
        raise InvalidInputError("max_resamples must be >= 1")
    rng = np.random.default_rng(seed)
    best = None
    for attempt in range(max_resamples):
        fam = _draw_family(rng, m, n, d, scale)
        if best is None or fam.separation > best.separation:
            best = fam
        if fam.separation_ok:
            break
        del fam     # a worse draw is let go before the next one is drawn
    best.resamples_used = attempt + 1
    return best


# ---------------------------------------------------------------------------

@dataclass
class ShatterInstance:
    """Points plus one witness per labeling, all inside the reference ball.
    The encoded kinds build a witness W_y on demand (witness_for); zero-init
    keeps only what verify reads of its W_y: the queries X W_y^T and the
    ball norms."""

    kind: str                   # zero-init | nonzero-init | convex
    m: int
    margin: float               # eps
    d: int
    n: int
    points: np.ndarray          # (m, d), unit-ball rows
    W0: np.ndarray              # (n, d)
    B: float                    # Frobenius radius around W0
    witness_fn: object          # evaluable on R^n rows
    declared_w0_norm: float
    params: dict = field(default_factory=dict)
    # zero-init: |W_y|_F is _ball[y], and the queries X W_y^T are the
    # witness's anchors y m .. y m + m - 1; W_y itself is not kept
    _ball: np.ndarray = None            # (2^m,)
    # zero-init: a lower bound on the distance between two anchors, from
    # this process's separation scan (0.0 certifies nothing); never read
    # from or written to a record
    _anchor_separation: float = 0.0
    # the encoded kinds: W_y = W0 + _entry_val[y] e_{_entry_row[y]} e_m^T
    _entry_row: np.ndarray = None       # (2^m,) int, in [m, n)
    _entry_val: np.ndarray = None       # (2^m,)

    @property
    def num_labelings(self):
        return 1 << self.m

    def witness_for(self, y):
        """Dense parameter matrix for labeling index y, on the encoded kinds.
        Zero-init holds its queries X W_y^T (the witness's anchors) and the
        norms |W_y|_F, not W_y, and refuses."""
        if self._entry_row is None:
            raise InvalidInputError(
                "a zero-init instance holds the queries X W_y^T (its witness's "
                "anchors) and the ball norms, not W_y")
        if not 0 <= y < self.num_labelings:
            raise InvalidInputError(f"labeling index {y} out of range")
        W = self.W0.copy()
        W[self._entry_row[y], self.m] = self._entry_val[y]
        return W

    def manifest(self):
        return {
            "kind": self.kind,
            "m": self.m,
            "eps": self.margin,
            "d": self.d,
            "n": self.n,
            "B": self.B,
            "W0_norm": self.declared_w0_norm,
            "metric": self.witness_fn.metric,
            "witness_fn": type(self.witness_fn).__name__,
            "params": self.params,
        }


def _manifest_field(record, name, integer, default=None, label=None):
    """record[name], refused unless it is a finite number (a nonnegative
    integer when `integer`); `default` stands in for a missing optional one."""
    label = label or name
    if name not in record:
        if default is None:
            raise InvalidInputError(f"instance record lacks field {label!r}")
        return default
    v = record[name]
    ok = not isinstance(v, bool)
    if integer:
        ok = ok and isinstance(v, int) and v >= 0
        need = "a nonnegative integer"
    else:
        ok = ok and isinstance(v, (int, float)) and math.isfinite(v)
        need = "a finite number"
    if not ok:
        raise InvalidInputError(f"instance field {label!r} must be {need}, got {v!r}")
    return v


def instance_from_manifest(obj):
    if not isinstance(obj, dict):
        raise InvalidInputError("instance record must be a JSON object")
    kind = obj.get("kind")
    p = obj.get("params", {})
    if not isinstance(p, dict):
        raise InvalidInputError("instance field 'params' must be a JSON object")

    def param(name, integer, default=None):
        return _manifest_field(p, name, integer, default, label=f"params.{name}")

    if kind == "zero-init":
        return zero_init_instance(
            param("B", False), param("L", False),
            _manifest_field(obj, "eps", False), param("m_cap", True),
            param("seed", True), n=param("n", True, 256),
            max_resamples=param("max_resamples", True, 20),
        )
    if kind in ("nonzero-init", "convex"):
        m = _manifest_field(obj, "m", True)
        eps = _manifest_field(obj, "eps", False)
        if kind == "nonzero-init":
            return nonzero_init_instance(m, eps)
        return convex_instance(m, eps, param("kappa", False, 0.5))
    raise InvalidInputError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------

def _zero_init_bytes(m, n, d):
    """Bytes zero-init holds at its peak, estimated as the sum of:
      - two arrays of the m 2^m anchors: the best draw's are kept while a
        resample is drawn, and the draw's while the witness takes its
        sorted copy;
      - one family block of (n, d) matrices and its squares, which the
        Frobenius norms take (the witness's squared norms, taken one
        SQUARE_BLOCK_BYTES block of rows at a time, hold less than these);
      - the separation scan's two (rows, m 2^m) buffers and its (rows,
        rows) mask;
      - the witness's eval on a block of the table that is not certified:
        its two (rows, m 2^m) Gram blocks and their mask."""
    N = m << m
    block = min(1 << m, max(1, FAMILY_BLOCK_BYTES // (8 * n * d))) * n * d
    scan = _kernels._pair_block_rows(N)
    rows = min(anchor_block_rows(N) + 1, min(TABULATE_BLOCK, 1 << m) * m)
    gram = 3 * rows * N
    return 8 * (2 * N * n + 2 * block + 2 * scan * N + gram) + scan * scan


def _anchor_separation(sep, anchors):
    """A lower bound on the exact distance between any two rows of
    `anchors`, from sep, their min_pairwise_dist as this process scanned
    them: the scan's least Gram d2 is at least sep^2 less sep's rounding,
    and each pair's Gram d2 is off from its exact squared distance by at
    most gram_error(n) (|a|^2 + |b|^2), computed norms standing in for the
    exact ones."""
    if not sep > 0:
        return 0.0
    sq_max = float(np.einsum("ij,ij->i", anchors, anchors).max())
    r2 = sep * sep * (1.0 - BOUND_SLACK) - 2.0 * gram_error(anchors.shape[1]) * sq_max
    return math.sqrt(r2) * (1.0 - BOUND_SLACK) if r2 > 0 else 0.0


def zero_init_instance(B, L, eps, m_cap, seed, n=256, max_resamples=20):
    """Randomized instance around the zero reference matrix.

    The ambient input dimension is floor(L^2 B^2 / (128 eps^2)); witnesses
    are the separated-family matrices scaled by 8 eps / L, and the witness
    function interpolates +/-eps over all m*2^m encoded points.  A size
    whose estimated peak (_zero_init_bytes) exceeds ZERO_INIT_MAX_BYTES is
    refused before the family is drawn.
    """
    if B < 1 or L < 1:
        raise InvalidInputError("need B >= 1 and L >= 1")
    if not 0 < eps <= 1:
        raise InvalidInputError("need 0 < eps <= 1")
    d = int(L * L * B * B / (128.0 * eps * eps))
    if d < 20:
        raise InvalidInputError(
            f"L^2 B^2 / (128 eps^2) = {d} < 20: inputs too small for the construction"
        )
    if m_cap > ZERO_INIT_M_CAP:
        raise CapacityExceededError(
            f"m_cap={m_cap} > ZERO_INIT_M_CAP = {ZERO_INIT_M_CAP}: zero-init "
            "memory doubles with each unit of m")
    if m_cap >= 1 and n >= 1:   # smaller ones are refused by the family's builder
        need = _zero_init_bytes(m_cap, n, d)
        if need > ZERO_INIT_MAX_BYTES:
            raise CapacityExceededError(
                f"zero-init at m_cap={m_cap}, n={n}, d={d} needs about "
                f"{need / 2**30:.1f} GiB > ZERO_INIT_MAX_BYTES = "
                f"{ZERO_INIT_MAX_BYTES / 2**30:.1f} GiB")
    m = m_cap
    scale = 8.0 * eps / L
    fam = random_separated_family(d, m, n, seed, max_resamples=max_resamples,
                                  scale=scale)
    # value of point i under labeling s is +/-eps by bit i of s
    s_idx = np.repeat(np.arange(1 << m), m)
    i_idx = np.tile(np.arange(m), 1 << m)
    values = np.where(((s_idx >> i_idx) & 1) == 1, eps, -eps)
    slope_budget = budget([-eps, eps], 2.0 * eps / L)  # = L by the closed form
    # anchors lie separation apart and their +/-eps values differ by at most
    # 2 eps; on a separated family (scale * SEPARATION_TARGET = 2 eps / L
    # apart) that slope is at most L
    L_eff = max(slope_budget, 2.0 * eps / max(fam.separation, 1e-300))
    fn = AnchoredLipschitz(fam.anchors, values, L_eff)
    inst = ShatterInstance(
        kind="zero-init",
        m=m,
        margin=eps,
        d=d,
        n=n,
        points=fam.points,
        W0=np.zeros((n, d)),
        B=float(B),
        witness_fn=fn,
        declared_w0_norm=0.0,
        params={
            "B": B, "L": L, "m_cap": m_cap, "seed": seed, "n": n,
            "max_resamples": max_resamples,
            "separation": fam.separation,
            "separation_ok": bool(fam.separation_ok),
            "witness_slope": L_eff,
        },
        _ball=fam.norms,
        _anchor_separation=_anchor_separation(fam.separation, fam.anchors),
    )
    return inst


def _encoded_instance(kind, m, eps, w0_coeff, kappa=0.5):
    """The index-encoding constructions, built on the unit ball.

    With b_x = sqrt(2): points (e_i + e_m) / b_x, W0 = (w0_coeff eps) b_x
    [I | 0], and each witness adds one entry b_x at (m+y, m) that copies the
    labeling index into the output, so W_y x_i = w0_coeff eps e_i + e_{m+y}
    and ||W_y - W0||_F = B = b_x."""
    if not 0 < eps <= 0.5:
        raise InvalidInputError("need 0 < eps <= 0.5")
    if m < 1 or m > LAZY_M_CAP:
        raise CapacityExceededError(f"m={m} outside [1, {LAZY_M_CAP}]")
    b_x = math.sqrt(2.0)
    d = m + 1
    n = (1 << m) + m
    points = np.zeros((m, d))
    points[np.arange(m), np.arange(m)] = 1.0
    points[:, m] = 1.0
    points /= b_x
    W0 = np.zeros((n, d))
    W0[np.arange(m), np.arange(m)] = (w0_coeff * eps) * b_x
    inst = ShatterInstance(
        kind=kind,
        m=m,
        margin=eps,
        d=d,
        n=n,
        points=points,
        W0=W0,
        B=b_x,
        witness_fn=None,
        declared_w0_norm=(w0_coeff * eps) * b_x,
        _entry_row=m + np.arange(1 << m, dtype=np.int64),
        _entry_val=np.full(1 << m, b_x),
    )
    if kind == "convex":
        inst.witness_fn = EncodedMaxAffine(m, n, eps, kappa)
        inst.params = {"kappa": kappa}
    else:
        # coordinates read off an actual product, so that witness evaluation
        # at the encoded points is bit-exact
        z = inst.witness_for(0) @ points[0]
        inst.witness_fn = EncodedMinForm(m, n, eps, float(z[0]), float(z[m]))
    return inst


def nonzero_init_instance(m, eps):
    """Deterministic instance with a small nonzero reference matrix:
    W0 = 2 sqrt(2) eps [I | 0], B = sqrt(2), and the slope-1 min-form
    interpolant in the max metric over the m 2^m encoded points."""
    return _encoded_instance("nonzero-init", m, eps, 2.0)


def convex_instance(m, eps, kappa=0.5):
    """Convex variant: the doubled reference matrix and the max-affine
    witness over the two-hot directions.  Exact +/-eps outputs hold for
    eps <= 0.25 with the default constant piece."""
    return _encoded_instance("convex", m, eps, 4.0, kappa)


# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    passed: bool
    worst_slack: float
    failures: list              # the first MAX_FAILURES failing checks
    w0_norm_ok: bool
    ball_ok: bool
    checked_labelings: int
    failure_count: int          # every failing check


def witness_table(inst):
    """Value table f(W_y x_i), shape (2^m, m), over every labeling y.

    Refuses m > ENUMERATION_M_CAP before any witness is built."""
    if inst.m > ENUMERATION_M_CAP:
        raise CapacityExceededError(
            f"m={inst.m} > {ENUMERATION_M_CAP}: full enumeration infeasible"
        )
    return witness_values(inst, np.arange(inst.num_labelings))


def witness_values(inst, ys):
    """Values f(W_y x_i), shape (len(ys), m), for the labelings ys.

    On the encoded kinds every query W_y x_i is two-hot: q_a = (W0 x_i)_i
    at coordinate i and q_b = x_i[m] v_y at r_y, for the one entry v_y at
    (r_y, m) that W_y adds to W0.  Each is a single product, bit-equal to
    the matmul, so the queries go to the witness's eval as TwoHotRows
    without any W_y being built.  Zero-init's queries X W_y^T are its
    witness's anchors: each block of TABULATE_BLOCK labelings takes the
    anchors' values when the witness certifies every row of the block
    bit-equal to its eval (own_anchor_values, against the separation this
    process measured), and the witness's eval on those rows otherwise."""
    ys = np.asarray(ys, dtype=np.int64)
    m, X = inst.m, inst.points
    if inst._entry_row is None:
        fn = inst.witness_fn
        table = np.empty((ys.size, m))
        for start in range(0, ys.size, TABULATE_BLOCK):
            block = ys[start : start + TABULATE_BLOCK]
            own = (block[:, None] * m + np.arange(m)).ravel()
            vals, ok = fn.own_anchor_values(own, inst._anchor_separation)
            if not ok.all():
                vals = fn.eval(fn.anchor_rows(own))
            table[start : start + len(block)] = vals.reshape(len(block), m)
        return table
    q_a = np.diagonal(X @ inst.W0.T)
    q_b = inst._entry_val[ys][:, None] * X[:, m]
    queries = TwoHotRows(inst.n, np.tile(np.arange(m), ys.size),
                         np.repeat(inst._entry_row[ys] - m, m),
                         np.tile(q_a, ys.size), q_b.ravel())
    return np.asarray(inst.witness_fn.eval(queries)).reshape(ys.size, m)


def _ball_distances(inst):
    """||W_y - W0||_F for every labeling y.  On the encoded kinds W_y - W0
    is the one entry v_y, whose norm np.linalg.norm takes as sqrt(v_y v_y);
    zero-init's W0 is zero, and its build took each |W_y|_F."""
    if inst._entry_val is not None:
        return np.sqrt(inst._entry_val * inst._entry_val)
    return inst._ball


def verify_shattering(inst):
    """Exhaustively check the margin condition over every labeling and point.

    worst_slack is the minimum signed surplus over all 2^m * m checks;
    the instance passes iff every surplus is >= -1e-12 and the norm
    declarations hold.  Comparisons are written so that NaN fails.
    """
    table = witness_table(inst)
    m, eps = inst.m, inst.margin
    bits = labeling_bits(np.arange(inst.num_labelings)[:, None], m)
    slack = np.where(bits == 1, table - eps, -eps - table)
    ok = slack >= -SLACK_TOL
    failing = np.argwhere(~ok)
    failures = [(int(y), int(i), float(table[y, i]))
                for y, i in failing[:MAX_FAILURES]]
    w0_norm = spectral_norm(inst.W0)
    w0_ok = abs(w0_norm - inst.declared_w0_norm) <= NORM_TOL
    ball_ok = bool(np.all(_ball_distances(inst) <= inst.B + NORM_TOL))
    passed = bool(ok.all()) and w0_ok and ball_ok
    return VerifyReport(passed, float(slack.min()), failures, w0_ok, ball_ok,
                        inst.num_labelings, len(failing))
