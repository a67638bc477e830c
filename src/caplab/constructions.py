"""Shattering instances: the randomized zero-reference family, and the
explicit index-encoding family and its convex variant, both built on the unit
ball; exhaustive margin verification."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import CapacityExceededError, InvalidInputError
from .lipschitz import AnchoredLipschitz, budget, min_feasible_slope
from .numerics import norm

ENUMERATION_M_CAP = 14   # 2^m witnesses are materialized/enumerated
LAZY_M_CAP = 16          # implicit witnesses: only single matrices realized
# zero-init holds all 2^m witnesses and m 2^m anchors, and verify evaluates
# every anchor densely: each unit of m costs ~4x the time and ~2x the memory.
# At m_cap = 10 / 11 / 12 construct takes 1.6 / 5.2 / 19 s and verify 3.4 /
# 15 / 77 s, peaking at 0.23 / 0.43 / 0.84 GB (one run each, 2 cores);
# m_cap = 14 would need ~3.4 GB and ~20 min per verify (extrapolated)
ZERO_INIT_M_CAP = 12
TABULATE_BLOCK = 128     # labelings per X @ W_y.T block in _dense_table
DENSE_BLOCK_BYTES = 1 << 19     # one (rows, n) array of a dense min-form block

SEPARATION_TARGET = 0.25   # min pairwise distance of the encoded vectors
SLACK_TOL = 1e-12
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
# by whether they share i and/or y; a dense array of rows, and any two-hot
# row with a non-finite entry, takes the dense path.


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
    """fn on every row of X, chunk by chunk: TwoHotRows through
    fn._eval_two_hot (those with a non-finite entry are written out and
    take the dense path), an array of rows through fn._eval_dense."""
    if isinstance(X, TwoHotRows):
        return _eval_two_hot_rows(fn, X, chunk)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != fn.n:
        raise InvalidInputError("dimension mismatch")
    out = np.empty(X.shape[0])
    for s in range(0, X.shape[0], chunk):
        out[s : s + chunk] = fn._eval_dense(X[s : s + chunk])
    return out


def _eval_two_hot_rows(fn, X, chunk):
    if X.n != fn.n:
        raise InvalidInputError("dimension mismatch")
    out = np.empty(X.shape[0])
    fast = np.isfinite(X.q_a) & np.isfinite(X.q_b)
    out[fast] = fn._eval_two_hot(X.i[fast], X.y[fast], X.q_a[fast], X.q_b[fast])
    slow = np.flatnonzero(~fast)
    for s in range(0, slow.size, chunk):
        r = slow[s : s + chunk]
        k = np.arange(r.size)
        Q = np.zeros((r.size, fn.n))
        Q[k, X.i[r]] = X.q_a[r]
        Q[k, fn.m + X.y[r]] = X.q_b[r]
        out[r] = fn._eval_dense(Q)
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

    def eval(self, X, chunk=256):
        return _eval_rows(self, X, chunk) + self.shift

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

    def loss_subgrad(self, W, X):
        """Loss and subgradient of W -> f(W x) for S runs at once.

        W is (S, n, d) and X is (S, d).  Returns (loss (S,), rows (S, 2),
        G (S, 2, d)): run s's subgradient is zero off rows[s] = (j, m+z),
        the best piece, where it is (x/2, x/2) if that piece reaches kappa
        and zero otherwise.  The best piece is the first maximum in (z, j)
        order, as an argmax over all pieces would pick, found without
        gathering them: _best_pieces gives the best piece of each z, and
        the first j in z that reaches it is the piece.  Exact for W and X
        without infinities."""
        m = self.m
        runs = np.arange(W.shape[0])
        q = np.matmul(W, X[:, :, None])[:, :, 0]
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

@dataclass
class SeparatedFamily:
    """Unit points and a matrix per labeling whose encoded images are spread."""

    points: np.ndarray          # (m, d), unit rows
    matrices: np.ndarray        # (2^m, n, d)
    separation: float           # measured min pairwise distance of {W_s x_i}
    separation_ok: bool         # reached SEPARATION_TARGET
    resamples_used: int


def random_separated_family(d, m, n, seed, max_resamples=20):
    """Sphere points plus Gaussian matrices, redrawn until the m*2^m encoded
    vectors are pairwise at least SEPARATION_TARGET apart (or resamples run
    out)."""
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
        X = rng.standard_normal((m, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        W = rng.standard_normal((1 << m, n, d)) / math.sqrt(n)
        fro = np.linalg.norm(W.reshape(1 << m, -1), axis=1)
        cap = math.sqrt(2.0 * d)
        over = fro > cap
        if over.any():
            W[over] *= (cap / fro[over])[:, None, None]
        encoded = np.einsum("snd,md->smn", W, X).reshape(-1, n)
        sep = _kernels.min_pairwise_dist(encoded)
        if best is None or sep > best.separation:
            best = SeparatedFamily(X, W, sep, sep >= SEPARATION_TARGET, attempt + 1)
        if sep >= SEPARATION_TARGET:
            break
    return best


# ---------------------------------------------------------------------------

@dataclass
class ShatterInstance:
    """Points plus one witness per labeling, all inside the reference ball."""

    kind: str                   # zero-init | nonzero-init | convex
    m: int
    margin: float               # eps
    d: int
    n: int
    points: np.ndarray          # (m, d), unit-ball rows
    W0: np.ndarray              # (n, d)
    B: float                    # Frobenius radius around W0
    witness_fn: object          # evaluable on R^n rows
    metric: str
    declared_w0_norm: float
    params: dict = field(default_factory=dict)
    _witness_supplier: object = None    # y -> W_y, for zero-init
    # the encoded kinds: W_y = W0 + _entry_val[y] e_{_entry_row[y]} e_m^T
    _entry_row: np.ndarray = None       # (2^m,) int, in [m, n)
    _entry_val: np.ndarray = None       # (2^m,)

    @property
    def num_labelings(self):
        return 1 << self.m

    def witness_for(self, y):
        """Dense parameter matrix for labeling index y."""
        if not 0 <= y < self.num_labelings:
            raise InvalidInputError(f"labeling index {y} out of range")
        if self._entry_row is None:
            return self._witness_supplier(y)
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
            "metric": self.metric,
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

def zero_init_instance(B, L, eps, m_cap, seed, n=256, max_resamples=20):
    """Randomized instance around the zero reference matrix.

    The ambient input dimension is floor(L^2 B^2 / (128 eps^2)); witnesses
    are the separated-family matrices scaled by 8 eps / L, and the witness
    function interpolates +/-eps over all m*2^m encoded points.
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
    fam = random_separated_family(d, m_cap, n, seed, max_resamples=max_resamples)
    m = m_cap
    scale = 8.0 * eps / L
    witnesses = scale * fam.matrices
    anchors = np.einsum("snd,md->smn", witnesses, fam.points).reshape(-1, n)
    # value of point i under labeling s is +/-eps by bit i of s
    s_idx = np.repeat(np.arange(1 << m), m)
    i_idx = np.tile(np.arange(m), 1 << m)
    values = np.where(((s_idx >> i_idx) & 1) == 1, eps, -eps)
    scaled_sep = scale * fam.separation
    slope_budget = budget([-eps, eps], 2.0 * eps / L)  # = L by the closed form
    feasible = min_feasible_slope(anchors, values, "euclidean-vector") \
        if anchors.shape[0] <= 4096 else 2.0 * eps / max(scaled_sep, 1e-300)
    L_eff = max(slope_budget, feasible)
    fn = AnchoredLipschitz(anchors, values, L_eff, "euclidean-vector")
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
        metric="euclidean-vector",
        declared_w0_norm=0.0,
        params={
            "B": B, "L": L, "m_cap": m_cap, "seed": seed, "n": n,
            "max_resamples": max_resamples,
            "separation": fam.separation,
            "separation_ok": bool(fam.separation_ok),
            "witness_slope": L_eff,
        },
        _witness_supplier=lambda y: witnesses[y],
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
        metric="infinity",
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
    failures: list              # the first max_failures failing checks
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
    without any W_y being built.  Other instances take the Q loop."""
    ys = np.asarray(ys, dtype=np.int64)
    if inst._entry_row is None:
        return _dense_table(inst, ys)
    m, X = inst.m, inst.points
    q_a = np.diagonal(X @ inst.W0.T)
    q_b = inst._entry_val[ys][:, None] * X[:, m]
    queries = TwoHotRows(inst.n, np.tile(np.arange(m), ys.size),
                         np.repeat(inst._entry_row[ys] - m, m),
                         np.tile(q_a, ys.size), q_b.ravel())
    return np.asarray(inst.witness_fn.eval(queries)).reshape(ys.size, m)


def _dense_table(inst, ys):
    """witness_values by the Q loop: Q = X W_y^T for each labeling in ys."""
    m, n = inst.m, inst.n
    table = np.empty((len(ys), m))
    X = inst.points
    for start in range(0, len(ys), TABULATE_BLOCK):
        block = ys[start : start + TABULATE_BLOCK]
        Q = np.empty((len(block) * m, n))
        for k, y in enumerate(block):
            Q[k * m : (k + 1) * m] = X @ inst.witness_for(int(y)).T
        table[start : start + len(block)] = np.asarray(
            inst.witness_fn.eval(Q)
        ).reshape(len(block), m)
    return table


def _ball_distances(inst):
    """||W_y - W0||_F for every labeling y.  On the encoded kinds W_y - W0
    is the one entry v_y, whose norm np.linalg.norm takes as sqrt(v_y v_y)."""
    if inst._entry_val is not None:
        return np.sqrt(inst._entry_val * inst._entry_val)
    return np.array([np.linalg.norm(inst.witness_for(y) - inst.W0)
                     for y in range(inst.num_labelings)])


def verify_shattering(inst, max_failures=32):
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
                for y, i in failing[:max_failures]]
    w0_norm = norm(inst.W0, "spectral")
    w0_ok = abs(w0_norm - inst.declared_w0_norm) <= NORM_TOL
    ball_ok = bool(np.all(_ball_distances(inst) <= inst.B + NORM_TOL))
    passed = bool(ok.all()) and w0_ok and ball_ok
    return VerifyReport(passed, float(slack.min()), failures, w0_ok, ball_ok,
                        inst.num_labelings, len(failing))
