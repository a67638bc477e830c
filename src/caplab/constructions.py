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
TABULATE_BLOCK = 128     # labelings per X @ W_y.T block in witness_table

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
# zero elsewhere.  On such a row each witness is evaluated in closed form,
# grouping the anchors/pieces by whether they share i and/or y; every other
# row, and any row with a non-finite entry, takes the dense path.


def _split_two_hot(Q, m):
    """Rows of Q with at most one nonzero among the first m coordinates and
    at most one among the rest, lying in the first 2^m of those.

    Returns (mask, i, y, q_a, q_b) with q_a = Q[r, i], q_b = Q[r, m+y] for
    the masked rows r; a row without a nonzero in a block reads index 0."""
    nz = Q != 0
    head, tail = nz[:, :m], nz[:, m:]
    i = head.argmax(axis=1)
    y = tail.argmax(axis=1)
    rows = np.arange(Q.shape[0])
    q_a = Q[rows, i]
    q_b = Q[rows, m + y]
    mask = ((np.count_nonzero(head, axis=1) <= 1)
            & (np.count_nonzero(tail, axis=1) <= 1) & (y < 1 << m)
            & np.isfinite(q_a) & np.isfinite(q_b))
    return mask, i[mask], y[mask], q_a[mask], q_b[mask]


def _eval_rows(fn, X, chunk):
    """fn on every row of X, chunk by chunk: two-hot rows through
    fn._eval_two_hot, the rest through fn._eval_dense."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != fn.n:
        raise InvalidInputError("dimension mismatch")
    out = np.empty(X.shape[0])
    for s in range(0, X.shape[0], chunk):
        Q = X[s : s + chunk]
        res = out[s : s + chunk]  # a view: writes land in out
        fast, i, y, q_a, q_b = _split_two_hot(Q, fn.m)
        res[fast] = fn._eval_two_hot(i, y, q_a, q_b)
        if not fast.all():
            res[~fast] = fn._eval_dense(Q[~fast])
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
        self.j_arr = np.tile(np.arange(m, dtype=np.int64), 1 << m)
        z = np.repeat(np.arange(1 << m, dtype=np.int64), m)
        self.zc_arr = m + z
        bits = (z >> self.j_arr) & 1
        self.vals = np.where(bits == 1, self.eps, -self.eps)

    @property
    def num_anchors(self):
        return self.j_arr.shape[0]

    def eval(self, X, chunk=512):
        return _eval_rows(self, X, chunk)

    def _eval_dense(self, Q):
        return _kernels.encoded_min_eval(Q, self.j_arr, self.zc_arr, self.vals,
                                         self.coord_a, self.coord_b)

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

    def anchors_dense(self):
        A = np.zeros((self.num_anchors, self.n))
        A[np.arange(self.num_anchors), self.j_arr] = self.coord_a
        A[np.arange(self.num_anchors), self.zc_arr] = self.coord_b
        return A

    def to_anchored(self):
        return AnchoredLipschitz(self.anchors_dense(), self.vals, self.L, self.metric)


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
        j = np.tile(np.arange(m, dtype=np.int64), 1 << m)
        z = np.repeat(np.arange(1 << m, dtype=np.int64), m)
        keep = ((z >> j) & 1) == 1
        self.j_arr = j[keep]
        self.zc_arr = m + z[keep]

    @property
    def num_pieces(self):
        return self.j_arr.shape[0]

    def eval(self, X, chunk=256):
        return _eval_rows(self, X, chunk) + self.shift

    def _eval_dense(self, Q):
        piece_vals = 0.5 * (Q[:, self.j_arr] + Q[:, self.zc_arr])
        return np.maximum(piece_vals.max(axis=1), self.kappa)

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
        gathering them: with a = (Wx)[:m] and t = (Wx)[m:m+2^m], piece
        (j, z) reads 0.5*(a_j + t_z), rounding is monotone, so the best
        piece of each z reads 0.5*(g_z + t_z) with g_z the max of a_j over
        the bits j of z.  Exact for W and X without infinities."""
        m = self.m
        runs = np.arange(W.shape[0])
        q = np.matmul(W, X[:, :, None])[:, :, 0]
        a, t = q[:, :m], q[:, m : m + (1 << m)]
        g = np.empty_like(t)
        g[:, 0] = -np.inf
        for b in range(m):  # bits(z + 2^b) = bits(z) + {b} for z < 2^b
            np.maximum(g[:, : 1 << b], a[:, b : b + 1], out=g[:, 1 << b : 2 << b])
        # z = 0 has no pieces; np.argmax takes the first max, or first NaN
        z = 1 + np.argmax(0.5 * (t[:, 1:] + g[:, 1:]), axis=1)
        t_z = t[runs, z][:, None]
        top = 0.5 * (g[runs, z][:, None] + t_z)
        pieces = 0.5 * (a + t_z)                   # (j, z) for every j
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
    _witness_supplier: object = None

    @property
    def num_labelings(self):
        return 1 << self.m

    def witness_for(self, y):
        """Dense parameter matrix for labeling index y."""
        if not 0 <= y < self.num_labelings:
            raise InvalidInputError(f"labeling index {y} out of range")
        return self._witness_supplier(y)

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
    if m_cap > ENUMERATION_M_CAP:
        raise CapacityExceededError(f"m_cap={m_cap} > {ENUMERATION_M_CAP}")
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

    def witness(y):
        W = W0.copy()
        W[m + y, m] = b_x
        return W

    if kind == "convex":
        fn, params = EncodedMaxAffine(m, n, eps, kappa), {"kappa": kappa}
    else:
        # coordinates read off an actual product, so that witness evaluation
        # at the encoded points is bit-exact
        z = witness(0) @ points[0]
        fn, params = EncodedMinForm(m, n, eps, float(z[0]), float(z[m])), {}
    return ShatterInstance(
        kind=kind,
        m=m,
        margin=eps,
        d=d,
        n=n,
        points=points,
        W0=W0,
        B=b_x,
        witness_fn=fn,
        metric="infinity",
        declared_w0_norm=(w0_coeff * eps) * b_x,
        params=params,
        _witness_supplier=witness,
    )


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
    failures: list
    w0_norm_ok: bool
    ball_ok: bool
    checked_labelings: int


def witness_table(inst):
    """Value table f(W_y x_i), shape (2^m, m), over every labeling y.

    Refuses m > ENUMERATION_M_CAP before any witness is built."""
    m, n = inst.m, inst.n
    if m > ENUMERATION_M_CAP:
        raise CapacityExceededError(
            f"m={m} > {ENUMERATION_M_CAP}: full enumeration infeasible"
        )
    table = np.empty((inst.num_labelings, m))
    X = inst.points
    for start in range(0, inst.num_labelings, TABULATE_BLOCK):
        ys = range(start, min(start + TABULATE_BLOCK, inst.num_labelings))
        Q = np.empty((len(ys) * m, n))
        for k, y in enumerate(ys):
            Q[k * m : (k + 1) * m] = X @ inst.witness_for(y).T
        table[start : start + len(ys)] = np.asarray(
            inst.witness_fn.eval(Q)
        ).reshape(len(ys), m)
    return table


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
    failures = [(int(y), int(i), float(table[y, i]))
                for y, i in np.argwhere(~ok)[:max_failures]]
    w0_norm = norm(inst.W0, "spectral")
    w0_ok = abs(w0_norm - inst.declared_w0_norm) <= NORM_TOL
    ball_ok = all(np.linalg.norm(inst.witness_for(y) - inst.W0)
                  <= inst.B + NORM_TOL for y in range(inst.num_labelings))
    passed = bool(ok.all()) and w0_ok and ball_ok
    return VerifyReport(passed, float(slack.min()), failures, w0_ok, ball_ok,
                        inst.num_labelings)
