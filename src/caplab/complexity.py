"""Rademacher complexity estimation, covering-number bound formulas, and
the entropy-integral bound."""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import cuts
from .constructions import witness_table
from .errors import CapacityExceededError, InvalidInputError, NumericalFailureError

ENUMERATE_CAP = 1 << 20
DRAW_CHUNK = 4096
SUP_BLOCK = 1 << 20     # entries of one sign-vector-by-table-row product
# bytes a draw holds until the estimate is taken: about 16 on the lookup
# path (its key, then its sup and the std's temporary; peak RSS 494 MB at
# 3e7 draws, m = 4)
BYTES_PER_DRAW = 64
# draw counts whose estimate (draws * BYTES_PER_DRAW) exceeds this are refused
RADEMACHER_MAX_BYTES = 3 << 30

DUDLEY_PANELS = 1024
SCALE_GRID_SIZE = 64
SCALE_GRID_LO = 1e-4    # smallest default scale, as a fraction of the range

# cover formula -> the parameters it reads besides eps
COVER_PARAMS = {
    "scalar-linear": ("B", "b_x", "c"),
    "matrix-linear": ("B", "r", "c"),
    "constants": ("B",),
    "lipschitz-composition": ("B", "L", "r", "c"),
    "contraction": ("B", "b_x", "L", "r", "k", "c"),
}


@dataclass
class RademacherEstimate:
    mean: float
    stderr: float
    draws: int
    m: int


# ---------------------------------------------------------------------------

def _chunk_rng(seed, chunk_index):
    # fixed chunk boundaries + derived seeds: reproducible under any schedule
    return np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))


def _check_draws(draws):
    """Refuse a draw count below 1, or one whose draws would not fit in
    RADEMACHER_MAX_BYTES, before any is drawn."""
    if draws < 1:
        raise InvalidInputError("draws must be >= 1")
    if draws * BYTES_PER_DRAW > RADEMACHER_MAX_BYTES:
        raise CapacityExceededError(
            f"{draws} draws at about {BYTES_PER_DRAW} bytes each exceed "
            f"RADEMACHER_MAX_BYTES = {RADEMACHER_MAX_BYTES / 2**30:.1f} GiB: "
            f"at most {RADEMACHER_MAX_BYTES // BYTES_PER_DRAW} draws")


def _finalize(values, m):
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise NumericalFailureError(
            "a sign draw's sup is not finite: the witness values overflow")
    mean = float(values.mean())
    if values.size > 1:
        stderr = float(values.std(ddof=1) / math.sqrt(values.size))
    else:
        stderr = 0.0
    return RademacherEstimate(mean, stderr, values.size, m)


def _signs(bits):
    return bits.astype(np.float64) * 2.0 - 1.0


def _sign_bits(seed, draws, m):
    """The draws' sign bits, chunk by chunk, each from its chunk's generator.

    integers(0, 2) draws each bit as the top bit of one 32-bit half of a raw
    64-bit word, low half first (Lemire's method never rejects a range of
    2).  The bits are read off the raw words directly, bit-equal to it on a
    little-endian machine, where the uint32 view puts the low half first."""
    for ci, start in enumerate(range(0, draws, DRAW_CHUNK)):
        count = min(DRAW_CHUNK, draws - start)
        k = count * m
        raw = _chunk_rng(seed, ci).bit_generator.random_raw(-(-k // 2))
        yield (raw.view(np.uint32)[:k] >> 31).reshape(count, m)


def _witness_sups(table, draws, seed):
    """Per-draw sup over the table rows of (1/m) sigma . f.

    While there are at least as many draws as sign vectors (2^m <= draws),
    each distinct sign vector's sup is computed once: a draw is keyed by its
    bits read as an integer, the keys that occur are marked in a 2^m table,
    their sups written into another, and each draw reads its own.  With
    fewer draws most of them are distinct, and each takes its own product.
    A product takes about DRAW_CHUNK sign vectors, fewer when that many
    would hold over SUP_BLOCK entries, and one alone only when a chunk
    holds one draw (cuts).

    On the lookup path a sign vector sigma takes no product when it has an
    extreme row: one at its column's max wherever sigma = +1 and at its
    column's min wherever sigma = -1 (a constant column fits either sign).
    Its sup is that row's sum of sigma_j f_j, added in column order from
    +0.0.  Each term sigma_j f_j is exact and at least every other row's,
    and a sum rounded in a fixed order is monotone in each term, so that
    sum is the max over the rows of their column-order sums, bit for bit.
    The extreme row's entries are the column maxima and minima themselves,
    so the sum is read off those.  numpy's gemm (OpenBLAS) adds each row
    of the product in column order from +0.0 as well, except the table's
    last rows past a multiple of 8, which its edge kernel adds in another
    order; every table `rademacher` reads has 2^m rows.  The sign vectors
    without an extreme row take the products."""
    m = table.shape[1]
    step = max(2, min(DRAW_CHUNK, SUP_BLOCK // table.shape[0]))

    def sups(bits):
        # an overflow leaves a non-finite sup, which _finalize refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return (_signs(bits) @ table.T).max(axis=1) / m

    if (1 << m) > draws:
        return np.concatenate([sups(bits[s:e])
                               for bits in _sign_bits(seed, draws, m)
                               for s, e in cuts(bits.shape[0], step)])
    weights = np.left_shift(1, np.arange(m, dtype=np.int64))
    keys = np.empty(draws, dtype=np.int64)
    for ci, bits in enumerate(_sign_bits(seed, draws, m)):
        start = ci * DRAW_CHUNK
        np.matmul(bits, weights, out=keys[start : start + len(bits)])
    seen = np.zeros(1 << m, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    lut = np.empty(1 << m)
    # a NaN column has no max row, so every key falls back to the products
    hi, lo = table.max(axis=0), table.min(axis=0)
    free = hi == lo
    up = table == hi
    extreme = (up | (table == lo)).all(axis=1)
    covered = np.zeros(1 << m, dtype=bool)
    covered[(up[extreme] & ~free) @ weights] = True
    hit = covered[distinct & ~(free @ weights)]
    done = distinct[hit]
    acc = np.zeros(done.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            acc += np.where((done >> j) & 1, hi[j], -lo[j])
        lut[done] = acc / m
    rest = distinct[~hit]
    if rest.size == 1:      # a lone sign vector goes in twice
        rest = np.repeat(rest, 2)
    for s, e in cuts(rest.size, step):
        block = rest[s:e]
        lut[block] = sups((block[:, None] >> np.arange(m)) & 1)
    return lut[keys]


def rademacher_mc(table, draws, seed):
    """Monte Carlo estimate of the empirical Rademacher complexity of the
    finite class given by its value table, shape (K, m): row k holds
    function k's values on the m sample points.  Per sign draw the inner
    sup is exact."""
    table = np.atleast_2d(np.asarray(table, dtype=np.float64))
    if table.size == 0:
        raise InvalidInputError("empty function table")
    if table.shape[0] > ENUMERATE_CAP:
        raise CapacityExceededError(
            f"{table.shape[0]} functions exceed the enumeration cap {ENUMERATE_CAP}")
    _check_draws(draws)
    return _finalize(_witness_sups(table, draws, seed), table.shape[1])


def linear_rademacher_mc(points, B, draws, seed):
    """rademacher_mc for {x -> <w, x> : ||w|| <= B} on the rows of points:
    the sup of a sign draw has the closed form (B/m) ||sum_i sigma_i x_i||."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not B >= 0:
        raise InvalidInputError("B must be nonnegative")
    _check_draws(draws)
    m = points.shape[0]
    per_draw = np.concatenate([
        (float(B) / m) * np.linalg.norm(_signs(bits) @ points, axis=1)
        for bits in _sign_bits(seed, draws, m)
    ])
    return _finalize(per_draw, m)


# ---------------------------------------------------------------------------

def _need(params, *names):
    vals = []
    for name in names:
        if name not in params:
            raise InvalidInputError(f"missing parameter {name!r}")
        v = float(params[name])
        if not v > 0:
            raise InvalidInputError(f"parameter {name!r} must be positive")
        vals.append(v)
    return vals


def cover_bound(kind, params):
    """Log covering number at params["eps"] under the named formula; the
    other parameters are those COVER_PARAMS lists for the kind, and c
    defaults to 1.

    scalar-linear        (c B b_x / eps)^2
    matrix-linear        c r^2 B^2 / eps^2
    constants            log ceil(B / eps)           (B >= 2)
    lipschitz-composition  c (1 + 8BL/eps)^r log(8B/eps)
    contraction          k scalar-linear factors evaluated at the
                         sqrt(k) L r - rescaled radius
    """
    if kind not in COVER_PARAMS:
        raise InvalidInputError(f"unknown cover formula kind {kind!r}")
    c = float(params.get("c", 1.0))
    if not c > 0:
        raise InvalidInputError("parameter 'c' must be positive")
    if kind == "scalar-linear":
        B, b_x, eps = _need(params, "B", "b_x", "eps")
        return (c * B * b_x / eps) ** 2
    if kind == "matrix-linear":
        B, r, eps = _need(params, "B", "r", "eps")
        return c * r * r * B * B / (eps * eps)
    if kind == "constants":
        B, eps = _need(params, "B", "eps")
        if B < 2:
            raise InvalidInputError("constants formula requires B >= 2")
        return math.log(math.ceil(B / eps))
    if kind == "lipschitz-composition":
        B, L, r, eps = _need(params, "B", "L", "r", "eps")
        if 8.0 * B / eps <= 1.0:
            raise InvalidInputError("need 8B/eps > 1")
        return c * (1.0 + 8.0 * B * L / eps) ** r * math.log(8.0 * B / eps)
    B, b_x, L, r, k, eps = _need(params, "B", "b_x", "L", "r", "k", "eps")
    scaled = eps / (math.sqrt(k) * L * r)
    return k * (c * B * b_x / scaled) ** 2


# ---------------------------------------------------------------------------

def dudley_bound(log_cover, range_bound, m, grid=None):
    """min over the grid of 4 eps + (12/sqrt(m)) Integral_eps^{LB} sqrt(log N(tau)) dtau,
    with a 1024-panel composite trapezoid for the integral."""
    if not range_bound > 0:
        raise InvalidInputError("range bound must be positive")
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if grid is None:
        grid = np.geomspace(SCALE_GRID_LO * range_bound, range_bound,
                            SCALE_GRID_SIZE)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise InvalidInputError("grid must be nonempty")
    best = np.inf
    # a candidate that overflows to +inf just loses the min
    with np.errstate(over="ignore"):
        for eps in grid:
            if eps < 0:
                raise InvalidInputError("grid scales must be nonnegative")
            if eps >= range_bound:
                integral = 0.0
            else:
                taus = np.linspace(eps, range_bound, DUDLEY_PANELS + 1)
                vals = np.sqrt(np.maximum([log_cover(t) for t in taus], 0.0))
                integral = float(np.trapezoid(vals, taus))
            best = min(best, 4.0 * eps + 12.0 / math.sqrt(m) * integral)
    return best
