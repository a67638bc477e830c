"""Rademacher complexity estimation, empirical covers, covering-number
bound formulas, and the entropy-integral bound."""

import math
from dataclasses import dataclass

import numpy as np

from .constructions import witness_table
from .errors import CapacityExceededError, InvalidInputError, NumericalFailureError

ENUMERATE_CAP = 1 << 20
DRAW_CHUNK = 4096
KEY_BITS = 62           # sign vectors up to this length are keyed in an int64

ASCENT_RESTARTS = 10
ASCENT_STEPS = 200

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
COVER_KINDS = tuple(COVER_PARAMS)


@dataclass
class RademacherEstimate:
    mean: float
    stderr: float
    draws: int
    m: int
    sup_strategy: str
    is_lower_estimate: bool

    def csv_row(self, row_id):
        return [row_id, self.m, self.draws, repr(self.mean), repr(self.stderr),
                self.sup_strategy]


# ---------------------------------------------------------------------------
# class handles

class FiniteWitnessClass:
    """Finite function class given by its value table on the sample points."""

    strategy = "enumerate-witnesses"

    def __init__(self, table):
        table = np.atleast_2d(np.asarray(table, dtype=np.float64))
        if table.size == 0:
            raise InvalidInputError("empty function table")
        if table.shape[0] > ENUMERATE_CAP:
            raise CapacityExceededError(
                f"{table.shape[0]} witnesses exceed the enumeration cap {ENUMERATE_CAP}"
            )
        self.table = table


class LinearBallClass:
    """{x -> <w, x> : ||w|| <= B}; the sign-draw sup has a closed form."""

    strategy = "linear-closed-form"

    def __init__(self, B):
        if not B >= 0:
            raise InvalidInputError("B must be nonnegative")
        self.B = float(B)


class MatrixBallClass:
    """{x -> f(Wx) : ||W - W0||_F <= B} for a witness f exposing loss_subgrad.
    The inner sup is non-concave; only the projected-ascent lower estimate
    applies."""

    strategy = "projected-ascent"

    def __init__(self, fn, W0, B):
        self.fn = fn
        self.W0 = np.asarray(W0, dtype=np.float64)
        self.B = float(B)


def instance_class(inst):
    return FiniteWitnessClass(witness_table(inst))


# ---------------------------------------------------------------------------

def _chunk_rng(seed, chunk_index):
    # fixed chunk boundaries + derived seeds: reproducible under any schedule
    return np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))


def _finalize(values, m, strategy, lower):
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise NumericalFailureError(
            "a sign draw's sup is not finite: the witness values overflow")
    mean = float(values.mean())
    if values.size > 1:
        stderr = float(values.std(ddof=1) / math.sqrt(values.size))
    else:
        stderr = 0.0
    return RademacherEstimate(mean, stderr, values.size, m, strategy, lower)


def _signs(bits):
    return bits.astype(np.float64) * 2.0 - 1.0


def _sign_bits(seed, draws, m):
    """The draws' sign bits, chunk by chunk, each from its chunk's generator."""
    for ci, start in enumerate(range(0, draws, DRAW_CHUNK)):
        count = min(DRAW_CHUNK, draws - start)
        yield _chunk_rng(seed, ci).integers(0, 2, size=(count, m))


def _witness_sups(table, draws, seed):
    """Per-draw sup over the table rows of (1/m) sigma . f.

    Each distinct sign vector's sup is computed once: a draw is keyed by its
    bits read as an integer.  Wider tables cannot be keyed in an int64 and
    take one product per draw."""
    m = table.shape[1]

    def sups(bits):
        # an overflow leaves a non-finite sup, which _finalize refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return (_signs(bits) @ table.T).max(axis=1) / m

    if m > KEY_BITS:
        return np.concatenate([sups(bits) for bits in _sign_bits(seed, draws, m)])
    weights = np.left_shift(1, np.arange(m, dtype=np.int64))
    keys = np.concatenate([bits @ weights for bits in _sign_bits(seed, draws, m)])
    distinct, inv = np.unique(keys, return_inverse=True)
    sup = np.concatenate([
        sups((distinct[start : start + DRAW_CHUNK, None] >> np.arange(m)) & 1)
        for start in range(0, distinct.size, DRAW_CHUNK)
    ])
    return sup[inv]


def rademacher_mc(points, class_handle, draws, seed):
    """Monte Carlo estimate of the empirical Rademacher complexity.

    The handle's class sets the sup strategy.  Per sign draw the inner sup
    is exact for the enumerate and closed-form strategies; the
    projected-ascent strategy is a lower estimate."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m = points.shape[0]
    if draws < 1:
        raise InvalidInputError("draws must be >= 1")
    strategy = class_handle.strategy
    if strategy == "enumerate-witnesses":
        table = class_handle.table
        if table.shape[1] != m:
            raise InvalidInputError("table width != number of points")
        return _finalize(_witness_sups(table, draws, seed), m, strategy, False)
    per_draw = np.empty(draws)
    for ci, start in enumerate(range(0, draws, DRAW_CHUNK)):
        count = min(DRAW_CHUNK, draws - start)
        rng = _chunk_rng(seed, ci)
        signs = _signs(rng.integers(0, 2, size=(count, m)))
        if strategy == "linear-closed-form":
            sums = signs @ points
            per_draw[start : start + count] = (
                class_handle.B / m
            ) * np.linalg.norm(sums, axis=1)
        elif strategy == "projected-ascent":
            for k in range(count):
                per_draw[start + k] = _ascend(
                    points, class_handle, signs[k], rng
                )
        else:
            raise InvalidInputError(f"unknown strategy {strategy!r}")
    return _finalize(per_draw, m, strategy, strategy == "projected-ascent")


def _ascend(points, handle, signs, rng):
    """Projected gradient ascent on W -> (1/m) sum_i eps_i f(W x_i)."""
    m = points.shape[0]
    W0, B = handle.W0, handle.B
    best = -np.inf
    for _ in range(ASCENT_RESTARTS):
        D = rng.standard_normal(W0.shape)
        W = W0 + (B * rng.random() / np.linalg.norm(D)) * D
        for t in range(1, ASCENT_STEPS + 1):
            G = np.zeros_like(W)
            val = 0.0
            for i in range(m):
                fi, rows, Gi = handle.fn.loss_subgrad(W[None], points[i][None])
                val += signs[i] * fi[0]
                G[rows[0]] += signs[i] * Gi[0]
            best = max(best, val / m)
            W = W + (0.1 * B / math.sqrt(t)) * (G / m)
            delta = W - W0
            nrm = np.linalg.norm(delta)
            if nrm > B:
                W = W0 + (B / nrm) * delta
        val = 0.0
        for i in range(m):
            fi, _, _ = handle.fn.loss_subgrad(W[None], points[i][None])
            val += signs[i] * fi[0]
        best = max(best, val / m)
    return best


# ---------------------------------------------------------------------------

def empirical_metric(table):
    """Pairwise empirical L2 distances d_m between the table rows."""
    table = np.atleast_2d(np.asarray(table, dtype=np.float64))
    sq = np.einsum("ij,ij->i", table, table)
    g = sq[:, None] + sq[None, :] - 2.0 * (table @ table.T)
    np.maximum(g, 0.0, out=g)
    return np.sqrt(g / table.shape[1])


def empirical_cover(function_table, eps):
    """Greedy farthest-point proper cover under d_m; returns center indices."""
    table = np.atleast_2d(np.asarray(function_table, dtype=np.float64))
    if table.size == 0 or not np.isfinite(table).all():
        raise InvalidInputError("function table must be nonempty and finite")
    if eps < 0:
        raise InvalidInputError("eps must be nonnegative")
    K, m = table.shape
    centers = [0]
    d_min = np.linalg.norm(table - table[0], axis=1) / math.sqrt(m)
    while True:
        far = int(np.argmax(d_min))
        if d_min[far] <= eps:
            break
        centers.append(far)
        d_new = np.linalg.norm(table - table[far], axis=1) / math.sqrt(m)
        np.minimum(d_min, d_new, out=d_min)
    return centers


def cover_coverage(function_table, centers):
    """Max over rows of the distance to the nearest chosen center."""
    table = np.atleast_2d(np.asarray(function_table, dtype=np.float64))
    m = table.shape[1]
    d = np.full(table.shape[0], np.inf)
    for c in centers:
        np.minimum(d, np.linalg.norm(table - table[c], axis=1) / math.sqrt(m), out=d)
    return float(d.max())


# ---------------------------------------------------------------------------

@dataclass
class CoverFormula:
    kind: str
    parameters: dict

    def __post_init__(self):
        if self.kind not in COVER_KINDS:
            raise InvalidInputError(f"unknown cover formula kind {self.kind!r}")


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


def cover_bound(f):
    """Log covering number under the named formula; c defaults to 1.

    scalar-linear        (c B b_x / eps)^2
    matrix-linear        c r^2 B^2 / eps^2
    constants            log ceil(B / eps)           (B >= 2)
    lipschitz-composition  c (1 + 8BL/eps)^r log(8B/eps)
    contraction          k scalar-linear factors evaluated at the
                         sqrt(k) L r - rescaled radius
    """
    p = dict(f.parameters)
    c = float(p.get("c", 1.0))
    if not c > 0:
        raise InvalidInputError("parameter 'c' must be positive")
    if f.kind == "scalar-linear":
        B, b_x, eps = _need(p, "B", "b_x", "eps")
        return (c * B * b_x / eps) ** 2
    if f.kind == "matrix-linear":
        B, r, eps = _need(p, "B", "r", "eps")
        return c * r * r * B * B / (eps * eps)
    if f.kind == "constants":
        B, eps = _need(p, "B", "eps")
        if B < 2:
            raise InvalidInputError("constants formula requires B >= 2")
        return math.log(math.ceil(B / eps))
    if f.kind == "lipschitz-composition":
        B, L, r, eps = _need(p, "B", "L", "r", "eps")
        if 8.0 * B / eps <= 1.0:
            raise InvalidInputError("need 8B/eps > 1")
        return c * (1.0 + 8.0 * B * L / eps) ** r * math.log(8.0 * B / eps)
    if f.kind == "contraction":
        B, b_x, L, r, k, eps = _need(p, "B", "b_x", "L", "r", "k", "eps")
        scaled = eps / (math.sqrt(k) * L * r)
        return k * (c * B * b_x / scaled) ** 2
    raise InvalidInputError(f"unknown cover formula kind {f.kind!r}")


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
    for eps in grid:
        if eps < 0:
            raise InvalidInputError("grid scales must be nonnegative")
        if eps >= range_bound:
            integral = 0.0
        else:
            taus = np.linspace(eps, range_bound, DUDLEY_PANELS + 1)
            vals = np.sqrt(np.maximum([log_cover(t) for t in taus], 0.0))
            # np.trapezoid is numpy >= 2.0; np.trapz is gone from numpy 2.4
            trap = getattr(np, "trapezoid", None) or np.trapz
            integral = float(trap(vals, taus))
        best = min(best, 4.0 * eps + 12.0 / math.sqrt(m) * integral)
    return best
