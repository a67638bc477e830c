"""Projected stochastic gradient descent inside a Frobenius ball, its regret
certificate, and the two experiments built on it: excess population risk on
the convex construction, and the empirical-vs-population gap of the witness
that memorizes the drawn support."""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .constructions import witness_values
from .errors import InvalidInputError, NumericalFailureError

BALL_TOL = 1e-12
SAMPLE_BLOCK = 64    # steps drawn per sampler call


@dataclass
class SgdConfig:
    W0: np.ndarray
    B: float
    T: int
    L: float
    eta: float = None   # auto: sqrt(B^2 / (L^2 T))
    seeds: tuple = (0,)  # one run per seed, all advanced in lockstep

    def __post_init__(self):
        self.W0 = np.asarray(self.W0, dtype=np.float64)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise InvalidInputError("need at least one seed")
        if self.T < 1:
            raise InvalidInputError("T must be >= 1")
        if not self.B > 0:
            raise InvalidInputError("B must be positive")
        if self.eta is None:
            if not self.L > 0:
                raise InvalidInputError("auto step size needs L > 0")
            self.eta = math.sqrt(self.B * self.B / (self.L * self.L * self.T))
        if not self.eta > 0:
            raise InvalidInputError("eta must resolve to a positive value")


@dataclass
class SgdResult:
    """Per-run outcomes; the leading axis follows SgdConfig.seeds."""

    W_hat: np.ndarray           # (S, n, d) averaged iterates
    regret_lhs: np.ndarray      # (S,)
    regret_rhs: np.ndarray      # (S,)
    ball_ok: np.ndarray         # (S,) bool
    oracle_violations: np.ndarray  # (S,) int


def project_frobenius_ball(W, W0, B):
    if B < 0:
        raise InvalidInputError("B must be nonnegative")
    delta = W - W0
    nrm = np.linalg.norm(delta)
    if nrm <= B:
        return W
    return W0 + (B / nrm) * delta


def _norms(A):
    """np.linalg.norm of each A[s], bit for bit: the same dot product per
    run, batched through matmul."""
    F = A.reshape(A.shape[0], -1)
    return np.sqrt(np.matmul(F[:, None, :], F[:, :, None])[:, 0, 0])


class Sampler(NamedTuple):
    """A stochastic loss in the contract of `sgd_run`: each step draws one
    integer in [0, K) per run, and the oracle is a pure function of
    (W[s], draws[s]) for each run s."""

    K: int
    draw: Callable     # draw(rngs, k) -> (k, S) ints, run s from rngs[s]
    oracle: Callable   # oracle(W, draws) -> (loss (S,), rows (S, r), G (S, r, d))


def _add_repeatedly(W_sum, W, rows, times):
    """`times` in-order adds of W into W_sum on the rows (a mask) of each
    run: the sums of that many steps, bit for bit, on a gathered copy."""
    if times:
        acc, W_rows = W_sum[:, rows], W[:, rows]
        for _ in range(times):
            acc += W_rows
        W_sum[:, rows] = acc


def sgd_run(cfg, sampler, comparator=None):
    """T projected subgradient steps from W0, one run per seed in lockstep.

    sampler.draw(rngs, k) draws the next k steps for every run, run s from
    rngs[s], as a (k, S) array of integers in [0, sampler.K).
    sampler.oracle(W, draws), with W of shape (S, n, d), returns
    (loss (S,), rows (S, r), G (S, r, d)): run s's subgradient V_s is G[s]
    on the distinct rows rows[s] and zero elsewhere, and depends only on
    W[s] and draws[s].  Per run, the averaged iterate and the two sides of
    the regret inequality
    sum <W_t - W*, V_t>  <=  ||W* - W0||_F^2 / (2 eta) + (eta/2) sum ||V_t||_F^2
    are returned for the given comparator (default W0), each bit-equal to
    a run on its own.

    A (run, draw) whose G was zero stays marked quiet until that run's W
    is written.  A step on which every run's draw is quiet moves no
    iterate, so it only adds W into W_sum, on the rows that W0 or a move
    has made nonzero (every other row is +-0 in W and +0 in W_sum)."""
    rngs = [np.random.default_rng(s) for s in cfg.seeds]
    W0, B, S = cfg.W0, cfg.B, len(cfg.seeds)
    Wstar = W0 if comparator is None else np.asarray(comparator, dtype=np.float64)
    runs = np.arange(S)[:, None]
    W = np.repeat(W0[None], S, axis=0)
    D = W - W0                                   # W - W0, kept row by row
    E = D if comparator is None else W - Wstar   # W - W*, likewise
    V = np.zeros_like(W)
    W_sum = np.zeros_like(W)
    lhs = np.zeros(S)
    vsq = np.zeros(S)
    violations = np.zeros(S, dtype=np.int64)
    ball_ok = np.ones(S, dtype=bool)
    dist = _norms(D)
    rows = np.zeros((S, 0), dtype=np.intp)   # rows of V that may be nonzero
    quiet = np.zeros((S, sampler.K), dtype=bool)
    live = np.any(W0 != 0, axis=1)           # rows of W that may be nonzero
    stretch = 0                              # quiet steps not yet in W_sum
    for start in range(0, cfg.T, SAMPLE_BLOCK):
        for x in sampler.draw(rngs, min(SAMPLE_BLOCK, cfg.T - start)):
            # A run that moved or was projected has no quiet draw until a
            # full step marks one, so here V is zero and every dist <= B:
            # the oracle check, the ball check and the certificate change
            # nothing.
            if quiet[runs[:, 0], x].all():
                stretch += 1
                continue
            _add_repeatedly(W_sum, W, live, stretch)
            stretch = 0
            V[runs, rows] = 0.0
            _, rows, G = sampler.oracle(W, x)
            V[runs, rows] = G
            vnorm = _norms(V)
            violations += vnorm > cfg.L + 1e-9
            ball_ok &= ~(dist > B + BALL_TOL)
            W_sum += W
            lhs += np.einsum("sij,sij->s", E, V)
            vsq += vnorm * vnorm
            # V is zero off `rows`, where W - eta V leaves W as it is
            W[runs, rows] -= cfg.eta * G
            D[runs, rows] = W[runs, rows] - W0[rows]
            if E is not D:
                E[runs, rows] = W[runs, rows] - Wstar[rows]
            moved = G.reshape(S, -1).any(axis=1)
            quiet[moved] = False
            quiet[~moved, x[~moved]] = True
            live[rows[moved]] = True
            dist = _norms(D)   # the projection's norm, and the next dist
            # W0 + c (W - W0) keeps zero rows zero for a finite c; a
            # non-finite one leaves dist NaN, and the run is never quiet
            for s in np.flatnonzero(~(dist <= B)):
                W[s] = project_frobenius_ball(W[s], W0, B)
                D[s] = W[s] - W0
                if E is not D:
                    E[s] = W[s] - Wstar
                dist[s] = np.linalg.norm(D[s])
                quiet[s] = False
    _add_repeatedly(W_sum, W, live, stretch)
    del W, D, E, V   # free the stacked buffers before W_hat - W0 is formed
    W_hat = np.divide(W_sum, cfg.T, out=W_sum)
    ball_ok &= ~(_norms(W_hat - W0) > B + BALL_TOL)
    rhs = (np.linalg.norm(Wstar - W0) ** 2 / (2.0 * cfg.eta)
           + cfg.eta / 2.0 * vsq)
    return SgdResult(W_hat, lhs, rhs, ball_ok, violations)


# ---------------------------------------------------------------------------

def _loss_lipschitz(inst):
    """Exact Lipschitz bound of W -> f(Wx): max piece dual norm times the
    largest point norm."""
    fn = inst.witness_fn
    if not hasattr(fn, "loss_subgrad"):
        raise InvalidInputError("instance witness exposes no subgradient oracle")
    bx = float(np.linalg.norm(inst.points, axis=1).max())
    return fn.piece_dual_norm() * bx


def _point_sampler(inst, fn):
    """Uniform draws of the instance's point indices; the oracle feeds the
    drawn points to fn.loss_subgrad."""
    X = inst.points
    m = X.shape[0]

    def draw(rngs, k):
        return np.stack([rng.integers(0, m, size=k) for rng in rngs], axis=1)

    return Sampler(m, draw, lambda W, idx: fn.loss_subgrad(W, X[idx]))


def population_loss(inst, W):
    """Exact expectation of f(Wx) under the uniform distribution on the
    instance's points.  A loss that overflows is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.mean(inst.witness_fn.eval(inst.points @ W.T)))
    if not math.isfinite(loss):
        raise NumericalFailureError(
            "the population loss is not finite: the witness values overflow")
    return loss


def best_witness_loss(inst):
    """Smallest exact population loss over the enumerated witnesses: the
    all-negative labeling attains -eps, and labeling values average to
    eps (2 pop(y)/m - 1) >= -eps, so we return -eps without enumeration."""
    return -inst.margin


@dataclass
class ExperimentTable:
    rows: list = field(default_factory=list)

    def append(self, **kw):
        self.rows.append(kw)


def excess_risk_experiment(inst, T_grid, seeds, tolerance=0.05):
    """SGD excess population risk on the convex instance, per (T, seed).

    excess = exact population loss of the averaged iterate minus the best
    witness loss; each row checks excess <= B L / sqrt(T) + tolerance, and
    the per-T summary checks the seed-averaged excess."""
    if inst.kind != "convex":
        raise InvalidInputError("excess-risk experiment needs a convex instance")
    T_grid = [int(T) for T in T_grid]
    seeds = tuple(int(s) for s in seeds)
    if not T_grid:
        raise InvalidInputError("need at least one T")
    if not seeds:
        raise InvalidInputError("need at least one seed")
    if not tolerance >= 0:
        raise InvalidInputError(f"tolerance must be >= 0, got {tolerance!r}")
    L = _loss_lipschitz(inst)
    B = inst.B
    base = best_witness_loss(inst)
    sampler = _point_sampler(inst, inst.witness_fn)
    table = ExperimentTable()
    summary = []
    for T in T_grid:
        res = sgd_run(SgdConfig(W0=inst.W0, B=B, T=T, L=L, seeds=seeds), sampler)
        bound = B * L / math.sqrt(T)
        excesses = []
        for s, seed in enumerate(seeds):
            excess = population_loss(inst, res.W_hat[s]) - base
            table.append(T=T, seed=seed, excess=excess, bound=bound,
                         ball_ok=bool(res.ball_ok[s]),
                         passed=bool(excess <= bound + tolerance))
            excesses.append(excess)
        mean_excess = float(np.mean(excesses))
        summary.append({
            "T": T,
            "mean_excess": mean_excess,
            "bound": bound,
            "passed": bool(mean_excess <= bound + tolerance),
        })
    return table, summary


def uc_gap_experiment(inst, sample_size, seeds):
    """Gap between empirical and population averages for the witness labeled
    +eps exactly on the drawn support.

    Empirical average over the drawn points is +eps by construction; the
    population average over the full support is eps (2 |support|/m - 1),
    both exact, so gap = 2 eps (1 - |support|/m) >= eps whenever at most
    half the points were seen."""
    m = inst.m
    if not 1 <= sample_size <= m:
        raise InvalidInputError("need 1 <= sample_size <= m")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise InvalidInputError("need at least one seed")
    eps = inst.margin
    table = ExperimentTable()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, m, size=sample_size)
        support = np.unique(idx)
        y = int(np.sum(1 << support.astype(np.int64)))
        vals = witness_values(inst, [y])[0]
        empirical = float(vals[idx].mean())
        population = float(vals.mean())
        table.append(seed=seed, m=m, sample_size=int(sample_size),
                     support=int(support.size), empirical=empirical,
                     population=population, gap=empirical - population)
    return table
