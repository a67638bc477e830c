"""Projected stochastic gradient descent inside a Frobenius ball, its regret
certificate, and the two experiments built on it: excess population risk on
the convex construction, and the empirical-vs-population gap of the witness
that memorizes the drawn support."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

BALL_TOL = 1e-12
REGRET_TOL = 1e-9


@dataclass
class SgdConfig:
    W0: np.ndarray
    B: float
    T: int
    L: float
    eta: float = None   # auto: sqrt(B^2 / (L^2 T))
    seed: int = 0

    def __post_init__(self):
        self.W0 = np.asarray(self.W0, dtype=np.float64)
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
    W_hat: np.ndarray
    trace: list
    regret_lhs: float
    regret_rhs: float
    ball_ok: bool
    oracle_violations: int


def project_frobenius_ball(W, W0, B):
    if B < 0:
        raise InvalidInputError("B must be nonnegative")
    delta = W - W0
    nrm = np.linalg.norm(delta)
    if nrm <= B:
        return W
    return W0 + (B / nrm) * delta


def sgd_run(cfg, sampler, comparator=None, keep_trace=True):
    """T projected subgradient steps from W0.

    sampler(rng) -> (x, oracle) with oracle(W, x) -> (loss, V); the averaged
    iterate and the two sides of the regret inequality
    sum <W_t - W*, V_t>  <=  ||W* - W0||_F^2 / (2 eta) + (eta/2) sum ||V_t||_F^2
    are returned for the given comparator (default W0)."""
    rng = np.random.default_rng(cfg.seed)
    W0 = cfg.W0
    Wstar = W0 if comparator is None else np.asarray(comparator, dtype=np.float64)
    W = W0.copy()
    W_sum = np.zeros_like(W0)
    lhs = 0.0
    vsq = 0.0
    violations = 0
    ball_ok = True
    trace = []
    for t in range(cfg.T):
        x, oracle = sampler(rng)
        loss, V = oracle(W, x)
        vnorm = float(np.linalg.norm(V))
        flagged = vnorm > cfg.L + 1e-9
        if flagged:
            violations += 1
        dist = float(np.linalg.norm(W - W0))
        if dist > cfg.B + BALL_TOL:
            ball_ok = False
        W_sum += W
        lhs += float(np.einsum("ij,ij->", W - Wstar, V))
        vsq += vnorm * vnorm
        if keep_trace:
            trace.append({"t": t, "loss": float(loss), "vnorm": vnorm,
                          "dist": dist, "oracle_flag": flagged})
        W = project_frobenius_ball(W - cfg.eta * V, W0, cfg.B)
    W_hat = W_sum / cfg.T
    if np.linalg.norm(W_hat - W0) > cfg.B + BALL_TOL:
        ball_ok = False
    rhs = float(np.linalg.norm(Wstar - W0) ** 2 / (2.0 * cfg.eta)
                + cfg.eta / 2.0 * vsq)
    return SgdResult(W_hat, trace, lhs, rhs, ball_ok, violations)


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
    X = inst.points
    m = X.shape[0]

    def oracle(W, x):
        return fn.loss_subgrad(W, x)

    def sampler(rng):
        return X[rng.integers(0, m)], oracle

    return sampler


def population_loss(inst, W):
    """Exact expectation of f(Wx) under the uniform distribution on the
    instance's points."""
    return float(np.mean(inst.witness_fn.eval(inst.points @ W.T)))


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
    L = _loss_lipschitz(inst)
    B = inst.B
    base = best_witness_loss(inst)
    fn = inst.witness_fn
    sampler = _point_sampler(inst, fn)
    table = ExperimentTable()
    summary = []
    for T in T_grid:
        excesses = []
        for seed in seeds:
            cfg = SgdConfig(W0=inst.W0, B=B, T=int(T), L=L, seed=int(seed))
            res = sgd_run(cfg, sampler, keep_trace=False)
            excess = population_loss(inst, res.W_hat) - base
            bound = B * L / math.sqrt(T)
            table.append(T=int(T), seed=int(seed), excess=excess, bound=bound,
                         ball_ok=res.ball_ok,
                         passed=bool(excess <= bound + tolerance))
            excesses.append(excess)
        mean_excess = float(np.mean(excesses))
        summary.append({
            "T": int(T),
            "mean_excess": mean_excess,
            "bound": B * L / math.sqrt(T),
            "passed": bool(mean_excess <= B * L / math.sqrt(T) + tolerance),
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
    eps = inst.margin
    table = ExperimentTable()
    for seed in seeds:
        rng = np.random.default_rng(int(seed))
        idx = rng.integers(0, m, size=sample_size)
        support = np.unique(idx)
        y = int(np.sum(1 << support.astype(np.int64)))
        W = inst.witness_for(y)
        vals = np.asarray(inst.witness_fn.eval(inst.points @ W.T))
        empirical = float(vals[idx].mean())
        population = float(vals.mean())
        table.append(seed=int(seed), m=m, sample_size=int(sample_size),
                     support=int(support.size), empirical=empirical,
                     population=population, gap=empirical - population)
    return table
