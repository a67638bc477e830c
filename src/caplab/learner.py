"""Projected stochastic gradient descent inside a Frobenius ball, its regret
certificate, and the two experiments built on it: excess population risk on
the convex construction, and the empirical-vs-population gap of the witness
that memorizes the drawn support."""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .constructions import witness_values
from .errors import CapacityExceededError, InvalidInputError, NumericalFailureError

BALL_TOL = 1e-12
DRAW_BYTES = 1 << 17  # bytes of int64 draws per sampler call, all runs together
# run counts whose stacked iterates would exceed this are refused; the
# estimate is two (S, n, d) stacks: W and W_sum once an oracle has listed
# every row, as a dense subgradient does
SGD_MAX_BYTES = 3 << 30


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
        per_run = 2 * 8 * self.W0.size
        if len(self.seeds) * per_run > SGD_MAX_BYTES:
            raise CapacityExceededError(
                f"{len(self.seeds)} runs at two {self.W0.shape} stacks each "
                f"exceed SGD_MAX_BYTES = {SGD_MAX_BYTES / 2**30:.1f} GiB: at "
                f"most {SGD_MAX_BYTES // per_run} runs")
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
    """Per-run outcomes; the leading axis follows SgdConfig.seeds.  Each
    averaged iterate is W_hat[s] on the rows `rows` and zero elsewhere."""

    W_hat: np.ndarray           # (S, r, d) averaged iterates on `rows`
    rows: np.ndarray            # (r,) ascending row indices
    regret_lhs: np.ndarray      # (S,)
    regret_rhs: np.ndarray      # (S,)
    ball_ok: np.ndarray         # (S,) bool
    oracle_violations: np.ndarray  # (S,) int


def _dots(A, C):
    """The Frobenius inner product of A[s] and C[s], both (S, r, d), in the
    canonical order: each row's products summed by einsum, then the row
    sums added in sequence.  A row of zeros adds +-0 to the running sum,
    so rows of zeros, anywhere, leave every nonzero sum as it is."""
    if A.shape[1] == 0:
        return np.zeros(len(A))
    return np.cumsum(np.einsum("srd,srd->sr", A, C), axis=1)[:, -1]


def _norms(A):
    """The Frobenius norm of each A[s] in the canonical order of `_dots`:
    the same on the rows that may be nonzero as on all of them."""
    return np.sqrt(_dots(A, A))


def _in_ball(dist, B):
    """dist <= B up to BALL_TOL relative to B (absolute for B <= 1): a
    projection to B = 1e5 can land a few ulps past it."""
    return ~(dist > B + BALL_TOL * max(1.0, B))


def project_frobenius_ball(W, W0, B):
    """Each W[s] of a stack (k, r, d) outside the Frobenius ball of radius B
    about W0 scaled onto it, its norm in the canonical order of `_dots`.  A
    distance that is not finite has no point to scale to, and is refused."""
    if B < 0:
        raise InvalidInputError("B must be nonnegative")
    delta = W - W0
    nrm = _norms(delta)
    if not np.isfinite(nrm).all():
        raise NumericalFailureError(
            "an iterate's distance from W0 is not finite: the steps overflow")
    far = nrm > B
    if not far.any():
        return W
    W = W.copy()
    W[far] = W0 + (B / nrm[far])[:, None, None] * delta[far]
    return W


class Sampler(NamedTuple):
    """A stochastic loss in the contract of `sgd_run`: each step draws one
    integer in [0, K) per run, and the oracle is a pure function of
    (W[s], draws[s]) for each run s."""

    K: int
    draw: Callable     # draw(rngs, k) -> (k, S) ints, run s from rngs[s]
    oracle: Callable   # oracle(live, W, draws) -> (loss (S,), rows (S, r), G (S, r, d))


def _add_repeatedly(W_sum, W, times):
    """`times` in-order adds of W into W_sum, bit for bit, made on the
    nonzero entries only: W_sum starts at +0 and so never holds -0, and
    adding +-0 leaves every other value as it is.  W_sum must be
    C-contiguous, so that its flat view writes through."""
    if times:
        nz = np.flatnonzero(W)
        flat = W_sum.reshape(-1)
        acc, w = flat[nz], W.reshape(-1)[nz]
        for _ in range(times):
            acc += w
        flat[nz] = acc


def _grow(live, grown, W, W_sum, W0):
    """W and W_sum laid out on the live rows `grown`, a superset of `live`:
    on the rows that just turned live, W reads W0's (+-0) and W_sum +0."""
    at = np.searchsorted(grown, live)
    W_out = np.repeat(W0[None, grown], len(W), axis=0)
    W_out[:, at] = W
    W_sum_out = np.zeros_like(W_out)
    W_sum_out[:, at] = W_sum
    return W_out, W_sum_out


def _next_full_step(quiet, draws, i):
    """The first step at or after i whose draw is not quiet for some run,
    or len(draws): one gather of `quiet` per window, the window doubling."""
    runs, w = np.arange(len(quiet)), 8
    while i < len(draws):
        still = quiet[runs, draws[i : i + w]].all(axis=1)
        k = int(np.argmin(still))
        if not still[k]:
            return i + k
        i, w = i + len(still), 2 * w
    return len(draws)


def sgd_run(cfg, sampler, comparator=None):
    """T projected subgradient steps from W0, one run per seed in lockstep.

    sampler.draw(rngs, k) draws the next k steps for every run, run s from
    rngs[s], as a (k, S) array of integers in [0, sampler.K).
    sampler.oracle(live, W, draws) takes the iterates on the live rows, W of
    shape (S, len(live), d), zero on every other row, and returns
    (loss (S,), rows (S, r), G (S, r, d)): run s's subgradient V_s is G[s]
    on the distinct rows rows[s], listed in ascending order, and zero
    elsewhere, and depends only on W[s] and draws[s].  Per run, the
    averaged iterate and the two sides of the regret inequality
    sum <W_t - W*, V_t>  <=  ||W* - W0||_F^2 / (2 eta) + (eta/2) sum ||V_t||_F^2
    are returned for the given comparator (default W0), each bit-equal to
    a run on its own that takes every inner product and norm (of V, of
    W - W0, and the projection's) in the canonical order of `_dots`.

    W, W_sum and W_hat live on the rows of W0 and every row an oracle has
    returned, in ascending order, so a full step costs the oracle plus
    O(S d) per live row.  A (run, draw) whose G was zero stays marked quiet
    until that run's W is written.  A step on which every run's draw is
    quiet moves no iterate, so the loop skips it: it looks ahead for the
    next full step a window at a time, and adds the quiet steps between
    into W_sum, before the next full step, on W's nonzero entries.  A run
    whose distance from W0 is not finite is refused."""
    rngs = [np.random.default_rng(s) for s in cfg.seeds]
    W0, B, S = cfg.W0, cfg.B, len(cfg.seeds)
    Wstar = W0 if comparator is None else np.asarray(comparator, dtype=np.float64)
    runs = np.arange(S)[:, None]
    live = np.flatnonzero(np.any(W0 != 0, axis=1))
    W = np.repeat(W0[None, live], S, axis=0)
    W_sum = np.zeros_like(W)
    W0_live = W0[live]
    lhs, vsq, dist = np.zeros((3, S))               # dist of W = W0
    violations = np.zeros(S, dtype=np.int64)
    ball_ok = np.ones(S, dtype=bool)
    quiet = np.zeros((S, sampler.K), dtype=bool)
    stretch = 0                                     # quiet steps not yet in W_sum
    per_draw = max(1, DRAW_BYTES // (8 * S))
    for start in range(0, cfg.T, per_draw):
        draws = sampler.draw(rngs, min(per_draw, cfg.T - start))
        i = _next_full_step(quiet, draws, 0)
        stretch += i
        while i < len(draws):
            # A run that moved or was projected has no quiet draw until a
            # full step marks one, so on a quiet step V is zero and every
            # dist <= B: the oracle check, the ball check and the
            # certificate change nothing there.
            _add_repeatedly(W_sum, W, stretch)
            stretch = 0
            x = draws[i]
            _, rows, G = sampler.oracle(live, W, x)
            grown = np.union1d(live, rows)
            if len(grown) > len(live):
                W, W_sum = _grow(live, grown, W, W_sum, W0)
                live, W0_live = grown, W0[grown]
            at = np.searchsorted(live, rows)
            vnorm = _norms(G)
            violations += vnorm > cfg.L + 1e-9
            ball_ok &= _in_ball(dist, B)
            W_sum += W
            lhs += _dots(W[runs, at] - Wstar[rows], G)
            vsq += vnorm * vnorm
            # V is zero off `rows`, where W - eta V leaves W as it is
            W[runs, at] -= cfg.eta * G
            moved = G.reshape(S, -1).any(axis=1)
            quiet[moved] = False
            quiet[~moved, x[~moved]] = True
            dist = _norms(W - W0_live)   # the projection's norm, and the next dist
            far = np.flatnonzero(~(dist <= B))
            if len(far):
                W[far] = project_frobenius_ball(W[far], W0_live, B)
                dist[far] = _norms(W[far] - W0_live)
                quiet[far] = False
            nxt = _next_full_step(quiet, draws, i + 1)
            stretch += nxt - i - 1
            i = nxt
    _add_repeatedly(W_sum, W, stretch)
    np.divide(W_sum, cfg.T, out=W_sum)
    ball_ok &= _in_ball(_norms(W_sum - W0_live), B)
    rhs = (np.linalg.norm(Wstar - W0) ** 2 / (2.0 * cfg.eta)
           + cfg.eta / 2.0 * vsq)
    return SgdResult(W_sum, live, lhs, rhs, ball_ok, violations)


# ---------------------------------------------------------------------------

def _loss_lipschitz(inst):
    """Exact Lipschitz bound of W -> f(Wx): max piece dual norm times the
    largest point norm."""
    bx = float(np.linalg.norm(inst.points, axis=1).max())
    return inst.witness_fn.piece_dual_norm() * bx


def _point_sampler(inst, fn):
    """Uniform draws of the instance's point indices; the oracle feeds the
    drawn points to fn.loss_subgrad."""
    X = inst.points
    m = X.shape[0]

    def draw(rngs, k):
        return np.stack([rng.integers(0, m, size=k) for rng in rngs], axis=1)

    return Sampler(m, draw, lambda live, W, idx: fn.loss_subgrad(live, W, X[idx]))


def population_loss(inst, W):
    """Exact expectation of f(Wx) under the uniform distribution on the
    instance's points.  A loss that overflows is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.mean(inst.witness_fn.eval(inst.points @ W.T)))
    if not math.isfinite(loss):
        raise NumericalFailureError(
            "the population loss is not finite: the witness values overflow")
    return loss


def excess_risk_experiment(inst, T_grid, seeds, tolerance=0.05):
    """SGD excess population risk on the convex instance: one dict per
    (T, seed), and a per-T summary.

    excess = exact population loss of the averaged iterate minus the best
    witness loss; each row checks excess <= B L / sqrt(T) + tolerance and
    the run's certificate (`failed_checks` lists what fails of it), and the
    per-T summary checks the seed-averaged excess and every certificate."""
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
    # the best witness loss: the all-negative labeling attains -eps, and a
    # labeling's values average to eps (2 pop(y)/m - 1) >= -eps
    base = -inst.margin
    sampler = _point_sampler(inst, inst.witness_fn)
    rows, summary = [], []
    for T in T_grid:
        res = sgd_run(SgdConfig(W0=inst.W0, B=B, T=T, L=L, seeds=seeds), sampler)
        bound = B * L / math.sqrt(T)
        W_hat = np.zeros(inst.W0.shape)   # one run's, zero off res.rows
        for s, seed in enumerate(seeds):
            W_hat[res.rows] = res.W_hat[s]
            excess = population_loss(inst, W_hat) - base
            failed = [check for check, ok in (
                ("iterate outside the ball", res.ball_ok[s]),
                ("regret above its bound", res.regret_lhs[s] <= res.regret_rhs[s]),
                ("subgradient longer than L", res.oracle_violations[s] == 0)) if not ok]
            rows.append(dict(T=T, seed=seed, excess=excess, bound=bound,
                             ball_ok=bool(res.ball_ok[s]), failed_checks=failed,
                             passed=bool(excess <= bound + tolerance) and not failed))
        at_T = rows[-len(seeds):]
        mean_excess = float(np.mean([r["excess"] for r in at_T]))
        summary.append({
            "T": T,
            "mean_excess": mean_excess,
            "bound": bound,
            "passed": (bool(mean_excess <= bound + tolerance)
                       and not any(r["failed_checks"] for r in at_T)),
        })
    return rows, summary


def uc_gap_experiment(inst, sample_size, seeds):
    """Gap between empirical and population averages for the witness labeled
    +eps exactly on the drawn support: one dict per seed.

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
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, m, size=sample_size)
        support = np.unique(idx)
        y = int(np.sum(1 << support.astype(np.int64)))
        vals = witness_values(inst, [y])[0]
        empirical = float(vals[idx].mean())
        population = float(vals.mean())
        rows.append(dict(seed=seed, m=m, sample_size=int(sample_size),
                         support=int(support.size), empirical=empirical,
                         population=population, gap=empirical - population))
    return rows
