import math

import numpy as np
import pytest

from caplab import constructions as cn
from caplab import learner as lr
from caplab.errors import InvalidInputError
from tests_helpers_regret import (dense_loss_subgrad, random_hinge_sampler,
                                  random_piecewise_sampler)


def test_projection_inside_unchanged():
    W0 = np.zeros((2, 2))
    W = np.eye(2) * 0.1
    assert lr.project_frobenius_ball(W, W0, 1.0) is W


def test_projection_radial():
    W0 = np.ones((2, 2))
    W = W0 + np.array([[3.0, 0.0], [0.0, 4.0]])
    P = lr.project_frobenius_ball(W, W0, 1.0)
    assert np.linalg.norm(P - W0) == pytest.approx(1.0)
    assert np.allclose(P - W0, (W - W0) / 5.0)


def test_projection_idempotent():
    rng = np.random.default_rng(3)
    W0 = rng.standard_normal((3, 4))
    for _ in range(1000):
        W = W0 + rng.standard_normal((3, 4)) * rng.random() * 4
        P = lr.project_frobenius_ball(W, W0, 1.5)
        P2 = lr.project_frobenius_ball(P, W0, 1.5)
        assert np.allclose(P, P2, atol=1e-12)


def test_auto_eta():
    cfg = lr.SgdConfig(W0=np.zeros((2, 2)), B=2.0, T=100, L=4.0)
    assert cfg.eta == pytest.approx(math.sqrt(4.0 / (16.0 * 100)))
    with pytest.raises(InvalidInputError):
        lr.SgdConfig(W0=np.zeros((2, 2)), B=2.0, T=0, L=1.0)


def _constant_sampler(V_run):
    """Every run, every step: subgradient V_run, listed densely."""
    n = V_run.shape[0]

    def oracle(W, x):
        S = len(W)
        return (np.zeros(S), np.broadcast_to(np.arange(n), (S, n)),
                np.broadcast_to(V_run, (S,) + V_run.shape))

    return lr.Sampler(1, lambda rngs, k: np.zeros((k, len(rngs)), dtype=np.intp),
                      oracle)


def test_zero_subgradients_keep_w0():
    W0 = np.ones((2, 3))
    res = lr.sgd_run(lr.SgdConfig(W0=W0, B=1.0, T=50, L=1.0),
                     _constant_sampler(np.zeros((2, 3))))
    assert np.array_equal(res.W_hat[0], W0)


def test_regret_inequality_randomized():
    rng = np.random.default_rng(77)
    for run in range(100):
        n, d = rng.integers(2, 5, size=2)
        L = float(rng.random() + 0.5)
        B = float(rng.random() * 2 + 0.5)
        W0 = rng.standard_normal((n, d))
        D = rng.standard_normal((n, d))
        Wstar = W0 + (B * rng.random() / np.linalg.norm(D)) * D
        cfg = lr.SgdConfig(W0=W0, B=B, T=int(rng.integers(1, 60)), L=L,
                           seeds=(run,))
        res = lr.sgd_run(cfg, random_piecewise_sampler(n, d, L, run),
                         comparator=Wstar)
        assert res.regret_lhs[0] <= res.regret_rhs[0] + 1e-9
        assert res.ball_ok[0]


def test_oracle_violation_flagged_not_fatal():
    W0 = np.zeros((2, 2))
    res = lr.sgd_run(lr.SgdConfig(W0=W0, B=1.0, T=5, L=0.1),
                     _constant_sampler(np.full((2, 2), 10.0)))
    assert res.oracle_violations[0] == 5


def test_sgd_determinism():
    cfg = dict(W0=np.zeros((3, 3)), B=1.0, T=40, L=1.0, seeds=(5,))
    s = random_piecewise_sampler(3, 3, 1.0, 4)
    a = lr.sgd_run(lr.SgdConfig(**cfg), s)
    b = lr.sgd_run(lr.SgdConfig(**cfg), s)
    assert np.array_equal(a.W_hat, b.W_hat)
    assert a.regret_lhs == b.regret_lhs


def test_sgd_config_needs_a_seed():
    with pytest.raises(InvalidInputError):
        lr.SgdConfig(W0=np.zeros((2, 2)), B=1.0, T=5, L=1.0, seeds=())


# ---------------------------------------------------------------------------
# lockstep runs against one run at a time

def _per_seed_sgd(cfg, seed, sampler, comparator=None):
    """The one-run projected SGD loop, step by step: sampler(rng) ->
    (x, oracle), oracle(W, x) -> (loss, V).  Also counts projections."""
    rng = np.random.default_rng(seed)
    W0 = cfg.W0
    Wstar = W0 if comparator is None else comparator
    W = W0.copy()
    W_sum = np.zeros_like(W0)
    lhs = vsq = 0.0
    violations = projections = 0
    ball_ok = True
    for t in range(cfg.T):
        x, oracle = sampler(rng)
        loss, V = oracle(W, x)
        vnorm = float(np.linalg.norm(V))
        if vnorm > cfg.L + 1e-9:
            violations += 1
        if float(np.linalg.norm(W - W0)) > cfg.B + lr.BALL_TOL:
            ball_ok = False
        W_sum += W
        lhs += float(np.einsum("ij,ij->", W - Wstar, V))
        vsq += vnorm * vnorm
        W = W - cfg.eta * V
        delta = W - W0
        nrm = np.linalg.norm(delta)
        if not nrm <= cfg.B:
            W = W0 + (cfg.B / nrm) * delta
            projections += 1
    W_hat = W_sum / cfg.T
    if np.linalg.norm(W_hat - W0) > cfg.B + lr.BALL_TOL:
        ball_ok = False
    rhs = float(np.linalg.norm(Wstar - W0) ** 2 / (2.0 * cfg.eta)
                + cfg.eta / 2.0 * vsq)
    return W_hat, lhs, rhs, ball_ok, violations, projections


def _scalar_point_sampler(inst):
    X, fn = inst.points, inst.witness_fn

    def oracle(W, x):
        loss, V, _ = dense_loss_subgrad(fn, W, x)
        return loss, V

    return lambda rng: (X[rng.integers(0, inst.m)], oracle)


def _scalar_piecewise_sampler(stacked):
    """One run of a stacked sampler, one step per draw, V made dense."""
    def sampler(rng):
        xs = stacked.draw([rng], 1)

        def dense(W, x):
            loss, rows, G = stacked.oracle(W[None], x)
            V = np.zeros_like(W)
            V[rows[0]] = G[0]
            return float(loss[0]), V

        return xs[0], dense

    return sampler


SEEDS = (3, 11, 4, 0, 7, 12)


def _lockstep_case(case):
    if case == "piecewise":
        rng = np.random.default_rng(5)
        n, d, L, B = 3, 4, 1.0, 0.4
        W0 = rng.standard_normal((n, d))
        D = rng.standard_normal((n, d))
        Wstar = W0 + (0.8 * B / np.linalg.norm(D)) * D
        stacked = random_piecewise_sampler(n, d, L, 9)
        cfg = lr.SgdConfig(W0=W0, B=B, T=150, L=L, eta=0.3, seeds=SEEDS)
        return cfg, stacked, _scalar_piecewise_sampler(stacked), Wstar
    if case == "hinge":
        # hinges switch off as the runs descend, and a step on one can switch
        # another back on: quiet draws go stale when their run moves
        rng = np.random.default_rng(0)
        W0 = rng.standard_normal((3, 4))
        stacked = random_hinge_sampler(3, 4, 1.0, 0, pieces=6)
        cfg = lr.SgdConfig(W0=W0, B=5.0, T=3 * lr.SAMPLE_BLOCK + 7, L=1.0,
                           eta=0.5, seeds=SEEDS)
        return cfg, stacked, _scalar_piecewise_sampler(stacked), None
    m, start = case
    inst = cn.convex_instance(m, 0.25)
    L = lr._loss_lipschitz(inst)
    T = 150
    if start == "W0":
        # every t_z is 0 at W0: the first steps choose among tied pieces
        W0, B, eta = inst.W0, 0.02, 0.05
    elif start == "far":
        # at B = 1e5 a projection's rounding can leave dist above B + BALL_TOL:
        # ball_ok turns False on the step after, with W_hat inside the ball
        W0, B, eta, T = inst.W0, 1e5, 3e5, 3 * lr.SAMPLE_BLOCK + 7
    else:
        rng = np.random.default_rng(m)
        W0, B, eta = inst.W0 + 0.5 * rng.standard_normal(inst.W0.shape), 0.3, 0.2
    # a small ball and a long step, so that runs leave the ball
    cfg = lr.SgdConfig(W0=W0, B=B, T=T, L=L, eta=eta, seeds=SEEDS)
    return (cfg, lr._point_sampler(inst, inst.witness_fn),
            _scalar_point_sampler(inst), None)


def _assert_runs_equal_per_seed_loop(cfg, res, scalar, comparator=None):
    """Each run of the lockstep result, bit for bit against the one-run
    loop; returns each run's projection count."""
    projected = []
    for s, seed in enumerate(cfg.seeds):
        W_hat, lhs, rhs, ball_ok, violations, projections = _per_seed_sgd(
            cfg, seed, scalar, comparator)
        assert np.array_equal(res.W_hat[s], W_hat), seed
        assert res.regret_lhs[s] == lhs and res.regret_rhs[s] == rhs, seed
        assert res.ball_ok[s] == ball_ok, seed
        assert res.oracle_violations[s] == violations, seed
        projected.append(projections)
    return projected


@pytest.mark.parametrize("case", [(3, "off"), (6, "off"), (8, "off"),
                                  (8, "W0"), "piecewise", (4, "far"), (8, "far"),
                                  "hinge"])
def test_lockstep_bit_equal_to_per_seed_loop(case):
    cfg, stacked, scalar, comparator = _lockstep_case(case)
    res = lr.sgd_run(cfg, stacked, comparator=comparator)
    projected = _assert_runs_equal_per_seed_loop(cfg, res, scalar, comparator)
    # projection fired, for several runs, but not on every step
    assert sum(p > 0 for p in projected) >= 2, projected
    assert max(projected) < cfg.T, projected


def _counting(sampler, calls):
    """The sampler, with calls[b] counting its oracle calls in drawn block b."""
    def draw(rngs, k):
        calls.append(0)
        return sampler.draw(rngs, k)

    def oracle(W, x):
        calls[-1] += 1
        return sampler.oracle(W, x)

    return lr.Sampler(sampler.K, draw, oracle)


@pytest.mark.parametrize("m", [4, 8])
def test_quiet_stretches_bit_equal_to_per_seed_loop(m):
    # from W0, at the instance's own B and auto eta, each point's subgradient
    # fires once per run and never again: the rest of the run is quiet steps,
    # skipped in stretches that cross SAMPLE_BLOCK boundaries
    inst = cn.convex_instance(m, 0.25)
    cfg = lr.SgdConfig(W0=inst.W0, B=inst.B, T=3 * lr.SAMPLE_BLOCK + 7,
                       L=lr._loss_lipschitz(inst), seeds=SEEDS)
    calls = []
    res = lr.sgd_run(cfg, _counting(lr._point_sampler(inst, inst.witness_fn),
                                    calls))
    _assert_runs_equal_per_seed_loop(cfg, res, _scalar_point_sampler(inst))
    assert len(calls) == 4 and calls[0] > 0 and calls[2:] == [0, 0], calls


def test_single_runs_bit_equal_to_per_seed_loop():
    # a run on its own goes quiet right after its last move; there a
    # projection's rounding can leave dist just above B, and the projection
    # repeats, changing W, on steps whose draws were quiet before it
    inst = cn.convex_instance(6, 0.25)
    scalar = _scalar_point_sampler(inst)
    for seed in SEEDS:
        cfg = lr.SgdConfig(W0=inst.W0, B=0.02, T=3 * lr.SAMPLE_BLOCK + 7,
                           L=lr._loss_lipschitz(inst), eta=0.02, seeds=(seed,))
        res = lr.sgd_run(cfg, lr._point_sampler(inst, inst.witness_fn))
        _assert_runs_equal_per_seed_loop(cfg, res, scalar)


def test_quiet_memo_oracle_calls_pinned():
    # the default sgd grid's longest run on convex m = 8: with the memo, the
    # oracle runs on 47 of the 10^4 steps (each run moves about 8 times)
    inst = cn.convex_instance(8, 0.25)
    calls = []
    lr.sgd_run(lr.SgdConfig(W0=inst.W0, B=inst.B, T=10_000,
                            L=lr._loss_lipschitz(inst), seeds=range(20)),
               _counting(lr._point_sampler(inst, inst.witness_fn), calls))
    assert sum(calls) == 47, calls


@pytest.mark.parametrize("m", [1, 2, 5, 8, 11, 16])
def test_block_draws_equal_scalar_draws(m):
    """The samplers draw SAMPLE_BLOCK steps per call; numpy gives the same
    integers as one draw per step."""
    T = 3 * lr.SAMPLE_BLOCK + 7
    for seed in (0, 1, 2):
        blocks = np.random.default_rng(seed)
        drawn = np.concatenate([
            blocks.integers(0, m, size=min(lr.SAMPLE_BLOCK, T - start))
            for start in range(0, T, lr.SAMPLE_BLOCK)])
        one = np.random.default_rng(seed)
        assert drawn.tolist() == [int(one.integers(0, m)) for _ in range(T)]


# ---------------------------------------------------------------------------

def test_excess_risk_envelope_and_decrease():
    inst = cn.convex_instance(6, 0.2)
    table, summary = lr.excess_risk_experiment(inst, [1, 100], [0, 1, 2])
    L = lr._loss_lipschitz(inst)
    for row in table.rows:
        if row["T"] == 1:
            assert row["excess"] <= inst.B * L  # trivial envelope
        assert row["ball_ok"]
    assert all(s["passed"] for s in summary)


def test_excess_risk_requires_convex():
    inst = cn.nonzero_init_instance(4, 0.25)
    with pytest.raises(InvalidInputError):
        lr.excess_risk_experiment(inst, [10], [0])


def test_best_witness_loss_is_minimal_over_enumeration():
    inst = cn.convex_instance(5, 0.2)
    best = min(
        lr.population_loss(inst, inst.witness_for(y))
        for y in range(inst.num_labelings)
    )
    assert lr.best_witness_loss(inst) == pytest.approx(best, abs=1e-12)


def test_uc_gap_m2():
    inst = cn.convex_instance(2, 0.25)
    table = lr.uc_gap_experiment(inst, 1, [0, 1, 2, 3])
    for r in table.rows:
        assert r["empirical"] == pytest.approx(0.25, abs=1e-12)
        assert r["population"] == pytest.approx(0.0, abs=1e-12)
        assert r["gap"] == pytest.approx(0.25, abs=1e-12)


def test_uc_gap_closed_form():
    inst = cn.convex_instance(8, 0.25)
    table = lr.uc_gap_experiment(inst, 4, range(10))
    for r in table.rows:
        want = 2 * 0.25 * (1 - r["support"] / 8)
        assert r["gap"] == pytest.approx(want, abs=1e-12)
        assert r["gap"] >= 0.25  # support <= 4 <= m/2


def test_uc_gap_stable_as_m_grows():
    gaps = []
    for m in (8, 12, 16):
        inst = cn.convex_instance(m, 0.25)
        t = lr.uc_gap_experiment(inst, m // 2, range(5))
        gaps.append(min(r["gap"] for r in t.rows))
    assert min(gaps) >= 0.25


def test_uc_gap_guards():
    inst = cn.convex_instance(4, 0.25)
    with pytest.raises(InvalidInputError):
        lr.uc_gap_experiment(inst, 5, [0])
