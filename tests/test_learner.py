import math

import numpy as np
import pytest

from caplab import constructions as cn
from caplab import learner as lr
from caplab.errors import InvalidInputError


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


def test_zero_subgradients_keep_w0():
    W0 = np.ones((2, 3))

    def sampler(rng):
        return np.zeros(3), lambda W, x: (0.0, np.zeros_like(W))

    res = lr.sgd_run(lr.SgdConfig(W0=W0, B=1.0, T=50, L=1.0), sampler)
    assert np.array_equal(res.W_hat, W0)


def _random_piecewise_sampler(n, d, L, rng_seed=0):
    """Stochastic convex piecewise-linear losses W -> max_j <G_j, W> + c_j."""
    master = np.random.default_rng(rng_seed)
    Gs = master.standard_normal((5, n, d))
    Gs *= L / np.maximum(np.linalg.norm(Gs.reshape(5, -1), axis=1), 1e-12)[:, None, None]
    cs = master.standard_normal(5)

    def sampler(rng):
        j_noise = rng.integers(0, 5)

        def oracle(W, x):
            vals = np.einsum("jnd,nd->j", Gs, W) + cs + 0.1 * j_noise
            j = int(np.argmax(vals))
            return float(vals[j]), Gs[j]

        return np.zeros(d), oracle

    return sampler


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
                           seed=int(run))
        res = lr.sgd_run(cfg, _random_piecewise_sampler(n, d, L, run),
                         comparator=Wstar)
        assert res.regret_lhs <= res.regret_rhs + 1e-9
        assert res.ball_ok


def test_oracle_violation_flagged_not_fatal():
    W0 = np.zeros((2, 2))

    def sampler(rng):
        return np.zeros(2), lambda W, x: (0.0, np.full_like(W, 10.0))

    res = lr.sgd_run(lr.SgdConfig(W0=W0, B=1.0, T=5, L=0.1), sampler)
    assert res.oracle_violations == 5


def test_sgd_determinism():
    cfg = dict(W0=np.zeros((3, 3)), B=1.0, T=40, L=1.0, seed=5)
    s = _random_piecewise_sampler(3, 3, 1.0, 4)
    a = lr.sgd_run(lr.SgdConfig(**cfg), s)
    b = lr.sgd_run(lr.SgdConfig(**cfg), s)
    assert np.array_equal(a.W_hat, b.W_hat)
    assert a.regret_lhs == b.regret_lhs


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
