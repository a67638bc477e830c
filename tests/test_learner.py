import math
import tracemalloc

import numpy as np
import pytest

from caplab import constructions as cn
from caplab import learner as lr
from caplab.errors import (CapacityExceededError, InvalidInputError,
                           NumericalFailureError)
from oracles import (densify, dense_loss_subgrad, random_hinge_sampler,
                     random_piecewise_sampler)


def test_projection_inside_unchanged():
    W0 = np.zeros((2, 2))
    W = np.eye(2)[None] * 0.1
    assert lr.project_frobenius_ball(W, W0, 1.0) is W


def test_projection_radial():
    W0 = np.ones((2, 2))
    W = W0 + np.array([[[3.0, 0.0], [0.0, 4.0]]])
    P = lr.project_frobenius_ball(W, W0, 1.0)
    assert np.linalg.norm(P[0] - W0) == pytest.approx(1.0)
    assert np.allclose(P - W0, (W - W0) / 5.0)


def test_projection_idempotent():
    rng = np.random.default_rng(3)
    W0 = rng.standard_normal((3, 4))
    for _ in range(1000):
        W = W0 + rng.standard_normal((1, 3, 4)) * rng.random() * 4
        P = lr.project_frobenius_ball(W, W0, 1.5)
        P2 = lr.project_frobenius_ball(P, W0, 1.5)
        assert np.allclose(P, P2, atol=1e-12)


def test_projection_of_a_stack_bit_equal_to_one_at_a_time():
    rng = np.random.default_rng(4)
    W0 = rng.standard_normal((5, 3))
    W = W0 + rng.standard_normal((7, 5, 3)) * np.linspace(0.05, 0.8, 7)[:, None, None]
    P = lr.project_frobenius_ball(W, W0, 1.5)
    inside = lr._norms(W - W0) <= 1.5
    assert 0 < inside.sum() < 7
    for s in range(7):
        assert P[s].tobytes() == lr.project_frobenius_ball(W[s : s + 1], W0, 1.5)[0].tobytes()
    assert P[inside].tobytes() == W[inside].tobytes()


def test_projection_refuses_a_distance_that_is_not_finite():
    # ||(1e200, 0)||^2 overflows: B / inf = 0 would send W to W0
    for W in ([[[1e200, 0.0]]], [[[np.nan, 0.0]]], [[[0.5, 0.0]], [[np.inf, 0.0]]]):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailureError, match="not finite"):
                lr.project_frobenius_ball(np.array(W), 0.0, 1.0)


def test_auto_eta():
    cfg = lr.SgdConfig(W0=np.zeros((2, 2)), B=2.0, T=100, L=4.0)
    assert cfg.eta == pytest.approx(math.sqrt(4.0 / (16.0 * 100)))
    with pytest.raises(InvalidInputError):
        lr.SgdConfig(W0=np.zeros((2, 2)), B=2.0, T=0, L=1.0)


def _constant_sampler(V_run):
    """Every run, every step: subgradient V_run, listed densely."""
    n = V_run.shape[0]

    def oracle(live, W, x):
        S = len(W)
        return (np.zeros(S), np.broadcast_to(np.arange(n), (S, n)),
                np.broadcast_to(V_run, (S,) + V_run.shape))

    return lr.Sampler(1, lambda rngs, k: np.zeros((k, len(rngs)), dtype=np.intp),
                      oracle)


def test_zero_subgradients_keep_w0():
    W0 = np.ones((2, 3))
    res = lr.sgd_run(lr.SgdConfig(W0=W0, B=1.0, T=50, L=1.0),
                     _constant_sampler(np.zeros((2, 3))))
    assert np.array_equal(densify(res.rows, res.W_hat, 2)[0], W0)


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


def test_sgd_config_refuses_runs_over_the_byte_budget(monkeypatch):
    # two (S, n, d) stacks per estimate, refused before any is stacked
    def refuse(*args, **kwargs):
        raise AssertionError("iterates stacked")

    W0 = cn.convex_instance(16, 0.25).W0
    most = lr.SGD_MAX_BYTES // (16 * W0.size)
    assert most >= 20
    monkeypatch.setattr(np, "repeat", refuse)
    with pytest.raises(CapacityExceededError, match=f"at most {most} runs"):
        lr.SgdConfig(W0=W0, B=1.0, T=10, L=1.0, seeds=range(most + 1))
    assert len(lr.SgdConfig(W0=W0, B=1.0, T=10, L=1.0, seeds=range(most)).seeds) == most


# ---------------------------------------------------------------------------
# lockstep runs against one run at a time

def _dot(A, C):
    """<A, C>_F in the canonical order: each row's products summed by
    einsum, then the rows added one after another in row order."""
    return float(np.cumsum(np.einsum("ij,ij->i", A, C))[-1])


def _norm(A):
    return math.sqrt(_dot(A, A))


def _per_seed_sgd(cfg, seed, sampler, comparator=None):
    """The one-run projected SGD loop, step by step and on every row:
    sampler(rng) -> (x, oracle), oracle(W, x) -> (loss, V).  Also counts
    projections."""
    rng = np.random.default_rng(seed)
    W0 = cfg.W0
    Wstar = W0 if comparator is None else comparator
    limit = cfg.B + lr.BALL_TOL * max(1.0, cfg.B)
    W = W0.copy()
    W_sum = np.zeros_like(W0)
    lhs = vsq = 0.0
    violations = projections = 0
    ball_ok = True
    for t in range(cfg.T):
        x, oracle = sampler(rng)
        loss, V = oracle(W, x)
        vnorm = _norm(V)
        if vnorm > cfg.L + 1e-9:
            violations += 1
        if _norm(W - W0) > limit:
            ball_ok = False
        W_sum += W
        lhs += _dot(W - Wstar, V)
        vsq += vnorm * vnorm
        W = W - cfg.eta * V
        delta = W - W0
        nrm = _norm(delta)
        if not nrm <= cfg.B:
            W = W0 + (cfg.B / nrm) * delta
            projections += 1
    W_hat = W_sum / cfg.T
    if _norm(W_hat - W0) > limit:
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
            loss, rows, G = stacked.oracle(np.arange(len(W)), W[None], x)
            V = np.zeros_like(W)
            V[rows[0]] = G[0]
            return float(loss[0]), V

        return xs[0], dense

    return sampler


SEEDS = (3, 11, 4, 0, 7, 12)
BLOCK = 64   # steps per sampler call, for tests whose T crosses draw blocks


def _small_draws(monkeypatch, runs):
    """Make sgd_run draw BLOCK steps per sampler call for `runs` runs."""
    monkeypatch.setattr(lr, "DRAW_BYTES", 8 * runs * BLOCK)


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
        cfg = lr.SgdConfig(W0=W0, B=5.0, T=3 * BLOCK + 7, L=1.0,
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
        # at B = 1e5 a projection's rounding can leave dist a few ulps above
        # B: the ball check's tolerance, relative to B, admits that
        W0, B, eta, T = inst.W0, 1e5, 3e5, 3 * BLOCK + 7
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
    W_hats = densify(res.rows, res.W_hat, len(cfg.W0))
    for s, seed in enumerate(cfg.seeds):
        W_hat, lhs, rhs, ball_ok, violations, projections = _per_seed_sgd(
            cfg, seed, scalar, comparator)
        assert np.array_equal(W_hats[s], W_hat), seed
        assert res.regret_lhs[s] == lhs and res.regret_rhs[s] == rhs, seed
        assert res.ball_ok[s] == ball_ok, seed
        assert res.oracle_violations[s] == violations, seed
        projected.append(projections)
    return projected


@pytest.mark.parametrize("case", [(3, "off"), (6, "off"), (8, "off"),
                                  (8, "W0"), "piecewise", (4, "far"), (8, "far"),
                                  "hinge"])
def test_lockstep_bit_equal_to_per_seed_loop(case, monkeypatch):
    _small_draws(monkeypatch, len(SEEDS))
    cfg, stacked, scalar, comparator = _lockstep_case(case)
    res = lr.sgd_run(cfg, stacked, comparator=comparator)
    projected = _assert_runs_equal_per_seed_loop(cfg, res, scalar, comparator)
    # projection fired, for several runs, but not on every step
    assert sum(p > 0 for p in projected) >= 2, projected
    assert max(projected) < cfg.T, projected
    if case in ((4, "far"), (8, "far")):
        # projections to B = 1e5 land within ulps of B, inside the tolerance
        assert res.ball_ok.all()


def _counting(sampler, calls):
    """The sampler, with calls[b] counting its oracle calls in drawn block b."""
    def draw(rngs, k):
        calls.append(0)
        return sampler.draw(rngs, k)

    def oracle(live, W, x):
        calls[-1] += 1
        return sampler.oracle(live, W, x)

    return lr.Sampler(sampler.K, draw, oracle)


@pytest.mark.parametrize("m", [4, 8])
def test_quiet_stretches_bit_equal_to_per_seed_loop(m, monkeypatch):
    # from W0, at the instance's own B and auto eta, each point's subgradient
    # fires once per run and never again: the rest of the run is quiet steps,
    # skipped in stretches that cross draw blocks
    _small_draws(monkeypatch, len(SEEDS))
    inst = cn.convex_instance(m, 0.25)
    cfg = lr.SgdConfig(W0=inst.W0, B=inst.B, T=3 * BLOCK + 7,
                       L=lr._loss_lipschitz(inst), seeds=SEEDS)
    calls = []
    res = lr.sgd_run(cfg, _counting(lr._point_sampler(inst, inst.witness_fn),
                                    calls))
    _assert_runs_equal_per_seed_loop(cfg, res, _scalar_point_sampler(inst))
    assert len(calls) == 4 and calls[0] > 0 and calls[2:] == [0, 0], calls


def test_single_runs_bit_equal_to_per_seed_loop(monkeypatch):
    # a run on its own goes quiet right after its last move; there a
    # projection's rounding can leave dist just above B, and the projection
    # repeats, changing W, on steps whose draws were quiet before it
    _small_draws(monkeypatch, 1)
    inst = cn.convex_instance(6, 0.25)
    scalar = _scalar_point_sampler(inst)
    for seed in SEEDS:
        cfg = lr.SgdConfig(W0=inst.W0, B=0.02, T=3 * BLOCK + 7,
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


def test_ball_tolerance_is_relative_to_B():
    for B in (1.0, 1e5, 1e12):
        dist = np.array([B, B * (1 + 4 * np.finfo(float).eps), B * (1 + 1e-9)])
        assert lr._in_ball(dist, B).tolist() == [True, True, False], B
    # at B <= 1 the tolerance stays the absolute BALL_TOL
    for B in (1e-3, 0.5):
        assert lr._in_ball(np.array([B + 0.5 * lr.BALL_TOL,
                                     B + 2 * lr.BALL_TOL]), B).tolist() == [True, False]


def test_iterates_just_outside_a_large_ball_are_flagged(monkeypatch):
    # projections that land 1e-9 B outside the ball, at B = 1e5
    real = lr.project_frobenius_ball
    monkeypatch.setattr(lr, "project_frobenius_ball",
                        lambda W, W0, B: real(W, W0, B * (1 + 1e-9)))
    cfg, stacked, _, _ = _lockstep_case((8, "far"))
    res = lr.sgd_run(cfg, stacked)
    assert not res.ball_ok.any()


def _scripted_sampler(n, d, p_move):
    """Draw 1 (a move on rows 1 and 3) with probability p_move, else 0 (a
    zero subgradient): long quiet stretches at known steps."""
    G_move = np.arange(2 * d, dtype=float).reshape(2, d) - 2.5

    def draw(rngs, k):
        return np.stack([(rng.random(k) < p_move).astype(np.intp)
                         for rng in rngs], axis=1)

    def oracle(live, W, x):
        S = len(W)
        rows = np.broadcast_to(np.array([1, 3]), (S, 2))
        return np.zeros(S), rows, np.where(x[:, None, None] == 1, G_move, 0.0)

    return lr.Sampler(2, draw, oracle)


def _full_steps(seeds, T, p_move):
    """The steps on which some run's draw is not quiet, by the memo's rule."""
    draws = np.stack([np.random.default_rng(s).random(T) < p_move
                      for s in seeds], axis=1)
    quiet = np.zeros((len(seeds), 2), dtype=bool)
    full = []
    for t, x in enumerate(draws.astype(int)):
        if not quiet[np.arange(len(seeds)), x].all():
            full.append(t)
            for s, v in enumerate(x):
                if v:
                    quiet[s] = False
                else:
                    quiet[s, 0] = True
    return full


def test_quiet_stretch_crosses_look_ahead_windows_and_draw_blocks(monkeypatch):
    seeds, T, p_move = SEEDS[:2], 10 * BLOCK, 0.01
    _small_draws(monkeypatch, len(seeds))
    W0 = np.zeros((5, 3))
    W0[0] = [1.0, -2.0, 0.5]
    W0[4] = -0.0
    cfg = lr.SgdConfig(W0=W0, B=100.0, T=T, L=20.0, eta=0.1, seeds=seeds)
    calls = []
    res = lr.sgd_run(cfg, _counting(_scripted_sampler(5, 3, p_move), calls))
    _assert_runs_equal_per_seed_loop(
        cfg, res, _scalar_piecewise_sampler(_scripted_sampler(5, 3, p_move)))
    full = _full_steps(seeds, T, p_move)
    assert sum(calls) == len(full)
    # a stretch longer than the first two windows (8 + 16 steps) that
    # crosses a draw block boundary
    assert any(b - a > 25 and a // BLOCK < b // BLOCK
               for a, b in zip(full, full[1:])), full


def test_overflowing_run_is_refused():
    # G = 1e308 takes row 1 to -inf: the run's distance from W0 is not
    # finite, so it is refused, not projected to NaN on every row
    W0 = np.zeros((4, 3))
    W0[0] = 1.0

    def oracle(live, W, x):
        S = len(W)
        return (np.zeros(S), np.ones((S, 1), dtype=np.intp),
                np.full((S, 1, 3), 1e308))

    stacked = lr.Sampler(1, lambda rngs, k: np.zeros((k, len(rngs)), dtype=np.intp),
                         oracle)
    cfg = lr.SgdConfig(W0=W0, B=1.0, T=6, L=1.0, eta=10.0, seeds=(0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match="not finite"):
            lr.sgd_run(cfg, stacked)


def test_add_repeatedly_bit_equal_to_full_adds():
    rng = np.random.default_rng(8)
    W = rng.standard_normal((3, 5, 4))
    W[rng.random(W.shape) < 0.5] = 0.0
    W[rng.random(W.shape) < 0.3] = -0.0
    W_sum = rng.standard_normal(W.shape)
    W_sum[rng.random(W.shape) < 0.4] = 0.0
    want = W_sum.copy()
    for _ in range(7):
        want += W
    lr._add_repeatedly(W_sum, W, 7)
    assert np.signbit(W).any() and (want == 0).any()
    assert W_sum.tobytes() == want.tobytes()   # -0 and +0 told apart


def test_norms_unchanged_by_zero_rows():
    rng = np.random.default_rng(12)
    for _ in range(300):
        S, r, d = rng.integers(1, 6), rng.integers(0, 40), rng.integers(1, 20)
        A = rng.standard_normal((S, r, d)) * 10.0 ** rng.integers(-5, 6)
        C = rng.standard_normal((S, r, d))
        n = r + int(rng.integers(0, 40))
        rows = np.sort(rng.choice(n, size=r, replace=False))
        zero = np.where(rng.random((S, n, d)) < 0.5, -0.0, 0.0)
        A_full, C_full = zero.copy(), zero.copy()
        A_full[:, rows], C_full[:, rows] = A, C
        assert np.array_equal(lr._norms(A_full), lr._norms(A))
        assert np.array_equal(lr._dots(A_full, C_full), lr._dots(A, C))
        for s in range(S):
            assert lr._norms(A_full)[s] == _norm(A_full[s])


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sgd_peak_memory_in_stacked_buffers():
    # the dense loop peaked at 4.33 (S, n, d) float64 buffers: W, V, D,
    # W_sum, and W_hat - W0 at the end; with a dense iterate for the oracle
    # and a dense W_hat, 1.35 and 1.25.  On the live rows only the oracle's
    # (S, n) and (S, 2^m) temporaries remain
    inst = cn.convex_instance(12, 0.25)
    buffer = 20 * inst.W0.size * 8
    cfg = lr.SgdConfig(W0=inst.W0, B=inst.B, T=1000,
                       L=lr._loss_lipschitz(inst), seeds=range(20))
    sampler = lr._point_sampler(inst, inst.witness_fn)
    peak = _peak(lambda: lr.sgd_run(cfg, sampler))
    assert peak < 0.5 * buffer, peak / buffer
    peak = _peak(lambda: lr.excess_risk_experiment(inst, [100, 100], range(20)))
    assert peak < 0.5 * buffer, peak / buffer


@pytest.mark.parametrize("m", [1, 2, 5, 8, 11, 16, 3 << 30])
def test_block_draws_equal_scalar_draws(m):
    """The samplers draw many steps per call, in blocks of any size; numpy
    gives the same integers as one draw per step, and as one draw of all
    of them, for odd and uneven splits alike."""
    T = 3 * BLOCK + 7
    splits = ([BLOCK] * 3 + [7], [1, 3, 5, 2 * BLOCK + 1, BLOCK - 3],
              [T - 1, 1], [T])
    for seed in (0, 1, 2):
        one = np.random.default_rng(seed)
        scalar = [int(one.integers(0, m)) for _ in range(T)]
        assert np.random.default_rng(seed).integers(0, m, size=T).tolist() == scalar
        for sizes in splits:
            assert sum(sizes) == T
            blocks = np.random.default_rng(seed)
            drawn = np.concatenate([blocks.integers(0, m, size=k) for k in sizes])
            assert drawn.tolist() == scalar, sizes


# ---------------------------------------------------------------------------

def test_excess_risk_envelope_and_decrease():
    inst = cn.convex_instance(6, 0.2)
    rows, summary = lr.excess_risk_experiment(inst, [1, 100], [0, 1, 2])
    L = lr._loss_lipschitz(inst)
    for row in rows:
        if row["T"] == 1:
            assert row["excess"] <= inst.B * L  # trivial envelope
        assert row["ball_ok"]
    assert all(s["passed"] for s in summary)


@pytest.mark.parametrize("fault,check", [
    ("ball", "iterate outside the ball"), ("regret", "regret above its bound"),
    ("oracle", "subgradient longer than L")])
def test_failed_certificate_fails_its_row_and_the_summary(monkeypatch, fault,
                                                          check):
    inst = cn.convex_instance(4, 0.25)
    rows, summary = lr.excess_risk_experiment(inst, [50, 100], range(3))
    assert all(r["passed"] and r["failed_checks"] == [] for r in rows)
    assert all(s["passed"] for s in summary)
    real = lr.sgd_run

    def faulty(cfg, sampler, comparator=None):
        # run 1's certificate fails by the least amount there is
        res = real(cfg, sampler, comparator)
        if fault == "ball":
            res.ball_ok[1] = False
        elif fault == "regret":
            res.regret_lhs[1] = np.nextafter(res.regret_rhs[1], np.inf)
        else:
            res.oracle_violations[1] = 1
        return res

    monkeypatch.setattr(lr, "sgd_run", faulty)
    rows, summary = lr.excess_risk_experiment(inst, [50, 100], range(3))
    assert [r["passed"] for r in rows] == [True, False, True] * 2
    assert all(r["failed_checks"] == [check] for r in rows[1::3])
    assert [s["passed"] for s in summary] == [False, False]


def test_excess_risk_requires_convex():
    inst = cn.nonzero_init_instance(4, 0.25)
    with pytest.raises(InvalidInputError):
        lr.excess_risk_experiment(inst, [10], [0])


def test_best_witness_loss_is_minimal_over_enumeration():
    # excess_risk_experiment measures the excess from -eps, unenumerated
    inst = cn.convex_instance(5, 0.2)
    best = min(
        lr.population_loss(inst, inst.witness_for(y))
        for y in range(inst.num_labelings)
    )
    assert -inst.margin == pytest.approx(best, abs=1e-12)


def test_uc_gap_m2():
    inst = cn.convex_instance(2, 0.25)
    for r in lr.uc_gap_experiment(inst, 1, [0, 1, 2, 3]):
        assert r["empirical"] == pytest.approx(0.25, abs=1e-12)
        assert r["population"] == pytest.approx(0.0, abs=1e-12)
        assert r["gap"] == pytest.approx(0.25, abs=1e-12)


def test_uc_gap_closed_form():
    inst = cn.convex_instance(8, 0.25)
    for r in lr.uc_gap_experiment(inst, 4, range(10)):
        want = 2 * 0.25 * (1 - r["support"] / 8)
        assert r["gap"] == pytest.approx(want, abs=1e-12)
        assert r["gap"] >= 0.25  # support <= 4 <= m/2


def test_uc_gap_stable_as_m_grows():
    gaps = []
    for m in (8, 12, 16):
        inst = cn.convex_instance(m, 0.25)
        rows = lr.uc_gap_experiment(inst, m // 2, range(5))
        gaps.append(min(r["gap"] for r in rows))
    assert min(gaps) >= 0.25


def test_uc_gap_guards():
    inst = cn.convex_instance(4, 0.25)
    with pytest.raises(InvalidInputError):
        lr.uc_gap_experiment(inst, 5, [0])
