import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from caplab import _kernels
from caplab import constructions as cn
from caplab.errors import CapacityExceededError, InvalidInputError
from caplab.lipschitz import AnchoredLipschitz, budget, gram_error, min_feasible_slope
from oracles import (dense_loss_subgrad, max_affine_pieces, max_metric_min_form,
                     min_form_anchors, q_loop_table, stack_separated_family,
                     stack_zero_init_parts, zero_init_stack)


def brute_force_verify(inst):
    """Independent re-check: loops nested point-major, scalar witness calls.

    Returns the worst slack and the failing (y, i) pairs in y-major order."""
    witness = (zero_init_stack(inst)["witnesses"].__getitem__
               if inst.kind == "zero-init" else inst.witness_for)
    worst = math.inf
    failing = []
    for i in range(inst.m):
        x = inst.points[i]
        for y in range(inst.num_labelings):
            W = witness(y)
            val = inst.witness_fn(W @ x)
            want_pos = (y >> i) & 1
            eps = inst.margin
            slack = val - eps if want_pos else -eps - val
            worst = min(worst, slack)
            if not slack >= -cn.SLACK_TOL:
                failing.append((y, i))
    return worst, sorted(failing)


def dense_anchors(fn):
    """The encoded min-form witness's m*2^m anchors as dense rows: anchor k
    is coord_a at coordinate j_arr[k] and coord_b at zc_arr[k]."""
    j_arr, zc_arr, _ = min_form_anchors(fn.m, fn.eps)
    k = np.arange(j_arr.shape[0])
    A = np.zeros((k.size, fn.n))
    A[k, j_arr] = fn.coord_a
    A[k, zc_arr] = fn.coord_b
    return A


def anchored_min_form(fn, X):
    """The encoded min-form witness on the rows of X, as the max-metric
    McShane extension over its dense anchors."""
    vals = min_form_anchors(fn.m, fn.eps)[2]
    return max_metric_min_form(dense_anchors(fn), vals, fn.L, X)


# ---------------------------------------------------------------------------

def test_separated_family_properties():
    fam = cn.random_separated_family(20, 4, 256, seed=7)
    assert np.allclose(np.linalg.norm(fam.points, axis=1), 1.0)
    # the stack oracle's draw: the family's anchors and norms are its matrices'
    X, W = stack_separated_family(20, 4, 256, seed=7)[:2]
    assert X.tobytes() == fam.points.tobytes()
    fro2 = np.sum(W.reshape(16, -1) ** 2, axis=1)
    assert np.all(fro2 <= 2 * 20 + 1e-9)
    assert np.allclose(fam.norms ** 2, fro2, rtol=1e-14, atol=0)
    enc = np.einsum("snd,md->smn", W, fam.points).reshape(-1, 256)
    assert np.allclose(fam.anchors, enc, rtol=0, atol=1e-13)
    # exhaustive pairwise oracle for the recorded separation
    d = np.linalg.norm(enc[:, None] - enc[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert fam.separation == pytest.approx(d.min(), abs=1e-12)
    assert fam.separation_ok == (fam.separation >= 0.25)


def test_separated_family_draw_is_the_one_shot_draw():
    # the matrices are drawn, divided and their norms taken by blocks (2
    # blocks here): the anchors and norms are those of the same matrices as
    # one draw, one division and one norm call
    d, m, n, seed = 32, 8, 256, 4
    assert (1 << m) * n * d * 8 > cn.FAMILY_BLOCK_BYTES
    fam = cn.random_separated_family(d, m, n, seed)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    W = rng.standard_normal((1 << m, n, d)) / math.sqrt(n)
    fro = np.linalg.norm(W.reshape(1 << m, -1), axis=1)
    over = fro > math.sqrt(2.0 * d)
    W[over] *= (math.sqrt(2.0 * d) / fro[over])[:, None, None]
    anchors = np.concatenate([X @ W[s].T for s in range(1 << m)])
    norms = np.array([np.linalg.norm(W[s]) for s in range(1 << m)])
    assert fam.resamples_used == 1 and fam.points.tobytes() == X.tobytes()
    assert fam.anchors.tobytes() == anchors.tobytes()
    assert fam.norms.tobytes() == norms.tobytes()


def test_separated_family_m1():
    fam = cn.random_separated_family(25, 1, 64, seed=0)
    assert fam.norms.shape == (2,) and fam.anchors.shape == (2, 64)
    assert fam.separation > 0


def test_separated_family_guards():
    with pytest.raises(InvalidInputError):
        cn.random_separated_family(19, 4, 64, seed=0)
    with pytest.raises(CapacityExceededError):
        cn.random_separated_family(20, 15, 64, seed=0)


# (d, m, n, seed, scale, max_resamples): four family blocks; a matrix scaled
# onto the Frobenius cap (n = 1 is never separated, so both draws are made);
# a seed whose first two draws are not separated; m = 1
_FAMILY_CASES = [(32, 9, 256, 1, 0.5, 20), (20, 8, 1, 0, 1.0, 2),
                 (32, 6, 8, 0, 0.5, 20), (25, 1, 64, 0, 0.5, 20)]


@pytest.mark.parametrize("case", _FAMILY_CASES, ids=str)
def test_block_built_family_bit_equal_to_the_stack(case):
    # every block's anchors and ball norms, and the separation fields, are
    # the ones the whole (2^m, n, d) stack gives
    d, m, n, seed, scale, tries = case
    fam = cn.random_separated_family(d, m, n, seed, max_resamples=tries, scale=scale)
    want = stack_zero_init_parts(d, m, n, seed, scale, tries)
    for name in ("points", "anchors", "norms", "separation", "separation_ok",
                 "resamples_used"):
        assert np.asarray(getattr(fam, name)).tobytes() == \
            np.asarray(want[name]).tobytes(), name
    if case == _FAMILY_CASES[0]:
        assert (1 << m) * n * d * 8 == 4 * cn.FAMILY_BLOCK_BYTES
    if case == _FAMILY_CASES[1]:
        assert np.isclose(want["norms"], math.sqrt(2 * d), rtol=1e-14).any()
        assert fam.resamples_used == 2 and not fam.separation_ok
    if case == _FAMILY_CASES[2]:
        assert fam.resamples_used == 3 and fam.separation_ok


def _exact_least_sq_distance(A):
    """The least exact squared distance between two rows of A, a Fraction:
    each pair whose Gram d2 lies within twice its error bound of the least
    Gram d2 is summed exactly."""
    N, n = A.shape
    sq = np.einsum("ij,ij->i", A, A)
    slack = 4.0 * gram_error(n) * float(sq.max())

    def gram_blocks():
        for a in range(0, N, 512):
            d2 = sq[a : a + 512, None] + sq[None, :] - 2.0 * (A[a : a + 512] @ A.T)
            d2[np.arange(N)[None, :] <= np.arange(a, a + len(d2))[:, None]] = np.inf
            yield a, d2

    least = min(float(d2.min()) for _, d2 in gram_blocks())
    pairs = [(a + i, j) for a, d2 in gram_blocks()
             for i, j in zip(*np.nonzero(d2 <= least + slack))]
    assert pairs
    return min(sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(A[i], A[j]))
               for i, j in pairs)


@pytest.mark.parametrize("case", _FAMILY_CASES, ids=str)
def test_anchor_separation_is_below_the_exact_closest_anchor_distance(case):
    d, m, n, seed, scale, tries = case
    fam = cn.random_separated_family(d, m, n, seed, max_resamples=tries, scale=scale)
    rho = cn._anchor_separation(fam.separation, fam.anchors)
    assert 0.0 < rho <= fam.separation
    assert Fraction(rho) ** 2 <= _exact_least_sq_distance(fam.anchors)


def test_resamples_used_counts_the_draws_made():
    # no draw of 20 reaches the target: the best (an earlier one) is kept
    fam = cn.random_separated_family(32, 6, 6, 0)
    assert not fam.separation_ok and fam.resamples_used == 20


def test_zero_init_anchors_and_norms_bit_equal_to_the_stack():
    # the instance holds the stack's anchors and ball norms
    inst = cn.zero_init_instance(4, 4, 0.25, 9, seed=2)
    want = stack_zero_init_parts(32, 9, 256, 2, 8 * 0.25 / 4)
    assert inst.witness_fn.anchors.tobytes() == want["anchors"].tobytes()
    assert cn._ball_distances(inst).tobytes() == want["norms"].tobytes()


def test_witness_for_refused_on_zero_init_and_built_on_the_encoded_kinds():
    zero = cn.zero_init_instance(4, 4, 0.25, 3, seed=1)
    for y in (0, 7):
        with pytest.raises(InvalidInputError, match="anchors"):
            zero.witness_for(y)
    for inst in (cn.nonzero_init_instance(3, 0.25), cn.convex_instance(3, 0.2)):
        for y in range(inst.num_labelings):
            W = inst.W0.copy()
            W[inst.m + y, inst.m] = math.sqrt(2.0)
            assert inst.witness_for(y).tobytes() == W.tobytes()
        with pytest.raises(InvalidInputError, match="out of range"):
            inst.witness_for(inst.num_labelings)


def _construct_and_verify_peaks(B, L, eps, m_cap, seed, n=256):
    """tracemalloc peaks of a zero-init build, and of verify on an instance
    rebuilt from its record, as the CLI runs them."""
    import tracemalloc

    tracemalloc.start()
    try:
        inst = cn.zero_init_instance(B, L, eps, m_cap, seed, n=n)
        built = tracemalloc.get_traced_memory()[1]
        record = inst.manifest()
        del inst
        tracemalloc.reset_peak()
        cn.verify_shattering(cn.instance_from_manifest(record))
        verified = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return built, verified


# (B, L, eps, m_cap, seed, n)
@pytest.mark.parametrize("size", [(4, 4, 0.25, 9, 1, 256), (8, 8, 0.25, 8, 1, 256),
                                  (4, 4, 0.25, 8, 1, 1), (4, 4, 0.25, 6, 0, 8)],
                         ids=["m9", "d512", "n1", "resamples"])
def test_zero_init_peaks_under_its_estimate(size):
    B, L, eps, m_cap, seed, n = size
    d = int(L * L * B * B / (128 * eps * eps))
    need = cn._zero_init_bytes(m_cap, n, d)
    built, verified = _construct_and_verify_peaks(*size[:5], n=n)
    assert built <= need and verified <= need, (built, verified, need)


def test_zero_init_peak_is_flat_in_d():
    # d = 32 to 512 at m_cap 8: the family is drawn a block at a time, so
    # the peak moves by at most one family block, where the stack moved it
    # by 2^m n (512 - 32) doubles
    low = max(_construct_and_verify_peaks(4, 4, 0.25, 8, 1))
    high = max(_construct_and_verify_peaks(8, 8, 0.25, 8, 1))
    assert high - low <= cn.FAMILY_BLOCK_BYTES, (low, high)


# ---------------------------------------------------------------------------

def test_zero_init_dimensions_and_ball():
    inst = cn.zero_init_instance(4, 4, 0.25, 4, seed=3)
    assert inst.d == 32  # floor(16*16/(128*0.0625))
    assert not inst.W0.any()
    want = zero_init_stack(inst)
    assert cn._ball_distances(inst).tobytes() == want["norms"].tobytes()
    assert inst.witness_fn.anchors.tobytes() == want["anchors"].tobytes()
    for y in range(inst.num_labelings):
        assert np.linalg.norm(want["witnesses"][y]) <= inst.B + 1e-9


def test_zero_init_verifies():
    inst = cn.zero_init_instance(4, 4, 0.25, 8, seed=3)
    rep = cn.verify_shattering(inst)
    assert inst.params["separation_ok"]
    assert rep.passed and rep.worst_slack >= -1e-12


def test_zero_init_m1():
    inst = cn.zero_init_instance(4, 4, 0.25, 1, seed=5)
    assert cn.verify_shattering(inst).passed


def test_zero_init_precondition_named():
    with pytest.raises(InvalidInputError, match="128"):
        cn.zero_init_instance(1, 1, 1.0, 4, seed=0)


# zero-init tables from each query's own anchor, against the Q loop.
# (B, L, eps) with d = floor(L^2 B^2 / (128 eps^2)) = 32, 32, 63, 128, 32, 28
_ZERO_SHAPES = [(4, 4, 0.25), (8, 2, 0.25), (6, 3, 0.2), (16, 1, 0.125),
                (8, 4, 0.5), (12, 5, 1.0)]


def _refuse_eval(self, X):
    raise AssertionError(f"{len(X)} zero-init rows left the certified path")


def _own_anchor_table_bit_equal(inst, rng):
    """Every block is certified (witness_values never calls the witness's
    eval) and the table is the Q loop's, bit for bit, on all labelings and
    on a repeated, unordered subset."""
    everything = np.arange(inst.num_labelings)
    ys = rng.integers(0, inst.num_labelings, size=inst.num_labelings // 2 + 3)
    ys[-1] = ys[0]
    want = q_loop_table(inst, everything), q_loop_table(inst, ys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AnchoredLipschitz, "eval", _refuse_eval)
        got = cn.witness_table(inst), cn.witness_values(inst, ys)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("shape", _ZERO_SHAPES, ids=str)
def test_zero_init_own_anchor_table_bit_equal_to_q_loop(shape):
    rng = np.random.default_rng(17)
    for m in range(1, 9):
        for seed in (1, 2, 3)[: 3 if m < 8 else 1]:
            _own_anchor_table_bit_equal(cn.zero_init_instance(*shape, m, seed), rng)


@pytest.mark.parametrize("m,seeds", [(9, (1, 2, 3)), (10, (4,))])
def test_zero_init_own_anchor_table_bit_equal_at_larger_m(m, seeds):
    rng = np.random.default_rng(m)
    for seed in seeds:
        _own_anchor_table_bit_equal(cn.zero_init_instance(4, 4, 0.25, m, seed), rng)


def test_zero_init_anchor_separation_is_below_the_anchor_distances():
    # the bound rests on the scan of the anchors; their distances, each
    # from its own difference, are at least it
    for m, seed in ((3, 1), (5, 2), (6, 3)):
        inst = cn.zero_init_instance(4, 4, 0.25, m, seed)
        rho = inst._anchor_separation
        A = inst.witness_fn.anchors
        least = min(np.linalg.norm(A[k + 1 :] - A[k], axis=1).min()
                    for k in range(len(A) - 1))
        assert 0.99 * inst.params["separation"] <= rho <= least


def _eval_rows_counted(monkeypatch):
    """The row count of every AnchoredLipschitz.eval call from now on."""
    rows = []
    original = AnchoredLipschitz.eval
    monkeypatch.setattr(AnchoredLipschitz, "eval",
                        lambda self, X: rows.append(len(X)) or original(self, X))
    return rows


def test_zero_init_below_feasible_slope_falls_back_to_q_loop(monkeypatch):
    # a slope a tenth of the feasible one: another value's anchor undercuts
    # the own one, so the certificate refuses every block, each block is
    # evaluated once, and verify reports the Q loop's failures
    inst = cn.zero_init_instance(4, 4, 0.25, 7, seed=3)
    inst.witness_fn.L *= 0.1
    everything = np.arange(inst.num_labelings)
    table = q_loop_table(inst, everything)
    rows = _eval_rows_counted(monkeypatch)
    assert cn.witness_table(inst).tobytes() == table.tobytes()
    assert rows == [inst.num_labelings * inst.m]
    bits = cn.labeling_bits(everything[:, None], inst.m)
    slack = np.where(bits == 1, table - inst.margin, -inst.margin - table)
    failing = np.argwhere(slack < -cn.SLACK_TOL)
    rep = cn.verify_shattering(inst)
    assert not rep.passed and rep.failure_count == len(failing) > 0
    assert rep.failures == [(int(y), int(i), float(table[y, i]))
                            for y, i in failing[:32]]
    assert rep.worst_slack == float(slack.min())


@pytest.mark.parametrize("shape", _ZERO_SHAPES, ids=str)
def test_zero_init_slope_is_the_least_feasible_one_on_separated_families(shape):
    # the slope taken from the separation scan is the one measured over
    # every anchor pair, wherever the family is separated
    B, L, eps = shape
    slope_budget = budget([-eps, eps], 2.0 * eps / L)
    for m in range(1, 9):
        for seed in (1, 2, 3):
            inst = cn.zero_init_instance(*shape, m, seed)
            assert inst.params["separation_ok"], (m, seed)
            fn = inst.witness_fn
            feasible = min_feasible_slope(fn.anchors, fn.values, "euclidean-vector")
            assert inst.params["witness_slope"] == fn.L == max(slope_budget, feasible)


def test_zero_init_slope_from_separation_on_unseparated_family(monkeypatch):
    # n = 1: the family is not separated and its closest anchor pair shares
    # a value, so the slope 2 eps / separation is above the least feasible
    # one; any feasible slope interpolates, so the Q loop passes
    eps, L = 0.25, 4
    inst = cn.zero_init_instance(4, L, eps, 3, seed=1, n=1)
    sep = inst.params["separation"]
    assert not inst.params["separation_ok"]
    slope = inst.params["witness_slope"]
    assert slope == inst.witness_fn.L == 2.0 * eps / sep
    fn = inst.witness_fn
    assert slope > min_feasible_slope(fn.anchors, fn.values, "euclidean-vector") > L
    rows = _eval_rows_counted(monkeypatch)
    rep = cn.verify_shattering(inst)
    assert rep.passed and rep.failure_count == 0
    # not every row certifies: the one block takes eval
    assert rows == [inst.num_labelings * inst.m]


@pytest.mark.parametrize("m_cap", range(3, 9))
def test_zero_init_n1_verifies_exactly(m_cap):
    # n = 1 is never separated, and the slope 2 eps / separation reaches
    # about 4.5e5 at m_cap 8; each query is its own anchor, so the table
    # holds +-eps exactly
    rep = cn.verify_shattering(cn.zero_init_instance(4, 4, 0.25, m_cap, 1, n=1))
    assert rep.passed and rep.worst_slack == 0.0 and rep.failure_count == 0


def test_zero_init_one_refused_block_alone_takes_eval(monkeypatch):
    # the certificate refuses block 1 of 4 and offers +1.0 there: that block
    # alone, its 128 m rows, goes through eval, and the table is the Q loop's
    inst = cn.zero_init_instance(4, 4, 0.25, 9, seed=1)
    m, refused = inst.m, 1
    want = q_loop_table(inst, np.arange(inst.num_labelings))
    original = AnchoredLipschitz.own_anchor_values

    def refuse_one(self, own, separation):
        vals, ok = original(self, own, separation)
        if own[0] == refused * cn.TABULATE_BLOCK * m:
            return np.ones_like(vals), np.zeros_like(ok)
        assert ok.all()
        return vals, ok

    monkeypatch.setattr(AnchoredLipschitz, "own_anchor_values", refuse_one)
    rows = _eval_rows_counted(monkeypatch)
    assert cn.witness_table(inst).tobytes() == want.tobytes()
    assert rows == [cn.TABULATE_BLOCK * m]


def test_zero_init_holds_no_pairwise_matrices():
    # the build holds its anchors (and, while the witness sorts them, a copy
    # and one block of its squares), a family block and the separation
    # scan's blocks, and no m 2^m square matrix
    # (the all-pairs slope held about 160 MB here)
    import tracemalloc

    m, n, d = 8, 256, 32
    N = m << m
    need = 8 * (2 * N * n + 2 * cn.FAMILY_BLOCK_BYTES // 8
                + 2 * _kernels._pair_block_rows(N) * N)
    tracemalloc.start()
    try:
        inst = cn.zero_init_instance(4, 4, 0.25, m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.d == d and inst.n == n
    assert peak <= need, (peak, need)


# ---------------------------------------------------------------------------

def test_nonzero_init_unit_ball_geometry():
    m, eps = 2, 0.25
    inst = cn.nonzero_init_instance(m, eps)
    r = math.sqrt(2.0)
    assert np.array_equal(inst.points, np.array([[1, 0, 1], [0, 1, 1]]) / r)
    q = set()
    for y in range(1 << m):
        Wy = inst.witness_for(y)
        assert np.linalg.norm(Wy - inst.W0) == r
        for i in range(m):
            z = Wy @ inst.points[i]
            assert np.flatnonzero(z).tolist() == [i, m + y]
            q.add((z[i], z[m + y]))
    # one (q_a, q_b) for every (i, y): the min-form witness reads its anchors off it
    assert q == {(inst.witness_fn.coord_a, inst.witness_fn.coord_b)}
    assert inst.witness_fn.coord_a == pytest.approx(2 * eps)
    assert inst.witness_fn.coord_b == pytest.approx(1.0)


def test_nonzero_init_rescaled_norms():
    inst = cn.nonzero_init_instance(8, 0.25)
    assert np.linalg.norm(inst.points, axis=1).max() <= 1.0 + 1e-12
    assert inst.B == pytest.approx(math.sqrt(2.0))
    assert inst.declared_w0_norm == pytest.approx(2 * math.sqrt(2) * 0.25, abs=1e-12)


def test_nonzero_init_exact_slack():
    rep = cn.verify_shattering(cn.nonzero_init_instance(8, 0.25))
    assert rep.passed
    assert rep.worst_slack == 0.0


def test_nonzero_init_m1_both_labelings():
    rep = cn.verify_shattering(cn.nonzero_init_instance(1, 0.25))
    assert rep.passed and rep.checked_labelings == 2


def test_nonzero_init_encoded_min_linf_distance():
    # exhaustive scan: min pairwise l-inf distance of the 2048 encoded points
    inst = cn.nonzero_init_instance(8, 0.25)
    A = dense_anchors(inst.witness_fn)
    best = np.inf
    for s in range(0, A.shape[0], 128):
        blk = A[s : s + 128]
        d = np.max(np.abs(blk[:, None, :] - A[None, :, :]), axis=2)
        d[d == 0.0] = np.inf
        best = min(best, d.min())
    assert best == pytest.approx(2 * 0.25, abs=1e-12)


def test_nonzero_init_deterministic():
    a = cn.nonzero_init_instance(5, 0.3)
    b = cn.nonzero_init_instance(5, 0.3)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.witness_for(17), b.witness_for(17))


def test_encoded_witness_matches_dense_form():
    inst = cn.nonzero_init_instance(4, 0.25)
    fn = inst.witness_fn
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, inst.n))
    assert np.allclose(fn.eval(X), anchored_min_form(fn, X), atol=1e-12)


# ---------------------------------------------------------------------------

def test_convex_verifies_and_margin_cases():
    inst = cn.convex_instance(6, 0.2)
    rep = cn.verify_shattering(inst)
    assert rep.passed
    # proof cases: +eps where bit set, -eps on the all-negative labeling
    W = inst.witness_for(0)
    assert np.allclose(inst.witness_fn.eval(inst.points @ W.T), -0.2, atol=1e-12)


def test_convex_eps_above_quarter_breaks_exactness():
    # mixed-label cross terms exceed the kappa=0.5 piece when eps > 0.25
    rep = cn.verify_shattering(cn.convex_instance(4, 0.3))
    assert not rep.passed


def test_convex_m16_allowed_for_lazy_use():
    inst = cn.convex_instance(16, 0.25)
    assert inst.num_labelings == 1 << 16
    with pytest.raises(CapacityExceededError):
        cn.verify_shattering(inst)


def test_convex_deterministic():
    a = cn.convex_instance(5, 0.2)
    b = cn.convex_instance(5, 0.2)
    assert np.array_equal(a.witness_for(9), b.witness_for(9))


# ---------------------------------------------------------------------------

def test_verify_agrees_with_brute_force():
    for inst in (
        cn.nonzero_init_instance(5, 0.25),
        cn.convex_instance(5, 0.2),
        cn.zero_init_instance(4, 4, 0.25, 4, seed=3),
    ):
        rep = cn.verify_shattering(inst)
        worst, failing = brute_force_verify(inst)
        assert rep.worst_slack == pytest.approx(worst, abs=1e-9)
        assert failing == []


def _with_entries(inst, rows=None, vals=None):
    """A copy of an encoded instance whose witnesses W_y = W0 + v_y e_{r_y}
    e_m^T read the given rows r and values v."""
    bad = copy.copy(inst)
    if rows is not None:
        bad._entry_row = rows
    if vals is not None:
        bad._entry_val = vals
    return bad


def _dense_oracle_table(inst):
    """The Q loop's table: every W_y built, every query a dense row."""
    return q_loop_table(inst, np.arange(inst.num_labelings))


def _same_as_dense_oracle(inst):
    """The table verify reads is the Q loop's, NaN for NaN, so the dense
    oracle reaches the same verdict on every check."""
    return np.array_equal(cn.witness_table(inst), _dense_oracle_table(inst),
                          equal_nan=True)


def test_verify_detects_corruption():
    inst = cn.nonzero_init_instance(4, 0.25)
    vals = inst._entry_val.copy()
    vals[5] = 0.0  # erase the labeling-encoding entry of W_5
    bad = _with_entries(inst, vals=vals)
    rep = cn.verify_shattering(bad)
    assert not rep.passed
    assert any(y == 5 for (y, i, v) in rep.failures)
    assert _same_as_dense_oracle(bad)


def test_verify_failures_in_labeling_order_and_capped(monkeypatch):
    # every labeling y encodes y ^ 0b11, so points 0 and 1 take the wrong
    # sign everywhere: 2 * 64 failing checks, listed y-major, first 32 kept
    inst = cn.nonzero_init_instance(6, 0.25)
    m = inst.m
    bad = _with_entries(inst, rows=m + (np.arange(1 << m) ^ 3))
    rep = cn.verify_shattering(bad)
    _, failing = brute_force_verify(bad)
    assert len(failing) == 128
    assert [(y, i) for (y, i, v) in rep.failures] == failing[:32]
    assert rep.failure_count == 128
    assert not rep.passed and rep.ball_ok
    monkeypatch.setattr(cn, "MAX_FAILURES", 5)
    assert len(cn.verify_shattering(bad).failures) == 5
    assert _same_as_dense_oracle(bad)


class _NanWitness:
    """Wraps a witness; the query W_y x_i at `at` = (y, i) (every query if
    None) reads NaN, whether it comes as TwoHotRows or as a dense row."""

    def __init__(self, inst, at=None):
        self.fn, self.at = inst.witness_fn, at
        if at is not None:
            self.row = inst.points[at[1]] @ inst.witness_for(at[0]).T

    def eval(self, Q):
        out = self.fn.eval(Q)
        if self.at is None:
            hit = True
        elif isinstance(Q, cn.TwoHotRows):
            hit = (Q.y == self.at[0]) & (Q.i == self.at[1])
        else:
            hit = (Q == self.row).all(axis=1)
        return np.where(hit, np.nan, out)


def test_verify_fails_on_nan():
    inst = cn.nonzero_init_instance(4, 0.25)
    bad = copy.copy(inst)
    bad.witness_fn = _NanWitness(inst)
    rep = cn.verify_shattering(bad)
    assert not rep.passed and math.isnan(rep.worst_slack)
    assert len(rep.failures) == 32
    assert _same_as_dense_oracle(bad)

    # a single NaN value at labeling 5, point 2
    bad.witness_fn = _NanWitness(inst, at=(5, 2))
    rep = cn.verify_shattering(bad)
    assert not rep.passed
    assert [(y, i) for (y, i, v) in rep.failures] == [(5, 2)]
    assert math.isnan(rep.failures[0][2])
    assert _same_as_dense_oracle(bad)

    # a NaN or +-inf entry in W_9: the ball check must reject it as well
    for entry in (np.nan, np.inf, -np.inf):
        vals = inst._entry_val.copy()
        vals[9] = entry
        bad = _with_entries(inst, vals=vals)
        with np.errstate(invalid="ignore"):
            rep = cn.verify_shattering(bad)
            assert _same_as_dense_oracle(bad), entry
        assert not rep.ball_ok and not rep.passed, entry


def test_verify_fails_a_w0_norm_1e_6_off_its_declaration():
    inst = cn.nonzero_init_instance(4, 0.25)
    bad = copy.copy(inst)
    bad.declared_w0_norm = inst.declared_w0_norm + 1e-6
    rep = cn.verify_shattering(bad)
    assert not rep.w0_norm_ok and not rep.passed
    assert rep.ball_ok and rep.failure_count == 0


def test_verify_fails_one_slack_of_minus_1e_9(monkeypatch):
    # the exact table, with the value at labeling 5, point 0 (label +1)
    # 1e-9 under eps
    inst = cn.nonzero_init_instance(4, 0.25)
    m = inst.m
    bits = cn.labeling_bits(np.arange(1 << m)[:, None], m)
    table = np.where(bits == 1, 0.25, -0.25)
    table[5, 0] = 0.25 - 1e-9
    monkeypatch.setattr(cn, "witness_table", lambda inst: table)
    rep = cn.verify_shattering(inst)
    assert not rep.passed and rep.failure_count == 1
    assert rep.failures == [(5, 0, 0.25 - 1e-9)]
    assert rep.worst_slack == (0.25 - 1e-9) - 0.25


@pytest.mark.parametrize("kind", ["nonzero-init", "convex"])
def test_verify_detects_wrong_labeling_encoding(kind, monkeypatch):
    # labeling 5 encodes labeling 4 instead: its queries stay two-hot, so
    # the closed-form path must be the one that finds the wrong sign
    inst = cn.nonzero_init_instance(4, 0.25) if kind == "nonzero-init" \
        else cn.convex_instance(4, 0.2)
    m, y_bad = inst.m, 5
    rows = inst._entry_row.copy()
    rows[y_bad] = m + (y_bad ^ 1)
    bad = _with_entries(inst, rows=rows)
    Q = inst.points @ bad.witness_for(y_bad).T
    assert np.array_equal(np.flatnonzero(Q[0]), [0, m + (y_bad ^ 1)])
    assert _same_as_dense_oracle(bad)

    def refuse(Q):
        raise AssertionError(f"{len(Q)} encoded rows took the dense path")

    monkeypatch.setattr(inst.witness_fn, "_eval_dense", refuse)
    rep = cn.verify_shattering(bad)
    assert not rep.passed and rep.ball_ok
    assert (y_bad, 0) in {(y, i) for (y, i, v) in rep.failures}


@pytest.mark.parametrize("m", range(1, 11))
def test_table_and_ball_bit_equal_to_dense_oracle(m):
    # eps = 0.3 is the convex instance that fails verify
    for inst in (cn.nonzero_init_instance(m, 0.25), cn.nonzero_init_instance(m, 0.1),
                 cn.convex_instance(m, 0.2), cn.convex_instance(m, 0.3)):
        table = cn.witness_table(inst)
        assert np.array_equal(table, _dense_oracle_table(inst))
        ys = np.array([(1 << m) - 1, 0, 1 % (1 << m), (1 << m) - 1])
        assert np.array_equal(cn.witness_values(inst, ys), table[ys])
        dense = [np.linalg.norm(inst.witness_for(y) - inst.W0)
                 for y in range(inst.num_labelings)]
        assert np.array_equal(cn._ball_distances(inst), dense)


def test_manifest_roundtrip():
    for inst, metric in (
        (cn.nonzero_init_instance(4, 0.25), "infinity"),
        (cn.convex_instance(4, 0.2), "infinity"),
        (cn.zero_init_instance(4, 4, 0.25, 3, seed=9, n=64), "euclidean-vector"),
    ):
        # the record's metric is the witness's
        assert inst.manifest()["metric"] == inst.witness_fn.metric == metric
        clone = cn.instance_from_manifest(inst.manifest())
        assert clone.manifest() == inst.manifest()
        assert np.array_equal(clone.points, inst.points)
        if inst.kind == "zero-init":
            assert np.array_equal(clone.witness_fn.anchors, inst.witness_fn.anchors)
            assert np.array_equal(cn._ball_distances(clone), cn._ball_distances(inst))
        else:
            assert np.array_equal(clone.witness_for(3), inst.witness_for(3))


# instance records as written when the encoded instances were built at
# radius sqrt(2) and then rescaled: params carry an always-true "rescaled",
# and the record an always-1.0 "domain_radius"
_RESCALED_RECORDS = [
    {"kind": "nonzero-init", "m": 4, "eps": 0.25, "d": 5, "n": 20,
     "B": 1.4142135623730951, "W0_norm": 0.7071067811865476,
     "metric": "infinity", "domain_radius": 1.0, "witness_fn": "EncodedMinForm",
     "params": {"rescaled": True}},
    {"kind": "convex", "m": 4, "eps": 0.25, "d": 5, "n": 20,
     "B": 1.4142135623730951, "W0_norm": 1.4142135623730951,
     "metric": "infinity", "domain_radius": 1.0,
     "witness_fn": "EncodedMaxAffine", "params": {"kappa": 0.5, "rescaled": True}},
]


@pytest.mark.parametrize("record", _RESCALED_RECORDS, ids=["nonzero-init", "convex"])
def test_manifest_with_rescaled_key_loads_to_fresh_build(record):
    inst = cn.instance_from_manifest(record)
    fresh = cn.nonzero_init_instance(4, 0.25) if record["kind"] == "nonzero-init" \
        else cn.convex_instance(4, 0.25)
    assert np.array_equal(inst.points, fresh.points)
    assert np.array_equal(inst.W0, fresh.W0)
    for y in range(inst.num_labelings):
        assert np.array_equal(inst.witness_for(y), fresh.witness_for(y))
    # the record is written back as before, less the dropped keys
    want = {k: v for k, v in record.items() if k != "domain_radius"}
    want["params"] = {k: v for k, v in record["params"].items() if k != "rescaled"}
    assert inst.manifest() == want


# ---------------------------------------------------------------------------
# closed-form evaluation on two-hot rows against the dense path

def _two_hot(m, n, i, y, q_a, q_b):
    """Rows q_a e_i + q_b e_{m+y} of R^n, as TwoHotRows and written out."""
    R = cn.TwoHotRows(n, np.asarray(i), np.asarray(y),
                      np.asarray(q_a, dtype=float), np.asarray(q_b, dtype=float))
    k = np.arange(R.shape[0])
    Q = np.zeros(R.shape)
    Q[k, R.i] = R.q_a
    Q[k, m + R.y] = R.q_b
    return R, Q


def _encoded_queries(inst):
    """Every W_y x_i, read off the dense products as TwoHotRows, and the
    products themselves."""
    m = inst.m
    Q = np.concatenate([inst.points @ inst.witness_for(y).T
                        for y in range(inst.num_labelings)])
    i = np.tile(np.arange(m), inst.num_labelings)
    y = np.repeat(np.arange(inst.num_labelings), m)
    k = np.arange(Q.shape[0])
    R, written = _two_hot(m, inst.n, i, y, Q[k, i], Q[k, m + y])
    assert np.array_equal(written, Q)   # the products are two-hot
    return R, Q


def _probe_rows(m, n, rng, count=300):
    """All-zero, one-hot and two-hot rows mixing signed zeros, exact values
    and Gaussian draws, as TwoHotRows and written out."""
    special = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-300, 3.0])
    i = rng.integers(0, m, size=count)
    y = rng.integers(0, 1 << m, size=count)
    q_a, q_b = np.zeros(count), np.zeros(count)
    for r in range(count):
        kind = r % 4
        if kind == 0 and r % 8 == 0:
            q_a[r] = q_b[r] = -0.0
        if kind in (1, 3):
            q_a[r] = rng.choice(special) if r % 2 else rng.standard_normal()
        if kind in (2, 3):
            q_b[r] = rng.choice(special) if r % 3 else rng.standard_normal()
    return _two_hot(m, n, i, y, q_a, q_b)


def _dense_min_form(fn, Q):
    """The min-form witness by the anchor-by-anchor kernel."""
    return _kernels.encoded_min_eval(Q, *min_form_anchors(fn.m, fn.eps),
                                     fn.coord_a, fn.coord_b)


def _dense_max_affine(fn, Q):
    """The convex witness by gathering every piece."""
    j_arr, zc_arr = max_affine_pieces(fn.m)
    piece_vals = 0.5 * (Q[:, j_arr] + Q[:, zc_arr])
    return np.maximum(piece_vals.max(axis=1), fn.kappa) + fn.shift


def _refuse(Q):
    raise AssertionError(f"{len(Q)} rows took the wrong path")


@pytest.mark.parametrize("m", range(1, 9))
def test_min_form_bit_equal_to_dense_kernel(m, monkeypatch):
    rng = np.random.default_rng(m)
    for eps in (0.1, 0.25, 0.5):
        inst = cn.nonzero_init_instance(m, eps)
        fn = inst.witness_fn
        monkeypatch.setattr(fn, "_eval_dense", _refuse)
        for R, Q in (_encoded_queries(inst), _probe_rows(m, inst.n, rng)):
            assert np.array_equal(fn.eval(R), _dense_min_form(fn, Q)), eps


@pytest.mark.parametrize("m", range(1, 9))
def test_max_affine_bit_equal_to_dense_formula(m, monkeypatch):
    rng = np.random.default_rng(100 + m)
    # eps = 0.3 is the instance that fails verify; a negative floor lets
    # the all-zero pieces decide
    for eps, kappa in ((0.2, 0.5), (0.25, 0.5), (0.3, 0.5), (0.25, -1.0)):
        inst = cn.convex_instance(m, eps, kappa)
        fn = inst.witness_fn
        for R, Q in (_encoded_queries(inst), _probe_rows(m, inst.n, rng)):
            want = _dense_max_affine(fn, Q)
            assert np.array_equal(fn.eval(Q), want), (eps, kappa)
            with monkeypatch.context() as mp:
                mp.setattr(fn, "_eval_dense", _refuse)
                assert np.array_equal(fn.eval(R), want), (eps, kappa)


def test_two_hot_routing(monkeypatch):
    # TwoHotRows take the closed form and arrays the dense path, whatever
    # their rows hold.  q_a = (W0 x_i)_i is finite on every instance; with a
    # finite q_a the closed form equals the dense path also at a NaN or
    # +-inf q_b, as a non-finite witness entry v_y gives
    for inst, dense in ((cn.nonzero_init_instance(5, 0.25), _dense_min_form),
                        (cn.convex_instance(5, 0.25), _dense_max_affine)):
        fn = inst.witness_fn
        R, Q = _encoded_queries(inst)
        want = dense(fn, Q)
        with monkeypatch.context() as mp:
            mp.setattr(fn, "_eval_dense", _refuse)
            assert np.array_equal(fn.eval(R), want)
        with monkeypatch.context() as mp:
            mp.setattr(fn, "_eval_two_hot", _refuse)
            assert np.array_equal(fn.eval(Q), want)
    for m in (1, 2, 5):
        for inst, dense in ((cn.nonzero_init_instance(m, 0.25), _dense_min_form),
                            (cn.convex_instance(m, 0.25), _dense_max_affine)):
            fn = inst.witness_fn
            q_a = np.diagonal(inst.points @ inst.W0.T)[0]
            rows = list(itertools.product(
                range(m), sorted({0, 1, (1 << m) - 1, 1 << (m - 1)}),
                [q_a, -0.7, 0.0], [np.nan, np.inf, -np.inf]))
            R, Q = _two_hot(m, inst.n, *map(list, zip(*rows)))
            with np.errstate(invalid="ignore"):
                want = dense(fn, Q)
                with monkeypatch.context() as mp:
                    mp.setattr(fn, "_eval_dense", _refuse)
                    got = fn.eval(R)
                assert np.array_equal(got, want, equal_nan=True), (m, inst.kind)
                assert np.array_equal(fn.eval(Q), want, equal_nan=True)


@pytest.mark.parametrize("m", range(1, 11))
def test_max_affine_recurrence_bit_equal_to_gather(m):
    # the best piece per z, from the subset-max recurrence, against the
    # gather over all m 2^(m-1) pieces: random, sparse, W0-like and
    # perturbed rows, signed zeros, subnormals, +-1e308 and NaN
    rng = np.random.default_rng(300 + m)
    inst = cn.convex_instance(m, 0.25)
    n = inst.n
    Q = rng.standard_normal((240, n))
    Q[40:80][rng.random((40, n)) < 0.8] = 0.0
    Q[80:120] = inst.points[np.arange(40) % m] @ inst.W0.T
    Q[120:160] = Q[80:120] + 1e-3 * rng.standard_normal((40, n))
    Q[160:200] *= -0.0
    special = np.array([np.nan, 5e-324, -5e-324, 1e308, -1e308, -0.0, 0.0])
    hit = rng.random((240, n)) < 0.03
    Q[hit] = rng.choice(special, size=hit.sum())
    for kappa in (0.5, -1.0, -np.inf):
        fn = cn.EncodedMaxAffine(m, n, 0.25, kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = fn.eval(Q), _dense_max_affine(fn, Q)
        assert np.array_equal(got, want, equal_nan=True), kappa
        assert np.array_equal(np.signbit(got), np.signbit(want)), kappa
        assert np.isnan(got).any() and not np.isnan(got).all()
    # a row holding both +inf and -inf stays non-finite (the gather reads
    # NaN, the recurrence may read +inf)
    fn = cn.EncodedMaxAffine(m, n, 0.25, 0.5)
    Q = np.zeros((2, n))
    Q[:, 0] = [np.inf, -np.inf]
    Q[:, m + 1] = [-np.inf, np.inf]
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(fn.eval(Q)).any()
        assert np.isnan(_dense_max_affine(fn, Q)).all()
    assert fn.num_pieces == max_affine_pieces(m)[0].size


# ---------------------------------------------------------------------------
# stacked loss_subgrad against the dense gather+argmax subgradient

def _subgrad_cases(inst, rng):
    """(W, x) pairs: W0 at the encoded points (every t_z is 0), small
    integer entries (many exact ties), Gaussian W, W scaled so that the
    best piece lands just below or above kappa, NaN entries, and subnormal
    pieces that tie only after halving."""
    W0, X = inst.W0, inst.points
    cases = [(W0, x) for x in X]
    for k in range(12):
        x = X[k % inst.m] if k % 2 else rng.standard_normal(inst.d)
        cases.append((rng.integers(-1, 2, size=W0.shape).astype(float), x))
        cases.append((W0 + rng.standard_normal(W0.shape), x))
    m = inst.m
    for scale in (0.99, 1.0, 1.01):
        W = W0 + 0.1 * rng.standard_normal(W0.shape)
        x = X[rng.integers(0, inst.m)]
        z = W @ x
        j_arr, zc_arr = max_affine_pieces(m)
        top = (0.5 * (z[j_arr] + z[zc_arr])).max()
        cases.append((W * (scale * inst.witness_fn.kappa / top), x))
    # NaN in t_0 (z = 0 has no pieces), in a later t_z, and in a_j
    for row in (m, m + min(2, (1 << m) - 1), m - 1):
        W = W0.copy()
        W[row, -1] = np.nan
        cases.append((W, X[0]))
    if m >= 2:
        # 0.5*(3u) and 0.5*(4u) round to the same subnormal: pieces that
        # tie only after halving, first across z, then within z = 3
        u = 5e-324
        x = np.zeros(inst.d)
        x[-1] = 1.0
        for t_rest in (0.0, -1.0):
            W = np.zeros_like(W0)
            W[m:, -1] = t_rest
            W[m + 3, -1] = 0.0
            W[0, -1], W[1, -1] = 3 * u, 4 * u
            cases.append((W, x))
    return cases


@pytest.mark.parametrize("m", range(1, 9))
def test_loss_subgrad_bit_equal_to_dense_argmax(m):
    rng = np.random.default_rng(200 + m)
    inst = cn.convex_instance(m, 0.25)
    fn = inst.witness_fn
    cases = _subgrad_cases(inst, rng)
    Ws = np.stack([W for W, _ in cases])
    Xs = np.stack([x for _, x in cases])
    fired = 0
    # all cases stacked, then each on its own (S = 1); W given on every row,
    # and on the rows that are nonzero in some case of the stack
    for sl, every in itertools.product(
            [slice(None)] + [slice(k, k + 1) for k in range(len(cases))],
            (True, False)):
        live = np.flatnonzero(every | (Ws[sl] != 0).any(axis=(0, 2)))
        loss, rows, G = fn.loss_subgrad(live, Ws[sl][:, live], Xs[sl])
        for s, k in enumerate(range(len(cases))[sl]):
            want_loss, want_V, want_piece = dense_loss_subgrad(fn, Ws[k], Xs[k])
            V = np.zeros_like(Ws[k])
            V[rows[s]] = G[s]
            assert loss[s] == want_loss, k
            assert tuple(rows[s]) == want_piece, k
            assert np.array_equal(V, want_V), k
            fired += bool(want_V.any())
    assert 0 < fired < len(cases) * 4
