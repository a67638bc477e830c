import copy
import math

import numpy as np
import pytest

from caplab import _kernels
from caplab import constructions as cn
from caplab.errors import CapacityExceededError, InvalidInputError


def brute_force_verify(inst):
    """Independent re-check: loops nested point-major, scalar witness calls.

    Returns the worst slack and the failing (y, i) pairs in y-major order."""
    worst = math.inf
    failing = []
    for i in range(inst.m):
        x = inst.points[i]
        for y in range(inst.num_labelings):
            W = inst.witness_for(y)
            val = inst.witness_fn(W @ x)
            want_pos = (y >> i) & 1
            eps = inst.margin
            slack = val - eps if want_pos else -eps - val
            worst = min(worst, slack)
            if not slack >= -cn.SLACK_TOL:
                failing.append((y, i))
    return worst, sorted(failing)


# ---------------------------------------------------------------------------

def test_separated_family_properties():
    fam = cn.random_separated_family(20, 4, 256, seed=7)
    assert np.allclose(np.linalg.norm(fam.points, axis=1), 1.0)
    fro2 = np.sum(fam.matrices.reshape(16, -1) ** 2, axis=1)
    assert np.all(fro2 <= 2 * 20 + 1e-9)
    # exhaustive pairwise oracle for the recorded separation
    enc = np.einsum("snd,md->smn", fam.matrices, fam.points).reshape(-1, 256)
    d = np.linalg.norm(enc[:, None] - enc[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert fam.separation == pytest.approx(d.min(), abs=1e-12)
    assert fam.separation_ok == (fam.separation >= 0.25)


def test_separated_family_m1():
    fam = cn.random_separated_family(25, 1, 64, seed=0)
    assert fam.matrices.shape[0] == 2
    assert fam.separation > 0


def test_separated_family_guards():
    with pytest.raises(InvalidInputError):
        cn.random_separated_family(19, 4, 64, seed=0)
    with pytest.raises(CapacityExceededError):
        cn.random_separated_family(20, 15, 64, seed=0)


# ---------------------------------------------------------------------------

def test_zero_init_dimensions_and_ball():
    inst = cn.zero_init_instance(4, 4, 0.25, 4, seed=3)
    assert inst.d == 32  # floor(16*16/(128*0.0625))
    assert not inst.W0.any()
    for y in range(inst.num_labelings):
        assert np.linalg.norm(inst.witness_for(y)) <= inst.B + 1e-9


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
    A = inst.witness_fn.anchors_dense()
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
    dense = fn.to_anchored()
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, inst.n))
    assert np.allclose(fn.eval(X), dense.eval(X), atol=1e-12)


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


def test_verify_detects_corruption():
    inst = cn.nonzero_init_instance(4, 0.25)
    good = inst._witness_supplier

    def corrupt(y):
        W = good(y)
        if y == 5:
            W = W.copy()
            W[inst.m + y] = 0.0  # erase the labeling-encoding row
        return W

    bad = copy.copy(inst)
    bad._witness_supplier = corrupt
    rep = cn.verify_shattering(bad)
    assert not rep.passed
    assert any(y == 5 for (y, i, v) in rep.failures)


def test_verify_failures_in_labeling_order_and_capped():
    # every labeling y encodes y ^ 0b11, so points 0 and 1 take the wrong
    # sign everywhere: 2 * 64 failing checks, listed y-major, first 32 kept
    inst = cn.nonzero_init_instance(6, 0.25)
    m, good = inst.m, inst._witness_supplier

    def corrupt(y):
        W = good(y).copy()
        W[[m + y, m + (y ^ 3)]] = W[[m + (y ^ 3), m + y]]
        return W

    bad = copy.copy(inst)
    bad._witness_supplier = corrupt
    rep = cn.verify_shattering(bad)
    _, failing = brute_force_verify(bad)
    assert len(failing) == 128
    assert [(y, i) for (y, i, v) in rep.failures] == failing[:32]
    assert not rep.passed and rep.ball_ok
    assert len(cn.verify_shattering(bad, max_failures=5).failures) == 5


class _NanWitness:
    """Wraps a witness; rows equal to `row` (every row if None) read NaN."""

    def __init__(self, fn, row=None):
        self.fn, self.row = fn, row

    def eval(self, Q):
        out = self.fn.eval(Q)
        hit = True if self.row is None else (Q == self.row).all(axis=1)
        return np.where(hit, np.nan, out)


def test_verify_fails_on_nan():
    inst = cn.nonzero_init_instance(4, 0.25)
    bad = copy.copy(inst)
    bad.witness_fn = _NanWitness(inst.witness_fn)
    rep = cn.verify_shattering(bad)
    assert not rep.passed and math.isnan(rep.worst_slack)
    assert len(rep.failures) == 32

    # a single NaN value at labeling 5, point 2
    bad.witness_fn = _NanWitness(inst.witness_fn,
                                 inst.points[2] @ inst.witness_for(5).T)
    rep = cn.verify_shattering(bad)
    assert not rep.passed
    assert [(y, i) for (y, i, v) in rep.failures] == [(5, 2)]
    assert math.isnan(rep.failures[0][2])

    # a NaN entry in W_9: the ball check must reject it as well
    good = inst._witness_supplier

    def nan_entry(y):
        W = good(y)
        if y == 9:
            W = W.copy()
            W[inst.m + 3, 0] = np.nan
        return W

    bad = copy.copy(inst)
    bad._witness_supplier = nan_entry
    rep = cn.verify_shattering(bad)
    assert not rep.ball_ok and not rep.passed


@pytest.mark.parametrize("kind", ["nonzero-init", "convex"])
def test_verify_detects_wrong_labeling_encoding(kind):
    # labeling 5 encodes labeling 4 instead: its queries stay two-hot, so
    # the closed-form path must be the one that finds the wrong sign
    inst = cn.nonzero_init_instance(4, 0.25) if kind == "nonzero-init" \
        else cn.convex_instance(4, 0.2)
    m, y_bad = inst.m, 5
    good = inst._witness_supplier

    def corrupt(y):
        W = good(y)
        if y == y_bad:
            W = W.copy()
            W[[m + y, m + (y ^ 1)]] = W[[m + (y ^ 1), m + y]]
        return W

    bad = copy.copy(inst)
    bad._witness_supplier = corrupt
    assert cn._split_two_hot(inst.points @ corrupt(y_bad).T, m)[0].all()
    rep = cn.verify_shattering(bad)
    assert not rep.passed and rep.ball_ok
    assert (y_bad, 0) in {(y, i) for (y, i, v) in rep.failures}


def test_manifest_roundtrip():
    for inst in (
        cn.nonzero_init_instance(4, 0.25),
        cn.convex_instance(4, 0.2),
        cn.zero_init_instance(4, 4, 0.25, 3, seed=9, n=64),
    ):
        clone = cn.instance_from_manifest(inst.manifest())
        assert np.array_equal(clone.points, inst.points)
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

def _encoded_queries(inst):
    return np.concatenate([inst.points @ inst.witness_for(y).T
                           for y in range(inst.num_labelings)])


def _probe_rows(m, n, rng, count=300):
    """All-zero, one-hot and two-hot rows mixing signed zeros, exact values
    and Gaussian draws, then a few dense rows."""
    special = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-300, 3.0])
    R = np.zeros((count, n))
    for r in range(count):
        kind = r % 4
        if kind == 0 and r % 8 == 0:
            R[r] = -0.0
        if kind in (1, 3):
            R[r, rng.integers(0, m)] = rng.choice(special) if r % 2 \
                else rng.standard_normal()
        if kind in (2, 3):
            R[r, m + rng.integers(0, 1 << m)] = rng.choice(special) if r % 3 \
                else rng.standard_normal()
    return np.concatenate([R, rng.standard_normal((4, n))])


def _dense_min_form(fn, Q):
    return _kernels.encoded_min_eval(Q, fn.j_arr, fn.zc_arr, fn.vals,
                                     fn.coord_a, fn.coord_b)


def _dense_max_affine(fn, Q):
    piece_vals = 0.5 * (Q[:, fn.j_arr] + Q[:, fn.zc_arr])
    return np.maximum(piece_vals.max(axis=1), fn.kappa) + fn.shift


@pytest.mark.parametrize("m", range(1, 9))
def test_min_form_bit_equal_to_dense_kernel(m):
    rng = np.random.default_rng(m)
    for eps in (0.1, 0.25, 0.5):
        inst = cn.nonzero_init_instance(m, eps)
        Q = np.concatenate([_encoded_queries(inst), _probe_rows(m, inst.n, rng)])
        fn = inst.witness_fn
        assert np.array_equal(fn.eval(Q), _dense_min_form(fn, Q)), eps


@pytest.mark.parametrize("m", range(1, 9))
def test_max_affine_bit_equal_to_dense_formula(m):
    rng = np.random.default_rng(100 + m)
    # eps = 0.3 is the instance that fails verify; a negative floor lets
    # the all-zero pieces decide
    for eps, kappa in ((0.2, 0.5), (0.25, 0.5), (0.3, 0.5), (0.25, -1.0)):
        inst = cn.convex_instance(m, eps, kappa)
        Q = np.concatenate([_encoded_queries(inst), _probe_rows(m, inst.n, rng)])
        fn = inst.witness_fn
        assert np.array_equal(fn.eval(Q), _dense_max_affine(fn, Q)), (eps, kappa)


def test_two_hot_routing(monkeypatch):
    min_form = cn.nonzero_init_instance(5, 0.25)
    convex = cn.convex_instance(5, 0.25)
    m, n = min_form.m, min_form.n
    for enc in (min_form, convex):
        def refuse(Q):
            raise AssertionError(f"{len(Q)} encoded rows took the dense path")
        monkeypatch.setattr(enc.witness_fn, "_eval_dense", refuse)
        enc.witness_fn.eval(_encoded_queries(enc))
        monkeypatch.undo()
    rng = np.random.default_rng(0)
    R = np.zeros((6, n))
    R[0, [1, 2]] = 1.0                # two nonzeros among the first m
    R[1, [m + 3, m + 7]] = 1.0        # two among the last 2^m
    R[2, [0, m]] = [np.inf, 1.0]      # two-hot but not finite
    R[3, [0, m]] = [1.0, np.nan]
    R[4:] = rng.standard_normal((2, n))
    assert not cn._split_two_hot(R, m)[0].any()
    for fn, dense in ((min_form.witness_fn, _dense_min_form),
                      (convex.witness_fn, _dense_max_affine)):
        assert np.array_equal(fn.eval(R), dense(fn, R), equal_nan=True)
    # a nonzero past the 2^m encoding coordinates is not an encoded row
    wide = cn.EncodedMinForm(3, 3 + 8 + 1, 0.25, 0.5, 1.0)
    R = np.zeros((1, wide.n))
    R[0, [0, wide.n - 1]] = [0.5, 1.0]
    assert not cn._split_two_hot(R, 3)[0].any()
    assert np.array_equal(wide.eval(R), _dense_min_form(wide, R))


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
    for scale in (0.99, 1.0, 1.01):
        W = W0 + 0.1 * rng.standard_normal(W0.shape)
        x = X[rng.integers(0, inst.m)]
        z = W @ x
        top = (0.5 * (z[inst.witness_fn.j_arr] + z[inst.witness_fn.zc_arr])).max()
        cases.append((W * (scale * inst.witness_fn.kappa / top), x))
    m = inst.m
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
    from tests_helpers_regret import dense_loss_subgrad
    rng = np.random.default_rng(200 + m)
    inst = cn.convex_instance(m, 0.25)
    fn = inst.witness_fn
    cases = _subgrad_cases(inst, rng)
    Ws = np.stack([W for W, _ in cases])
    Xs = np.stack([x for _, x in cases])
    fired = 0
    # all cases stacked, then each on its own (S = 1)
    for sl in [slice(None)] + [slice(k, k + 1) for k in range(len(cases))]:
        loss, rows, G = fn.loss_subgrad(Ws[sl], Xs[sl])
        for s, k in enumerate(range(len(cases))[sl]):
            want_loss, want_V, want_piece = dense_loss_subgrad(fn, Ws[k], Xs[k])
            V = np.zeros_like(Ws[k])
            V[rows[s]] = G[s]
            assert loss[s] == want_loss, k
            assert tuple(rows[s]) == want_piece, k
            assert np.array_equal(V, want_V), k
            fired += bool(want_V.any())
    assert 0 < fired < len(cases) * 2
