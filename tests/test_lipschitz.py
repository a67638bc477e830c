from types import SimpleNamespace

import numpy as np
import pytest

from caplab import lipschitz as lz
from caplab.constructions import EncodedMaxAffine
from caplab.errors import InvalidInputError
from oracles import max_metric_min_form


def test_budget_examples():
    eps, L0 = 0.25, 4.0
    assert lz.budget([-eps, eps], 2 * eps / L0) == pytest.approx(L0)
    assert lz.budget([1.0, 1.0, 1.0], 0.3) == 0.0
    assert lz.budget([0.0, 1.0, 5.0], 2.0) == pytest.approx(2.5)
    with pytest.raises(InvalidInputError):
        lz.budget([], 1.0)
    with pytest.raises(InvalidInputError):
        lz.budget([1.0], 0.0)


def test_budget_times_alpha_identity():
    # for values {+-eps} the needed slope times the separation is 2 eps
    for eps in (0.1, 0.25, 0.5):
        for alpha in (0.125, 0.4, 1.0):
            assert lz.budget([-eps, eps], alpha) * alpha == pytest.approx(2 * eps)


# The McShane extension of anchor values at slope L is the min-form
# interpolant: AnchoredLipschitz in the Euclidean metric, the tests' oracle
# in the max metric; min_feasible_slope is the least such L.

def mcshane(A, p, L, metric):
    if metric == "euclidean-vector":
        return lz.AnchoredLipschitz(A, p, L)
    return SimpleNamespace(eval=lambda X: max_metric_min_form(A, p, L, X))


def test_mcshane_single_anchor():
    f = lz.AnchoredLipschitz([[0.0, 0.0]], [3.0], 1.0)
    assert f([0.0, 0.0]) == pytest.approx(3.0)
    assert f([3.0, 4.0]) == pytest.approx(8.0)


def test_mcshane_midpoint():
    f = lz.AnchoredLipschitz([[0.0], [2.0]], [0.0, 2.0], 1.0)
    assert f([1.0]) == pytest.approx(1.0)


def test_mcshane_interpolates_exactly():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((50, 5))
    p = rng.standard_normal(50)
    for metric in ("euclidean-vector", "infinity"):
        slope = lz.min_feasible_slope(A, p, metric)
        f = mcshane(A, p, slope * 1.5, metric)
        assert np.abs(f.eval(A) - p).max() <= 1e-12


def test_mcshane_measured_slope_within_budget():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((50, 5))
    p = rng.standard_normal(50)
    for metric in ("euclidean-vector", "infinity"):
        L = lz.min_feasible_slope(A, p, metric) * 1.2
        f = mcshane(A, p, L, metric)
        meas = lz.empirical_lipschitz(
            f, lambda r: 2 * r.standard_normal(5), metric, 10000, 3)
        assert meas <= L + 1e-9


def test_duplicate_anchor_conflict():
    with pytest.raises(InvalidInputError):
        lz.min_feasible_slope([[1.0], [1.0]], [0.0, 1.0], "euclidean-vector")


def _thm36_style(m, eps, kappa=0.5):
    n = (1 << m) + m
    return EncodedMaxAffine(m, n, eps, kappa), n


def test_max_affine_margin_cases():
    m, eps = 3, 0.25
    f, n = _thm36_style(m, eps)
    # +eps labeled point: input 4 eps e_i + e_{m+y} with bit i of y set
    x = np.zeros(n)
    y = 0b101
    x[0] = 4 * eps
    x[m + y] = 1.0
    assert f(x) == pytest.approx(eps, abs=1e-12)
    # all-negative labeling: y = 0, any point index
    x = np.zeros(n)
    x[1] = 4 * eps
    x[m + 0] = 1.0
    assert f(x) == pytest.approx(-eps, abs=1e-12)


def test_max_affine_midpoint_convexity():
    f, n = _thm36_style(3, 0.2)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((10000, n))
    B = rng.standard_normal((10000, n))
    slack = 0.5 * (f.eval(A) + f.eval(B)) - f.eval(0.5 * (A + B))
    assert slack.min() >= -1e-12


def test_max_affine_lipschitz_bound():
    f, n = _thm36_style(3, 0.2)
    meas = lz.empirical_lipschitz(
        f, lambda r: r.standard_normal(n), "euclidean-vector", 10000, 9)
    assert meas <= f.piece_dual_norm() + 1e-9


def test_max_affine_dimension_mismatch():
    f, n = _thm36_style(2, 0.2)
    with pytest.raises(InvalidInputError):
        f.eval(np.zeros((1, n + 1)))


def test_empirical_lipschitz_linear():
    w = np.array([1.2, -1.6])  # norm 2
    f = lambda x: float(w @ x)
    got = lz.empirical_lipschitz(
        f, lambda r: r.standard_normal(2), "euclidean-vector", 2000, 0)
    assert got <= 2.0 + 1e-12
    assert got >= 1.5  # random pairs get close to the true constant


def test_empirical_lipschitz_constant():
    got = lz.empirical_lipschitz(
        lambda x: 7.0, lambda r: r.standard_normal(3),
        "euclidean-vector", 100, 1)
    assert got == 0.0


def test_empirical_lipschitz_refuses_an_unknown_metric():
    with pytest.raises(InvalidInputError, match="unsupported metric 'max'"):
        lz.empirical_lipschitz(lambda x: 0.0, lambda r: r.standard_normal(3),
                               "max", 10, 0)


@pytest.mark.parametrize("metric", ["euclidean-vector", "infinity"])
def test_empirical_lipschitz_bit_equal_to_stacked_pairs(metric):
    # the pairs drawn u, v, u, v, ... and stacked, the distances of U - V
    from caplab.constructions import nonzero_init_instance
    f = nonzero_init_instance(4, 0.25).witness_fn
    rng = np.random.default_rng(6)
    pairs = [(0.3 * rng.standard_normal(f.n), 0.3 * rng.standard_normal(f.n))
             for _ in range(500)]
    U, V = np.vstack([u for u, _ in pairs]), np.vstack([v for _, v in pairs])
    d = (np.linalg.norm(U - V, axis=1) if metric == "euclidean-vector"
         else np.max(np.abs(U - V), axis=1))
    want = float(np.max(np.abs(f.eval(U) - f.eval(V)) / d))
    got = lz.empirical_lipschitz(f, lambda r: 0.3 * r.standard_normal(f.n),
                                 metric, 500, 6)
    assert got == want


# ---------------------------------------------------------------------------
# the euclidean min-form against the Gram scan it replaces, bit for bit

def gram_min_form_eval(f, X, chunk=1024):
    """The Gram scan: every anchor's distance, as sqrt(max(d2, 0)) of
    |q|^2 + |a|^2 - (2q).a, or np.linalg.norm of the difference where that
    distance is below 1e-6; then the min of p + L d over all anchors."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(X.shape[0])
    A = f.anchors
    a_sq = np.sum(A * A, axis=1)
    for s in range(0, X.shape[0], chunk):
        Q = X[s : s + chunk]
        d2 = np.sum(Q * Q, axis=1)[:, None] + a_sq[None, :] - 2.0 * Q @ A.T
        d = np.sqrt(np.maximum(d2, 0.0))
        near = np.argwhere(d < 1e-6)
        if near.size:
            qi, ai = near[:, 0], near[:, 1]
            d[qi, ai] = np.linalg.norm(Q[qi] - A[ai], axis=1)
        out[s : s + chunk] = np.min(f.values[None, :] + f.L * d, axis=1)
    return out


def _same_bits(f, X):
    return f.eval(X).tobytes() == gram_min_form_eval(f, X).tobytes()


def _zero_init_table(m, seed):
    from caplab.constructions import zero_init_instance
    from oracles import zero_init_stack
    inst = zero_init_instance(4, 4, 0.25, m, seed)
    W = zero_init_stack(inst)["witnesses"]
    Q = np.vstack([inst.points @ W[y].T for y in range(1 << m)])
    return inst.witness_fn, Q


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zero_init_table_bit_equal_to_gram_scan(m, seed):
    f, Q = _zero_init_table(m, seed)
    # row k is anchor k up to rounding, so every row takes the near path
    own = np.sum(Q * Q, axis=1) + np.sum(f.anchors**2, axis=1) \
        - 2.0 * np.einsum("ij,ij->i", Q, f.anchors)
    assert (own < lz.T_NEAR).all()
    assert _same_bits(f, Q)


def test_row_counts_that_cut_the_blocks_bit_equal_to_gram_scan():
    f, Q = _zero_init_table(9, 1)
    rows = lz.ANCHOR_BLOCK_BYTES // (8 * f.anchors.shape[0])
    assert 2 < rows < 1024
    rng = np.random.default_rng(3)
    Q = np.vstack([Q[rng.permutation(len(Q))[: 3 * rows]],
                   0.05 * rng.standard_normal((rows, Q.shape[1]))])
    # a lone last row joins the block before it
    for n in (0, 1, 2, rows - 1, rows + 1, 2 * rows + 1, 3 * rows + 5):
        assert _same_bits(f, Q[:n])


# OpenBLAS can round an entry of Q A^T differently when its column falls in
# a partial tile of 8 columns, or when the product has only a few rows
# against a few hundred columns (seen up to 5 rows at 160 columns).  So these
# anchor counts are multiples of 8 and each X is one block, as in the Gram
# scan: the sorted anchors then get the same product entries.
def _random_min_form(rng, values, L=1.3, d=7):
    return lz.AnchoredLipschitz(rng.standard_normal((len(values), d)), values, L)


@pytest.mark.parametrize("values", ["distinct", "ties", "single"])
def test_random_queries_bit_equal_to_gram_scan(values):
    rng = np.random.default_rng(21)
    p = {"distinct": rng.standard_normal(304),
         "ties": rng.integers(-2, 3, 304) * 0.25,
         "single": np.full(304, 0.5)}[values]
    f = _random_min_form(rng, p)
    X = np.vstack([rng.standard_normal((500, 7)),
                   f.anchors[::7] + 1e-9 * rng.standard_normal((44, 7))])
    for k in range(6):
        assert _same_bits(f, X[:k])
    assert _same_bits(f, X)
    assert _same_bits(f, np.asfortranarray(X))


def test_nan_query_row_bit_equal_to_gram_scan():
    rng = np.random.default_rng(4)
    f = _random_min_form(rng, rng.integers(0, 2, 200) * 0.5)
    X = rng.standard_normal((9, 7))
    X[3, 2] = np.nan
    got = f.eval(X)
    assert np.isnan(got[3]) and np.isfinite(np.delete(got, 3)).all()
    assert _same_bits(f, X)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_zero_slope_bit_equal_to_gram_scan():
    rng = np.random.default_rng(6)
    f = _random_min_form(rng, rng.integers(0, 3, 48) * 0.5, L=0.0)
    X = rng.standard_normal((20, 7))
    assert (f.eval(X) == f.values.min()).all()
    assert _same_bits(f, X)
    # d2 overflows to +inf on one anchor only: 0 * inf = NaN
    g = lz.AnchoredLipschitz([[0.0, 0.0], [0.0, 1e154]], [1.0, 1.0], 0.0)
    X = np.array([[1.3e154, 0.0], [1.0, 0.0], [1.0, 2.0]])
    assert np.isnan(g.eval(X)[0])
    assert _same_bits(g, X)


def test_t_near_is_the_least_square_at_the_near_distance():
    t = lz.T_NEAR
    assert np.sqrt(t) >= lz.NEAR_DIST > np.sqrt(np.nextafter(t, 0.0))
    assert lz.NEAR_DIST == 1e-6


def test_gram_distance_on_each_side_of_t_near():
    # one anchor at 1 in R^1: the Gram d2 of the query q is (q*q + 1) - 2q
    f = lz.AnchoredLipschitz([[1.0]], [0.0], 1.0)
    q = 1.0 + np.linspace(1e-6 - 1e-9, 1e-6 + 1e-9, 20001)
    d2 = (q * q + 1.0) - 2.0 * q
    below = q[d2 < lz.T_NEAR][np.argmax(d2[d2 < lz.T_NEAR])]
    above = q[d2 >= lz.T_NEAR][np.argmin(d2[d2 >= lz.T_NEAR])]
    for x, exact in ((below, True), (above, False)):
        got = f.eval([[x]])[0]
        assert (got == abs(x - 1.0)) == exact
        assert _same_bits(f, [[x]])
        assert _same_bits(f, [[x], [x]])


def test_anchor_values_must_be_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="finite"):
            lz.AnchoredLipschitz([[0.0], [1.0]], [0.0, bad], 1.0)
    with pytest.raises(InvalidInputError, match="at least one anchor"):
        lz.AnchoredLipschitz(np.empty((0, 2)), [], 1.0)


def test_blocked_squared_norms_bit_equal_to_one_sum(monkeypatch):
    # the m_cap 9 anchors, 4,608 x 256, by blocks of 4,096, 7 and 1 rows
    # (the last block short), and n = 1
    from caplab import _kernels as kn
    from caplab.constructions import zero_init_instance
    A = zero_init_instance(4, 4, 0.25, 9, seed=1).witness_fn.anchors
    p = np.zeros(len(A))
    for rows in (4096, 7, 1):
        monkeypatch.setattr(kn, "SQUARE_BLOCK_BYTES", 8 * A.shape[1] * rows)
        got = lz.AnchoredLipschitz(A, p, 1.0)._sorted_sq
        assert got.tobytes() == np.sum(A * A, axis=1).tobytes(), rows
    narrow = np.random.default_rng(2).standard_normal((300, 1))
    got = lz.AnchoredLipschitz(narrow, np.zeros(300), 1.0)._sorted_sq
    assert got.tobytes() == np.sum(narrow * narrow, axis=1).tobytes()


def test_witness_build_holds_no_anchor_sized_array():
    # 4,608 x 256 anchors (9.4 MB): the build keeps the array given and
    # takes its squared norms a block of rows at a time; it held a sorted
    # copy, and before that an array of squares as well
    import tracemalloc
    from caplab import _kernels as kn

    A = np.random.default_rng(3).standard_normal((9 << 9, 256))
    p = np.where(np.arange(len(A)) % 3 == 0, 0.25, -0.25)
    tracemalloc.start()
    try:
        lz.AnchoredLipschitz(A, p, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kn.SQUARE_BLOCK_BYTES + 64 * len(A), peak


def _lazy_witness_reads(f, X, own):
    return [f.eval(X), f.anchors, f.anchor_rows(own),
            *f.own_anchor_values(own, 0.05)]


def test_witness_sorted_on_first_eval_reads_the_same():
    # the witness sorts its anchors by value on the first eval, in place of
    # the array given; every read is the same before and after, and the
    # same as a witness given the anchors already sorted
    rng = np.random.default_rng(5)
    A = rng.standard_normal((96, 8))
    given = A.copy()
    p = rng.integers(-2, 3, 96) * 0.25
    X = np.vstack([A[:7] + 1e-8, rng.standard_normal((9, 8))])
    own = rng.permutation(96)[:40]
    order = np.argsort(p, kind="stable")
    rank = np.argsort(order)
    presorted = lz.AnchoredLipschitz(A[order], p[order], 3.0)
    presorted.eval(X)
    for L in (3.0, 0.0):
        f = lz.AnchoredLipschitz(A, p, L)
        assert f._anchors is A
        before = [f.anchors, f.anchor_rows(own), *f.own_anchor_values(own, 0.05)]
        first = _lazy_witness_reads(f, X, own)
        assert f._anchors is not A and f._anchors.tobytes() == A[order].tobytes()
        again = _lazy_witness_reads(f, X, own)
        for x, y, z in zip([first[0]] + before, first, again):
            assert x.tobytes() == y.tobytes() == z.tobytes()
        if L:
            pre = _lazy_witness_reads(presorted, X, rank[own])
            assert pre[0].tobytes() == first[0].tobytes()
            for k in (2, 3, 4):
                assert pre[k].tobytes() == first[k].tobytes(), k
            assert pre[1].tobytes() == first[1][order].tobytes()
    assert A.tobytes() == given.tobytes()      # the array given is not changed


def test_witness_holds_one_anchor_array_after_its_first_eval():
    # 4,608 x 256 anchors (9.4 MB): once eval sorts them, the sorted copy
    # is the one array the witness holds
    import tracemalloc

    rng = np.random.default_rng(4)
    p = np.where(np.arange(9 << 9) % 3 == 0, 0.25, -0.25)
    X = rng.standard_normal((5, 256))
    tracemalloc.start()
    try:
        A = rng.standard_normal((9 << 9, 256))
        f = lz.AnchoredLipschitz(A, p, 4.0)
        nbytes = A.nbytes
        del A
        f.eval(X)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert f._order is None
    assert nbytes <= held <= nbytes + 64 * len(p), (held, nbytes)


# ---------------------------------------------------------------------------
# own_anchor_values: a certified row is eval's value, bit for bit


def _certified_rows_are_evals(f, own, separation):
    vals, ok = f.own_anchor_values(own, separation)
    assert vals[ok].tobytes() == f.eval(f.anchor_rows(own))[ok].tobytes()
    return vals, ok


def test_own_anchor_values_certify_queries_at_their_anchors():
    rng = np.random.default_rng(8)
    f = _random_min_form(rng, rng.integers(0, 2, 64) * 0.5, L=4.0, d=16)
    A = f.anchors
    least = min(np.linalg.norm(A[k + 1 :] - A[k], axis=1).min() for k in range(63))
    own = rng.permutation(64)
    assert f.anchor_rows(own).tobytes() == A[own].tobytes()
    vals, ok = _certified_rows_are_evals(f, own, 0.999 * least)
    assert ok.all() and vals.tobytes() == f.values[own].tobytes()
    assert not f.own_anchor_values(own, 0.0)[1].any()
    zero = lz.AnchoredLipschitz(A, f.values, 0.0)
    assert not zero.own_anchor_values(own, least)[1].any()


def test_own_anchor_values_certify_no_row_whose_gram_error_can_decide():
    # anchors of norm ~1600 in R^256: the Gram d2 of a row to its own
    # anchor can round to well over T_NEAR, so eval differs from p on some
    # rows; only the Gram error term of check (i) keeps them uncertified
    # (0.99 covers the rounding of the measured least distance)
    rng = np.random.default_rng(0)
    A = 100.0 * rng.standard_normal((64, 256))
    f = lz.AnchoredLipschitz(A, np.where(np.arange(64) % 2 == 1, 1.0, -1.0), 1.0)
    least = min(np.linalg.norm(A[k + 1 :] - A[k], axis=1).min() for k in range(63))
    own = np.arange(64)
    assert (f.eval(f.anchor_rows(own)) != f.values).any()
    _certified_rows_are_evals(f, own, 0.99 * least)


# ---------------------------------------------------------------------------
# the slope probe, a block of pairs at a time, against all pairs at once

def _probe_cases():
    """(witness, sampler, probe block bytes, pair counts): the encoded
    min-form; the zero-init witness, whose eval blocks round by row count,
    with probe blocks of two eval blocks and a part; a plain callable in blocks of 4
    pairs; and a sampler that repeats points, so some pairs are 0 apart."""
    from caplab.constructions import nonzero_init_instance, zero_init_instance
    enc = nonzero_init_instance(10, 0.25).witness_fn
    size = lz.PROBE_BLOCK_BYTES // (8 * enc.n)
    yield enc, lambda r: 0.3 * r.standard_normal(enc.n), lz.PROBE_BLOCK_BYTES, \
        (1, 2, size, size + 1, 2 * size + 1, 2 * size + 2, 3 * size - 7)
    zero = zero_init_instance(4, 4, 0.25, 9, seed=1).witness_fn
    A, rows = zero.anchors, zero.block_rows
    assert 2 < rows < 1024

    def near_anchors(r):    # some Gram distances take the exact near path
        k = r.integers(2 * len(A))
        noise = r.standard_normal(A.shape[1])
        return A[k] + 1e-7 * noise if k < len(A) else 0.05 * noise

    yield zero, near_anchors, 8 * A.shape[1] * (2 * rows + 5), \
        (1, 2, 3, rows + 1, 2 * rows + 1, 4 * rows, 6 * rows + 1, 5 * rows + 7)
    yield (lambda x: float(np.sin(x).sum())), lambda r: r.standard_normal(3), \
        8 * 3 * 4, (1, 2, 4, 5, 9, 10)
    P = 0.3 * np.random.default_rng(0).standard_normal((3, enc.n))
    yield enc, lambda r: P[r.integers(3)], lz.PROBE_BLOCK_BYTES, (1, 50, size + 3)


@pytest.mark.parametrize("metric", ["euclidean-vector", "infinity"])
def test_streamed_probe_bit_equal_to_all_pairs_at_once(metric, monkeypatch):
    from oracles import stacked_empirical_lipschitz
    for f, sampler, block_bytes, counts in _probe_cases():
        monkeypatch.setattr(lz, "PROBE_BLOCK_BYTES", block_bytes)
        for pairs in counts:
            got = lz.empirical_lipschitz(f, sampler, metric, pairs, pairs)
            want = stacked_empirical_lipschitz(f, sampler, metric, pairs, pairs)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
                (type(f).__name__, pairs, got, want)


def test_probe_with_only_zero_distance_pairs_reads_zero():
    point = np.array([0.5, -1.0])
    assert lz.empirical_lipschitz(lambda x: float(x[0]), lambda r: point,
                                  "euclidean-vector", 7, 0) == 0.0


def test_dense_geometry_probe_holds_one_block_of_pairs():
    # m = 10, 4,096 pairs: all pairs at once held two (4096, 1034) arrays,
    # 68 MB; a block of pairs is one PROBE_BLOCK_BYTES array per side
    import tracemalloc
    from caplab.constructions import nonzero_init_instance
    f = nonzero_init_instance(10, 0.25).witness_fn
    tracemalloc.start()
    try:
        lz.empirical_lipschitz(f, lambda r: 0.3 * r.standard_normal(f.n),
                               "infinity", 4096, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * lz.PROBE_BLOCK_BYTES, peak


def test_streamed_probe_lone_last_pair_bit_equal(monkeypatch):
    # every pair but the last is one point twice, 0 apart and so left out:
    # the slope is the last pair's, which the probe evaluates with the block
    # before it, as all pairs at once do (a lone row would take a
    # matrix-vector product, which rounds differently)
    from caplab.constructions import zero_init_instance
    from oracles import stacked_empirical_lipschitz
    f = zero_init_instance(4, 4, 0.25, 9, seed=1).witness_fn
    n, rows = f.anchors.shape[1], f.block_rows
    monkeypatch.setattr(lz, "PROBE_BLOCK_BYTES", 8 * n * 2 * rows)
    point = np.full(n, 0.01)

    def sampler(pairs):
        calls = iter(range(2 * pairs))
        return lambda r: (point if next(calls) < 2 * pairs - 2
                          else 0.05 * r.standard_normal(n))

    for pairs in (2 * rows + 1, 4 * rows + 1, 3):
        for seed in range(4):
            got = lz.empirical_lipschitz(f, sampler(pairs), "euclidean-vector",
                                         pairs, seed)
            want = stacked_empirical_lipschitz(f, sampler(pairs),
                                               "euclidean-vector", pairs, seed)
            assert got > 0 and np.float64(got).tobytes() == np.float64(want).tobytes()
