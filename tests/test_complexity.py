import itertools
import math

import numpy as np
import pytest

from caplab import complexity as cx
from caplab import constructions as cn
from caplab.errors import CapacityExceededError, InvalidInputError, NumericalFailureError
from oracles import empirical_cover


def test_enumerate_matches_exhaustive_sign_oracle():
    rng = np.random.default_rng(4)
    table = rng.standard_normal((10, 5))
    # exact expectation over all 2^5 sign vectors
    exact = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=5):
        exact += (np.asarray(signs) @ table.T).max() / 5
    exact /= 32
    est = cx.rademacher_mc(table, 100000, seed=8)
    assert abs(est.mean - exact) <= 3 * est.stderr + 1e-12


def test_enumerate_capacity_guard():
    with pytest.raises(CapacityExceededError):
        cx.rademacher_mc(np.zeros((cx.ENUMERATE_CAP + 1, 1)), 10, seed=0)


def test_shattering_instance_mean_is_margin():
    inst = cn.nonzero_init_instance(6, 0.25)
    est = cx.rademacher_mc(cn.witness_table(inst), 2000, seed=1)
    assert est.mean == 0.25 and est.stderr == 0.0


def test_linear_closed_form_orthonormal():
    est = cx.linear_rademacher_mc(np.eye(4), 1.0, 500, seed=2)
    assert est.mean == 0.5 and est.stderr == 0.0


def test_linear_closed_form_identical_points():
    m = 6
    pts = np.tile(np.array([[1.0, 0.0]]), (m, 1))
    est = cx.linear_rademacher_mc(pts, 1.0, 100000, seed=3)
    # exact binomial expectation of |sum eps_i| / m
    exact = sum(math.comb(m, k) * abs(2 * k - m) for k in range(m + 1)) / (2**m * m)
    assert abs(est.mean - exact) <= 3 * est.stderr


def test_linear_closed_form_cauchy_schwarz_cap():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((10, 6))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    est = cx.linear_rademacher_mc(pts, 2.0, 20000, seed=5)
    assert est.mean <= 2.0 * 1.0 / math.sqrt(10) + 3 * est.stderr


def test_linear_decay_signature():
    rng = np.random.default_rng(12)

    def unit(m):
        P = rng.standard_normal((m, 40))
        return P / np.linalg.norm(P, axis=1, keepdims=True)

    e1 = cx.linear_rademacher_mc(unit(16), 1.0, 100000, seed=6)
    e2 = cx.linear_rademacher_mc(unit(64), 1.0, 100000, seed=6)
    assert 1.6 <= e1.mean / e2.mean <= 2.5


def test_nondecay_signature_small():
    for m in (2, 4, 8):
        inst = cn.nonzero_init_instance(m, 0.25)
        est = cx.rademacher_mc(cn.witness_table(inst), 5000, seed=4)
        assert abs(est.mean - 0.25) <= 3 * est.stderr + 1e-12


def test_mc_determinism():
    inst = cn.nonzero_init_instance(4, 0.25)
    table = cn.witness_table(inst)
    a = cx.rademacher_mc(table, 9999, seed=42)
    b = cx.rademacher_mc(table, 9999, seed=42)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_draws_over_the_byte_budget_are_refused_before_any_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sign draw was made")

    monkeypatch.setattr(cx, "_sign_bits", refuse)
    most = cx.RADEMACHER_MAX_BYTES // cx.BYTES_PER_DRAW
    assert most > 10**7
    table = np.eye(3)
    for estimate in (lambda draws: cx.rademacher_mc(table, draws, seed=0),
                     lambda draws: cx.linear_rademacher_mc(table, 1.0, draws, seed=0)):
        with pytest.raises(CapacityExceededError, match=f"at most {most} draws"):
            estimate(most + 1)
        # the largest accepted count goes on to draw
        with pytest.raises(AssertionError, match="a sign draw was made"):
            estimate(most)


def direct_sups(table, draws, seed):
    """One sign-matrix product per chunk of draws, each row's sup read off
    it: the per-draw values the keyed path must reproduce bit for bit.  On
    a table of over 1,024 rows a chunk's product is taken 256 sign vectors
    at a time, each row's sums as in one product, to hold 32 MB and not
    512 MB at m = 14."""
    m = table.shape[1]
    rows = cx.DRAW_CHUNK if table.shape[0] <= 1024 else 256
    out = []
    for ci, start in enumerate(range(0, draws, cx.DRAW_CHUNK)):
        count = min(cx.DRAW_CHUNK, draws - start)
        rng = cx._chunk_rng(seed, ci)
        signs = rng.integers(0, 2, size=(count, m)).astype(np.float64) * 2.0 - 1.0
        for s in range(0, count, rows):
            out.append((signs[s : s + rows] @ table.T).max(axis=1) / m)
    return np.concatenate(out)


def keys_without_extreme_row(table, keys):
    """The keys k among `keys` whose sign vector sigma (bit j of k is
    sigma_j = +1) has no row f with sigma_j f_j the max over the rows in
    every column j: the sign vectors whose sups take a product."""
    m = table.shape[1]
    left = []
    for k in keys:
        signed = table * (((int(k) >> np.arange(m)) & 1) * 2.0 - 1.0)
        if not (signed == signed.max(axis=0)).all(axis=1).any():
            left.append(int(k))
    return left


def _product_keys(monkeypatch):
    """The keys of every sign vector that goes into a product from now on,
    one entry per product row."""
    keys = []
    signs = cx._signs

    def counted(bits):
        keys.extend((bits.astype(np.int64) << np.arange(bits.shape[1])).sum(axis=1).tolist())
        return signs(bits)

    monkeypatch.setattr(cx, "_signs", counted)
    return keys


def _instance_table(m):
    inst = cn.nonzero_init_instance(m, 0.25) if m % 2 else cn.convex_instance(m, 0.25)
    return cn.witness_table(inst)


def _gaussian_table(m, rows):
    return np.random.default_rng(m).standard_normal((rows, m))


def _two_level_table(m, seed, rows):
    """Every sign vector's extreme row: bit j of a row picks hi_j > lo_j,
    random floats of magnitudes 1e-3 to 1e3.  Each of the 2^m rows is
    there, and rows - 2^m of them twice, all permuted."""
    rng = np.random.default_rng(seed)
    lo = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4, m)
    hi = lo + rng.random(m) * 10.0 ** rng.integers(-3, 4, m) + 1e-3
    keys = np.concatenate([np.arange(1 << m), rng.integers(0, 1 << m, rows - (1 << m))])
    bits = (rng.permutation(keys)[:, None] >> np.arange(m)) & 1
    return np.where(bits == 1, hi, lo)


def _constant_column(table, j=2):
    table[:, j] = 0.7
    return table


def _one_ulp_off(m, y):
    """The m-point instance table with row y's entry at its first set bit
    moved one ulp toward the column's min: row y is no longer extreme."""
    table = _instance_table(m)
    j = int(np.flatnonzero(cn.labeling_bits(y, m))[0])
    table[y, j] = np.nextafter(table[y, j], -np.inf)
    return table


_SUP_TABLES = (
    [(f"instance m={m}", lambda m=m: _instance_table(m))
     for m in range(1, cn.ENUMERATION_M_CAP + 1)]
    + [(f"gaussian m={m}", lambda m=m: _gaussian_table(m, 3 * m + 5))
       for m in list(range(1, 15)) + [40, 62, 63, 70]]
    + [(f"gaussian m={m} 2^m rows", lambda m=m: _gaussian_table(m, 1 << m))
       for m in (13, 14)]
    # 999 sign vectors per product: 1,000 draws would leave one alone
    + [("gaussian m=13 1049 rows", lambda: _gaussian_table(13, 1049))]
    + [(f"two-level m={m}", lambda m=m: _two_level_table(m, 300 + m, 2 << m))
       for m in range(1, 15)]
    + [("two-level constant column",
        lambda: _constant_column(_two_level_table(6, 1, 128))),
       ("gaussian constant column", lambda: _constant_column(_gaussian_table(5, 40))),
       ("negative zeros", lambda: np.full((5, 4), -0.0)),
       ("instance one ulp off", lambda: _one_ulp_off(9, 300))]
)


@pytest.mark.parametrize("name,make", _SUP_TABLES, ids=[t[0] for t in _SUP_TABLES])
def test_keyed_sups_bit_equal_to_direct_product(name, make):
    table = make()
    m = table.shape[1]
    # draws not a multiple of the chunk, fewer draws than sign vectors, and
    # at m = 14 enough for the lookup
    for draws, seed in ((3 * cx.DRAW_CHUNK + 17, m), (1000, 100 + m), (1, 7),
                        (5 * cx.DRAW_CHUNK + 3, 200 + m)):
        got = cx._witness_sups(table, draws, seed)
        want = direct_sups(table, draws, seed)
        assert got.shape == (draws,)
        assert got.tobytes() == want.tobytes(), (name, draws)


def column_order_sups(table, draws, seed):
    """direct_sups with every row's sum taken in column order from +0.0,
    wherever the row sits in the table."""
    m = table.shape[1]
    keys = np.arange(1 << m)
    signs = ((keys[:, None] >> np.arange(m)) & 1) * 2.0 - 1.0
    sums = np.zeros((keys.size, table.shape[0]))
    for j in range(m):
        sums += signs[:, j : j + 1] * table[:, j]
    lut = sums.max(axis=1) / m
    out = []
    for ci, start in enumerate(range(0, draws, cx.DRAW_CHUNK)):
        count = min(cx.DRAW_CHUNK, draws - start)
        bits = cx._chunk_rng(seed, ci).integers(0, 2, size=(count, m))
        out.append(lut[bits @ (1 << np.arange(m))])
    return np.concatenate(out)


@pytest.mark.parametrize("m", [3, 6, 9, 11])
def test_extreme_sups_are_column_order_sums_on_any_row_count(m):
    # 2^m + 3 rows: numpy's gemm adds the table's last rows, past its last
    # multiple of 8, in another order than the columns', so the product
    # can differ from these sums in the last bit there (the two-level
    # tables above have 2^(m+1) rows); the extreme row's sup is the
    # column-order one wherever the row sits
    table = _two_level_table(m, 400 + m, (1 << m) + 3)
    draws = 3 * cx.DRAW_CHUNK + 17
    got = cx._witness_sups(table, draws, m)
    assert got.tobytes() == column_order_sups(table, draws, m).tobytes()


@pytest.mark.parametrize("m", range(1, cn.ENUMERATION_M_CAP + 1))
def test_shattered_instance_tables_take_no_product(m, monkeypatch):
    # every sign vector has its witness row, at its column's +eps where the
    # sign is +1 and at -eps where it is -1
    table = _instance_table(m)
    keys = _product_keys(monkeypatch)
    assert np.all(cx._witness_sups(table, 10**5, m) == 0.25)
    assert keys == []


def test_one_ulp_off_row_alone_takes_a_product(monkeypatch):
    # row 300 sits one ulp inside its column's max: its sign vector, and no
    # other, goes into a product (as two rows, as no product takes one)
    table = _one_ulp_off(9, 300)
    keys = _product_keys(monkeypatch)
    got = cx._witness_sups(table, 20000, 3)
    assert set(keys) == {300}
    assert got.tobytes() == direct_sups(table, 20000, 3).tobytes()


def test_negative_zero_table_sups_are_positive_zero():
    # every term is -0.0 or +0.0; sums from +0.0 end at +0.0, as the
    # product's do, and a sum from the first term would end at -0.0
    table = np.full((5, 4), -0.0)
    for draws in (10, 1000):
        got = cx._witness_sups(table, draws, 1)
        assert not np.signbit(got).any()
        assert not np.signbit(direct_sups(table, draws, 1)).any()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("draws", [10, 1000])
def test_non_finite_tables_are_refused_without_a_warning(value, draws):
    # at a column's max entry, in a constant column, and in a lone row
    import warnings

    two_level = _two_level_table(4, 5, 16)
    two_level[np.argmax(two_level[:, 1]), 1] = value
    constant = _two_level_table(4, 6, 16)
    constant[:, 0] = value
    constant[:, 3] = value
    lone = np.full((1, 4), value)
    for table in (two_level, constant, lone):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError,
                               match="^a sign draw's sup is not finite: "
                                     "the witness values overflow$"):
                cx.rademacher_mc(table, draws, seed=2)


def test_keyed_sups_on_zero_init_table(monkeypatch):
    # the table is shattered: every sign vector has an extreme row
    inst = cn.zero_init_instance(4, 4, 0.25, 9, 1)
    table = cn.witness_table(inst)
    draws = 5 * cx.DRAW_CHUNK + 3
    want = direct_sups(table, draws, 11)
    keys = _product_keys(monkeypatch)
    assert np.array_equal(cx._witness_sups(table, draws, 11), want)
    assert keys == []
    est = cx.rademacher_mc(table, draws, seed=11)
    assert est.mean == float(want.mean())
    assert est.stderr == float(want.std(ddof=1) / math.sqrt(draws))


_BIT_DRAWS = (1, cx.DRAW_CHUNK - 1, cx.DRAW_CHUNK + 1, 3 * cx.DRAW_CHUNK + 17)


@pytest.mark.parametrize("m", list(range(1, 15)) + [40, 62, 63, 70])
def test_sign_bits_equal_generator_integers(m):
    # the bits are read off the raw words; integers(0, 2) is their oracle.
    # Odd count * m (one draw, the 4097th, the last 17 at odd m) uses only
    # the low half of the chunk's last raw word.
    for draws in _BIT_DRAWS:
        chunks = list(cx._sign_bits(m, draws, m))
        assert len(chunks) == -(-draws // cx.DRAW_CHUNK)
        for ci, bits in enumerate(chunks):
            count = min(cx.DRAW_CHUNK, draws - ci * cx.DRAW_CHUNK)
            want = cx._chunk_rng(m, ci).integers(0, 2, size=(count, m))
            assert bits.shape == want.shape
            assert np.array_equal(bits, want), (m, draws, ci)


@pytest.mark.parametrize("m", [1, 9, 10, 13, 14])
def test_sups_bit_equal_on_both_sides_of_the_lookup_switch(m, monkeypatch):
    # the lookup runs while 2^m <= draws; below that each draw takes its
    # own product.  Both give direct_sups' values bit for bit.  No draw
    # count here leaves a one-row chunk: numpy takes a one-row product
    # through gemv, whose sums can differ from gemm's in the last bit.
    # On the lookup path only the sign vectors without an extreme row go
    # into products, each once (at m = 1 there are none).
    table = np.random.default_rng(200 + m).standard_normal((2 * m + 3, m))
    keys = _product_keys(monkeypatch)
    for draws in ((1 << m) - 1, 1 << m, 1000, 3 * cx.DRAW_CHUNK + 17):
        keys.clear()
        got = cx._witness_sups(table, draws, m)
        want = direct_sups(table, draws, m)
        assert np.array_equal(got, want), (m, draws)
        if 1 << m <= draws:
            bits = np.concatenate(list(cx._sign_bits(m, draws, m)))
            drawn = np.unique(bits.astype(np.int64) @ (1 << np.arange(m)))
            assert keys == keys_without_extreme_row(table, drawn), (m, draws)
        else:
            assert len(keys) == draws, (m, draws)


def test_linear_estimate_bit_equal_to_integers_oracle():
    points = np.random.default_rng(31).standard_normal((7, 3))
    B, draws, seed = 1.5, 3 * cx.DRAW_CHUNK + 17, 4
    per_draw = []
    for ci, start in enumerate(range(0, draws, cx.DRAW_CHUNK)):
        count = min(cx.DRAW_CHUNK, draws - start)
        bits = cx._chunk_rng(seed, ci).integers(0, 2, size=(count, 7))
        signs = bits.astype(np.float64) * 2.0 - 1.0
        per_draw.append((B / 7) * np.linalg.norm(signs @ points, axis=1))
    want = np.concatenate(per_draw)
    est = cx.linear_rademacher_mc(points, B, draws, seed)
    assert est.mean == float(want.mean())
    assert est.stderr == float(want.std(ddof=1) / math.sqrt(draws))


def test_witness_sups_hold_about_16_bytes_per_draw():
    # the keys and the per-draw values, 8 bytes each; np.unique's sort and
    # inverse held about 49 bytes per draw here
    import tracemalloc

    table = np.random.default_rng(3).standard_normal((12, 4))
    draws = 10**6
    tracemalloc.start()
    try:
        cx._witness_sups(table, draws, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * draws, peak


@pytest.mark.parametrize("m", [4, 8, 12])
def test_mc_mean_within_4_stderr_of_exact_mean(m):
    table = np.random.default_rng(50 + m).standard_normal((2 * m, m))
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    exact = float(((bits * 2.0 - 1.0) @ table.T).max(axis=1).mean() / m)
    est = cx.rademacher_mc(table, 20000, seed=m)
    assert est.stderr > 0
    assert abs(est.mean - exact) <= 4 * est.stderr


def test_mc_mean_equals_exact_mean_on_shattered_table():
    # every sign vector is matched by a witness, so every draw's sup is eps
    table = _instance_table(8)
    est = cx.rademacher_mc(table, 20000, seed=3)
    assert est.mean == 0.25 and est.stderr == 0.0


# ---------------------------------------------------------------------------

def empirical_metric(table):
    """Pairwise empirical L2 distances d_m between the table rows."""
    diff = table[:, None, :] - table[None, :, :]
    return np.linalg.norm(diff, axis=2) / math.sqrt(table.shape[1])


def cover_radius(table, centers):
    """Max over rows of the distance to the nearest chosen center."""
    return float(empirical_metric(table)[:, centers].min(axis=1).max())


def brute_force_cover_size(table, eps):
    K, m = table.shape
    d = empirical_metric(table)
    for size in range(1, K + 1):
        for subset in itertools.combinations(range(K), size):
            if d[:, subset].min(axis=1).max() <= eps:
                return size
    return K


def test_cover_single_and_duplicates():
    assert empirical_cover([[1.0, 2.0]], 0.1) == [0]
    rng = np.random.default_rng(0)
    t = rng.standard_normal((5, 3))
    dup = np.vstack([t, t])
    assert len(empirical_cover(dup, 0.4)) == len(empirical_cover(t, 0.4))


def test_cover_coverage_exact():
    rng = np.random.default_rng(8)
    t = rng.standard_normal((40, 6))
    eps = 1.0
    centers = empirical_cover(t, eps)
    assert cover_radius(t, centers) <= eps


def test_greedy_at_least_bruteforce_optimum():
    rng = np.random.default_rng(21)
    for _ in range(20):
        t = rng.standard_normal((10, 4))
        eps = 0.8
        greedy = len(empirical_cover(t, eps))
        assert greedy >= brute_force_cover_size(t, eps)


# ---------------------------------------------------------------------------

def test_cover_bound_examples():
    assert cx.cover_bound("scalar-linear", {"B": 1, "b_x": 1, "eps": 1}) == 1.0
    assert cx.cover_bound("constants", {"B": 4, "eps": 0.5}) == \
        pytest.approx(math.log(8))
    with pytest.raises(InvalidInputError):
        cx.cover_bound("constants", {"B": 1.5, "eps": 0.5})
    with pytest.raises(InvalidInputError, match="unknown cover formula kind"):
        cx.cover_bound("quadratic", {"B": 1, "eps": 1, "c": -1})


def test_cover_bound_composition_r1_reduces_to_scalar_shape():
    # at r=1 the composition formula is (1 + 8BL/eps) log(8B/eps)
    got = cx.cover_bound("lipschitz-composition",
                         {"B": 2, "L": 3, "r": 1, "eps": 0.5})
    assert got == pytest.approx((1 + 8 * 2 * 3 / 0.5) * math.log(32))


def test_cover_bound_missing_parameter_named():
    with pytest.raises(InvalidInputError, match="b_x"):
        cx.cover_bound("scalar-linear", {"B": 1, "eps": 1})


def test_cover_bound_monotonic():
    grids = {"eps": [0.25, 0.5, 1.0], "B": [1.0, 2.0, 4.0], "r": [1.0, 2.0],
             "L": [1.0, 2.0], "k": [1.0, 2.0]}
    base = {"B": 2.0, "b_x": 1.0, "r": 1.0, "L": 2.0, "k": 2.0, "eps": 0.5}
    for kind in cx.COVER_PARAMS:
        for key in ("eps", "B", "L", "r"):
            vals = []
            for g in grids.get(key, [1.0]):
                p = dict(base)
                p[key] = g
                try:
                    vals.append(cx.cover_bound(kind, p))
                except InvalidInputError:
                    vals = []
                    break
            if len(vals) > 1:
                diffs = np.diff(vals)
                if key == "eps":
                    assert np.all(diffs <= 1e-12)
                else:
                    assert np.all(diffs >= -1e-12)


def test_cover_bound_dominates_discretized_linear_class():
    # 1-d linear class {x -> w x : |w| <= B} on points with |x| <= b_x,
    # discretized on a w-grid; greedy cover never exceeds the formula (c=1)
    rng = np.random.default_rng(14)
    B, b_x, eps = 2.0, 1.0, 0.5
    x = b_x * (2 * rng.random(30) - 1)
    ws = np.linspace(-B, B, 201)
    table = np.outer(ws, x)
    logn = math.log(len(empirical_cover(table, eps)))
    assert logn <= cx.cover_bound("scalar-linear", {"B": B, "b_x": b_x, "eps": eps})


# ---------------------------------------------------------------------------

def test_dudley_trivial_examples():
    assert cx.dudley_bound(lambda t: 0.0, 1.0, 100, grid=[0.1, 0.7]) == \
        pytest.approx(0.4)
    got = cx.dudley_bound(lambda t: 1.0, 1.0, 100, grid=[0.0, 0.3, 0.6])
    assert got == pytest.approx(1.2)


def test_dudley_decreases_in_m():
    def logn(tau):
        return cx.cover_bound("scalar-linear", {"B": 1, "b_x": 1, "eps": tau})

    vals = [cx.dudley_bound(logn, 2.0, m) for m in (10, 100, 1000)]
    assert vals[0] >= vals[1] >= vals[2]


def test_dudley_guards():
    with pytest.raises(InvalidInputError):
        cx.dudley_bound(lambda t: 0.0, 0.0, 10)
    with pytest.raises(InvalidInputError):
        cx.dudley_bound(lambda t: 0.0, 1.0, 10, grid=[])


def test_dudley_consistent_with_exp_class_bound():
    # feeding the composition cover curve yields a finite complexity bound
    # whose m-threshold direction matches the closed-form sample bound
    from caplab import bounds as bd

    def logn(tau):
        return cx.cover_bound("lipschitz-composition",
                              {"B": 1.0, "L": 1.0, "r": 1.0, "eps": tau})

    m_star = bd.exp_class_sample_bound(1.0, 1.0, 0.5).value
    # at m comfortably above the closed-form threshold the chained bound is
    # below the target accuracy scale eps=0.5 up to its universal constant
    val = cx.dudley_bound(logn, 1.0, m=int(100 * m_star))
    assert np.isfinite(val) and val < 12 * 0.5
