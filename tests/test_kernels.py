"""Parity of the kernels with their scalar loops and oracles."""

import numpy as np
import pytest

from caplab import _kernels as kn
from caplab import constructions, lipschitz, numerics
from oracles import min_form_anchors


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


@pytest.mark.parametrize("size", [2, 5, 128])
def test_cuts_leave_no_lone_row(size):
    # blocks of `size` rows in order, the last one taking a lone last row
    for n in (0, 1, size - 1, size, size + 1, 2 * size + 1):
        blocks = list(kn.cuts(n, size))
        edges = [0] + [e for _, e in blocks]
        assert [s for s, _ in blocks] == edges[:-1] and edges[-1] == n
        assert all(e - s == size for s, e in blocks[:-1])
        assert all(e - s >= 2 for s, e in blocks) or n == 1
        assert all(e - s <= size + 1 for s, e in blocks)
    assert list(kn.cuts(2 * size + 1, size)) == [(0, size), (size, 2 * size + 1)]


def scalar_greedy_pack(cands, eps):
    """The scalar loop: keep x iff its squared distances to the centres kept
    so far, summed coordinate-wise, are all >= eps*eps."""
    cands = np.ascontiguousarray(cands, dtype=np.float64)
    centers = np.empty_like(cands)
    kept = []
    for i in range(cands.shape[0]):
        x = cands[i]
        C = centers[: len(kept)]
        if not kept or np.sum((C - x) ** 2, axis=1).min() >= eps * eps:
            centers[len(kept)] = x
            kept.append(i)
    return np.asarray(kept, dtype=np.int64)


def ball_stream(monkeypatch, r, eps):
    """The candidate stream ball_net(r, 1, eps) packs, and the net it gives."""
    seen = []
    pack = kn.greedy_pack

    def spy(cands, e):
        seen.append(cands)
        return pack(cands, e)

    monkeypatch.setattr(kn, "greedy_pack", spy)
    net = numerics.ball_net(r, 1.0, eps)
    monkeypatch.setattr(kn, "greedy_pack", pack)
    return seen[0], net


def tie_lattice(eps, seed):
    """A shuffled 9x9 lattice of spacing eps with every point twice, plus
    seven off-lattice points: the neighbours sit at distance eps up to
    rounding, on both sides of it."""
    g = np.arange(9) * eps
    P = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    P = np.vstack([P, P, P[:7] + 0.5 * eps])
    return P[np.random.default_rng(seed).permutation(P.shape[0])]


def test_greedy_pack_equals_scalar_loop(rng):
    cands = rng.standard_normal((500, 3))
    assert np.array_equal(kn.greedy_pack(cands, 0.8), scalar_greedy_pack(cands, 0.8))


@pytest.mark.parametrize("r,eps", [(2, 0.05), (3, 0.2), (4, 0.4), (1, 0.01), (2, 0.5)])
def test_greedy_pack_equals_scalar_loop_on_ball_nets(monkeypatch, r, eps):
    cands, net = ball_stream(monkeypatch, r, eps)
    kept = kn.greedy_pack(cands, eps)
    assert np.array_equal(kept, scalar_greedy_pack(cands, eps))
    assert np.array_equal(net.centers, cands[kept])


def test_greedy_pack_equals_scalar_loop_with_many_centres():
    # ball_net(4, 1, 0.1) keeps ~16k centres, too slow for the scalar loop;
    # 12k uniform ball points keep thousands, so the byte cap sets the block
    rng = np.random.default_rng(4)
    g = rng.standard_normal((12_000, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    cands = g * rng.random(12_000)[:, None] ** 0.25
    kept = kn.greedy_pack(cands, 0.1)
    assert 8 * kept.size**2 > 4 * kn.PACK_BLOCK_BYTES
    assert np.array_equal(kept, scalar_greedy_pack(cands, 0.1))


def _edge_streams():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((400, 3))
    return [
        ("lattice eps=1", tie_lattice(1.0, 0), 1.0),
        ("lattice eps=0.1", tie_lattice(0.1, 1), 0.1),
        ("lattice eps=0.1 scaled", 1e3 * tie_lattice(0.1, 2), 100.0),
        # far from the origin the screen's rounding error is ~1e-7
        ("lattice eps=0.1 offset", tie_lattice(0.1, 3) + 1e4, 0.1),
        ("triplicated", np.repeat(pts, 3, axis=0), 0.6),
        ("triplicated, interleaved", np.tile(pts, (3, 1)), 0.6),
        ("eps beyond the diameter", pts, 100.0),
        ("one point", pts[:1], 0.5),
        ("no points", pts[:0], 0.5),
    ]


@pytest.mark.parametrize("block_bytes", [kn.PACK_BLOCK_BYTES, 8, 256])
@pytest.mark.parametrize("name,cands,eps", _edge_streams(),
                         ids=[c[0] for c in _edge_streams()])
def test_greedy_pack_equals_scalar_loop_on_ties(monkeypatch, block_bytes, name, cands, eps):
    monkeypatch.setattr(kn, "PACK_BLOCK_BYTES", block_bytes)
    kept = kn.greedy_pack(cands, eps)
    assert kept.dtype == np.int64
    assert np.array_equal(kept, scalar_greedy_pack(cands, eps)), name


def test_greedy_pack_ties_straddle_eps():
    # the lattice cases are only a check of the margin if some neighbour
    # distances round to just below eps^2 and others to eps^2 or above
    P = tie_lattice(0.1, 1)
    d2 = np.sum((P[:, None] - P[None]) ** 2, axis=2)
    near = d2[np.abs(d2 - 0.01) < 1e-12]
    assert (near < 0.01).any() and (near >= 0.01).any()


def test_greedy_pack_separation(rng):
    cands = rng.standard_normal((300, 2))
    kept = np.asarray(kn.greedy_pack(cands, 0.5))
    P = cands[kept]
    d = np.linalg.norm(P[:, None] - P[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 0.5
    # maximality: every rejected candidate is within eps of a kept one
    rest = np.delete(cands, kept, axis=0)
    dr = np.linalg.norm(rest[:, None] - P[None, :], axis=2).min(axis=1)
    assert dr.max() < 0.5


def scalar_jacobi_orthogonalize(A, V, tol, max_sweeps):
    """The scalar loop: one-sided Jacobi rotations, entry by entry."""
    n, d = A.shape
    for sweep in range(max_sweeps):
        off = 0
        for p in range(d - 1):
            for q in range(p + 1, d):
                app = 0.0
                aqq = 0.0
                apq = 0.0
                for i in range(n):
                    app += A[i, p] * A[i, p]
                    aqq += A[i, q] * A[i, q]
                    apq += A[i, p] * A[i, q]
                if apq == 0.0 or app == 0.0 or aqq == 0.0:
                    continue
                if abs(apq) <= tol * np.sqrt(app * aqq):
                    continue
                off += 1
                zeta = (aqq - app) / (2.0 * apq)
                if zeta >= 0.0:
                    t = 1.0 / (zeta + np.sqrt(1.0 + zeta * zeta))
                else:
                    t = -1.0 / (-zeta + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                for i in range(n):
                    ap = A[i, p]
                    aq = A[i, q]
                    A[i, p] = c * ap - s * aq
                    A[i, q] = s * ap + c * aq
                for i in range(d):
                    vp = V[i, p]
                    vq = V[i, q]
                    V[i, p] = c * vp - s * vq
                    V[i, q] = s * vp + c * vq
        if off == 0:
            return sweep + 1
    return -1


def test_jacobi_paths_agree(rng):
    M = rng.standard_normal((6, 4))
    A1, V1 = M.copy(), np.eye(4)
    A2, V2 = M.copy(), np.eye(4)
    s1 = scalar_jacobi_orthogonalize(A1, V1, 1e-12, 60)
    s2 = kn.jacobi_orthogonalize(A2, V2, 1e-12, 60)
    assert s1 >= 0 and s2 >= 0
    assert np.allclose(A1, A2, atol=1e-9)
    assert np.allclose(V1, V2, atol=1e-9)


def masked_min_pairwise_dist(X, chunk=512):
    """The masked scan: the full chunk x n distance block, with j <= i set
    to inf."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    best = np.inf
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        d2 = sq[a:b, None] + sq[None, :] - 2.0 * (X[a:b] @ X.T)
        np.maximum(d2, 0.0, out=d2)
        rows = np.arange(a, b)
        mask = np.arange(n)[None, :] <= rows[:, None]
        best = min(best, float(np.sqrt(np.where(mask, np.inf, d2).min())))
    return best


def test_min_pairwise_dist_oracle(rng):
    X = rng.standard_normal((120, 4))
    vals = rng.integers(0, 2, 120)
    d = np.linalg.norm(X[:, None] - X[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    best = kn.min_pairwise_dist(X)
    assert best == pytest.approx(d.min(), abs=1e-9)
    # over the pairs with differing values, by brute force
    mask = vals[:, None] != vals[None, :]
    best_diff = np.where(mask, d, np.inf).min()
    cross = np.linalg.norm(X[vals == 0][:, None] - X[vals == 1][None], axis=2)
    assert best_diff == pytest.approx(cross.min(), abs=1e-12)
    assert best <= best_diff


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_min_pairwise_dist_bit_equal_to_masked_scan_on_zero_init(monkeypatch, seed):
    seen = []
    scan = kn.min_pairwise_dist

    def spy(X):
        seen.append((X, scan(X)))
        return seen[-1][1]

    monkeypatch.setattr(kn, "min_pairwise_dist", spy)
    fam = constructions.random_separated_family(32, 9, 256, seed)
    assert seen and _same_float(fam.separation, max(s for _, s in seen))
    for X, got in seen:
        assert X.shape == (9 << 9, 256)
        assert _same_float(got, masked_min_pairwise_dist(X))


@pytest.mark.parametrize("n,chunk", [(0, 4), (1, 4), (2, 1), (50, 7), (64, 16), (97, 512)])
def test_min_pairwise_dist_bit_equal_to_masked_scan(n, chunk, monkeypatch):
    # blocks of `chunk` rows: PAIR_BLOCK_BYTES sized to hold that many
    monkeypatch.setattr(kn, "PAIR_MIN_ROWS", 1)
    monkeypatch.setattr(kn, "PAIR_BLOCK_BYTES", 8 * max(n, 1) * chunk)
    assert kn._pair_block_rows(n) == max(1, min(n, chunk))
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 5))
    if n > 3:
        X[n - 1] = X[1]          # a duplicate in a later chunk
    got = kn.min_pairwise_dist(X)
    assert _same_float(got, masked_min_pairwise_dist(X, chunk=chunk))


# (n, block rows, variant): two and three rows; blocks of 2 or 8 whose last
# block has one row or seven; a duplicate pair across blocks (rows 1 and
# n - 1) and one beside the diagonal (2, 3); a NaN row in the first block or
# the last
_TILE_CASES = [(2, 8, "plain"), (3, 8, "plain"), (3, 2, "duplicate"),
               (15, 8, "duplicate"), (17, 8, "duplicate"), (17, 8, "plain"),
               (17, 8, "nan-first"), (17, 8, "nan-last"), (23, 8, "nan-first")]


@pytest.mark.parametrize("width", ["1", "rows-1", "rows+1"])
@pytest.mark.parametrize("case", _TILE_CASES, ids=str)
def test_tiled_scan_bit_equal_to_masked_scan(case, width, monkeypatch):
    # tiles of 1, rows - 1 and rows + 1 columns cut the diagonal block at
    # every offset; a tile that masks j < i (or no pair) reads some x_i
    # against itself, near 0
    n, chunk, variant = case
    monkeypatch.setattr(kn, "PAIR_MIN_ROWS", 1)
    monkeypatch.setattr(kn, "PAIR_BLOCK_BYTES", 8 * n * chunk)
    rows = kn._pair_block_rows(n)
    assert rows == min(n, chunk)
    cols = {"1": 1, "rows-1": max(1, rows - 1), "rows+1": rows + 1}[width]
    monkeypatch.setattr(kn, "PAIR_TILE_BYTES", 8 * rows * cols)
    X = np.random.default_rng(n).standard_normal((n, 5))
    if variant == "duplicate":
        X[n - 1] = X[1]
        if n > 4:
            X[3] = X[2]
    if variant.startswith("nan"):
        X[2 if variant == "nan-first" else n - 1, 3] = np.nan
    got = kn.min_pairwise_dist(X)
    want = masked_min_pairwise_dist(X, chunk=chunk)
    assert _same_float(got, want), (got, want)
    assert (got == 0.0) == (variant == "duplicate")


def test_min_pairwise_dist_buffers_sized_in_bytes():
    # one (rows, n) product block of PAIR_BLOCK_BYTES down to PAIR_MIN_ROWS
    # rows, and one PAIR_TILE_BYTES tile of squared distances with its mask:
    # the scan held a second block-sized buffer and an X-sized temporary
    import tracemalloc

    X = np.random.default_rng(0).standard_normal((8192, 4))
    assert kn._pair_block_rows(len(X)) == kn.PAIR_BLOCK_BYTES // (8 * len(X))
    assert kn._pair_block_rows(4608) == kn.PAIR_BLOCK_BYTES // (8 * 4608)
    assert kn._pair_block_rows(12 << 12) == kn.PAIR_MIN_ROWS
    assert kn._pair_block_rows(3) == 3
    tracemalloc.start()
    try:
        kn.min_pairwise_dist(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile = kn.PAIR_TILE_BYTES + kn.PAIR_TILE_BYTES // 8
    assert peak <= kn.PAIR_BLOCK_BYTES + tile + kn.SQUARE_BLOCK_BYTES + 16 * len(X), peak
    # zero-init's estimate counts the scan's product block over m 2^m rows,
    # its tile and mask, beside two arrays of its anchors (two draws, or the
    # array given and the witness's sorted copy), a family block and its
    # squares, and eval's Gram blocks on one table block
    N = 12 << 12
    rows, family = 2 * N * 256, 2 * 16 * 256 * 32
    scan = kn.PAIR_MIN_ROWS * N
    gram = 3 * (lipschitz.ANCHOR_BLOCK_BYTES // (8 * N) + 1) * N
    assert constructions._zero_init_bytes(12, 256, 32) == \
        8 * (rows + family + scan + gram) + tile
    # and no pairwise matrices at the CLI's default size, m_cap 8: 2,048
    # rows, 512 per block
    N = 8 << 8
    rows = 2 * N * 256
    scan = (kn.PAIR_BLOCK_BYTES // (8 * N)) * N
    gram = 3 * (lipschitz.ANCHOR_BLOCK_BYTES // (8 * N) + 1) * N
    assert kn._pair_block_rows(N) == 512
    assert constructions._zero_init_bytes(8, 256, 32) == \
        8 * (rows + family + scan + gram) + tile


def scalar_encoded_min_eval(Q, top3v, top3i, j_arr, zc_arr, vals, a, b):
    """The scalar loop: per query row, per anchor, the excluded max from the
    top-3 |q| entries, then the running min."""
    nq = Q.shape[0]
    na = j_arr.shape[0]
    out = np.empty(nq)
    for qi in range(nq):
        t0, t1, t2 = top3v[qi, 0], top3v[qi, 1], top3v[qi, 2]
        i0, i1, i2 = top3i[qi, 0], top3i[qi, 1], top3i[qi, 2]
        best = np.inf
        for k in range(na):
            j = j_arr[k]
            zc = zc_arr[k]
            if i0 != j and i0 != zc:
                mex = t0
            elif i1 != j and i1 != zc:
                mex = t1
            else:
                mex = t2
            d = mex
            dj = abs(Q[qi, j] - a)
            if dj > d:
                d = dj
            dz = abs(Q[qi, zc] - b)
            if dz > d:
                d = dz
            v = vals[k] + d
            if v < best:
                best = v
        out[qi] = best
    return out


def test_encoded_min_eval_paths_agree(rng):
    m, nz = 4, 16
    n = m + nz
    j_arr = np.tile(np.arange(m, dtype=np.int64), nz)
    zc_arr = m + np.repeat(np.arange(nz, dtype=np.int64), m)
    vals = rng.standard_normal(m * nz)
    Q = rng.standard_normal((64, n))
    top3v, top3i = kn._top3_abs(Q)
    a = scalar_encoded_min_eval(Q, top3v, top3i, j_arr, zc_arr, vals, 0.5, 1.0)
    b = kn.encoded_min_eval(Q, j_arr, zc_arr, vals, 0.5, 1.0)
    assert np.array_equal(a, b)


def test_encoded_min_eval_matches_dense_oracle(rng):
    m, nz = 3, 8
    n = m + nz
    j_arr = np.tile(np.arange(m, dtype=np.int64), nz)
    zc_arr = m + np.repeat(np.arange(nz, dtype=np.int64), m)
    vals = rng.standard_normal(m * nz)
    a_const, b_const = 0.4, 1.1
    A = np.zeros((m * nz, n))
    A[np.arange(m * nz), j_arr] = a_const
    A[np.arange(m * nz), zc_arr] = b_const
    Q = rng.standard_normal((100, n))
    got = kn.encoded_min_eval(Q, j_arr, zc_arr, vals, a_const, b_const)
    want = np.min(
        vals[None, :] + np.max(np.abs(Q[:, None, :] - A[None, :, :]), axis=2),
        axis=1,
    )
    assert np.array_equal(got, want)


def _min_form_rows(fn, rng):
    """Dense rows for the min-form witness, in blocks of 8: Gaussian rows;
    rows whose largest |q| lies on a j coordinate, on a z coordinate, or on
    both (tied, and with t1 = t2 as well); anchors exactly and with noise,
    where the anchors on the top index decide; then NaN, +-inf, +-0,
    +-5e-324 and +-1e308 on an anchor's own j or z coordinate and on a
    Gaussian row's, and an all-zero and an all -0.0 row."""
    m, n = fn.m, fn.n
    z = rng.integers(0, 1 << m, 64)
    j = rng.integers(0, m, 64)
    k = np.arange(8)
    gauss = 0.3 * rng.standard_normal((64, n))
    anchor = np.zeros((64, n))
    anchor[np.arange(64), j] = fn.coord_a
    anchor[np.arange(64), m + z] = fn.coord_b
    big = 3.0 * rng.choice([-1.0, 1.0], (8, 3))
    blocks = [gauss[:8], gauss[8:16].copy(), gauss[16:24].copy(),
              gauss[24:32].copy(), gauss[32:40].copy(), anchor[:8],
              anchor[8:16] + 1e-3 * rng.standard_normal((8, n))]
    blocks[1][k, j[:8]] = big[:, 0]                     # top on j
    blocks[2][k, m + z[:8]] = big[:, 0]                 # top on z
    blocks[3][k, j[:8]] = big[:, 0]                     # tied j and z
    blocks[3][k, m + z[:8]] = big[:, 1]
    blocks[4][k, j[:8]] = big[:, 0]                     # t0 = t1 = t2
    blocks[4][k, m + z[:8]] = big[:, 1]
    blocks[4][k, m + z[8:16]] = big[:, 2]
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
    for v in special:
        rows = np.stack([anchor[16], anchor[17], gauss[40], gauss[41]])
        rows[0, j[16]] = v
        rows[1, m + z[17]] = v
        rows[2, j[40]] = v
        rows[3, m + z[41]] = v
        blocks.append(rows)
    blocks.append(np.zeros((1, n)))
    blocks.append(np.full((1, n), -0.0))
    return np.concatenate(blocks)


@pytest.mark.parametrize("m", range(1, 11))
def test_min_form_dense_recurrence_bit_equal_to_anchor_loop(m, monkeypatch):
    # EncodedMinForm's dense path, a subset-min recurrence plus the anchors
    # on the top index, against the anchor-by-anchor kernel on every row
    # (NaN and sign bits included) and the scalar loop on the rows without
    # NaN (its running `<` skips NaN); the kernel is patched to raise, so
    # eval does not reach it
    rng = np.random.default_rng(400 + m)

    def refuse(*args):
        raise AssertionError("EncodedMinForm.eval reached the anchor kernel")

    for eps in (0.1, 0.25, 0.5):
        fn = constructions.nonzero_init_instance(m, eps).witness_fn
        anchors = min_form_anchors(m, eps)
        Q = _min_form_rows(fn, rng)
        want = kn.encoded_min_eval(Q, *anchors, fn.coord_a, fn.coord_b)
        with monkeypatch.context() as mp:
            mp.setattr(kn, "encoded_min_eval", refuse)
            got = fn.eval(Q)
        assert got.tobytes() == want.tobytes(), eps
        nan = np.isnan(Q).any(axis=1)
        assert np.array_equal(np.isnan(got), nan) and nan.any()
        if eps == 0.25:
            top3v, top3i = kn._top3_abs(Q[~nan])
            loop = scalar_encoded_min_eval(Q[~nan], top3v, top3i, *anchors,
                                           fn.coord_a, fn.coord_b)
            assert got[~nan].tobytes() == loop.tobytes()
