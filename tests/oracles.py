"""Reference implementations the tests hold the library to, and shared
helpers: randomized convex piecewise-linear losses in the sampler contract
of `learner.sgd_run`, the dense stack of iterates held on their live rows,
the dense gather+argmax subgradient of the convex witness that the closed
form in `EncodedMaxAffine.loss_subgrad` replaces, the pieces and anchors of
the two encoded witnesses listed one by one, the Q loop that evaluates
every query W_y x_i as a dense row, the zero-init family drawn and read as
one (2^m, n, d) stack (the only place that holds zero-init's matrices W_y:
an instance keeps their queries X W_y^T and their norms), the slope probe
with every pair held at once, the McShane min-form in the max metric anchor
by anchor, and the greedy empirical cover."""

import math

import numpy as np

from caplab import _kernels
from caplab.constructions import FAMILY_BLOCK_BYTES, SEPARATION_TARGET, TABULATE_BLOCK
from caplab.learner import Sampler


def densify(live, W, n):
    """The (S, n, d) stack that is W, of shape (S, len(live), d), on the
    rows `live` and zero on every other row."""
    out = np.zeros((len(W), n, W.shape[2]))
    out[:, live] = W
    return out


def random_piecewise_sampler(n, d, L, rng_seed=0, pieces=5):
    """Stochastic losses W -> max_j <G_j, W> + c_j + noise with ||G_j||_F <= L.

    Each step draws one noise level per run; the oracle's subgradient is
    dense (every row listed)."""
    master = np.random.default_rng(rng_seed)
    Gs = master.standard_normal((pieces, n, d))
    scale = L / np.maximum(np.linalg.norm(Gs.reshape(pieces, -1), axis=1), 1e-12)
    Gs *= scale[:, None, None]
    cs = master.standard_normal(pieces)

    def oracle(live, W, j_noise):
        W = densify(live, W, n)
        loss = np.empty(len(W))
        best = np.empty(len(W), dtype=np.int64)
        for s in range(len(W)):
            vals = np.einsum("jnd,nd->j", Gs, W[s]) + cs + 0.1 * j_noise[s]
            best[s] = np.argmax(vals)
            loss[s] = vals[best[s]]
        rows = np.broadcast_to(np.arange(n), (len(W), n))
        return loss, rows, Gs[best]

    def draw(rngs, k):
        return np.stack([rng.integers(0, pieces, size=k) for rng in rngs], axis=1)

    return Sampler(pieces, draw, oracle)


def random_hinge_sampler(n, d, L, rng_seed=0, pieces=5):
    """Stochastic losses W -> max(<G_k, W> + c_k, 0) with ||G_k||_F = L, one
    k drawn per run and step.  Many subgradients are zero, and a step on
    one hinge can switch another on or off."""
    master = np.random.default_rng(rng_seed)
    Gs = master.standard_normal((pieces, n, d))
    Gs *= (L / np.linalg.norm(Gs.reshape(pieces, -1), axis=1))[:, None, None]
    cs = master.standard_normal(pieces)

    def oracle(live, W, k):
        W = densify(live, W, n)
        vals = np.einsum("snd,snd->s", Gs[k], W) + cs[k]
        on = vals > 0
        rows = np.broadcast_to(np.arange(n), (len(W), n))
        return np.maximum(vals, 0.0), rows, np.where(on[:, None, None], Gs[k], 0.0)

    def draw(rngs, k):
        return np.stack([rng.integers(0, pieces, size=k) for rng in rngs], axis=1)

    return Sampler(pieces, draw, oracle)


def max_affine_pieces(m):
    """The convex witness's pieces (j, m+z), bit j of z set, in (z, j)
    order: the order in which an argmax over all pieces breaks ties."""
    j = np.tile(np.arange(m), 1 << m)
    z = np.repeat(np.arange(1 << m), m)
    keep = ((z >> j) & 1) == 1
    return j[keep], m + z[keep]


def min_form_anchors(m, eps):
    """The min-form witness's m 2^m anchors (j, m+z) in (z, j) order, and
    their values: +eps if bit j of z is set, -eps if not."""
    j = np.tile(np.arange(m, dtype=np.int64), 1 << m)
    z = np.repeat(np.arange(1 << m, dtype=np.int64), m)
    return j, m + z, np.where(((z >> j) & 1) == 1, eps, -eps)


def dense_loss_subgrad(fn, W, x):
    """One run of the convex witness's (loss, subgradient): gather every
    piece 0.5*(z_j + z_{m+z}), take the first argmax, build V densely."""
    j_arr, zc_arr = max_affine_pieces(fn.m)
    z = W @ x
    piece_vals = 0.5 * (z[j_arr] + z[zc_arr])
    best = int(np.argmax(piece_vals))
    V = np.zeros_like(W)
    if piece_vals[best] >= fn.kappa:
        V[j_arr[best]] = 0.5 * x
        V[zc_arr[best]] += 0.5 * x
        val = piece_vals[best] + fn.shift
    else:
        val = fn.kappa + fn.shift
    return float(val), V, (int(j_arr[best]), int(zc_arr[best]))


def q_loop_table(inst, ys):
    """witness_values by the Q loop: per block of TABULATE_BLOCK labelings,
    Q = X W_y^T for each labeling y of the block, stacked, and the
    witness's eval on all of Q.  Each distinct W_y is built once: by
    witness_for on the encoded kinds, and read off zero_init_stack on
    zero-init."""
    m, X = inst.m, inst.points
    witness = (zero_init_stack(inst)["witnesses"].__getitem__
               if inst.kind == "zero-init" else inst.witness_for)
    rows = {y: X @ witness(y).T for y in set(map(int, ys))}
    table = np.empty((len(ys), m))
    for start in range(0, len(ys), TABULATE_BLOCK):
        block = ys[start : start + TABULATE_BLOCK]
        Q = np.vstack([rows[int(y)] for y in block])
        table[start : start + len(block)] = inst.witness_fn.eval(Q).reshape(len(block), m)
    return table


def stack_separated_family(d, m, n, seed, scale=1.0, max_resamples=20):
    """The separated family as one (2^m, n, d) stack per draw, scaled, with
    its anchors X W_s^T per matrix, redrawn until separated: (points,
    matrices, anchors, separation, separation_ok, draws made), the best
    draw's."""
    rng = np.random.default_rng(seed)
    block = max(1, FAMILY_BLOCK_BYTES // (8 * n * d))
    best = None
    for attempt in range(max_resamples):
        X = rng.standard_normal((m, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        W = rng.standard_normal((1 << m, n, d))
        W /= math.sqrt(n)
        # by blocks, each row reduced as in one call, so no second stack
        flat = W.reshape(1 << m, -1)
        fro = np.concatenate([np.linalg.norm(flat[s : s + block], axis=1)
                              for s in range(0, 1 << m, block)])
        cap = math.sqrt(2.0 * d)
        over = fro > cap
        if over.any():
            W[over] *= (cap / fro[over])[:, None, None]
        W *= scale
        anchors = np.concatenate([X @ W[s].T for s in range(1 << m)])
        sep = _kernels.min_pairwise_dist(anchors)
        ok = sep >= scale * SEPARATION_TARGET
        if best is None or sep > best[3]:
            best = [X, W, anchors, sep, ok]
        if ok:
            break
    return (*best, attempt + 1)


def stack_zero_init_parts(d, m, n, seed, scale, max_resamples=20):
    """What a zero-init instance reads off the stacked family: the points,
    the scaled stack, its anchors and ball norms, and the separation
    fields."""
    X, W, anchors, sep, ok, draws = stack_separated_family(d, m, n, seed, scale,
                                                           max_resamples)
    norms = np.array([np.linalg.norm(W[y] - np.zeros((n, d)))
                      for y in range(1 << m)])
    return dict(points=X, witnesses=W, anchors=anchors, norms=norms,
                separation=sep, separation_ok=ok, resamples_used=draws)


def zero_init_stack(inst):
    """stack_zero_init_parts of a zero-init instance, rebuilt from its
    params: the family its build drew, the matrices W_y included, which
    the instance does not keep."""
    p = inst.params
    return stack_zero_init_parts(inst.d, inst.m, inst.n, p["seed"],
                                 8.0 * inst.margin / p["L"], p["max_resamples"])


def stacked_empirical_lipschitz(f, sampler, metric, pairs, seed):
    """The slope probe with all pairs drawn u, v, u, v, ..., stacked and
    evaluated at once."""
    rng = np.random.default_rng(seed)
    u = np.asarray(sampler(rng), dtype=np.float64)
    U, V = np.empty((2, pairs, u.size))
    U[0], V[0] = u, sampler(rng)
    for k in range(1, pairs):
        U[k], V[k] = sampler(rng), sampler(rng)
    if hasattr(f, "eval"):
        fu, fv = f.eval(U), f.eval(V)
    else:
        fu = np.array([f(u) for u in U])
        fv = np.array([f(v) for v in V])
    U -= V
    d = (np.linalg.norm(U, axis=1) if metric == "euclidean-vector"
         else np.max(np.abs(U, out=U), axis=1))
    ok = d > 0.0
    if not ok.any():
        return 0.0
    return float(np.max(np.abs(fu[ok] - fv[ok]) / d[ok]))


def max_metric_min_form(anchors, values, L, X):
    """min_k (p_k + L max_c |x_c - a_kc|) on each row of X: the McShane
    extension in the max metric, every anchor scanned."""
    A = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = np.max(np.abs(X[:, None, :] - A[None, :, :]), axis=2)
    return np.min(np.asarray(values, dtype=np.float64)[None, :] + L * d, axis=1)


def empirical_cover(function_table, eps):
    """Greedy farthest-point proper cover of the table's rows under the
    empirical L2 distance d_m; returns the center indices."""
    table = np.atleast_2d(np.asarray(function_table, dtype=np.float64))
    m = table.shape[1]
    centers = [0]
    d_min = np.linalg.norm(table - table[0], axis=1) / math.sqrt(m)
    while True:
        far = int(np.argmax(d_min))
        if d_min[far] <= eps:
            break
        centers.append(far)
        d_new = np.linalg.norm(table - table[far], axis=1) / math.sqrt(m)
        np.minimum(d_min, d_new, out=d_min)
    return centers
