"""Acceptance suite: ten end-to-end criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import caplab
from caplab import complexity as cx
from caplab import constructions as cn
from caplab import learner as lr
from caplab import bounds as bd
from caplab import numerics as nm


def _report(num, label, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_explicit_construction_exact():
    t0 = time.time()
    inst = cn.nonzero_init_instance(10, 0.25)
    rep = cn.verify_shattering(inst)
    elapsed = time.time() - t0
    norm_ok = abs(nm.spectral_norm(inst.W0) - 2 * math.sqrt(2) * 0.25) <= 1e-9
    ok = (rep.passed and rep.worst_slack == 0.0
          and rep.checked_labelings == 1024 and norm_ok and elapsed < 10.0)
    _report(1, f"explicit m=10 worst_slack={rep.worst_slack} "
               f"({elapsed:.1f}s)", ok)


def test_criterion_2_convex_construction():
    t0 = time.time()
    inst = cn.convex_instance(8, 0.2)
    rep = cn.verify_shattering(inst)
    f = inst.witness_fn
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10000, inst.n))
    B = rng.standard_normal((10000, inst.n))
    mid_slack = (0.5 * (f.eval(A) + f.eval(B)) - f.eval(0.5 * (A + B))).min()
    from caplab.lipschitz import empirical_lipschitz
    lip = empirical_lipschitz(
        f, lambda r: r.standard_normal(inst.n), "infinity", 10000, 1)
    elapsed = time.time() - t0
    ok = (rep.passed and rep.checked_labelings == 256
          and mid_slack >= -1e-12 and lip <= 1.0 + 1e-9 and elapsed < 30.0)
    _report(2, f"convex m=8 slack={rep.worst_slack:.2e} midpoint={mid_slack:.2e} "
               f"lip={lip:.3f} ({elapsed:.1f}s)", ok)


def test_criterion_3_nondecay_signature():
    ok = True
    means = []
    for m in (2, 4, 8, 12):
        inst = cn.nonzero_init_instance(m, 0.25)
        est = cx.rademacher_mc(cn.witness_table(inst), 100000, seed=17)
        means.append(est.mean)
        ok &= abs(est.mean - 0.25) <= 3 * est.stderr + 1e-15
    _report(3, f"non-decay means={means}", ok)


def test_criterion_4_decay_signature():
    est = cx.linear_rademacher_mc(np.eye(4), 1.0, 1000, seed=2)
    exact_half = est.mean == 0.5 and est.stderr == 0.0
    rng = np.random.default_rng(31)

    def unit(m):
        P = rng.standard_normal((m, 40))
        return P / np.linalg.norm(P, axis=1, keepdims=True)

    e1 = cx.linear_rademacher_mc(unit(16), 1.0, 100000, seed=6)
    e2 = cx.linear_rademacher_mc(unit(64), 1.0, 100000, seed=6)
    ratio = e1.mean / e2.mean
    ok = exact_half and 1.6 <= ratio <= 2.5
    _report(4, f"decay orthonormal={est.mean} ratio={ratio:.3f}", ok)


def test_criterion_5_sgd_regret_and_excess():
    from oracles import random_piecewise_sampler
    ok = True
    rng = np.random.default_rng(55)
    for run in range(100):
        n, d = rng.integers(2, 5, size=2)
        L = float(rng.random() + 0.5)
        B = float(rng.random() * 2 + 0.5)
        W0 = rng.standard_normal((n, d))
        D = rng.standard_normal((n, d))
        Wstar = W0 + (B * rng.random() / np.linalg.norm(D)) * D
        cfg = lr.SgdConfig(W0=W0, B=B, T=int(rng.integers(1, 50)), L=L,
                           seeds=(run,))
        res = lr.sgd_run(cfg, random_piecewise_sampler(n, d, L, run),
                         comparator=Wstar)
        ok &= bool(res.regret_lhs[0] <= res.regret_rhs[0] + 1e-9
                   and res.ball_ok[0])

    inst = cn.convex_instance(6, 0.2)
    rows, summary = lr.excess_risk_experiment(
        inst, [100, 1000, 10000], list(range(20)), tolerance=0.05)
    ok &= all(s["passed"] for s in summary)
    ok &= all(r["ball_ok"] for r in rows)
    _report(5, f"regret+excess summaries={[round(s['mean_excess'], 4) for s in summary]}", ok)


def test_criterion_6_learnable_without_uc():
    inst6 = cn.convex_instance(6, 0.2)
    _, summary = lr.excess_risk_experiment(inst6, [10000], list(range(20)))
    excess_ok = summary[0]["mean_excess"] < 0.2

    inst16 = cn.convex_instance(16, 0.25)
    gaps = [r["gap"] for r in lr.uc_gap_experiment(inst16, 8, list(range(20)))]
    gap_ok = all(g >= 0.25 for g in gaps)
    ok = excess_ok and gap_ok
    _report(6, f"excess={summary[0]['mean_excess']:.3f} "
               f"min_gap={min(gaps)}", ok)


def test_criterion_7_truncation_vs_oracle():
    rng = np.random.default_rng(7)
    known = np.random.default_rng(70)   # matrices with known singular values
    ok = True
    for trial in range(100):
        B = [1.0, 2.0, 4.0][trial % 3]
        rows, cols = rng.integers(3, 10, size=2)
        eps = float(rng.random() * 0.5 + 0.2)
        U, _ = np.linalg.qr(known.standard_normal((rows, rows)))
        V, _ = np.linalg.qr(known.standard_normal((cols, cols)))
        k = min(rows, cols)
        # W = U diag(sw) V^T with ||W||_F <= B: its truncation is known
        sw = np.sort(known.random(k))[::-1]
        sw *= B * rng.random() / np.linalg.norm(sw)
        W = (U[:, :k] * sw) @ V[:, :k].T
        r = int(np.sum(sw > eps + nm.SV_TIE_TOL))
        Wt = nm.svd_truncate(W, eps)
        ok &= np.abs(Wt - (U[:, :r] * sw[:r]) @ V[:, :r].T).max() <= 1e-12 * B
        ok &= np.linalg.matrix_rank(Wt, tol=1e-10) <= int(B * B / eps**2)
        ok &= np.linalg.norm(W - Wt, 2) <= eps + 1e-9
        s = B * np.sort(0.1 + known.random(k))[::-1]
        ok &= abs(nm.spectral_norm((U[:, :k] * s) @ V[:, :k].T) - s[0]) <= 1e-12 * s[0]
    _report(7, "svd_truncate rank/error vs known singular values, spectral_norm "
               "vs known top singular value (100 matrices)", ok)


def test_criterion_8_covering():
    import itertools

    from oracles import empirical_cover
    ok = True
    for r in (1, 2, 3):
        net = nm.ball_net(r, 2.0, 0.5)
        ok &= net.size <= (1 + 2 * 2.0 / 0.5) ** r
    rng = np.random.default_rng(12)
    for _ in range(20):
        t = rng.standard_normal((10, 4))
        eps = 0.8
        centers = empirical_cover(t, eps)
        d = np.linalg.norm(t[:, None] - t[None], axis=2) / math.sqrt(t.shape[1])
        ok &= d[:, centers].min(axis=1).max() <= eps
        brute = next(
            size for size in range(1, 11)
            for subset in itertools.combinations(range(10), size)
            if d[:, subset].min(axis=1).max() <= eps)
        ok &= len(centers) >= brute
    for kind in cx.COVER_PARAMS:
        base = {"B": 2.0, "b_x": 1.0, "r": 1.0, "L": 2.0, "k": 2.0}
        vals = [cx.cover_bound(kind, {**base, "eps": e}) for e in (0.25, 0.5, 1.0)]
        ok &= bool(np.all(np.diff(vals) <= 1e-12))
    _report(8, "ball nets, greedy covers, formula monotonicity", ok)


def test_criterion_9_bound_evaluators():
    checks = [
        bd.shatter_lower_bound(8, 8, 1.0).log_value == 4096.0,
        bd.exp_class_sample_bound(1, 1, 1).value == 1.0,
        bd.exp_class_sample_bound(2, 1, 1).value == 16.0,
        bd.sgd_sample_bound(1, 1, 1).value == 1.0,
        bd.sgd_sample_bound(1, 2, 0.5).value == 16.0,
        bd.smooth_one_layer_bound(1, 1, 2, 0, 1, 0, 1).value == 9.0,
        abs(bd.deep_elementwise_bound(2, 1, 1, 1, [], [1], 1, math.e).value
            - 4.0) < 1e-12,
        bd.deep_general_bound(2, [1.5, 2.0], 0.9).value
        == bd.exp_class_sample_bound(2, 3.0, 0.9).value,
    ]
    for B0 in (32.0, 64.0, 128.0):
        a = bd.smooth_one_layer_bound(1, 1, 2, B0, 1, 0, 0.5).value
        b = bd.smooth_one_layer_bound(1, 1, 2, 2 * B0, 1, 0, 0.5).value
        checks.append(abs(b / a - 4.0) <= 0.05 * 4.0)
    ok = all(checks)
    _report(9, f"bound evaluators ({sum(checks)}/{len(checks)} checks)", ok)


def test_criterion_10_cli_byte_determinism(tmp_path):
    script = (
        "import sys; from caplab import cli; sys.exit(cli.main(sys.argv[1:]))"
    )
    # the child imports the very caplab under test, installed or on PYTHONPATH
    caplab_root = os.path.dirname(os.path.dirname(caplab.__file__))
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(
        [{"formula": "sgd-sample", "params": {"B": 1.3, "L": 2.0, "eps": 0.7}}]))
    ok = True
    for cmd in (["construct", "--kind", "nonzero-init", "--m", "6",
                 "--eps", "0.25", "--seed", "3"],
                ["bounds", "--params", str(pfile), "--seed", "0"]):
        outs = []
        for threads in ("1", "2"):
            # BLAS thread counts change how numpy schedules its matmuls
            env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": caplab_root,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            out = tmp_path / f"{cmd[0]}-{threads}"
            proc = subprocess.run(
                [sys.executable, "-c", script] + cmd + ["--out", str(out)],
                capture_output=True, env=env)
            if proc.returncode != 0:
                err = proc.stderr.decode(errors="replace").strip().splitlines()
                _report(10, f"{cmd[0]} with {threads} BLAS threads "
                            f"exited {proc.returncode}: "
                            f"{err[-1] if err else '(no stderr)'}", False)
            outs.append((out / "results.csv").read_bytes())
        ok &= outs[0] == outs[1]
    # in-process: rademacher under different chunk scheduling seeds identical
    inst = cn.nonzero_init_instance(5, 0.25)
    table = cn.witness_table(inst)
    a = cx.rademacher_mc(table, 8192, seed=9)
    b = cx.rademacher_mc(table, 8192, seed=9)
    ok &= (a.mean, a.stderr) == (b.mean, b.stderr)
    _report(10, "CLI byte-determinism across BLAS thread counts", ok)
