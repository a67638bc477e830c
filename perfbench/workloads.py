"""The benchmark's workloads, their operations and the oracles that check
every output.

A workload is a fixed sequence of operations built from the workload seed
alone.  It runs as a closed loop with one client: each operation starts
only after the previous one has finished.  CLI operations call
`caplab.cli.main(argv)` exactly as the `caplab` command does.  Nets, SVD
truncation and the dense-query probe have no subcommand, so those call the
public library function.  Oracles run after the timed call, outside the
timed region, and hold for every seed.

Why these workloads (sizes stay below m = 12, where the dense encoded path
takes about a minute per verify):

- encoded-shatter: the encoded-witness tabulation path.
  `EncodedMinForm.eval` -> `_kernels.encoded_min_eval` and
  `EncodedMaxAffine.eval` do most of the work; SGD, nets and SVD never run.
- learn-convex: the learner.  The Python loop in `learner.sgd_run` and
  `EncodedMaxAffine.loss_subgrad` dominate; `encoded_min_eval` never runs.
- dense-geometry: the non-encoded layers (instance rebuilds, the anchored
  interpolant, packing, Jacobi SVD, closed-form bounds).  It also runs the
  witness kernel on dense queries and a draw-bound Rademacher reduction, so
  a gain for the encoded-shatter use that costs another use shows here.
"""

import csv
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

import caplab.cli
from caplab import constructions, lipschitz, numerics

EPS = 0.25
SLACK_TOL = 1e-12      # verify: worst slack of a non-encoded instance
MEAN_TOL = 1e-12       # rademacher: mean == eps on a shattered sample
SVD_TOL = 1e-9         # svd_truncate against the LAPACK oracle


@dataclass
class Operation:
    name: str       # label in the report
    stage: str      # operations of one stage are summed, e.g. "verify"
    run: object     # () -> value; the timed call
    check: object   # value -> (problem or None, digest or None); untimed


@dataclass
class OpResult:
    op: int
    name: str
    stage: str
    seconds: float
    problem: str = None   # set when the operation failed
    raised: bool = False  # the failure was an exception, not a wrong output
    digest: str = None

    def to_json(self):
        return dict(vars(self))


def run_iteration(ops, tracer=None):
    """Run every operation once, in order; a failure never stops the loop."""
    results = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id += 1  # spans of one operation run share this id
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception as e:  # counted as a failed operation, run continues
            seconds = time.perf_counter() - t0
            frames = traceback.extract_tb(e.__traceback__)
            # name the innermost caplab frame: that is where the fault is
            where = next((f for f in reversed(frames)
                          if f"{os.sep}caplab{os.sep}" in f.filename), frames[-1])
            problem = (f"raised {type(e).__name__}: {e} "
                       f"({os.path.basename(where.filename)}:{where.lineno})")
            results.append(OpResult(k, op.name, op.stage, seconds, problem,
                                    raised=True))
            continue
        seconds = time.perf_counter() - t0
        try:
            problem, digest = op.check(value)
        except Exception as e:  # an unreadable output is a wrong output
            problem, digest = f"oracle could not read the output: {e!r}", None
        results.append(OpResult(k, op.name, op.stage, seconds, problem,
                                digest=digest))
    return results


def mark_nondeterministic(iterations):
    """Fail any operation whose output digest differs from its first run."""
    first = {r.op: r.digest for r in iterations[0]}
    for results in iterations[1:]:
        for r in results:
            if r.problem is None and r.digest != first[r.op]:
                r.problem = f"output {r.digest} differs from first run {first[r.op]}"


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# oracles over results.csv rows (lists of dicts); each returns a problem or None

def construct_oracle(rows, kind, m):
    (row,) = rows
    if (row["kind"], int(row["m"])) != (kind, int(m)):
        return f"constructed {row['kind']} m={row['m']}, asked for {kind} m={m}"
    return None


def verify_oracle(rows, exact):
    (row,) = rows
    slack = float(row["worst_slack"])
    if row["passed"] != "true":
        return f"verify did not pass (worst_slack {slack!r})"
    if exact and slack != 0.0:
        return f"encoded verify worst_slack {slack!r} != 0.0"
    if slack < -SLACK_TOL:
        return f"worst_slack {slack!r} < -{SLACK_TOL}"
    return None


def rademacher_oracle(rows, eps):
    (row,) = rows
    mean = float(row["mean"])
    # a shattered sample attains +eps for every sign draw
    if abs(mean - eps) > MEAN_TOL:
        return f"rademacher mean {mean!r} != eps {eps!r}"
    return None


def sgd_oracle(rows, expected_rows):
    if len(rows) != expected_rows:
        return f"{len(rows)} sgd rows, expected {expected_rows}"
    for row in rows:
        if row["pass"] != "true":
            return f"sgd row T={row['T']} seed={row['seed']} failed its bound"
        if float(row["excess"]) < -SLACK_TOL:
            return f"sgd excess {row['excess']} below -{SLACK_TOL}"
    return None


def uc_gap_oracle(rows, eps, m):
    for row in rows:
        # exact: empirical +eps minus population eps (2 |support|/m - 1)
        want = 2.0 * eps * (1.0 - int(row["support"]) / m)
        if abs(float(row["gap"]) - want) > SLACK_TOL:
            return f"uc-gap {row['gap']} != 2 eps (1 - support/m) = {want!r}"
    return None


def cover_oracle(rows, B, b_x, grid):
    if [float(r["eps"]) for r in rows] != list(grid):
        return "cover rows do not follow the eps grid"
    for r in rows:
        want = (B * b_x / float(r["eps"])) ** 2
        if not math.isclose(float(r["log_cover"]), want, rel_tol=1e-12):
            return f"scalar-linear log cover {r['log_cover']} != {want!r}"
    return None


def bounds_oracle(rows, specs):
    if [r["formula"] for r in rows] != [s["formula"] for s in specs]:
        return "bounds rows do not follow the formulas requested"
    for r in rows:
        value, log_value = float(r["value"]), float(r["log_value"])
        if math.isinf(value):
            if log_value <= math.log(1e308):
                return f"{r['formula']}: +inf value with log {log_value!r}"
        elif not (value > 0 and math.isclose(math.log(value), log_value,
                                             rel_tol=1e-9, abs_tol=1e-9)):
            return f"{r['formula']}: value {value!r} != exp(log {log_value!r})"
    p = specs[3]["params"]
    want = p["B"] ** 2 * p["L"] ** 2 / p["eps"] ** 2
    if not math.isclose(float(rows[3]["value"]), want, rel_tol=1e-12):
        return f"sgd-sample {rows[3]['value']} != B^2 L^2 / eps^2 = {want!r}"
    return None


def dudley_oracle(rows, lb):
    (row,) = rows
    bound = float(row["bound"])
    # the grid ends at eps = lb, where the integral vanishes
    if not 0.0 < bound <= 4.0 * lb:
        return f"dudley bound {bound!r} outside (0, 4 lb]"
    return None


def net_oracle(net, r, radius, eps):
    C = net.centers
    if C.shape[1] != r or C.shape[0] < 1:
        return f"net centers have shape {C.shape}"
    if (np.linalg.norm(C, axis=1) > radius * (1 + 1e-12)).any():
        return "a net center lies outside the ball"
    for s in range(0, C.shape[0], 256):
        d = np.linalg.norm(C[s:s + 256, None, :] - C[None, :, :], axis=2)
        d[np.arange(d.shape[0]), np.arange(s, s + d.shape[0])] = np.inf
        if d.min() < eps:
            return f"two net centers are {d.min()!r} < eps = {eps} apart"
    return None


def svd_oracle(M, eps, got):
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > eps + numerics.SV_TIE_TOL))
    want = (U[:, :r] * s[:r]) @ Vt[:r]
    err = float(np.max(np.abs(got - want)))
    if not err <= SVD_TOL:
        return f"svd_truncate differs from np.linalg.svd by {err!r}"
    return None


# ---------------------------------------------------------------------------
# operations

def cli_op(name, stage, argv, out, oracle):
    """`caplab <argv> --out <out>`; exit 0 and `oracle(rows)` must hold."""
    argv = [str(a) for a in argv] + ["--out", out]

    def run():
        return caplab.cli.main(argv)

    def check(code):
        if code != 0:
            return f"exit code {code}", None
        with open(os.path.join(out, "results.csv"), "rb") as fh:
            data = fh.read()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        return oracle(rows), _sha(data)

    return Operation(name, stage, run, check)


def shatter_ops(tmp, kind, m, construct_args, draws, seed, exact):
    """construct, verify and rademacher on one instance of `kind` with m
    points."""
    tag = f"{kind}-m{m}"
    inst = os.path.join(tmp, tag)
    manifest = os.path.join(inst, "manifest.json")
    return [
        cli_op(f"construct {tag}", "construct",
               ["construct", "--kind", kind, *construct_args], inst,
               lambda rows: construct_oracle(rows, kind, m)),
        cli_op(f"verify {tag}", "verify", ["verify", "--instance", manifest],
               os.path.join(tmp, tag + "-verify"),
               lambda rows: verify_oracle(rows, exact)),
        cli_op(f"rademacher {tag}", "rademacher",
               ["rademacher", "--instance", manifest, "--draws", draws,
                "--seed", seed],
               os.path.join(tmp, tag + "-rademacher"),
               lambda rows: rademacher_oracle(rows, EPS)),
    ]


def net_op(r, eps, radius=1.0):
    def check(net):
        return net_oracle(net, r, radius, eps), _sha(net.centers.tobytes())
    return Operation(f"ball_net r={r} eps={eps}", "net",
                     lambda: numerics.ball_net(r, radius, eps), check)


def svd_op(k, M, eps):
    def check(got):
        return svd_oracle(M, eps, got), _sha(np.ascontiguousarray(got).tobytes())
    return Operation(f"svd_truncate {k}", "svd",
                     lambda: numerics.svd_truncate(M, eps), check)


def dense_query_op(seed, m=10, pairs=4096):
    """Max sampled slope of the encoded witness at dense Gaussian queries;
    the witness is 1-Lipschitz in the max metric."""
    witness = constructions.nonzero_init_instance(m, EPS).witness_fn

    def sampler(rng):
        return 0.3 * rng.standard_normal(witness.n)

    def run():
        return lipschitz.empirical_lipschitz(witness, sampler, "infinity",
                                             pairs, seed)

    def check(slope):
        problem = None
        if not 0.0 < slope <= 1.0 + 1e-12:
            problem = f"slope {slope!r} outside (0, 1]"
        return problem, _sha(repr(slope).encode())

    return Operation(f"empirical_lipschitz nonzero-init m={m}", "dense_query",
                     run, check)


def encoded_shatter(seed, tmp):
    ops = shatter_ops(tmp, "nonzero-init", 11, ["--m", 11, "--eps", EPS],
                      100_000, seed, exact=True)
    ops += shatter_ops(tmp, "convex", 10, ["--m", 10, "--eps", EPS],
                       100_000, seed, exact=True)
    return ops


def learn_convex(seed, tmp):
    inst = os.path.join(tmp, "convex-m8")
    manifest = os.path.join(inst, "manifest.json")
    return [
        cli_op("construct convex-m8", "construct",
               ["construct", "--kind", "convex", "--m", 8, "--eps", EPS],
               inst, lambda rows: construct_oracle(rows, "convex", 8)),
        # the default grid: T in {100, 1000, 10000} x 20 seeds
        cli_op("sgd", "sgd", ["sgd", "--instance", manifest, "--seed", seed],
               os.path.join(tmp, "sgd"), lambda rows: sgd_oracle(rows, 3 * 20)),
        cli_op("uc-gap", "uc_gap",
               ["uc-gap", "--instance", manifest, "--sample-size", 4,
                "--seed", seed],
               os.path.join(tmp, "uc-gap"),
               lambda rows: uc_gap_oracle(rows, EPS, 8)),
    ]


def dense_geometry(seed, tmp):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((3, 120, 80))
    cover_B = float(1.0 + rng.random())
    grid = (1.0, 0.5, 0.25, 0.125)
    specs = [
        {"formula": "shatter-lower", "params": {"B": 4, "L": 4, "eps": EPS}},
        {"formula": "exp-class", "params": {"B": 4, "L": 4, "eps": EPS}},
        {"formula": "deep-general",
         "params": {"B": 2, "S_list": [1.5, 2.0], "eps": 0.9}},
        {"formula": "sgd-sample",
         "params": {"B": 1.0, "L": 2.0, "eps": float(0.25 + 0.5 * rng.random())}},
        {"formula": "smooth-one-layer",
         "params": {"b": 1, "b_x": 1, "B": 2, "B0": 0, "L": 1, "mu": 0,
                    "eps": 1}},
        {"formula": "deep-elementwise",
         "params": {"k": 3, "b": 1, "b_x": 1, "L": 1, "S_list": [1.0],
                    "B_list": [1.0, 1.0], "eps": 0.5, "m": 100}},
    ]
    params = os.path.join(tmp, "bounds-params.json")
    with open(params, "w") as fh:
        json.dump(specs, fh)

    ops = shatter_ops(tmp, "zero-init", 9,
                      ["--B", 4, "--L", 4, "--eps", EPS, "--m-cap", 9,
                       "--seed", seed],
                      1_000_000, seed, exact=False)
    ops += [net_op(r, eps) for r, eps in ((2, 0.05), (3, 0.2), (4, 0.4))]
    ops += [svd_op(k, M, 10.0) for k, M in enumerate(mats)]
    ops.append(dense_query_op(seed))
    ops += [
        cli_op("cover", "cover",
               ["cover", "--kind", "scalar-linear", "--B", repr(cover_B),
                "--b-x", 1, "--eps-grid", ",".join(map(str, grid))],
               os.path.join(tmp, "cover"),
               lambda rows: cover_oracle(rows, cover_B, 1.0, grid)),
        cli_op("bounds", "bounds", ["bounds", "--params", params],
               os.path.join(tmp, "bounds"),
               lambda rows: bounds_oracle(rows, specs)),
        cli_op("dudley", "dudley",
               ["dudley", "--kind", "scalar-linear", "--B", 1, "--b-x", 1,
                "--lb", 1, "--m", 100],
               os.path.join(tmp, "dudley"),
               lambda rows: dudley_oracle(rows, 1.0)),
    ]
    return ops


BUILDERS = {
    "encoded-shatter": encoded_shatter,
    "learn-convex": learn_convex,
    "dense-geometry": dense_geometry,
}


def warm_up(tmp):
    """The untimed operation every benchmark process runs after import."""
    code = caplab.cli.main(["construct", "--kind", "convex", "--m", "4",
                            "--out", os.path.join(tmp, "warm-up")])
    if code != 0:
        raise RuntimeError(f"warm-up construct exited {code}")
