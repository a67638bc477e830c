"""One benchmark process, started by run.py.

    python3 perfbench/worker.py --tmp DIR                       # set-up sample
    python3 perfbench/worker.py --tmp DIR --workload W --seed N \\
        --seconds S --trace 0|1 [--spans PATH]                   # measured run

Both forms import `caplab.cli` from the checkout's `src/` and run one
untimed warm-up operation.  Without `--workload` the process then exits; its
wall time, taken by the parent, is one set-up sample.  With `--workload` it
builds the workload and runs its operation sequence in a closed loop until
the next sequence would end past `--seconds`, then prints one JSON record
as the last line of its standard output.

With `--trace 1` the first sequence runs untraced, as the base of the
tracing overhead, and the rest run with the tracer installed.
"""

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import caplab.cli  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# another sequence may start if it is expected to end by 1.1 x --seconds
CONTINUE_SLACK = 1.1

ENV_VARS = ("CAPLAB_THREADS", "CAPLAB_NO_NUMBA", "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "caplab_use_numba": bool(caplab._kernels.USE_NUMBA),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "vars": {k: os.environ.get(k, "unset") for k in ENV_VARS},
        "commit": git_commit(ROOT),
    }


def measure(ops, seconds, trace):
    """(iterations, tracer or None, peak RSS in MB through the first
    sequence): sequences run until the next one would end past the deadline;
    with `trace` the first one runs untraced.

    The peak is read after the first sequence because later ones add growth
    that depends on the allocator's state, not on the workload."""
    t_start = time.perf_counter()
    iterations = [workloads.run_iteration(ops)]
    first_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = tracing.Tracer() if trace else None
    while True:
        elapsed = time.perf_counter() - t_start
        done = elapsed + elapsed / len(iterations) > seconds * CONTINUE_SLACK
        if done and (tracer is None or len(iterations) > 1):
            return iterations, tracer, first_peak
        gc.collect()  # each sequence starts from the same heap
        if tracer is None:
            iterations.append(workloads.run_iteration(ops))
        else:
            with tracer:
                iterations.append(workloads.run_iteration(ops, tracer))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    if not os.path.abspath(caplab.cli.__file__).startswith(SRC + os.sep):
        print(f"error: caplab imported from {caplab.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    workloads.warm_up(args.tmp)
    if args.workload is None:
        return 0

    ops = workloads.BUILDERS[args.workload](args.seed, args.tmp)
    t_start = time.perf_counter()
    iterations, tracer, first_peak = measure(ops, args.seconds, args.trace)
    workloads.mark_nondeterministic(iterations)
    record = {
        "env": environment(),
        "peak_rss_mb": first_peak,
        "ops": [op.name for op in ops],
        "iterations": [[r.to_json() for r in it] for it in iterations],
        "traced": [bool(args.trace) and k > 0 for k in range(len(iterations))],
    }
    if tracer is not None:
        traced = len(iterations) - 1
        record["layers"] = tracer.layer_metrics(traced)
        record["root_s"] = tracer.root_time() / traced
        record["spans"] = tracer.num_spans / traced
        if args.spans:
            # span op id n is operation n % len(ops) of traced sequence
            # n // len(ops)
            with open(args.spans, "w") as fh:
                json.dump({"env": record["env"], "ops": record["ops"],
                           "spans": tracer.to_json(t_start)}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
