"""caplab's benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it builds nothing and imports caplab
from the checkout's `src/`.  It first takes `setup_s`: the wall time of
SETUP_SAMPLES fresh processes that each import `caplab.cli` and run one
untimed warm-up operation.  Then one worker process (worker.py) runs the
workload's operation sequence as a closed loop, one client, for about S
seconds.  The report lists the environment, every metric with its unit and
sample count, and each operation's median time, output digest and failures.
The last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`metrics` holds the `end_to_end` metrics of BENCHMARK.json with `--trace 0`
and its `per_layer` metrics with `--trace 1`.  `attempted` and `failed`
count operations.  A failure is a raise, an unexpected exit code or a failed
oracle; failed / attempted is the run's `fail_frac`.  `correct` is false
when an operation returned a wrong output.  An operation that raised
returned none: it counts in `failed`, with its exception in the report.

End-to-end: `wall_s` is the operation sequence's time, summed from each
operation's median over the run's sequences; `setup_s` is the median set-up
sample; `peak_rss_mb` is the worker's peak resident set through its first
sequence.  Per layer, besides the span totals of tracing.py:
`stage.<stage>_s` times one stage of the untraced sequence,
`trace.overhead_s` is the traced minus the untraced sequence time,
`trace.spans` counts spans, `harness.untraced_s` is the time inside timed
operations that no span covers, and `ops.fail_frac` is failed / attempted.

Artifacts go to a temporary directory under `.perfbench_out/` that is
removed at the end.  The run record, and for traced runs the span table,
stay in `.perfbench_out/`.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170     # every process this run starts ends by then
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
STAGES = ("verify", "rademacher", "sgd", "net", "svd", "dense_query")


class BenchError(Exception):
    pass


def check_name(name):
    if not isinstance(name, str) or not NAME.match(name):
        raise BenchError(f"invalid metric or workload name {name!r}")
    return name


def load_spec(path):
    """BENCHMARK.json, with every name and unit checked."""
    with open(path) as fh:
        spec = json.load(fh)
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            check_name(m["name"])
            if not UNIT.match(m["unit"]):
                raise BenchError(f"invalid unit {m['unit']!r} of {m['name']}")
    for w in spec["workloads"]:
        check_name(w["name"])
    return spec


def summarize(samples):
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank), and the sample count."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(xs) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = xs[max(math.ceil(p / 100 * len(xs)) - 1, 0)]
            break
    return out


def fmt_summary(s, unit):
    extra = "".join(f"  {k} {v:.6g}" for k, v in s.items()
                    if k.startswith("p"))
    return f"median {s['median']:.6g} {unit}{extra}  (n={s['n']})"


def spawn(args, deadline):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               CAPLAB_THREADS="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               *args], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"worker {args} timed out")


def checked(proc):
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited {proc.returncode}")
    return proc


def sequence_wall(results):
    return sum(r["seconds"] for r in results)


def median_wall(iterations):
    """The sequence's time, summed from each operation's median over the
    sequences run; a stall in one operation of one sequence drops out once
    three or more sequences ran."""
    return sum(statistics.median(it[k]["seconds"] for it in iterations)
               for k in range(len(iterations[0])))


def end_to_end(record, setup):
    return {
        "setup_s": statistics.median(setup),
        "wall_s": median_wall(record["iterations"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record, attempted, failed):
    untraced, *traced = record["iterations"]
    traced_wall = statistics.mean(sequence_wall(it) for it in traced)
    out = dict(record["layers"])
    out["trace.overhead_s"] = (
        statistics.median(sequence_wall(it) for it in traced)
        - sequence_wall(untraced))
    out["trace.spans"] = record["spans"]
    out["harness.untraced_s"] = traced_wall - record["root_s"]
    for stage in STAGES:
        out[f"stage.{stage}_s"] = sum((r["seconds"] for r in untraced
                                       if r["stage"] == stage), 0.0)
    out["ops.fail_frac"] = failed / attempted
    return out


def report(args, spec, record, setup, metrics, attempted, failed):
    env = record["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(
        [f"{k}={env[k]}" for k in ("caplab_use_numba", "python", "numpy",
                                   "blas", "nproc", "commit")]
        + [f"{k}={v}" for k, v in env["vars"].items()]))
    print(f"setup_s {fmt_summary(summarize(setup), 's')}")
    untraced = [it for it, t in zip(record["iterations"], record["traced"])
                if not t]
    walls = summarize(map(sequence_wall, untraced))
    print(f"sequence wall {fmt_summary(walls, 's')}; "
          f"wall_s (sum of operation medians) {median_wall(untraced):.6g} s")
    for stage in STAGES:
        times = [sum(r["seconds"] for r in it if r["stage"] == stage)
                 for it in untraced]
        if any(times):
            print(f"{stage}_s {fmt_summary(summarize(times), 's')}")
    print(f"peak_rss_mb {record['peak_rss_mb']:.1f} MB")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
    print("operations (median over all sequences; sha256[:16] of the output):")
    for k, name in enumerate(record["ops"]):
        runs = [it[k] for it in record["iterations"]]
        s = summarize(r["seconds"] for r in runs)
        problems = [r["problem"] for r in runs if r["problem"]]
        status = (f"FAILED {len(problems)}/{len(runs)}: {problems[0]}"
                  if problems else "ok")
        print(f"  {k:2d} {name:40s} {s['median']:9.4f} s  "
              f"{runs[0]['digest'] or '-':16s}  {status}")
    if args.trace:
        traced_wall = statistics.mean(
            sequence_wall(it) for it, t in zip(record["iterations"],
                                               record["traced"]) if t)
        print(f"traced spans by inclusive time, per traced sequence "
              f"(share of traced wall {traced_wall:.4g} s):")
        layers = record["layers"]
        names = sorted({k.rsplit(".", 1)[0] for k in layers
                        if k.endswith(".calls") and layers[k] > 0},
                       key=lambda n: -layers[n + ".s"])
        for n in names:
            print(f"  {n:48s} {layers[n + '.s']:9.4f} s "
                  f"{100 * layers[n + '.s'] / traced_wall:5.1f}%  "
                  f"self {layers[n + '.self_s']:9.4f} s  "
                  f"calls {layers[n + '.calls']:.0f}")
    group = "per_layer" if args.trace else "end_to_end"
    print(f"{group} metrics:")
    for m in spec[group]:
        print(f"  {m['name']:52s} {metrics[m['name']]['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "caplab", "cli.py")):
        raise BenchError(f"no caplab sources under {os.path.join(ROOT, 'src')}")
    spec = load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        raise BenchError("--seconds must be at least 1")

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        setup = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            checked(spawn(["--tmp", tmp], deadline))
            setup.append(time.perf_counter() - t0)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        proc = checked(spawn(
            ["--tmp", tmp, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", os.path.join(OUT, f"spans-{args.workload}.json")],
            deadline))
        sys.stderr.write(proc.stderr)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = [r for it in record["iterations"] for r in it]
    attempted = len(results)
    failed = sum(r["problem"] is not None for r in results)
    wrong = any(r["problem"] is not None and not r["raised"] for r in results)
    if args.trace:
        values, group = per_layer(record, attempted, failed), "per_layer"
    else:
        values, group = end_to_end(record, setup), "end_to_end"
    metrics = {}
    for m in spec[group]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    report(args, spec, record, setup, metrics, attempted, failed)
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"setup_s": setup, "metrics": metrics, **record}, fh)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        sys.exit(2)
