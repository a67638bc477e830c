"""Self-tests of the benchmark harness: every check it makes can fail.

    python3 -m pytest perfbench -q
"""

import csv
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import caplab  # noqa: E402
from caplab import constructions, numerics  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import EPS, Operation  # noqa: E402


def small_instance(tmp_path, kind="nonzero-init", m=4):
    ops = workloads.shatter_ops(str(tmp_path), kind, m, ["--m", m], 200, 0,
                                exact=True)
    return ops, workloads.run_iteration(ops)


def rows_of(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_small_shatter_sequence_passes_its_oracles(tmp_path):
    for kind in ("nonzero-init", "convex"):
        _, results = small_instance(tmp_path, kind)
        assert [r.problem for r in results] == [None, None, None]
        assert all(r.digest for r in results)


def test_shifted_witness_trips_the_verify_oracle(tmp_path, monkeypatch):
    ops, _ = small_instance(tmp_path)
    original = constructions.EncodedMinForm.eval
    monkeypatch.setattr(constructions.EncodedMinForm, "eval",
                        lambda self, X, chunk=512: original(self, X, chunk) + 2 * EPS)
    (verify,) = workloads.run_iteration(ops[1:2])
    assert verify.problem == "exit code 2" and not verify.raised
    rows = rows_of(tmp_path / "nonzero-init-m4-verify" / "results.csv")
    assert "did not pass" in workloads.verify_oracle(rows, exact=True)
    assert "did not pass" in workloads.verify_oracle(rows, exact=False)


def test_construct_oracle_checks_kind_and_size():
    row = {"kind": "convex", "m": "8"}
    assert workloads.construct_oracle([row], "convex", 8) is None
    assert "asked for" in workloads.construct_oracle([row], "convex", 9)
    assert "asked for" in workloads.construct_oracle([row], "zero-init", 8)


def test_verify_oracle_demands_zero_slack_on_encoded_instances():
    row = {"passed": "true", "worst_slack": "-1e-15"}
    assert workloads.verify_oracle([row], exact=False) is None
    assert "!= 0.0" in workloads.verify_oracle([row], exact=True)


def test_tampered_rademacher_row_trips_its_oracle(tmp_path):
    small_instance(tmp_path)
    rows = rows_of(tmp_path / "nonzero-init-m4-rademacher" / "results.csv")
    assert workloads.rademacher_oracle(rows, EPS) is None
    rows[0]["mean"] = repr(EPS + 1e-9)
    assert "!= eps" in workloads.rademacher_oracle(rows, EPS)


def test_a_raising_operation_is_counted_and_the_run_continues():
    def boom():
        raise AttributeError("no trapz")

    ran = []
    ops = [Operation("boom", "x", boom, lambda v: (None, None)),
           Operation("next", "x", lambda: ran.append(1) or 7,
                     lambda v: (None if v == 7 else "wrong", "d"))]
    results = workloads.run_iteration(ops)
    assert ran == [1]
    assert results[0].raised and results[0].problem.startswith(
        "raised AttributeError: no trapz")
    assert results[1].problem is None


def test_a_changed_output_between_sequences_is_a_failure():
    ops = [Operation("op", "x", lambda: None, lambda v: (None, "a"))]
    first, second = workloads.run_iteration(ops), workloads.run_iteration(ops)
    second[0].digest = "b"
    workloads.mark_nondeterministic([first, second])
    assert first[0].problem is None and "differs" in second[0].problem


def test_net_and_svd_oracles_catch_bad_outputs():
    net = numerics.ball_net(2, 1.0, 0.5)
    assert workloads.net_oracle(net, 2, 1.0, 0.5) is None
    net.centers = np.vstack([net.centers, net.centers[-1:] + 0.01])
    assert "apart" in workloads.net_oracle(net, 2, 1.0, 0.5)
    M = np.random.default_rng(0).standard_normal((12, 8))
    got = numerics.svd_truncate(M, 1.0)
    assert workloads.svd_oracle(M, 1.0, got) is None
    assert "differs" in workloads.svd_oracle(M, 1.0, got + 1e-8)


def test_metric_names_outside_the_charset_are_rejected(tmp_path):
    for name in ("wall_s", "kernels.greedy_pack.kept_ratio", "a-b.c"):
        assert run.check_name(name) == name
    for name in ("bad name", "_kernels.x", "wall/s", "", "x" * 65):
        with pytest.raises(run.BenchError):
            run.check_name(name)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    run.load_spec(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    spec["per_layer"].append({"name": "cli.main s", "unit": "s",
                              "better": "lower"})
    bad = tmp_path / "BENCHMARK.json"
    bad.write_text(json.dumps(spec))
    with pytest.raises(run.BenchError):
        run.load_spec(str(bad))


def test_every_per_layer_metric_is_measured():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = set(tracing.Tracer().layer_metrics())
    names |= {"trace.overhead_s", "trace.spans", "harness.untraced_s",
              "ops.fail_frac"} | {f"stage.{s}_s" for s in run.STAGES}
    assert {m["name"] for m in spec["per_layer"]} <= names


def _attributes():
    """Every attribute of every caplab module and of every caplab class."""
    snap = {}
    for key, mod in list(sys.modules.items()):
        if key == "caplab" or key.startswith("caplab."):
            for name, value in vars(mod).items():
                snap[(key, name)] = value
                if isinstance(value, type) and value.__module__.startswith("caplab"):
                    for attr, v in vars(value).items():
                        snap[(key, name, attr)] = v
    return snap


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _attributes()
    tracer = tracing.Tracer()
    with tracer:
        assert constructions.verify_shattering is not before[
            ("caplab.constructions", "verify_shattering")]
        assert caplab.min_feasible_slope is not before[
            ("caplab", "min_feasible_slope")]
        small_instance(tmp_path)
        with pytest.raises(caplab.CapacityExceededError):
            numerics.ball_net(5, 1.0, 0.5)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    layers = tracer.layer_metrics()
    assert layers["cli.main.calls"] == 3
    assert layers["constructions.verify_shattering.labelings"] == 16
    assert layers["kernels.encoded_min_eval.rows"] == 2 * 16 * 4
    assert layers["numerics.ball_net.failed"] == 1
    assert layers["numerics.failed"] == 1
    # self time is the span minus its children, and no span is negative
    assert all(s >= -1e-9 for s in tracer.self_times())
    assert layers["constructions.verify_shattering.self_s"] < \
        layers["constructions.verify_shattering.s"]
    assert tracer.root_time() <= sum(tracer.end[i] - tracer.start[i]
                                     for i in range(tracer.num_spans))
