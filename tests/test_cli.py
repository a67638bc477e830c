import json
import math
import os
import subprocess
import sys

import pytest

from caplab import cli, complexity, constructions
from caplab.errors import CapacityExceededError, NumericalFailureError


def run(args):
    return cli.main(args)


def test_parse_basic(tmp_path):
    cfg = cli.parse_config([
        "construct", "--kind", "nonzero-init", "--m", "8",
        "--eps", "0.25", "--out", str(tmp_path)])
    assert cfg.command == "construct"
    assert cfg.parameters["kind"] == "nonzero-init"
    assert cfg.parameters["m"] == 8
    assert cfg.seed == 0


def test_parse_unknown_key_lists_valid():
    with pytest.raises(cli.UsageError, match="valid keys"):
        cli.parse_config(["construct", "--bogus", "1", "--out", "x"])


def test_parse_type_error_names_key(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"m": "eight", "kind": "nonzero-init",
                                   "out": str(tmp_path)}))
    with pytest.raises(cli.UsageError, match="'m'"):
        cli.parse_config(["construct", "--config", str(cfgfile)])


def test_flag_overrides_file(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"kind": "nonzero-init", "m": 4,
                                   "seed": 7, "out": str(tmp_path / "a")}))
    cfg = cli.parse_config(["construct", "--config", str(cfgfile),
                            "--seed", "42"])
    assert cfg.seed == 42
    assert cfg.parameters["m"] == 4


def test_unknown_command_exit_code(capsys):
    assert run(["frobnicate"]) == cli.EXIT_USAGE
    assert "valid" in capsys.readouterr().err


def test_construct_verify_roundtrip(tmp_path):
    a = tmp_path / "a"
    assert run(["construct", "--kind", "nonzero-init", "--m", "6",
                "--eps", "0.25", "--out", str(a)]) == 0
    man = json.loads((a / "manifest.json").read_text())
    assert man["instance"]["kind"] == "nonzero-init"
    v = tmp_path / "v"
    assert run(["verify", "--instance", str(a / "manifest.json"),
                "--out", str(v)]) == 0
    body = (v / "results.csv").read_text().splitlines()
    assert body[0].startswith("passed,worst_slack")
    assert body[1].startswith("true,0.0")


def test_verify_failure_is_exit_2(tmp_path):
    a = tmp_path / "a"
    # eps > 0.25 breaks the convex construction's exact outputs
    assert run(["construct", "--kind", "convex", "--m", "4",
                "--eps", "0.3", "--out", str(a)]) == 0
    assert run(["verify", "--instance", str(a / "manifest.json"),
                "--out", str(tmp_path / "v")]) == cli.EXIT_SCIENCE


def test_rademacher_command(tmp_path):
    a = tmp_path / "a"
    run(["construct", "--kind", "nonzero-init", "--m", "4",
         "--eps", "0.25", "--out", str(a)])
    r = tmp_path / "r"
    assert run(["rademacher", "--instance", str(a / "manifest.json"),
                "--draws", "2000", "--out", str(r)]) == 0
    rows = (r / "results.csv").read_text().splitlines()
    assert rows[0] == "id,m,draws,mean,stderr,strategy"
    assert rows[1].split(",")[3] == "0.25"


def test_cover_and_dudley_commands(tmp_path):
    c = tmp_path / "c"
    assert run(["cover", "--kind", "scalar-linear", "--B", "1", "--b-x", "1",
                "--eps-grid", "1.0,0.5", "--out", str(c)]) == 0
    rows = (c / "results.csv").read_text().splitlines()
    assert rows[1].endswith("1.0")
    d = tmp_path / "d"
    assert run(["dudley", "--kind", "scalar-linear", "--B", "1", "--b-x", "1",
                "--lb", "1.0", "--m", "100", "--out", str(d)]) == 0
    man = json.loads((d / "manifest.json").read_text())
    assert man["discretization"]["panels"] == 1024
    header, row = (d / "results.csv").read_text().splitlines()
    assert header.split(",")[-1] == "bound"
    bound = float(row.split(",")[-1])
    # the grid's top scale eps = lb gives 4 lb with a zero integral
    assert math.isfinite(bound) and 0.0 < bound <= 4.0 * 1.0


def test_sgd_and_uc_gap_commands(tmp_path):
    a = tmp_path / "a"
    run(["construct", "--kind", "convex", "--m", "4", "--eps", "0.25",
         "--out", str(a)])
    s = tmp_path / "s"
    assert run(["sgd", "--instance", str(a / "manifest.json"),
                "--T-grid", "10,50", "--num-seeds", "3",
                "--out", str(s)]) == 0
    g = tmp_path / "g"
    assert run(["uc-gap", "--instance", str(a / "manifest.json"),
                "--sample-size", "2", "--num-seeds", "5",
                "--out", str(g)]) == 0
    rows = (g / "results.csv").read_text().splitlines()
    assert all(r.endswith("true") for r in rows[1:])


def test_bounds_command(tmp_path):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps([
        {"formula": "sgd-sample", "params": {"B": 1, "L": 2, "eps": 0.5}},
        {"formula": "smooth-one-layer",
         "params": {"b": 1, "b_x": 1, "B": 2, "B0": 0, "L": 1, "mu": 0,
                    "eps": 1}},
    ]))
    b = tmp_path / "b"
    assert run(["bounds", "--params", str(pfile), "--out", str(b)]) == 0
    rows = (b / "results.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[1] == "16.0"
    assert rows[2].split(",")[1] == "9.0"


@pytest.mark.parametrize("formula", [["x"], {"id": "sgd-sample"}, 3, None],
                         ids=["list", "dict", "number", "null"])
def test_bounds_non_string_formula_is_one_line_exit_1(tmp_path, capsys, formula):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps([{"formula": formula, "params": {}}]))
    capsys.readouterr()
    code = run(["bounds", "--params", str(pfile), "--out", str(tmp_path / "b")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: unknown formula id") and err.count("\n") == 1


def test_empty_cover_grid_is_refused(tmp_path, capsys):
    out = tmp_path / "c"
    capsys.readouterr()
    code = run(["cover", "--kind", "scalar-linear", "--B", "1", "--b-x", "1",
                "--eps-grid", "", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err == "error: need at least one eps in eps_grid\n"
    assert not (out / "results.csv").exists()


def test_rademacher_has_no_strategy_key(tmp_path, capsys):
    manifest = _construct_m3(tmp_path)
    capsys.readouterr()
    code = run(["rademacher", "--instance", manifest, "--strategy",
                "enumerate-witnesses", "--out", str(tmp_path / "r")])
    assert code == cli.EXIT_USAGE
    assert "unknown key 'strategy'" in capsys.readouterr().err


def test_byte_determinism(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        a = tmp_path / name
        run(["construct", "--kind", "zero-init", "--B", "4", "--L", "4",
             "--eps", "0.25", "--m-cap", "4", "--seed", "11", "--out", str(a)])
        outs.append((a / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_determinism_across_thread_env(tmp_path):
    # BLAS reads its thread count at import, so each run is a child process
    script = "import sys; from caplab import cli; sys.exit(cli.main(sys.argv[1:]))"
    caplab_root = os.path.dirname(os.path.dirname(cli.__file__))
    outs = []
    for name, threads in (("t1", "1"), ("t2", "2")):
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": caplab_root,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        a = tmp_path / name
        r = tmp_path / (name + "r")
        for argv in (["construct", "--kind", "nonzero-init", "--m", "5",
                      "--eps", "0.25", "--out", str(a)],
                     ["rademacher", "--instance", str(a / "manifest.json"),
                      "--draws", "4000", "--seed", "9", "--out", str(r)]):
            proc = subprocess.run([sys.executable, "-c", script] + argv,
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        outs.append((r / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_output_not_writable(tmp_path, monkeypatch):
    target = tmp_path / "file"
    target.write_text("x")
    # path exists as a file: makedirs fails -> usage-style exit 1
    code = run(["construct", "--kind", "nonzero-init", "--m", "3",
                "--eps", "0.25", "--out", str(target)])
    assert code == cli.EXIT_USAGE


def _construct_m3(tmp_path, kind="nonzero-init"):
    a = tmp_path / "a"
    assert run(["construct", "--kind", kind, "--m", "3",
                "--eps", "0.25", "--out", str(a)]) == 0
    return str(a / "manifest.json")


def test_numerical_failure_is_one_line_exit_2(tmp_path, monkeypatch, capsys):
    manifest = _construct_m3(tmp_path)

    def diverge(inst):
        raise NumericalFailureError("power iteration did not converge")

    monkeypatch.setattr(cli.constructions, "verify_shattering", diverge)
    capsys.readouterr()
    code = run(["verify", "--instance", manifest, "--out", str(tmp_path / "v")])
    assert code == cli.EXIT_SCIENCE
    assert capsys.readouterr().err == "error: power iteration did not converge\n"


def test_memory_error_is_one_line_exit_1(tmp_path, monkeypatch, capsys):
    manifest = _construct_m3(tmp_path)

    def exhaust(inst):
        raise MemoryError

    monkeypatch.setattr(cli.constructions, "verify_shattering", exhaust)
    capsys.readouterr()
    code = run(["verify", "--instance", manifest, "--out", str(tmp_path / "v")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: out of memory\n"


def test_rademacher_refuses_m_over_enumeration_cap(tmp_path, monkeypatch, capsys):
    # m = 15 is a valid lazy instance but 2^15 labelings exceed the
    # enumeration cap: tabulation must refuse before any witness is built
    a = tmp_path / "a"
    assert run(["construct", "--kind", "convex", "--m", "15",
                "--eps", "0.25", "--out", str(a)]) == 0

    def refuse(self, y):
        raise AssertionError("witness built past the enumeration cap")

    monkeypatch.setattr(constructions.ShatterInstance, "witness_for", refuse)
    with pytest.raises(CapacityExceededError):
        complexity.witness_table(constructions.convex_instance(15, 0.25))
    capsys.readouterr()
    code = run(["rademacher", "--instance", str(a / "manifest.json"),
                "--draws", "10", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,flags", [
    ("sgd", ["--num-seeds", "0"]),
    ("sgd", ["--num-seeds", "-3"]),
    ("sgd", ["--T-grid", ""]),
    ("uc-gap", ["--sample-size", "2", "--num-seeds", "0"]),
])
def test_empty_seed_list_or_T_grid_is_refused(tmp_path, capsys, command, flags):
    manifest = _construct_m3(tmp_path, "convex")
    out = tmp_path / "r"
    capsys.readouterr()
    code = run([command, "--instance", manifest, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: need at least one ") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


_ZERO = {"B": 4, "L": 4, "m_cap": 3, "seed": 1}


@pytest.mark.parametrize("record,message", [
    ({"kind": "zero-init"}, "lacks field 'params.B'"),
    ({"kind": "zero-init", "params": _ZERO}, "lacks field 'eps'"),
    ({"kind": "zero-init", "eps": 0.25, "params": "x"}, "'params' must be a JSON object"),
    ({"kind": "zero-init", "eps": 0.25, "params": {**_ZERO, "seed": -1}},
     "'params.seed' must be a nonnegative integer, got -1"),
    ({"kind": "zero-init", "eps": 0.25, "params": {**_ZERO, "B": float("inf")}},
     "'params.B' must be a finite number, got inf"),
    ({"kind": "zero-init", "eps": 0.25, "params": {**_ZERO, "max_resamples": 0}},
     "max_resamples must be >= 1"),
    ({"kind": "nonzero-init", "m": "x", "eps": 0.25},
     "'m' must be a nonnegative integer, got 'x'"),
    ({"kind": "nonzero-init", "m": 4.0, "eps": 0.25},
     "'m' must be a nonnegative integer, got 4.0"),
    ({"kind": "nonzero-init", "m": True, "eps": 0.25},
     "'m' must be a nonnegative integer, got True"),
    ({"kind": "convex", "m": 4}, "lacks field 'eps'"),
    ({"kind": "convex", "m": 4, "eps": 0.25, "params": {"kappa": "high"}},
     "'params.kappa' must be a finite number, got 'high'"),
    ([], "instance record must be a JSON object"),
], ids=["zero-init-no-B", "zero-init-no-eps", "params-not-object", "negative-seed",
        "infinite-B", "no-resamples", "m-string", "m-float", "m-bool",
        "convex-no-eps", "kappa-string", "record-not-object"])
def test_malformed_instance_record_is_one_line_exit_1(tmp_path, capsys, record, message):
    manifest = tmp_path / "f.json"
    manifest.write_text(json.dumps({"instance": record}))
    capsys.readouterr()
    code = run(["verify", "--instance", str(manifest), "--out", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_negative_seed_and_no_resamples_are_refused(tmp_path, capsys):
    manifest = _construct_m3(tmp_path)
    for args in (["construct", "--kind", "zero-init", "--m-cap", "3", "--seed", "-1"],
                 ["construct", "--kind", "zero-init", "--m-cap", "3",
                  "--max-resamples", "0"],
                 ["rademacher", "--instance", manifest, "--draws", "10",
                  "--seed", "-1"]):
        capsys.readouterr()
        code = run([*args, "--out", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE, args
        assert err.startswith("error: ") and err.count("\n") == 1


_EDGE_VALUES = ["nan", "inf", "-inf", "1e308", "1e-308"]
_COVER_BASE = {"B": "2", "b_x": "1", "r": "1", "L": "1", "k": "1", "c": "1",
               "eps_grid": "0.5"}


def _flags(params):
    return [t for k, v in params.items() for t in ("--" + k, v)]


def _edge_cases(tmp_path):
    """(label, argv) for every float key of the float-taking commands at
    every edge value; rademacher takes its floats from the instance record."""
    base = {"zero-init": {"m_cap": "3", "n": "64"}, "nonzero-init": {"m": "3"},
            "convex": {"m": "3"}}
    for kind, extra in base.items():
        for key in ("eps", "kappa", "B", "L"):
            for v in _EDGE_VALUES:
                yield (f"construct {kind} {key}={v}",
                       ["construct", "--kind", kind, *_flags({**extra, key: v})])
    records = {
        "zero-init": ({"kind": "zero-init", "eps": 0.25,
                       "params": {"B": 4, "L": 4, "m_cap": 3, "seed": 1, "n": 64}},
                      ("eps", "B", "L")),
        "nonzero-init": ({"kind": "nonzero-init", "m": 3, "eps": 0.25}, ("eps",)),
        "convex": ({"kind": "convex", "m": 3, "eps": 0.25, "params": {"kappa": 0.5}},
                   ("eps", "kappa")),
    }
    for kind, (record, keys) in records.items():
        for key in keys:
            for v in _EDGE_VALUES:
                rec = json.loads(json.dumps(record))
                (rec if key == "eps" else rec["params"])[key] = float(v)
                path = tmp_path / f"rec-{kind}-{key}-{v}.json"
                path.write_text(json.dumps({"instance": rec}))
                yield (f"rademacher {kind} {key}={v}",
                       ["rademacher", "--instance", str(path), "--draws", "50"])
    for kind in complexity.COVER_KINDS:
        for key in _COVER_BASE:
            for v in _EDGE_VALUES:
                yield (f"cover {kind} {key}={v}",
                       ["cover", "--kind", kind, *_flags({**_COVER_BASE, key: v})])
        for key in (*_COVER_BASE, "lb"):
            for v in _EDGE_VALUES:
                params = {**_COVER_BASE, "lb": "1", "m": "10", key: v}
                yield (f"dudley {kind} {key}={v}",
                       ["dudley", "--kind", kind, *_flags(params)])
    manifest = _construct_m3(tmp_path, "convex")
    for v in _EDGE_VALUES:
        yield (f"sgd tolerance={v}",
               ["sgd", "--instance", manifest, "--T-grid", "10", "--num-seeds",
                "2", "--tolerance", v])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_float_flags_at_the_float_edge_end_in_one_line(tmp_path, capsys):
    # nan, +-inf, 1e308 and 1e-308 in every float key: main returns (never
    # raises), refuses non-finite values with exit 1, and a nonzero exit
    # leaves exactly one "error:" line on stderr
    bad = []
    for label, argv in _edge_cases(tmp_path):
        capsys.readouterr()
        try:
            code = run([*argv, "--out", str(tmp_path / "out")])
        except BaseException as e:  # noqa: BLE001 - any escape is the failure
            bad.append(f"{label}: raised {type(e).__name__}: {e}")
            continue
        err = capsys.readouterr().err
        lines = err.splitlines()
        if code not in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_SCIENCE):
            bad.append(f"{label}: exit {code!r}")
        elif code != cli.EXIT_OK and not (
                len(lines) == 1 and lines[0].startswith("error: ")
                and err.endswith("\n")):
            bad.append(f"{label}: exit {code} with stderr {err!r}")
        elif label.split("=")[-1] in ("nan", "inf", "-inf") \
                and code != cli.EXIT_USAGE:
            bad.append(f"{label}: non-finite value not refused (exit {code})")
    assert not bad, "\n".join(bad)
