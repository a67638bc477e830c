import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _one_error_line(err):
    return err.count("\n") == 1 and err.startswith("error: ") and err.endswith("\n")


def test_verify_failure_is_exit_2(tmp_path, capsys):
    a = tmp_path / "a"
    # eps > 0.25 breaks the convex construction's exact outputs
    assert run(["construct", "--kind", "convex", "--m", "4",
                "--eps", "0.3", "--out", str(a)]) == 0
    capsys.readouterr()
    assert run(["verify", "--instance", str(a / "manifest.json"),
                "--out", str(tmp_path / "v")]) == cli.EXIT_SCIENCE
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("error: verify failed: worst slack -0.0999")
    assert err.endswith(", failures 32, w0_norm_ok True, ball_ok True\n")
    assert (tmp_path / "v" / "results.csv").read_text().splitlines()[1].startswith("false,")


def test_sgd_failure_is_one_line_exit_2(tmp_path, capsys):
    manifest = _construct_m3(tmp_path, "convex")
    capsys.readouterr()
    assert run(["sgd", "--instance", manifest, "--T-grid", "10,20", "--num-seeds",
                "2", "--tolerance", "-1", "--out", str(tmp_path / "s")]) == cli.EXIT_SCIENCE
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("error: excess-risk check failed at T=10: mean excess ")
    assert "+ tolerance -1.0" in err
    rows = (tmp_path / "s" / "results.csv").read_text().splitlines()
    assert len(rows) == 5 and all(r.endswith(",false") for r in rows[1:])


def test_uc_gap_failure_is_one_line_exit_2(tmp_path, capsys):
    a = tmp_path / "a"
    # at eps = 0.3 the convex witness's values miss +-eps, and so does the gap
    assert run(["construct", "--kind", "convex", "--m", "4",
                "--eps", "0.3", "--out", str(a)]) == 0
    capsys.readouterr()
    assert run(["uc-gap", "--instance", str(a / "manifest.json"), "--sample-size",
                "2", "--num-seeds", "3", "--out", str(tmp_path / "g")]) == cli.EXIT_SCIENCE
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("error: uc-gap check failed at seed 0: gap 0.25")
    assert "< eps 0.3 with support 2 <= m/2" in err
    rows = (tmp_path / "g" / "results.csv").read_text().splitlines()
    assert len(rows) == 4 and rows[1].endswith(",false")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rademacher_overflow_is_one_line_exit_2(tmp_path, capsys):
    # witness values near the float limit overflow the sign-vector sums; the
    # run must fail, not write a nan row
    a = tmp_path / "a"
    assert run(["construct", "--kind", "convex", "--m", "3", "--kappa", "1e308",
                "--out", str(a)]) == 0
    capsys.readouterr()
    code = run(["rademacher", "--instance", str(a / "manifest.json"),
                "--draws", "50", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SCIENCE
    assert err == "error: a sign draw's sup is not finite: the witness values overflow\n"
    assert not (tmp_path / "r").exists()


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


# a valid value of every key that a kind reads, cheap to run
_BASE = {"m": "3", "eps": "0.25", "kappa": "0.5", "B": "4", "L": "4", "m_cap": "3",
         "n": "64", "max_resamples": "2", "b_x": "1", "r": "1", "k": "1", "c": "1",
         "eps_grid": "0.5", "lb": "1"}


def _kind_schema(command, kind):
    return {**cli._SCHEMAS[command], **cli._KINDS[command][kind]}


def _kind_params(command, kind):
    """A valid value of each key that `command` reads with `kind`."""
    return {key: _BASE[key] for key in _kind_schema(command, kind) if key in _BASE}


def _flags(params):
    return [t for k, v in params.items() for t in ("--" + k, v)]


def _unread_keys():
    """(command, kind, key) for each key that another kind of the command
    reads and this kind does not."""
    for command, kinds in cli._KINDS.items():
        every = set().union(*kinds.values())
        for kind, keys in kinds.items():
            for key in sorted(every - set(keys)):
                yield command, kind, key


def test_every_unread_key_is_a_case():
    # construct 13, cover 13, dudley 13
    assert len(list(_unread_keys())) == 39


@pytest.mark.parametrize("command,kind,key", list(_unread_keys()),
                         ids=str)
def test_key_the_kind_does_not_read_is_refused(tmp_path, capsys, command, kind, key):
    out = tmp_path / "out"
    argv = [command, "--kind", kind, *_flags(_kind_params(command, kind)),
            "--" + key, _BASE[key], "--out", str(out)]
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert _one_error_line(err)
    assert err.startswith(f"error: unknown key {key!r} for {command} --kind {kind};")
    assert not (out / "results.csv").exists()


_EDGE_VALUES = ["nan", "inf", "-inf", "1e308", "1e-308"]


def _edge_cases(tmp_path):
    """(label, argv) for every float key that each kind reads at every edge
    value; rademacher takes its floats from the instance record."""
    for command, kinds in cli._KINDS.items():
        for kind in kinds:
            params = _kind_params(command, kind)
            for key, (tag, _) in _kind_schema(command, kind).items():
                if tag not in ("float", "float-list"):
                    continue
                for v in _EDGE_VALUES:
                    yield (f"{command} {kind} {key}={v}",
                           [command, "--kind", kind, *_flags({**params, key: v})])
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
    manifest = _construct_m3(tmp_path, "convex")
    for v in _EDGE_VALUES:
        yield (f"sgd tolerance={v}",
               ["sgd", "--instance", manifest, "--T-grid", "10", "--num-seeds",
                "2", "--tolerance", v])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_float_flags_at_the_float_edge_end_in_one_line(tmp_path, capsys):
    # nan, +-inf, 1e308 and 1e-308 in every float key a kind reads: main
    # returns (never raises), refuses non-finite values with exit 1, reaches
    # past the key check, and a nonzero exit leaves exactly one "error:"
    # line on stderr
    bad = []
    cases = list(_edge_cases(tmp_path))
    # construct 6 keys, rademacher 6, cover 22, dudley 27, sgd 1; five values each
    assert len(cases) == 5 * (6 + 6 + 22 + 27 + 1)
    for label, argv in cases:
        capsys.readouterr()
        try:
            code = run([*argv, "--out", str(tmp_path / "out")])
        except BaseException as e:  # noqa: BLE001 - any escape is the failure
            bad.append(f"{label}: raised {type(e).__name__}: {e}")
            continue
        err = capsys.readouterr().err
        lines = err.splitlines()
        if "unknown key" in err:
            bad.append(f"{label}: refused as an unknown key: {err!r}")
        elif code not in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_SCIENCE):
            bad.append(f"{label}: exit {code!r}")
        elif code != cli.EXIT_OK and not (
                len(lines) == 1 and lines[0].startswith("error: ")
                and err.endswith("\n")):
            bad.append(f"{label}: exit {code} with stderr {err!r}")
        elif label.split("=")[-1] in ("nan", "inf", "-inf") \
                and code != cli.EXIT_USAGE:
            bad.append(f"{label}: non-finite value not refused (exit {code})")
    assert not bad, "\n".join(bad)


_SGD_SAMPLE = {"formula": "sgd-sample", "params": {"B": 1, "L": 2, "eps": 0.5}}


def _readme_cli_block():
    """The argv of each `caplab` line in the README's CLI code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("caplab ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "params.json").write_text(json.dumps(_SGD_SAMPLE))
    commands = _readme_cli_block()
    assert {argv[0] for argv in commands} == set(cli._SCHEMAS)
    for argv in commands:
        assert run(argv) == cli.EXIT_OK, " ".join(argv)
        assert (tmp_path / argv[argv.index("--out") + 1] / "results.csv").exists()


# mistyped values of any key, and out-of-range numbers
_MISTYPED = st.one_of(
    st.booleans(), st.none(), st.text("xyz", min_size=1, max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=1))
_OUT_OF_RANGE = st.integers(-3, 0)
_BAD = {
    "int": st.one_of(_MISTYPED, _OUT_OF_RANGE, st.floats(-10, 10)),
    "float": st.one_of(_MISTYPED, _OUT_OF_RANGE),
    "str": _MISTYPED,
    "int-list": st.one_of(_MISTYPED, st.lists(st.floats(-10, 10), max_size=2)),
    "float-list": _MISTYPED,
}


def _schemas():
    """(command, kind or None) for every schema the CLI checks keys against."""
    for command in cli._SCHEMAS:
        for kind in cli._KINDS.get(command, [None]):
            yield command, kind


@pytest.fixture(scope="module")
def base_configs(tmp_path_factory):
    """A valid, cheap config of every (command, kind) schema."""
    tmp = tmp_path_factory.mktemp("schemas")
    manifests = {}
    for kind in ("nonzero-init", "convex"):
        assert run(["construct", "--kind", kind, "--m", "3",
                    "--out", str(tmp / kind)]) == 0
        manifests[kind] = str(tmp / kind / "manifest.json")
    (tmp / "params.json").write_text(json.dumps(_SGD_SAMPLE))
    per_command = {
        "verify": {"instance": manifests["nonzero-init"]},
        "rademacher": {"instance": manifests["nonzero-init"], "draws": 50},
        "sgd": {"instance": manifests["convex"], "T_grid": [10], "num_seeds": 2},
        "uc-gap": {"instance": manifests["convex"], "sample_size": 2, "num_seeds": 2},
        "bounds": {"params": str(tmp / "params.json")},
    }
    configs = {(command, kind): per_command[command] if kind is None
               else {"kind": kind, **_kind_params(command, kind)}
               for command, kind in _schemas()}
    return tmp, configs


@pytest.mark.parametrize("command,kind", list(_schemas()), ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mistyped_config_value_ends_in_one_line(base_configs, command, kind, data):
    # each key of the schema in turn, given a mistyped or out-of-range value
    # through --config: main returns 0, 1 or 2, and a nonzero exit leaves
    # exactly one "error:" line
    tmp, configs = base_configs
    schema = {**cli._SCHEMAS[command], **cli._KINDS.get(command, {}).get(kind, {}),
              "seed": cli._COMMON["seed"]}
    path = tmp / "config.json"
    for key, (tag, _) in schema.items():
        value = data.draw(_BAD[tag], label=key)
        path.write_text(json.dumps({**configs[command, kind], key: value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([command, "--config", str(path), "--out", str(tmp / "out")])
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_SCIENCE)
        if code != cli.EXIT_OK:
            assert _one_error_line(err.getvalue()), err.getvalue()
