import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplab import cli, complexity, constructions, learner
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


def test_verify_reports_every_failing_check(tmp_path, capsys):
    # 192 of the 384 checks fail; the listed failures stop at 32
    a = tmp_path / "a"
    assert run(["construct", "--kind", "convex", "--m", "6",
                "--eps", "0.3", "--out", str(a)]) == 0
    capsys.readouterr()
    assert run(["verify", "--instance", str(a / "manifest.json"),
                "--out", str(tmp_path / "v")]) == cli.EXIT_SCIENCE
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.endswith(", failures 192, w0_norm_ok True, ball_ok True\n")
    row = (tmp_path / "v" / "results.csv").read_text().splitlines()[1]
    assert row.startswith("false,") and row.endswith(",192")


def test_sgd_population_loss_overflow_is_one_line_exit_2(tmp_path):
    # witness values near the float limit overflow the population mean; the
    # run must fail with one line, not with numpy's warnings and an inf excess
    caplab_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": caplab_root}
    a = tmp_path / "a"
    for argv, code in ((["construct", "--kind", "convex", "--m", "3",
                         "--kappa", "1e308", "--out", str(a)], cli.EXIT_OK),
                       (["sgd", "--instance", str(a / "manifest.json"),
                         "--T-grid", "10", "--num-seeds", "2",
                         "--out", str(tmp_path / "s")], cli.EXIT_SCIENCE)):
        proc = subprocess.run([sys.executable, "-m", "caplab.cli"] + argv,
                              capture_output=True, env=env, text=True)
        assert proc.returncode == code, proc.stderr
    assert proc.stderr == ("error: the population loss is not finite: "
                           "the witness values overflow\n")


def test_sgd_failure_is_one_line_exit_2(tmp_path, capsys):
    # with kappa = 5 the loss sits on its floor, 4.5 above the best witness
    # loss, far past the bound B L / sqrt(T) <= 1/sqrt(10)
    a = tmp_path / "a"
    assert run(["construct", "--kind", "convex", "--m", "3", "--eps", "0.25",
                "--kappa", "5", "--out", str(a)]) == 0
    capsys.readouterr()
    assert run(["sgd", "--instance", str(a / "manifest.json"), "--T-grid", "10,20",
                "--num-seeds", "2", "--tolerance", "0",
                "--out", str(tmp_path / "s")]) == cli.EXIT_SCIENCE
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("error: excess-risk check failed at T=10: mean excess ")
    assert "+ tolerance 0.0" in err
    rows = (tmp_path / "s" / "results.csv").read_text().splitlines()
    assert len(rows) == 5 and all(r.endswith(",false") for r in rows[1:])


def test_sgd_oracle_longer_than_L_is_one_line_exit_2(tmp_path, capsys,
                                                     monkeypatch):
    # subgradients of twice their norm: each oracle step that fires is
    # counted, and the certificate, not the excess, fails the command
    manifest = _construct_m3(tmp_path, "convex")
    real = constructions.EncodedMaxAffine.loss_subgrad

    def doubled(self, live, W, X):
        loss, rows, G = real(self, live, W, X)
        return loss, rows, 2.0 * G

    monkeypatch.setattr(constructions.EncodedMaxAffine, "loss_subgrad", doubled)
    capsys.readouterr()
    assert run(["sgd", "--instance", manifest, "--T-grid", "10", "--num-seeds",
                "2", "--out", str(tmp_path / "s")]) == cli.EXIT_SCIENCE
    err = capsys.readouterr().err
    assert err == ("error: sgd certificate failed at T=10, seed 0: "
                   "subgradient longer than L\n")
    rows = (tmp_path / "s" / "results.csv").read_text().splitlines()
    assert len(rows) == 3 and all(r.endswith(",false") for r in rows[1:])


def test_sgd_negative_tolerance_is_refused_before_any_step(tmp_path, capsys,
                                                           monkeypatch):
    manifest = _construct_m3(tmp_path, "convex")
    capsys.readouterr()

    def no_steps(*args, **kwargs):
        raise AssertionError("sgd_run called")

    monkeypatch.setattr(learner, "sgd_run", no_steps)
    assert run(["sgd", "--instance", manifest, "--T-grid", "10", "--num-seeds",
                "2", "--tolerance", "-1", "--out", str(tmp_path / "s")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: tolerance must be >= 0, got -1.0\n"
    assert not (tmp_path / "s").exists()


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


@pytest.fixture(scope="module")
def zero_init_m10(tmp_path_factory):
    out = tmp_path_factory.mktemp("zero-init") / "i"
    assert run(["construct", "--kind", "zero-init", "--B", "4", "--L", "4",
                "--eps", "0.25", "--m-cap", "10", "--seed", "1",
                "--out", str(out)]) == 0
    return str(out / "manifest.json")


def _uc_gap_rows(manifest, out, sample_size):
    code = run(["uc-gap", "--instance", manifest, "--sample-size",
                str(sample_size), "--out", str(out)])
    return code, (out / "results.csv").read_text().splitlines()[1:]


def test_uc_gap_zero_init_gap_is_exactly_eps(zero_init_m10, tmp_path):
    # seed 1 draws 5 distinct points of 10; each query is its own anchor,
    # so the interpolant's values, and the gap, are exactly +-eps
    code, rows = _uc_gap_rows(zero_init_m10, tmp_path / "g", 5)
    assert code == 0
    assert "10,1,5,0.25,true" in rows
    assert all(r.endswith(",true") for r in rows)


def test_uc_gap_zero_init_passes_within_verify_rounding(zero_init_m10, tmp_path,
                                                        monkeypatch):
    # a zero-init row that falls back to eval can round: verify's SLACK_TOL
    # admits a gap 1e-15 under eps
    _shifted_gaps(monkeypatch, lambda eps: eps - 1e-15)
    code, rows = _uc_gap_rows(zero_init_m10, tmp_path / "g", 5)
    assert code == 0
    assert all(r.endswith(",true") for r in rows)


def _shifted_gaps(monkeypatch, shift):
    real = learner.uc_gap_experiment

    def shifted(inst, sample_size, seeds):
        rows = real(inst, sample_size, seeds)
        for r in rows:
            r["gap"] = shift(inst.margin)
        return rows

    monkeypatch.setattr(learner, "uc_gap_experiment", shifted)


def test_uc_gap_zero_init_fails_past_verify_rounding(zero_init_m10, tmp_path,
                                                     monkeypatch, capsys):
    _shifted_gaps(monkeypatch, lambda eps: eps - 1e-6)
    code, rows = _uc_gap_rows(zero_init_m10, tmp_path / "g", 5)
    assert code == cli.EXIT_SCIENCE
    assert "gap 0.249999 < eps 0.25" in capsys.readouterr().err
    assert all(r.endswith(",false") for r in rows)


def test_uc_gap_encoded_needs_an_exact_gap(tmp_path, monkeypatch):
    manifest = _construct_m3(tmp_path, "convex")
    _shifted_gaps(monkeypatch, lambda eps: float(np.nextafter(eps, 0.0)))
    code, rows = _uc_gap_rows(manifest, tmp_path / "g", 1)
    assert code == cli.EXIT_SCIENCE
    assert all(r.endswith(",false") for r in rows)


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


_FORMULA_FLAGS = {
    "scalar-linear": ["--B", "1.5", "--b-x", "1", "--c", "2"],
    "matrix-linear": ["--B", "2", "--r", "3"],
    "constants": ["--B", "4"],
    "lipschitz-composition": ["--B", "1", "--L", "2", "--r", "2"],
    "contraction": ["--B", "1", "--b-x", "1", "--L", "2", "--r", "2", "--k", "3"],
}
# results.csv of `cover --eps-grid 0.25,0.5,1.0` and `dudley --lb 1 --m 1000000`
# under the flags above, as the formulas wrote them when they were checked
_FORMULA_RESULTS = {
    ("cover", "scalar-linear"): "scalar-linear,0.25,144.0\nscalar-linear,0.5,36.0\n"
                                "scalar-linear,1.0,9.0\n",
    ("cover", "matrix-linear"): "matrix-linear,0.25,576.0\nmatrix-linear,0.5,144.0\n"
                                "matrix-linear,1.0,36.0\n",
    ("cover", "constants"): "constants,0.25,2.772588722239781\n"
                            "constants,0.5,2.0794415416798357\n"
                            "constants,1.0,1.3862943611198906\n",
    ("cover", "lipschitz-composition"):
        "lipschitz-composition,0.25,14642.734189328845\n"
        "lipschitz-composition,0.5,3019.3491185191215\n"
        "lipschitz-composition,1.0,600.9586055454726\n",
    ("cover", "contraction"): "contraction,0.25,2303.999999999999\n"
                              "contraction,0.5,575.9999999999998\n"
                              "contraction,1.0,143.99999999999994\n",
    ("dudley", "scalar-linear"): "scalar-linear,1.0,1000000,0.20563050766856272\n",
    ("dudley", "matrix-linear"): "matrix-linear,1.0,1000000,0.3614474521313328\n",
    ("dudley", "constants"): "constants,1.0,1000000,0.018886924183299594\n",
    ("dudley", "lipschitz-composition"):
        "lipschitz-composition,1.0,1000000,1.2088376020706724\n",
    ("dudley", "contraction"): "contraction,1.0,1000000,0.6228030174570587\n",
}


@pytest.mark.parametrize("command,kind", list(_FORMULA_RESULTS), ids=str)
def test_cover_and_dudley_bytes_pinned(tmp_path, command, kind):
    extra, header = {"cover": (["--eps-grid", "0.25,0.5,1.0"], "kind,eps,log_cover"),
                     "dudley": (["--lb", "1", "--m", "1000000"], "kind,lb,m,bound")}[command]
    assert run([command, "--kind", kind, *_FORMULA_FLAGS[kind], *extra,
                "--out", str(tmp_path)]) == 0
    want = header + "\n" + _FORMULA_RESULTS[command, kind]
    assert (tmp_path / "results.csv").read_bytes() == want.encode()


def test_dudley_overflowing_candidate_leaves_stderr_empty(tmp_path):
    # at --lb 1e308 the top scales' 4 eps overflows to +inf; such a
    # candidate just loses the min, with no numpy warning on stderr, and
    # the bound reads as it did when the warning was printed
    caplab_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": caplab_root}
    argv = ["dudley", "--kind", "scalar-linear", "--B", "1", "--b-x", "1",
            "--lb", "1e308", "--m", "5", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-m", "caplab.cli"] + argv,
                          capture_output=True, env=env, text=True)
    assert proc.returncode == cli.EXIT_OK and proc.stderr == ""
    assert (tmp_path / "results.csv").read_text() == \
        "kind,lb,m,bound\nscalar-linear,1e+308,5,4.0000000000000002e+304\n"

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


def test_lapack_failure_is_one_line_exit_2(tmp_path, monkeypatch, capsys):
    # verify's spectral norm of W0 rests on LAPACK; its LinAlgError ends
    # the command with one line, not a traceback
    manifest = _construct_m3(tmp_path)
    norm = np.linalg.norm

    def fail_spectral(x, ord=None, *args, **kwargs):
        if ord == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", fail_spectral)
    capsys.readouterr()
    code = run(["verify", "--instance", manifest, "--out", str(tmp_path / "v")])
    assert code == cli.EXIT_SCIENCE
    assert capsys.readouterr().err == "error: spectral norm: SVD did not converge\n"


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


def test_rademacher_refuses_draws_over_its_byte_budget(tmp_path, monkeypatch, capsys):
    manifest = _construct_m3(tmp_path)

    def refuse(*args):
        raise AssertionError("a sign draw was made")

    def rebuilt(*args):
        raise AssertionError("the instance was rebuilt before the draws were checked")

    monkeypatch.setattr(complexity, "_sign_bits", refuse)
    monkeypatch.setattr(constructions, "instance_from_manifest", rebuilt)
    most = complexity.RADEMACHER_MAX_BYTES // complexity.BYTES_PER_DRAW
    capsys.readouterr()
    code = run(["rademacher", "--instance", manifest, "--draws", str(most + 1),
                "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "RADEMACHER_MAX_BYTES" in err and str(most) in err
    assert not (tmp_path / "r").exists()


def test_sgd_refuses_seeds_over_its_byte_budget(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a"
    assert run(["construct", "--kind", "convex", "--m", "16", "--out", str(a)]) == 0
    inst = constructions.convex_instance(16, 0.25)
    most = learner.SGD_MAX_BYTES // (16 * inst.W0.size)

    def refuse(*args, **kwargs):
        raise AssertionError("iterates stacked")

    monkeypatch.setattr(np, "repeat", refuse)
    capsys.readouterr()
    code = run(["sgd", "--instance", str(a / "manifest.json"),
                "--num-seeds", str(most + 1), "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "SGD_MAX_BYTES" in err
    assert not (tmp_path / "s").exists()


def _zero_init_refusals(tmp_path, m_cap):
    """(argv, expected code) for construct at m_cap, and for verify and
    rademacher on a crafted zero-init record with that m_cap."""
    record = {"kind": "zero-init", "eps": 0.25,
              "params": {"B": 4, "L": 4, "m_cap": m_cap, "seed": 1, "n": 64}}
    path = tmp_path / f"zero-init-{m_cap}.json"
    path.write_text(json.dumps({"instance": record}))
    return [["construct", "--kind", "zero-init", "--m-cap", str(m_cap)],
            ["verify", "--instance", str(path)],
            ["rademacher", "--instance", str(path), "--draws", "10"]]


def test_zero_init_refuses_m_cap_over_its_cap(tmp_path, monkeypatch, capsys):
    # zero-init's memory doubles per unit of m: construct and a crafted
    # manifest refuse m_cap = ZERO_INIT_M_CAP + 1 with one line, before any
    # family is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("separated family drawn past the zero-init cap")

    monkeypatch.setattr(constructions, "random_separated_family", refuse)
    cap = constructions.ZERO_INIT_M_CAP
    for k, argv in enumerate(_zero_init_refusals(tmp_path, cap + 1)):
        capsys.readouterr()
        out = tmp_path / f"out{k}"
        assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE, argv[0]
        err = capsys.readouterr().err
        assert _one_error_line(err), err
        assert f"m_cap={cap + 1} > ZERO_INIT_M_CAP = {cap}" in err
        assert not out.exists()


def test_zero_init_accepts_m_cap_at_its_cap(tmp_path, monkeypatch):
    # at the cap the check passes and the family is drawn (stopped here: a
    # whole m_cap = 12 verify takes minutes)
    class Drawn(Exception):
        pass

    def drawn(d, m, n, seed, max_resamples, scale):
        raise Drawn(m)

    monkeypatch.setattr(constructions, "random_separated_family", drawn)
    for argv in _zero_init_refusals(tmp_path, constructions.ZERO_INIT_M_CAP):
        with pytest.raises(Drawn, match=str(constructions.ZERO_INIT_M_CAP)):
            run(argv + ["--out", str(tmp_path / "out")])


# (m_cap, n, B, L, eps) whose estimate exceeds ZERO_INIT_MAX_BYTES: a wide
# output (n = 10^5 and 10^8), and the rows at the cap with n = 4096
_OVER_BUDGET = [(8, 100_000, 4, 4, 0.25), (1, 10**8, 4, 4, 0.25),
                (12, 4096, 4, 4, 0.25)]


def _zero_init_args(m_cap, n, B, L, eps):
    return ["--B", str(B), "--L", str(L), "--eps", str(eps),
            "--m-cap", str(m_cap), "--n", str(n)]


@pytest.mark.parametrize("size", _OVER_BUDGET, ids=str)
def test_zero_init_refuses_sizes_over_its_byte_budget(size, tmp_path, monkeypatch, capsys):
    # one line and exit 1 before the family is drawn, from construct and
    # from a record that verify or rademacher reads
    def refuse(*args, **kwargs):
        raise AssertionError("separated family drawn over the zero-init budget")

    monkeypatch.setattr(constructions, "random_separated_family", refuse)
    m_cap, n, B, L, eps = size
    d = int(L * L * B * B / (128.0 * eps * eps))
    assert constructions._zero_init_bytes(m_cap, n, d) > constructions.ZERO_INIT_MAX_BYTES
    record = {"kind": "zero-init", "eps": eps,
              "params": {"B": B, "L": L, "m_cap": m_cap, "seed": 1, "n": n}}
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"instance": record}))
    for k, argv in enumerate([["construct", "--kind", "zero-init"] + _zero_init_args(*size),
                              ["verify", "--instance", str(path)],
                              ["rademacher", "--instance", str(path), "--draws", "10"]]):
        capsys.readouterr()
        out = tmp_path / f"out{k}"
        assert run(argv + ["--out", str(out)]) == cli.EXIT_USAGE, argv[0]
        err = capsys.readouterr().err
        assert _one_error_line(err), err
        assert f"m_cap={m_cap}, n={n}, d={d}" in err and "ZERO_INIT_MAX_BYTES" in err
        assert not out.exists()


@pytest.mark.parametrize("size", [(9, 256, 4, 4, 0.25), (10, 256, 4, 4, 0.25),
                                  (11, 256, 4, 4, 0.25), (10, 256, 8, 8, 0.25),
                                  (12, 256, 40, 4, 0.25), (10, 256, 64, 8, 0.5)],
                         ids=str)
def test_zero_init_accepts_the_benchmark_and_ci_sizes(size, tmp_path, monkeypatch):
    # dense-geometry builds m_cap 9 and CI 10 (also at d = 512) and 11 (the
    # cap, 12, is in test_zero_init_accepts_m_cap_at_its_cap); a wide input
    # (d = 3200 and 8192) costs one family block, not a stack; each passes
    # the estimate and reaches the family
    class Drawn(Exception):
        pass

    def drawn(d, m, n, seed, max_resamples, scale):
        raise Drawn(m)

    monkeypatch.setattr(constructions, "random_separated_family", drawn)
    argv = ["construct", "--kind", "zero-init"] + _zero_init_args(*size)
    with pytest.raises(Drawn, match=str(size[0])):
        run(argv + ["--out", str(tmp_path / "out")])


def test_zero_init_tampered_record_reads_the_same(tmp_path, monkeypatch):
    # the certificate rests on this process's separation scan: a record
    # claiming no separation, a failed scan and another slope gives verify
    # and rademacher the same bytes, and no block falls back to eval
    a = tmp_path / "a"
    assert run(["construct", "--kind", "zero-init", "--m-cap", "6", "--seed", "2",
                "--out", str(a)]) == 0
    man = json.loads((a / "manifest.json").read_text())
    man["instance"]["params"].update(separation=0.0, separation_ok=False,
                                     witness_slope=0.5)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(man))

    def q_loop(self, X):
        raise AssertionError("zero-init table left the certified path")

    monkeypatch.setattr(constructions.AnchoredLipschitz, "eval", q_loop)
    for cmd in (["verify"], ["rademacher", "--draws", "500"]):
        outs = []
        for k, record in enumerate((a / "manifest.json", tampered)):
            out = tmp_path / f"{cmd[0]}{k}"
            assert run([cmd[0], "--instance", str(record)] + cmd[1:]
                       + ["--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()
        got = [json.loads((o / "manifest.json").read_text())["instance"] for o in outs]
        assert got[0] == got[1] == json.loads((a / "manifest.json").read_text())["instance"]


def _count_witnesses_built(monkeypatch):
    """The labelings whose W_y is built from now on, in call order."""
    calls = []
    original = constructions.ShatterInstance.witness_for
    monkeypatch.setattr(constructions.ShatterInstance, "witness_for",
                        lambda self, y: calls.append(y) or original(self, y))
    return calls


@pytest.mark.parametrize("kind", ["nonzero-init", "convex"])
def test_verify_and_rademacher_at_the_enumeration_cap(kind, tmp_path, monkeypatch):
    # m = 14 = ENUMERATION_M_CAP: the encoded table and ball check read each
    # witness's one entry, so a command builds at most the one W_y that
    # nonzero-init's builder reads its coordinates off (the Q loop: 2^14)
    m = constructions.ENUMERATION_M_CAP
    a = tmp_path / "a"
    assert run(["construct", "--kind", kind, "--m", str(m), "--eps", "0.25",
                "--out", str(a)]) == 0
    calls = _count_witnesses_built(monkeypatch)
    for argv in (["verify"], ["rademacher", "--draws", "100000"]):
        calls.clear()
        out = tmp_path / argv[0][0]
        assert run(argv + ["--instance", str(a / "manifest.json"),
                           "--out", str(out)]) == 0
        assert len(calls) <= 1, f"{argv[0]} built {len(calls)} witnesses"
    verify = (tmp_path / "v" / "results.csv").read_text().splitlines()
    assert verify[1] == f"true,0.0,{1 << m},true,true,0"
    rademacher = (tmp_path / "r" / "results.csv").read_text().splitlines()
    assert rademacher[1] == f"{kind},{m},100000,0.25,0.0,enumerate-witnesses"


def test_zero_init_rademacher_lets_the_instance_go_before_the_draws(tmp_path,
                                                                   monkeypatch):
    # m_cap 9 at 10^6 draws: the instance's 9.4 MB of anchors were held
    # through the draws, whose keys and sups hold 16 MB more; with the table
    # taken and the instance let go, the draws peak no higher than the
    # rebuild, so the command peaks at its rebuild
    import tracemalloc

    a = tmp_path / "a"
    assert run(["construct", "--kind", "zero-init", "--B", "4", "--L", "4",
                "--eps", "0.25", "--m-cap", "9", "--seed", "1",
                "--out", str(a)]) == 0
    manifest = str(a / "manifest.json")
    record = json.loads((a / "manifest.json").read_text())["instance"]
    held, drawn = [], []
    original = complexity.rademacher_mc

    def draws(table, count, seed):
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        est = original(table, count, seed)
        drawn.append(tracemalloc.get_traced_memory()[1])
        return est

    monkeypatch.setattr(complexity, "rademacher_mc", draws)
    tracemalloc.start()
    try:
        inst = constructions.instance_from_manifest(record)
        rebuilt = tracemalloc.get_traced_memory()[1]
        anchors = inst.witness_fn._anchors.nbytes
        del inst
        base = tracemalloc.get_traced_memory()[0]
        assert run(["rademacher", "--instance", manifest, "--draws", "1000000",
                    "--out", str(tmp_path / "r")]) == 0
    finally:
        tracemalloc.stop()
    assert anchors == (9 << 9) * 256 * 8
    assert held[0] - base < anchors // 8, (held, base)
    assert drawn[0] <= rebuilt, (drawn, rebuilt)
    rows = (tmp_path / "r" / "results.csv").read_text().splitlines()
    assert rows[1].startswith("zero-init,9,1000000,0.25,")


@pytest.mark.parametrize("kind,m,most", [("nonzero-init", 14, 1), ("convex", 16, 0)])
def test_uc_gap_builds_no_witness_for_its_values(kind, m, most, tmp_path, monkeypatch):
    # uc-gap reads each drawn labeling's values off its one entry as
    # TwoHotRows; only nonzero-init's builder reads one W_y
    a = tmp_path / "a"
    assert run(["construct", "--kind", kind, "--m", str(m), "--eps", "0.25",
                "--out", str(a)]) == 0
    calls = _count_witnesses_built(monkeypatch)
    out = tmp_path / "u"
    assert run(["uc-gap", "--instance", str(a / "manifest.json"),
                "--sample-size", str(m // 2), "--out", str(out)]) == 0
    assert len(calls) <= most, f"uc-gap built {len(calls)} witnesses"
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) > 1


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


_TOP_LEVELS = {"number": 5, "string": "instance", "null": None, "list": ["instance"]}


@pytest.mark.parametrize("command", ["verify", "sgd"])
@pytest.mark.parametrize("top", _TOP_LEVELS.values(), ids=_TOP_LEVELS.keys())
def test_manifest_not_an_object_is_one_line_exit_1(tmp_path, capsys, command, top):
    manifest = tmp_path / "f.json"
    manifest.write_text(json.dumps(top))
    out = tmp_path / "v"
    capsys.readouterr()
    code = run([command, "--instance", str(manifest), "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {manifest} must hold a JSON object\n"
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("top", [5, None], ids=["number", "null"])
def test_bounds_params_not_object_or_list_is_one_line_exit_1(tmp_path, capsys, top):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(top))
    out = tmp_path / "b"
    capsys.readouterr()
    code = run(["bounds", "--params", str(pfile), "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: {pfile} must hold a JSON object or list\n"
    assert not (out / "results.csv").exists()


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
