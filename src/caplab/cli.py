"""Command-line frontend: strict config parsing, experiment orchestration,
and deterministic artifact emission (manifest.json + results.csv per run)."""

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import complexity, constructions, learner
from .errors import InvalidInputError, NumericalFailureError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCIENCE = 2


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    parameters: dict
    seed: int
    output_dir: str


# schema: key -> (type-tag, default or REQUIRED)
_REQUIRED = object()

_COMMON = {
    "config": ("str", None),
    "out": ("str", _REQUIRED),
    "seed": ("int", 0),
}

_SCHEMAS = {
    "construct": {"kind": ("str", _REQUIRED)},
    "verify": {"instance": ("str", _REQUIRED)},
    "rademacher": {
        "instance": ("str", _REQUIRED),
        "draws": ("int", 100000),
    },
    "cover": {
        "kind": ("str", _REQUIRED),
        "eps_grid": ("float-list", [0.5]),
    },
    "dudley": {
        "kind": ("str", _REQUIRED),
        "lb": ("float", _REQUIRED),
        "m": ("int", _REQUIRED),
        "eps_grid": ("float-list", None),
    },
    "sgd": {
        "instance": ("str", _REQUIRED),
        "T_grid": ("int-list", [100, 1000, 10000]),
        "num_seeds": ("int", 20),
        "tolerance": ("float", 0.05),
    },
    "uc-gap": {
        "instance": ("str", _REQUIRED),
        "sample_size": ("int", _REQUIRED),
        "num_seeds": ("int", 20),
    },
    "bounds": {"params": ("str", _REQUIRED)},
}

_BUILDERS = {
    "zero-init": constructions.zero_init_instance,
    "nonzero-init": constructions.nonzero_init_instance,
    "convex": constructions.convex_instance,
}

_FORMULA_SCHEMAS = {
    kind: {key: ("float", 1.0 if key == "c" else _REQUIRED) for key in keys}
    for kind, keys in complexity.COVER_PARAMS.items()
}

# command -> kind -> the keys that kind reads besides the command's own; a
# construct kind's keys are its builder's parameters (zero-init's seed is --seed)
_KINDS = {
    "construct": {
        "zero-init": {"B": ("float", 4.0), "L": ("float", 4.0), "eps": ("float", 0.25),
                      "m_cap": ("int", 8), "n": ("int", 256),
                      "max_resamples": ("int", 20)},
        "nonzero-init": {"m": ("int", 8), "eps": ("float", 0.25)},
        "convex": {"m": ("int", 8), "eps": ("float", 0.25), "kappa": ("float", 0.5)},
    },
    "cover": _FORMULA_SCHEMAS,
    "dudley": _FORMULA_SCHEMAS,
}


def _finite(key, v):
    if not math.isfinite(v):
        raise UsageError(f"parameter {key!r} must be finite, got {v!r}")
    return v


def _convert(key, tag, raw):
    if tag in ("float-list", "int-list"):
        if isinstance(raw, str):
            raw = [p for p in raw.split(",") if p]
        if not isinstance(raw, list):
            raise UsageError(f"parameter {key!r}: expected {tag}, got {raw!r}")
        return [_convert(key, tag.removesuffix("-list"), v) for v in raw]
    try:
        if isinstance(raw, bool):
            raise ValueError
        if tag == "int" and isinstance(raw, (int, str)):
            return int(raw)
        if tag == "float" and isinstance(raw, (int, float, str)):
            return _finite(key, float(raw))
        if tag == "str" and isinstance(raw, str):
            return raw
        raise ValueError
    except (ValueError, OverflowError):
        raise UsageError(f"parameter {key!r}: expected {tag}, got {raw!r}")


def _schema(command, merged):
    """The keys that `command` reads with the kind in `merged`.  Any other
    key in `merged` is refused; without a valid kind, a key that no kind
    reads is refused first, then the kind."""
    kinds = _KINDS.get(command, {})
    kind = merged.get("kind")
    own = kinds.get(kind) if isinstance(kind, str) else None
    schema = {**_COMMON, **_SCHEMAS[command], **(own or {})}
    valid = set(schema).union(*kinds.values()) if own is None else set(schema)
    scope = command if own is None else f"{command} --kind {kind}"
    for key in merged:
        if key not in valid:
            raise UsageError(f"unknown key {key!r} for {scope}; valid keys: "
                             + ", ".join(sorted(valid)))
    if kinds and own is None and "kind" in merged:
        raise UsageError(f"unknown kind {kind!r} for {command}; valid kinds: "
                         + ", ".join(kinds))
    return schema


def parse_config(argv):
    """argv (without program name) -> RunConfig; flag values override the
    optional --config JSON file; keys that the command and its kind do not
    read are rejected."""
    if not argv:
        raise UsageError(
            "usage: caplab <command> [--key value ...]; commands: "
            + ", ".join(sorted(_SCHEMAS))
        )
    command = argv[0]
    if command not in _SCHEMAS:
        raise UsageError(
            f"unknown command {command!r}; valid: " + ", ".join(sorted(_SCHEMAS))
        )
    flags = {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--"):
            raise UsageError(f"expected a --flag, got {tok!r}")
        if i + 1 >= len(argv):
            raise UsageError(f"flag {tok} is missing a value")
        flags[tok[2:].replace("-", "_")] = argv[i + 1]
        i += 2

    merged = {}
    cfg_path = flags.get("config")
    if cfg_path is not None:
        try:
            with open(cfg_path) as fh:
                file_vals = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config file {cfg_path}: {e}")
        if not isinstance(file_vals, dict):
            raise UsageError("config file must hold a JSON object")
        merged.update({k.replace("-", "_"): v for k, v in file_vals.items()})
    merged.update(flags)

    resolved = {}
    for key, (tag, default) in _schema(command, merged).items():
        if key in merged:
            resolved[key] = _convert(key, tag, merged[key])
        elif default is _REQUIRED:
            raise UsageError(f"missing required parameter {key!r} for {command}")
        else:
            resolved[key] = default
    seed = resolved.pop("seed")
    if seed < 0:
        raise UsageError("'seed' must be nonnegative")
    out = resolved.pop("out")
    resolved.pop("config", None)
    return RunConfig(command, resolved, seed, out)


# ---------------------------------------------------------------------------
# artifact emission

def _atomic_write(path, data):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _fmt(v):
    if isinstance(v, float):
        # float() first: numpy 2 writes np.float64 as "np.float64(...)"
        return repr(float(v))
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def write_results(out_dir, manifest, header, rows):
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(os.path.join(out_dir, "results.csv"), "\n".join(lines) + "\n")


def _load_instance(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InvalidInputError(f"cannot read instance manifest {path}: {e}")
    if "instance" not in obj:
        raise InvalidInputError(f"{path} holds no instance record")
    return constructions.instance_from_manifest(obj["instance"])


def _base_manifest(cfg):
    return {
        "command": cfg.command,
        "parameters": cfg.parameters,
        "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# command handlers; each returns None, or the failed check's message once
# results.csv is written

def _run_construct(cfg):
    params = dict(cfg.parameters)
    kind = params.pop("kind")
    if kind == "zero-init":
        params["seed"] = cfg.seed
    inst = _BUILDERS[kind](**params)
    manifest = _base_manifest(cfg)
    manifest["instance"] = inst.manifest()
    write_results(
        cfg.output_dir, manifest,
        ["kind", "m", "eps", "d", "n", "B", "W0_norm"],
        [[inst.kind, inst.m, inst.margin, inst.d, inst.n, inst.B,
          inst.declared_w0_norm]],
    )


def _run_verify(cfg):
    inst = _load_instance(cfg.parameters["instance"])
    rep = constructions.verify_shattering(inst)
    manifest = _base_manifest(cfg)
    manifest["instance"] = inst.manifest()
    write_results(
        cfg.output_dir, manifest,
        ["passed", "worst_slack", "checked_labelings", "w0_norm_ok",
         "ball_ok", "failures"],
        [[rep.passed, rep.worst_slack, rep.checked_labelings, rep.w0_norm_ok,
          rep.ball_ok, len(rep.failures)]],
    )
    if not rep.passed:
        return (f"verify failed: worst slack {rep.worst_slack!r}, failures "
                f"{len(rep.failures)}, w0_norm_ok {rep.w0_norm_ok}, "
                f"ball_ok {rep.ball_ok}")


def _run_rademacher(cfg):
    p = cfg.parameters
    inst = _load_instance(p["instance"])
    handle = complexity.instance_class(inst)
    est = complexity.rademacher_mc(inst.points, handle, p["draws"], cfg.seed)
    manifest = _base_manifest(cfg)
    manifest["instance"] = inst.manifest()
    write_results(cfg.output_dir, manifest,
                  ["id", "m", "draws", "mean", "stderr", "strategy"],
                  [est.csv_row(inst.kind)])


def _formula_params(p):
    return {key: p[key] for key in complexity.COVER_PARAMS[p["kind"]]}


def _run_cover(cfg):
    p = cfg.parameters
    if not p["eps_grid"]:
        raise InvalidInputError("need at least one eps in eps_grid")
    rows = []
    for eps in p["eps_grid"]:
        f = complexity.CoverFormula(p["kind"], {**_formula_params(p), "eps": eps})
        rows.append([p["kind"], eps, complexity.cover_bound(f)])
    write_results(cfg.output_dir, _base_manifest(cfg),
                  ["kind", "eps", "log_cover"], rows)


def _run_dudley(cfg):
    p = cfg.parameters
    base = _formula_params(p)

    def log_cover(tau):
        f = complexity.CoverFormula(p["kind"], {**base, "eps": tau})
        return complexity.cover_bound(f)

    grid = p["eps_grid"]
    value = complexity.dudley_bound(
        log_cover, p["lb"], p["m"],
        grid=None if grid is None else np.asarray(grid))
    manifest = _base_manifest(cfg)
    manifest["discretization"] = {
        "panels": complexity.DUDLEY_PANELS,
        "grid": "explicit" if grid is not None
        else f"geomspace-{complexity.SCALE_GRID_SIZE}",
    }
    write_results(cfg.output_dir, manifest,
                  ["kind", "lb", "m", "bound"],
                  [[p["kind"], p["lb"], p["m"], value]])


def _run_sgd(cfg):
    p = cfg.parameters
    inst = _load_instance(p["instance"])
    seeds = [cfg.seed + i for i in range(p["num_seeds"])]
    table, summary = learner.excess_risk_experiment(
        inst, p["T_grid"], seeds, tolerance=p["tolerance"])
    manifest = _base_manifest(cfg)
    manifest["instance"] = inst.manifest()
    manifest["summary"] = summary
    rows = [[r["T"], r["seed"], r["excess"], r["bound"], r["passed"]]
            for r in table.rows]
    write_results(cfg.output_dir, manifest,
                  ["T", "seed", "excess", "bound", "pass"], rows)
    for s in summary:
        if not s["passed"]:
            return (f"excess-risk check failed at T={s['T']}: mean excess "
                    f"{s['mean_excess']!r} > bound {s['bound']!r} + tolerance "
                    f"{p['tolerance']!r}")


def _run_uc_gap(cfg):
    p = cfg.parameters
    inst = _load_instance(p["instance"])
    seeds = [cfg.seed + i for i in range(p["num_seeds"])]
    table = learner.uc_gap_experiment(inst, p["sample_size"], seeds)
    manifest = _base_manifest(cfg)
    manifest["instance"] = inst.manifest()
    rows = [[r["m"], r["seed"], r["support"], r["gap"],
             bool(r["gap"] >= inst.margin)] for r in table.rows]
    write_results(cfg.output_dir, manifest,
                  ["m", "seed", "support", "gap", "pass"], rows)
    for r in table.rows:
        if not (r["gap"] >= inst.margin or r["support"] > inst.m / 2):
            return (f"uc-gap check failed at seed {r['seed']}: gap {r['gap']!r} "
                    f"< eps {inst.margin!r} with support {r['support']} <= m/2")


def _run_bounds(cfg):
    path = cfg.parameters["params"]
    try:
        with open(path) as fh:
            spec_list = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InvalidInputError(f"cannot read parameter file {path}: {e}")
    if isinstance(spec_list, dict):
        spec_list = [spec_list]
    rows = []
    for entry in spec_list:
        if not isinstance(entry, dict) or "formula" not in entry:
            raise InvalidInputError("each entry needs a 'formula' key")
        rep = bounds_mod.evaluate(entry["formula"], entry.get("params", {}))
        rows.append([rep.formula_id, rep.value, rep.log_value, rep.notes])
    write_results(cfg.output_dir, _base_manifest(cfg),
                  ["formula", "value", "log_value", "notes"], rows)


_HANDLERS = {
    "construct": _run_construct,
    "verify": _run_verify,
    "rademacher": _run_rademacher,
    "cover": _run_cover,
    "dudley": _run_dudley,
    "sgd": _run_sgd,
    "uc-gap": _run_uc_gap,
    "bounds": _run_bounds,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
        failed = _HANDLERS[cfg.command](cfg)
        if failed is None:
            return EXIT_OK
        message, code = failed, EXIT_SCIENCE
    except (UsageError, InvalidInputError, OSError) as e:
        message, code = e, EXIT_USAGE
    except ArithmeticError as e:
        # overflow or a zero divisor from values at the edge of the float range
        message, code = f"{type(e).__name__}: {e}", EXIT_USAGE
    except NumericalFailureError as e:
        message, code = e, EXIT_SCIENCE
    except MemoryError as e:
        message, code = str(e) or "out of memory", EXIT_USAGE
    print(f"error: {message}", file=sys.stderr)  # one line, no traceback
    return code


if __name__ == "__main__":
    sys.exit(main())
