"""Spans around the calls into caplab's public functions, recorded from
outside the program.

`Tracer.install()` replaces each target function or method with a wrapper
on every caplab module and class attribute that holds it, and `uninstall()`
puts the original objects back.  Nothing under ``src/`` is edited.  Spans
stay in memory (one row per call in a few flat arrays) until the run ends.

A span has a name, a start, an end, its parent span and the id of the
benchmark operation that caused it.  Only one thread runs caplab code, so
child spans never overlap, no layer waits on another (no waiting time is
recorded), and a span's self time is its duration minus the summed
durations of its children.

Metric names: `<module>.<function>.{calls,s,self_s,failed,<counter>}` per
target and `<module>.{self_s,failed}` per module, with the module's leading
underscore dropped (`_kernels` -> `kernels`).
"""

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

# Counters read from a target's bound arguments `a` and its result `r`.
# "bytes_computed" is derived from array shapes, not measured.


def _encoded_min_eval_counts(a, r):
    rows, anchors = a["Q"].shape[0], a["j_arr"].shape[0]
    # per query row the kernel streams the anchor columns j, m+z and the values
    streamed = rows * (a["j_arr"].nbytes + a["zc_arr"].nbytes + a["vals"].nbytes)
    return {"rows": rows, "anchor_evals": rows * anchors,
            "bytes_computed": a["Q"].nbytes + streamed}


def _greedy_pack_counts(a, r):
    return {"candidates": a["cands"].shape[0], "kept": len(r)}


def _min_pairwise_counts(a, r):
    n = a["X"].shape[0]
    return {"pairs": n * (n - 1) // 2}


def _rows(a):
    X = a["X"]
    return X.shape[0] if getattr(X, "ndim", 1) == 2 else 1


def _write_results_counts(a, r):
    out = a["out_dir"]
    return {"bytes": sum(os.path.getsize(os.path.join(out, f))
                         for f in ("manifest.json", "results.csv"))}


# (module, attribute path, counter fields, counter); order is the report order.
TARGETS = [
    ("cli", "main", (), None),
    ("cli", "write_results", ("bytes",), _write_results_counts),
    ("constructions", "instance_from_manifest", (), None),
    ("constructions", "random_separated_family", ("resamples",),
     lambda a, r: {"resamples": r.resamples_used}),
    ("constructions", "verify_shattering", ("labelings",),
     lambda a, r: {"labelings": r.checked_labelings}),
    ("constructions", "ShatterInstance.witness_for", (), None),
    ("constructions", "EncodedMinForm.eval", (), None),
    ("constructions", "EncodedMaxAffine.eval", ("piece_evals",),
     lambda a, r: {"piece_evals": _rows(a) * a["self"].num_pieces}),
    ("constructions", "EncodedMaxAffine.loss_subgrad", (), None),
    ("complexity", "witness_table", (), None),
    ("complexity", "rademacher_mc", ("draws",),
     lambda a, r: {"draws": a["draws"]}),
    ("complexity", "cover_bound", (), None),
    ("complexity", "dudley_bound", (), None),
    ("learner", "sgd_run", ("steps",), lambda a, r: {"steps": a["cfg"].T}),
    ("learner", "population_loss", (), None),
    ("lipschitz", "AnchoredLipschitz.eval", ("anchor_evals",),
     lambda a, r: {"anchor_evals": _rows(a) * a["self"].anchors.shape[0]}),
    ("lipschitz", "min_feasible_slope", (), None),
    ("lipschitz", "empirical_lipschitz", (), None),
    ("numerics", "spectral_norm", (), None),
    ("numerics", "ball_net", (), None),
    ("numerics", "svd_truncate", (), None),
    ("numerics", "jacobi_svd", (), None),
    ("bounds", "evaluate", (), None),
    ("_kernels", "encoded_min_eval", ("rows", "anchor_evals", "bytes_computed"),
     _encoded_min_eval_counts),
    ("_kernels", "greedy_pack", ("candidates", "kept"), _greedy_pack_counts),
    ("_kernels", "jacobi_orthogonalize", ("sweeps",),
     lambda a, r: {"sweeps": max(int(r), 0)}),
    ("_kernels", "min_pairwise_dist", ("pairs",), _min_pairwise_counts),
]

MODULES = sorted({mod for mod, _, _, _ in TARGETS})


def layer_name(module):
    """Metric prefix of a module: names must start with a letter or digit."""
    return module.lstrip("_")


def span_name(module, path):
    return f"{layer_name(module)}.{path}"


class Tracer:
    """Records spans while installed; one instance per traced phase."""

    def __init__(self):
        self.names = [span_name(mod, path) for mod, path, _, _ in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.failed = bytearray()
        self.counts = defaultdict(lambda: defaultdict(float))
        self.op_id = -1
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules["caplab." + m] for m in MODULES}
        namespaces = [m for k, m in sys.modules.items()
                      if k == "caplab" or k.startswith("caplab.")]
        for nid, (mod, path, _, counter) in enumerate(TARGETS):
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mods[mod], owner_name)
                if attr not in vars(owner):
                    raise RuntimeError(f"{path} is not defined on its class")
                original = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(nid, original, counter))
                continue
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(nid, original, counter)
            # `from .x import f` copies the reference: patch every holder
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)

    def _patch(self, ns, key, wrapper):
        self._patched.append((ns, key, vars(ns)[key]))
        setattr(ns, key, wrapper)

    def uninstall(self):
        while self._patched:
            ns, key, original = self._patched.pop()
            setattr(ns, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, nid, fn, counter):
        sig = inspect.signature(fn) if counter else None
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.failed.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = self.counts[nid]
                for key, value in counter(bound.arguments, result).items():
                    counts[key] += value
            return result

        return wrapper

    # -- accounting -------------------------------------------------------

    @property
    def num_spans(self):
        return len(self.start)

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i]
                for i in range(len(self.start))]

    def root_time(self):
        """Summed duration of the spans the benchmark itself called into."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def layer_metrics(self, iterations=1):
        """Per-iteration totals over every recorded span: per target `calls`,
        `s`, `self_s`, `failed` and its counters; per module `self_s` and
        `failed`.  Targets never called read 0."""
        out = {}
        for mod, path, fields, _ in TARGETS:
            for key in ("calls", "s", "self_s", "failed") + fields:
                out[f"{span_name(mod, path)}.{key}"] = 0.0
        for mod in MODULES:
            out[f"{layer_name(mod)}.self_s"] = 0.0
            out[f"{layer_name(mod)}.failed"] = 0.0
        module_of = [layer_name(mod) for mod, _, _, _ in TARGETS]
        for i, self_s in enumerate(self.self_times()):
            nid = self.name[i]
            name = self.names[nid]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += self.end[i] - self.start[i]
            out[f"{name}.self_s"] += self_s
            out[f"{module_of[nid]}.self_s"] += self_s
            if self.failed[i]:
                out[f"{name}.failed"] += 1
                out[f"{module_of[nid]}.failed"] += 1
        for nid, counts in self.counts.items():
            for key, value in counts.items():
                out[f"{self.names[nid]}.{key}"] = value
        out = {k: v / iterations for k, v in out.items()}
        # useful-outcome ratio of the packing kernel: kept / candidates
        cands = out["kernels.greedy_pack.candidates"]
        out["kernels.greedy_pack.kept_ratio"] = (
            out["kernels.greedy_pack.kept"] / cands if cands else 0.0)
        return out

    def to_json(self, t0=0.0):
        """Column-oriented span table, times in seconds from `t0`."""
        return {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op", "failed"],
            "name": list(self.name),
            "start_s": [round(t - t0, 9) for t in self.start],
            "end_s": [round(t - t0, 9) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
            "failed": list(self.failed),
        }
