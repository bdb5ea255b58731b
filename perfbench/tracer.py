"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of every segfuse layer
module, and the ``__post_init__`` of its dataclasses (construction is where
validation happens).  The package imports functions with ``from .x import
y``, so a wrapper replaces every module attribute that aliases the
original, not just the defining one.  Each wrapper keeps a call count and
its self time: its duration minus the time of the wrapped calls nested in
it.  Calls are counted on a single stack, which holds because the
benchmark pins the program to one worker thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

#: Layer modules, in pipeline order.
LAYERS = (
    "cli", "experiments", "synth", "fileio", "core",
    "unify", "fusion", "policy", "distill", "metrics",
)

#: Functions whose calls and self time the benchmark reports per op.
REPORTED = {
    "cli": ("main",),
    "experiments": ("robustness",),
    "synth": ("make_benchmark", "gen_ground_truth", "corrupt_teacher"),
    "fileio": ("read_probmap", "read_labelmap", "write_probmap", "write_labelmap",
               "write_bytes_atomic"),
    "core": ("ProbMap", "LabelMap"),
    "unify": ("unify",),
    "fusion": ("pixel_fuse", "build_channel_sets", "window_sum", "resolve_conflicts",
               "channel_fuse"),
    "policy": ("select_random", "select_certainty"),
    "distill": ("certainty_selection_protocol", "train_student", "student_forward",
                "average_fuse"),
    "metrics": ("per_class_iou", "dataset_iou", "certainty_table"),
}


def _targets(module):
    """(owner, attribute, key) for each public function and dataclass validator."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{layer}.{name}"
        elif dataclasses.is_dataclass(obj) and "__post_init__" in vars(obj):
            yield obj, "__post_init__", f"{layer}.{name}"


def _labels_digest(labels) -> bytes:
    maps = labels if isinstance(labels, (list, tuple)) else [labels]
    h = hashlib.sha256()
    for m in maps:
        h.update(str((m.values.shape, m.num_classes)).encode())
        h.update(m.values.tobytes())
    return h.digest()


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counters = defaultdict(float)
        self.hook_s = 0.0
        self._stack = []  # child time accumulated by each open wrapped call
        self._patches = []
        self._raised = {}  # id -> exception, kept alive so ids are not reused
        self._op_labels = set()

    # -- op boundaries -------------------------------------------------
    def begin_op(self) -> None:
        """Distinct training inputs are counted within one op."""
        self._op_labels = set()

    # -- installation --------------------------------------------------
    def install(self) -> None:
        mods = [importlib.import_module(f"segfuse.{layer}") for layer in LAYERS]
        everywhere = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "segfuse" or n.startswith("segfuse."))]
        for module in mods:
            for owner, attr, key in list(_targets(module)):
                original = vars(owner)[attr]
                wrapper = self._wrap(original, key)
                self._patch(owner, attr, wrapper)
                if owner is module:
                    for other in everywhere:
                        for name, value in list(vars(other).items()):
                            if value is original and other is not module:
                                self._patch(other, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, key):
        layer = key.split(".", 1)[0]
        hook = _HOOKS.get(key)
        stack = self._stack

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if id(e) not in self._raised:  # count where it is raised, not re-raised
                    self._raised[id(e)] = e
                    self.errors[layer] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                child = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                h0 = time.perf_counter()
                hook(self, args, kwargs, result)
                spent = time.perf_counter() - h0
                self.hook_s += spent
                if stack:
                    stack[-1] += spent  # keep hook work out of the caller's self time
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", key)
        return wrapped

    # -- results -------------------------------------------------------
    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, s in self.self_s.items():
            out[key.split(".", 1)[0]] += s
        return out

    def metrics(self, ops: int, op_time_s: float) -> dict:
        """Per-layer metrics, normalised per op where they are counts or times."""
        m = {}
        for layer in LAYERS:
            for fn in REPORTED[layer]:
                key = f"{layer}.{fn}"
                m[f"{key}.calls"] = (self.calls[key] / ops, "calls/op")
                m[f"{key}.self_s"] = (self.self_s[key] / ops, "s/op")
        shares = self.layer_self_s()
        for layer in LAYERS:
            m[f"{layer}.share"] = (shares[layer] / op_time_s, "ratio")
            m[f"{layer}.errors"] = (self.errors[layer], "count")
        c = self.counters
        m["fileio.read_mb"] = (c["read_bytes"] / 1e6 / ops, "computed-MB/op")
        m["fileio.write_mb"] = (c["write_bytes"] / 1e6 / ops, "computed-MB/op")
        m["fusion.contested_ratio"] = (_ratio(c["contested_px"], c["channel_px"]), "ratio")
        m["fusion.unlabeled_ratio"] = (_ratio(c["unlabeled_px"], c["fused_px"]), "ratio")
        train_s = self.self_s["distill.train_student"]
        m["distill.sgd_step_ms"] = (_ratio(1e3 * train_s, c["sgd_steps"]), "ms")
        m["distill.train_student.distinct_ratio"] = (
            _ratio(c["distinct_trainings"], self.calls["distill.train_student"]), "ratio")
        m["unattributed.share"] = (1.0 - sum(shares.values()) / op_time_s, "ratio")
        return m


def _ratio(num, den) -> float:
    """num/den, or 0 when the layer did no such work."""
    return num / den if den else 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_read(tracer, args, kwargs, result):
    tracer.counters["read_bytes"] += len(_arg(args, kwargs, 0, "data"))


def _on_write(tracer, args, kwargs, result):
    tracer.counters["write_bytes"] += len(_arg(args, kwargs, 1, "data"))


def _on_channel_sets(tracer, args, kwargs, result):
    tracer.counters["contested_px"] += int(result.overlap.sum())
    tracer.counters["channel_px"] += result.overlap.size


def _on_channel_fuse(tracer, args, kwargs, result):
    tracer.counters["unlabeled_px"] += int(result.unlabeled_mask().sum())
    tracer.counters["fused_px"] += result.values.size


def _on_train(tracer, args, kwargs, result):
    tracer.counters["sgd_steps"] += _arg(args, kwargs, 2, "config").iterations
    digest = _labels_digest(_arg(args, kwargs, 1, "labels"))
    if digest not in tracer._op_labels:
        tracer._op_labels.add(digest)
        tracer.counters["distinct_trainings"] += 1


_HOOKS = {
    "fileio.read_probmap": _on_read,
    "fileio.read_labelmap": _on_read,
    "fileio.write_bytes_atomic": _on_write,
    "fusion.build_channel_sets": _on_channel_sets,
    "fusion.channel_fuse": _on_channel_fuse,
    "distill.train_student": _on_train,
}


def format_table(tracer: Tracer, ops: int, op_time_s: float) -> list[str]:
    """Human-readable per-layer table: share of op time, then each function."""
    shares = tracer.layer_self_s()
    lines = [f"{'layer / function':44s} {'share':>7s} {'self s/op':>11s} {'calls/op':>10s}"]
    for layer in LAYERS:
        lines.append(f"{layer:44s} {shares[layer] / op_time_s:7.2%} "
                     f"{shares[layer] / ops:11.5f} {'':>10s}  errors={tracer.errors[layer]}")
        keys = sorted((k for k in tracer.calls if k.split(".", 1)[0] == layer),
                      key=lambda k: -tracer.self_s[k])
        for key in keys:
            lines.append(f"  {key:42s} {tracer.self_s[key] / op_time_s:7.2%} "
                         f"{tracer.self_s[key] / ops:11.5f} {tracer.calls[key] / ops:10.2f}")
    rest = op_time_s - sum(shares.values())
    lines.append(f"{'unattributed (benchmark loop, tracer)':44s} {rest / op_time_s:7.2%} "
                 f"{rest / ops:11.5f}   of which hooks {tracer.hook_s / ops:.5f} s/op")
    for name, (value, unit) in tracer.metrics(ops, op_time_s).items():
        if name.split(".")[-1] not in ("calls", "self_s", "share", "errors"):
            lines.append(f"{name:44s} {value:.6g} {unit}")
    return lines
