"""In-memory span tracing by rebinding module attributes.

A traced run replaces each hooked function at the attribute its caller looks
up (for example ``lmukws.qmodel.requantize``, which ``quantized_forward``
reads as a module global) with a wrapper that records one span per call.
The program's files are never edited, and ``Tracer.uninstall`` puts every
original back.

A span is (name, start, end, parent, op id).  Spans live in flat arrays
while the run goes and are written out once, at the end.  A span's self
time is its duration minus the time its direct child spans cover; the run
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

# Layers reported by <layer>.self_frac; "bench" is wall time no span covers.
LAYERS = ("frontend", "qmodel", "fixedpoint", "training", "lmu", "modelfile", "cli", "bench")


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.units = {}  # span name -> work units (frames, clips) its calls covered
        self.op_id = 0
        self._stack = []
        self._saved = []
        self.t0 = self.t1 = 0.0

    # -- recording ---------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    def new_op(self) -> None:
        """Spans opened from here on belong to the next operation."""
        self.op_id += 1

    def wrap(self, fn, name, units=None):
        """Wrap fn so each call records a span.

        ``name`` is a string or a callable (args, kwargs) -> str that picks
        the span name from the arguments; ``units`` is an optional callable
        (args, kwargs, result) -> int counting the work one call did.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if units is not None:
                tracer.units[span] = tracer.units.get(span, 0) + units(args, kwargs, result)
            return result

        return traced

    def install(self, hooks) -> None:
        """hooks: (owner, attribute, name, units) with owner a module or class."""
        for owner, attr, name, units in hooks:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, units))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = perf_counter()
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------
    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    def summary(self) -> dict:
        """span name -> (calls, inclusive seconds, self seconds)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur - np.frombuffer(self.child)
        out = {}
        for i, n in enumerate(self.names):
            sel = name == i
            out[n] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start) - self.t0,
            end=np.frombuffer(self.end) - self.t0,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def per_layer_metrics(summary: dict, units: dict, wall_s: float, macs_per_frame: int) -> dict:
    """Derive the per-layer metrics, name -> (value, unit), from a trace summary.

    A metric whose layer did no work in this workload reads 0.
    """
    def calls(n):
        return summary.get(n, (0, 0.0, 0.0))[0]

    def incl(n):
        return summary.get(n, (0, 0.0, 0.0))[1]

    def mean(n, scale):
        return incl(n) / calls(n) * scale if calls(n) else 0.0

    def per_unit(n, scale):
        return incl(n) / units[n] * scale if units.get(n) else 0.0

    hop, utt = "qmodel.forward_hop", "qmodel.forward_utt"
    engine_frames = units.get(hop, 0) + units.get(utt, 0)
    engine_s = incl(hop) + incl(utt)
    hat_steps = calls("training.step_hat")
    hat_step_ms = mean("training.step_hat", 1e3)
    hat_forward_ms = mean("training.hat_forward", 1e3)
    m = {
        "frontend.push_us_per_frame": (per_unit("frontend.push", 1e6), "us"),
        "frontend.materialize_us_per_clip": (per_unit("frontend.materialize", 1e6), "us"),
        "qmodel.hop_us": (mean(hop, 1e6), "us"),
        "qmodel.utt_us_per_frame": (per_unit(utt, 1e6), "us"),
        "qmodel.ns_per_mac": (engine_s / (engine_frames * macs_per_frame) * 1e9
                              if engine_frames else 0.0, "ns"),
        "qmodel.calibrate_s": (mean("qmodel.calibrate", 1.0), "s"),
        "qmodel.freeze_ms": (mean("qmodel.freeze", 1e3), "ms"),
        "training.float_step_ms": (mean("training.step_float", 1e3), "ms"),
        "training.hat_step_ms": (hat_step_ms, "ms"),
        "training.hat_forward_ms": (hat_forward_ms, "ms"),
        "training.hat_backward_ms": (hat_step_ms - hat_forward_ms if hat_steps else 0.0, "ms"),
        "training.adam_ms": (mean("training.adam", 1e3), "ms"),
        "fixedpoint.prune_ms": (mean("fixedpoint.prune", 1e3), "ms"),
        "fixedpoint.requantize_calls_per_frame":
            (calls("fixedpoint.requantize") / engine_frames if engine_frames else 0.0, "count"),
        "fixedpoint.fake_quant_calls_per_step":
            (calls("fixedpoint.fake_quant") / hat_steps if hat_steps else 0.0, "count"),
        "modelfile.load_ms": (mean("modelfile.load", 1e3), "ms"),
        "cli.detect_us_per_hop": (mean("cli.detect", 1e6), "us"),
    }
    own = dict.fromkeys(LAYERS, 0.0)
    for n, (_, _, self_s) in summary.items():
        own[n.split(".", 1)[0]] += self_s
    own["bench"] = wall_s - sum(own.values())
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (own[layer] / wall_s, "frac")
    return m
