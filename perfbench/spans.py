"""Outside-in span tracing of artifactgen's layers for the benchmark's traced runs.

`Tracer` replaces the functions and ``forward`` methods listed in ``TARGETS``
at runtime, wherever artifactgen's modules look the names up (module globals
that hold the function, or the class that defines the method). Nothing under
``src/`` is edited. Each wrapped call records a span (name, start, end,
parent) in memory; `per_layer_metrics` derives self times (a span minus its
direct children) and counts from them. Forward calls made with gradient
recording on also record the tracemalloc bytes still live when they return:
the tape the call left behind, its children's included. tracemalloc starts at
the first such call, so a run that builds no tape pays nothing for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# (module under artifactgen, attribute, what the wrapper records besides the span)
TARGETS = (
    ("nn.layers", "Conv1d.forward", "tape"),
    ("nn.layers", "ConvTranspose1d.forward", "tape"),
    ("nn.layers", "GroupNorm.forward", "tape"),
    ("nn.layers", "Linear.forward", None),
    ("nn.layers", "film", None),
    ("diffusion", "ResBlock.forward", "tape"),
    ("diffusion", "UNet1D.forward", "tape"),
    ("diffusion", "denoise_loss", None),
    ("diffusion", "sample", None),
    ("nn.tensor", "backward", None),
    ("nn.tensor", "grad", None),
    ("gan", "gradient_penalty", "tape"),
    ("gan", "ProjectionCritic.forward", None),
    ("gan", "GeneratorNet.forward", None),
    ("nn.optim", "Adam.step", None),
    ("nn.optim", "EmaShadow.update", None),
    ("nn.checkpoint", "save_checkpoint", "mb"),
    ("metrics", "bandwise_rel_err", None),
    ("metrics", "psd_l2_error", None),
    ("metrics", "mmd_unbiased", None),
    ("metrics", "diversity", None),
    ("metrics", "cov_frobenius", None),
    ("metrics", "acf_l2", None),
    ("metrics", "one_nn_separability", None),
    ("metrics", "knn_class_recovery", None),
    ("dsp", "welch_psd", "inputs"),
    ("dsp", "autocorrelation", None),
    ("dsp", "channel_covariance", None),
    ("synthetic", "generate_corpus", None),
    ("windowing", "extract_windows", None),
    ("normalize", "minmax_normalize", None),
    ("manifest", "write_windows", "files"),
    ("manifest", "load_window_set", None),
)

# Per-layer metrics: (span name, field, unit). Field "s" is summed self seconds,
# "calls" the span count, "tape_mb" the summed retained bytes of grad-on calls,
# "mb" and "files" what the call wrote.
LAYER_FIELDS = (
    ("nn.layers.Conv1d", ("s", "calls", "tape_mb")),
    ("nn.layers.ConvTranspose1d", ("s", "calls", "tape_mb")),
    ("nn.layers.GroupNorm", ("s", "calls", "tape_mb")),
    ("nn.layers.Linear", ("s",)),
    ("nn.layers.film", ("s",)),
    ("diffusion.ResBlock", ("s", "tape_mb")),
    ("diffusion.UNet1D", ("s", "calls", "tape_mb")),
    ("diffusion.denoise_loss", ("s",)),
    ("nn.tensor.backward", ("s", "calls")),
    ("gan.gradient_penalty", ("s", "tape_mb")),
    ("nn.tensor.grad", ("s", "calls")),
    ("gan.ProjectionCritic", ("s", "calls")),
    ("gan.GeneratorNet", ("s", "calls")),
    ("nn.optim.Adam.step", ("s", "calls")),
    ("nn.optim.EmaShadow.update", ("s",)),
    ("nn.checkpoint.save_checkpoint", ("s", "mb")),
    ("diffusion.sample", ("s",)),
    ("metrics.bandwise_rel_err", ("s",)),
    ("metrics.psd_l2_error", ("s",)),
    ("metrics.mmd_unbiased", ("s",)),
    ("metrics.diversity", ("s",)),
    ("metrics.cov_frobenius", ("s",)),
    ("metrics.acf_l2", ("s",)),
    ("metrics.one_nn_separability", ("s",)),
    ("metrics.knn_class_recovery", ("s",)),
    ("dsp.welch_psd", ("s", "calls")),
    ("dsp.autocorrelation", ("s", "calls")),
    ("dsp.channel_covariance", ("s", "calls")),
    ("synthetic.generate_corpus", ("s",)),
    ("windowing.extract_windows", ("s",)),
    ("normalize.minmax_normalize", ("s", "calls")),
    ("manifest.write_windows", ("s", "files")),
    ("manifest.load_window_set", ("s",)),
)
FIELD_UNITS = {"s": "s", "calls": "count", "tape_mb": "MB", "mb": "MB", "files": "count"}
RATIO_METRICS = ("diffusion.UNet1D.calls_per_ddim_step", "dsp.welch_psd.calls_per_input")

MB = 1e6


def _span_name(module: str, attr: str) -> str:
    owner, _, method = attr.rpartition(".")
    if owner and method == "forward":
        return f"{module}.{owner}"
    return f"{module}.{attr}"


def _recorded(kind: str, args: tuple, kwargs: dict, out):
    """The extra value a wrapped call of the given kind records."""
    if kind == "mb":
        return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0]) / MB
    if kind == "files":
        return len(out.entries)
    if kind == "inputs":
        return hash(args[0].tobytes())
    raise ValueError(f"unknown record kind {kind!r}")


class Tracer:
    """Context manager that installs the wrappers, records spans, and removes them."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.tape_bytes: dict[str, int] = defaultdict(int)
        self.recorded: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, kind: str | None):
        tensor = sys.modules["artifactgen.nn.tensor"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tape = kind == "tape" and tensor._grad_enabled
            if tape and not tracemalloc.is_tracing():
                tracemalloc.start()   # from the first tape: no-grad workloads run untaxed
            before = tracemalloc.get_traced_memory()[0] if tape else 0
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tape:
                self.tape_bytes[name] += tracemalloc.get_traced_memory()[0] - before
            elif kind not in (None, "tape"):
                self.recorded[name].append(_recorded(kind, args, kwargs, out))
            return out

        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        importlib.import_module("artifactgen.cli")  # loads every module callers use
        modules = [m for n, m in sys.modules.items()
                   if n == "artifactgen" or n.startswith("artifactgen.")]
        for module_name, attr, kind in TARGETS:
            module = sys.modules[f"artifactgen.{module_name}"]
            name = _span_name(module_name, attr)
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                self._replace(cls, method, self._wrap(name, cls.__dict__[method], kind))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, kind)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        tracemalloc.stop()   # a no-op when never started
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def per_layer_metrics(tracer: Tracer, ddim_steps: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of LAYER_FIELDS and RATIO_METRICS as (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, *_), s in zip(spans, own):
        seconds[name] += s
        calls[name] += 1
    out: dict[str, tuple[float, str]] = {}
    for name, fields in LAYER_FIELDS:
        for field in fields:
            if field == "s":
                value = seconds[name]
            elif field == "calls":
                value = calls[name]
            elif field == "tape_mb":
                value = tracer.tape_bytes[name] / MB
            else:
                value = sum(tracer.recorded[name])
            out[f"{name}.{field}"] = (value, FIELD_UNITS[field])

    sampled = sum(1 for i, span in enumerate(spans)
                  if span[0] == "diffusion.UNet1D" and _has_ancestor(spans, i, "diffusion.sample"))
    steps = calls["diffusion.sample"] * ddim_steps
    out["diffusion.UNet1D.calls_per_ddim_step"] = (sampled / steps if steps else 0.0, "ratio")
    inputs = len(set(tracer.recorded["dsp.welch_psd"]))
    out["dsp.welch_psd.calls_per_input"] = (
        calls["dsp.welch_psd"] / inputs if inputs else 0.0, "ratio")
    return out
