"""Spans around the public functions of srmkit, recorded from outside it.

``Tracer.install()`` replaces every public function and public method that a
srmkit module defines with a wrapper that records one span per call: its
name, its layer (the module it was defined in), start and end times and the
span that was open when it was called. Modules that imported a name with
``from .x import f`` hold their own reference, so the wrapper is installed
under every module attribute that refers to the original object. Spans stay
in memory until ``spans`` is read; ``layer_metrics`` turns the spans of one
operation into the per-layer numbers of the benchmark.

srmkit itself is not changed: private helpers (``_procrustes_svd``,
``_accumulate_product``, ...) are not wrapped, so their time counts as the
self time of the public function that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

LAYERS = ("dataio", "atlas", "srm", "fastsrm", "evaluation", "cli", "synthetic")
MIB = 1024.0 * 1024.0


def _array_bytes(obj) -> int:
    return int(getattr(obj, "nbytes", 0))


# Extra numbers recorded on a span, computed from (args, kwargs, result).
_MEASURES = {
    "dataio.load_matrix": lambda a, kw, out: {"bytes": _array_bytes(out)},
    "dataio.save_matrix": lambda a, kw, out: {"bytes": _array_bytes(a[0] if a else kw["mat"])},
    "evaluation.cosmoothing": lambda a, kw, out: {"folds": len(out.folds)},
}


class Tracer:
    """Collects spans in memory; one instance per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"name": name, "layer": layer, "parent": stack[-1] if stack else -1}
            stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.update(measure(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        """Wrap the public callables of every layer module."""
        modules = [importlib.import_module(f"srmkit.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("srmkit"))
        replaced = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{prefix}.{attr}", raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", raw))


# ---------------------------------------------------------------------------
# aggregation


def _durations(spans):
    """Per span: its duration and the part of it that its children cover."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            child[s["parent"]] += d
    return dur, child


def _has_ancestor(spans, idx, names) -> bool:
    p = spans[idx]["parent"]
    while p >= 0:
        if spans[p]["name"] in names:
            return True
        p = spans[p]["parent"]
    return False


FIT_SPANS = ("fastsrm.fastsrm_fit", "srm.detsrm_fit", "srm.probsrm_fit")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one operation's spans (values in s, MiB, counts)."""
    dur, child = _durations(spans)
    m: dict[str, float] = {}

    def total(pred) -> float:
        return sum(d for s, d in zip(spans, dur) if pred(s))

    def self_time(pred) -> float:
        return sum(d - c for s, d, c in zip(spans, dur, child) if pred(s))

    def named(name):
        return lambda s: s["name"] == name

    loads = [s for s in spans if s["name"] == "dataio.load_matrix"]
    writes = [s for s in spans if s["name"] == "dataio.save_matrix"]
    m["dataio.run_loads"] = sum(1 for s in spans if s["name"] == "dataio.DatasetManifest.load_run")
    m["dataio.load_s"] = total(named("dataio.load_matrix"))
    m["dataio.load_mib"] = sum(s["bytes"] for s in loads) / MIB
    m["dataio.write_mib"] = sum(s["bytes"] for s in writes) / MIB
    m["dataio.write_s"] = total(named("dataio.save_matrix"))

    m["atlas.project_calls"] = sum(1 for s in spans if s["name"] == "atlas.project_run")
    m["atlas.project_s"] = total(named("atlas.project_run"))

    m["fastsrm.reduce_s"] = total(named("fastsrm.reduce_dataset"))
    m["fastsrm.reduce_self_s"] = self_time(named("fastsrm.reduce_dataset"))
    m["fastsrm.recover_s"] = total(named("fastsrm.recover_components"))
    m["fastsrm.recover_self_s"] = self_time(named("fastsrm.recover_components"))

    reduced = {i for i, s in enumerate(spans)
               if s["name"] == "srm.detsrm_fit" and _has_ancestor(spans, i, ("fastsrm.fastsrm_fit",))}
    full_det = {i for i, s in enumerate(spans) if s["name"] == "srm.detsrm_fit" and i not in reduced}
    m["srm.reduced_fit_s"] = sum(dur[i] for i in reduced)
    m["srm.detsrm.shared_update_s"] = sum(
        dur[i] for i, s in enumerate(spans)
        if s["name"] == "srm.update_shared" and s["parent"] in full_det
    )
    m["srm.detsrm.self_s"] = sum(dur[i] - child[i] for i in full_det)
    m["srm.probsrm.self_s"] = self_time(named("srm.probsrm_fit"))
    m["srm.model_save_s"] = total(named("srm.SrmModel.save"))

    in_cv = [i for i, s in enumerate(spans)
             if s["name"] in FIT_SPANS and _has_ancestor(spans, i, ("evaluation.cosmoothing",))
             and not _has_ancestor(spans, i, FIT_SPANS)]
    m["evaluation.folds"] = sum(s.get("folds", 0) for s in spans if s["name"] == "evaluation.cosmoothing")
    m["evaluation.fit_s"] = sum(dur[i] for i in in_cv)
    m["evaluation.score_s"] = total(named("evaluation.cosmoothing")) - m["evaluation.fit_s"]
    m["evaluation.r2_map_s"] = total(named("evaluation.r2_map"))

    m["cli.self_s"] = self_time(lambda s: s["layer"] == "cli")
    m["trace.spans"] = len(spans)
    return m
