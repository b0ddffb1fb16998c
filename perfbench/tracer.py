"""Outside-in per-layer tracing for the benchmark.

The tracer wraps the public callables of each jamofuse module from here, so
no file under ``src/`` changes. A wrapped call records a span (name, start,
end, parent span, operation id) in memory, adds its duration minus the time
its child spans cover to the callable's self time, and updates the counts
named in ``TARGETS``. Spans nest properly because everything runs on one
thread.

A function is patched in every ``jamofuse`` module that binds it, because
modules look names up in their own globals: ``pipeline`` binds
``subword.encode`` as ``subword_encode`` at import time, so wrapping only
``jamofuse.subword.encode`` would record nothing under ``Pipeline.forward``.
Methods are patched on their class, where instance lookups find them.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_tokenize(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["subchar.tokens"] += len(result.tokens)
    tracer.tokenized_texts.add(_arg(args, kwargs, 1, "text"))


def _count_encode(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["subword.units"] += len(result[0])


def _count_align(tracer: "Tracer", args, kwargs, result) -> None:
    m = len(_arg(args, kwargs, 0, "surface"))
    n = sum(len(unit) for unit in _arg(args, kwargs, 1, "lemma_units"))
    tracer.counts["oracle.align.cells"] += m * (n + 1) * (n + 2) // 2


def _count_gru_forward(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["layers.gru.forward.steps"] += _arg(args, kwargs, 1, "x").shape[0]


def _count_gru_backward(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["layers.gru.backward.steps"] += _arg(args, kwargs, 2, "cache").x.shape[0]


def _count_embedding_backward(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["embedding.rows_used"] += np.unique(_arg(args, kwargs, 2, "cache")).size
    tracer.counts["embedding.rows_allocated"] += args[0].vocab_size


def _count_grad_check(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["gradcheck.coords"] += result.coords_checked


def _count_checkpoint(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_loss_calls(tracer: "Tracer", args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    """Replaces grad_check's loss function by one that counts its calls."""
    loss_fn = _arg(args, kwargs, 0, "loss_fn")

    def counted(with_grad: bool) -> float:
        tracer.counts["gradcheck.loss_calls"] += 1
        return loss_fn(with_grad)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, {**kwargs, "loss_fn": counted}


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner`` is a module path or ``module:Class``."""

    name: str
    owner: str
    attr: str
    count: Optional[Callable] = None
    before: Optional[Callable] = None
    span: bool = True  # False: count calls only, no span


TARGETS = [
    Target("hangul.decompose", "jamofuse.hangul", "decompose", span=False),
    Target("subchar.tokenize", "jamofuse.subchar:SubcharTokenizer", "tokenize", _count_tokenize),
    Target("subword.encode", "jamofuse.subword", "encode", _count_encode),
    Target("subword.train_vocab", "jamofuse.subword", "train_vocab"),
    Target("oracle.align", "jamofuse.oracle", "align", _count_align),
    Target("oracle.classify_mod", "jamofuse.oracle", "classify_mod"),
    Target("oracle.corpus_stats", "jamofuse.oracle", "corpus_stats"),
    Target("layers.gru.forward", "jamofuse.layers:GRULayer", "forward", _count_gru_forward),
    Target("layers.gru.backward", "jamofuse.layers:GRULayer", "backward", _count_gru_backward),
    Target("layers.embedding.forward", "jamofuse.layers:Embedding", "forward"),
    Target("layers.embedding.backward", "jamofuse.layers:Embedding", "backward", _count_embedding_backward),
    Target("layers.cross_attention.forward", "jamofuse.layers:CrossAttention", "forward"),
    Target("layers.cross_attention.backward", "jamofuse.layers:CrossAttention", "backward"),
    Target("layers.conv2x1.forward", "jamofuse.layers:Conv2x1", "forward"),
    Target("layers.conv2x1.backward", "jamofuse.layers:Conv2x1", "backward"),
    Target("layers.linear.forward", "jamofuse.layers:Linear", "forward"),
    Target("layers.linear.backward", "jamofuse.layers:Linear", "backward"),
    Target("pipeline.build", "jamofuse.pipeline:Pipeline", "build"),
    Target("pipeline.forward", "jamofuse.pipeline:Pipeline", "forward"),
    Target("pipeline.backward", "jamofuse.pipeline:Pipeline", "backward"),
    Target("pipeline.stage1", "jamofuse.pipeline:Pipeline", "stage1_subchar_to_char"),
    Target("pipeline.stage2", "jamofuse.pipeline:Pipeline", "stage2_char_to_unit"),
    Target("pipeline.backward_stage1", "jamofuse.pipeline:Pipeline", "backward_stage1"),
    Target("pipeline.backward_stage2", "jamofuse.pipeline:Pipeline", "backward_stage2"),
    Target("pipeline.fuse", "jamofuse.pipeline:Pipeline", "fuse"),
    Target("pipeline.backward_fuse", "jamofuse.pipeline:Pipeline", "backward_fuse"),
    Target("training.train", "jamofuse.training", "train"),
    Target("training.word_vectors", "jamofuse.training", "word_vectors"),
    Target("optim.adamw.step", "jamofuse.optim:AdamW", "step"),
    Target("gradcheck.grad_check", "jamofuse.gradcheck", "grad_check", _count_grad_check, _count_loss_calls),
    Target("checkpoint.save_checkpoint", "jamofuse.checkpoint", "save_checkpoint", _count_checkpoint),
    Target("checkpoint.load_checkpoint", "jamofuse.checkpoint", "load_checkpoint", _count_checkpoint),
]

# counts reported after the callables, with their units
COUNTS = {
    "subchar.tokens": "count",
    "subchar.tokenize.distinct_share": "ratio",
    "subword.units": "count",
    "oracle.align.cells": "count",
    "layers.gru.forward.steps": "count",
    "layers.gru.backward.steps": "count",
    "layers.embedding.backward.rows_used_share": "ratio",
    "gradcheck.coords": "count",
    "gradcheck.loss_calls": "count",
    "checkpoint.bytes": "bytes",
}


class Tracer:
    """In-memory spans plus per-callable call counts and self times."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name ids index this
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1  # operation id stamped on new spans; -1 during set-up
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.tokenized_texts: set[str] = set()
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.origin_ns = 0

    # wrapping ---------------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        calls = self.calls
        if not target.span:

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        name_id = len(self.names)
        self.names.append(name)
        stack, child_ns, self_ns = self._stack, self._child_ns, self.self_ns
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op = self.span_parent, self.span_op
        count, before = target.count, target.before
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            sid = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            span_end.append(0)
            stack.append(sid)
            child_ns.append(0)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[sid] = end
                stack.pop()
                duration = end - start
                self_ns[name] += duration - child_ns.pop()
                calls[name] += 1
                if child_ns:
                    child_ns[-1] += duration
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets: list[Target] = TARGETS) -> None:
        """Wrap every target wherever it is looked up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            module_name, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[target.attr]
                if isinstance(original, staticmethod):
                    replacement = staticmethod(self._wrap(target, original.__func__))
                else:
                    replacement = self._wrap(target, original)
                self._patch(cls, target.attr, original, replacement)
                continue
            original = getattr(module, target.attr)
            replacement = self._wrap(target, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "jamofuse" and not mod_name.startswith("jamofuse."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, replacement)

    def _patch(self, owner: Any, key: str, original: Any, replacement: Any) -> None:
        setattr(owner, key, replacement)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # results ----------------------------------------------------------------

    def top_level_ns(self) -> int:
        """Total duration of spans without a parent: the sum of all self times."""
        return sum(
            end - start
            for start, end, parent in zip(self.span_start, self.span_end, self.span_parent)
            if parent == -1
        )

    def layer_metrics(self, targets: list[Target] = TARGETS) -> dict[str, tuple[float, str]]:
        """``X.calls`` and ``X.self_ms`` for every target, then the counts."""
        out: dict[str, tuple[float, str]] = {}
        for target in targets:
            out[f"{target.name}.calls"] = (self.calls[target.name], "count")
            if target.span:
                out[f"{target.name}.self_ms"] = (self.self_ns[target.name] / 1e6, "ms")
        calls = self.calls["subchar.tokenize"]
        allocated = self.counts["embedding.rows_allocated"]
        derived = {
            "subchar.tokenize.distinct_share": len(self.tokenized_texts) / calls if calls else 0.0,
            "layers.embedding.backward.rows_used_share": (
                self.counts["embedding.rows_used"] / allocated if allocated else 0.0
            ),
        }
        for key, unit in COUNTS.items():
            out[key] = (derived[key] if key in derived else self.counts[key], unit)
        return out

    def write_spans(self, path: str) -> None:
        """CSV of every span; times in ns from the start of the traced pass."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("span,name,start_ns,end_ns,parent,op\n")
            for sid, (name_id, start, end, parent, op) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
            ):
                stream.write(
                    f"{sid},{self.names[name_id]},{start - self.origin_ns},{end - self.origin_ns},{parent},{op}\n"
                )


@dataclass
class Passes:
    untraced: list  # OpResult per operation, tracing off
    traced: list  # the same operations with the wrappers installed
    untraced_s: float  # wall seconds of the untraced pass
    traced_s: float  # wall seconds of the traced pass, on the span clock
    untraced_cpu_s: float  # CPU seconds of each pass at nominal host speed
    traced_cpu_s: float
    tracer: Tracer


def run_passes(workload, ops: range) -> Passes:
    """Set-up plus ``ops``, untraced and then traced; the wrappers are removed after.

    The workload's host speed gauge runs across both passes, so that the
    tracing overhead can compare their CPU times at nominal host speed. Its
    kernel runs inside whatever span is open, adding about 1% to self times.
    """
    gauge = workload.gauge
    gauge.start()
    try:
        cpu0, start = gauge.cpu(), time.perf_counter()
        workload.setup()
        untraced = [workload.op(i) for i in ops]
        cpu1, untraced_s = gauge.cpu(), time.perf_counter() - start

        tracer = Tracer()
        tracer.install()
        try:
            tracer.origin_ns = time.perf_counter_ns()
            workload.setup()
            traced = []
            for i in ops:
                tracer.op = i
                traced.append(workload.op(i))
            traced_s = (time.perf_counter_ns() - tracer.origin_ns) / 1e9
        finally:
            tracer.uninstall()
        cpu2 = gauge.cpu()
    finally:
        gauge.stop()
    untraced_cpu_s = (cpu1 - cpu0) * gauge.factor(cpu0, cpu1)
    traced_cpu_s = (cpu2 - cpu1) * gauge.factor(cpu1, cpu2)
    return Passes(untraced, traced, untraced_s, traced_s, untraced_cpu_s, traced_cpu_s, tracer)
