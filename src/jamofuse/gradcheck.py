"""Finite-difference gradient oracle.

Compares analytic gradients against central differences coordinate by
coordinate. The relative error for one coordinate is
|analytic - numeric| / max(|analytic|, |numeric|, 1), so tiny gradients are
compared on an absolute scale.

A check perturbs one coordinate at a time, so many of its forwards repeat its
unperturbed forward bit for bit: every coordinate in a table row the text
never reads, and for each GRU every coordinate after it. grad_check serves
those repeats itself (_reuse); the library computes every call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, is_dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .layers import GRULayer, distinct_ids
from .pipeline import ForwardCache, Pipeline
from .tensor import ParamGroup, Tensor

LossFn = Callable[[bool], float]
Params = Union[ParamGroup, Iterable[tuple[str, Tensor]]]
# central-difference step
EPS = 1e-5


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: tuple[int, ...]
    coords_checked: int
    per_param: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"max rel error {self.max_rel_error:.3e} at {self.worst_param}{list(self.worst_index)} "
            f"({self.coords_checked} coordinates)"
        )


def grad_check(loss_fn: LossFn, params: Params) -> GradCheckReport:
    """Check analytic against numeric gradients for every parameter coordinate.

    loss_fn(with_grad) must return the scalar loss; when with_grad is true it
    must also accumulate analytic gradients into the parameters. Parameters
    are perturbed in place and restored exactly. While the check runs, the
    forwards of GRULayer and Pipeline serve the repeats of its first,
    unperturbed call (_reuse), so the report is the one every call computed
    would give.
    """
    with _reuse():
        items = params.items() if isinstance(params, ParamGroup) else list(params)

        for _, tensor in items:
            tensor.zero_grad()
        loss_fn(True)
        analytic = {name: t.grad.copy() for name, t in items}

        report = GradCheckReport(0.0, "", (), 0)
        for name, tensor in items:
            worst = 0.0
            for idx in np.ndindex(tensor.data.shape):
                original = tensor.data[idx]
                tensor.data[idx] = original + EPS
                loss_plus = loss_fn(False)
                tensor.data[idx] = original - EPS
                loss_minus = loss_fn(False)
                tensor.data[idx] = original
                numeric = (loss_plus - loss_minus) / (2.0 * EPS)
                a = analytic[name][idx]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
                report.coords_checked += 1
                if rel > worst:
                    worst = rel
                if rel > report.max_rel_error:
                    report.max_rel_error = rel
                    report.worst_param = name
                    report.worst_index = idx
            report.per_param[name] = worst
        return report


def check_pipeline(pipe: Pipeline, text: str, seed: int) -> GradCheckReport:
    """grad_check of every parameter of pipe on the loss <direction, forward(text)>, where
    direction is a normal draw from seed the shape of text's output rows."""
    out, _ = pipe.forward(text)
    direction = np.random.default_rng(seed).normal(size=out.shape)

    def loss_fn(with_grad: bool) -> float:
        out, cache = pipe.forward(text)
        if with_grad:
            pipe.backward(direction, cache)
        return float((direction * out).sum())

    return grad_check(loss_fn, pipe.params.group)


@contextmanager
def _reuse() -> Iterator[None]:
    """Serves the repeated forwards of a gradient check from each instance's first call.

    For the duration, GRULayer.forward and Pipeline.forward are swapped on their
    classes for wrappers with one rule: each instance keeps its first call that
    returns, in grad_check the unperturbed loss_fn(True), and a later call whose
    key holds the same bytes gets that result back. Bytes, not values: -0.0 and
    0.0 differ, and a NaN repeats. Any other call computes through the method
    found on the class and returns its result unkept. The GRU's key is the bytes
    of x, batch_sizes and table and of W, U and b, and its kept call computes on
    private copies of its inputs. The Pipeline's key is its texts, a str as the
    batch of one, and the bytes its forward reads (_reads); a call given boundary
    maps computes and is not kept. Kept results are read-only, so nothing a
    caller does changes what a later call gets; computed ones are the library's
    own, writable.

    The swap is process-global, which is safe because the library runs on one
    thread. On exit it puts back what it found (a tracer's wrappers, say), and
    a check inside a check swaps nothing.
    """
    gru_found, pipe_found = vars(GRULayer)["forward"], vars(Pipeline)["forward"]
    if getattr(gru_found, "reuse", False):
        yield
        return
    # each instance's first call: a GRU's (key, result), a Pipeline's (texts, read places, their bytes, result)
    kept: dict[object, tuple] = {}

    def gru_forward(self: GRULayer, x: np.ndarray, batch_sizes: Optional[np.ndarray] = None,
                    table: Optional[np.ndarray] = None):
        key = (_bits(x), _bits(batch_sizes), _bits(table), self.w.data.tobytes(), self.u.data.tobytes(),
               self.b.data.tobytes())
        entry = kept.get(self)
        if entry is None:
            result = gru_found(self, *map(_array, key[:3]))
            result[0].flags.writeable = False
            kept[self] = key, result
            return result
        return entry[1] if entry[0] == key else gru_found(self, x, batch_sizes, table)

    def pipe_forward(self: Pipeline, texts, external_boundary=None):
        if external_boundary is not None:
            return pipe_found(self, texts, external_boundary)
        texts = (texts,) if isinstance(texts, str) else tuple(texts)
        data, entry = self.params.group.data, kept.get(self)
        if entry is None:
            result = pipe_found(self, texts)
            _read_only(result)
            places = _reads(self, result[1])
            kept[self] = texts, places, data.take(places).tobytes(), result
            return result
        if entry[0] == texts and data.take(entry[1]).tobytes() == entry[2]:
            return entry[3]
        return pipe_found(self, texts)

    gru_forward.reuse = True
    GRULayer.forward, Pipeline.forward = gru_forward, pipe_forward
    try:
        yield
    finally:
        GRULayer.forward, Pipeline.forward = gru_found, pipe_found


def _bits(a) -> Optional[tuple[str, tuple[int, ...], bytes]]:
    """(dtype, shape, a private copy of the bytes) of an array, or None."""
    if a is None:
        return None
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _array(bits: Optional[tuple[str, tuple[int, ...], bytes]]) -> Optional[np.ndarray]:
    """The read-only array over the bytes that _bits copied, or None."""
    if bits is None:
        return None
    dtype, shape, data = bits
    return np.frombuffer(data, dtype).reshape(shape)


def _reads(pipe: Pipeline, cache: ForwardCache) -> np.ndarray:
    """The places in pipe's flat parameter buffer that a forward of cache's texts reads: the rows of
    the tables it looks up, then every tensor after the tables, whole.

    The group lays its tensors out in order, so subchar_emb's table comes first
    and subword_emb's second.
    """
    p = pipe.params
    rows = [np.zeros(0, dtype=np.int64)]
    if cache.tokens is not None:
        rows.append(cache.tokens)
    if cache.cls:
        rows.append([pipe.tokenizer.vocab.cls_id])
    if cache.subword_ids is not None:
        rows.append(cache.subword_ids + p.subchar_emb.vocab_size)
    rows, _ = distinct_ids(np.concatenate(rows))
    d, tables = pipe.config.dim, p.subchar_emb.table.data.size + p.subword_emb.table.data.size
    return np.concatenate([(rows[:, None] * d + np.arange(d)).ravel(), np.arange(tables, p.group.data.size)])


def _read_only(obj: object) -> None:
    """Marks every array that obj holds read-only: obj itself, and the arrays in its tuples, lists
    and dataclass fields, at any depth."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _read_only(item)
    elif is_dataclass(obj):
        for item in vars(obj).values():
            _read_only(item)
