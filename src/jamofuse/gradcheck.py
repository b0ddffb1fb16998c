"""Finite-difference gradient oracle.

Compares analytic gradients against central differences coordinate by
coordinate. The relative error for one coordinate is
|analytic - numeric| / max(|analytic|, |numeric|, 1), so tiny gradients are
compared on an absolute scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Union

import numpy as np

from .tensor import ParamGroup, Tensor

if TYPE_CHECKING:
    from .pipeline import Pipeline

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
    are perturbed in place and restored exactly.

    For a loss over Pipeline.forward, the Pipeline memo serves the coordinates
    in table rows the text never reads only when the caller ran that forward
    before this check: the memo keeps the first repeat of the texts, which is
    then the unperturbed call. Without that forward it keeps the first perturbed
    call, and under stroke, cji and bts every later call computes.
    check_pipeline runs that forward itself.
    """
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
    direction is a normal draw from seed the shape of text's output rows.

    The forward that sizes the direction runs before the check, so the check's
    unperturbed call is the first repeat of text, which Pipeline.forward's memo
    keeps and then serves for every coordinate in a table row text never
    reads. Without it the memo would keep the first perturbed call instead.
    """
    out, _ = pipe.forward(text)
    direction = np.random.default_rng(seed).normal(size=out.shape)

    def loss_fn(with_grad: bool) -> float:
        out, cache = pipe.forward(text)
        if with_grad:
            pipe.backward(direction, cache)
        return float((direction * out).sum())

    return grad_check(loss_fn, pipe.params.group)
