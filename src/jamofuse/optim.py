"""AdamW with decoupled weight decay, plus a cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ParamGroup, ShapeError


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


class AdamW:
    """Standard first/second-moment update; decay is applied to the weights
    directly, never through the moments."""

    def __init__(self, params: ParamGroup, config: AdamConfig = AdamConfig()):
        self.params = params
        self.config = config
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in params.trainable_items()}
        self._v = {name: np.zeros_like(t.data) for name, t in params.trainable_items()}

    def step(self, lr: float | None = None) -> None:
        c = self.config
        lr = c.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        for name, tensor in self.params.trainable_items():
            grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            if grad.shape != tensor.data.shape:
                raise ShapeError(f"grad shape {grad.shape} does not match param {name} {tensor.data.shape}")
            m = self._m[name]
            v = self._v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * grad
            v *= c.beta2
            v += (1.0 - c.beta2) * grad * grad
            m_hat = m / (1.0 - c.beta1**t)
            v_hat = v / (1.0 - c.beta2**t)
            tensor.data -= lr * m_hat / (np.sqrt(v_hat) + c.eps)
            if c.weight_decay:
                tensor.data -= lr * c.weight_decay * tensor.data


def cosine_lr(step: int, total_steps: int, base_lr: float, min_lr: float = 0.0) -> float:
    """Cosine decay from base_lr at step 0 to min_lr at total_steps."""
    if total_steps <= 0:
        return base_lr
    frac = min(max(step / total_steps, 0.0), 1.0)
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * frac))
