"""AdamW with decoupled weight decay, plus a cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ParamGroup


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


class AdamW:
    """Standard first/second-moment update; decay is applied to the weights
    directly, never through the moments.

    Every tensor of params is updated and no other: to freeze a tensor,
    leave it out of the group. The moments are two flat vectors over the
    group's runs (`ParamGroup.runs`), found once here. Each step updates
    every run with whole-vector operations, one pass per run rather than per
    tensor, as Apex's fused multi-tensor Adam does.
    """

    def __init__(self, params: ParamGroup, config: AdamConfig = AdamConfig()):
        self.params = params
        self.config = config
        self.step_count = 0
        self.runs = params.runs()
        bounds = np.cumsum([0] + [data.size for data, _ in self.runs]).tolist()
        self.m, self.v = np.zeros(bounds[-1]), np.zeros(bounds[-1])
        self._state = [
            (data, grad, self.m[a:b], self.v[a:b])
            for (data, grad), a, b in zip(self.runs, bounds, bounds[1:])
        ]

    def step(self, lr: float | None = None) -> None:
        c = self.config
        lr = c.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        for data, grad, m, v in self._state:
            m *= c.beta1
            m += (1.0 - c.beta1) * grad
            v *= c.beta2
            v += (1.0 - c.beta2) * grad * grad
            m_hat = m / (1.0 - c.beta1**t)
            v_hat = v / (1.0 - c.beta2**t)
            data -= lr * m_hat / (np.sqrt(v_hat) + c.eps)
            if c.weight_decay:
                data -= lr * c.weight_decay * data


def cosine_lr(step: int, total_steps: int, base_lr: float, min_lr: float = 0.0) -> float:
    """Cosine decay from base_lr at step 0 to min_lr at total_steps."""
    if total_steps <= 0:
        return base_lr
    frac = min(max(step / total_steps, 0.0), 1.0)
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * frac))
