"""AdamW with decoupled weight decay, plus a cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import ParamGroup

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Standard first/second-moment update; decay is applied to the weights
    directly, never through the moments.

    The moment decay rates and epsilon are the usual constants; the weight
    decay is set per optimizer and the learning rate per step. Every tensor
    of params is updated and no other: to freeze a tensor, leave it out of
    the group. The moments are two flat vectors over the group's runs
    (`ParamGroup.runs`), found once here. Each step updates every run with
    whole-vector operations, one pass per run rather than per tensor, as
    Apex's fused multi-tensor Adam does.
    """

    def __init__(self, params: ParamGroup, weight_decay: float = 0.0):
        self.params = params
        self.weight_decay = weight_decay
        self.step_count = 0
        self.runs = params.runs()
        bounds = np.cumsum([0] + [data.size for data, _ in self.runs]).tolist()
        self.m, self.v = np.zeros(bounds[-1]), np.zeros(bounds[-1])
        self._state = [
            (data, grad, self.m[a:b], self.v[a:b])
            for (data, grad), a, b in zip(self.runs, bounds, bounds[1:])
        ]

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        for data, grad, m, v in self._state:
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            data -= lr * m_hat / (np.sqrt(v_hat) + EPS)
            if self.weight_decay:
                data -= lr * self.weight_decay * data


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from base_lr at step 0 to 0 at total_steps."""
    if total_steps <= 0:
        return base_lr
    frac = min(max(step / total_steps, 0.0), 1.0)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * frac))
