"""Parameter tensors and the named groups that hold them.

There is no autograd graph. A `Tensor` is a float64 array with a grad slot;
the layers compute analytic gradients by hand and accumulate them there. A
`ParamGroup` names a model's tensors in a stable order for the optimizer,
checkpoints and gradient checks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ShapeError(ValueError):
    pass


class ConfigError(ValueError):
    pass


class Tensor:
    """Row-major float64 array with an optional same-shape grad accumulator."""

    __slots__ = ("data", "grad", "trainable")

    def __init__(self, data, trainable: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.trainable = trainable

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ShapeError(f"grad shape {grad.shape} does not match tensor shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, trainable={self.trainable})"


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], the default for all parameters."""
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


class ParamGroup:
    """Named parameter tensors with stable insertion-ordered iteration."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def names(self) -> list[str]:
        return list(self._params)

    def trainable_items(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._params.items() if t.trainable]

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def merge(self, prefix: str, other: "ParamGroup") -> None:
        for name, tensor in other.items():
            self.add(f"{prefix}.{name}", tensor)
