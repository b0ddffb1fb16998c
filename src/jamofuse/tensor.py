"""Parameter tensors and the named groups that hold them.

There is no autograd graph. A `Tensor` is a float64 array with a same-shape
grad array; the layers compute analytic gradients by hand and accumulate them
there. A `ParamGroup` names a model's tensors in a stable order for the
optimizer, checkpoints and gradient checks, and `flatten` makes every tensor's
data and grad a view into one flat vector each, as cuDNN's
`flatten_parameters()` does for RNN weights.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    """Row-major float64 array with a same-shape gradient accumulator.

    A tensor either owns its arrays or is a view of a region of an owner
    tensor (`view`), as a GRU gate's columns are of its stacked block.
    `ParamGroup.flatten` moves owners into a flat buffer and views follow, so
    write into `data` in place (`data[...] = values`) rather than rebinding it.
    """

    __slots__ = ("data", "grad", "owner", "index")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.grad = np.zeros(self.data.shape)  # zeroed lazily: untouched pages cost no memory
        self.owner: Optional[Tensor] = None  # for a view: the tensor it views, at self.index
        self.index = ...

    def view(self, index) -> "Tensor":
        """A tensor over data[index] and grad[index] of this owner, sharing their memory."""
        view = Tensor.__new__(Tensor)
        view.owner, view.index = self, index
        view.data, view.grad = self.data[index], self.grad[index]
        return view

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ShapeError(f"grad shape {grad.shape} does not match tensor shape {self.data.shape}")
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _memory(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    return a if a.base is None else a.base


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], the default for all parameters."""
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


class ParamGroup:
    """Named parameter tensors with stable insertion-ordered iteration."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.data: Optional[np.ndarray] = None  # the flat buffers, once flatten() has run
        self.grad: Optional[np.ndarray] = None

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

    def zero_grads(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)
            return
        for t in self._params.values():
            t.zero_grad()

    def flatten(self) -> None:
        """Moves every tensor into one flat data vector and one flat, zeroed grad vector.

        Owners are laid out in order of first appearance, each as its own
        row-major block, and views are re-taken from their moved owners.
        Flatten a model once, when it is built: a tensor lives in the buffer
        of the last group flattened over it.
        """
        owners = list(dict.fromkeys(t.owner or t for t in self._params.values()))
        self.data = np.concatenate([o.data.ravel() for o in owners])
        self.grad = np.zeros(self.data.size)
        start = 0
        for o in owners:
            stop = start + o.data.size
            o.data = self.data[start:stop].reshape(o.data.shape)
            o.grad = self.grad[start:stop].reshape(o.grad.shape)
            start = stop
        for t in self._params.values():
            if t.owner is not None:
                t.data, t.grad = t.owner.data[t.index], t.owner.grad[t.index]

    def runs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """1-D (data, grad) views that together hold exactly this group's elements.

        Each run is a maximal contiguous stretch of one buffer, so the
        group's tensors of a flattened model that sit side by side form one
        run, and a tensor left out of the group cuts the buffer around it. A
        tensor's grad sits at the same place in its buffer as its data.
        """
        buffers: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}  # data, grad, mask
        for t in self._params.values():
            owner = t.owner or t
            memory = _memory(owner.data)
            if id(memory) not in buffers:
                buffers[id(memory)] = (memory.reshape(-1), _memory(owner.grad).reshape(-1), np.zeros(memory.size, bool))
            mask = buffers[id(memory)][2]
            start = (owner.data.ctypes.data - memory.ctypes.data) // memory.itemsize
            mask[start : start + owner.data.size].reshape(owner.shape)[t.index] = True
        runs = []
        for data, grad, mask in buffers.values():
            edges = np.flatnonzero(np.diff(mask, prepend=False, append=False)).reshape(-1, 2)
            runs += [(data[a:b], grad[a:b]) for a, b in edges.tolist()]
        return runs

    def merge(self, prefix: str, other: "ParamGroup") -> None:
        for name, tensor in other.items():
            self.add(f"{prefix}.{name}", tensor)
