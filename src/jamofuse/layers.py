"""Network building blocks with hand-written backward passes.

Every layer owns a ParamGroup, keeps forward state in an explicit cache
returned to the caller, and implements backward(grad_out, cache) -> grad_in,
accumulating parameter gradients as a side effect. Caches never live on the
layer itself, so interleaved forwards (e.g. both words of a training pair)
stay independent.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .tensor import ParamGroup, ShapeError, Tensor, uniform_init


class Embedding:
    """Lookup table (vocab_size, dim); ids in, rows out."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator, trainable: bool = True):
        self.vocab_size = vocab_size
        self.dim = dim
        self.params = ParamGroup()
        self.table = self.params.add(
            "table", Tensor(uniform_init(rng, (vocab_size, dim), dim), trainable=trainable)
        )

    def forward(self, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(ids, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.vocab_size):
            raise ShapeError(f"embedding ids out of range for table {self.table.shape}")
        return self.table.data[idx], idx

    def backward(self, grad_out: np.ndarray, cache: np.ndarray) -> None:
        full = np.zeros_like(self.table.data)
        np.add.at(full, cache, grad_out)
        self.table.accumulate(full)


class Linear:
    """y = x @ w + b."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.params = ParamGroup()
        self.w = self.params.add("w", Tensor(uniform_init(rng, (d_in, d_out), d_in), trainable=True))
        self.b = self.params.add("b", Tensor(uniform_init(rng, (d_out,), d_in), trainable=True))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if x.shape[-1] != self.w.shape[0]:
            raise ShapeError(f"linear input {x.shape} does not match weight {self.w.shape}")
        return x @ self.w.data + self.b.data, x

    def backward(self, grad_out: np.ndarray, cache: np.ndarray) -> np.ndarray:
        x = cache
        self.w.accumulate(x.T @ grad_out)
        self.b.accumulate(grad_out.sum(axis=0))
        return grad_out @ self.w.data.T


class GRUCache(NamedTuple):
    x: np.ndarray  # (T, D)
    h_prev: np.ndarray  # (T, D), state before each step
    z: np.ndarray
    r: np.ndarray
    n: np.ndarray
    rh: np.ndarray  # r * h_prev


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class GRULayer:
    """Single unidirectional gated recurrent unit layer, hidden size = input size.

    Step equations, with row-vector states and input-to-output weight layout:

        z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
        r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
        n_t = tanh(x_t W_n + (r_t * h_{t-1}) U_n + b_n)
        h_t = (1 - z_t) * n_t + z_t * h_{t-1}

    Only the recurrent products stay in the time loop (Appleyard et al.,
    arXiv:1604.01946). Forward projects the whole input sequence once,
    x [W_z|W_r|W_n] + [b_z|b_r|b_n], and each step does h [U_z|U_r] and
    (r * h) U_n. Backward carries dh through dn U_n^T and [dz|dr] [U_z|U_r]^T
    per step, collects the pre-activation gradients [dz|dr|dn] of all steps
    in one (T, 3d) array g, and forms every weight and bias gradient and
    grad_x from g as whole-sequence matmuls and column sums after the loop.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.params = ParamGroup()
        for gate in ("z", "r", "n"):
            self.params.add(f"w_{gate}", Tensor(uniform_init(rng, (dim, dim), dim), trainable=True))
            self.params.add(f"u_{gate}", Tensor(uniform_init(rng, (dim, dim), dim), trainable=True))
            self.params.add(f"b_{gate}", Tensor(uniform_init(rng, (dim,), dim), trainable=True))

    def _stacked(self, kind: str, gates: str) -> np.ndarray:
        # Built on every call, never cached: gradient checks perturb the parameters in place.
        return np.concatenate([self.params[f"{kind}_{g}"].data for g in gates], axis=-1)

    def forward(self, x: np.ndarray, h0: Optional[np.ndarray] = None) -> tuple[np.ndarray, GRUCache]:
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"gru input {x.shape} does not match hidden size {self.dim}")
        if x.shape[0] < 1:
            raise ShapeError("gru needs at least one step")
        d = self.dim
        h = np.zeros(d) if h0 is None else np.asarray(h0, dtype=np.float64)
        if h.shape != (d,):
            raise ShapeError(f"gru initial state {h.shape} does not match hidden size {d}")
        u_zr, u_n = self._stacked("u", "zr"), self.params["u_n"].data

        T = x.shape[0]
        x_proj = x @ self._stacked("w", "zrn") + self._stacked("b", "zrn")
        x_zr, x_n = x_proj[:, : 2 * d], x_proj[:, 2 * d :]
        zr = np.empty((T, 2 * d))
        ns = np.empty((T, d))
        hs = np.empty((T + 1, d))
        hs[0] = h
        for t in range(T):
            gates = _sigmoid(x_zr[t] + h @ u_zr)
            z = gates[:d]
            n = np.tanh(x_n[t] + (gates[d:] * h) @ u_n)
            h = (1.0 - z) * n + z * h
            zr[t], ns[t], hs[t + 1] = gates, n, h
        h_prev, rs = hs[:-1], zr[:, d:]
        return hs[1:], GRUCache(x, h_prev, zr[:, :d], rs, ns, rs * h_prev)

    def backward(self, grad_hs: np.ndarray, cache: GRUCache) -> tuple[np.ndarray, np.ndarray]:
        """Returns (grad_x, grad_h0) for upstream gradients on every state."""
        p = self.params
        d = self.dim
        x, h_prev, zs, rs, ns, rhs = cache
        u_n_t, u_zr_t = p["u_n"].data.T, self._stacked("u", "zr").T

        # dz_pre = dh * fz, dn_pre = dh * fn, dr_pre = (dn_pre U_n^T) * fr
        fz = (h_prev - ns) * zs * (1.0 - zs)
        fn = (1.0 - zs) * (1.0 - ns * ns)
        fr = h_prev * rs * (1.0 - rs)
        T = x.shape[0]
        g = np.empty((T, 3 * d))
        g_zr, g_z, g_r, g_n = g[:, : 2 * d], g[:, :d], g[:, d : 2 * d], g[:, 2 * d :]
        carry = np.zeros(d)
        for t in range(T - 1, -1, -1):
            dh = grad_hs[t] + carry
            dn_pre = dh * fn[t]
            d_rh = dn_pre @ u_n_t
            g_z[t] = dh * fz[t]
            g_r[t] = d_rh * fr[t]
            g_n[t] = dn_pre
            carry = dh * zs[t] + d_rh * rs[t] + g_zr[t] @ u_zr_t

        grad_w, grad_b = x.T @ g, g.sum(axis=0)
        grad_u = np.concatenate([h_prev.T @ g_zr, rhs.T @ g_n], axis=1)
        for k, gate in enumerate("zrn"):
            cols = slice(k * d, (k + 1) * d)
            p[f"w_{gate}"].accumulate(grad_w[:, cols])
            p[f"u_{gate}"].accumulate(grad_u[:, cols])
            p[f"b_{gate}"].accumulate(grad_b[cols])
        return g @ self._stacked("w", "zrn").T, carry


class Conv2x1:
    """Height-2, width-1 convolution collapsing (2, L, D) to (1, L, D)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.params = ParamGroup()
        self.kernel = self.params.add(
            "kernel", Tensor(uniform_init(rng, (2, dim, dim), 2 * dim), trainable=True)
        )
        self.bias = self.params.add(
            "bias", Tensor(uniform_init(rng, (dim,), 2 * dim), trainable=True)
        )

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if x.ndim != 3 or x.shape[0] != 2 or x.shape[2] != self.dim:
            raise ShapeError(f"conv_2x1 needs (2, L, {self.dim}), got {x.shape}")
        k = self.kernel.data
        out = x[0] @ k[0] + x[1] @ k[1] + self.bias.data
        return out[None, :, :], x

    def backward(self, grad_out: np.ndarray, cache: np.ndarray) -> np.ndarray:
        x, g = cache, grad_out[0]
        k = self.kernel.data
        self.kernel.accumulate(np.stack([x[0].T @ g, x[1].T @ g]))
        self.bias.accumulate(g.sum(axis=0))
        return np.stack([g @ k[0].T, g @ k[1].T])


class AttnCache(NamedTuple):
    q_in: np.ndarray
    kv: np.ndarray
    q: np.ndarray  # (H, N, dh)
    k: np.ndarray  # (H, M, dh)
    v: np.ndarray  # (H, M, dh)
    attn: np.ndarray  # (H, N, M)
    ctx: np.ndarray  # (N, D)


class CrossAttention:
    """Scaled dot-product attention with learned Q/K/V/output projections.

    Queries come from one sequence, keys and values from another. The plain
    form has no residual path; pass residual=True to add q_in to the output.
    """

    def __init__(self, dim: int, rng: np.random.Generator, heads: int = 1, residual: bool = False):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} is not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.residual = residual
        self.params = ParamGroup()
        for name in ("q", "k", "v", "o"):
            self.params.add(f"w_{name}", Tensor(uniform_init(rng, (dim, dim), dim), trainable=True))
            self.params.add(f"b_{name}", Tensor(uniform_init(rng, (dim,), dim), trainable=True))

    def _split(self, x: np.ndarray) -> np.ndarray:
        n, d = x.shape
        return x.reshape(n, self.heads, d // self.heads).transpose(1, 0, 2)

    def _join(self, x: np.ndarray) -> np.ndarray:
        h, n, dh = x.shape
        return x.transpose(1, 0, 2).reshape(n, h * dh)

    def forward(self, q_in: np.ndarray, kv: np.ndarray) -> tuple[np.ndarray, AttnCache]:
        if q_in.ndim != 2 or kv.ndim != 2 or q_in.shape[1] != self.dim or kv.shape[1] != self.dim:
            raise ShapeError(f"cross_attention needs (*, {self.dim}) inputs, got {q_in.shape} and {kv.shape}")
        p = self.params
        q = self._split(q_in @ p["w_q"].data + p["b_q"].data)
        k = self._split(kv @ p["w_k"].data + p["b_k"].data)
        v = self._split(kv @ p["w_v"].data + p["b_v"].data)
        scale = 1.0 / np.sqrt(self.dim / self.heads)
        logits = (q @ k.transpose(0, 2, 1)) * scale
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = self._join(attn @ v)
        out = ctx @ p["w_o"].data + p["b_o"].data
        if self.residual:
            out = out + q_in
        return out, AttnCache(q_in, kv, q, k, v, attn, ctx)

    def backward(self, grad_out: np.ndarray, cache: AttnCache) -> tuple[np.ndarray, np.ndarray]:
        """Returns (grad_q_in, grad_kv)."""
        p = self.params
        q_in, kv, q, k, v, attn, ctx = cache
        scale = 1.0 / np.sqrt(self.dim / self.heads)

        p["w_o"].accumulate(ctx.T @ grad_out)
        p["b_o"].accumulate(grad_out.sum(axis=0))
        d_ctx = self._split(grad_out @ p["w_o"].data.T)

        d_attn = d_ctx @ v.transpose(0, 2, 1)
        d_v = attn.transpose(0, 2, 1) @ d_ctx
        inner = (d_attn * attn).sum(axis=-1, keepdims=True)
        d_logits = attn * (d_attn - inner) * scale
        d_q = d_logits @ k
        d_k = d_logits.transpose(0, 2, 1) @ q

        d_q_flat, d_k_flat, d_v_flat = self._join(d_q), self._join(d_k), self._join(d_v)
        p["w_q"].accumulate(q_in.T @ d_q_flat)
        p["b_q"].accumulate(d_q_flat.sum(axis=0))
        p["w_k"].accumulate(kv.T @ d_k_flat)
        p["b_k"].accumulate(d_k_flat.sum(axis=0))
        p["w_v"].accumulate(kv.T @ d_v_flat)
        p["b_v"].accumulate(d_v_flat.sum(axis=0))

        grad_q_in = d_q_flat @ p["w_q"].data.T
        grad_kv = d_k_flat @ p["w_k"].data.T + d_v_flat @ p["w_v"].data.T
        if self.residual:
            grad_q_in = grad_q_in + grad_out
        return grad_q_in, grad_kv
