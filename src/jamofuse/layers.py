"""Network building blocks with hand-written backward passes.

Every layer owns a ParamGroup, keeps forward state in an explicit cache
returned to the caller, and implements backward(grad_out, cache) -> grad_in,
accumulating parameter gradients as a side effect. Backward reads a cache and
never changes it, so interleaved forwards (e.g. both words of a training
pair) stay independent. The one cache a layer keeps itself is the GRU's memo
of its last call, which it hands out again only for a call with the same
input and weight bits; its arrays are read-only. Pipeline.forward keeps a
memo of a whole forward on the same contract (see there), and these layers
run only for the calls it does not serve.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .tensor import ParamGroup, ShapeError, Tensor, uniform_init


class Embedding:
    """Lookup table (vocab_size, dim); ids in, rows out."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.dim = dim
        self.params = ParamGroup()
        self.table = self.params.add("table", Tensor(uniform_init(rng, (vocab_size, dim), dim)))

    def forward(self, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(ids, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.vocab_size):
            raise ShapeError(f"embedding ids out of range for table {self.table.shape}")
        return self.table.data[idx], idx

    def backward(self, grad_out: np.ndarray, cache: np.ndarray) -> None:
        # Row-sparse: sum each used row's gradients from zero in lookup order, in one
        # bincount (scatter_add), then add the sums to the table's rows: the same
        # additions in the same order as a whole-table scatter.
        used, place = distinct_ids(cache)
        self.table.grad[used] += scatter_add(place, grad_out, used.size)


def scatter_add(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """The (n, d) sums out[index[i]] += rows[i], each summed from zero in row order.

    np.bincount adds its weights in array order, so over the bins index * d + column
    it makes the same additions in the same order as numpy's unbuffered add into a
    zeroed array (the `at` method of np.add), bit for bit, in one call.
    """
    d = rows.shape[1]
    bins = (np.asarray(index, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def distinct_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct ids ascending, each id's place among them); bincount, as np.unique would sort."""
    counts = np.bincount(ids)
    used = np.flatnonzero(counts)
    place = np.empty(counts.size, dtype=np.int64)
    place[used] = np.arange(used.size)
    return used, place[ids]


class Linear:
    """y = x @ w + b."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.params = ParamGroup()
        self.w = self.params.add("w", Tensor(uniform_init(rng, (d_in, d_out), d_in)))
        self.b = self.params.add("b", Tensor(uniform_init(rng, (d_out,), d_in)))

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
    x: np.ndarray  # (rows, d) packed inputs, or (rows,) ids into table
    hs: np.ndarray  # (rows, d) packed states, the forward output
    batch_sizes: Optional[np.ndarray]  # (T,) sequences still running at each step; None for one sequence
    table: Optional[np.ndarray]  # (n, d) input rows that x indexes; None when x holds the rows


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), written over x."""
    return np.divide(1.0, np.add(np.exp(np.negative(x, x), x), 1.0, x), x)


# Input projections x W + b are formed for runs of whole steps of at most this
# many packed rows, so a large batch never holds a (rows, 3d) projection.
PROJECTION_ROWS = 128


def _offsets(batch_sizes: Optional[np.ndarray], rows: int) -> list[int]:
    """The packed row each step starts at, then the end row."""
    if batch_sizes is None:
        return list(range(rows + 1))
    return [0, *accumulate(np.asarray(batch_sizes).tolist())]


def _step_blocks(offsets: list[int]) -> list[tuple[int, int]]:
    """Consecutive step ranges [t0, t1) of at most PROJECTION_ROWS rows each (one step at least)."""
    steps = len(offsets) - 1
    if offsets[-1] <= PROJECTION_ROWS:
        return [(0, steps)]
    blocks, t0 = [], 0
    while t0 < steps:
        t1 = max(bisect_right(offsets, offsets[t0] + PROJECTION_ROWS) - 1, t0 + 1)
        blocks.append((t0, t1))
        t0 = t1
    return blocks


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


class GRULayer:
    """Single unidirectional gated recurrent unit layer, hidden size = input size.

    Step equations, with row-vector states and input-to-output weight layout:

        z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
        r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
        n_t = tanh(x_t W_n + (r_t * h_{t-1}) U_n + b_n)
        h_t = (1 - z_t) * n_t + z_t * h_{t-1},  h_{-1} = 0

    The parameters are three blocks, W = [W_z|W_r|W_n] and U = [U_z|U_r|U_n]
    of shape (d, 3d) and b = [b_z|b_r|b_n] of shape (3d,), and each named gate
    tensor (w_z, u_r, b_n, ...) is a column view of its block, so an in-place
    change to a gate shows in the block. The gradients have the same layout.

    Input is a batch of sequences packed as PyTorch's pack_padded_sequence
    does: sorted longest first, time-major, so the rows of step t are the
    first batch_sizes[t] sequences and no row is padding. A plain (T, d)
    sequence is the batch of one (batch_sizes all 1). The input rows are x
    itself, or, given a table of shape (n, d), x is a (rows,) int array and
    input row r is table[x[r]]; then table W + b is formed once, (n, 3d), and
    each row's projection is gathered from it.

    Only the recurrent products stay in the time loop (Appleyard et al.,
    arXiv:1604.01946): each step does h U[:, :2d] and (r * h) U[:, 2d:] on the
    running rows, in reused buffers, and writes its state straight into the
    output; x W + b is formed (or gathered) for runs of steps at once, its
    z and r columns negated, so that exp(-(h U_zr + p_zr)) needs no negation
    per step. The cache keeps only x, the table and the states. Both time
    loops cut their views of the step buffers to the running rows again only
    when that count changes, and call numpy through local names, so a step
    pays for little but its ufunc calls.

    Backward knows every previous state from the forward, so it runs in
    phases. It gathers the previous states h_{t-1} of all rows from the
    cache at once, then recomputes the gates: one step loop forms h_{t-1}
    U[:, :2d] and a second (r * h_{t-1}) U[:, 2d:], each with the forward's
    per-step operand shapes, and the projections, sigmoid, tanh and the
    elementwise factors of the pre-activation gradients run on all rows at
    once, in place and in the forward's order of operations, so it sees the
    forward's values bit for bit. The reverse loop is
    left with the carry recurrence only: for the running rows it writes the
    pre-activation gradients [dz|dr|dn] into one (rows, 3d) array g and
    carries dh through dn U_n^T and [dz|dr] [U_z|U_r]^T, in reused
    buffers. The block gradients and the (rows, d) input gradient are
    whole-batch matmuls and column sums of g after the loop.

    The layer keeps one memo: private byte copies of the last call's x,
    batch_sizes and table and of W, U and b, with that call's (hs, cache).
    A call whose inputs and weights hold the same bytes gets that pair back;
    bytes, not values, since -0.0 == 0.0 and NaN != NaN. Any other call
    computes and replaces the entry, and only a call that succeeds is kept.
    A gradient check perturbs one coordinate at a time, so many of its calls
    repeat the last one: every coordinate of the layers after this one and
    of the inputs it does not read, such as the subword table
    (Pipeline.forward's memo serves the table rows no layer reads before
    they get here). The cache holds read-only arrays over the copies, and
    hs is read-only, so neither the caller nor backward can change what a
    later call gets.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.params = ParamGroup()
        self.w = Tensor(np.empty((dim, 3 * dim)))
        self.u = Tensor(np.empty((dim, 3 * dim)))
        self.b = Tensor(np.empty(3 * dim))
        for k, gate in enumerate("zrn"):
            cols = slice(k * dim, (k + 1) * dim)
            for name, block in (("w", self.w), ("u", self.u)):
                block.data[:, cols] = uniform_init(rng, (dim, dim), dim)
                self.params.add(f"{name}_{gate}", block.view((slice(None), cols)))
            self.b.data[cols] = uniform_init(rng, (dim,), dim)
            self.params.add(f"b_{gate}", self.b.view(cols))
        self._last: Optional[tuple[tuple, tuple[np.ndarray, GRUCache]]] = None  # (key, result) of the last call

    def _project(self, x: np.ndarray, table_proj: Optional[np.ndarray], buf: Optional[np.ndarray]) -> np.ndarray:
        """x W + b of a block of rows, written into the first rows of buf when one is given.

        With table_proj (table W + b), x holds ids and the rows are gathered from it.
        """
        out = None if buf is None else buf[: x.shape[0]]
        if table_proj is not None:
            return np.take(table_proj, x, axis=0, out=out, mode="clip")  # ids checked by forward
        proj = np.matmul(x, self.w.data, out=out)
        proj += self.b.data
        return proj

    def forward(
        self, x: np.ndarray, batch_sizes: Optional[np.ndarray] = None, table: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, GRUCache]:
        key = (_bits(x), _bits(batch_sizes), _bits(table), self.w.data.tobytes(), self.u.data.tobytes(),
               self.b.data.tobytes())
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        self._last = None
        result = self._forward(*map(_array, key[:3]))
        self._last = key, result
        return result

    def _forward(
        self, x: np.ndarray, batch_sizes: Optional[np.ndarray], table: Optional[np.ndarray]
    ) -> tuple[np.ndarray, GRUCache]:
        d = self.dim
        if table is None:
            if x.ndim != 2 or x.shape[1] != d:
                raise ShapeError(f"gru input {x.shape} does not match hidden size {d}")
        elif x.ndim != 1 or table.ndim != 2 or table.shape[1] != d:
            raise ShapeError(f"gru ids {x.shape} into table {table.shape} do not match hidden size {d}")
        if x.shape[0] < 1:
            raise ShapeError("gru needs at least one step")
        if table is not None and (x.min() < 0 or x.max() >= table.shape[0]):
            raise ShapeError(f"gru ids out of range for table {table.shape}")
        offsets = _offsets(batch_sizes, x.shape[0])
        if offsets[-1] != x.shape[0]:
            raise ShapeError(f"batch sizes cover {offsets[-1]} rows, input has {x.shape[0]}")
        u = self.u.data
        # [z|r] = 1 / (1 + exp(-(h U_zr + p_zr))) is formed from -U_zr and -p_zr:
        # h (-U) + (-p) is -(h U + p) bit for bit, as IEEE negation is exact
        neg_u_zr, u_n = -u[:, : 2 * d], u[:, 2 * d :]
        if table is not None:
            table_proj = self._project(table, None, None)
            neg_table_zr, table_n = -table_proj[:, : 2 * d], np.ascontiguousarray(table_proj[:, 2 * d :])

        hs = np.empty((x.shape[0], d))
        rows = offsets[1]
        # step buffers, cut to the running rows as sequences end; the ones stand in for
        # the scalar 1.0, which numpy converts on every call
        h, ones = np.zeros((rows, d)), np.ones((rows, 2 * d))
        gates, n, tmp = np.empty((rows, 2 * d)), np.empty((rows, d)), np.empty((rows, d))
        z, r, ones_d = gates[:, :d], gates[:, d:], ones[:, :d]
        blocks = _step_blocks(offsets)
        # a block's projections, in buffers that serve every block: -p_zr and p_n as
        # columns of x W + b, or each gathered from the table into a buffer of its own
        block_rows = x.shape[0] if len(blocks) == 1 else max(PROJECTION_ROWS, rows)
        if table is None:
            buf = None if len(blocks) == 1 else np.empty((block_rows, 3 * d))
        else:
            zr_buf, n_buf = np.empty((block_rows, 2 * d)), np.empty((block_rows, d))
        matmul, add, multiply, subtract, divide, exp, tanh = (
            np.matmul, np.add, np.multiply, np.subtract, np.divide, np.exp, np.tanh)
        for t0, t1 in blocks:
            base = offsets[t0]
            xb = x[base : offsets[t1]]
            if table is None:
                proj = self._project(xb, None, buf)
                neg_p_zr, p_n = np.negative(proj[:, : 2 * d], proj[:, : 2 * d]), proj[:, 2 * d :]
            else:  # ids checked above
                neg_p_zr = np.take(neg_table_zr, xb, axis=0, out=zr_buf[: xb.shape[0]], mode="clip")
                p_n = np.take(table_n, xb, axis=0, out=n_buf[: xb.shape[0]], mode="clip")
            for a, c in zip(offsets[t0:t1], offsets[t0 + 1 : t1 + 1]):
                if c - a != rows:
                    rows = c - a
                    h, ones, gates, n, tmp = h[:rows], ones[:rows], gates[:rows], n[:rows], tmp[:rows]
                    z, r, ones_d = gates[:, :d], gates[:, d:], ones[:, :d]
                # backward's operations, done in place (IEEE addition commutes, so h U + p
                # is p + h U): the values are bitwise those backward recomputes
                matmul(h, neg_u_zr, gates)
                add(gates, neg_p_zr[a - base : c - base], gates)
                exp(gates, gates)
                add(gates, ones, gates)
                divide(ones, gates, gates)
                # n = tanh((r * h) U_n + p_n)
                matmul(multiply(r, h, tmp), u_n, n)
                add(n, p_n[a - base : c - base], n)
                tanh(n, n)
                # h = (1 - z) * n + z * h, written straight into the step's output rows
                out = hs[a:c]
                multiply(subtract(ones_d, z, out), n, out)
                add(out, multiply(z, h, tmp), out)
                h = out
        hs.flags.writeable = False
        return hs, GRUCache(x, hs, batch_sizes, table)

    def backward(self, grad_hs: np.ndarray, cache: GRUCache) -> np.ndarray:
        """Returns the (rows, d) input gradient for upstream gradients on every packed state."""
        d = self.dim
        x, hs, batch_sizes, table = cache
        offsets = _offsets(batch_sizes, x.shape[0])
        spans = list(zip(offsets, offsets[1:]))  # the packed rows [a, c) of each step
        rows, first = x.shape[0], offsets[1]
        u = self.u.data
        u_zr, u_n = u[:, : 2 * d], u[:, 2 * d :]
        u_zr_t, u_n_t = u_zr.T, u_n.T
        table_proj = None if table is None else self._project(table, None, None)

        # every step's previous states: row r of step t >= 1 follows row r - batch_sizes[t - 1]
        sizes = np.ones(rows, np.int64) if batch_sizes is None else np.asarray(batch_sizes)
        h_prev = np.empty(hs.shape)
        h_prev[:first] = 0.0
        h_prev[first:] = hs[np.arange(first, rows) - np.repeat(sizes[:-1], sizes[1:])]
        # the input projections in the forward's blocks; g reuses this array in the reverse loop
        g = np.empty((rows, 3 * d))
        for t0, t1 in _step_blocks(offsets):
            self._project(x[offsets[t0] : offsets[t1]], table_proj, g[offsets[t0] :])
        g_zr, g_n = g[:, : 2 * d], g[:, 2 * d :]
        # the gates again: the forward's per-step products, then its elementwise ops on all rows
        matmul, multiply, add = np.matmul, np.multiply, np.add
        gates = np.empty((rows, 2 * d))
        for a, c in spans:
            matmul(h_prev[a:c], u_zr, gates[a:c])
        _sigmoid(add(gates, g_zr, gates))
        rh = gates[:, d:] * h_prev
        n = np.empty(hs.shape)
        for a, c in spans:
            matmul(rh[a:c], u_n, n[a:c])
        np.tanh(add(n, g_n, n), n)
        # dn_pre = dh * f_n and [dz_pre|dr_pre] = [dh|dn_pre U_n^T] * f_zr, where
        # f_n = (1 - z) * (1 - n * n) and f_zr = [(h_prev - n) * z * (1 - z) | h_prev * r * (1 - r)]
        one_minus = 1.0 - gates
        f_zr = np.concatenate([h_prev - n, h_prev], axis=1)
        f_zr *= gates
        f_zr *= one_minus
        f_n = one_minus[:, :d] * np.subtract(1.0, multiply(n, n, n), n)

        # the reverse loop runs only the carry recurrence; a sequence that ends at step t
        # gets no carry from step t + 1. The running-row views of the step buffers are
        # taken again only when the running-row count changes, as in the forward
        dh_rh, both = np.empty((first, 2 * d)), np.empty((first, 2 * d))
        carry, tmp = np.empty((first, d)), np.empty((first, d))
        k = 0
        for a, m in zip(reversed(offsets[:-1]), reversed(sizes.tolist())):
            c = a + m
            if m != k or not k:  # the last step, or more rows run from here on: the first k get a carry
                dh_rh_m, both_m, carry_m, tmp_m = dh_rh[:m], both[:m], carry[:m], tmp[:m]
                dh, d_rh, both_z, both_r = dh_rh_m[:, :d], dh_rh_m[:, d:], both_m[:, :d], both_m[:, d:]
                add(grad_hs[a : a + k], carry[:k], dh[:k])
                dh[k:] = grad_hs[a + k : c]
                k = m
            else:
                add(grad_hs[a:c], carry_m, dh)
            gn, gzr = g_n[a:c], g_zr[a:c]
            multiply(dh, f_n[a:c], gn)
            matmul(gn, u_n_t, d_rh)
            multiply(dh_rh_m, f_zr[a:c], gzr)
            # carry = dh * z + d_rh * r + [dz_pre|dr_pre] [U_z|U_r]^T
            multiply(dh_rh_m, gates[a:c], both_m)
            add(both_z, both_r, carry_m)
            add(carry_m, matmul(gzr, u_zr_t, tmp_m), carry_m)

        inputs = x if table is None else table[x]  # the gathered input rows, needed only here
        self.w.grad += inputs.T @ g
        self.u.grad[:, : 2 * d] += h_prev.T @ g_zr
        self.u.grad[:, 2 * d :] += rh.T @ g_n
        self.b.grad += g.sum(axis=0)
        return g @ self.w.data.T


class Conv2x1:
    """Height-2, width-1 convolution collapsing two (L, D) rows, stacked top over bottom, to one (L, D)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.params = ParamGroup()
        self.kernel = self.params.add("kernel", Tensor(uniform_init(rng, (2, dim, dim), 2 * dim)))
        self.bias = self.params.add("bias", Tensor(uniform_init(rng, (dim,), 2 * dim)))

    def forward(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        if a.ndim != 2 or a.shape != b.shape or a.shape[1] != self.dim:
            raise ShapeError(f"conv_2x1 needs two (L, {self.dim}) rows, got {a.shape} and {b.shape}")
        k = self.kernel.data
        return a @ k[0] + b @ k[1] + self.bias.data, (a, b)

    def backward(self, g: np.ndarray, cache: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        a, b = cache
        k = self.kernel.data
        self.kernel.accumulate(np.stack([a.T @ g, b.T @ g]))
        self.bias.accumulate(g.sum(axis=0))
        return g @ k[0].T, g @ k[1].T


class AttnCache(NamedTuple):
    q_in: np.ndarray  # (rows, D) query rows, text after text
    kv: np.ndarray  # (rows, D) key and value rows, text after text
    q: np.ndarray  # (rows, D) projected queries, in count order
    k: np.ndarray  # (rows, D) projected keys, in count order
    v: np.ndarray  # (rows, D) projected values, in count order
    attn: list[np.ndarray]  # (texts, H, U, U) attention weights of the texts of each row count U, U ascending
    ctx: np.ndarray  # (rows, D) context rows, text after text
    order: Optional[np.ndarray]  # (rows,) the rows in count order; None when that is their order


class CrossAttention:
    """Scaled dot-product attention with learned Q/K/V/output projections.

    Queries come from one sequence, keys and values from another with as many
    rows. The plain form has no residual path; pass residual=True to add q_in
    to the output.

    Given offsets, the (texts + 1) first rows of a batch of texts, each text's
    queries attend only to its own keys; without offsets the rows are one
    text. Q, K and V are projected once on all rows and gathered once in
    count order (the texts stably sorted by row count U), so the texts of each
    U are one run of rows and one unmasked (texts, H, U, U) attention; nothing
    is padded. The backward walks the same runs, and the weight gradients are
    whole-batch products.
    """

    def __init__(self, dim: int, rng: np.random.Generator, heads: int = 1, residual: bool = False):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} is not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.residual = residual
        self.params = ParamGroup()
        for name in ("q", "k", "v", "o"):
            self.params.add(f"w_{name}", Tensor(uniform_init(rng, (dim, dim), dim)))
            self.params.add(f"b_{name}", Tensor(uniform_init(rng, (dim,), dim)))

    @staticmethod
    def _groups(offsets, rows: int) -> tuple[Optional[np.ndarray], list[tuple[int, int]]]:
        """(the rows in count order, None when that is their order; the (texts, U) of each
        row count U > 0, U ascending) of a batch."""
        bounds = np.asarray(offsets)
        bounds = bounds.tolist() if bounds.ndim == 1 else []
        counts = [b - a for a, b in zip(bounds, bounds[1:])]
        if not counts or bounds[0] != 0 or bounds[-1] != rows or min(counts) < 0:
            raise ShapeError(f"offsets {np.asarray(offsets).tolist()} do not split {rows} rows into texts")
        sizes = [c for c in counts if c]
        groups = [(sizes.count(u), u) for u in sorted(set(sizes))]
        if sizes == sorted(sizes):
            return None, groups
        return np.argsort(np.repeat(counts, counts), kind="stable"), groups

    def _split(self, x: np.ndarray, texts: int) -> np.ndarray:
        """(texts * U, D) rows to a (texts, H, U, dh) view."""
        return x.reshape(texts, -1, self.heads, self.dim // self.heads).swapaxes(1, 2)

    def forward(
        self, q_in: np.ndarray, kv: np.ndarray, offsets: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, AttnCache]:
        if q_in.ndim != 2 or q_in.shape[1] != self.dim or kv.shape != q_in.shape:
            raise ShapeError(f"cross_attention needs (rows, {self.dim}) inputs with one key row per query row, "
                             f"got {q_in.shape} and {kv.shape}")
        rows = q_in.shape[0]
        order, groups = self._groups([0, rows] if offsets is None else offsets, rows)
        p = self.params
        q = q_in @ p["w_q"].data + p["b_q"].data
        k = kv @ p["w_k"].data + p["b_k"].data
        v = kv @ p["w_v"].data + p["b_v"].data
        if order is not None:
            q, k, v = q[order], k[order], v[order]
        scale = 1.0 / np.sqrt(self.dim / self.heads)
        ctx, attns, start = np.empty((rows, self.dim)), [], 0
        for texts, length in groups:
            stop = start + texts * length
            q_g, k_g, v_g = (self._split(x[start:stop], texts) for x in (q, k, v))
            attn = q_g @ k_g.swapaxes(-1, -2)  # the softmax of the scaled logits, in place
            attn *= scale
            attn -= attn.max(axis=-1, keepdims=True)
            np.exp(attn, attn)
            attn /= attn.sum(axis=-1, keepdims=True)
            np.matmul(attn, v_g, self._split(ctx[start:stop], texts))
            attns.append(attn)
            start = stop
        if order is not None:
            ctx = ctx[np.argsort(order)]
        out = ctx @ p["w_o"].data + p["b_o"].data
        if self.residual:
            out = out + q_in
        return out, AttnCache(q_in, kv, q, k, v, attns, ctx, order)

    def backward(self, grad_out: np.ndarray, cache: AttnCache) -> tuple[np.ndarray, np.ndarray]:
        """Returns (grad_q_in, grad_kv)."""
        p = self.params
        q_in, kv, q, k, v, attns, ctx, order = cache
        scale = 1.0 / np.sqrt(self.dim / self.heads)

        p["w_o"].accumulate(ctx.T @ grad_out)
        p["b_o"].accumulate(grad_out.sum(axis=0))
        d_ctx = grad_out @ p["w_o"].data.T
        if order is not None:
            d_ctx = d_ctx[order]

        d_q, d_k, d_v, start = np.empty(q.shape), np.empty(q.shape), np.empty(q.shape), 0
        for attn in attns:
            texts, _, length, _ = attn.shape
            stop = start + texts * length
            q_g, k_g, v_g, d_ctx_g = (self._split(x[start:stop], texts) for x in (q, k, v, d_ctx))
            d_logits = d_ctx_g @ v_g.swapaxes(-1, -2)
            np.matmul(attn.swapaxes(-1, -2), d_ctx_g, self._split(d_v[start:stop], texts))
            # d_logits = attn * (d_attn - sum(d_attn * attn)) * scale, in place
            d_logits -= (d_logits * attn).sum(axis=-1, keepdims=True)
            d_logits *= attn
            d_logits *= scale
            np.matmul(d_logits, k_g, self._split(d_q[start:stop], texts))
            np.matmul(d_logits.swapaxes(-1, -2), q_g, self._split(d_k[start:stop], texts))
            start = stop
        if order is not None:
            inverse = np.argsort(order)
            d_q, d_k, d_v = d_q[inverse], d_k[inverse], d_v[inverse]

        p["w_q"].accumulate(q_in.T @ d_q)
        p["b_q"].accumulate(d_q.sum(axis=0))
        p["w_k"].accumulate(kv.T @ d_k)
        p["b_k"].accumulate(d_k.sum(axis=0))
        p["w_v"].accumulate(kv.T @ d_v)
        p["b_v"].accumulate(d_v.sum(axis=0))

        grad_q_in = d_q @ p["w_q"].data.T
        grad_kv = d_k @ p["w_k"].data.T + d_v @ p["w_v"].data.T
        if self.residual:
            grad_q_in = grad_q_in + grad_out
        return grad_q_in, grad_kv
