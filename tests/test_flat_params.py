"""Flat parameter and gradient buffers against the per-tensor code they replaced.

ReferenceGRULayer and ReferenceAdamW are the earlier GRULayer (gate weights
concatenated on every call, nine per-gate gradient accumulations, one
sequence per call, gates kept for backward) and AdamW (per-tensor moment
dicts), kept verbatim apart from their names; reference_embedding_backward is
the earlier whole-table scatter. The new code must equal them bitwise: a
single text is a packed batch of one, whose GRU steps and recomputed gates
are the reference's products.
"""

import os
import subprocess
import sys
import types
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

import jamofuse
from jamofuse.checkpoint import load_into, save_checkpoint
from jamofuse.layers import Embedding, GRULayer, _sigmoid
from jamofuse.optim import AdamW, cosine_lr
from jamofuse.pipeline import COMPRESSIONS, FUSIONS, Pipeline, PipelineConfig
from jamofuse.subchar import SCHEME_NAMES
from jamofuse.subword import train_vocab
from jamofuse.tensor import ParamGroup, ShapeError, Tensor, uniform_init


class GRUCache(NamedTuple):
    """The reference layer's cache: its inputs and every step's gates."""

    x: np.ndarray  # (T, D)
    h_prev: np.ndarray  # (T, D), state before each step
    z: np.ndarray
    r: np.ndarray
    n: np.ndarray
    rh: np.ndarray  # r * h_prev


class ReferenceGRULayer:
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
            self.params.add(f"w_{gate}", Tensor(uniform_init(rng, (dim, dim), dim)))
            self.params.add(f"u_{gate}", Tensor(uniform_init(rng, (dim, dim), dim)))
            self.params.add(f"b_{gate}", Tensor(uniform_init(rng, (dim,), dim)))

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


class ReferenceAdamW:
    """Standard first/second-moment update; decay is applied to the weights
    directly, never through the moments."""

    def __init__(self, params: ParamGroup, weight_decay: float = 0.0):
        self.params = params
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, lr: float) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.step_count += 1
        t = self.step_count
        for name, tensor in self.params.items():
            grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            if grad.shape != tensor.data.shape:
                raise ShapeError(f"grad shape {grad.shape} does not match param {name} {tensor.data.shape}")
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            tensor.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
            if self.weight_decay:
                tensor.data -= lr * self.weight_decay * tensor.data


def without(group: ParamGroup, frozen) -> ParamGroup:
    """group less the tensors named in frozen: the group an optimizer that freezes them is given."""
    kept = ParamGroup()
    for name, t in group.items():
        if name not in frozen:
            kept.add(name, t)
    return kept


def reference_embedding_backward(self, grad_out, cache):
    full = np.zeros_like(self.table.data)
    np.add.at(full, cache, grad_out)
    self.table.accumulate(full)


VOCAB = train_vocab(["하다 했다", "한 ab", "대한 민국"], 60)
TEXTS = ["하다 ab", "했다ㄱ 민국", "x"]
GRU_NAMES = ("gru_seq", "gru_iv", "gru_char")


class OneSequence:
    """Drives a reference GRU, which takes one sequence, through GRULayer's packed interface."""

    def __init__(self, layer: ReferenceGRULayer):
        self.layer = layer

    def forward(self, x, batch_sizes, table=None):
        assert batch_sizes is None, "the reference runs one sequence"
        return self.layer.forward(x if table is None else table[x])

    def backward(self, grad_hs, cache):
        grad_x, _ = self.layer.backward(grad_hs, cache)
        return grad_x


def reference_copy(pipe):
    """A second pipeline with pipe's values whose GRUs and embeddings run the reference code."""
    ref = Pipeline(pipe.config, pipe.subword_vocab, seed=pipe.params.seed)
    grus = {}
    for layer_name in GRU_NAMES:
        layer = getattr(ref.params, layer_name)
        if layer is None:
            continue
        old = ReferenceGRULayer(layer.dim, np.random.default_rng(0))
        for name, t in old.params.items():
            t.data[...] = layer.params[name].data
        setattr(ref.params, layer_name, OneSequence(old))
        grus[layer_name] = old
    for emb in (ref.params.subchar_emb, ref.params.subword_emb):
        emb.backward = types.MethodType(reference_embedding_backward, emb)
    return ref, grus


def run_and_collect(pipe, grus, seed):
    """Forward and backward every text into one set of grads; returns (outputs, grads by name)."""
    pipe.params.group.zero_grads()
    for layer in grus.values():
        layer.params.zero_grads()
    rng = np.random.default_rng(seed)
    outputs = []
    for text in TEXTS:
        out, cache = pipe.forward(text)
        pipe.backward(rng.normal(size=out.shape), cache)
        outputs.append(out)
    grads = {}
    for name, t in pipe.params.group.items():
        layer, _, param = name.partition(".")
        grads[name] = (grus[layer].params[param] if layer in grus else t).grad.copy()
    return outputs, grads


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("dim", [4, 16, 64])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_outputs_and_every_gradient(self, scheme, dim):
        for compression in COMPRESSIONS:
            for fusion in FUSIONS:
                config = PipelineConfig(scheme=scheme, dim=dim, compression=compression, fusion=fusion)
                pipe = Pipeline(config, VOCAB, seed=dim)
                ref, grus = reference_copy(pipe)
                assert (compression == "principles") == (len(grus) == 3)
                outs, grads = run_and_collect(pipe, {}, seed=1)
                outs_ref, grads_ref = run_and_collect(ref, grus, seed=1)
                for out, out_ref in zip(outs, outs_ref):
                    assert np.array_equal(out, out_ref), (compression, fusion)
                assert grads.keys() == grads_ref.keys()
                for name in grads:
                    assert np.array_equal(grads[name], grads_ref[name]), (compression, fusion, name)
                    assert grads[name].any(), name

    @pytest.mark.parametrize(
        "frozen", [("subword_emb.table",), ("subword_emb.table", "gru_iv.u_r", "conv.bias")]
    )
    def test_twenty_adamw_steps(self, frozen):
        config = PipelineConfig(dim=8, fusion="cross-attention")
        pipes = [Pipeline(config, VOCAB, seed=3) for _ in range(2)]
        groups = [without(pipe.params.group, frozen) for pipe in pipes]
        optimizers = [AdamW(groups[0], weight_decay=0.01), ReferenceAdamW(groups[1], weight_decay=0.01)]
        # A frozen u_r cuts each of gru_iv.u's 8 rows apart; a frozen conv.bias cuts once more.
        assert len(optimizers[0].runs) == (2 if len(frozen) == 1 else 2 + 8 + 1)
        for step in range(20):
            for pipe, optimizer in zip(pipes, optimizers):
                pipe.params.group.zero_grads()
                out, cache = pipe.forward(TEXTS[step % len(TEXTS)])
                pipe.backward(np.random.default_rng(step).normal(size=out.shape), cache)
                optimizer.step(cosine_lr(step, 20, 0.05))
        initial = Pipeline(config, VOCAB, seed=3).params.group
        for (name, t), (_, t_ref) in zip(pipes[0].params.group.items(), pipes[1].params.group.items()):
            assert np.array_equal(t.data, t_ref.data), name
            assert np.array_equal(t.data, initial[name].data) == (name in frozen), name

    def test_adamw_on_standalone_tensors(self):
        groups = []
        for _ in range(2):
            group = ParamGroup()
            rng = np.random.default_rng(5)
            group.add("a", Tensor(uniform_init(rng, (3, 2), 2)))
            group.add("frozen", Tensor(uniform_init(rng, (4,), 2)))
            group.merge("gru", GRULayer(3, rng).params)
            groups.append(group)
        updated = [without(group, {"frozen"}) for group in groups]
        optimizers = [AdamW(updated[0], weight_decay=0.1), ReferenceAdamW(updated[1], weight_decay=0.1)]
        for step in range(20):
            for group, optimizer in zip(groups, optimizers):
                for k, (_, t) in enumerate(group.items()):
                    t.zero_grad()
                    t.accumulate(np.random.default_rng([step, k]).normal(size=t.shape))
                optimizer.step(1e-3)
        for (name, t), (_, t_ref) in zip(groups[0].items(), groups[1].items()):
            assert np.array_equal(t.data, t_ref.data), name

    @pytest.mark.parametrize("seed", range(5))
    def test_embedding_backward(self, seed):
        rng = np.random.default_rng(seed)
        emb, ref = Embedding(9, 4, rng), Embedding(9, 4, rng)
        ref.table.data[...] = emb.table.data
        start = rng.normal(size=(9, 4))
        calls = [(rng.normal(size=(30, 4)), rng.integers(0, 9, size=30)) for _ in range(3)]
        for layer, backward in ((emb, Embedding.backward), (ref, reference_embedding_backward)):
            layer.table.accumulate(start)
            for grad_out, ids in calls:
                backward(layer, grad_out, ids)
        assert np.array_equal(emb.table.grad, ref.table.grad)


class TestFlatBuffers:
    def test_every_tensor_views_the_flat_buffers(self):
        for compression in COMPRESSIONS:
            pipe = Pipeline(PipelineConfig(dim=4, compression=compression), VOCAB, seed=0)
            group = pipe.params.group
            assert group.data.size == group.grad.size == sum(t.data.size for _, t in group.items())
            for name, t in group.items():
                assert np.shares_memory(t.data, group.data), name
                assert np.shares_memory(t.grad, group.grad), name

    def test_flatten_keeps_values_and_names(self):
        b = ParamGroup()
        rng = np.random.default_rng(2)
        b.merge("gru", GRULayer(4, rng).params)
        b.add("w", Tensor(uniform_init(rng, (2, 4), 4)))
        before = {name: t.data.copy() for name, t in b.items()}
        b.flatten()
        assert b.names() == list(before)
        for name, t in b.items():
            assert np.array_equal(t.data, before[name])
            assert np.shares_memory(t.data, b.data)

    def test_gate_is_a_column_view_of_its_block(self):
        gru = GRULayer(3, np.random.default_rng(0))
        assert np.shares_memory(gru.params["u_r"].data, gru.u.data)
        assert np.array_equal(gru.u.data[:, 3:6], gru.params["u_r"].data)
        assert np.array_equal(gru.b.data[6:], gru.params["b_n"].data)

    def test_gate_blocks_keep_the_draw_order(self):
        rng = np.random.default_rng(4)
        gru = GRULayer(3, np.random.default_rng(4))
        for gate in "zrn":
            for kind, shape in (("w", (3, 3)), ("u", (3, 3)), ("b", (3,))):
                assert np.array_equal(gru.params[f"{kind}_{gate}"].data, uniform_init(rng, shape, 3))

    @pytest.mark.parametrize("name", ["w_z", "u_r", "b_n"])
    def test_in_place_gate_change_shows_in_forward(self, name):
        pipe = Pipeline(PipelineConfig(dim=4), VOCAB, seed=1)
        for gru in (GRULayer(4, np.random.default_rng(1)), pipe.params.gru_seq):
            x = np.random.default_rng(2).normal(size=(5, 4))
            before, _ = gru.forward(x)
            idx = (1, 2) if name[0] != "b" else (2,)
            gru.params[name].data[idx] += 1e-3
            after, _ = gru.forward(x)
            assert not np.array_equal(before, after)
            gru.params[name].data[idx] -= 1e-3
            assert np.allclose(gru.forward(x)[0], before, atol=1e-15, rtol=0)

    def test_load_into_keeps_the_views(self, tmp_path):
        pipe = Pipeline(PipelineConfig(dim=4, fusion="concatenation"), VOCAB, seed=6)
        group = pipe.params.group
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, group, seed=6, config=pipe.config.to_dict())
        saved = {name: t.data.copy() for name, t in group.items()}
        group.data += 1.0
        load_into(group, path)
        for name, t in group.items():
            assert np.array_equal(t.data, saved[name]), name
            assert np.shares_memory(t.data, group.data), name
            assert np.shares_memory(t.grad, group.grad), name
        assert np.array_equal(pipe.params.gru_seq.w.data[:, :4], saved["gru_seq.w_z"])

    def test_zero_grads_clears_the_flat_grad(self):
        pipe = Pipeline(PipelineConfig(dim=4), VOCAB, seed=0)
        out, cache = pipe.forward("했다")
        pipe.backward(np.ones_like(out), cache)
        assert pipe.params.group.grad.any()
        pipe.params.group.zero_grads()
        assert not pipe.params.group.grad.any()


class TestTrainableRuns:
    def test_frozen_table_splits_the_model_in_two(self):
        pipe = Pipeline(PipelineConfig(dim=4), VOCAB, seed=0)
        group = pipe.params.group
        assert len(group.runs()) == 1
        (table, _), (rest, rest_grad) = without(group, {"subword_emb.table"}).runs()
        assert np.shares_memory(table, group["subchar_emb.table"].data)
        assert table.size + rest.size == group.data.size - group["subword_emb.table"].data.size
        assert np.shares_memory(rest_grad, pipe.params.gru_char.u.grad)

    def test_frozen_gate_is_left_out(self):
        gru = GRULayer(2, np.random.default_rng(0))
        params = without(gru.params, {"w_r"})
        runs = params.runs()
        # w's rows each hold [w_z | w_r | w_n], so w_n of row 0 and w_z of row 1 make one run;
        # a standalone layer's blocks are three arrays, so u and b are runs of their own.
        assert [data.size for data, _ in runs] == [2, 4, 2, 12, 6]
        covered = sum(data.size for data, _ in runs)
        assert covered == sum(t.data.size for _, t in params.items())

    def test_standalone_tensors_are_one_run_each(self):
        group = ParamGroup()
        group.add("a", Tensor(np.ones(3)))
        group.add("b", Tensor(np.ones((2, 2))))
        group.add("c", Tensor(np.ones(1)))
        assert [data.shape for data, _ in group.runs()] == [(3,), (4,), (1,)]
        assert [data.shape for data, _ in without(group, {"c"}).runs()] == [(3,), (4,)]


def test_imports_need_only_numpy():
    """numpy is the only third-party module importing the package and its CLI loads."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import jamofuse, jamofuse.cli\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names) - {'jamofuse', 'numpy'})))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(jamofuse.__file__).parents[1])}  # the package this suite imports
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.split() == []

