import numpy as np
import pytest

from jamofuse.gradcheck import grad_check
from jamofuse.layers import Conv2x1, CrossAttention, Embedding, GRUCache, GRULayer, Linear
from jamofuse.tensor import ShapeError, Tensor

TOL = 1e-6


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


_sigmoid = sigmoid  # the name the reference loop below calls


def _reference_gru_forward(self, x, h0=None):
    """The per-step GRU forward that GRULayer.forward replaced, kept as the reference."""
    if x.ndim != 2 or x.shape[1] != self.dim:
        raise ShapeError(f"gru input {x.shape} does not match hidden size {self.dim}")
    if x.shape[0] < 1:
        raise ShapeError("gru needs at least one step")
    p = self.params
    w_z, u_z, b_z = p["w_z"].data, p["u_z"].data, p["b_z"].data
    w_r, u_r, b_r = p["w_r"].data, p["u_r"].data, p["b_r"].data
    w_n, u_n, b_n = p["w_n"].data, p["u_n"].data, p["b_n"].data

    T = x.shape[0]
    h = np.zeros(self.dim) if h0 is None else np.asarray(h0, dtype=np.float64)
    if h.shape != (self.dim,):
        raise ShapeError(f"gru initial state {h.shape} does not match hidden size {self.dim}")
    hs = np.zeros((T, self.dim))
    h_prev = np.zeros((T, self.dim))
    zs, rs, ns, rhs = (np.zeros((T, self.dim)) for _ in range(4))
    for t in range(T):
        h_prev[t] = h
        z = _sigmoid(x[t] @ w_z + h @ u_z + b_z)
        r = _sigmoid(x[t] @ w_r + h @ u_r + b_r)
        rh = r * h
        n = np.tanh(x[t] @ w_n + rh @ u_n + b_n)
        h = (1.0 - z) * n + z * h
        zs[t], rs[t], ns[t], rhs[t], hs[t] = z, r, n, rh, h
    return hs, GRUCache(x, h_prev, zs, rs, ns, rhs)


def _reference_gru_backward(self, grad_hs, cache):
    """The per-step GRU backward that GRULayer.backward replaced, kept as the reference."""
    p = self.params
    w_z, u_z = p["w_z"].data, p["u_z"].data
    w_r, u_r = p["w_r"].data, p["u_r"].data
    w_n, u_n = p["w_n"].data, p["u_n"].data

    x, h_prev, zs, rs, ns, rhs = cache
    T = x.shape[0]
    grads = {name: np.zeros_like(p[name].data) for name in p.names()}
    grad_x = np.zeros_like(x)
    carry = np.zeros(self.dim)
    for t in range(T - 1, -1, -1):
        dh = grad_hs[t] + carry
        z, r, n, h0 = zs[t], rs[t], ns[t], h_prev[t]
        dz = dh * (h0 - n)
        dn = dh * (1.0 - z)
        carry = dh * z
        dn_pre = dn * (1.0 - n * n)
        d_rh = dn_pre @ u_n.T
        dr = d_rh * h0
        carry += d_rh * r
        dz_pre = dz * z * (1.0 - z)
        dr_pre = dr * r * (1.0 - r)
        grads["w_z"] += np.outer(x[t], dz_pre)
        grads["u_z"] += np.outer(h0, dz_pre)
        grads["b_z"] += dz_pre
        grads["w_r"] += np.outer(x[t], dr_pre)
        grads["u_r"] += np.outer(h0, dr_pre)
        grads["b_r"] += dr_pre
        grads["w_n"] += np.outer(x[t], dn_pre)
        grads["u_n"] += np.outer(rhs[t], dn_pre)
        grads["b_n"] += dn_pre
        grad_x[t] = dz_pre @ w_z.T + dr_pre @ w_r.T + dn_pre @ w_n.T
        carry += dz_pre @ u_z.T + dr_pre @ u_r.T
    for name, g in grads.items():
        p[name].accumulate(g)
    return grad_x, carry


def check_layer_grads(layer, loss_fn, extra_inputs=()):
    """Gradient-check layer parameters plus any wrapped input tensors."""
    items = layer.params.items() + [(f"input.{i}", t) for i, t in enumerate(extra_inputs)]
    report = grad_check(loss_fn, items)
    assert report.max_rel_error < TOL, str(report)


class TestEmbedding:
    def test_forward_picks_rows(self):
        emb = Embedding(4, 3, np.random.default_rng(0))
        out, _ = emb.forward([2, 0, 2])
        assert np.array_equal(out[0], emb.table.data[2])
        assert np.array_equal(out[1], emb.table.data[0])

    def test_backward_accumulates_duplicate_rows(self):
        emb = Embedding(4, 2, np.random.default_rng(0))
        _, cache = emb.forward([1, 1])
        emb.backward(np.array([[1.0, 0.0], [0.5, 2.0]]), cache)
        assert np.allclose(emb.table.grad[1], [1.5, 2.0])
        assert np.allclose(emb.table.grad[0], 0.0)

    def test_out_of_range_id_rejected(self):
        emb = Embedding(4, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            emb.forward([4])

    def test_gradient(self):
        rng = np.random.default_rng(5)
        emb = Embedding(5, 3, rng)
        ids = [0, 3, 3, 1]
        r = rng.standard_normal((4, 3))

        def loss_fn(with_grad):
            out, cache = emb.forward(ids)
            if with_grad:
                emb.backward(r, cache)
            return float((out * r).sum())

        check_layer_grads(emb, loss_fn)


class TestLinear:
    def test_shape_and_value(self):
        lin = Linear(3, 2, np.random.default_rng(0))
        x = np.ones((4, 3))
        out, _ = lin.forward(x)
        assert out.shape == (4, 2)
        assert np.allclose(out[0], lin.w.data.sum(axis=0) + lin.b.data)

    def test_mismatched_input_rejected(self):
        lin = Linear(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            lin.forward(np.ones((4, 5)))

    def test_gradient(self):
        rng = np.random.default_rng(9)
        lin = Linear(3, 2, rng)
        x = Tensor(rng.standard_normal((4, 3)))
        r = rng.standard_normal((4, 2))

        def loss_fn(with_grad):
            out, cache = lin.forward(x.data)
            if with_grad:
                x.accumulate(lin.backward(r, cache))
            return float((out * r).sum())

        check_layer_grads(lin, loss_fn, extra_inputs=[x])


class TestGRULayer:
    def test_zero_net_outputs_zero(self):
        gru = GRULayer(3, np.random.default_rng(0))
        for _, t in gru.params.items():
            t.data[:] = 0.0
        hs, _ = gru.forward(np.ones((4, 3)))
        assert np.allclose(hs, 0.0)

    def test_single_step_hand_value(self):
        gru = GRULayer(2, np.random.default_rng(0))
        for _, t in gru.params.items():
            t.data[:] = 0.0
        gru.params["b_z"].data[:] = [0.3, -0.4]
        gru.params["b_n"].data[:] = [0.7, 0.2]
        hs, _ = gru.forward(np.zeros((1, 2)))
        expected = (1.0 - sigmoid(np.array([0.3, -0.4]))) * np.tanh([0.7, 0.2])
        assert np.allclose(hs[0], expected)

    def test_wrong_width_rejected(self):
        gru = GRULayer(3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            gru.forward(np.ones((2, 4)))
        with pytest.raises(ShapeError):
            gru.forward(np.ones((0, 3)))

    def test_initial_state_feeds_first_step(self):
        rng = np.random.default_rng(3)
        gru = GRULayer(3, rng)
        x = rng.standard_normal((2, 3))
        h0 = rng.standard_normal(3)
        hs_h0, _ = gru.forward(x, h0=h0)
        hs_default, _ = gru.forward(x)
        hs_zero, _ = gru.forward(x, h0=np.zeros(3))
        assert not np.allclose(hs_h0, hs_default)
        assert np.array_equal(hs_default, hs_zero)

    def test_gradient_through_time(self):
        rng = np.random.default_rng(11)
        gru = GRULayer(3, rng)
        x = Tensor(rng.standard_normal((4, 3)))
        h0 = Tensor(rng.standard_normal(3))
        r = rng.standard_normal((4, 3))

        def loss_fn(with_grad):
            hs, cache = gru.forward(x.data, h0=h0.data)
            if with_grad:
                grad_x, grad_h0 = gru.backward(r, cache)
                x.accumulate(grad_x)
                h0.accumulate(grad_h0)
            return float((hs * r).sum())

        check_layer_grads(gru, loss_fn, extra_inputs=[x, h0])


EQUIV_TOL = 1e-12


def _gru_run(forward, backward, gru, xs, h0s, grads):
    """Forward every (x, h0), then backward each with its upstream gradient into fresh .grad slots."""
    gru.params.zero_grads()
    runs = [forward(gru, x, h0) for x, h0 in zip(xs, h0s)]
    inputs = [backward(gru, g, cache) for (_, cache), g in zip(runs, grads)]
    params = {name: t.grad.copy() for name, t in gru.params.items()}
    return [hs for hs, _ in runs], [cache for _, cache in runs], inputs, params


def assert_gru_matches_reference(gru, xs, h0s, grads):
    new = _gru_run(GRULayer.forward, GRULayer.backward, gru, xs, h0s, grads)
    ref = _gru_run(_reference_gru_forward, _reference_gru_backward, gru, xs, h0s, grads)
    (hs, caches, inputs, params), (hs_ref, caches_ref, inputs_ref, params_ref) = new, ref
    for a, b in zip(hs, hs_ref):
        assert np.abs(a - b).max() <= EQUIV_TOL
    for cache, cache_ref in zip(caches, caches_ref):
        for field in GRUCache._fields:
            a, b = getattr(cache, field), getattr(cache_ref, field)
            assert a.shape == b.shape and np.abs(a - b).max() <= EQUIV_TOL, field
    for (gx, gh0), (gx_ref, gh0_ref) in zip(inputs, inputs_ref):
        assert np.abs(gx - gx_ref).max() <= EQUIV_TOL
        assert np.abs(gh0 - gh0_ref).max() <= EQUIV_TOL
    assert params.keys() == params_ref.keys() and len(params) == 9
    for name in params:
        assert np.abs(params[name] - params_ref[name]).max() <= EQUIV_TOL, name


class TestGRUReferenceEquivalence:
    """GRULayer against the per-step loop it replaced, to 1e-12 absolute."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("steps", [1, 2, 7, 40])
    @pytest.mark.parametrize("dim", [4, 16, 64])
    @pytest.mark.parametrize("with_h0", [False, True])
    def test_matches_reference(self, dim, steps, seed, with_h0):
        rng = np.random.default_rng(seed)
        gru = GRULayer(dim, rng)
        x = rng.standard_normal((steps, dim))
        h0 = rng.standard_normal(dim) if with_h0 else None
        grad = rng.standard_normal((steps, dim))
        assert_gru_matches_reference(gru, [x], [h0], [grad])

    @pytest.mark.parametrize("seed", range(10))
    def test_two_backwards_accumulate_like_reference(self, seed):
        # Training runs both words of a pair forward, then backward, into one .grad per parameter.
        rng = np.random.default_rng(seed)
        gru = GRULayer(16, rng)
        xs = [rng.standard_normal((5, 16)), rng.standard_normal((3, 16))]
        grads = [rng.standard_normal((5, 16)), rng.standard_normal((3, 16))]
        assert_gru_matches_reference(gru, xs, [None, rng.standard_normal(16)], grads)


class TestConv2x1:
    def test_selector_kernel_returns_top_row(self):
        conv = Conv2x1(3, np.random.default_rng(0))
        conv.kernel.data[0] = np.eye(3)
        conv.kernel.data[1] = 0.0
        conv.bias.data[:] = 0.0
        x = np.random.default_rng(1).standard_normal((2, 5, 3))
        out, _ = conv.forward(x)
        assert out.shape == (1, 5, 3)
        assert np.allclose(out[0], x[0])

    def test_mean_kernel_returns_row_mean(self):
        conv = Conv2x1(3, np.random.default_rng(0))
        conv.kernel.data[0] = 0.5 * np.eye(3)
        conv.kernel.data[1] = 0.5 * np.eye(3)
        conv.bias.data[:] = 0.0
        x = np.random.default_rng(1).standard_normal((2, 4, 3))
        out, _ = conv.forward(x)
        assert np.allclose(out[0], x.mean(axis=0))

    def test_wrong_height_rejected(self):
        conv = Conv2x1(3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            conv.forward(np.ones((3, 4, 3)))

    def test_gradient(self):
        rng = np.random.default_rng(13)
        conv = Conv2x1(3, rng)
        x = Tensor(rng.standard_normal((2, 4, 3)))
        r = rng.standard_normal((1, 4, 3))

        def loss_fn(with_grad):
            out, cache = conv.forward(x.data)
            if with_grad:
                x.accumulate(conv.backward(r, cache))
            return float((out * r).sum())

        check_layer_grads(conv, loss_fn, extra_inputs=[x])


class TestCrossAttention:
    def test_single_key_degeneracy(self):
        rng = np.random.default_rng(2)
        attn = CrossAttention(4, rng)
        kv = rng.standard_normal((1, 4))
        q_any = rng.standard_normal((3, 4))
        out, cache = attn.forward(q_any, kv)
        projected_value = (
            kv @ attn.params["w_v"].data + attn.params["b_v"].data
        ) @ attn.params["w_o"].data + attn.params["b_o"].data
        assert np.allclose(out, np.repeat(projected_value, 3, axis=0))
        assert np.allclose(cache.attn, 1.0)

    def test_dominant_logit_selects_value_row(self):
        attn = CrossAttention(4, np.random.default_rng(0))
        for name in ("q", "k", "v", "o"):
            attn.params[f"w_{name}"].data = np.eye(4)
            attn.params[f"b_{name}"].data[:] = 0.0
        kv = np.eye(4)  # orthogonal keys; values = same basis rows
        q = np.array([[0.0, 50.0, 0.0, 0.0]])
        out, _ = attn.forward(q, kv)
        assert np.allclose(out[0], kv[1], atol=1e-8)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        attn = CrossAttention(6, rng, heads=2)
        _, cache = attn.forward(rng.standard_normal((3, 6)), rng.standard_normal((5, 6)))
        assert np.abs(cache.attn.sum(axis=-1) - 1.0).max() < 1e-12

    def test_head_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            CrossAttention(5, np.random.default_rng(0), heads=2)

    def test_residual_adds_queries(self):
        rng = np.random.default_rng(6)
        plain = CrossAttention(4, rng)
        res = CrossAttention(4, np.random.default_rng(6), residual=True)
        q = np.random.default_rng(1).standard_normal((2, 4))
        kv = np.random.default_rng(2).standard_normal((3, 4))
        out_plain, _ = plain.forward(q, kv)
        out_res, _ = res.forward(q, kv)
        assert np.allclose(out_res, out_plain + q)

    @pytest.mark.parametrize("heads,residual", [(1, False), (2, False), (1, True)])
    def test_gradient(self, heads, residual):
        rng = np.random.default_rng(17)
        attn = CrossAttention(4, rng, heads=heads, residual=residual)
        q = Tensor(rng.standard_normal((3, 4)))
        kv = Tensor(rng.standard_normal((4, 4)))
        r = rng.standard_normal((3, 4))

        def loss_fn(with_grad):
            out, cache = attn.forward(q.data, kv.data)
            if with_grad:
                grad_q, grad_kv = attn.backward(r, cache)
                q.accumulate(grad_q)
                kv.accumulate(grad_kv)
            return float((out * r).sum())

        check_layer_grads(attn, loss_fn, extra_inputs=[q, kv])
