import numpy as np
import pytest

from jamofuse.gradcheck import check_pipeline, grad_check
from jamofuse import gradcheck, layers
from jamofuse.layers import Conv2x1, CrossAttention, Embedding, GRULayer, Linear
from jamofuse.tensor import ShapeError, Tensor

TOL = 1e-6


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


_sigmoid = sigmoid  # the name the reference loop below calls


def _reference_gru_forward(self, x):
    """The per-step GRU forward of one sequence that GRULayer.forward replaced, kept as the reference."""
    if x.ndim != 2 or x.shape[1] != self.dim:
        raise ShapeError(f"gru input {x.shape} does not match hidden size {self.dim}")
    if x.shape[0] < 1:
        raise ShapeError("gru needs at least one step")
    p = self.params
    w_z, u_z, b_z = p["w_z"].data, p["u_z"].data, p["b_z"].data
    w_r, u_r, b_r = p["w_r"].data, p["u_r"].data, p["b_r"].data
    w_n, u_n, b_n = p["w_n"].data, p["u_n"].data, p["b_n"].data

    T = x.shape[0]
    h = np.zeros(self.dim)
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
    return hs, (x, h_prev, zs, rs, ns, rhs)


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
    return grad_x


def _stepwise_gru_forward(self, x, batch_sizes, table):
    """The GRULayer._forward that walked step indices and called numpy's ufuncs through the module, kept
    as the reference: the states hs, for valid inputs only."""
    d = self.dim
    offsets = layers._offsets(batch_sizes, x.shape[0])
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
    blocks = layers._step_blocks(offsets)
    # a block's projections, in buffers that serve every block: -p_zr and p_n as
    # columns of x W + b, or each gathered from the table into a buffer of its own
    block_rows = x.shape[0] if len(blocks) == 1 else max(layers.PROJECTION_ROWS, rows)
    if table is None:
        buf = None if len(blocks) == 1 else np.empty((block_rows, 3 * d))
    else:
        zr_buf, n_buf = np.empty((block_rows, 2 * d)), np.empty((block_rows, d))
    for t0, t1 in blocks:
        base = offsets[t0]
        xb = x[base : offsets[t1]]
        if table is None:
            proj = self._project(xb, None, buf)
            neg_p_zr, p_n = np.negative(proj[:, : 2 * d], proj[:, : 2 * d]), proj[:, 2 * d :]
        else:
            neg_p_zr = np.take(neg_table_zr, xb, axis=0, out=zr_buf[: xb.shape[0]], mode="clip")
            p_n = np.take(table_n, xb, axis=0, out=n_buf[: xb.shape[0]], mode="clip")
        for t in range(t0, t1):
            a, c = offsets[t] - base, offsets[t + 1] - base
            if c - a != rows:
                rows = c - a
                h, ones, gates, n, tmp = h[:rows], ones[:rows], gates[:rows], n[:rows], tmp[:rows]
                z, r, ones_d = gates[:, :d], gates[:, d:], ones[:, :d]
            # backward's operations, done in place (IEEE addition commutes, so h U + p
            # is p + h U): the values are bitwise those backward recomputes
            np.matmul(h, neg_u_zr, gates)
            np.add(gates, neg_p_zr[a:c], gates)
            np.exp(gates, gates)
            np.add(gates, ones, gates)
            np.divide(ones, gates, gates)
            # n = tanh((r * h) U_n + p_n)
            np.matmul(np.multiply(r, h, tmp), u_n, n)
            np.add(n, p_n[a:c], n)
            np.tanh(n, n)
            # h = (1 - z) * n + z * h, written straight into the step's output rows
            out = hs[base + a : base + c]
            np.multiply(np.subtract(ones_d, z, out), n, out)
            np.add(out, np.multiply(z, h, tmp), out)
            h = out
    return hs


def _stepwise_gru_backward(self, grad_hs, cache):
    """The GRULayer.backward that recomputed each step's gates inside its time loop, kept as the reference."""
    d = self.dim
    x, hs, batch_sizes, table = cache
    offsets = layers._offsets(batch_sizes, x.shape[0])
    u = self.u.data
    u_zr, u_n = u[:, : 2 * d], u[:, 2 * d :]
    u_zr_t, u_n_t = u_zr.T, u_n.T
    table_proj = None if table is None else self._project(table, None, None)

    g = np.empty((x.shape[0], 3 * d))
    h_prev = np.empty(hs.shape)
    rh = np.empty(hs.shape)
    carry = np.zeros((0, d))
    blocks = layers._step_blocks(offsets)
    buf = None if len(blocks) == 1 else np.empty((max(layers.PROJECTION_ROWS, offsets[1]), 3 * d))
    for t0, t1 in reversed(blocks):
        base = offsets[t0]
        proj = self._project(x[base : offsets[t1]], table_proj, buf)
        for t in range(t1 - 1, t0 - 1, -1):
            a, c = offsets[t], offsets[t + 1]
            p = proj[a - base : c - base]
            hp = hs[offsets[t - 1] : offsets[t - 1] + c - a] if t else np.zeros((c - a, d))
            gates = _sigmoid(p[:, : 2 * d] + hp @ u_zr)
            z, r = gates[:, :d], gates[:, d:]
            rhp = r * hp
            n = np.tanh(p[:, 2 * d :] + rhp @ u_n)
            dh = grad_hs[a:c].copy()
            dh[: len(carry)] += carry
            dn_pre = dh * ((1.0 - z) * (1.0 - n * n))
            d_rh = dn_pre @ u_n_t
            g[a:c, :d] = dh * ((hp - n) * z * (1.0 - z))
            g[a:c, d : 2 * d] = d_rh * (hp * r * (1.0 - r))
            g[a:c, 2 * d :] = dn_pre
            carry = dh * z + d_rh * r + g[a:c, : 2 * d] @ u_zr_t
            h_prev[a:c], rh[a:c] = hp, rhp

    inputs = x if table is None else table[x]
    self.w.grad += inputs.T @ g
    self.u.grad[:, : 2 * d] += h_prev.T @ g[:, : 2 * d]
    self.u.grad[:, 2 * d :] += rh.T @ g[:, 2 * d :]
    self.b.grad += g.sum(axis=0)
    return g @ self.w.data.T


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


def _add_at_scatter(index, rows, n):
    """The np.add.at scatter into zeros that scatter_add replaced, kept as the reference."""
    out = np.zeros((n, rows.shape[1]))
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, as in scatter_add
        np.add.at(out, np.asarray(index, dtype=np.int64), rows)
    return out


class TestScatterAdd:
    """scatter_add against np.add.at into zeros: the same bytes."""

    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_repeated_ids_bitwise(self, dim):
        # many rows per bin, so the order of each bin's additions shows in its last bits
        rng = np.random.default_rng(dim)
        index = rng.integers(0, 7, 200)
        rows = rng.standard_normal((200, dim)) * 10.0 ** rng.integers(-8, 9, (200, 1))
        assert _add_at_scatter(index, rows, 9).tobytes() == layers.scatter_add(index, rows, 9).tobytes()

    @pytest.mark.parametrize(
        "values",
        [[-0.0, -0.0], [-0.0, 0.0], [np.inf, 1.0], [np.inf, -np.inf], [np.nan, 1.0], [1.0, -np.nan]],
        ids=["negative-zeros", "signed-zeros", "inf", "inf-minus-inf", "nan", "negative-nan"],
    )
    def test_special_values_bitwise(self, values):
        index = np.array([2, 0, 2, 2])
        rows = np.array([[values[0], 1.0], [values[1], values[0]], [values[1], -0.0], [0.5, values[1]]])
        assert _add_at_scatter(index, rows, 4).tobytes() == layers.scatter_add(index, rows, 4).tobytes()

    def test_empty_index(self):
        out = layers.scatter_add(np.array([], dtype=np.int64), np.empty((0, 3)), 4)
        assert out.shape == (4, 3) and out.tobytes() == _add_at_scatter([], np.empty((0, 3)), 4).tobytes()
        assert layers.scatter_add([], np.empty((0, 3)), 0).shape == (0, 3)

    @pytest.mark.parametrize("objective", ["contrastive-pairs", "tag-classification"])
    def test_train_bitwise_with_add_at_at_every_call_site(self, monkeypatch, objective):
        from jamofuse import pipeline, training
        from jamofuse.subword import train_vocab

        data = training.PairDataset([
            training.PairRecord("하다", "했다", "verb-past"), training.PairRecord("가다", "갔다", "verb-past"),
            training.PairRecord("춥다", "추움", "noun-derivation"), training.PairRecord("걷다", "걸음", "noun-derivation"),
            training.PairRecord("먹다", "먹었다", "verb-past"),
        ])
        vocab = train_vocab(["하다 했다 가다 갔다", "춥다 추움 걷다 걸음 먹다 먹었다"], 60)
        config = training.TrainConfig(objective=objective, epochs=3, lr=0.05, batch_size=4, seed=2)
        runs = []
        for scatter in (layers.scatter_add, _add_at_scatter):
            for module in (layers, pipeline, training):  # Embedding.backward, backward_stage2, both batches
                monkeypatch.setattr(module, "scatter_add", scatter)
            pipe = pipeline.Pipeline(pipeline.PipelineConfig(dim=8, fusion="summation"), vocab, seed=4)
            log = training.train(pipe, data, config)
            runs.append((log.to_csv(), pipe.params.group.data.tobytes()))
        assert runs[0] == runs[1]


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

    def test_gradient_through_time(self):
        rng = np.random.default_rng(11)
        gru = GRULayer(3, rng)
        x = Tensor(rng.standard_normal((4, 3)))
        r = rng.standard_normal((4, 3))

        def loss_fn(with_grad):
            hs, cache = gru.forward(x.data)
            if with_grad:
                x.accumulate(gru.backward(r, cache))
            return float((hs * r).sum())

        check_layer_grads(gru, loss_fn, extra_inputs=[x])

    def test_packed_gradient_through_time(self):
        # three sequences of 4, 2 and 1 steps: 7 packed rows
        rng = np.random.default_rng(12)
        gru = GRULayer(3, rng)
        sizes = np.array([3, 2, 1, 1])
        x = Tensor(rng.standard_normal((7, 3)))
        r = rng.standard_normal((7, 3))

        def loss_fn(with_grad):
            hs, cache = gru.forward(x.data, sizes)
            if with_grad:
                x.accumulate(gru.backward(r, cache))
            return float((hs * r).sum())

        check_layer_grads(gru, loss_fn, extra_inputs=[x])

    def test_batch_sizes_must_cover_the_rows(self):
        gru = GRULayer(3, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="batch sizes"):
            gru.forward(np.ones((4, 3)), np.array([2, 1]))

    def test_long_batches_project_in_blocks(self, monkeypatch):
        # two layers with the same weights, with whole-batch and with 5-row input projections
        rng = np.random.default_rng(15)
        xs = [rng.standard_normal((n, 4)) for n in (9, 7, 7, 3, 1)]
        x, sizes, rows = pack_sequences(xs)
        grad = rng.standard_normal(x.shape)
        runs = []
        for block in (layers.PROJECTION_ROWS, 5):
            monkeypatch.setattr(layers, "PROJECTION_ROWS", block)
            gru = GRULayer(4, np.random.default_rng(14))
            hs, cache = gru.forward(x, sizes)
            runs.append((hs, gru.backward(grad, cache), gru.w.grad.copy(), gru.u.grad.copy(), gru.b.grad.copy()))
        for a, b in zip(*runs):
            assert np.abs(a - b).max() <= EQUIV_TOL


EQUIV_TOL = 1e-12


def pack_sequences(xs):
    """(packed rows, batch sizes, packed row of each step of each sequence) for sequences sorted longest first."""
    lengths = [len(x) for x in xs]
    assert lengths == sorted(lengths, reverse=True)
    sizes = np.array([sum(n > t for n in lengths) for t in range(lengths[0])])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rows = [offsets[: len(x)] + j for j, x in enumerate(xs)]
    packed = np.empty((offsets[-1], xs[0].shape[1]))
    for x, r in zip(xs, rows):
        packed[r] = x
    return packed, sizes, rows


def _reference_run(gru, xs, grads):
    """Per-sequence reference forwards, then backwards into fresh .grad slots."""
    gru.params.zero_grads()
    runs = [_reference_gru_forward(gru, x) for x in xs]
    inputs = [_reference_gru_backward(gru, g, cache) for (_, cache), g in zip(runs, grads)]
    params = {name: t.grad.copy() for name, t in gru.params.items()}
    return [hs for hs, _ in runs], inputs, params


def assert_gru_matches_reference(gru, xs, grads, packed):
    """GRULayer on each sequence alone, or on all of them packed, against the reference loop."""
    gru.params.zero_grads()
    if packed:
        x, sizes, rows = pack_sequences(xs)
        hs_all, cache = gru.forward(x, sizes)
        assert np.array_equal(cache.x, x) and np.array_equal(cache.hs, hs_all)
        grad_all = np.empty_like(x)
        for g, r in zip(grads, rows):
            grad_all[r] = g
        gx_all = gru.backward(grad_all, cache)
        hs, inputs = [hs_all[r] for r in rows], [gx_all[r] for r in rows]
    else:
        runs = [gru.forward(x) for x in xs]
        hs = [h for h, _ in runs]
        inputs = [gru.backward(g, cache) for (_, cache), g in zip(runs, grads)]
    params = {name: t.grad.copy() for name, t in gru.params.items()}
    hs_ref, inputs_ref, params_ref = _reference_run(gru, xs, grads)
    for a, b in zip(hs, hs_ref):
        assert a.shape == b.shape and np.abs(a - b).max() <= EQUIV_TOL
    for a, b in zip(inputs, inputs_ref):
        assert a.shape == b.shape and np.abs(a - b).max() <= EQUIV_TOL
    assert params.keys() == params_ref.keys() and len(params) == 9
    for name in params:
        assert np.abs(params[name] - params_ref[name]).max() <= EQUIV_TOL, name


class TestGRUReferenceEquivalence:
    """GRULayer against the per-step loop it replaced, to 1e-12 absolute."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("steps", [1, 2, 7, 40])
    @pytest.mark.parametrize("dim", [4, 16, 64])
    @pytest.mark.parametrize("packed", [False, True])
    def test_matches_reference(self, dim, steps, seed, packed):
        # packed: the sequence runs in a batch with a longer, an equal and a shorter one
        rng = np.random.default_rng(seed)
        gru = GRULayer(dim, rng)
        lengths = [steps + 3, steps, steps, max(steps // 2, 1)] if packed else [steps]
        xs = [rng.standard_normal((n, dim)) for n in lengths]
        grads = [rng.standard_normal((n, dim)) for n in lengths]
        assert_gru_matches_reference(gru, xs, grads, packed)

    @pytest.mark.parametrize("seed", range(10))
    def test_two_backwards_accumulate_like_reference(self, seed):
        # Two forwards, then two backwards into one .grad per parameter.
        rng = np.random.default_rng(seed)
        gru = GRULayer(16, rng)
        xs = [rng.standard_normal((5, 16)), rng.standard_normal((3, 16))]
        grads = [rng.standard_normal((5, 16)), rng.standard_normal((3, 16))]
        assert_gru_matches_reference(gru, xs, grads, packed=False)


class TestGRUTable:
    """Ids into a table against the gathered rows table[ids]: the same bits forward and backward."""

    @pytest.mark.parametrize(
        "lengths",
        [[9], [9, 7, 7, 3, 1], [60, 55, 40, 20, 9, 3]],
        ids=["one-sequence", "packed", "several-projection-blocks"],
    )
    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_matches_gathered_rows(self, lengths, dim):
        rng = np.random.default_rng(dim + len(lengths))
        gru = GRULayer(dim, rng)
        table = rng.standard_normal((11, dim))
        sizes = np.array([sum(n > t for n in lengths) for t in range(lengths[0])])
        ids = rng.integers(0, len(table), sizes.sum())
        if len(lengths) > 5:
            assert len(ids) > layers.PROJECTION_ROWS  # the several-projection-blocks case
        sizes = None if len(lengths) == 1 else sizes
        grad = rng.standard_normal((len(ids), dim))
        runs = []
        for x, table_arg in ((table[ids], None), (ids, table)):
            gru.params.zero_grads()
            hs, cache = gru.forward(x, sizes, table=table_arg)
            assert cache.x.shape[0] == len(ids)  # one entry per packed row
            runs.append((hs, gru.backward(grad, cache), gru.w.grad.copy(), gru.u.grad.copy(), gru.b.grad.copy()))
        for a, b in zip(*runs):
            assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1, 11])
    def test_id_out_of_range_rejected(self, bad):
        gru = GRULayer(4, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="out of range"):
            gru.forward(np.array([0, bad, 3]), table=np.ones((11, 4)))

    def test_table_width_must_match(self):
        gru = GRULayer(4, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="hidden size"):
            gru.forward(np.array([0, 1]), table=np.ones((11, 5)))
        with pytest.raises(ShapeError, match="hidden size"):
            gru.forward(np.ones((2, 4)), table=np.ones((11, 4)))


class TestGRUBackwardAgainstStepwise:
    """GRULayer.backward against the stepwise backward it replaced: the same bits."""

    @pytest.mark.parametrize(
        "lengths",
        [[26], [9, 7, 7, 3, 1], [60, 55, 40, 20, 9, 3]],
        ids=["one-sequence", "packed", "over-projection-rows"],
    )
    @pytest.mark.parametrize("table", [False, True], ids=["rows", "table"])
    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_bitwise_equal(self, lengths, table, dim):
        rng = np.random.default_rng(dim + len(lengths))
        gru = GRULayer(dim, rng)
        sizes = np.array([sum(n > t for n in lengths) for t in range(lengths[0])])
        if len(lengths) > 5:
            assert sizes.sum() > layers.PROJECTION_ROWS
        sizes = None if len(lengths) == 1 else sizes
        rows = rng.standard_normal((11, dim))
        ids = rng.integers(0, len(rows), lengths[0] if sizes is None else sizes.sum())
        x, table_arg = (ids, rows) if table else (rows[ids], None)
        _, cache = gru.forward(x, sizes, table=table_arg)
        grad = rng.standard_normal((len(ids), dim))
        runs = []
        for backward in (GRULayer.backward, _stepwise_gru_backward):
            gru.params.zero_grads()
            runs.append((backward(gru, grad, cache), gru.w.grad.copy(), gru.u.grad.copy(), gru.b.grad.copy()))
        for a, b in zip(*runs):
            assert a.shape == b.shape and np.array_equal(a, b)


class TestGRUForwardAgainstStepwise:
    """GRULayer's forward against the stepwise forward it replaced: the same bits."""

    @pytest.mark.parametrize(
        "lengths",
        [[26], [9, 7, 7, 3, 1], [60, 55, 40, 20, 9, 3]],
        ids=["one-sequence", "packed", "over-projection-rows"],
    )
    @pytest.mark.parametrize("table", [False, True], ids=["rows", "table"])
    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_bitwise_equal(self, lengths, table, dim):
        rng = np.random.default_rng(dim + len(lengths))
        gru = GRULayer(dim, rng)
        sizes = np.array([sum(n > t for n in lengths) for t in range(lengths[0])])
        if len(lengths) > 5:
            assert sizes.sum() > layers.PROJECTION_ROWS
        sizes = None if len(lengths) == 1 else sizes
        rows = rng.standard_normal((11, dim))
        ids = rng.integers(0, len(rows), lengths[0] if sizes is None else sizes.sum())
        x, table_arg = (ids, rows) if table else (rows[ids], None)
        hs, _ = gru.forward(x, sizes, table=table_arg)
        assert hs.tobytes() == _stepwise_gru_forward(gru, x, sizes, table_arg).tobytes()


def count_computes(monkeypatch) -> list:
    """Wraps GRULayer.forward as the class holds it, which grad_check's reuse calls only for the calls
    it computes: the returned list grows by one for each call that computes."""
    computed, compute = [], GRULayer.forward

    def counted(self, *args, **kwargs):
        computed.append(self)
        return compute(self, *args, **kwargs)

    monkeypatch.setattr(GRULayer, "forward", counted)
    return computed


def copied_layer(gru):
    """A fresh layer with gru's weights, which has made no call yet."""
    fresh = GRULayer(gru.dim, np.random.default_rng(99))
    for block in ("w", "u", "b"):
        getattr(fresh, block).data[...] = getattr(gru, block).data
    return fresh


def forward_backward(gru, x, sizes, table, grad):
    """(hs, input gradient, w, u and b gradients) of one forward and backward from zeroed gradients."""
    gru.params.zero_grads()
    hs, cache = gru.forward(x, sizes, table=table)
    return hs.copy(), gru.backward(grad, cache), gru.w.grad.copy(), gru.u.grad.copy(), gru.b.grad.copy()


def memo_case(table: bool):
    """A layer and packed inputs (x, batch sizes, table) of three sequences of 4, 2 and 1 steps."""
    rng = np.random.default_rng(21)
    gru = GRULayer(3, rng)
    sizes = np.array([3, 2, 1, 1])
    rows = rng.standard_normal((5, 3))
    ids = np.array([0, 3, 1, 4, 4, 2, 0])
    x, table_arg = (ids, rows) if table else (rows[ids], None)
    return gru, x, sizes, table_arg, rng.standard_normal((7, 3))


def assert_same_bits(runs_a, runs_b):
    for a, b in zip(runs_a, runs_b):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGRUMemo:
    """grad_check's reuse of each GRU's first call in a check: served only for the same input and weight bytes."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """Runs the test inside grad_check's reuse; grows by one for each GRU forward that computes."""
        computed = count_computes(monkeypatch)
        with gradcheck._reuse():
            yield computed

    @pytest.mark.parametrize("table", [False, True], ids=["rows", "table"])
    def test_hit_matches_a_fresh_layer(self, computed, table):
        gru, x, sizes, table_arg, grad = memo_case(table)
        first = gru.forward(x, sizes, table=table_arg)
        # equal copies of every input are served the first call's result
        copies = (x.copy(), sizes.copy(), None if table_arg is None else table_arg.copy())
        hit = forward_backward(gru, *copies, grad)
        assert len(computed) == 1 and gru.forward(*copies[:2], table=copies[2])[0] is first[0]
        assert_same_bits(hit, forward_backward(copied_layer(gru), x, sizes, table_arg, grad))
        assert len(computed) == 2

    def test_results_are_read_only_and_keep_no_caller_array(self, computed):
        gru, x, sizes, table, _ = memo_case(True)
        hs, cache = gru.forward(x, sizes, table=table)
        for a in (hs, *cache):
            assert not a.flags.writeable
        assert cache.x is not x and cache.batch_sizes is not sizes and cache.table is not table
        gru.b.data[0] += 0.5
        computed_hs, _ = gru.forward(x, sizes, table=table)  # not kept: the layer's own, writable result
        assert len(computed) == 2 and computed_hs.flags.writeable

    @pytest.mark.parametrize("changed", ["x", "batch_sizes", "table", "w", "u", "b"])
    def test_in_place_change_recomputes(self, computed, changed):
        gru, x, sizes, table, grad = memo_case(True)
        gru.forward(x, sizes, table=table)
        if changed == "x":
            x[2] = 2 if x[2] != 2 else 3
        elif changed == "batch_sizes":
            sizes[:] = [2, 2, 2, 1]  # two sequences of 4 and 3 steps: still 7 rows
        elif changed == "table":
            table[x[0], 1] += 0.5
        else:
            getattr(gru, changed).data.reshape(-1)[1] += 0.5
        fresh = forward_backward(copied_layer(gru), x, sizes, table, grad)
        assert_same_bits(forward_backward(gru, x, sizes, table, grad), fresh)
        assert len(computed) == 3

    def test_signed_zero_is_a_different_input(self, computed):
        gru = GRULayer(2, np.random.default_rng(0))
        for x in (np.full((3, 2), -0.0), np.zeros((3, 2)), np.full((3, 2), -0.0)):
            gru.forward(x)
        assert len(computed) == 2
        gru.b.data[0] = -gru.b.data[0]
        gru.b.data[0] = -gru.b.data[0]  # the same value again
        gru.forward(np.full((3, 2), -0.0))
        assert len(computed) == 2
        gru.b.data[1] = 0.0
        gru.forward(np.full((3, 2), -0.0))
        gru.b.data[1] = -0.0
        gru.forward(np.full((3, 2), -0.0))
        assert len(computed) == 4

    def test_nan_input_repeats(self, computed):
        gru = GRULayer(2, np.random.default_rng(0))
        x = np.ones((3, 2))
        x[1, 0] = np.nan
        first, _ = gru.forward(x)
        again, _ = gru.forward(x.copy())
        assert len(computed) == 1 and again is first and np.isnan(first[1:]).all()

    def test_a_failed_call_is_not_kept(self, computed):
        gru = GRULayer(4, np.random.default_rng(0))
        for _ in range(2):
            with pytest.raises(ShapeError, match="out of range"):
                gru.forward(np.array([0, 11, 3]), table=np.ones((11, 4)))
        for _ in range(2):
            with pytest.raises(ShapeError, match="batch sizes"):
                gru.forward(np.ones((4, 4)), np.array([2, 1]))
        assert len(computed) == 4
        first, _ = gru.forward(np.ones((4, 4)))  # the first call that returns is the one kept
        assert gru.forward(np.ones((4, 4)))[0] is first and len(computed) == 5

    def test_interleaved_forwards_match_fresh_layers(self, computed):
        # forwards A, B, A on one layer, then both backwards, against a fresh layer for each forward;
        # A is kept and served again, B computes
        gru, x_a, sizes, _, grad_a = memo_case(False)
        rng = np.random.default_rng(22)
        x_b, grad_b = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        fresh_a, fresh_b, reference = copied_layer(gru), copied_layer(gru), copied_layer(gru)
        gru.params.zero_grads()
        first, cache_a = gru.forward(x_a, sizes)
        hs_b, cache_b = gru.forward(x_b)
        hs_a, cache_a = gru.forward(x_a, sizes)
        assert len(computed) == 2 and hs_a is first
        grads = [gru.backward(grad_a, cache_a), gru.backward(grad_b, cache_b)]
        ref_a, ref_b = fresh_a.forward(x_a, sizes), fresh_b.forward(x_b)
        ref_grads = [reference.backward(grad_a, ref_a[1]), reference.backward(grad_b, ref_b[1])]
        assert_same_bits([hs_a, hs_b, *grads], [ref_a[0], ref_b[0], *ref_grads])
        assert_same_bits([gru.w.grad, gru.u.grad, gru.b.grad], [reference.w.grad, reference.u.grad, reference.b.grad])

    def test_gradient_check_is_mostly_served_from_the_memo(self, monkeypatch):
        # each loss call runs the three principles GRUs once, unless the check serves the
        # pipeline's whole forward; either way at most 30% of those runs compute
        from jamofuse.pipeline import Pipeline, PipelineConfig
        from jamofuse.subchar import SCHEME_NAMES
        from jamofuse.subword import train_vocab

        text = "하다"
        vocab, computed = train_vocab([text], 16, mode="charlist"), count_computes(monkeypatch)
        for scheme in SCHEME_NAMES:
            pipe = Pipeline(PipelineConfig(scheme=scheme, dim=4, fusion="summation"), vocab, 0)
            computed.clear()
            report = check_pipeline(pipe, text, 0)
            loss_calls = 2 * report.coords_checked + 1
            assert report.max_rel_error < TOL and loss_calls > 1000, scheme
            assert len(computed) <= 0.3 * 3 * loss_calls, (scheme, len(computed), loss_calls)


class TestConv2x1:
    def test_selector_kernel_returns_top_row(self):
        conv = Conv2x1(3, np.random.default_rng(0))
        conv.kernel.data[0] = np.eye(3)
        conv.kernel.data[1] = 0.0
        conv.bias.data[:] = 0.0
        a, b = np.random.default_rng(1).standard_normal((2, 5, 3))
        out, _ = conv.forward(a, b)
        assert out.shape == (5, 3)
        assert np.allclose(out, a)

    def test_mean_kernel_returns_row_mean(self):
        conv = Conv2x1(3, np.random.default_rng(0))
        conv.kernel.data[0] = 0.5 * np.eye(3)
        conv.kernel.data[1] = 0.5 * np.eye(3)
        conv.bias.data[:] = 0.0
        a, b = np.random.default_rng(1).standard_normal((2, 4, 3))
        out, _ = conv.forward(a, b)
        assert np.allclose(out, (a + b) / 2)

    def test_rows_of_unequal_shape_rejected(self):
        conv = Conv2x1(3, np.random.default_rng(0))
        # unequal lengths, unequal widths, then two equal rows of the wrong width or rank
        for shapes in [((4, 3), (5, 3)), ((4, 3), (4, 2)), ((4, 2), (4, 2)), ((2, 4, 3), (2, 4, 3))]:
            with pytest.raises(ShapeError, match="conv_2x1 needs two"):
                conv.forward(*(np.ones(shape) for shape in shapes))

    def test_gradient(self):
        rng = np.random.default_rng(13)
        conv = Conv2x1(3, rng)
        a, b = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((4, 3)))
        r = rng.standard_normal((4, 3))

        def loss_fn(with_grad):
            out, cache = conv.forward(a.data, b.data)
            if with_grad:
                grad_a, grad_b = conv.backward(r, cache)
                a.accumulate(grad_a)
                b.accumulate(grad_b)
            return float((out * r).sum())

        check_layer_grads(conv, loss_fn, extra_inputs=[a, b])


class TestCrossAttention:
    def test_single_key_degeneracy(self):
        # texts of one row each: every query has one key, whatever the query
        rng = np.random.default_rng(2)
        attn = CrossAttention(4, rng)
        kv = np.repeat(rng.standard_normal((1, 4)), 3, axis=0)
        q_any = rng.standard_normal((3, 4))
        out, cache = attn.forward(q_any, kv, [0, 1, 2, 3])
        projected_value = (
            kv[:1] @ attn.params["w_v"].data + attn.params["b_v"].data
        ) @ attn.params["w_o"].data + attn.params["b_o"].data
        assert np.allclose(out, np.repeat(projected_value, 3, axis=0))
        assert np.allclose(cache.attn, 1.0)

    def test_dominant_logit_selects_value_row(self):
        attn = CrossAttention(4, np.random.default_rng(0))
        for name in ("q", "k", "v", "o"):
            attn.params[f"w_{name}"].data = np.eye(4)
            attn.params[f"b_{name}"].data[:] = 0.0
        kv = np.eye(4)  # orthogonal keys; values = same basis rows
        pick = [1, 2, 3, 0]
        q = 50.0 * np.eye(4)[pick]  # query i points at key pick[i]
        out, _ = attn.forward(q, kv)
        assert np.allclose(out, kv[pick], atol=1e-8)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        attn = CrossAttention(6, rng, heads=2)
        _, cache = attn.forward(rng.standard_normal((5, 6)), rng.standard_normal((5, 6)))
        assert np.abs(cache.attn[0].sum(axis=-1) - 1.0).max() < 1e-12

    def test_head_divisibility_enforced(self):
        with pytest.raises(ShapeError):
            CrossAttention(5, np.random.default_rng(0), heads=2)

    def test_residual_adds_queries(self):
        rng = np.random.default_rng(6)
        plain = CrossAttention(4, rng)
        res = CrossAttention(4, np.random.default_rng(6), residual=True)
        q = np.random.default_rng(1).standard_normal((3, 4))
        kv = np.random.default_rng(2).standard_normal((3, 4))
        out_plain, _ = plain.forward(q, kv)
        out_res, _ = res.forward(q, kv)
        assert np.allclose(out_res, out_plain + q)

    @pytest.mark.parametrize("heads,residual", [(1, False), (2, False), (1, True)])
    def test_gradient(self, heads, residual):
        rng = np.random.default_rng(17)
        attn = CrossAttention(4, rng, heads=heads, residual=residual)
        q = Tensor(rng.standard_normal((4, 4)))
        kv = Tensor(rng.standard_normal((4, 4)))
        r = rng.standard_normal((4, 4))

        def loss_fn(with_grad):
            out, cache = attn.forward(q.data, kv.data)
            if with_grad:
                grad_q, grad_kv = attn.backward(r, cache)
                q.accumulate(grad_q)
                kv.accumulate(grad_kv)
            return float((out * r).sum())

        check_layer_grads(attn, loss_fn, extra_inputs=[q, kv])


class TestPaddedCrossAttention:
    """The batch form: flat rows of several texts, each text attending only to its own
    rows, one unmasked attention per row count."""

    OFFSETS = [0, 3, 3, 4, 8]  # texts of 3, 0, 1 and 4 rows: three row counts

    @pytest.mark.parametrize("residual", [False, True])
    def test_gradient_with_mask(self, residual):
        rng = np.random.default_rng(23)
        attn = CrossAttention(4, rng, heads=2, residual=residual)
        q = Tensor(rng.standard_normal((8, 4)))
        kv = Tensor(rng.standard_normal((8, 4)))
        r = rng.standard_normal((8, 4))

        def loss_fn(with_grad):
            out, cache = attn.forward(q.data, kv.data, self.OFFSETS)
            assert [a.shape for a in cache.attn] == [(1, 2, 1, 1), (1, 2, 3, 3), (1, 2, 4, 4)]
            if with_grad:
                grad_q, grad_kv = attn.backward(r, cache)
                q.accumulate(grad_q)
                kv.accumulate(grad_kv)
            return float((out * r).sum())

        check_layer_grads(attn, loss_fn, extra_inputs=[q, kv])

    def test_texts_do_not_see_each_other(self):
        rng = np.random.default_rng(4)
        attn = CrossAttention(6, rng, heads=2)
        q, kv = rng.standard_normal((8, 6)), rng.standard_normal((8, 6))
        out, cache = attn.forward(q, kv, self.OFFSETS)
        for a in cache.attn:
            assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-12
        kv2 = kv.copy()
        kv2[4:] += 1.0  # the last text's keys and values
        out2, _ = attn.forward(q, kv2, self.OFFSETS)
        assert np.abs(out2[:4] - out[:4]).max() <= 1e-12
        assert np.abs(out2[4:] - out[4:]).max() > 1e-3

    def test_equal_lengths_take_no_padding(self):
        rng = np.random.default_rng(8)
        attn = CrossAttention(4, rng, heads=2)
        q, kv = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        _, cache = attn.forward(q, kv, [0, 3, 3, 6])
        assert cache.order is None and [a.shape for a in cache.attn] == [(2, 2, 3, 3)]
        one, cache = attn.forward(q, kv, np.array([0, 6]))
        assert np.array_equal(one, attn.forward(q, kv)[0])  # one text is the call without offsets, bit for bit

    @pytest.mark.parametrize("offsets", [[0, 3], [1, 4], [0, 4, 3, 4], [0], []])
    def test_offsets_must_split_the_rows(self, offsets):
        attn = CrossAttention(4, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="offsets"):
            attn.forward(np.ones((4, 4)), np.ones((4, 4)), offsets)

    def test_batch_needs_one_key_row_per_query_row(self):
        attn = CrossAttention(4, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="one key row per query row"):
            attn.forward(np.ones((4, 4)), np.ones((3, 4)), [0, 4])
