import os

import numpy as np
import pytest

from jamofuse import gradcheck, pipeline, subword, tensor
from jamofuse.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_into,
    save_checkpoint,
    write_atomic,
)
from jamofuse.gradcheck import ConfigError, grad_check
from jamofuse.layers import Conv2x1, CrossAttention, Embedding, GRULayer, Linear
from jamofuse.optim import AdamConfig, AdamW, cosine_lr
from jamofuse.pipeline import Pipeline, PipelineConfig
from jamofuse.subword import train_vocab
from jamofuse.tensor import ParamGroup, ShapeError, Tensor, uniform_init

OP_TOL = 1e-6
SEEDS = range(10)


def run_op_check(make_tensors, op, seed):
    """Gradient-check one op: loss = sum(r * out) for a fixed random r.

    op(tensors) returns (out, backward); backward(r) accumulates the analytic
    gradients into whichever of the tensors the check covers.
    """
    rng = np.random.default_rng(seed)
    tensors = make_tensors(rng)
    out0, _ = op(tensors)
    r = rng.standard_normal(out0.shape)

    def loss_fn(with_grad):
        out, backward = op(tensors)
        if with_grad:
            backward(r)
        return float((out * r).sum())

    report = grad_check(loss_fn, list(tensors.items()))
    assert report.max_rel_error < OP_TOL, str(report)


def rand_tensor(rng, shape):
    return Tensor(rng.standard_normal(shape))


def fusion_pipeline(fusion, seed):
    vocab = train_vocab(["대한 민국"], 20, mode="wordlist")
    return Pipeline.build(PipelineConfig(dim=3, fusion=fusion), vocab, seed=seed)


def linear_op(lin, x):
    def op(_):
        out, cache = lin.forward(x.data)

        def backward(g):
            x.accumulate(lin.backward(g, cache))

        return out, backward

    return op


def gru_op(gru, x):
    def op(_):
        hs, cache = gru.forward(x)
        return hs, lambda g: gru.backward(g, cache)

    return op


def gru_params(gru, names):
    return {name: gru.params[name] for name in names}


def fuse_op(pipe):
    def op(t):
        out, cache = pipe.fuse(t["e_s"].data, t["h_s"].data)

        def backward(g):
            grad_e, grad_h = pipe.backward_fuse(g, cache)
            t["e_s"].accumulate(grad_e)
            t["h_s"].accumulate(grad_h)

        return out, backward

    return op


class TestCoreOpShapes:
    """Shape laws of the core ops, in the layers and the fusion step that compute them."""

    def test_matmul_shape_law(self):
        out, _ = Linear(3, 4, np.random.default_rng(0)).forward(np.ones((2, 3)))
        assert out.shape == (2, 4)

    def test_matmul_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            Linear(4, 2, np.random.default_rng(0)).forward(np.ones((2, 3)))

    def test_add_mismatch_rejected(self):
        pipe = fusion_pipeline("summation", seed=0)
        with pytest.raises(ShapeError):
            pipe.fuse(np.ones((2, 3)), np.ones((3, 3)))

    def test_softmax_of_zeros_is_uniform(self):
        attn = CrossAttention(2, np.random.default_rng(0))
        attn.params["w_q"].data[:] = 0.0
        attn.params["b_q"].data[:] = 0.0
        _, cache = attn.forward(np.ones((1, 2)), np.random.default_rng(1).standard_normal((2, 2)))
        assert np.allclose(cache.attn, [[[0.5, 0.5]]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        attn = CrossAttention(4, rng)
        _, cache = attn.forward(rng.standard_normal((5, 4)) * 30.0, rng.standard_normal((9, 4)) * 30.0)
        assert np.abs(cache.attn.sum(axis=-1) - 1.0).max() < 1e-12

    def test_gather_rows_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            Embedding(3, 2, np.random.default_rng(0)).forward([0, 3])

    def test_accumulate_rejects_wrong_shape(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            x.accumulate(np.ones(3))


class TestCoreOpGradients:
    """Seeded 1e-6 gradient checks of each core op's hand-written backward,
    isolated to the tensors that reach the loss through that op."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        lin = Linear(4, 2, rng)
        a = rand_tensor(rng, (3, 4))
        run_op_check(lambda _: {"a": a, "b": lin.w}, linear_op(lin, a), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_same_shape(self, seed):
        pipe = fusion_pipeline("summation", seed)
        run_op_check(
            lambda rng: {"e_s": rand_tensor(rng, (3, 3)), "h_s": rand_tensor(rng, (3, 3))},
            fuse_op(pipe),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_row_broadcast(self, seed):
        rng = np.random.default_rng(seed)
        lin = Linear(3, 4, rng)
        x = rand_tensor(rng, (3, 3))
        run_op_check(lambda _: {"b": lin.b}, linear_op(lin, x), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sigmoid(self, seed):
        rng = np.random.default_rng(seed)
        gru = GRULayer(3, rng)
        x = rng.standard_normal((3, 3))
        gates = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r")
        run_op_check(lambda _: gru_params(gru, gates), gru_op(gru, x), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tanh(self, seed):
        rng = np.random.default_rng(seed)
        gru = GRULayer(3, rng)
        x = rng.standard_normal((3, 3))
        run_op_check(lambda _: gru_params(gru, ("w_n", "u_n", "b_n")), gru_op(gru, x), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax(self, seed):
        rng = np.random.default_rng(seed)
        attn = CrossAttention(4, rng)
        q_in, kv = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))

        def op(_):
            out, cache = attn.forward(q_in, kv)
            return out, lambda g: attn.backward(g, cache)

        # the query and key projections reach the loss only through the softmax
        run_op_check(lambda _: {"w_q": attn.params["w_q"], "w_k": attn.params["w_k"]}, op, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat(self, seed):
        pipe = fusion_pipeline("concatenation", seed)
        run_op_check(
            lambda rng: {"e_s": rand_tensor(rng, (2, 3)), "h_s": rand_tensor(rng, (2, 3))},
            fuse_op(pipe),
            seed,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stack(self, seed):
        conv = Conv2x1(2, np.random.default_rng(seed))

        def op(t):
            out, cache = conv.forward(np.stack([t["a"].data, t["b"].data]))

            def backward(g):
                grad = conv.backward(g, cache)
                t["a"].accumulate(grad[0])
                t["b"].accumulate(grad[1])

            return out, backward

        run_op_check(lambda rng: {"a": rand_tensor(rng, (3, 2)), "b": rand_tensor(rng, (3, 2))}, op, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gather_rows_with_duplicates(self, seed):
        emb = Embedding(4, 3, np.random.default_rng(seed))

        def op(_):
            out, cache = emb.forward([0, 2, 2, 1])
            return out, lambda g: emb.backward(g, cache)

        run_op_check(lambda _: {"x": emb.table}, op, seed)


class TestTensor:
    def test_one_config_error_type(self):
        assert tensor.ConfigError is pipeline.ConfigError is subword.ConfigError is gradcheck.ConfigError


class TestGradCheck:
    def test_sum_of_squares_is_exact(self):
        theta = Tensor(np.array([1.0, -2.0, 0.5]))

        def loss_fn(with_grad):
            if with_grad:
                theta.accumulate(2.0 * theta.data)
            return float((theta.data**2).sum())

        report = grad_check(loss_fn, [("theta", theta)])
        assert report.max_rel_error < 1e-10

    def test_zero_eps_rejected(self):
        with pytest.raises(ConfigError):
            grad_check(lambda with_grad: 0.0, [], eps=0.0)

    def test_report_locates_worst_coordinate(self):
        theta = Tensor(np.array([1.0, 2.0]))

        def loss_fn(with_grad):
            if with_grad:
                theta.accumulate(np.array([2.0 * theta.data[0], 0.0]))  # wrong for index 1
            return float((theta.data**2).sum())

        report = grad_check(loss_fn, [("theta", theta)])
        assert report.worst_param == "theta"
        assert report.worst_index == (1,)
        assert report.max_rel_error > 0.9


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        params = ParamGroup()
        params.add("w", Tensor(np.array([1.0, -2.0]), trainable=True))
        before = params["w"].data.copy()
        AdamW(params).step()
        assert np.array_equal(params["w"].data, before)

    def test_single_step_moves_by_learning_rate(self):
        params = ParamGroup()
        w = params.add("w", Tensor(np.array([1.0]), trainable=True))
        w.accumulate(np.array([1.0]))
        AdamW(params, AdamConfig(lr=0.1)).step()
        assert w.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_shrinks_weights(self):
        params = ParamGroup()
        w = params.add("w", Tensor(np.array([2.0]), trainable=True))
        AdamW(params, AdamConfig(lr=0.1, weight_decay=0.5)).step()
        assert w.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_non_trainable_params_untouched(self):
        params = ParamGroup()
        frozen = params.add("frozen", Tensor(np.array([3.0]), trainable=False))
        frozen.accumulate(np.array([1.0]))
        AdamW(params, AdamConfig(lr=0.1)).step()
        assert frozen.data[0] == 3.0


class TestCosineLR:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1.0) == pytest.approx(1.0)
        assert cosine_lr(100, 100, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert cosine_lr(50, 100, 1.0, min_lr=0.2) == pytest.approx(0.6)

    def test_degenerate_total_returns_base(self):
        assert cosine_lr(0, 0, 0.5) == 0.5


class TestParamGroup:
    def test_iteration_order_is_insertion_order(self):
        params = ParamGroup()
        rng = np.random.default_rng(0)
        for name in ("zeta", "alpha", "mid"):
            params.add(name, Tensor(uniform_init(rng, (2, 2), 2), trainable=True))
        assert params.names() == ["zeta", "alpha", "mid"]

    def test_duplicate_name_rejected(self):
        params = ParamGroup()
        params.add("w", Tensor(np.zeros(1), trainable=True))
        with pytest.raises(ValueError):
            params.add("w", Tensor(np.zeros(1), trainable=True))

    def test_seeded_init_is_reproducible(self):
        a = uniform_init(np.random.default_rng(42), (4, 4), 4)
        b = uniform_init(np.random.default_rng(42), (4, 4), 4)
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= 0.5


def small_params(seed=3) -> ParamGroup:
    params = ParamGroup()
    rng = np.random.default_rng(seed)
    params.add("emb.table", Tensor(uniform_init(rng, (5, 3), 3), trainable=True))
    params.add("head.w", Tensor(uniform_init(rng, (3, 2), 2), trainable=True))
    params.add("head.b", Tensor(np.zeros(2), trainable=True))
    return params


class TestCheckpoint:
    def test_roundtrip_preserves_values_and_order(self, tmp_path):
        params = small_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, seed=11, config={"dim": 3, "scheme": "jamo"})
        ckpt = load_checkpoint(path)
        assert ckpt.seed == 11
        assert ckpt.config == {"dim": 3, "scheme": "jamo"}
        assert ckpt.names == params.names()
        for name, t in params.items():
            assert np.array_equal(ckpt.tensors[name], t.data)

    def test_load_into_restores_mutated_params(self, tmp_path):
        params = small_params()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, seed=0, config={})
        saved = {name: t.data.copy() for name, t in params.items()}
        for _, t in params.items():
            t.data += 1.0
        load_into(params, path)
        for name, t in params.items():
            assert np.array_equal(t.data, saved[name])

    def test_name_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, small_params(), seed=0, config={})
        other = ParamGroup()
        other.add("different", Tensor(np.zeros(2), trainable=True))
        with pytest.raises(CheckpointError):
            load_into(other, path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, small_params(), seed=0, config={})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_save_is_byte_identical_across_runs(self, tmp_path):
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, small_params(), seed=5, config={"fusion": "summation"})
        save_checkpoint(p2, small_params(), seed=5, config={"fusion": "summation"})
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_different_config_changes_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, small_params(), seed=5, config={"fusion": "summation"})
        save_checkpoint(p2, small_params(), seed=5, config={"fusion": "concat"})
        assert open(p1, "rb").read() != open(p2, "rb").read()

    def test_failed_write_keeps_old_bytes_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(target, b"new\n")
        assert target.read_bytes() == b"old\n"
        assert list(tmp_path.glob(".jamofuse-*.tmp")) == []
