import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamofuse.gradcheck import grad_check
from jamofuse.pipeline import (
    COMPRESSIONS,
    FUSIONS,
    ConfigError,
    Pipeline,
    PipelineConfig,
    PipelineParams,
    embeddings_csv,
)
from jamofuse.subchar import ROLE_OTHER, SCHEME_NAMES, SubcharScheme
from jamofuse.subword import AlignmentError, BoundaryMap, train_vocab
from jamofuse.tensor import ShapeError


def small_vocab():
    return train_vocab(["했다 한 하다", "대한 민국", "ab 하!"], 60)


def pair_vocab():
    # wordlist mode keeps 대한 and 민국 as separate whole-word entries
    return train_vocab(["대한 민국"], 20, mode="wordlist")


def build(vocab=None, **overrides):
    cfg = PipelineConfig(**{"dim": 6, **overrides})
    return Pipeline.build(cfg, vocab if vocab is not None else small_vocab(), seed=11)


def zero_non_embedding_params(pipe):
    for name, tensor in pipe.params.group.items():
        if not name.startswith(("subchar_emb", "subword_emb")):
            tensor.data[...] = 0.0


def _reference_stage1(self, e, seq):
    """The per-character stage 1 that Pipeline.stage1_subchar_to_char replaced, kept as the reference."""
    p = self.params
    w = self.tokenizer.scheme.width
    wi, wv, _ = self.tokenizer.scheme.widths
    n, d = e.shape
    if n % w != 0:
        raise ShapeError(f"token count {n} is not a multiple of width {w}")
    c = n // w

    h, seq_cache = p.gru_seq.forward(e)

    starts = range(0, n, w)
    passthrough = [seq.roles[s] == ROLE_OTHER for s in starts]
    x_iv = np.zeros((c, d))
    h_f = np.zeros((c, d))
    for k, s in enumerate(starts):
        if passthrough[k]:
            x_iv[k] = h[s]
        else:
            x_iv[k] = h[s : s + wi].sum(axis=0) + h[s + wi : s + wi + wv].sum(axis=0)
            h_f[k] = h[s + wi + wv : s + w].sum(axis=0)

    h_iv, iv_cache = p.gru_iv.forward(x_iv)
    stacked = np.stack([h_iv, h_f])
    conv_out, conv_cache = p.conv.forward(stacked)
    h_c = conv_out[0].copy()
    for k, s in enumerate(starts):
        if passthrough[k]:
            h_c[k] = h[s]
    return h_c, (seq_cache, iv_cache, conv_cache, starts, passthrough, n)


def _reference_backward_stage1(self, grad_hc, cache):
    """The per-character stage 1 backward that Pipeline.backward_stage1 replaced, kept as the reference."""
    seq_cache, iv_cache, conv_cache, starts, passthrough, token_count = cache
    p = self.params
    w = self.tokenizer.scheme.width
    wi, wv, _ = self.tokenizer.scheme.widths
    d = grad_hc.shape[1]

    grad_h = np.zeros((token_count, d))
    grad_pooled = grad_hc.copy()
    for k, s in enumerate(starts):
        if passthrough[k]:
            grad_h[s] += grad_hc[k]
            grad_pooled[k] = 0.0

    grad_stacked = p.conv.backward(grad_pooled[None, :, :], conv_cache)
    grad_xiv, _ = p.gru_iv.backward(grad_stacked[0], iv_cache)
    grad_hf = grad_stacked[1]
    for k, s in enumerate(starts):
        if passthrough[k]:
            grad_h[s] += grad_xiv[k]
        else:
            grad_h[s : s + wi] += grad_xiv[k]
            grad_h[s + wi : s + wi + wv] += grad_xiv[k]
            grad_h[s + wi + wv : s + w] += grad_hf[k]
    grad_e, _ = p.gru_seq.backward(grad_h, seq_cache)
    return grad_e


def _reference_compress_attention(self, e, ranges):
    """The per-unit attention pooling that Pipeline.compress_attention replaced, kept as the reference."""
    p = self.params
    w = self.tokenizer.scheme.width
    d = e.shape[1]
    scale = 1.0 / np.sqrt(d)
    q = p.attn_query.data
    out = np.zeros((len(ranges), d))
    units = []
    for u, (a, b) in enumerate(ranges):
        span = (a * w, b * w)
        window = e[span[0] : span[1]]
        logits = window @ q * scale
        shifted = np.exp(logits - logits.max())
        alpha = shifted / shifted.sum()
        values, value_cache = p.attn_value.forward(window)
        out[u] = alpha @ values
        units.append((span, alpha, window, values, value_cache))
    return out, units


def _reference_backward_compress_attention(self, grad_hs, units, token_count):
    """The per-unit backward that Pipeline.backward_compress_attention replaced, kept as the reference."""
    p = self.params
    d = grad_hs.shape[1]
    scale = 1.0 / np.sqrt(d)
    q = p.attn_query.data
    grad_e = np.zeros((token_count, d))
    grad_q = np.zeros(d)
    for g, (span, alpha, window, values, value_cache) in zip(grad_hs, units):
        d_values = np.outer(alpha, g)
        d_alpha = values @ g
        d_logits = alpha * (d_alpha - float(d_alpha @ alpha))
        grad_window = p.attn_value.backward(d_values, value_cache)
        grad_window = grad_window + np.outer(d_logits, q) * scale
        grad_q += window.T @ d_logits * scale
        grad_e[span[0] : span[1]] += grad_window
    p.attn_query.accumulate(grad_q)
    return grad_e


# Passthrough-heavy: ASCII, digits, punctuation, spaces and bare jamo next to syllables.
REFERENCE_TEXTS = ["했다", "a하 1!", "ab", "ㄱ a ㅏ", "대한 민국?", "x", "12 했", " 하 "]


def _run_stage(pipe, forward, backward, text, seed):
    """One forward and backward of a compression stage; returns (output, grad_e, parameter grads)."""
    seq = pipe.tokenizer.tokenize(text)
    e, _ = pipe.embed_subchars(seq)
    pipe.params.group.zero_grads()
    out, cache = forward(e, seq)
    grad_e = backward(np.random.default_rng(seed).normal(size=out.shape), cache)
    grads = {name: t.grad for name, t in pipe.params.group.items() if t.grad is not None}
    return out, grad_e, grads


class TestPipelineConfig:
    def test_defaults_validate(self):
        cfg = PipelineConfig().validate()
        assert cfg.scheme == "jamo" and cfg.compression == "principles"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scheme": "hanja"},
            {"compression": "pooling"},
            {"fusion": "gating"},
            {"granularity": "sentence"},
            {"dim": 0},
            {"heads": 3},
            {"heads": 0},
            {"dim": "16"},
            {"heads": 1.0},
            {"cls_bypass": "yes"},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            PipelineConfig(**{"dim": 16, **overrides}).validate()

    def test_dict_roundtrip(self):
        cfg = PipelineConfig(scheme="bts", dim=8, fusion="summation", cls_bypass=True)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_dict({"dim": 8, "dropout": 0.1})


class TestParamLayout:
    def test_principles_parameter_order(self):
        pipe = build()
        names = pipe.params.group.names()
        prefixes = []
        for name in names:
            prefix = name.split(".")[0]
            if prefix not in prefixes:
                prefixes.append(prefix)
        assert prefixes == ["subchar_emb", "subword_emb", "gru_seq", "gru_iv", "conv", "gru_char", "fuse_attn"]

    def test_linear_and_attention_layouts(self):
        linear_names = build(compression="linear").params.group.names()
        assert "compress_linear.w" in linear_names
        assert not any(n.startswith("gru_") for n in linear_names)
        attn_names = build(compression="attention").params.group.names()
        assert "compress_attn.query" in attn_names and "compress_attn.value.w" in attn_names

    def test_summation_adds_no_fusion_params(self):
        names = build(fusion="summation").params.group.names()
        assert not any(n.startswith(("fuse_attn", "fuse_proj")) for n in names)

    def test_param_name_sets_distinct_across_modes(self):
        seen = set()
        for compression, fusion in itertools.product(COMPRESSIONS, FUSIONS):
            names = tuple(build(compression=compression, fusion=fusion).params.group.names())
            assert names not in seen
            seen.add(names)

    def test_shared_prefix_init_is_seed_stable(self):
        a = build(compression="principles").params.subchar_emb.table.data
        b = build(compression="linear").params.subchar_emb.table.data
        assert np.array_equal(a, b)

    def test_mismatched_tokenizer_rejected(self):
        vocab = small_vocab()
        params = PipelineParams(PipelineConfig(scheme="bts", dim=6), 151, vocab.size, seed=1)
        from jamofuse.subchar import SubcharTokenizer

        with pytest.raises(ConfigError, match="scheme"):
            Pipeline(SubcharTokenizer("jamo"), vocab, params)


class TestStage1:
    def test_jamo_width_shape_law(self):
        pipe = build(scheme="jamo")
        seq = pipe.tokenizer.tokenize("대한민국")
        e, _ = pipe.embed_subchars(seq)
        assert e.shape == (12, 6)
        h_c, _ = pipe.stage1_subchar_to_char(e, seq)
        assert h_c.shape == (4, 6)

    def test_bts_width_shape_law(self):
        pipe = build(scheme="bts")
        seq = pipe.tokenizer.tokenize("대한민국")
        e, _ = pipe.embed_subchars(seq)
        assert e.shape == (52, 6)
        h_c, _ = pipe.stage1_subchar_to_char(e, seq)
        assert h_c.shape == (4, 6)

    def test_zero_params_give_zero_char_states(self):
        pipe = build()
        zero_non_embedding_params(pipe)
        seq = pipe.tokenizer.tokenize("했다")
        e, _ = pipe.embed_subchars(seq)
        h_c, _ = pipe.stage1_subchar_to_char(e, seq)
        assert np.allclose(h_c, 0.0)

    def test_passthrough_char_keeps_sequence_state(self):
        pipe = build()
        seq = pipe.tokenizer.tokenize("a하")
        e, _ = pipe.embed_subchars(seq)
        h, _ = pipe.params.gru_seq.forward(e)
        h_c, _ = pipe.stage1_subchar_to_char(e, seq)
        w = pipe.tokenizer.scheme.width
        assert np.array_equal(h_c[0], h[0])
        assert not np.allclose(h_c[1], h[w])

    def test_partial_window_rejected(self):
        pipe = build()
        seq = pipe.tokenizer.tokenize("하다")
        with pytest.raises(ShapeError, match="multiple"):
            pipe.stage1_subchar_to_char(np.zeros((5, 6)), seq)


class TestStage2:
    def test_last_selection_matches_direct_gru(self):
        pipe = build()
        h_c = np.random.default_rng(0).normal(size=(4, 6))
        h_s, _ = pipe.stage2_char_to_unit(h_c, [1, 3])
        states, _ = pipe.params.gru_char.forward(h_c)
        assert np.array_equal(h_s, states[[1, 3]])

    def test_selection_out_of_range(self):
        pipe = build()
        with pytest.raises(ShapeError, match="out of range"):
            pipe.stage2_char_to_unit(np.zeros((2, 6)), [2])


class TestCompressLinear:
    def test_averaging_projection_gives_char_means(self):
        pipe = build(compression="linear")
        w, d = 3, 6
        pipe.params.char_proj.w.data[...] = np.vstack([np.eye(d) / w] * w)
        pipe.params.char_proj.b.data[...] = 0.0
        seq = pipe.tokenizer.tokenize("하다")
        e, _ = pipe.embed_subchars(seq)
        h_s, _ = pipe.compress_linear(e, [0, 1])
        expected = np.stack([e[0:3].mean(axis=0), e[3:6].mean(axis=0)])
        assert np.allclose(h_s, expected, atol=1e-12)


class TestCompressAttention:
    def test_zero_query_averages_value_rows(self):
        pipe = build(compression="attention")
        pipe.params.attn_query.data[...] = 0.0
        seq = pipe.tokenizer.tokenize("하다")
        e, _ = pipe.embed_subchars(seq)
        out, cache = pipe.compress_attention(e, [(0, 2)])
        values, _ = pipe.params.attn_value.forward(e)
        assert np.allclose(out[0], values.mean(axis=0), atol=1e-12)
        assert np.allclose(cache.alpha[0:6].sum(), 1.0, atol=1e-12)

    def test_weights_are_a_distribution_per_unit(self):
        pipe = build(compression="attention")
        seq = pipe.tokenizer.tokenize("했다한")
        e, _ = pipe.embed_subchars(seq)
        _, cache = pipe.compress_attention(e, [(0, 2), (2, 3)])
        alphas = [cache.alpha[a:b] for a, b in cache.spans]
        for alpha in alphas:
            assert (alpha > 0).all()
            assert abs(alpha.sum() - 1.0) < 1e-12
        assert alphas[0].shape == (6,) and alphas[1].shape == (3,)


class TestReferenceEquivalence:
    """Whole-array stage 1 and attention pooling against the per-character and per-unit loops they replaced."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_stage1_bitwise_equal(self, scheme, seed):
        pipe = Pipeline.build(PipelineConfig(scheme=scheme, dim=6), small_vocab(), seed=seed)
        for text in REFERENCE_TEXTS:
            new = _run_stage(pipe, pipe.stage1_subchar_to_char, pipe.backward_stage1, text, seed)
            ref = _run_stage(
                pipe,
                lambda e, seq: _reference_stage1(pipe, e, seq),
                lambda g, cache: _reference_backward_stage1(pipe, g, cache),
                text,
                seed,
            )
            (h_c, grad_e, grads), (h_c_ref, grad_e_ref, grads_ref) = new, ref
            assert np.array_equal(h_c, h_c_ref), text
            assert np.array_equal(grad_e, grad_e_ref), text
            assert grads.keys() == grads_ref.keys()
            assert {name.split(".")[0] for name in grads} == {"gru_seq", "gru_iv", "conv"}
            for name in grads:
                assert np.array_equal(grads[name], grads_ref[name]), (text, name)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_attention_pooling_matches(self, scheme, seed):
        pipe = Pipeline.build(PipelineConfig(scheme=scheme, dim=6, compression="attention"), small_vocab(), seed=seed)
        for text in REFERENCE_TEXTS:
            _, ranges = pipe.unit_ranges(text)
            token_count = len(pipe.tokenizer.tokenize(text))
            new = _run_stage(
                pipe,
                lambda e, seq: pipe.compress_attention(e, ranges),
                pipe.backward_compress_attention,
                text,
                seed,
            )
            ref = _run_stage(
                pipe,
                lambda e, seq: _reference_compress_attention(pipe, e, ranges),
                lambda g, units: _reference_backward_compress_attention(pipe, g, units, token_count),
                text,
                seed,
            )
            (out, grad_e, grads), (out_ref, grad_e_ref, grads_ref) = new, ref
            assert np.abs(out - out_ref).max() <= 1e-12, text
            assert np.abs(grad_e - grad_e_ref).max() <= 1e-12, text
            assert grads.keys() == grads_ref.keys() and len(grads) == 3
            for name in grads:
                assert np.abs(grads[name] - grads_ref[name]).max() <= 1e-12, (text, name)


class TestFuse:
    def test_summation_is_exact_addition(self):
        pipe = build(fusion="summation")
        rng = np.random.default_rng(4)
        e_s, h_s = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        fused, _ = pipe.fuse(e_s, h_s)
        assert np.array_equal(fused, e_s + h_s)
        neutral, _ = pipe.fuse(e_s, np.zeros_like(h_s))
        assert np.array_equal(neutral, e_s)

    @pytest.mark.parametrize("fusion", ["cross-attention", "concatenation"])
    def test_learned_fusions_are_not_neutral_at_zero(self, fusion):
        pipe = build(fusion=fusion)
        e_s = np.random.default_rng(4).normal(size=(3, 6))
        fused, _ = pipe.fuse(e_s, np.zeros_like(e_s))
        assert not np.allclose(fused, e_s)

    def test_concat_identity_selector_recovers_raw_channel(self):
        pipe = build(fusion="concatenation")
        pipe.params.fuse_proj.w.data[...] = np.vstack([np.eye(6), np.zeros((6, 6))])
        pipe.params.fuse_proj.b.data[...] = 0.0
        out, cache = pipe.forward("대한민국")
        assert np.allclose(out, cache.e_S, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="fusion"):
            build().fuse(np.zeros((2, 6)), np.zeros((3, 6)))

    def test_summation_neutrality_is_exclusive_end_to_end(self):
        # with all non-embedding parameters at zero the structured channel
        # vanishes, and only summation then returns the raw channel untouched
        outcomes = {}
        for fusion in FUSIONS:
            pipe = build(fusion=fusion)
            zero_non_embedding_params(pipe)
            out, cache = pipe.forward("했다")
            assert np.allclose(cache.h_S, 0.0)
            outcomes[fusion] = np.array_equal(out, cache.e_S)
        assert outcomes == {"summation": True, "cross-attention": False, "concatenation": False}


class TestForward:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_token_and_unit_shape_law(self, scheme):
        pipe = build(scheme=scheme)
        text = "한국어 ab 시험!"
        out, cache = pipe.forward(text)
        width = SubcharScheme.by_name(scheme).width
        assert len(cache.seq) == width * len(text)
        assert out.shape == (len(cache.ranges), 6)
        assert np.isfinite(out).all()

    def test_unit_selection_indices_follow_boundary(self):
        pipe = build(vocab=pair_vocab())
        out, cache = pipe.forward("대한민국")
        assert cache.ranges == [(0, 2), (2, 4)]
        assert cache.last_indices == [1, 3]
        assert out.shape == (2, 6)

    def test_cls_row_is_bitwise_subchar_embedding(self):
        pipe = build(cls_bypass=True)
        out, cache = pipe.forward("했다")
        cls_row = pipe.params.subchar_emb.table.data[pipe.tokenizer.vocab.cls_id]
        assert np.array_equal(out[0], cls_row)
        assert out.shape[0] == len(cache.ranges) + 1
        assert pipe.unit_labels(cache)[0] == "<cls>"

    def test_empty_text(self):
        out, _ = build().forward("")
        assert out.shape == (0, 6)
        out_cls, cache = build(cls_bypass=True).forward("")
        assert out_cls.shape == (1, 6)
        build(cls_bypass=True).backward(np.ones((1, 6)), cache)

    def test_character_granularity(self):
        out, cache = build(granularity="character").forward("했다")
        assert cache.ranges == [(0, 1), (1, 2)]
        assert out.shape == (2, 6)

    def test_word_granularity_alternates_runs(self):
        pipe = build(granularity="word")
        out, cache = pipe.forward("하  다!")
        assert cache.ranges == [(0, 1), (1, 3), (3, 5)]
        assert pipe.unit_labels(cache) == ["하", "  ", "다!"]

    def test_external_granularity(self):
        pipe = build(granularity="external")
        out, cache = pipe.forward("했다", external_boundary=BoundaryMap([(0, 2)]))
        assert cache.ranges == [(0, 2)] and out.shape == (1, 6)
        with pytest.raises(ConfigError, match="external"):
            pipe.forward("했다")
        for bad in ([(0, 1)], [(1, 2)], [(0, 3)], [(0, 0), (0, 2)]):
            with pytest.raises(AlignmentError):
                pipe.forward("했다", external_boundary=BoundaryMap(bad))

    def test_boundary_map_is_validated_once(self, monkeypatch):
        calls = []
        validate = BoundaryMap.validate
        monkeypatch.setattr(BoundaryMap, "validate", lambda self, n: calls.append(n) or validate(self, n))
        build().forward("하다 했다")
        assert calls == [5]

    def test_forward_is_deterministic(self):
        a, _ = build().forward("한국어 시험")
        b, _ = build().forward("한국어 시험")
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        vocab = small_vocab()
        cfg = PipelineConfig(dim=6)
        a, _ = Pipeline.build(cfg, vocab, seed=1).forward("했다")
        b, _ = Pipeline.build(cfg, vocab, seed=2).forward("했다")
        assert not np.allclose(a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        st.text(
            alphabet=st.one_of(
                st.characters(min_codepoint=0xAC00, max_codepoint=0xAC20),
                st.sampled_from(" ab!"),
            ),
            max_size=8,
        )
    )
    def test_output_rows_always_match_units(self, text):
        pipe = build()
        out, cache = pipe.forward(text)
        assert out.shape == (len(cache.ranges), 6)
        assert np.isfinite(out).all()
        assert BoundaryMap(cache.ranges).char_count == len(text)


class TestBackward:
    @pytest.mark.parametrize(
        "scheme,fusion", list(itertools.product(SCHEME_NAMES, FUSIONS))
    )
    def test_full_gradient_principles(self, scheme, fusion):
        self.check_config(PipelineConfig(scheme=scheme, dim=4, fusion=fusion))

    @pytest.mark.parametrize("compression", ["linear", "attention"])
    def test_full_gradient_flat_compressions(self, compression):
        self.check_config(PipelineConfig(dim=4, compression=compression))
        self.check_config(PipelineConfig(dim=4, compression=compression, cls_bypass=True))

    def test_full_gradient_passthrough_and_cls(self):
        self.check_config(PipelineConfig(dim=4, cls_bypass=True), text="a했 b")

    def check_config(self, cfg, text="했다"):
        pipe = Pipeline.build(cfg, small_vocab(), seed=11)
        out0, _ = pipe.forward(text)
        direction = np.random.default_rng(3).normal(size=out0.shape)

        def loss_fn(with_grad):
            out, cache = pipe.forward(text)
            if with_grad:
                pipe.backward(direction, cache)
            return float((direction * out).sum())

        report = grad_check(loss_fn, pipe.params.group)
        assert report.max_rel_error < 1e-4, str(report)

    def test_grad_shape_checked(self):
        pipe = build()
        _, cache = pipe.forward("했다")
        with pytest.raises(ShapeError, match="output grad"):
            pipe.backward(np.zeros((5, 6)), cache)

    def test_cls_gradient_reaches_subchar_table(self):
        pipe = build(cls_bypass=True)
        out, cache = pipe.forward("했다")
        grad = np.zeros_like(out)
        grad[0] = 1.0
        pipe.params.group.zero_grads()
        pipe.backward(grad, cache)
        table_grad = pipe.params.subchar_emb.table.grad
        cls_id = pipe.tokenizer.vocab.cls_id
        assert np.allclose(table_grad[cls_id], 1.0)


class TestEmbeddingsCsv:
    def test_header_and_rows(self):
        text = embeddings_csv([("하", np.array([0.5, -1.25])), ("<cls>", np.array([0.0, 2.0]))], dim=2)
        lines = text.splitlines()
        assert lines[0] == "token,dim0,dim1"
        assert lines[1] == "하,0.5,-1.25"
        assert len(lines) == 3

    def test_round_trips_through_float(self):
        value = 1.0 / 3.0
        text = embeddings_csv([("x", np.array([value]))], dim=1)
        assert float(text.splitlines()[1].split(",")[1]) == value
