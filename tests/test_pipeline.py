import dataclasses
import itertools
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamofuse import gradcheck, pipeline
from jamofuse.gradcheck import check_pipeline, grad_check
from jamofuse.layers import CrossAttention
from jamofuse.pipeline import (
    COMPRESSIONS,
    FUSIONS,
    ConfigError,
    Pipeline,
    PipelineConfig,
    PipelineParams,
    embeddings_csv,
    pack,
)
from jamofuse.subchar import ROLE_OTHER, SCHEME_NAMES, SubcharScheme, SubcharTokenizer
from jamofuse.subword import AlignmentError, BoundaryMap, train_vocab
from jamofuse.tensor import ShapeError


def small_vocab():
    return train_vocab(["했다 한 하다", "대한 민국", "ab 하!"], 60)


def pair_vocab():
    # wordlist mode keeps 대한 and 민국 as separate whole-word entries
    return train_vocab(["대한 민국"], 20, mode="wordlist")


def build(vocab=None, **overrides):
    cfg = PipelineConfig(**{"dim": 6, **overrides})
    return Pipeline(cfg, vocab if vocab is not None else small_vocab(), seed=11)


def batch_of_one(pipe, seq):
    return pack([seq], pipe.tokenizer.scheme.width)


def stage1_of_rows(pipe, e, seq):
    """Stage 1 of one text whose token rows are e, given as ids into e itself."""
    return pipe.stage1_subchar_to_char(np.arange(len(e)), batch_of_one(pipe, seq), e)


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
    conv_out, conv_cache = p.conv.forward(h_iv, h_f)
    h_c = conv_out.copy()
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

    grad_iv, grad_hf = p.conv.backward(grad_pooled, conv_cache)
    grad_xiv = p.gru_iv.backward(grad_iv, iv_cache)
    for k, s in enumerate(starts):
        if passthrough[k]:
            grad_h[s] += grad_xiv[k]
        else:
            grad_h[s : s + wi] += grad_xiv[k]
            grad_h[s + wi : s + wi + wv] += grad_xiv[k]
            grad_h[s + wi + wv : s + w] += grad_hf[k]
    grad_e = p.gru_seq.backward(grad_h, seq_cache)
    return grad_e


def _reference_compress_linear(self, e, last_indices):
    """The all-character linear compression that Pipeline.forward replaced, kept as the reference:
    every character's token window is projected, then the unit-final ones are kept."""
    w = self.tokenizer.scheme.width
    n, d = e.shape
    per_char, cache = self.params.char_proj.forward(e.reshape(n // w, w * d))
    return per_char[last_indices], cache


def _reference_backward_compress_linear(self, grad_hs, cache, last_indices):
    """The backward of _reference_compress_linear: a zero (chars, d) grid scattered at the unit-final rows."""
    w = self.tokenizer.scheme.width
    c = cache.shape[0]
    grad_char = np.zeros((c, grad_hs.shape[1]))
    np.add.at(grad_char, last_indices, grad_hs)
    grad_flat = self.params.char_proj.backward(grad_char, cache)
    return grad_flat.reshape(c * w, grad_hs.shape[1])


def _linear_through_pipeline(pipe, text, seed):
    """One linear-compression forward and backward through Pipeline with summation fusion.

    Returns (h_S, gradient on every token row, parameter grads) in _run_stage's form;
    the token-row gradient is what Pipeline.backward hands the subcharacter embedding,
    placed at the unit-final characters' rows.
    """
    pipe.params.group.zero_grads()
    _, cache = pipe.forward(text)
    handed = []
    pipe.params.subchar_emb.backward = lambda grad, ids: handed.append(grad)
    try:
        pipe.backward(np.random.default_rng(seed).normal(size=cache.h_S.shape), cache)
    finally:
        del pipe.params.subchar_emb.backward
    w = pipe.tokenizer.scheme.width
    last = np.array([b - 1 for _, b in cache.ranges])
    grad_e = np.zeros((len(cache.seqs[0]), cache.h_S.shape[1]))
    grad_e[(w * last[:, None] + np.arange(w)).ravel()] = handed[0]
    grads = {name: t.grad.copy() for name, t in pipe.params.group.items() if t.grad.any()}
    return cache.h_S, grad_e, grads


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
    e, _ = pipe.params.subchar_emb.forward(seq.tokens)
    pipe.params.group.zero_grads()
    out, cache = forward(e, seq)
    grad_e = backward(np.random.default_rng(seed).normal(size=out.shape), cache)
    # A parameter counts as touched when any of its gradient entries is nonzero.
    grads = {name: t.grad.copy() for name, t in pipe.params.group.items() if t.grad.any()}
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
            {"fusion": "summation", "heads": 2},
            {"fusion": "concatenation", "residual_fusion": True},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            PipelineConfig(**{"dim": 16, **overrides}).validate()

    def test_heads_and_residual_fusion_only_with_cross_attention(self):
        # only CrossAttention reads them, so under another fusion they would be dropped
        for fusion in ("summation", "concatenation"):
            message = f"^heads and residual_fusion apply only to cross-attention fusion, not {fusion}$"
            for overrides in ({"heads": 3}, {"residual_fusion": True}):
                with pytest.raises(ConfigError, match=message):
                    PipelineConfig(dim=4, fusion=fusion, **overrides).validate()
            PipelineConfig(dim=4, fusion=fusion, heads=1, residual_fusion=False).validate()
        with pytest.raises(ConfigError, match="^heads must divide dim, got 3 heads for dim 4$"):
            PipelineConfig(dim=4, heads=3, fusion="cross-attention").validate()
        PipelineConfig(dim=4, heads=2, fusion="cross-attention", residual_fusion=True).validate()

    def test_external_granularity_rejected(self):
        # a text's boundary map is passed to forward, not named by the config
        with pytest.raises(ConfigError, match="unknown granularity 'external'"):
            PipelineConfig(granularity="external").validate()

    def test_dict_roundtrip(self):
        cfg = PipelineConfig(scheme="bts", dim=8, fusion="summation", cls_bypass=True)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_dict({"dim": 8, "dropout": 0.1})


class TestParamLayout:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            PipelineParams(PipelineConfig(dim=4), 10, 10, seed=-1)

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


class TestStage1:
    def test_jamo_width_shape_law(self):
        pipe = build(scheme="jamo")
        seq = pipe.tokenizer.tokenize("대한민국")
        e, _ = pipe.params.subchar_emb.forward(seq.tokens)
        assert e.shape == (12, 6)
        h_c, _ = stage1_of_rows(pipe, e, seq)
        assert h_c.shape == (4, 6)

    def test_bts_width_shape_law(self):
        pipe = build(scheme="bts")
        seq = pipe.tokenizer.tokenize("대한민국")
        e, _ = pipe.params.subchar_emb.forward(seq.tokens)
        assert e.shape == (52, 6)
        h_c, _ = stage1_of_rows(pipe, e, seq)
        assert h_c.shape == (4, 6)

    def test_zero_params_give_zero_char_states(self):
        pipe = build()
        zero_non_embedding_params(pipe)
        seq = pipe.tokenizer.tokenize("했다")
        e, _ = pipe.params.subchar_emb.forward(seq.tokens)
        h_c, _ = stage1_of_rows(pipe, e, seq)
        assert np.allclose(h_c, 0.0)

    def test_passthrough_char_keeps_sequence_state(self):
        pipe = build()
        seq = pipe.tokenizer.tokenize("a하")
        e, _ = pipe.params.subchar_emb.forward(seq.tokens)
        h, _ = pipe.params.gru_seq.forward(e)
        h_c, _ = stage1_of_rows(pipe, e, seq)
        w = pipe.tokenizer.scheme.width
        assert np.array_equal(h_c[0], h[0])
        assert not np.allclose(h_c[1], h[w])

    def test_partial_window_rejected(self):
        pipe = build()
        seq = pipe.tokenizer.tokenize("하다")
        with pytest.raises(ShapeError, match="multiple"):
            stage1_of_rows(pipe, np.zeros((5, 6)), seq)


class TestStage2:
    def test_last_selection_matches_direct_gru(self):
        pipe = build()
        h_c = np.random.default_rng(0).normal(size=(4, 6))
        h_s, _ = pipe.stage2_char_to_unit(h_c, [1, 3], np.ones(4, dtype=np.int64))
        states, _ = pipe.params.gru_char.forward(h_c)
        assert np.array_equal(h_s, states[[1, 3]])

    def test_selection_out_of_range(self):
        pipe = build()
        with pytest.raises(ShapeError, match="out of range"):
            pipe.stage2_char_to_unit(np.zeros((2, 6)), [2], np.ones(2, dtype=np.int64))


class TestCompressLinear:
    def test_averaging_projection_gives_char_means(self):
        pipe = build(compression="linear", granularity="character")
        w, d = 3, 6
        pipe.params.char_proj.w.data[...] = np.vstack([np.eye(d) / w] * w)
        pipe.params.char_proj.b.data[...] = 0.0
        seq = pipe.tokenizer.tokenize("하다")
        e, _ = pipe.params.subchar_emb.forward(seq.tokens)
        _, cache = pipe.forward("하다")
        expected = np.stack([e[0:3].mean(axis=0), e[3:6].mean(axis=0)])
        assert np.allclose(cache.h_S, expected, atol=1e-12)

    def test_only_unit_final_characters_are_looked_up(self):
        pipe = build(compression="linear", vocab=pair_vocab())
        texts = ["대한민국", "민국"]
        _, cache = pipe.forward(texts)
        tokens = np.concatenate([pipe.tokenizer.tokenize(t).tokens for t in texts]).reshape(6, 3)
        assert cache.ranges == [(0, 2), (2, 4), (4, 6)]
        assert np.array_equal(cache.tokens, tokens[[1, 3, 5]].ravel())


class TestCompressAttention:
    def test_zero_query_averages_value_rows(self):
        pipe = build(compression="attention")
        pipe.params.attn_query.data[...] = 0.0
        seq = pipe.tokenizer.tokenize("하다")
        e, _ = pipe.params.subchar_emb.forward(seq.tokens)
        out, cache = pipe.compress_attention(np.arange(len(e)), [(0, 2)], e)
        values, _ = pipe.params.attn_value.forward(e)
        assert np.allclose(out[0], values.mean(axis=0), atol=1e-12)
        assert np.allclose(cache.alpha[0:6].sum(), 1.0, atol=1e-12)

    def test_weights_are_a_distribution_per_unit(self):
        pipe = build(compression="attention")
        seq = pipe.tokenizer.tokenize("했다한")
        e, _ = pipe.params.subchar_emb.forward(seq.tokens)
        _, cache = pipe.compress_attention(np.arange(len(e)), [(0, 2), (2, 3)], e)
        alphas = [cache.alpha[a : a + n] for a, n in zip(cache.starts, cache.sizes)]
        for alpha in alphas:
            assert (alpha > 0).all()
            assert abs(alpha.sum() - 1.0) < 1e-12
        assert alphas[0].shape == (6,) and alphas[1].shape == (3,)


class TestReferenceEquivalence:
    """Whole-array stage 1, attention pooling and linear compression against the per-character,
    per-unit and all-character forms they replaced."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_stage1_bitwise_equal(self, scheme, seed):
        pipe = Pipeline(PipelineConfig(scheme=scheme, dim=6), small_vocab(), seed=seed)
        for text in REFERENCE_TEXTS:
            new = _run_stage(
                pipe,
                lambda e, seq: stage1_of_rows(pipe, e, seq),
                pipe.backward_stage1,
                text,
                seed,
            )
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
            # Only passthrough characters: the slot path gets an all-zero gradient.
            slot_free = pipe.tokenizer.tokenize(text).passthrough.all()
            expected = {"gru_seq"} if slot_free else {"gru_seq", "gru_iv", "conv"}
            assert {name.split(".")[0] for name in grads} == expected, text
            for name in grads:
                assert np.array_equal(grads[name], grads_ref[name]), (text, name)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_attention_pooling_matches(self, scheme, seed):
        pipe = Pipeline(PipelineConfig(scheme=scheme, dim=6, compression="attention"), small_vocab(), seed=seed)
        for text in REFERENCE_TEXTS:
            _, ranges = pipe.unit_ranges(text)
            token_count = len(pipe.tokenizer.tokenize(text))
            new = _run_stage(
                pipe,
                lambda e, seq: pipe.compress_attention(np.arange(len(e)), ranges, e),
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


    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_linear_compression_matches(self, scheme, seed):
        cfg = PipelineConfig(scheme=scheme, dim=6, compression="linear", fusion="summation")
        pipe = Pipeline(cfg, small_vocab(), seed=seed)
        for text in REFERENCE_TEXTS:
            last = [b - 1 for _, b in pipe.unit_ranges(text)[1]]
            out, grad_e, grads = _linear_through_pipeline(pipe, text, seed)
            out_ref, grad_e_ref, grads_ref = _run_stage(
                pipe,
                lambda e, seq: _reference_compress_linear(pipe, e, last),
                lambda g, cache: _reference_backward_compress_linear(pipe, g, cache, last),
                text,
                seed,
            )
            assert np.abs(out - out_ref).max() <= 1e-12, text
            assert np.abs(grad_e - grad_e_ref).max() <= 1e-12, text
            grads = {name: g for name, g in grads.items() if name.startswith("compress_linear")}
            assert grads.keys() == grads_ref.keys() == {"compress_linear.w", "compress_linear.b"}
            for name in grads:
                assert np.abs(grads[name] - grads_ref[name]).max() <= 1e-12, (text, name)


class TestFuse:
    def test_summation_is_exact_addition(self):
        pipe = build(fusion="summation")
        rng = np.random.default_rng(4)
        e_s, h_s = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        fused, _ = pipe.fuse(e_s, h_s, [0, 3])
        assert np.array_equal(fused, e_s + h_s)
        neutral, _ = pipe.fuse(e_s, np.zeros_like(h_s), [0, 3])
        assert np.array_equal(neutral, e_s)

    @pytest.mark.parametrize("fusion", ["cross-attention", "concatenation"])
    def test_learned_fusions_are_not_neutral_at_zero(self, fusion):
        pipe = build(fusion=fusion)
        e_s = np.random.default_rng(4).normal(size=(3, 6))
        fused, _ = pipe.fuse(e_s, np.zeros_like(e_s), [0, 3])
        assert not np.allclose(fused, e_s)

    def test_concat_identity_selector_recovers_raw_channel(self):
        pipe = build(fusion="concatenation")
        pipe.params.fuse_proj.w.data[...] = np.vstack([np.eye(6), np.zeros((6, 6))])
        pipe.params.fuse_proj.b.data[...] = 0.0
        out, cache = pipe.forward("대한민국")
        assert np.allclose(out, cache.e_S, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="fusion"):
            build().fuse(np.zeros((2, 6)), np.zeros((3, 6)), [0, 2])

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
        assert len(cache.seqs[0]) == width * len(text)
        assert out.shape == (len(cache.ranges), 6)
        assert np.isfinite(out).all()

    def test_unit_selection_indices_follow_boundary(self):
        pipe = build(vocab=pair_vocab())
        out, cache = pipe.forward("대한민국")
        assert cache.ranges == [(0, 2), (2, 4)]
        assert cache.last_indices.tolist() == [1, 3]
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

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(" \t\n\r\x0b\x1c\x85\xa0\u2028\u3000"))))
    def test_whitespace_runs_match_character_loop(self, text):
        """The character loop that pipeline._whitespace_runs replaced, kept as the reference."""
        ranges, start = [], 0
        for i in range(1, len(text) + 1):
            if i == len(text) or text[i].isspace() != text[start].isspace():
                ranges.append((start, i))
                start = i
        assert pipeline._whitespace_runs(text) == ranges

    def test_external_granularity(self):
        pipe = build()
        out, cache = pipe.forward("했다", external_boundary=BoundaryMap([(0, 2)]))
        assert cache.ranges == [(0, 2)] and out.shape == (1, 6)
        with pytest.raises(ConfigError, match="external"):
            build(granularity="external")
        for bad in ([(0, 1)], [(1, 2)], [(0, 3)], [(0, 0), (0, 2)]):
            with pytest.raises(AlignmentError):
                pipe.forward("했다", external_boundary=BoundaryMap(bad))

    @pytest.mark.parametrize("granularity", ["subword", "character", "word"])
    def test_boundary_map_sets_the_units_at_any_granularity(self, granularity):
        vocab = train_vocab(["하다 했다"], 40)
        assert "하다" in vocab.entries
        pipe = build(vocab, granularity=granularity)
        out, cache = pipe.forward("하다", BoundaryMap([(0, 1), (1, 2)]))
        assert cache.ranges == [(0, 1), (1, 2)] and out.shape == (2, 6)
        assert pipe.unit_labels(cache) == ["하", "다"]
        assert cache.subword_ids.tolist() == [vocab.entries.get(u, vocab.unk_id) for u in ("하", "다")]
        with pytest.raises(AlignmentError, match="covers 5 characters, text has 2"):
            pipe.forward("하다", BoundaryMap([(0, 5)]))

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
        a, _ = Pipeline(cfg, vocab, seed=1).forward("했다")
        b, _ = Pipeline(cfg, vocab, seed=2).forward("했다")
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


class TestMemo:
    """Each Pipeline tokenizes and encodes a text once and keeps the result, up to MEMO_TEXTS texts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of tokenize, subword encode and boundary validate calls."""
        counts = {}
        for key, owner, name in (
            ("tokenize", SubcharTokenizer, "tokenize"),
            ("encode", pipeline, "subword_encode"),
            ("validate", BoundaryMap, "validate"),
        ):
            counts[key] = 0

            def counted(*args, fn=getattr(owner, name), key=key):
                counts[key] += 1
                return fn(*args)

            monkeypatch.setattr(owner, name, counted)
        return counts

    @pytest.mark.parametrize("texts", ["하다 했다", ["하다 했다", "", "대한 ab", "하다"]])
    def test_second_forward_reuses_the_first(self, calls, texts):
        pipe = build(fusion="cross-attention")
        out, cache = pipe.forward(texts)
        first = dict(calls)
        assert first["tokenize"] == first["encode"] > 0
        again, cache_again = pipe.forward(texts)
        assert calls == first
        assert np.array_equal(again, out)
        assert cache_again.ranges == cache.ranges
        assert np.array_equal(cache_again.subword_ids, cache.subword_ids)

    def test_external_boundary_bypasses_the_memo(self, calls):
        pipe = build()
        for call in range(1, 3):
            pipe.forward("했다", external_boundary=BoundaryMap([(0, 1), (1, 2)]))
            assert calls["validate"] == call and calls["tokenize"] == call
        assert calls["encode"] == 0 and pipe._memo == {}

    def test_memoized_arrays_are_read_only(self):
        pipe = build()
        _, cache = pipe.forward("하다")
        _, cache = pipe.forward("하다")
        for array in (cache.seqs[0].tokens, cache.seqs[0].passthrough):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]

    def test_memo_stays_within_its_bound(self):
        pipe = build()
        texts = [chr(0xAC00 + i) for i in range(pipeline.MEMO_TEXTS + 5)]
        pipe.forward(texts)
        assert 0 < len(pipe._memo) <= pipeline.MEMO_TEXTS
        out, _ = pipe.forward(texts[:2])
        assert np.array_equal(out, build().forward(texts[:2])[0])

    def test_pipelines_do_not_share_a_memo(self, calls):
        first, second = build(), build()
        first.forward("하다")
        second.forward("하다")
        assert calls["tokenize"] == calls["encode"] == 2


def fresh_copy(pipe):
    """A pipeline with pipe's configuration and parameter values, which has made no call yet."""
    fresh = Pipeline(pipe.config, pipe.subword_vocab, pipe.params.seed)
    fresh.params.group.data[...] = pipe.params.group.data
    return fresh


def out_and_grads(pipe, texts):
    """The output bytes and flat gradient bytes of one forward and backward from zeroed gradients."""
    out, cache = pipe.forward(texts)
    pipe.params.group.zero_grads()
    pipe.backward(np.random.default_rng(4).normal(size=out.shape), cache)
    return out.tobytes(), pipe.params.group.grad.tobytes()


def arrays_in(obj):
    """Every array that obj holds: itself, in its tuples and lists, and in its dataclasses' fields."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in arrays_in(item)]
    if dataclasses.is_dataclass(obj):
        return [a for item in vars(obj).values() for a in arrays_in(item)]
    return []


def count_forwards(monkeypatch) -> list:
    """Wraps Pipeline.forward as the class holds it, which grad_check's reuse calls only for the calls
    it computes: the returned list grows by one for each call that computes."""
    computed, compute = [], Pipeline.forward

    def counted(self, *args, **kwargs):
        computed.append(args[0])
        return compute(self, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "forward", counted)
    return computed


class TestPipelineMemo:
    """grad_check's reuse of a pipeline's first call in a check: served only when the texts repeat
    and every parameter byte the forward reads repeats."""

    TEXT = "하다"

    @pytest.fixture
    def computed(self, monkeypatch):
        """Runs the test inside grad_check's reuse; grows by one for each forward that computes."""
        computed = count_forwards(monkeypatch)
        with gradcheck._reuse():
            yield computed

    @staticmethod
    def kept(compression="principles"):
        """A pipeline (cls_bypass, cross-attention) that has kept the result of TEXT, and that result's cache."""
        pipe = build(compression=compression, cls_bypass=True, fusion="cross-attention")
        _, cache = pipe.forward(TestPipelineMemo.TEXT)
        return pipe, cache

    @staticmethod
    def first_token_row(pipe):
        """The subchar_emb row of TEXT's first token, which every compression reads."""
        return pipe.params.subchar_emb.table.data[pipe.tokenizer.tokenize(TestPipelineMemo.TEXT).tokens[0]]

    @pytest.mark.parametrize("compression", COMPRESSIONS)
    def test_an_unread_table_row_hits(self, computed, compression):
        pipe, cache = self.kept(compression)
        p = pipe.params
        subchar_rows = set(cache.tokens.tolist()) | {pipe.tokenizer.vocab.cls_id}
        subword_rows = set(cache.subword_ids.tolist())
        unread = [
            (p.subchar_emb.table, min(set(range(p.subchar_emb.vocab_size)) - subchar_rows)),
            (p.subword_emb.table, min(set(range(p.subword_emb.vocab_size)) - subword_rows)),
        ]
        if compression == "linear":  # linear reads only the token rows of each unit's last character
            first_char = set(cache.seqs[0].tokens.tolist()) - subchar_rows
            unread.append((p.subchar_emb.table, min(first_char)))
        assert len(computed) == 1
        computed.clear()
        first, _ = pipe.forward(self.TEXT)
        for table, row in unread:
            table.data[row, 0] += 1.0
            assert pipe.forward(self.TEXT)[0] is first
        assert computed == []

    @pytest.mark.parametrize("compression", COMPRESSIONS)
    @pytest.mark.parametrize("table", ["subchar_emb", "subword_emb", "cls"])
    def test_a_read_table_row_recomputes(self, computed, compression, table):
        pipe, cache = self.kept(compression)
        row = {"subchar_emb": cache.tokens[0], "subword_emb": cache.subword_ids[0],
               "cls": pipe.tokenizer.vocab.cls_id}[table]
        tensor = pipe.params.subword_emb.table if table == "subword_emb" else pipe.params.subchar_emb.table
        tensor.data[row, 1] += 0.25
        assert out_and_grads(pipe, self.TEXT) == out_and_grads(fresh_copy(pipe), self.TEXT)
        assert len(computed) == 3

    @pytest.mark.parametrize("compression", COMPRESSIONS)
    def test_any_other_tensor_recomputes(self, computed, compression):
        pipe, _ = self.kept(compression)
        names = [n for n in pipe.params.group.names() if not n.startswith(("subchar_emb", "subword_emb"))]
        for name in names:
            computed.clear()
            data = pipe.params.group[name].data
            data[(-1,) * data.ndim] += 0.125  # in place: a GRU gate's data is a column view of its block
            assert out_and_grads(pipe, self.TEXT) == out_and_grads(fresh_copy(pipe), self.TEXT), name
            assert len(computed) == 2, name  # the changed call, and fresh_copy's

    def test_signed_zero_in_a_read_row_recomputes(self, computed):
        pipe = build(cls_bypass=True, fusion="cross-attention")
        row = self.first_token_row(pipe)
        row[2] = 0.0
        kept, _ = pipe.forward(self.TEXT)
        assert pipe.forward(self.TEXT)[0] is kept and len(computed) == 1
        row[2] = -0.0
        assert out_and_grads(pipe, self.TEXT) == out_and_grads(fresh_copy(pipe), self.TEXT)
        assert len(computed) == 3

    @pytest.mark.parametrize("before, after, served", [
        (["하다", "했다"], ["했다", "하다"], False),
        (["하다", "했다"], ["하다"], False),
        ("하다", ["하다"], True),  # a str is the batch of one: one key
        (["하다"], "하다", True),
    ], ids=["order", "list", "str-then-list", "list-then-str"])
    def test_other_texts_recompute(self, computed, before, after, served):
        pipe = build(cls_bypass=True)
        first, _ = pipe.forward(before)
        again = out_and_grads(pipe, after)
        assert len(computed) == (1 if served else 2) and again == out_and_grads(fresh_copy(pipe), after)
        # other texts leave the first call kept
        assert pipe.forward(before)[0] is first

    def test_nan_in_a_read_row_repeats(self, computed):
        pipe = build(cls_bypass=True, fusion="cross-attention")
        self.first_token_row(pipe)[0] = np.nan
        first, _ = pipe.forward(self.TEXT)
        again, _ = pipe.forward(self.TEXT)
        assert len(computed) == 1 and again is first and np.isnan(first).any()

    def test_a_miss_leaves_the_kept_call(self, computed):
        pipe, _ = self.kept()
        computed.clear()
        kept, cache = pipe.forward(self.TEXT)
        row = pipe.params.subchar_emb.table.data[cache.tokens[0]]
        original = row[0]
        row[0] = original + 1.0
        missed, _ = pipe.forward(self.TEXT)
        row[0] = original
        again, again_cache = pipe.forward(self.TEXT)
        assert again is kept and again_cache is cache and len(computed) == 1
        assert missed.flags.writeable and not kept.flags.writeable

    @pytest.mark.parametrize("cls_bypass", [False, True])
    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("compression", COMPRESSIONS)
    def test_results_are_read_only(self, computed, compression, fusion, cls_bypass):
        pipe = build(compression=compression, fusion=fusion, cls_bypass=cls_bypass)
        texts = ["하다 했다", "", "대한 ab"]
        result = pipe.forward(texts)
        assert result is pipe.forward(texts) and len(computed) == 1
        arrays = arrays_in(result)
        assert len(arrays) > 5 and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            result[0][0, 0] = 1.0

    def test_a_boundary_map_computes_and_is_not_kept(self, computed):
        pipe = build(cls_bypass=True, fusion="cross-attention")
        boundary = BoundaryMap([(0, 1), (1, 2)])
        mapped = [pipe.forward(self.TEXT, boundary)[0] for _ in range(2)]
        assert len(computed) == 2 and mapped[0] is not mapped[1] and mapped[0].flags.writeable
        kept, _ = pipe.forward(self.TEXT)  # the first call without a map is the one kept
        assert pipe.forward(self.TEXT)[0] is kept and len(computed) == 3
        assert kept.shape == (2, 6)  # the map's two units are not kept as the text's one
        assert pipe.forward(self.TEXT, boundary)[0].shape == (3, 6) and len(computed) == 4

    def test_a_call_that_raises_is_not_kept(self, computed, monkeypatch):
        pipe = build(cls_bypass=True, fusion="cross-attention")
        row = self.first_token_row(pipe)
        original = row[0]
        for kept_before in (False, True):
            row[0] = original + 1.0 if kept_before else original
            with monkeypatch.context() as patch:
                patch.setattr(Pipeline, "fuse", lambda *args: 1 / 0)
                for _ in range(2):
                    with pytest.raises(ZeroDivisionError):
                        pipe.forward(self.TEXT)
            if not kept_before:  # no call had returned, so the next one is the one kept
                row[0] = original
                kept, cache = pipe.forward(self.TEXT)
        assert len(computed) == 5
        assert out_and_grads(pipe, self.TEXT) == out_and_grads(fresh_copy(pipe), self.TEXT)
        assert len(computed) == 7
        row[0] = original
        assert pipe.forward(self.TEXT)[1] is cache and len(computed) == 7  # still the earlier result

    def test_gradient_check_is_mostly_served_from_the_memo(self, monkeypatch):
        # the check keeps its unperturbed call, which then serves every coordinate in a
        # table row the text never reads
        text = "하다"
        vocab, computed = train_vocab([text], 16, mode="charlist"), count_forwards(monkeypatch)
        for scheme in SCHEME_NAMES:
            computed.clear()
            report = check_pipeline(Pipeline(PipelineConfig(scheme=scheme, dim=4, fusion="summation"), vocab, 0), text, 0)
            loss_calls = 2 * report.coords_checked + 1
            assert report.max_rel_error < 1e-6 and loss_calls > 1000, scheme
            assert len(computed) - 1 <= 0.5 * loss_calls, (scheme, len(computed), loss_calls)

    @pytest.mark.parametrize("scheme", ["stroke", "cji", "bts"])
    def test_a_raw_grad_check_is_mostly_served(self, monkeypatch, scheme):
        # no forward runs before the check: the check keeps its own first call, the unperturbed one
        pipe = Pipeline(PipelineConfig(scheme=scheme, dim=4, fusion="summation"), train_vocab([self.TEXT], 16, mode="charlist"), 0)
        direction = np.random.default_rng(0).normal(size=(len(pipe.unit_ranges(self.TEXT)[1]), 4))

        def loss_fn(with_grad):
            out, cache = pipe.forward(self.TEXT)
            if with_grad:
                pipe.backward(direction, cache)
            return float((direction * out).sum())

        computed = count_forwards(monkeypatch)
        report = grad_check(loss_fn, pipe.params.group)
        loss_calls = 2 * report.coords_checked + 1
        assert report.max_rel_error < 1e-6 and loss_calls > 1000, scheme
        assert len(computed) <= 0.5 * loss_calls, (scheme, len(computed), loss_calls)


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
        report = check_pipeline(Pipeline(cfg, small_vocab(), seed=11), text, 3)
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


# one-character, passthrough-only, empty and long texts, in shuffled order
BATCH_TEXTS = ["했다", "", "a", "한국어 시험 ab 대한민국 했다", "12 !", "한", " 하 ", "ㄱ a ㅏ", "대한 민국?", ""]
BATCH_TOL = 1e-12


class TestPackedBatch:
    """A batched forward and backward against one call per text, the batch of one."""

    @pytest.mark.parametrize("cls_bypass", [False, True])
    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("compression", COMPRESSIONS)
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_matches_one_text_at_a_time(self, scheme, compression, fusion, cls_bypass):
        cfg = PipelineConfig(scheme=scheme, dim=6, compression=compression, fusion=fusion, cls_bypass=cls_bypass)
        pipe = Pipeline(cfg, small_vocab(), seed=5)
        texts = [BATCH_TEXTS[k] for k in np.random.default_rng(len(scheme)).permutation(len(BATCH_TEXTS))]
        out, cache = pipe.forward(texts)
        grad = np.random.default_rng(1).normal(size=out.shape)
        pipe.params.group.zero_grads()
        pipe.backward(grad, cache)
        batch_grads = pipe.params.group.grad.copy()

        pipe.params.group.zero_grads()
        row = 0
        for text in texts:
            one, one_cache = pipe.forward(text)
            assert np.abs(out[row : row + len(one)] - one).max(initial=0.0) <= BATCH_TOL, text
            pipe.backward(grad[row : row + len(one)], one_cache)
            row += len(one)
        assert row == len(out)
        assert pipe.unit_labels(cache) == [label for text in texts for label in pipe.unit_labels(pipe.forward(text)[1])]
        assert np.abs(pipe.params.group.grad - batch_grads).max() <= BATCH_TOL
        assert batch_grads.any()

    def test_pack_orders_texts_longest_first(self):
        pipe = build(scheme="jamo")
        seqs = [pipe.tokenizer.tokenize(t) for t in ["하", "대한민", "", "ab"]]
        batch = pack(seqs, 3)
        # batch characters 하 대 한 민 a b, text after text
        assert batch.rows.tolist() == [2, 0, 3, 5, 1, 4]
        assert batch.char_sizes.tolist() == [3, 2, 1]
        # character step 1: rows 3 and 4 hold the second characters of 대한민 and ab
        assert batch.passthrough.tolist() == [False, True, False, False, True, False]
        assert batch.token_sizes.tolist() == [3, 3, 3, 2, 2, 2, 1, 1, 1]
        assert sorted(batch.slots.ravel().tolist()) == list(range(18))
        tokens = np.concatenate([s.tokens.reshape(-1, 3) for s in seqs])
        order = [1, 3, 0, 1, 3, 1]  # the text of each packed character row
        position = [0, 0, 0, 1, 1, 2]
        starts = [0, 1, 4, 4]
        expected = np.stack([tokens[starts[t] + k] for t, k in zip(order, position)])
        assert np.array_equal(batch.tokens[batch.slots], expected)

    @pytest.mark.parametrize("compression", COMPRESSIONS)
    def test_unit_ranges_tile_the_batch_characters(self, compression):
        pipe = build(compression=compression, cls_bypass=True)
        texts = ["하", "", "ab 대한민국"]
        out, cache = pipe.forward(texts)
        starts, stops = [a for a, _ in cache.ranges], [b for _, b in cache.ranges]
        assert starts == [0, *stops[:-1]] and stops[-1] == sum(map(len, texts))
        assert out.shape[0] == cache.row_count == len(cache.ranges) + len(texts)
        if compression == "principles":
            batch = cache.stage1.batch
            assert np.array_equal(cache.last_indices, batch.rows[[b - 1 for b in stops]])

    def test_empty_batch_and_texts_without_characters(self):
        pipe = build(cls_bypass=True)
        out, cache = pipe.forward([])
        assert out.shape == (0, 6)
        out, cache = pipe.forward(["", ""])
        assert out.shape == (2, 6) and pipe.unit_labels(cache) == ["<cls>", "<cls>"]
        pipe.backward(np.ones((2, 6)), cache)

    def test_external_boundaries_per_text(self):
        pipe = build()
        maps = [BoundaryMap([(0, 2)]), BoundaryMap([(0, 1), (1, 2)])]
        out, cache = pipe.forward(["했다", "대한"], external_boundary=maps)
        assert cache.ranges == [(0, 2), (2, 3), (3, 4)] and out.shape == (3, 6)
        assert pipe.unit_labels(cache) == ["했다", "대", "한"]
        with pytest.raises(ConfigError, match="one boundary map per text"):
            pipe.forward(["했다", "대한", "한"], external_boundary=maps)

    def test_a_batch_mixes_boundary_maps_and_configured_units(self):
        pipe = build(pair_vocab(), cls_bypass=True)
        out, cache = pipe.forward(["대한", "대한 민국"], external_boundary=[BoundaryMap([(0, 1), (1, 2)]), None])
        assert cache.ranges == [(0, 1), (1, 2), (2, 4), (4, 5), (5, 7)]
        assert pipe.unit_labels(cache) == ["<cls>", "대", "한", "<cls>", "대한", " ", "민국"]
        assert out.shape == (7, 6)
        alone, _ = pipe.forward("대한 민국")
        assert np.array_equal(out[3:], alone)
        pipe.backward(np.ones_like(out), cache)


def per_text_fuse(self, e_s, h_s, unit_offsets):
    """Cross-attention fusion one text at a time, as Pipeline.fuse ran it before the
    batched layer call; kept as the reference."""
    offsets = np.asarray(unit_offsets).tolist()
    outs, caches = [], []
    for a, b in zip(offsets, offsets[1:]):
        if b > a:
            out, cache = self.params.fuse_attn.forward(e_s[a:b], h_s[a:b])
            outs.append(out)
            caches.append(((a, b), cache))
    return (outs[0] if len(outs) == 1 else np.concatenate(outs)), caches


def per_text_backward_fuse(self, grad_out, fuse_cache):
    grad_es, grad_hs = np.empty_like(grad_out), np.empty_like(grad_out)
    for (a, b), cache in fuse_cache:
        grad_es[a:b], grad_hs[a:b] = self.params.fuse_attn.backward(grad_out[a:b], cache)
    return grad_es, grad_hs


def forward_and_grads(pipe, texts):
    """Output rows and the flat gradient of one batched forward and backward."""
    out, cache = pipe.forward(texts)
    pipe.params.group.zero_grads()
    pipe.backward(np.random.default_rng(2).normal(size=out.shape), cache)
    return out, pipe.params.group.grad.copy()


# every unit count from 1 to 15, and two texts without units, in shuffled order
UNIT_COUNT_TEXTS = ["하다가나라마바사아자차카타파했"[:k] for k in range(1, 16)] + ["", ""]


class TestPaddedFusion:
    """Cross-attention fusion of a whole batch in one layer call, against the per-text loop."""

    def assert_matches_per_text_loop(self, pipe, texts, monkeypatch):
        out, grads = forward_and_grads(pipe, texts)
        with monkeypatch.context() as patch:
            patch.setattr(Pipeline, "fuse", per_text_fuse)
            patch.setattr(Pipeline, "backward_fuse", per_text_backward_fuse)
            ref_out, ref_grads = forward_and_grads(pipe, texts)
        assert out.shape == ref_out.shape
        assert np.abs(out - ref_out).max() <= BATCH_TOL
        assert np.abs(grads - ref_grads).max() <= BATCH_TOL
        assert np.abs(pipe.params.group["fuse_attn.w_q"].grad).max() > 0.0

    @pytest.mark.parametrize("cls_bypass", [False, True])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_unit_counts_1_to_15_and_empty_texts(self, monkeypatch, heads, residual, cls_bypass):
        cfg = PipelineConfig(dim=8, heads=heads, residual_fusion=residual, cls_bypass=cls_bypass, granularity="character")
        pipe = Pipeline(cfg, small_vocab(), seed=heads)
        texts = [UNIT_COUNT_TEXTS[k] for k in np.random.default_rng(heads).permutation(len(UNIT_COUNT_TEXTS))]
        _, cache = pipe.forward(texts)
        assert sorted(np.diff(cache.unit_offsets).tolist()) == [0, 0, *range(1, 16)]
        self.assert_matches_per_text_loop(pipe, texts, monkeypatch)

    @pytest.mark.parametrize("cls_bypass", [False, True])
    def test_subword_units_of_mixed_texts(self, monkeypatch, cls_bypass):
        pipe = build(heads=2, residual_fusion=True, cls_bypass=cls_bypass)
        self.assert_matches_per_text_loop(pipe, BATCH_TEXTS, monkeypatch)

    def test_bts_d64_chunk_of_32_texts(self, monkeypatch):
        # as the benchmark's embed stream builds a chunk: a vocab of the bundled pair file's
        # forms, and distinct texts of 1 to 3 of those forms
        from jamofuse.training import load_pair_dataset

        path = str(resources.files("jamofuse.data") / "verb_past_pairs.tsv")
        records = load_pair_dataset(path).records
        forms = sorted({f for r in records for f in (r.form_a, r.form_b)})
        vocab = train_vocab([f"{r.form_a} {r.form_b}" for r in records], 200)
        pipe = Pipeline(PipelineConfig(scheme="bts", dim=64, fusion="cross-attention"), vocab, seed=0)
        rng = np.random.default_rng(901)
        texts = []
        while len(texts) < 32:
            text = " ".join(rng.choice(forms, size=int(rng.integers(1, 4))))
            if text not in texts:
                texts.append(text)
        _, cache = pipe.forward(texts)
        counts = np.diff(cache.unit_offsets)
        assert counts.min() >= 1 and counts.min() < counts.max()  # the chunk has several unit counts
        self.assert_matches_per_text_loop(pipe, texts, monkeypatch)

    def test_one_layer_call_per_batch(self, monkeypatch):
        pipe = build()
        calls = {"forward": 0, "backward": 0}
        for name in calls:
            method = getattr(CrossAttention, name)

            def counted(self, *args, _method=method, _name=name):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(CrossAttention, name, counted)
        assert len(BATCH_TEXTS) == 10
        out, cache = pipe.forward(BATCH_TEXTS)
        pipe.backward(np.ones_like(out), cache)
        assert calls == {"forward": 1, "backward": 1}

    def test_one_long_text_does_not_pad_the_others(self, monkeypatch):
        # each text holds only its own U x U attention: a padded batch would hold
        # 24 x 400 x 400 weights in each of several arrays, over 100 MiB
        cfg = PipelineConfig(scheme="jamo", dim=16, fusion="cross-attention", granularity="character")
        pipe = Pipeline(cfg, small_vocab(), seed=0)
        texts = ["대한민국하다했다" * 50, *[f"{a}{b}" for a in "가나다" for b in "라마바사아자차카"][:23]]
        out, cache = pipe.forward(texts)  # fills the tokenization memo outside the traced call
        assert len(texts[0]) == 400 and len(out) == 400 + 23 * 2
        attentions, attend = [], CrossAttention.forward
        monkeypatch.setattr(CrossAttention, "forward", lambda self, *args: attentions.append(1) or attend(self, *args))
        tracemalloc.start()
        try:
            out, cache = pipe.forward(texts)
            pipe.backward(np.ones(out.shape), cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(attentions) == 1
        assert peak <= 16 << 20, peak


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
