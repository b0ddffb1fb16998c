"""Structure-aware embedding pipeline over dual subword and subcharacter channels.

The raw channel embeds subword tokens directly. The structured channel walks
the script hierarchy: subcharacter embeddings are contextualized by a GRU,
grouped into per-character initial/vowel/final slot sums, fused (GRU over
initial+vowel, then a height-2 convolution stacks the final back in), and a
second GRU plus last-character selection lifts characters to the raw channel's
units. A fusion step (cross-attention, summation, or concatenation) merges the
two channels; neither channel is normalized first, their raw scales are kept
as they are.

Non-Hangul characters carry no slot structure: their single contextualized
token state passes through the character stage untouched, with padding slots
and role fusion skipped.

Two flat compression alternatives replace the structured stages for ablation:
a learned projection of each character's fixed-width token window followed by
the same last-selection, and per-unit attention pooling with a single learned
query.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .checkpoint import csv_text
from .layers import Conv2x1, CrossAttention, Embedding, GRUCache, GRULayer, Linear
from .subchar import SCHEME_NAMES, SubcharScheme, SubcharSequence, SubcharTokenizer
from .subword import AlignmentError, BoundaryMap, SubwordVocab
from .subword import encode as subword_encode
from .tensor import ConfigError, ParamGroup, ShapeError, Tensor, uniform_init

COMPRESSIONS = ("principles", "linear", "attention")
FUSIONS = ("cross-attention", "summation", "concatenation")
GRANULARITIES = ("subword", "character", "word", "external")


@dataclass(frozen=True)
class PipelineConfig:
    scheme: str = "jamo"
    dim: int = 16
    compression: str = "principles"
    fusion: str = "cross-attention"
    granularity: str = "subword"
    heads: int = 1
    residual_fusion: bool = False
    cls_bypass: bool = False

    def validate(self) -> "PipelineConfig":
        for f in fields(self):
            kind = type(f.default)
            if type(getattr(self, f.name)) is not kind:
                raise ConfigError(f"{f.name} must be a {kind.__name__}, got {getattr(self, f.name)!r}")
        if self.scheme not in SCHEME_NAMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEME_NAMES}")
        if self.compression not in COMPRESSIONS:
            raise ConfigError(f"unknown compression {self.compression!r}, expected one of {COMPRESSIONS}")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"unknown fusion {self.fusion!r}, expected one of {FUSIONS}")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"unknown granularity {self.granularity!r}, expected one of {GRANULARITIES}")
        if self.dim < 1:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        if self.heads < 1 or self.dim % self.heads != 0:
            raise ConfigError(f"heads must divide dim, got {self.heads} heads for dim {self.dim}")
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(values: dict) -> "PipelineConfig":
        known = {f.name for f in fields(PipelineConfig)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}, expected a subset of {sorted(known)}")
        return PipelineConfig(**values).validate()


class PipelineParams:
    """Every trainable tensor of one configuration, in a stable named order.

    Only the layers the configuration uses are created, so different
    compression or fusion choices produce different parameter sets (and
    therefore different checkpoints) even at the same seed. Every tensor's
    data and grad are views into group.data and group.grad, one flat vector
    each.
    """

    def __init__(self, config: PipelineConfig, subchar_vocab_size: int, subword_vocab_size: int, seed: int):
        config.validate()
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)
        d = config.dim
        w = SubcharScheme.by_name(config.scheme).width
        self.group = ParamGroup()

        self.subchar_emb = Embedding(subchar_vocab_size, d, rng)
        self.group.merge("subchar_emb", self.subchar_emb.params)
        self.subword_emb = Embedding(subword_vocab_size, d, rng)
        self.group.merge("subword_emb", self.subword_emb.params)

        self.gru_seq: Optional[GRULayer] = None
        self.gru_iv: Optional[GRULayer] = None
        self.conv: Optional[Conv2x1] = None
        self.gru_char: Optional[GRULayer] = None
        self.char_proj: Optional[Linear] = None
        self.attn_query: Optional[Tensor] = None
        self.attn_value: Optional[Linear] = None
        if config.compression == "principles":
            self.gru_seq = GRULayer(d, rng)
            self.group.merge("gru_seq", self.gru_seq.params)
            self.gru_iv = GRULayer(d, rng)
            self.group.merge("gru_iv", self.gru_iv.params)
            self.conv = Conv2x1(d, rng)
            self.group.merge("conv", self.conv.params)
            self.gru_char = GRULayer(d, rng)
            self.group.merge("gru_char", self.gru_char.params)
        elif config.compression == "linear":
            self.char_proj = Linear(w * d, d, rng)
            self.group.merge("compress_linear", self.char_proj.params)
        else:
            self.attn_query = self.group.add(
                "compress_attn.query", Tensor(uniform_init(rng, (d,), d), trainable=True)
            )
            self.attn_value = Linear(d, d, rng)
            self.group.merge("compress_attn.value", self.attn_value.params)

        self.fuse_attn: Optional[CrossAttention] = None
        self.fuse_proj: Optional[Linear] = None
        if config.fusion == "cross-attention":
            self.fuse_attn = CrossAttention(d, rng, heads=config.heads, residual=config.residual_fusion)
            self.group.merge("fuse_attn", self.fuse_attn.params)
        elif config.fusion == "concatenation":
            self.fuse_proj = Linear(2 * d, d, rng)
            self.group.merge("fuse_proj", self.fuse_proj.params)
        self.group.flatten()


@dataclass
class Stage1Cache:
    seq_cache: GRUCache
    iv_cache: GRUCache
    conv_cache: np.ndarray
    passthrough: np.ndarray  # (chars,) bool, True where the character has no slot structure


@dataclass
class AttnPoolCache:
    spans: list[tuple[int, int]]  # per unit: [start, stop) token span, together tiling the tokens
    alpha: np.ndarray  # (tokens,) attention weight of each token within its unit
    values: np.ndarray  # (tokens, d)
    value_cache: np.ndarray


@dataclass
class ForwardCache:
    text: str
    seq: SubcharSequence
    subword_ids: list[int]
    ranges: list[tuple[int, int]]
    last_indices: list[int]
    e_S: np.ndarray
    h_S: np.ndarray
    stage1: Optional[Stage1Cache] = None
    stage2: Optional[GRUCache] = None
    linear_cache: Optional[np.ndarray] = None
    attn_pool: Optional[AttnPoolCache] = None
    fuse_cache: Optional[object] = None
    cls: bool = False


class Pipeline:
    """Binds one configuration's parameters to its tokenizers."""

    def __init__(self, tokenizer: SubcharTokenizer, subword_vocab: SubwordVocab, params: PipelineParams):
        if tokenizer.scheme.name != params.config.scheme:
            raise ConfigError(
                f"tokenizer scheme {tokenizer.scheme.name!r} does not match config {params.config.scheme!r}"
            )
        if len(tokenizer.vocab) != params.subchar_emb.vocab_size:
            raise ConfigError(
                f"subchar vocab size {len(tokenizer.vocab)} does not match "
                f"embedding table {params.subchar_emb.vocab_size}"
            )
        if subword_vocab.size != params.subword_emb.vocab_size:
            raise ConfigError(
                f"subword vocab size {subword_vocab.size} does not match "
                f"embedding table {params.subword_emb.vocab_size}"
            )
        self.tokenizer = tokenizer
        self.subword_vocab = subword_vocab
        self.params = params
        self.config = params.config

    @staticmethod
    def build(config: PipelineConfig, subword_vocab: SubwordVocab, seed: int) -> "Pipeline":
        tokenizer = SubcharTokenizer(config.scheme)
        params = PipelineParams(config, len(tokenizer.vocab), subword_vocab.size, seed)
        return Pipeline(tokenizer, subword_vocab, params)

    # unit boundaries --------------------------------------------------------

    def unit_ranges(
        self, text: str, external_boundary: Optional[BoundaryMap] = None
    ) -> tuple[list[int], list[tuple[int, int]]]:
        """Subword ids and character ranges at the configured granularity.

        Non-subword granularities label each unit with the vocab entry for its
        exact text, falling back to UNK.
        """
        granularity = self.config.granularity
        if granularity == "subword":
            ids, boundary = subword_encode(text, self.subword_vocab)
            return ids, list(boundary.ranges)
        if granularity == "character":
            ranges = [(i, i + 1) for i in range(len(text))]
        elif granularity == "word":
            ranges = _whitespace_runs(text)
        else:
            if external_boundary is None:
                raise ConfigError("granularity 'external' needs an explicit boundary map")
            external_boundary.validate(len(text))
            ranges = list(external_boundary.ranges)
            if any(a == b for a, b in ranges):
                raise AlignmentError("external boundary has an empty range, which has no last character")
        entries = self.subword_vocab.entries
        unk = self.subword_vocab.unk_id
        ids = [entries.get(text[a:b], unk) for a, b in ranges]
        return ids, ranges

    # pipeline stages --------------------------------------------------------

    def embed_subchars(self, seq: SubcharSequence) -> tuple[np.ndarray, np.ndarray]:
        return self.params.subchar_emb.forward(seq.tokens)

    def stage1_subchar_to_char(
        self, e: np.ndarray, seq: SubcharSequence
    ) -> tuple[np.ndarray, Stage1Cache]:
        p = self.params
        w = self.tokenizer.scheme.width
        wi, wv, _ = self.tokenizer.scheme.widths
        n, d = e.shape
        if n % w != 0:
            raise ShapeError(f"token count {n} is not a multiple of width {w}")
        c = n // w

        h, seq_cache = p.gru_seq.forward(e)

        # Character k owns tokens k*w .. (k+1)*w, so its slots are row k of this view.
        slots = h.reshape(c, w, d)
        pt = seq.passthrough[:, None]
        x_iv = np.where(pt, slots[:, 0], slots[:, :wi].sum(axis=1) + slots[:, wi : wi + wv].sum(axis=1))
        h_f = np.where(pt, 0.0, slots[:, wi + wv :].sum(axis=1))

        h_iv, iv_cache = p.gru_iv.forward(x_iv)
        conv_out, conv_cache = p.conv.forward(np.stack([h_iv, h_f]))
        h_c = np.where(pt, slots[:, 0], conv_out[0])
        return h_c, Stage1Cache(seq_cache, iv_cache, conv_cache, seq.passthrough)

    def backward_stage1(self, grad_hc: np.ndarray, cache: Stage1Cache) -> np.ndarray:
        p = self.params
        w = self.tokenizer.scheme.width
        wi, wv, _ = self.tokenizer.scheme.widths
        c, d = grad_hc.shape
        pt = cache.passthrough[:, None]

        grad_stacked = p.conv.backward(np.where(pt, 0.0, grad_hc)[None, :, :], cache.conv_cache)
        grad_xiv, _ = p.gru_iv.backward(grad_stacked[0], cache.iv_cache)
        # A passthrough character's whole gradient goes to slot 0, the state that stood in for it.
        grad_slots = np.empty((c, w, d))
        grad_slots[:, : wi + wv] = np.where(pt, 0.0, grad_xiv)[:, None]
        grad_slots[:, wi + wv :] = np.where(pt, 0.0, grad_stacked[1])[:, None]
        grad_slots[:, 0] += np.where(pt, grad_hc + grad_xiv, 0.0)
        grad_e, _ = p.gru_seq.backward(grad_slots.reshape(c * w, d), cache.seq_cache)
        return grad_e

    def stage2_char_to_unit(
        self, h_c: np.ndarray, last_indices: list[int]
    ) -> tuple[np.ndarray, GRUCache]:
        if last_indices and max(last_indices) >= h_c.shape[0]:
            raise ShapeError(f"selection index {max(last_indices)} out of range for {h_c.shape[0]} characters")
        hs, cache = self.params.gru_char.forward(h_c)
        return hs[np.asarray(last_indices, dtype=np.int64)], cache

    def backward_stage2(
        self, grad_hs: np.ndarray, cache: GRUCache, last_indices: list[int]
    ) -> np.ndarray:
        grad_states = np.zeros_like(cache.x)
        np.add.at(grad_states, np.asarray(last_indices, dtype=np.int64), grad_hs)
        grad_hc, _ = self.params.gru_char.backward(grad_states, cache)
        return grad_hc

    def compress_linear(
        self, e: np.ndarray, last_indices: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        w = self.tokenizer.scheme.width
        n, d = e.shape
        if n % w != 0:
            raise ShapeError(f"token count {n} is not a multiple of width {w}")
        flat = e.reshape(n // w, w * d)
        per_char, cache = self.params.char_proj.forward(flat)
        return per_char[np.asarray(last_indices, dtype=np.int64)], cache

    def backward_compress_linear(
        self, grad_hs: np.ndarray, cache: np.ndarray, last_indices: list[int]
    ) -> np.ndarray:
        w = self.tokenizer.scheme.width
        c = cache.shape[0]
        grad_char = np.zeros((c, grad_hs.shape[1]))
        np.add.at(grad_char, np.asarray(last_indices, dtype=np.int64), grad_hs)
        grad_flat = self.params.char_proj.backward(grad_char, cache)
        return grad_flat.reshape(c * w, grad_hs.shape[1])

    def compress_attention(
        self, e: np.ndarray, ranges: list[tuple[int, int]]
    ) -> tuple[np.ndarray, AttnPoolCache]:
        p = self.params
        w = self.tokenizer.scheme.width
        scale = 1.0 / np.sqrt(e.shape[1])
        logits = e @ p.attn_query.data * scale
        values, value_cache = p.attn_value.forward(e)
        spans = [(a * w, b * w) for a, b in ranges]
        alpha = np.zeros(e.shape[0])
        out = np.zeros((len(spans), e.shape[1]))
        for u, (a, b) in enumerate(spans):
            shifted = np.exp(logits[a:b] - logits[a:b].max())
            alpha[a:b] = shifted / shifted.sum()
            out[u] = alpha[a:b] @ values[a:b]
        return out, AttnPoolCache(spans, alpha, values, value_cache)

    def backward_compress_attention(self, grad_hs: np.ndarray, cache: AttnPoolCache) -> np.ndarray:
        p = self.params
        scale = 1.0 / np.sqrt(grad_hs.shape[1])
        alpha, values = cache.alpha, cache.values
        d_values = np.zeros_like(values)
        d_logits = np.zeros_like(alpha)
        for g, (a, b) in zip(grad_hs, cache.spans):
            d_values[a:b] = np.outer(alpha[a:b], g)
            d_alpha = values[a:b] @ g
            d_logits[a:b] = alpha[a:b] * (d_alpha - d_alpha @ alpha[a:b])
        grad_e = p.attn_value.backward(d_values, cache.value_cache)
        p.attn_query.accumulate(cache.value_cache.T @ d_logits * scale)
        return grad_e + np.outer(d_logits, p.attn_query.data) * scale

    def fuse(self, e_s: np.ndarray, h_s: np.ndarray) -> tuple[np.ndarray, Optional[object]]:
        if e_s.shape != h_s.shape:
            raise ShapeError(f"fusion inputs {e_s.shape} and {h_s.shape} do not match")
        mode = self.config.fusion
        if mode == "summation":
            return e_s + h_s, None
        if mode == "cross-attention":
            return self.params.fuse_attn.forward(e_s, h_s)
        return self.params.fuse_proj.forward(np.concatenate([e_s, h_s], axis=1))

    def backward_fuse(
        self, grad_out: np.ndarray, fuse_cache: Optional[object]
    ) -> tuple[np.ndarray, np.ndarray]:
        mode = self.config.fusion
        if mode == "summation":
            return grad_out, grad_out.copy()
        if mode == "cross-attention":
            return self.params.fuse_attn.backward(grad_out, fuse_cache)
        grad_cat = self.params.fuse_proj.backward(grad_out, fuse_cache)
        d = grad_out.shape[1]
        return grad_cat[:, :d], grad_cat[:, d:]

    # end to end -------------------------------------------------------------

    def forward(
        self, text: str, external_boundary: Optional[BoundaryMap] = None
    ) -> tuple[np.ndarray, ForwardCache]:
        cfg = self.config
        d = cfg.dim
        seq = self.tokenizer.tokenize(text)
        subword_ids, ranges = self.unit_ranges(text, external_boundary)
        last_indices = [b - 1 for _, b in ranges]

        e, _ = self.embed_subchars(seq)
        cache = ForwardCache(
            text, seq, subword_ids, ranges, last_indices,
            e_S=np.zeros((0, d)), h_S=np.zeros((0, d)), cls=cfg.cls_bypass,
        )

        if ranges:
            if cfg.compression == "principles":
                h_c, cache.stage1 = self.stage1_subchar_to_char(e, seq)
                h_s, cache.stage2 = self.stage2_char_to_unit(h_c, last_indices)
            elif cfg.compression == "linear":
                h_s, cache.linear_cache = self.compress_linear(e, last_indices)
            else:
                h_s, cache.attn_pool = self.compress_attention(e, ranges)
            e_s, _ = self.params.subword_emb.forward(subword_ids)
            fused, cache.fuse_cache = self.fuse(e_s, h_s)
            cache.e_S, cache.h_S = e_s, h_s
        else:
            fused = np.zeros((0, d))

        if cfg.cls_bypass:
            cls_row = self.params.subchar_emb.table.data[self.tokenizer.vocab.cls_id]
            return np.vstack([cls_row[None, :], fused]), cache
        return fused, cache

    def backward(self, grad_out: np.ndarray, cache: ForwardCache) -> None:
        """Accumulates parameter gradients for one forward call's output grad."""
        expected_rows = len(cache.ranges) + (1 if cache.cls else 0)
        if grad_out.shape != (expected_rows, self.config.dim):
            raise ShapeError(
                f"output grad {grad_out.shape} does not match ({expected_rows}, {self.config.dim})"
            )
        if cache.cls:
            cls_id = np.asarray([self.tokenizer.vocab.cls_id])
            self.params.subchar_emb.backward(grad_out[0:1], cls_id)
            grad_out = grad_out[1:]
        if not cache.ranges:
            return

        grad_es, grad_hs = self.backward_fuse(grad_out, cache.fuse_cache)
        self.params.subword_emb.backward(grad_es, np.asarray(cache.subword_ids, dtype=np.int64))

        cfg = self.config
        if cfg.compression == "principles":
            grad_hc = self.backward_stage2(grad_hs, cache.stage2, cache.last_indices)
            grad_e = self.backward_stage1(grad_hc, cache.stage1)
        elif cfg.compression == "linear":
            grad_e = self.backward_compress_linear(grad_hs, cache.linear_cache, cache.last_indices)
        else:
            grad_e = self.backward_compress_attention(grad_hs, cache.attn_pool)
        self.params.subchar_emb.backward(grad_e, cache.seq.tokens)

    def unit_labels(self, cache: ForwardCache) -> list[str]:
        """One label per output row: unit texts, preceded by <cls> if bypassed."""
        labels = [cache.text[a:b] for a, b in cache.ranges]
        return (["<cls>"] + labels) if cache.cls else labels


def _whitespace_runs(text: str) -> list[tuple[int, int]]:
    """Maximal runs of whitespace or non-whitespace characters, in order."""
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(1, len(text) + 1):
        if i == len(text) or text[i].isspace() != text[start].isspace():
            ranges.append((start, i))
            start = i
    return ranges


def embeddings_csv(rows: list[tuple[str, np.ndarray]], dim: int) -> str:
    """`token,dim0,...` CSV of labeled embedding rows."""
    return csv_text(["token"] + [f"dim{i}" for i in range(dim)], ([label, *vector] for label, vector in rows))
