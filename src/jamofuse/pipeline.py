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
from io import StringIO
from typing import Optional

import csv
import numpy as np

from .layers import Conv2x1, CrossAttention, Embedding, GRUCache, GRULayer, Linear
from .subchar import ROLE_OTHER, SCHEME_NAMES, SubcharScheme, SubcharSequence, SubcharTokenizer
from .subword import BoundaryMap, SubwordVocab
from .subword import align as subword_align
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
    therefore different checkpoints) even at the same seed.
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


@dataclass
class Stage1Cache:
    seq_cache: GRUCache
    iv_cache: GRUCache
    conv_cache: np.ndarray
    starts: list[int]
    passthrough: list[bool]
    token_count: int


@dataclass
class AttnPoolUnit:
    span: tuple[int, int]
    alpha: np.ndarray
    window: np.ndarray
    values: np.ndarray
    value_cache: np.ndarray


@dataclass
class ForwardCache:
    text: str
    seq: SubcharSequence
    subchar_ids: np.ndarray
    subword_ids: list[int]
    ranges: list[tuple[int, int]]
    last_indices: list[int]
    e_S: np.ndarray
    h_S: np.ndarray
    stage1: Optional[Stage1Cache] = None
    stage2: Optional[GRUCache] = None
    linear_cache: Optional[np.ndarray] = None
    attn_units: Optional[list[AttnPoolUnit]] = None
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

        starts = [span[0] for span in seq.char_bounds]
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
        return h_c, Stage1Cache(seq_cache, iv_cache, conv_cache, starts, passthrough, n)

    def backward_stage1(self, grad_hc: np.ndarray, cache: Stage1Cache) -> np.ndarray:
        p = self.params
        w = self.tokenizer.scheme.width
        wi, wv, _ = self.tokenizer.scheme.widths
        d = grad_hc.shape[1]

        grad_h = np.zeros((cache.token_count, d))
        grad_pooled = grad_hc.copy()
        for k, s in enumerate(cache.starts):
            if cache.passthrough[k]:
                grad_h[s] += grad_hc[k]
                grad_pooled[k] = 0.0

        grad_stacked = p.conv.backward(grad_pooled[None, :, :], cache.conv_cache)
        grad_xiv, _ = p.gru_iv.backward(grad_stacked[0], cache.iv_cache)
        grad_hf = grad_stacked[1]
        for k, s in enumerate(cache.starts):
            if cache.passthrough[k]:
                grad_h[s] += grad_xiv[k]
            else:
                grad_h[s : s + wi] += grad_xiv[k]
                grad_h[s + wi : s + wi + wv] += grad_xiv[k]
                grad_h[s + wi + wv : s + w] += grad_hf[k]
        grad_e, _ = p.gru_seq.backward(grad_h, cache.seq_cache)
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
    ) -> tuple[np.ndarray, list[AttnPoolUnit]]:
        p = self.params
        w = self.tokenizer.scheme.width
        d = e.shape[1]
        scale = 1.0 / np.sqrt(d)
        q = p.attn_query.data
        out = np.zeros((len(ranges), d))
        units: list[AttnPoolUnit] = []
        for u, (a, b) in enumerate(ranges):
            span = (a * w, b * w)
            window = e[span[0] : span[1]]
            logits = window @ q * scale
            shifted = np.exp(logits - logits.max())
            alpha = shifted / shifted.sum()
            values, value_cache = p.attn_value.forward(window)
            out[u] = alpha @ values
            units.append(AttnPoolUnit(span, alpha, window, values, value_cache))
        return out, units

    def backward_compress_attention(
        self, grad_hs: np.ndarray, units: list[AttnPoolUnit], token_count: int
    ) -> np.ndarray:
        p = self.params
        d = grad_hs.shape[1]
        scale = 1.0 / np.sqrt(d)
        q = p.attn_query.data
        grad_e = np.zeros((token_count, d))
        grad_q = np.zeros(d)
        for g, unit in zip(grad_hs, units):
            d_values = np.outer(unit.alpha, g)
            d_alpha = unit.values @ g
            d_logits = unit.alpha * (d_alpha - float(d_alpha @ unit.alpha))
            grad_window = p.attn_value.backward(d_values, unit.value_cache)
            grad_window = grad_window + np.outer(d_logits, q) * scale
            grad_q += unit.window.T @ d_logits * scale
            grad_e[unit.span[0] : unit.span[1]] += grad_window
        p.attn_query.accumulate(grad_q)
        return grad_e

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
        boundary = BoundaryMap(list(ranges))
        boundary.validate(seq.char_count)
        last_indices = subword_align(boundary, seq.char_count) if ranges else []

        e, subchar_ids = self.embed_subchars(seq)
        cache = ForwardCache(
            text, seq, subchar_ids, subword_ids, ranges, last_indices,
            e_S=np.zeros((0, d)), h_S=np.zeros((0, d)), cls=cfg.cls_bypass,
        )

        if ranges:
            if cfg.compression == "principles":
                h_c, cache.stage1 = self.stage1_subchar_to_char(e, seq)
                h_s, cache.stage2 = self.stage2_char_to_unit(h_c, last_indices)
            elif cfg.compression == "linear":
                h_s, cache.linear_cache = self.compress_linear(e, last_indices)
            else:
                h_s, cache.attn_units = self.compress_attention(e, ranges)
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
            grad_e = self.backward_compress_attention(grad_hs, cache.attn_units, len(cache.seq))
        self.params.subchar_emb.backward(grad_e, cache.subchar_ids)

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
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["token"] + [f"dim{i}" for i in range(dim)])
    for label, vector in rows:
        writer.writerow([label] + [repr(float(x)) for x in vector])
    return buf.getvalue()
