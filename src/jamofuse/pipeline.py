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
a learned projection of each unit's last character's fixed-width token window,
and per-unit attention pooling with a single learned query. Both select or
pool first and project once per unit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Sequence, Union

import re

import numpy as np

from .common import COMPRESSIONS, FUSIONS, GRANULARITIES, ConfigError, csv_text
from .layers import Conv2x1, CrossAttention, Embedding, GRUCache, GRULayer, Linear, distinct_ids, scatter_add
from .subchar import SCHEME_NAMES, SubcharScheme, SubcharSequence, SubcharTokenizer
from .subword import AlignmentError, BoundaryMap, SubwordVocab
from .subword import encode as subword_encode
from .tensor import ParamGroup, ShapeError, Tensor, uniform_init

# texts a Pipeline keeps tokenized; the memo is emptied when it is full
MEMO_TEXTS = 1024


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
        if self.fusion != "cross-attention" and (self.heads != 1 or self.residual_fusion):
            raise ConfigError(f"heads and residual_fusion apply only to cross-attention fusion, not {self.fusion}")
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
    """Every parameter tensor of one configuration, in a stable named order.

    Only the layers the configuration uses are created, so different
    compression or fusion choices produce different parameter sets (and
    therefore different checkpoints) even at the same seed. Every tensor's
    data and grad are views into group.data and group.grad, one flat vector
    each.
    """

    def __init__(self, config: PipelineConfig, subchar_vocab_size: int, subword_vocab_size: int, seed: int):
        config.validate()
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
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
            self.attn_query = self.group.add("compress_attn.query", Tensor(uniform_init(rng, (d,), d)))
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
class PackedBatch:
    """Tokenized texts in the packed layout of the principles GRUs.

    Texts are sorted longest first (stable), and every array is time-major,
    as PyTorch's pack_padded_sequence lays them out: character step k holds
    the first char_sizes[k] sorted texts, and no row is padding. rows[c] is
    the packed row of batch character c, the characters counted over the
    texts, text after text. Tokens follow the same order at width W: token
    step k*W + s has char_sizes[k] rows, and slots[r] names the W token rows
    of character row r. A single text keeps its own order and is one plain
    sequence, so its rows are its characters' positions and its char_sizes
    is None, as GRULayer takes a plain sequence.
    """

    slots: np.ndarray  # (chars, W) token rows of each character row
    passthrough: np.ndarray  # (chars,) True where the character has no slot structure
    tokens: np.ndarray  # (chars * W,) subcharacter ids in packed token order
    rows: np.ndarray  # (chars,) packed row of each batch character
    char_sizes: Optional[np.ndarray] = None  # (steps,) texts with more than k characters

    @property
    def token_sizes(self) -> Optional[np.ndarray]:
        return None if self.char_sizes is None else np.repeat(self.char_sizes, self.slots.shape[1])

    def slot_rows(self, h: np.ndarray, s: int) -> np.ndarray:
        """(chars, d): the rows of h at each character's slot s."""
        if self.char_sizes is None:  # one text: character k owns token rows k*W .. (k+1)*W
            return h[s :: self.slots.shape[1]]
        return h[self.slots[:, s]]

    def slot_sum(self, h: np.ndarray, start: int, stop: int) -> np.ndarray:
        """(chars, d): the rows of h at each character's slots start .. stop - 1, added in slot order.

        One slot is gathered at a time, so no (chars, k, d) copy of h is held.
        """
        if stop - start == 1:
            return self.slot_rows(h, start)
        total = self.slot_rows(h, start) + self.slot_rows(h, start + 1)
        for s in range(start + 2, stop):
            total += self.slot_rows(h, s)
        return total


def pack(seqs: list[SubcharSequence], width: int) -> PackedBatch:
    """The packed layout of tokenized texts."""
    if len(seqs) == 1:
        (seq,) = seqs
        rows = np.arange(len(seq.passthrough))
        return PackedBatch(np.arange(len(seq.tokens)).reshape(-1, width), seq.passthrough, seq.tokens, rows)
    lengths = np.array([len(s.passthrough) for s in seqs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    steps = int(lengths.max(initial=0))
    char_sizes = (lengths[:, None] > np.arange(steps)).sum(axis=0)
    step_offsets = np.concatenate([[0], np.cumsum(char_sizes)])  # first row of each character step
    k = np.repeat(np.arange(steps), char_sizes)  # character position of each row
    j = np.arange(step_offsets[-1]) - step_offsets[k]  # sorted text of each row
    # the row's character in the texts' characters, text after text
    source = (np.cumsum(lengths) - lengths)[order[j]] + k
    slots = (width * step_offsets[k] + j)[:, None] + np.arange(width) * char_sizes[k][:, None]
    tokens = np.empty(slots.size, dtype=np.int64)
    tokens[slots] = np.concatenate([s.tokens for s in seqs]).reshape(-1, width)[source]
    passthrough = np.concatenate([s.passthrough for s in seqs])[source]
    rows = np.empty_like(source)
    rows[source] = np.arange(source.size)
    return PackedBatch(slots, passthrough, tokens, rows, char_sizes)


@dataclass
class Stage1Cache:
    seq_cache: GRUCache
    iv_cache: GRUCache
    conv_cache: tuple[np.ndarray, np.ndarray]  # the convolution's two input rows
    batch: PackedBatch


@dataclass
class AttnPoolCache:
    ids: np.ndarray  # (tokens,) row of each token in table
    table: np.ndarray  # (n, d) token rows that ids index
    starts: np.ndarray  # (units,) first token row of each unit; the units tile the tokens
    sizes: np.ndarray  # (units,) tokens of each unit
    alpha: np.ndarray  # (tokens,) attention weight of each token within its unit
    value_cache: np.ndarray  # (units, d) pooled token rows, the value projection's input


@dataclass
class ForwardCache:
    """One forward call's record for backward and unit_labels. Every unit is
    located by its batch character range: its character span counted over
    the batch's texts, text after text."""

    texts: list[str]
    seqs: list[SubcharSequence]
    ranges: list[tuple[int, int]]  # every unit's batch character range: over the texts, text after text
    unit_offsets: np.ndarray  # (texts + 1,) first unit of each text
    e_S: np.ndarray
    h_S: np.ndarray
    subword_ids: Optional[np.ndarray] = None
    last_indices: Optional[np.ndarray] = None  # (units,) packed row of each unit's last character (principles)
    tokens: Optional[np.ndarray] = None  # subcharacter ids in the order of the compression's token rows
    stage1: Optional[Stage1Cache] = None
    stage2: Optional[GRUCache] = None
    linear_cache: Optional[np.ndarray] = None
    attn_pool: Optional[AttnPoolCache] = None
    fuse_cache: Optional[object] = None
    cls: bool = False

    @property
    def unit_rows(self) -> np.ndarray:
        """Output row of each unit."""
        if not self.cls:
            return np.arange(len(self.ranges))
        return np.arange(len(self.ranges)) + np.repeat(np.arange(1, len(self.texts) + 1), np.diff(self.unit_offsets))

    @property
    def cls_rows(self) -> np.ndarray:
        """Output row of each text's <cls> row."""
        return self.unit_offsets[:-1] + np.arange(len(self.texts))

    @property
    def row_count(self) -> int:
        """Number of output rows: one per unit, plus each text's <cls> row when bypassed."""
        return len(self.ranges) + (len(self.texts) if self.cls else 0)


class Pipeline:
    """One configuration's parameters and tokenizers, made together from the config, the
    subword vocab and the seed, so the tables fit the tokenizer and the vocab."""

    def __init__(self, config: PipelineConfig, subword_vocab: SubwordVocab, seed: int):
        self.tokenizer = SubcharTokenizer(config.scheme)
        self.subword_vocab = subword_vocab
        self.params = PipelineParams(config, len(self.tokenizer.vocab), subword_vocab.size, seed)
        self.config = config
        # text -> (tokenized text, unit ids, unit ranges), with read-only arrays
        self._memo: dict[str, tuple[SubcharSequence, tuple[int, ...], tuple[tuple[int, int], ...]]] = {}
        # Pipeline.forward's memo: (texts, the table places they read, those bytes and the other
        # tensors', result); the last three are None until a call repeats the texts
        self._last: Optional[tuple] = None

    @staticmethod
    def build(config: PipelineConfig, subword_vocab: SubwordVocab, seed: int) -> "Pipeline":
        return Pipeline(config, subword_vocab, seed)

    # unit boundaries --------------------------------------------------------

    def unit_ranges(self, text: str) -> tuple[list[int], list[tuple[int, int]]]:
        """Subword ids and character ranges at the configured granularity."""
        granularity = self.config.granularity
        if granularity == "subword":
            ids, boundary = subword_encode(text, self.subword_vocab)
            return ids, list(boundary.ranges)
        ranges = [(i, i + 1) for i in range(len(text))] if granularity == "character" else _whitespace_runs(text)
        return self._unit_ids(text, ranges), ranges

    def _unit_ids(self, text: str, ranges: list[tuple[int, int]]) -> list[int]:
        """The vocab entry for each unit's exact text, falling back to UNK."""
        entries, unk = self.subword_vocab.entries, self.subword_vocab.unk_id
        return [entries.get(text[a:b], unk) for a, b in ranges]

    def _tokenized(
        self, text: str, boundary: Optional[BoundaryMap]
    ) -> tuple[SubcharSequence, Sequence[int], Sequence[tuple[int, int]]]:
        """The text's subcharacter sequence, unit ids and unit ranges.

        A given boundary map sets the units, whatever the granularity: its
        ranges must tile the text and be non-empty, and it bypasses the memo.
        Without a map, unit_ranges gives the units, memoized per text.
        """
        if boundary is not None:
            boundary.validate(len(text))
            ranges = list(boundary.ranges)
            if any(a == b for a, b in ranges):
                raise AlignmentError("boundary map has an empty range, which has no last character")
            return self.tokenizer.tokenize(text), self._unit_ids(text, ranges), ranges
        hit = self._memo.get(text)
        if hit is None:
            seq = self.tokenizer.tokenize(text)
            seq.tokens.flags.writeable = seq.passthrough.flags.writeable = False
            ids, ranges = self.unit_ranges(text)
            if len(self._memo) >= MEMO_TEXTS:
                self._memo.clear()
            hit = self._memo[text] = (seq, tuple(ids), tuple(ranges))
        return hit

    # pipeline stages --------------------------------------------------------

    def stage1_subchar_to_char(
        self, ids: np.ndarray, batch: PackedBatch, table: np.ndarray
    ) -> tuple[np.ndarray, Stage1Cache]:
        """Packed token ids to packed character rows; token row r is table[ids[r]]."""
        p = self.params
        w = self.tokenizer.scheme.width
        wi, wv, _ = self.tokenizer.scheme.widths
        n = ids.shape[0]
        if n != batch.slots.size:
            raise ShapeError(f"token count {n} is not the multiple of width {w} that {len(batch.slots)} characters fill")

        h, seq_cache = p.gru_seq.forward(ids, batch.token_sizes, table=table)

        pt = batch.passthrough[:, None]
        first = batch.slot_rows(h, 0)
        x_iv = np.where(pt, first, batch.slot_sum(h, 0, wi) + batch.slot_sum(h, wi, wi + wv))
        h_f = np.where(pt, 0.0, batch.slot_sum(h, wi + wv, w))

        h_iv, iv_cache = p.gru_iv.forward(x_iv, batch.char_sizes)
        conv_out, conv_cache = p.conv.forward(h_iv, h_f)
        h_c = np.where(pt, first, conv_out)
        return h_c, Stage1Cache(seq_cache, iv_cache, conv_cache, batch)

    def backward_stage1(self, grad_hc: np.ndarray, cache: Stage1Cache) -> np.ndarray:
        p = self.params
        wi, wv, _ = self.tokenizer.scheme.widths
        slots, pt = cache.batch.slots, cache.batch.passthrough[:, None]

        grad_iv, grad_f = p.conv.backward(np.where(pt, 0.0, grad_hc), cache.conv_cache)
        grad_xiv = p.gru_iv.backward(grad_iv, cache.iv_cache)
        # A passthrough character's whole gradient goes to slot 0, the state that stood in for it.
        grad_h = np.empty((slots.size, grad_hc.shape[1]))
        grad_h[slots[:, : wi + wv]] = np.where(pt, 0.0, grad_xiv)[:, None]
        grad_h[slots[:, wi + wv :]] = np.where(pt, 0.0, grad_f)[:, None]
        grad_h[slots[:, 0]] += np.where(pt, grad_hc + grad_xiv, 0.0)
        return p.gru_seq.backward(grad_h, cache.seq_cache)

    def stage2_char_to_unit(
        self, h_c: np.ndarray, last_indices: np.ndarray, char_sizes: np.ndarray
    ) -> tuple[np.ndarray, GRUCache]:
        """Packed character rows to the states at each unit's last character row."""
        last_indices = np.asarray(last_indices, dtype=np.int64)
        if last_indices.size and last_indices.max() >= h_c.shape[0]:
            raise ShapeError(f"selection index {last_indices.max()} out of range for {h_c.shape[0]} characters")
        hs, cache = self.params.gru_char.forward(h_c, char_sizes)
        return hs[last_indices], cache

    def backward_stage2(self, grad_hs: np.ndarray, cache: GRUCache, last_indices: np.ndarray) -> np.ndarray:
        grad_states = scatter_add(last_indices, grad_hs, cache.x.shape[0])
        return self.params.gru_char.backward(grad_states, cache)

    def compress_attention(
        self, ids: np.ndarray, ranges: list[tuple[int, int]], table: np.ndarray
    ) -> tuple[np.ndarray, AttnPoolCache]:
        """One attention-pooled vector per unit; token row r is table[ids[r]], and the
        character ranges must tile the tokens' characters.

        The softmax runs per unit span as a segment softmax: maxima and sums over
        the spans come from np.maximum.reduceat and np.add.reduceat. A unit's
        weights sum to 1, so pooling the token rows and then projecting them once,
        (sum_t a_t e_t) W + b, is the pooling of the projected rows e_t W + b.
        """
        p = self.params
        w = self.tokenizer.scheme.width
        bounds = np.array(ranges, dtype=np.int64).reshape(-1, 2) * w
        starts, sizes = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
        if starts.size and (starts[0] != 0 or (starts[1:] != bounds[:-1, 1]).any() or bounds[-1, 1] != ids.shape[0]):
            raise ShapeError(f"unit ranges do not tile {ids.shape[0] // w} characters")
        scale = 1.0 / np.sqrt(table.shape[1])
        logits = (table @ p.attn_query.data * scale)[ids]
        shifted = np.exp(logits - np.repeat(np.maximum.reduceat(logits, starts), sizes))
        alpha = shifted / np.repeat(np.add.reduceat(shifted, starts), sizes)
        weighted = table[ids]
        weighted *= alpha[:, None]
        out, value_cache = p.attn_value.forward(np.add.reduceat(weighted, starts, axis=0))
        return out, AttnPoolCache(ids, table, starts, sizes, alpha, value_cache)

    def backward_compress_attention(self, grad_hs: np.ndarray, cache: AttnPoolCache) -> np.ndarray:
        """The (tokens, d) gradient on the token rows; the rows are gathered from the table again."""
        p = self.params
        scale = 1.0 / np.sqrt(grad_hs.shape[1])
        alpha = cache.alpha
        e = cache.table[cache.ids]
        grad_pooled = p.attn_value.backward(grad_hs, cache.value_cache)
        grad_e = np.repeat(grad_pooled, cache.sizes, axis=0)  # each token's pooled-row gradient
        d_alpha = (e * grad_e).sum(axis=1)
        d_logits = alpha * (d_alpha - np.repeat(np.add.reduceat(d_alpha * alpha, cache.starts), cache.sizes))
        p.attn_query.accumulate(e.T @ d_logits * scale)
        grad_e *= alpha[:, None]
        return grad_e + np.outer(d_logits, p.attn_query.data) * scale

    def fuse(
        self, e_s: np.ndarray, h_s: np.ndarray, unit_offsets: np.ndarray
    ) -> tuple[np.ndarray, Optional[object]]:
        """Fuses the unit rows of every text in one call. Cross-attention stays within
        each text's units: the layer runs one attention for the texts of each unit
        count, nothing padded (CrossAttention)."""
        if e_s.shape != h_s.shape:
            raise ShapeError(f"fusion inputs {e_s.shape} and {h_s.shape} do not match")
        mode = self.config.fusion
        if mode == "summation":
            return e_s + h_s, None
        if mode == "concatenation":
            return self.params.fuse_proj.forward(np.concatenate([e_s, h_s], axis=1))
        return self.params.fuse_attn.forward(e_s, h_s, unit_offsets)

    def backward_fuse(
        self, grad_out: np.ndarray, fuse_cache: Optional[object]
    ) -> tuple[np.ndarray, np.ndarray]:
        mode = self.config.fusion
        if mode == "summation":
            return grad_out, grad_out.copy()
        if mode == "concatenation":
            grad_cat = self.params.fuse_proj.backward(grad_out, fuse_cache)
            d = grad_out.shape[1]
            return grad_cat[:, :d], grad_cat[:, d:]
        return self.params.fuse_attn.backward(grad_out, fuse_cache)

    # end to end -------------------------------------------------------------

    def forward(
        self,
        texts: Union[str, Sequence[str]],
        external_boundary: Union[None, BoundaryMap, Sequence[Optional[BoundaryMap]]] = None,
    ) -> tuple[np.ndarray, ForwardCache]:
        """The output rows of one text, or of a batch of texts, text after text.

        A text's rows are a <cls> row when cls_bypass is set, then one fused
        vector per unit. A text without characters has no unit rows. A
        boundary map given for a text sets its units (Pipeline._tokenized); a
        text without one takes the configured granularity. For a batch,
        external_boundary holds one entry per text, a map or None. The
        principles GRUs run the batch as packed sequences (PackedBatch); a
        single text is the batch of one. Cross-attention fusion holds heads x
        U x U attention weights for each text of U units, and no more.

        The pipeline keeps one memo, on the GRU memo's contract: bytes, not
        values, and read-only results. It holds the texts of the last call, a
        str as the batch of one, so a call with other texts pays one tuple
        comparison. The first call that repeats them keeps its result, with
        byte copies of what the forward reads: the subchar_emb rows of the
        texts' tokens (and the <cls> row under cls_bypass), the subword_emb
        rows of their units, and every other tensor of the group, whole. A
        later repeat whose bytes equal the kept ones gets the kept result, and
        any other repeat computes and returns its result unkept. When a
        forward runs before a gradient check, as `gradcheck.check_pipeline`
        runs one to size its direction, the check's unperturbed call is the
        first repeat, and most perturbed coordinates sit in table rows the
        text never reads. A call given boundary maps bypasses the memo and
        empties it, and a call that raises leaves it as it was.
        """
        if external_boundary is not None:
            self._last = None
            return self._forward(texts, external_boundary)
        key = (texts,) if isinstance(texts, str) else tuple(texts)
        if self._last is None or self._last[0] != key:
            result = self._forward(key, None)
            self._last = key, None, None, None
            return result
        _, reads, kept_bits, kept = self._last
        if kept is None:
            result = self._forward(key, None)
            _read_only(result)
            reads = self._reads(result[1])
            self._last = key, reads, self._read_bits(reads), result
            return result
        if self._read_bits(reads) == kept_bits:
            return kept
        return self._forward(key, None)

    def _reads(self, cache: ForwardCache) -> np.ndarray:
        """The places in the flat parameter buffer of the table rows that a forward of cache's texts reads.

        The group lays its tensors out in order, so subchar_emb's table comes
        first and subword_emb's second.
        """
        p = self.params
        rows = [np.zeros(0, dtype=np.int64)]
        if cache.tokens is not None:
            rows.append(cache.tokens)
        if cache.cls:
            rows.append([self.tokenizer.vocab.cls_id])
        if cache.subword_ids is not None:
            rows.append(cache.subword_ids + p.subchar_emb.vocab_size)
        rows, _ = distinct_ids(np.concatenate(rows))
        return (rows[:, None] * self.config.dim + np.arange(self.config.dim)).ravel()

    def _read_bits(self, reads: np.ndarray) -> tuple[bytes, bytes]:
        """Copies of the bytes a forward reads: the table places given, then every tensor after the tables."""
        p = self.params
        tables = p.subchar_emb.table.data.size + p.subword_emb.table.data.size
        return np.take(p.group.data, reads).tobytes(), p.group.data[tables:].tobytes()

    def _forward(
        self,
        texts: Union[str, Sequence[str]],
        external_boundary: Union[None, BoundaryMap, Sequence[Optional[BoundaryMap]]],
    ) -> tuple[np.ndarray, ForwardCache]:
        """Pipeline.forward without its memo."""
        cfg = self.config
        d, w = cfg.dim, self.tokenizer.scheme.width
        if isinstance(texts, str):
            texts, boundaries = [texts], [external_boundary]
        else:
            texts = list(texts)
            boundaries = [None] * len(texts) if external_boundary is None else list(external_boundary)
        if len(boundaries) != len(texts):
            raise ConfigError(f"{len(boundaries)} boundary maps for {len(texts)} texts; give one boundary map per text")
        seqs, subword_ids, ranges, unit_offsets, chars = [], [], [], [0], 0
        for text, boundary in zip(texts, boundaries):
            seq, text_ids, text_ranges = self._tokenized(text, boundary)
            seqs.append(seq)
            subword_ids += text_ids
            ranges += [(a + chars, b + chars) for a, b in text_ranges]
            unit_offsets.append(len(ranges))
            chars += len(text)
        last = [b - 1 for _, b in ranges]  # each unit's last batch character

        cache = ForwardCache(
            texts, seqs, ranges, np.array(unit_offsets),
            e_S=np.zeros((0, d)), h_S=np.zeros((0, d)), cls=cfg.cls_bypass,
        )
        fused = cache.e_S
        if ranges:
            if cfg.compression == "principles":
                batch = pack(seqs, w)
                cache.tokens = batch.tokens
                cache.last_indices = batch.rows[last]
                # the first GRU projects the rows of the distinct ids, not one row per token
                used, local = distinct_ids(batch.tokens)
                e_used, _ = self.params.subchar_emb.forward(used)
                h_c, cache.stage1 = self.stage1_subchar_to_char(local, batch, e_used)
                h_s, cache.stage2 = self.stage2_char_to_unit(h_c, cache.last_indices, batch.char_sizes)
            else:
                # no recurrence: the texts' tokens stay in order, one after the other
                tokens = np.concatenate([seq.tokens for seq in seqs])
                if cfg.compression == "linear":
                    # only the token rows of each unit's last character are looked up and projected
                    cache.tokens = tokens.reshape(-1, w)[last].ravel()
                    e, _ = self.params.subchar_emb.forward(cache.tokens)
                    h_s, cache.linear_cache = self.params.char_proj.forward(e.reshape(len(ranges), w * d))
                else:
                    cache.tokens = tokens
                    used, local = distinct_ids(tokens)
                    table, _ = self.params.subchar_emb.forward(used)
                    h_s, cache.attn_pool = self.compress_attention(local, ranges, table)
            e_s, cache.subword_ids = self.params.subword_emb.forward(subword_ids)
            fused, cache.fuse_cache = self.fuse(e_s, h_s, cache.unit_offsets)
            cache.e_S, cache.h_S = e_s, h_s
        if not cfg.cls_bypass:
            return fused, cache
        out = np.empty((cache.row_count, d))
        out[cache.unit_rows] = fused
        out[cache.cls_rows] = self.params.subchar_emb.table.data[self.tokenizer.vocab.cls_id]
        return out, cache

    def backward(self, grad_out: np.ndarray, cache: ForwardCache) -> None:
        """Accumulates parameter gradients for one forward call's output grad."""
        if grad_out.shape != (cache.row_count, self.config.dim):
            raise ShapeError(
                f"output grad {grad_out.shape} does not match ({cache.row_count}, {self.config.dim})"
            )
        if cache.cls:
            cls_ids = np.full(len(cache.texts), self.tokenizer.vocab.cls_id)
            self.params.subchar_emb.backward(grad_out[cache.cls_rows], cls_ids)
        if not cache.ranges:
            return

        grad_es, grad_hs = self.backward_fuse(grad_out[cache.unit_rows] if cache.cls else grad_out, cache.fuse_cache)
        self.params.subword_emb.backward(grad_es, cache.subword_ids)

        cfg = self.config
        if cfg.compression == "principles":
            grad_hc = self.backward_stage2(grad_hs, cache.stage2, cache.last_indices)
            grad_e = self.backward_stage1(grad_hc, cache.stage1)
        elif cfg.compression == "linear":
            grad_e = self.params.char_proj.backward(grad_hs, cache.linear_cache).reshape(-1, cfg.dim)
        else:
            grad_e = self.backward_compress_attention(grad_hs, cache.attn_pool)
        self.params.subchar_emb.backward(grad_e, cache.tokens)

    def unit_labels(self, cache: ForwardCache) -> list[str]:
        """One label per output row: unit texts, each text's preceded by <cls> if bypassed."""
        chars, labels = "".join(cache.texts), []
        for a, b in zip(cache.unit_offsets, cache.unit_offsets[1:]):
            if cache.cls:
                labels.append("<cls>")
            labels += [chars[i:j] for i, j in cache.ranges[a:b]]
        return labels


def _read_only(obj: object) -> None:
    """Marks every array that obj holds read-only: obj itself, and the arrays in its tuples, lists
    and dataclass fields, at any depth."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _read_only(item)
    elif is_dataclass(obj):
        for item in vars(obj).values():
            _read_only(item)


def _whitespace_runs(text: str) -> list[tuple[int, int]]:
    """Maximal runs of whitespace or non-whitespace characters, in order.

    In a str pattern, \\s matches exactly the characters for which str.isspace is true.
    """
    return [m.span() for m in re.finditer(r"\s+|\S+", text)]


def embeddings_csv(rows: list[tuple[str, np.ndarray]], dim: int) -> str:
    """`token,dim0,...` CSV of labeled embedding rows."""
    return csv_text(["token"] + [f"dim{i}" for i in range(dim)], ([label, *vector] for label, vector in rows))
