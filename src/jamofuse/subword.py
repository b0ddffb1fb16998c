"""Deterministic subword vocabulary training and greedy encoding.

The vocabulary exists to provide the parallel subword channel and, more
importantly, the subword -> character boundary map that drives last-character
pooling. Training is a plain pair-merge loop (bpe-lite) with fully specified
tie-breaking so the same corpus always yields byte-identical vocab files;
encoding is greedy longest-match, never crossing whitespace.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .common import ConfigError, open_text, write_atomic

UNK = "<unk>"
PAD = "<pad>"
CLS = "<cls>"
BOS = "<bos>"
EOS = "<eos>"
SPECIALS = [UNK, PAD, CLS, BOS, EOS]

MODES = ("bpe-lite", "wordlist", "charlist")
_UNESCAPES = {"n": "\n", "t": "\t", "\\": "\\"}


class AlignmentError(ValueError):
    pass


@dataclass
class BoundaryMap:
    """Half-open character ranges, one per subword token, in order.

    Ranges must be contiguous, non-overlapping, and cover every character;
    only a CLS token may own an empty range.
    """

    ranges: list[tuple[int, int]]

    def validate(self, char_count: int) -> None:
        pos = 0
        for a, b in self.ranges:
            if a != pos or b < a:
                raise AlignmentError(f"boundary ranges not contiguous at ({a}, {b}), expected start {pos}")
            pos = b
        if pos != char_count:
            raise AlignmentError(f"boundary covers {pos} characters, text has {char_count}")

    @property
    def char_count(self) -> int:
        return self.ranges[-1][1] if self.ranges else 0


@dataclass
class SubwordVocab:
    mode: str
    entries: dict[str, int]  # token string -> id; specials included

    size: int = field(init=False)

    def __post_init__(self):
        self.size = len(self.entries)
        ids = list(self.entries.values())
        if any(type(i) is not int for i in ids) or sorted(ids) != list(range(self.size)):
            raise ConfigError(f"vocab ids must be the integers 0..{self.size - 1}, each used once")
        missing = [t for t in SPECIALS if t not in self.entries]
        if missing:
            raise ConfigError(f"vocab lacks the special tokens {missing}")
        self._by_id = {i: t for t, i in self.entries.items()}
        self._max_len = max((len(t) for t in self.entries if t not in SPECIALS), default=1)

    def token(self, token_id: int) -> str:
        return self._by_id[token_id]

    @property
    def unk_id(self) -> int:
        return self.entries[UNK]

    @property
    def cls_id(self) -> int:
        return self.entries[CLS]


def _char_inventory(texts: list[str]) -> list[str]:
    return sorted({ch for text in texts for ch in text})


def _merge_word(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    merged: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            merged.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return tuple(merged)


def _merges(words: Counter) -> Iterator[str]:
    """The symbol each bpe-lite merge makes, in order, over words (symbol tuple -> frequency).

    Each merge joins the most frequent adjacent pair (ties: the smallest pair)
    in every word, left to right and without overlap. The pairs are counted
    once; after that a merge re-merges only the words that hold its pair,
    found through a pair -> word index, and updates the counts of the pairs
    those words lose and gain. A heap of (-count, pair) finds the best pair;
    an entry whose count is no longer current is skipped when popped.
    """
    symbols = list(words)
    freqs = [words[w] for w in symbols]
    counts: Counter = Counter()
    holders: dict[tuple[str, str], set[int]] = defaultdict(set)
    for i, (word, freq) in enumerate(zip(symbols, freqs)):
        for pair in zip(word, word[1:]):
            counts[pair] += freq
            holders[pair].add(i)
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)
    while heap:
        count, best = heapq.heappop(heap)
        if counts[best] != -count:
            continue
        changed = set()
        for i in holders.pop(best):
            old = Counter(zip(symbols[i], symbols[i][1:]))
            symbols[i] = _merge_word(symbols[i], best)
            new = Counter(zip(symbols[i], symbols[i][1:]))
            for pair in old.keys() | new.keys():
                delta = new[pair] - old[pair]
                if delta:
                    counts[pair] += delta * freqs[i]
                    changed.add(pair)
                if pair in new:
                    holders[pair].add(i)
                elif pair != best:  # best's whole entry was popped
                    holders[pair].discard(i)
        for pair in changed:
            if counts[pair] > 0:
                heapq.heappush(heap, (-counts[pair], pair))
        yield best[0] + best[1]


def train_vocab(corpus: Iterable[str], target_size: int, mode: str = "bpe-lite") -> SubwordVocab:
    """Build a vocabulary from a text stream.

    bpe-lite grows the character inventory by repeatedly merging the most
    frequent adjacent pair (ties: higher frequency first, then lexicographic
    pair order); wordlist adds whole whitespace-words by frequency; charlist
    stops at the character inventory. All modes keep every corpus character
    encodable and are deterministic for a fixed corpus + settings. A learned
    token that spells a special (`<unk>` in the text, say) is skipped, as is
    one already in the vocab, so every id stays used once.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown vocab mode {mode!r}, expected one of {MODES}")
    texts = [line.rstrip("\n") for line in corpus]
    texts = [t for t in texts if t]
    if not texts:
        raise ConfigError("empty corpus")

    chars = _char_inventory(texts)
    base = len(SPECIALS) + len(chars)
    if target_size < base:
        raise ConfigError(f"target size {target_size} below base inventory {base}")

    tokens = dict.fromkeys(SPECIALS + chars)  # keys in id order; setting a key already there keeps its id
    if mode == "wordlist":
        word_freq = Counter(w for t in texts for w in t.split())
        candidates = (word for word, _ in sorted(word_freq.items(), key=lambda kv: (-kv[1], kv[0])))
    elif mode == "bpe-lite":
        candidates = _merges(Counter(tuple(w) for t in texts for w in t.split()))
    else:
        candidates = iter(())
    while len(tokens) < target_size:
        token = next(candidates, None)
        if token is None:
            break
        tokens[token] = None

    return SubwordVocab(mode, {token: i for i, token in enumerate(tokens)})


def encode(text: str, vocab: SubwordVocab, add_cls: bool = False) -> tuple[list[int], BoundaryMap]:
    """Greedy longest-match encoding with a character boundary map.

    Whitespace always terminates a match and becomes its own token; unseen
    characters map to UNK with a width-1 range. With add_cls, a CLS token
    owning no characters is prepended.
    """
    ids: list[int] = []
    ranges: list[tuple[int, int]] = []
    if add_cls:
        ids.append(vocab.cls_id)
        ranges.append((0, 0))
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            ids.append(vocab.entries.get(text[i], vocab.unk_id))
            ranges.append((i, i + 1))
            i += 1
            continue
        limit = i
        while limit < n and not text[limit].isspace():
            limit += 1
        best = None
        for stop in range(min(limit, i + vocab._max_len), i, -1):
            candidate = text[i:stop]
            if candidate in vocab.entries:
                best = (vocab.entries[candidate], stop)
                break
        if best is None:
            best = (vocab.unk_id, i + 1)
        ids.append(best[0])
        ranges.append((i, best[1]))
        i = best[1]
    boundary = BoundaryMap(ranges)
    boundary.validate(len(text))
    return ids, boundary


def decode(ids: list[int], vocab: SubwordVocab) -> str:
    """Inverse of encode for fully covered text; UNK decodes to its marker."""
    return "".join(vocab.token(i) for i in ids if i != vocab.cls_id)


def save_vocab(vocab: SubwordVocab, path: str | Path) -> None:
    """One `<token> TAB <id>` line per entry after a mode/size header.

    Tokens are stored with backslash escapes for tab, newline, and backslash
    so whitespace tokens survive the round trip.
    """
    lines = [f"mode={vocab.mode}\tsize={vocab.size}"]
    for token, idx in sorted(vocab.entries.items(), key=lambda kv: kv[1]):
        escaped = token.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
        lines.append(f"{escaped}\t{idx}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_vocab(path: str | Path) -> SubwordVocab:
    with open_text(path, newline="\n") as f:
        lines = f.read().split("\n")
    if not lines or not lines[0].startswith("mode="):
        raise ConfigError(f"{path}: missing vocab header")
    fields = lines[0].split("\t")
    for part in fields:
        if "=" not in part:
            raise ConfigError(f"{path}: vocab header field {part!r} is not key=value")
    header = dict(part.split("=", 1) for part in fields)
    if "size" not in header:
        raise ConfigError(f"{path}: vocab header has no size= field")
    entries: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        escaped, _, idx = line.rpartition("\t")
        token_chars: list[str] = []
        i = 0
        while i < len(escaped):
            if escaped[i] == "\\" and i + 1 < len(escaped):
                if escaped[i + 1] not in _UNESCAPES:
                    raise ConfigError(f"{path}:{lineno}: unknown escape \\{escaped[i + 1]} in {escaped!r}")
                token_chars.append(_UNESCAPES[escaped[i + 1]])
                i += 2
            else:
                token_chars.append(escaped[i])
                i += 1
        try:
            entries["".join(token_chars)] = int(idx)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: id {idx!r} is not an integer") from None
    try:
        vocab = SubwordVocab(header["mode"], entries)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    if header["size"] != str(vocab.size):
        raise ConfigError(f"{path}: header size {header['size']!r} != {vocab.size} entries")
    return vocab
