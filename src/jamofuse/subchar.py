"""Fixed-width subcharacter tokenization of Hangul text.

Every character of the input becomes exactly W tokens, where W depends on the
scheme:

    jamo    (1, 1, 1)  W=3    one slot each for initial / vowel / final
    stroke  (4, 1, 4)  W=9    consonants decomposed into stroke atoms
    cji     (1, 5, 1)  W=7    vowels decomposed into Cheonjiin atoms
    bts     (4, 5, 4)  W=13   both decompositions

A syllable fills its (I, V, F) slots with the decomposition atoms of its three
letters, left-packed and padded; a missing final is marked with the empty-final
token. A bare consonant letter fills only the I slots, a bare vowel only the V
slots. Any other character becomes a single passthrough token plus padding
and is flagged in the sequence's passthrough mask. The fixed width keeps the
token count law N = W * chars for any input, so the ids form a (chars, W) grid
and a token's role follows from its offset in its window. Each tokenizer
decomposes a character once, the first time it sees it, and looks it up after.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import hangul

PAD = "<pad>"
EMPTY_FINAL = "▃"  # ▃, stands in for a missing final consonant
CLS = "<cls>"
OTHER = "<other>"  # shared id for passthrough characters outside the ascii bank

ROLE_I = "I"
ROLE_V = "V"
ROLE_F = "F"
ROLE_OTHER = "O"

_WIDTHS = {
    "jamo": (1, 1, 1),
    "stroke": (4, 1, 4),
    "cji": (1, 5, 1),
    "bts": (4, 5, 4),
}
SCHEME_NAMES = tuple(_WIDTHS)


@dataclass(frozen=True)
class SubcharScheme:
    name: str
    widths: tuple[int, int, int]

    @property
    def width(self) -> int:
        return sum(self.widths)

    @staticmethod
    def by_name(name: str) -> "SubcharScheme":
        key = name.lower()
        if key not in _WIDTHS:
            raise ValueError(f"unknown scheme {name!r}, expected one of {SCHEME_NAMES}")
        return SubcharScheme(key, _WIDTHS[key])


def parse_decomp_table(lines: Iterable[str], max_width: int) -> dict[str, tuple[str, ...]]:
    """Parse `<letter> TAB <atom>{,<atom>}` lines; '#' starts a comment line."""
    table: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            letter, atoms_field = line.split("\t")
        except ValueError:
            raise ValueError(f"line {lineno}: expected '<letter> TAB <atoms>', got {line!r}")
        atoms = tuple(atoms_field.split(","))
        if not atoms or any(not a for a in atoms):
            raise ValueError(f"line {lineno}: empty atom in {line!r}")
        if len(atoms) > max_width:
            raise ValueError(f"line {lineno}: {letter!r} has {len(atoms)} atoms, limit {max_width}")
        if letter in table:
            raise ValueError(f"line {lineno}: duplicate entry for {letter!r}")
        table[letter] = atoms
    return table


_CONSONANTS = sorted(set(hangul.CHOSEONG) | set(hangul.JONGSEONG[1:]))
_IDENTITY_CONSONANTS = {c: (c,) for c in _CONSONANTS}
_IDENTITY_VOWELS = {v: (v,) for v in hangul.JUNGSEONG}


class DecompTable:
    """Letter -> atom-sequence maps for consonants and vowels.

    The bundled tables are seeded from the stroke-addition and Cheonjiin
    keyboard systems. Every inventory letter needs an entry within the slot
    widths.
    """

    def __init__(self, consonant_map: dict[str, tuple[str, ...]], vowel_map: dict[str, tuple[str, ...]]):
        missing_c = [c for c in _CONSONANTS if c not in consonant_map]
        missing_v = [v for v in hangul.JUNGSEONG if v not in vowel_map]
        if missing_c or missing_v:
            raise ValueError(f"decomposition table incomplete, missing {missing_c + missing_v}")
        wide_c = [c for c, a in consonant_map.items() if len(a) > 4]
        wide_v = [v for v, a in vowel_map.items() if len(a) > 5]
        if wide_c or wide_v:
            raise ValueError(f"decomposition entries exceed slot widths: {wide_c + wide_v}")
        self.consonant_map = dict(consonant_map)
        self.vowel_map = dict(vowel_map)

    @staticmethod
    @lru_cache(maxsize=1)
    def bundled() -> "DecompTable":
        data = importlib.resources.files("jamofuse.data")
        cmap = parse_decomp_table(
            (data / "consonant_atoms.tsv").read_text(encoding="utf-8").splitlines(), max_width=4
        )
        vmap = parse_decomp_table(
            (data / "vowel_atoms.tsv").read_text(encoding="utf-8").splitlines(), max_width=5
        )
        return DecompTable(cmap, vmap)

    def atom_inventory(self) -> list[str]:
        seen: dict[str, None] = {}
        for atoms in list(self.consonant_map.values()) + list(self.vowel_map.values()):
            for a in atoms:
                seen.setdefault(a)
        return list(seen)


class SubcharVocab:
    """Deterministic atom -> id table shared by all schemes.

    Layout: specials, then the 51 letters in inventory order, then any extra
    decomposition atoms, then a printable-ascii passthrough bank. A fixed
    layout keeps token ids stable across runs without any corpus pass.
    """

    def __init__(self, atoms: list[str]):
        if len(set(atoms)) != len(atoms):
            raise ValueError("duplicate atoms in vocabulary")
        self.atoms = list(atoms)
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self.pad_id = self.index[PAD]
        self.empty_final_id = self.index[EMPTY_FINAL]
        self.cls_id = self.index[CLS]
        self.other_id = self.index[OTHER]

    def __len__(self) -> int:
        return len(self.atoms)

    def id(self, atom: str) -> int:
        return self.index[atom]

    def atom(self, token_id: int) -> str:
        return self.atoms[token_id]

    @staticmethod
    def build() -> "SubcharVocab":
        atoms: dict[str, None] = {}
        for a in [PAD, EMPTY_FINAL, CLS, OTHER]:
            atoms.setdefault(a)
        for a in list(hangul.CHOSEONG) + list(hangul.JUNGSEONG) + list(hangul.JONGSEONG[1:]):
            atoms.setdefault(a)
        for a in DecompTable.bundled().atom_inventory():
            atoms.setdefault(a)
        # '-' already exists as the stroke atom; the shared id is fine
        # because the passthrough mask tells a hyphen from a stroke at decode.
        for c in range(0x20, 0x7F):
            atoms.setdefault(chr(c))
        return SubcharVocab(list(atoms))


class MalformedSequenceError(ValueError):
    """A token sequence fits no character of its scheme."""


@dataclass
class SubcharSequence:
    scheme: SubcharScheme
    text: str  # source characters, one per W-token window
    tokens: np.ndarray  # (chars * W,) int64 ids; character k owns tokens k*W .. (k+1)*W
    passthrough: np.ndarray  # (chars,) bool, True where the character has no slot structure

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def char_count(self) -> int:
        return len(self.text)

    @property
    def roles(self) -> list[str]:
        """One role per token: the scheme's I/V/F slot layout, or Other for a passthrough character."""
        wi, wv, wf = self.scheme.widths
        slots = [ROLE_I] * wi + [ROLE_V] * wv + [ROLE_F] * wf
        other = [ROLE_OTHER] * self.scheme.width
        return [role for pt in self.passthrough for role in (other if pt else slots)]


class SubcharTokenizer:
    def __init__(self, scheme: str = "jamo"):
        self.scheme = SubcharScheme.by_name(scheme)
        self.vocab = SubcharVocab.build()
        table = DecompTable.bundled()
        # jamo keeps letters whole; stroke splits consonants, cji splits vowels
        self.consonant_map = (
            table.consonant_map if self.scheme.name in ("stroke", "bts") else _IDENTITY_CONSONANTS
        )
        self.vowel_map = table.vowel_map if self.scheme.name in ("cji", "bts") else _IDENTITY_VOWELS
        self._inv_consonant = {atoms: c for c, atoms in self.consonant_map.items()}
        self._inv_vowel = {atoms: v for v, atoms in self.vowel_map.items()}
        # character -> (its W ids, passthrough flag), filled by _char_tokens on first sight
        self._chars: dict[str, tuple[list[int], bool]] = {}

    def _slot(self, atoms: tuple[str, ...], width: int) -> list[int]:
        ids = [self.vocab.id(a) for a in atoms]
        return ids + [self.vocab.pad_id] * (width - len(ids))

    def _char_tokens(self, ch: str) -> tuple[list[int], bool]:
        wi, wv, wf = self.scheme.widths
        block = hangul.decompose(ch)
        if block is not None:
            cho, jung, jong = block.letters
            f_slot = (
                self._slot((EMPTY_FINAL,), wf) if jong == "" else self._slot(self.consonant_map[jong], wf)
            )
            tokens = self._slot(self.consonant_map[cho], wi) + self._slot(self.vowel_map[jung], wv) + f_slot
            return tokens, False
        if ch in self.consonant_map:
            pad = [self.vocab.pad_id]
            return self._slot(self.consonant_map[ch], wi) + pad * wv + pad * wf, False
        if ch in self.vowel_map:
            pad = [self.vocab.pad_id]
            return pad * wi + self._slot(self.vowel_map[ch], wv) + pad * wf, False
        token = self.vocab.index.get(ch, self.vocab.other_id)
        return [token] + [self.vocab.pad_id] * (self.scheme.width - 1), True

    def tokenize(self, text: str) -> SubcharSequence:
        chars = self._chars
        for ch in text:
            if ch not in chars:
                chars[ch] = self._char_tokens(ch)
        rows = [chars[ch] for ch in text]
        tokens = np.array([ids for ids, _ in rows], dtype=np.int64).reshape(len(text) * self.scheme.width)
        passthrough = np.array([pt for _, pt in rows], dtype=bool)
        return SubcharSequence(self.scheme, text, tokens, passthrough)

    def group_roles(self, seq: SubcharSequence, k: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """Token index spans of the (I, V, F) slots of character k."""
        if not 0 <= k < seq.char_count:
            raise IndexError(f"character index {k} out of range for {seq.char_count} characters")
        if seq.passthrough[k]:
            raise ValueError(f"character {k} is a passthrough span with no role structure")
        wi, wv, _ = self.scheme.widths
        start, stop = k * self.scheme.width, (k + 1) * self.scheme.width
        return (start, start + wi), (start + wi, start + wi + wv), (start + wi + wv, stop)

    def _decode_span(self, seq: SubcharSequence, k: int) -> str:
        wi, wv, _ = self.scheme.widths
        start, stop = k * self.scheme.width, (k + 1) * self.scheme.width
        if seq.passthrough[k]:
            token = seq.tokens[start]
            if token == self.vocab.other_id:
                return seq.text[k]
            return self.vocab.atom(token)
        pad = self.vocab.pad_id
        i_atoms = tuple(self.vocab.atom(t) for t in seq.tokens[start : start + wi] if t != pad)
        v_atoms = tuple(self.vocab.atom(t) for t in seq.tokens[start + wi : start + wi + wv] if t != pad)
        f_atoms = tuple(self.vocab.atom(t) for t in seq.tokens[start + wi + wv : stop] if t != pad)
        if i_atoms and v_atoms:
            jong = "" if f_atoms == (EMPTY_FINAL,) else self._inv_consonant.get(f_atoms)
            cho = self._inv_consonant.get(i_atoms)
            jung = self._inv_vowel.get(v_atoms)
            if (
                cho not in hangul.CHOSEONG_INDEX
                or jung not in hangul.JUNGSEONG_INDEX
                or jong not in hangul.JONGSEONG_INDEX
            ):
                raise MalformedSequenceError(
                    f"character {k}: atoms {i_atoms} / {v_atoms} / {f_atoms} fit no syllable"
                )
            return hangul.compose(
                hangul.SyllableBlock(
                    hangul.CHOSEONG_INDEX[cho], hangul.JUNGSEONG_INDEX[jung], hangul.JONGSEONG_INDEX[jong]
                )
            )
        if i_atoms and not v_atoms and not f_atoms:
            if i_atoms in self._inv_consonant:
                return self._inv_consonant[i_atoms]
            raise MalformedSequenceError(f"character {k}: unknown consonant atoms {i_atoms}")
        if v_atoms and not i_atoms and not f_atoms:
            if v_atoms in self._inv_vowel:
                return self._inv_vowel[v_atoms]
            raise MalformedSequenceError(f"character {k}: unknown vowel atoms {v_atoms}")
        raise MalformedSequenceError(f"character {k}: slot contents fit no character shape")

    def detokenize(self, seq: SubcharSequence) -> str:
        if len(seq.tokens) % self.scheme.width != 0:
            raise MalformedSequenceError(
                f"token count {len(seq.tokens)} not a multiple of width {self.scheme.width}"
            )
        return "".join(self._decode_span(seq, k) for k in range(seq.char_count))

