"""Exact Hangul syllable arithmetic: decomposition and composition.

A precomposed syllable encodes three letter indices, the initial consonant
(Choseong), the vowel (Jungseong), and the optional final consonant
(Jongseong), in a single code point:

    code = 0xAC00 + (cho * 21 + jung) * 28 + jong

which yields 19 * 21 * 28 = 11172 distinct syllables, ending at 0xD7A3.
Everything here is plain arithmetic over that block; no lookup tables are
needed beyond the letter inventories themselves.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

SYLLABLE_BASE = 0xAC00
SYLLABLE_LAST = 0xD7A3

NUM_CHOSEONG = 19
NUM_JUNGSEONG = 21
NUM_JONGSEONG = 28  # index 0 means "no final consonant"
NUM_SYLLABLES = NUM_CHOSEONG * NUM_JUNGSEONG * NUM_JONGSEONG

# Letter inventories in Unicode composition order, as compatibility jamo
# (U+3131 block) so they match letters as they appear in plain text.
CHOSEONG = [
    "ㄱ", "ㄲ", "ㄴ", "ㄷ", "ㄸ", "ㄹ", "ㅁ", "ㅂ", "ㅃ", "ㅅ",
    "ㅆ", "ㅇ", "ㅈ", "ㅉ", "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ",
]
JUNGSEONG = [
    "ㅏ", "ㅐ", "ㅑ", "ㅒ", "ㅓ", "ㅔ", "ㅕ", "ㅖ", "ㅗ", "ㅘ",
    "ㅙ", "ㅚ", "ㅛ", "ㅜ", "ㅝ", "ㅞ", "ㅟ", "ㅠ", "ㅡ", "ㅢ",
    "ㅣ",
]
JONGSEONG = [
    "", "ㄱ", "ㄲ", "ㄳ", "ㄴ", "ㄵ", "ㄶ", "ㄷ", "ㄹ", "ㄺ",
    "ㄻ", "ㄼ", "ㄽ", "ㄾ", "ㄿ", "ㅀ", "ㅁ", "ㅂ", "ㅄ", "ㅅ",
    "ㅆ", "ㅇ", "ㅈ", "ㅊ", "ㅋ", "ㅌ", "ㅍ", "ㅎ",
]

CHOSEONG_INDEX = {c: i for i, c in enumerate(CHOSEONG)}
JUNGSEONG_INDEX = {v: i for i, v in enumerate(JUNGSEONG)}
JONGSEONG_INDEX = {f: i for i, f in enumerate(JONGSEONG)}


class SyllableBlock(NamedTuple):
    """One syllable as (Choseong, Jungseong, Jongseong) inventory indices."""

    cho: int
    jung: int
    jong: int

    @property
    def letters(self) -> tuple[str, str, str]:
        """The three letters; the empty final comes back as ''."""
        return CHOSEONG[self.cho], JUNGSEONG[self.jung], JONGSEONG[self.jong]


def is_syllable(ch: str) -> bool:
    """True iff ch is a single precomposed Hangul syllable."""
    return len(ch) == 1 and SYLLABLE_BASE <= ord(ch) <= SYLLABLE_LAST


def decompose(ch: str) -> Optional[SyllableBlock]:
    """Split a precomposed syllable into its letter indices.

    Returns None for anything outside the precomposed range (Latin, digits,
    bare jamo letters, ...); composing the result reproduces ch exactly.
    """
    if not is_syllable(ch):
        return None
    offset = ord(ch) - SYLLABLE_BASE
    jong = offset % NUM_JONGSEONG
    jung = (offset // NUM_JONGSEONG) % NUM_JUNGSEONG
    cho = offset // (NUM_JONGSEONG * NUM_JUNGSEONG)
    return SyllableBlock(cho, jung, jong)


def compose(block: SyllableBlock) -> str:
    """Inverse of decompose. Raises ValueError on out-of-range indices."""
    cho, jung, jong = block
    if not (0 <= cho < NUM_CHOSEONG and 0 <= jung < NUM_JUNGSEONG and 0 <= jong < NUM_JONGSEONG):
        raise ValueError(f"invalid syllable block ({cho}, {jung}, {jong})")
    return chr(SYLLABLE_BASE + (cho * NUM_JUNGSEONG + jung) * NUM_JONGSEONG + jong)
