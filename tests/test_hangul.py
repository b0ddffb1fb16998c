import unicodedata

import pytest
from hypothesis import given, strategies as st

from jamofuse import hangul


def test_inventory_sizes():
    assert len(hangul.CHOSEONG) == 19
    assert len(hangul.JUNGSEONG) == 21
    assert len(hangul.JONGSEONG) == 28
    assert hangul.JONGSEONG[0] == ""
    assert hangul.NUM_SYLLABLES == 11172


def test_decompose_worked_examples():
    assert hangul.decompose("춥").letters == ("ㅊ", "ㅜ", "ㅂ")
    assert hangul.decompose("가").letters == ("ㄱ", "ㅏ", "")
    assert hangul.decompose("한").letters == ("ㅎ", "ㅏ", "ㄴ")
    assert hangul.decompose("a") is None
    assert hangul.decompose("ㄴ") is None  # bare letters are not syllables


def test_compose_worked_examples():
    da = hangul.SyllableBlock(hangul.CHOSEONG_INDEX["ㄷ"], hangul.JUNGSEONG_INDEX["ㅏ"], 0)
    assert hangul.compose(da) == "다"
    ga = hangul.SyllableBlock(hangul.CHOSEONG_INDEX["ㄱ"], hangul.JUNGSEONG_INDEX["ㅏ"], 0)
    assert hangul.compose(ga) == "가"
    with pytest.raises(ValueError):
        hangul.compose(hangul.SyllableBlock(19, 0, 0))
    with pytest.raises(ValueError):
        hangul.compose(hangul.SyllableBlock(0, 21, 0))
    with pytest.raises(ValueError):
        hangul.compose(hangul.SyllableBlock(0, 0, -1))


def test_round_trip_exhaustive():
    # every precomposed syllable survives decompose -> compose
    count = 0
    for code in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1):
        ch = chr(code)
        block = hangul.decompose(ch)
        assert block is not None
        assert hangul.compose(block) == ch
        count += 1
    assert count == 11172


def test_block_round_trip_exhaustive():
    for cho in range(19):
        for jung in range(21):
            for jong in range(28):
                block = hangul.SyllableBlock(cho, jung, jong)
                assert hangul.decompose(hangul.compose(block)) == block


def test_agrees_with_unicode_canonical_decomposition():
    # independent oracle: NFD maps syllables to conjoining jamo whose code
    # points encode the same indices with fixed offsets
    for code in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1, 7):
        ch = chr(code)
        block = hangul.decompose(ch)
        nfd = unicodedata.normalize("NFD", ch)
        assert ord(nfd[0]) - 0x1100 == block.cho
        assert ord(nfd[1]) - 0x1161 == block.jung
        if block.jong:
            assert ord(nfd[2]) - 0x11A7 == block.jong
        else:
            assert len(nfd) == 2


def test_decompose_absent_outside_range():
    for ch in ["a", "0", " ", "漢", chr(hangul.SYLLABLE_BASE - 1), chr(hangul.SYLLABLE_LAST + 1)]:
        assert hangul.decompose(ch) is None


@given(st.integers(min_value=0, max_value=0x10FFFF))
def test_decompose_none_iff_outside_block(code):
    if 0xD800 <= code <= 0xDFFF:  # surrogates are not characters
        return
    ch = chr(code)
    inside = hangul.SYLLABLE_BASE <= code <= hangul.SYLLABLE_LAST
    assert (hangul.decompose(ch) is not None) == inside
