import re

import pytest
from hypothesis import given, settings, strategies as st

from jamofuse import subword
from jamofuse.subword import (
    CLS,
    SPECIALS,
    UNK,
    AlignmentError,
    BoundaryMap,
    ConfigError,
    SubwordVocab,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_vocab,
)


def small_vocab(corpus, extra=0, mode="bpe-lite"):
    texts = list(corpus)
    base = len(SPECIALS) + len({ch for t in texts for ch in t})
    return train_vocab(texts, base + extra, mode)


def test_first_merge_is_most_frequent_pair():
    # brute force on the 4-character corpus: pair (가,가) occurs twice within
    # words ((가,가) in 가가 and... once in 가가, zero crossing whitespace),
    # pair (가,나) once; so (가,가) merges first
    vocab = small_vocab(["가가 가나"], extra=1)
    assert "가가" in vocab.entries
    assert "가나" not in vocab.entries


def test_charlist_mode():
    vocab = small_vocab(["가나다 가나"], mode="charlist")
    expected = set(SPECIALS) | {"가", "나", "다", " "}
    assert set(vocab.entries) == expected


def test_wordlist_mode_ranked_by_frequency():
    vocab = small_vocab(["나 가나 가나 다가 다가 다가"], extra=2, mode="wordlist")
    assert "다가" in vocab.entries  # 3 occurrences
    assert "가나" in vocab.entries  # 2 occurrences
    assert "나" in vocab.entries  # already a character entry


def test_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train_vocab([], 100)
    with pytest.raises(ConfigError):
        train_vocab([""], 100)


def test_target_below_base_rejected():
    with pytest.raises(ConfigError):
        train_vocab(["가나다"], 3)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        train_vocab(["가"], 100, mode="magic")


@pytest.mark.parametrize(
    "entries", [{"a": 0, "b": 0}, {"a": 0, "b": 2}, {"a": 1}, {"a": 0, "b": "1"}],
    ids=["duplicate", "gapped", "not-from-zero", "not-int"],
)
def test_vocab_ids_must_be_0_to_size(entries):
    with pytest.raises(ConfigError):
        SubwordVocab("charlist", entries)


def test_vocab_must_hold_every_special():
    entries = {token: i for i, token in enumerate(["a", "<unk>", "<pad>", "<cls>"])}
    with pytest.raises(ConfigError, match="<bos>"):
        SubwordVocab("charlist", entries)


def test_tie_break_is_lexicographic():
    # both pairs occur exactly once; (가,나) < (나,다) lexicographically
    vocab = small_vocab(["가나 나다"], extra=1)
    assert "가나" in vocab.entries
    assert "나다" not in vocab.entries


def test_determinism_byte_identical(tmp_path):
    corpus = ["대한민국 만세", "대한 사람 대한으로"]
    a, b = tmp_path / "a.vocab", tmp_path / "b.vocab"
    save_vocab(train_vocab(corpus, 40), a)
    save_vocab(train_vocab(corpus, 40), b)
    assert a.read_bytes() == b.read_bytes()


def test_encode_two_subwords_with_boundaries():
    vocab = small_vocab(["대한 민국 대한 민국 대한민국"], extra=2)
    assert "대한" in vocab.entries and "민국" in vocab.entries
    ids, boundary = encode("대한민국", vocab)
    assert [vocab.token(i) for i in ids] == ["대한", "민국"]
    assert boundary.ranges == [(0, 2), (2, 4)]


def test_encode_single_character():
    vocab = small_vocab(["가"])
    ids, boundary = encode("가", vocab)
    assert len(ids) == 1
    assert boundary.ranges == [(0, 1)]


def test_encode_unk_has_width_one():
    vocab = small_vocab(["가나"])
    ids, boundary = encode("가다나", vocab)
    assert ids[1] == vocab.unk_id
    assert boundary.ranges == [(0, 1), (1, 2), (2, 3)]


def test_whitespace_is_own_token_and_terminates_matches():
    vocab = small_vocab(["가나 가나"], extra=1)
    assert "가나" in vocab.entries
    ids, boundary = encode("가나 가나", vocab)
    assert [vocab.token(i) for i in ids] == ["가나", " ", "가나"]
    # a match never crosses the space even though '가' precedes it
    ids2, _ = encode("가 나", vocab)
    assert [vocab.token(i) for i in ids2] == ["가", " ", "나"]


def test_greedy_longest_match():
    corpus = ["가나다 가나다 가나 가나 가나다"]
    vocab = small_vocab(corpus, extra=2)
    assert "가나다" in vocab.entries
    ids, _ = encode("가나다", vocab)
    assert [vocab.token(i) for i in ids] == ["가나다"]


def test_cls_prepended_with_empty_range():
    vocab = small_vocab(["가나"])
    ids, boundary = encode("가나", vocab, add_cls=True)
    assert ids[0] == vocab.cls_id
    assert boundary.ranges[0] == (0, 0)
    boundary.validate(2)


def test_decode_round_trip():
    corpus = ["대한민국 만세 만세"]
    vocab = small_vocab(corpus, extra=3)
    for text in ["대한민국", "만세 만세", "대한민국 만세"]:
        ids, _ = encode(text, vocab)
        assert decode(ids, vocab) == text


def test_boundary_mismatch_rejected():
    with pytest.raises(AlignmentError):
        BoundaryMap([(0, 2), (2, 4)]).validate(3)
    with pytest.raises(AlignmentError):
        BoundaryMap([(0, 2), (3, 4)]).validate(4)


def test_vocab_file_round_trip(tmp_path):
    vocab = train_vocab(["대한민국 만세\t탭", "줄"], 40)
    path = tmp_path / "v.vocab"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.entries == vocab.entries
    assert loaded.mode == vocab.mode
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == f"mode=bpe-lite\tsize={vocab.size}"


def test_vocab_file_escapes_whitespace_tokens(tmp_path):
    vocab = train_vocab(["가 나"], 10, mode="charlist")
    path = tmp_path / "v.vocab"
    save_vocab(vocab, path)
    assert load_vocab(path).entries == vocab.entries
    assert " " in load_vocab(path).entries


@pytest.mark.parametrize("text", ["", "a\t0\n"], ids=["empty", "entries-only"])
def test_vocab_without_header_names_the_file(tmp_path, text):
    path = tmp_path / "v.vocab"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: missing vocab header$"):
        load_vocab(path)


def test_vocab_header_field_without_equals_names_the_file(tmp_path):
    path = tmp_path / "v.vocab"
    path.write_text("mode=charlist\tsize\na\t0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: vocab header field 'size' "):
        load_vocab(path)


@pytest.mark.parametrize("size", ["x", "7"])
def test_vocab_header_size_not_the_entry_count_names_the_file(tmp_path, size):
    path = tmp_path / "v.vocab"
    save_vocab(train_vocab(["가"], 6, mode="charlist"), path)
    path.write_text(path.read_text(encoding="utf-8").replace("size=6", f"size={size}"), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: header size '{size}' != 6 entries$"):
        load_vocab(path)


def test_vocab_id_not_an_integer_names_the_file_and_line(tmp_path):
    path = tmp_path / "v.vocab"
    path.write_text("mode=charlist\tsize=2\na\t0\nb\tone\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: id 'one' is not an integer$"):
        load_vocab(path)


korean_words = st.lists(
    st.text(alphabet=st.characters(min_codepoint=0xAC00, max_codepoint=0xAC20), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)


@settings(max_examples=50, deadline=None)
@given(words=korean_words, extra=st.integers(min_value=0, max_value=8))
def test_encode_boundary_covers_text_property(words, extra):
    text = " ".join(words)
    vocab = train_vocab([text], len(SPECIALS) + len(set(text)) + extra)
    ids, boundary = encode(text, vocab)
    boundary.validate(len(text))
    assert decode(ids, vocab) == text
