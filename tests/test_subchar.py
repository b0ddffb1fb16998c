import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jamofuse import hangul, subchar
from jamofuse.common import ConfigError
from jamofuse.subchar import (
    CLS,
    EMPTY_FINAL,
    PAD,
    ROLE_F,
    ROLE_I,
    ROLE_OTHER,
    ROLE_V,
    MalformedSequenceError,
    SubcharScheme,
    SubcharTokenizer,
)

TOKENIZERS = {name: SubcharTokenizer(name) for name in subchar.SCHEME_NAMES}
BARE_LETTERS = "".join(sorted(set(hangul.CHOSEONG) | set(hangul.JUNGSEONG) | set(hangul.JONGSEONG[1:])))


def role_spans(tok, k):
    """Token index spans of the (I, V, F) slots of character k, read from the scheme's widths."""
    wi, wv, _ = tok.scheme.widths
    start = k * tok.scheme.width
    return (start, start + wi), (start + wi, start + wi + wv), (start + wi + wv, start + tok.scheme.width)


def _reference_char_tokens(self, ch):
    """The per-character tokenizer that the lookup table replaced, kept as the reference."""
    wi, wv, wf = self.scheme.widths
    roles = [ROLE_I] * wi + [ROLE_V] * wv + [ROLE_F] * wf
    block = hangul.decompose(ch)
    if block is not None:
        cho, jung, jong = block.letters
        f_slot = (
            self._slot((EMPTY_FINAL,), wf) if jong == "" else self._slot(self.consonant_map[jong], wf)
        )
        tokens = self._slot(self.consonant_map[cho], wi) + self._slot(self.vowel_map[jung], wv) + f_slot
        return tokens, roles
    if ch in self.consonant_map:
        pad = [self.vocab.pad_id]
        return self._slot(self.consonant_map[ch], wi) + pad * wv + pad * wf, roles
    if ch in self.vowel_map:
        pad = [self.vocab.pad_id]
        return pad * wi + self._slot(self.vowel_map[ch], wv) + pad * wf, roles
    token = self.vocab.index.get(ch, self.vocab.other_id)
    width = self.scheme.width
    return [token] + [self.vocab.pad_id] * (width - 1), [ROLE_OTHER] * width


def _reference_tokenize(tok, text):
    tokens, roles = [], []
    for ch in text:
        char_tokens, char_roles = _reference_char_tokens(tok, ch)
        tokens += char_tokens
        roles += char_roles
    return tokens, roles


def assert_matches_reference(text):
    for tok in TOKENIZERS.values():
        seq = tok.tokenize(text)
        tokens, roles = _reference_tokenize(tok, text)
        assert seq.tokens.dtype == np.int64 and seq.tokens.tolist() == tokens
        assert seq.roles == roles
        assert seq.passthrough.tolist() == [r == ROLE_OTHER for r in roles[:: tok.scheme.width]]
        assert tok.detokenize(seq) == text


def atoms_of(tok, seq):
    return [tok.vocab.atom(t) for t in seq.tokens]


def test_scheme_widths():
    assert SubcharScheme.by_name("jamo").widths == (1, 1, 1)
    assert SubcharScheme.by_name("stroke").widths == (4, 1, 4)
    assert SubcharScheme.by_name("cji").widths == (1, 5, 1)
    assert SubcharScheme.by_name("bts").widths == (4, 5, 4)
    assert [SubcharScheme.by_name(n).width for n in ("jamo", "stroke", "cji", "bts")] == [3, 9, 7, 13]
    with pytest.raises(ConfigError, match="unknown scheme 'nope'"):
        SubcharScheme.by_name("nope")


def test_role_grouped_jamo_sequence():
    tok = TOKENIZERS["jamo"]
    seq = tok.tokenize("대한민국")
    assert len(seq) == 12
    atoms = atoms_of(tok, seq)
    assert [a for a, r in zip(atoms, seq.roles) if r == "I"] == ["ㄷ", "ㅎ", "ㅁ", "ㄱ"]
    assert [a for a, r in zip(atoms, seq.roles) if r == "V"] == ["ㅐ", "ㅏ", "ㅣ", "ㅜ"]
    assert [a for a, r in zip(atoms, seq.roles) if r == "F"] == [EMPTY_FINAL, "ㄴ", "ㄴ", "ㄱ"]


def test_six_jamo_for_two_characters():
    tok = TOKENIZERS["jamo"]
    seq = tok.tokenize("춥다")
    assert atoms_of(tok, seq) == ["ㅊ", "ㅜ", "ㅂ", "ㄷ", "ㅏ", EMPTY_FINAL]


def test_bare_consonant_stroke_atoms():
    tok = TOKENIZERS["bts"]
    seq = tok.tokenize("ㅉ")
    i_span, v_span, f_span = role_spans(tok, 0)
    i_atoms = [tok.vocab.atom(t) for t in seq.tokens[i_span[0] : i_span[1]]]
    assert i_atoms == ["ㅅ", "-", "ㅅ", "-"]
    v_atoms = [tok.vocab.atom(t) for t in seq.tokens[v_span[0] : v_span[1]]]
    assert v_atoms == [PAD] * 5


def test_bare_vowel_cheonjiin_atoms():
    tok = TOKENIZERS["bts"]
    seq = tok.tokenize("ㅙ")
    _, v_span, _ = role_spans(tok, 0)
    v_atoms = [tok.vocab.atom(t) for t in seq.tokens[v_span[0] : v_span[1]]]
    assert v_atoms == ["·", "ㅡ", "ㅣ", "·", "ㅣ"]


def test_bts_example_non_pad_atoms():
    tok = TOKENIZERS["bts"]
    seq = tok.tokenize("대한민국")
    assert len(seq) == 52
    pairs = [(a, r) for a, r in zip(atoms_of(tok, seq), seq.roles) if a != PAD]
    assert len(pairs) == 18
    assert [a for a, r in pairs if r == "I"] == ["ㄴ", "-", "ㅇ", "-", "ㅁ", "ㄱ"]
    assert [a for a, r in pairs if r == "V"] == ["ㅣ", "·", "ㅣ", "ㅣ", "·", "ㅣ", "ㅡ", "·"]
    assert [a for a, r in pairs if r == "F"] == [EMPTY_FINAL, "ㄴ", "ㄴ", "ㄱ"]


def test_length_law_all_schemes():
    text = "한국어 처리"
    for name, tok in TOKENIZERS.items():
        seq = tok.tokenize(text)
        assert len(seq) == tok.scheme.width * len(text)
        assert seq.tokens.shape == (tok.scheme.width * len(text),)
        assert seq.passthrough.tolist() == [ch == " " for ch in text]


def test_role_pattern_per_character():
    for tok in TOKENIZERS.values():
        wi, wv, wf = tok.scheme.widths
        w = tok.scheme.width
        seq = tok.tokenize("한a국")
        for k in range(seq.char_count):
            span = seq.roles[k * w : (k + 1) * w]
            if seq.text[k] == "a":
                assert span == ["O"] * tok.scheme.width
            else:
                assert span == ["I"] * wi + ["V"] * wv + ["F"] * wf


def test_jamo_agrees_with_syllable_arithmetic():
    tok = TOKENIZERS["jamo"]
    for code in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1, 47):
        ch = chr(code)
        cho, jung, jong = hangul.decompose(ch).letters
        expected = [cho, jung, jong if jong else EMPTY_FINAL]
        assert atoms_of(tok, tok.tokenize(ch)) == expected


def test_group_roles():
    tok = TOKENIZERS["jamo"]
    seq = tok.tokenize("한")
    (i0, i1), (v0, v1), (f0, f1) = role_spans(tok, 0)
    assert [tok.vocab.atom(t) for t in seq.tokens[i0:i1]] == ["ㅎ"]
    assert [tok.vocab.atom(t) for t in seq.tokens[v0:v1]] == ["ㅏ"]
    assert [tok.vocab.atom(t) for t in seq.tokens[f0:f1]] == ["ㄴ"]

    tok_bts = TOKENIZERS["bts"]
    seq_bts = tok_bts.tokenize("가")
    spans = role_spans(tok_bts, 0)
    assert [b - a for a, b in spans] == [4, 5, 4]
    assert spans[2][1] == len(seq_bts)


def test_round_trip_simple():
    for name, tok in TOKENIZERS.items():
        assert tok.detokenize(tok.tokenize("한국")) == "한국"
        assert tok.detokenize(tok.tokenize("Hello 한")) == "Hello 한"


def test_round_trip_every_syllable_every_scheme():
    for tok in TOKENIZERS.values():
        for code in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1, 101):
            ch = chr(code)
            assert tok.detokenize(tok.tokenize(ch)) == ch


def test_round_trip_bare_letters():
    for tok in TOKENIZERS.values():
        assert tok.detokenize(tok.tokenize(BARE_LETTERS)) == BARE_LETTERS


def test_every_syllable_matches_reference_tokenizer():
    assert_matches_reference("".join(chr(c) for c in range(hangul.SYLLABLE_BASE, hangul.SYLLABLE_LAST + 1)))


def test_bare_letters_match_reference_tokenizer():
    assert_matches_reference(BARE_LETTERS)


def test_each_character_is_decomposed_once_per_tokenizer(monkeypatch):
    calls = []
    decompose = hangul.decompose
    monkeypatch.setattr(hangul, "decompose", lambda ch: calls.append(ch) or decompose(ch))
    tok = SubcharTokenizer("bts")
    first = tok.tokenize("했다 했다 a")
    assert sorted(calls) == sorted(set("했다 a"))
    calls.clear()
    again = tok.tokenize("했다 했다 a")
    assert calls == []
    assert np.array_equal(first.tokens, again.tokens) and np.array_equal(first.passthrough, again.passthrough)


def test_malformed_passthrough_flag_rejected():
    for tok in TOKENIZERS.values():
        seq = tok.tokenize("a")
        seq.passthrough[0] = False  # an ascii id read as the atoms of an initial slot
        with pytest.raises(MalformedSequenceError):
            tok.detokenize(seq)


def test_malformed_atom_content_rejected():
    tok = TOKENIZERS["jamo"]
    seq = tok.tokenize("한")
    seq.tokens[1] = tok.vocab.pad_id  # syllable span with an empty vowel slot
    with pytest.raises(MalformedSequenceError):
        tok.detokenize(seq)


def test_window_the_tokenizer_cannot_write_rejected():
    tok = TOKENIZERS["bts"]
    seq = tok.tokenize("가")
    assert tok.vocab.atom(seq.tokens[0]) == "ㄱ" and seq.tokens[1] == tok.vocab.pad_id
    seq.tokens[:2] = [tok.vocab.pad_id, seq.tokens[0]]  # a pad before the atom in the initial slot
    with pytest.raises(MalformedSequenceError, match="character 0: bts writes no window"):
        tok.detokenize(seq)


def test_token_count_must_be_width_times_characters():
    tok = TOKENIZERS["jamo"]
    seq = tok.tokenize("한국")
    seq.text = "한"
    with pytest.raises(MalformedSequenceError, match="6 tokens for 1 characters of width 3"):
        tok.detokenize(seq)


def test_windows_are_read_back_only_on_first_detokenize():
    tok = SubcharTokenizer("stroke")
    tok.tokenize("했다")
    assert "_windows" not in vars(tok)
    assert tok.detokenize(tok.tokenize("했다")) == "했다"
    initial, vowel, final, letters = vars(tok)["_windows"]
    assert (len(initial), len(vowel), len(final), len(letters)) == (19, 21, 28, 51)


def test_decomp_table_parse_errors():
    with pytest.raises(ValueError):
        subchar.parse_decomp_table(["ㄱ ㄱ"], max_width=4)  # no tab
    with pytest.raises(ValueError):
        subchar.parse_decomp_table(["ㄱ\tㄱ,ㄱ,ㄱ,ㄱ,ㄱ"], max_width=4)
    with pytest.raises(ValueError):
        subchar.parse_decomp_table(["ㄱ\tㄱ", "ㄱ\tㄴ"], max_width=4)
    assert subchar.parse_decomp_table(["# comment", "", "ㄱ\tㄱ,-"], max_width=4) == {"ㄱ": ("ㄱ", "-")}


def test_decomp_table_requires_full_inventory():
    table = subchar.DecompTable.bundled()
    broken = dict(table.consonant_map)
    del broken["ㅉ"]
    with pytest.raises(ValueError):
        subchar.DecompTable(broken, table.vowel_map)


def test_vocab_is_deterministic_and_has_specials():
    v1 = subchar.SubcharVocab.build()
    v2 = subchar.SubcharVocab.build()
    assert v1.atoms == v2.atoms
    assert v1.atoms[v1.pad_id] == PAD
    assert v1.atoms[v1.empty_final_id] == EMPTY_FINAL
    assert v1.atoms[v1.cls_id] == CLS


hangul_or_ascii = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3),
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.characters(min_codepoint=0x3131, max_codepoint=0x3163),
        st.sampled_from("漢字é"),
    ),
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(text=hangul_or_ascii, scheme=st.sampled_from(subchar.SCHEME_NAMES))
def test_round_trip_mixed_property(text, scheme):
    tok = TOKENIZERS[scheme]
    seq = tok.tokenize(text)
    assert len(seq) == tok.scheme.width * len(text)
    assert tok.detokenize(seq) == text


@settings(max_examples=60, deadline=None)
@given(text=hangul_or_ascii)
def test_mixed_text_matches_reference_tokenizer(text):
    assert_matches_reference(text)
