import csv
import io
import itertools
import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamofuse import hangul, oracle
from jamofuse.common import ConfigError
from jamofuse.oracle import (
    CHARACTER,
    KEEP,
    MOD,
    NOOP,
    SUBCHARACTER,
    ActionTag,
    AlignedChar,
    CorpusStats,
    ModGranularity,
    NotApplicableError,
    ParseError,
    align,
    classify_mod,
    corpus_stats,
    parse_action_file,
    read_jsonl_corpus,
    read_jsonl_records,
    reconstruct_targets,
    stats_report_csv,
    stats_report_json,
)

SYLLABLES = st.characters(min_codepoint=0xAC00, max_codepoint=0xD7A3)
BARE_JAMO = st.characters(min_codepoint=0x3131, max_codepoint=0x3163)
ALIGN_CHARS = st.one_of(SYLLABLES, BARE_JAMO, st.sampled_from("ab z"))
# syllables whose final repeats their initial (각 is ㄱ,ㅏ,ㄱ), so one letter sets two mask bits
REPEATED_LETTERS = st.sampled_from("각난닫랄맘밥삿앙잦찿깎")
# align's characters among any others, which align treats as one letter each
MIXED_CHARS = st.one_of(ALIGN_CHARS, st.characters(codec="utf-8"))


def actions_of(aligned: AlignedChar) -> list[str]:
    return [str(a) for a in aligned.actions]


def bundled_records() -> list[dict]:
    path = resources.files("jamofuse.data") / "inflections.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


# The alignment that the prefix-distance tables replaced, kept as the reference:
# one edit distance per surface character and lemma span.


def _reference_letters(text: str) -> list[str]:
    """Letter sequence of a unit string; syllables expand, everything else stays."""
    letters: list[str] = []
    for ch in text:
        block = hangul.decompose(ch)
        if block is None:
            letters.append(ch)
        else:
            cho, jung, jong = block.letters
            letters += [cho, jung] + ([jong] if jong else [])
    return letters


def _reference_edit_distance(a: list[str], b: list[str]) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


_PREF_KEEP, _PREF_MOD, _PREF_NOOP = 0, 1, 2


def reference_align(surface: str, lemma_units: list[str]) -> list[AlignedChar]:
    if not surface or not lemma_units or not all(lemma_units):
        raise ValueError("surface and lemma units must be non-empty")
    lemma_chars: list[str] = []
    unit_of: list[int] = []
    starts_unit: list[bool] = []
    for u, unit in enumerate(lemma_units):
        for pos, ch in enumerate(unit):
            lemma_chars.append(ch)
            unit_of.append(u)
            starts_unit.append(pos == 0)

    m, n = len(surface), len(lemma_chars)
    surface_letters = [_reference_letters(c) for c in surface]
    lemma_letters = [_reference_letters(c) for c in lemma_chars]

    def group_cost(i: int, a: int, b: int) -> tuple[int, int]:
        group = lemma_chars[a:b]
        if not group:
            return len(surface_letters[i]), _PREF_NOOP
        if group == [surface[i]]:
            return 0, _PREF_KEEP
        target_letters = [letter for k in range(a, b) for letter in lemma_letters[k]]
        return _reference_edit_distance(surface_letters[i], target_letters), _PREF_MOD

    INF = (10**9, 10**9)
    best: list[list[tuple[int, int]]] = [[INF] * (n + 1) for _ in range(m + 1)]
    choice: list[list[int]] = [[-1] * (n + 1) for _ in range(m + 1)]
    best[0][0] = (0, 0)
    for i in range(1, m + 1):
        for j in range(n + 1):
            for a in range(j + 1):
                if best[i - 1][a] == INF:
                    continue
                cost, pref = group_cost(i - 1, a, j)
                cand = (best[i - 1][a][0] + cost, best[i - 1][a][1] + pref)
                if cand < best[i][j]:
                    best[i][j] = cand
                    choice[i][j] = a

    cuts = [n]
    j = n
    for i in range(m, 0, -1):
        j = choice[i][j]
        cuts.append(j)
    cuts.reverse()

    out: list[AlignedChar] = []
    for i, ch in enumerate(surface):
        a, b = cuts[i], cuts[i + 1]
        group = lemma_chars[a:b]
        if not group:
            out.append(AlignedChar(ch, [ActionTag("B", NOOP)]))
            continue
        if group == [ch]:
            bio = "B" if starts_unit[a] else "I"
            out.append(AlignedChar(ch, [ActionTag(bio, KEEP)]))
            continue
        actions: list[ActionTag] = []
        pos = a
        while pos < b:
            unit = unit_of[pos]
            stop = pos
            while stop < b and unit_of[stop] == unit:
                stop += 1
            target = "".join(lemma_chars[pos:stop])
            bio = "B" if starts_unit[pos] and pos == a else "I"
            actions.append(ActionTag(bio, MOD, target))
            pos = stop
        out.append(AlignedChar(ch, actions))
    return out


def assert_matches_reference(surface: str, units: list[str]) -> None:
    got = [(ac.surface, ac.action_string()) for ac in align(surface, units)]
    want = [(ac.surface, ac.action_string()) for ac in reference_align(surface, units)]
    assert got == want, (surface, units)


class TestActionTag:
    def test_parse_and_format_roundtrip(self):
        for text in ["B-KEEP", "I-KEEP", "B-NOOP", "B-MOD-럽", "I-MOD-ㄴ", "B-MOD-하"]:
            assert str(ActionTag.parse(text)) == text

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ActionTag.parse("B-FOO")

    def test_parse_rejects_bad_bio(self):
        with pytest.raises(ValueError):
            ActionTag.parse("X-KEEP")

    def test_mod_target_may_contain_hyphen_free_text(self):
        tag = ActionTag.parse("B-MOD-스럽")
        assert tag.target == "스럽"


class TestParseActionFile:
    def test_pipe_delimited_examples(self):
        lines = ["런 | B-MOD-럽;I-MOD-ㄴ", "다 | B-KEEP"]
        parsed = parse_action_file(lines, delim="|")
        assert parsed[0].surface == "런"
        assert actions_of(parsed[0]) == ["B-MOD-럽", "I-MOD-ㄴ"]
        assert parsed[1].surface == "다"
        assert actions_of(parsed[1]) == ["B-KEEP"]

    def test_tab_is_default_delimiter(self):
        parsed = parse_action_file(["했\tB-MOD-하;I-MOD-았"])
        assert actions_of(parsed[0]) == ["B-MOD-하", "I-MOD-았"]

    def test_blank_lines_skipped(self):
        parsed = parse_action_file(["다\tB-KEEP", "", "  ", "요\tB-NOOP"])
        assert [p.surface for p in parsed] == ["다", "요"]

    def test_bad_action_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_action_file(["다\tB-KEEP", "다\tB-FOO"])

    def test_multichar_first_field_rejected(self):
        with pytest.raises(ParseError, match="single character"):
            parse_action_file(["다다\tB-KEEP"])

    def test_missing_delimiter_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_action_file(["다 B-KEEP"])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("다\tB", "cannot parse action 'B'"),
            ("다\tB-MOD", "MOD action 'B-MOD' is missing its target unit"),
            ("다\tB-KEEP-다", "KEEP action 'B-KEEP-다' must not carry a target"),
            ("다\tX-KEEP", "cannot parse action 'X-KEEP'"),
            ("다\t ; ", "character '다' has no actions"),
        ],
        ids=["bio-only", "mod-without-target", "keep-with-target", "bad-bio", "no-actions"],
    )
    def test_bad_action_field_rejected(self, line, message):
        with pytest.raises(ParseError, match=f"^line 2: {message}$"):
            parse_action_file(["요\tB-KEEP", line])


class TestAlign:
    def test_haessda_worked_example(self):
        aligned = align("했다", ["하", "았", "다"])
        assert [a.surface for a in aligned] == ["했", "다"]
        assert actions_of(aligned[0]) == ["B-MOD-하", "I-MOD-았"]
        assert actions_of(aligned[1]) == ["B-KEEP"]

    def test_reon_single_char(self):
        (aligned,) = align("런", ["럽", "ㄴ"])
        assert actions_of(aligned) == ["B-MOD-럽", "I-MOD-ㄴ"]

    def test_haess_single_char(self):
        (aligned,) = align("했", ["하", "았"])
        assert actions_of(aligned) == ["B-MOD-하", "I-MOD-았"]

    def test_identity_is_all_keep(self):
        aligned = align("하다", ["하", "다"])
        assert [actions_of(a) for a in aligned] == [["B-KEEP"], ["B-KEEP"]]

    def test_identity_single_unit_marks_continuation(self):
        aligned = align("사랑", ["사랑"])
        assert [actions_of(a) for a in aligned] == [["B-KEEP"], ["I-KEEP"]]

    def test_surface_extra_char_gets_noop(self):
        aligned = align("하다요", ["하", "다"])
        assert actions_of(aligned[0]) == ["B-KEEP"]
        assert actions_of(aligned[1]) == ["B-KEEP"]
        assert actions_of(aligned[2]) == ["B-NOOP"]

    def test_mid_unit_mod_is_continuation(self):
        aligned = align("스런", ["스럽", "ㄴ"])
        assert actions_of(aligned[0]) == ["B-KEEP"]
        assert actions_of(aligned[1]) == ["I-MOD-럽", "I-MOD-ㄴ"]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            align("", ["하"])
        with pytest.raises(ValueError):
            align("하", [])
        with pytest.raises(ValueError):
            align("하", ["하", ""])

    @settings(max_examples=60, deadline=None)
    @given(st.text(SYLLABLES, min_size=1, max_size=6), st.integers(min_value=1, max_value=3))
    def test_concatenation_identity_property(self, word, pieces):
        bounds = sorted({1 + (i * len(word)) // pieces for i in range(pieces)} | {len(word)})
        units, start = [], 0
        for stop in bounds:
            if stop > start:
                units.append(word[start:stop])
                start = stop
        aligned = align(word, units)
        assert all(a.actions[0].kind == "KEEP" for a in aligned)


class TestAlignMatchesReference:
    def test_bundled_records(self):
        records = bundled_records()
        assert len(records) == 200
        for r in records:
            assert_matches_reference(r["surface"], r["lemma_units"])

    def test_seeded_joins_of_bundled_records(self):
        records = bundled_records()
        rng = random.Random(20)
        for _ in range(40):
            chosen = rng.sample(records, rng.randint(2, 4))
            units: list[str] = []
            for k, r in enumerate(chosen):
                units += ([" "] if k else []) + r["lemma_units"]
            assert_matches_reference(" ".join(r["surface"] for r in chosen), units)

    @settings(max_examples=150, deadline=None)
    @given(
        st.text(ALIGN_CHARS, min_size=1, max_size=6),
        st.lists(st.text(ALIGN_CHARS, min_size=1, max_size=3), min_size=1, max_size=4),
    )
    def test_mixed_text(self, surface, units):
        assert_matches_reference(surface, units)

    def test_runs_whose_cost_falls_after_passing_the_bound(self):
        """A run's distance can pass the bound and fall below it a character later, so a run
        stops on its column's lowest cell, not on its last one."""
        for surface, units in [
            ("ㄴ가", ["나", "ㅓㄱㅏ"]),
            ("가ㅏ나", ["가나", "ㅏㄱㅓ", "ㄴㅏ"]),
            ("ㅏㅓㄴ가", ["ㅏ나", "가ㅓ", "ㅏㅓㄱ", "ㅏ"]),
            ("ㄱㅏ가", ["ㅓㄴ", "ㄴㅏㅏ", "ㄴㅓㄱ", "ㅏ"]),
        ]:
            assert_matches_reference(surface, units)

    # Skewed lengths, where the alignment priced before the program is poor and its bound loose
    @settings(max_examples=60, deadline=None)
    @given(
        st.text(MIXED_CHARS, min_size=10, max_size=25),
        st.lists(st.text(MIXED_CHARS, min_size=1, max_size=3), min_size=1, max_size=2),
    )
    def test_long_surface_against_few_units(self, surface, units):
        assert_matches_reference(surface, units)

    @settings(max_examples=60, deadline=None)
    @given(
        st.text(MIXED_CHARS, min_size=1, max_size=2),
        st.lists(st.text(MIXED_CHARS, min_size=1, max_size=3), min_size=5, max_size=10),
    )
    def test_short_surface_against_many_units(self, surface, units):
        assert_matches_reference(surface, units)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.text(ALIGN_CHARS, min_size=1, max_size=3), min_size=1, max_size=5),
        st.text(MIXED_CHARS, min_size=1, max_size=12),
        st.booleans(),
    )
    def test_surface_shifted_by_extra_characters(self, units, extra, in_front):
        """The lemma text itself plus extra characters: a cheap optimum that the proportional
        first alignment misses by the shift."""
        text = "".join(units)
        assert_matches_reference(extra + text if in_front else text + extra, units)

    def test_seeded_long_joins_of_bundled_records(self):
        records = bundled_records()
        rng = random.Random(21)
        for _ in range(30):
            chosen = rng.sample(records, rng.randint(3, 6))
            units: list[str] = []
            for k, r in enumerate(chosen):
                units += ([" "] if k else []) + r["lemma_units"]
            assert_matches_reference(" ".join(r["surface"] for r in chosen), units)

    def test_seen_characters_are_not_decomposed_again(self, monkeypatch):
        oracle._letters.cache_clear()
        calls = []
        decompose = hangul.decompose
        monkeypatch.setattr(hangul, "decompose", lambda ch: calls.append(ch) or decompose(ch))
        align("했다", ["하", "았", "다"])
        assert sorted(calls) == sorted(set("했다하았"))
        calls.clear()
        align("했다", ["하", "았", "다"])
        assert calls == []


def table_distances(source: str, chars: list[str], start: int) -> list[int]:
    """Edit distance from the letters of `source` to those of chars[start:end] for every end,
    walked through the column automaton's state ids as align walks it."""
    automaton = oracle._AUTOMATON
    letters = oracle._letters(source)
    mask_ids = [automaton.mask_ids[masks] for masks in oracle._masks(letters, chars)]
    state = automaton.state(tuple(range(1, len(letters) + 1)))
    consumed = 0
    out = [len(letters)]
    for k in range(start, len(chars)):
        row = automaton.next[state]
        state = row[mask_ids[k]] if mask_ids[k] in row else automaton.fill(state, mask_ids[k])
        consumed += len(oracle._letters(chars[k]))
        out.append(consumed + automaton.last[state])
    return out


def random_syllable_lines(count: int, seed: int) -> list[tuple[str, list[str]]]:
    rng = random.Random(seed)

    def syllables(k: int) -> str:
        return "".join(chr(rng.randrange(0xAC00, 0xD7A4)) for _ in range(k))

    return [
        (syllables(rng.randint(1, 6)), [syllables(rng.randint(1, 3)) for _ in range(rng.randint(1, 4))])
        for _ in range(count)
    ]


def joined_record_lines(count: int, seed: int) -> list[str]:
    """jsonl lines each joining 1-3 bundled records with a " " unit, as the oracle-corpus benchmark does."""
    records = bundled_records()
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        chosen = rng.choices(records, k=rng.choice((1, 1, 1, 1, 1, 2, 2, 2, 3, 3)))
        units: list[str] = []
        for k, r in enumerate(chosen):
            units += ([" "] if k else []) + r["lemma_units"]
        surface = " ".join(r["surface"] for r in chosen)
        lines.append(json.dumps({"surface": surface, "lemma_units": units}, ensure_ascii=False) + "\n")
    return lines


def transitions(automaton) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every filled transition as (offsets, masks), the arguments `_step_column` filled it from."""
    masks = automaton.mask_ids.masks
    return [(automaton.offsets[s], masks[m]) for s, row in enumerate(automaton.next) for m in row]


# at most 3^s columns of s = 1-3 source letters, each with every mask tuple of l = 1-3 letters
STATE_BOUND = 3 + 9 + 27
MASK_BOUND = 8 + 64 + 512
TABLE_BOUND = sum(3**s * sum(2 ** (s * n) for n in (1, 2, 3)) for s in (1, 2, 3))


def assert_within_bounds(automaton) -> None:
    assert 0 < len(automaton.offsets) <= STATE_BOUND == 39
    assert (
        len(automaton.state_ids)
        == len(automaton.offsets)
        == len(automaton.last)
        == len(automaton.low)
        == len(automaton.next)
    )
    assert len(automaton.mask_ids) == len(automaton.mask_ids.masks) <= MASK_BOUND == 584
    assert 0 < len(transitions(automaton)) <= TABLE_BOUND == 16_566


class TestColumnTable:
    def test_masks_mark_every_equal_source_letter(self):
        letters = oracle._letters("각")
        assert letters == ("ㄱ", "ㅏ", "ㄱ")
        assert oracle._masks(letters, ["ㄱ", "각", "a", "갂"]) == [
            (0b101,), (0b101, 0b010, 0b101), (0,), (0b101, 0b010, 0),
        ]
        assert oracle._masks(("a",), ["a", " ", "아"]) == [(1,), (0,), (0, 0)]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(ALIGN_CHARS, REPEATED_LETTERS), st.lists(st.one_of(ALIGN_CHARS, REPEATED_LETTERS), max_size=6))
    def test_distances_match_reference(self, source, chars):
        source_letters = _reference_letters(source)
        for start in range(len(chars) + 1):
            want = [
                _reference_edit_distance(source_letters, _reference_letters("".join(chars[start:end])))
                for end in range(start, len(chars) + 1)
            ]
            assert table_distances(source, chars, start) == want, (source, chars, start)

    def test_every_reachable_key_fits_the_bound(self):
        automaton = oracle._ColumnAutomaton()
        all_masks = [m for n in (1, 2, 3) for m in itertools.product(range(8), repeat=n)]
        for s in (1, 2, 3):
            seen, todo = set(), [automaton.state(tuple(range(1, s + 1)))]
            while todo:
                state = todo.pop()
                if state in seen:
                    continue
                seen.add(state)
                offsets = automaton.offsets[state]
                assert len(offsets) == s and automaton.last[state] == offsets[-1]
                assert automaton.low[state] == min(0, *offsets)
                assert all(abs(b - a) <= 1 for a, b in zip((0, *offsets), offsets))
                for masks in (m for m in all_masks if max(m) < 2**s):
                    target = automaton.fill(state, automaton.mask_ids[masks])
                    # k letters later the column's lowest cell is no lower: align's run cutoff
                    assert automaton.low[target] + len(masks) >= automaton.low[state]
                    todo.append(target)
            assert len(seen) <= 3**s
        assert len(automaton.mask_ids) == MASK_BOUND
        assert_within_bounds(automaton)
        for offsets, masks in transitions(automaton):
            s, m = automaton.state_ids[offsets], automaton.mask_ids[masks]
            assert automaton.offsets[automaton.next[s][m]] == oracle._step_column(offsets, masks)

    def test_table_stays_bounded_and_a_second_pass_adds_nothing(self, monkeypatch):
        lines = [(r["surface"], r["lemma_units"]) for r in bundled_records()] + random_syllable_lines(300, 5)
        first = [[ac.action_string() for ac in align(s, u)] for s, u in lines]
        automaton = oracle._AUTOMATON
        assert_within_bounds(automaton)
        sizes = len(automaton.offsets), len(automaton.mask_ids), transitions(automaton)
        calls = []
        step = oracle._step_column
        monkeypatch.setattr(oracle, "_step_column", lambda *key: calls.append(key) or step(*key))
        assert [[ac.action_string() for ac in align(s, u)] for s, u in lines] == first
        assert calls == []
        assert (len(automaton.offsets), len(automaton.mask_ids), transitions(automaton)) == sizes

    def test_new_keys_are_filled_by_the_column_update(self, monkeypatch):
        automaton = oracle._ColumnAutomaton()
        monkeypatch.setattr(oracle, "_AUTOMATON", automaton)
        calls = []
        step = oracle._step_column
        monkeypatch.setattr(oracle, "_step_column", lambda *key: calls.append(key) or step(*key))
        align("했다", ["하", "았", "다"])
        assert calls and sorted(calls) == sorted(transitions(automaton))
        for offsets, masks in calls:
            s, m = automaton.state_ids[offsets], automaton.mask_ids[masks]
            assert automaton.offsets[automaton.next[s][m]] == step(offsets, masks)


    def test_pair_memo_stays_within_its_cap(self, monkeypatch):
        rng = random.Random(22)

        def syllables(k: int) -> str:
            return "".join(chr(rng.randrange(0xAC00, 0xD7A4)) for _ in range(k))

        # about 20 x 16 new pairs a line, so 120 lines pass the cap of 32,768
        lines = [(syllables(20), [syllables(rng.randint(1, 3)) for _ in range(8)]) for _ in range(120)]
        want = []
        for surface, units in lines:
            monkeypatch.setattr(oracle, "_AUTOMATON", oracle._ColumnAutomaton())
            want.append([ac.action_string() for ac in align(surface, units)])
        automaton = oracle._ColumnAutomaton()
        monkeypatch.setattr(oracle, "_AUTOMATON", automaton)
        emptied = False
        for (surface, units), actions in zip(lines, want):
            before = automaton.pairs
            assert [ac.action_string() for ac in align(surface, units)] == actions
            assert automaton.pairs == sum(map(len, automaton.rows.values())) <= oracle.PAIR_CAP == 32_768
            emptied |= automaton.pairs < before
        assert emptied


class TestReconstructTargets:
    def test_mod_targets_in_order(self):
        actions = [ActionTag("B", "MOD", "럽"), ActionTag("I", "MOD", "ㄴ")]
        assert reconstruct_targets("런", actions) == ["럽", "ㄴ"]

    def test_keep_yields_surface(self):
        assert reconstruct_targets("다", [ActionTag("B", "KEEP")]) == ["다"]

    def test_noop_yields_nothing(self):
        assert reconstruct_targets("요", [ActionTag("B", "NOOP")]) == []


class TestClassifyMod:
    def test_added_final_is_subcharacter(self):
        assert classify_mod("하", ["한"]) is SUBCHARACTER

    def test_replaced_syllable_is_character(self):
        assert classify_mod("이", ["라"]) is CHARACTER

    def test_merge_with_shared_choseong_is_subcharacter(self):
        assert classify_mod("했", ["하", "았"]) is SUBCHARACTER

    def test_merge_without_shared_choseong_is_character(self):
        assert classify_mod("했", ["되", "었"]) is CHARACTER

    def test_bare_letter_from_surface_is_subcharacter(self):
        assert classify_mod("한", ["ㄴ"]) is SUBCHARACTER

    def test_bare_letter_not_in_surface_is_character(self):
        assert classify_mod("한", ["ㄹ"]) is CHARACTER

    def test_non_hangul_surface_rejected(self):
        with pytest.raises(NotApplicableError):
            classify_mod("a", ["한"])

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            classify_mod("하", [])

    def test_single_unit_agrees_with_position_diff_oracle(self):
        surfaces = [chr(cp) for cp in range(0xAC00, 0xD7A4, 997)]
        targets = [chr(cp) for cp in range(0xAC00, 0xD7A4, 1013)]
        for s in surfaces:
            sb = hangul.decompose(s)
            for t in targets:
                if s == t:
                    continue
                tb = hangul.decompose(t)
                diffs = sum(x != y for x, y in zip(sb, tb))
                expected = SUBCHARACTER if diffs == 1 else CHARACTER
                assert classify_mod(s, [t]) is expected

    def test_returns_granularity_enum(self):
        assert isinstance(classify_mod("하", ["한"]), ModGranularity)


def fixture_nine_to_one() -> list[AlignedChar]:
    # nine single-position modifications (added final) and one full replacement
    subchar_mods = [
        ("하", "한"), ("가", "갔"), ("자", "잤"), ("서", "섰"), ("사", "샀"),
        ("마", "만"), ("고", "곤"), ("비", "빈"), ("나", "난"),
    ]
    chars = [AlignedChar(s, [ActionTag("B", "MOD", t)]) for s, t in subchar_mods]
    chars.append(AlignedChar("이", [ActionTag("B", "MOD", "라")]))
    return chars


class TestCorpusStats:
    def test_bad_settings_raise_config_error(self):
        with pytest.raises(ConfigError, match="top_k must be >= 0"):
            corpus_stats([], top_k=-1)
        with pytest.raises(ConfigError, match="partitions must be >= 1"):
            corpus_stats([], partitions=0)

    def test_fixture_fractions(self):
        stats = corpus_stats(fixture_nine_to_one())
        assert stats.mod == 10
        assert stats.mod_subchar == 9
        assert stats.mod_char == 1
        frac_sub, frac_char = stats.fractions()
        assert frac_sub == pytest.approx(0.90)
        assert frac_char == pytest.approx(0.10)

    def test_all_keep_has_absent_fractions(self):
        stats = corpus_stats(align("하다", ["하", "다"]))
        assert stats.fractions() == (None, None)
        report = json.loads(stats_report_json(stats))
        assert report["frac_subcharacter"] is None

    def test_non_hangul_chars_skipped(self):
        aligned = [
            AlignedChar("다", [ActionTag("B", "KEEP")]),
            AlignedChar("a", [ActionTag("B", "KEEP")]),
            AlignedChar(".", [ActionTag("B", "NOOP")]),
            AlignedChar("ㄴ", [ActionTag("B", "KEEP")]),
        ]
        stats = corpus_stats(aligned)
        assert stats.chars_total == 1
        assert stats.keep == 1
        assert stats.noop == 0

    def test_only_mod_sites_are_decomposed(self, monkeypatch):
        calls = []
        decompose = hangul.decompose
        monkeypatch.setattr(hangul, "decompose", lambda ch: calls.append(ch) or decompose(ch))
        aligned = [
            AlignedChar("다", [ActionTag("B", "KEEP")]),
            AlignedChar("a", [ActionTag("B", "KEEP")]),
            AlignedChar("요", [ActionTag("B", "NOOP")]),
        ]
        stats = corpus_stats(aligned)
        assert (stats.chars_total, stats.keep, stats.noop) == (2, 1, 1)
        assert calls == []

    def test_noop_counted_but_outside_granularity(self):
        aligned = [
            AlignedChar("요", [ActionTag("B", "NOOP")]),
            AlignedChar("하", [ActionTag("B", "MOD", "한")]),
        ]
        stats = corpus_stats(aligned)
        assert stats.noop == 1
        assert stats.mod == 1
        assert stats.fractions() == (1.0, 0.0)

    def test_multi_action_char_counts_each_kind_once(self):
        aligned = AlignedChar("했", [ActionTag("B", "MOD", "하"), ActionTag("I", "MOD", "았")])
        stats = corpus_stats([aligned])
        assert stats.mod == 1
        assert stats.mod_subchar == 1

    def test_subchar_plus_char_equals_mod(self):
        stats = corpus_stats(fixture_nine_to_one())
        assert stats.mod_subchar + stats.mod_char == stats.mod

    def test_partitioned_aggregation_matches_sequential(self):
        fixture = fixture_nine_to_one() * 3
        sequential = corpus_stats(fixture)
        partitioned = corpus_stats(fixture, partitions=4)
        assert sequential.to_json_dict() == partitioned.to_json_dict()
        assert sequential.top_mod_types() == partitioned.top_mod_types()

    def test_partitions_beyond_the_characters_make_no_parts(self, monkeypatch):
        made = []

        class CountedStats(oracle.CorpusStats):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(oracle, "CorpusStats", CountedStats)
        aligned = align("하다", ["하", "다"]) * 5
        stats = corpus_stats(aligned, partitions=1000)
        assert stats.chars_total == 10
        assert len(made) <= 2 * len(aligned) - 1  # at most one part per character, and the merges
        assert corpus_stats([], partitions=1000) == oracle.CorpusStats()

    def test_merge_is_associative(self):
        parts = [corpus_stats(fixture_nine_to_one()) for _ in range(3)]
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        assert left.to_json_dict() == right.to_json_dict()
        assert left.top_mod_types() == right.top_mod_types()

    def test_top_k_ranking_breaks_ties_lexicographically(self):
        aligned = [
            AlignedChar("하", [ActionTag("B", "MOD", "한")]),
            AlignedChar("가", [ActionTag("B", "MOD", "간")]),
            AlignedChar("가", [ActionTag("B", "MOD", "간")]),
            AlignedChar("나", [ActionTag("B", "MOD", "난")]),
        ]
        stats = corpus_stats(aligned, top_k=2)
        top = stats.top_mod_types()
        assert top[0][:2] == ("가", ("간",))
        assert top[0][3] == 2
        assert top[1][0] == "나"  # count 1 tie resolved by surface order

    def test_csv_report_shape(self):
        stats = corpus_stats(fixture_nine_to_one(), top_k=3)
        lines = stats_report_csv(stats).splitlines()
        assert lines[0] == "rank,surface,targets,count,granularity"
        assert len(lines) == 4
        assert lines[1].startswith("1,")
        assert lines[1].endswith(",subcharacter") or lines[1].endswith(",character")

    def test_csv_joins_multi_targets_with_plus(self):
        aligned = [AlignedChar("했", [ActionTag("B", "MOD", "하"), ActionTag("I", "MOD", "았")])]
        stats = corpus_stats(aligned, top_k=1)
        assert "했,하+았,1,subcharacter" in stats_report_csv(stats)

    def test_csv_quotes_targets_holding_comma_or_quote(self):
        aligned = [
            AlignedChar("했", [ActionTag("B", "MOD", "하,"), ActionTag("I", "MOD", "았")]),
            AlignedChar("했", [ActionTag("B", "MOD", '하"'), ActionTag("I", "MOD", "았")]),
        ]
        rows = list(csv.reader(io.StringIO(stats_report_csv(corpus_stats(aligned)))))
        assert rows[0] == ["rank", "surface", "targets", "count", "granularity"]
        assert all(len(row) == 5 for row in rows)
        assert sorted(row[2] for row in rows[1:]) == sorted(['하,+았', '하"+았'])


class TestJsonlCorpus:
    def test_records_align_and_aggregate(self):
        lines = [
            json.dumps({"surface": "했다", "lemma_units": ["하", "았", "다"]}, ensure_ascii=False),
            json.dumps({"surface": "하다요", "lemma_units": ["하", "다"]}, ensure_ascii=False),
        ]
        stats = corpus_stats(read_jsonl_corpus(lines))
        assert stats.chars_total == 5
        assert stats.keep == 3
        assert stats.mod == 1
        assert stats.noop == 1

    def test_bad_record_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            list(read_jsonl_corpus(['{"surface": "하다", "lemma_units": ["하다"]}', "{nope"]))

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            list(read_jsonl_corpus(['{"surface": "하다"}']))

    @pytest.mark.parametrize("record", [
        {"surface": "하", "lemma_units": [1]},
        {"surface": 5, "lemma_units": ["하"]},
        {"surface": "하", "lemma_units": "하"},
        {"surface": "하", "lemma_units": [["하다"]]},
        {"surface": "", "lemma_units": ["하"]},
        {"surface": "하", "lemma_units": []},
        {"surface": "하", "lemma_units": ["하", ""]},
        ["하", ["하"]],
    ])
    def test_records_need_non_empty_text(self, record):
        lines = ['{"surface": "하다", "lemma_units": ["하다"]}', "", json.dumps(record, ensure_ascii=False)]
        with pytest.raises(ParseError, match="^line 3: bad corpus record: "):
            list(read_jsonl_records(lines))

    def test_corpus_path_matches_reference(self):
        lines = joined_record_lines(300, 19)
        aligned = list(read_jsonl_corpus(lines))
        want = [ac for surface, units in read_jsonl_records(lines) for ac in reference_align(surface, units)]
        assert [(ac.surface, ac.action_string()) for ac in aligned] == [(ac.surface, ac.action_string()) for ac in want]
        reference = corpus_stats(want, top_k=50)
        for partitions in (1, 7):
            stats = corpus_stats(aligned, top_k=50, partitions=partitions)
            assert stats.to_json_dict() == reference.to_json_dict()
            assert stats.top_mod_types() == reference.top_mod_types()

    def test_records_keep_their_fields(self):
        lines = ['{"surface": "했다", "lemma_units": ["하", "았", "다"], "note": 1}\n']
        assert list(read_jsonl_records(lines)) == [("했다", ["하", "았", "다"])]
