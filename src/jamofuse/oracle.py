"""Surface-to-lemma alignment actions and corpus statistics.

Each character of an inflected surface form gets one action per lemma unit it
absorbs: KEEP (identical), MOD (altered, carrying the reconstructed target
unit), or NOOP (absent from the lemma). Actions take BIO prefixes; an action
is B- when it both starts a new lemma unit and is the first action on its
character, everything else is I-. MOD sites are further classified as
subcharacter-level (one of I/V/F changed, or a transfer or merge across a
character boundary) versus character-level (whole syllable replaced).

Alignment is a small dynamic program: each surface character receives a
contiguous, possibly empty, run of lemma characters, costed by the edit
distance between their letter sequences, so e.g. 했 pairs with 하+았 at cost 3
while pushing 았 onto the following 다 would cost 5.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional

from . import hangul

KEEP = "KEEP"
MOD = "MOD"
NOOP = "NOOP"

DEFAULT_TOP_K = 10


class ModGranularity(str, Enum):
    SUBCHARACTER = "subcharacter"
    CHARACTER = "character"

    def __str__(self) -> str:
        return self.value


SUBCHARACTER = ModGranularity.SUBCHARACTER
CHARACTER = ModGranularity.CHARACTER


class ParseError(ValueError):
    pass


class NotApplicableError(ValueError):
    pass


@dataclass(frozen=True)
class ActionTag:
    bio: str  # "B" | "I"
    kind: str  # KEEP | MOD | NOOP
    target: Optional[str] = None  # output unit, MOD only

    def __post_init__(self):
        if self.bio not in ("B", "I"):
            raise ValueError(f"bad BIO prefix {self.bio!r}")
        if self.kind not in (KEEP, MOD, NOOP):
            raise ValueError(f"bad action kind {self.kind!r}")
        if (self.kind == MOD) != (self.target is not None):
            raise ValueError(f"{self.kind} and target {self.target!r} do not go together")

    def __str__(self) -> str:
        if self.kind == MOD:
            return f"{self.bio}-{MOD}-{self.target}"
        return f"{self.bio}-{self.kind}"

    @staticmethod
    def parse(text: str) -> "ActionTag":
        parts = text.split("-", 2)
        if len(parts) < 2:
            raise ValueError(f"cannot parse action {text!r}")
        bio, kind = parts[0], parts[1]
        target = parts[2] if len(parts) == 3 else None
        if bio not in ("B", "I") or kind not in (KEEP, MOD, NOOP):
            raise ValueError(f"cannot parse action {text!r}")
        if kind == MOD and not target:
            raise ValueError(f"MOD action {text!r} is missing its target unit")
        if kind != MOD and target is not None:
            raise ValueError(f"{kind} action {text!r} must not carry a target")
        return ActionTag(bio, kind, target)


@dataclass
class AlignedChar:
    surface: str
    actions: list[ActionTag]

    def __post_init__(self):
        if not self.actions:
            raise ValueError(f"character {self.surface!r} has no actions")

    def action_string(self) -> str:
        return ";".join(str(a) for a in self.actions)


def parse_action_file(stream: Iterable[str], delim: str = "\t") -> list[AlignedChar]:
    """Parse `<char> DELIM <action>{;<action>}` lines, skipping blank lines."""
    out: list[AlignedChar] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split(delim)
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected one {delim!r} delimiter, got {line!r}")
        char = parts[0].strip() or parts[0]
        actions_field = parts[1].strip()
        if len(char) != 1:
            raise ParseError(f"line {lineno}: first field must be a single character, got {parts[0]!r}")
        try:
            actions = [ActionTag.parse(a.strip()) for a in actions_field.split(";") if a.strip()]
            aligned = AlignedChar(char, actions)
        except ValueError as e:
            raise ParseError(f"line {lineno}: {e}") from e
        out.append(aligned)
    return out


def _letters(text: str) -> list[str]:
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


def _edit_distance(a: list[str], b: list[str]) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


# tie-break order for equal-cost alignments: prefer KEEP, then MOD, then NOOP
_PREF_KEEP, _PREF_MOD, _PREF_NOOP = 0, 1, 2


def align(surface: str, lemma_units: list[str]) -> list[AlignedChar]:
    """Assign lemma characters to surface characters by minimal letter edits.

    Each surface character takes a contiguous, possibly empty, run of the
    flattened lemma character sequence (empty run = NOOP, exact single-char
    match = KEEP, anything else = MOD per covered lemma unit). Runs are
    scored by letter-level edit distance with unit costs; ties prefer KEEP
    over MOD over NOOP.
    """
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
    surface_letters = [_letters(c) for c in surface]
    lemma_letters = [_letters(c) for c in lemma_chars]

    def group_cost(i: int, a: int, b: int) -> tuple[int, int]:
        group = lemma_chars[a:b]
        if not group:
            return len(surface_letters[i]), _PREF_NOOP
        if group == [surface[i]]:
            return 0, _PREF_KEEP
        target_letters = [letter for k in range(a, b) for letter in lemma_letters[k]]
        return _edit_distance(surface_letters[i], target_letters), _PREF_MOD

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


def reconstruct_targets(surface: str, actions: Iterable[ActionTag]) -> list[str]:
    """Immediate output units of one character's actions, in order.

    MOD contributes its target, KEEP the surface character itself, NOOP
    nothing.
    """
    units: list[str] = []
    for action in actions:
        if action.kind == MOD:
            units.append(action.target)
        elif action.kind == KEEP:
            units.append(surface)
    return units


def classify_mod(surface: str, targets: list[str]) -> ModGranularity:
    """Subcharacter- vs character-level classification of one MOD site.

    Single syllable target: subcharacter iff exactly one of (I, V, F)
    differs. A single bare-letter target, or several target units (a
    transfer or merge across a character boundary): subcharacter iff the
    first target unit keeps the surface's initial consonant or is itself a
    letter of the surface syllable; otherwise the whole character was
    replaced.
    """
    block = hangul.decompose(surface)
    if block is None:
        raise NotApplicableError(f"surface {surface!r} is not a decomposable syllable")
    if not targets or not all(targets):
        raise ValueError("targets must be non-empty")

    if len(targets) == 1 and len(targets[0]) == 1:
        target_block = hangul.decompose(targets[0])
        if target_block is not None:
            diffs = sum(x != y for x, y in zip(block, target_block))
            return SUBCHARACTER if diffs == 1 else CHARACTER
        return SUBCHARACTER if targets[0] in block.letters else CHARACTER

    first = targets[0][0]
    first_block = hangul.decompose(first)
    if first_block is not None:
        return SUBCHARACTER if first_block.cho == block.cho else CHARACTER
    return SUBCHARACTER if first in block.letters else CHARACTER


@dataclass
class CorpusStats:
    """Mergeable per-character action counts.

    Characters outside the precomposed-syllable range are skipped entirely; a
    character counts toward KEEP/MOD/NOOP once for each action kind it
    carries. NOOP never enters the granularity split, only the overall
    counts.
    """

    keep: int = 0
    mod: int = 0
    noop: int = 0
    mod_subchar: int = 0
    mod_char: int = 0
    chars_total: int = 0
    top_k: int = DEFAULT_TOP_K
    mod_types: Counter = field(default_factory=Counter)  # (surface, targets, granularity) -> count

    def add(self, aligned: AlignedChar) -> None:
        if hangul.decompose(aligned.surface) is None:
            return
        self.chars_total += 1
        kinds = {a.kind for a in aligned.actions}
        if KEEP in kinds:
            self.keep += 1
        if NOOP in kinds:
            self.noop += 1
        if MOD in kinds:
            self.mod += 1
            targets = reconstruct_targets(aligned.surface, aligned.actions)
            granularity = classify_mod(aligned.surface, targets)
            if granularity is SUBCHARACTER:
                self.mod_subchar += 1
            else:
                self.mod_char += 1
            self.mod_types[(aligned.surface, tuple(targets), granularity.value)] += 1

    def merge(self, other: "CorpusStats") -> "CorpusStats":
        return CorpusStats(
            self.keep + other.keep,
            self.mod + other.mod,
            self.noop + other.noop,
            self.mod_subchar + other.mod_subchar,
            self.mod_char + other.mod_char,
            self.chars_total + other.chars_total,
            max(self.top_k, other.top_k),
            self.mod_types + other.mod_types,
        )

    def top_mod_types(self, top_k: Optional[int] = None) -> list[tuple[str, tuple[str, ...], str, int]]:
        """Most frequent MOD types, ties broken lexicographically."""
        k = self.top_k if top_k is None else top_k
        ranked = sorted(self.mod_types.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(s, t, g, c) for (s, t, g), c in ranked[:k]]

    def fractions(self) -> tuple[Optional[float], Optional[float]]:
        """(subcharacter, character) fractions of MOD sites; None without MODs."""
        if self.mod == 0:
            return None, None
        return self.mod_subchar / self.mod, self.mod_char / self.mod

    def to_json_dict(self) -> dict:
        frac_sub, frac_char = self.fractions()
        return {
            "chars_total": self.chars_total,
            "keep": self.keep,
            "mod": self.mod,
            "noop": self.noop,
            "mod_subcharacter": self.mod_subchar,
            "mod_character": self.mod_char,
            "frac_subcharacter": frac_sub,
            "frac_character": frac_char,
        }


def corpus_stats(
    aligned: Iterable[AlignedChar], top_k: int = DEFAULT_TOP_K, partitions: int = 1
) -> CorpusStats:
    """Aggregate action counts; partitioned aggregation merges to the same result."""
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    if partitions == 1:
        stats = CorpusStats(top_k=top_k)
        for ac in aligned:
            stats.add(ac)
        return stats
    parts = [CorpusStats(top_k=top_k) for _ in range(partitions)]
    for i, ac in enumerate(aligned):
        parts[i % partitions].add(ac)
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    return merged


def read_jsonl_corpus(stream: Iterable[str]) -> Iterator[AlignedChar]:
    """`{"surface": ..., "lemma_units": [...]}` records run through align()."""
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            surface, units = record["surface"], record["lemma_units"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise ParseError(f"line {lineno}: bad corpus record: {e}") from e
        if not isinstance(surface, str) or not isinstance(units, list):
            raise ParseError(f"line {lineno}: bad corpus record: {line.strip()!r}")
        yield from align(surface, units)


def stats_report_json(stats: CorpusStats) -> str:
    return json.dumps(stats.to_json_dict(), ensure_ascii=False, indent=2) + "\n"


def stats_report_csv(stats: CorpusStats, top_k: Optional[int] = None) -> str:
    """Top-K MOD table: rank, surface, targets (joined by +), count, granularity."""
    rows = ["rank,surface,targets,count,granularity"]
    for rank, (surface, targets, granularity, count) in enumerate(
        stats.top_mod_types(top_k), start=1
    ):
        rows.append(f"{rank},{surface},{'+'.join(targets)},{count},{granularity}")
    return "\n".join(rows) + "\n"
