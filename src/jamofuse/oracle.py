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
while pushing 았 onto the following 다 would cost 5. The distances of every
run from one lemma start are read off one Wagner-Fischer column walked along
the lemma inside that program. A step of the column depends only on its
offsets and on which source letters each letter of the next character equals,
so one module-level automaton serves every alignment: its states number the
distinct columns (at most 39), its mask ids the distinct tuples of letter
masks (at most 584), and each alignment cell steps it with two int lookups
over transitions filled on first sight (at most 16,566). The automaton also
keeps the mask id of each (surface character, lemma character) pair it has
seen, at most `PAIR_CAP` of them between calls.

The program visits only cells that can lie on an optimal alignment (Ukkonen's
cutoff). It first prices one real alignment, which bounds the optimum from
above. It then drops a start whose value plus a lower bound on the rest of the
path exceeds that price. It also stops a run once the lowest cell of its column
(`low`, per state) prices every further end above it. Every dropped candidate
costs strictly more than the optimum, so the output is that of the full program.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional

from . import hangul
from .common import ConfigError, csv_text

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
    """One action. The constructor checks nothing: text goes through `parse`."""

    bio: str  # "B" | "I"
    kind: str  # KEEP | MOD | NOOP
    target: Optional[str] = None  # output unit, MOD only

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
    actions: list[ActionTag]  # at least one

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
        except ValueError as e:
            raise ParseError(f"line {lineno}: {e}") from e
        if not actions:
            raise ParseError(f"line {lineno}: character {char!r} has no actions")
        out.append(AlignedChar(char, actions))
    return out


@functools.lru_cache(maxsize=None)
def _letters(ch: str) -> tuple[str, ...]:
    """Letters of one character; a syllable expands, anything else stays."""
    block = hangul.decompose(ch)
    return (ch,) if block is None else tuple(letter for letter in block.letters if letter)


class _MaskIds(dict):
    """Letter-mask tuple -> id, numbering each new tuple when it is first looked up."""

    def __init__(self):
        super().__init__()
        self.masks: list[tuple[int, ...]] = []  # per id

    def __missing__(self, masks: tuple[int, ...]) -> int:
        m = self[masks] = len(self.masks)
        self.masks.append(masks)
        return m


# (surface character, lemma character) mask ids that one automaton keeps between calls.
# The bundled corpus pairs at most 146 x 121 = 17,666 characters, about 0.5 MB held this way;
# a pair alone in its row costs about 210 bytes, so the cap bounds that case near 7 MB.
PAIR_CAP = 1 << 15


class _ColumnAutomaton:
    """Wagner-Fischer columns numbered as the states of one automaton (Ukkonen,
    J. Algorithms 6, 1985), so stepping a column over a character is two int lookups.

    A state is a column's offsets, a mask id a character's tuple of letter masks (see
    `_step_column`). A source has 1-3 letters and neighbouring cells differ by at most 1, so
    there are at most 3 + 9 + 27 = 39 states; a character has 1-3 letters, so at most
    8 + 64 + 512 = 584 mask ids and sum_s 3^s * sum_l 2^(s*l) = 16,566 transitions. All
    three are numbered or filled on first sight. `rows` keeps the mask id of each
    (surface character, lemma character) pair seen, `pairs` of them, and is emptied when a
    call leaves more than `PAIR_CAP`.
    """

    def __init__(self):
        self.state_ids: dict[tuple[int, ...], int] = {}
        self.offsets: list[tuple[int, ...]] = []  # per state
        self.last: list[int] = []  # per state, its last offset
        # per state, its lowest offset or 0: no column that follows it has a lower cell
        self.low: list[int] = []
        self.next: list[dict[int, int]] = []  # per state, mask id -> next state
        self.mask_ids = _MaskIds()
        self.rows: dict[str, dict[str, int]] = {}  # surface character -> lemma character -> mask id
        self.pairs = 0
        # by source letter count, the column before any target letter
        self.first = {k: self.state(tuple(range(1, k + 1))) for k in (1, 2, 3)}

    def state(self, offsets: tuple[int, ...]) -> int:
        s = self.state_ids.get(offsets)
        if s is None:
            s = self.state_ids[offsets] = len(self.offsets)
            self.offsets.append(offsets)
            self.last.append(offsets[-1])
            self.low.append(min(0, *offsets))
            self.next.append({})
        return s

    def fill(self, s: int, m: int) -> int:
        """Fill in and return the state after state `s` reads mask id `m`."""
        t = self.next[s][m] = self.state(_step_column(self.offsets[s], self.mask_ids.masks[m]))
        return t

    def mask_row(self, char: str, chars: list[str]) -> list[int]:
        """The mask id of surface character `char` against each character of `chars`."""
        row = self.rows.get(char)
        if row is None:
            row = self.rows[char] = {}
            missing = dict.fromkeys(chars)
        else:
            mids = list(map(row.get, chars))
            if None not in mids:
                return mids
            missing = dict.fromkeys(c for c in chars if c not in row)
        row.update(zip(missing, map(self.mask_ids.__getitem__, _masks(_letters(char), missing))))
        self.pairs += len(missing)
        mids = list(map(row.__getitem__, chars))
        if self.pairs > PAIR_CAP:
            self.rows, self.pairs = {}, 0
        return mids


_AUTOMATON = _ColumnAutomaton()


def _step_column(offsets: tuple[int, ...], masks: tuple[int, ...]) -> tuple[int, ...]:
    """One Wagner-Fischer column (J. ACM 21(1), 1974) moved over one target character.

    A column holds the edit distances from each prefix of the source letters to the target
    letters so far; `offsets` are its cells after the first, less the first. `masks` holds
    one mask per letter of the character, with bit k set when source letter k (from 0)
    equals that letter. The step depends on nothing else, which is what lets `_AUTOMATON`
    serve every alignment.
    """
    col = [0, *offsets]
    for mask in masks:
        diag = col[0]
        left = col[0] = diag + 1
        for k in range(1, len(col)):
            up = col[k]
            gap = (up if up < left else left) + 1
            cell = diag + 1 - (mask >> (k - 1) & 1)
            col[k] = left = cell if cell < gap else gap
            diag = up
    return tuple(c - col[0] for c in col[1:])


_ZEROS = ((), (0,), (0, 0), (0, 0, 0))  # by letter count, the masks of a character sharing no letter


def _masks(source: tuple[str, ...], chars: Iterable[str]) -> list[tuple[int, ...]]:
    """Per character of `chars`, per letter of it, the bits of the `source` letters equal to it."""
    bits: dict[str, int] = {}
    for k, x in enumerate(source):
        bits[x] = bits.get(x, 0) | 1 << k
    apart = bits.keys().isdisjoint
    return [_ZEROS[len(ls)] if apart(ls) else tuple(map(bits.get, ls, (0, 0, 0))) for ls in map(_letters, chars)]


# tie-break order for equal-cost alignments: prefer KEEP, then MOD, then NOOP
_PREF_KEEP, _PREF_MOD, _PREF_NOOP = 0, 1, 2

# ActionTag is frozen, so every KEEP and NOOP character of align's output shares these
_B_KEEP, _I_KEEP, _B_NOOP = ActionTag("B", KEEP), ActionTag("I", KEEP), ActionTag("B", NOOP)


def align(surface: str, lemma_units: list[str]) -> list[AlignedChar]:
    """Assign lemma characters to surface characters by minimal letter edits.

    Each surface character takes a contiguous, possibly empty, run of the
    flattened lemma character sequence (empty run = NOOP, exact single-char
    match = KEEP, anything else = MOD per covered lemma unit). Runs are
    scored by letter-level edit distance with unit costs; ties prefer KEEP
    over MOD over NOOP, then the earliest run start.

    The program drops what cannot be optimal (Ukkonen's cutoff, Inf. Control 64,
    1985). Before it, one real alignment is priced through the automaton: surface
    character i takes the lemma characters up to the nearest cut at i/m of the lemma.
    Its (cost, pref) integer `bound` is therefore at least the optimum's. Three kinds
    of candidate are dropped, each costing strictly more than `bound`:
    - every candidate of a start `a` whose value, plus the difference between the
      surface letters left and the lemma letters left (a lower bound on any rest of
      the path), exceeds `bound`;
    - any candidate above `bound`, which a cell does not keep (a cell no kept
      candidate reaches holds `bound + 1`);
    - the rest of a run from `a` once its column's lowest cell prices every further
      end above `bound`, since no later column of the run has a lower cell.
    On an optimal path every cell's final value is at most `bound`, so each dropped
    candidate costs strictly more than it. By induction along the path, every cell on
    it keeps the value and the earliest start that the full program gives it, so the
    backtrace, the tie-breaks and the actions are unchanged. Cells off every optimal
    path may keep larger values, and the backtrace never reads them.
    """
    if not surface or not lemma_units or not all(lemma_units):
        raise ValueError("surface and lemma units must be non-empty")
    lemma_chars = [ch for unit in lemma_units for ch in unit]
    unit_of = [u for u, unit in enumerate(lemma_units) for _ in unit]
    starts_unit = [pos == 0 for unit in lemma_units for pos in range(len(unit))]

    m, n = len(surface), len(lemma_chars)
    # (cost, pref) as one integer: a path's summed pref is at most 2m < scale
    scale = 2 * m + 1
    # letters in lemma_chars[:j]: the distance of run a..j is the letters in it plus the last
    # offset of the column walked from a to j
    ends = list(itertools.accumulate((len(_letters(c)) for c in lemma_chars), initial=0))
    automaton = _AUTOMATON
    nxt, last_of, low_of, fill = automaton.next, automaton.last, automaton.low, automaton.fill
    # per surface character: its letter count, the column before any lemma letter and the mask
    # id of each lemma position. The same pass prices one real alignment as the bound: surface
    # character i takes the lemma characters up to the cut nearest i/m of them.
    info: dict[str, tuple[int, int, list[int]]] = {}
    letters_left = bound = b = 0
    for i, ch in enumerate(surface, start=1):
        entry = info.get(ch)
        if entry is None:
            size = len(_letters(ch))
            entry = info[ch] = size, automaton.first[size], automaton.mask_row(ch, lemma_chars)
        size, s, mids = entry
        letters_left += size
        a, b = b, (2 * i * n + m) // (2 * m)
        if a == b:
            bound += size * scale + _PREF_NOOP
        elif b == a + 1 and lemma_chars[a] == ch:
            bound += _PREF_KEEP
        else:
            for mid in mids[a:b]:
                try:
                    s = nxt[s][mid]
                except KeyError:
                    s = fill(s, mid)
            bound += (ends[b] - ends[a] + last_of[s]) * scale + _PREF_MOD

    # what a cell holds until a candidate within the bound reaches it
    over = bound + 1
    best = [0] + [over] * n
    choice: list[list[int]] = [[-1] * (n + 1) for _ in range(m + 1)]
    for i, ch in enumerate(surface, start=1):
        size, first, mids = info[ch]
        row, pick = [over] * (n + 1), choice[i]
        noop = size * scale + _PREF_NOOP
        # a start a with ends[a] lemma letters done leaves |ends[a] - level| more edits at least
        level = ends[n] - letters_left
        letters_left -= size
        for a, base in enumerate(best):
            if base + abs(ends[a] - level) * scale > bound:
                continue
            if base + noop < row[a]:
                row[a], pick[a] = base + noop, a
            if a == n:
                continue
            mod = base - ends[a] * scale + _PREF_MOD
            # a transition is missing at most 16,566 times per process, and a try costs nothing
            # while it is found
            try:
                s = nxt[first][mids[a]]
            except KeyError:
                s = fill(first, mids[a])
            cand = base + _PREF_KEEP if lemma_chars[a] == ch else mod + (ends[a + 1] + last_of[s]) * scale
            if cand < row[a + 1]:
                row[a + 1], pick[a + 1] = cand, a
            for j in range(a + 2, n + 1):
                try:
                    s = nxt[s][mids[j - 1]]
                except KeyError:
                    s = fill(s, mids[j - 1])
                cand = mod + (ends[j] + last_of[s]) * scale
                if cand < row[j]:
                    row[j], pick[j] = cand, a
                # no later column of the run has a cell below this one's lowest, so no later end
                # costs less than that cell prices
                elif cand > bound and mod + (ends[j] + low_of[s]) * scale > bound:
                    break
        best = row

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
            out.append(AlignedChar(ch, [_B_NOOP]))
            continue
        if group == [ch]:
            out.append(AlignedChar(ch, [_B_KEEP if starts_unit[a] else _I_KEEP]))
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
    # (surface, targets) -> granularity, so each distinct MOD site is decomposed once
    _classified: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, aligned: AlignedChar) -> None:
        if not hangul.is_syllable(aligned.surface):
            return
        self.chars_total += 1
        kinds = {a.kind for a in aligned.actions}
        if KEEP in kinds:
            self.keep += 1
        if NOOP in kinds:
            self.noop += 1
        if MOD in kinds:
            self.mod += 1
            site = (aligned.surface, tuple(reconstruct_targets(aligned.surface, aligned.actions)))
            granularity = self._classified.get(site)
            if granularity is None:
                granularity = self._classified[site] = classify_mod(site[0], list(site[1]))
            if granularity is SUBCHARACTER:
                self.mod_subchar += 1
            else:
                self.mod_char += 1
            self.mod_types[(*site, granularity.value)] += 1

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

    def top_mod_types(self) -> list[tuple[str, tuple[str, ...], str, int]]:
        """The top_k most frequent MOD types, ties broken lexicographically."""
        ranked = sorted(self.mod_types.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(s, t, g, c) for (s, t, g), c in ranked[: self.top_k]]

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
        raise ConfigError(f"top_k must be >= 0, got {top_k}")
    if partitions < 1:
        raise ConfigError(f"partitions must be >= 1, got {partitions}")
    parts = [CorpusStats(top_k=top_k)]  # each further part is made for its first character
    for i, ac in enumerate(aligned):
        if 0 < i < partitions:
            parts.append(CorpusStats(top_k=top_k))
        parts[i % partitions].add(ac)
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    return merged


def read_jsonl_records(stream: Iterable[str]) -> Iterator[tuple[str, list[str]]]:
    """`(surface, lemma_units)` of each `{"surface": ..., "lemma_units": [...]}` line, all text non-empty."""
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            surface, units = record["surface"], record["lemma_units"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise ParseError(f"line {lineno}: bad corpus record: {e}") from e
        if not (isinstance(units, list) and units and all(isinstance(t, str) and t for t in [surface, *units])):
            raise ParseError(f"line {lineno}: bad corpus record: {line.strip()!r}")
        yield surface, units


def read_jsonl_corpus(stream: Iterable[str]) -> Iterator[AlignedChar]:
    """Corpus records run through align()."""
    for surface, units in read_jsonl_records(stream):
        yield from align(surface, units)


def stats_report_json(stats: CorpusStats) -> str:
    return json.dumps(stats.to_json_dict(), ensure_ascii=False, indent=2) + "\n"


def stats_report_csv(stats: CorpusStats) -> str:
    """Top-K MOD table: rank, surface, targets (joined by +), count, granularity."""
    rows = [
        (rank, surface, "+".join(targets), count, granularity)
        for rank, (surface, targets, granularity, count) in enumerate(stats.top_mod_types(), start=1)
    ]
    return csv_text(["rank", "surface", "targets", "count", "granularity"], rows)
