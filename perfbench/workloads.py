"""The four benchmark workloads: seeded inputs, set-up, timed operations, checks.

Each workload is a closed loop on one thread: an operation starts when the
previous one has returned. ``prepare`` makes the inputs from the seed and is
never timed. ``setup`` is the program's own set-up (vocab or checkpoint load,
``Pipeline.build``), which the fresh-process probe times as part of
``setup_s``. ``op(i)`` runs operation ``i`` and times only the calls a user
of the program would make; ``check(i, result)`` verifies its output
afterwards, untimed and untraced.

Timed parts are recorded as intervals of the workload's ``gauge.cpu()``, CPU
time that leaves out the host speed gauge's own kernel, so that the figures
can be normalized to nominal host speed; wall seconds are kept beside them
for the report.

The program is called only through module attributes (``training.train``,
never a bare ``train``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from collections import Counter
from typing import Any

import numpy as np

from jamofuse import checkpoint, gradcheck, hangul, optim, oracle, subword, training
from jamofuse.pipeline import FUSIONS, Pipeline, PipelineConfig
from jamofuse.subchar import SCHEME_NAMES, SubcharTokenizer

from hostspeed import Gauge

HERE = Path(__file__).resolve().parent


def data_file(name: str) -> str:
    return str(resources.files("jamofuse.data") / name)


@dataclass
class OpResult:
    items: int  # work items done, the numerator of items_per_s
    start: float  # gauge.cpu() at the start of the timed part of the operation
    end: float  # and at its end
    wall: float  # wall seconds of the timed part, for the report
    latencies: list[tuple[float, float]]  # gauge.cpu() interval of each latency sample
    output: Any  # compared bitwise between the untraced and traced passes
    detail: Any = None  # what check() needs beyond the output

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Workload:
    seed: int
    workdir: Path
    gauge: Gauge = field(default_factory=Gauge)  # started by whoever measures
    name = ""
    item = ""  # what one item of items_per_s is
    sample = ""  # what one latency sample is
    round_size = 1  # operations always run in whole rounds of this size
    min_rounds = 1
    trace_ops = 1  # fixed operation count of a traced run, so counts repeat exactly
    latency_per_operation = False  # True: median and tail within each operation, then averaged

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def now(self) -> tuple[float, float]:
        """(CPU, wall) readings in seconds of the gauge's clocks."""
        return self.gauge.cpu(), self.gauge.wall()

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def check(self, i: int, result: OpResult) -> list[str]:
        return []

    def properties(self, results: list[OpResult]) -> dict:
        raise NotImplementedError

    def own_metrics(self, results: list[OpResult], summary: dict) -> dict:
        """The workload's own end-to-end figures, by name: (value, unit)."""
        raise NotImplementedError


def text_properties(texts: list[str], tokenizer: SubcharTokenizer) -> dict:
    """Input properties that caching and batching claims rest on."""
    tokens = {t: len(tokenizer.tokenize(t).tokens) for t in set(texts)}
    words = [w for t in texts for w in t.split()]
    seen: set[str] = set()
    repeated = 0
    for w in words:
        repeated += w in seen
        seen.add(w)
    chars = [c for t in texts for c in t if not c.isspace()]
    return {
        "texts": len(texts),
        "mean_chars_per_text": sum(len(t) for t in texts) / len(texts),
        "mean_subchar_tokens_per_text": sum(tokens[t] for t in texts) / len(texts),
        "mean_words_per_text": len(words) / len(texts),
        "distinct_text_share": len(tokens) / len(texts),
        "repeated_word_share": repeated / len(words),
        "non_hangul_char_share": sum(not hangul.is_syllable(c) for c in chars) / len(chars),
    }


def pair_corpus(data: training.PairDataset) -> list[str]:
    """The vocab corpus `jamofuse train` derives from a pair file."""
    return [f"{r.form_a} {r.form_b}" for r in data.records]


def percentile_tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With fewer than 20 samples that percentile would lie below the median,
    so the maximum is returned, with percentile 100. Every workload takes
    more samples than that in a run of a few seconds.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# embed-stream -----------------------------------------------------------------

EMBED_CONFIG = PipelineConfig(scheme="bts", dim=64, compression="principles", fusion="cross-attention")
EMBED_MODEL_SEED = 0
VOCAB_SIZE = 200  # the size `jamofuse train` derives from a pair file by default
CHUNK = 32
POOL_CHUNKS = 512  # texts are distinct within a pool; a run longer than the pool repeats it
# Assumed, not measured traffic (the bundled data has no texts of several
# words and no non-Hangul characters): the words-per-text mix, the Zipf
# exponent, the number of seeded words and the shares of ASCII words,
# numbers and trailing punctuation among them.
SEEDED_WORDS = 2000
WORDS_PER_TEXT = ((1, 2, 3), (0.3, 0.4, 0.3))
ZIPF_EXPONENT = 1.0
ASCII_SHARE, NUMBER_SHARE, PUNCTUATION_SHARE = 0.04, 0.02, 0.06
REFERENCE_TEXTS = 2  # per chunk, recomputed with the single-text word_vector
REFERENCE_TOLERANCE = 1e-12


def bundled_forms() -> list[str]:
    """Every word form in the bundled pair, corpus and word-set files."""
    data = training.load_pair_dataset(data_file("verb_past_pairs.tsv"))
    forms = [f for r in data.records for f in (r.form_a, r.form_b)]
    with open(data_file("inflections.jsonl"), encoding="utf-8") as stream:
        forms += [json.loads(line)["surface"] for line in stream if line.strip()]
    for _, words in training.load_word_sets(data_file("inflection_sets.tsv")):
        forms += words
    return list(dict.fromkeys(forms))


class SyllableModel:
    """Word lengths and syllables as often as the bundled forms have them."""

    def __init__(self, forms: list[str]) -> None:
        lengths = Counter(len(f) for f in forms)
        syllables = Counter(c for f in forms for c in f)
        self.lengths, self.length_p = self._distribution(lengths)
        self.syllables, self.syllable_p = self._distribution(syllables)

    @staticmethod
    def _distribution(counts: Counter) -> tuple[list, np.ndarray]:
        keys = sorted(counts)
        p = np.array([counts[k] for k in keys], dtype=float)
        return keys, p / p.sum()

    def word(self, rng: np.random.Generator) -> str:
        n = self.lengths[int(rng.choice(len(self.lengths), p=self.length_p))]
        return "".join(self.syllables[int(i)] for i in rng.choice(len(self.syllables), size=n, p=self.syllable_p))


def seeded_word(rng: np.random.Generator, model: SyllableModel) -> str:
    """A word of bundled syllables; a few are ASCII, numbers, or end in punctuation."""
    kind = rng.random()
    if kind < ASCII_SHARE:
        return "".join(chr(ord("a") + int(c)) for c in rng.integers(0, 26, size=int(rng.integers(2, 7))))
    if kind < ASCII_SHARE + NUMBER_SHARE:
        return str(int(rng.integers(0, 10_000)))
    word = model.word(rng)
    if rng.random() < PUNCTUATION_SHARE:
        word += ".,!?"[int(rng.integers(0, 4))]
    return word


def embed_texts(seed: int) -> list[str]:
    """Distinct 1-3 word texts, words drawn Zipf-like from a seeded lexicon.

    The bundled forms take the frequent ranks in file order, the same for
    every seed, since the head of a Zipf law carries most of the mass; the
    seeded words, made of the bundled forms' syllables, take the tail. Duplicate texts are redrawn, which thins out
    one-word texts as the pool fills, so the pool is shuffled at the end: any
    prefix has the pool's properties.
    """
    rng = np.random.default_rng([seed, 0])
    forms = bundled_forms()
    known = set(forms)
    model = SyllableModel(forms)
    seeded = dict.fromkeys(seeded_word(rng, model) for _ in range(SEEDED_WORDS))
    lexicon = forms + [w for w in seeded if w not in known]
    weights = 1.0 / np.arange(1, len(lexicon) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    target = POOL_CHUNKS * CHUNK
    seen: set[str] = set()
    texts: list[str] = []
    while len(texts) < target:
        counts = rng.choice(WORDS_PER_TEXT[0], size=4096, p=WORDS_PER_TEXT[1])
        words = rng.choice(len(lexicon), size=int(counts.sum()), p=weights)
        pos = 0
        for k in counts:
            text = " ".join(lexicon[w] for w in words[pos : pos + k])
            pos += k
            if text not in seen and len(texts) < target:
                seen.add(text)
                texts.append(text)
    return [texts[i] for i in rng.permutation(len(texts))]


def load_model(path: str) -> Pipeline:
    """Rebuild a pipeline from a checkpoint the way `jamofuse embed --ckpt` does."""
    ckpt = checkpoint.load_checkpoint(path)
    config = PipelineConfig.from_dict(ckpt.config["pipeline"])
    stored = ckpt.config["subword_vocab"]
    vocab = subword.SubwordVocab(stored["mode"], {t: int(i) for t, i in stored["entries"].items()})
    pipe = Pipeline.build(config, vocab, seed=ckpt.seed)
    checkpoint.load_into(pipe.params.group, path)
    return pipe


class EmbedStream(Workload):
    name = "embed-stream"
    item = "word"
    sample = f"one word_vectors call on {CHUNK} texts"
    trace_ops = 24

    @property
    def ckpt(self) -> Path:
        return self.workdir / "embed.ckpt"

    def prepare(self) -> None:
        self.texts = embed_texts(self.seed)
        data = training.load_pair_dataset(data_file("verb_past_pairs.tsv"))
        vocab = subword.train_vocab(pair_corpus(data), VOCAB_SIZE)
        pipe = Pipeline.build(EMBED_CONFIG, vocab, seed=EMBED_MODEL_SEED)
        echo = {"pipeline": EMBED_CONFIG.to_dict(), "subword_vocab": {"mode": vocab.mode, "entries": vocab.entries}}
        checkpoint.save_checkpoint(str(self.ckpt), pipe.params.group, seed=EMBED_MODEL_SEED, config=echo)

    def setup(self) -> None:
        self.pipe = load_model(str(self.ckpt))

    def chunk(self, i: int) -> list[str]:
        start = (i % POOL_CHUNKS) * CHUNK
        return self.texts[start : start + CHUNK]

    def op(self, i: int) -> OpResult:
        texts = self.chunk(i)
        cpu0, wall0 = self.now()
        vectors = training.word_vectors(self.pipe, texts, "fused")
        cpu1, wall1 = self.now()
        words = sum(len(t.split()) for t in texts)
        return OpResult(words, cpu0, cpu1, wall1 - wall0, [(cpu0, cpu1)], vectors.tobytes(), vectors)

    def check(self, i: int, result: OpResult) -> list[str]:
        vectors = result.detail
        texts = self.chunk(i)
        if vectors.shape != (len(texts), EMBED_CONFIG.dim):
            return [f"shape {vectors.shape}"]
        if not np.isfinite(vectors).all():
            return ["non-finite vector"]
        rng = np.random.default_rng([self.seed, 1, i])
        for k in rng.choice(len(texts), size=REFERENCE_TEXTS, replace=False):
            reference = training.word_vector(self.pipe, texts[k], "fused")
            error = float(np.max(np.abs(vectors[k] - reference)))
            if error > REFERENCE_TOLERANCE:
                return [f"text {texts[k]!r} differs from word_vector by {error:.3e}"]
        return []

    def properties(self, results: list[OpResult]) -> dict:
        texts = [t for i in range(len(results)) for t in self.chunk(i)]
        return {**text_properties(texts, self.pipe.tokenizer), "chunk_size": CHUNK}

    def own_metrics(self, results: list[OpResult], summary: dict) -> dict:
        return {
            "embed_words_per_s": (summary["items_per_s"], "words/s"),
            "embed_chunk_ms_p50": (summary["latency_ms_p50"], "ms"),
            "embed_chunk_ms_tail": (summary["latency_ms_tail"], "ms"),
        }


# train-pairs ------------------------------------------------------------------

TRAIN_PIPELINE = PipelineConfig(scheme="jamo", dim=16, compression="principles", fusion="summation")
TRAIN_CONFIG = training.TrainConfig(epochs=20, lr=0.05, batch_size=8, seed=7)
MIN_RISE = 0.05  # acceptance criterion 6
MIN_GAP = 0.05


class TrainPairs(Workload):
    """The criterion 6 run; the fixture and config are fixed, so the seed changes nothing."""

    name = "train-pairs"
    item = "pair-epoch"
    sample = "one epoch inside train(), from the first optimizer step of an epoch to that of the next"
    min_rounds = 2  # repeats must give bitwise identical logs and checkpoints

    def prepare(self) -> None:
        self.setup()
        self.untrained_cos = training.pair_similarity(self.pipe, self.data).mean_fused
        self.first: Any = None

    def setup(self) -> None:
        self.data = training.load_pair_dataset(data_file("verb_past_pairs.tsv"))
        self.vocab = subword.train_vocab(pair_corpus(self.data), VOCAB_SIZE)
        self.pipe = Pipeline.build(TRAIN_PIPELINE, self.vocab, seed=TRAIN_CONFIG.seed)

    def op(self, i: int) -> OpResult:
        if self.pipe is None:
            self.pipe = Pipeline.build(TRAIN_PIPELINE, self.vocab, seed=TRAIN_CONFIG.seed)
        pipe, self.pipe = self.pipe, None
        step, stamps = optim.AdamW.__dict__["step"], []

        def clocked(*args, **kwargs):
            stamps.append(self.gauge.cpu())
            return step(*args, **kwargs)

        optim.AdamW.step = clocked  # epoch boundaries are visible only at optimizer steps
        try:
            cpu0, wall0 = self.now()
            log = training.train(pipe, self.data, TRAIN_CONFIG)
            cpu1, wall1 = self.now()
        finally:
            optim.AdamW.step = step
        epochs = TRAIN_CONFIG.epochs
        steps = -(-len(self.data.records) // TRAIN_CONFIG.batch_size)
        if len(stamps) != epochs * steps:
            raise RuntimeError(f"AdamW.step ran {len(stamps)} times, not {epochs} epochs x {steps} batches")
        starts = stamps[::steps]
        # `jamofuse train` saves a checkpoint after training; untimed here
        path = self.workdir / f"train-{i}.ckpt"
        echo = {"pipeline": TRAIN_PIPELINE.to_dict(), "train": TRAIN_CONFIG.to_dict()}
        checkpoint.save_checkpoint(str(path), pipe.params.group, seed=TRAIN_CONFIG.seed, config=echo)
        blob = path.read_bytes()
        path.unlink()
        latencies = list(zip(starts, starts[1:]))
        items = len(self.data.records) * epochs
        return OpResult(items, cpu0, cpu1, wall1 - wall0, latencies, (log.to_csv(), blob), log)

    def check(self, i: int, result: OpResult) -> list[str]:
        log = result.detail
        failures = []
        if self.first is None:
            self.first = result.output
        elif result.output[0] != self.first[0]:
            failures.append("training log differs from the first repeat")
        elif result.output[1] != self.first[1]:
            failures.append("checkpoint differs from the first repeat")
        if not all(np.isfinite(m.loss) for m in log.epochs):
            failures.append("non-finite loss")
        last = log.epochs[-1]
        rise = last.mean_pair_cos_fused - self.untrained_cos
        gap = last.mean_pair_cos_fused - last.mean_random_cos
        if not rise >= MIN_RISE:
            failures.append(f"fused pair cosine rose by {rise:.4f} < {MIN_RISE}")
        if not gap >= MIN_GAP:
            failures.append(f"fused pair cosine ends {gap:.4f} above random < {MIN_GAP}")
        self.cos_gap = gap
        return failures

    def properties(self, results: list[OpResult]) -> dict:
        forms = [f for r in self.data.records for f in (r.form_a, r.form_b)]
        tokenizer = SubcharTokenizer(TRAIN_PIPELINE.scheme)
        return {**text_properties(forms, tokenizer), "chunk_size": TRAIN_CONFIG.batch_size}

    def own_metrics(self, results: list[OpResult], summary: dict) -> dict:
        epochs = len(results) * TRAIN_CONFIG.epochs
        return {
            "train_epoch_s": (summary["seconds"] / epochs, "s"),
            "train_pair_cos_gap": (self.cos_gap, "cosine"),
        }


# gradcheck-sweep --------------------------------------------------------------

GRADCHECK_TEXT = "하다"
GRADCHECK_DIM = 4
GRADCHECK_TOL = 1e-4
# coordinates per latency sample: a single coordinate (about 2 ms) is shorter
# than the gauge's 10 ms between probes, so host stalls it cannot normalize
# set the tail, which spread 7-13% over ten runs; a block of 8 (about 16 ms)
# averages them out
COORDS_PER_SAMPLE = 8
COMBOS = [(scheme, fusion) for scheme in SCHEME_NAMES for fusion in FUSIONS]


class GradcheckSweep(Workload):
    """`jamofuse gradcheck` over every scheme x fusion pair, seeded by the run seed."""

    name = "gradcheck-sweep"
    item = "coordinate"
    sample = f"{COORDS_PER_SAMPLE} consecutive parameter coordinates of grad_check, two perturbed forwards each"
    round_size = len(COMBOS)  # whole sweeps, so every run has the same mix of pairs
    latency_per_operation = True  # a loss call costs differently for each pair
    trace_ops = len(COMBOS)

    def setup(self) -> None:
        text = GRADCHECK_TEXT
        self.vocab = subword.train_vocab([text], max(16, len(set(text)) + 8), mode="charlist")

    def op(self, i: int) -> OpResult:
        scheme, fusion = COMBOS[i % len(COMBOS)]
        text = GRADCHECK_TEXT
        coords: list[tuple[float, float]] = []
        pending: list[float] = []  # start of a coordinate's first perturbed call
        cpu0, wall0 = self.now()
        config = PipelineConfig(scheme=scheme, dim=GRADCHECK_DIM, fusion=fusion)
        pipe = Pipeline.build(config, self.vocab, seed=self.seed)
        out0, _ = pipe.forward(text)
        direction = np.random.default_rng(self.seed).normal(size=out0.shape)

        def loss_fn(with_grad: bool) -> float:
            called = self.gauge.cpu()
            out, cache = pipe.forward(text)
            if with_grad:
                pipe.backward(direction, cache)
            elif pending:  # grad_check calls twice per coordinate, +eps then -eps
                coords.append((pending.pop(), self.gauge.cpu()))
            else:
                pending.append(called)
            return float((direction * out).sum())

        report = gradcheck.grad_check(loss_fn, pipe.params.group)
        cpu1, wall1 = self.now()
        output = repr((report.max_rel_error, report.worst_param, report.worst_index, report.coords_checked,
                       sorted(report.per_param.items())))
        n = COORDS_PER_SAMPLE
        latencies = [(coords[k][0], coords[k + n - 1][1]) for k in range(0, len(coords) - n + 1, n)]
        return OpResult(report.coords_checked, cpu0, cpu1, wall1 - wall0, latencies, output, report)

    def check(self, i: int, result: OpResult) -> list[str]:
        error = result.detail.max_rel_error
        if not error < GRADCHECK_TOL:
            scheme, fusion = COMBOS[i % len(COMBOS)]
            return [f"{scheme}/{fusion}: max_rel_error {error:.3e} >= {GRADCHECK_TOL}"]
        return []

    def properties(self, results: list[OpResult]) -> dict:
        loss_calls = sum(2 * r.items + 1 for r in results)
        tokens = np.mean([len(SubcharTokenizer(s).tokenize(GRADCHECK_TEXT).tokens) for s, _ in COMBOS])
        return {
            "texts": loss_calls,
            "mean_chars_per_text": float(len(GRADCHECK_TEXT)),
            "mean_subchar_tokens_per_text": float(tokens),
            "mean_words_per_text": 1.0,
            "distinct_text_share": 1 / loss_calls,
            "repeated_word_share": (loss_calls - 1) / loss_calls,
            "non_hangul_char_share": 0.0,
            "chunk_size": 1,
            "combinations": len(results),
        }

    def own_metrics(self, results: list[OpResult], summary: dict) -> dict:
        return {"gradcheck_coords_per_s": (summary["items_per_s"], "coords/s")}


# oracle-corpus ----------------------------------------------------------------

# one block of ten lines by records joined; every chunk holds whole blocks, so
# the length mix, and with it the cost per line, is the same in every chunk
ORACLE_BLOCK = (1, 1, 1, 1, 1, 2, 2, 2, 3, 3)
ORACLE_CHUNK_BLOCKS = 3
ORACLE_GOLDEN = HERE / "oracle_golden.json"


def record_stats(stats: oracle.CorpusStats) -> list:
    """CorpusStats as plain JSON: the six counters, then sorted MOD types."""
    counters = [stats.chars_total, stats.keep, stats.mod, stats.noop, stats.mod_subchar, stats.mod_char]
    types = sorted([s, list(t), g, c] for (s, t, g), c in stats.mod_types.items())
    return counters + [types]


def read_records() -> list[dict]:
    with open(data_file("inflections.jsonl"), encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def record_oracle_golden() -> None:
    """Write the per-record counts that every later run is checked against."""
    records = read_records()
    golden = [
        record_stats(oracle.corpus_stats(oracle.align(r["surface"], r["lemma_units"]))) for r in records
    ]
    payload = {"source": "inflections.jsonl", "records": [r["surface"] for r in records], "stats": golden}
    ORACLE_GOLDEN.write_text(json.dumps(payload, ensure_ascii=False) + "\n", encoding="utf-8")


class OracleCorpus(Workload):
    """jsonl lines joining 1-3 bundled records with a space, aligned and counted.

    A joined line does not always align as the sum of its parts (the optimal
    alignment may cross the join), so recorded counts check single-record
    lines; every chunk is also checked for partitioned == unpartitioned.
    """

    name = "oracle-corpus"
    item = "character"
    sample = f"read_jsonl_corpus plus corpus_stats over {len(ORACLE_BLOCK) * ORACLE_CHUNK_BLOCKS} lines"
    trace_ops = 64

    def prepare(self) -> None:
        self.records = read_records()
        golden = json.loads(ORACLE_GOLDEN.read_text(encoding="utf-8"))
        if golden["records"] != [r["surface"] for r in self.records]:
            raise ValueError(f"{ORACLE_GOLDEN.name} was recorded for other records")
        self.golden = golden["stats"]

    def lines(self, i: int) -> tuple[list[str], list[list[int]]]:
        rng = np.random.default_rng([self.seed, i])
        sizes = np.concatenate([rng.permutation(ORACLE_BLOCK) for _ in range(ORACLE_CHUNK_BLOCKS)])
        lines, picks = [], []
        for k in sizes:
            chosen = [int(j) for j in rng.integers(0, len(self.records), size=k)]
            units: list[str] = []
            for n, j in enumerate(chosen):
                units += ([" "] if n else []) + self.records[j]["lemma_units"]
            surface = " ".join(self.records[j]["surface"] for j in chosen)
            lines.append(json.dumps({"surface": surface, "lemma_units": units}, ensure_ascii=False) + "\n")
            picks.append(chosen)
        return lines, picks

    def op(self, i: int) -> OpResult:
        lines, _ = self.lines(i)
        cpu0, wall0 = self.now()
        aligned = list(oracle.read_jsonl_corpus(lines))
        stats = oracle.corpus_stats(aligned)
        cpu1, wall1 = self.now()
        output = (record_stats(stats), [(ac.surface, ac.action_string()) for ac in aligned])
        return OpResult(len(aligned), cpu0, cpu1, wall1 - wall0, [(cpu0, cpu1)], output, (aligned, stats))

    def check(self, i: int, result: OpResult) -> list[str]:
        aligned, stats = result.detail
        failures = []
        if record_stats(oracle.corpus_stats(aligned, partitions=2)) != record_stats(stats):
            failures.append("partitioned stats differ from unpartitioned")
        _, picks = self.lines(i)
        pos = 0
        for chosen in picks:
            surface = " ".join(self.records[j]["surface"] for j in chosen)
            part = aligned[pos : pos + len(surface)]
            pos += len(surface)
            if len(chosen) == 1 and record_stats(oracle.corpus_stats(part)) != self.golden[chosen[0]]:
                failures.append(f"line {surface!r}: counts differ from {ORACLE_GOLDEN.name}")
        if pos != len(aligned):
            failures.append(f"{len(aligned)} aligned characters for {pos} surface characters")
        return failures

    def properties(self, results: list[OpResult]) -> dict:
        histogram = {k: 0 for k in sorted(set(ORACLE_BLOCK))}
        surfaces, cells = [], 0
        for i in range(len(results)):
            for chosen in self.lines(i)[1]:
                histogram[len(chosen)] += 1
                surface = " ".join(self.records[j]["surface"] for j in chosen)
                n = sum(len(u) for j in chosen for u in self.records[j]["lemma_units"]) + len(chosen) - 1
                cells += len(surface) * (n + 1) * (n + 2) // 2
                surfaces.append(surface)
        return {
            **text_properties(surfaces, SubcharTokenizer("jamo")),
            "chunk_size": len(ORACLE_BLOCK) * ORACLE_CHUNK_BLOCKS,
            "records_joined_histogram": histogram,
            "align_cells": cells,
        }

    def own_metrics(self, results: list[OpResult], summary: dict) -> dict:
        return {"oracle_chars_per_s": (summary["items_per_s"], "chars/s")}


WORKLOADS = {w.name: w for w in (EmbedStream, TrainPairs, GradcheckSweep, OracleCorpus)}
