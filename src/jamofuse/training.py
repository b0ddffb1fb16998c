"""Desk-scale training objectives and embedding probes.

A word is represented by the mean of its fused output rows (the CLS row, when
present, is excluded). The contrastive objective pulls each related pair's
word vectors toward cosine 1 - margin and pushes a uniformly sampled negative
below the margin; tag classification trains a linear head over the same mean
pooled vectors with cross-entropy. The raw subword table is frozen by default
so the structured channel has to do the work, mirroring a fixed backbone.

Training and every probe take their cosines, and the contrastive loss its
cosine gradients, row-wise from one function, `cosines`. Probes report per-pair
cosines, PCA coordinates (eigenvectors from numpy's eigh, each signed so its
largest-magnitude entry is positive), and per-set dispersion, always for the
raw and fused channels side by side. Everything is seeded; identical settings
and data give bitwise identical logs and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import IO, Iterable, Optional, Union

import math
import operator
from functools import reduce

import numpy as np

from .common import ConfigError, csv_text, open_text
from .hangul import is_syllable
from .layers import Linear, scatter_add
from .optim import AdamW, cosine_lr
from .pipeline import ForwardCache, Pipeline
from .tensor import ParamGroup

OBJECTIVES = ("contrastive-pairs", "tag-classification")
CHANNELS = ("raw", "fused")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class PairRecord:
    form_a: str
    form_b: str
    relation: str


@dataclass
class PairDataset:
    records: list[PairRecord]

    @property
    def relations(self) -> tuple[str, ...]:
        return tuple(sorted({r.relation for r in self.records}))

    def validate(self) -> "PairDataset":
        for i, rec in enumerate(self.records):
            for form in (rec.form_a, rec.form_b):
                if not form or not any(is_syllable(c) for c in form):
                    raise DatasetError(f"record {i}: form {form!r} must contain Hangul")
            if not rec.relation:
                raise DatasetError(f"record {i}: empty relation tag")
        return self


def load_pair_dataset(source: Union[str, Path, IO[str]]) -> PairDataset:
    """TSV with three columns: form_a, form_b, relation."""
    if isinstance(source, (str, Path)):
        with open_text(source) as stream:
            return load_pair_dataset(stream)
    records = []
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DatasetError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
        records.append(PairRecord(parts[0].strip(), parts[1].strip(), parts[2].strip()))
    return PairDataset(records).validate()


def load_word_sets(source: Union[str, Path, IO[str]]) -> list[tuple[str, list[str]]]:
    """One set per line, words tab-separated; the first word labels the set."""
    if isinstance(source, (str, Path)):
        with open_text(source) as stream:
            return load_word_sets(stream)
    sets = []
    for line in source:
        words = [w.strip() for w in line.split("\t") if w.strip()]
        if words:
            sets.append((words[0], words))
    return sets


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "contrastive-pairs"
    epochs: int = 20
    lr: float = 0.05
    batch_size: int = 8
    margin: float = 0.2
    weight_decay: float = 0.0
    freeze_subword: bool = True
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.margin < 1.0:
            raise ConfigError(f"margin must lie in [0, 1), got {self.margin}")
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"learning rate must be finite and non-negative, got {self.lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight decay must be finite and non-negative, got {self.weight_decay}")
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class EpochMetrics:
    epoch: int
    loss: float
    mean_pair_cos_fused: float
    mean_pair_cos_raw: float
    mean_random_cos: float


@dataclass
class TrainLog:
    epochs: list[EpochMetrics]
    first_batch_loss: Optional[float] = None

    def to_csv(self) -> str:
        return csv_text(
            ["epoch", "loss", "mean_pair_cos_fused", "mean_pair_cos_raw", "mean_random_cos"],
            [
                (m.epoch, m.loss, m.mean_pair_cos_fused, m.mean_pair_cos_raw, m.mean_random_cos)
                for m in self.epochs
            ],
        )


# word vectors ----------------------------------------------------------------


def _forward_words(pipe: Pipeline, texts: list[str]) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Returns (fused word vectors, raw word vectors, cache) of one batched forward."""
    out, cache = pipe.forward(texts)
    d = pipe.config.dim
    fused = np.zeros((len(texts), d))
    raw = np.zeros_like(fused)
    counts = np.diff(cache.unit_offsets)
    has = counts > 0
    if has.any():
        # fused and raw unit rows side by side, summed one unit position at a time over
        # the texts that reach it: row after row, the additions of .mean(axis=0), which
        # np.add.reduceat does not make (it adds a0 + (a1 + a2))
        rows = np.concatenate([out[cache.unit_rows], cache.e_S], axis=1)
        starts, counts = cache.unit_offsets[:-1][has], counts[has]
        sums = rows[starts]
        for j in range(1, counts.max()):
            live = counts > j
            sums[live] += rows[starts[live] + j]
        sums /= counts[:, None]
        fused[has], raw[has] = sums[:, :d], sums[:, d:]
    return fused, raw, cache


# Every compression's pass holds at most one (token rows, d) array: principles the
# first GRU's states (that GRU projects only the embedding rows of the distinct ids,
# and stage 1 gathers one (chars, d) slot at a time), attention the weighted token
# rows it pools, linear only the rows of unit-final characters. Passes are cut so
# that array stays within this, and so do cross-attention fusion's attention
# weights, heads x U x U for each text of U units, U at most its characters.
PASS_BYTES = 1 << 21


def _word_vectors(pipe: Pipeline, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(fused, raw) word vectors without gradients, longest texts first in bounded passes."""
    width, dim = pipe.tokenizer.scheme.width, pipe.config.dim
    limit = PASS_BYTES // (8 * dim)
    heads = pipe.config.heads if pipe.config.fusion == "cross-attention" else 0
    order = sorted(range(len(texts)), key=lambda k: -len(texts[k]))
    fused, raw = np.zeros((len(texts), dim)), np.zeros((len(texts), dim))
    start = 0
    while start < len(order):
        stop, rows, cells = start, 0, 0
        while stop < len(order):
            n = len(texts[order[stop]])
            rows, cells = rows + n * width, cells + heads * n * n
            if stop > start and (rows > limit or cells > PASS_BYTES // 8):
                break
            stop += 1
        group = order[start:stop]
        fused[group], raw[group], _ = _forward_words(pipe, [texts[k] for k in group])
        start = stop
    return fused, raw


def word_vector(pipe: Pipeline, text: str, channel: str = "fused") -> np.ndarray:
    return word_vectors(pipe, [text], channel)[0]


def word_vectors(pipe: Pipeline, words: Iterable[str], channel: str = "fused") -> np.ndarray:
    """One row per word, from batched forwards."""
    if channel not in CHANNELS:
        raise ConfigError(f"unknown channel {channel!r}, expected one of {CHANNELS}")
    fused, raw = _word_vectors(pipe, list(words))
    return fused if channel == "fused" else raw


def _backward_words(pipe: Pipeline, cache: ForwardCache, grad_vecs: np.ndarray) -> None:
    """Backward of _forward_words for gradients on its fused word vectors."""
    counts = np.diff(cache.unit_offsets)
    grad_out = np.zeros((cache.row_count, grad_vecs.shape[1]))
    grad_out[cache.unit_rows] = np.repeat(grad_vecs / np.maximum(counts, 1)[:, None], counts, axis=0)
    pipe.backward(grad_out, cache)


def cosines(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise cosines of u and v and their gradients; a zero row gives 0 and zero gradients.

    Each row dot is a (1, d) @ (d, 1) matmul, which numpy runs as one BLAS dot: the
    same additions, in the same order, as u[i] @ v[i] and np.linalg.norm(u[i]).
    np.einsum and .sum(axis=1) add in other orders, and their last bits move the
    trained parameters.
    """
    dot = lambda a, b: np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    nu, nv = np.sqrt(dot(u, u)), np.sqrt(dot(v, v))
    live = (nu != 0.0) & (nv != 0.0)
    # a zero row's norms are read as 1, so nothing divides by zero, and its results as 0
    nu, nv = np.where(live, nu, 1.0), np.where(live, nv, 1.0)
    c = np.where(live, dot(u, v) / (nu * nv), 0.0)
    live, nu, nv, cc = live[:, None], nu[:, None], nv[:, None], c[:, None]
    du = np.where(live, (v / nv - cc * u / nu) / nu, 0.0)
    dv = np.where(live, (u / nu - cc * v / nv) / nv, 0.0)
    return c, du, dv


# training ---------------------------------------------------------------------


def _batches(order: np.ndarray, batch_size: int) -> Iterable[np.ndarray]:
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def _draw_negative(rng: np.random.Generator, i: int, n: int) -> Optional[int]:
    if n < 2:
        return None
    j = int(rng.integers(n - 1))
    return j + 1 if j >= i else j


def _distinct(forms: Iterable[str]) -> dict[str, int]:
    """Each distinct form's row, in order of first appearance."""
    rows: dict[str, int] = {}
    for form in forms:
        rows.setdefault(form, len(rows))
    return rows


def _contrastive_batch(
    pipe: Pipeline,
    records: list[PairRecord],
    batch: np.ndarray,
    negatives: list[Optional[int]],
    margin: float,
) -> float:
    """Forwards the batch's distinct forms at once, then runs one backward."""
    pairs = [(records[i], None if neg is None else records[neg]) for i, neg in zip(batch, negatives)]
    rows = _distinct(f for rec, neg in pairs for f in (rec.form_a, rec.form_b, *((neg.form_b,) if neg else ())))
    vecs, _, cache = _forward_words(pipe, list(rows))
    a = [rows[rec.form_a] for rec, _ in pairs]
    b = [rows[rec.form_b] for rec, _ in pairs]
    # a pair without a negative stands in its own form_a; its negative terms are skipped
    n = [rows[neg.form_b] if neg else rows[rec.form_a] for rec, neg in pairs]
    # one cosine pass over the positive rows, then the negative ones; cosines works row
    # by row, so each row's results are those of a pass of its own
    k = len(pairs)
    cos, d_a, d_bn = cosines(vecs[a + a], vecs[b + n])
    cos_p, cos_n, dpa, dna, dpb, dnv = cos[:k], cos[k:], d_a[:k], d_a[k:], d_bn[:k], d_bn[k:]
    scale = 1.0 / len(batch)
    on_p, on_n = (cos_p < 1.0 - margin)[:, None], (cos_n > margin)[:, None]
    has = np.array([neg is not None for _, neg in pairs])
    ga = -dpa * on_p
    ga = np.where(has[:, None], ga + dna * on_n, ga)
    # per pair the rows b, n and a, without n when the pair has no negative; scatter_add
    # adds in this order, which sets the last bits of a row that several pairs touch
    keep = np.stack([np.ones_like(has), has, np.ones_like(has)], axis=1)
    idx = np.stack([b, n, a], axis=1)[keep]
    vals = np.stack([-dpb * on_p * scale, dnv * on_n * scale, ga * scale], axis=1)[keep]
    grads = scatter_add(idx, vals, len(vecs))
    # the hinges, pair after pair, added one by one (x if x > 0 else 0 is max(0.0, x))
    hinges = np.stack([(1.0 - margin) - cos_p, cos_n - margin], axis=1)[keep[:, :2]]
    total = reduce(operator.add, np.where(hinges > 0.0, hinges, 0.0).tolist(), 0.0)
    _backward_words(pipe, cache, grads)
    return total * scale


def _classification_batch(
    pipe: Pipeline,
    records: list[PairRecord],
    batch: np.ndarray,
    head: Linear,
    labels: dict[str, int],
) -> float:
    # both forms of a record are examples of its relation tag
    examples = [(records[i].form_a, labels[records[i].relation]) for i in batch]
    examples += [(records[i].form_b, labels[records[i].relation]) for i in batch]
    rows = _distinct(text for text, _ in examples)
    vecs, _, cache = _forward_words(pipe, list(rows))
    which = np.array([rows[text] for text, _ in examples])
    logits, head_cache = head.forward(vecs[which])
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    scale = 1.0 / len(examples)
    total = sum(-float(np.log(p[label])) for p, (_, label) in zip(probs, examples))
    d_logits = probs.copy()
    d_logits[np.arange(len(examples)), [label for _, label in examples]] -= 1.0
    grads = scatter_add(which, head.backward(d_logits * scale, head_cache), len(vecs))
    _backward_words(pipe, cache, grads)
    return total * scale


def _pair_metric(pipe: Pipeline, records: list[PairRecord], random_partners: list[int]) -> tuple[float, float, float]:
    rows = _distinct(f for rec in records for f in (rec.form_a, rec.form_b))
    fused, raw = _word_vectors(pipe, list(rows))
    a = [rows[r.form_a] for r in records]
    b = [rows[r.form_b] for r in records]
    partners = [b[j] for j in random_partners]
    mean = lambda x, u, v: float(np.mean(cosines(x[u], x[v])[0])) if u else 0.0
    return mean(fused, a, b), mean(raw, a, b), mean(fused, a[: len(partners)], partners)


def _random_partners(n: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 1])
    return [p for i in range(n) if (p := _draw_negative(rng, i, n)) is not None]


def first_batch_loss(pipe: Pipeline, data: PairDataset, config: TrainConfig) -> float:
    """Loss of epoch 0's first batch: train() for one epoch at learning rate 0.

    A learning rate of 0 leaves every parameter bitwise unchanged, so the value
    matches the log entry recomputed from a checkpoint of the untrained
    parameters. It runs the whole epoch with its backward passes, overwriting
    the gradients, and raises wherever train() raises.
    """
    return train(pipe, data, replace(config, epochs=1, lr=0.0)).first_batch_loss


def _require_finite(optimizer: AdamW, what: str, epoch: int, batch: int) -> None:
    """Stops training at the first NaN or inf in a gradient or parameter the optimizer updates.

    One check per run; only on failure are the tensors searched for the
    first one to name.
    """
    k = 1 if what == "gradient" else 0
    if all(np.isfinite(run[k]).all() for run in optimizer.runs):
        return
    for name, tensor in optimizer.params.items():
        if not np.isfinite(tensor.grad if k else tensor.data).all():
            raise ValueError(f"epoch {epoch}, batch {batch}: non-finite {what} in {name}")


# _require_finite names the first non-finite gradient or parameter, in place of numpy's warnings
@np.errstate(all="ignore")
def train(pipe: Pipeline, data: PairDataset, config: TrainConfig) -> TrainLog:
    """Optimizes pipe's parameters in place, returning the per-epoch log."""
    config.validate()
    data.validate()
    records = data.records
    if not records:
        raise ConfigError("dataset is empty")

    frozen = pipe.params.subword_emb.table if config.freeze_subword else None
    train_group = ParamGroup()
    for name, tensor in pipe.params.group.items():
        if tensor is not frozen:
            train_group.add(f"model.{name}", tensor)
    head: Optional[Linear] = None
    labels: dict[str, int] = {}
    if config.objective == "tag-classification":
        head = Linear(pipe.config.dim, len(data.relations), np.random.default_rng([config.seed, 2]))
        head.params.flatten()
        labels = {tag: i for i, tag in enumerate(data.relations)}
        train_group.merge("head", head.params)
    optimizer = AdamW(train_group, weight_decay=config.weight_decay)

    rng = np.random.default_rng(config.seed)
    random_partners = _random_partners(len(records), config.seed)
    n_batches = (len(records) + config.batch_size - 1) // config.batch_size
    total_steps = config.epochs * n_batches

    log = TrainLog(epochs=[])
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(records))
        batch_losses = []
        for batch_no, batch in enumerate(_batches(order, config.batch_size)):
            pipe.params.group.zero_grads()  # one flat grad each for the model and the head
            if head is not None:
                head.params.zero_grads()
            if config.objective == "contrastive-pairs":
                negatives = [_draw_negative(rng, i, len(records)) for i in batch]
                loss = _contrastive_batch(pipe, records, batch, negatives, config.margin)
            else:
                loss = _classification_batch(pipe, records, batch, head, labels)
            if log.first_batch_loss is None:
                log.first_batch_loss = loss
            _require_finite(optimizer, "gradient", epoch, batch_no)
            optimizer.step(lr=cosine_lr(step, total_steps, config.lr))
            _require_finite(optimizer, "parameter", epoch, batch_no)
            step += 1
            batch_losses.append(loss)
        fused, raw, rand = _pair_metric(pipe, records, random_partners)
        log.epochs.append(EpochMetrics(epoch, float(np.mean(batch_losses)), fused, raw, rand))
    return log


# probes -------------------------------------------------------------------


@dataclass
class PairSimilarityReport:
    rows: list[tuple[PairRecord, float, float]]  # record, raw cosine, fused cosine
    mean_raw: float
    mean_fused: float

    def to_csv(self) -> str:
        rows = [(rec.form_a, rec.form_b, rec.relation, raw, fused) for rec, raw, fused in self.rows]
        rows.append(("[mean]", "", "", self.mean_raw, self.mean_fused))
        return csv_text(["form_a", "form_b", "relation", "cos_raw", "cos_fused"], rows)


def pair_similarity(pipe: Pipeline, data: PairDataset) -> PairSimilarityReport:
    if not data.records:
        raise ConfigError("dataset is empty")
    rows = _distinct(f for rec in data.records for f in (rec.form_a, rec.form_b))
    fused, raw = _word_vectors(pipe, list(rows))
    a = [rows[rec.form_a] for rec in data.records]
    b = [rows[rec.form_b] for rec in data.records]
    cos_raw, cos_fused = cosines(raw[a], raw[b])[0], cosines(fused[a], fused[b])[0]
    report_rows = list(zip(data.records, cos_raw.tolist(), cos_fused.tolist()))
    return PairSimilarityReport(report_rows, float(np.mean(cos_raw)), float(np.mean(cos_fused)))


@dataclass
class PcaResult:
    words: list[str]
    coordinates: np.ndarray  # (n_words, k)
    components: np.ndarray  # (k, dim)

    def to_csv(self) -> str:
        header = ["word"] + [f"pc{i + 1}" for i in range(self.coordinates.shape[1])]
        return csv_text(header, ([word, *coords] for word, coords in zip(self.words, self.coordinates)))


def _principal_components(x: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenvectors of x.T @ x, largest eigenvalue first.

    Each is signed so that its largest-magnitude entry is positive (scikit-learn's
    svd_flip rule), so the result does not hang on the eigensolver's choice of sign.
    """
    components = np.linalg.eigh(x.T @ x)[1][:, ::-1][:, :k].T
    signs = np.sign(components[np.arange(k), np.abs(components).argmax(axis=1)])
    return components * signs[:, None]


def pca_project(words: list[str], pipe: Pipeline, k: int = 2, channel: str = "fused") -> PcaResult:
    if len(words) < 2:
        raise ConfigError(f"PCA needs at least 2 words, got {len(words)}")
    if k < 1 or k > pipe.config.dim:
        raise ConfigError(f"k must lie in [1, {pipe.config.dim}], got {k}")
    x = word_vectors(pipe, words, channel)
    x = x - x.mean(axis=0)
    components = _principal_components(x, k)
    return PcaResult(list(words), x @ components.T, components)


@dataclass
class CohesionRow:
    label: str
    size: int
    dispersion_raw: float
    dispersion_fused: float
    spread_raw: float
    spread_fused: float


@dataclass
class CohesionReport:
    rows: list[CohesionRow]

    def to_csv(self) -> str:
        return csv_text(
            ["set", "size", "dispersion_raw", "dispersion_fused", "spread_raw", "spread_fused"],
            [
                (r.label, r.size, r.dispersion_raw, r.dispersion_fused, r.spread_raw, r.spread_fused)
                for r in self.rows
            ],
        )


def _dispersion(vectors: np.ndarray) -> float:
    """Mean pairwise cosine distance; 0 when all vectors coincide."""
    i, j = np.triu_indices(len(vectors), 1)
    return float(np.mean(1.0 - cosines(vectors[i], vectors[j])[0]))


def _centroid_spread(vectors: np.ndarray) -> float:
    """Mean distance to the centroid, relative to the mean vector norm."""
    centroid = vectors.mean(axis=0)
    spread = float(np.mean(np.linalg.norm(vectors - centroid, axis=1)))
    scale = float(np.mean(np.linalg.norm(vectors, axis=1)))
    return spread / scale if scale > 0 else 0.0


def cohesion_report(word_sets: list[tuple[str, list[str]]], pipe: Pipeline) -> CohesionReport:
    for label, words in word_sets:
        if len(words) < 2:
            raise ConfigError(f"set {label!r} needs at least 2 words, got {len(words)}")
    rows = _distinct(w for _, words in word_sets for w in words)
    fused_all, raw_all = _word_vectors(pipe, list(rows))
    report_rows = []
    for label, words in word_sets:
        which = [rows[w] for w in words]
        fused, raw = fused_all[which], raw_all[which]
        report_rows.append(
            CohesionRow(
                label,
                len(words),
                _dispersion(raw),
                _dispersion(fused),
                _centroid_spread(raw),
                _centroid_spread(fused),
            )
        )
    return CohesionReport(report_rows)
