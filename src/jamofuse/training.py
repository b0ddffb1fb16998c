"""Desk-scale training objectives and embedding probes.

A word is represented by the mean of its fused output rows (the CLS row, when
present, is excluded). The contrastive objective pulls each related pair's
word vectors toward cosine 1 - margin and pushes a uniformly sampled negative
below the margin; tag classification trains a linear head over the same mean
pooled vectors with cross-entropy. The raw subword table is frozen by default
so the structured channel has to do the work, mirroring a fixed backbone.

Probes report per-pair cosines, power-iteration PCA coordinates, and per-set
dispersion, always for the raw and fused channels side by side. Everything is
seeded; identical settings and data give bitwise identical logs and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from io import StringIO
from pathlib import Path
from typing import IO, Iterable, Optional, Union

import csv
import math
import numpy as np

from .hangul import is_syllable
from .layers import Linear
from .optim import AdamConfig, AdamW, cosine_lr
from .pipeline import ConfigError, ForwardCache, Pipeline
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
        with open(source, encoding="utf-8") as stream:
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
        with open(source, encoding="utf-8") as stream:
            return load_word_sets(stream)
    sets = []
    for line in source:
        words = [w for w in line.rstrip("\n").split("\t") if w.strip()]
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
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["epoch", "loss", "mean_pair_cos_fused", "mean_pair_cos_raw", "mean_random_cos"])
        for m in self.epochs:
            writer.writerow(
                [m.epoch]
                + [repr(v) for v in (m.loss, m.mean_pair_cos_fused, m.mean_pair_cos_raw, m.mean_random_cos)]
            )
        return buf.getvalue()


# word vectors ----------------------------------------------------------------


def _forward_word(pipe: Pipeline, text: str) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Returns (fused word vector, raw word vector, cache)."""
    out, cache = pipe.forward(text)
    rows = out[1:] if cache.cls else out
    if rows.shape[0] == 0:
        zero = np.zeros(pipe.config.dim)
        return zero, zero.copy(), cache
    return rows.mean(axis=0), cache.e_S.mean(axis=0), cache


def word_vector(pipe: Pipeline, text: str, channel: str = "fused") -> np.ndarray:
    if channel not in CHANNELS:
        raise ConfigError(f"unknown channel {channel!r}, expected one of {CHANNELS}")
    fused, raw, _ = _forward_word(pipe, text)
    return fused if channel == "fused" else raw


def word_vectors(pipe: Pipeline, words: Iterable[str], channel: str = "fused") -> np.ndarray:
    return np.stack([word_vector(pipe, w, channel) for w in words])


def _backward_word(pipe: Pipeline, cache: ForwardCache, grad_vec: np.ndarray) -> None:
    rows = len(cache.ranges)
    if rows == 0:
        return
    grad_rows = np.tile(grad_vec / rows, (rows, 1))
    if cache.cls:
        grad_rows = np.vstack([np.zeros((1, grad_vec.shape[0])), grad_rows])
    pipe.backward(grad_rows, cache)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def _cosine_with_grads(u: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0, np.zeros_like(u), np.zeros_like(v)
    c = float(u @ v / (nu * nv))
    du = (v / nv - c * u / nu) / nu
    dv = (u / nu - c * v / nv) / nv
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


def _contrastive_batch(
    pipe: Pipeline,
    records: list[PairRecord],
    batch: np.ndarray,
    negatives: list[Optional[int]],
    margin: float,
    accumulate: bool,
) -> float:
    total = 0.0
    scale = 1.0 / len(batch)
    for i, neg in zip(batch, negatives):
        rec = records[i]
        va, _, ca = _forward_word(pipe, rec.form_a)
        vb, _, cb = _forward_word(pipe, rec.form_b)
        cos_p, dpa, dpb = _cosine_with_grads(va, vb)
        total += max(0.0, (1.0 - margin) - cos_p)
        ga = -dpa * (cos_p < 1.0 - margin)
        gb = -dpb * (cos_p < 1.0 - margin)
        gn = None
        if neg is not None:
            vn, _, cn = _forward_word(pipe, records[neg].form_b)
            cos_n, dna, dnv = _cosine_with_grads(va, vn)
            total += max(0.0, cos_n - margin)
            ga = ga + dna * (cos_n > margin)
            gn = dnv * (cos_n > margin)
        if accumulate:
            _backward_word(pipe, ca, ga * scale)
            _backward_word(pipe, cb, gb * scale)
            if gn is not None:
                _backward_word(pipe, cn, gn * scale)
    return total * scale


def _classification_batch(
    pipe: Pipeline,
    records: list[PairRecord],
    batch: np.ndarray,
    head: Linear,
    labels: dict[str, int],
    accumulate: bool,
) -> float:
    # both forms of a record are examples of its relation tag
    examples = [(records[i].form_a, labels[records[i].relation]) for i in batch]
    examples += [(records[i].form_b, labels[records[i].relation]) for i in batch]
    total = 0.0
    scale = 1.0 / len(examples)
    for text, label in examples:
        vec, _, cache = _forward_word(pipe, text)
        logits, head_cache = head.forward(vec[None, :])
        shifted = np.exp(logits[0] - logits[0].max())
        probs = shifted / shifted.sum()
        total += -float(np.log(probs[label]))
        if accumulate:
            d_logits = probs.copy()
            d_logits[label] -= 1.0
            grad_vec = head.backward(d_logits[None, :] * scale, head_cache)[0]
            _backward_word(pipe, cache, grad_vec)
    return total * scale


def _pair_metric(pipe: Pipeline, records: list[PairRecord], random_partners: list[int]) -> tuple[float, float, float]:
    vecs_fused: dict[str, np.ndarray] = {}
    vecs_raw: dict[str, np.ndarray] = {}
    for rec in records:
        for form in (rec.form_a, rec.form_b):
            if form not in vecs_fused:
                fused, raw, _ = _forward_word(pipe, form)
                vecs_fused[form], vecs_raw[form] = fused, raw
    cos_fused = [cosine(vecs_fused[r.form_a], vecs_fused[r.form_b]) for r in records]
    cos_raw = [cosine(vecs_raw[r.form_a], vecs_raw[r.form_b]) for r in records]
    cos_rand = [
        cosine(vecs_fused[records[i].form_a], vecs_fused[records[j].form_b])
        for i, j in enumerate(random_partners)
    ]
    mean = lambda xs: float(np.mean(xs)) if xs else 0.0
    return mean(cos_fused), mean(cos_raw), mean(cos_rand)


def _make_head(pipe: Pipeline, data: PairDataset, config: TrainConfig) -> tuple[Linear, dict[str, int]]:
    relations = data.relations
    head = Linear(pipe.config.dim, len(relations), np.random.default_rng([config.seed, 2]))
    return head, {tag: i for i, tag in enumerate(relations)}


def _random_partners(n: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 1])
    return [p for i in range(n) if (p := _draw_negative(rng, i, n)) is not None]


def first_batch_loss(pipe: Pipeline, data: PairDataset, config: TrainConfig) -> float:
    """Loss of epoch 0's first batch, without touching any parameter.

    Replays the exact generator draws of train(), so the value matches the
    log entry recomputed from a checkpoint of the untrained parameters.
    """
    config.validate()
    if not data.records:
        raise ConfigError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(data.records))
    batch = next(_batches(order, config.batch_size))
    if config.objective == "contrastive-pairs":
        negatives = [_draw_negative(rng, i, len(data.records)) for i in batch]
        return _contrastive_batch(pipe, data.records, batch, negatives, config.margin, accumulate=False)
    head, labels = _make_head(pipe, data, config)
    return _classification_batch(pipe, data.records, batch, head, labels, accumulate=False)


def _require_finite(group: ParamGroup, what: str, epoch: int, batch: int) -> None:
    """Stops training at the first NaN or inf in a trainable gradient or parameter."""
    for name, tensor in group.trainable_items():
        values = tensor.grad if what == "gradient" else tensor.data
        if values is not None and not np.isfinite(values).all():
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

    if config.freeze_subword:
        pipe.params.subword_emb.table.trainable = False
    train_group = ParamGroup()
    train_group.merge("model", pipe.params.group)
    head: Optional[Linear] = None
    labels: dict[str, int] = {}
    if config.objective == "tag-classification":
        head, labels = _make_head(pipe, data, config)
        train_group.merge("head", head.params)
    optimizer = AdamW(train_group, AdamConfig(lr=config.lr, weight_decay=config.weight_decay))

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
            train_group.zero_grads()
            if config.objective == "contrastive-pairs":
                negatives = [_draw_negative(rng, i, len(records)) for i in batch]
                loss = _contrastive_batch(pipe, records, batch, negatives, config.margin, accumulate=True)
            else:
                loss = _classification_batch(pipe, records, batch, head, labels, accumulate=True)
            if log.first_batch_loss is None:
                log.first_batch_loss = loss
            _require_finite(train_group, "gradient", epoch, batch_no)
            optimizer.step(lr=cosine_lr(step, total_steps, config.lr))
            _require_finite(train_group, "parameter", epoch, batch_no)
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
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["form_a", "form_b", "relation", "cos_raw", "cos_fused"])
        for rec, raw, fused in self.rows:
            writer.writerow([rec.form_a, rec.form_b, rec.relation, repr(raw), repr(fused)])
        writer.writerow(["[mean]", "", "", repr(self.mean_raw), repr(self.mean_fused)])
        return buf.getvalue()


def pair_similarity(pipe: Pipeline, data: PairDataset) -> PairSimilarityReport:
    rows = []
    for rec in data.records:
        fa, ra, _ = _forward_word(pipe, rec.form_a)
        fb, rb, _ = _forward_word(pipe, rec.form_b)
        rows.append((rec, cosine(ra, rb), cosine(fa, fb)))
    if not rows:
        raise ConfigError("dataset is empty")
    mean_raw = float(np.mean([r for _, r, _ in rows]))
    mean_fused = float(np.mean([f for _, _, f in rows]))
    return PairSimilarityReport(rows, mean_raw, mean_fused)


@dataclass
class PcaResult:
    words: list[str]
    coordinates: np.ndarray  # (n_words, k)
    components: np.ndarray  # (k, dim)

    def to_csv(self) -> str:
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        k = self.coordinates.shape[1]
        writer.writerow(["word"] + [f"pc{i + 1}" for i in range(k)])
        for word, coords in zip(self.words, self.coordinates):
            writer.writerow([word] + [repr(float(c)) for c in coords])
        return buf.getvalue()


def _power_iteration_components(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Top-k eigenvectors of x.T @ x by power iteration with deflation.

    Each candidate is re-orthogonalized against the found components every
    step, so the result stays orthonormal even for degenerate inputs.
    """
    dim = x.shape[1]
    cov = x.T @ x
    rng = np.random.default_rng(seed)
    components: list[np.ndarray] = []
    for _ in range(k):
        v = rng.normal(size=dim)
        for prev in components:
            v -= (v @ prev) * prev
        norm = np.linalg.norm(v)
        v = v / norm if norm > 0 else np.eye(dim)[len(components)]
        for _ in range(1000):
            w = cov @ v
            for prev in components:
                w -= (w @ prev) * prev
            norm = np.linalg.norm(w)
            if norm < 1e-30:
                break
            w /= norm
            if min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < 1e-14:
                v = w
                break
            v = w
        components.append(v)
        lam = float(v @ cov @ v)
        cov = cov - lam * np.outer(v, v)
    return np.stack(components)


def pca_project(
    words: list[str], pipe: Pipeline, k: int = 2, channel: str = "fused", seed: int = 0
) -> PcaResult:
    if len(words) < 2:
        raise ConfigError(f"PCA needs at least 2 words, got {len(words)}")
    if k < 1 or k > pipe.config.dim:
        raise ConfigError(f"k must lie in [1, {pipe.config.dim}], got {k}")
    x = word_vectors(pipe, words, channel)
    x = x - x.mean(axis=0)
    components = _power_iteration_components(x, k, seed)
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
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["set", "size", "dispersion_raw", "dispersion_fused", "spread_raw", "spread_fused"]
        )
        for r in self.rows:
            writer.writerow(
                [r.label, r.size]
                + [repr(v) for v in (r.dispersion_raw, r.dispersion_fused, r.spread_raw, r.spread_fused)]
            )
        return buf.getvalue()


def _dispersion(vectors: np.ndarray) -> float:
    """Mean pairwise cosine distance; 0 when all vectors coincide."""
    n = vectors.shape[0]
    dists = [
        1.0 - cosine(vectors[i], vectors[j]) for i in range(n) for j in range(i + 1, n)
    ]
    return float(np.mean(dists))


def _centroid_spread(vectors: np.ndarray) -> float:
    """Mean distance to the centroid, relative to the mean vector norm."""
    centroid = vectors.mean(axis=0)
    spread = float(np.mean(np.linalg.norm(vectors - centroid, axis=1)))
    scale = float(np.mean(np.linalg.norm(vectors, axis=1)))
    return spread / scale if scale > 0 else 0.0


def cohesion_report(word_sets: list[tuple[str, list[str]]], pipe: Pipeline) -> CohesionReport:
    rows = []
    for label, words in word_sets:
        if len(words) < 2:
            raise ConfigError(f"set {label!r} needs at least 2 words, got {len(words)}")
        fused, raw, _ = zip(*(_forward_word(pipe, w) for w in words))
        fused, raw = np.stack(fused), np.stack(raw)
        rows.append(
            CohesionRow(
                label,
                len(words),
                _dispersion(raw),
                _dispersion(fused),
                _centroid_spread(raw),
                _centroid_spread(fused),
            )
        )
    return CohesionReport(rows)
