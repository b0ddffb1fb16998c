"""The benchmark's tracer, installed as it is, reads the packed GRU path right.

perfbench/tracer.py counts GRU steps as the rows of GRULayer.forward's first
argument and of the backward cache's x. With packed batches those are the
packed rows: every token for the sequence GRU, and every character for each
of the two character GRUs. Its spans must still nest the GRU calls under the
pipeline stages.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
from jamofuse import training  # noqa: E402
from jamofuse.pipeline import Pipeline, PipelineConfig  # noqa: E402
from jamofuse.subword import train_vocab  # noqa: E402
from jamofuse.training import PairDataset, PairRecord, TrainConfig  # noqa: E402

TEXTS = ["하", "했다", "", "대한민국 만세", "ab", "먹었다 보다!", "x"]


def packed_rows(pipe, texts):
    """Rows the three principles GRUs run over: tokens, then characters twice."""
    chars = sum(len(t) for t in texts)
    return chars * pipe.tokenizer.scheme.width + 2 * chars


def traced(run):
    t = tracer.Tracer()
    t.install()
    try:
        run()
    finally:
        t.uninstall()
    return t


def build():
    vocab = train_vocab(["하다 했다 가다 갔다", "먹다 먹었다 보다 봤다", "대한 민국"], 80)
    return Pipeline(PipelineConfig(scheme="bts", dim=8, fusion="cross-attention"), vocab, seed=3)


def test_word_vectors_counts_packed_rows_and_nests_stages():
    pipe = build()
    t = traced(lambda: training.word_vectors(pipe, TEXTS))
    assert t.calls["training.word_vectors"] == 1
    assert t.calls["pipeline.forward"] == 1  # one pass holds every text
    assert t.calls["layers.gru.forward"] == 3
    assert t.counts["layers.gru.forward.steps"] == packed_rows(pipe, TEXTS)
    names = [t.names[i] for i in t.span_name]
    parents = [names[p] if p >= 0 else None for p in t.span_parent]
    gru_parents = [parent for name, parent in zip(names, parents) if name == "layers.gru.forward"]
    assert gru_parents == ["pipeline.stage1", "pipeline.stage1", "pipeline.stage2"]
    assert parents[names.index("pipeline.stage1")] == "pipeline.forward"
    assert parents[names.index("pipeline.fuse")] == "pipeline.forward"


def test_training_batch_counts_packed_rows_forward_and_backward():
    records = [
        PairRecord("하다", "했다", "verb-past"),
        PairRecord("가다", "갔다", "verb-past"),
        PairRecord("먹다", "먹었다", "verb-past"),
    ]
    data = PairDataset(records)
    forms = sorted({f for r in records for f in (r.form_a, r.form_b)})
    pipe = build()
    config = TrainConfig(epochs=1, batch_size=len(records), seed=5)
    t = traced(lambda: training.train(pipe, data, config))
    # one batch (its distinct forms: every form, as each record draws another's form_b),
    # then the epoch's pair metric over every distinct form
    assert t.calls["pipeline.forward"] == 2
    assert t.calls["pipeline.backward"] == 1
    assert t.calls["optim.adamw.step"] == 1
    assert t.counts["layers.gru.forward.steps"] == 2 * packed_rows(pipe, forms)
    assert t.counts["layers.gru.backward.steps"] == packed_rows(pipe, forms)
    names = [t.names[i] for i in t.span_name]
    backward_parents = [
        names[t.span_parent[k]] for k, name in enumerate(names) if name == "layers.gru.backward"
    ]
    assert backward_parents == ["pipeline.backward_stage2", "pipeline.backward_stage1", "pipeline.backward_stage1"]
    assert np.isfinite(pipe.params.group.data).all()
