import importlib.resources
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from jamofuse import training
from jamofuse.checkpoint import load_checkpoint, restore, save_checkpoint
from jamofuse.optim import AdamW
from jamofuse.pipeline import ConfigError, Pipeline, PipelineConfig
from jamofuse.subword import train_vocab
from jamofuse.tensor import ParamGroup
from jamofuse.training import (
    CohesionReport,
    DatasetError,
    PairDataset,
    PairRecord,
    TrainConfig,
    _principal_components,
    _require_finite,
    cohesion_report,
    cosines,
    first_batch_loss,
    load_pair_dataset,
    load_word_sets,
    pair_similarity,
    pca_project,
    train,
    word_vector,
    word_vectors,
)


def fixture_path(name):
    return importlib.resources.files("jamofuse.data") / name


def tiny_dataset():
    return PairDataset(
        [
            PairRecord("하다", "했다", "verb-past"),
            PairRecord("가다", "갔다", "verb-past"),
            PairRecord("먹다", "먹었다", "verb-past"),
            PairRecord("보다", "봤다", "verb-past"),
        ]
    )


def two_tag_dataset():
    return PairDataset(
        [
            *tiny_dataset().records[:2],
            PairRecord("춥다", "추움", "noun-derivation"),
            PairRecord("걷다", "걸음", "noun-derivation"),
        ]
    )


def tiny_pipeline(dim=8, seed=3, **overrides):
    corpus = ["하다 했다 가다 갔다", "먹다 먹었다 보다 봤다", "춥다 걷다 돕다 묻다"]
    vocab = train_vocab(corpus, 80)
    cfg = PipelineConfig(**{"dim": dim, "fusion": "summation", **overrides})
    return Pipeline(cfg, vocab, seed=seed)


class TestPairDataset:
    def test_load_tsv(self):
        stream = io.StringIO("하다\t했다\tverb-past\n\n가다\t갔다\tverb-past\n")
        data = load_pair_dataset(stream)
        assert len(data.records) == 2
        assert data.relations == ("verb-past",)

    def test_wrong_column_count(self):
        with pytest.raises(DatasetError, match="line 1"):
            load_pair_dataset(io.StringIO("하다\t했다\n"))

    def test_forms_must_contain_hangul(self):
        with pytest.raises(DatasetError, match="Hangul"):
            PairDataset([PairRecord("abc", "했다", "verb-past")]).validate()
        with pytest.raises(DatasetError, match="Hangul"):
            PairDataset([PairRecord("하다", "", "verb-past")]).validate()

    def test_empty_relation_rejected(self):
        with pytest.raises(DatasetError, match="relation"):
            PairDataset([PairRecord("하다", "했다", "")]).validate()

    def test_bundled_fixture_has_fifty_pairs(self):
        data = load_pair_dataset(fixture_path("verb_past_pairs.tsv"))
        assert len(data.records) == 50
        assert data.relations == ("verb-past",)
        assert all(r.form_a != r.form_b for r in data.records)

    def test_word_sets_strip_padding_and_crlf(self):
        clean = load_word_sets(io.StringIO("춥다\t추움\t추위\n걷다\t걸음\n"))
        padded = load_word_sets(io.StringIO(" 춥다 \t추움\t 추위\r\n걷다\t \t걸음 \r\n"))
        assert padded == clean == [("춥다", ["춥다", "추움", "추위"]), ("걷다", ["걷다", "걸음"])]

    def test_bundled_word_sets(self):
        sets = load_word_sets(fixture_path("inflection_sets.tsv"))
        assert len(sets) == 4
        assert all(len(words) == 5 for _, words in sets)
        assert sets[0][0] == "춥다"


class TestTrainConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"objective": "mlm"},
            {"margin": 1.0},
            {"margin": -0.1},
            {"lr": -0.5},
            {"batch_size": 0},
            {"epochs": -1},
            {"epochs": 0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"weight_decay": -0.1},
            {"weight_decay": float("nan")},
            {"weight_decay": float("inf")},
        ],
    )
    def test_bad_settings_rejected(self, overrides):
        with pytest.raises(ConfigError):
            TrainConfig(**overrides).validate()


class TestWordVectors:
    def test_channels_differ_under_generic_params(self):
        pipe = tiny_pipeline(fusion="cross-attention")
        fused = word_vector(pipe, "했다", "fused")
        raw = word_vector(pipe, "했다", "raw")
        assert fused.shape == raw.shape == (8,)
        assert not np.allclose(fused, raw)

    def test_unknown_channel(self):
        with pytest.raises(ConfigError, match="channel"):
            word_vector(tiny_pipeline(), "했다", "middle")

    def test_cls_row_excluded_from_mean(self):
        pipe = tiny_pipeline(cls_bypass=True)
        out, _ = pipe.forward("했다")
        assert np.allclose(word_vector(pipe, "했다"), out[1:].mean(axis=0))

    def test_small_passes_embed_every_text_once(self, monkeypatch):
        pipe = tiny_pipeline(scheme="bts", fusion="cross-attention")
        texts = ["먹었다 보다", "하", "", "대한민국 만세", "ab", "했다", "x", "가다 갔다 춥다"]
        calls = []
        forward = Pipeline.forward

        def counted(self, batch, *args):
            calls.append(list(batch))
            return forward(self, batch, *args)

        monkeypatch.setattr(Pipeline, "forward", counted)
        whole = word_vectors(pipe, texts)
        assert len(calls) == 1
        calls.clear()
        monkeypatch.setattr(training, "PASS_BYTES", 3 * 13 * 8 * 8)  # three characters' token rows at d=8
        cut = word_vectors(pipe, texts)
        assert len(calls) > 3
        assert sorted(text for batch in calls for text in batch) == sorted(texts)
        assert np.abs(cut - whole).max() <= 1e-12

    def test_cross_attention_passes_bound_the_attention_weights(self, monkeypatch):
        # a text of U units holds heads x U x U attention weights: the passes are cut so the
        # sum over a pass's texts stays within PASS_BYTES, U at most a text's characters
        pipe = tiny_pipeline(dim=4, fusion="cross-attention", heads=2, granularity="character")
        texts = [c * n for c, n in zip("하가나다", (200, 190, 180, 170))]
        texts += [f"{a}{b}" for a in "가나다라" for b in "마바사아"]
        calls = []
        forward = Pipeline.forward

        def counted(self, batch, *args):
            calls.append(list(batch))
            return forward(self, batch, *args)

        monkeypatch.setattr(Pipeline, "forward", counted)
        vectors = word_vectors(pipe, texts)
        # 2 x (200^2 + 190^2 + 180^2) cells fit in one pass, and the 170-character text does not fit with them
        assert calls == [texts[:3], texts[3:]]
        for batch in calls:
            assert sum(2 * len(text) ** 2 * 8 for text in batch) <= training.PASS_BYTES
        for k in (0, 3, 4, len(texts) - 1):
            assert np.abs(vectors[k] - word_vector(pipe, texts[k])).max() <= 1e-12

    def test_chunk_of_32_texts_is_one_pass_at_d64(self, monkeypatch):
        pipe = tiny_pipeline(dim=64, scheme="bts", fusion="cross-attention")
        syllables = "하가먹보춥걷돕묻"
        texts = [f"{a}{b}다 {b}{a}었다" for a in syllables for b in syllables][:32]
        token_bytes = sum(map(len, texts)) * 13 * 64 * 8
        assert 3 * (1 << 19) < token_bytes <= training.PASS_BYTES  # at least four passes at 512 KiB
        calls = []
        forward = Pipeline.forward

        def counted(self, batch, *args):
            calls.append(list(batch))
            return forward(self, batch, *args)

        monkeypatch.setattr(Pipeline, "forward", counted)
        word_vectors(pipe, texts)
        assert calls == [sorted(texts, key=len, reverse=True)]

    def test_flat_compressions_peak_no_higher_than_principles(self):
        # one PASS_BYTES bound for every compression: no pass holds more than one
        # (token rows, d) array, so linear and attention stay below principles
        data = load_pair_dataset(fixture_path("verb_past_pairs.tsv"))
        forms = sorted({f for r in data.records for f in (r.form_a, r.form_b)})
        vocab = train_vocab(forms, 200)
        rng = np.random.default_rng(0)
        texts = [" ".join(rng.choice(forms, size=int(rng.integers(1, 4)))) for _ in range(32)]
        peaks = {}
        for compression in ("principles", "linear", "attention"):
            cfg = PipelineConfig(scheme="bts", dim=64, compression=compression, fusion="summation")
            pipe = Pipeline(cfg, vocab, seed=0)
            word_vectors(pipe, texts)  # fills the tokenization memo outside the traced call
            word_vectors(pipe, texts[:1])  # and leaves the GRUs' memos on another call, so the traced one computes
            tracemalloc.start()
            try:
                word_vectors(pipe, texts)
                peaks[compression] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["linear"] <= peaks["principles"], peaks
        assert peaks["attention"] <= peaks["principles"], peaks

    def test_cosine_basics(self):
        u = np.array([[1.0, 2.0], [1.0, 0.0], [0.0, 0.0]])
        v = np.array([[1.0, 2.0], [0.0, 3.0], [1.0, 2.0]])
        c = cosines(u, v)[0]
        assert c[0] == pytest.approx(1.0)
        assert c[1] == 0.0
        assert c[2] == 0.0


def scalar_cosine(u, v):
    """The scalar cosine the row-wise cosines replaced, kept as the reference."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def scalar_cosine_with_grads(u, v):
    """The scalar cosine and gradients the row-wise cosines replaced, kept as the reference."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0, np.zeros_like(u), np.zeros_like(v)
    c = float(u @ v / (nu * nv))
    du = (v / nv - c * u / nu) / nu
    dv = (u / nu - c * v / nv) / nv
    return c, du, dv


def per_pair_contrastive(vecs, a, b, n, has, margin, scale):
    """The per-pair loop that _contrastive_batch's one scatter replaced, kept as the reference:
    (the hinge total, the gradient on the word vectors)."""
    cos_p, dpa, dpb = cosines(vecs[a], vecs[b])
    cos_n, dna, dnv = cosines(vecs[a], vecs[n])
    grads = np.zeros_like(vecs)
    total = 0.0
    cos_p, cos_n = cos_p.tolist(), cos_n.tolist()
    for k in range(len(a)):
        total += max(0.0, (1.0 - margin) - cos_p[k])
        ga = -dpa[k] * (cos_p[k] < 1.0 - margin)
        grads[b[k]] += -dpb[k] * (cos_p[k] < 1.0 - margin) * scale
        if has[k]:
            total += max(0.0, cos_n[k] - margin)
            ga = ga + dna[k] * (cos_n[k] > margin)
            grads[n[k]] += dnv[k] * (cos_n[k] > margin) * scale
        grads[a[k]] += ga * scale
    return total, grads


class TestContrastiveBatch:
    @pytest.mark.parametrize("margin", [0.0, 0.2, 0.5])
    def test_matches_per_pair_loop_bitwise(self, monkeypatch, margin):
        pipe = tiny_pipeline()
        records = tiny_dataset().records
        # each form in many pairs, so the order of a row's additions shows in its last bits,
        # and pairs without a negative
        rng = np.random.default_rng(5)
        batch = rng.integers(0, len(records), size=40)
        negatives = [None if k % 5 == 0 else int(rng.integers(0, len(records))) for k in range(len(batch))]
        captured = []
        monkeypatch.setattr(training, "_backward_words", lambda pipe, cache, grads: captured.append(grads))
        total = training._contrastive_batch(pipe, records, batch, negatives, margin)
        (grads,) = captured

        forms = training._distinct(
            f for i, neg in zip(batch, negatives)
            for f in (records[i].form_a, records[i].form_b, *(() if neg is None else (records[neg].form_b,)))
        )
        vecs = word_vectors(pipe, list(forms))
        a = [forms[records[i].form_a] for i in batch]
        b = [forms[records[i].form_b] for i in batch]
        n = [forms[records[neg].form_b] if neg is not None else forms[records[i].form_a] for i, neg in zip(batch, negatives)]
        ref_total, ref_grads = per_pair_contrastive(vecs, a, b, n, [neg is not None for neg in negatives], margin, 1 / len(batch))
        assert total == ref_total * (1 / len(batch))
        assert np.array_equal(grads, ref_grads)
        assert grads.any()


class TestCosines:
    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_rows_match_scalar_reference_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        u, v = rng.normal(size=(2, 200, dim)) * rng.uniform(1e-3, 1e3, size=(2, 200, 1))
        u[[3, 7]] = 0.0
        v[[5, 7]] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c, du, dv = cosines(u, v)
        assert c[7] == 0.0 and not du[3].any() and not dv[5].any()
        for i in range(len(u)):
            ref_c, ref_du, ref_dv = scalar_cosine_with_grads(u[i], v[i])
            assert c[i] == ref_c == scalar_cosine(u[i], v[i])
            assert np.array_equal(du[i], ref_du)
            assert np.array_equal(dv[i], ref_dv)


def per_text_means(pipe, texts):
    """The per-text mean loop of _forward_words that its position loop replaced, kept as the reference."""
    out, cache = pipe.forward(texts)
    units = out[cache.unit_rows]
    fused = np.zeros((len(texts), pipe.config.dim))
    raw = np.zeros_like(fused)
    offsets = cache.unit_offsets.tolist()
    for k, (a, b) in enumerate(zip(offsets, offsets[1:])):
        if b > a:
            fused[k], raw[k] = units[a:b].mean(axis=0), cache.e_S[a:b].mean(axis=0)
    return fused, raw


class TestWordMeans:
    TEXTS = ["먹었다 보다", "하", "대한민국 만세 ab", "했다", "가다 갔다 춥다 걷다 돕다"]

    @pytest.mark.parametrize("where", ["first", "middle", "last", "only"])
    @pytest.mark.parametrize("cls", [False, True])
    @pytest.mark.parametrize("granularity", ["subword", "character"])
    @pytest.mark.parametrize("dim", [4, 16])
    def test_bitwise_equal_to_per_text_means(self, where, cls, granularity, dim):
        pipe = tiny_pipeline(dim=dim, cls_bypass=cls, granularity=granularity, fusion="cross-attention")
        t = self.TEXTS
        texts = {"first": ["", *t], "middle": [*t[:2], "", *t[2:]], "last": [*t, ""], "only": ["", ""]}[where]
        fused, raw, cache = training._forward_words(pipe, texts)
        expected = per_text_means(pipe, texts)
        assert np.array_equal(fused, expected[0]) and np.array_equal(raw, expected[1])
        counts = np.diff(cache.unit_offsets)
        assert not fused[counts == 0].any() and not raw[counts == 0].any()
        if where != "only":
            assert counts.max() >= 3  # three units are where np.add.reduceat adds in another order


class TestTrain:
    def test_zero_lr_leaves_params_bitwise_unchanged(self):
        pipe = tiny_pipeline()
        before = {name: t.data.copy() for name, t in pipe.params.group.items()}
        train(pipe, tiny_dataset(), TrainConfig(epochs=3, lr=0.0, seed=1))
        for name, tensor in pipe.params.group.items():
            assert np.array_equal(tensor.data, before[name]), name

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            train(tiny_pipeline(), PairDataset([]), TrainConfig(epochs=1))

    def test_single_pair_similarity_rises_until_margin(self):
        pipe = tiny_pipeline()
        data = PairDataset([PairRecord("하다", "했다", "verb-past")])
        config = TrainConfig(epochs=25, lr=0.05, batch_size=1, seed=0)
        log = train(pipe, data, config)
        target = 1.0 - config.margin
        series = [m.mean_pair_cos_fused for m in log.epochs]
        assert series[-1] >= target - 1e-9
        for prev, cur in zip(series, series[1:]):
            if prev < target:
                assert cur > prev
        assert all(m.mean_random_cos == 0.0 for m in log.epochs)

    def test_identical_runs_are_bitwise_identical(self):
        logs = []
        for _ in range(2):
            pipe = tiny_pipeline()
            logs.append(train(pipe, tiny_dataset(), TrainConfig(epochs=4, lr=0.02, seed=9)))
        assert logs[0].to_csv() == logs[1].to_csv()

    def test_different_seed_changes_log(self):
        runs = []
        for seed in (0, 1):
            pipe = tiny_pipeline()
            runs.append(train(pipe, tiny_dataset(), TrainConfig(epochs=2, lr=0.02, seed=seed)).to_csv())
        assert runs[0] != runs[1]

    def test_frozen_subword_table_never_moves(self):
        pipe = tiny_pipeline()
        before = pipe.params.subword_emb.table.data.copy()
        train(pipe, tiny_dataset(), TrainConfig(epochs=3, lr=0.05, seed=2))
        assert np.array_equal(pipe.params.subword_emb.table.data, before)

    def test_unfrozen_subword_table_moves(self):
        pipe = tiny_pipeline()
        before = pipe.params.subword_emb.table.data.copy()
        train(pipe, tiny_dataset(), TrainConfig(epochs=3, lr=0.05, seed=2, freeze_subword=False))
        assert not np.array_equal(pipe.params.subword_emb.table.data, before)

    @pytest.mark.parametrize("objective", training.OBJECTIVES)
    def test_first_batch_loss_recomputes_from_checkpoint(self, tmp_path, objective):
        pipe = tiny_pipeline()
        path = str(tmp_path / "initial.jfck")
        save_checkpoint(path, pipe.params.group, seed=3, config=pipe.config.to_dict())
        config = TrainConfig(objective=objective, epochs=2, lr=0.05, batch_size=3, seed=7)
        log = train(pipe, two_tag_dataset(), config)

        fresh = tiny_pipeline(seed=99)  # different init, then restored from the checkpoint
        restore(fresh.params.group, load_checkpoint(path), path)
        recomputed = first_batch_loss(fresh, two_tag_dataset(), config)
        assert recomputed == log.first_batch_loss > 0.0

    @pytest.mark.parametrize("objective", training.OBJECTIVES)
    def test_first_batch_loss_leaves_params_bitwise_unchanged(self, objective):
        pipe = tiny_pipeline()
        before = {name: t.data.tobytes() for name, t in pipe.params.group.items()}
        config = TrainConfig(objective=objective, epochs=3, lr=0.05, weight_decay=0.1, freeze_subword=False)
        first_batch_loss(pipe, two_tag_dataset(), config)
        assert {name: t.data.tobytes() for name, t in pipe.params.group.items()} == before

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1).validate()

    def test_metric_log_columns(self):
        pipe = tiny_pipeline()
        log = train(pipe, tiny_dataset(), TrainConfig(epochs=1, lr=0.01))
        lines = log.to_csv().splitlines()
        assert lines[0] == "epoch,loss,mean_pair_cos_fused,mean_pair_cos_raw,mean_random_cos"
        assert len(lines) == 2 and lines[1].startswith("0,")

    def test_tag_classification_loss_decreases(self):
        pipe = tiny_pipeline()
        data = PairDataset(
            [
                PairRecord("하다", "했다", "verb-past"),
                PairRecord("가다", "갔다", "verb-past"),
                PairRecord("춥다", "추움", "noun-derivation"),
                PairRecord("걷다", "걸음", "noun-derivation"),
            ]
        )
        log = train(pipe, data, TrainConfig(objective="tag-classification", epochs=10, lr=0.05, seed=1))
        assert log.epochs[-1].loss < log.epochs[0].loss

    def test_non_finite_check_names_the_first_trainable_tensor(self):
        group = tiny_pipeline().params.group
        updated = ParamGroup()
        for name, tensor in group.items():
            if name != "subword_emb.table":
                updated.add(name, tensor)
        optimizer = AdamW(updated)
        _require_finite(optimizer, "gradient", 0, 0)
        group["subword_emb.table"].grad[0, 0] = np.nan  # frozen: not checked
        _require_finite(optimizer, "gradient", 0, 0)
        group["gru_char.b_n"].grad[1] = np.inf
        group["gru_iv.u_r"].grad[2, 1] = np.nan
        with pytest.raises(ValueError) as err:
            _require_finite(optimizer, "gradient", 2, 5)
        assert str(err.value) == "epoch 2, batch 5: non-finite gradient in gru_iv.u_r"
        _require_finite(optimizer, "parameter", 2, 5)
        group["conv.kernel"].data[0, 0, 0] = -np.inf
        with pytest.raises(ValueError, match="^epoch 2, batch 6: non-finite parameter in conv.kernel$"):
            _require_finite(optimizer, "parameter", 2, 6)

    def test_unfrozen_run_after_a_frozen_one_trains_the_table(self):
        pipe = tiny_pipeline()
        train(pipe, tiny_dataset(), TrainConfig(epochs=1, lr=0.05, seed=4, freeze_subword=True))
        table = pipe.params.subword_emb.table.data.copy()
        train(pipe, tiny_dataset(), TrainConfig(epochs=1, lr=0.05, seed=4, freeze_subword=False))
        assert not np.array_equal(pipe.params.subword_emb.table.data, table)

    def test_raw_pair_cosine_constant_while_frozen(self):
        pipe = tiny_pipeline()
        log = train(pipe, tiny_dataset(), TrainConfig(epochs=3, lr=0.05, seed=4))
        raws = {m.mean_pair_cos_raw for m in log.epochs}
        assert len(raws) == 1


class TestPairSimilarity:
    def test_identical_forms_have_unit_cosine(self):
        pipe = tiny_pipeline()
        data = PairDataset([PairRecord("하다", "하다", "identity")])
        report = pair_similarity(pipe, data)
        assert report.rows[0][1] == pytest.approx(1.0)
        assert report.rows[0][2] == pytest.approx(1.0)

    def test_report_csv_shape(self):
        pipe = tiny_pipeline()
        report = pair_similarity(pipe, tiny_dataset())
        lines = report.to_csv().splitlines()
        assert lines[0] == "form_a,form_b,relation,cos_raw,cos_fused"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("[mean],")
        assert -1.0 <= report.mean_fused <= 1.0


class TestPcaProject:
    def test_needs_two_words(self):
        with pytest.raises(ConfigError, match="at least 2"):
            pca_project(["하다"], tiny_pipeline())

    def test_k_bounded_by_dim(self):
        with pytest.raises(ConfigError, match="k must lie"):
            pca_project(["하다", "했다"], tiny_pipeline(), k=9)

    def test_identical_words_project_to_origin(self):
        result = pca_project(["하다", "하다", "하다"], tiny_pipeline())
        assert np.allclose(result.coordinates, 0.0)
        gram = result.components @ result.components.T
        assert np.abs(gram - np.eye(2)).max() < 1e-8

    def test_collinear_points_have_no_second_component(self):
        rng = np.random.default_rng(0)
        direction = rng.normal(size=6)
        x = np.outer(np.linspace(-2, 2, 5), direction)
        x -= x.mean(axis=0)
        comps = _principal_components(x, 2)
        coords = x @ comps.T
        assert np.abs(coords[:, 1]).max() < 1e-8

    def test_close_top_eigenvalues_resolved(self):
        """x = U diag(s) Q.T with the top two eigenvalues of x.T @ x in ratio 0.999."""
        rng = np.random.default_rng(4)
        n, d = 40, 16
        u = np.linalg.qr(rng.normal(size=(n, d)))[0]
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        s = np.array([1.0, np.sqrt(0.999), *np.linspace(0.1, 0.01, d - 2)])
        x = u @ np.diag(s) @ q.T
        comps = _principal_components(x, 2)
        for got, want in zip(comps, q[:, :2].T):
            assert min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-10
        # sign rule: each component's largest-magnitude entry is positive
        for y in [x, *rng.normal(size=(8, 10, 6))]:
            comps = _principal_components(y - y.mean(axis=0), 3)
            assert (comps[np.arange(3), np.abs(comps).argmax(axis=1)] > 0).all()

    def test_components_orthonormal(self):
        pipe = tiny_pipeline()
        words = ["하다", "했다", "가다", "갔다", "먹다"]
        result = pca_project(words, pipe, k=3)
        gram = result.components @ result.components.T
        assert np.abs(gram - np.eye(3)).max() < 1e-8

    def test_csv_header(self):
        result = pca_project(["하다", "했다"], tiny_pipeline(), k=2)
        lines = result.to_csv().splitlines()
        assert lines[0] == "word,pc1,pc2"
        assert len(lines) == 3

    def test_deterministic(self):
        a = pca_project(["하다", "했다", "가다"], tiny_pipeline()).to_csv()
        b = pca_project(["하다", "했다", "가다"], tiny_pipeline()).to_csv()
        assert a == b


class TestCohesionReport:
    def test_identical_words_have_zero_dispersion(self):
        report = cohesion_report([("하다", ["하다", "하다", "하다"])], tiny_pipeline())
        row = report.rows[0]
        assert row.dispersion_raw == pytest.approx(0.0, abs=1e-12)
        assert row.dispersion_fused == pytest.approx(0.0, abs=1e-12)
        assert row.spread_fused == pytest.approx(0.0, abs=1e-12)

    def test_single_word_set_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            cohesion_report([("하다", ["하다"])], tiny_pipeline())

    def test_one_forward_per_word(self, monkeypatch):
        calls = []
        forward = Pipeline.forward

        def counted(self, text, *args):
            calls.append(text)
            return forward(self, text, *args)

        monkeypatch.setattr(Pipeline, "forward", counted)
        sets = [("춥다", ["춥다", "추움", "추위"]), ("걷다", ["걷다", "걸음"])]
        cohesion_report(sets, tiny_pipeline())
        assert calls == [["춥다", "추움", "추위", "걷다", "걸음"]]  # one batched forward

    def test_csv_layout(self):
        sets = [("춥다", ["춥다", "추움", "추위"]), ("걷다", ["걷다", "걸음"])]
        report = cohesion_report(sets, tiny_pipeline())
        lines = report.to_csv().splitlines()
        assert lines[0] == "set,size,dispersion_raw,dispersion_fused,spread_raw,spread_fused"
        assert len(lines) == 3
        assert isinstance(report, CohesionReport)
