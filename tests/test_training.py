import importlib.resources
import io

import numpy as np
import pytest

from jamofuse.checkpoint import load_into, save_checkpoint
from jamofuse.pipeline import ConfigError, Pipeline, PipelineConfig
from jamofuse.subword import train_vocab
from jamofuse.training import (
    CohesionReport,
    DatasetError,
    PairDataset,
    PairRecord,
    TrainConfig,
    _power_iteration_components,
    cohesion_report,
    cosine,
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


def tiny_pipeline(dim=8, seed=3, **overrides):
    corpus = ["하다 했다 가다 갔다", "먹다 먹었다 보다 봤다", "춥다 걷다 돕다 묻다"]
    vocab = train_vocab(corpus, 80)
    cfg = PipelineConfig(**{"dim": dim, "fusion": "summation", **overrides})
    return Pipeline.build(cfg, vocab, seed=seed)


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

    def test_cosine_basics(self):
        v = np.array([1.0, 2.0])
        assert cosine(v, v) == pytest.approx(1.0)
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == 0.0
        assert cosine(np.zeros(2), v) == 0.0


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

    def test_first_batch_loss_recomputes_from_checkpoint(self, tmp_path):
        pipe = tiny_pipeline()
        path = str(tmp_path / "initial.jfck")
        save_checkpoint(path, pipe.params.group, seed=3, config=pipe.config.to_dict())
        config = TrainConfig(epochs=2, lr=0.05, seed=7)
        log = train(pipe, tiny_dataset(), config)

        fresh = tiny_pipeline(seed=99)  # different init, then restored from the checkpoint
        load_into(fresh.params.group, path)
        recomputed = first_batch_loss(fresh, tiny_dataset(), config)
        assert recomputed == log.first_batch_loss

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
        comps = _power_iteration_components(x, 2, seed=0)
        coords = x @ comps.T
        assert np.abs(coords[:, 1]).max() < 1e-8

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 8))
        x -= x.mean(axis=0)
        comps = _power_iteration_components(x, 2, seed=1)
        eigvals, eigvecs = np.linalg.eigh(x.T @ x)
        for i in range(2):
            expected = x @ eigvecs[:, -1 - i]
            got = x @ comps[i]
            assert min(np.abs(got - expected).max(), np.abs(got + expected).max()) < 1e-6

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
        assert calls == ["춥다", "추움", "추위", "걷다", "걸음"]

    def test_csv_layout(self):
        sets = [("춥다", ["춥다", "추움", "추위"]), ("걷다", ["걷다", "걸음"])]
        report = cohesion_report(sets, tiny_pipeline())
        lines = report.to_csv().splitlines()
        assert lines[0] == "set,size,dispersion_raw,dispersion_fused,spread_raw,spread_fused"
        assert len(lines) == 3
        assert isinstance(report, CohesionReport)
