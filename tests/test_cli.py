"""End-to-end tests for the command line interface.

Every test drives main(argv) directly and asserts on exit codes and emitted
text, so the whole dispatch path runs without spawning subprocesses.
"""

import json
import math
import struct

import pytest
from importlib import resources

from jamofuse import checkpoint, cli
from jamofuse.cli import main
from jamofuse.oracle import parse_action_file
from jamofuse.subword import load_vocab


def data_file(name: str) -> str:
    return str(resources.files("jamofuse.data") / name)


def assert_one_line_error(capsys) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


PAIRS = data_file("verb_past_pairs.tsv")
SETS = data_file("inflection_sets.tsv")
CORPUS = data_file("inflections.jsonl")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small trained checkpoint shared by the probe tests."""
    root = tmp_path_factory.mktemp("trained")
    ckpt = root / "model.ckpt"
    log = root / "log.csv"
    code = main([
        "train", "--pairs", PAIRS, "--out", str(ckpt), "--log", str(log),
        "--fusion", "summation", "--epochs", "3", "--seed", "7",
    ])
    assert code == 0
    return {"ckpt": str(ckpt), "log": str(log)}


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "jamofuse" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["decompose", "--frobnicate", "한"]) == 2

    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_bad_scheme_is_domain_error(self, capsys):
        assert main(["decompose", "--scheme", "nope", "한"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_missing_file_is_domain_error(self, capsys):
        assert main(["oracle-stats", "--in", "/does/not/exist.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err


class TestDecompose:
    def test_four_syllables_make_twelve_jamo_lines(self, capsys):
        assert main(["decompose", "--scheme", "jamo", "대한민국"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        assert [line.split("\t")[1] for line in lines] == ["I", "V", "F"] * 4
        assert lines[0] == "ㄷ\tI"
        assert lines[2] == "▃\tF"

    def test_bts_width_thirteen(self, capsys):
        assert main(["decompose", "--scheme", "bts", "한"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 13

    def test_passthrough_char_pads_with_other_role(self, capsys):
        assert main(["decompose", "한!"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "!\tO"
        assert lines[4] == "<pad>\tO"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "atoms.tsv"
        assert main(["decompose", "한", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").splitlines() == [
            "ㅎ\tI", "ㅏ\tV", "ㄴ\tF",
        ]


class TestTokenize:
    def test_ids_atoms_roles(self, capsys):
        assert main(["tokenize", "--scheme", "jamo", "하"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line in lines:
            token_id, atom, role = line.split("\t")
            assert int(token_id) >= 0
            assert role in ("I", "V", "F")
        assert lines[0].split("\t")[1] == "ㅎ"


class TestVocabAndEncode:
    def test_train_then_encode_roundtrip(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("하다 했다\n한국 민국\n", encoding="utf-8")
        vocab_path = tmp_path / "vocab.tsv"
        assert main([
            "vocab-train", "--in", str(corpus), "--size", "40",
            "--out", str(vocab_path),
        ]) == 0
        vocab = load_vocab(vocab_path)
        assert vocab.mode == "bpe-lite"

        assert main(["encode", "하다", "--vocab", str(vocab_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        fields = [line.split("\t") for line in lines]
        assert "".join(f[1] for f in fields) == "하다"
        assert fields[0][2] == "0"
        assert fields[-1][3] == "2"

    def test_encode_cls_owns_no_characters(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("하다\n", encoding="utf-8")
        vocab_path = tmp_path / "vocab.tsv"
        main(["vocab-train", "--in", str(corpus), "--size", "20", "--out", str(vocab_path)])
        assert main(["encode", "하다", "--vocab", str(vocab_path), "--cls"]) == 0
        first = capsys.readouterr().out.splitlines()[0].split("\t")
        assert first[1] == "<cls>"
        assert (first[2], first[3]) == ("0", "0")

    def test_vocab_train_requires_out(self, capsys):
        assert main(["vocab-train", "--in", "x.txt", "--size", "10"]) == 2

    def test_unknown_escape_in_vocab_is_domain_error(self, tmp_path, capsys):
        vocab_path = tmp_path / "vocab.tsv"
        vocab_path.write_text("mode=charlist\tsize=1\na\\x\t0\n", encoding="utf-8")
        assert main(["encode", "a", "--vocab", str(vocab_path)]) == 1
        assert_one_line_error(capsys)

    def test_vocab_header_without_size_is_domain_error(self, tmp_path, capsys):
        vocab_path = tmp_path / "vocab.tsv"
        vocab_path.write_text("mode=charlist\na\t0\n", encoding="utf-8")
        assert main(["encode", "a", "--vocab", str(vocab_path)]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("ids", [("0", "0"), ("0", "2")], ids=["duplicate", "gapped"])
    def test_vocab_ids_not_0_to_size_are_domain_error(self, tmp_path, capsys, ids):
        vocab_path = tmp_path / "vocab.tsv"
        vocab_path.write_text(f"mode=charlist\tsize=2\na\t{ids[0]}\nb\t{ids[1]}\n", encoding="utf-8")
        assert main(["encode", "ab", "--vocab", str(vocab_path)]) == 1
        assert_one_line_error(capsys)


class TestOracleAlign:
    def test_surface_with_units(self, capsys):
        assert main(["oracle-align", "했다", "--units", "하다"]) == 0
        assert capsys.readouterr().out == "했\tB-MOD-하\n다\tI-KEEP\n"

    def test_output_parses_back(self, capsys):
        assert main(["oracle-align", "추웠다", "--units", "춥다"]) == 0
        aligned = parse_action_file(capsys.readouterr().out.splitlines())
        assert [ac.surface for ac in aligned] == ["추", "웠", "다"]

    def test_custom_delimiter(self, capsys):
        assert main(["oracle-align", "했다", "--units", "하다", "--delim", "|"]) == 0
        assert capsys.readouterr().out.startswith("했|B-MOD-하")

    def test_jsonl_corpus_produces_record_blocks(self, tmp_path, capsys):
        path = tmp_path / "two.jsonl"
        path.write_text(
            '{"surface": "했다", "lemma_units": ["하다"]}\n'
            '{"surface": "갔다", "lemma_units": ["가다"]}\n',
            encoding="utf-8",
        )
        assert main(["oracle-align", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2
        assert blocks[1].splitlines()[0] == "갔\tB-MOD-가"

    def test_surface_and_corpus_together_rejected(self, capsys):
        assert main(["oracle-align", "했다", "--units", "하다", "--in", "x.jsonl"]) == 1

    def test_neither_input_rejected(self, capsys):
        assert main(["oracle-align"]) == 1

    def test_units_required_with_surface(self, capsys):
        assert main(["oracle-align", "했다"]) == 1


class TestOracleStats:
    def test_bundled_corpus_counters(self, capsys):
        assert main(["oracle-stats", "--in", CORPUS]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["chars_total"] == 555
        assert stats["keep"] == 469
        assert stats["mod"] == 60
        assert stats["noop"] == 26
        assert stats["mod_subcharacter"] == 50
        assert stats["mod_character"] == 10

    def test_csv_table(self, tmp_path, capsys):
        csv_path = tmp_path / "top.csv"
        assert main([
            "oracle-stats", "--in", CORPUS, "--top-k", "3", "--csv", str(csv_path),
        ]) == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank,surface,targets,count,granularity"
        assert len(lines) == 4
        assert lines[1] == "1,라,이,10,character"

    def test_partitioned_equals_sequential(self, capsys):
        assert main(["oracle-stats", "--in", CORPUS]) == 0
        sequential = capsys.readouterr().out
        assert main(["oracle-stats", "--in", CORPUS, "--partitions", "4"]) == 0
        assert capsys.readouterr().out == sequential

    @pytest.mark.parametrize("flags", [["--top-k", "-1"], ["--partitions", "0"], ["--partitions", "-3"]])
    def test_bad_counts_are_domain_error(self, capsys, flags):
        assert main(["oracle-stats", "--in", CORPUS, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_json_to_file(self, tmp_path, capsys):
        json_path = tmp_path / "stats.json"
        assert main(["oracle-stats", "--in", CORPUS, "--json", str(json_path)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(json_path.read_text(encoding="utf-8"))["mod"] == 60


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck", "--d", "4", "--text", "하다", "--tol", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "max_rel_error=" in out
        assert "tol=1.0e-04" in out

    def test_fails_below_achievable_tolerance(self, capsys):
        assert main(["gradcheck", "--d", "4", "--text", "하다", "--tol", "1e-14"]) == 1

    def test_other_fusion_and_compression(self, capsys):
        assert main([
            "gradcheck", "--d", "4", "--text", "하 a", "--scheme", "stroke",
            "--compression", "attention", "--fusion", "concatenation",
        ]) == 0


class TestConfigPrecedence:
    def test_config_file_sets_dim(self, tmp_path, capsys):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("dim = 4  # narrow\nfusion = summation\n", encoding="utf-8")
        assert main([
            "embed", "--pairs-vocab", PAIRS, "--text", "하다", "--config", str(cfg),
        ]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "token," + ",".join(f"dim{i}" for i in range(4))

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("dim = 4\nfusion = summation\n", encoding="utf-8")
        assert main([
            "embed", "--pairs-vocab", PAIRS, "--text", "하다",
            "--config", str(cfg), "--dim", "6",
        ]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith("dim5")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("depth = 4\n", encoding="utf-8")
        assert main([
            "embed", "--pairs-vocab", PAIRS, "--text", "하다", "--config", str(cfg),
        ]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_verbose_echoes_config_to_stderr(self, capsys):
        assert main([
            "embed", "--pairs-vocab", PAIRS, "--text", "하다",
            "--dim", "4", "--fusion", "summation", "--verbose",
        ]) == 0
        err = capsys.readouterr().err
        assert '"dim": 4' in err


class TestTrainCommand:
    def test_log_columns(self, trained):
        with open(trained["log"], encoding="utf-8") as stream:
            header = stream.readline().rstrip("\n")
        assert header == "epoch,loss,mean_pair_cos_fused,mean_pair_cos_raw,mean_random_cos"

    def test_summary_line(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main([
            "train", "--pairs", PAIRS, "--out", str(ckpt),
            "--epochs", "1", "--dim", "8", "--fusion", "summation",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trained 1 epochs:")
        assert ckpt.exists()

    def test_tag_classification_objective(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main([
            "train", "--pairs", PAIRS, "--out", str(ckpt),
            "--objective", "tag-classification", "--epochs", "1", "--dim", "8",
        ]) == 0

    def test_bad_objective_is_domain_error(self, tmp_path, capsys):
        assert main([
            "train", "--pairs", PAIRS, "--out", str(tmp_path / "m.ckpt"),
            "--objective", "nope",
        ]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lr", "1e300"], "non-finite gradient in model."),
            (["--lr", "nan"], "learning rate"),
            (["--weight-decay", "nan"], "weight decay"),
            (["--epochs", "0"], "epochs"),
        ],
        ids=["lr-overflow", "lr-nan", "weight-decay-nan", "no-epochs"],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_training_run_is_domain_error(self, tmp_path, capsys, flags, message):
        ckpt, log = tmp_path / "m.ckpt", tmp_path / "m.csv"
        assert main([
            "train", "--pairs", PAIRS, "--out", str(ckpt), "--log", str(log), "--dim", "8", *flags,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert not ckpt.exists() and not log.exists()


class TestCheckpointRoundTrip:
    def test_embed_from_checkpoint(self, trained, capsys):
        assert main(["embed", "--ckpt", trained["ckpt"], "--text", "한국어"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("token,dim0")
        assert len(lines) >= 2

    def test_embed_reads_checkpoint_once(self, trained, monkeypatch, capsys):
        calls = []
        load = checkpoint.load_checkpoint

        def counted(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(checkpoint, "load_checkpoint", counted)
        monkeypatch.setattr(cli, "load_checkpoint", counted)
        assert main(["embed", "--ckpt", trained["ckpt"], "--text", "하다"]) == 0
        assert calls == [trained["ckpt"]]

    def test_checkpoint_carries_vocab_and_config(self, trained, tmp_path, capsys):
        """No vocab or pipeline flags are needed once a checkpoint exists."""
        assert main(["probe-pca", "--ckpt", trained["ckpt"], "--words", "하다,했다,가다"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "word,pc1,pc2"
        assert len(lines) == 4

    def test_model_source_required(self, capsys):
        assert main(["embed", "--text", "하다"]) == 1
        assert "need --ckpt" in capsys.readouterr().err

    def test_header_without_tensors_is_domain_error(self, tmp_path, capsys):
        header = json.dumps({"format_version": 1, "seed": 0, "config": {}}).encode("utf-8")
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(struct.pack("<4sIQ", b"JFCK", 1, len(header)) + header)
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "fields",
        [
            {"config": {}, "tensors": 5},
            {"config": {}, "tensors": [{"name": "x", "shape": "ab"}]},
            {"config": [1], "tensors": []},
            {"config": {}, "tensors": []},
            {"config": {"pipeline": {"dim": "x"}, "subword_vocab": {"mode": "charlist", "entries": {}}}, "tensors": []},
        ],
        ids=["tensors-not-list", "shape-not-list", "config-not-object", "config-without-pipeline", "dim-not-int"],
    )
    def test_header_with_wrong_types_is_domain_error(self, tmp_path, capsys, fields):
        header = json.dumps({"format_version": 1, "seed": 0, **fields}).encode("utf-8")
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(struct.pack("<4sIQ", b"JFCK", 1, len(header)) + header)
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        assert_one_line_error(capsys)

    def test_bytes_after_last_tensor_are_domain_error(self, trained, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        with open(trained["ckpt"], "rb") as stream:
            ckpt.write_bytes(stream.read() + b"\0")
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        assert_one_line_error(capsys)

    def test_non_integer_seed_is_domain_error(self, trained, tmp_path, capsys):
        with open(trained["ckpt"], "rb") as stream:
            blob = stream.read()
        magic, version, header_len = struct.unpack_from("<4sIQ", blob)
        header = json.loads(blob[16 : 16 + header_len])
        header["seed"] = "x"
        new_header = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(struct.pack("<4sIQ", magic, version, len(new_header)) + new_header + blob[16 + header_len :])
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_tensor_is_domain_error(self, trained, tmp_path, capsys, value):
        with open(trained["ckpt"], "rb") as stream:
            blob = bytearray(stream.read())
        _, _, header_len = struct.unpack_from("<4sIQ", blob)
        offset = 16 + header_len
        for entry in json.loads(blob[16:offset])["tensors"]:
            if entry["name"] == "gru_seq.w_z":
                break
            offset += 8 * math.prod(entry["shape"])
        struct.pack_into("<d", blob, offset + 8, value)
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(bytes(blob))
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert "'gru_seq.w_z'" in err

    @pytest.mark.parametrize(
        "flags", [["--dim", "8", "--scheme", "bts"], ["--vocab", "vocab.tsv"]], ids=["pipeline", "vocab"]
    )
    def test_flags_a_checkpoint_would_ignore_are_domain_error(self, trained, capsys, flags):
        assert main(["embed", "--ckpt", trained["ckpt"], *flags, "--text", "하다"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert all(flag in err for flag in flags if flag.startswith("--"))


class TestProbes:
    def test_probe_pairs_rows(self, trained, capsys):
        assert main(["probe-pairs", "--ckpt", trained["ckpt"], "--pairs", PAIRS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 52
        assert lines[-1].startswith("[mean],")

    def test_probe_pca_words_file(self, trained, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("하다\n했다\n가다\n갔다\n", encoding="utf-8")
        assert main([
            "probe-pca", "--ckpt", trained["ckpt"], "--words-file", str(words), "--k", "3",
        ]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "word,pc1,pc2,pc3"

    def test_probe_pca_single_word_rejected(self, trained, capsys):
        assert main(["probe-pca", "--ckpt", trained["ckpt"], "--words", "하다"]) == 1

    def test_probe_cohesion_fused_tighter_after_training(self, trained, capsys):
        assert main(["probe-cohesion", "--ckpt", trained["ckpt"], "--sets", SETS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("set,size,")
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[3]) < float(fields[2])


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            ckpt = tmp_path / f"{run}.ckpt"
            emb = tmp_path / f"{run}.csv"
            assert main([
                "train", "--pairs", PAIRS, "--out", str(ckpt),
                "--epochs", "2", "--dim", "8", "--seed", "13",
            ]) == 0
            assert main([
                "embed", "--ckpt", str(ckpt), "--text", "한국어 시험", "--out", str(emb),
            ]) == 0
            outputs.append((ckpt.read_bytes(), emb.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_different_seed_differs(self, tmp_path):
        blobs = []
        for seed in ("13", "14"):
            ckpt = tmp_path / f"s{seed}.ckpt"
            assert main([
                "train", "--pairs", PAIRS, "--out", str(ckpt),
                "--epochs", "1", "--dim", "8", "--seed", seed,
            ]) == 0
            blobs.append(ckpt.read_bytes())
        assert blobs[0] != blobs[1]
