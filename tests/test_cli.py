"""End-to-end tests for the command line interface.

Nearly every test drives main(argv) directly and asserts on exit codes and
emitted text, so the whole dispatch path runs without spawning subprocesses;
the tests of argv bytes that are not UTF-8 run the CLI in a new process.
"""

import argparse
import inspect
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from importlib import resources

from jamofuse import checkpoint, cli, gradcheck, subword, training
from jamofuse.cli import main
from jamofuse.oracle import align, corpus_stats, parse_action_file, read_jsonl_records
from jamofuse.subword import SPECIALS, load_vocab, save_vocab, train_vocab
from jamofuse.training import TrainConfig, load_pair_dataset, pca_project


def data_file(name: str) -> str:
    return str(resources.files("jamofuse.data") / name)


def assert_one_line_error(capsys) -> None:
    assert_one_line_error_text(capsys.readouterr().err)


def assert_one_line_error_text(err: str) -> None:
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


SPECIAL_ENTRIES = {token: i for i, token in enumerate(SPECIALS)}
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

    @pytest.mark.parametrize("argv", [["decompose", "한"], ["tokenize", "한"], ["gradcheck", "--d", "4"]],
                             ids=["decompose", "tokenize", "gradcheck"])
    def test_scheme_names_are_exact(self, capsys, argv):
        assert main([*argv, "--scheme", "JAMO"]) == 1
        err = capsys.readouterr().err
        assert_one_line_error_text(err)
        assert "unknown scheme 'JAMO'" in err

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_failed_write_names_the_given_path(self, tmp_path, capsys, target):
        out = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        errs = []
        for _ in range(2):
            assert main(["embed", "--pairs-vocab", PAIRS, "--text", "하다", "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert_one_line_error_text(captured.err)
            assert repr(str(out)) in captured.err and ".jamofuse-" not in captured.err
            errs.append(captured.err)
        assert errs[0] == errs[1]
        assert list(tmp_path.glob("**/.jamofuse-*")) == []

    def test_missing_file_is_domain_error(self, capsys):
        assert main(["oracle-stats", "--in", "/does/not/exist.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("exc", "err"),
        [(MemoryError("Unable to allocate 113. GiB for an array"), "error: Unable to allocate 113. GiB for an array\n"),
         (MemoryError(), "error: MemoryError\n")],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_is_domain_error(self, monkeypatch, capsys, exc, err):
        def exhausted(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_embed", exhausted)
        assert main(["embed", "--text", "하다", "--dim", "100000000"]) == 1
        assert capsys.readouterr().err == err


# one file of each kind that a subcommand reads as text: valid lines, then a line with a byte that is not UTF-8
BAD_UTF8_FILES = {
    "pair-tsv": ("하다\t했다\tpast\n", lambda path, ckpt, out: ["train", "--pairs", path, "--out", out]),
    "pair-tsv-vocab": ("하다\t했다\tpast\n", lambda path, ckpt, out: ["embed", "--pairs-vocab", path, "--text", "하"]),
    "jsonl-stats": ('{"surface": "했다", "lemma_units": ["하다"]}\n', lambda path, ckpt, out: ["oracle-stats", "--in", path]),
    "jsonl-align": ('{"surface": "했다", "lemma_units": ["하다"]}\n', lambda path, ckpt, out: ["oracle-align", "--in", path]),
    "vocab": ("mode=charlist\tsize=1\n", lambda path, ckpt, out: ["encode", "a", "--vocab", path]),
    "vocab-corpus": ("하다 했다\n", lambda path, ckpt, out: ["vocab-train", "--in", path, "--size", "10", "--out", out]),
    "word-sets": ("하다\t했다\n", lambda path, ckpt, out: ["probe-cohesion", "--ckpt", ckpt, "--sets", path]),
    "words-file": ("하다\n했다\n", lambda path, ckpt, out: ["probe-pca", "--ckpt", ckpt, "--words-file", path]),
    "config": ("dim = 4\n", lambda path, ckpt, out: ["embed", "--pairs-vocab", PAIRS, "--text", "하", "--config", path]),
}


@pytest.mark.parametrize("kind", list(BAD_UTF8_FILES))
def test_invalid_utf8_error_names_the_file(tmp_path, trained, capsys, kind):
    good, argv = BAD_UTF8_FILES[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(good.encode("utf-8") + b"\xe8\xb0\n\xff\n")
    out = tmp_path / "out"
    assert main(argv(str(path), trained["ckpt"], str(out))) == 1
    err = capsys.readouterr().err
    assert_one_line_error_text(err)
    assert err == f"error: {path}: not UTF-8 text: byte 0xe8 (invalid continuation byte)\n"
    assert not out.exists()


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

    @pytest.mark.parametrize("mode", ["bpe-lite", "wordlist"])
    def test_vocab_train_on_text_that_spells_a_special(self, tmp_path, capsys, mode):
        # a merge or a word that spells <unk> or <cls> gave the special's string a second id, and
        # the vocab was refused with "vocab ids must be the integers 0..20, each used once"
        corpus, vocab_path = tmp_path / "corpus.txt", tmp_path / "vocab.tsv"
        corpus.write_text("<unk> <unk> <cls> x\n", encoding="utf-8")
        assert main(["vocab-train", "--in", str(corpus), "--size", "40", "--mode", mode,
                     "--out", str(vocab_path)]) == 0
        assert capsys.readouterr() == ("", "")
        vocab = load_vocab(vocab_path)
        assert list(vocab.entries)[:len(SPECIALS)] == SPECIALS
        assert main(["encode", "<unk>x", "--vocab", str(vocab_path)]) == 0
        assert "".join(line.split("\t")[1] for line in capsys.readouterr().out.splitlines()) == "<unk>x"

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

    @pytest.mark.parametrize(
        "argv",
        [["encode", "xa"], ["encode", "xa", "--cls"], ["embed", "--text", "하a"]],
        ids=["encode", "encode-cls", "embed"],
    )
    def test_vocab_without_specials_is_domain_error(self, tmp_path, capsys, argv):
        vocab_path = tmp_path / "vocab.tsv"
        vocab_path.write_text("mode=charlist\tsize=1\na\t0\n", encoding="utf-8")
        assert main([*argv, "--vocab", str(vocab_path)]) == 1
        err = capsys.readouterr().err
        assert_one_line_error_text(err)
        assert "<unk>" in err


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

    def test_empty_delimiter_is_domain_error(self, capsys):
        assert main(["oracle-align", "했다", "--units", "하,았,다", "--delim", ""]) == 1
        err = capsys.readouterr().err
        assert_one_line_error_text(err)
        assert "--delim must not be empty" in err

    @pytest.mark.parametrize("mode", ["surface", "corpus"])
    @pytest.mark.parametrize("delim", [";", "-", "B", "KEEP", "\n", "|\r", "-하"],
                             ids=["semicolon", "dash", "letter", "action-name", "newline", "carriage-return", "dash-unit"])
    def test_delimiter_in_the_action_syntax_is_domain_error(self, tmp_path, capsys, mode, delim):
        # 했 is written as B-MOD-하;I-MOD-았 and 다 as B-KEEP
        if mode == "surface":
            argv = ["oracle-align", "했다", "--units", "하,았,다"]
        else:
            path = tmp_path / "corpus.jsonl"
            path.write_text('{"surface": "했다", "lemma_units": ["하", "았", "다"]}\n', encoding="utf-8")
            argv = ["oracle-align", "--in", str(path)]
        assert main([*argv, f"--delim={delim}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: delimiter {delim!r} cannot be written back")
        assert_one_line_error_text(captured.err)

    def test_units_required_with_surface(self, capsys):
        assert main(["oracle-align", "했다"]) == 1

    def test_bundled_corpus_parses_back_to_the_same_actions(self, capsys):
        assert main(["oracle-align", "--in", CORPUS]) == 0
        parsed = parse_action_file(capsys.readouterr().out.splitlines())
        with open(CORPUS, encoding="utf-8") as stream:
            expected = [ac for surface, units in read_jsonl_records(stream) for ac in align(surface, units)]
        assert len(parsed) == len(expected) > 500
        assert [(ac.surface, ac.actions) for ac in parsed] == [(ac.surface, ac.actions) for ac in expected]


# units that parse_action_file could not read back as written
UNWRITABLE_UNITS = [("하;", "\t"), ("하|", "|"), ("하\t", "\t"), ("하\n", "\t"), ("하\r", "\t"), ("하 ", "\t")]
UNWRITABLE_IDS = ["semicolon", "custom-delimiter", "tab-delimiter", "newline", "carriage-return", "trailing-space"]


@pytest.mark.parametrize("unit,delim", UNWRITABLE_UNITS, ids=UNWRITABLE_IDS)
def test_unwritable_unit_is_domain_error(capsys, unit, delim):
    assert main(["oracle-align", "했", "--units", f"{unit},았", "--delim", delim]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unit {unit!r} cannot be written back")
    assert_one_line_error_text(captured.err)


@pytest.mark.parametrize("unit,delim", UNWRITABLE_UNITS, ids=UNWRITABLE_IDS)
def test_unwritable_corpus_unit_is_domain_error(tmp_path, capsys, unit, delim):
    path = tmp_path / "units.jsonl"
    record = {"surface": "했", "lemma_units": [unit, "았"]}
    path.write_text('{"surface": "했다", "lemma_units": ["하다"]}\n' + json.dumps(record) + "\n", encoding="utf-8")
    assert main(["oracle-align", "--in", str(path), "--delim", delim]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unit {unit!r} cannot be written back")
    assert_one_line_error_text(captured.err)


# surfaces with a character that parse_action_file could not read back as written
UNWRITABLE_SURFACES = [("했|다", "|"), ("했\t다", "\t"), ("했\n다", "\t"), ("했\r다", "\t"), ("했ㅋ다", "ㅋㅋ")]
UNWRITABLE_SURFACE_IDS = ["custom-delimiter", "tab-delimiter", "newline", "carriage-return", "repeated-character"]


@pytest.mark.parametrize("surface,delim", UNWRITABLE_SURFACES, ids=UNWRITABLE_SURFACE_IDS)
def test_unwritable_surface_is_domain_error(capsys, surface, delim):
    assert main(["oracle-align", surface, "--units", "하,다", "--delim", delim]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: surface character {surface[1]!r} cannot be written back")
    assert_one_line_error_text(captured.err)


@pytest.mark.parametrize("surface,delim", UNWRITABLE_SURFACES, ids=UNWRITABLE_SURFACE_IDS)
def test_unwritable_corpus_surface_is_domain_error(tmp_path, capsys, surface, delim):
    path = tmp_path / "surfaces.jsonl"
    record = {"surface": surface, "lemma_units": ["하", "다"]}
    path.write_text('{"surface": "했다", "lemma_units": ["하다"]}\n' + json.dumps(record) + "\n", encoding="utf-8")
    assert main(["oracle-align", "--in", str(path), "--delim", delim]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: surface character {surface[1]!r} cannot be written back")
    assert_one_line_error_text(captured.err)


def test_surface_character_that_only_starts_the_delimiter_reads_back(capsys):
    # "|" + "|:" + actions splits at the "|:" after the character
    assert main(["oracle-align", "했|다", "--units", "하,다", "--delim", "|:"]) == 0
    parsed = parse_action_file(capsys.readouterr().out.splitlines(), "|:")
    assert [ac.surface for ac in parsed] == list("했|다")


BAD_CORPUS_LINES = [
    '{"surface": "하", "lemma_units": [1]}',
    '{"surface": 5, "lemma_units": ["하"]}',
    '{"surface": "하", "lemma_units": "하"}',
    '{"surface": "하", "lemma_units": [["하다"]]}',
    '{"surface": "하", "lemma_units": [""]}',
    "{nope",
]


@pytest.mark.parametrize("command", ["oracle-align", "oracle-stats"])
@pytest.mark.parametrize("bad", BAD_CORPUS_LINES, ids=[
    "unit-not-text", "surface-not-text", "units-a-string", "unit-a-list", "empty-unit", "invalid-json",
])
def test_bad_corpus_record_is_domain_error(tmp_path, capsys, command, bad):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"surface": "했다", "lemma_units": ["하다"]}\n' + bad + "\n", encoding="utf-8")
    assert main([command, "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: bad corpus record: ")
    assert_one_line_error_text(captured.err)


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

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_tolerance_rejected_before_the_check(self, monkeypatch, capsys, tol):
        calls = []
        monkeypatch.setattr(gradcheck, "grad_check", lambda *args, **kwargs: calls.append(args))
        assert main(["gradcheck", "--d", "4", "--tol", tol]) == 1
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line_error_text(captured.err)

    def test_empty_text_rejected_before_the_check(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(gradcheck, "grad_check", lambda *args, **kwargs: calls.append(args))
        assert main(["gradcheck", "--d", "4", "--text", ""]) == 1
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line_error_text(captured.err)
        assert "--text" in captured.err

    def test_other_fusion_and_compression(self, capsys):
        assert main([
            "gradcheck", "--d", "4", "--text", "하 a", "--scheme", "stroke",
            "--compression", "attention", "--fusion", "concatenation",
        ]) == 0

    def test_verbose_prints_each_parameter_to_stderr(self, monkeypatch, capsys):
        argv = ["gradcheck", "--d", "4", "--fusion", "summation"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        reports, names = [], []
        check = gradcheck.grad_check

        def recorded(loss_fn, params):
            names.append([name for name, _ in params.items()])
            reports.append(check(loss_fn, params))
            return reports[-1]

        monkeypatch.setattr(gradcheck, "grad_check", recorded)
        assert main([*argv, "--verbose"]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == quiet.out
        (report,) = reports
        assert list(report.per_param) == names[0]
        assert verbose.err.splitlines() == [f"{name} {worst:.3e}" for name, worst in report.per_param.items()]
        assert names[0][0] == "subchar_emb.table" and len(names[0]) > 10


def test_external_granularity_refused_by_argparse(capsys):
    # the library's external granularity needs a boundary map per text, which no flag can give
    assert main(["embed", "--pairs-vocab", PAIRS, "--text", "하다", "--granularity", "external"]) == 2
    assert "invalid choice: 'external'" in capsys.readouterr().err
    for granularity in ("subword", "character", "word"):
        assert main(["embed", "--pairs-vocab", PAIRS, "--text", "하다", "--granularity", granularity]) == 0


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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("dim = abc", "config key dim expects an integer, got 'abc'"),
            ("heads = 1.5", "config key heads expects an integer, got '1.5'"),
            ("cls_bypass = maybe", "config key cls_bypass expects a boolean, got 'maybe'"),
        ],
        ids=["dim-not-int", "heads-not-int", "cls-bypass-not-bool"],
    )
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main([
            "embed", "--pairs-vocab", PAIRS, "--text", "하다", "--config", str(cfg),
        ]) == 1
        err = capsys.readouterr().err
        assert_one_line_error_text(err)
        assert message in err

    @pytest.mark.parametrize("granularity", ["external", "sentence"])
    @pytest.mark.parametrize("command", ["train", "embed", "probe-pca"])
    def test_config_granularity_outside_the_cli_choices_rejected(
        self, tmp_path, monkeypatch, capsys, command, granularity
    ):
        cfg, out, log = tmp_path / "pipe.cfg", tmp_path / "out", tmp_path / "m.csv"
        cfg.write_text(f"dim = 4\ngranularity = {granularity}\n", encoding="utf-8")
        trained = []
        monkeypatch.setattr(subword, "train_vocab", lambda *args, **kwargs: trained.append(args))
        argv = {
            "train": ["train", "--pairs", PAIRS, "--log", str(log)],
            "embed": ["embed", "--pairs-vocab", PAIRS, "--text", "하다"],
            "probe-pca": ["probe-pca", "--pairs-vocab", PAIRS, "--words", "하다,했다"],
        }[command]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line_error_text(captured.err)
        assert f"error: {cfg}: unknown granularity '{granularity}', expected one of" in captured.err
        assert trained == []
        assert not out.exists() and not log.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("scheme = foo", "unknown scheme 'foo', expected one of"),
            ("dim = 4\nheads = 3", "heads must divide dim, got 3 heads for dim 4"),
        ],
        ids=["scheme", "heads"],
    )
    @pytest.mark.parametrize("command", ["train", "embed", "probe-pca"])
    def test_invalid_config_file_value_names_the_file(self, tmp_path, monkeypatch, capsys, command, lines, message):
        cfg, out, log = tmp_path / "pipe.cfg", tmp_path / "out", tmp_path / "m.csv"
        cfg.write_text(lines + "\n", encoding="utf-8")
        trained = []
        monkeypatch.setattr(subword, "train_vocab", lambda *args, **kwargs: trained.append(args))
        argv = {
            "train": ["train", "--pairs", PAIRS, "--log", str(log)],
            "embed": ["embed", "--pairs-vocab", PAIRS, "--text", "하다"],
            "probe-pca": ["probe-pca", "--pairs-vocab", PAIRS, "--words", "하다,했다"],
        }[command]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line_error_text(captured.err)
        assert f"error: {cfg}: {message}" in captured.err
        assert trained == []
        assert not out.exists() and not log.exists()

    def test_residual_flag_under_a_config_file_fusion_that_reads_none_names_the_file(self, tmp_path, capsys):
        cfg, out = tmp_path / "pipe.cfg", tmp_path / "out"
        cfg.write_text("fusion = summation\n", encoding="utf-8")
        argv = ["embed", "--pairs-vocab", PAIRS, "--text", "하다", "--config", str(cfg), "--out", str(out)]
        assert main([*argv, "--residual-fusion"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line_error_text(captured.err)
        assert captured.err == f"error: {cfg}: heads and residual_fusion apply only to cross-attention fusion, not summation\n"
        assert not out.exists()

    def test_flag_overrides_an_invalid_config_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("dim = 4\nheads = 3\n", encoding="utf-8")
        argv = ["embed", "--pairs-vocab", PAIRS, "--text", "하다", "--config", str(cfg)]
        assert main([*argv, "--heads", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith("dim3")
        # a flag that is wrong on its own is reported without the file's name
        assert main([*argv, "--scheme", "foo"]) == 1
        err = capsys.readouterr().err
        assert_one_line_error_text(err)
        assert "error: unknown scheme 'foo'" in err and str(cfg) not in err

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

    def test_pair_file_is_loaded_once(self, tmp_path, monkeypatch, capsys):
        loads = []

        def counting_load(path):
            if isinstance(path, str):  # a load opens the file and reads its stream through this name again
                loads.append(path)
            return load_pair_dataset(path)

        monkeypatch.setattr(training, "load_pair_dataset", counting_load)
        assert main(["train", "--pairs", PAIRS, "--out", str(tmp_path / "m.ckpt"), "--epochs", "1", "--dim", "4"]) == 0
        assert loads == [PAIRS]


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
            {"config": {"pipeline": {"dim": "x"}, "subword_vocab": {"mode": "charlist", "entries": SPECIAL_ENTRIES}}, "tensors": []},
        ],
        ids=["tensors-not-list", "shape-not-list", "config-not-object", "config-without-pipeline", "dim-not-int"],
    )
    def test_header_with_wrong_types_is_domain_error(self, tmp_path, capsys, fields):
        header = json.dumps({"format_version": 1, "seed": 0, **fields}).encode("utf-8")
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(struct.pack("<4sIQ", b"JFCK", 1, len(header)) + header)
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("shape", [[10**10], [2**40, 2**40]], ids=["larger-than-file", "overflows-int64"])
    def test_declared_payload_larger_than_the_file_is_domain_error(self, tmp_path, capsys, shape):
        header = json.dumps({"format_version": 1, "seed": 0, "config": {}, "tensors": [{"name": "x", "shape": shape}]})
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(struct.pack("<4sIQ", b"JFCK", 1, len(header)) + header.encode("utf-8") + bytes(64))
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        err = capsys.readouterr().err
        assert_one_line_error_text(err)
        assert "truncated payload for 'x'" in err

    def test_bytes_after_last_tensor_are_domain_error(self, trained, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        with open(trained["ckpt"], "rb") as stream:
            ckpt.write_bytes(stream.read() + b"\0")
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        assert_one_line_error(capsys)

    def test_vocab_without_unk_is_domain_error(self, trained, tmp_path, capsys):
        with open(trained["ckpt"], "rb") as stream:
            blob = stream.read()
        magic, version, header_len = struct.unpack_from("<4sIQ", blob)
        header = json.loads(blob[16 : 16 + header_len])
        vocab = header["config"]["subword_vocab"]
        kept = sorted((t for t in vocab["entries"] if t != "<unk>"), key=vocab["entries"].get)
        vocab["entries"] = {t: i for i, t in enumerate(kept)}
        new_header = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(struct.pack("<4sIQ", magic, version, len(new_header)) + new_header + blob[16 + header_len :])
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        err = capsys.readouterr().err
        assert_one_line_error_text(err)
        assert "<unk>" in err

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


    @pytest.mark.parametrize("command", ["embed", "probe-pca"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("granularity", "external", "unknown granularity 'external'"),
            ("scheme", "foo", "unknown scheme 'foo'"),
            ("heads", 2, "heads and residual_fusion apply only to cross-attention fusion, not summation"),
        ],
        ids=["granularity", "scheme", "heads-without-cross-attention"],
    )
    def test_invalid_stored_config_names_the_checkpoint(self, trained, tmp_path, capsys, command, key, value, message):
        with open(trained["ckpt"], "rb") as stream:
            blob = stream.read()
        magic, version, header_len = struct.unpack_from("<4sIQ", blob)
        header = json.loads(blob[16 : 16 + header_len])
        header["config"]["pipeline"][key] = value
        new_header = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(struct.pack("<4sIQ", magic, version, len(new_header)) + new_header + blob[16 + header_len :])
        argv = {"embed": ["--text", "하다"], "probe-pca": ["--words", "하다,했다"]}[command]
        assert main([command, "--ckpt", str(ckpt), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line_error_text(captured.err)
        assert captured.err.startswith(f"error: {ckpt}: {message}")


class TestProbes:
    @pytest.mark.parametrize(
        "command, argv",
        [("embed", ["--text", "하다"]), ("probe-pairs", ["--pairs", PAIRS]),
         ("probe-pca", ["--words", "하다,했다"]), ("probe-cohesion", ["--sets", SETS])],
        ids=["embed", "probe-pairs", "probe-pca", "probe-cohesion"],
    )
    def test_verbose_echoes_the_checkpoint_config(self, trained, capsys, command, argv):
        assert main([command, "--ckpt", trained["ckpt"], *argv]) == 0
        quiet = capsys.readouterr()
        assert main([command, "--ckpt", trained["ckpt"], *argv, "--verbose"]) == 0
        verbose = capsys.readouterr()
        stored = checkpoint.load_checkpoint(trained["ckpt"]).config["pipeline"]
        assert verbose.out == quiet.out and quiet.err == ""
        assert verbose.err == f"config: {json.dumps(stored, sort_keys=True)}\n"

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

    def test_probe_pca_strips_words(self, trained, capsys):
        assert main(["probe-pca", "--ckpt", trained["ckpt"], "--words", "하다,했다,가다"]) == 0
        clean = capsys.readouterr().out
        assert main(["probe-pca", "--ckpt", trained["ckpt"], "--words", " 하다, 했다 ,,가다 , "]) == 0
        assert capsys.readouterr().out == clean

    def test_probe_cohesion_padded_crlf_sets(self, trained, tmp_path, capsys):
        assert main(["probe-cohesion", "--ckpt", trained["ckpt"], "--sets", SETS]) == 0
        clean = capsys.readouterr().out
        padded = tmp_path / "sets.tsv"
        lines = open(SETS, encoding="utf-8").read().splitlines()
        padded.write_bytes("".join(" \t ".join(line.split("\t")) + " \r\n" for line in lines).encode("utf-8"))
        assert main(["probe-cohesion", "--ckpt", trained["ckpt"], "--sets", str(padded)]) == 0
        assert capsys.readouterr().out == clean

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


def write_checkpoint(path, header: bytes, payload: bytes = b"", version: int = 1) -> None:
    path.write_bytes(struct.pack("<4sIQ", b"JFCK", version, len(header)) + header + payload)


def header_of(blob: bytes) -> tuple[dict, bytes]:
    """A checkpoint's header and the payload after it."""
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[16 : 16 + header_len]), blob[16 + header_len :]


def tensor_entries(entries) -> bytes:
    return json.dumps({"format_version": 1, "seed": 0, "config": {}, "tensors": entries}).encode("utf-8")


class TestCheckpointRefusals:
    """Each refusal of a checkpoint file ends embed with exit 1 and one line naming the file."""

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda p: p.write_bytes(b"JFCK\x01\x00"), "truncated prefix"),
            (lambda p: write_checkpoint(p, b"{}", version=2), "unsupported format version 2"),
            (lambda p: p.write_bytes(struct.pack("<4sIQ", b"JFCK", 1, 100) + b"{}"), "truncated header"),
            (lambda p: write_checkpoint(p, b"{\xff}"), "bad header: 'utf-8' codec can't decode byte 0xff"),
            (lambda p: write_checkpoint(p, b"{"), "bad header: Expecting property name"),
            (lambda p: write_checkpoint(p, b"[]"), "header is not a JSON object"),
            (lambda p: write_checkpoint(p, tensor_entries([{"shape": [1]}])),
             "tensor entry {'shape': [1]} needs a name and a shape"),
            (lambda p: write_checkpoint(p, tensor_entries([{"name": "x"}])),
             "tensor entry {'name': 'x'} needs a name and a shape"),
            (lambda p: write_checkpoint(p, tensor_entries([{"name": 1, "shape": [1]}])),
             "tensor name 1 is not a string"),
        ],
        ids=["prefix", "version", "header-length", "header-not-utf8", "header-not-json", "header-not-object",
             "entry-without-name", "entry-without-shape", "name-not-string"],
    )
    def test_malformed_container(self, tmp_path, capsys, write, message):
        ckpt = tmp_path / "model.ckpt"
        write(ckpt)
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        err = capsys.readouterr().err
        assert_one_line_error_text(err)
        assert err.startswith(f"error: {ckpt}: {message}")

    def test_shape_that_does_not_match_the_parameter(self, trained, tmp_path, capsys):
        with open(trained["ckpt"], "rb") as stream:
            header, payload = header_of(stream.read())
        entry = next(e for e in header["tensors"] if len(e["shape"]) == 2 and e["shape"][0] != e["shape"][1])
        rows, cols = entry["shape"]
        entry["shape"] = [cols, rows]  # the same number of values, in the wrong shape
        ckpt = tmp_path / "model.ckpt"
        write_checkpoint(ckpt, json.dumps(header).encode("utf-8"), payload)
        assert main(["embed", "--ckpt", str(ckpt), "--text", "하다"]) == 1
        err = capsys.readouterr().err
        assert_one_line_error_text(err)
        assert err == (
            f"error: {ckpt}: shape ({cols}, {rows}) for {entry['name']!r} does not match parameter ({rows}, {cols})\n"
        )

    @pytest.mark.parametrize("key", ["mode", "entries"])
    def test_subword_vocab_without_a_field(self, trained, tmp_path, capsys, key):
        with open(trained["ckpt"], "rb") as stream:
            header, payload = header_of(stream.read())
        del header["config"]["subword_vocab"][key]
        ckpt = tmp_path / "model.ckpt"
        write_checkpoint(ckpt, json.dumps(header).encode("utf-8"), payload)
        assert main(["probe-pca", "--ckpt", str(ckpt), "--words", "하다,했다"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: checkpoint subword_vocab needs a mode string and an entries object\n"


class TestMoreRefusals:
    def test_config_line_without_equals_names_the_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("# widths\ndim = 4\nfusion summation\n", encoding="utf-8")
        assert main(["embed", "--pairs-vocab", PAIRS, "--text", "하다", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:3: expected key = value, got 'fusion summation'\n"

    @pytest.mark.parametrize("yes, no", [("yes", "false"), ("True", "NO"), ("1", "0")])
    def test_config_boolean_spellings(self, tmp_path, capsys, yes, no):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(f"dim = 4\ncls_bypass = {yes}\nresidual_fusion = {no}\n", encoding="utf-8")
        assert main(["embed", "--pairs-vocab", PAIRS, "--text", "하다", "--config", str(cfg), "--verbose"]) == 0
        echoed = json.loads(capsys.readouterr().err.removeprefix("config: "))
        assert echoed["cls_bypass"] is True and echoed["residual_fusion"] is False

    def test_probe_pca_needs_words(self, trained, capsys):
        assert main(["probe-pca", "--ckpt", trained["ckpt"]]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: need --words or --words-file\n"

    def test_train_with_a_vocab_file(self, tmp_path, capsys):
        corpus, vocab, ckpt = tmp_path / "corpus.txt", tmp_path / "v.vocab", tmp_path / "m.ckpt"
        corpus.write_text("하다 했다\n가다 갔다\n", encoding="utf-8")
        assert main(["vocab-train", "--in", str(corpus), "--size", "30", "--out", str(vocab)]) == 0
        assert main([
            "train", "--pairs", PAIRS, "--vocab", str(vocab), "--out", str(ckpt), "--epochs", "1", "--dim", "4",
        ]) == 0
        stored = checkpoint.load_checkpoint(str(ckpt)).config["subword_vocab"]
        assert stored == {"mode": "bpe-lite", "entries": load_vocab(vocab).entries}


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--pairs", PAIRS, "--out", "OUT"],
        ["gradcheck", "--d", "4"],  # gradcheck prints, and takes no --out
        ["embed", "--pairs-vocab", PAIRS, "--text", "하다", "--out", "OUT"],
        ["probe-pca", "--pairs-vocab", PAIRS, "--words", "하다,했다", "--out", "OUT"],
    ],
    ids=["train", "gradcheck", "embed", "probe-pca"],
)
def test_negative_seed_is_named(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([str(out) if a == "OUT" else a for a in argv] + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def run_cli(argv: list, cwd) -> subprocess.CompletedProcess:
    """The CLI in a new process, its argv given as bytes where they are not UTF-8."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "jamofuse.cli", *argv], capture_output=True, env=env, cwd=cwd)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["decompose", b"\xff"], "text"),
        (["tokenize", b"a\xffb", "--scheme", "bts"], "text"),
        (["encode", b"\xff", "--vocab", "missing.vocab"], "text"),
        (["oracle-align", b"\xff", "--units", "가"], "surface"),
        (["oracle-align", "가", "--units", b"\xff"], "--units"),
        (["oracle-align", "가", "--units", "가", "--delim", b"\xff"], "--delim"),
        (["gradcheck", "--text", b"\xff", "--d", "4"], "--text"),
        (["embed", "--text", b"\xff", "--pairs-vocab", PAIRS], "--text"),
        (["probe-pca", "--words", b"\xff,\xed\x95\x98\xeb\x8b\xa4", "--pairs-vocab", PAIRS], "--words"),
    ],
    ids=["decompose", "tokenize", "encode", "oracle-align-surface", "oracle-align-units", "oracle-align-delim",
         "gradcheck", "embed", "probe-pca"],
)
def test_text_argument_that_is_not_utf8_is_named(tmp_path, argv, name):
    proc = run_cli(argv, tmp_path)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == f"error: {name}: not UTF-8 text: byte 0xff (invalid start byte)\n".encode("utf-8")


def test_path_argument_that_is_not_utf8_is_accepted(tmp_path):
    proc = run_cli(["embed", "--text", "하다", "--pairs-vocab", PAIRS, "--out", b"\xff.csv"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert os.listdir(bytes(tmp_path)) == [b"\xff.csv"]


@pytest.mark.parametrize(
    "files, argv",
    [
        ({b"bad\xffname.tsv": b"\xea\xb0\x80\t1\n"}, ["encode", "하", "--vocab", b"bad\xffname.tsv"]),
        ({b"bad\xffcfg.cfg": b"dim\n"}, ["embed", "--pairs-vocab", PAIRS, "--text", "하", "--config", b"bad\xffcfg.cfg"]),
        ({b"bin\xff.tsv": b"\xff\xfe\n"}, ["train", "--pairs", b"bin\xff.tsv", "--out", "m.ckpt"]),
        ({}, ["embed", "--ckpt", b"/nonexistent/\xff", "--text", "하"]),
    ],
    ids=["vocab-without-header", "config-line-without-equals", "pairs-not-utf8", "missing-checkpoint"],
)
def test_error_line_shows_a_path_byte_that_is_not_utf8(tmp_path, files, argv):
    for name, data in files.items():
        with open(os.path.join(bytes(tmp_path), name), "wb") as f:
            f.write(data)
    proc = run_cli(argv, tmp_path)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert_one_line_error_text(proc.stderr.decode("utf-8"))
    assert b"\\xff" in proc.stderr and b"udcff" not in proc.stderr
    assert sorted(os.listdir(bytes(tmp_path))) == sorted(files)


def test_unrecognized_argument_that_is_not_utf8_is_usage_error(tmp_path):
    proc = run_cli(["decompose", "한", b"\xff"], tmp_path)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert b"unrecognized arguments" in proc.stderr and b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, flag, target, work",
    [
        (["train", "--pairs", PAIRS, "--out", "DIR"], "--out", "DIR", "training.load_pair_dataset"),
        (["train", "--pairs", PAIRS, "--out", "missing/m.ckpt"], "--out", "missing/m.ckpt",
         "training.load_pair_dataset"),
        (["train", "--pairs", PAIRS, "--out", "m.ckpt", "--log", "DIR"], "--log", "DIR",
         "training.load_pair_dataset"),
        (["oracle-stats", "--in", CORPUS, "--csv", "DIR"], "--csv", "DIR", "oracle.read_jsonl_corpus"),
        (["oracle-stats", "--in", CORPUS, "--json", "missing/s.json"], "--json", "missing/s.json",
         "oracle.read_jsonl_corpus"),
    ],
    ids=["train-out-directory", "train-out-missing-directory", "train-log-directory", "oracle-stats-csv-directory",
         "oracle-stats-json-missing-directory"],
)
def test_output_path_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, flag, target, work):
    (tmp_path / "DIR").mkdir()
    monkeypatch.chdir(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(f"jamofuse.{work}", no_work)  # where the subcommand imports it from
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line_error_text(captured.err)
    assert f"{flag} {target!r}" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["DIR"] and not any((tmp_path / "DIR").iterdir())


@pytest.mark.parametrize(
    "argv, flags, work",
    [
        (["train", "--pairs", PAIRS, "--out", "same.out", "--log", "same.out"], ("--out", "--log"),
         "training.load_pair_dataset"),
        (["train", "--pairs", PAIRS, "--log", "DIR/../same.out", "--out", "same.out"], ("--log", "--out"),
         "training.load_pair_dataset"),
        (["oracle-stats", "--in", CORPUS, "--json", "same.out", "--csv", "./same.out"], ("--json", "--csv"),
         "oracle.read_jsonl_corpus"),
    ],
    ids=["train-out-log", "train-log-out-through-a-directory", "oracle-stats-json-csv"],
)
def test_two_outputs_naming_one_file_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, flags, work):
    (tmp_path / "DIR").mkdir()
    monkeypatch.chdir(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(f"jamofuse.{work}", no_work)  # where the subcommand imports it from
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line_error_text(captured.err)
    assert f"{flags[0]} and {flags[1]} name one file" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["DIR"] and not any((tmp_path / "DIR").iterdir())


@pytest.mark.parametrize(
    "argv",
    [["oracle-stats", "--in", CORPUS, "--out", "F"], ["gradcheck", "--d", "2", "--out", "F"]],
    ids=["oracle-stats", "gradcheck"],
)
def test_out_refused_where_the_subcommand_writes_none(tmp_path, monkeypatch, capsys, argv):
    # oracle-stats writes to --json and --csv, and gradcheck prints: an --out they never
    # wrote would have left no file while exiting 0
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --out F" in captured.err
    assert not any(tmp_path.iterdir())


# a run of each subcommand that reads neither --seed nor --verbose (vocab-train reads --verbose)
UNREAD_FLAG_RUNS = {
    "decompose": ["decompose", "한국", "--out", "F"],
    "tokenize": ["tokenize", "한국", "--out", "F"],
    "vocab-train": ["vocab-train", "--in", PAIRS, "--size", "200", "--out", "F"],
    "encode": ["encode", "하다", "--vocab", "VOCAB", "--out", "F"],
    "oracle-align": ["oracle-align", "추웠다", "--units", "춥다", "--out", "F"],
    "oracle-stats": ["oracle-stats", "--in", CORPUS, "--json", "F"],
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in UNREAD_FLAG_RUNS for flag in (["--seed", "0"], ["--verbose"])
     if (command, flag) != ("vocab-train", ["--verbose"])],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_flag_refused_where_the_subcommand_reads_none(tmp_path, monkeypatch, capsys, command, flag):
    # each of these 11 was accepted and dropped: nothing was seeded, and nothing was echoed
    vocab = tmp_path / "vocab.tsv"
    save_vocab(train_vocab(["하다 했다"], 20), vocab)
    argv = [str(vocab) if a == "VOCAB" else a for a in UNREAD_FLAG_RUNS[command]]
    for run, extra, code in (("without", [], 0), ("with", flag, 2)):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert main([*argv, *extra]) == code
        captured = capsys.readouterr()
    assert (tmp_path / "without" / "F").exists()
    assert captured.out == "" and f"unrecognized arguments: {' '.join(flag)}" in captured.err
    assert not any((tmp_path / "with").iterdir())


# a run that reads every flag it is given, a flag that the run's mode would drop, and the refusal
DROPPED_FLAG_RUNS = {
    "embed-vocab-size-with-vocab": (
        ["embed", "--vocab", "VOCAB", "--text", "하다", "--dim", "4", "--out", "F"], ["--vocab-size", "50"],
        "--vocab-size sets the size of the vocab --pairs-vocab derives; drop it or give --pairs-vocab",
    ),
    "embed-vocab-size-with-ckpt": (
        ["embed", "--ckpt", "CKPT", "--text", "하다", "--out", "F"], ["--vocab-size", "50"],
        "--ckpt fixes the model and its vocab; drop --vocab-size",
    ),
    "probe-pairs-vocab-size-with-vocab": (
        ["probe-pairs", "--pairs", PAIRS, "--vocab", "VOCAB", "--dim", "4", "--out", "F"], ["--vocab-size", "50"],
        "--vocab-size sets the size of the vocab --pairs-vocab derives; drop it or give --pairs-vocab",
    ),
    "probe-pca-vocab-size-with-vocab": (
        ["probe-pca", "--vocab", "VOCAB", "--words", "하다,했다", "--dim", "4", "--out", "F"], ["--vocab-size", "50"],
        "--vocab-size sets the size of the vocab --pairs-vocab derives; drop it or give --pairs-vocab",
    ),
    "probe-cohesion-vocab-size-with-vocab": (
        ["probe-cohesion", "--sets", SETS, "--vocab", "VOCAB", "--dim", "4", "--out", "F"], ["--vocab-size", "50"],
        "--vocab-size sets the size of the vocab --pairs-vocab derives; drop it or give --pairs-vocab",
    ),
    "train-vocab-size-with-vocab": (
        ["train", "--pairs", PAIRS, "--vocab", "VOCAB", "--epochs", "1", "--dim", "4", "--out", "F"],
        ["--vocab-size", "50"],
        "--vocab-size sets the size of the vocab derived from --pairs; drop it with --vocab",
    ),
    "oracle-align-units-with-in": (
        ["oracle-align", "--in", CORPUS, "--out", "F"], ["--units", "하"],
        "--units go with a surface argument; drop them with --in",
    ),
    "probe-pca-words-file-with-words": (
        ["probe-pca", "--pairs-vocab", PAIRS, "--words", "하다,했다", "--dim", "4", "--out", "F"],
        ["--words-file", "WORDS"],
        "--words and --words-file each give the words; drop one",
    ),
    "embed-seed-with-ckpt": (
        ["embed", "--ckpt", "CKPT", "--text", "하다", "--out", "F"], ["--seed", "0"],
        "--ckpt fixes the model and its vocab; drop --seed",
    ),
    "probe-pca-seed-with-ckpt": (
        ["probe-pca", "--ckpt", "CKPT", "--words", "하다,했다", "--out", "F"], ["--seed", "1"],
        "--ckpt fixes the model and its vocab; drop --seed",
    ),
    "embed-pairs-vocab-with-vocab": (
        ["embed", "--pairs-vocab", PAIRS, "--text", "하다", "--dim", "4", "--out", "F"], ["--vocab", "VOCAB"],
        "--vocab and --pairs-vocab each give the vocab; drop one",
    ),
}


@pytest.mark.parametrize("case", DROPPED_FLAG_RUNS)
def test_flag_refused_where_the_mode_drops_it(tmp_path, monkeypatch, trained, capsys, case):
    # each of these was accepted and dropped: the run's output did not depend on it
    vocab, words = tmp_path / "vocab.json", tmp_path / "words.txt"
    save_vocab(train_vocab(["하다 했다"], 20), vocab)
    words.write_text("하다\n했다\n", encoding="utf-8")
    paths = {"VOCAB": str(vocab), "CKPT": trained["ckpt"], "WORDS": str(words)}
    argv, flag, message = DROPPED_FLAG_RUNS[case]
    for run, extra, code in (("without", [], 0), ("with", flag, 1)):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert main([paths.get(a, a) for a in [*argv, *extra]]) == code
        captured = capsys.readouterr()
    assert (tmp_path / "without" / "F").exists()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not any((tmp_path / "with").iterdir())


PIPELINE_FLAGS = {
    "--scheme", "--dim", "--compression", "--fusion", "--granularity", "--heads", "--residual-fusion",
    "--cls-bypass", "--config", "--seed", "--verbose",
}
MODEL_SOURCE_FLAGS = {"--ckpt", "--vocab", "--pairs-vocab", "--vocab-size"}
SUBCOMMAND_OPTIONS = {
    "decompose": {"text", "--out", "--scheme"},
    "tokenize": {"text", "--out", "--scheme"},
    "vocab-train": {"--in", "--size", "--mode", "--out", "--verbose"},
    "encode": {"text", "--vocab", "--cls", "--out"},
    "oracle-align": {"surface", "--units", "--in", "--delim", "--out"},
    "oracle-stats": {"--in", "--top-k", "--partitions", "--json", "--csv"},
    "gradcheck": {"--text", "--d", "--tol", *PIPELINE_FLAGS},
    "train": {
        "--pairs", "--log", "--vocab", "--vocab-size", "--objective", "--epochs", "--lr", "--batch-size",
        "--margin", "--weight-decay", "--no-freeze-subword", "--out", *PIPELINE_FLAGS,
    },
    "embed": {"--text", "--out", *MODEL_SOURCE_FLAGS, *PIPELINE_FLAGS},
    "probe-pairs": {"--pairs", "--out", *MODEL_SOURCE_FLAGS, *PIPELINE_FLAGS},
    "probe-pca": {"--words", "--words-file", "--k", "--channel", "--out", *MODEL_SOURCE_FLAGS, *PIPELINE_FLAGS},
    "probe-cohesion": {"--sets", "--out", *MODEL_SOURCE_FLAGS, *PIPELINE_FLAGS},
}


def test_each_subcommand_takes_exactly_its_options():
    # a new flag must be added here too, after checking that the subcommand reads it
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {
        name: {o for a in parser._actions for o in a.option_strings or [a.dest]} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert taken == SUBCOMMAND_OPTIONS


def test_probe_pairs_loads_a_pair_file_given_twice_once(tmp_path, monkeypatch, capsys):
    copy = tmp_path / "copy.tsv"
    copy.write_bytes(open(PAIRS, "rb").read())
    loads = []

    def counted(path):
        if isinstance(path, str):  # a load opens the file and reads its stream through this name again
            loads.append(path)
        return load_pair_dataset(path)

    monkeypatch.setattr(training, "load_pair_dataset", counted)
    csvs = []
    for vocab_pairs in (str(copy), PAIRS):  # a second file with the same bytes, then the same file
        loads.clear()
        assert main(["probe-pairs", "--pairs", PAIRS, "--pairs-vocab", vocab_pairs, "--dim", "4"]) == 0
        csvs.append(capsys.readouterr().out)
    assert loads == [PAIRS]
    assert csvs[0] == csvs[1] and csvs[0].startswith("form_a,")


# a run with every flag given at the library's default against one with the flags left out
DEFAULT_FLAG_RUNS = {
    "train": (
        ["train", "--pairs", "pairs.tsv", "--dim", "4", "--out", "m.ckpt", "--log", "m.csv", "--verbose"],
        [
            *(f"--{key.replace('_', '-')}={value}" for key, value in TrainConfig().to_dict().items()
              if key not in ("freeze_subword", "seed")),
            "--seed", "0",
        ],
    ),
    "oracle-stats": (
        ["oracle-stats", "--in", CORPUS, "--json", "s.json", "--csv", "s.csv"],
        [f"--{key.replace('_', '-')}={inspect.signature(corpus_stats).parameters[key].default}"
         for key in ("top_k", "partitions")],
    ),
    "probe-pca": (
        ["probe-pca", "--pairs-vocab", PAIRS, "--words", "하다,했다,가다", "--dim", "4", "--out", "p.csv"],
        [f"--{key}={inspect.signature(pca_project).parameters[key].default}" for key in ("k", "channel")],
    ),
    "vocab-train": (
        ["vocab-train", "--in", "pairs.tsv", "--size", "30", "--out", "v.vocab"],
        [f"--mode={inspect.signature(train_vocab).parameters['mode'].default}"],
    ),
}


@pytest.mark.parametrize("command", DEFAULT_FLAG_RUNS)
def test_flags_left_out_take_the_library_defaults(tmp_path, monkeypatch, capsys, command):
    argv, defaults = DEFAULT_FLAG_RUNS[command]
    pairs = "하다\t했다\tverb-past\n가다\t갔다\tverb-past\n먹다\t먹었다\tverb-past\n"
    outputs = []
    for flags in ([], defaults):
        run = tmp_path / ("given" if flags else "left-out")
        run.mkdir()
        (run / "pairs.tsv").write_text(pairs, encoding="utf-8")
        monkeypatch.chdir(run)
        assert main([*argv, *flags]) == 0
        captured = capsys.readouterr()
        outputs.append((captured.out, captured.err, {p.name: p.read_bytes() for p in sorted(run.iterdir())}))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][2]) > 1


def test_no_freeze_subword_trains_the_subword_table(tmp_path, capsys):
    assert main([
        "train", "--pairs", PAIRS, "--out", str(tmp_path / "m.ckpt"), "--epochs", "1", "--dim", "4",
        "--no-freeze-subword", "--verbose",
    ]) == 0
    echoed = json.loads(capsys.readouterr().err.removeprefix("config: "))
    assert echoed["train"]["freeze_subword"] is False
