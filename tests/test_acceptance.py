"""Acceptance checklist for the whole package.

One test per criterion, each at its stated tolerance and time budget, so a
verbose run prints one pass or fail line per criterion. These tests overlap
the per-module suites on purpose; they are the single place where the
package-level guarantees are spelled out together.
"""

import time
import unicodedata
from importlib import resources

import numpy as np

from jamofuse.cli import main
from jamofuse.gradcheck import check_pipeline, grad_check
from jamofuse.hangul import NUM_SYLLABLES, SYLLABLE_BASE, compose, decompose
from jamofuse.layers import Conv2x1, CrossAttention, Embedding, GRULayer, Linear
from jamofuse.oracle import KEEP, MOD, NOOP, SUBCHARACTER, align, classify_mod, corpus_stats
from jamofuse.oracle import reconstruct_targets
from jamofuse.pipeline import Pipeline, PipelineConfig, COMPRESSIONS, FUSIONS, pack
from jamofuse.subchar import EMPTY_FINAL, SCHEME_NAMES, SubcharTokenizer
from jamofuse.subword import train_vocab
from jamofuse.training import (
    TrainConfig,
    cohesion_report,
    load_pair_dataset,
    load_word_sets,
    pair_similarity,
    train,
)
from jamofuse.checkpoint import save_checkpoint
from jamofuse.optim import AdamW

import json


def data_file(name: str) -> str:
    return str(resources.files("jamofuse.data") / name)


def role_atoms(tok: SubcharTokenizer, text: str) -> dict[str, list[str]]:
    seq = tok.tokenize(text)
    out: dict[str, list[str]] = {"I": [], "V": [], "F": [], "O": []}
    for token, role in zip(seq.tokens, seq.roles):
        out[role].append(tok.vocab.atom(token))
    return out


def test_criterion_1_hangul_round_trip():
    start = time.perf_counter()
    for code in range(SYLLABLE_BASE, SYLLABLE_BASE + NUM_SYLLABLES):
        ch = chr(code)
        block = decompose(ch)
        assert block is not None
        assert compose(block) == ch

    rng = np.random.default_rng(0)
    for code in rng.integers(SYLLABLE_BASE, SYLLABLE_BASE + NUM_SYLLABLES, size=1000):
        ch = chr(code)
        block = decompose(ch)
        nfd = unicodedata.normalize("NFD", ch)
        assert ord(nfd[0]) == 0x1100 + block.cho
        assert ord(nfd[1]) == 0x1161 + block.jung
        if block.jong:
            assert len(nfd) == 3 and ord(nfd[2]) == 0x11A7 + block.jong
        else:
            assert len(nfd) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 (hangul round trip): PASS in {elapsed:.2f}s")


def test_criterion_2_worked_examples_exact():
    jamo = SubcharTokenizer("jamo")
    grouped = role_atoms(jamo, "대한민국")
    assert grouped["I"] == ["ㄷ", "ㅎ", "ㅁ", "ㄱ"]
    assert grouped["V"] == ["ㅐ", "ㅏ", "ㅣ", "ㅜ"]
    assert grouped["F"] == [EMPTY_FINAL, "ㄴ", "ㄴ", "ㄱ"]

    seq = jamo.tokenize("춥다")
    assert [jamo.vocab.atom(t) for t in seq.tokens] == [
        "ㅊ", "ㅜ", "ㅂ", "ㄷ", "ㅏ", EMPTY_FINAL,
    ]

    bts = SubcharTokenizer("bts")
    wi, wv, _ = bts.scheme.widths  # a character's I, V and F slots, in that order
    tseq = bts.tokenize("ㅉ")
    assert [bts.vocab.atom(t) for t in tseq.tokens[:wi]] == [
        "ㅅ", "-", "ㅅ", "-",
    ]
    vseq = bts.tokenize("ㅙ")
    assert [bts.vocab.atom(t) for t in vseq.tokens[wi : wi + wv]] == [
        "·", "ㅡ", "ㅣ", "·", "ㅣ",
    ]
    print("criterion 2 (worked examples): PASS")


def test_criterion_3_oracle_equivalence():
    aligned = align("했다", ["하", "았", "다"])
    assert [ac.surface for ac in aligned] == ["했", "다"]
    assert aligned[0].action_string() == "B-MOD-하;I-MOD-았"
    assert reconstruct_targets("했", aligned[0].actions) == ["하", "았"]
    assert aligned[1].action_string() == "B-KEEP"

    (run,) = align("런", ["럽", "ㄴ"])
    assert run.action_string() == "B-MOD-럽;I-MOD-ㄴ"

    assert classify_mod("한", ["하"]) is SUBCHARACTER
    assert classify_mod("라", ["이"]).value == "character"

    # brute-force recount of the bundled corpus, independent of CorpusStats
    keep = mod = noop = chars = sub = char_level = 0
    aligned_chars = []
    with open(data_file("inflections.jsonl"), encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            for ac in align(record["surface"], record["lemma_units"]):
                aligned_chars.append(ac)
                if decompose(ac.surface) is None:
                    continue
                chars += 1
                kinds = {a.kind for a in ac.actions}
                keep += KEEP in kinds
                noop += NOOP in kinds
                if MOD in kinds:
                    mod += 1
                    targets = reconstruct_targets(ac.surface, ac.actions)
                    if classify_mod(ac.surface, targets) is SUBCHARACTER:
                        sub += 1
                    else:
                        char_level += 1

    assert (chars, keep, mod, noop) == (555, 469, 60, 26)
    assert (sub, char_level) == (50, 10)

    stats = corpus_stats(aligned_chars)
    assert (stats.chars_total, stats.keep, stats.mod, stats.noop) == (chars, keep, mod, noop)
    assert (stats.mod_subchar, stats.mod_char) == (sub, char_level)
    report = stats.to_json_dict()
    assert report["frac_subcharacter"] == sub / mod
    assert report["frac_character"] == char_level / mod
    assert stats.mod_subchar * 2 > stats.mod, "subcharacter MOD must be the strict majority"
    print(
        f"criterion 3 (oracle equivalence): PASS — {chars} chars, "
        f"{sub}/{mod} subcharacter MOD"
    )


def test_criterion_4_shape_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    pool = [chr(SYLLABLE_BASE + int(i)) for i in rng.integers(0, NUM_SYLLABLES, size=60)]
    pool += list("abcXYZ019 !?.,ㅉㅙ ")
    texts = []
    for _ in range(100):
        length = int(rng.integers(1, 12))
        picks = rng.integers(0, len(pool), size=length)
        text = "".join(pool[int(i)] for i in picks).strip() or "한"
        texts.append(text)

    vocab = train_vocab(texts, 200, mode="charlist")
    for scheme in SCHEME_NAMES:
        width = SubcharTokenizer(scheme).scheme.width
        pipe = Pipeline(PipelineConfig(scheme=scheme, dim=4), vocab, seed=1)
        cls_pipe = Pipeline(
            PipelineConfig(scheme=scheme, dim=4, cls_bypass=True), vocab, seed=1
        )
        for text in texts:
            seq = pipe.tokenizer.tokenize(text)
            assert len(seq) == width * len(text)
            table = pipe.params.subchar_emb.table.data
            h_c, _ = pipe.stage1_subchar_to_char(seq.tokens, pack([seq], width), table)
            assert h_c.shape == (len(text), 4)

            ids, ranges = pipe.unit_ranges(text)
            out, _ = pipe.forward(text)
            assert out.shape == (len(ranges), 4)

            cls_out, _ = cls_pipe.forward(text)
            assert cls_out.shape == (len(ranges) + 1, 4)
            cls_row = cls_pipe.params.subchar_emb.table.data[cls_pipe.tokenizer.vocab.cls_id]
            assert np.array_equal(cls_out[0], cls_row)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 4 (shape laws): PASS — 100 texts x 4 schemes in {elapsed:.2f}s")


def test_criterion_5_gradient_fidelity():
    start = time.perf_counter()
    vocab = train_vocab(["하다 했다 ab"], 40, mode="charlist")
    worst = 0.0
    for scheme in SCHEME_NAMES:
        for fusion in FUSIONS:
            for seed in (0, 1, 2):
                cfg = PipelineConfig(scheme=scheme, dim=4, fusion=fusion)
                pipe = Pipeline(cfg, vocab, seed=seed)
                # every coordinate: grad_check serves those in table rows 하다 never reads from its first call
                report = check_pipeline(pipe, "하다", seed)
                worst = max(worst, report.max_rel_error)
                assert report.max_rel_error < 1e-4, f"{scheme}/{fusion}/{seed}: {report}"
                assert report.coords_checked == pipe.params.group.data.size

    # individual ops at the tighter tolerance
    rng = np.random.default_rng(9)
    op_worst = 0.0

    def check(layer, forward):
        nonlocal op_worst
        out0 = forward()[0]
        r = rng.standard_normal(out0.shape)

        def loss_fn(with_grad):
            out, cache = forward()
            if with_grad:
                layer.backward(r, cache)
            return float((out * r).sum())

        report = grad_check(loss_fn, layer.params.items())
        op_worst = max(op_worst, report.max_rel_error)
        assert report.max_rel_error < 1e-6, str(report)

    emb = Embedding(6, 3, rng)
    check(emb, lambda: emb.forward([0, 4, 4, 2]))
    lin = Linear(3, 2, rng)
    x_lin = rng.standard_normal((5, 3))
    check(lin, lambda: lin.forward(x_lin))
    gru = GRULayer(3, rng)
    x_gru = rng.standard_normal((6, 3))
    check(gru, lambda: gru.forward(x_gru))
    conv = Conv2x1(3, rng)
    x_conv = rng.standard_normal((2, 4, 3))
    check(conv, lambda: conv.forward(x_conv[0], x_conv[1]))
    attn = CrossAttention(4, rng)
    q = rng.standard_normal((3, 4))
    kv = rng.standard_normal((3, 4))
    check(attn, lambda: attn.forward(q, kv))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 5 (gradient fidelity): PASS — pipeline worst {worst:.2e}, "
        f"ops worst {op_worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_6_probe_direction():
    start = time.perf_counter()
    data = load_pair_dataset(data_file("verb_past_pairs.tsv"))
    corpus = [f"{r.form_a} {r.form_b}" for r in data.records]
    vocab = train_vocab(corpus, 200)
    config = PipelineConfig(scheme="jamo", dim=16, compression="principles", fusion="summation")
    pipe = Pipeline(config, vocab, seed=7)

    untrained = pair_similarity(pipe, data).mean_fused
    log = train(pipe, data, TrainConfig(epochs=20, lr=0.05, batch_size=8, seed=7))
    trained = log.epochs[-1].mean_pair_cos_fused
    random_mean = log.epochs[-1].mean_random_cos

    assert trained - untrained >= 0.05
    assert trained - random_mean >= 0.05

    report = cohesion_report(load_word_sets(data_file("inflection_sets.tsv")), pipe)
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.dispersion_fused < row.dispersion_raw, row.label

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"criterion 6 (probe direction): PASS — fused pair cosine "
        f"{untrained:.3f} -> {trained:.3f} (random {random_mean:.3f}) in {elapsed:.1f}s"
    )


def test_criterion_7_ablation_plumbing(tmp_path):
    vocab = train_vocab(["하다 했다", "한 ab"], 50)
    blobs = {}
    for scheme in SCHEME_NAMES:
        for compression in COMPRESSIONS:
            for fusion in FUSIONS:
                cfg = PipelineConfig(scheme=scheme, dim=4, compression=compression, fusion=fusion)
                pipe = Pipeline(cfg, vocab, seed=5)
                out, cache = pipe.forward("하다 ab")
                pipe.params.group.zero_grads()
                pipe.backward(np.ones_like(out), cache)
                AdamW(pipe.params.group).step(0.01)
                path = tmp_path / f"{scheme}-{compression}-{fusion}.ckpt"
                save_checkpoint(str(path), pipe.params.group, seed=5, config=cfg.to_dict())
                blobs[(scheme, compression, fusion)] = path.read_bytes()
    assert len(blobs) == 36
    assert len(set(blobs.values())) == 36, "checkpoints must be pairwise distinct"

    # fusion neutrality: summation with zeroed structural parameters is e_S
    pipe = Pipeline(PipelineConfig(dim=4, fusion="summation"), vocab, seed=5)
    for name, tensor in pipe.params.group.items():
        if not name.startswith("subword_emb"):
            tensor.data[...] = 0.0
    text = "하다 ab"
    ids, _ = pipe.unit_ranges(text)
    out, _ = pipe.forward(text)
    assert np.array_equal(out, pipe.params.subword_emb.table.data[ids])
    print("criterion 7 (ablation plumbing): PASS — 36 distinct checkpoints, summation neutral")


def test_criterion_8_subcommand_determinism(tmp_path, capsys):
    pairs = data_file("verb_past_pairs.tsv")
    corpus_txt = tmp_path / "corpus.txt"
    corpus_txt.write_text("하다 했다\n한국 민국\n", encoding="utf-8")
    vocab_path = tmp_path / "vocab.tsv"
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "log.csv"

    def run(argv, outputs):
        code = main(argv)
        assert code == 0, argv
        captured = capsys.readouterr().out
        return [captured.encode()] + [p.read_bytes() for p in outputs]

    commands = [
        (["decompose", "--scheme", "stroke", "한국"], []),
        (["tokenize", "--scheme", "cji", "한국"], []),
        (["vocab-train", "--in", str(corpus_txt), "--size", "30",
          "--out", str(vocab_path)], [vocab_path]),
        (["encode", "하다", "--vocab", str(vocab_path)], []),
        (["oracle-align", "추웠다", "--units", "춥다"], []),
        (["oracle-stats", "--in", data_file("inflections.jsonl"), "--top-k", "5",
          "--csv", str(tmp_path / "top.csv")], [tmp_path / "top.csv"]),
        (["gradcheck", "--d", "4", "--text", "하다", "--seed", "3"], []),
        (["train", "--pairs", pairs, "--out", str(ckpt), "--log", str(log),
          "--epochs", "1", "--dim", "8", "--seed", "13"], [ckpt, log]),
        (["embed", "--ckpt", str(ckpt), "--text", "한국어"], []),
        (["probe-pairs", "--ckpt", str(ckpt), "--pairs", pairs], []),
        (["probe-pca", "--ckpt", str(ckpt), "--words", "하다,했다,갔다"], []),
        (["probe-cohesion", "--ckpt", str(ckpt),
          "--sets", data_file("inflection_sets.tsv")], []),
    ]
    for argv, outputs in commands:
        first = run(argv, outputs)
        second = run(argv, outputs)
        assert first == second, f"non-deterministic output: {argv}"
    print(f"criterion 8 (determinism): PASS — {len(commands)} subcommands byte-stable")
