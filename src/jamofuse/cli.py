"""Command line entry point exposing every capability of the package.

Exit codes: 0 on success, 1 on domain errors (one diagnostic line on stderr),
2 on usage errors. Outputs are UTF-8 text, CSV, or JSON per subcommand, and
file outputs are written atomically so interrupted runs leave nothing behind.
Configuration precedence is flags over config file over built-in defaults;
pass --verbose to echo the effective configuration to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .checkpoint import load_checkpoint, restore, save_checkpoint, write_atomic
from .gradcheck import grad_check
from .oracle import (
    align,
    corpus_stats,
    read_jsonl_corpus,
    stats_report_csv,
    stats_report_json,
)
from .pipeline import Pipeline, PipelineConfig, ConfigError, embeddings_csv
from .subchar import SubcharTokenizer
from .subword import SubwordVocab, encode, load_vocab, save_vocab, train_vocab
from .training import (
    TrainConfig,
    cohesion_report,
    load_pair_dataset,
    load_word_sets,
    pair_similarity,
    pca_project,
    train,
)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        write_atomic(out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _read_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


_BOOL_FIELDS = {"residual_fusion", "cls_bypass"}
_INT_FIELDS = {"dim", "heads"}


def _coerce_config_value(key: str, value: str):
    if key in _INT_FIELDS:
        return int(value)
    if key in _BOOL_FIELDS:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key} expects a boolean, got {value!r}")
    return value


def _pipeline_config(args) -> PipelineConfig:
    """Flags beat the config file, which beats the defaults."""
    values = PipelineConfig().to_dict()
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r} in {args.config}")
            values[key] = _coerce_config_value(key, raw)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return PipelineConfig.from_dict(values)


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", help="subcharacter scheme: jamo, stroke, cji, bts")
    parser.add_argument("--dim", type=int, help="embedding width")
    parser.add_argument("--compression", help="principles, linear, or attention")
    parser.add_argument("--fusion", help="cross-attention, summation, or concatenation")
    parser.add_argument("--granularity", help="subword, character, word, or external")
    parser.add_argument("--heads", type=int, help="attention heads for cross-attention fusion")
    parser.add_argument("--residual-fusion", action="store_true", default=None,
                        dest="residual_fusion", help="add the raw channel back after fusion")
    parser.add_argument("--cls-bypass", action="store_true", default=None,
                        dest="cls_bypass", help="prepend the CLS embedding untouched")
    parser.add_argument("--config", help="key = value file with pipeline settings")


def _add_model_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ckpt", help="checkpoint file; its config and vocab are used")
    parser.add_argument("--vocab", help="subword vocab JSON (when no checkpoint)")
    parser.add_argument("--pairs-vocab", help="derive the vocab from this pair TSV")
    parser.add_argument("--vocab-size", type=int, default=200,
                        help="target size when deriving a vocab from pairs")


def _vocab_from_pairs(path: str, size: int) -> SubwordVocab:
    data = load_pair_dataset(path)
    corpus = [f"{r.form_a} {r.form_b}" for r in data.records]
    return train_vocab(corpus, size)


# Flags a checkpoint would override: its own pipeline config and vocab win.
_CKPT_FIXED = [*PipelineConfig().to_dict(), "config", "vocab", "pairs_vocab"]


def _pipeline_from_checkpoint(path: str) -> Pipeline:
    ckpt = load_checkpoint(path)
    stored = ckpt.config if isinstance(ckpt.config, dict) else {}
    pipeline, vocab = stored.get("pipeline"), stored.get("subword_vocab")
    if not (isinstance(pipeline, dict) and isinstance(vocab, dict)):
        raise ConfigError(f"{path}: checkpoint config needs a pipeline object and a subword_vocab object")
    if not (isinstance(vocab.get("mode"), str) and isinstance(vocab.get("entries"), dict)):
        raise ConfigError(f"{path}: checkpoint subword_vocab needs a mode string and an entries object")
    try:
        subword_vocab = SubwordVocab(vocab["mode"], dict(vocab["entries"]))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    pipe = Pipeline.build(PipelineConfig.from_dict(pipeline), subword_vocab, seed=ckpt.seed)
    restore(pipe.params.group, ckpt, path)
    return pipe


def _load_pipeline(args) -> Pipeline:
    """Builds the model from a checkpoint, or fresh from flags and a vocab."""
    if getattr(args, "ckpt", None):
        ignored = ["--" + key.replace("_", "-") for key in _CKPT_FIXED if getattr(args, key, None) is not None]
        if ignored:
            raise ConfigError(f"--ckpt fixes the model and its vocab; drop {', '.join(ignored)}")
        return _pipeline_from_checkpoint(args.ckpt)
    config = _pipeline_config(args)
    if getattr(args, "vocab", None):
        vocab = load_vocab(args.vocab)
    elif getattr(args, "pairs_vocab", None):
        vocab = _vocab_from_pairs(args.pairs_vocab, args.vocab_size)
    else:
        raise ConfigError("need --ckpt, --vocab, or --pairs-vocab to build the model")
    if args.verbose:
        print(f"config: {json.dumps(config.to_dict(), sort_keys=True)}", file=sys.stderr)
    return Pipeline.build(config, vocab, seed=args.seed)


# subcommands ------------------------------------------------------------------


def cmd_decompose(args) -> int:
    tokenizer = SubcharTokenizer(args.scheme or "jamo")
    seq = tokenizer.tokenize(args.text)
    lines = [f"{tokenizer.vocab.atom(t)}\t{r}" for t, r in zip(seq.tokens.tolist(), seq.roles)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_tokenize(args) -> int:
    tokenizer = SubcharTokenizer(args.scheme or "jamo")
    seq = tokenizer.tokenize(args.text)
    lines = [f"{t}\t{tokenizer.vocab.atom(t)}\t{r}" for t, r in zip(seq.tokens.tolist(), seq.roles)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_vocab_train(args) -> int:
    with open(args.infile, encoding="utf-8") as stream:
        corpus = [line.rstrip("\n") for line in stream if line.strip()]
    vocab = train_vocab(corpus, args.size, mode=args.mode)
    save_vocab(vocab, args.out)
    if args.verbose:
        print(f"trained {vocab.mode} vocab of {vocab.size} entries", file=sys.stderr)
    return 0


def cmd_encode(args) -> int:
    vocab = load_vocab(args.vocab)
    ids, boundary = encode(args.text, vocab, add_cls=args.cls)
    lines = [
        f"{i}\t{vocab.token(i)}\t{a}\t{b}" for i, (a, b) in zip(ids, boundary.ranges)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _format_alignment(aligned, delim: str) -> str:
    return "\n".join(f"{ac.surface}{delim}{ac.action_string()}" for ac in aligned)


def cmd_oracle_align(args) -> int:
    if (args.surface is None) == (args.infile is None):
        raise ConfigError("give either a surface with --units, or --in for a jsonl corpus")
    if args.surface is not None:
        if not args.units:
            raise ConfigError("--units is required with a surface argument")
        aligned = align(args.surface, args.units.split(","))
        _emit(_format_alignment(aligned, args.delim) + "\n", args.out)
        return 0
    blocks = []
    with open(args.infile, encoding="utf-8") as stream:
        for line in stream:
            if not line.strip():
                continue
            record = json.loads(line)
            try:
                surface, units = record["surface"], record["lemma_units"]
            except (KeyError, TypeError) as e:
                raise ConfigError(f"{args.infile}: bad corpus record: {line.strip()!r}") from e
            aligned = align(surface, units)
            blocks.append(_format_alignment(aligned, args.delim))
    _emit("\n\n".join(blocks) + "\n", args.out)
    return 0


def cmd_oracle_stats(args) -> int:
    with open(args.infile, encoding="utf-8") as stream:
        aligned = list(read_jsonl_corpus(stream))
    stats = corpus_stats(aligned, top_k=args.top_k, partitions=args.partitions)
    _emit(stats_report_json(stats), args.json)
    if args.csv:
        write_atomic(args.csv, stats_report_csv(stats).encode("utf-8"))
    return 0


def cmd_gradcheck(args) -> int:
    config = _pipeline_config(args)
    if args.d is not None:
        config = PipelineConfig.from_dict({**config.to_dict(), "dim": args.d})
    vocab = train_vocab([args.text], max(16, len(set(args.text)) + 8), mode="charlist")
    pipe = Pipeline.build(config, vocab, seed=args.seed)
    out0, _ = pipe.forward(args.text)
    direction = np.random.default_rng(args.seed).normal(size=out0.shape)

    def loss_fn(with_grad: bool) -> float:
        out, cache = pipe.forward(args.text)
        if with_grad:
            pipe.backward(direction, cache)
        return float((direction * out).sum())

    report = grad_check(loss_fn, pipe.params.group)
    print(f"max_rel_error={report.max_rel_error:.3e} worst={report.worst_param} "
          f"coords={report.coords_checked} tol={args.tol:.1e}")
    return 0 if report.max_rel_error < args.tol else 1


def cmd_train(args) -> int:
    data = load_pair_dataset(args.pairs)
    config = _pipeline_config(args)
    if args.vocab:
        vocab = load_vocab(args.vocab)
    else:
        vocab = _vocab_from_pairs(args.pairs, args.vocab_size)
    pipe = Pipeline.build(config, vocab, seed=args.seed)
    train_config = TrainConfig(
        objective=args.objective,
        epochs=args.epochs,
        lr=args.lr,
        batch_size=args.batch_size,
        margin=args.margin,
        weight_decay=args.weight_decay,
        freeze_subword=not args.no_freeze_subword,
        seed=args.seed,
    )
    if args.verbose:
        effective = {"pipeline": config.to_dict(), "train": train_config.to_dict()}
        print(f"config: {json.dumps(effective, sort_keys=True)}", file=sys.stderr)
    log = train(pipe, data, train_config)
    echo = {
        "pipeline": config.to_dict(),
        "train": train_config.to_dict(),
        "subword_vocab": {"mode": vocab.mode, "entries": vocab.entries},
    }
    save_checkpoint(args.out, pipe.params.group, seed=args.seed, config=echo)
    if args.log:
        write_atomic(args.log, log.to_csv().encode("utf-8"))
    last = log.epochs[-1]
    print(f"trained {len(log.epochs)} epochs: loss={last.loss!r} "
          f"pair_cos_fused={last.mean_pair_cos_fused!r} random_cos={last.mean_random_cos!r}")
    return 0


def cmd_embed(args) -> int:
    pipe = _load_pipeline(args)
    out, cache = pipe.forward(args.text)
    rows = list(zip(pipe.unit_labels(cache), out))
    _emit(embeddings_csv(rows, pipe.config.dim), args.out)
    return 0


def cmd_probe_pairs(args) -> int:
    pipe = _load_pipeline(args)
    report = pair_similarity(pipe, load_pair_dataset(args.pairs))
    _emit(report.to_csv(), args.out)
    return 0


def cmd_probe_pca(args) -> int:
    pipe = _load_pipeline(args)
    if args.words:
        words = [w for w in args.words.split(",") if w]
    elif args.words_file:
        with open(args.words_file, encoding="utf-8") as stream:
            words = [line.strip() for line in stream if line.strip()]
    else:
        raise ConfigError("need --words or --words-file")
    result = pca_project(words, pipe, k=args.k, channel=args.channel, seed=args.seed)
    _emit(result.to_csv(), args.out)
    return 0


def cmd_probe_cohesion(args) -> int:
    pipe = _load_pipeline(args)
    report = cohesion_report(load_word_sets(args.sets), pipe)
    _emit(report.to_csv(), args.out)
    return 0


# parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jamofuse",
        description="Hangul subcharacter tokenization, alternation tagging, and embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, out_required=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--verbose", action="store_true", help="echo effective config to stderr")
        p.add_argument("--seed", type=int, default=0, help="generator seed where randomness exists")
        if out_required:
            p.add_argument("--out", required=True, help="output file path")
        else:
            p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("decompose", cmd_decompose, "print subcharacter atoms with role labels")
    p.add_argument("text")
    p.add_argument("--scheme", help="jamo, stroke, cji, or bts")

    p = add("tokenize", cmd_tokenize, "print vocab ids, atoms, and roles")
    p.add_argument("text")
    p.add_argument("--scheme", help="jamo, stroke, cji, or bts")

    p = add("vocab-train", cmd_vocab_train, "train a subword vocab from a text file",
            out_required=True)
    p.add_argument("--in", dest="infile", required=True, help="one training text per line")
    p.add_argument("--size", type=int, required=True, help="target vocab size")
    p.add_argument("--mode", default="bpe-lite", help="bpe-lite, wordlist, or charlist")

    p = add("encode", cmd_encode, "encode text with a trained subword vocab")
    p.add_argument("text")
    p.add_argument("--vocab", required=True, help="vocab JSON from vocab-train")
    p.add_argument("--cls", action="store_true", help="prepend the CLS token")

    p = add("oracle-align", cmd_oracle_align, "align a surface form to its lemma units")
    p.add_argument("surface", nargs="?", help="surface form (with --units)")
    p.add_argument("--units", help="comma-separated lemma units")
    p.add_argument("--in", dest="infile", help="jsonl corpus of surface and lemma_units")
    p.add_argument("--delim", default="\t", help="output delimiter (default tab)")

    p = add("oracle-stats", cmd_oracle_stats, "aggregate action statistics over a corpus")
    p.add_argument("--in", dest="infile", required=True, help="jsonl corpus")
    p.add_argument("--top-k", type=int, default=10, help="size of the ranked MOD table")
    p.add_argument("--partitions", type=int, default=1, help="parallel-style partition count")
    p.add_argument("--json", help="write the JSON report here instead of stdout")
    p.add_argument("--csv", help="also write the ranked CSV table here")

    p = add("gradcheck", cmd_gradcheck, "finite-difference check of the whole pipeline")
    p.add_argument("--text", default="하다", help="input text for the check")
    p.add_argument("--d", type=int, help="embedding width override")
    p.add_argument("--tol", type=float, default=1e-4, help="max relative error to accept")
    _add_pipeline_flags(p)

    p = add("train", cmd_train, "contrastive or classification training on pair data",
            out_required=True)
    p.add_argument("--pairs", required=True, help="TSV of form_a, form_b, relation")
    p.add_argument("--log", help="write the per-epoch metric CSV here")
    p.add_argument("--vocab", help="subword vocab JSON; default derives from the pairs")
    p.add_argument("--vocab-size", type=int, default=200)
    p.add_argument("--objective", default="contrastive-pairs")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--no-freeze-subword", action="store_true",
                   help="also train the raw subword table")
    _add_pipeline_flags(p)

    p = add("embed", cmd_embed, "emit fused embeddings for a text as CSV")
    p.add_argument("--text", required=True)
    _add_model_source_flags(p)
    _add_pipeline_flags(p)

    p = add("probe-pairs", cmd_probe_pairs, "per-pair cosine similarity, raw vs fused")
    p.add_argument("--pairs", required=True)
    _add_model_source_flags(p)
    _add_pipeline_flags(p)

    p = add("probe-pca", cmd_probe_pca, "power-iteration PCA coordinates for words")
    p.add_argument("--words", help="comma-separated word list")
    p.add_argument("--words-file", help="file with one word per line")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--channel", default="fused", help="raw or fused")
    _add_model_source_flags(p)
    _add_pipeline_flags(p)

    p = add("probe-cohesion", cmd_probe_cohesion, "per-set dispersion, raw vs fused")
    p.add_argument("--sets", required=True, help="TSV, one word set per line")
    _add_model_source_flags(p)
    _add_pipeline_flags(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
        sys.stderr.reconfigure(encoding="utf-8")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
