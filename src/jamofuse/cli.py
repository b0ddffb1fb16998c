"""Command line entry point exposing every capability of the package.

Exit codes: 0 on success, 1 on domain errors (one diagnostic line on stderr),
2 on usage errors. Outputs are UTF-8 text, CSV, or JSON per subcommand; an
output path is checked before any work, and file outputs are written
atomically so interrupted runs leave nothing behind.
Configuration precedence is flags over config file over the library's defaults
(a flag left out takes the default of the field or parameter it sets). Only the
six subcommands that build a model (gradcheck, train, embed, probe-*) take --seed;
they and vocab-train take --verbose, which echoes the effective configuration to
stderr (vocab-train: the vocab's mode and size; gradcheck: per-parameter errors).

Each subcommand imports the modules it runs inside its cmd_* function, and the
parser needs only `common`, so `--help`, `oracle-align`, `oracle-stats`,
`vocab-train` and `encode` start without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Optional

from .common import GRANULARITIES, ConfigError, not_utf8, open_text, write_atomic

if TYPE_CHECKING:
    from .pipeline import Pipeline, PipelineConfig
    from .subword import SubwordVocab
    from .training import PairDataset

# target size of a vocab derived from pair data
PAIRS_VOCAB_SIZE = 200


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        write_atomic(out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


class _Text(argparse.Action):
    """A text argument: bytes in it that are not UTF-8 end in a ConfigError naming it, before any work."""

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            (value or "").encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as e:
            raise not_utf8(option_string or self.dest, e) from None
        setattr(namespace, self.dest, value)


class _Output(argparse.Action):
    """An output path: one naming a directory, whose directory is missing, or that names the file of
    another output flag (one write would replace the other) is a ConfigError before any work."""

    def __call__(self, parser, namespace, value, option_string=None):
        if os.path.isdir(value):
            raise ConfigError(f"{option_string} {value!r}: is a directory")
        if not os.path.isdir(os.path.dirname(value) or "."):
            raise ConfigError(f"{option_string} {value!r}: no such directory")
        real, taken = os.path.realpath(value), vars(namespace).setdefault("output_files", {})
        for flag, other in taken.items():
            if flag != option_string and other == real:
                raise ConfigError(f"{flag} and {option_string} name one file {value!r}")
        taken[option_string] = real
        setattr(namespace, self.dest, value)


def _read_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment."""
    values: dict[str, str] = {}
    with open_text(path) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _defaults() -> dict:
    """PipelineConfig's defaults, by field name."""
    from .pipeline import PipelineConfig

    return PipelineConfig().to_dict()


def _coerce_config_value(key: str, value: str):
    """Parse a config file value as the type of the key's PipelineConfig default."""
    kind = type(_defaults()[key])
    if kind is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key} expects a boolean, got {value!r}")
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"config key {key} expects an integer, got {value!r}") from None
    return value


def _given(args, keys) -> dict:
    """The flags among keys that were given; the others keep the library's defaults."""
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _pipeline_config(args) -> PipelineConfig:
    """Flags beat the config file, which beats the defaults; an error the flags alone do not make names the file."""
    from .pipeline import PipelineConfig

    path, from_file, defaults = getattr(args, "config", None), {}, _defaults()
    for key, raw in (_read_config_file(path) if path else {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} in {path}")
        from_file[key] = _coerce_config_value(key, raw)
    flags = _given(args, defaults)
    try:
        return PipelineConfig.from_dict({**defaults, **from_file, **flags})
    except ConfigError as e:
        PipelineConfig.from_dict({**defaults, **flags})  # raises when the flags alone are at fault
        raise ConfigError(f"{path}: {e}") from e


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", help="subcharacter scheme: jamo, stroke, cji, bts")
    parser.add_argument("--dim", type=int, help="embedding width")
    parser.add_argument("--compression", help="principles, linear, or attention")
    parser.add_argument("--fusion", help="cross-attention, summation, or concatenation")
    parser.add_argument("--granularity", choices=GRANULARITIES,
                        help="unit boundaries: subword, character, or word")
    parser.add_argument("--heads", type=int, help="attention heads (cross-attention fusion only)")
    parser.add_argument("--residual-fusion", action="store_true", default=None,
                        dest="residual_fusion", help="add the raw channel back after cross-attention fusion")
    parser.add_argument("--cls-bypass", action="store_true", default=None,
                        dest="cls_bypass", help="prepend the CLS embedding untouched")
    parser.add_argument("--config", help="key = value file with pipeline settings")
    parser.add_argument("--seed", type=int, default=0, help="seeds a fresh model's weights and every random draw")
    parser.add_argument("--verbose", action="store_true",
                        help="echo the effective config to stderr (gradcheck: each parameter's worst relative error)")


def _add_model_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ckpt", help="checkpoint file; its config and vocab are used")
    parser.add_argument("--vocab", help="subword vocab JSON (when no checkpoint)")
    parser.add_argument("--pairs-vocab", help="derive the vocab from this pair TSV")
    parser.add_argument("--vocab-size", type=int,
                        help=f"target size of the vocab --pairs-vocab derives (default {PAIRS_VOCAB_SIZE})")


def _vocab_from_pairs(data: PairDataset, size: Optional[int]) -> SubwordVocab:
    from .subword import train_vocab

    size = PAIRS_VOCAB_SIZE if size is None else size
    return train_vocab([f"{r.form_a} {r.form_b}" for r in data.records], size)


def _pipeline_from_checkpoint(path: str) -> Pipeline:
    from .checkpoint import load_checkpoint, restore
    from .pipeline import Pipeline, PipelineConfig
    from .subword import SubwordVocab

    ckpt = load_checkpoint(path)
    stored = ckpt.config if isinstance(ckpt.config, dict) else {}
    pipeline, vocab = stored.get("pipeline"), stored.get("subword_vocab")
    if not (isinstance(pipeline, dict) and isinstance(vocab, dict)):
        raise ConfigError(f"{path}: checkpoint config needs a pipeline object and a subword_vocab object")
    if not (isinstance(vocab.get("mode"), str) and isinstance(vocab.get("entries"), dict)):
        raise ConfigError(f"{path}: checkpoint subword_vocab needs a mode string and an entries object")
    try:
        subword_vocab = SubwordVocab(vocab["mode"], dict(vocab["entries"]))
        pipe = Pipeline(PipelineConfig.from_dict(pipeline), subword_vocab, seed=ckpt.seed)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    restore(pipe.params.group, ckpt, path)
    return pipe


def _load_pipeline(args, pairs: Optional[PairDataset] = None) -> Pipeline:
    """Builds the model from a checkpoint, or fresh from flags and a vocab; pairs, when given, is
    the dataset at --pairs-vocab, already loaded."""
    from .pipeline import Pipeline
    from .subword import load_vocab

    if args.ckpt:
        # flags a checkpoint would override: its own pipeline config and vocab win
        fixed = [*_defaults(), "config", "vocab", "pairs_vocab", "vocab_size"]
        ignored = ["--" + key.replace("_", "-") for key in _given(args, fixed)]
        if ignored:
            raise ConfigError(f"--ckpt fixes the model and its vocab; drop {', '.join(ignored)}")
        pipe = _pipeline_from_checkpoint(args.ckpt)
        if args.verbose:
            print(f"config: {json.dumps(pipe.config.to_dict(), sort_keys=True)}", file=sys.stderr)
        return pipe
    if args.vocab and args.pairs_vocab:
        raise ConfigError("--vocab and --pairs-vocab each give the vocab; drop one")
    if args.vocab_size is not None and not args.pairs_vocab:
        raise ConfigError("--vocab-size sets the size of the vocab --pairs-vocab derives; "
                          "drop it or give --pairs-vocab")
    config = _pipeline_config(args)
    if args.vocab:
        vocab = load_vocab(args.vocab)
    elif args.pairs_vocab:
        from .training import load_pair_dataset

        vocab = _vocab_from_pairs(pairs or load_pair_dataset(args.pairs_vocab), args.vocab_size)
    else:
        raise ConfigError("need --ckpt, --vocab, or --pairs-vocab to build the model")
    if args.verbose:
        print(f"config: {json.dumps(config.to_dict(), sort_keys=True)}", file=sys.stderr)
    return Pipeline(config, vocab, seed=args.seed)


# subcommands ------------------------------------------------------------------


def cmd_tokenize(args) -> int:
    """Atom and role of each token; `tokenize` puts the vocab id first, `decompose` leaves it out."""
    from .subchar import SubcharTokenizer

    tokenizer = SubcharTokenizer(**_given(args, ["scheme"]))
    seq = tokenizer.tokenize(args.text)
    with_ids = args.command == "tokenize"
    lines = [
        (f"{t}\t" if with_ids else "") + f"{tokenizer.vocab.atom(t)}\t{r}"
        for t, r in zip(seq.tokens.tolist(), seq.roles)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_vocab_train(args) -> int:
    from .subword import save_vocab, train_vocab

    with open_text(args.infile) as stream:
        corpus = [line.rstrip("\n") for line in stream if line.strip()]
    vocab = train_vocab(corpus, args.size, **_given(args, ["mode"]))
    save_vocab(vocab, args.out)
    if args.verbose:
        print(f"trained {vocab.mode} vocab of {vocab.size} entries", file=sys.stderr)
    return 0


def cmd_encode(args) -> int:
    from .subword import encode, load_vocab

    vocab = load_vocab(args.vocab)
    ids, boundary = encode(args.text, vocab, add_cls=args.cls)
    lines = [
        f"{i}\t{vocab.token(i)}\t{a}\t{b}" for i, (a, b) in zip(ids, boundary.ranges)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _aligned_lines(surface: str, units: list[str], delim: str) -> str:
    """align()'s `<char> DELIM <actions>` lines, as parse_action_file reads them back.

    A unit is written inside `;`-joined actions, so it must not hold `;`, the
    delimiter or a line break, nor end in whitespace, which the reader strips.
    Each surface character starts a line that the reader splits at its first
    delimiter, so it must not be a line break, nor make the delimiter start at
    the character itself (a delimiter made of that character alone). The
    delimiter must not occur in a line's action string either.
    """
    from .oracle import align

    for unit in units:
        if ";" in unit or delim in unit or "\n" in unit or "\r" in unit or unit[-1:].isspace():
            raise ConfigError(
                f"unit {unit!r} cannot be written back: it holds ';', the delimiter {delim!r} "
                "or a line break, or ends in whitespace"
            )
    for ch in surface:
        if ch in "\n\r" or delim == ch * len(delim):
            raise ConfigError(
                f"surface character {ch!r} cannot be written back: it is a line break or makes up the delimiter {delim!r}"
            )
    lines = []
    for ac in align(surface, units):
        actions = ac.action_string()
        if delim in actions:
            raise ConfigError(f"delimiter {delim!r} cannot be written back: it occurs in the actions {actions!r}")
        lines.append(f"{ac.surface}{delim}{actions}")
    return "\n".join(lines)


def cmd_oracle_align(args) -> int:
    from .oracle import read_jsonl_records

    if (args.surface is None) == (args.infile is None):
        raise ConfigError("give either a surface with --units, or --in for a jsonl corpus")
    if not args.delim:
        raise ConfigError("--delim must not be empty: an action line needs a delimiter between its fields")
    if "\n" in args.delim or "\r" in args.delim:
        raise ConfigError(f"delimiter {args.delim!r} cannot be written back: it holds a line break")
    if args.infile is not None and args.units is not None:
        raise ConfigError("--units go with a surface argument; drop them with --in")
    if args.surface is not None:
        if not args.units:
            raise ConfigError("--units is required with a surface argument")
        _emit(_aligned_lines(args.surface, args.units.split(","), args.delim) + "\n", args.out)
        return 0
    with open_text(args.infile) as stream:
        records = read_jsonl_records(stream)
        blocks = [_aligned_lines(surface, units, args.delim) for surface, units in records]
    _emit("\n\n".join(blocks) + "\n", args.out)
    return 0


def cmd_oracle_stats(args) -> int:
    from .oracle import corpus_stats, read_jsonl_corpus, stats_report_csv, stats_report_json

    with open_text(args.infile) as stream:
        aligned = list(read_jsonl_corpus(stream))
    stats = corpus_stats(aligned, **_given(args, ["top_k", "partitions"]))
    _emit(stats_report_json(stats), args.json)
    if args.csv:
        write_atomic(args.csv, stats_report_csv(stats).encode("utf-8"))
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import check_pipeline
    from .pipeline import Pipeline
    from .subword import train_vocab

    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol}")
    if not args.text:
        raise ConfigError("--text must not be empty: an empty text has no output rows to check")
    config = _pipeline_config(args)
    vocab = train_vocab([args.text], max(16, len(set(args.text)) + 8), mode="charlist")
    report = check_pipeline(Pipeline(config, vocab, seed=args.seed), args.text, args.seed)
    print(f"max_rel_error={report.max_rel_error:.3e} worst={report.worst_param} "
          f"coords={report.coords_checked} tol={args.tol:.1e}")
    if args.verbose:
        for name, worst in report.per_param.items():
            print(f"{name} {worst:.3e}", file=sys.stderr)
    return 0 if report.max_rel_error < args.tol else 1


def cmd_train(args) -> int:
    from .checkpoint import save_checkpoint
    from .pipeline import Pipeline
    from .subword import load_vocab
    from .training import TrainConfig, load_pair_dataset, train

    if args.vocab and args.vocab_size is not None:
        raise ConfigError("--vocab-size sets the size of the vocab derived from --pairs; drop it with --vocab")
    data = load_pair_dataset(args.pairs)
    config = _pipeline_config(args)
    vocab = load_vocab(args.vocab) if args.vocab else _vocab_from_pairs(data, args.vocab_size)
    pipe = Pipeline(config, vocab, seed=args.seed)
    train_config = TrainConfig(**_given(args, TrainConfig().to_dict()))
    effective = {"pipeline": config.to_dict(), "train": train_config.to_dict()}
    if args.verbose:
        print(f"config: {json.dumps(effective, sort_keys=True)}", file=sys.stderr)
    log = train(pipe, data, train_config)
    echo = {**effective, "subword_vocab": {"mode": vocab.mode, "entries": vocab.entries}}
    save_checkpoint(args.out, pipe.params.group, seed=args.seed, config=echo)
    if args.log:
        write_atomic(args.log, log.to_csv().encode("utf-8"))
    last = log.epochs[-1]
    print(f"trained {len(log.epochs)} epochs: loss={last.loss!r} "
          f"pair_cos_fused={last.mean_pair_cos_fused!r} random_cos={last.mean_random_cos!r}")
    return 0


def cmd_embed(args) -> int:
    from .pipeline import embeddings_csv

    pipe = _load_pipeline(args)
    out, cache = pipe.forward(args.text)
    rows = list(zip(pipe.unit_labels(cache), out))
    _emit(embeddings_csv(rows, pipe.config.dim), args.out)
    return 0


def cmd_probe_pairs(args) -> int:
    from .training import load_pair_dataset, pair_similarity

    data = load_pair_dataset(args.pairs)
    pipe = _load_pipeline(args, data if args.pairs_vocab == args.pairs else None)
    report = pair_similarity(pipe, data)
    _emit(report.to_csv(), args.out)
    return 0


def cmd_probe_pca(args) -> int:
    from .training import pca_project

    if args.words is not None and args.words_file is not None:
        raise ConfigError("--words and --words-file each give the words; drop one")
    pipe = _load_pipeline(args)
    if args.words:
        words = [w.strip() for w in args.words.split(",") if w.strip()]
    elif args.words_file:
        with open_text(args.words_file) as stream:
            words = [line.strip() for line in stream if line.strip()]
    else:
        raise ConfigError("need --words or --words-file")
    result = pca_project(words, pipe, **_given(args, ["k", "channel"]))
    _emit(result.to_csv(), args.out)
    return 0


def cmd_probe_cohesion(args) -> int:
    from .training import cohesion_report, load_word_sets

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

    def add(name, func, help_text, out="optional"):
        """A subcommand; out is "required", "optional" (stdout otherwise) or None where it writes no --out."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if out == "required":
            p.add_argument("--out", required=True, action=_Output, help="output file path")
        elif out == "optional":
            p.add_argument("--out", action=_Output, help="write output to this file instead of stdout")
        return p

    p = add("decompose", cmd_tokenize, "print subcharacter atoms with role labels")
    p.add_argument("text", action=_Text)
    p.add_argument("--scheme", help="jamo, stroke, cji, or bts")

    p = add("tokenize", cmd_tokenize, "print vocab ids, atoms, and roles")
    p.add_argument("text", action=_Text)
    p.add_argument("--scheme", help="jamo, stroke, cji, or bts")

    p = add("vocab-train", cmd_vocab_train, "train a subword vocab from a text file", out="required")
    p.add_argument("--in", dest="infile", required=True, help="one training text per line")
    p.add_argument("--size", type=int, required=True, help="target vocab size")
    p.add_argument("--mode", help="bpe-lite, wordlist, or charlist")
    p.add_argument("--verbose", action="store_true", help="print the trained vocab's mode and size to stderr")

    p = add("encode", cmd_encode, "encode text with a trained subword vocab")
    p.add_argument("text", action=_Text)
    p.add_argument("--vocab", required=True, help="vocab JSON from vocab-train")
    p.add_argument("--cls", action="store_true", help="prepend the CLS token")

    p = add("oracle-align", cmd_oracle_align, "align a surface form to its lemma units")
    p.add_argument("surface", nargs="?", action=_Text, help="surface form (with --units)")
    p.add_argument("--units", action=_Text, help="comma-separated lemma units")
    p.add_argument("--in", dest="infile", help="jsonl corpus of surface and lemma_units")
    p.add_argument("--delim", default="\t", action=_Text, help="output delimiter (default tab)")

    p = add("oracle-stats", cmd_oracle_stats, "aggregate action statistics over a corpus", out=None)
    p.add_argument("--in", dest="infile", required=True, help="jsonl corpus")
    p.add_argument("--top-k", type=int, help="size of the ranked MOD table")
    p.add_argument("--partitions", type=int, help="parallel-style partition count")
    p.add_argument("--json", action=_Output, help="write the JSON report here instead of stdout")
    p.add_argument("--csv", action=_Output, help="also write the ranked CSV table here")

    p = add("gradcheck", cmd_gradcheck, "finite-difference check of the whole pipeline", out=None)
    p.add_argument("--text", default="하다", action=_Text, help="input text for the check")
    p.add_argument("--d", type=int, dest="dim", help="embedding width, the same as --dim")
    p.add_argument("--tol", type=float, default=1e-4, help="max relative error to accept")
    _add_pipeline_flags(p)

    p = add("train", cmd_train, "contrastive or classification training on pair data", out="required")
    p.add_argument("--pairs", required=True, help="TSV of form_a, form_b, relation")
    p.add_argument("--log", action=_Output, help="write the per-epoch metric CSV here")
    p.add_argument("--vocab", help="subword vocab JSON; default derives from the pairs")
    p.add_argument("--vocab-size", type=int,
                   help=f"target size of the vocab derived from the pairs (default {PAIRS_VOCAB_SIZE})")
    p.add_argument("--objective")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--no-freeze-subword", action="store_false", default=None, dest="freeze_subword",
                   help="also train the raw subword table")
    _add_pipeline_flags(p)

    p = add("embed", cmd_embed, "emit fused embeddings for a text as CSV")
    p.add_argument("--text", required=True, action=_Text)
    _add_model_source_flags(p)
    _add_pipeline_flags(p)

    p = add("probe-pairs", cmd_probe_pairs, "per-pair cosine similarity, raw vs fused")
    p.add_argument("--pairs", required=True)
    _add_model_source_flags(p)
    _add_pipeline_flags(p)

    p = add("probe-pca", cmd_probe_pca, "PCA coordinates for words")
    p.add_argument("--words", action=_Text, help="comma-separated word list")
    p.add_argument("--words-file", help="file with one word per line")
    p.add_argument("--k", type=int)
    p.add_argument("--channel", help="raw or fused")
    _add_model_source_flags(p)
    _add_pipeline_flags(p)

    p = add("probe-cohesion", cmd_probe_cohesion, "per-set dispersion, raw vs fused")
    p.add_argument("--sets", required=True, help="TSV, one word set per line")
    _add_model_source_flags(p)
    _add_pipeline_flags(p)

    return parser


# a byte that was not UTF-8, as the lone surrogate that surrogateescape made of it or as repr's escape of that
_NOT_UTF8 = re.compile(r"\\udc([89a-f][0-9a-f])|[\udc80-\udcff]")


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, MemoryError) as exc:
        message = str(exc) or type(exc).__name__
        message = _NOT_UTF8.sub(lambda m: "\\x" + (m[1] or f"{ord(m[0]) - 0xDC00:02x}"), message)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
