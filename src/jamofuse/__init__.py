"""Hangul subcharacter tokenization, alternation tagging, and structure-aware embeddings."""

from .hangul import SyllableBlock, compose, decompose, is_syllable
from .oracle import align, classify_mod, corpus_stats, parse_action_file, reconstruct_targets
from .pipeline import Pipeline, PipelineConfig, PipelineParams
from .subchar import SubcharTokenizer
from .subword import SubwordVocab, train_vocab

__version__ = "0.1.0"

__all__ = [
    "Pipeline",
    "PipelineConfig",
    "PipelineParams",
    "SubcharTokenizer",
    "SubwordVocab",
    "SyllableBlock",
    "align",
    "classify_mod",
    "compose",
    "corpus_stats",
    "decompose",
    "is_syllable",
    "parse_action_file",
    "reconstruct_targets",
    "train_vocab",
    "__version__",
]
