"""Hangul subcharacter tokenization, alternation tagging, and structure-aware embeddings.

The names of `__all__` load on first use (PEP 562): `from jamofuse import Pipeline`
imports the pipeline and numpy, while `import jamofuse.oracle` imports neither.
"""

import importlib

__version__ = "0.1.0"

# each exported name, and the module that defines it
_EXPORTS = {
    "Pipeline": "pipeline",
    "PipelineConfig": "pipeline",
    "PipelineParams": "pipeline",
    "SubcharTokenizer": "subchar",
    "SubwordVocab": "subword",
    "SyllableBlock": "hangul",
    "align": "oracle",
    "classify_mod": "oracle",
    "compose": "hangul",
    "corpus_stats": "oracle",
    "decompose": "hangul",
    "is_syllable": "hangul",
    "parse_action_file": "oracle",
    "reconstruct_targets": "oracle",
    "train_vocab": "subword",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
